//! Raw `userfaultfd(2)` support: the paper's proposed alternative to
//! mprotect-based memory management (§2.3.1, §3.1 strategy 5).
//!
//! Faults are delivered in **SIGBUS mode**, the mode the paper measures:
//! the `UFFD_FEATURE_SIGBUS` feature makes missing-page faults deliver a
//! SIGBUS to the faulting thread, and the signal handler resolves legal
//! faults with `UFFDIO_ZEROPAGE` in place, avoiding "back-and-forth
//! context switches" with a handler thread. The paper's footnoted
//! alternative, a thread that reads fault events from the descriptor,
//! "has a higher latency than the signal-based method" and is not
//! implemented.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

// ── Linux ABI (stable since 4.3; SIGBUS feature since 4.14) ─────────────

const UFFD_API: u64 = 0xAA;
const UFFDIO_API: libc::c_ulong = 0xC018_AA3F;
const UFFDIO_REGISTER: libc::c_ulong = 0xC020_AA00;
const UFFDIO_UNREGISTER: libc::c_ulong = 0x8010_AA01;
const UFFDIO_ZEROPAGE: libc::c_ulong = 0xC020_AA04;

const UFFDIO_REGISTER_MODE_MISSING: u64 = 1 << 0;
const UFFD_FEATURE_SIGBUS: u64 = 1 << 7;

#[repr(C)]
struct UffdioApi {
    api: u64,
    features: u64,
    ioctls: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct UffdioRange {
    start: u64,
    len: u64,
}

#[repr(C)]
struct UffdioRegister {
    range: UffdioRange,
    mode: u64,
    ioctls: u64,
}

#[repr(C)]
struct UffdioZeropage {
    range: UffdioRange,
    mode: u64,
    zeropage: i64,
}

/// Outcome of a fault-resolution attempt from the signal handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The page was populated (or already present); retry the access.
    Populated,
    /// The access was beyond the committed size: a wasm OOB trap.
    OutOfBounds,
}

/// An owned userfaultfd file descriptor.
#[derive(Debug)]
pub struct Uffd {
    fd: RawFd,
}

impl Uffd {
    /// Create a userfaultfd in SIGBUS mode (missing faults raise SIGBUS on
    /// the faulting thread; no handler thread required).
    ///
    /// # Errors
    /// Fails if the kernel lacks userfaultfd or the SIGBUS feature, or the
    /// process lacks the privilege (`vm.unprivileged_userfaultfd`).
    pub fn new_sigbus() -> io::Result<Uffd> {
        // The fault point most worth injecting: userfaultfd(2) is EPERM'd
        // in most containers (vm.unprivileged_userfaultfd since 5.11).
        if let Some(e) = lb_chaos::inject("core.uffd.create") {
            return Err(e);
        }
        // SAFETY: plain syscall.
        let fd = unsafe { libc::syscall(libc::SYS_userfaultfd, libc::O_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = fd as RawFd;
        let mut api = UffdioApi {
            api: UFFD_API,
            features: UFFD_FEATURE_SIGBUS,
            ioctls: 0,
        };
        // SAFETY: valid fd and struct.
        let rc = unsafe { libc::ioctl(fd, UFFDIO_API, &mut api) };
        if rc != 0 {
            let e = io::Error::last_os_error();
            // SAFETY: closing the fd we just opened.
            unsafe { libc::close(fd) };
            return Err(e);
        }
        if api.features & UFFD_FEATURE_SIGBUS == 0 {
            // SAFETY: closing the fd we just opened.
            unsafe { libc::close(fd) };
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel lacks UFFD_FEATURE_SIGBUS",
            ));
        }
        Ok(Uffd { fd })
    }

    /// The raw file descriptor (stored in the arena descriptor so the
    /// signal handler can issue `UFFDIO_ZEROPAGE`).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Register `[base, base+len)` for missing-page tracking.
    ///
    /// # Errors
    /// Propagates the `UFFDIO_REGISTER` failure.
    pub fn register_missing(&self, base: usize, len: usize) -> io::Result<()> {
        if let Some(e) = lb_chaos::inject("core.uffd.register") {
            return Err(e);
        }
        let mut reg = UffdioRegister {
            range: UffdioRange {
                start: base as u64,
                len: len as u64,
            },
            mode: UFFDIO_REGISTER_MODE_MISSING,
            ioctls: 0,
        };
        // SAFETY: valid fd and struct; range is a live mapping we own.
        let rc = unsafe { libc::ioctl(self.fd, UFFDIO_REGISTER, &mut reg) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        crate::stats::count_uffd_register();
        Ok(())
    }

    /// Unregister a previously registered range.
    ///
    /// # Errors
    /// Propagates the `UFFDIO_UNREGISTER` failure.
    pub fn unregister(&self, base: usize, len: usize) -> io::Result<()> {
        let range = UffdioRange {
            start: base as u64,
            len: len as u64,
        };
        // SAFETY: valid fd and struct.
        let rc = unsafe { libc::ioctl(self.fd, UFFDIO_UNREGISTER, &range) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Zero-fill `[base+off, base+off+len)`.
    ///
    /// # Errors
    /// Propagates the ioctl failure (e.g. `EEXIST` when already populated).
    pub fn zeropage(&self, start: usize, len: usize) -> io::Result<()> {
        match zeropage_raw(self.fd, start, len) {
            0 => Ok(()),
            e => Err(io::Error::from_raw_os_error(e)),
        }
    }
}

impl Drop for Uffd {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { libc::close(self.fd) };
    }
}

/// Issue `UFFDIO_ZEROPAGE`; returns 0 or the positive errno.
/// Async-signal-safe — including the fault-point consultation, which is
/// atomic loads and increments on pre-registered counters. This one site
/// covers both the host-side populate path and the in-handler SIGBUS
/// fast path. Every real ioctl issued counts into `uffd.zeropage`, so
/// the counter is an exact ioctl tally across host and handler callers.
fn zeropage_raw(fd: RawFd, start: usize, len: usize) -> i32 {
    if let Some(errno) = lb_chaos::inject_raw("core.uffd.copy") {
        return errno;
    }
    crate::stats::count_uffd_zeropage();
    let mut z = UffdioZeropage {
        range: UffdioRange {
            start: start as u64,
            len: len as u64,
        },
        mode: 0,
        zeropage: 0,
    };
    // SAFETY: valid fd and struct; ioctl is async-signal-safe.
    let rc = unsafe { libc::ioctl(fd, UFFDIO_ZEROPAGE, &mut z) };
    if rc == 0 {
        0
    } else {
        // SAFETY: errno read is a TLS load.
        unsafe { *libc::__errno_location() }
    }
}

// ── fault-service window sizing ──────────────────────────────────────────

/// Host page size the servicer batches in (Linux/x86-64).
const HOST_PAGE: usize = 4096;
/// Default service window: 16 host pages = 64 KiB, one wasm page.
pub const DEFAULT_UFFD_WINDOW_PAGES: usize = 16;
/// Hard cap on the (possibly streak-extended) window: 1024 pages = 4 MiB.
pub const MAX_UFFD_WINDOW_PAGES: usize = 1024;
/// Consecutive sequential faults before the window starts extending.
const STREAK_THRESHOLD: usize = 2;
/// Maximum doublings a streak can apply on top of the base window (16×).
const MAX_STREAK_BOOST: usize = 4;

/// Current window in host pages; 0 means "not yet initialized from the
/// environment" and reads as the default.
static WINDOW_PAGES: AtomicU64 = AtomicU64::new(0);

/// Initialize the fault-service window from `LB_UFFD_WINDOW` (host pages,
/// rounded up to a power of two, clamped to `[1, 1024]`). Called once from
/// normal context by `install_handlers`; later env changes are ignored.
pub(crate) fn init_window_from_env() {
    if WINDOW_PAGES.load(Ordering::Relaxed) != 0 {
        return;
    }
    let pages = std::env::var("LB_UFFD_WINDOW")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_UFFD_WINDOW_PAGES);
    set_uffd_window_pages(pages);
}

/// Set the fault-service window in host (4 KiB) pages. The value is
/// rounded up to a power of two and clamped to `[1, 1024]`. A window of 1
/// is the per-page baseline: no batching, no streak prefetch (used as the
/// ablation point the batching speedup is measured against).
pub fn set_uffd_window_pages(pages: usize) {
    let p = pages
        .clamp(1, MAX_UFFD_WINDOW_PAGES)
        .next_power_of_two()
        .min(MAX_UFFD_WINDOW_PAGES);
    WINDOW_PAGES.store(p as u64, Ordering::Relaxed);
}

/// The current fault-service window in host pages.
pub fn uffd_window_pages() -> usize {
    match WINDOW_PAGES.load(Ordering::Relaxed) {
        0 => DEFAULT_UFFD_WINDOW_PAGES,
        p => p as usize,
    }
}

/// Resolve a fault at `desc.base + off` for an arena with `committed`
/// accessible bytes, from signal context.
///
/// This is the stride-predicting batched servicer: instead of one
/// `UFFDIO_ZEROPAGE` per faulting page, it zero-fills a power-of-two
/// window of [`uffd_window_pages`] host pages aligned to the window size
/// (the paper: the handler may "populate the faulted page, or a larger
/// range of pages"). Per-arena last-window bookkeeping in [`ArenaDesc`]
/// detects sequential scans — a fault landing exactly where the previous
/// window ended — and eagerly doubles the window per streak step (up to
/// 16×, hard-capped at 4 MiB), collapsing N ioctls into ~N/16 or better
/// on streaming kernels.
///
/// The window always clamps to the committed range: it must never round
/// past the committed/guard boundary, or pages beyond `memory.size` would
/// be silently populated and out-of-bounds detection lost.
///
/// Async-signal-safe: only ioctls, arithmetic, and relaxed atomics on
/// pre-registered slots.
pub(crate) fn zeropage_around(
    fd: i32,
    desc: &crate::registry::ArenaDesc,
    committed: usize,
    off: usize,
) -> FaultAction {
    if fd < 0 || off >= committed {
        return FaultAction::OutOfBounds;
    }
    let wpages = uffd_window_pages();
    let window = wpages * HOST_PAGE;
    let start = off & !(window - 1);
    let mut len = window;
    if wpages > 1 {
        // Stride prediction. `last_fault_end == 0` means "no history"
        // (fresh or pool-reset arena), so a scan starting at offset 0
        // seeds the predictor without counting as a streak.
        let predicted = desc.last_fault_end.load(Ordering::Relaxed);
        if predicted != 0 && start == predicted {
            let streak = desc.fault_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if streak >= STREAK_THRESHOLD {
                let boost = (streak - STREAK_THRESHOLD + 1).min(MAX_STREAK_BOOST);
                len = (window << boost).min(MAX_UFFD_WINDOW_PAGES * HOST_PAGE);
                crate::stats::count_uffd_prefetch_streak();
            }
        } else {
            desc.fault_streak.store(0, Ordering::Relaxed);
        }
    }
    // Clamp to the registered/committed range — never past the boundary.
    len = len.min(committed - start);
    crate::stats::count_uffd_batch_pages((len / HOST_PAGE) as u64);
    match zeropage_raw(fd, desc.base + start, len) {
        0 => {
            desc.last_fault_end.store(start + len, Ordering::Relaxed);
            FaultAction::Populated
        }
        libc::EEXIST => {
            // Window partially populated; fill just the faulting host page
            // and let the predictor resume from there.
            let page = off & !(HOST_PAGE - 1);
            desc.last_fault_end
                .store(page + HOST_PAGE, Ordering::Relaxed);
            match zeropage_raw(fd, desc.base + page, HOST_PAGE) {
                0 | libc::EEXIST => FaultAction::Populated,
                _ => FaultAction::OutOfBounds,
            }
        }
        libc::EAGAIN => {
            // mm is changing under us; retrying the access will re-fault.
            FaultAction::Populated
        }
        _ => FaultAction::OutOfBounds,
    }
}

/// Whether userfaultfd with SIGBUS mode is usable in this environment.
/// Probed once and cached.
pub fn sigbus_mode_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| Uffd::new_sigbus().is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Protection, Reservation};

    fn require_uffd() -> bool {
        if !sigbus_mode_available() {
            eprintln!("skipping: userfaultfd SIGBUS mode unavailable");
            return false;
        }
        true
    }

    #[test]
    fn api_handshake() {
        let _serial = crate::test_lock();
        if !require_uffd() {
            return;
        }
        let u = Uffd::new_sigbus().unwrap();
        assert!(u.raw_fd() >= 0);
    }

    #[test]
    fn register_and_explicit_zeropage() {
        let _serial = crate::test_lock();
        if !require_uffd() {
            return;
        }
        let res = Reservation::new(1 << 20, Protection::ReadWrite).unwrap();
        let base = res.base().as_ptr() as usize;
        let u = Uffd::new_sigbus().unwrap();
        u.register_missing(base, res.len()).unwrap();
        // Populate explicitly, then read without faulting.
        u.zeropage(base, 4096).unwrap();
        // SAFETY: page populated above.
        let v = unsafe { std::ptr::read_volatile(base as *const u8) };
        assert_eq!(v, 0);
        // Double-populate reports EEXIST.
        let e = u.zeropage(base, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
        u.unregister(base, res.len()).unwrap();
    }

    /// Serializes tests that reconfigure the process-global fault-service
    /// window, and restores the default when dropped.
    struct WindowGuard {
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    fn window_lock(pages: usize) -> WindowGuard {
        let g = crate::test_lock();
        set_uffd_window_pages(pages);
        WindowGuard { _lock: g }
    }

    impl Drop for WindowGuard {
        fn drop(&mut self) {
            set_uffd_window_pages(DEFAULT_UFFD_WINDOW_PAGES);
        }
    }

    /// A registered uffd arena over a fresh reservation, for driving
    /// `zeropage_around` directly (no signal delivery involved).
    fn arena(
        len: usize,
        committed: usize,
    ) -> Option<(Reservation, Uffd, crate::registry::ArenaDesc)> {
        if !require_uffd() {
            return None;
        }
        let res = Reservation::new(len, Protection::ReadWrite).unwrap();
        let base = res.base().as_ptr() as usize;
        let u = Uffd::new_sigbus().unwrap();
        u.register_missing(base, len).unwrap();
        let desc =
            crate::registry::ArenaDesc::new(base, len, committed, BoundsStrategy::Uffd, u.raw_fd());
        Some((res, u, desc))
    }

    use crate::strategy::BoundsStrategy;

    #[test]
    fn window_clamps_to_committed_boundary() {
        let _g = window_lock(16);
        // 5 committed host pages: the 16-page window around a fault in the
        // last committed page must stop exactly at the boundary.
        let Some((_res, u, desc)) = arena(1 << 20, 5 * 4096) else {
            return;
        };
        let base = desc.base;
        let action = zeropage_around(u.raw_fd(), &desc, 5 * 4096, 4 * 4096 + 123);
        assert_eq!(action, FaultAction::Populated);
        // Pages 0..5 are now present (double-populate says EEXIST)...
        for p in 0..5usize {
            let e = u.zeropage(base + p * 4096, 4096).unwrap_err();
            assert_eq!(e.raw_os_error(), Some(libc::EEXIST), "page {p}");
        }
        // ...and the first page past the boundary must NOT have been
        // populated: a fresh zeropage there succeeds.
        u.zeropage(base + 5 * 4096, 4096).unwrap();
    }

    #[test]
    fn fault_in_last_page_before_boundary_is_exact() {
        let _g = window_lock(16);
        // committed = 17 pages: one full window plus one page. A fault in
        // page 16 window-aligns to start=16 pages and must populate only
        // the single remaining committed page.
        let Some((_res, u, desc)) = arena(1 << 20, 17 * 4096) else {
            return;
        };
        let base = desc.base;
        let before = crate::stats::snapshot();
        let action = zeropage_around(u.raw_fd(), &desc, 17 * 4096, 16 * 4096);
        assert_eq!(action, FaultAction::Populated);
        let after = crate::stats::snapshot();
        assert_eq!(after.uffd_zeropage - before.uffd_zeropage, 1);
        let e = u.zeropage(base + 16 * 4096, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
        u.zeropage(base + 17 * 4096, 4096).unwrap();
    }

    #[test]
    fn fault_at_exact_committed_boundary_is_oob() {
        let _g = window_lock(16);
        let Some((_res, u, desc)) = arena(1 << 20, 8 * 4096) else {
            return;
        };
        assert_eq!(
            zeropage_around(u.raw_fd(), &desc, 8 * 4096, 8 * 4096),
            FaultAction::OutOfBounds,
            "off == committed is the first illegal byte"
        );
        assert_eq!(
            zeropage_around(u.raw_fd(), &desc, 0, 0),
            FaultAction::OutOfBounds,
            "an empty committed range has no legal faults"
        );
    }

    #[test]
    fn sequential_faults_batch_and_extend_on_streak() {
        let _g = window_lock(16);
        let committed = 1 << 20; // 256 host pages
        let Some((_res, u, desc)) = arena(1 << 20, committed) else {
            return;
        };
        let before = crate::stats::snapshot();
        let tele_before = lb_telemetry::snapshot();
        // Drive the servicer exactly as a sequential scan would: each
        // simulated fault lands where the previous window ended.
        let mut off = 0usize;
        let mut services = 0u64;
        while off < committed {
            assert_eq!(
                zeropage_around(u.raw_fd(), &desc, committed, off),
                FaultAction::Populated
            );
            services += 1;
            off = desc.last_fault_end.load(Ordering::Relaxed);
        }
        let ioctls = crate::stats::snapshot().uffd_zeropage - before.uffd_zeropage;
        let d = lb_telemetry::snapshot().delta_since(&tele_before);
        // 256 pages in far fewer ioctls than the 16-page base window alone
        // would need (16), because the streak extends the window.
        assert!(services < 16, "streak must extend the window: {services}");
        assert_eq!(ioctls, services);
        assert!(d.counter("uffd.prefetch_streak") >= 1);
        assert_eq!(d.counter("uffd.batch_pages"), 256);
        // Everything inside committed is populated, nothing beyond.
        let e = u.zeropage(desc.base, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
    }

    #[test]
    fn window_of_one_is_per_page_baseline() {
        let _g = window_lock(1);
        let Some((_res, u, desc)) = arena(1 << 20, 32 * 4096) else {
            return;
        };
        let before = crate::stats::snapshot();
        for p in 0..32usize {
            assert_eq!(
                zeropage_around(u.raw_fd(), &desc, 32 * 4096, p * 4096),
                FaultAction::Populated
            );
        }
        let ioctls = crate::stats::snapshot().uffd_zeropage - before.uffd_zeropage;
        assert_eq!(ioctls, 32, "window=1 must issue exactly one ioctl per page");
        let _ = u;
    }

    #[test]
    fn window_setter_rounds_and_clamps() {
        let _g = window_lock(16);
        set_uffd_window_pages(3);
        assert_eq!(uffd_window_pages(), 4, "rounded up to a power of two");
        set_uffd_window_pages(0);
        assert_eq!(uffd_window_pages(), 1, "clamped to at least one page");
        set_uffd_window_pages(1 << 20);
        assert_eq!(uffd_window_pages(), MAX_UFFD_WINDOW_PAGES);
    }

    #[test]
    fn eexist_mid_window_falls_back_to_single_page() {
        let _g = window_lock(16);
        let Some((_res, u, desc)) = arena(1 << 20, 16 * 4096) else {
            return;
        };
        // Pre-populate a page in the middle of the window so the batched
        // zeropage reports EEXIST.
        u.zeropage(desc.base + 7 * 4096, 4096).unwrap();
        let action = zeropage_around(u.raw_fd(), &desc, 16 * 4096, 3 * 4096);
        assert_eq!(action, FaultAction::Populated);
        // The faulting page itself must be present now.
        let e = u.zeropage(desc.base + 3 * 4096, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
    }
}
