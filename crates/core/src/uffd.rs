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
use std::sync::atomic::{AtomicI32, Ordering};

// ── Linux ABI (stable since 4.3; SIGBUS feature since 4.14) ─────────────

const UFFD_API: u64 = 0xAA;
const UFFDIO_API: libc::c_ulong = 0xC018_AA3F;
const UFFDIO_REGISTER: libc::c_ulong = 0xC020_AA00;
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

/// The process-wide SIGBUS-mode userfaultfd, or −1 until the first uffd
/// memory (or [`sigbus_mode_available`]) creates it. One descriptor serves
/// every arena: `UFFDIO_REGISTER` and `UFFDIO_ZEROPAGE` take any range of
/// the process, and `munmap` drops a range's registration by itself (no
/// `UFFD_FEATURE_EVENT_UNMAP` is requested), so an arena's teardown makes
/// no uffd call at all. The descriptor lives until the process exits.
///
/// The install CAS (`AcqRel`) happens before the arena's `Release`
/// registration in [`crate::registry::ARENAS`], and the signal handler
/// reaches an arena through an `Acquire` load of its registry slot, so the
/// handler's relaxed (async-signal-safe) load always sees the descriptor.
static SHARED_FD: AtomicI32 = AtomicI32::new(-1);

/// The shared userfaultfd, created on first use. A failed creation is not
/// remembered: the next caller tries again.
///
/// # Errors
/// Fails if the kernel lacks userfaultfd or the SIGBUS feature, or the
/// process lacks the privilege (`vm.unprivileged_userfaultfd`).
fn shared_fd() -> io::Result<RawFd> {
    let fd = SHARED_FD.load(Ordering::Acquire);
    if fd >= 0 {
        return Ok(fd);
    }
    let fd = create_sigbus()?;
    match SHARED_FD.compare_exchange(-1, fd, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => Ok(fd),
        Err(winner) => {
            // Another thread installed its descriptor first.
            // SAFETY: closing the fd we just opened and never shared.
            unsafe { libc::close(fd) };
            Ok(winner)
        }
    }
}

/// Create a userfaultfd in SIGBUS mode (missing faults raise SIGBUS on the
/// faulting thread; no handler thread required).
fn create_sigbus() -> io::Result<RawFd> {
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
    let err = if rc != 0 {
        io::Error::last_os_error()
    } else if api.features & UFFD_FEATURE_SIGBUS == 0 {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "kernel lacks UFFD_FEATURE_SIGBUS",
        )
    } else {
        return Ok(fd);
    };
    // SAFETY: closing the fd we just opened.
    unsafe { libc::close(fd) };
    Err(err)
}

/// Register `[base, base+len)` with the shared userfaultfd for
/// missing-page tracking, creating the descriptor on first use. An empty
/// range still creates the descriptor, so a memory with nothing to
/// register degrades along the fallback chain like any other when
/// userfaultfd is unavailable, but makes no ioctl.
///
/// # Errors
/// Propagates a descriptor-creation or `UFFDIO_REGISTER` failure.
pub(crate) fn register_missing(base: usize, len: usize) -> io::Result<()> {
    let fd = shared_fd()?;
    if len == 0 {
        return Ok(());
    }
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
    let rc = unsafe { libc::ioctl(fd, UFFDIO_REGISTER, &mut reg) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    crate::stats::count_uffd_register();
    Ok(())
}

/// Populate every missing page of `[start, end)` (host-page aligned) from
/// host context. `UFFDIO_ZEROPAGE` stops with `EEXIST` at the first page
/// already present, so the walk steps past it and carries on; transient
/// `EAGAIN` is retried a bounded number of times.
///
/// # Errors
/// Propagates any other `UFFDIO_ZEROPAGE` failure.
pub(crate) fn populate(mut start: usize, end: usize) -> io::Result<()> {
    let mut retries = 0;
    while start < end {
        match zeropage_raw(start, end - start) {
            0 => return Ok(()),
            libc::EEXIST => start += HOST_PAGE,
            libc::EAGAIN if retries < 16 => {
                retries += 1;
                std::hint::spin_loop();
            }
            e => return Err(io::Error::from_raw_os_error(e)),
        }
    }
    Ok(())
}

/// Issue `UFFDIO_ZEROPAGE`; returns 0 or the positive errno.
/// Async-signal-safe — including the fault-point consultation, which is
/// atomic loads and increments on pre-registered counters. This one site
/// covers both the host-side populate path and the in-handler SIGBUS
/// fast path. Every real ioctl issued counts into `uffd.zeropage`, so
/// the counter is an exact ioctl tally across host and handler callers.
fn zeropage_raw(start: usize, len: usize) -> i32 {
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
    // SAFETY: valid struct; ioctl is async-signal-safe. Before the shared
    // fd exists no range is registered, and the ioctl fails with EBADF.
    let rc = unsafe { libc::ioctl(SHARED_FD.load(Ordering::Relaxed), UFFDIO_ZEROPAGE, &mut z) };
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
/// Service window: 16 host pages = 64 KiB, one wasm page, the unit
/// growth comes in.
const WINDOW_PAGES: usize = 16;
/// Consecutive sequential faults before the window starts extending.
const STREAK_THRESHOLD: usize = 2;
/// Maximum doublings a streak can apply on top of the base window (16×),
/// so a window spans at most 256 host pages.
const MAX_STREAK_BOOST: usize = 4;

/// Resolve a fault at `desc.base + off` for an arena with `committed`
/// accessible bytes, from signal context.
///
/// This is the stride-predicting batched servicer: instead of one
/// `UFFDIO_ZEROPAGE` per faulting page, it zero-fills the one wasm page
/// ([`WINDOW_PAGES`] host pages, aligned) around the fault (the paper: the
/// handler may "populate the faulted page, or a larger range of pages").
/// Per-arena last-window bookkeeping in [`ArenaDesc`]
/// detects sequential scans — a fault landing exactly where the previous
/// window ended — and eagerly doubles the window per streak step (up to
/// 16×), collapsing N ioctls into ~N/16 or better on streaming kernels.
///
/// The window always clamps to `[floor, committed)`, the floor being the
/// arena's [`ArenaDesc::plain_end`](crate::registry::ArenaDesc::plain_end).
/// It must never round past the committed/guard boundary, or pages beyond
/// `memory.size` would be silently populated and out-of-bounds detection
/// lost; and it must never start below the floor, where the pages are
/// unregistered and `UFFDIO_ZEROPAGE` fails, which would turn a legal
/// access into an OOB trap. A fault below the floor is not a missing-page
/// fault of this arena and classifies as out of bounds.
///
/// Async-signal-safe: only ioctls, arithmetic, and relaxed atomics on
/// pre-registered slots.
pub(crate) fn zeropage_around(
    desc: &crate::registry::ArenaDesc,
    committed: usize,
    off: usize,
) -> FaultAction {
    let floor = desc.plain_end;
    if off >= committed || off < floor {
        return FaultAction::OutOfBounds;
    }
    let window = WINDOW_PAGES * HOST_PAGE;
    let start = (off & !(window - 1)).max(floor);
    let mut len = window;
    // Stride prediction. `last_fault_end == 0` means "no history" (fresh
    // or pool-reset arena), so a scan starting at offset 0 seeds the
    // predictor without counting as a streak.
    let predicted = desc.last_fault_end.load(Ordering::Relaxed);
    if predicted != 0 && start == predicted {
        let streak = desc.fault_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= STREAK_THRESHOLD {
            let boost = (streak - STREAK_THRESHOLD + 1).min(MAX_STREAK_BOOST);
            len = window << boost;
            crate::stats::count_uffd_prefetch_streak();
        }
    } else {
        desc.fault_streak.store(0, Ordering::Relaxed);
    }
    // Clamp to the committed range — never past the boundary.
    len = len.min(committed - start);
    crate::stats::count_uffd_batch_pages((len / HOST_PAGE) as u64);
    match zeropage_raw(desc.base + start, len) {
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
            match zeropage_raw(desc.base + page, HOST_PAGE) {
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
/// Probes by creating the shared descriptor; once it exists this is one
/// atomic load.
pub fn sigbus_mode_available() -> bool {
    shared_fd().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Protection, Reservation};

    /// Zero-fill `[start, start+len)` of a registered range; `EEXIST`
    /// when a page is already present.
    fn zeropage(start: usize, len: usize) -> io::Result<()> {
        match zeropage_raw(start, len) {
            0 => Ok(()),
            e => Err(io::Error::from_raw_os_error(e)),
        }
    }

    fn require_uffd() -> bool {
        if !sigbus_mode_available() {
            eprintln!("skipping: userfaultfd SIGBUS mode unavailable");
            return false;
        }
        true
    }

    #[test]
    fn probe_creates_one_shared_fd() {
        let _serial = crate::test_lock();
        if !require_uffd() {
            return;
        }
        let fd = SHARED_FD.load(Ordering::Relaxed);
        assert!(fd >= 0);
        assert_eq!(shared_fd().unwrap(), fd, "later callers reuse the fd");
    }

    #[test]
    fn register_and_explicit_zeropage() {
        let _serial = crate::test_lock();
        if !require_uffd() {
            return;
        }
        let res = Reservation::new(1 << 20, Protection::ReadWrite).unwrap();
        let base = res.base().as_ptr() as usize;
        register_missing(base, res.len()).unwrap();
        // Populate explicitly, then read without faulting.
        zeropage(base, 4096).unwrap();
        // SAFETY: page populated above.
        let v = unsafe { std::ptr::read_volatile(base as *const u8) };
        assert_eq!(v, 0);
        // Double-populate reports EEXIST.
        let e = zeropage(base, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
    }

    /// A registered uffd arena over a fresh reservation, for driving
    /// `zeropage_around` directly (no signal delivery involved).
    fn arena(len: usize, committed: usize) -> Option<(Reservation, crate::registry::ArenaDesc)> {
        if !require_uffd() {
            return None;
        }
        let res = Reservation::new(len, Protection::ReadWrite).unwrap();
        let base = res.base().as_ptr() as usize;
        register_missing(base, len).unwrap();
        let desc = crate::registry::ArenaDesc::new(base, len, committed, BoundsStrategy::Uffd, 0);
        Some((res, desc))
    }

    use crate::strategy::BoundsStrategy;

    #[test]
    fn window_clamps_to_committed_boundary() {
        let _serial = crate::test_lock();
        // 5 committed host pages: the 16-page window around a fault in the
        // last committed page must stop exactly at the boundary.
        let Some((_res, desc)) = arena(1 << 20, 5 * 4096) else {
            return;
        };
        let base = desc.base;
        let action = zeropage_around(&desc, 5 * 4096, 4 * 4096 + 123);
        assert_eq!(action, FaultAction::Populated);
        // Pages 0..5 are now present (double-populate says EEXIST)...
        for p in 0..5usize {
            let e = zeropage(base + p * 4096, 4096).unwrap_err();
            assert_eq!(e.raw_os_error(), Some(libc::EEXIST), "page {p}");
        }
        // ...and the first page past the boundary must NOT have been
        // populated: a fresh zeropage there succeeds.
        zeropage(base + 5 * 4096, 4096).unwrap();
    }

    #[test]
    fn fault_in_last_page_before_boundary_is_exact() {
        let _serial = crate::test_lock();
        // committed = 17 pages: one full window plus one page. A fault in
        // page 16 window-aligns to start=16 pages and must populate only
        // the single remaining committed page.
        let Some((_res, desc)) = arena(1 << 20, 17 * 4096) else {
            return;
        };
        let base = desc.base;
        let before = crate::stats::snapshot();
        let action = zeropage_around(&desc, 17 * 4096, 16 * 4096);
        assert_eq!(action, FaultAction::Populated);
        let after = crate::stats::snapshot();
        assert_eq!(after.uffd_zeropage - before.uffd_zeropage, 1);
        let e = zeropage(base + 16 * 4096, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
        zeropage(base + 17 * 4096, 4096).unwrap();
    }

    #[test]
    fn fault_at_exact_committed_boundary_is_oob() {
        let _serial = crate::test_lock();
        let Some((_res, desc)) = arena(1 << 20, 8 * 4096) else {
            return;
        };
        assert_eq!(
            zeropage_around(&desc, 8 * 4096, 8 * 4096),
            FaultAction::OutOfBounds,
            "off == committed is the first illegal byte"
        );
        assert_eq!(
            zeropage_around(&desc, 0, 0),
            FaultAction::OutOfBounds,
            "an empty committed range has no legal faults"
        );
    }

    #[test]
    fn sequential_faults_batch_and_extend_on_streak() {
        let _serial = crate::test_lock();
        let committed = 1 << 20; // 256 host pages
        let Some((_res, desc)) = arena(1 << 20, committed) else {
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
                zeropage_around(&desc, committed, off),
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
        let e = zeropage(desc.base, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
    }

    /// The window is aligned to one wasm page, but the registered floor
    /// need not be: clamped to it, a fault just above the floor is one
    /// zeropage from the floor up rather than a refused ioctl over
    /// unregistered pages (an OOB trap on a legal access).
    #[test]
    fn window_clamps_to_the_registered_floor() {
        let _serial = crate::test_lock();
        if !require_uffd() {
            return;
        }
        let (len, floor) = (1 << 20, 5 * 4096);
        let res = Reservation::new(len, Protection::ReadWrite).unwrap();
        let base = res.base().as_ptr() as usize;
        register_missing(base + floor, len - floor).unwrap();
        let desc = crate::registry::ArenaDesc::new(base, len, len, BoundsStrategy::Uffd, floor);
        let before = crate::stats::snapshot();
        assert_eq!(
            zeropage_around(&desc, len, floor + 4096),
            FaultAction::Populated
        );
        let d = crate::stats::snapshot().delta(&before);
        assert_eq!(d.uffd_zeropage, 1, "one ioctl for the clamped window");
        // The window started at the floor and spanned one wasm page.
        for p in 5..21usize {
            let e = zeropage(base + p * 4096, 4096).unwrap_err();
            assert_eq!(e.raw_os_error(), Some(libc::EEXIST), "page {p}");
        }
        zeropage(base + 21 * 4096, 4096).unwrap();
        assert_eq!(
            zeropage_around(&desc, len, floor - 1),
            FaultAction::OutOfBounds,
            "below the floor is not this arena's fault to serve"
        );
    }

    /// Grown pages touched last to first: each fault is served with its
    /// own wasm page, no streak forms, and the first byte past the grown
    /// memory still traps.
    #[test]
    fn reverse_scan_of_grown_pages_serves_one_wasm_page_per_fault() {
        let _serial = crate::test_lock();
        if !require_uffd() {
            return;
        }
        use crate::memory::{LinearMemory, WASM_PAGE};
        let config = crate::strategy::MemoryConfig::new(BoundsStrategy::Uffd, 1, 8)
            .with_reserve(8 * WASM_PAGE);
        let m = LinearMemory::new(&config).unwrap();
        assert_eq!(m.grow(4), Some(1));
        let before = crate::stats::snapshot();
        let tele_before = lb_telemetry::snapshot();
        for page in (1..5u32).rev() {
            crate::signals::catch_traps(|| m.store::<u8>(page * WASM_PAGE as u32, 0, 1))
                .expect("a grown page is populated, not trapped");
        }
        let d = crate::stats::snapshot().delta(&before);
        let t = lb_telemetry::snapshot().delta_since(&tele_before);
        assert_eq!(d.uffd_zeropage, 4, "one ioctl per grown wasm page");
        assert_eq!(t.counter("uffd.batch_pages"), 64);
        assert_eq!(t.counter("uffd.prefetch_streak"), 0);
        assert!(
            crate::signals::catch_traps(|| m.store::<u8>(5 * WASM_PAGE as u32, 0, 1)).is_err(),
            "a store at the committed size traps"
        );
    }

    #[test]
    fn eexist_mid_window_falls_back_to_single_page() {
        let _serial = crate::test_lock();
        let Some((_res, desc)) = arena(1 << 20, 16 * 4096) else {
            return;
        };
        // Pre-populate a page in the middle of the window so the batched
        // zeropage reports EEXIST.
        zeropage(desc.base + 7 * 4096, 4096).unwrap();
        let action = zeropage_around(&desc, 16 * 4096, 3 * 4096);
        assert_eq!(action, FaultAction::Populated);
        // The faulting page itself must be present now.
        let e = zeropage(desc.base + 3 * 4096, 4096).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(libc::EEXIST));
    }
}
