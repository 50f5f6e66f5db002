//! Bounds-checked wasm linear memory with pluggable strategies.
//!
//! One [`LinearMemory`] backs one wasm instance. All five strategies share
//! the same structure — a large virtual reservation plus an atomic
//! committed-size — and differ in how growth and out-of-bounds detection
//! work, exactly as configured in the paper's runtimes (§3.1):
//!
//! | strategy  | reservation     | `memory.grow`           | OOB detection            |
//! |-----------|-----------------|--------------------------|--------------------------|
//! | none      | RW (lazy)       | atomic bump              | none (unsafe baseline)   |
//! | clamp     | RW (lazy)       | atomic bump              | address clamped inline   |
//! | trap      | RW (lazy)       | atomic bump              | inline check, wasm trap  |
//! | mprotect  | PROT_NONE       | `mprotect(2)` per grow   | SIGSEGV on guard pages   |
//! | uffd      | RW + registered | atomic bump              | SIGBUS beyond committed  |

use crate::pool::{self, ArenaParts};
use crate::region::{round_up_to_page, Protection, Reservation};
use crate::registry::{ArenaDesc, ARENAS};
use crate::stats;
use crate::strategy::{BoundsStrategy, MemoryConfig};
use crate::trap::Trap;
use crate::uffd::Uffd;
use std::fmt;
use std::io;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Size of one wasm page (64 KiB).
pub const WASM_PAGE: usize = 65536;

/// Errors creating or growing a [`LinearMemory`].
#[derive(Debug)]
pub enum MemoryError {
    /// The virtual reservation could not be created.
    Reserve(io::Error),
    /// An `mprotect` call failed.
    Protect(io::Error),
    /// userfaultfd setup failed (fd creation, handshake, or registration).
    Uffd(io::Error),
    /// The configuration is inconsistent (e.g. initial > max pages).
    BadConfig(String),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Reserve(e) => write!(f, "memory reservation failed: {e}"),
            MemoryError::Protect(e) => write!(f, "mprotect failed: {e}"),
            MemoryError::Uffd(e) => write!(f, "userfaultfd setup failed: {e}"),
            MemoryError::BadConfig(m) => write!(f, "bad memory config: {m}"),
        }
    }
}

impl std::error::Error for MemoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemoryError::Reserve(e) | MemoryError::Protect(e) | MemoryError::Uffd(e) => Some(e),
            MemoryError::BadConfig(_) => None,
        }
    }
}

mod private {
    pub trait Sealed {}
}

/// Plain-old-data types loadable/storable in linear memory.
///
/// This trait is sealed; it is implemented exactly for the integer and
/// float widths wasm memory instructions use.
pub trait Pod: Copy + private::Sealed {}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl private::Sealed for $t {}
        impl Pod for $t {}
    )*};
}
impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// One wasm instance's linear memory.
///
/// The memory registers itself in the global arena registry on creation so
/// the signal handler can classify faults. On drop, its OS-facing parts
/// (reservation, registration, uffd fd) go back to the instance pool when
/// pooling is enabled — see [`crate::pool`] — and are fully torn down
/// otherwise (waiting out concurrent signal-context readers via hazard
/// pointers).
#[derive(Debug)]
pub struct LinearMemory {
    parts: ManuallyDrop<ArenaParts>,
    strategy: BoundsStrategy,
    requested: BoundsStrategy,
    max_pages: u32,
    from_pool: bool,
}

/// Next strategy to try when `strategy` failed to initialize with `err`.
///
/// This is the degradation chain the failure model documents: `uffd` setup
/// failures (no kernel support, container seccomp/EPERM, fd exhaustion)
/// degrade to `mprotect`, whose own initial-protect failure degrades to
/// `trap` (software checks need no syscalls beyond the reservation).
/// Reservation failures and bad configs never fall back: every strategy
/// needs the same mmap, so retrying cannot help.
fn fallback_next(strategy: BoundsStrategy, err: &MemoryError) -> Option<BoundsStrategy> {
    match (strategy, err) {
        (BoundsStrategy::Uffd, MemoryError::Uffd(_)) => Some(BoundsStrategy::Mprotect),
        (BoundsStrategy::Mprotect, MemoryError::Protect(_)) => Some(BoundsStrategy::Trap),
        _ => None,
    }
}

fn fallback_edge_counter(from: BoundsStrategy, to: BoundsStrategy) -> &'static str {
    match (from, to) {
        (BoundsStrategy::Uffd, BoundsStrategy::Mprotect) => {
            "core.strategy.fallback.uffd_to_mprotect"
        }
        (BoundsStrategy::Mprotect, BoundsStrategy::Trap) => {
            "core.strategy.fallback.mprotect_to_trap"
        }
        _ => "core.strategy.fallback.other",
    }
}

// SAFETY: the raw desc pointer stays valid until Drop unregisters it; all
// mutable state behind it is atomic.
unsafe impl Send for LinearMemory {}
unsafe impl Sync for LinearMemory {}

impl LinearMemory {
    /// Create a memory per `config`, degrading along the strategy fallback
    /// chain (`uffd → mprotect → trap`) when a guard-based backend cannot
    /// initialize on this host.
    ///
    /// The effective strategy is reported by [`LinearMemory::strategy`];
    /// the originally requested one by [`LinearMemory::requested_strategy`].
    /// Each degradation increments the `core.strategy.fallback` telemetry
    /// counter (plus a per-edge counter naming the transition).
    ///
    /// # Errors
    /// See [`MemoryError`]. Errors are returned only when the end of the
    /// fallback chain is reached (or the failure is strategy-independent,
    /// like a failed reservation or a bad config). In particular, the
    /// `uffd` strategy requires a kernel with `UFFD_FEATURE_SIGBUS` and
    /// suitable privileges; probe with
    /// [`crate::uffd::sigbus_mode_available`].
    pub fn new(config: &MemoryConfig) -> Result<LinearMemory, MemoryError> {
        if config.initial_pages > config.max_pages {
            return Err(MemoryError::BadConfig(format!(
                "initial pages {} > max pages {}",
                config.initial_pages, config.max_pages
            )));
        }
        let mut strategy = config.strategy;
        loop {
            match Self::try_new(config, strategy) {
                Ok(m) => return Ok(m),
                Err(e) => match fallback_next(strategy, &e) {
                    Some(next) => {
                        lb_telemetry::counter("core.strategy.fallback").inc();
                        lb_telemetry::counter(fallback_edge_counter(strategy, next)).inc();
                        strategy = next;
                    }
                    None => return Err(e),
                },
            }
        }
    }

    /// One attempt at constructing the memory with a fixed `strategy`.
    ///
    /// All partially-acquired resources are RAII-owned (`Reservation`
    /// unmaps, `Uffd` closes its fd), so an error return here leaks
    /// nothing — `chaos_matrix.rs` verifies this by injecting failures in
    /// a loop and watching `/proc/self/{fd,maps}`.
    fn try_new(
        config: &MemoryConfig,
        strategy: BoundsStrategy,
    ) -> Result<LinearMemory, MemoryError> {
        let max_bytes = config.max_pages as usize * WASM_PAGE;
        let reserve = config.reserve_bytes.max(max_bytes).max(WASM_PAGE);
        let reserve = round_up_to_page(reserve);
        let initial_bytes = config.initial_pages as usize * WASM_PAGE;

        // Fast path: reuse parked parts — no mmap, no UFFDIO_REGISTER, at
        // most one delta mprotect, all done inside `acquire`.
        if let Some(parts) = pool::acquire(strategy, reserve, initial_bytes) {
            return Ok(LinearMemory {
                parts: ManuallyDrop::new(parts),
                strategy,
                requested: config.strategy,
                max_pages: (max_bytes.min(reserve) / WASM_PAGE) as u32,
                from_pool: true,
            });
        }

        let initial_prot = match strategy {
            BoundsStrategy::Mprotect => Protection::None,
            _ => Protection::ReadWrite,
        };
        let reservation = Reservation::new(reserve, initial_prot).map_err(MemoryError::Reserve)?;
        if strategy == BoundsStrategy::Mprotect && initial_bytes > 0 {
            if let Some(e) = lb_chaos::inject("core.mprotect.init") {
                return Err(MemoryError::Protect(e));
            }
            reservation
                .protect(0, round_up_to_page(initial_bytes), Protection::ReadWrite)
                .map_err(MemoryError::Protect)?;
        }

        let uffd = if strategy == BoundsStrategy::Uffd {
            let u = Uffd::new_sigbus().map_err(MemoryError::Uffd)?;
            u.register_missing(reservation.base().as_ptr() as usize, reserve)
                .map_err(MemoryError::Uffd)?;
            Some(u)
        } else {
            None
        };

        let desc = Box::new(ArenaDesc::new(
            reservation.base().as_ptr() as usize,
            reserve,
            initial_bytes,
            strategy,
            uffd.as_ref().map(|u| u.raw_fd()).unwrap_or(-1),
        ));
        let (desc_slot, desc) = ARENAS.register(desc);
        // RW high-water: mprotect starts with just the initial window
        // writable; every other strategy maps the whole reservation RW.
        let rw_high = match strategy {
            BoundsStrategy::Mprotect => round_up_to_page(initial_bytes),
            _ => reserve,
        };

        Ok(LinearMemory {
            parts: ManuallyDrop::new(ArenaParts {
                reservation,
                desc_slot,
                desc,
                uffd,
                strategy,
                rw_high: AtomicUsize::new(rw_high),
            }),
            strategy,
            requested: config.strategy,
            max_pages: (max_bytes.min(reserve) / WASM_PAGE) as u32,
            from_pool: false,
        })
    }

    fn desc(&self) -> &ArenaDesc {
        self.parts.desc()
    }

    /// The effective bounds-checking strategy (after any fallback).
    pub fn strategy(&self) -> BoundsStrategy {
        self.strategy
    }

    /// The strategy the configuration asked for, before any fallback.
    pub fn requested_strategy(&self) -> BoundsStrategy {
        self.requested
    }

    /// Whether construction degraded to a different strategy than requested.
    pub fn fell_back(&self) -> bool {
        self.strategy != self.requested
    }

    /// Whether this memory was served from the instance pool rather than
    /// freshly mapped.
    pub fn from_pool(&self) -> bool {
        self.from_pool
    }

    /// Base address of the reservation (for engines generating raw access).
    pub fn base(&self) -> *mut u8 {
        self.parts.reservation.base().as_ptr()
    }

    /// Currently accessible bytes.
    pub fn committed(&self) -> usize {
        self.desc().committed.load(Ordering::Acquire)
    }

    /// Raw pointer to the committed-size atomic, for JIT-generated code
    /// that reloads the bound on every software-checked access.
    pub fn committed_ptr(&self) -> *const usize {
        self.desc().committed.as_ptr() as *const usize
    }

    /// Current size in wasm pages.
    pub fn size_pages(&self) -> u32 {
        (self.committed() / WASM_PAGE) as u32
    }

    /// Maximum size in wasm pages.
    pub fn max_pages(&self) -> u32 {
        self.max_pages
    }

    /// Virtual reservation size in bytes.
    pub fn reserved_bytes(&self) -> usize {
        self.parts.reservation.len()
    }

    /// Grow by `delta_pages`, returning the previous page count, or `None`
    /// if the limit would be exceeded (wasm `memory.grow` then yields −1).
    pub fn grow(&self, delta_pages: u32) -> Option<u32> {
        let old_bytes = self.committed();
        let old_pages = (old_bytes / WASM_PAGE) as u32;
        let new_pages = old_pages.checked_add(delta_pages)?;
        if new_pages > self.max_pages {
            return None;
        }
        if delta_pages == 0 {
            // A successful no-op grow still counts as one grow operation.
            stats::count_grow(self.strategy);
            return Some(old_pages);
        }
        let new_bytes = new_pages as usize * WASM_PAGE;
        if self.strategy == BoundsStrategy::Mprotect {
            // Windows at or below the RW high-water mark are already
            // writable (a pooled predecessor committed them); only the
            // genuinely new range needs the syscall.
            let rw_high = self.parts.rw_high.load(Ordering::Relaxed);
            if new_bytes > rw_high {
                // An injected or real failure (e.g. ENOMEM) surfaces as a
                // clean wasm-level `memory.grow` of −1, never a crash.
                if lb_chaos::inject("core.mprotect.grow").is_some() {
                    return None;
                }
                let from = old_bytes.max(rw_high);
                // The syscall whose VMA-lock serialization the paper
                // measures; spanned so profiles show grow latency next
                // to the sampled PCs.
                let _span = lb_telemetry::span!("mem.protect_grow", delta_pages);
                if self
                    .parts
                    .reservation
                    .protect(from, new_bytes - from, Protection::ReadWrite)
                    .is_err()
                {
                    return None;
                }
                self.parts.rw_high.store(new_bytes, Ordering::Relaxed);
            }
        }
        self.desc().committed.store(new_bytes, Ordering::Release);
        // Counted only after the grow can no longer fail (the old code
        // counted before the mprotect above, so a failed protect still
        // inflated `mem.grow`), and exactly once per logical grow even
        // though strategies differ in mechanism.
        stats::count_grow(self.strategy);
        Some(old_pages)
    }

    #[inline]
    fn effective(&self, addr: u32, offset: u32) -> usize {
        addr as usize + offset as usize
    }

    /// Load a `T` at `addr + offset` under this memory's strategy.
    ///
    /// For guard-based strategies the access is raw: an out-of-bounds
    /// address faults, and the fault surfaces as a wasm trap **only when
    /// the caller runs under [`crate::signals::catch_traps`]**.
    ///
    /// # Errors
    /// `trap` strategy: OOB yields `Err(Trap)`. `clamp`: OOB reads the last
    /// valid bytes instead (matching the paper's clamp semantics); only an
    /// empty memory errors.
    #[inline]
    pub fn load<T: Pod>(&self, addr: u32, offset: u32) -> Result<T, Trap> {
        let ea = self.effective(addr, offset);
        let size = std::mem::size_of::<T>();
        match self.strategy {
            BoundsStrategy::Trap => {
                let committed = self.desc().committed.load(Ordering::Relaxed);
                if ea + size > committed {
                    return Err(Trap::oob_at(self.base() as usize + ea));
                }
                // SAFETY: bounds checked above.
                Ok(unsafe { std::ptr::read_unaligned(self.base().add(ea) as *const T) })
            }
            BoundsStrategy::Clamp => {
                let committed = self.desc().committed.load(Ordering::Relaxed);
                if committed < size {
                    return Err(Trap::oob());
                }
                let ea = ea.min(committed - size);
                // SAFETY: clamped into the committed range.
                Ok(unsafe { std::ptr::read_unaligned(self.base().add(ea) as *const T) })
            }
            _ => {
                // SAFETY: ea < 2^33 ≤ reservation; an access beyond the
                // committed range faults and is handled by the trap
                // machinery (or silently succeeds under `none`, which is
                // the point of that unsafe baseline).
                Ok(unsafe { std::ptr::read_unaligned(self.base().add(ea) as *const T) })
            }
        }
    }

    /// Store a `T` at `addr + offset` under this memory's strategy.
    ///
    /// # Errors
    /// As for [`LinearMemory::load`].
    #[inline]
    pub fn store<T: Pod>(&self, addr: u32, offset: u32, v: T) -> Result<(), Trap> {
        let ea = self.effective(addr, offset);
        let size = std::mem::size_of::<T>();
        match self.strategy {
            BoundsStrategy::Trap => {
                let committed = self.desc().committed.load(Ordering::Relaxed);
                if ea + size > committed {
                    return Err(Trap::oob_at(self.base() as usize + ea));
                }
                // SAFETY: bounds checked above.
                unsafe { std::ptr::write_unaligned(self.base().add(ea) as *mut T, v) };
                Ok(())
            }
            BoundsStrategy::Clamp => {
                let committed = self.desc().committed.load(Ordering::Relaxed);
                if committed < size {
                    return Err(Trap::oob());
                }
                let ea = ea.min(committed - size);
                // SAFETY: clamped into the committed range.
                unsafe { std::ptr::write_unaligned(self.base().add(ea) as *mut T, v) };
                Ok(())
            }
            _ => {
                // SAFETY: see `load`.
                unsafe { std::ptr::write_unaligned(self.base().add(ea) as *mut T, v) };
                Ok(())
            }
        }
    }

    /// Copy bytes out of memory with an explicit bounds check (host-side
    /// access; strategy-independent).
    ///
    /// # Errors
    /// OOB ranges yield a trap regardless of strategy.
    pub fn read_bytes(&self, addr: u32, out: &mut [u8]) -> Result<(), Trap> {
        let ea = addr as usize;
        let end = ea.checked_add(out.len()).ok_or_else(Trap::oob)?;
        if end > self.committed() {
            return Err(Trap::oob());
        }
        // Host context: uffd pages inside the committed range may still be
        // missing, and no catch_traps frame is armed here, so populate
        // explicitly (and fail cleanly) before the raw copy — see
        // write_bytes.
        if self.strategy == BoundsStrategy::Uffd {
            self.populate(ea, out.len()).map_err(|_| Trap::oob())?;
        }
        // SAFETY: range checked against committed; uffd pages populated.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base().add(ea), out.as_mut_ptr(), out.len());
        }
        Ok(())
    }

    /// Copy bytes into memory with an explicit bounds check (host-side
    /// access; strategy-independent; used for data segments).
    ///
    /// # Errors
    /// OOB ranges yield a trap regardless of strategy.
    pub fn write_bytes(&self, addr: u32, data: &[u8]) -> Result<(), Trap> {
        let ea = addr as usize;
        let end = ea.checked_add(data.len()).ok_or_else(Trap::oob)?;
        if end > self.committed() {
            return Err(Trap::oob());
        }
        // For mprotect memory the pages are RW (committed); for uffd they
        // may be missing, but this is host context under catch_traps-free
        // code — uffd missing pages under committed resolve via the SIGBUS
        // handler only during wasm execution, so populate explicitly here.
        // A populate failure must surface *before* the raw copy below, or
        // the copy would fault with no handler armed and abort the process.
        if self.strategy == BoundsStrategy::Uffd {
            self.populate(ea, data.len()).map_err(|_| Trap::oob())?;
        }
        // SAFETY: range checked against committed; uffd pages populated.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.base().add(ea), data.len());
        }
        Ok(())
    }

    /// Eagerly populate `[addr, addr+len)` for uffd memories (no-op for
    /// other strategies).
    ///
    /// # Errors
    /// Propagates `UFFDIO_ZEROPAGE` failures. `EEXIST` (already present)
    /// is success; transient `EAGAIN` is retried a bounded number of times.
    pub fn populate(&self, addr: usize, len: usize) -> io::Result<()> {
        let Some(u) = &self.parts.uffd else {
            return Ok(());
        };
        let start = addr & !(4095);
        let end = round_up_to_page(addr + len);
        let mut attempts = 0;
        loop {
            match u.zeropage(self.base() as usize + start, end - start) {
                Ok(()) => return Ok(()),
                Err(e) if e.raw_os_error() == Some(libc::EEXIST) => return Ok(()),
                Err(e) if e.raw_os_error() == Some(libc::EAGAIN) && attempts < 16 => {
                    attempts += 1;
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for LinearMemory {
    fn drop(&mut self) {
        // SAFETY: parts are taken exactly once, here; self is not used
        // again. `release` either parks them (resetting contents) or runs
        // the full teardown.
        let parts = unsafe { ManuallyDrop::take(&mut self.parts) };
        pool::release(parts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::catch_traps;
    use crate::trap::TrapKind;
    use crate::uffd::sigbus_mode_available;

    fn cfg(strategy: BoundsStrategy) -> MemoryConfig {
        // Small reservation to keep tests fast.
        MemoryConfig::new(strategy, 2, 8).with_reserve(16 * WASM_PAGE)
    }

    #[test]
    fn roundtrip_all_strategies() {
        let _serial = crate::test_lock();
        for s in BoundsStrategy::ALL {
            if s == BoundsStrategy::Uffd && !sigbus_mode_available() {
                continue;
            }
            let m = LinearMemory::new(&cfg(s)).unwrap();
            let r = catch_traps(|| {
                m.store::<u64>(16, 0, 0xDEAD_BEEF_CAFE_F00D)?;
                m.store::<f64>(100, 4, 2.5)?;
                let a: u64 = m.load(16, 0)?;
                let b: f64 = m.load(100, 4)?;
                Ok((a, b))
            })
            .unwrap();
            assert_eq!(r, (0xDEAD_BEEF_CAFE_F00D, 2.5), "strategy {s}");
        }
    }

    #[test]
    fn grow_updates_size_and_respects_max() {
        let _serial = crate::test_lock();
        let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
        assert_eq!(m.size_pages(), 2);
        assert_eq!(m.grow(3), Some(2));
        assert_eq!(m.size_pages(), 5);
        assert_eq!(m.grow(10), None, "over max");
        assert_eq!(m.size_pages(), 5);
        assert_eq!(m.grow(0), Some(5));
        // Newly grown pages are writable.
        catch_traps(|| m.store::<u32>((4 * WASM_PAGE) as u32, 0, 7)).unwrap();
    }

    #[test]
    fn trap_strategy_returns_err_on_oob() {
        let _serial = crate::test_lock();
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
        let e = m.load::<u32>(2 * WASM_PAGE as u32 - 2, 0).unwrap_err();
        assert_eq!(*e.kind(), TrapKind::OutOfBounds);
        // Just inside is fine.
        m.load::<u32>(2 * WASM_PAGE as u32 - 4, 0).unwrap();
        // Offset participates in the check.
        assert!(m.load::<u8>(0, 2 * WASM_PAGE as u32).is_err());
    }

    #[test]
    fn clamp_strategy_redirects_to_end() {
        let _serial = crate::test_lock();
        let m = LinearMemory::new(&cfg(BoundsStrategy::Clamp)).unwrap();
        let end = 2 * WASM_PAGE as u32;
        m.store::<u32>(end - 4, 0, 0x55AA55AA).unwrap();
        // An OOB read clamps to the last valid word.
        let v: u32 = m.load(end + 1000, 0).unwrap();
        assert_eq!(v, 0x55AA55AA);
        // An OOB write also lands there.
        m.store::<u32>(end + 5000, 0, 1).unwrap();
        assert_eq!(m.load::<u32>(end - 4, 0).unwrap(), 1);
    }

    #[test]
    fn mprotect_oob_traps_via_sigsegv() {
        let _serial = crate::test_lock();
        let m = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
        let e = catch_traps(|| m.load::<u32>((3 * WASM_PAGE) as u32, 0)).unwrap_err();
        assert_eq!(*e.kind(), TrapKind::OutOfBounds);
        assert!(e.fault_addr().is_some());
        // Memory still usable after the trap.
        catch_traps(|| m.store::<u8>(0, 0, 1)).unwrap();
    }

    #[test]
    fn uffd_lazy_populate_and_oob() {
        let _serial = crate::test_lock();
        if !sigbus_mode_available() {
            eprintln!("skipping: uffd unavailable");
            return;
        }
        let m = LinearMemory::new(&cfg(BoundsStrategy::Uffd)).unwrap();
        let before = crate::stats::snapshot();
        // First touch of a committed page: SIGBUS → zeropage → retry.
        let v = catch_traps(|| m.load::<u64>(WASM_PAGE as u32, 0)).unwrap();
        assert_eq!(v, 0);
        let after = crate::stats::snapshot();
        assert!(
            after.uffd_zeropage > before.uffd_zeropage,
            "fault must be resolved via UFFDIO_ZEROPAGE in the handler"
        );
        // Beyond committed: SIGBUS → OOB trap.
        let e = catch_traps(|| m.load::<u8>((2 * WASM_PAGE) as u32, 0)).unwrap_err();
        assert_eq!(*e.kind(), TrapKind::OutOfBounds);
        // Growing makes it accessible without any syscall.
        let sys_before = crate::stats::snapshot();
        m.grow(1).unwrap();
        let sys_after = crate::stats::snapshot();
        assert_eq!(
            sys_before.mprotect, sys_after.mprotect,
            "uffd grow must not call mprotect"
        );
        let v = catch_traps(|| m.load::<u8>((2 * WASM_PAGE) as u32, 0)).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn none_strategy_allows_silent_oob_within_reservation() {
        let _serial = crate::test_lock();
        let m = LinearMemory::new(&cfg(BoundsStrategy::None)).unwrap();
        // This is the unsafe baseline: no trap, access "succeeds".
        let v = catch_traps(|| m.load::<u8>((4 * WASM_PAGE) as u32, 0)).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn data_segment_write_and_read_back() {
        let _serial = crate::test_lock();
        for s in [BoundsStrategy::Trap, BoundsStrategy::Mprotect] {
            let m = LinearMemory::new(&cfg(s)).unwrap();
            m.write_bytes(64, b"hello wasm").unwrap();
            let mut buf = [0u8; 10];
            m.read_bytes(64, &mut buf).unwrap();
            assert_eq!(&buf, b"hello wasm");
            assert!(m.write_bytes((2 * WASM_PAGE) as u32, b"x").is_err());
            assert!(m.read_bytes(u32::MAX, &mut buf).is_err());
        }
    }

    #[test]
    fn grow_counts_mprotect_calls_only_for_mprotect_strategy() {
        let _serial = crate::test_lock();
        let pre = crate::stats::snapshot();
        let m = LinearMemory::new(&cfg(BoundsStrategy::Trap)).unwrap();
        m.grow(4).unwrap();
        let mid = crate::stats::snapshot();
        assert_eq!(pre.mprotect, mid.mprotect);
        let m2 = LinearMemory::new(&cfg(BoundsStrategy::Mprotect)).unwrap();
        m2.grow(4).unwrap();
        let post = crate::stats::snapshot();
        assert!(post.mprotect > mid.mprotect);
    }

    #[test]
    fn bad_config_rejected() {
        let _serial = crate::test_lock();
        let c = MemoryConfig::new(BoundsStrategy::Trap, 10, 2);
        assert!(matches!(
            LinearMemory::new(&c),
            Err(MemoryError::BadConfig(_))
        ));
    }
}
