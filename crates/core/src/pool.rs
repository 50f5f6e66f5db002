//! Instance pooling for linear memories: reuse the reservation, the arena
//! registration, and the uffd registration across instantiations.
//!
//! The paper's uffd strategy pays its way not in checks but in lifecycle:
//! an 8 GiB reservation `mmap`ed, `UFFDIO_REGISTER`ed, then torn down per
//! instantiation (§2.3). Under benchmark traffic — thousands of
//! instantiations of the same module — that setup dominates and distorts
//! the per-strategy numbers. The pool removes it: a dropped
//! [`crate::LinearMemory`] parks its `ArenaParts`, and the next
//! instantiation of the same **shape** reuses them wholesale.
//!
//! The shape is the strategy, the reservation length, and the plain
//! prefix the arena was created with ([`ArenaDesc::plain_end`], computed
//! by `memory::plain_prefix`). Under `none`, `clamp` and `trap`
//! the prefix is the whole reservation, so one parked arena serves any
//! initial size; under `mprotect` and `uffd` it is the initial size, and a
//! different size misses. A parked arena is never adapted: `release`
//! puts it back into its creation shape — `mprotect` re-protects what
//! `grow` opened above the prefix, and `uffd` needs nothing, because
//! `grow` never moves the registered floor — so `acquire` makes no
//! syscall at all.
//!
//! The **zero-fill guarantee** on reuse comes from `madvise(MADV_DONTNEED)`
//! over the anonymous private reservation: the kernel drops every resident
//! page, and the next touch observes a fresh zero page (lazily faulted
//! above a `uffd` arena's registered floor, demand-zeroed everywhere
//! else). Nothing is re-`mmap`ed. [`MemoryPoolConfig::verify_zero`] adds a
//! paranoid read-back of the initial window for tests.
//!
//! While parked, an entry keeps `committed = 0` in its still-registered
//! [`ArenaDesc`], so a stray fault into a pooled arena classifies as a
//! wasm OOB trap rather than corrupting recycled memory.
//!
//! Parked entries live in one mutexed list per strategy. The lock guards
//! list operations only, never a syscall or a teardown, and a full list
//! evicts its oldest entry, so shapes the traffic stopped asking for turn
//! over.
//!
//! Opt-in: [`configure`] with a [`MemoryPoolConfig`] (entries retained
//! per strategy, zero-fill read-back). Disabled (capacity 0) by default,
//! preserving the measured-per-run lifecycle the paper's baseline figures
//! need. A parked `uffd` entry holds no descriptor of its own: every arena
//! shares the process-wide userfaultfd ([`crate::uffd`]).

use crate::memory::plain_prefix;
use crate::region::{Protection, Reservation};
use crate::registry::{ArenaDesc, SlotId, ARENAS};
use crate::stats;
use crate::strategy::BoundsStrategy;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Maximum entries the pool can hold per strategy, regardless of the
/// configured capacity (each parked entry pins a reservation).
pub const MAX_POOL_SLOTS: usize = 64;

/// Pool tuning, applied process-wide via [`configure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryPoolConfig {
    /// Entries retained per strategy (0 disables pooling; clamped to
    /// [`MAX_POOL_SLOTS`]).
    pub capacity: usize,
    /// Read back the initial window on every reuse and panic if any byte
    /// is nonzero — the test-mode check of the zero-fill guarantee.
    pub verify_zero: bool,
}

static CAPACITY: AtomicUsize = AtomicUsize::new(0);
static VERIFY: AtomicBool = AtomicBool::new(false);

/// Install a pool configuration. Shrinking the capacity evicts nothing at
/// once; each strategy's next release trims its list to the new capacity,
/// and [`drain`] evicts everything.
pub fn configure(config: MemoryPoolConfig) {
    CAPACITY.store(config.capacity.min(MAX_POOL_SLOTS), Ordering::Relaxed);
    VERIFY.store(config.verify_zero, Ordering::Relaxed);
}

/// The effective per-strategy capacity (0 = pooling disabled).
pub fn pool_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

fn verify_zero_enabled() -> bool {
    VERIFY.load(Ordering::Relaxed)
}

/// The OS-facing parts of a linear memory that survive pooling: the
/// reservation (still registered with the shared userfaultfd, for `uffd`)
/// and its live arena registration. Moves between `LinearMemory` and the
/// pool.
#[derive(Debug)]
pub(crate) struct ArenaParts {
    pub(crate) reservation: Reservation,
    pub(crate) desc_slot: SlotId,
    pub(crate) desc: *const ArenaDesc,
    pub(crate) strategy: BoundsStrategy,
}

// SAFETY: the desc pointer stays valid until teardown (the registration it
// refers to is owned by these parts), and all state behind it is atomic
// or immutable.
unsafe impl Send for ArenaParts {}
unsafe impl Sync for ArenaParts {}

impl ArenaParts {
    pub(crate) fn desc(&self) -> &ArenaDesc {
        // SAFETY: registered at construction; unregistered only in teardown.
        unsafe { &*self.desc }
    }

    /// Full teardown: the non-pooled end of life. Unregisters the arena,
    /// then unmaps the reservation, which also drops its uffd
    /// registration.
    pub(crate) fn teardown(self) {
        ARENAS.unregister(self.desc_slot, self.desc);
        // Reservation unmaps in its own Drop.
    }
}

/// Parked entries, one list per strategy (indexed by discriminant), oldest
/// first.
static PARKED: [Mutex<VecDeque<ArenaParts>>; 5] = [const { Mutex::new(VecDeque::new()) }; 5];

fn parked(strategy: BoundsStrategy) -> MutexGuard<'static, VecDeque<ArenaParts>> {
    // No code panics while holding the lock, so a poisoned list is intact.
    PARKED[strategy as usize]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Number of entries currently parked across all strategies (diagnostics).
pub fn pooled_count() -> usize {
    BoundsStrategy::ALL.iter().map(|&s| parked(s).len()).sum()
}

/// Tear down every parked entry, returning how many were evicted. Tests
/// use this between configurations; long-lived processes (lb-serve's
/// capacity-shed relief path) use it to release reservations under
/// memory pressure. An entry parked concurrently with the call may
/// survive it.
pub fn drain() -> usize {
    let evicted: Vec<ArenaParts> = BoundsStrategy::ALL
        .iter()
        .flat_map(|&s| std::mem::take(&mut *parked(s)))
        .collect();
    let n = evicted.len();
    evicted.into_iter().for_each(ArenaParts::teardown);
    n
}

/// Try to serve an instantiation from the pool: take the newest parked
/// entry of the requested shape and commit `initial_bytes` of it. Makes
/// no syscall. Returns `None` (counted as a pool miss when pooling is
/// enabled) if no entry of that shape is parked.
pub(crate) fn acquire(
    strategy: BoundsStrategy,
    reserve: usize,
    initial_bytes: usize,
) -> Option<ArenaParts> {
    if pool_capacity() == 0 {
        return None;
    }
    let _span = lb_telemetry::span!("pool.acquire", initial_bytes);
    let prefix = plain_prefix(strategy, reserve, initial_bytes);
    let taken = {
        let mut list = parked(strategy);
        list.iter()
            .rposition(|p| p.reservation.len() == reserve && p.desc().plain_end == prefix)
            .and_then(|i| list.remove(i))
    };
    let Some(parts) = taken else {
        stats::count_pool_miss();
        return None;
    };
    parts
        .desc()
        .committed
        .store(initial_bytes, Ordering::Release);
    if verify_zero_enabled() {
        verify_zero_window(&parts, initial_bytes);
    }
    stats::count_pool_hit();
    Some(parts)
}

/// Park released parts, reset to their creation shape, for the next
/// instantiation; or tear them down if pooling is off or the reset fails
/// (the fall-back-to-fresh-`mmap` path chaos tests exercise). A full list
/// evicts its oldest entry.
pub(crate) fn release(parts: ArenaParts) {
    let capacity = pool_capacity();
    if capacity == 0 {
        parts.teardown();
        return;
    }
    let _span = lb_telemetry::span!("pool.release", parts.reservation.len());
    let t0 = std::time::Instant::now();
    // Nothing may fault a parked arena as committed, and a recycled arena
    // must not inherit the previous instance's stride history.
    let (committed, prefix) = (
        parts.desc().committed.swap(0, Ordering::AcqRel),
        parts.desc().plain_end,
    );
    parts.desc().reset_fault_prediction();
    // The reset: close what `mprotect`'s `grow` opened above the prefix
    // (a no-op unless it grew), then drop every resident page. An
    // injected or real failure degrades to a full teardown — the next
    // acquire simply misses and maps fresh memory; never an abort.
    let reset = lb_chaos::inject("core.pool.reset").is_none()
        && (parts.strategy != BoundsStrategy::Mprotect
            || parts
                .reservation
                .protect(prefix, committed - prefix, Protection::None)
                .is_ok())
        && parts
            .reservation
            .discard(0, parts.reservation.len())
            .is_ok();
    if !reset {
        parts.teardown();
        return;
    }
    stats::record_pool_reset_us(t0.elapsed().as_micros() as u64);
    let evicted: Vec<ArenaParts> = {
        let mut list = parked(parts.strategy);
        let excess = (list.len() + 1).saturating_sub(capacity);
        let evicted = list.drain(..excess).collect();
        list.push_back(parts);
        evicted
    };
    evicted.into_iter().for_each(ArenaParts::teardown);
}

/// Read back `[0, initial_bytes)` and panic on any nonzero byte — the
/// pool's contract is that reuse is indistinguishable from a fresh
/// memory. The window lies inside the plain prefix under every strategy,
/// so the read takes ordinary minor faults, never a SIGBUS in this host
/// context with no trap frame armed.
fn verify_zero_window(parts: &ArenaParts, initial_bytes: usize) {
    let base = parts.reservation.base().as_ptr() as *const u64;
    for i in 0..initial_bytes / 8 {
        // SAFETY: [0, initial_bytes) is committed and readable plain
        // memory for every strategy.
        let v = unsafe { std::ptr::read_volatile(base.add(i)) };
        assert_eq!(
            v,
            0,
            "pool verify_zero: reused memory not zeroed at byte {}",
            i * 8
        );
    }
}
