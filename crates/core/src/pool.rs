//! Instance pooling for linear memories: reuse the reservation, the arena
//! registration, and the uffd registration across instantiations.
//!
//! The paper's uffd strategy pays its way not in checks but in lifecycle:
//! an 8 GiB reservation `mmap`ed, `UFFDIO_REGISTER`ed, then torn down per
//! instantiation (§2.3). Under benchmark traffic — thousands of
//! instantiations of the same module — that setup dominates and distorts
//! the per-strategy numbers. The pool removes it: a dropped
//! [`crate::LinearMemory`] parks its [`ArenaParts`] on a lock-free
//! free-list keyed by strategy, and the next instantiation of the same
//! shape reuses them wholesale.
//!
//! The **zero-fill guarantee** on reuse comes from `madvise(MADV_DONTNEED)`
//! over the anonymous private reservation: the kernel drops every resident
//! page, and the next touch observes a fresh zero page (lazily faulted
//! above a `uffd` arena's registered floor, demand-zeroed everywhere
//! else). Nothing is re-`mmap`ed. Only the *delta* between the parked
//! plain prefix ([`ArenaDesc::plain_end`]) and the new initial size is
//! adjusted: `mprotect` re-protects it either way, and `uffd` registers
//! `[init, floor)` when a smaller module takes the arena, so every byte at
//! or beyond `committed` stays registered. Reusing an instance of the same
//! shape costs no syscall at all. [`MemoryPoolConfig::verify_zero`] adds a
//! paranoid read-back of the initial window for tests.
//!
//! While parked, an entry keeps `committed = 0` in its still-registered
//! [`ArenaDesc`], so a stray fault into a pooled arena classifies as a
//! wasm OOB trap rather than corrupting recycled memory.
//!
//! Opt-in: [`configure`] with a [`MemoryPoolConfig`] (entries retained
//! per strategy, zero-fill read-back). Disabled (capacity 0) by default,
//! preserving the measured-per-run lifecycle the paper's baseline figures
//! need. A parked `uffd` entry holds no descriptor of its own: every arena
//! shares the process-wide userfaultfd ([`crate::uffd`]).

use crate::region::Reservation;
use crate::registry::{ArenaDesc, SlotId, ARENAS};
use crate::stats;
use crate::strategy::BoundsStrategy;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Maximum entries the free-list can hold per strategy, regardless of the
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

/// Install a pool configuration. Shrinking the capacity does not evict
/// already-parked entries; call [`drain`] for that.
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
/// free-list.
#[derive(Debug)]
pub(crate) struct ArenaParts {
    pub(crate) reservation: Reservation,
    pub(crate) desc_slot: SlotId,
    pub(crate) desc: *const ArenaDesc,
    pub(crate) strategy: BoundsStrategy,
}

// SAFETY: the desc pointer stays valid until teardown (the registration it
// refers to is owned by these parts), and all state behind it is atomic.
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

fn strategy_index(s: BoundsStrategy) -> usize {
    match s {
        BoundsStrategy::None => 0,
        BoundsStrategy::Clamp => 1,
        BoundsStrategy::Trap => 2,
        BoundsStrategy::Mprotect => 3,
        BoundsStrategy::Uffd => 4,
    }
}

/// Free-lists: one fixed slot array per strategy. Push CASes an entry
/// into the first empty slot, pop swaps the first occupied one out —
/// lock-free and ABA-free (a slot transfers a unique boxed pointer in
/// one atomic op; there is no multi-step head/next protocol to race).
static FREE: [[AtomicPtr<ArenaParts>; MAX_POOL_SLOTS]; 5] =
    [const { [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_POOL_SLOTS] }; 5];

fn push(parts: ArenaParts) -> Result<(), ArenaParts> {
    let limit = pool_capacity().min(MAX_POOL_SLOTS);
    let list = &FREE[strategy_index(parts.strategy)];
    let ptr = Box::into_raw(Box::new(parts));
    for slot in &list[..limit] {
        if slot
            .compare_exchange(
                std::ptr::null_mut(),
                ptr,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return Ok(());
        }
    }
    // Pool full at the configured capacity.
    // SAFETY: ptr came from Box::into_raw above and was never shared.
    Err(*unsafe { Box::from_raw(ptr) })
}

fn pop(strategy: BoundsStrategy) -> Option<ArenaParts> {
    let list = &FREE[strategy_index(strategy)];
    for slot in list.iter() {
        let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !p.is_null() {
            // SAFETY: the swap transferred exclusive ownership of the box.
            return Some(*unsafe { Box::from_raw(p) });
        }
    }
    None
}

/// Number of entries currently parked across all strategies (diagnostics).
pub fn pooled_count() -> usize {
    FREE.iter()
        .flat_map(|l| l.iter())
        .filter(|s| !s.load(Ordering::Relaxed).is_null())
        .count()
}

/// Tear down every parked entry, returning how many were evicted. Tests
/// use this between configurations; long-lived processes (lb-serve's
/// capacity-shed relief path) use it to release reservations under
/// memory pressure.
///
/// Sweeps repeatedly until a full pass evicts nothing: a concurrent
/// `release` can park an entry in a slot an in-progress sweep already
/// passed, and a single pass would silently leave it resident — the
/// cross-thread leak the pool stress test pins down.
pub fn drain() -> usize {
    let mut n = 0;
    loop {
        let mut evicted_this_pass = 0;
        for list in &FREE {
            for slot in list.iter() {
                let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                if !p.is_null() {
                    // SAFETY: the swap transferred exclusive ownership.
                    unsafe { Box::from_raw(p) }.teardown();
                    evicted_this_pass += 1;
                }
            }
        }
        n += evicted_this_pass;
        if evicted_this_pass == 0 {
            return n;
        }
    }
}

/// Try to serve an instantiation from the pool. Returns ready-to-use
/// parts with `committed = initial_bytes`, or `None` (counted as a pool
/// miss when pooling is enabled) if nothing suitable is parked.
pub(crate) fn acquire(
    strategy: BoundsStrategy,
    reserve: usize,
    initial_bytes: usize,
) -> Option<ArenaParts> {
    if pool_capacity() == 0 {
        return None;
    }
    let _span = lb_telemetry::span!("pool.acquire", initial_bytes);
    let Some(parts) = pop(strategy) else {
        stats::count_pool_miss();
        return None;
    };
    // The pool is keyed by strategy only; a shape change (different
    // reservation size) evicts rather than adapts.
    if parts.reservation.len() != reserve {
        parts.teardown();
        stats::count_pool_miss();
        return None;
    }
    // Adjust only the delta between the parked plain prefix and the new
    // initial size, yielding the new prefix end. Same shape ⇒ zero
    // syscalls.
    let plain = &parts.desc().plain_end;
    let (prefix, init) = (
        plain.load(Ordering::Relaxed),
        crate::region::round_up_to_page(initial_bytes),
    );
    let adjusted = match strategy {
        // The excess of a larger previous instance must return to
        // PROT_NONE, or OOB detection beyond the new initial size would
        // be lost; a larger new instance needs its extra pages writable.
        BoundsStrategy::Mprotect if prefix > init => parts
            .reservation
            .protect(init, prefix - init, crate::region::Protection::None)
            .map(|()| init),
        BoundsStrategy::Mprotect if prefix < init => parts
            .reservation
            .protect(prefix, init - prefix, crate::region::Protection::ReadWrite)
            .map(|()| init),
        // The floor may not exceed `committed`: register the bytes between
        // the new initial size and the old floor, so an access beyond
        // `committed` still SIGBUSes. A larger new instance keeps the
        // floor, and the bytes above it stay lazily served.
        BoundsStrategy::Uffd if prefix > init => {
            let base = parts.reservation.base().as_ptr() as usize;
            crate::uffd::register_missing(base + init, prefix - init).map(|()| init)
        }
        _ => Ok(prefix),
    };
    match adjusted {
        Ok(end) => plain.store(end, Ordering::Relaxed),
        Err(_) => {
            parts.teardown();
            stats::count_pool_miss();
            return None;
        }
    }
    parts
        .desc()
        .committed
        .store(initial_bytes, Ordering::Release);
    if verify_zero_enabled() && initial_bytes > 0 && !verify_zero_window(&parts, initial_bytes) {
        // Populating the window failed (injected or real uffd error): the
        // entry is unverifiable, so poison it — tear down and miss, never
        // hand out memory the check could not cover, and never abort.
        parts.teardown();
        stats::count_pool_miss();
        return None;
    }
    stats::count_pool_hit();
    Some(parts)
}

/// Park released parts on the free-list, resetting them for the next
/// instantiation, or tear them down if pooling is off, the reset fails
/// (the fall-back-to-fresh-`mmap` path chaos tests exercise), or the pool
/// is full.
pub(crate) fn release(parts: ArenaParts) {
    if pool_capacity() == 0 {
        parts.teardown();
        return;
    }
    let _span = lb_telemetry::span!("pool.release", parts.reservation.len());
    let t0 = std::time::Instant::now();
    // Nothing may fault a parked arena as committed, and a recycled arena
    // must not inherit the previous instance's stride history.
    parts.desc().committed.store(0, Ordering::Release);
    parts.desc().reset_fault_prediction();
    // The reset itself: drop every resident page. An injected or real
    // failure degrades to a full teardown — the next acquire simply
    // misses and maps fresh memory; never an abort.
    if lb_chaos::inject("core.pool.reset").is_some()
        || parts
            .reservation
            .discard(0, parts.reservation.len())
            .is_err()
    {
        parts.teardown();
        return;
    }
    stats::record_pool_reset_us(t0.elapsed().as_micros() as u64);
    if let Err(excess) = push(parts) {
        excess.teardown();
    }
}

/// Read back `[0, initial_bytes)` and panic on any nonzero byte — the
/// pool's contract is that reuse is indistinguishable from a fresh
/// memory. For `uffd` the registered pages (those at or above the floor)
/// are populated via ioctl first: this is host context with no trap frame
/// armed, so letting the read SIGBUS would kill the process rather than
/// fault-service.
///
/// Returns `false` if population failed, meaning the window could not be
/// checked — the caller must treat the entry as poisoned and tear it
/// down. The panic is reserved for an *observed* nonzero byte, which is
/// a genuine zero-fill invariant violation.
#[must_use]
fn verify_zero_window(parts: &ArenaParts, initial_bytes: usize) -> bool {
    let base = parts.reservation.base().as_ptr();
    let end = crate::region::round_up_to_page(initial_bytes);
    let floor = parts.desc().plain_end.load(Ordering::Relaxed);
    if parts.strategy == BoundsStrategy::Uffd
        && crate::uffd::populate(base as usize + floor, base as usize + end).is_err()
    {
        return false;
    }
    let words = initial_bytes / 8;
    for i in 0..words {
        // SAFETY: [0, initial_bytes) is committed, populated, and readable
        // for every strategy at this point.
        let v = unsafe { std::ptr::read_volatile((base as *const u64).add(i)) };
        assert_eq!(
            v,
            0,
            "pool verify_zero: reused memory not zeroed at byte {}",
            i * 8
        );
    }
    true
}
