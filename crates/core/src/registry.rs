//! Lock-free, hazard-pointer-protected registries of memory arenas and JIT
//! code regions.
//!
//! The paper (§4.2.1) describes managing memory arenas with "an atomic
//! integer variable controlling the size of each memory arena, and a hazard
//! pointer-style implementation for adding and removing memory arenas,
//! avoiding the need for locks most of the time". This module implements
//! that design: a fixed array of descriptor slots written with CAS, and a
//! per-thread hazard pointer that readers (including the SIGSEGV/SIGBUS
//! handler, which cannot take locks) publish before dereferencing a slot.
//! Removal spins until no hazard references the descriptor, then frees it.

use crate::strategy::BoundsStrategy;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Descriptor of one linear-memory arena, shared with the signal handler.
#[derive(Debug)]
#[repr(C)]
pub struct ArenaDesc {
    /// Base address of the reservation.
    pub base: usize,
    /// Reservation length in bytes.
    pub len: usize,
    /// Currently accessible bytes (the paper's atomic size variable).
    pub committed: AtomicUsize,
    /// The arena's bounds-checking strategy.
    pub strategy: BoundsStrategy,
    /// End (exclusive, arena-relative, host-page aligned) of the arena's
    /// plain read-write prefix, whose first touch is an ordinary kernel
    /// minor fault. Fixed at creation: together with `strategy` and `len`
    /// it is the shape the instance pool keys reuse on. Past it, a first
    /// touch faults to the runtime:
    /// - `mprotect`: `[0, plain_end)` is `PROT_READ|WRITE` and the rest
    ///   `PROT_NONE`; `grow` opens `[plain_end, committed)`, and releasing
    ///   the memory to the pool re-protects it.
    /// - `uffd`: `[plain_end, len)` is registered with the shared
    ///   userfaultfd. It equals the initial size, so it never rises above
    ///   `committed`, and every address at or beyond `committed` still
    ///   SIGBUSes. The fault servicer never zero-fills below it:
    ///   `UFFDIO_ZEROPAGE` refuses unregistered pages.
    /// - `none`, `clamp`, `trap`: the whole reservation.
    pub plain_end: usize,
    /// End offset (exclusive, arena-relative) of the last window the uffd
    /// fault servicer populated; the stride predictor compares the next
    /// fault against it to detect sequential scans.
    pub last_fault_end: AtomicUsize,
    /// Consecutive sequential-fault count; drives window extension.
    pub fault_streak: AtomicUsize,
}

impl ArenaDesc {
    /// A descriptor with fault-prediction state zeroed.
    pub fn new(
        base: usize,
        len: usize,
        committed: usize,
        strategy: BoundsStrategy,
        plain_end: usize,
    ) -> ArenaDesc {
        ArenaDesc {
            base,
            len,
            committed: AtomicUsize::new(committed),
            strategy,
            plain_end,
            last_fault_end: AtomicUsize::new(0),
            fault_streak: AtomicUsize::new(0),
        }
    }

    /// Whether `addr` falls inside this arena's reservation.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base && addr < self.base + self.len
    }

    /// Reset the stride predictor (on pool reuse, so a recycled arena does
    /// not inherit the previous instance's access pattern).
    pub fn reset_fault_prediction(&self) {
        self.last_fault_end.store(0, Ordering::Relaxed);
        self.fault_streak.store(0, Ordering::Relaxed);
    }
}

/// Descriptor of one executable JIT code region, shared with the signal
/// handler so SIGILL/SIGFPE at a wasm pc can be mapped to a trap.
#[derive(Debug)]
#[repr(C)]
pub struct CodeDesc {
    /// Base address of the executable mapping.
    pub base: usize,
    /// Length in bytes.
    pub len: usize,
}

impl CodeDesc {
    /// Whether `pc` falls inside this code region.
    pub fn contains(&self, pc: usize) -> bool {
        pc >= self.base && pc < self.base + self.len
    }
}

/// Maximum simultaneously-registered descriptors per registry.
pub const MAX_SLOTS: usize = 2048;
/// Maximum threads concurrently reading a registry.
pub const MAX_HAZARDS: usize = 512;

/// A fixed-capacity lock-free registry with hazard-pointer reclamation.
#[derive(Debug)]
pub struct HazardRegistry<T> {
    slots: [AtomicPtr<T>; MAX_SLOTS],
    hazards: [AtomicPtr<T>; MAX_HAZARDS],
    hazard_claimed: [AtomicBool; MAX_HAZARDS],
    /// Upper bound (exclusive) of slots ever used, to shorten scans.
    high_water: AtomicUsize,
}

/// Handle returned by [`HazardRegistry::register`]; needed to unregister.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(usize);

/// A claimed per-thread hazard slot index for a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HazardId(usize);

impl<T> HazardRegistry<T> {
    /// An empty registry (usable in `static`s).
    pub const fn new() -> HazardRegistry<T> {
        HazardRegistry {
            slots: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_SLOTS],
            hazards: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_HAZARDS],
            hazard_claimed: [const { AtomicBool::new(false) }; MAX_HAZARDS],
            high_water: AtomicUsize::new(0),
        }
    }

    /// Register a descriptor; the registry takes ownership of the box.
    /// Returns the slot plus a raw pointer the caller may keep for direct
    /// (atomic-field) updates — the pointer stays valid until `unregister`.
    ///
    /// # Panics
    /// Panics if the registry is full ([`MAX_SLOTS`] live descriptors).
    pub fn register(&self, desc: Box<T>) -> (SlotId, *const T) {
        let ptr = Box::into_raw(desc);
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .compare_exchange(
                    std::ptr::null_mut(),
                    ptr,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // AcqRel, not Relaxed: `find_with` bounds its scan by an
                // Acquire load of `high_water`, and that pairing is what
                // lets a reader that learned the new bound *only* through
                // `high_water` also observe the slot CAS above. (Callers
                // that receive the descriptor's address through a normal
                // sync edge — thread spawn, channel — were already safe:
                // this store is sequenced before any such release. The
                // signal handler, though, may race a registration on
                // another thread with no edge but this one.)
                self.high_water.fetch_max(i + 1, Ordering::AcqRel);
                return (SlotId(i), ptr as *const T);
            }
        }
        // Registry full — reclaim the box before panicking.
        // SAFETY: ptr came from Box::into_raw above and was never shared.
        drop(unsafe { Box::from_raw(ptr) });
        panic!("hazard registry full ({MAX_SLOTS} live descriptors)");
    }

    /// Remove a descriptor, waiting until no reader's hazard pointer
    /// references it, then free it.
    ///
    /// # Panics
    /// Panics if `slot` does not contain `ptr` (double unregister).
    pub fn unregister(&self, slot: SlotId, ptr: *const T) {
        let prev = self.slots[slot.0].swap(std::ptr::null_mut(), Ordering::AcqRel);
        assert_eq!(prev as *const T, ptr, "unregister of wrong descriptor");
        // Wait for readers: a reader publishes its hazard *before*
        // re-checking the slot, so once the slot is null, any reader that
        // still holds `ptr` in a hazard slot is observable here.
        loop {
            let mut busy = false;
            for h in &self.hazards {
                if std::ptr::eq(h.load(Ordering::Acquire), ptr) {
                    busy = true;
                    break;
                }
            }
            if !busy {
                break;
            }
            std::hint::spin_loop();
        }
        // SAFETY: slot cleared and no hazards reference ptr; we own it again.
        drop(unsafe { Box::from_raw(ptr as *mut T) });
    }

    /// Claim a hazard slot for the calling thread. Must be called outside
    /// signal context (it may spin over the claim array).
    ///
    /// # Panics
    /// Panics if all [`MAX_HAZARDS`] slots are claimed.
    pub fn claim_hazard(&self) -> HazardId {
        for (i, c) in self.hazard_claimed.iter().enumerate() {
            if c.compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return HazardId(i);
            }
        }
        panic!("out of hazard slots ({MAX_HAZARDS} concurrent reader threads)");
    }

    /// Release a hazard slot claimed with [`HazardRegistry::claim_hazard`].
    pub fn release_hazard(&self, id: HazardId) {
        self.hazards[id.0].store(std::ptr::null_mut(), Ordering::Release);
        self.hazard_claimed[id.0].store(false, Ordering::Release);
    }

    /// Find a registered descriptor matching `pred`, protecting it with the
    /// caller's hazard slot, and pass it to `f`. The hazard is cleared
    /// before returning.
    ///
    /// Async-signal-safe: only atomic loads/stores and the caller's
    /// closures run. `pred` and `f` must themselves be signal-safe when
    /// called from a handler.
    pub fn find_with<R>(
        &self,
        hazard: HazardId,
        pred: impl FnMut(&T) -> bool,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        self.find_with_hint(hazard, usize::MAX, pred, f)
            .map(|(_, r)| r)
    }

    /// [`HazardRegistry::find_with`], trying slot `hint` before the linear
    /// scan and reporting which slot matched so callers can cache it.
    ///
    /// The hot consumer is the signal handler: consecutive faults almost
    /// always land in the same arena, so a per-thread cached slot index
    /// turns the O(high_water) registry scan into a single probe. A stale
    /// hint is harmless — the slot is re-verified under the hazard
    /// protocol like any other, and a miss falls back to the full scan.
    /// Pass `usize::MAX` (or any out-of-range index) for "no hint".
    ///
    /// Async-signal-safe under the same conditions as `find_with`.
    pub fn find_with_hint<R>(
        &self,
        hazard: HazardId,
        hint: usize,
        mut pred: impl FnMut(&T) -> bool,
        f: impl FnOnce(&T) -> R,
    ) -> Option<(usize, R)> {
        let hw = self.high_water.load(Ordering::Acquire).min(MAX_SLOTS);
        let hslot = &self.hazards[hazard.0];
        let mut f = Some(f);
        // Probe order: the hinted slot first, then the linear scan (which
        // skips the hint — it was already checked).
        let probes = std::iter::once(hint)
            .filter(|&i| i < hw)
            .chain((0..hw).filter(|&i| i != hint));
        for i in probes {
            let slot = &self.slots[i];
            let p = slot.load(Ordering::Acquire);
            if p.is_null() {
                continue;
            }
            // Publish the hazard, then confirm the slot still holds p.
            hslot.store(p, Ordering::SeqCst);
            if slot.load(Ordering::SeqCst) != p {
                hslot.store(std::ptr::null_mut(), Ordering::Release);
                continue;
            }
            // SAFETY: hazard published and slot re-verified, so the
            // descriptor cannot be freed while we hold the hazard.
            let r = unsafe { &*p };
            if pred(r) {
                let out = f.take().map(|f| f(r));
                hslot.store(std::ptr::null_mut(), Ordering::Release);
                return out.map(|o| (i, o));
            }
            hslot.store(std::ptr::null_mut(), Ordering::Release);
        }
        None
    }

    /// Number of live descriptors (linearly scanned; for tests/diagnostics).
    ///
    /// The `Relaxed` loads are deliberate: this is a monitoring count with
    /// no coherence requirement — callers must not infer that a nonzero
    /// result makes any particular descriptor dereferenceable (that is
    /// what [`HazardRegistry::find_with`]'s hazard protocol is for).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Relaxed).is_null())
            .count()
    }

    /// Whether the registry holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for HazardRegistry<T> {
    fn default() -> HazardRegistry<T> {
        HazardRegistry::new()
    }
}

/// The global arena registry consulted by the signal handler.
pub static ARENAS: HazardRegistry<ArenaDesc> = HazardRegistry::new();

/// The global JIT code-region registry consulted by the signal handler.
pub static CODE_REGIONS: HazardRegistry<CodeDesc> = HazardRegistry::new();

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn desc(base: usize, len: usize) -> Box<ArenaDesc> {
        Box::new(ArenaDesc::new(base, len, len, BoundsStrategy::None, len))
    }

    #[test]
    fn register_lookup_unregister() {
        let reg: HazardRegistry<ArenaDesc> = HazardRegistry::new();
        let (slot, ptr) = reg.register(desc(0x1000, 0x1000));
        let h = reg.claim_hazard();
        let found = reg.find_with(h, |d| d.contains(0x1800), |d| d.base);
        assert_eq!(found, Some(0x1000));
        let missing = reg.find_with(h, |d| d.contains(0x4000), |d| d.base);
        assert_eq!(missing, None);
        reg.unregister(slot, ptr);
        assert!(reg.is_empty());
        reg.release_hazard(h);
    }

    #[test]
    #[should_panic(expected = "unregister of wrong descriptor")]
    fn double_unregister_panics() {
        let reg: HazardRegistry<ArenaDesc> = HazardRegistry::new();
        let (slot, ptr) = reg.register(desc(0, 16));
        reg.unregister(slot, ptr);
        reg.unregister(slot, ptr);
    }

    #[test]
    fn concurrent_register_unregister_with_readers() {
        let reg: Arc<HazardRegistry<ArenaDesc>> = Arc::new(HazardRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();

        // Writer threads churn descriptors.
        for t in 0..4u64 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let base = ((t + 1) << 32) + i * 0x10000;
                    let (slot, ptr) = reg.register(desc(base as usize, 0x10000));
                    std::hint::spin_loop();
                    reg.unregister(slot, ptr);
                    i += 1;
                }
            }));
        }
        // Reader threads scan concurrently.
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let h = reg.claim_hazard();
                let mut found = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if reg.find_with(h, |d| d.len == 0x10000, |d| d.base).is_some() {
                        found += 1;
                    }
                }
                reg.release_hazard(h);
                let _ = found;
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(reg.is_empty());
    }

    #[test]
    fn find_with_hint_probes_cached_slot_and_recovers_from_stale_hints() {
        let reg: HazardRegistry<ArenaDesc> = HazardRegistry::new();
        let a = reg.register(desc(0x1000, 0x1000));
        let b = reg.register(desc(0x4000, 0x1000));
        let h = reg.claim_hazard();
        // No hint: the scan finds the second descriptor and reports its slot.
        let (slot_b, base) = reg
            .find_with_hint(h, usize::MAX, |d| d.contains(0x4800), |d| d.base)
            .unwrap();
        assert_eq!(base, 0x4000);
        // A correct hint hits the same slot.
        let (again, _) = reg
            .find_with_hint(h, slot_b, |d| d.contains(0x4800), |d| d.base)
            .unwrap();
        assert_eq!(again, slot_b);
        // A stale hint (points at the wrong arena) still finds the right one.
        let (slot_a, base) = reg
            .find_with_hint(h, slot_b, |d| d.contains(0x1800), |d| d.base)
            .unwrap();
        assert_eq!(base, 0x1000);
        assert_ne!(slot_a, slot_b);
        // A hint into a now-empty slot falls back cleanly.
        reg.unregister(b.0, b.1);
        assert!(reg
            .find_with_hint(h, slot_b, |d| d.contains(0x4800), |d| d.base)
            .is_none());
        reg.release_hazard(h);
        reg.unregister(a.0, a.1);
    }

    #[test]
    fn hazard_slots_are_reusable() {
        let reg: HazardRegistry<CodeDesc> = HazardRegistry::new();
        let a = reg.claim_hazard();
        reg.release_hazard(a);
        let b = reg.claim_hazard();
        assert_eq!(a, b, "released slot should be reclaimed first");
        reg.release_hazard(b);
    }

    #[test]
    fn high_water_shortens_scans_but_stays_correct() {
        let reg: HazardRegistry<ArenaDesc> = HazardRegistry::new();
        let mut live = Vec::new();
        for i in 0..10 {
            live.push(reg.register(desc(i * 0x1000 + 0x1000, 0x1000)));
        }
        // Remove the first few so later slots must still be found.
        for (slot, ptr) in live.drain(..5) {
            reg.unregister(slot, ptr);
        }
        let h = reg.claim_hazard();
        let found = reg.find_with(h, |d| d.contains(0x9800), |d| d.base);
        assert_eq!(found, Some(0x9000));
        reg.release_hazard(h);
        for (slot, ptr) in live {
            reg.unregister(slot, ptr);
        }
    }
}
