//! VM syscall counters, now a shim over the [`lb_telemetry`] registry.
//!
//! The original `VmCounters` static lives on conceptually: the same seven
//! event streams are counted, but the storage is `lb-telemetry`'s named
//! counter table, so the harness's JSONL export and the legacy
//! [`VmSnapshot`] API observe the very same atomics. `memory.grow` is
//! counted per bounds strategy (`mem.grow.<strategy>`; [`VmSnapshot::grows`]
//! is their sum), and
//! two latency histograms (trap delivery, uffd fault service) are owned
//! here so the signal path can record into pre-registered slots.
//!
//! # Ordering audit (`Relaxed`)
//!
//! Every increment and load here is `Ordering::Relaxed`, inherited from
//! the telemetry counter table. That is correct for these counters: each
//! is an independent monotonic event count, and no reader infers
//! cross-counter invariants from a single snapshot. [`snapshot`] is
//! documented as *not* an atomic cut — e.g. a concurrent uffd fault may
//! appear in `uffd_zeropage` but not yet in `signal_traps`. The harness
//! only computes before/after deltas around runs whose worker threads it
//! has joined, and a `join` provides the happens-before edge that makes
//! those deltas exact. Anything stronger (SeqCst) would buy nothing and
//! put fences on the SIGBUS fast path.

use crate::strategy::BoundsStrategy;
use lb_telemetry::{counter, histogram, Counter, Histogram};
use std::sync::OnceLock;

struct VmInstruments {
    mmap: Counter,
    munmap: Counter,
    mprotect: Counter,
    uffd_register: Counter,
    uffd_zeropage: Counter,
    signal_traps: Counter,
    pool_hit: Counter,
    pool_miss: Counter,
    uffd_batch_pages: Counter,
    uffd_prefetch_streak: Counter,
    grow_by_strategy: [Counter; 5],
    trap_latency: Histogram,
    uffd_service: Histogram,
    pool_reset: Histogram,
}

static INSTRUMENTS: OnceLock<VmInstruments> = OnceLock::new();

/// Registration takes a mutex, so the first call must happen in normal
/// context. `install_handlers` and every `LinearMemory`/`Reservation`
/// constructor call this before any signal handler can fire; after that,
/// `vm()` is a single atomic load and is async-signal-safe.
fn vm() -> &'static VmInstruments {
    INSTRUMENTS.get_or_init(|| VmInstruments {
        mmap: counter("mem.mmap"),
        munmap: counter("mem.munmap"),
        mprotect: counter("mem.mprotect"),
        uffd_register: counter("uffd.register"),
        uffd_zeropage: counter("uffd.zeropage"),
        signal_traps: counter("trap.signal"),
        pool_hit: counter("pool.hit"),
        pool_miss: counter("pool.miss"),
        uffd_batch_pages: counter("uffd.batch_pages"),
        uffd_prefetch_streak: counter("uffd.prefetch_streak"),
        grow_by_strategy: [
            counter("mem.grow.none"),
            counter("mem.grow.clamp"),
            counter("mem.grow.trap"),
            counter("mem.grow.mprotect"),
            counter("mem.grow.uffd"),
        ],
        trap_latency: histogram("trap.latency_ns"),
        uffd_service: histogram("uffd.fault_service_ns"),
        pool_reset: histogram("pool.reset_us"),
    })
}

/// Force instrument registration from normal context (called by
/// `install_handlers` so signal handlers only ever see the initialized
/// table).
pub(crate) fn force_init() {
    let _ = vm();
}

/// A point-in-time snapshot of the VM counters.
///
/// Not an atomic cut across fields (see the module docs); exact for
/// before/after deltas separated by thread joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmSnapshot {
    /// `mmap(2)` calls (reservation creation).
    pub mmap: u64,
    /// `munmap(2)` calls (reservation teardown).
    pub munmap: u64,
    /// `mprotect(2)` calls (mprotect-strategy grows).
    pub mprotect: u64,
    /// `UFFDIO_REGISTER` ioctls.
    pub uffd_register: u64,
    /// `UFFDIO_ZEROPAGE` ioctls resolved in the SIGBUS handler.
    pub uffd_zeropage: u64,
    /// Successful `memory.grow` operations across all strategies.
    pub grows: u64,
    /// Wasm traps delivered through the signal path.
    pub signal_traps: u64,
    /// Pooled-memory acquisitions served from a parked arena.
    pub pool_hits: u64,
    /// Pooled-memory acquisitions that fell through to a fresh `mmap`.
    pub pool_misses: u64,
}

impl VmSnapshot {
    /// Difference `self - earlier`, saturating at zero.
    pub fn delta(&self, earlier: &VmSnapshot) -> VmSnapshot {
        VmSnapshot {
            mmap: self.mmap.saturating_sub(earlier.mmap),
            munmap: self.munmap.saturating_sub(earlier.munmap),
            mprotect: self.mprotect.saturating_sub(earlier.mprotect),
            uffd_register: self.uffd_register.saturating_sub(earlier.uffd_register),
            uffd_zeropage: self.uffd_zeropage.saturating_sub(earlier.uffd_zeropage),
            grows: self.grows.saturating_sub(earlier.grows),
            signal_traps: self.signal_traps.saturating_sub(earlier.signal_traps),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
        }
    }

    /// Serialize as one JSON object (serde-free; round-trippable by
    /// `lb_telemetry::json::parse`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"mmap\":{},\"munmap\":{},\"mprotect\":{},",
                "\"uffd_register\":{},\"uffd_zeropage\":{},",
                "\"grows\":{},\"signal_traps\":{},",
                "\"pool_hits\":{},\"pool_misses\":{}}}"
            ),
            self.mmap,
            self.munmap,
            self.mprotect,
            self.uffd_register,
            self.uffd_zeropage,
            self.grows,
            self.signal_traps,
            self.pool_hits,
            self.pool_misses
        )
    }
}

/// Snapshot the global VM counters.
pub fn snapshot() -> VmSnapshot {
    let v = vm();
    VmSnapshot {
        mmap: v.mmap.get(),
        munmap: v.munmap.get(),
        mprotect: v.mprotect.get(),
        uffd_register: v.uffd_register.get(),
        uffd_zeropage: v.uffd_zeropage.get(),
        grows: v.grow_by_strategy.iter().map(|c| c.get()).sum(),
        signal_traps: v.signal_traps.get(),
        pool_hits: v.pool_hit.get(),
        pool_misses: v.pool_miss.get(),
    }
}

pub(crate) fn count_mmap() {
    vm().mmap.inc();
}

pub(crate) fn count_munmap() {
    vm().munmap.inc();
}

pub(crate) fn count_mprotect() {
    vm().mprotect.inc();
}

pub(crate) fn count_uffd_register() {
    vm().uffd_register.inc();
}

/// Called from the SIGBUS handler: must stay async-signal-safe (it is —
/// a relaxed atomic increment on a pre-registered slot; `install_handlers`
/// forces registration before the handler can run).
pub(crate) fn count_uffd_zeropage() {
    vm().uffd_zeropage.inc();
}

/// Count one *successful* `memory.grow`, attributed to its strategy.
/// Callers must invoke this exactly once per logical grow, after the
/// grow can no longer fail — never on the failure path, and never twice
/// if a strategy's implementation falls back internally.
pub(crate) fn count_grow(strategy: BoundsStrategy) {
    let idx = match strategy {
        BoundsStrategy::None => 0,
        BoundsStrategy::Clamp => 1,
        BoundsStrategy::Trap => 2,
        BoundsStrategy::Mprotect => 3,
        BoundsStrategy::Uffd => 4,
    };
    vm().grow_by_strategy[idx].inc();
}

pub(crate) fn count_signal_trap() {
    vm().signal_traps.inc();
}

/// Record trap-entry→resume latency (signal delivery through
/// `lb_trap_resume` back to `catch_traps`).
pub(crate) fn record_trap_latency(ns: u64) {
    vm().trap_latency.record(ns);
}

/// Record uffd fault service time (SIGBUS entry to zeropage completion).
/// Async-signal-safe after `force_init`.
pub(crate) fn record_uffd_service(ns: u64) {
    vm().uffd_service.record(ns);
}

/// Count one pooled-memory acquisition served from a parked arena.
pub(crate) fn count_pool_hit() {
    vm().pool_hit.inc();
}

/// Count one pooled-memory acquisition that fell through to a fresh mmap
/// (no parked arena of the requested shape).
pub(crate) fn count_pool_miss() {
    vm().pool_miss.inc();
}

/// Record one pool reset (drop → reusable) in microseconds.
pub(crate) fn record_pool_reset_us(us: u64) {
    vm().pool_reset.record(us);
}

/// Count pages zero-filled by one batched fault service. Called from the
/// SIGBUS handler: a relaxed atomic add on a pre-registered slot.
pub(crate) fn count_uffd_batch_pages(pages: u64) {
    vm().uffd_batch_pages.add(pages);
}

/// Count one streak-extended (prefetching) fault service. Called from the
/// SIGBUS handler: a relaxed atomic increment on a pre-registered slot.
pub(crate) fn count_uffd_prefetch_streak() {
    vm().uffd_prefetch_streak.inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_subtract() {
        let _serial = crate::test_lock();
        let before = snapshot();
        count_mprotect();
        count_mprotect();
        count_grow(BoundsStrategy::Mprotect);
        let after = snapshot();
        let d = after.delta(&before);
        assert!(d.mprotect >= 2);
        assert!(d.grows >= 1);
    }

    #[test]
    fn grow_is_strategy_labelled() {
        let _serial = crate::test_lock();
        let before = lb_telemetry::snapshot();
        let vm_before = snapshot();
        count_grow(BoundsStrategy::Uffd);
        count_grow(BoundsStrategy::Uffd);
        count_grow(BoundsStrategy::Clamp);
        let d = lb_telemetry::snapshot().delta_since(&before);
        assert_eq!(d.counter("mem.grow.uffd"), 2);
        assert_eq!(d.counter("mem.grow.clamp"), 1);
        assert!(snapshot().delta(&vm_before).grows >= 3);
    }

    #[test]
    fn snapshot_json_shape_is_exact() {
        let s = VmSnapshot {
            mmap: 1,
            munmap: 2,
            mprotect: 3,
            uffd_register: 4,
            uffd_zeropage: 5,
            grows: 6,
            signal_traps: 7,
            pool_hits: 8,
            pool_misses: 9,
        };
        assert_eq!(
            s.to_json(),
            "{\"mmap\":1,\"munmap\":2,\"mprotect\":3,\"uffd_register\":4,\
             \"uffd_zeropage\":5,\"grows\":6,\"signal_traps\":7,\
             \"pool_hits\":8,\"pool_misses\":9}"
        );
        // Round-trippable by our own parser.
        let v = lb_telemetry::json::parse(&s.to_json()).unwrap();
        assert_eq!(v.get("mprotect").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("signal_traps").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn delta_json_roundtrip() {
        let a = VmSnapshot {
            mmap: 10,
            grows: 4,
            ..VmSnapshot::default()
        };
        let b = VmSnapshot {
            mmap: 3,
            grows: 1,
            ..VmSnapshot::default()
        };
        let d = a.delta(&b);
        let v = lb_telemetry::json::parse(&d.to_json()).unwrap();
        assert_eq!(v.get("mmap").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("grows").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("munmap").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn vm_counters_share_telemetry_storage() {
        let _serial = crate::test_lock();
        let before = lb_telemetry::snapshot();
        count_mmap();
        let after = lb_telemetry::snapshot();
        assert_eq!(after.delta_since(&before).counter("mem.mmap"), 1);
    }
}
