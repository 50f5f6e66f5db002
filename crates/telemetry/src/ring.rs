//! Lock-free per-thread ring buffers of fixed-size span/event records.
//!
//! Each thread owns one single-producer ring; a global registry lets a
//! drainer walk all rings. The producer never blocks and never
//! allocates: when the ring is full (or a push is interrupted by a
//! signal that itself pushes), the event is dropped and counted.
//!
//! A ring outlives its thread: when the thread exits, the ring, with any
//! events not yet drained, passes to the next thread that needs one. A
//! process that keeps starting short-lived threads (every
//! `lb_serve::Server` starts its shard workers) therefore holds one ring
//! per concurrently live thread, not one per thread it ever started.
//! Events keep the thread id of the ring they were pushed to, so
//! threads that share a ring, one after another, share an id.
//!
//! # Concurrency protocol
//!
//! `head` is written only by the owning thread, `tail` only by a drainer
//! holding the registry lock (so there is exactly one consumer at a
//! time). The producer checks `head - tail < capacity`, fills the slot,
//! then publishes with `head.store(Release)`; the consumer reads
//! `head.load(Acquire)`, copies slots in `[tail, head)` — which the
//! producer cannot touch, since it only writes at `head` — then
//! publishes consumption with `tail.store(Release)`.
//!
//! # Signal reentrancy
//!
//! A slot write is several stores; a signal arriving mid-push whose
//! handler also pushes would interleave writes to the same slot. The
//! `busy` flag (only ever contended by the owning thread against its own
//! signal handler) makes the inner push drop its event instead.

use crate::span::SpanRecord;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Counter mirroring per-ring drop totals into the snapshot, so a
/// truncated profile is visible in the JSONL a run emits rather than
/// only through [`dropped_events`]. Interned from normal context in
/// [`ensure_thread_ring`]; [`SpanRing::push`] (which may run in a
/// signal handler) only does an `OnceLock::get` plus a relaxed
/// `fetch_add` on the pre-registered cell.
static DROPPED_COUNTER: OnceLock<crate::Counter> = OnceLock::new();

/// Events each per-thread ring can hold before dropping (power of two).
pub const RING_CAPACITY: usize = 4096;

/// What a ring record represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A timed region: `start_ns` .. `start_ns + dur_ns`.
    Span,
    /// A point event; `dur_ns` is zero.
    Instant,
}

struct RingSlot {
    name_id: AtomicU32,
    kind: AtomicU32,
    arg: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl RingSlot {
    fn new() -> RingSlot {
        RingSlot {
            name_id: AtomicU32::new(0),
            kind: AtomicU32::new(0),
            arg: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// One thread's event ring. Created lazily per thread; see
/// [`ensure_thread_ring`].
pub struct SpanRing {
    slots: Box<[RingSlot]>,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
    busy: AtomicBool,
    thread: u32,
}

impl SpanRing {
    fn new(thread: u32) -> SpanRing {
        let slots: Vec<RingSlot> = (0..RING_CAPACITY).map(|_| RingSlot::new()).collect();
        SpanRing {
            slots: slots.into_boxed_slice(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            thread,
        }
    }

    /// Producer-side push. Must only be called from the owning thread
    /// (or its signal handlers). Wait-free; drops on overflow or
    /// reentrancy.
    pub(crate) fn push(&self, name_id: u16, kind: EventKind, arg: u64, start_ns: u64, dur_ns: u64) {
        if self.busy.swap(true, Ordering::Acquire) {
            // A signal interrupted this thread mid-push and the handler
            // is pushing too: drop rather than corrupt the open slot.
            self.count_drop();
            return;
        }
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= RING_CAPACITY {
            self.count_drop();
        } else {
            let slot = &self.slots[head & (RING_CAPACITY - 1)];
            slot.name_id.store(u32::from(name_id), Ordering::Relaxed);
            slot.kind.store(
                match kind {
                    EventKind::Span => 0,
                    EventKind::Instant => 1,
                },
                Ordering::Relaxed,
            );
            slot.arg.store(arg, Ordering::Relaxed);
            slot.start_ns.store(start_ns, Ordering::Relaxed);
            slot.dur_ns.store(dur_ns, Ordering::Relaxed);
            self.head.store(head.wrapping_add(1), Ordering::Release);
        }
        self.busy.store(false, Ordering::Release);
    }

    /// Consumer-side drain. Caller must hold the registry lock (single
    /// consumer).
    fn drain_into(&self, out: &mut Vec<SpanRecord>) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        for i in tail..head {
            let slot = &self.slots[i & (RING_CAPACITY - 1)];
            out.push(SpanRecord {
                name: crate::span::name_of(slot.name_id.load(Ordering::Relaxed) as u16),
                kind: if slot.kind.load(Ordering::Relaxed) == 0 {
                    EventKind::Span
                } else {
                    EventKind::Instant
                },
                arg: slot.arg.load(Ordering::Relaxed),
                start_ns: slot.start_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                thread: self.thread,
            });
        }
        self.tail.store(head, Ordering::Release);
    }

    /// Events dropped on this ring (overflow + reentrancy).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Account one dropped event on this ring and in the global
    /// `telemetry.ring.dropped` counter. Async-signal-safe.
    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = DROPPED_COUNTER.get() {
            c.inc();
        }
    }
}

static REGISTRY: Mutex<Vec<Arc<SpanRing>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Rings whose threads have exited, for the next new thread.
static RETIRED: Mutex<Vec<Arc<SpanRing>>> = Mutex::new(Vec::new());

/// A thread's hold on its ring: returns the ring to [`RETIRED`] when the
/// thread's locals are torn down.
struct ThreadRing(Arc<SpanRing>);

impl Drop for ThreadRing {
    fn drop(&mut self) {
        // A poisoned list only costs the ring's reuse.
        if let Ok(mut retired) = RETIRED.lock() {
            retired.push(Arc::clone(&self.0));
        }
    }
}

thread_local! {
    static RING: OnceCell<ThreadRing> = const { OnceCell::new() };
}

/// Give this thread a ring if it has none yet (a retired one if any,
/// else a new registered one), and run [`crate::init_from_env`]. Call from normal context before any
/// code that may record spans from a signal handler on this thread —
/// TLS first-touch and registration are not async-signal-safe.
pub fn ensure_thread_ring() {
    crate::init_from_env();
    let _ = DROPPED_COUNTER.get_or_init(|| crate::counter("telemetry.ring.dropped"));
    RING.with(|cell| {
        cell.get_or_init(|| {
            if let Some(ring) = RETIRED.lock().unwrap().pop() {
                return ThreadRing(ring);
            }
            let ring = Arc::new(SpanRing::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
            REGISTRY.lock().unwrap().push(ring.clone());
            ThreadRing(ring)
        });
    });
}

/// Run `f` against this thread's ring, creating it if needed. Normal
/// context only.
pub(crate) fn with_ring<F: FnOnce(&SpanRing)>(f: F) {
    ensure_thread_ring();
    RING.with(|cell| {
        if let Some(ring) = cell.get() {
            f(&ring.0);
        }
    });
}

/// Run `f` against this thread's ring only if it already exists; never
/// initializes TLS. Safe to call from a signal handler *if* the thread
/// called [`ensure_thread_ring`] earlier.
pub(crate) fn with_ring_signal_safe<F: FnOnce(&SpanRing)>(f: F) {
    let _ = RING.try_with(|cell| {
        if let Some(ring) = cell.get() {
            f(&ring.0);
        }
    });
}

/// Drain every thread's ring into one vector (arbitrary inter-thread
/// order; per-thread order is push order).
pub fn drain_spans() -> Vec<SpanRecord> {
    let registry = REGISTRY.lock().unwrap();
    let mut out = Vec::new();
    for ring in registry.iter() {
        ring.drain_into(&mut out);
    }
    out
}

/// Total events dropped across all rings since process start.
pub fn dropped_events() -> u64 {
    let registry = REGISTRY.lock().unwrap();
    registry.iter().map(|r| r.dropped()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::register_span_name;

    #[test]
    fn push_then_drain_roundtrips() {
        let _g = crate::test_drain_lock();
        let name = register_span_name("test.ring.basic");
        // `record_span_raw` never initializes TLS (signal-safety
        // contract), so the ring must exist before the push.
        ensure_thread_ring();
        crate::set_spans_enabled(true);
        crate::record_span_raw(name, 7, 100, 25);
        crate::set_spans_enabled(false);
        let drained = drain_spans();
        let got = drained
            .iter()
            .find(|r| r.name == "test.ring.basic" && r.arg == 7)
            .expect("record drained");
        assert_eq!(got.start_ns, 100);
        assert_eq!(got.dur_ns, 25);
        assert_eq!(got.kind, EventKind::Span);
    }

    #[test]
    fn wraparound_drops_and_accounts() {
        // Fill a private ring past capacity; the overflow must be
        // dropped and counted, and the first RING_CAPACITY events kept.
        let ring = SpanRing::new(9999);
        for i in 0..(RING_CAPACITY as u64 + 100) {
            ring.push(0, EventKind::Instant, i, i, 0);
        }
        assert_eq!(ring.dropped(), 100);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(out[0].arg, 0);
        assert_eq!(out.last().unwrap().arg, RING_CAPACITY as u64 - 1);
        // After draining, the ring accepts events again and indices wrap.
        ring.push(0, EventKind::Instant, 424242, 1, 0);
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arg, 424242);
        assert_eq!(ring.dropped(), 100);
    }

    #[test]
    fn drops_surface_in_global_counter() {
        // ensure_thread_ring interns the counter; ring drops must then
        // show up under `telemetry.ring.dropped` in snapshots.
        ensure_thread_ring();
        let before = crate::snapshot().counter("telemetry.ring.dropped");
        let ring = SpanRing::new(9998);
        for i in 0..(RING_CAPACITY as u64 + 7) {
            ring.push(0, EventKind::Instant, i, i, 0);
        }
        let after = crate::snapshot().counter("telemetry.ring.dropped");
        assert!(
            after >= before + 7,
            "counter moved {before} -> {after}, wanted +7"
        );
    }

    #[test]
    fn concurrent_producer_and_drainer() {
        // One producer hammers its ring while a drainer concurrently
        // drains: every pushed event is either drained or counted as
        // dropped, with no duplicates or corruption.
        let ring = Arc::new(SpanRing::new(12345));
        let producer_ring = ring.clone();
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                producer_ring.push(0, EventKind::Instant, i, i, 0);
            }
        });
        let mut seen = Vec::new();
        while !producer.is_finished() {
            ring.drain_into(&mut seen);
        }
        producer.join().unwrap();
        ring.drain_into(&mut seen);
        let dropped = ring.dropped();
        assert_eq!(seen.len() as u64 + dropped, N);
        // Drained args must be strictly increasing (per-thread order) and
        // each equal to its own start_ns (integrity of slot contents).
        let mut prev = None;
        for r in &seen {
            assert_eq!(r.arg, r.start_ns, "slot torn");
            if let Some(p) = prev {
                assert!(r.arg > p, "out of order: {} after {}", r.arg, p);
            }
            prev = Some(r.arg);
        }
    }
}
