//! The global sample ring: SIGPROF handlers produce, `Session::stop`
//! consumes.
//!
//! This is a sibling of `lb-telemetry`'s span rings with one structural
//! difference: span rings are per-thread SPSC because each thread records
//! its own spans, but `ITIMER_PROF` is a *process* timer — the kernel
//! delivers each expiry to whichever thread is currently running, so two
//! threads can be inside the handler at once. The ring is therefore a
//! single global array with a `fetch_add` slot claim (multi-producer) and
//! a per-slot generation stamp marking completed writes.
//!
//! There is no wraparound: a session owns slots `[0, HEAD)` and drains
//! once, after the timer is disarmed. Claims past the end are counted in
//! `DROPPED` ("bounded sample loss": the count is exact, the samples are
//! the oldest-biased prefix). `reset` bumps `GEN`, which invalidates all
//! slots from earlier sessions without touching them.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Sample capacity per session: 65536 ≈ one minute at the default 997 Hz.
pub(crate) const CAPACITY: usize = 1 << 16;

/// One raw sample, as captured in the handler.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Interrupted program counter (`gregs[REG_RIP]`).
    pub pc: u64,
    /// Monotonic capture time.
    pub t_ns: u64,
    /// Profiler thread id (0 = thread never called
    /// [`crate::ensure_thread`]).
    pub thread: u32,
}

struct Slot {
    pc: AtomicU64,
    t_ns: AtomicU64,
    thread: AtomicU32,
    gen: AtomicU32,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            pc: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            thread: AtomicU32::new(0),
            gen: AtomicU32::new(0),
        }
    }
}

static SLOTS: OnceLock<Box<[Slot]>> = OnceLock::new();
static HEAD: AtomicUsize = AtomicUsize::new(0);
/// Current session generation; slot writes are stamped with it. Starts
/// at 0 = "no session yet", so stale zero-initialized slots never match
/// a live session.
static GEN: AtomicU32 = AtomicU32::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Allocate the slot array. Normal context only (allocates once).
pub(crate) fn init() {
    SLOTS.get_or_init(|| (0..CAPACITY).map(|_| Slot::new()).collect());
}

/// Begin a new session: forget all prior samples, return the new
/// generation. Caller must guarantee no handler is concurrently
/// recording (the timer is not armed yet).
pub(crate) fn reset() -> u32 {
    let gen = GEN.fetch_add(1, Ordering::Relaxed) + 1;
    HEAD.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    gen
}

/// Producer side. Async-signal-safe: one `fetch_add`, four relaxed
/// stores, one release store. Must not be called before [`init`] — a
/// missing slot array just drops the sample.
pub(crate) fn record(pc: u64, t_ns: u64, thread: u32) {
    let Some(slots) = SLOTS.get() else {
        return;
    };
    let idx = HEAD.fetch_add(1, Ordering::Relaxed);
    if idx >= slots.len() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let slot = &slots[idx];
    slot.pc.store(pc, Ordering::Relaxed);
    slot.t_ns.store(t_ns, Ordering::Relaxed);
    slot.thread.store(thread, Ordering::Relaxed);
    // Publish: a slot counts only once its stamp matches the session.
    slot.gen
        .store(GEN.load(Ordering::Relaxed), Ordering::Release);
}

/// Consumer side: copy out every completed sample of generation `gen`.
/// Returns `(samples, dropped, incomplete)`, where `incomplete` counts
/// slots claimed but not yet stamped (a handler that was still running
/// during the post-disarm quiesce window).
pub(crate) fn drain(gen: u32) -> (Vec<Sample>, u64, u64) {
    let Some(slots) = SLOTS.get() else {
        return (Vec::new(), 0, 0);
    };
    let head = HEAD.load(Ordering::Relaxed).min(slots.len());
    let mut out = Vec::with_capacity(head);
    let mut incomplete = 0u64;
    for slot in &slots[..head] {
        if slot.gen.load(Ordering::Acquire) == gen {
            out.push(Sample {
                pc: slot.pc.load(Ordering::Relaxed),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                thread: slot.thread.load(Ordering::Relaxed),
            });
        } else {
            incomplete += 1;
        }
    }
    (out, DROPPED.load(Ordering::Relaxed), incomplete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_is_counted_not_wrapped() {
        let _g = crate::test_lock();
        init();
        let gen = reset();
        for i in 0..(CAPACITY as u64 + 50) {
            record(i, i, 1);
        }
        let (samples, dropped, incomplete) = drain(gen);
        assert_eq!(samples.len(), CAPACITY);
        assert_eq!(dropped, 50);
        assert_eq!(incomplete, 0);
        assert_eq!(samples[0].pc, 0);
        assert_eq!(samples[CAPACITY - 1].pc, CAPACITY as u64 - 1);

        // A new session must see none of this.
        let gen2 = reset();
        record(7, 7, 1);
        let (samples, dropped, _) = drain(gen2);
        assert_eq!(samples.len(), 1);
        assert_eq!(dropped, 0);
    }
}
