//! Request tickets: the exactly-once completion contract.
//!
//! Every *admitted* request owns one [`Slot`], a tiny state machine
//! (`Pending → Running → Resolved`, with a `Pending → Resolved` shortcut
//! for shedding) whose only terminal transition is a compare-and-swap.
//! Exactly one resolver can win that CAS, so an admitted request resolves
//! to exactly one [`Outcome`] — the invariant the chaos-under-load
//! campaign asserts (`admitted == completed + failed + shed`, no losses,
//! no double completions). A losing resolve attempt is counted in
//! `serve.double_complete`, which healthy runs hold at zero.
//!
//! All accounting (`serve.completed` / `serve.failed` / `serve.shed`, the
//! `serve.latency_ns` histogram, the in-flight gauge decrement) lives in
//! the single winning resolve path, so the counters cannot drift from the
//! state machine.

use crate::metrics;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Why an admitted request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The deadline had already expired when a worker dequeued the
    /// request (covers zero-deadline requests, which always shed here —
    /// never run).
    DeadlineDispatch,
    /// Resource exhaustion on the instantiation slow path (fresh mmap
    /// failed with ENOMEM-class errno): the request is load-shed and the
    /// pool drained to relieve pressure, never an abort.
    Capacity,
    /// The server was shutting down; queued work is shed, not executed.
    Shutdown,
}

impl ShedReason {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::DeadlineDispatch => "deadline_dispatch",
            ShedReason::Capacity => "capacity",
            ShedReason::Shutdown => "shutdown",
        }
    }
}

/// The pipeline stage at which an admitted request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailStage {
    /// The dispatch step itself (includes injected `serve.dispatch`
    /// faults).
    Dispatch,
    /// Instantiating the kernel's linear memory / instance.
    Instantiate,
    /// Invoking one of the kernel's entry points (a wasm trap).
    Invoke,
    /// The worker panicked while executing the request; the panic is
    /// caught and converted so the shard survives.
    Worker,
}

impl FailStage {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            FailStage::Dispatch => "dispatch",
            FailStage::Instantiate => "instantiate",
            FailStage::Invoke => "invoke",
            FailStage::Worker => "worker",
        }
    }
}

/// The terminal outcome of an admitted request. Every admitted request
/// resolves to exactly one of these.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The kernel ran to completion.
    Completed {
        /// Time spent queued (admission → worker claim), ns.
        queue_ns: u64,
        /// Time spent executing (instantiate + entry points), ns.
        run_ns: u64,
    },
    /// The request was dispatched but did not complete.
    Failed {
        /// Where it failed.
        stage: FailStage,
        /// Human-readable error.
        error: String,
    },
    /// The request was shed without (full) execution.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
}

impl Outcome {
    /// Whether this outcome is [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// Report name of the outcome kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Failed { .. } => "failed",
            Outcome::Shed { .. } => "shed",
        }
    }
}

/// Slot states. `PENDING` = admitted, queued; `RUNNING` = claimed by a
/// worker; `RESOLVED` = outcome stored.
pub(crate) const PENDING: u8 = 0;
pub(crate) const RUNNING: u8 = 1;
pub(crate) const RESOLVED: u8 = 2;

/// The shared state behind a [`Ticket`]: one admitted request.
pub(crate) struct Slot {
    state: AtomicU8,
    outcome: Mutex<Option<Outcome>>,
    resolved_cv: Condvar,
    /// Submitting tenant.
    pub(crate) tenant: u32,
    /// Kernel index into the server's module table.
    pub(crate) kernel: usize,
    /// Shard the request was routed to.
    pub(crate) shard: usize,
    /// Admission timestamp (monotonic ns).
    pub(crate) admitted_ns: u64,
    /// Absolute deadline (monotonic ns).
    pub(crate) deadline_ns: u64,
    dispatched_ns: AtomicU64,
    /// Global in-flight gauge, decremented exactly once on resolution.
    inflight: Arc<AtomicUsize>,
}

impl Slot {
    pub(crate) fn new(
        tenant: u32,
        kernel: usize,
        shard: usize,
        admitted_ns: u64,
        deadline_ns: u64,
        inflight: Arc<AtomicUsize>,
    ) -> Arc<Slot> {
        Arc::new(Slot {
            state: AtomicU8::new(PENDING),
            outcome: Mutex::new(None),
            resolved_cv: Condvar::new(),
            tenant,
            kernel,
            shard,
            admitted_ns,
            deadline_ns,
            dispatched_ns: AtomicU64::new(0),
            inflight,
        })
    }

    /// Current state.
    pub(crate) fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Worker claim: `Pending → Running`. Returns false if the request
    /// was already claimed or resolved.
    pub(crate) fn try_claim(&self, now_ns: u64) -> bool {
        let claimed = self
            .state
            .compare_exchange(PENDING, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if claimed {
            self.dispatched_ns.store(now_ns, Ordering::Relaxed);
        }
        claimed
    }

    /// Queue latency for a claimed slot, ns.
    pub(crate) fn queue_ns(&self) -> u64 {
        self.dispatched_ns
            .load(Ordering::Relaxed)
            .saturating_sub(self.admitted_ns)
    }

    /// Resolve from an expected state (`PENDING` for shed-before-claim,
    /// `RUNNING` for a worker finishing). The single winning transition
    /// records all accounting; a lost race increments
    /// `serve.double_complete` and changes nothing else.
    pub(crate) fn resolve_from(&self, expected: u8, outcome: Outcome, now_ns: u64) -> bool {
        if self
            .state
            .compare_exchange(expected, RESOLVED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            metrics().double_complete.inc();
            return false;
        }
        let m = metrics();
        match &outcome {
            Outcome::Completed { .. } => m.completed.inc(),
            Outcome::Failed { .. } => m.failed.inc(),
            Outcome::Shed { .. } => m.shed.inc(),
        }
        m.latency_ns.record(now_ns.saturating_sub(self.admitted_ns));
        // Decrement the gauge *before* publishing the outcome: anyone
        // whose wait() returns is then guaranteed to observe the
        // decrement (shutdown and test assertions rely on this).
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        {
            let mut slot = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
            *slot = Some(outcome);
        }
        self.resolved_cv.notify_all();
        true
    }
}

/// A handle to one admitted request; resolves to exactly one [`Outcome`].
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// The tenant that submitted the request.
    pub fn tenant(&self) -> u32 {
        self.slot.tenant
    }

    /// The kernel index the request targets.
    pub fn kernel(&self) -> usize {
        self.slot.kernel
    }

    /// The shard the request was routed to.
    pub fn shard(&self) -> usize {
        self.slot.shard
    }

    /// The outcome, if already resolved (non-blocking).
    pub fn try_outcome(&self) -> Option<Outcome> {
        if self.slot.state() != RESOLVED {
            return None;
        }
        self.slot
            .outcome
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Block until the request resolves.
    pub fn wait(&self) -> Outcome {
        let mut guard = self.slot.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(out) = guard.as_ref() {
                return out.clone();
            }
            guard = self
                .slot
                .resolved_cv
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until the request resolves or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.slot.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(out) = guard.as_ref() {
                return Some(out.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _timed_out) = self
                .slot
                .resolved_cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("tenant", &self.slot.tenant)
            .field("kernel", &self.slot.kernel)
            .field("shard", &self.slot.shard)
            .field("resolved", &(self.slot.state() == RESOLVED))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> Arc<Slot> {
        let inflight = Arc::new(AtomicUsize::new(1));
        Slot::new(0, 0, 0, 100, 1_000, inflight)
    }

    #[test]
    fn resolve_is_exactly_once() {
        let s = slot();
        assert!(s.resolve_from(
            PENDING,
            Outcome::Shed {
                reason: ShedReason::DeadlineDispatch
            },
            200,
        ));
        // The losing path: a second resolution of the same slot.
        assert!(!s.resolve_from(
            RUNNING,
            Outcome::Completed {
                queue_ns: 0,
                run_ns: 0
            },
            300,
        ));
        let t = Ticket { slot: s };
        match t.wait() {
            Outcome::Shed { reason } => assert_eq!(reason, ShedReason::DeadlineDispatch),
            other => panic!("first resolution must win, got {other:?}"),
        }
    }

    #[test]
    fn claim_blocks_pending_resolution() {
        let s = slot();
        assert!(s.try_claim(150));
        assert!(!s.try_claim(151), "claim is exclusive");
        // A running request can no longer be shed as pending.
        assert!(!s.resolve_from(
            PENDING,
            Outcome::Shed {
                reason: ShedReason::DeadlineDispatch
            },
            200,
        ));
        assert!(s.resolve_from(
            RUNNING,
            Outcome::Completed {
                queue_ns: s.queue_ns(),
                run_ns: 7
            },
            300,
        ));
        assert_eq!(s.queue_ns(), 50);
    }

    #[test]
    fn inflight_gauge_decrements_once() {
        let inflight = Arc::new(AtomicUsize::new(3));
        let s = Slot::new(0, 0, 0, 0, 1, Arc::clone(&inflight));
        s.resolve_from(
            PENDING,
            Outcome::Shed {
                reason: ShedReason::Shutdown,
            },
            1,
        );
        s.resolve_from(
            PENDING,
            Outcome::Shed {
                reason: ShedReason::Shutdown,
            },
            2,
        );
        assert_eq!(inflight.load(Ordering::SeqCst), 2, "one decrement only");
    }

    #[test]
    fn wait_timeout_times_out_then_resolves() {
        let s = slot();
        let t = Ticket {
            slot: Arc::clone(&s),
        };
        assert!(t.wait_timeout(Duration::from_millis(10)).is_none());
        s.resolve_from(
            PENDING,
            Outcome::Failed {
                stage: FailStage::Dispatch,
                error: "x".into(),
            },
            500,
        );
        match t.wait_timeout(Duration::from_secs(1)) {
            Some(Outcome::Failed { stage, .. }) => assert_eq!(stage, FailStage::Dispatch),
            other => panic!("expected failure, got {other:?}"),
        }
    }
}
