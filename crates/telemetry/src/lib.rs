//! `lb-telemetry` — runtime-wide observability for the leaps-and-bounds
//! reproduction.
//!
//! The paper's analysis hinges on *attributing* cost to bounds-checking
//! machinery: page-fault storms, `mprotect` churn, signal round-trips, JIT
//! tier-up pauses. This crate is the measurement substrate for that — a
//! zero-dependency layer (the build environment is offline) providing:
//!
//! * **Named monotonic counters** ([`counter`]) — fixed-slot atomics,
//!   async-signal-safe to increment, subsuming `lb-core`'s old
//!   `VmCounters`.
//! * **Power-of-two-bucket histograms** ([`histogram`]) — fixed-slot
//!   atomics, no allocation on the record path, async-signal-safe; used
//!   for trap delivery latency, uffd zeropage service time, `memory.grow`
//!   cost, JIT compile time.
//! * **Spans and instants** ([`span!`], [`instant`]) — RAII timers pushed
//!   into a lock-free per-thread ring buffer of fixed-size records
//!   ([`ring`]); overflow drops events and counts the drops rather than
//!   blocking or allocating.
//! * **Snapshot / drain / export** ([`snapshot`], [`snapshot_and_drain`],
//!   [`export`]) — a coherent-enough view of all counters and histograms
//!   plus the drained spans, with manual (serde-free) JSONL and
//!   human-readable writers.
//!
//! # Enabling output
//!
//! The `LB_TELEMETRY` environment variable controls the export sink:
//!
//! * unset / empty / `off` — no sink; spans stay disabled (counters and
//!   histograms still accumulate, they are practically free).
//! * `jsonl:<path>` — append JSONL records to `<path>` after each
//!   harness run.
//! * `human` or `human:<path>` — human-readable summary to stderr or a
//!   file.
//!
//! Setting a sink also enables span recording.
//!
//! # Async-signal-safety
//!
//! Counter and histogram *increments* are single atomic RMW operations on
//! pre-registered slots: safe from signal handlers. *Registration*
//! ([`counter`]/[`histogram`]/[`register_span_name`]) takes a mutex and
//! must happen in normal context before the handler can run — `lb-core`
//! registers everything in `install_handlers`. Span pushes from signal
//! context go through [`record_span_raw`], which only touches a ring that
//! the interrupted thread already created ([`ensure_thread_ring`]) and is
//! guarded against same-thread reentrancy.

#![warn(missing_docs)]

pub mod clock;
pub mod counters;
pub mod export;
pub mod histogram;
pub mod json;
pub mod ring;
pub mod snapshot;
pub mod span;

pub use counters::{counter, Counter, CounterValue};
pub use histogram::{histogram, Histogram, HistogramSnapshot};
pub use ring::{drain_spans, dropped_events, ensure_thread_ring, EventKind};
pub use snapshot::{snapshot, snapshot_and_drain, TelemetrySnapshot};
pub use span::{instant, record_span_raw, register_span_name, SpanGuard, SpanId, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Where [`export::emit_run`] sends each run's telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sink {
    /// Append JSONL records to the given file.
    Jsonl(String),
    /// Human-readable summary; `None` means stderr.
    Human(Option<String>),
}

static SINK: OnceLock<Option<Sink>> = OnceLock::new();

/// Parse `LB_TELEMETRY` once and configure the sink and the span flag
/// accordingly. Idempotent; cheap after the first
/// call. Called automatically by [`ensure_thread_ring`], which `lb-core`
/// invokes on every thread before running wasm.
pub fn init_from_env() {
    SINK.get_or_init(|| {
        let sink = match std::env::var("LB_TELEMETRY") {
            Ok(v) => parse_sink(&v),
            Err(_) => None,
        };
        if sink.is_some() {
            SPANS_ENABLED.store(true, Ordering::Relaxed);
        }
        sink
    });
}

fn parse_sink(v: &str) -> Option<Sink> {
    match v {
        "" | "off" | "0" => None,
        "human" => Some(Sink::Human(None)),
        _ => {
            if let Some(path) = v.strip_prefix("jsonl:") {
                Some(Sink::Jsonl(path.to_string()))
            } else {
                v.strip_prefix("human:")
                    .map(|path| Sink::Human(Some(path.to_string())))
            }
        }
    }
}

/// The sink configured by [`init_from_env`], if any.
pub fn sink() -> Option<&'static Sink> {
    init_from_env();
    SINK.get().and_then(|s| s.as_ref())
}

/// Whether span/instant recording is on. A single relaxed atomic load —
/// this is the whole cost of a disabled [`span!`].
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off (tests and embedders; the env var does
/// this automatically when a sink is configured).
pub fn set_spans_enabled(on: bool) {
    SPANS_ENABLED.store(on, Ordering::Relaxed);
}

/// A per-call-site [`span!`] body: enters a span guard when spans are
/// enabled. See the macro docs.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, 0)
    };
    ($name:expr, $arg:expr) => {
        $crate::SpanGuard::enter($name, ($arg) as u64)
    };
}

/// Serializes tests that drain the global ring registry or toggle span
/// recording, so concurrent test threads don't steal each other's records
/// or switch spans off under each other.
#[cfg(test)]
pub(crate) fn test_drain_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_parsing() {
        assert_eq!(parse_sink(""), None);
        assert_eq!(parse_sink("off"), None);
        assert_eq!(
            parse_sink("jsonl:/tmp/x.jsonl"),
            Some(Sink::Jsonl("/tmp/x.jsonl".into()))
        );
        assert_eq!(parse_sink("human"), Some(Sink::Human(None)));
        assert_eq!(
            parse_sink("human:/tmp/t.txt"),
            Some(Sink::Human(Some("/tmp/t.txt".into())))
        );
        assert_eq!(parse_sink("bogus"), None);
    }

    #[test]
    fn flags_toggle() {
        let _g = test_drain_lock();
        set_spans_enabled(true);
        assert!(spans_enabled());
        set_spans_enabled(false);
        assert!(!spans_enabled());
    }
}
