//! Whole-process telemetry snapshots and deltas.

use crate::counters::{snapshot_counters, CounterValue};
use crate::histogram::{snapshot_histograms, HistogramSnapshot};
use crate::ring::{drain_spans, dropped_events};
use crate::span::SpanRecord;

/// Counters, histograms, and (optionally) drained spans at a point in
/// time. Not an atomic cut across instruments — see the `counters`
/// module docs — but exact for any instrument quiesced by thread joins.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All registered counters, in registration order.
    pub counters: Vec<CounterValue>,
    /// All registered histograms, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Spans drained into this snapshot (empty for [`snapshot`]).
    pub spans: Vec<SpanRecord>,
    /// Ring events dropped process-wide at snapshot time.
    pub dropped_events: u64,
}

/// Snapshot counters and histograms without draining span rings.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: snapshot_counters(),
        histograms: snapshot_histograms(),
        spans: Vec::new(),
        dropped_events: dropped_events(),
    }
}

/// Snapshot counters and histograms and drain all span rings.
pub fn snapshot_and_drain() -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: snapshot_counters(),
        histograms: snapshot_histograms(),
        spans: drain_spans(),
        dropped_events: dropped_events(),
    }
}

impl TelemetrySnapshot {
    /// Value of the counter named `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Sum of the counters whose names start with `prefix`: the total of
    /// a labelled family such as `mem.grow.` (no separate total counter
    /// is kept).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.value)
            .sum()
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &str) -> Vec<&'a SpanRecord> {
        let name = name.to_string();
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Difference `self - earlier`, matching counters and histograms by
    /// name (instruments registered after `earlier` keep their full
    /// value). Spans and `dropped_events` are taken from `self` as-is:
    /// drained spans are already interval-scoped.
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| CounterValue {
                name: c.name,
                value: c.value.saturating_sub(
                    earlier
                        .counters
                        .iter()
                        .find(|e| e.name == c.name)
                        .map_or(0, |e| e.value),
                ),
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(
                |h| match earlier.histograms.iter().find(|e| e.name == h.name) {
                    Some(e) => h.delta(e),
                    None => h.clone(),
                },
            )
            .collect();
        TelemetrySnapshot {
            counters,
            histograms,
            spans: self.spans.clone(),
            dropped_events: self.dropped_events,
        }
    }

    /// Drop zero counters and empty histograms (export hygiene).
    pub fn retain_nonzero(&mut self) {
        self.counters.retain(|c| c.value != 0);
        self.histograms.retain(|h| h.count != 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, histogram};

    #[test]
    fn delta_matches_by_name() {
        let c = counter("test.snap.counter");
        let h = histogram("test.snap.hist");
        c.add(3);
        h.record(8);
        let before = snapshot();
        c.add(2);
        h.record(16);
        let after = snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.counter("test.snap.counter"), 2);
        let dh = d.histogram("test.snap.hist").unwrap();
        assert_eq!(dh.count, 1);
        assert_eq!(dh.sum, 16);
        assert_eq!(d.counter("test.snap.missing"), 0);
    }

    #[test]
    fn counter_sum_adds_a_labelled_family() {
        let s = TelemetrySnapshot {
            counters: [("a.x", 1), ("a.y", 2), ("ab", 4), ("b.x", 8)]
                .into_iter()
                .map(|(name, value)| CounterValue { name, value })
                .collect(),
            ..TelemetrySnapshot::default()
        };
        assert_eq!(s.counter_sum("a."), 3);
        assert_eq!(s.counter_sum("c."), 0);
    }

    #[test]
    fn retain_nonzero_prunes() {
        let mut s = snapshot();
        s.retain_nonzero();
        assert!(s.counters.iter().all(|c| c.value != 0));
        assert!(s.histograms.iter().all(|h| h.count != 0));
    }
}
