//! Power-of-two-bucket histograms.
//!
//! Bucket 0 counts zero values; bucket `b ≥ 1` counts values in
//! `[2^(b-1), 2^b)`. Recording is three relaxed `fetch_add`s on
//! pre-registered static slots: no allocation, wait-free,
//! async-signal-safe. Good enough resolution for latency attribution
//! (every bucket is a 2× band) at a fixed 65-slot cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum number of distinct histograms.
pub const MAX_HISTOGRAMS: usize = 64;
/// Buckets per histogram: one zero bucket + 64 power-of-two bands.
pub const BUCKETS: usize = 65;

struct Slot {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

static SLOTS: [Slot; MAX_HISTOGRAMS] = [const {
    Slot {
        buckets: [const { AtomicU64::new(0) }; BUCKETS],
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }
}; MAX_HISTOGRAMS];
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    idx: u32,
}

/// Register (or look up) the histogram named `name`. Takes a mutex; call
/// from normal context and cache the handle (signal handlers must only
/// use pre-registered handles).
pub fn histogram(name: &'static str) -> Histogram {
    let mut names = NAMES.lock().unwrap();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return Histogram { idx: i as u32 };
    }
    assert!(
        names.len() < MAX_HISTOGRAMS,
        "histogram table full ({MAX_HISTOGRAMS})"
    );
    names.push(name);
    Histogram {
        idx: (names.len() - 1) as u32,
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Exclusive upper bound of bucket `b` (`1` for the zero bucket).
#[inline]
pub fn bucket_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        1u64 << b
    }
}

impl Histogram {
    /// Record one value. Wait-free, async-signal-safe.
    #[inline]
    pub fn record(self, v: u64) {
        let slot = &SLOTS[self.idx as usize];
        slot.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see [`bucket_bound`] for bucket meanings).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bound(b);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Bucket-wise saturating difference `self - earlier` (matched by
    /// name by the snapshot layer).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        HistogramSnapshot {
            name: self.name,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

/// All registered histograms with their current state, in registration
/// order. Not an atomic cut (see `counters` module docs — same caveat).
pub fn snapshot_histograms() -> Vec<HistogramSnapshot> {
    let names = NAMES.lock().unwrap();
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let slot = &SLOTS[i];
            let mut buckets = [0u64; BUCKETS];
            for (b, out) in buckets.iter_mut().enumerate() {
                *out = slot.buckets[b].load(Ordering::Relaxed);
            }
            HistogramSnapshot {
                name,
                count: slot.count.load(Ordering::Relaxed),
                sum: slot.sum.load(Ordering::Relaxed),
                buckets,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(10), 1024);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let h = histogram("test.hist.basic");
        for v in [0u64, 1, 3, 100, 100, 100, 5000] {
            h.record(v);
        }
        let snap = snapshot_histograms()
            .into_iter()
            .find(|s| s.name == "test.hist.basic")
            .unwrap();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 5304);
        assert_eq!(snap.buckets[0], 1); // the zero
        assert_eq!(snap.buckets[bucket_index(100)], 3);
        // p50 falls in the bucket holding the three 100s: [64, 128).
        assert_eq!(snap.quantile(0.5), 128);
        assert!(snap.quantile(1.0) >= 8192);
        assert!((snap.mean() - 5304.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts() {
        let h = histogram("test.hist.delta");
        h.record(10);
        let before = snapshot_histograms()
            .into_iter()
            .find(|s| s.name == "test.hist.delta")
            .unwrap();
        h.record(10);
        h.record(20);
        let after = snapshot_histograms()
            .into_iter()
            .find(|s| s.name == "test.hist.delta")
            .unwrap();
        let d = after.delta(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 30);
        assert_eq!(d.buckets[bucket_index(10)], 1);
        assert_eq!(d.buckets[bucket_index(20)], 1);
    }

    #[test]
    fn empty_histogram_stats() {
        let h = HistogramSnapshot {
            name: "empty",
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        };
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }
}
