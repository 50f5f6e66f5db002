//! Statistics used by the paper's evaluation: the Fleming–Wallace
//! geometric mean of ratios (the paper cites [4], "How Not To Lie With
//! Statistics", for exactly this aggregation), and the one A/B
//! measurement every speed comparison goes through: [`interleave`] is
//! the one loop that times isolate iterations.
//!
//! [`interleave`] runs [`ROUNDS`] rounds, each calling every arm once,
//! back to back, in an order shuffled per round, so no arm always runs
//! right after the same neighbour (and inherits its cache and frequency
//! state). The host's load comes and
//! goes over a few milliseconds and can slow a call by more than half,
//! but it is nearly the same for calls within one round, so [`paired`]
//! estimates each arm from its per-round ratio to arm 0. Comparing each
//! arm's best or median over the whole run would reward whichever arm
//! caught a quiet moment. The noise floor is an A/A control: the caller
//! passes arm 0 a second time, and that arm's CI is the spread identical
//! code shows on this host.

use lb_chaos::SplitMix64;
use std::time::{Duration, Instant};

/// Rounds per A/B measurement.
pub const ROUNDS: usize = 31;

/// The shortest one sample (one arm's calls in one round) may take: well
/// above timer resolution and the cost of reading the clock.
pub const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Bootstrap resamples behind each confidence interval.
pub const RESAMPLES: usize = 2000;

/// Seed of the bootstrap's resampling stream, so that the same samples
/// always give the same interval, and of [`interleave`]'s arm orders.
pub const SEED: u64 = 0x1eaf_b0d5;

/// One arm of an A/B measurement: a call of the code being measured.
pub type Arm<'a> = Box<dyn FnMut() + 'a>;

/// One arm's result from [`paired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Seconds per call: arm 0's median × [`Estimate::ratio`].
    pub secs: f64,
    /// Median over rounds of this arm's time ÷ arm 0's time.
    pub ratio: f64,
    /// Bootstrap 95% confidence interval of `ratio`.
    pub ci: (f64, f64),
}

/// Time `arms` in [`ROUNDS`] interleaved rounds, each in its own
/// [`round_orders`] order, and return `samples[arm][round]`, in seconds
/// per call.
///
/// Each arm first gets enough calls per sample for one sample to last at
/// least [`MIN_SAMPLE`]; the calibration calls double as warm-up.
pub fn interleave(arms: &mut [Arm<'_>]) -> Vec<Vec<f64>> {
    let calls: Vec<u32> = arms.iter_mut().map(|a| calls_per_sample(a)).collect();
    let mut samples = vec![vec![0.0; ROUNDS]; arms.len()];
    for (round, order) in round_orders(arms.len()).into_iter().enumerate() {
        for i in order {
            let t = Instant::now();
            (0..calls[i]).for_each(|_| arms[i]());
            samples[i][round] = t.elapsed().as_secs_f64() / f64::from(calls[i]);
        }
    }
    samples
}

/// The order of `n` arms in each of the [`ROUNDS`] rounds: a Fisher–Yates
/// shuffle per round from [`SEED`], the same on every run.
fn round_orders(n: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::new(SEED);
    (0..ROUNDS)
        .map(|_| {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            order
        })
        .collect()
}

/// Calls of `arm` that make one sample last at least [`MIN_SAMPLE`].
///
/// Batches double until one lasts [`MIN_SAMPLE`]; the count is sized
/// from the fastest call seen, so a load spike during calibration cannot
/// shrink the samples.
fn calls_per_sample(arm: &mut dyn FnMut()) -> u32 {
    let mut fastest = f64::INFINITY;
    let mut n = 1u32;
    loop {
        let t = Instant::now();
        (0..n).for_each(|_| arm());
        let elapsed = t.elapsed();
        fastest = fastest.min(elapsed.as_secs_f64() / f64::from(n));
        if elapsed >= MIN_SAMPLE {
            break;
        }
        n *= 2;
    }
    (MIN_SAMPLE.as_secs_f64() / fastest.max(1e-9)).ceil() as u32
}

/// Per-arm estimates from `samples[arm][round]` (as [`interleave`]
/// returns them). Pure: the same samples give the same estimates, CIs
/// included.
///
/// # Panics
/// If there are no arms, no rounds, or the arms differ in rounds.
pub fn paired(samples: &[Vec<f64>]) -> Vec<Estimate> {
    let rounds = samples.first().map_or(0, Vec::len);
    assert!(
        rounds > 0 && samples.iter().all(|s| s.len() == rounds),
        "every arm needs one sample per round"
    );
    let base = median_of(samples[0].clone());
    let ratios: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| s.iter().zip(&samples[0]).map(|(t, r)| t / r).collect())
        .collect();

    // Resample whole rounds, the same rounds for every arm, so that the
    // pairing the per-round ratio relies on survives the resampling.
    let mut rng = SplitMix64::new(SEED);
    let mut pick = vec![0usize; rounds];
    let mut boot = vec![Vec::with_capacity(RESAMPLES); samples.len()];
    for _ in 0..RESAMPLES {
        for p in &mut pick {
            *p = rng.below(rounds as u64) as usize;
        }
        for (b, r) in boot.iter_mut().zip(&ratios) {
            b.push(median_of(pick.iter().map(|&i| r[i]).collect()));
        }
    }

    let tail = RESAMPLES / 40; // 2.5% on each side
    ratios
        .into_iter()
        .zip(boot)
        .map(|(r, mut b)| {
            b.sort_by(f64::total_cmp);
            let ratio = median_of(r);
            Estimate {
                secs: base * ratio,
                ratio,
                ci: (b[tail], b[RESAMPLES - 1 - tail]),
            }
        })
        .collect()
}

/// The middle element (the upper one of an even-sized sample).
fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Geometric mean of ratios (Fleming–Wallace): the correct way to average
/// normalized execution times across benchmarks.
pub fn geomean_ratios(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of empty sample");
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arm_follows_more_than_one_neighbour() {
        for n in 2..=40 {
            let calls: Vec<usize> = round_orders(n).concat();
            for arm in 0..n {
                let mut before: Vec<usize> = calls
                    .windows(2)
                    .filter(|w| w[1] == arm)
                    .map(|w| w[0])
                    .collect();
                before.sort_unstable();
                before.dedup();
                assert!(
                    before.len() > 1,
                    "{n} arms: arm {arm} always runs after {before:?}"
                );
            }
        }
    }

    #[test]
    fn round_orders_are_permutations() {
        for n in [1, 2, 7, 37] {
            for mut order in round_orders(n) {
                order.sort_unstable();
                assert_eq!(order, (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn geomean_is_fleming_wallace() {
        // geomean(2, 0.5) == 1 — a speedup and equal slowdown cancel.
        let g = geomean_ratios(&[2.0, 0.5]);
        assert!((g - 1.0).abs() < 1e-12);
        let g = geomean_ratios(&[1.0, 8.0]);
        assert!((g - 8f64.sqrt()).abs() < 1e-12);
    }

    /// Sample streams in seconds: a per-round host load shared by every
    /// arm, times each arm's `scale` and its own 5% jitter.
    fn synthetic(seed: u64, scales: &[f64]) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        let mut unit = move || rng.below(1 << 20) as f64 / f64::from(1 << 20);
        let load: Vec<f64> = (0..ROUNDS).map(|_| 1.0 + 0.6 * unit()).collect();
        let arm = |s: &f64| {
            load.iter()
                .map(|l| 1e-3 * s * l * (1.0 + 0.05 * unit()))
                .collect()
        };
        scales.iter().map(arm).collect()
    }

    #[test]
    fn paired_reproduces_the_shape_checks_formula_bit_for_bit() {
        let times: Vec<Vec<Duration>> = synthetic(7, &[1.0, 1.3, 0.8])
            .iter()
            .map(|s| s.iter().map(|&t| Duration::from_secs_f64(t)).collect())
            .collect();
        // The formula `tests/shape_checks.rs` used before, verbatim.
        let median = |mut xs: Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        let base = median(times[0].iter().map(Duration::as_secs_f64).collect());
        let old = times.iter().map(|ts| {
            let ratios = ts
                .iter()
                .zip(&times[0])
                .map(|(t, r)| t.as_secs_f64() / r.as_secs_f64());
            Duration::from_secs_f64(base * median(ratios.collect()))
        });
        let secs: Vec<Vec<f64>> = times
            .iter()
            .map(|ts| ts.iter().map(Duration::as_secs_f64).collect())
            .collect();
        assert!(paired(&secs)
            .iter()
            .map(|e| Duration::from_secs_f64(e.secs))
            .eq(old));
    }

    #[test]
    fn ci_is_identical_for_the_fixed_seed() {
        let samples = synthetic(11, &[1.0, 1.1]);
        let est = paired(&samples);
        assert_eq!(est, paired(&samples));
        assert!(est[1].ci.0 <= est[1].ratio && est[1].ratio <= est[1].ci.1);
    }

    #[test]
    fn a_2x_arm_ci_excludes_one() {
        let est = paired(&synthetic(3, &[1.0, 2.0]));
        assert_eq!((est[0].ratio, est[0].ci), (1.0, (1.0, 1.0)));
        assert!(est[1].ci.0 > 1.0, "2x arm CI {:?}", est[1].ci);
    }

    #[test]
    fn identical_streams_give_an_aa_ci_containing_one() {
        let mut samples = synthetic(5, &[1.0, 1.5]);
        samples.push(samples[0].clone());
        let aa = paired(&samples)[2].ci;
        assert!(aa.0 <= 1.0 && 1.0 <= aa.1, "A/A CI {aa:?}");
    }

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn calibration_sizes_every_sample_to_at_least_min_sample() {
        // Whole multiples of the calls' length, so a sample of exactly
        // enough calls lasts exactly MIN_SAMPLE.
        for us in [40, 250, 1500] {
            let d = Duration::from_micros(us);
            let calls = calls_per_sample(&mut || spin(d));
            assert!(d * calls >= MIN_SAMPLE, "{us} us x {calls} calls");
        }
        let d = Duration::from_micros(100);
        let samples = interleave(&mut [Box::new(|| spin(d)), Box::new(|| spin(3 * d))]);
        assert!(samples.iter().all(|s| s.len() == ROUNDS));
        assert!(samples[1].iter().all(|&t| t >= 3e-4));
    }
}
