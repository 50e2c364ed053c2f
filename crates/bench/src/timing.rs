//! One wall-clock timer for the repeated speed measurements: the
//! benches, `sched_modes` and `service_bench`.
//!
//! A figure is a [`Sample`]: the median of `n` timed samples with the
//! first and third quartiles around it, never a mean or a best-of-N.
//! Each sample runs the routine in a batch that lasts at least
//! [`BATCH_FLOOR`], so short routines are not lost in clock
//! resolution, and reports the time per call. [`paired`] times two
//! routines with the order alternating per pair, so drift on a shared
//! host skews both sides alike, and also reports the per-pair ratio.
//!
//! The statistics follow perfbench's definitions: nearest-rank
//! quartiles, and an even-length median is the mean of the two middle
//! values.
//!
//! ```
//! use hdp_bench::timing::{paired, sample};
//!
//! let sum = sample(3, || (0..1000u64).sum::<u64>());
//! assert!(sum.q1 <= sum.median && sum.median <= sum.q3);
//! let pair = paired(3, || (0..10u64).sum::<u64>(), || (0..10_000u64).sum::<u64>());
//! assert_eq!(pair.speedup.n, 3);
//! ```

use hdp_conform::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest a single sample may last. A sample repeats its batch
/// until this much routine time has passed.
pub const BATCH_FLOOR: Duration = Duration::from_millis(10);

/// Samples per figure when a caller has no reason to pick another
/// count. Odd, so the median is one measured sample.
pub const SAMPLES: usize = 21;

/// The median and quartiles of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The median; the mean of the two middle values when `n` is even.
    pub median: f64,
    /// The first quartile (nearest rank).
    pub q1: f64,
    /// The third quartile (nearest rank).
    pub q3: f64,
    /// How many values the figure summarises.
    pub n: usize,
}

impl Sample {
    /// Summarises `values`; all zero when `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Self {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n,
            };
        }
        let rank = |q: f64| {
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        };
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Self {
            median,
            q1: rank(0.25),
            q3: rank(0.75),
            n,
        }
    }

    /// The same figure in another unit: every statistic times `k`
    /// (`k > 0`), e.g. `1e3` for seconds to milliseconds.
    #[must_use]
    pub fn scaled(self, k: f64) -> Self {
        Self {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// The figure as `{"median", "q1", "q3", "n"}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::Float(self.median)),
            ("q1", Json::Float(self.q1)),
            ("q3", Json::Float(self.q3)),
            ("n", Json::Num(self.n as u64)),
        ])
    }
}

/// Two routines timed in alternating order, see [`paired`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Seconds per call of the first routine.
    pub a: Sample,
    /// Seconds per call of the second routine.
    pub b: Sample,
    /// Per-pair `b / a`: how many times faster `a` ran than `b`.
    pub speedup: Sample,
}

/// A routine with its setup and the batch size its warm-up call
/// chose.
struct Timer<S, F> {
    setup: S,
    routine: F,
    batch: u128,
}

impl<I, T, S: FnMut() -> I, F: FnMut(I) -> T> Timer<S, F> {
    /// Makes one untimed-setup, timed warm-up call and sizes the batch
    /// so that it lasts about [`BATCH_FLOOR`].
    fn new(mut setup: S, mut routine: F) -> Self {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let once = start.elapsed().as_nanos().max(1);
        Self {
            setup,
            routine,
            batch: BATCH_FLOOR.as_nanos().div_ceil(once),
        }
    }

    /// One sample: whole batches until at least [`BATCH_FLOOR`] of
    /// routine time has passed. Inputs are built before and outputs
    /// dropped after each timed batch. Returns the routine time and
    /// the number of calls.
    fn run(&mut self) -> (Duration, u128) {
        let mut busy = Duration::ZERO;
        let mut calls = 0;
        while busy < BATCH_FLOOR {
            let inputs: Vec<I> = (0..self.batch).map(|_| (self.setup)()).collect();
            let start = Instant::now();
            let outputs: Vec<T> = inputs.into_iter().map(&mut self.routine).collect();
            busy += start.elapsed();
            drop(black_box(outputs));
            calls += self.batch;
        }
        (busy, calls)
    }

    /// Seconds per call of one sample.
    fn per_call(&mut self) -> f64 {
        let (busy, calls) = self.run();
        #[allow(clippy::cast_precision_loss)]
        {
            busy.as_secs_f64() / calls as f64
        }
    }
}

/// Seconds per call of `routine`, over `n` samples.
pub fn sample<T>(n: usize, mut routine: impl FnMut() -> T) -> Sample {
    sample_with(n, || (), |()| routine())
}

/// Seconds per call of `routine`, over `n` samples, where each call
/// consumes a fresh input from `setup`. Only `routine` is timed.
pub fn sample_with<I, T>(
    n: usize,
    setup: impl FnMut() -> I,
    routine: impl FnMut(I) -> T,
) -> Sample {
    let mut timer = Timer::new(setup, routine);
    let per_call: Vec<f64> = (0..n).map(|_| timer.per_call()).collect();
    Sample::of(&per_call)
}

/// Seconds per call of `a` and of `b` over `n` pairs of samples, `a`
/// first on even pairs and `b` first on odd ones, plus the sample of
/// per-pair speedups of `a` over `b`.
pub fn paired<A, B>(n: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> Paired {
    let mut ta = Timer::new(|| (), |()| a());
    let mut tb = Timer::new(|| (), |()| b());
    let (mut sa, mut sb, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..n {
        let (x, y) = if pair % 2 == 0 {
            let x = ta.per_call();
            (x, tb.per_call())
        } else {
            let y = tb.per_call();
            (ta.per_call(), y)
        };
        sa.push(x);
        sb.push(y);
        ratio.push(y / x);
    }
    Paired {
        a: Sample::of(&sa),
        b: Sample::of(&sb),
        speedup: Sample::of(&ratio),
    }
}

/// Prints one bench line: `name`, then the median and interquartile
/// range of `s` (seconds per call) in microseconds.
pub fn report(name: &str, s: &Sample) {
    let us = s.scaled(1e6);
    println!(
        "{name:<44} {:>12.2} us/iter  IQR [{:.2}, {:.2}]  n={}",
        us.median, us.q1, us.q3, us.n
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn quartiles_use_nearest_rank_and_median_averages_the_middle() {
        let odd = Sample::of(&[9.0, 1.0, 7.0, 3.0, 5.0]);
        assert_eq!((odd.q1, odd.median, odd.q3, odd.n), (3.0, 5.0, 7.0, 5));
        let even = Sample::of(&[8.0, 2.0, 6.0, 4.0, 1.0, 10.0]);
        assert_eq!((even.q1, even.median, even.q3, even.n), (2.0, 5.0, 8.0, 6));
        assert_eq!(Sample::of(&[]).n, 0);
        let ms = odd.scaled(1e3);
        assert_eq!((ms.q1, ms.median, ms.q3), (3e3, 5e3, 7e3));
        let json = Json::parse(&odd.to_json().to_string()).unwrap();
        assert_eq!(json.get("median").and_then(Json::as_f64), Some(5.0));
        assert_eq!(json.get("n").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn paired_alternates_which_side_runs_first() {
        // Each call outlasts the floor, so every sample is one call
        // and the log reads warm-ups, then one entry per side per pair.
        let log = RefCell::new(Vec::new());
        let call = |side: char| {
            log.borrow_mut().push(side);
            std::thread::sleep(BATCH_FLOOR);
        };
        paired(4, || call('a'), || call('b'));
        // Warm-ups "ab", then pairs 0-3: "ab", "ba", "ab", "ba".
        assert_eq!(log.into_inner().iter().collect::<String>(), "ababbaabba");
    }

    #[test]
    fn paired_reports_the_per_pair_speedup() {
        let fast = || std::thread::sleep(BATCH_FLOOR);
        let slow = || std::thread::sleep(BATCH_FLOOR * 2);
        let pair = paired(3, fast, slow);
        assert_eq!(pair.speedup.n, 3);
        assert!(pair.a.median < pair.b.median);
        assert!(
            (1.6..2.5).contains(&pair.speedup.median),
            "slow/fast per pair: {:?}",
            pair.speedup
        );
        assert!(pair.speedup.q1 <= pair.speedup.median && pair.speedup.median <= pair.speedup.q3);
    }

    #[test]
    fn every_sample_lasts_at_least_the_floor() {
        let mut calls = 0u64;
        let mut timer = Timer::new(
            || (),
            |()| {
                calls += 1;
                black_box(calls)
            },
        );
        for _ in 0..5 {
            let (busy, n) = timer.run();
            assert!(busy >= BATCH_FLOOR, "{busy:?} for {n} calls");
            assert!(n >= timer.batch);
        }
        // Setup is untimed: a 1 ms routine behind a 5 ms setup
        // reports about 1 ms per call, not 6.
        let s = sample_with(
            2,
            || std::thread::sleep(Duration::from_millis(5)),
            |()| std::thread::sleep(Duration::from_millis(1)),
        );
        assert!(s.median >= 1e-3 && s.median < 3e-3, "{s:?}");
    }
}
