//! Online statistics for simulation output analysis.
//!
//! * [`OnlineStats`] — Welford mean/variance plus min/max, O(1) memory;
//! * [`TimeWeighted`] — integral of a piecewise-constant signal over time
//!   (queue lengths, memory in use, multiprogramming level);
//! * [`Histogram`] — log-scaled latency histogram with quantile estimation;
//! * [`BatchMeans`] — the batch-means method for confidence intervals on
//!   steady-state means from a single long run;
//! * [`Counter`] — a named monotonic counter.

use serde::{Deserialize, Serialize};

use crate::time::{SimDur, SimTime};

/// Welford online mean/variance with min/max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeWeighted {
    value: f64,
    integral: f64,
    last: SimTime,
    start: SimTime,
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            integral: 0.0,
            last: start,
            start,
        }
    }

    /// Record that the signal changed to `value` at `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last).as_secs_f64();
        self.integral += self.value * dt;
        self.value = value;
        self.last = now;
    }

    /// Add `delta` to the current value at `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.since(self.start).as_secs_f64();
        if span <= 0.0 {
            return self.value;
        }
        let tail = now.since(self.last).as_secs_f64();
        (self.integral + self.value * tail) / span
    }

    /// Reset the measurement origin (e.g. at end of warm-up) while keeping
    /// the current signal value.
    pub fn reset(&mut self, now: SimTime) {
        self.integral = 0.0;
        self.last = now;
        self.start = now;
    }
}

/// Log2-bucketed histogram of durations, 1us floor, with quantiles.
/// Storage is inline, so constructing and recording never touch the heap
/// (the queue-wait p95 is recorded on the admission hot path).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// buckets[i] counts samples in [2^i, 2^(i+1)) microseconds.
    buckets: [u64; 48],
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 48],
            count: 0,
        }
    }

    pub fn record(&mut self, d: SimDur) {
        let us = (d.as_nanos() / 1_000).max(1);
        let b = (63 - us.leading_zeros()) as usize;
        let b = b.min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (bucket upper bound), q in \[0,1\].
    pub fn quantile(&self, q: f64) -> SimDur {
        if self.count == 0 {
            return SimDur::ZERO;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return SimDur::from_micros(1u64 << (i + 1));
            }
        }
        SimDur::from_micros(1u64 << self.buckets.len())
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }
}

/// Batch-means confidence interval for a steady-state mean.
///
/// Observations are grouped into `batches` equal batches; the half-width is
/// `t * s / sqrt(b)` with a Student-t critical value for 95% confidence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_size: usize,
    current_sum: f64,
    current_n: usize,
    batch_means: Vec<f64>,
}

impl BatchMeans {
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0);
        BatchMeans {
            batch_size,
            current_sum: 0.0,
            current_n: 0,
            batch_means: Vec::new(),
        }
    }

    pub fn record(&mut self, x: f64) {
        self.current_sum += x;
        self.current_n += 1;
        if self.current_n == self.batch_size {
            self.batch_means
                .push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_n = 0;
        }
    }

    pub fn completed_batches(&self) -> usize {
        self.batch_means.len()
    }

    /// Grand mean over completed batches.
    pub fn mean(&self) -> f64 {
        if self.batch_means.is_empty() {
            return 0.0;
        }
        self.batch_means.iter().sum::<f64>() / self.batch_means.len() as f64
    }

    /// 95% confidence half-width; `None` with fewer than 2 batches.
    pub fn half_width_95(&self) -> Option<f64> {
        let b = self.batch_means.len();
        if b < 2 {
            return None;
        }
        let mean = self.mean();
        let var = self
            .batch_means
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f64>()
            / (b - 1) as f64;
        Some(t_crit_95(b - 1) * (var / b as f64).sqrt())
    }
}

/// Student-t 0.975 critical values (two-sided 95%) for small df, asymptote
/// 1.96 beyond 30 degrees of freedom.
fn t_crit_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Named monotonic counter.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Counter(pub u64);

impl Counter {
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138).abs() < 1e-3);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime(1_000_000_000), 10.0); // 0 for 1s
        tw.set(SimTime(3_000_000_000), 0.0); // 10 for 2s
        let avg = tw.average(SimTime(4_000_000_000)); // 0 for 1s
        assert!((avg - 5.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn time_weighted_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 4.0);
        tw.reset(SimTime(2_000_000_000));
        let avg = tw.average(SimTime(3_000_000_000));
        assert!((avg - 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new();
        for ms in 1..=1000u64 {
            h.record(SimDur::from_millis(ms));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p50 >= SimDur::from_millis(256) && p50 <= SimDur::from_millis(1024));

        // Bucket edges: the bound a single sample reports.
        let bound = |ns: u64| {
            let mut h = Histogram::new();
            h.record(SimDur::from_nanos(ns));
            h.quantile(0.95)
        };
        // Zero and sub-µs waits floor to 1 µs: the committed all-zero-wait
        // `queue_wait_ms_p95` of 0.002 ms.
        assert_eq!(bound(0).as_millis_f64(), 0.002);
        for ns in [999, 1_000, 1_001] {
            assert_eq!(bound(ns), SimDur::from_micros(2), "{ns} ns");
        }
        assert_eq!(bound(2_000), SimDur::from_micros(4));
        // Beyond the last bucket: capped at bucket 47.
        assert_eq!(bound(u64::MAX / 2), SimDur::from_micros(1 << 48));
        assert_eq!(Histogram::new().quantile(0.95), SimDur::ZERO);
    }

    #[test]
    fn batch_means_ci() {
        let mut bm = BatchMeans::new(10);
        let mut rng = crate::SimRng::new(11);
        for _ in 0..1000 {
            bm.record(rng.exp(2.0));
        }
        assert_eq!(bm.completed_batches(), 100);
        let hw = bm.half_width_95().unwrap();
        assert!(
            (bm.mean() - 2.0).abs() < 3.0 * hw,
            "CI should cover the mean"
        );
        assert!(hw < 0.5);
    }

    #[test]
    fn batch_means_needs_two_batches() {
        let mut bm = BatchMeans::new(5);
        for i in 0..5 {
            bm.record(i as f64);
        }
        assert!(bm.half_width_95().is_none());
    }

    proptest! {
        #[test]
        fn prop_merge_matches_sequential(xs in proptest::collection::vec(-1e6f64..1e6, 0..300), split in 0usize..300) {
            let split = split.min(xs.len());
            let mut whole = OnlineStats::new();
            xs.iter().for_each(|&x| whole.record(x));
            let mut a = OnlineStats::new();
            let mut b = OnlineStats::new();
            xs[..split].iter().for_each(|&x| a.record(x));
            xs[split..].iter().for_each(|&x| b.record(x));
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            if whole.count() > 0 {
                prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
            }
        }

        #[test]
        fn prop_histogram_count(ds in proptest::collection::vec(1u64..10_000_000, 0..200)) {
            let mut h = Histogram::new();
            for d in &ds {
                h.record(SimDur::from_nanos(*d));
            }
            prop_assert_eq!(h.count(), ds.len() as u64);
        }
    }
}
