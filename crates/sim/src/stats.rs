//! Measurement statistics: summaries, percentiles, overhead computation.
//!
//! The paper reports means ± standard deviation (Table 1), coefficients of
//! variation (Table 2), medians/percentiles of overhead distributions
//! (abstract, §2), and sustained throughput. This module provides those
//! aggregations over virtual-time samples.

use crate::sketch::QuantileSketch;
use crate::time::Nanos;

/// Aggregate statistics over a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Computes a summary over raw `f64` samples. Returns a zeroed summary
    /// for an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (σ/µ), in percent. Zero when the mean is 0.
    pub fn cov_percent(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            100.0 * self.std_dev / self.mean
        }
    }
}

/// Percentile over raw samples using linear interpolation between closest
/// ranks (the common "type 7" estimator).
///
/// `p` is in `[0, 100]`.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    percentile_of_sorted(&sorted, p)
}

/// Percentile over pre-sorted samples (ascending).
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median (50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Relative overhead of `measured` versus `baseline`, in percent.
/// `+10.0` means 10% slower than baseline.
pub fn overhead_percent(baseline: f64, measured: f64) -> f64 {
    if baseline.abs() < f64::EPSILON {
        return 0.0;
    }
    100.0 * (measured - baseline) / baseline
}

/// Relative value of `measured` versus `baseline` (1.0 = equal), used for
/// the normalized bar charts of Fig. 4 and Fig. 5.
pub fn relative(baseline: f64, measured: f64) -> f64 {
    if baseline.abs() < f64::EPSILON {
        return 1.0;
    }
    measured / baseline
}

/// An append-only collector of latency samples with convenience
/// accessors, used by clients and the invoker.
///
/// Backed by a [`QuantileSketch`], so memory is a fixed ~30 KiB however
/// many samples are recorded (the bounded-stats-memory guarantee the
/// fleet and cluster paths already carry). Means, std-devs and extremes
/// are exact; percentiles quantize by at most 1/[`crate::sketch::SUBBUCKETS`]
/// (≈ 1.6%). Two recorders compare equal iff they absorbed identical
/// sample multisets — the equality the platform determinism tests pin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyRecorder {
    sketch: QuantileSketch,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Nanos) {
        self.sketch.record_nanos(sample);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.sketch.len() as usize
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Summary in milliseconds (mean/σ/min/max exact; zeroed when
    /// empty).
    pub fn summary_ms(&self) -> Summary {
        Summary {
            count: self.len(),
            mean: self.sketch.mean_ms(),
            std_dev: self.sketch.std_dev_ms(),
            min: self.sketch.min() as f64 / 1e6,
            max: self.sketch.max() as f64 / 1e6,
        }
    }

    /// Percentile in milliseconds (sketch-quantized; 0 when empty).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.sketch.quantile_ms(p)
    }

    /// The underlying sketch, for exact merging into other collectors.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }
}

/// Throughput over a measurement window: completed requests per second of
/// virtual time.
pub fn throughput_rps(completed: usize, window: Nanos) -> f64 {
    if window.is_zero() {
        return 0.0;
    }
    completed as f64 / window.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cov_percent(), 0.0);
    }

    #[test]
    fn cov_percent() {
        let s = Summary::of(&[9.0, 11.0]);
        assert!((s.cov_percent() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_percent(100.0, 110.0) - 10.0).abs() < 1e-12);
        assert!((overhead_percent(100.0, 90.0) + 10.0).abs() < 1e-12);
        assert_eq!(overhead_percent(0.0, 5.0), 0.0);
        assert!((relative(4.0, 5.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn recorder_summary_and_percentiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=10u64 {
            r.record(Nanos::from_millis(i));
        }
        assert_eq!(r.len(), 10);
        let s = r.summary_ms();
        assert!((s.mean - 5.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        let exact = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.std_dev - exact.std_dev).abs() < 1e-6, "σ is exact");
        let p50 = r.percentile_ms(50.0);
        assert!((4.9..=5.2).contains(&p50), "sketch-quantized median: {p50}");
    }

    #[test]
    fn recorder_equality_tracks_sample_multiset() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        // Same multiset, different order: equal.
        for i in [3u64, 1, 2] {
            a.record(Nanos::from_millis(i));
        }
        for i in [1u64, 2, 3] {
            b.record(Nanos::from_millis(i));
        }
        assert_eq!(a, b);
        b.record(Nanos::from_millis(4));
        assert_ne!(a, b);
    }

    #[test]
    fn recorder_empty_is_zeroed() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.summary_ms(), Summary::of(&[]));
        assert_eq!(r.percentile_ms(99.0), 0.0);
    }

    #[test]
    fn throughput_computation() {
        let t = throughput_rps(150, Nanos::from_secs(30));
        assert!((t - 5.0).abs() < 1e-12);
        assert_eq!(throughput_rps(10, Nanos::ZERO), 0.0);
    }
}
