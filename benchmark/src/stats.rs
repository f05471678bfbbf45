//! Order statistics for timing samples.
//!
//! Every reported time is a median over passes; tails follow the rule
//! "the highest percentile that still has at least ten samples beyond
//! it". Quartiles use the same exclusive method as Python's
//! `statistics.quantiles(values, n=4)`, because that is what the driver
//! computes over its ten runs and `compare` must agree with it.

/// Sorted copy of `xs`.
///
/// # Panics
///
/// Panics on NaN: a timing sample is never NaN.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("invariant: samples are finite"));
    v
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, Python `statistics.quantiles(n=4)`
/// (exclusive) style. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks; like Python, the rank is
        // clamped to the sample but the interpolation weight is not, so
        // two or three samples extrapolate exactly as the driver does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// small slack keeps `99.9 % of 10000` at rank 9990 although the product
/// is not exact in binary.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[nearest_rank(v.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The highest of the candidate percentiles (99.9, 99, 95, 90, 75) that
/// keeps at least ten samples beyond it, or `None` when the sample is
/// too small for any tail claim (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Summary of one metric over the timed passes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over the passes.
    pub median: f64,
    /// First quartile — the value a run reports for a time (see
    /// [`Summary::reported`]).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// The value a run reports for this metric: the first quartile.
    ///
    /// On a shared host interference only ever adds time, and what the
    /// yardstick does not take out of it still comes in regimes. A run's
    /// median flips between the quiet and the noisy level as soon as
    /// half its passes are disturbed; the first quartile holds the quiet
    /// level until three quarters are; the minimum picks up the lower
    /// tail of the quiet level itself and the luck of a short run. Over
    /// the driver's protocol (ten runs, ten seeds) on raw times the worst
    /// interquartile spread of a time metric was 19 % with the median,
    /// 13 % with the first quartile and 18 % with the minimum. A single
    /// sample is its own quartile.
    pub fn reported(&self) -> f64 {
        self.q1
    }

    /// Summarises a non-empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        let v = sorted(xs);
        let (q1, q3) = quartiles(xs);
        Summary {
            median: median(xs),
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates on tiny samples.
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q3), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1039 scenarios: p99 is rank 1029, ten samples lie beyond it.
        assert_eq!(samples_beyond(1039, 99.0), 10);
        assert_eq!(tail_percentile(1039), Some(99.0));
        // 1000 samples leave exactly ten beyond p99 but only one beyond
        // p99.9.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Sixty passes support p75 at best; a dozen support no tail.
        assert_eq!(tail_percentile(60), Some(75.0));
        assert_eq!(tail_percentile(12), None);
    }

    #[test]
    fn summary_collects_everything() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
    }
}
