//! Order statistics over small samples of timings.
//!
//! A timing is reported as its median plus the highest percentile that still
//! has at least ten samples beyond it ([`high_percentile`]); with fewer than
//! twenty samples no percentile above the median is supported and only the
//! median and the maximum are printed.

use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The largest of `values`; 0 for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond it
/// in a sample of `n`, as a percentage: p90 needs 100 samples, p99 needs
/// 1000. Below 20 samples not even the median has ten beyond it and the
/// answer is `None`.
pub fn high_percentile(n: usize) -> Option<f64> {
    // Per mille, so that "a tenth of 100 samples" is exactly 10.
    [999, 990, 900, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// `values`' p90 when the sample supports it (≥ 100 samples, the "ten
/// beyond" rule), else its maximum — so a spike is never hidden by a
/// percentile the sample cannot resolve.
pub fn p90_or_max(values: &[f64]) -> f64 {
    match high_percentile(values.len()) {
        Some(p) if p >= 90.0 => quantile(values, 0.9).unwrap_or(0.0),
        _ => max(values),
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the rule the
/// acceptance spread is defined with). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's bound is compared against. 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Seconds per call of `op`: after one untimed call, `op` runs until both
/// `min_calls` calls and `budget` have passed, and the median call time is
/// returned. Used by the ledger probes, whose ops take 10 µs – 100 ms.
pub fn secs_per_call(budget: Duration, min_calls: usize, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || start.elapsed() < budget {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(high_percentile(19), None);
        assert_eq!(high_percentile(20), Some(50.0));
        assert_eq!(high_percentile(99), Some(50.0));
        assert_eq!(high_percentile(100), Some(90.0));
        assert_eq!(high_percentile(999), Some(90.0));
        assert_eq!(high_percentile(1000), Some(99.0));
        assert_eq!(high_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p90_falls_back_to_max_on_small_samples() {
        let small: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(p90_or_max(&small), 49.0);
        let large: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(p90_or_max(&large), 90.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn secs_per_call_honours_the_minimum_call_count() {
        let mut calls = 0;
        let s = secs_per_call(Duration::ZERO, 5, || calls += 1);
        assert_eq!(calls, 6, "one warm-up plus five timed calls");
        assert!(s >= 0.0);
    }
}
