//! Descriptive statistics: moments, quantiles, and the paper's
//! *consistency factor* (§4.1).

use crate::error::{validate_sample, StatsError};
use crate::Result;

/// Arithmetic mean. Returns 0.0 only for an empty slice via [`mean`]'s
/// checked wrapper; prefer [`Summary`] for bulk statistics.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (divides by `n`).
pub fn variance(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let m = mean(data);
    data.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / data.len() as f64
}

/// Population standard deviation.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Linearly-interpolated quantile of unsorted data, `q` in `[0, 1]`.
///
/// Matches the "linear" (type 7) definition used by NumPy's default, which
/// is what the paper's analysis stack would have used.
pub fn quantile(data: &[f64], q: f64) -> Result<f64> {
    validate_sample(data)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter { what: "quantile q", value: q });
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile of already-sorted data (ascending). Panics on empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = rank(n, q);
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// [`quantile_sorted`] of `values` as if sorted, found by selection in
/// expected `O(n)` instead of an `O(n log n)` sort. For finite values
/// it returns the same float bit for bit: it picks the same two order
/// statistics and interpolates with the same expression (a `-0.0`
/// picked in place of a tied `0.0` yields the same `+0.0`). Reorders
/// `values`; panics on empty input.
pub fn quantile_select(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    let n = values.len();
    if n == 1 {
        return values[0];
    }
    let (lo, hi, frac) = rank(n, q);
    let (_, &mut at_lo, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    let at_hi = if hi == lo {
        at_lo
    } else {
        // hi == lo + 1: the smallest value ranked above `lo`.
        above.iter().copied().min_by(f64::total_cmp).expect("hi < n")
    };
    at_lo + (at_hi - at_lo) * frac
}

/// The type-7 rank of quantile `q` among `n >= 2` sorted values: the
/// two neighbouring indices and the interpolation weight of the upper.
fn rank(n: usize, q: f64) -> (usize, usize, f64) {
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Median (50th percentile).
pub fn median(data: &[f64]) -> Result<f64> {
    quantile(data, 0.5)
}

/// The paper's per-user *consistency factor* (§4.1): the ratio of the mean
/// to the 95th percentile of a user's repeated measurements of one metric.
///
/// Values near 1 mean the user's tests are consistent; values well below 1
/// mean high variability. Upload speeds exhibit factors near 1 (median 0.87
/// in the paper), download speeds do not (median 0.58) — the observation that
/// motivates clustering on upload speed first.
pub fn consistency_factor(data: &[f64]) -> Result<f64> {
    validate_sample(data)?;
    let p95 = quantile(data, 0.95)?;
    if p95 == 0.0 {
        return Err(StatsError::InvalidParameter { what: "p95 (zero)", value: 0.0 });
    }
    Ok(mean(data) / p95)
}

/// Gini coefficient of a non-negative sample: 0 = perfect equality,
/// →1 = maximal inequality. The digital-divide literature the paper
/// motivates itself with (and its companion study [43]) summarizes
/// speed distributions this way; useful alongside medians in the
/// cross-city comparison.
pub fn gini(data: &[f64]) -> Result<f64> {
    validate_sample(data)?;
    if data.iter().any(|&v| v < 0.0) {
        return Err(StatsError::InvalidParameter {
            what: "negative value in gini input",
            value: data.iter().cloned().fold(f64::INFINITY, f64::min),
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return Ok(0.0); // everyone equally has nothing
    }
    // G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n, i is 1-based.
    let weighted: f64 = sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x).sum();
    Ok((2.0 * weighted / (n * total) - (n + 1.0) / n).clamp(0.0, 1.0))
}

/// A full five-number-plus summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute a summary of `data`. Fails on empty or non-finite input.
    pub fn of(data: &[f64]) -> Result<Self> {
        validate_sample(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
        Ok(Summary {
            count: sorted.len(),
            mean: mean(data),
            std_dev: std_dev(data),
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            p95: quantile_sorted(&sorted, 0.95),
            max: *sorted.last().expect("non-empty"),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn mean_of_known_values() {
        assert_close(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn mean_of_empty_is_nan() {
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_close(variance(&[5.0; 10]), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // data: 2, 4, 4, 4, 5, 5, 7, 9 — classic example, population var = 4.
        assert_close(variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), 4.0);
        assert_close(std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]), 2.0);
    }

    #[test]
    fn quantile_endpoints_are_min_max() {
        let d = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_close(quantile(&d, 0.0).unwrap(), 1.0);
        assert_close(quantile(&d, 1.0).unwrap(), 9.0);
    }

    #[test]
    fn quantile_interpolates_linearly() {
        // sorted: [0, 10]; q=0.25 -> 2.5
        assert_close(quantile(&[10.0, 0.0], 0.25).unwrap(), 2.5);
    }

    #[test]
    fn median_of_odd_sample() {
        assert_close(median(&[5.0, 1.0, 3.0]).unwrap(), 3.0);
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_close(median(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn quantile_single_element() {
        assert_close(quantile(&[42.0], 0.73).unwrap(), 42.0);
    }

    #[test]
    fn consistency_factor_is_one_for_constant_series() {
        assert_close(consistency_factor(&[20.0; 8]).unwrap(), 1.0);
    }

    #[test]
    fn consistency_factor_drops_with_variability() {
        // A user whose download speed swings widely has a low factor.
        let stable = consistency_factor(&[95.0, 100.0, 98.0, 102.0, 99.0]).unwrap();
        let noisy = consistency_factor(&[10.0, 100.0, 20.0, 90.0, 15.0]).unwrap();
        assert!(stable > 0.95, "stable factor was {stable}");
        assert!(noisy < stable, "noisy {noisy} should be < stable {stable}");
    }

    #[test]
    fn consistency_factor_zero_p95_is_error() {
        assert!(consistency_factor(&[0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn consistency_factor_can_exceed_one() {
        // A heavy *lower* tail drags p95 below the mean? No — mean <= p95 in
        // that case. The paper notes factors > 1 for heavy-tailed data where
        // the mean is pulled above the p95 by extreme outliers beyond p95.
        let mut d = vec![10.0; 39];
        d.push(10_000.0); // one extreme outlier beyond the p95 cut
        let f = consistency_factor(&d).unwrap();
        assert!(f > 1.0, "factor {f} should exceed 1");
    }

    #[test]
    fn gini_of_equal_sample_is_zero() {
        assert!(gini(&[10.0; 25]).unwrap() < 1e-12);
    }

    #[test]
    fn gini_of_concentrated_sample_approaches_one() {
        let mut d = vec![0.0; 99];
        d.push(1000.0);
        let g = gini(&d).unwrap();
        assert!(g > 0.95, "gini {g}");
    }

    #[test]
    fn gini_known_value() {
        // {1, 3}: G = (2*(1*1 + 2*3))/(2*4) - 3/2 = 14/8 - 1.5 = 0.25.
        let g = gini(&[1.0, 3.0]).unwrap();
        assert!((g - 0.25).abs() < 1e-12, "gini {g}");
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = gini(&[1.0, 2.0, 5.0, 9.0]).unwrap();
        let b = gini(&[10.0, 20.0, 50.0, 90.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn gini_rejects_negative_and_empty() {
        assert!(gini(&[]).is_err());
        assert!(gini(&[-1.0, 2.0]).is_err());
        assert_eq!(gini(&[0.0, 0.0]).unwrap(), 0.0);
    }

    #[test]
    fn summary_fields_are_ordered() {
        let s = Summary::of(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]).unwrap();
        assert!(s.min <= s.p25 && s.p25 <= s.median);
        assert!(s.median <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.count, 7);
        assert!(s.iqr() >= 0.0);
    }

    #[test]
    fn summary_rejects_empty() {
        assert!(Summary::of(&[]).is_err());
    }
}
