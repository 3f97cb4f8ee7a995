//! Bootstrap confidence intervals.
//!
//! The paper reports point medians; a production measurement pipeline
//! should carry uncertainty, especially at the reduced campaign scales
//! this reproduction runs at. Percentile-bootstrap intervals are the
//! standard tool for medians and ratio statistics over heavy-tailed
//! throughput samples, where normal-theory intervals are unreliable.

use crate::describe::{quantile_select, quantile_sorted};
use crate::error::{validate_sample, StatsError};
use crate::Result;
use rand::Rng;

/// A percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The confidence level the bounds correspond to (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

/// Percentile-bootstrap CI for an arbitrary statistic of one sample.
///
/// `statistic` receives a resampled-with-replacement copy of the data and
/// must return a finite value for any non-empty sample.
pub fn bootstrap_ci<R: Rng + ?Sized>(
    data: &[f64],
    statistic: impl Fn(&[f64]) -> f64,
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> Result<ConfidenceInterval> {
    resample_ci(data, |sample: &mut [f64]| statistic(sample), resamples, level, rng)
}

/// [`bootstrap_ci`] with a statistic that may reorder its sample in
/// place: each resample buffer is refilled before the next draw.
fn resample_ci<R: Rng + ?Sized>(
    data: &[f64],
    statistic: impl Fn(&mut [f64]) -> f64,
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> Result<ConfidenceInterval> {
    validate_sample(data)?;
    if !(0.0..1.0).contains(&level) || level <= 0.5 {
        return Err(StatsError::InvalidParameter { what: "confidence level", value: level });
    }
    if resamples < 10 {
        return Err(StatsError::InvalidParameter { what: "resamples", value: resamples as f64 });
    }

    let estimate = statistic(&mut data.to_vec());
    let n = data.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut scratch = vec![0.0f64; n];
    for _ in 0..resamples {
        for slot in scratch.iter_mut() {
            *slot = data[rng.gen_range(0..n)];
        }
        let s = statistic(&mut scratch);
        if s.is_finite() {
            stats.push(s);
        }
    }
    percentile_interval(estimate, stats, level)
}

/// The percentile interval of the finite resampled statistics `stats`.
fn percentile_interval(
    estimate: f64,
    mut stats: Vec<f64>,
    level: f64,
) -> Result<ConfidenceInterval> {
    if stats.is_empty() {
        return Err(StatsError::Diverged { iteration: 0 });
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite filtered"));
    let alpha = (1.0 - level) / 2.0;
    Ok(ConfidenceInterval {
        estimate,
        lo: quantile_sorted(&stats, alpha),
        hi: quantile_sorted(&stats, 1.0 - alpha),
        level,
    })
}

/// Bootstrap CI for the sample median.
pub fn median_ci<R: Rng + ?Sized>(
    data: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> Result<ConfidenceInterval> {
    resample_ci(data, |sample| quantile_select(sample, 0.5), resamples, level, rng)
}

/// Bootstrap CI for the ratio of two samples' medians (`a / b`) — the
/// statistic behind the paper's "M-Lab lags Ookla by up to 2×" claims.
/// The two samples are resampled independently.
pub fn median_ratio_ci<R: Rng + ?Sized>(
    a: &[f64],
    b: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> Result<ConfidenceInterval> {
    validate_sample(a)?;
    validate_sample(b)?;
    if !(0.0..1.0).contains(&level) || level <= 0.5 {
        return Err(StatsError::InvalidParameter { what: "confidence level", value: level });
    }
    let med = |v: &mut [f64]| quantile_select(v, 0.5);
    let estimate = med(&mut a.to_vec()) / med(&mut b.to_vec());
    let mut stats = Vec::with_capacity(resamples);
    let mut ra = vec![0.0f64; a.len()];
    let mut rb = vec![0.0f64; b.len()];
    for _ in 0..resamples {
        for slot in ra.iter_mut() {
            *slot = a[rng.gen_range(0..a.len())];
        }
        for slot in rb.iter_mut() {
            *slot = b[rng.gen_range(0..b.len())];
        }
        let r = med(&mut ra) / med(&mut rb);
        if r.is_finite() {
            stats.push(r);
        }
    }
    percentile_interval(estimate, stats, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(29)
    }

    fn uniforms(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
        let mut r = StdRng::seed_from_u64(seed);
        (0..n).map(|_| lo + (hi - lo) * r.gen::<f64>()).collect()
    }

    #[test]
    fn median_ci_brackets_the_true_median() {
        // Uniform(0, 100): true median 50.
        let data = uniforms(400, 0.0, 100.0, 1);
        let ci = median_ci(&data, 500, 0.95, &mut rng()).unwrap();
        assert!(ci.contains(50.0), "{ci:?}");
        assert!(ci.contains(ci.estimate));
        assert!(ci.width() > 0.0 && ci.width() < 30.0, "{ci:?}");
    }

    #[test]
    fn interval_narrows_with_sample_size() {
        let small = median_ci(&uniforms(40, 0.0, 100.0, 2), 400, 0.95, &mut rng()).unwrap();
        let large = median_ci(&uniforms(4000, 0.0, 100.0, 2), 400, 0.95, &mut rng()).unwrap();
        assert!(large.width() < small.width(), "{large:?} vs {small:?}");
    }

    #[test]
    fn interval_widens_with_level() {
        let data = uniforms(200, 0.0, 100.0, 3);
        let c90 = median_ci(&data, 500, 0.90, &mut rng()).unwrap();
        let c99 = median_ci(&data, 500, 0.99, &mut rng()).unwrap();
        assert!(c99.width() >= c90.width(), "{c99:?} vs {c90:?}");
    }

    #[test]
    fn ratio_ci_detects_a_true_twofold_gap() {
        let a = uniforms(300, 80.0, 120.0, 4); // median ~100
        let b = uniforms(300, 40.0, 60.0, 5); // median ~50
        let ci = median_ratio_ci(&a, &b, 500, 0.95, &mut rng()).unwrap();
        assert!(ci.contains(2.0), "{ci:?}");
        assert!(!ci.contains(1.0), "gap should be significant: {ci:?}");
    }

    #[test]
    fn ratio_ci_covers_one_for_identical_distributions() {
        let a = uniforms(300, 10.0, 20.0, 6);
        let b = uniforms(300, 10.0, 20.0, 7);
        let ci = median_ratio_ci(&a, &b, 500, 0.95, &mut rng()).unwrap();
        assert!(ci.contains(1.0), "{ci:?}");
    }

    #[test]
    fn custom_statistic_works() {
        let data = uniforms(200, 0.0, 10.0, 8);
        let ci =
            bootstrap_ci(&data, |s| s.iter().sum::<f64>() / s.len() as f64, 300, 0.95, &mut rng())
                .unwrap();
        assert!(ci.contains(5.0), "{ci:?}");
    }

    #[test]
    fn degenerate_constant_sample_gives_zero_width() {
        let ci = median_ci(&[7.0; 50], 200, 0.95, &mut rng()).unwrap();
        assert_eq!(ci.lo, 7.0);
        assert_eq!(ci.hi, 7.0);
        assert_eq!(ci.estimate, 7.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        let data = [1.0, 2.0, 3.0];
        assert!(median_ci(&data, 5, 0.95, &mut rng()).is_err());
        assert!(median_ci(&data, 100, 0.4, &mut rng()).is_err());
        assert!(median_ci(&data, 100, 1.0, &mut rng()).is_err());
        assert!(median_ci(&[], 100, 0.95, &mut rng()).is_err());
        assert!(median_ratio_ci(&[], &data, 100, 0.95, &mut rng()).is_err());
    }
}
