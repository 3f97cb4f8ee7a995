//! Order statistics for the benchmark's timings.
//!
//! Percentiles are given in per-mille (`990` is p99), so nearest ranks
//! are computed in integers.

/// Percentiles the tail rule may choose from, highest first (per-mille).
pub const TAIL_LADDER: [usize; 4] = [999, 990, 950, 900];

/// 1-based nearest rank of the `permille` percentile among `n > 0`
/// sorted samples.
pub fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly above the nearest-rank `permille` percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// The nearest-rank `permille` percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], permille: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), permille) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it among `n` samples, or `None` when even p90 has fewer.
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER.iter().copied().find(|&q| samples_beyond(n, q) >= 10)
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A latency distribution: median plus one fixed tail percentile, with
/// the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The requested tail percentile (per-mille).
    pub tail_permille: usize,
    /// Its value.
    pub tail: f64,
}

impl Dist {
    /// Summarize `values` at the `tail_permille` percentile. Empty input
    /// reads as zeros with `n == 0`.
    pub fn new(values: &[f64], tail_permille: usize) -> Dist {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Dist {
            n: sorted.len(),
            p50: median(&sorted).unwrap_or(0.0),
            tail_permille,
            tail: percentile(&sorted, tail_permille).unwrap_or(0.0),
        }
    }

    /// One stderr line stating the sample count behind the figures and
    /// the highest percentile they support.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let rule = tail_percentile(self.n).map_or("none".to_string(), |q| format!("p{}", fmt_q(q)));
        format!(
            "{name}: n={} p50={:.4}{unit} p{}={:.4}{unit} (highest percentile with >=10 beyond: {rule})",
            self.n,
            self.p50,
            fmt_q(self.tail_permille),
            self.tail
        )
    }
}

fn fmt_q(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("{}", permille / 10)
    } else {
        format!("{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(rank(1000, 500), 500);
        assert_eq!(rank(1, 990), 1);
        assert_eq!(rank(7, 500), 4);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 990), Some(990.0));
        assert_eq!(percentile(&sorted, 999), Some(999.0));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        // p99.9 of 10 000 samples leaves exactly 10 beyond it.
        assert_eq!(samples_beyond(10_000, 999), 10);
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(9_999), Some(990));
        // p99 of 1000 leaves 10 beyond; of 999 only 9.
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn dist_reports_the_count_and_the_supported_tail() {
        let values: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let d = Dist::new(&values, 990);
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 499.5);
        assert_eq!(d.tail, 989.0);
        assert!(d.describe("q", "ms").contains("n=1000"));
        assert!(d.describe("q", "ms").contains("beyond: p99)"));
        // p99 of 500 samples has only 5 beyond it; p95 has 25.
        let thin = Dist::new(&values[..500], 990);
        assert!(thin.describe("q", "ms").contains("beyond: p95)"));
        let empty = Dist::new(&[], 500);
        assert_eq!((empty.n, empty.p50, empty.tail), (0, 0.0, 0.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
