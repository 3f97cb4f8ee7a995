//! Warm-analysis entry points for the `st-serve` epoch renderer
//! (DESIGN.md §18).
//!
//! The serve layer republishes headline analyses at every epoch
//! crossing, fitting against whatever rows have *sealed* so far. Two
//! contracts keep that honest:
//!
//! * **Sealed rows only.** The input is the sealed prefix of each
//!   stream — a pure function of the accepted-row sequence and the
//!   seal threshold — so a warm fit is reproducible from the epoch's
//!   own description, even though *which* epoch a given prefix lands
//!   in depends on wall-clock interleaving.
//! * **No deterministic metrics.** Warm fits run against a disabled
//!   registry: the prefix they see is scheduling-dependent, so letting
//!   them tick `bst.*` counters would break the parallelism-invariance
//!   the `serve-smoke` obs-diff gate enforces. The final post-drain
//!   fit (which sees the complete stream) records normally.
//!
//! These entry points are deliberately thin wrappers over the batch
//! fit path ([`CityAnalysis::from_stores`]): a warm analysis at the
//! final epoch *is* the batch analysis, which is what the
//! serve-identity suite pins byte for byte.

use crate::context::CityAnalysis;
use crate::{fig01, table1};
use st_datagen::CityConfig;
use st_obs::Registry;
use st_speedtest::{Measurement, SegmentedStore};
use st_stats::quantile_select;

/// Fit one city's BST models against sealed row prefixes. Platforms
/// with fewer than 30 samples are skipped exactly as in the batch
/// path, so thin early epochs simply publish fewer models.
pub fn warm_fit(
    config: CityConfig,
    ookla: &[Measurement],
    mlab: &[Measurement],
    mba: &[Measurement],
    seed: u64,
) -> CityAnalysis {
    CityAnalysis::from_stores(
        config,
        SegmentedStore::from_measurements(ookla),
        SegmentedStore::from_measurements(mlab),
        SegmentedStore::from_measurements(mba),
        seed,
        // Warm fits see a scheduling-dependent prefix: keep them out
        // of the deterministic metric class (DESIGN.md §18).
        &Registry::disabled(),
    )
}

/// Type-7 median of a sealed column's finite values (NaN when none):
/// the same interpolated median `fig01` draws, without its
/// preconditions.
fn median(mut values: Vec<f64>) -> f64 {
    values.retain(|v| v.is_finite());
    if values.is_empty() {
        return f64::NAN;
    }
    quantile_select(&mut values, 0.5)
}

/// Headline `(label, value)` pairs for one set of warm analyses: per
/// city the sealed row counts, the uncontextualized Ookla download
/// median (the paper's fig 1 headline number), fitted model counts,
/// and BST tier-assignment coverage.
pub fn warm_headlines(analyses: &[&CityAnalysis]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for &a in analyses {
        let city = a.config.city.label();
        let rows = a.ookla.len() + a.mlab.len() + a.mba.len();
        out.push((format!("{city} sealed rows"), rows.to_string()));
        if !a.ookla.is_empty() {
            out.push((
                format!("{city} ookla median down (Mbps)"),
                format!("{:.1}", median(a.ookla.down().to_vec())),
            ));
            let tiers = a.ookla.assigned_tier().to_vec();
            let assigned = tiers.iter().filter(|t| t.is_some()).count();
            out.push((
                format!("{city} BST tier coverage"),
                format!("{:.1}%", 100.0 * assigned as f64 / tiers.len().max(1) as f64),
            ));
        }
        out.push((
            format!("{city} fitted models"),
            (a.ookla_models.len()
                + usize::from(a.mlab_model.is_some())
                + usize::from(a.mba_model.is_some()))
            .to_string(),
        ));
    }
    // The paper's first figure, when the first city has data to draw.
    if let Some(&first) = analyses.first() {
        if first.ookla.len() >= 30 {
            let f1 = fig01::run(first);
            if let Some(m) = f1.medians.first() {
                out.push(("fig01 uncontextualized median (Mbps)".into(), format!("{m:.1}")));
            }
        }
    }
    out
}

/// Warm rendered tables as `(id, text)` pairs — currently Table 1
/// (dataset sizes), which is robust at any prefix size.
pub fn warm_tables(analyses: &[&CityAnalysis]) -> Vec<(String, String)> {
    let t = table1::run(analyses);
    vec![(t.id.clone(), t.render())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_datagen::{City, CityDataset};

    #[test]
    fn warm_fit_on_the_full_stream_matches_the_batch_fit() {
        let ds = CityDataset::generate(City::A, 0.002, 7);
        let config = ds.config.clone();
        let (ookla, mlab, mba) = (ds.ookla.clone(), ds.mlab.clone(), ds.mba.clone());
        let batch = CityAnalysis::new(ds, 42);
        let warm = warm_fit(config, &ookla, &mlab, &mba, 42);
        assert_eq!(batch.ookla_models.len(), warm.ookla_models.len());
        for ((p1, m1), (p2, m2)) in batch.ookla_models.iter().zip(&warm.ookla_models) {
            assert_eq!(p1, p2);
            assert_eq!(m1.assignments, m2.assignments, "warm fit must be the batch fit");
        }
    }

    #[test]
    fn headlines_and_tables_survive_empty_prefixes() {
        let empty = warm_fit(CityConfig::at_scale(City::B, 0.001), &[], &[], &[], 1);
        let heads = warm_headlines(&[&empty]);
        assert!(heads.iter().any(|(k, v)| k.contains("sealed rows") && v == "0"));
        assert!(!heads.iter().any(|(k, _)| k.contains("median")), "no median without data");
        let tables = warm_tables(&[&empty]);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].1.contains("City-B"));
    }

    #[test]
    fn headlines_carry_the_fig01_median_when_data_suffices() {
        let ds = CityDataset::generate(City::A, 0.002, 3);
        let config = ds.config.clone();
        let warm = warm_fit(config, &ds.ookla, &ds.mlab, &ds.mba, 9);
        let heads = warm_headlines(&[&warm]);
        assert!(heads.iter().any(|(k, _)| k.starts_with("fig01")));
        assert!(heads.iter().any(|(k, _)| k.contains("BST tier coverage")));
    }

    #[test]
    fn median_interpolates_between_the_middle_pair() {
        assert_eq!(median(vec![1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(vec![10.0, f64::NAN, 1.0, 3.0]), 3.0);
        assert!(median(vec![f64::NAN]).is_nan());
    }

    #[test]
    fn ookla_median_headline_is_the_fig01_headline_on_an_even_prefix() {
        let ds = CityDataset::generate(City::A, 0.002, 3);
        let mut len = ds.ookla.len();
        let warm = loop {
            let a = warm_fit(ds.config.clone(), &ds.ookla[..len], &[], &[], 9);
            if a.ookla.len().is_multiple_of(2) {
                break a;
            }
            len -= 1;
        };
        assert!(warm.ookla.len() >= 30, "fig01 needs 30 rows");
        let heads = warm_headlines(&[&warm]);
        let value =
            |key: &str| heads.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).expect(key);
        assert_eq!(
            value("City-A ookla median down (Mbps)"),
            value("fig01 uncontextualized median (Mbps)")
        );
    }
}
