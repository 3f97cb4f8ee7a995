//! Shared analysis context: segmented campaign stores plus fitted BST
//! models for one city.
//!
//! The paper fits BST separately per platform dataset (Table 3 reports
//! per-platform cluster means), so [`CityAnalysis`] fits one model per
//! Ookla platform, one for the M-Lab campaign, and one for the MBA panel,
//! then scatters tier and plan-cap assignments onto the stores as
//! assigned columns ([`st_speedtest::SegmentedStore::set_assignments`]).
//! Figure and table modules read the stores through
//! [`st_speedtest::FragSelection`]s and segmented column getters;
//! nothing downstream clones `Vec<Measurement>` rows or assumes one
//! contiguous slice.
//!
//! Every pipeline feed ends in [`CityAnalysis::from_stores`]: the batch
//! feed hands it one sealed segment per sanitized campaign, the replay
//! feeds chunk-built multi-segment stores, and [`CityAnalysis::new`]
//! wraps a single dataset the batch way. BST consumes each selection's
//! gathered values, which are chunking-invariant, so every feed
//! produces bit-identical models and assignments.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_bst::{BstConfig, BstModel};
use st_datagen::{CityConfig, CityDataset};
use st_netsim::Mbps;
use st_speedtest::{PlanCatalog, Platform, SegmentedStore};
use st_stats::Ecdf;

use crate::results::SeriesData;

/// A city's campaigns, stored columnar and segmented, with BST fitted
/// to each.
pub struct CityAnalysis {
    /// The city's generation config (catalog, city id, scale).
    pub config: CityConfig,
    /// Ookla campaign as segments (tier/cap assignments scattered on).
    pub ookla: SegmentedStore,
    /// M-Lab campaign as segments.
    pub mlab: SegmentedStore,
    /// MBA panel as segments.
    pub mba: SegmentedStore,
    /// Fitted per-platform Ookla models.
    pub ookla_models: Vec<(Platform, BstModel)>,
    /// The M-Lab model.
    pub mlab_model: Option<BstModel>,
    /// The MBA model.
    pub mba_model: Option<BstModel>,
}

impl CityAnalysis {
    /// Fit BST to every sub-campaign of `dataset`.
    ///
    /// Determinism contract: one RNG seeded from `seed` is threaded
    /// sequentially through the fits in a fixed order — Ookla platforms
    /// in `Platform::all()` order (platforms with < 30 samples are
    /// skipped *without* consuming randomness), then M-Lab, then MBA —
    /// so fits are bit-identical to the row-oriented pipeline this
    /// store-backed version replaced.
    pub fn new(dataset: CityDataset, seed: u64) -> Self {
        let CityDataset { config, ookla, mlab, mba, .. } = dataset;
        Self::from_stores(
            config,
            SegmentedStore::from_measurements(&ookla),
            SegmentedStore::from_measurements(&mlab),
            SegmentedStore::from_measurements(&mba),
            seed,
            &st_obs::Registry::disabled(),
        )
    }

    /// Fit BST to three already-built (frozen) campaign stores — the fit
    /// stage of every pipeline feed — recording fit diagnostics into
    /// `reg` (DESIGN.md §13). Observation happens strictly *after* each
    /// fit: the registry never feeds back into the RNG stream or the
    /// models. The RNG threading is exactly [`CityAnalysis::new`]'s, and BST
    /// consumes gathered (contiguous) values, so any segmentation of the
    /// same accepted rows produces bit-identical models.
    pub fn from_stores(
        config: CityConfig,
        ookla: SegmentedStore,
        mlab: SegmentedStore,
        mba: SegmentedStore,
        seed: u64,
        reg: &st_obs::Registry,
    ) -> Self {
        let cfg = BstConfig::default();
        let catalog = config.catalog.clone();
        let city = config.city.label();
        let mut rng = StdRng::seed_from_u64(seed);

        let caps = catalog.upload_caps();
        let cap_index = |cap: Mbps| caps.iter().position(|&c| c == cap).map(|k| k as i32);

        let mut ookla_models = Vec::new();
        let mut ookla_tiers = vec![None; ookla.len()];
        let mut ookla_caps = vec![-1i32; ookla.len()];
        for platform in Platform::all() {
            if platform == Platform::NdtWeb {
                continue;
            }
            let sel = ookla.platform_sel(platform);
            if sel.len() < 30 {
                continue; // too thin to cluster meaningfully
            }
            // Borrows the store's column outright when the selection
            // covers a whole single-segment campaign; materializes only
            // true subsets and multi-segment stores.
            let down_col = ookla.down();
            let up_col = ookla.up();
            let down = sel.gather_view(&down_col);
            let up = sel.gather_view(&up_col);
            if let Ok(model) = BstModel::fit(&down, &up, &catalog, &cfg, &mut rng) {
                for (j, i) in sel.iter().enumerate() {
                    ookla_tiers[i] = model.assignments[j].tier;
                    ookla_caps[i] =
                        model.assignments[j].upload_cap.and_then(cap_index).unwrap_or(-1);
                }
                st_bst::observe_model(
                    reg,
                    &[("campaign", "ookla"), ("city", city), ("platform", platform.label())],
                    &model,
                    &cfg,
                );
                ookla_models.push((platform, model));
            }
        }
        ookla
            .set_assignments(ookla_tiers, ookla_caps, &catalog)
            .expect("assignments are scattered exactly once per fit");

        let mlab_model = fit_campaign(&mlab, &catalog, &cfg, &mut rng);
        let mba_model = fit_campaign(&mba, &catalog, &cfg, &mut rng);
        for (campaign, model) in [("mlab", &mlab_model), ("mba", &mba_model)] {
            if let Some(model) = model {
                st_bst::observe_model(reg, &[("campaign", campaign), ("city", city)], model, &cfg);
            }
        }

        CityAnalysis { config, ookla, mlab, mba, ookla_models, mlab_model, mba_model }
    }

    /// The city's plan catalog.
    pub fn catalog(&self) -> &PlanCatalog {
        &self.config.catalog
    }

    /// Advertised download speed of a tier.
    pub fn plan_down(&self, tier: usize) -> Option<Mbps> {
        self.catalog().plan(tier).map(|p| p.down)
    }

    /// Tier-group index (0-based, ascending upload cap) containing `tier`.
    pub fn group_index(&self, tier: usize) -> Option<usize> {
        self.catalog().tier_groups().iter().position(|g| g.tiers.contains(&tier))
    }

    /// The Ookla model fitted for `platform`.
    pub fn ookla_model(&self, platform: Platform) -> Option<&BstModel> {
        self.ookla_models.iter().find(|(p, _)| *p == platform).map(|(_, m)| m)
    }
}

/// Fit one whole-campaign model and scatter its assignments onto the
/// store (all-`None` when the campaign is too thin or the fit fails, so
/// downstream readers never observe an unassigned store).
fn fit_campaign(
    store: &SegmentedStore,
    catalog: &PlanCatalog,
    cfg: &BstConfig,
    rng: &mut StdRng,
) -> Option<BstModel> {
    let n = store.len();
    let none = || (vec![None; n], vec![-1i32; n]);
    let caps = catalog.upload_caps();
    let (model, (tiers, cap_idx)) = if n < 30 {
        (None, none())
    } else {
        let down = store.down().view();
        let up = store.up().view();
        match BstModel::fit(&down, &up, catalog, cfg, rng) {
            Ok(model) => {
                let cap_idx = model
                    .assignments
                    .iter()
                    .map(|a| {
                        a.upload_cap
                            .and_then(|c| caps.iter().position(|&k| k == c))
                            .map(|k| k as i32)
                            .unwrap_or(-1)
                    })
                    .collect();
                let tiers = model.tiers();
                (Some(model), (tiers, cap_idx))
            }
            Err(_) => (None, none()),
        }
    };
    store.set_assignments(tiers, cap_idx, catalog).expect("each campaign fits exactly once");
    model
}

/// Build a CDF series (capped at 200 plot points) from raw values.
/// Returns `None` for an empty sample.
pub fn ecdf_series(label: &str, values: &[f64]) -> Option<(SeriesData, f64)> {
    let clean: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let e = Ecdf::new(&clean).ok()?;
    Some((SeriesData::new(label, e.plot_points(200)), e.median()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_datagen::City;

    fn analysis() -> CityAnalysis {
        let ds = CityDataset::generate(City::A, 0.004, 99);
        CityAnalysis::new(ds, 7)
    }

    #[test]
    fn fits_models_for_major_platforms() {
        let a = analysis();
        // Web and iOS are the two biggest platforms; both must fit.
        assert!(a.ookla_model(Platform::Web).is_some());
        assert!(a.ookla_model(Platform::IosApp).is_some());
        assert!(a.mlab_model.is_some());
        assert!(a.mba_model.is_some());
    }

    #[test]
    fn assignments_cover_most_measurements() {
        let a = analysis();
        let tiers = a.ookla.assigned_tier();
        let assigned = tiers.iter().filter(|t| t.is_some()).count();
        assert!(
            assigned as f64 / tiers.len() as f64 > 0.7,
            "only {assigned}/{} Ookla tests assigned",
            tiers.len()
        );
        let mba_tiers = a.mba.assigned_tier();
        let mba_assigned = mba_tiers.iter().filter(|t| t.is_some()).count();
        assert!(mba_assigned as f64 / mba_tiers.len() as f64 > 0.9);
    }

    #[test]
    fn assigned_tiers_mostly_match_truth_on_mba() {
        let a = analysis();
        let (mut ok, mut n) = (0usize, 0usize);
        for (truth, t) in a.mba.truth_tier().iter().zip(a.mba.assigned_tier().iter()) {
            if let (Some(truth), Some(got)) = (truth, t) {
                n += 1;
                // Score the upload *group*, the Table 2 criterion.
                let truth_group = a.group_index(*truth);
                let got_group = a.group_index(*got);
                if truth_group == got_group {
                    ok += 1;
                }
            }
        }
        assert!(n > 0);
        assert!(ok as f64 / n as f64 > 0.9, "MBA group accuracy {}", ok as f64 / n as f64);
    }

    #[test]
    fn normalized_download_is_in_unit_interval() {
        let a = analysis();
        for (t, nd) in a.ookla.assigned_tier().iter().zip(a.ookla.normalized_down().iter()) {
            if t.is_some() {
                assert!((0.0..=1.0).contains(nd), "assigned rows normalize into [0, 1]");
            } else {
                assert!(nd.is_nan(), "unassigned rows carry NaN");
            }
        }
    }

    #[test]
    fn group_index_follows_catalog() {
        let a = analysis();
        assert_eq!(a.group_index(1), Some(0));
        assert_eq!(a.group_index(6), Some(3));
        assert_eq!(a.group_index(99), None);
        // The scattered group column agrees with the catalog mapping.
        for (t, g) in a.ookla.assigned_tier().iter().zip(a.ookla.group_idx().iter()) {
            let expect = t.and_then(|t| a.group_index(t)).map(|g| g as i32).unwrap_or(-1);
            assert_eq!(*g, expect);
        }
    }

    #[test]
    fn ecdf_series_helper() {
        let (s, median) = ecdf_series("x", &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.label, "x");
        assert_eq!(median, 2.0);
        assert!(ecdf_series("e", &[]).is_none());
        assert!(ecdf_series("nan", &[f64::NAN]).is_none());
    }

    fn observed_analysis() -> (CityAnalysis, st_obs::MetricsSnapshot) {
        let CityDataset { config, ookla, mlab, mba, .. } =
            CityDataset::generate(City::A, 0.004, 99);
        let reg = st_obs::Registry::new();
        let a = CityAnalysis::from_stores(
            config,
            SegmentedStore::from_measurements(&ookla),
            SegmentedStore::from_measurements(&mlab),
            SegmentedStore::from_measurements(&mba),
            7,
            &reg,
        );
        (a, reg.snapshot())
    }

    #[test]
    fn fit_metrics_are_seed_stable_across_repeated_fits() {
        // Same city, same seed, fitted twice: the EM-iteration counters
        // and log-likelihood trajectories must be byte-identical — they
        // are pure functions of (dataset, seed).
        let (_, snap1) = observed_analysis();
        let (_, snap2) = observed_analysis();
        assert_eq!(snap1.deterministic_json(), snap2.deterministic_json());
        // And they actually recorded the fits, per stage.
        let has_stage2 =
            snap1.deterministic.counters.keys().any(|k| k.starts_with("bst.stage2.em_iterations"));
        assert!(has_stage2, "no stage-2 EM iteration counters recorded");
        let has_ll = snap1.deterministic.series.keys().any(|k| k.starts_with("bst.stage2.ll"));
        assert!(has_ll, "no stage-2 log-likelihood trajectories recorded");
    }

    #[test]
    fn fit_metrics_match_fitted_model_state() {
        // The table3-style cross-check: metrics must agree with what the
        // fitted models themselves report.
        let (a, snap) = observed_analysis();
        let det = &snap.deterministic;

        // Stage-1 cap-member counters equal the MBA model's member counts
        // per upload cap.
        let mba = a.mba_model.as_ref().expect("MBA model fits at this scale");
        let mut caps: Vec<_> = mba.uploads.component_caps.iter().flatten().copied().collect();
        caps.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        caps.dedup();
        for cap in caps {
            let key = format!("bst.stage1.cap_members{{campaign=mba,cap={},city=City-A}}", cap.0);
            assert_eq!(
                det.counters.get(&key).copied().unwrap_or(0),
                mba.uploads.members_of(cap).len() as u64,
                "member-count mismatch for {key}"
            );
        }

        // Assigned/unassigned counters partition the MBA sample.
        let assigned = det.counters["bst.assigned{campaign=mba,city=City-A}"];
        let unassigned = det.counters["bst.unassigned{campaign=mba,city=City-A}"];
        assert_eq!((assigned + unassigned) as usize, mba.assignments.len());
        assert_eq!(assigned as usize, mba.assignments.iter().filter(|x| x.tier.is_some()).count());

        // Stage-1 EM iterations and trajectory match the fit diagnostics.
        let fit = mba.uploads.gmm.fit_info();
        assert_eq!(
            det.counters["bst.stage1.em_iterations{campaign=mba,city=City-A}"],
            fit.iterations as u64
        );
        assert_eq!(det.series["bst.stage1.ll{campaign=mba,city=City-A}"], fit.trajectory);

        // Per-group stage-2 iterations sum (plus stage 1) into the total.
        let em_total: u64 = fit.iterations as u64
            + mba.downloads.iter().map(|(_, dc)| dc.gmm.fit_info().iterations as u64).sum::<u64>();
        assert_eq!(det.counters["bst.em_iterations_total{campaign=mba,city=City-A}"], em_total);
    }

    #[test]
    fn observed_fit_is_identical_to_unobserved() {
        // Metrics are read-only observers: the fitted models must be
        // bit-identical with and without a live registry.
        let ds = CityDataset::generate(City::A, 0.004, 99);
        let plain = CityAnalysis::new(ds, 7);
        let (observed, _) = observed_analysis();
        assert_eq!(plain.ookla_models.len(), observed.ookla_models.len());
        for ((p1, m1), (p2, m2)) in plain.ookla_models.iter().zip(&observed.ookla_models) {
            assert_eq!(p1, p2);
            assert_eq!(m1.uploads.gmm, m2.uploads.gmm);
            assert_eq!(m1.assignments, m2.assignments);
        }
        assert_eq!(
            plain.mba_model.as_ref().map(|m| &m.assignments),
            observed.mba_model.as_ref().map(|m| &m.assignments)
        );
    }

    #[test]
    fn platform_selections_partition_the_campaign() {
        let a = analysis();
        let native = a.ookla.native_sel();
        let web = a.ookla.platform_sel(Platform::Web);
        assert_eq!(native.len() + web.len(), a.ookla.len());
        assert!(native.and(&web).is_empty());
    }

    #[test]
    fn chunked_ingest_fits_identical_models() {
        // The tentpole equivalence at the analysis layer: chunk-ingested
        // multi-segment stores must fit bit-identical models to the
        // batch single-segment path (generated campaigns are clean, so
        // incremental sanitize accepts every row unchanged).
        let ds = CityDataset::generate(City::A, 0.004, 99);
        let reg = st_obs::Registry::disabled();
        let mut stores = Vec::new();
        for records in [&ds.ookla, &ds.mlab, &ds.mba] {
            let mut store = SegmentedStore::builder(200);
            for chunk in records.chunks(77) {
                store.append_chunk(chunk.to_vec()).unwrap();
            }
            store.freeze().unwrap();
            stores.push(store);
        }
        assert!(stores[0].num_segments() > 1, "scale must produce a multi-segment Ookla store");
        let mba = stores.pop().unwrap();
        let mlab = stores.pop().unwrap();
        let ookla = stores.pop().unwrap();
        let chunked = CityAnalysis::from_stores(ds.config.clone(), ookla, mlab, mba, 7, &reg);
        let batch = CityAnalysis::new(ds, 7);
        assert_eq!(batch.ookla_models.len(), chunked.ookla_models.len());
        for ((p1, m1), (p2, m2)) in batch.ookla_models.iter().zip(&chunked.ookla_models) {
            assert_eq!(p1, p2);
            assert_eq!(m1.assignments, m2.assignments);
        }
        assert_eq!(
            batch.mba_model.as_ref().map(|m| &m.assignments),
            chunked.mba_model.as_ref().map(|m| &m.assignments)
        );
        assert_eq!(batch.ookla.assigned_tier().to_vec(), chunked.ookla.assigned_tier().to_vec());
        assert_eq!(batch.ookla.group_idx().to_vec(), chunked.ookla.group_idx().to_vec());
    }
}
