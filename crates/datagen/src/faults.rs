//! Fault injection: degraded access segments and dirty measurements.
//!
//! Two fault families live here, mirroring the two ways real crowdsourced
//! corpora deviate from the clean generative model:
//!
//! 1. **Access-network faults** ([`FaultScenario`]) — the challenge process
//!    the paper's recommendations target (§8) exists because *some*
//!    under-performance really is the ISP's: an oversubscribed node,
//!    degraded plant, a mis-provisioned CMTS port. [`inject`] applies such
//!    a scenario to a generated population, so the triage pipeline
//!    (`st-bst::diagnose`) has true positives to find — and so its
//!    false-positive/false-negative behaviour can be measured against
//!    known fault ground truth.
//! 2. **Dirty measurements** ([`DirtyScenario`]) — real Ookla/M-Lab
//!    archives are full of aborted, truncated, duplicated, and
//!    clock-skewed tests. [`inject_dirty`] corrupts a generated campaign
//!    at configurable per-kind rates with ground-truth labels, so the
//!    sanitization stage (`st_speedtest::sanitize`) can be scored against
//!    known corruption instead of hand-waved.

use crate::population::Population;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st_speedtest::Measurement;
use std::collections::HashSet;

/// A fault scenario applied to a fraction of a population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    /// Fraction of users on the degraded segment, `0..1`.
    pub affected_fraction: f64,
    /// Multiplier on the affected homes' downstream capacity (e.g. 0.35
    /// = the node delivers ~a third of plan at all times).
    pub down_capacity_factor: f64,
    /// Multiplier on upstream capacity. Upstream typically survives node
    /// congestion better; default scenarios keep it near 1.
    pub up_capacity_factor: f64,
}

impl FaultScenario {
    /// A chronically oversubscribed node: 20% of homes at ~35% of plan
    /// downstream, upstream intact.
    pub fn oversubscribed_node() -> Self {
        FaultScenario {
            affected_fraction: 0.2,
            down_capacity_factor: 0.35,
            up_capacity_factor: 0.95,
        }
    }

    /// Degraded physical plant (corroded taps, water-damaged drops): a
    /// smaller slice of homes, but both directions suffer — the RF
    /// impairment does not care which way the bits flow.
    pub fn degraded_plant() -> Self {
        FaultScenario {
            affected_fraction: 0.1,
            down_capacity_factor: 0.4,
            up_capacity_factor: 0.55,
        }
    }

    /// A mis-provisioned upstream channel (wrong service-class on the
    /// CMTS port): downstream delivers plan, upstream is crushed. The
    /// inverse shape of [`FaultScenario::oversubscribed_node`], so triage
    /// has a second distinguishable ground-truth signature.
    pub fn misprovisioned_upstream() -> Self {
        FaultScenario {
            affected_fraction: 0.08,
            down_capacity_factor: 0.97,
            up_capacity_factor: 0.3,
        }
    }
}

/// Apply `scenario` to `population`, returning the ids of affected users
/// (the fault ground truth) as a set for O(1) membership tests.
///
/// Degradation is applied to the provisioned access link itself — the
/// over-provisioning factor — so every subsequent measurement from an
/// affected home sees the reduced capacity regardless of medium, device,
/// or methodology. Exactly what a true access-network fault looks like.
pub fn inject<R: Rng + ?Sized>(
    population: &mut Population,
    scenario: FaultScenario,
    rng: &mut R,
) -> HashSet<u64> {
    assert!(
        (0.0..=1.0).contains(&scenario.affected_fraction),
        "affected fraction must be in [0, 1]"
    );
    assert!(
        scenario.down_capacity_factor > 0.0 && scenario.up_capacity_factor > 0.0,
        "capacity factors must be positive"
    );
    let mut affected = HashSet::new();
    for user in population.users_mut() {
        if rng.gen::<f64>() < scenario.affected_fraction {
            user.access.overprovision *= scenario.down_capacity_factor;
            // Upstream degradation folds into the same knob the link model
            // reads for upload capacity.
            if scenario.up_capacity_factor < 1.0 {
                user.access.up_plan = user.access.up_plan * scenario.up_capacity_factor;
            }
            affected.insert(user.user_id);
        }
    }
    affected
}

/// How one record was dirtied, carried as ground truth next to the
/// corrupted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirtyKind {
    /// Test aborted mid-ramp: throughput collapses to a fraction of the
    /// true value and no latency phase completed (`rtt_ms` = 0).
    Truncated,
    /// Client recorded a hard zero for both directions.
    ZeroThroughput,
    /// Client serialized a non-finite throughput.
    NanThroughput,
    /// The same completed test was submitted twice (same test id).
    Duplicate,
    /// Device clock skew pushed the timestamp out of the campaign year.
    ClockSkew,
}

impl DirtyKind {
    /// Stable kebab-case label used in metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DirtyKind::Truncated => "truncated",
            DirtyKind::ZeroThroughput => "zero-throughput",
            DirtyKind::NanThroughput => "nan-throughput",
            DirtyKind::Duplicate => "duplicate",
            DirtyKind::ClockSkew => "clock-skew",
        }
    }

    /// All kinds, in the order [`inject_dirty`] draws them.
    pub fn all() -> [DirtyKind; 5] {
        [
            DirtyKind::Truncated,
            DirtyKind::ZeroThroughput,
            DirtyKind::NanThroughput,
            DirtyKind::Duplicate,
            DirtyKind::ClockSkew,
        ]
    }
}

/// Per-kind corruption rates applied to a campaign, each in `0..1` and
/// summing to at most 1 (each record suffers at most one kind).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirtyScenario {
    /// Rate of aborted/truncated tests.
    pub truncated_rate: f64,
    /// Rate of hard-zero throughput records.
    pub zero_rate: f64,
    /// Rate of non-finite throughput records.
    pub nan_rate: f64,
    /// Rate of duplicated submissions.
    pub duplicate_rate: f64,
    /// Rate of clock-skewed timestamps.
    pub clock_skew_rate: f64,
}

impl DirtyScenario {
    /// Spread `total` evenly across all five corruption kinds.
    pub fn with_total_rate(total: f64) -> Self {
        assert!((0.0..=1.0).contains(&total), "total dirty rate must be in [0, 1]");
        let each = total / 5.0;
        DirtyScenario {
            truncated_rate: each,
            zero_rate: each,
            nan_rate: each,
            duplicate_rate: each,
            clock_skew_rate: each,
        }
    }

    /// Cumulative (kind, threshold) table for a single uniform draw.
    fn thresholds(&self) -> [(DirtyKind, f64); 5] {
        let mut acc = 0.0;
        let mut out = [(DirtyKind::Truncated, 0.0); 5];
        for (slot, (kind, rate)) in out.iter_mut().zip([
            (DirtyKind::Truncated, self.truncated_rate),
            (DirtyKind::ZeroThroughput, self.zero_rate),
            (DirtyKind::NanThroughput, self.nan_rate),
            (DirtyKind::Duplicate, self.duplicate_rate),
            (DirtyKind::ClockSkew, self.clock_skew_rate),
        ]) {
            assert!(rate >= 0.0, "rates must be non-negative");
            acc += rate;
            *slot = (kind, acc);
        }
        assert!(acc <= 1.0, "dirty rates must sum to at most 1, got {acc}");
        out
    }
}

/// Ground truth for one dirtied record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirtyLabel {
    /// Index of the corrupted record in the (post-corruption) campaign
    /// vector. Duplicates are appended, so original indices stay valid.
    pub index: usize,
    /// The record's test id.
    pub id: u64,
    /// What was done to it.
    pub kind: DirtyKind,
}

/// Corrupt `records` in place according to `scenario`, deterministically
/// from `stream` (one RNG over the records in order — the input order is
/// already parallelism-invariant, so the corruption is too). Duplicated
/// submissions are appended after the originals, preserving the index of
/// every original record. Returns ground-truth labels for every record
/// touched.
pub fn inject_dirty(
    records: &mut Vec<Measurement>,
    scenario: &DirtyScenario,
    stream: u64,
) -> Vec<DirtyLabel> {
    let thresholds = scenario.thresholds();
    let mut rng = StdRng::seed_from_u64(stream);
    let mut labels = Vec::new();
    let mut duplicates = Vec::new();
    let base_len = records.len();
    for (index, m) in records.iter_mut().enumerate() {
        let u: f64 = rng.gen();
        let Some(&(kind, _)) = thresholds.iter().find(|&&(_, cum)| u < cum) else {
            continue;
        };
        match kind {
            DirtyKind::Truncated => {
                // Aborted mid-ramp: only a sliver of the transfer ran and
                // the latency phase never completed.
                let surviving = rng.gen_range(0.02..0.3);
                m.down_mbps *= surviving;
                m.up_mbps *= surviving;
                m.rtt_ms = 0.0;
            }
            DirtyKind::ZeroThroughput => {
                m.down_mbps = 0.0;
                m.up_mbps = 0.0;
            }
            DirtyKind::NanThroughput => {
                m.down_mbps = f64::NAN;
                if rng.gen::<bool>() {
                    m.up_mbps = f64::NAN;
                }
            }
            DirtyKind::Duplicate => {
                duplicates.push(m.clone());
            }
            DirtyKind::ClockSkew => {
                // A skewed client clock reports a day beyond the campaign
                // year and/or an impossible hour.
                m.day += 365 + rng.gen_range(0..365);
                if rng.gen::<bool>() {
                    m.hour += 24;
                }
            }
        }
        labels.push(DirtyLabel { index, id: m.id, kind });
    }
    for (off, dup) in duplicates.into_iter().enumerate() {
        labels.push(DirtyLabel { index: base_len + off, id: dup.id, kind: DirtyKind::Duplicate });
        records.push(dup);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogs::catalog_for;
    use crate::city::{City, CityConfig};
    use crate::crowd::generate_ookla;
    use crate::population::tier_weights;

    fn population(r: &mut StdRng) -> Population {
        let cat = catalog_for(City::A);
        Population::generate(&cat, &tier_weights(City::A), 800, r)
    }

    /// Median of each cohort's plan-normalized values, split by membership
    /// in `affected`.
    fn cohort_medians(
        tests: &[Measurement],
        cfg: &CityConfig,
        affected: &HashSet<u64>,
        value: impl Fn(&Measurement) -> f64,
        plan: impl Fn(&CityConfig, usize) -> f64,
    ) -> (f64, f64) {
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let (mut hit, mut healthy) = (Vec::new(), Vec::new());
        for m in tests {
            let n = value(m) / plan(cfg, m.truth_tier.unwrap());
            if affected.contains(&m.user_id) {
                hit.push(n);
            } else {
                healthy.push(n);
            }
        }
        assert!(hit.len() > 30, "affected tests: {}", hit.len());
        (med(&mut hit), med(&mut healthy))
    }

    #[test]
    fn injection_hits_the_requested_fraction() {
        let mut r = StdRng::seed_from_u64(3);
        let mut pop = population(&mut r);
        let affected = inject(&mut pop, FaultScenario::oversubscribed_node(), &mut r);
        let frac = affected.len() as f64 / pop.len() as f64;
        assert!((0.12..0.28).contains(&frac), "affected fraction {frac}");
    }

    #[test]
    fn affected_homes_measure_far_below_plan() {
        let mut r = StdRng::seed_from_u64(5);
        let mut cfg = CityConfig::at_scale(City::A, 0.001);
        cfg.ookla_tests = 2000;
        let mut pop = Population::generate(&cfg.catalog, &tier_weights(City::A), 500, &mut r);
        let affected = inject(&mut pop, FaultScenario::oversubscribed_node(), &mut r);
        assert!(!affected.is_empty());
        let tests = generate_ookla(&cfg, &pop, &mut r);
        let (ma, mh) = cohort_medians(
            &tests,
            &cfg,
            &affected,
            |m| m.down_mbps,
            |cfg, t| cfg.catalog.plan(t).unwrap().down.0,
        );
        assert!(ma < mh * 0.7, "affected median {ma} should sit far below healthy {mh}");
    }

    #[test]
    fn uploads_survive_a_downstream_fault() {
        // The oversubscribed-node scenario keeps upstream ~intact, so BST
        // still has a clean upload axis to cluster on.
        let mut r = StdRng::seed_from_u64(7);
        let mut cfg = CityConfig::at_scale(City::A, 0.001);
        cfg.ookla_tests = 1500;
        let mut pop = Population::generate(&cfg.catalog, &tier_weights(City::A), 400, &mut r);
        let affected = inject(&mut pop, FaultScenario::oversubscribed_node(), &mut r);
        let tests = generate_ookla(&cfg, &pop, &mut r);
        let caps = [5.0, 10.0, 15.0, 35.0];
        let near = tests
            .iter()
            .filter(|m| affected.contains(&m.user_id))
            .filter(|m| caps.iter().any(|c| (m.up_mbps - c).abs() / c < 0.35))
            .count();
        let total = tests.iter().filter(|m| affected.contains(&m.user_id)).count();
        assert!(total > 30);
        assert!(near as f64 / total as f64 > 0.5, "{near}/{total} affected uploads near caps");
    }

    #[test]
    fn degraded_plant_hits_both_directions() {
        let mut r = StdRng::seed_from_u64(17);
        let mut cfg = CityConfig::at_scale(City::A, 0.001);
        cfg.ookla_tests = 3000;
        let mut pop = Population::generate(&cfg.catalog, &tier_weights(City::A), 600, &mut r);
        let affected = inject(&mut pop, FaultScenario::degraded_plant(), &mut r);
        let tests = generate_ookla(&cfg, &pop, &mut r);
        let (down_a, down_h) = cohort_medians(
            &tests,
            &cfg,
            &affected,
            |m| m.down_mbps,
            |cfg, t| cfg.catalog.plan(t).unwrap().down.0,
        );
        let (up_a, up_h) = cohort_medians(
            &tests,
            &cfg,
            &affected,
            |m| m.up_mbps,
            |cfg, t| cfg.catalog.plan(t).unwrap().up.0,
        );
        assert!(
            down_a < down_h * 0.85,
            "plant fault must degrade downstream: {down_a} vs {down_h}"
        );
        assert!(up_a < up_h * 0.8, "plant fault must degrade upstream: {up_a} vs {up_h}");
    }

    #[test]
    fn misprovisioned_upstream_spares_downstream() {
        let mut r = StdRng::seed_from_u64(19);
        let mut cfg = CityConfig::at_scale(City::A, 0.001);
        cfg.ookla_tests = 3000;
        let mut pop = Population::generate(&cfg.catalog, &tier_weights(City::A), 600, &mut r);
        let affected = inject(&mut pop, FaultScenario::misprovisioned_upstream(), &mut r);
        let tests = generate_ookla(&cfg, &pop, &mut r);
        let (down_a, down_h) = cohort_medians(
            &tests,
            &cfg,
            &affected,
            |m| m.down_mbps,
            |cfg, t| cfg.catalog.plan(t).unwrap().down.0,
        );
        let (up_a, up_h) = cohort_medians(
            &tests,
            &cfg,
            &affected,
            |m| m.up_mbps,
            |cfg, t| cfg.catalog.plan(t).unwrap().up.0,
        );
        assert!(up_a < up_h * 0.6, "upstream fault must crush uploads: {up_a} vs {up_h}");
        assert!(down_a > down_h * 0.8, "downstream should stay near plan: {down_a} vs {down_h}");
    }

    #[test]
    fn zero_fraction_is_a_no_op() {
        let mut r = StdRng::seed_from_u64(11);
        let mut pop = population(&mut r);
        let before: Vec<f64> = pop.users().iter().map(|u| u.access.overprovision).collect();
        let scenario = FaultScenario {
            affected_fraction: 0.0,
            down_capacity_factor: 0.1,
            up_capacity_factor: 0.1,
        };
        let affected = inject(&mut pop, scenario, &mut r);
        assert!(affected.is_empty());
        let after: Vec<f64> = pop.users().iter().map(|u| u.access.overprovision).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "capacity factors must be positive")]
    fn zero_capacity_factor_rejected() {
        let mut r = StdRng::seed_from_u64(13);
        let mut pop = population(&mut r);
        let _ = inject(
            &mut pop,
            FaultScenario {
                affected_fraction: 0.1,
                down_capacity_factor: 0.0,
                up_capacity_factor: 1.0,
            },
            &mut r,
        );
    }

    fn campaign(seed: u64, n: usize) -> Vec<Measurement> {
        let mut r = StdRng::seed_from_u64(seed);
        let mut cfg = CityConfig::at_scale(City::A, 0.001);
        cfg.ookla_tests = n;
        let pop = Population::generate(&cfg.catalog, &tier_weights(City::A), 300, &mut r);
        generate_ookla(&cfg, &pop, &mut r)
    }

    #[test]
    fn dirty_injection_rate_and_labels_line_up() {
        let mut tests = campaign(23, 4000);
        let before = tests.len();
        let scenario = DirtyScenario::with_total_rate(0.1);
        let labels = inject_dirty(&mut tests, &scenario, 99);
        let frac = labels.len() as f64 / before as f64;
        assert!((0.06..0.16).contains(&frac), "dirty fraction {frac}");
        // Every kind occurs at a 2% rate over 4000 records.
        for kind in DirtyKind::all() {
            let n = labels.iter().filter(|l| l.kind == kind).count();
            assert!(n > 20, "{kind:?} occurred only {n} times");
        }
        // Labels point at the records they describe.
        for l in &labels {
            assert_eq!(tests[l.index].id, l.id, "label {l:?} mismatched");
        }
        // Duplicates really are appended copies of an earlier submission.
        let dup = labels.iter().find(|l| l.kind == DirtyKind::Duplicate && l.index >= before);
        let dup = dup.expect("at least one appended duplicate");
        assert!(tests[..before].iter().any(|m| m.id == dup.id));
    }

    #[test]
    fn dirty_injection_is_deterministic() {
        let scenario = DirtyScenario::with_total_rate(0.08);
        let mut a = campaign(29, 2000);
        let mut b = a.clone();
        let la = inject_dirty(&mut a, &scenario, 7);
        let lb = inject_dirty(&mut b, &scenario, 7);
        assert_eq!(la, lb);
        assert_eq!(a.len(), b.len());
        // NaN fields break Vec equality; compare ids + days instead.
        let key = |v: &[Measurement]| v.iter().map(|m| (m.id, m.day, m.hour)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn zero_dirty_rate_is_a_no_op() {
        let mut tests = campaign(31, 500);
        let before = tests.clone();
        let labels = inject_dirty(&mut tests, &DirtyScenario::with_total_rate(0.0), 3);
        assert!(labels.is_empty());
        assert_eq!(tests, before);
    }

    #[test]
    #[should_panic(expected = "total dirty rate must be in [0, 1]")]
    fn overfull_dirty_rate_rejected() {
        let _ = DirtyScenario::with_total_rate(1.5);
    }
}
