//! Automated paper-vs-measured shape verification.
//!
//! Each [`Claim`] encodes one qualitative result of the paper as a
//! machine-checkable predicate over the generated analyses, together with
//! the paper's reference value. The repro binary evaluates all of them and
//! prints a pass/fail table, so every regeneration self-audits against the
//! paper instead of relying on a human diff of EXPERIMENTS.md.

use st_analysis::{fig01, fig02, fig08, fig09, fig10, fig11, fig12, fig13, table2, CityAnalysis};

/// One checked claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short id ("fig09b-band-gap").
    pub id: String,
    /// What the paper says.
    pub paper: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the shape holds.
    pub holds: bool,
}

fn claim(id: &str, paper: &str, measured: String, holds: bool) -> Claim {
    Claim { id: id.into(), paper: paper.into(), measured, holds }
}

/// Evaluate every shape claim against the four generated city analyses
/// (City-A first, as in [`crate::run`]).
pub fn check_all(analyses: &[CityAnalysis]) -> Vec<Claim> {
    assert_eq!(analyses.len(), 4, "need all four cities");
    let a = &analyses[0];
    let mut out = Vec::new();

    // Fig. 1 — contextualization spreads the median severalfold.
    let f1 = fig01::run(a);
    if f1.medians.len() >= 3 {
        let (overall, tier1) = (f1.medians[0], f1.medians[1]);
        let ethernet = *f1.medians.last().expect("non-empty");
        out.push(claim(
            "fig01-tier1-below-overall",
            "lowest tier median ~6x below the city median",
            format!("{:.1}x below", overall / tier1),
            overall / tier1 > 2.0,
        ));
        out.push(claim(
            "fig01-ethernet-above-overall",
            "top-tier Ethernet median ~7x above the city median",
            format!("{:.1}x above", ethernet / overall),
            ethernet / overall > 3.0,
        ));
    }

    // Fig. 2 — uploads are more consistent than downloads.
    let f2 = fig02::run(a);
    if f2.medians.len() == 2 {
        out.push(claim(
            "fig02-upload-consistency",
            "consistency medians: download 0.58, upload 0.87",
            format!("download {:.2}, upload {:.2}", f2.medians[0], f2.medians[1]),
            f2.medians[1] > f2.medians[0] + 0.05,
        ));
    }

    // Table 2 — BST accuracy > 96% on every state panel.
    let refs: Vec<&CityAnalysis> = analyses.iter().collect();
    let (_, stats) = table2::run(&refs);
    for s in &stats {
        out.push(claim(
            &format!("table2-{}", s.state.to_lowercase()),
            "upload-tier accuracy > 96%",
            format!("{:.2}%", s.upload_accuracy * 100.0),
            s.upload_accuracy > 0.96,
        ));
    }

    // Fig. 8 — α skews to 1.
    let f8 = fig08::run(a);
    if let Some(m) = f8.medians.first() {
        out.push(claim(
            "fig08-alpha-median",
            "per-user-month α median = 1.0",
            format!("{m:.2}"),
            *m >= 0.9,
        ));
    }

    // Fig. 9 — the four local-factor orderings.
    let panels = fig09::run(a);
    if panels[0].medians.len() == 2 {
        out.push(claim(
            "fig09a-ethernet-vs-wifi",
            "Ethernet median ~2.5x the WiFi median (0.71 vs 0.28)",
            format!("{:.1}x", panels[0].medians[1] / panels[0].medians[0]),
            panels[0].medians[1] > panels[0].medians[0] * 1.5,
        ));
    }
    if panels[1].medians.len() == 2 {
        out.push(claim(
            "fig09b-band-gap",
            "5 GHz median ~3.6x the 2.4 GHz median (0.40 vs 0.11)",
            format!("{:.1}x", panels[1].medians[1] / panels[1].medians[0]),
            panels[1].medians[1] > panels[1].medians[0] * 1.5,
        ));
    }
    if panels[2].medians.len() >= 3 {
        let worst = *panels[2].medians.last().expect("non-empty");
        let best =
            panels[2].medians[..panels[2].medians.len() - 1].iter().cloned().fold(0.0f64, f64::max);
        out.push(claim(
            "fig09c-rssi-gap",
            "worst RSSI bin >2x below the best (0.20 vs 0.49+)",
            format!("{:.1}x", best / worst),
            best > worst * 1.5,
        ));
    }
    if panels[3].medians.len() >= 2 {
        let low = panels[3].medians[0];
        let high = *panels[3].medians.last().expect("non-empty");
        out.push(claim(
            "fig09d-memory-gap",
            "<2 GB bin ~3x below >6 GB bin (0.16 vs 0.53)",
            format!("{:.1}x", high / low),
            high > low * 1.2,
        ));
    }

    // Fig. 10 — the bottlenecked majority.
    let (f10, shares) = fig10::run(a);
    out.push(claim(
        "fig10-bottleneck-majority",
        "61% of Android tests face a local bottleneck",
        format!("{:.0}%", shares.local_bottleneck_share * 100.0),
        shares.local_bottleneck_share > 0.5,
    ));
    if f10.medians.len() == 2 {
        out.push(claim(
            "fig10-median-gap",
            "Best median >2x the bottlenecked median (0.52 vs 0.22)",
            format!("{:.1}x", f10.medians[0] / f10.medians[1]),
            f10.medians[0] > f10.medians[1] * 1.4,
        ));
    }

    // Fig. 11 — diurnal volume shape.
    let (vol, _) = fig11::run(a);
    let night_quietest = vol.groups.iter().all(|g| {
        let p: Vec<f64> = g.points.iter().map(|(_, v)| *v).collect();
        p.iter().sum::<f64>() == 0.0 || (p[0] < p[2] && p[0] < p[3])
    });
    out.push(claim(
        "fig11-night-quietest",
        "smallest test share at night, largest afternoon/evening, all tiers",
        if night_quietest { "holds for every tier group" } else { "violated" }.into(),
        night_quietest,
    ));

    // Fig. 12 — time of day is marginal (medians and KS).
    let f12 = fig12::run_default(a);
    let max_spread = f12
        .iter()
        .map(|p| {
            let lo = p.medians.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = p.medians.iter().cloned().fold(0.0f64, f64::max);
            hi - lo
        })
        .fold(0.0f64, f64::max);
    out.push(claim(
        "fig12-marginal-medians",
        "per-bin medians within ~0.08 of each other (e.g. 0.53 vs 0.45)",
        format!("max spread {max_spread:.3}"),
        max_spread < 0.15,
    ));
    let ks = fig12::ks_summary(a, &[1, 2]);
    let max_ks = ks.iter().map(|k| k.max_ks).fold(0.0f64, f64::max);
    out.push(claim(
        "fig12-marginal-ks",
        "no large distribution shift between time bins",
        format!("max pairwise KS {max_ks:.3}"),
        max_ks < 0.2,
    ));

    // Fig. 13 — the vendor gap.
    let (_, gaps) = fig13::run(a);
    let all_lag = gaps.iter().all(|g| g.ookla_median >= g.mlab_median * 0.95);
    out.push(claim(
        "fig13-mlab-lags-everywhere",
        "M-Lab median ≤ Ookla median in every tier group",
        if all_lag { "holds in every group" } else { "violated" }.into(),
        all_lag,
    ));
    let max_ratio = gaps.iter().map(|g| g.ratio).fold(0.0f64, f64::max);
    out.push(claim(
        "fig13-max-gap",
        "largest median gap ≈ 2x (Tier 4)",
        format!("{max_ratio:.2}x"),
        (1.3..=3.0).contains(&max_ratio),
    ));

    out
}

/// Render claims as a markdown table.
pub fn render_claims(claims: &[Claim]) -> String {
    let mut out = String::from("| claim | paper | measured | holds |\n|---|---|---|---|\n");
    for c in claims {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            c.id,
            c.paper,
            c.measured,
            if c.holds { "✅" } else { "❌" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_analyses_par;

    #[test]
    fn all_claims_hold_at_moderate_scale() {
        // The repro binary's default scale: thin per-bin subsets (e.g.
        // tier-4 night tests) need this much data to escape noise.
        let (analyses, _) = build_analyses_par(0.05, 20220707, 1);
        let claims = check_all(&analyses);
        assert!(claims.len() >= 14, "claims evaluated: {}", claims.len());
        let failed: Vec<&Claim> = claims.iter().filter(|c| !c.holds).collect();
        assert!(failed.is_empty(), "failed claims: {failed:#?}");
        let md = render_claims(&claims);
        assert!(md.contains("fig13-max-gap"));
    }
}
