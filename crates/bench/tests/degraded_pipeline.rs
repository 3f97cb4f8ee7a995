//! Acceptance test for the supervised repro pipeline (ISSUE: robustness):
//! with a deliberately panicking render job and 2% injected dirty
//! records, the run must complete every remaining artifact, report the
//! degradation in `## Health` with per-reason quarantine counts, and stay
//! byte-identical between `--parallelism` 1 and 4.

use st_bench::{render_health, render_report, run, Feed, IngestOptions, RunOptions};
use st_datagen::DirtyScenario;
use st_obs::Registry;

const SCALE: f64 = 0.004;
const SEED: u64 = 20220707;

fn degraded_run(parallelism: usize) -> (st_bench::ReproReport, String) {
    let opts = RunOptions {
        fail_jobs: vec!["fig08".into()],
        dirty: Some(DirtyScenario::with_total_rate(0.02)),
        ..RunOptions::new(SCALE, SEED, parallelism)
    };
    let report =
        run(&opts, Feed::Chunks(IngestOptions::WHOLE), &Registry::disabled()).unwrap().report;
    let md = render_report(&report);
    (report, md)
}

#[test]
fn degraded_run_completes_and_reports_health() {
    let (report, md) = degraded_run(2);

    // The panicking job degraded; everything else rendered.
    assert!(report.health.is_degraded());
    assert_eq!(report.health.jobs_failed, 1);
    assert_eq!(report.health.failures[0].label, "fig08");
    let ids: Vec<&str> = report.artifacts.iter().map(|a| a.id.as_str()).collect();
    assert!(ids.contains(&"degraded_fig08"), "placeholder missing: {ids:?}");
    for want in ["table1", "fig01", "fig02", "table2", "fig09a", "fig10", "table5", "table7"] {
        assert!(ids.contains(&want), "missing surviving artifact {want}");
    }

    // 2% dirty records surface as per-reason quarantine counts.
    let s = &report.health.sanitize;
    assert!(s.quarantined > 0, "dirty records must quarantine: {s:?}");
    assert!(s.repaired > 0, "clock-skewed records must be repaired: {s:?}");
    for reason in ["duplicate-id", "non-finite-throughput", "non-positive-throughput"] {
        assert!(
            s.quarantine_reasons.contains_key(reason),
            "expected quarantine reason {reason}: {:?}",
            s.quarantine_reasons
        );
    }

    // ...and all of it is in the markdown report's Health section.
    assert!(md.contains("## Health"));
    assert!(md.contains("1 failed"));
    assert!(md.contains("quarantine reasons:"));
    assert!(md.contains("duplicate-id"));
    assert!(md.contains("fig08"));
}

#[test]
fn degraded_run_is_byte_identical_across_parallelism() {
    let (seq, seq_md) = degraded_run(1);
    let (par, par_md) = degraded_run(4);

    // Quarantine counters are identical at every parallelism level.
    assert_eq!(seq.health.sanitize, par.health.sanitize);
    assert_eq!(render_health(&seq.health), render_health(&par.health));

    // Artifacts (including the placeholder) are byte-identical.
    assert_eq!(seq.artifacts.len(), par.artifacts.len());
    for (s, p) in seq.artifacts.iter().zip(&par.artifacts) {
        assert_eq!(s.id, p.id, "artifact order diverged");
        assert_eq!(s.text, p.text, "artifact {} text diverged", s.id);
        assert_eq!(s.svg, p.svg, "artifact {} svg diverged", s.id);
        assert_eq!(s.json, p.json, "artifact {} json diverged", s.id);
    }

    // The whole report matches except the wall-clock Timings section.
    let strip_timings = |md: &str| {
        let head = md.split("## Timings").next().unwrap().to_string();
        let tail = md.split("## Health").nth(1).unwrap_or("").to_string();
        head + "## Health" + &tail
    };
    assert_eq!(strip_timings(&seq_md), strip_timings(&par_md));
}
