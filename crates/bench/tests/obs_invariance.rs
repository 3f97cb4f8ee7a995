//! Parallelism-invariance suite for the observability layer (DESIGN.md
//! §"Observability").
//!
//! The deterministic metric class carries the same contract as the
//! artifacts: byte-identical at every parallelism level, because every
//! worker records into its own sub-registry and the coordinators merge
//! them in fixed city/job order. The wall-clock class (span durations)
//! is explicitly exempt. Observation must also be read-only — enabling
//! the registry must not change a single artifact byte.

use st_bench::{render_health, render_metrics, run, Feed, IngestOptions, ReproReport, RunOptions};
use st_datagen::DirtyScenario;
use st_obs::{MetricsSnapshot, Registry};

const SCALE: f64 = 0.004;
const SEED: u64 = 2024;

fn observed_run(
    parallelism: usize,
    dirty: Option<&DirtyScenario>,
    fail_jobs: &[&str],
) -> (ReproReport, MetricsSnapshot) {
    let obs = Registry::new();
    let opts = RunOptions {
        fail_jobs: fail_jobs.iter().map(|s| s.to_string()).collect(),
        dirty: dirty.copied(),
        ..RunOptions::new(SCALE, SEED, parallelism)
    };
    let report = run(&opts, Feed::Chunks(IngestOptions::WHOLE), &obs).unwrap().report;
    let snapshot = obs.snapshot();
    (report, snapshot)
}

#[test]
fn deterministic_metrics_are_byte_identical_across_parallelism() {
    let (r1, p1) = observed_run(1, None, &[]);
    let (r4, p4) = observed_run(4, None, &[]);

    // The equality must not be vacuous: the pipeline really recorded.
    assert!(
        p1.deterministic.counters.len() > 20,
        "suspiciously few counters: {:?}",
        p1.deterministic.counters.keys().collect::<Vec<_>>()
    );
    assert!(!p1.deterministic.gauges.is_empty());
    assert!(!p1.deterministic.series.is_empty(), "no EM trajectories recorded");
    assert!(!p1.wall_clock.spans.is_empty());

    assert_eq!(
        p1.deterministic_json(),
        p4.deterministic_json(),
        "deterministic metric section diverged between parallelism 1 and 4"
    );
    // The rendered `## Metrics` section inherits the same contract.
    assert_eq!(render_metrics(&p1.deterministic), render_metrics(&p4.deterministic));
    // Span *keys* are deterministic too (same tree, different durations).
    let keys = |s: &MetricsSnapshot| s.wall_clock.spans.keys().cloned().collect::<Vec<_>>();
    assert_eq!(keys(&p1), keys(&p4));
    // And the timings kept flowing out of the span tree on both runs.
    assert!(r1.timings.render_s > 0.0);
    assert!(r4.timings.render_s > 0.0);
}

#[test]
fn deterministic_metrics_survive_dirty_data_and_degraded_jobs() {
    let dirty = DirtyScenario::with_total_rate(0.02);
    let (r1, p1) = observed_run(1, Some(&dirty), &["fig10"]);
    let (r4, p4) = observed_run(4, Some(&dirty), &["fig10"]);

    // Quarantine and degradation both left deterministic footprints.
    assert!(p1.deterministic.counters.keys().any(|k| k.starts_with("sanitize.quarantine{")));
    assert!(p1.deterministic.counters.keys().any(|k| k.starts_with("datagen.corrupted{")));
    assert_eq!(p1.deterministic.counters.get("render.jobs_failed").copied(), Some(1));
    assert!(r1.health.is_degraded() && r4.health.is_degraded());

    assert_eq!(
        p1.deterministic_json(),
        p4.deterministic_json(),
        "deterministic metric section diverged on the degraded pipeline"
    );
    assert_eq!(render_health(&r1.health), render_health(&r4.health));
}

#[test]
fn observation_is_read_only() {
    let (observed, snapshot) = observed_run(2, None, &[]);
    let opts = RunOptions::new(SCALE, SEED, 2);
    let plain =
        run(&opts, Feed::Chunks(IngestOptions::WHOLE), &Registry::disabled()).unwrap().report;

    assert!(snapshot.deterministic.counters.len() > 20);
    assert!(plain.metrics.is_none());
    assert_eq!(observed.artifacts.len(), plain.artifacts.len());
    for (o, p) in observed.artifacts.iter().zip(&plain.artifacts) {
        assert_eq!(o.id, p.id, "artifact order diverged");
        assert_eq!(o.text, p.text, "artifact {} text diverged", o.id);
        assert_eq!(o.svg, p.svg, "artifact {} svg diverged", o.id);
        assert_eq!(o.json, p.json, "artifact {} json diverged", o.id);
    }
    assert_eq!(observed.headlines, plain.headlines);
    assert_eq!(render_health(&observed.health), render_health(&plain.health));
}
