//! Golden-identity check for the artifact pipeline.
//!
//! The repro pipeline's artifacts (every `<id>.svg` / `<id>.json` the
//! `repro` binary would write) must be byte-identical to the pinned
//! golden run, at every parallelism level and with or without the
//! metrics registry. The expected value is a combined FNV-1a hash
//! captured from a release run at scale 0.004, seed 2024 — the same
//! configuration the CI determinism smoke uses.

use st_bench::{
    build_analyses_par, run, run_all_par, Feed, IngestOptions, ReproReport, RunOptions,
    StageTimings,
};
use st_obs::Registry;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Combined hash of the golden run (89 artifact files, sorted by
/// filename; each file hashed as name bytes then content bytes,
/// chained).
///
/// Re-pinned for the blocked KDE kernels: the blocked accumulation
/// reassociates the kernel sums, shifting KDE-derived series by a few
/// ULPs (a file-level diff against the previous golden showed 9 790
/// float deltas across the fig04–fig18 JSONs, worst relative delta
/// 7.3e-15, no structural or SVG changes). Sequential, parallel, and
/// metrics-enabled runs all produce this hash — the parallelism-
/// invariance contract (DESIGN.md §10) is what this test enforces;
/// byte-stability across refactors is not promised.
const GOLDEN_HASH: u64 = 0x0e77_4be6_9287_5897;
const GOLDEN_FILES: usize = 89;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a report's artifact file set (every `<id>.svg` / `<id>.json`
/// the repro binary would write, minus `report.md` and the BENCH_*
/// records, which carry wall-clock values) the way the capture script
/// did.
fn report_hash(report: &ReproReport) -> (u64, usize) {
    let mut files: Vec<(String, &str)> = Vec::new();
    for a in &report.artifacts {
        if let Some(svg) = &a.svg {
            files.push((format!("{}.svg", a.id), svg));
        }
        files.push((format!("{}.json", a.id), &a.json));
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = FNV_OFFSET;
    for (name, body) in &files {
        h = fnv1a(name.as_bytes(), h);
        h = fnv1a(body.as_bytes(), h);
    }
    (h, files.len())
}

/// Reconstruct and hash the artifact file set of a plain
/// (observability-disabled) run. The library's ledger hash must agree
/// with this independent oracle.
fn artifact_hash(parallelism: usize) -> (u64, usize) {
    let (analyses, timings) = build_analyses_par(0.004, 2024, parallelism);
    let report = run_all_par(&analyses, 0.004, 2024, parallelism, timings);
    let hash = report_hash(&report);
    assert_eq!(st_bench::ledger::artifact_hash(&report.artifacts), hash, "ledger hash disagrees");
    hash
}

/// Same file set, with an **enabled** metrics registry threaded through
/// every stage.
fn observed_artifact_hash(parallelism: usize) -> (u64, usize) {
    let obs = Registry::new();
    let opts = RunOptions::new(0.004, 2024, parallelism);
    let report = run(&opts, Feed::Chunks(IngestOptions::WHOLE), &obs).expect("whole run").report;
    assert!(report.metrics.is_some(), "enabled registry must yield a snapshot");
    report_hash(&report)
}

#[test]
fn artifacts_match_the_pinned_golden_run() {
    let (h1, n1) = artifact_hash(1);
    assert_eq!(n1, GOLDEN_FILES, "artifact file count changed");
    assert_eq!(
        h1, GOLDEN_HASH,
        "sequential artifacts diverged from the pinned golden run (hash {h1:#x})"
    );
}

#[test]
fn parallel_artifacts_match_the_golden_run_too() {
    let (h4, n4) = artifact_hash(4);
    assert_eq!(n4, GOLDEN_FILES, "artifact file count changed");
    assert_eq!(
        h4, GOLDEN_HASH,
        "parallel artifacts diverged from the pinned golden run (hash {h4:#x})"
    );
}

#[test]
fn observability_does_not_change_a_single_artifact_byte() {
    // Observation is read-only: the metrics registry never feeds back
    // into the computation, so an instrumented run must reproduce the
    // pre-observability golden hash exactly.
    let (h, n) = observed_artifact_hash(2);
    assert_eq!(n, GOLDEN_FILES, "artifact file count changed with metrics enabled");
    assert_eq!(
        h, GOLDEN_HASH,
        "artifacts diverged from the golden run with metrics enabled (hash {h:#x})"
    );
}

#[test]
fn derive_stage_timing_is_recorded() {
    let (_, timings) = build_analyses_par(0.004, 2024, 2);
    assert!(timings.derive_s >= 0.0);
    // The field must survive serialization so BENCH_timings.json carries
    // the new stage.
    let t = StageTimings { derive_s: 0.25, ..timings };
    let json = serde_json::to_string(&t).unwrap();
    assert!(json.contains("\"derive_s\":0.25"), "{json}");
}
