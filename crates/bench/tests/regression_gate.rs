//! The metrics regression gate end to end (DESIGN.md §14): snapshots of
//! the same (scale, seed) at different parallelism must diff clean, a
//! perturbed snapshot must be flagged as deterministic drift, the
//! `obs-diff` binary must map those outcomes onto exit codes 0/1/2, and
//! the run ledger must accumulate parseable parallelism-invariant rows.

use serde_json::Value;
use st_bench::diff::{diff_metrics, DiffOptions, MetricsDoc};
use st_bench::ledger::{append_ledger, read_ledger, LedgerRow};
use st_bench::{run, Feed, Run, RunOptions};
use st_obs::Registry;
use std::path::PathBuf;
use std::process::Command;

/// Run the observed pipeline; return the run and the bare metrics
/// snapshot JSON (`st_obs::MetricsSnapshot::to_json`, which
/// `MetricsDoc::parse` accepts just like the repro binary's file).
fn observed_snapshot(parallelism: usize) -> (Run, String) {
    let opts = RunOptions::new(0.004, 2024, parallelism);
    let run = run(&opts, Feed::Batch(None), &Registry::new()).unwrap();
    let json = run.report.metrics.as_ref().expect("observed run carries metrics").to_json();
    (run, json)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn snapshots_diff_clean_across_parallelism_and_flag_perturbations() {
    let (run1, json1) = observed_snapshot(1);
    let (_report4, json4) = observed_snapshot(4);
    let doc1 = MetricsDoc::parse(&json1).expect("p1 snapshot parses");
    let doc4 = MetricsDoc::parse(&json4).expect("p4 snapshot parses");

    let clean = diff_metrics(&doc1, &doc4, DiffOptions::default());
    assert!(
        clean.deterministic_match(),
        "parallelism changed deterministic metrics: {:?}",
        clean.drift
    );
    assert!(clean.matched_keys > 50, "thin snapshot: {} keys", clean.matched_keys);

    // Perturb one counter, one histogram bucket, and one series value:
    // each perturbation surfaces as its own drill-down entry.
    let mut bad = doc4.clone();
    *bad.counters.get_mut("render.jobs").expect("render.jobs counter") += 1;
    let hist_key = bad.histograms.keys().next().expect("some histogram").clone();
    bad.histograms.get_mut(&hist_key).expect("histogram").overflow += 3;
    let series_key = bad.series.keys().next().expect("some series").clone();
    bad.series.get_mut(&series_key).expect("series")[0] += 0.5;

    let drifted = diff_metrics(&doc1, &bad, DiffOptions::default());
    assert!(!drifted.deterministic_match());
    assert_eq!(drifted.drift.len(), 3, "three perturbations, three entries: {:?}", drifted.drift);
    let rendered = drifted.render(&doc1, &bad);
    assert!(rendered.contains("render.jobs"), "{rendered}");
    assert!(rendered.contains("overflow"), "{rendered}");
    assert!(rendered.contains("diverges at index 0"), "{rendered}");

    // The quantiles the report prints come from the same deterministic
    // histograms, so they are parallelism-invariant too.
    let md = st_bench::render_report(&run1.report);
    assert!(md.contains("p50=") && md.contains("p90=") && md.contains("p99="), "{md}");
}

#[test]
fn obs_diff_binary_maps_outcomes_to_exit_codes() {
    let dir = temp_dir("cli");
    let base = r#"{
  "schema": "st-obs/v1",
  "deterministic": {
    "counters": { "render.jobs": 19 },
    "gauges": {},
    "histograms": {},
    "series": {}
  },
  "wall_clock": { "spans": { "fit": { "count": 1, "total_s": 1.0 } } }
}"#;
    let same = base.to_string();
    let drifted = base.replace("\"render.jobs\": 19", "\"render.jobs\": 20");
    let old_path = dir.join("old.json");
    let new_path = dir.join("new.json");
    std::fs::write(&old_path, base).expect("write old");

    let run = |new_body: Option<&str>, extra: &[&str]| {
        if let Some(body) = new_body {
            std::fs::write(&new_path, body).expect("write new");
        }
        Command::new(env!("CARGO_BIN_EXE_obs-diff"))
            .arg(&old_path)
            .arg(&new_path)
            .args(extra)
            .output()
            .expect("obs-diff runs")
    };

    let ok = run(Some(&same), &[]);
    assert_eq!(ok.status.code(), Some(0), "identical snapshots must exit 0");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("deterministic: MATCH"));

    let drift = run(Some(&drifted), &[]);
    assert_eq!(drift.status.code(), Some(1), "deterministic drift must exit 1");
    let out = String::from_utf8_lossy(&drift.stdout).to_string();
    assert!(out.contains("render.jobs: 19 -> 20 (+1)"), "{out}");

    let garbled = run(Some("not json"), &[]);
    assert_eq!(garbled.status.code(), Some(2), "parse errors must exit 2");

    std::fs::remove_file(&new_path).expect("remove new");
    let missing = run(None, &[]);
    assert_eq!(missing.status.code(), Some(2), "missing files must exit 2");

    let bad_flag = run(Some(&same), &["--wall-ratio", "0.5"]);
    assert_eq!(bad_flag.status.code(), Some(2), "usage errors must exit 2");

    let _ = std::fs::remove_file(&old_path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn ledger_rows_accumulate_and_artifact_hash_is_parallelism_invariant() {
    let dir = temp_dir("ledger");
    let path = dir.join("BENCH_ledger.jsonl");
    let _ = std::fs::remove_file(&path);

    let (run1, _) = observed_snapshot(1);
    let (run4, _) = observed_snapshot(4);
    let row1 = LedgerRow::from_run("repro", 1, None, &run1);
    let row4 = LedgerRow::from_run("repro", 4, None, &run4);
    assert_eq!(
        row1.artifact_hash, row4.artifact_hash,
        "artifact hash must not depend on parallelism"
    );
    assert_eq!(row1.artifact_files, row4.artifact_files);
    assert!(row1.jobs_failed == 0 && row1.jobs_retried == 0);

    append_ledger(&path, &row1).expect("append p1 row");
    append_ledger(&path, &row4).expect("append p4 row");
    let rows = read_ledger(&path).expect("ledger parses");
    assert_eq!(rows.len(), 2);
    for (row, parallelism) in rows.iter().zip([1u64, 4]) {
        assert_eq!(row.get("schema").and_then(Value::as_str), Some("st-ledger/v2"));
        assert_eq!(row.get("mode").and_then(Value::as_str), Some("repro"));
        assert_eq!(row.get("parallelism").and_then(Value::as_u64), Some(parallelism));
        assert_eq!(
            row.get("artifact_hash").and_then(Value::as_str),
            Some(row1.artifact_hash.as_str())
        );
        assert!(row.get("generate_s").and_then(Value::as_f64).is_some());
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
