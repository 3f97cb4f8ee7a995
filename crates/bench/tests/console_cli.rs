//! CLI contract for the `console` binary: the shared usage exit code
//! (2) for malformed invocations — including an unreadable
//! `--baseline`, matching `obs-diff` — exit 1 on drift, exit 0 on a
//! clean run, and a headless smoke against a live query listener
//! proving the two-pane frame contract end to end over real TCP.

use st_bench::ledger::{append_ledger, LedgerRow, LEDGER_SCHEMA};
use st_obs::Registry;
use st_serve::{ContextService, PartitionSpec, QueryServer, ServeOptions};
use st_speedtest::{Access, Measurement, Platform};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

fn console(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_console")).args(args).output().expect("console runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st-console-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sample_row() -> LedgerRow {
    LedgerRow {
        schema: LEDGER_SCHEMA.to_string(),
        mode: "repro".to_string(),
        scale: 0.004,
        seed: 2024,
        parallelism: 1,
        chunk_rows: None,
        seal_rows: None,
        epoch_rows: None,
        chunks: 0,
        rows: 0,
        segments: 0,
        epochs: 0,
        artifact_hash: "0e774be692875897".to_string(),
        artifact_files: 89,
        artifacts: 89,
        headlines: 4,
        jobs_failed: 0,
        jobs_retried: 0,
        records_clean: 4000,
        records_repaired: 120,
        records_quarantined: 30,
        generate_s: 0.5,
        ingest_s: 0.0,
        fit_s: 0.2,
        derive_s: 0.1,
        render_s: 0.3,
        rows_per_s: 0.0,
        peak_rss_kib: Some(40_000),
    }
}

#[test]
fn malformed_invocations_exit_with_the_usage_code() {
    let cases: &[&[&str]] = &[
        &[],                                   // no feed at all
        &["--ledger", "x", "--frames", "0"],   // zero frames
        &["--ledger", "x", "--frames"],        // missing value
        &["--ledger", "x", "--width", "nope"], // garbage value
        &["--connect"],                        // missing value
        &["--ledger", "x", "--bogus"],         // unknown flag
    ];
    for args in cases {
        let out = console(args);
        assert_eq!(out.status.code(), Some(2), "console {args:?} must exit 2");
        assert!(!out.stderr.is_empty(), "console {args:?} explains itself on stderr");
    }

    let help = console(&["--help"]);
    assert_eq!(help.status.code(), Some(0), "--help is not an error");
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage:"));
}

#[test]
fn unreadable_or_rowless_baseline_is_a_usage_error() {
    let dir = temp_dir("baseline");
    let missing = console(&[
        "--ledger",
        "whatever.jsonl",
        "--baseline",
        dir.join("nope.jsonl").to_str().unwrap(),
        "--headless",
        "--frames",
        "1",
    ]);
    assert_eq!(missing.status.code(), Some(2), "missing baseline file");

    // A baseline with no batch-comparable row (e.g. only a load row)
    // cannot anchor a comparison either.
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, format!("{{\"schema\":\"{LEDGER_SCHEMA}\",\"mode\":\"wire-load\"}}\n"))
        .unwrap();
    let rowless = console(&[
        "--ledger",
        "whatever.jsonl",
        "--baseline",
        empty.to_str().unwrap(),
        "--headless",
        "--frames",
        "1",
    ]);
    assert_eq!(rowless.status.code(), Some(2), "row-less baseline file");
    let _ = std::fs::remove_dir_all(&dir);
}

fn m(id: u64) -> Measurement {
    Measurement {
        id,
        user_id: id,
        platform: Platform::AndroidApp,
        city: 0,
        day: 10,
        hour: 12,
        down_mbps: 100.0,
        up_mbps: 10.0,
        rtt_ms: 20.0,
        loaded_rtt_ms: 40.0,
        access: Access::Ethernet,
        kernel_memory_gb: None,
        truth_tier: None,
    }
}

#[test]
fn headless_console_observes_a_live_server_and_flags_drift() {
    let dir = temp_dir("smoke");
    let ledger = dir.join("BENCH_ledger.jsonl");
    let clean_baseline = dir.join("baseline.jsonl");
    let drifted_baseline = dir.join("perturbed.jsonl");

    let row = sample_row();
    append_ledger(&ledger, &row).unwrap();
    append_ledger(&clean_baseline, &row).unwrap();
    let mut perturbed = sample_row();
    perturbed.seed = 99;
    perturbed.records_quarantined += 5;
    perturbed.artifact_hash = "ffffffffffffffff".to_string();
    append_ledger(&drifted_baseline, &perturbed).unwrap();

    // A tiny live service: one city, 12 accepted rows, epoch 1.
    let service = Arc::new(ContextService::new(
        vec![PartitionSpec::city("City-A")],
        ServeOptions { seal_rows: 8, epoch_rows: 10, warm: None },
        Registry::new(),
    ));
    service.ingest_chunk("City-A", "ookla", (0..12).map(m).collect()).unwrap();
    let server = QueryServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();

    let clean = console(&[
        "--connect",
        &addr,
        "--ledger",
        ledger.to_str().unwrap(),
        "--baseline",
        clean_baseline.to_str().unwrap(),
        "--headless",
        "--frames",
        "2",
        "--interval-ms",
        "50",
    ]);
    assert_eq!(clean.status.code(), Some(0), "clean baseline exits 0: {clean:?}");
    let text = String::from_utf8(clean.stdout).unwrap();
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert!(line.starts_with("D|") || line.starts_with("W|"), "unclassed line {line:?}");
    }
    assert!(text.contains("st-console frame 2"), "renders the requested frame count");
    assert!(text.contains("drift: clean"), "clean baseline renders as clean:\n{text}");
    let pane: Vec<&str> = text.lines().filter(|l| l.starts_with("D|")).collect();
    assert!(
        pane.iter().any(|l| l.contains("epoch 1") && l.contains("ingesting")),
        "live feed reaches the deterministic pane: {pane:?}"
    );
    assert!(
        pane.iter().any(|l| l.contains("City-A 12")),
        "status poll fills the city panel: {pane:?}"
    );
    assert!(
        pane.iter().any(|l| l.contains("clean 12")),
        "metrics poll fills the outcome totals: {pane:?}"
    );
    assert!(
        pane.iter().any(|l| l.contains("run: repro scale") && l.contains("seed 2024")),
        "ledger tail fills the run identity: {pane:?}"
    );

    let drifted = console(&[
        "--connect",
        &addr,
        "--ledger",
        ledger.to_str().unwrap(),
        "--baseline",
        drifted_baseline.to_str().unwrap(),
        "--headless",
        "--frames",
        "1",
    ]);
    assert_eq!(drifted.status.code(), Some(1), "drifted baseline exits 1: {drifted:?}");
    let text = String::from_utf8(drifted.stdout).unwrap();
    assert!(text.contains("drift: 3 flag(s)"), "seed, quarantine count, hash flags:\n{text}");
    assert!(text.contains("!! seed:"), "drift drill-down rendered:\n{text}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_lines_are_errors_not_stack_overflows() {
    let dir = temp_dir("deep");
    let deep = format!("{}\n", "[".repeat(200_000));
    for (bad, why) in [("{bad\n", "expected"), (deep.as_str(), "nesting deeper than 128")] {
        let ledger = dir.join("BENCH_ledger.jsonl");
        std::fs::write(&ledger, bad).unwrap();
        let path = ledger.to_str().unwrap();
        let out = console(&["--ledger", path, "--headless", "--frames", "1", "--width", "300"]);
        assert_eq!(out.status.code(), Some(0), "a bad row is a note, not a crash: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("note: ledger:") && text.contains("bad ledger row"), "{text}");
        assert!(text.contains(why), "{text}");
    }

    let metrics = dir.join("deep.json");
    std::fs::write(&metrics, &deep).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_obs-diff"))
        .args([&metrics, &metrics])
        .output()
        .expect("obs-diff runs");
    assert_eq!(out.status.code(), Some(2), "unparseable input is a usage error: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("nesting deeper than 128"), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
