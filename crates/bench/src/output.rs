//! What a pipeline binary writes after its run — the one output tail of
//! `repro`, `ingest` and `serve`.
//!
//! [`write_run`] writes, into `--out`:
//!
//! * `<id>.svg` / `<id>.json` for every artifact;
//! * `BENCH_timings.json` — the run's ledger row, pretty-printed: its
//!   knobs, chunk plan, replay counts, artifact hash, stage wall-clocks
//!   and peak RSS;
//! * `BENCH_metrics.json` (with `--metrics`) — the metrics snapshot: a
//!   `deterministic` section that is byte-identical at every parallelism
//!   level and a `wall_clock` section that is not (DESIGN.md §14);
//! * `BENCH_trace.json` — the span tree and lifecycle events in Chrome
//!   Trace Event Format;
//! * the same row appended to `BENCH_ledger.jsonl` (see
//!   [`crate::ledger`]);
//! * `report.md` — the report plus the paper's shape claims, also
//!   printed to stdout.
//!
//! With `--baseline` it then diffs the run's metrics against a previous
//! `BENCH_metrics.json`: deterministic drift fails the run, wall-clock
//! deltas beyond tolerance only warn. A file that cannot be written
//! warns and is counted; the run still writes everything else, and the
//! [`Outcome`] fails it.

use crate::cli::CommonArgs;
use crate::diff::{diff_metrics, MetricsDoc};
use crate::ledger::{append_ledger, peak_rss_kib, LedgerRow};
use crate::{claims, render_report, IngestOptions, Run};
use serde::Serialize;
use st_obs::Registry;
use std::path::Path;
use std::process::ExitCode;

/// The chunk plan of a replay run: what the ledger row and the trace
/// name carry beyond the shared flags.
#[derive(Debug, Clone, Copy)]
pub struct ChunkPlan {
    /// Chunk and seal sizes.
    pub ingest: IngestOptions,
    /// Accepted rows per published epoch (`serve` only).
    pub epoch_rows: Option<usize>,
}

/// How writing a run's outputs went.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Files written (artifacts, BENCH_* records, the ledger append,
    /// `report.md`).
    pub written: usize,
    /// Output files that could not be written.
    pub write_failures: usize,
    /// `--baseline` was unreadable, or its deterministic metrics drifted.
    pub baseline_failed: bool,
    /// A render job degraded to a placeholder.
    pub degraded: bool,
}

impl Outcome {
    /// Whether the run succeeded. `allow_degraded` forgives degraded
    /// render jobs, never write failures or baseline drift.
    pub fn is_success(&self, allow_degraded: bool) -> bool {
        self.write_failures == 0 && !self.baseline_failed && (allow_degraded || !self.degraded)
    }

    /// The process exit code of the run.
    pub fn exit_code(&self, allow_degraded: bool) -> ExitCode {
        if self.is_success(allow_degraded) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The `BENCH_metrics.json` schema: the run header, then the two metric
/// classes. The deterministic section is byte-identical at every
/// parallelism level; `wall_clock` (and the header's `parallelism`) is
/// excluded from that contract.
#[derive(Serialize)]
struct MetricsRecord {
    schema: &'static str,
    scale: f64,
    seed: u64,
    parallelism: usize,
    deterministic: st_obs::DeterministicMetrics,
    wall_clock: st_obs::WallClockMetrics,
}

/// Write one output file, counting it as written or failed.
fn write_file(path: &Path, contents: &str, outcome: &mut Outcome) -> bool {
    match std::fs::write(path, contents) {
        Ok(()) => {
            outcome.written += 1;
            true
        }
        Err(e) => {
            outcome.write_failures += 1;
            eprintln!("WARN: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// Write everything `run` produced (see the module docs) and diff it
/// against `--baseline`. `mode` names the binary in the ledger row, the
/// trace and progress messages; `plan` is the chunk plan of a replay
/// run. `obs` must be the enabled registry the run recorded into.
pub fn write_run(
    args: &CommonArgs,
    mode: &str,
    plan: Option<ChunkPlan>,
    run: &Run,
    obs: &Registry,
) -> Outcome {
    let report = &run.report;
    let mut outcome = Outcome { degraded: report.health.is_degraded(), ..Outcome::default() };
    let out = &args.out;
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("cannot create {}: {e}", out.display());
        outcome.write_failures += 1;
        return outcome;
    }
    for a in &report.artifacts {
        if let Some(svg) = &a.svg {
            write_file(&out.join(format!("{}.svg", a.id)), svg, &mut outcome);
        }
        write_file(&out.join(format!("{}.json", a.id)), &a.json, &mut outcome);
    }

    let row = LedgerRow {
        peak_rss_kib: peak_rss_kib(),
        ..LedgerRow::from_run(mode, args.parallelism, plan, run)
    };
    let timings_path = out.join("BENCH_timings.json");
    let timings_json = serde_json::to_string_pretty(&row).expect("ledger row serializes");
    if write_file(&timings_path, &timings_json, &mut outcome) {
        eprintln!("wrote {}", timings_path.display());
    }

    // The metrics record is always assembled (`--baseline` diffs against
    // it); the file itself is only written under `--metrics`.
    let snapshot = report.metrics.as_ref().expect("observed run carries metrics");
    let record = MetricsRecord {
        schema: snapshot.schema,
        scale: args.scale,
        seed: args.seed,
        parallelism: args.parallelism,
        deterministic: snapshot.deterministic.clone(),
        wall_clock: snapshot.wall_clock.clone(),
    };
    let metrics_json = serde_json::to_string_pretty(&record).expect("metrics serialize");
    if args.metrics {
        let metrics_path = out.join("BENCH_metrics.json");
        if write_file(&metrics_path, &metrics_json, &mut outcome) {
            eprintln!("wrote {}", metrics_path.display());
        }
    }

    // The process name leaves out parallelism: with `ts`/`dur` stripped,
    // the trace is byte-identical at every parallelism level.
    let mut process = format!("{mode} scale={} seed={}", args.scale, args.seed);
    if let Some(plan) = &plan {
        process.push_str(&format!(" chunk_rows={}", plan.ingest.chunk_rows));
        if let Some(epoch_rows) = plan.epoch_rows {
            process.push_str(&format!(" epoch_rows={epoch_rows}"));
        }
    }
    let trace_path = out.join("BENCH_trace.json");
    if write_file(&trace_path, &obs.trace().to_chrome_json(&process), &mut outcome) {
        eprintln!("wrote {}", trace_path.display());
    }

    let ledger_path = out.join("BENCH_ledger.jsonl");
    match append_ledger(&ledger_path, &row) {
        Ok(()) => {
            outcome.written += 1;
            eprintln!("appended {mode} ledger row to {}", ledger_path.display());
        }
        Err(e) => {
            outcome.write_failures += 1;
            eprintln!("WARN: cannot append to {}: {e}", ledger_path.display());
        }
    }

    let claims = claims::check_all(&run.analyses);
    let mut md = render_report(report);
    md.push_str("\n## Shape claims (paper vs this run)\n\n");
    md.push_str(&claims::render_claims(&claims));
    let holds = claims.iter().filter(|c| c.holds).count();
    md.push_str(&format!("\n{holds}/{} claims hold\n", claims.len()));
    write_file(&out.join("report.md"), &md, &mut outcome);
    println!("{md}");

    if let Some(baseline) = &args.baseline {
        outcome.baseline_failed = !baseline_matches(baseline, &metrics_json, args);
    }

    let (t, r) = (&report.timings, &run.replay);
    eprintln!(
        "generate {:.1}s | ingest {:.1}s ({:.0} rows/s) | fit {:.1}s | derive {:.1}s | render {:.1}s",
        t.generate_s,
        r.ingest_s,
        r.rows_per_s(),
        t.fit_s,
        t.derive_s,
        t.render_s
    );
    eprintln!("wrote {} files to {}", outcome.written, out.display());
    if outcome.write_failures > 0 {
        eprintln!("WRITE FAILURES: {} output files could not be written", outcome.write_failures);
    }
    if outcome.degraded {
        let h = &report.health;
        eprintln!(
            "DEGRADED: {} of {} render jobs failed ({} retried); see the report's Health section",
            h.jobs_failed, h.jobs_total, h.jobs_retried
        );
    }
    outcome
}

/// The regression gate (DESIGN.md §14): diff this run's metrics against
/// the baseline snapshot and print the diff. False when the baseline is
/// unreadable or its deterministic metrics drifted.
fn baseline_matches(baseline: &Path, metrics_json: &str, args: &CommonArgs) -> bool {
    let baseline_doc = match std::fs::read_to_string(baseline) {
        Ok(text) => match MetricsDoc::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("baseline {}: {e}", baseline.display());
                return false;
            }
        },
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", baseline.display());
            return false;
        }
    };
    let current_doc = MetricsDoc::parse(metrics_json).expect("own snapshot parses");
    let diff = diff_metrics(&baseline_doc, &current_doc, args.diff_options);
    println!("{}", diff.render(&baseline_doc, &current_doc));
    if diff.deterministic_match() {
        eprintln!(
            "baseline {}: deterministic metrics match ({} keys)",
            baseline.display(),
            diff.matched_keys
        );
        true
    } else {
        eprintln!(
            "BASELINE DRIFT: {} deterministic keys differ from {}",
            diff.drift.len(),
            baseline.display()
        );
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Feed, IngestOptions};

    #[test]
    fn an_unwritable_output_is_counted_and_fails_the_run() {
        let dir = std::env::temp_dir().join(format!("st-output-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory squats on one artifact's file name.
        std::fs::create_dir_all(dir.join("fig01.svg")).unwrap();
        let args = crate::cli::parse_args(
            ["--scale", "0.004", "--seed", "2024", "--metrics", "--out", dir.to_str().unwrap()]
                .map(String::from),
            "usage: test",
            "unused",
            |_, _| Ok(false),
        )
        .unwrap();
        let obs = Registry::new();
        let run = run(&args.run_options(), Feed::Chunks(IngestOptions::WHOLE), &obs).unwrap();

        let outcome = write_run(&args, "repro", None, &run, &obs);

        assert_eq!(outcome.write_failures, 1, "{outcome:?}");
        assert!(!outcome.degraded);
        assert!(!outcome.is_success(false) && !outcome.is_success(true));
        assert!(dir.join("fig01.svg").is_dir(), "the squatter is left alone");
        for file in [
            "fig01.json",
            "table1.json",
            "fig09a.svg",
            "report.md",
            "BENCH_timings.json",
            "BENCH_metrics.json",
            "BENCH_trace.json",
            "BENCH_ledger.jsonl",
        ] {
            assert!(dir.join(file).is_file(), "{file} was not written");
        }
        // BENCH_timings.json is the ledger row, pretty-printed.
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap();
        let row = LedgerRow::parse(read("BENCH_ledger.jsonl").trim_end()).unwrap();
        let timings = serde_json::from_str(&read("BENCH_timings.json")).unwrap();
        assert_eq!(LedgerRow::from_value(&timings).unwrap(), row);
        assert_eq!(
            (row.mode.as_str(), row.parallelism, row.chunk_rows),
            ("repro", args.parallelism, None)
        );
        if cfg!(target_os = "linux") {
            assert!(row.peak_rss_kib.is_some_and(|kib| kib > 0), "{row:?}");
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(outcome.written, files - 1, "every file but the squatter was counted");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
