//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--seed N] [--out DIR] [--parallelism P]
//!       [--dirty-rate R] [--inject-fail LABEL]... [--deadline-secs D]
//!       [--allow-degraded] [--metrics] [--baseline METRICS.json]
//!       [--wall-ratio R] [--wall-floor S]
//! ```
//!
//! Generates the four city datasets at `S` of the paper's campaign sizes
//! (default 0.05), ingests each campaign as one chunk that seals into one
//! segment (`st_bench::Feed::Chunks` at `IngestOptions::WHOLE`, the
//! chunk replay of `ingest` at its coarsest plan), fits BST, runs every
//! experiment, and writes the artifacts, `report.md` and the `BENCH_*`
//! records described in `st_bench::output` into `DIR`. `--parallelism`
//! fans every stage out over worker threads (default: all cores); output
//! is byte-identical at every parallelism level.
//!
//! `--baseline METRICS.json` diffs this run's metrics against a
//! previously written `BENCH_metrics.json` (see `obs-diff` and
//! DESIGN.md §14): the deterministic class must match exactly or the
//! run exits nonzero; wall-clock spans are compared against the
//! `--wall-ratio` tolerance (default 2.0, with a `--wall-floor` noise
//! floor, default 0.05 s) and only warn.
//!
//! The pipeline is supervised: `--dirty-rate R` corrupts a fraction `R`
//! of generated records with the dirty-measurement fault model (they are
//! repaired or quarantined by the sanitizer and accounted for in the
//! report's `## Health` section); `--inject-fail LABEL` forces the named
//! render job to panic (its artifacts degrade to a placeholder); each
//! render job gets `--deadline-secs` per attempt plus one retry. A run
//! with degraded artifacts exits 1 unless `--allow-degraded` is
//! passed — the report and surviving artifacts are written either way.
//! A run that cannot write one of its output files warns and exits 1
//! too: silently missing artifacts would poison any later baseline
//! comparison. `--help` exits 0; a malformed invocation exits 2.

use st_bench::cli::{self, CliError};
use st_bench::output::write_run;
use st_bench::{run, Feed, IngestOptions, RunOptions};
use st_datagen::DirtyScenario;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: repro [--scale S] [--seed N] [--out DIR] [--parallelism P] \
     [--dirty-rate R] [--inject-fail LABEL]... [--deadline-secs D] \
     [--allow-degraded] [--metrics] [--baseline METRICS.json] \
     [--wall-ratio R] [--wall-floor S]";

fn main() -> ExitCode {
    let mut dirty_rate = 0.0;
    let mut fail_jobs = Vec::new();
    let mut deadline_secs = 300;
    let mut allow_degraded = false;
    let parsed = cli::parse_args(std::env::args().skip(1), USAGE, "repro-out", |flag, value| {
        match flag {
            "--dirty-rate" => {
                dirty_rate = cli::parse_float_min(flag, &value()?, 0.0)?;
                if dirty_rate > 1.0 {
                    return Err(CliError::Usage(format!("{flag} must be in [0, 1]")));
                }
            }
            "--inject-fail" => fail_jobs.push(value()?),
            "--deadline-secs" => deadline_secs = cli::parse_at_least_one(flag, &value()?)?,
            "--allow-degraded" => allow_degraded = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let args = match parsed {
        Ok(a) => a,
        Err(e) => return e.report(),
    };

    eprintln!(
        "generating 4 cities at scale {} (seed {}, parallelism {}) ...",
        args.scale, args.seed, args.parallelism
    );
    let opts = RunOptions {
        deadline: Duration::from_secs(deadline_secs as u64),
        fail_jobs,
        dirty: (dirty_rate > 0.0).then(|| DirtyScenario::with_total_rate(dirty_rate)),
        ..args.run_options()
    };
    let obs = st_obs::Registry::new();
    let run =
        run(&opts, Feed::Chunks(IngestOptions::WHOLE), &obs).expect("the chunk feed cannot fail");
    write_run(&args, "repro", None, &run, &obs).exit_code(allow_degraded)
}
