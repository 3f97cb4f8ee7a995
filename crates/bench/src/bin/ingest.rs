//! Replay a campaign as an incremental chunk stream and regenerate every
//! table and figure from the segmented stores.
//!
//! ```text
//! ingest [--scale S] [--seed N] [--out DIR] [--parallelism P]
//!        [--chunk-rows C] [--seal-rows R] [--metrics]
//!        [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]
//! ```
//!
//! The batch `repro` binary wraps each sanitized campaign in one sealed
//! segment; this binary instead splits each campaign into `C`-row chunks
//! and appends them to `st_speedtest::SegmentedStore`s in a
//! seed-scheduled interleave, sanitizing incrementally per chunk and
//! sealing immutable segments every `R` accepted rows. The frozen stores
//! then flow through the same fit, derive, and render stages.
//!
//! The point of the exercise is the identity it proves: the artifact set
//! written here is byte-identical to a batch `repro` run at the same
//! scale and seed — for any chunk size, any seal threshold, and any
//! parallelism. The appended `BENCH_ledger.jsonl` row (mode `ingest`)
//! carries the artifact hash plus chunk/segment counts and ingest
//! throughput, so the identity is checkable straight from the ledger: an
//! ingest row and a batch row with equal `artifact_hash` produced the
//! same bytes.
//!
//! Outputs, `--baseline` and exit codes are `repro`'s (the shared
//! `st_bench::output` writer and `st_bench::cli` parser), except that a
//! degraded render always fails the run.

use st_bench::cli;
use st_bench::output::{write_run, ChunkPlan};
use st_bench::{run, Feed, IngestOptions};
use std::process::ExitCode;

const USAGE: &str = "usage: ingest [--scale S] [--seed N] [--out DIR] [--parallelism P] \
     [--chunk-rows C] [--seal-rows R] [--metrics] \
     [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]";

fn main() -> ExitCode {
    let mut plan = IngestOptions::default();
    let parsed = cli::parse_args(std::env::args().skip(1), USAGE, "ingest-out", |flag, value| {
        match flag {
            "--chunk-rows" => plan.chunk_rows = cli::parse_at_least_one(flag, &value()?)?,
            "--seal-rows" => plan.seal_rows = cli::parse_at_least_one(flag, &value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let args = match parsed {
        Ok(a) => a,
        Err(e) => return e.report(),
    };

    eprintln!(
        "replaying 4 cities at scale {} (seed {}, parallelism {}, chunks of {}, seal at {}) ...",
        args.scale, args.seed, args.parallelism, plan.chunk_rows, plan.seal_rows
    );
    let obs = st_obs::Registry::new();
    let run =
        run(&args.run_options(), Feed::Chunks(plan), &obs).expect("the chunk feed cannot fail");
    let r = &run.replay;
    eprintln!(
        "ingested {} rows in {} chunks ({} segments sealed) in {:.1}s",
        r.rows, r.chunks, r.segments, r.ingest_s
    );
    let chunk_plan = ChunkPlan { ingest: plan, epoch_rows: None };
    // A degraded replay always fails: no --allow-degraded here.
    write_run(&args, "ingest", Some(chunk_plan), &run, &obs).exit_code(false)
}
