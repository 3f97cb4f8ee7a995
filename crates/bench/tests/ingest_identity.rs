//! Batch-vs-incremental identity for the ingest front-end.
//!
//! The chunked replay (`Feed::Chunks`) must reproduce the
//! pinned batch golden artifacts byte for byte — at any chunk size, any
//! seal threshold, and any parallelism. The expected hash below is the
//! same value `golden_identity.rs` pins for the batch pipeline; equality
//! here *is* the tentpole claim: sealed-segment boundaries and the chunk
//! interleave are pure functions of (seed, chunk plan) and never leak
//! into the rendered output.

use st_bench::ledger::{artifact_hash, IngestLedgerRow, INGEST_LEDGER_SCHEMA};
use st_bench::{run, Feed, IngestOptions, ReplayStats, ReproReport, RunOptions};
use st_obs::Registry;

/// The batch pipeline's pinned golden hash (see `golden_identity.rs`).
const GOLDEN_HASH: u64 = 0x0e77_4be6_9287_5897;
const GOLDEN_FILES: usize = 89;

/// Replay the golden configuration through the ingest front-end and
/// render everything.
fn ingest_run(parallelism: usize, opts: IngestOptions) -> (ReproReport, ReplayStats) {
    let run_opts = RunOptions::new(0.004, 2024, parallelism);
    let run = run(&run_opts, Feed::Chunks(opts), &Registry::new()).expect("chunk replay");
    (run.report, run.replay)
}

#[test]
fn chunked_replay_reproduces_the_batch_golden_artifacts() {
    // Small chunks, default-ish seal: many append calls per store.
    let opts = IngestOptions { chunk_rows: 500, seal_rows: 2048 };
    let (report, stats) = ingest_run(1, opts);
    let (h, n) = artifact_hash(&report.artifacts);
    assert_eq!(n, GOLDEN_FILES, "artifact file count changed under chunked ingest");
    assert_eq!(h, GOLDEN_HASH, "chunked replay diverged from the batch golden run (hash {h:#x})");
    assert!(stats.chunks > 0 && stats.rows > 0, "ingest stage saw no work: {stats:?}");
    assert!(stats.segments >= 12, "every frozen store holds at least one segment");

    // The ledger row summarizing this run must carry the golden hash in
    // its batch-comparable field.
    let row = IngestLedgerRow::from_report(&report, 1, opts.chunk_rows, opts.seal_rows, &stats);
    assert_eq!(row.schema, INGEST_LEDGER_SCHEMA);
    assert_eq!(row.artifact_hash, format!("{GOLDEN_HASH:016x}"));
    assert_eq!(row.artifact_files, GOLDEN_FILES);
    assert_eq!(row.chunks, stats.chunks);
    assert_eq!(row.rows, stats.rows);
    let json = serde_json::to_string(&row).expect("ledger row serializes");
    assert!(json.contains("\"schema\":\"st-ingest/v1\""), "{json}");
}

#[test]
fn a_different_chunk_plan_and_parallelism_hash_identically() {
    // Bigger chunks, a seal threshold small enough that the Ookla panels
    // split into several sealed segments, and a parallel coordinator —
    // the multi-segment render path must still hit the batch hash.
    let opts = IngestOptions { chunk_rows: 2048, seal_rows: 200 };
    let (report, stats) = ingest_run(4, opts);
    let (h, n) = artifact_hash(&report.artifacts);
    assert_eq!(n, GOLDEN_FILES, "artifact file count changed under chunked ingest");
    assert_eq!(
        h, GOLDEN_HASH,
        "multi-segment parallel replay diverged from the batch golden run (hash {h:#x})"
    );
    assert!(
        stats.segments > 12,
        "a 200-row seal threshold must split at least one store ({} segments)",
        stats.segments
    );
}
