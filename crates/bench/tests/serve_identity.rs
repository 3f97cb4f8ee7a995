//! Batch-vs-service identity for the long-running serve front-end.
//!
//! The serve replay (`Feed::Service`) streams the generated
//! campaigns through a running [`st_serve::ContextService`] — sharded
//! partitions, incremental sanitize, segment sealing, epoch publication
//! — and must still reproduce the pinned batch golden artifacts byte
//! for byte, at any chunk plan and any parallelism. The expected hash
//! below is the same value `golden_identity.rs` pins for the batch
//! pipeline and `ingest_identity.rs` pins for the thread-local replay;
//! equality here is the serve tentpole claim: epochs, the query API,
//! and the service's locks are pure observation machinery that never
//! leaks into the rendered output.

use st_bench::ledger::{artifact_hash, LedgerRow, LEDGER_SCHEMA};
use st_bench::output::ChunkPlan;
use st_bench::{make_warm_renderer, run, Feed, IngestOptions, Run, RunOptions};
use st_obs::Registry;
use st_serve::{dispatch, ContextService, PartitionSpec, ServeOptions};
use std::sync::Arc;

/// The batch pipeline's pinned golden hash (see `golden_identity.rs`).
const GOLDEN_HASH: u64 = 0x0e77_4be6_9287_5897;
const GOLDEN_FILES: usize = 89;

/// Replay the golden configuration through a running service, drain,
/// render everything, and publish the final epoch — the full serve
/// lifecycle minus the TCP listener.
fn serve_run(
    parallelism: usize,
    chunk_rows: usize,
    seal_rows: usize,
    epoch_rows: usize,
    warm: bool,
) -> (Run, u64, Arc<ContextService>) {
    let obs = Registry::new();
    let mut specs: Vec<PartitionSpec> =
        st_datagen::City::all().iter().map(|c| PartitionSpec::city(c.label())).collect();
    specs.push(PartitionSpec::wire());
    let service = Arc::new(ContextService::new(
        specs,
        ServeOptions { seal_rows, epoch_rows, warm: warm.then(|| make_warm_renderer(0.004, 2024)) },
        obs.clone(),
    ));
    let feed = Feed::Service { service: &service, chunk_rows };
    let run =
        run(&RunOptions::new(0.004, 2024, parallelism), feed, &obs).expect("serve replay succeeds");
    let report = &run.report;
    let (hash, files) = artifact_hash(&report.artifacts);
    let final_epoch = service
        .publish_final(
            &report.health.sanitize,
            report.headlines.clone(),
            vec![],
            Some(format!("{hash:016x}")),
            files as u64,
        )
        .expect("final epoch publishes after drain");
    (run, final_epoch, service)
}

#[test]
fn service_replay_reproduces_the_batch_golden_artifacts() {
    // Small chunks, mid seal, epochs frequent enough to publish several
    // warm snapshots; single coordinator thread.
    let (mut run, final_epoch, service) = serve_run(1, 500, 2048, 1500, false);
    let stats = run.replay;
    let (h, n) = artifact_hash(&run.report.artifacts);
    assert_eq!(n, GOLDEN_FILES, "artifact file count changed under the serve path");
    assert_eq!(h, GOLDEN_HASH, "service replay diverged from the batch golden run (hash {h:#x})");
    assert!(stats.chunks > 0 && stats.rows > 0, "serve stage saw no work: {stats:?}");
    assert!(stats.segments >= 12, "every frozen store holds at least one segment");

    // Epoch arithmetic: warm epochs are a pure function of the accepted
    // total, and the final epoch is exactly one more.
    let snap = service.current_epoch();
    assert!(snap.final_epoch);
    assert_eq!(stats.epochs, snap.accepted_rows / 1500, "warm epochs = floor(accepted / E)");
    assert_eq!(final_epoch, stats.epochs + 1);
    assert_eq!(snap.epoch, final_epoch);
    assert_eq!(snap.artifact_hash.as_deref(), Some(format!("{GOLDEN_HASH:016x}").as_str()));
    assert_eq!(snap.artifact_files, GOLDEN_FILES as u64);

    // The query API answers from the final snapshot.
    let (resp, _) = dispatch(&service, "{\"cmd\":\"status\"}");
    assert!(resp.contains("\"final_epoch\":true"), "{resp}");
    assert!(resp.contains("\"drained\":true"), "{resp}");

    // The ledger row summarizing this run carries the golden hash in
    // its batch-comparable field, and counts the final epoch as the
    // `serve` binary does: by setting it on the run before writing.
    run.replay.epochs = final_epoch;
    let plan = ChunkPlan {
        ingest: IngestOptions { chunk_rows: 500, seal_rows: 2048 },
        epoch_rows: Some(1500),
    };
    let row = LedgerRow::from_run("serve", 1, Some(plan), &run);
    assert_eq!((row.schema.as_str(), row.mode.as_str()), (LEDGER_SCHEMA, "serve"));
    assert_eq!(row.artifact_hash, format!("{GOLDEN_HASH:016x}"));
    assert_eq!(row.artifact_files, GOLDEN_FILES);
    assert_eq!(row.epochs, final_epoch);
    assert_eq!(
        (row.chunk_rows, row.seal_rows, row.epoch_rows),
        (Some(500), Some(2048), Some(1500))
    );
    assert_eq!(row.chunks, stats.chunks);
    assert_eq!(row.rows, stats.rows);
    let json = serde_json::to_string(&row).expect("ledger row serializes");
    assert!(json.contains("\"schema\":\"st-ledger/v2\",\"mode\":\"serve\""), "{json}");
}

#[test]
fn a_different_chunk_plan_parallel_coordinator_and_warm_fits_hash_identically() {
    // Bigger chunks, a seal threshold small enough to split every store
    // into several sealed segments, four ingest workers hammering the
    // shared service concurrently, and the real warm renderer fitting
    // prefix models at every epoch crossing — none of it may perturb
    // the final artifacts.
    let (Run { report, replay: stats, .. }, final_epoch, service) =
        serve_run(4, 2048, 200, 2000, true);
    let (h, n) = artifact_hash(&report.artifacts);
    assert_eq!(n, GOLDEN_FILES, "artifact file count changed under the serve path");
    assert_eq!(
        h, GOLDEN_HASH,
        "parallel multi-segment serve replay diverged from the batch golden run (hash {h:#x})"
    );
    assert!(
        stats.segments > 12,
        "a 200-row seal threshold must split at least one store ({} segments)",
        stats.segments
    );
    let snap = service.current_epoch();
    assert_eq!(stats.epochs, snap.accepted_rows / 2000, "warm epochs = floor(accepted / E)");
    assert_eq!(final_epoch, stats.epochs + 1);

    // Warm fits ran (the pre-final epochs carried headlines) yet stayed
    // out of the deterministic metric class.
    let metrics = report.metrics.as_ref().expect("observed run carries metrics");
    assert!(
        metrics.deterministic.counters.keys().any(|k| k.starts_with("serve.chunks")),
        "serve path must record deterministic chunk counters"
    );
    assert_eq!(
        metrics.deterministic.counters.get("serve.epochs").copied(),
        Some(stats.epochs),
        "epoch counter must equal the warm crossing count"
    );
}
