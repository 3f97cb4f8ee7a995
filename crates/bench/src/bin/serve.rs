//! Run the long-running contextualization service against a replayed
//! campaign stream, then republish the batch artifacts as the final
//! epoch (DESIGN.md §18).
//!
//! ```text
//! serve [--scale S] [--seed N] [--out DIR] [--parallelism P]
//!       [--chunk-rows C] [--seal-rows R] [--epoch-rows E] [--warm]
//!       [--port PORT] [--linger SECS] [--wire-sessions N] [--metrics]
//!       [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]
//! serve --connect ADDR [--query CMD] [--timeout SECS]
//! ```
//!
//! Server mode binds the line-delimited JSON query API on loopback
//! (`--port 0` picks an ephemeral port; the chosen address is printed
//! as `listening on ADDR`), streams the generated campaigns through
//! [`st_serve::ContextService`] with the same chunk plan and interleave
//! as the `ingest` binary, drains, runs the batch fit/derive/render
//! stages, and publishes the final epoch carrying the rendered
//! headlines and the batch-comparable artifact hash. With `--warm`,
//! every epoch crossing also republishes warm headline analyses fitted
//! on the sealed rows so far. `--linger SECS` keeps the query API up
//! after the final epoch so scripted clients can read it; a `shutdown`
//! command (or the timeout) ends the run.
//!
//! The appended `BENCH_ledger.jsonl` row (schema `st-serve/v1`) carries
//! the artifact hash plus chunk/segment/epoch counts and sustained
//! ingest throughput: a serve row and a batch row with equal
//! `artifact_hash` produced the same bytes.
//!
//! Client mode (`--connect`) sends one query to a running server and
//! prints the response line; it exits nonzero if the response reports
//! `ok: false`.

use st_bench::cli::{self, CliError};
use st_bench::ledger::{artifact_hash, ServeLedgerRow};
use st_bench::output::{write_run, ChunkPlan};
use st_bench::{make_warm_renderer, run, Feed, IngestOptions};
use st_serve::{
    query_once, session_measurements, ContextService, PartitionSpec, QueryServer, ServeOptions,
};
use st_speedtest::wire::ShapedServer;
use st_speedtest::{run_load, BackoffSchedule, LoadOptions};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: serve [--scale S] [--seed N] [--out DIR] [--parallelism P] \
     [--chunk-rows C] [--seal-rows R] [--epoch-rows E] [--warm] \
     [--port PORT] [--linger SECS] [--wire-sessions N] [--metrics] \
     [--baseline METRICS.json] [--wall-ratio R] [--wall-floor S]\n\
       serve --connect ADDR [--query CMD] [--timeout SECS]";

/// The flags only `serve` has.
struct ServeArgs {
    plan: IngestOptions,
    epoch_rows: usize,
    warm: bool,
    port: u16,
    linger: u64,
    wire_sessions: usize,
    connect: Option<String>,
    query: String,
    timeout_s: u64,
}

impl ServeArgs {
    /// Consume `flag` if it is one of `serve`'s own.
    fn parse_flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut() -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        match flag {
            "--chunk-rows" => self.plan.chunk_rows = cli::parse_at_least_one(flag, &value()?)?,
            "--seal-rows" => self.plan.seal_rows = cli::parse_at_least_one(flag, &value()?)?,
            "--epoch-rows" => self.epoch_rows = cli::parse_at_least_one(flag, &value()?)?,
            "--warm" => self.warm = true,
            "--port" => {
                self.port = cli::parse_u64(flag, &value()?)?
                    .try_into()
                    .map_err(|_| CliError::Usage("--port must fit in 16 bits".into()))?;
            }
            "--linger" => self.linger = cli::parse_u64(flag, &value()?)?,
            "--wire-sessions" => self.wire_sessions = cli::parse_count(flag, &value()?)?,
            "--connect" => self.connect = Some(value()?),
            "--query" => self.query = value()?,
            "--timeout" => self.timeout_s = cli::parse_u64(flag, &value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Turn a shorthand query (`status`, `city City-A`, `headline`, ...)
/// into a request line; raw JSON passes through untouched.
fn to_request(query: &str) -> String {
    let q = query.trim();
    if q.starts_with('{') {
        return q.to_string();
    }
    let mut parts = q.split_whitespace();
    let cmd = parts.next().unwrap_or("status");
    match (cmd, parts.next()) {
        ("city", Some(city)) => format!("{{\"cmd\":\"city\",\"city\":\"{city}\"}}"),
        _ => format!("{{\"cmd\":\"{cmd}\"}}"),
    }
}

fn run_client(args: &ServeArgs, addr_raw: &str) -> ExitCode {
    let addr: std::net::SocketAddr = match addr_raw.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad --connect address {addr_raw:?}: {e}");
            return ExitCode::from(cli::USAGE_EXIT_CODE);
        }
    };
    let request = to_request(&args.query);
    match query_once(addr, &request, Duration::from_secs(args.timeout_s)) {
        Ok(line) => {
            println!("{line}");
            let ok = serde_json::from_str(&line)
                .ok()
                .and_then(|v: serde_json::Value| v.get("ok").and_then(|o| o.as_bool()));
            if ok == Some(false) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query {addr} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drive `--wire-sessions` live sessions against a loopback shaped pool
/// and ingest the completed results into the service's wire partition
/// (wall-clock class: which sessions complete depends on real sockets,
/// so these rows never touch deterministic counters or epochs).
fn ingest_wire_sessions(service: &ContextService, sessions: usize, seed: u64) {
    let servers: Vec<ShapedServer> =
        match (0..2).map(|_| ShapedServer::start(200.0, 50.0)).collect::<std::io::Result<Vec<_>>>()
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("WARN: cannot start the wire pool, skipping wire sessions: {e}");
                return;
            }
        };
    let pool: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let mut opts = LoadOptions::new(sessions);
    opts.with_upload = true; // upload-free rows would quarantine
    opts.backoff = BackoffSchedule::new(Duration::from_millis(5), Duration::from_millis(40), seed);
    let summary = run_load(&pool, &opts, &st_obs::Registry::disabled());
    let rows = session_measurements(&summary.reports, 100, 12);
    let n = rows.len();
    match service.ingest_chunk("wire", "sessions", rows) {
        Ok(receipt) => eprintln!(
            "wire: {} sessions completed, {} rows accepted into the wire partition",
            summary.sessions_completed,
            n as u64 - receipt.stats.quarantined
        ),
        Err(e) => eprintln!("WARN: wire ingest failed: {e}"),
    }
}

fn main() -> ExitCode {
    let mut own = ServeArgs {
        plan: IngestOptions::default(),
        epoch_rows: st_serve::DEFAULT_EPOCH_ROWS,
        warm: false,
        port: 0,
        linger: 0,
        wire_sessions: 0,
        connect: None,
        query: "status".to_string(),
        timeout_s: 10,
    };
    let parsed = cli::parse_args(std::env::args().skip(1), USAGE, "serve-out", |flag, value| {
        own.parse_flag(flag, value)
    });
    let args = match parsed {
        Ok(a) => a,
        Err(e) => return e.report(),
    };
    if let Some(addr) = own.connect.clone() {
        return run_client(&own, &addr);
    }
    let plan = own.plan;

    eprintln!(
        "serving 4 cities at scale {} (seed {}, parallelism {}, chunks of {}, seal at {}, \
         epoch every {}) ...",
        args.scale, args.seed, args.parallelism, plan.chunk_rows, plan.seal_rows, own.epoch_rows
    );
    let obs = st_obs::Registry::new();
    let warm = own.warm.then(|| make_warm_renderer(args.scale, args.seed));
    let mut specs: Vec<PartitionSpec> =
        st_datagen::City::all().iter().map(|c| PartitionSpec::city(c.label())).collect();
    specs.push(PartitionSpec::wire());
    let service = Arc::new(ContextService::new(
        specs,
        ServeOptions { seal_rows: plan.seal_rows, epoch_rows: own.epoch_rows, warm },
        obs.clone(),
    ));
    let server = match QueryServer::start(Arc::clone(&service), &format!("127.0.0.1:{}", own.port))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind the query API: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());

    if own.wire_sessions > 0 {
        ingest_wire_sessions(&service, own.wire_sessions, args.seed);
    }

    let feed = Feed::Service { service: &service, chunk_rows: plan.chunk_rows };
    let run = match run(&args.run_options(), feed, &obs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("serve replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = &run.replay;
    eprintln!(
        "streamed {} rows in {} chunks ({} segments, {} warm epochs) in {:.1}s",
        r.rows, r.chunks, r.segments, r.epochs, r.ingest_s
    );

    // Publish the final epoch before any disk IO: queries arriving from
    // here on see the completed run.
    let report = &run.report;
    let (hash, files) = artifact_hash(&report.artifacts);
    let tables = report
        .artifacts
        .iter()
        .filter(|a| a.id.starts_with("table"))
        .map(|a| (a.id.clone(), a.text.clone()))
        .collect();
    let final_epoch = match service.publish_final(
        &report.health.sanitize,
        report.headlines.clone(),
        tables,
        Some(format!("{hash:016x}")),
        files as u64,
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot publish the final epoch: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("published final epoch {final_epoch} (artifact hash {hash:016x})");

    let row = ServeLedgerRow::from_report(
        report,
        args.parallelism,
        plan.chunk_rows,
        plan.seal_rows,
        own.epoch_rows,
        &run.replay,
        final_epoch,
    );
    let chunk_plan = ChunkPlan { ingest: plan, epoch_rows: Some(own.epoch_rows) };
    let outcome = write_run(&args, "serve", Some(chunk_plan), &run, &obs, &row);

    if own.linger > 0 {
        eprintln!(
            "serving final epoch {} on {} for up to {}s (send {{\"cmd\":\"shutdown\"}} to exit)",
            final_epoch,
            server.addr(),
            own.linger
        );
        if server.wait_shutdown(Duration::from_secs(own.linger)) {
            eprintln!("shutdown requested by a client");
        }
    }
    server.stop();
    // A degraded replay always fails: no --allow-degraded here.
    outcome.exit_code(false)
}
