//! `serve`: the live service under a write-beside-read load.
//!
//! Set-up generates the four cities once. Each replay cuts their
//! campaigns into the service's default chunk size, orders each city's
//! chunks by a `ReplaySchedule` and interleaves the cities round robin,
//! then streams that plan from one closed-loop ingest thread into a
//! fresh `ContextService` (default seal and epoch sizes, warm refits on)
//! and ends with `drain`; meanwhile one open-loop query thread sends the
//! seeded query mix over one persistent TCP connection (see
//! [`crate::loadgen`]). Replays repeat until the run's seconds are used.
//! After timing, the first replay's drained stores are fitted and
//! rendered and must hash like the batch pipeline over the same records.
//!
//! Replay `k` draws its schedule from seed `seed + k`. The arrival order
//! decides which segments have sealed at each epoch crossing, and so how
//! much every warm refit fits: on one order a replay of seed 11 took
//! 1.9 s and of seed 13 1.0 s. A run's median over many orders measures
//! the service rather than one order. Every order drains to the same
//! stores, since each stream keeps its own order.

use crate::loadgen::{Query, Schedule, Timing};
use crate::pipeline::{fit_and_render, generate_all, sanitize_city, Campaigns, Checks, SCALE};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::workloads::{
    another_pass, cpu_util, fit_metrics, layer_times, root_of, secs, setup_metrics, timed, Metrics,
    Outcome,
};
use st_bench::{make_warm_renderer, IngestOptions, ReplaySchedule};
use st_datagen::par::default_parallelism;
use st_datagen::{City, CityDataset};
use st_obs::Registry;
use st_serve::{
    ContextService, DrainOutput, PartitionSpec, QueryServer, ServeOptions, WarmInput, WarmRenderer,
};
use st_speedtest::Measurement;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Mean query arrival rate, per second. Each answer on a persistent
/// connection takes about 44 ms at the parent commit (the server writes
/// the body and the newline separately without `TCP_NODELAY`, so the
/// newline waits for the client's delayed ACK), so one connection
/// serves at most about 23 queries a second; at 12 a second the queue
/// stays short and the generator's own lateness stays under 1 ms.
pub const QUERY_RATE: f64 = 12.0;
/// A query without an answer after this long counts as failed.
const QUERY_TIMEOUT: Duration = Duration::from_secs(1);
/// Campaign streams of every city partition, in stream order.
const CAMPAIGNS: [&str; 3] = ["ookla", "mlab", "mba"];

/// One chunk of the replay plan: city index, campaign index, rows.
type Chunk = (usize, usize, Vec<Measurement>);

/// The replay order: per city, the `ReplaySchedule` interleave of its
/// three campaign streams (as `build_analyses_serve` replays them);
/// across cities, round robin.
fn plan(cities: &[CityDataset], seed: u64, chunk_rows: usize) -> Vec<Chunk> {
    let per_city: Vec<Vec<Chunk>> = cities
        .iter()
        .enumerate()
        .map(|(ci, ds)| {
            let mut streams = [&ds.ookla, &ds.mlab, &ds.mba]
                .map(|r| st_bench::split_chunks(r.clone(), chunk_rows));
            let mut sched = ReplaySchedule::new(seed, ci);
            let mut out = Vec::new();
            loop {
                let live: Vec<usize> = (0..3).filter(|&k| !streams[k].is_empty()).collect();
                if live.is_empty() {
                    return out;
                }
                let k = live[sched.pick(live.len())];
                out.push((ci, k, streams[k].pop_front().expect("stream is live")));
            }
        })
        .collect();
    let longest = per_city.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = per_city.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        out.extend(iters.iter_mut().filter_map(Iterator::next));
    }
    out
}

/// One answered (or failed) query.
struct QueryRec {
    query: Query,
    timing: Timing,
    ok: bool,
    bytes: usize,
}

/// What the query thread saw in one replay.
#[derive(Default)]
struct QueryLog {
    records: Vec<QueryRec>,
    /// Failed queries (errors, timeouts), described.
    failures: Vec<String>,
    /// Answers that broke an epoch invariant, described.
    wrong: Vec<String>,
}

/// Per-connection invariants every answer must keep: the epoch never
/// goes backwards, accepted rows only grow, and a non-final status has
/// `epoch == floor(accepted / epoch_rows)`.
struct EpochWatch {
    epoch_rows: u64,
    epoch: u64,
    accepted: u64,
}

impl EpochWatch {
    fn check(
        &mut self,
        query: Query,
        cities: &[&str],
        v: &serde_json::Value,
    ) -> Result<(), String> {
        if v.get("ok").and_then(|o| o.as_bool()) != Some(true) {
            return Err(format!("not ok: {v:?}"));
        }
        if v.get("kind").and_then(|k| k.as_str()) != Some(query.kind()) {
            return Err(format!("asked {}, answered {v:?}", query.kind()));
        }
        let epoch = v.get("epoch").and_then(|e| e.as_u64()).ok_or("answer has no epoch")?;
        if epoch < self.epoch {
            return Err(format!("epoch went back from {} to {epoch}", self.epoch));
        }
        self.epoch = epoch;
        match query {
            Query::Status => {
                let accepted = v
                    .get("accepted_rows")
                    .and_then(|a| a.as_u64())
                    .ok_or("status has no accepted_rows")?;
                let final_epoch = v.get("final_epoch").and_then(|f| f.as_bool()) == Some(true);
                if accepted < self.accepted {
                    return Err(format!(
                        "accepted rows went back from {} to {accepted}",
                        self.accepted
                    ));
                }
                self.accepted = accepted;
                if !final_epoch && epoch != st_serve::epoch_index(accepted, self.epoch_rows) {
                    return Err(format!(
                        "epoch {epoch} at {accepted} accepted rows (epoch rows {})",
                        self.epoch_rows
                    ));
                }
            }
            Query::City(i) => {
                let name = v.get("city").and_then(|c| c.get("city")).and_then(|c| c.as_str());
                if name != Some(cities[i]) {
                    return Err(format!("asked for {}, answered {name:?}", cities[i]));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// A connection with a line reader on its read half.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
    let writer = TcpStream::connect_timeout(&addr, QUERY_TIMEOUT)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(Some(QUERY_TIMEOUT))?;
    writer.set_write_timeout(Some(QUERY_TIMEOUT))?;
    let reader = BufReader::new(writer.try_clone()?);
    Ok(Conn { writer, reader })
}

fn round_trip(conn: &mut Conn, request: &str) -> std::io::Result<String> {
    conn.writer.write_all(format!("{request}\n").as_bytes())?;
    let mut line = String::new();
    if conn.reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(line)
}

/// The open-loop query thread: send each query at its due time over one
/// persistent connection until `stop`, timing it from its due time.
fn query_loop(
    addr: SocketAddr,
    t0: Instant,
    schedule: &mut Schedule,
    stop: &AtomicBool,
    epoch_rows: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> QueryLog {
    let cities: Vec<&str> = City::all().iter().map(|c| c.label()).collect();
    let mut log = QueryLog::default();
    let mut watch = EpochWatch { epoch_rows, epoch: 0, accepted: 0 };
    let mut conn: Option<Conn> = None;
    let mut free = 0.0;
    loop {
        let (due, query) = schedule.next_query();
        let wait = due - secs(t0);
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        if stop.load(Ordering::Acquire) {
            return log;
        }
        let sent = secs(t0);
        let span = tracer.span("loadgen.query", parent);
        let answer = match conn.as_mut() {
            Some(c) => round_trip(c, &query.request(&cities)),
            None => connect(addr).and_then(|c| round_trip(conn.insert(c), &query.request(&cities))),
        };
        span.end();
        let done = secs(t0);
        let timing = Timing { due, free, sent, done };
        free = done;
        let (ok, bytes) = match answer {
            Ok(line) => match serde_json::from_str(line.trim_end()) {
                Ok(v) => match watch.check(query, &cities, &v) {
                    Ok(()) => (true, line.len()),
                    Err(e) => {
                        log.wrong.push(e);
                        (false, line.len())
                    }
                },
                Err(e) => {
                    log.wrong.push(format!("unparseable answer {line:?}: {e:?}"));
                    (false, line.len())
                }
            },
            Err(e) => {
                // The connection's state is unknown after an error:
                // start a new one for the next query.
                conn = None;
                log.failures.push(format!("{} query failed: {e}", query.kind()));
                (false, 0)
            }
        };
        log.records.push(QueryRec { query, timing, ok, bytes });
    }
}

/// What one replay measured.
struct Replay {
    /// First chunk to `drain` returning, seconds.
    stream_s: f64,
    cpu_s: f64,
    drain_s: f64,
    rows: u64,
    /// `ingest_chunk` latencies of chunks that crossed no epoch, µs.
    chunk_us: Vec<f64>,
    /// `ingest_chunk` latencies of epoch-crossing chunks, ms.
    publish_ms: Vec<f64>,
    /// Rows and seconds of each warm refit, in order.
    refits: Vec<(u64, f64)>,
    queries: QueryLog,
    rejected: Vec<String>,
    /// [`fingerprint`] of the drained stores.
    print: Vec<(String, String, u64, u64)>,
    drained: Option<DrainOutput>,
}

/// Accepted rows and segments of every drained stream, plus the
/// sanitize totals: what every replay of a run must agree on, whatever
/// its arrival order.
fn fingerprint(d: &DrainOutput) -> Vec<(String, String, u64, u64)> {
    let mut out: Vec<_> = d
        .partitions
        .iter()
        .flat_map(|p| {
            p.stores.iter().map(|(c, s)| {
                (p.city.clone(), c.clone(), s.accepted_rows() as u64, s.num_segments() as u64)
            })
        })
        .collect();
    let s = &d.sanitize;
    out.push(("*".into(), "sanitize".into(), s.clean + s.repaired, s.quarantined));
    out
}

/// Stream `chunks` into a fresh service while the query thread runs.
fn replay(
    chunks: Vec<Chunk>,
    seed: u64,
    schedule: &mut Schedule,
    tracer: &Tracer,
) -> std::io::Result<Replay> {
    let refits = Arc::new(Mutex::new(Vec::new()));
    // Parent span of the warm refit: the `ingest_chunk` call that
    // triggered it, on the ingest thread (0 = none).
    let chunk_span = Arc::new(AtomicU64::new(0));
    let warm: WarmRenderer = {
        let inner = make_warm_renderer(SCALE, seed);
        let (refits, chunk_span, tracer) =
            (Arc::clone(&refits), Arc::clone(&chunk_span), tracer.clone());
        Arc::new(move |input: &WarmInput| {
            let rows: usize =
                input.cities.iter().flat_map(|c| &c.campaigns).map(|(_, r)| r.len()).sum();
            let parent = Some(chunk_span.load(Ordering::Relaxed)).filter(|&p| p != 0);
            let span = tracer.span("serve.warm_refit", parent);
            let t0 = Instant::now();
            let out = inner(input);
            let dt = secs(t0);
            span.end();
            refits.lock().expect("refit log lock poisoned").push((rows as u64, dt));
            out
        })
    };
    let specs = City::all().iter().map(|c| PartitionSpec::city(c.label())).collect();
    let opts = ServeOptions { warm: Some(warm), ..ServeOptions::default() };
    let epoch_rows = opts.epoch_rows as u64;
    let service = Arc::new(ContextService::new(specs, opts, Registry::new()));
    let server = QueryServer::start(Arc::clone(&service), "127.0.0.1:0")?;
    let addr = server.addr();
    let labels: Vec<&str> = City::all().iter().map(|c| c.label()).collect();

    let stop = AtomicBool::new(false);
    let root = tracer.span("serve.replay", None);
    let root_id = root.id();
    let mut out = Replay {
        stream_s: 0.0,
        cpu_s: 0.0,
        drain_s: 0.0,
        rows: 0,
        chunk_us: Vec::new(),
        publish_ms: Vec::new(),
        refits: Vec::new(),
        queries: QueryLog::default(),
        rejected: Vec::new(),
        print: Vec::new(),
        drained: None,
    };
    let t0 = Instant::now();
    let (queries, streamed) = std::thread::scope(|scope| {
        let query_thread =
            scope.spawn(|| query_loop(addr, t0, schedule, &stop, epoch_rows, tracer, root_id));
        let pass = timed(|| {
            for (ci, k, rows) in chunks {
                let span = tracer.span("serve.ingest_chunk", root_id);
                chunk_span.store(span.id().unwrap_or(0), Ordering::Relaxed);
                let c0 = Instant::now();
                let receipt = service.ingest_chunk(labels[ci], CAMPAIGNS[k], rows);
                let dt = secs(c0);
                span.end();
                match receipt {
                    Ok(r) => {
                        out.rows += r.stats.rows_in as u64;
                        if r.epochs_crossed > 0 {
                            out.publish_ms.push(dt * 1e3);
                        } else {
                            out.chunk_us.push(dt * 1e6);
                        }
                    }
                    Err(e) => out
                        .rejected
                        .push(format!("{} {} chunk rejected: {e:?}", labels[ci], CAMPAIGNS[k])),
                }
            }
            let span = tracer.span("serve.drain", root_id);
            let d0 = Instant::now();
            let drained = service.drain();
            let drain_s = secs(d0);
            span.end();
            (drained, drain_s)
        });
        stop.store(true, Ordering::Release);
        let queries = query_thread.join().expect("query thread does not panic");
        (queries, pass)
    });
    root.end();
    server.stop();
    let ((drained, drain_s), wall_s, cpu_s) = (streamed.out, streamed.wall_s, streamed.cpu_s);
    out.stream_s = wall_s;
    out.cpu_s = cpu_s;
    out.drain_s = drain_s;
    out.queries = queries;
    out.refits = std::mem::take(&mut *refits.lock().expect("refit log lock poisoned"));
    match drained {
        Ok(d) => {
            out.print = fingerprint(&d);
            out.drained = Some(d);
        }
        Err(e) => out.rejected.push(format!("drain failed: {e:?}")),
    }
    Ok(out)
}

/// `serve`: see the module docs.
pub fn serve(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let chunk_rows = IngestOptions::default().chunk_rows;

    let t0 = Instant::now();
    let setup = tracer.span("serve.setup", None);
    let generated = generate_all(seed, default_parallelism(), false, tracer, setup.id());
    setup.end();
    metrics.insert("setup_s", secs(t0));

    let mut replays: Vec<(Replay, bool)> = Vec::new();
    // Only the first replay's stores are kept, for the untimed check.
    let mut first_drained = None;
    let mut timed_s = 0.0;
    let mut k: u64 = 0;
    let mut last_s = 0.0;
    while another_pass(k as usize, timed_s, last_s, seconds)
        || (tracer.is_enabled() && replays.iter().all(|r| !r.1))
    {
        let traced_replay = tracer.is_enabled() && k % 2 == 1;
        let replay_tracer = if traced_replay { tracer.clone() } else { Tracer::disabled() };
        // Each replay's queries are due from its own start.
        let mut schedule = Schedule::new(seed.wrapping_add(k), QUERY_RATE, City::all().len());
        let chunks = plan(&generated.cities, seed.wrapping_add(k), chunk_rows);
        match replay(chunks, seed, &mut schedule, &replay_tracer) {
            Ok(mut r) => {
                (timed_s, last_s) = (timed_s + r.stream_s, r.stream_s);
                let drained = r.drained.take();
                if replays.is_empty() {
                    first_drained = drained;
                }
                replays.push((r, traced_replay));
            }
            Err(e) => {
                checks.check(false, || format!("query server did not start: {e}"));
                break;
            }
        }
        k += 1;
    }

    // Per-replay bookkeeping: every chunk and query is one operation;
    // every replay must drain to the same stores.
    let mut first_print = None;
    for (r, _) in &replays {
        checks.attempted += (r.chunk_us.len() + r.publish_ms.len()) as u64;
        for e in &r.rejected {
            checks.check(false, || e.clone());
        }
        for q in &r.queries.records {
            checks.attempted += 1;
            checks.failed += u64::from(!q.ok);
        }
        checks.failures.extend(r.queries.failures.iter().cloned());
        for e in &r.queries.wrong {
            checks.incorrect = true;
            checks.failures.push(format!("wrong answer: {e}"));
        }
        let want = first_print.get_or_insert_with(|| r.print.clone());
        checks.check(r.print == *want, || "replays drained to different stores".to_string());
    }

    // Untimed: the batch pipeline over the same records is the
    // reference; the first replay's drained stores must reproduce it.
    let check = tracer.span("serve.reference", None);
    let mut cities = generated.cities.clone();
    for ds in &mut cities {
        sanitize_city(ds, tracer, check.id());
    }
    let inputs = cities.into_iter().map(Campaigns::of).collect();
    let reference = fit_and_render(inputs, seed, default_parallelism(), false, tracer, check.id());
    check.end();
    let mut first = None;
    checks.artifacts(&reference, seed, &mut first);
    drop(reference);
    if let Some(drained) = first_drained {
        let mut by_city = drained.partitions;
        let inputs = City::all()
            .iter()
            .filter_map(|c| {
                let i = by_city.iter().position(|p| p.city == c.label())?;
                let mut stores = by_city.swap_remove(i).stores;
                let mut take = |name: &str| {
                    stores.iter().position(|(n, _)| n == name).map(|j| stores.swap_remove(j).1)
                };
                let (o, m, b) = (take("ookla")?, take("mlab")?, take("mba")?);
                Some((
                    st_datagen::CityConfig::at_scale(*c, SCALE),
                    Campaigns::Stores(Box::new([o, m, b])),
                ))
            })
            .collect::<Vec<_>>();
        checks.check(inputs.len() == 4, || format!("drained {} of 4 cities", inputs.len()));
        if inputs.len() == 4 {
            let root = tracer.span("serve.drained_fit", None);
            let served = fit_and_render(
                inputs,
                seed,
                default_parallelism(),
                tracer.is_enabled(),
                tracer,
                root.id(),
            );
            root.end();
            checks.artifacts(&served, seed, &mut first);
            checks.claims(&served.analyses, seed);
            if tracer.is_enabled() {
                let spans = tracer.spans();
                if let Some(root) = root_of(&spans, "serve.drained_fit") {
                    metrics.extend(fit_metrics(&spans, root, &served));
                }
            }
        }
    }

    let plain: Vec<&Replay> = replays.iter().filter(|r| !r.1).map(|r| &r.0).collect();
    let all: Vec<&Replay> = replays.iter().map(|r| &r.0).collect();
    let stream: Vec<f64> = plain.iter().map(|r| r.stream_s).collect();
    let plain_median = median(&stream).unwrap_or(0.0);
    metrics.insert("pass_s", plain_median);
    eprintln!("serve: replays {stream:.3?}, median {plain_median:.3} s");
    if tracer.is_enabled() {
        metrics.extend(service_metrics(&all));
        let spans = tracer.spans();
        if let Some(root) = root_of(&spans, "serve.setup") {
            metrics.extend(setup_metrics(&spans, root, &generated));
        }
        if let Some(root) = root_of(&spans, "serve.reference") {
            let m = layer_times(&spans, root);
            for key in ["speedtest.sanitize_s", "speedtest.store_s"] {
                metrics.insert(key, m.get(key).copied().unwrap_or(0.0));
            }
            metrics.insert("speedtest.sanitize_rows", generated.tests as f64);
        }
        if let Some(root) = root_of(&spans, "serve.drained_fit") {
            let m = layer_times(&spans, root);
            for key in
                ["analysis.fit_s", "speedtest.derive_s", "bench.render_s", "trace.attributed_ratio"]
            {
                metrics.insert(key, m.get(key).copied().unwrap_or(0.0));
            }
        }
        let traced: Vec<f64> = replays.iter().filter(|r| r.1).map(|r| r.0.stream_s).collect();
        let traced_median = median(&traced).unwrap_or(0.0);
        metrics.insert("trace.overhead_ratio", traced_median / plain_median);
        let walls: Vec<f64> = all.iter().map(|r| r.stream_s).collect();
        let cpus: Vec<f64> = all.iter().map(|r| r.cpu_s).collect();
        metrics.insert("proc.cpu_util", cpu_util(&walls, &cpus));
        let query_spans = spans.iter().filter(|s| s.name == "loadgen.query").count();
        eprintln!(
            "serve: {} traced replays, median {traced_median:.3} s; {query_spans} query spans",
            traced.len()
        );
    }
    Outcome { checks, metrics }
}

/// The service-layer figures over every replay of the run.
fn service_metrics(replays: &[&Replay]) -> Metrics {
    let mut m = Metrics::new();
    let n = replays.len().max(1) as f64;
    let cat =
        |f: &dyn Fn(&Replay) -> Vec<f64>| replays.iter().flat_map(|r| f(r)).collect::<Vec<f64>>();

    let rows: u64 = replays.iter().map(|r| r.rows).sum();
    let stream_s: f64 = replays.iter().map(|r| r.stream_s).sum();
    m.insert("ingest_rows_per_s", rows as f64 / stream_s);
    let chunks = Dist::new(&cat(&|r| r.chunk_us.clone()), 900);
    eprintln!("{}", chunks.describe("serve.ingest_chunk", "us"));
    m.insert("serve.ingest_chunk_p50_us", chunks.p50);
    m.insert("serve.ingest_chunk_p90_us", chunks.tail);
    m.insert("serve.ingest_chunks", chunks.n as f64);
    let publish = Dist::new(&cat(&|r| r.publish_ms.clone()), 900);
    eprintln!("{}", publish.describe("epoch_publish", "ms"));
    m.insert("epoch_publish_p50_ms", publish.p50);

    let refits = cat(&|r| r.refits.iter().map(|f| f.1 * 1e3).collect());
    m.insert("serve.warm_refits", refits.len() as f64 / n);
    m.insert("serve.warm_refit_p50_ms", median(&refits).unwrap_or(0.0));
    let fitted: u64 = replays.iter().flat_map(|r| &r.refits).map(|f| f.0).sum();
    let mut new = 0;
    for r in replays {
        let mut prev = 0;
        for &(rows, _) in &r.refits {
            new += rows.saturating_sub(prev);
            prev = rows;
        }
    }
    m.insert("serve.warm_rows_fitted", fitted as f64 / n);
    m.insert("serve.warm_new_row_ratio", new as f64 / fitted.max(1) as f64);
    m.insert("serve.drain_s", median(&cat(&|r| vec![r.drain_s])).unwrap_or(0.0));

    let latencies = cat(&|r| r.queries.records.iter().map(|q| q.timing.latency() * 1e3).collect());
    let all = Dist::new(&latencies, 900);
    eprintln!("{}", all.describe("query", "ms"));
    m.insert("query_p50_ms", all.p50);
    m.insert("query_p90_ms", all.tail);
    m.insert("loadgen.queries", all.n as f64);
    for (kind, name) in [
        ("status", "serve.query_status_p50_ms"),
        ("city", "serve.query_city_p50_ms"),
        ("headline", "serve.query_headline_p50_ms"),
        ("quarantine", "serve.query_quarantine_p50_ms"),
        ("metrics", "serve.query_metrics_p50_ms"),
    ] {
        let v = cat(&|r| {
            r.queries
                .records
                .iter()
                .filter(|q| q.query.kind() == kind)
                .map(|q| q.timing.latency() * 1e3)
                .collect()
        });
        m.insert(name, median(&v).unwrap_or(0.0));
    }
    let bytes: usize = replays.iter().flat_map(|r| &r.queries.records).map(|q| q.bytes).sum();
    m.insert("serve.query_bytes", bytes as f64 / all.n.max(1) as f64);
    let late = Dist::new(
        &cat(&|r| r.queries.records.iter().map(|q| q.timing.lateness() * 1e3).collect()),
        900,
    );
    eprintln!("{}", late.describe("loadgen.late", "ms"));
    m.insert("loadgen.late_p90_ms", late.tail);
    m
}
