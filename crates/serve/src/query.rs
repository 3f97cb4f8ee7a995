//! Thread-per-connection line-delimited JSON query API (DESIGN.md §18).
//!
//! Each request is one JSON object per line (`{"cmd": "status"}`);
//! each response is one JSON object per line with an `ok` field.
//! Every command answers from the *current epoch snapshot* — a single
//! immutable `Arc` grabbed once per request — so a response is always
//! internally consistent, reads never block ingest, and two fields of
//! one response can never disagree about which epoch they describe.
//!
//! Commands:
//!
//! | cmd          | answer                                             |
//! |--------------|----------------------------------------------------|
//! | `status`     | global counters + per-partition accepted rows      |
//! | `city`       | one partition's per-campaign detail (`"city": ...`)|
//! | `headline`   | warm/final headline figures and tables             |
//! | `quarantine` | sanitize taxonomy of the current epoch             |
//! | `epoch`      | the full epoch snapshot                            |
//! | `metrics`    | the full two-class metrics snapshot                |
//! | `watch`      | *streaming*: one row now + one per epoch crossing  |
//! | `shutdown`   | ack, then signals the server to stop accepting     |
//!
//! Malformed or unknown requests get a uniform structured error row:
//! `{"ok": false, "kind": "error", "detail": "..."}` — still one JSON
//! object per line, so clients never need a second parser for the
//! failure path.
//!
//! `watch` is the one departure from request/response: the connection
//! switches to a push feed (the console's live feed). The server
//! writes one row immediately (the current epoch, with `serve.*`
//! counter *totals*), then one row per epoch crossing carrying the
//! counter *deltas* since the previous row — backed by
//! [`st_obs::MetricsSnapshot::delta`], so the rows telescope: base +
//! sum of deltas = final totals. The feed ends after the final epoch,
//! after an optional `"max": N` row budget, or when the server stops
//! accepting; the connection then returns to request/response.

use crate::epoch::{CitySnapshot, EpochSnapshot};
use crate::service::ContextService;
use serde::Serialize;
use st_obs::MetricsSnapshot;
use st_speedtest::SanitizeReport;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Per-request wall-clock histogram bounds, seconds.
const QUERY_BOUNDS: &[f64] = &[0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1];

/// How often a streaming watch wakes up to notice server shutdown.
const WATCH_POLL: Duration = Duration::from_millis(200);

#[derive(Serialize)]
struct ErrorResponse {
    ok: bool,
    kind: &'static str,
    detail: String,
}

#[derive(Serialize)]
struct CityRows {
    city: String,
    accepted_rows: u64,
}

#[derive(Serialize)]
struct StatusResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    final_epoch: bool,
    drained: bool,
    accepted_rows: u64,
    rows_in: u64,
    quarantined: u64,
    chunks: u64,
    segments_sealed: u64,
    epochs_published: u64,
    uptime_s: f64,
    cities: Vec<CityRows>,
}

#[derive(Serialize)]
struct CityResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    city: CitySnapshot,
}

#[derive(Serialize)]
struct HeadlineResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    final_epoch: bool,
    headlines: Vec<(String, String)>,
    tables: Vec<(String, String)>,
}

#[derive(Serialize)]
struct QuarantineResponse {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    rows_in: u64,
    quarantined: u64,
    sanitize: SanitizeReport,
}

#[derive(Serialize)]
struct EpochResponse {
    ok: bool,
    kind: &'static str,
    snapshot: EpochSnapshot,
}

#[derive(Serialize)]
struct ShutdownResponse {
    ok: bool,
    kind: &'static str,
}

/// Per-city sealed-segment count inside a watch row.
#[derive(Serialize)]
struct SealCount {
    city: String,
    sealed_segments: u64,
}

/// One line of the `watch` feed: the epoch that crossed plus the
/// `serve.*` deterministic counter deltas since the previous row.
#[derive(Serialize)]
struct WatchRow {
    ok: bool,
    kind: &'static str,
    epoch: u64,
    final_epoch: bool,
    accepted_rows: u64,
    quarantined: u64,
    chunks: u64,
    segments_sealed: u64,
    seals: Vec<SealCount>,
    counters: BTreeMap<String, u64>,
}

fn err(msg: impl Into<String>) -> String {
    serde_json::to_string(&ErrorResponse { ok: false, kind: "error", detail: msg.into() })
        .expect("error response serializes")
}

fn json<T: Serialize>(resp: &T) -> String {
    serde_json::to_string(resp).expect("query response serializes")
}

/// Answer one request line. Returns the response line and whether the
/// request asked the server to shut down. Pure over (service state,
/// line) — exposed for direct use in tests and the in-process path.
pub fn dispatch(service: &ContextService, line: &str) -> (String, bool) {
    let value: serde_json::Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return (err(format!("bad request JSON: {e}")), false),
    };
    let Some(cmd) = value.get("cmd").and_then(|c| c.as_str()) else {
        return (err("request needs a string \"cmd\" field"), false);
    };
    let snap = service.current_epoch();
    service.registry().observe_wall("serve.query_seconds", &[("cmd", cmd)], 0.0, QUERY_BOUNDS);
    let resp = match cmd {
        "status" => {
            let epochs_published = service
                .registry()
                .snapshot_shared()
                .deterministic
                .counters
                .get("serve.epochs")
                .copied()
                .unwrap_or(0);
            json(&StatusResponse {
                ok: true,
                kind: "status",
                epoch: snap.epoch,
                final_epoch: snap.final_epoch,
                drained: service.is_drained(),
                accepted_rows: snap.accepted_rows,
                rows_in: snap.rows_in,
                quarantined: snap.quarantined,
                chunks: snap.chunks,
                segments_sealed: snap.segments_sealed,
                epochs_published,
                uptime_s: service.uptime_s(),
                cities: snap
                    .cities
                    .iter()
                    .map(|c| CityRows {
                        city: c.city.clone(),
                        accepted_rows: c.campaigns.iter().map(|s| s.accepted_rows).sum(),
                    })
                    .collect(),
            })
        }
        "city" => {
            let Some(name) = value.get("city").and_then(|c| c.as_str()) else {
                return (err("city query needs a string \"city\" field"), false);
            };
            match snap.cities.iter().find(|c| c.city == name) {
                Some(c) => json(&CityResponse {
                    ok: true,
                    kind: "city",
                    epoch: snap.epoch,
                    city: c.clone(),
                }),
                None => err(format!("unknown city {name:?}")),
            }
        }
        "headline" => json(&HeadlineResponse {
            ok: true,
            kind: "headline",
            epoch: snap.epoch,
            final_epoch: snap.final_epoch,
            headlines: snap.headlines.clone(),
            tables: snap.tables.clone(),
        }),
        "quarantine" => json(&QuarantineResponse {
            ok: true,
            kind: "quarantine",
            epoch: snap.epoch,
            rows_in: snap.rows_in,
            quarantined: snap.quarantined,
            sanitize: snap.sanitize.clone(),
        }),
        "epoch" => json(&EpochResponse { ok: true, kind: "epoch", snapshot: (*snap).clone() }),
        "metrics" => {
            // Assembled by hand so the shared snapshot `Arc` serializes
            // in place — no clone of the histogram maps per request.
            let metrics = service.registry().snapshot_shared();
            format!(
                "{{\"ok\":true,\"kind\":\"metrics\",\"epoch\":{},\"snapshot\":{}}}",
                snap.epoch,
                json(&*metrics)
            )
        }
        // Streaming is a connection-level mode, not a one-shot answer:
        // `handle_conn` intercepts it before dispatch ever runs.
        // Reaching this arm means the caller invoked the pure in-process
        // path, where a push feed cannot exist.
        "watch" => err(
            "watch is streaming-only: hold the connection open and read one row per epoch crossing",
        ),
        "shutdown" => return (json(&ShutdownResponse { ok: true, kind: "shutdown" }), true),
        other => err(format!("unknown cmd {other:?}")),
    };
    (resp, false)
}

/// Wakeable latch the `shutdown` command trips.
struct Signal {
    fired: Mutex<bool>,
    cv: Condvar,
    stop_accepting: AtomicBool,
}

impl Signal {
    fn new() -> Self {
        Signal {
            fired: Mutex::new(false),
            cv: Condvar::new(),
            stop_accepting: AtomicBool::new(false),
        }
    }

    fn fire(&self) {
        *self.fired.lock().expect("signal lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> bool {
        let fired = self.fired.lock().expect("signal lock");
        if *fired {
            return true;
        }
        let (fired, _) = self.cv.wait_timeout(fired, timeout).expect("signal lock");
        *fired
    }
}

/// A running query listener: one accept thread, one thread per
/// connection.
pub struct QueryServer {
    addr: SocketAddr,
    signal: Arc<Signal>,
    accept: Option<thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting.
    pub fn start(service: Arc<ContextService>, addr: &str) -> io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let signal = Arc::new(Signal::new());
        let accept_signal = Arc::clone(&signal);
        let accept = thread::Builder::new().name("serve-accept".into()).spawn(move || {
            for stream in listener.incoming() {
                if accept_signal.stop_accepting.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                let signal = Arc::clone(&accept_signal);
                let _ = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_conn(stream, &service, &signal));
            }
        })?;
        Ok(QueryServer { addr, signal, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a `shutdown` command arrives (or `stop` is called),
    /// up to `timeout`. Returns whether the signal fired.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        self.signal.wait(timeout)
    }

    /// Stop accepting and join the accept thread. In-flight
    /// connections finish their current line and exit on their own.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.signal.stop_accepting.store(true, Ordering::Release);
        self.signal.fire();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Serialize one watch row for `snap`, carrying the `serve.*`
/// deterministic counter deltas since `prev` (which is advanced to the
/// metrics state captured for this row). Seeding `prev` with
/// [`MetricsSnapshot::empty`] makes the first row carry running totals;
/// every later row carries increments, and the rows telescope.
fn watch_row(
    service: &ContextService,
    snap: &EpochSnapshot,
    prev: &mut Arc<MetricsSnapshot>,
) -> String {
    let now = service.registry().snapshot_shared();
    let delta = now.delta(prev.as_ref());
    *prev = now;
    let counters: BTreeMap<String, u64> =
        delta.deterministic.counters.into_iter().filter(|(k, _)| k.starts_with("serve.")).collect();
    json(&WatchRow {
        ok: true,
        kind: "watch",
        epoch: snap.epoch,
        final_epoch: snap.final_epoch,
        accepted_rows: snap.accepted_rows,
        quarantined: snap.quarantined,
        chunks: snap.chunks,
        segments_sealed: snap.segments_sealed,
        seals: snap
            .cities
            .iter()
            .map(|c| SealCount {
                city: c.city.clone(),
                sealed_segments: c.campaigns.iter().map(|s| s.sealed_segments).sum(),
            })
            .collect(),
        counters,
    })
}

/// Send `line` and its newline in one write. Split across two writes,
/// the newline would sit behind Nagle until the peer's delayed ACK
/// (~40 ms on Linux), stalling every answer after a connection's first.
fn write_line(writer: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Run one `watch` feed on an open connection: emit the current epoch
/// immediately, then every snapshot the publisher hands us, exactly
/// once each and in order (see [`crate::EpochPublisher::subscribe`]).
/// Ends after the final epoch, after `max` rows, when the server stops
/// accepting, or on a client write error.
fn stream_watch(
    writer: &mut TcpStream,
    service: &ContextService,
    signal: &Signal,
    max: Option<u64>,
) -> io::Result<()> {
    let (base, rx) = service.subscribe_epochs();
    let mut prev = Arc::new(MetricsSnapshot::empty());
    let mut sent = 0u64;
    write_line(writer, watch_row(service, &base, &mut prev))?;
    sent += 1;
    if base.final_epoch || max.is_some_and(|m| sent >= m) {
        return Ok(());
    }
    loop {
        match rx.recv_timeout(WATCH_POLL) {
            Ok(snap) => {
                write_line(writer, watch_row(service, &snap, &mut prev))?;
                sent += 1;
                if snap.final_epoch || max.is_some_and(|m| sent >= m) {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if signal.stop_accepting.load(Ordering::Acquire) {
                    return Ok(());
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

fn handle_conn(stream: TcpStream, service: &ContextService, signal: &Signal) {
    // Answers are small and latency-bound: send each as soon as it is written.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // `watch` flips the connection into push mode until the feed
        // ends; everything else stays strict request/response.
        if let Ok(v) = serde_json::from_str(&line) {
            if v.get("cmd").and_then(|c| c.as_str()) == Some("watch") {
                service.registry().observe_wall(
                    "serve.query_seconds",
                    &[("cmd", "watch")],
                    0.0,
                    QUERY_BOUNDS,
                );
                let max = v.get("max").and_then(|m| m.as_u64());
                if stream_watch(&mut writer, service, signal, max).is_err() {
                    break;
                }
                continue;
            }
        }
        let (resp, shutdown) = dispatch(service, &line);
        if write_line(&mut writer, resp).is_err() {
            break;
        }
        if shutdown {
            signal.fire();
            break;
        }
    }
}

/// One-shot client: connect, send `line`, read one response line.
/// What the `serve --connect` client mode and the test suites use.
pub fn query_once(addr: SocketAddr, line: &str, timeout: Duration) -> io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    write_line(&mut stream.try_clone()?, line.to_string())?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp)?;
    if resp.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response line"));
    }
    Ok(resp.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PartitionSpec, ServeOptions};
    use st_obs::Registry;
    use st_speedtest::{Access, Measurement, Platform};

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

    fn service() -> Arc<ContextService> {
        let s = ContextService::new(
            vec![PartitionSpec::city("City-A")],
            ServeOptions { seal_rows: 8, epoch_rows: 10, warm: None },
            Registry::new(),
        );
        s.ingest_chunk("City-A", "ookla", (0..12).map(m).collect()).unwrap();
        Arc::new(s)
    }

    fn get<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.get(key).unwrap_or_else(|| panic!("response missing {key:?}"))
    }

    #[test]
    fn dispatch_answers_every_command_from_one_epoch() {
        let s = service();
        for cmd in ["status", "headline", "quarantine", "epoch", "metrics"] {
            let (resp, shutdown) = dispatch(&s, &format!("{{\"cmd\":\"{cmd}\"}}"));
            assert!(!shutdown);
            let v: serde_json::Value = serde_json::from_str(&resp).expect("response parses");
            assert_eq!(get(&v, "ok").as_bool(), Some(true), "{cmd}: {resp}");
        }
        let (resp, _) = dispatch(&s, "{\"cmd\":\"status\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        // One 12-row chunk crossed the 10-row boundary once; the
        // snapshot captures the accepted count at the crossing.
        assert_eq!(get(&v, "epoch").as_u64(), Some(1));
        assert_eq!(get(&v, "accepted_rows").as_u64(), Some(12));
        assert_eq!(get(&v, "epochs_published").as_u64(), Some(1));

        let (resp, _) = dispatch(&s, "{\"cmd\":\"city\",\"city\":\"City-A\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        let city = get(&v, "city");
        assert_eq!(get(city, "city").as_str(), Some("City-A"));
        assert!(get(city, "campaigns").as_array().is_some_and(|c| c.len() == 3));

        // metrics returns the full two-class snapshot, both sections
        // split exactly as BENCH_metrics.json lays them out.
        let (resp, _) = dispatch(&s, "{\"cmd\":\"metrics\"}");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(get(&v, "kind").as_str(), Some("metrics"));
        let snap = get(&v, "snapshot");
        assert_eq!(get(snap, "schema").as_str(), Some("st-obs/v1"));
        let det = get(snap, "deterministic");
        assert!(get(snap, "wall_clock").as_object().is_some());
        let rows = get(get(det, "counters"), "serve.rows{outcome=clean}");
        assert_eq!(rows.as_u64(), Some(12), "metrics carries the serve.* counters: {resp}");
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let s = service();
        // One failure shape for every failure mode, streaming included:
        // ok:false, kind:"error", and a human-readable detail string.
        for bad in
            ["not json", "{}", "{\"cmd\":\"nope\"}", "{\"cmd\":\"city\"}", "{\"cmd\":\"watch\"}"]
        {
            let (resp, shutdown) = dispatch(&s, bad);
            assert!(!shutdown);
            let v: serde_json::Value = serde_json::from_str(&resp).expect("error responses parse");
            assert_eq!(get(&v, "ok").as_bool(), Some(false), "{bad}: {resp}");
            assert_eq!(get(&v, "kind").as_str(), Some("error"), "{bad}: {resp}");
            assert!(get(&v, "detail").as_str().is_some_and(|d| !d.is_empty()), "{bad}: {resp}");
        }
    }

    #[test]
    fn watch_over_tcp_streams_rows_and_returns_to_request_response() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
        stream.set_read_timeout(Some(t)).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"cmd\":\"watch\",\"max\":1}\n").unwrap();
        writer.flush().unwrap();
        let mut row = String::new();
        reader.read_line(&mut row).expect("watch row");
        let v: serde_json::Value = serde_json::from_str(&row).expect("watch row parses");
        assert_eq!(get(&v, "kind").as_str(), Some("watch"));
        assert_eq!(get(&v, "epoch").as_u64(), Some(1));
        assert_eq!(get(&v, "accepted_rows").as_u64(), Some(12));
        // The first row is seeded from the empty snapshot: its counter
        // deltas are the running serve.* totals.
        let counters = get(&v, "counters").as_object().expect("counters map");
        assert!(counters.keys().all(|k| k.starts_with("serve.")), "{row}");
        assert_eq!(counters.get("serve.rows{outcome=clean}").and_then(|c| c.as_u64()), Some(12));
        // After the row budget the same connection answers one-shots.
        writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("status after watch");
        let v: serde_json::Value = serde_json::from_str(&resp).expect("status parses");
        assert_eq!(get(&v, "kind").as_str(), Some("status"));
        server.stop();
    }

    #[test]
    fn back_to_back_queries_on_one_connection_do_not_stall() {
        // Every answer after a connection's first used to wait ~40 ms on
        // the peer's delayed ACK; 20 in a row must each be quick.
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&server.addr(), t).expect("connect");
        stream.set_read_timeout(Some(t)).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut ms: Vec<f64> = (0..20)
            .map(|_| {
                let start = std::time::Instant::now();
                writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
                let mut resp = String::new();
                reader.read_line(&mut resp).expect("status answer");
                assert!(resp.contains("\"status\""), "{resp}");
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let median = (ms[9] + ms[10]) / 2.0;
        assert!(median < 20.0, "median query {median:.1} ms over one connection: {ms:?}");
        server.stop();
    }

    #[test]
    fn a_deeply_nested_line_gets_an_error_row_and_the_server_keeps_answering() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let t = Duration::from_secs(5);
        let resp = query_once(server.addr(), &"[".repeat(200_000), t).expect("error row");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(false), "{resp}");
        assert!(get(&v, "detail").as_str().unwrap().contains("nesting deeper than"), "{resp}");
        let resp = query_once(server.addr(), "{\"cmd\":\"status\"}", t).expect("status after");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        server.stop();
    }

    #[test]
    fn tcp_round_trip_and_shutdown_signal() {
        let s = service();
        let server = QueryServer::start(Arc::clone(&s), "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let t = Duration::from_secs(5);
        let resp = query_once(addr, "{\"cmd\":\"status\"}", t).expect("status round-trip");
        let v: serde_json::Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(get(&v, "ok").as_bool(), Some(true));
        assert!(!server.wait_shutdown(Duration::from_millis(10)), "no shutdown yet");
        let resp = query_once(addr, "{\"cmd\":\"shutdown\"}", t).expect("shutdown round-trip");
        assert!(resp.contains("\"shutdown\""));
        assert!(server.wait_shutdown(t), "shutdown command fires the signal");
        server.stop();
    }
}
