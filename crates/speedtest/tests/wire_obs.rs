//! Integration tests for the wire-layer instrumentation (DESIGN.md §13):
//! per-connection byte, retry, and failure counters must match the
//! server's ground truth, including under injected failures.

use st_obs::Registry;
use st_speedtest::wire::{
    measure_download, measure_download_with, measure_upload_with, ShapedServer, WireOptions,
};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

const CHUNK: usize = 16 * 1024;

fn counter(reg: &Registry, key: &str) -> u64 {
    reg.snapshot().deterministic.counters.get(key).copied().unwrap_or(0)
}

#[test]
fn byte_counters_match_a_fixed_size_serve_exactly() {
    // A one-shot server that serves exactly 5 chunks and closes: the
    // client's byte counter must equal the served size to the byte.
    const SERVED: usize = 5 * CHUNK;
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut cmd = [0u8; 1];
        s.read_exact(&mut cmd).unwrap();
        s.write_all(&[0x5au8; SERVED]).unwrap();
        // Flush-then-FIN on loopback: the client sees all bytes then EOF.
    });

    let reg = Registry::new();
    let res = measure_download_with(
        addr,
        1,
        Duration::from_millis(2000),
        Duration::from_millis(100),
        &WireOptions::default(),
        &reg,
    )
    .unwrap();
    server.join().unwrap();

    assert_eq!(res.connections, 1);
    assert_eq!(res.connections_failed, 0);
    assert_eq!(counter(&reg, "wire.bytes{dir=down}"), SERVED as u64);
    assert_eq!(counter(&reg, "wire.connections_ok{dir=down}"), 1);
    assert_eq!(counter(&reg, "wire.connections_failed{dir=down}"), 0);
    assert_eq!(counter(&reg, "wire.connect_retries{dir=down}"), 0);
    let h = &reg.snapshot().deterministic.histograms["wire.connection_bytes{dir=down}"];
    assert_eq!(h.count, 1);
    assert_eq!(h.min, SERVED as f64);
    assert_eq!(h.max, SERVED as f64);
}

#[test]
fn injected_partial_failures_are_counted_per_connection() {
    // One connection is served a real stream, two are closed on accept:
    // they read EOF with zero bytes moved, so the registry must show one
    // survivor, two failures, and two zero-data detections.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let feeder = thread::spawn(move || {
            let mut cmd = [0u8; 1];
            if s.read_exact(&mut cmd).is_err() {
                return;
            }
            let payload = [0x5au8; CHUNK];
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(900) {
                if s.write_all(&payload).is_err() {
                    break;
                }
            }
        });
        for _ in 0..2 {
            if let Ok((s2, _)) = listener.accept() {
                drop(s2); // injected failure: close without serving
            }
        }
        feeder.join().unwrap();
    });

    let reg = Registry::new();
    let res = measure_download_with(
        addr,
        3,
        Duration::from_millis(600),
        Duration::from_millis(150),
        &WireOptions::for_duration(Duration::from_millis(600)),
        &reg,
    )
    .unwrap();
    server.join().unwrap();

    assert_eq!((res.connections, res.connections_failed), (1, 2), "{res:?}");
    assert_eq!(counter(&reg, "wire.connections_ok{dir=down}"), 1);
    assert_eq!(counter(&reg, "wire.connections_failed{dir=down}"), 2);
    assert_eq!(counter(&reg, "wire.zero_data_connections{dir=down}"), 2);
    assert!(counter(&reg, "wire.bytes{dir=down}") > 0, "survivor moved no data");
    // Every connection (including the failed ones) lands one observation
    // in the per-connection byte histogram.
    let h = &reg.snapshot().deterministic.histograms["wire.connection_bytes{dir=down}"];
    assert_eq!(h.count, 3);
    assert_eq!(h.min, 0.0, "failed connections observed zero bytes");
}

#[test]
fn retry_counters_match_the_configured_attempts() {
    // A dead port: every connection burns its full retry budget, so
    // retries = (attempts - 1) × connections, with one backoff sleep
    // recorded per retry.
    let addr = {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let opts = WireOptions {
        connect_attempts: 3,
        connect_backoff: Duration::from_millis(10),
        deadline: Duration::from_secs(5),
        ..WireOptions::default()
    };
    let reg = Registry::new();
    let res = measure_download_with(
        addr,
        2,
        Duration::from_millis(300),
        Duration::from_millis(100),
        &opts,
        &reg,
    );
    assert!(res.is_err(), "dead port produced {res:?}");

    assert_eq!(counter(&reg, "wire.connect_retries{dir=down}"), 4, "2 conns × 2 retries");
    assert_eq!(counter(&reg, "wire.connections_ok{dir=down}"), 0);
    assert_eq!(counter(&reg, "wire.connections_failed{dir=down}"), 2);
    let h = &reg.snapshot().deterministic.histograms["wire.backoff_sleep_s{dir=down}"];
    assert_eq!(h.count, 4, "one backoff sleep per retry");
    assert!(h.min >= 0.01 && h.max <= 1.6, "sleeps within configured backoff range: {h:?}");
}

#[test]
fn shaped_server_counters_agree_with_the_reported_result() {
    // Against the real ShapedServer, the byte counter must reproduce the
    // WireResult's whole-duration mean exactly (same atomic underneath),
    // for both directions under their dir labels.
    let server = ShapedServer::start(60.0, 10.0).unwrap();
    let reg = Registry::new();
    let duration = Duration::from_millis(800);
    let down = measure_download_with(
        server.addr(),
        2,
        duration,
        Duration::from_millis(200),
        &WireOptions::for_duration(duration),
        &reg,
    )
    .unwrap();
    let up = measure_upload_with(
        server.addr(),
        2,
        duration,
        Duration::from_millis(200),
        &WireOptions::for_duration(duration),
        &reg,
    )
    .unwrap();

    for (dir, res) in [("down", &down), ("up", &up)] {
        let bytes = counter(&reg, &format!("wire.bytes{{dir={dir}}}"));
        let implied_mbps = bytes as f64 * 8.0 / 1e6 / duration.as_secs_f64();
        assert!(
            (implied_mbps - res.mean_all_mbps).abs() < 1e-6,
            "{dir}: counter implies {implied_mbps} Mbps, result says {}",
            res.mean_all_mbps
        );
        assert_eq!(counter(&reg, &format!("wire.connections_ok{{dir={dir}}}")), 2);
        assert_eq!(counter(&reg, &format!("wire.connections_failed{{dir={dir}}}")), 0);
    }
}

#[test]
fn plain_entry_points_record_nothing() {
    // The un-observed API must stay metric-free (disabled registry all
    // the way down) and keep working.
    let server = ShapedServer::start(40.0, 10.0).unwrap();
    let res =
        measure_download(server.addr(), 1, Duration::from_millis(400), Duration::from_millis(100))
            .unwrap();
    assert!(res.mean_all_mbps > 0.0);
}
