//! A real TCP speed test over loopback.
//!
//! The rest of the workspace measures *simulated* paths; this module is the
//! existence proof that the methodology gap is a property of TCP itself,
//! not of the simulator. It implements:
//!
//! * [`TokenBucket`] — a thread-safe byte-rate shaper,
//! * [`ShapedServer`] — a TCP server whose aggregate send (and read) rate
//!   is shaped to a configured plan rate, emulating the access link, and
//! * [`measure_download`] / [`measure_upload`] — clients that open one or
//!   many connections and report throughput with or without a ramp-up
//!   discard, mirroring the NDT and Ookla methodologies.
//!
//! The `loopback_speedtest` example and the integration tests drive this
//! end-to-end: a multi-connection client measures the shaped rate; the
//! measured value must sit just under the shaped plan rate.
//!
//! The client side is hardened against the failure modes real crowdsourced
//! clients see (DESIGN.md §"Fault taxonomy and supervision contract"):
//! connects retry with capped exponential backoff, the whole test runs
//! under an overall deadline so a stalled server cannot hang the caller,
//! and when only a subset of connections fail the test still reports the
//! survivors' throughput with [`WireResult::connections_failed`] recording
//! the casualties. All knobs live on [`WireOptions`]; the plain
//! [`measure_download`] / [`measure_upload`] entry points use defaults
//! scaled to the test duration.

use crate::fault::{FaultKind, FaultProfile};
use parking_lot::Mutex;
use st_obs::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Protocol byte: client requests a download (server → client) stream.
const CMD_DOWNLOAD: u8 = b'D';
/// Protocol byte: client requests an upload (client → server) sink.
const CMD_UPLOAD: u8 = b'U';
/// Protocol byte: client requests a ping echo service.
const CMD_PING: u8 = b'P';
/// Protocol byte: a fault preamble follows — 8-byte session id (BE),
/// 1-byte attempt index, then the real command byte. Fault-enabled
/// servers look the session up in their [`FaultProfile`]; servers
/// without a profile serve the inner command healthily, so the load
/// harness works unchanged against a clean pool.
const CMD_FAULTED: u8 = b'F';
/// Bytes in the fault preamble after [`CMD_FAULTED`]: session + attempt.
const FAULT_HEADER: usize = 9;
/// Ping payload size, bytes (a sequence number).
const PING_PAYLOAD: usize = 8;
/// Transfer chunk size, bytes.
const CHUNK: usize = 16 * 1024;
/// Rate divisor applied by [`FaultKind::ThrottledSlowStart`].
const THROTTLE_FACTOR: f64 = 8.0;

/// Bucket bounds for per-connection byte histograms (1 KiB … 1 GiB).
const BYTES_BOUNDS: &[f64] =
    &[1024.0, 16384.0, 131072.0, 1048576.0, 16777216.0, 134217728.0, 1073741824.0];
/// Bucket bounds for backoff sleep histograms, seconds.
const BACKOFF_BOUNDS: &[f64] = &[0.05, 0.1, 0.2, 0.4, 0.8, 1.6];

/// The `dir` metric label for a protocol command byte.
fn dir_label(cmd: u8) -> &'static str {
    if cmd == CMD_UPLOAD {
        "up"
    } else {
        "down"
    }
}

/// A token bucket limiting aggregate bytes per second.
///
/// All server connections draw from one bucket, so the configured rate is
/// shared exactly like a provisioned access link is shared by the parallel
/// connections of one speed test.
#[derive(Debug)]
pub struct TokenBucket {
    state: Mutex<BucketState>,
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket delivering `mbps` megabits per second with `burst_ms`
    /// milliseconds of burst allowance.
    pub fn new(mbps: f64, burst_ms: f64) -> Self {
        assert!(mbps > 0.0, "rate must be positive");
        assert!(burst_ms >= 0.0, "burst must be non-negative");
        let rate = mbps * 1e6 / 8.0;
        TokenBucket {
            state: Mutex::new(BucketState { tokens: 0.0, last_refill: Instant::now() }),
            rate_bytes_per_sec: rate,
            burst_bytes: (rate * burst_ms / 1000.0).max(CHUNK as f64),
        }
    }

    /// The shaped rate in Mbps.
    pub fn rate_mbps(&self) -> f64 {
        self.rate_bytes_per_sec * 8.0 / 1e6
    }

    /// Block until `n` bytes of budget are available, then consume them.
    pub fn take(&self, n: usize) {
        loop {
            let wait = {
                let mut s = self.state.lock();
                let now = Instant::now();
                let elapsed = now.duration_since(s.last_refill).as_secs_f64();
                s.tokens = (s.tokens + elapsed * self.rate_bytes_per_sec)
                    .min(self.burst_bytes.max(n as f64));
                s.last_refill = now;
                if s.tokens >= n as f64 {
                    s.tokens -= n as f64;
                    None
                } else {
                    Some(Duration::from_secs_f64((n as f64 - s.tokens) / self.rate_bytes_per_sec))
                }
            };
            match wait {
                None => return,
                Some(d) => thread::sleep(d.min(Duration::from_millis(50))),
            }
        }
    }
}

/// A loopback speed-test server with shaped download and upload rates.
///
/// Shutdown (on drop) joins the accept thread *and* every per-connection
/// worker, so no thread or socket outlives the server — wire tests can't
/// leak past the test harness.
pub struct ShapedServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl ShapedServer {
    /// Start a server on an ephemeral loopback port, shaping downloads to
    /// `down_mbps` and uploads to `up_mbps` (aggregate across connections).
    pub fn start(down_mbps: f64, up_mbps: f64) -> std::io::Result<ShapedServer> {
        ShapedServer::start_configured(down_mbps, up_mbps, None)
    }

    /// [`ShapedServer::start`] with a [`FaultProfile`] installed: sessions
    /// announcing themselves via the fault preamble are served the fate the
    /// profile deals them (DESIGN.md §16). Connections without a preamble
    /// are always served healthily.
    pub fn start_with_faults(
        down_mbps: f64,
        up_mbps: f64,
        profile: FaultProfile,
    ) -> std::io::Result<ShapedServer> {
        ShapedServer::start_configured(down_mbps, up_mbps, Some(profile))
    }

    fn start_configured(
        down_mbps: f64,
        up_mbps: f64,
        profile: Option<FaultProfile>,
    ) -> std::io::Result<ShapedServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let down_bucket = Arc::new(TokenBucket::new(down_mbps, 40.0));
        let up_bucket = Arc::new(TokenBucket::new(up_mbps, 40.0));
        let workers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let shutdown2 = Arc::clone(&shutdown);
        let workers2 = Arc::clone(&workers);
        let accept_thread = thread::spawn(move || {
            while !shutdown2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let down = Arc::clone(&down_bucket);
                        let up = Arc::clone(&up_bucket);
                        let stop = Arc::clone(&shutdown2);
                        let handle = thread::spawn(move || {
                            let _ = serve_connection(stream, &down, &up, &stop, profile.as_ref());
                        });
                        let mut ws = workers2.lock();
                        // Reap finished workers so the registry doesn't
                        // grow with every connection ever served.
                        ws.retain(|w| !w.is_finished());
                        ws.push(handle);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(ShapedServer { addr, shutdown, accept_thread: Some(accept_thread), workers })
    }

    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ShapedServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread is gone, so no new workers can appear; join
        // every per-connection worker before returning.
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    down: &TokenBucket,
    up: &TokenBucket,
    stop: &AtomicBool,
    profile: Option<&FaultProfile>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_write_timeout(Some(Duration::from_millis(200)))?;
    let mut cmd = [0u8; 1];
    stream.read_exact(&mut cmd)?;

    // Fault preamble: self-identified sessions get the fate the profile
    // deals them. `fault` is `(kind, chunks_before)` when this connection
    // belongs to a session whose fault is active on this attempt.
    let mut fault: Option<(FaultKind, u64)> = None;
    if cmd[0] == CMD_FAULTED {
        let mut header = [0u8; FAULT_HEADER];
        stream.read_exact(&mut header)?;
        let session = u64::from_be_bytes(header[..8].try_into().expect("8-byte slice"));
        let attempt = u32::from(header[8]);
        stream.read_exact(&mut cmd)?;
        if let Some(p) = profile {
            let plan = p.plan_for(session);
            fault = plan.active(attempt).map(|k| (k, u64::from(plan.chunks_before)));
        }
    }
    if matches!(fault, Some((FaultKind::RefuseConnect, _))) {
        // Emulated refusal: the connection dies before a single payload
        // byte, whatever service was asked for.
        return Ok(());
    }
    // ThrottledSlowStart serves the whole transfer from a private bucket
    // at a fraction of the shaped rate.
    let throttled = |shaped: &TokenBucket| {
        matches!(fault, Some((FaultKind::ThrottledSlowStart, _)))
            .then(|| TokenBucket::new((shaped.rate_mbps() / THROTTLE_FACTOR).max(0.1), 40.0))
    };

    let payload = [0x5au8; CHUNK];
    let mut sink = [0u8; CHUNK];
    match cmd[0] {
        CMD_DOWNLOAD => {
            // Stream shaped data until the client hangs up or we stop. A
            // stalled client only blocks until the write timeout, so the
            // worker always re-checks the stop flag and can be joined.
            let throttle = throttled(down);
            let mut served_chunks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match fault {
                    Some((FaultKind::AcceptThenReset | FaultKind::EarlyFin, n))
                        if served_chunks >= n =>
                    {
                        // Close after the planned chunks: a reset/early
                        // FIN mid-transfer, as seen by the client.
                        return Ok(());
                    }
                    Some((FaultKind::MidTransferStall, n)) if served_chunks >= n => {
                        // Go silent but hold the socket open; watch for
                        // the client hanging up so the worker still joins.
                        let mut probe = [0u8; 1];
                        match stream.read(&mut probe) {
                            Ok(0) => return Ok(()),
                            Ok(_) => {}
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut => {}
                            Err(_) => return Ok(()),
                        }
                        continue;
                    }
                    _ => {}
                }
                match &throttle {
                    Some(t) => t.take(CHUNK),
                    None => down.take(CHUNK),
                }
                match stream.write_all(&payload) {
                    Ok(()) => served_chunks += 1,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
            }
        }
        CMD_PING => {
            // Echo fixed-size payloads until the client hangs up. Pings
            // are not shaped: latency measurement must not compete with
            // the token bucket.
            let corrupt = matches!(fault, Some((FaultKind::CorruptEcho, _)));
            let mut ping_buf = [0u8; PING_PAYLOAD];
            while !stop.load(Ordering::Relaxed) {
                match stream.read_exact(&mut ping_buf) {
                    Ok(()) => {
                        if corrupt {
                            // Flip a byte: the client's integrity check
                            // must catch this and fail the attempt.
                            ping_buf[0] ^= 0xff;
                        }
                        if stream.write_all(&ping_buf).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
            }
        }
        CMD_UPLOAD => {
            // Read at the shaped rate; backpressure through the socket
            // buffer throttles the sender, like a shaped uplink.
            let throttle = throttled(up);
            let mut read_chunks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match fault {
                    Some((FaultKind::AcceptThenReset | FaultKind::EarlyFin, n))
                        if read_chunks >= n =>
                    {
                        return Ok(());
                    }
                    Some((FaultKind::MidTransferStall, n)) if read_chunks >= n => {
                        // Stop draining at the shaped rate: probe one
                        // byte per timeout tick, so the client's writes
                        // back up in the socket buffer but its eventual
                        // hangup is still noticed and the worker joins.
                        let mut probe = [0u8; 1];
                        match stream.read(&mut probe) {
                            Ok(0) => return Ok(()),
                            Ok(_) => {}
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut => {}
                            Err(_) => return Ok(()),
                        }
                        continue;
                    }
                    _ => {}
                }
                match &throttle {
                    Some(t) => t.take(CHUNK),
                    None => up.take(CHUNK),
                }
                match stream.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => read_chunks += 1,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
            }
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown command byte {other:#x}"),
            ));
        }
    }
    Ok(())
}

/// Outcome of a wire-level measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireResult {
    /// Whole-duration average, Mbps (NDT-style reporting).
    pub mean_all_mbps: f64,
    /// Average excluding the ramp, Mbps (Ookla-style reporting).
    pub mean_steady_mbps: f64,
    /// Connections that completed their transfer.
    pub connections: usize,
    /// Connections that failed (connect retries exhausted, mid-transfer
    /// error, no data received, or abandoned at the test deadline). The
    /// reported means come from the surviving connections only.
    pub connections_failed: usize,
}

/// Identifies one load-harness session (and retry attempt) to a
/// fault-enabled server. When set on [`WireOptions::session`], every
/// connection announces itself with the fault preamble so the server can
/// look the session up in its [`FaultProfile`]. Servers without a
/// profile ignore the tag and serve healthily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTag {
    /// The load-harness session id (the fault-schedule key).
    pub id: u64,
    /// The 0-based retry attempt this connection belongs to.
    pub attempt: u8,
}

/// Client-side robustness knobs for a wire test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireOptions {
    /// Connect attempts per connection before giving up on it.
    pub connect_attempts: u32,
    /// Backoff before the first reconnect; doubled per attempt, capped at
    /// [`WireOptions::connect_backoff_cap`].
    pub connect_backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub connect_backoff_cap: Duration,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Overall wall-clock budget for the whole test. Connections that
    /// have not reported by then are abandoned and counted as failed, so
    /// a stalled or unreachable server cannot hang the caller.
    pub deadline: Duration,
    /// When set, connections identify themselves to fault-enabled
    /// servers with this tag (the chaos-harness path). `None` — the
    /// default — sends the plain protocol.
    pub session: Option<SessionTag>,
}

impl Default for WireOptions {
    fn default() -> Self {
        WireOptions {
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(50),
            connect_backoff_cap: Duration::from_millis(400),
            connect_timeout: Duration::from_secs(2),
            deadline: Duration::from_secs(30),
            session: None,
        }
    }
}

impl WireOptions {
    /// Defaults with the deadline scaled to a test of `duration`: three
    /// times the transfer window plus connect slack.
    pub fn for_duration(duration: Duration) -> Self {
        WireOptions { deadline: duration * 3 + Duration::from_secs(2), ..WireOptions::default() }
    }
}

/// Connect with bounded retries and capped exponential backoff. Every
/// retry bumps `wire.connect_retries`, drops a `wire.connect_retry`
/// lifecycle mark on the trace timeline, and its backoff sleep lands in
/// the `wire.backoff_sleep_s` histogram.
fn connect_with_retry(
    addr: SocketAddr,
    opts: &WireOptions,
    reg: &Registry,
    dir: &str,
) -> std::io::Result<TcpStream> {
    let labels = &[("dir", dir)];
    let mut backoff = opts.connect_backoff;
    let mut last_err = None;
    for attempt in 0..opts.connect_attempts.max(1) {
        if attempt > 0 {
            let attempt_str = attempt.to_string();
            reg.event(
                "wire.connect_retry",
                "lifecycle",
                &[("dir", dir), ("attempt", &attempt_str)],
            );
            reg.inc("wire.connect_retries", labels);
            reg.observe("wire.backoff_sleep_s", labels, backoff.as_secs_f64(), BACKOFF_BOUNDS);
            thread::sleep(backoff);
            backoff = (backoff * 2).min(opts.connect_backoff_cap);
        }
        match TcpStream::connect_timeout(&addr, opts.connect_timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempts configured")))
}

/// Send the protocol handshake: the bare command byte, or — when a
/// [`SessionTag`] is set — the fault preamble (`'F'`, session id,
/// attempt) followed by the command, as one write.
fn handshake(stream: &mut TcpStream, cmd: u8, session: Option<SessionTag>) -> std::io::Result<()> {
    match session {
        None => stream.write_all(&[cmd]),
        Some(tag) => {
            let mut buf = [0u8; 2 + FAULT_HEADER];
            buf[0] = CMD_FAULTED;
            buf[1..9].copy_from_slice(&tag.id.to_be_bytes());
            buf[9] = tag.attempt;
            buf[10] = cmd;
            stream.write_all(&buf)
        }
    }
}

/// Measure download throughput against a [`ShapedServer`].
///
/// Opens `n_conns` connections, reads for `duration`, and reports both the
/// whole-duration average and the average excluding `ramp_discard`.
/// Robustness knobs come from [`WireOptions::for_duration`]; use
/// [`measure_download_with`] to override them or record metrics.
pub fn measure_download(
    addr: SocketAddr,
    n_conns: usize,
    duration: Duration,
    ramp_discard: Duration,
) -> std::io::Result<WireResult> {
    let opts = WireOptions::for_duration(duration);
    measure_download_with(addr, n_conns, duration, ramp_discard, &opts, &Registry::disabled())
}

/// [`measure_download`] with explicit [`WireOptions`], recording wire
/// metrics into `reg` (DESIGN.md §13): per-connection bytes, connect
/// retries, backoff sleeps, zero-data detections, and connection
/// outcomes, all under a `dir=down` label.
pub fn measure_download_with(
    addr: SocketAddr,
    n_conns: usize,
    duration: Duration,
    ramp_discard: Duration,
    opts: &WireOptions,
    reg: &Registry,
) -> std::io::Result<WireResult> {
    run_wire_test(addr, n_conns, duration, ramp_discard, CMD_DOWNLOAD, opts, reg)
}

/// Measure upload throughput against a [`ShapedServer`].
pub fn measure_upload(
    addr: SocketAddr,
    n_conns: usize,
    duration: Duration,
    ramp_discard: Duration,
) -> std::io::Result<WireResult> {
    let opts = WireOptions::for_duration(duration);
    measure_upload_with(addr, n_conns, duration, ramp_discard, &opts, &Registry::disabled())
}

/// [`measure_upload`] with explicit [`WireOptions`], recording wire
/// metrics into `reg` under a `dir=up` label.
pub fn measure_upload_with(
    addr: SocketAddr,
    n_conns: usize,
    duration: Duration,
    ramp_discard: Duration,
    opts: &WireOptions,
    reg: &Registry,
) -> std::io::Result<WireResult> {
    run_wire_test(addr, n_conns, duration, ramp_discard, CMD_UPLOAD, opts, reg)
}

/// Latency measured over the wire protocol's echo service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyResult {
    /// Minimum observed RTT, seconds.
    pub min_s: f64,
    /// Mean RTT, seconds.
    pub mean_s: f64,
    /// Maximum RTT, seconds.
    pub max_s: f64,
    /// Mean absolute deviation between consecutive RTTs (jitter), seconds.
    pub jitter_s: f64,
    /// Pings completed.
    pub count: usize,
}

impl LatencyResult {
    /// Summarize a non-empty series of round-trip times, in seconds.
    fn from_rtts(rtts: &[f64]) -> Self {
        let min_s = rtts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_s = rtts.iter().cloned().fold(0.0f64, f64::max);
        let mean_s = rtts.iter().sum::<f64>() / rtts.len() as f64;
        let jitter_s = if rtts.len() < 2 {
            0.0
        } else {
            rtts.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (rtts.len() - 1) as f64
        };
        LatencyResult { min_s, mean_s, max_s, jitter_s, count: rtts.len() }
    }
}

/// Measure round-trip latency with `n_pings` echo exchanges.
///
/// Hardened like the transfer paths: the connect goes through the same
/// bounded retry/backoff machinery, the socket carries read *and* write
/// timeouts, and the whole exchange runs under [`WireOptions::deadline`]
/// — a server that accepts and then goes silent costs one timeout, not a
/// hung caller. Use [`measure_latency_with`] for explicit options or
/// metrics.
pub fn measure_latency(addr: SocketAddr, n_pings: usize) -> std::io::Result<LatencyResult> {
    measure_latency_with(addr, n_pings, &WireOptions::default(), &Registry::disabled())
}

/// [`measure_latency`] with explicit [`WireOptions`], recording connect
/// retries and backoff sleeps into `reg` under a `dir=ping` label.
pub fn measure_latency_with(
    addr: SocketAddr,
    n_pings: usize,
    opts: &WireOptions,
    reg: &Registry,
) -> std::io::Result<LatencyResult> {
    assert!(n_pings >= 1, "need at least one ping");
    let start = Instant::now();
    let mut stream = connect_with_retry(addr, opts, reg, "ping")?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    handshake(&mut stream, CMD_PING, opts.session)?;

    let mut rtts = Vec::with_capacity(n_pings);
    let mut buf = [0u8; PING_PAYLOAD];
    for seq in 0..n_pings as u64 {
        if start.elapsed() > opts.deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "latency measurement deadline exceeded",
            ));
        }
        let payload = seq.to_be_bytes();
        let t0 = Instant::now();
        stream.write_all(&payload)?;
        stream.read_exact(&mut buf)?;
        if buf != payload {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "echo payload mismatch",
            ));
        }
        rtts.push(t0.elapsed().as_secs_f64());
    }
    Ok(LatencyResult::from_rtts(&rtts))
}

/// One measurement connection: connect (with retry), run the transfer
/// loop until `duration` or the shared abort flag, and account bytes into
/// the shared counters. A download connection that moves zero bytes is an
/// error — it contributed nothing and would silently dilute the result.
#[allow(clippy::too_many_arguments)]
fn run_one_connection(
    addr: SocketAddr,
    duration: Duration,
    ramp_discard: Duration,
    cmd: u8,
    opts: &WireOptions,
    start: Instant,
    total: &AtomicU64,
    steady: &AtomicU64,
    abort: &AtomicBool,
    reg: &Registry,
) -> std::io::Result<()> {
    let dir = dir_label(cmd);
    let labels = &[("dir", dir)];
    let mut stream = connect_with_retry(addr, opts, reg, dir)?;

    // Everything after a successful connect accounts its bytes, even on
    // an error exit — a reset connection is still one observation in the
    // per-connection histogram (with however many bytes it moved).
    let mut moved_total = 0u64;
    let outcome = (|| -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        handshake(&mut stream, cmd, opts.session)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        stream.set_write_timeout(Some(Duration::from_millis(100)))?;
        let mut buf = [0u8; CHUNK];
        let payload = [0xa5u8; CHUNK];
        while start.elapsed() < duration && !abort.load(Ordering::Relaxed) {
            let moved = if cmd == CMD_DOWNLOAD {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) => return Err(e),
                }
            } else {
                match stream.write(&payload) {
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) => return Err(e),
                }
            };
            moved_total += moved as u64;
            total.fetch_add(moved as u64, Ordering::Relaxed);
            if start.elapsed() >= ramp_discard {
                steady.fetch_add(moved as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    })();

    reg.add("wire.bytes", labels, moved_total);
    reg.observe("wire.connection_bytes", labels, moved_total as f64, BYTES_BOUNDS);
    if cmd == CMD_DOWNLOAD && moved_total == 0 {
        reg.inc("wire.zero_data_connections", labels);
    }
    outcome?;
    if cmd == CMD_DOWNLOAD && moved_total == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection received no data",
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_wire_test(
    addr: SocketAddr,
    n_conns: usize,
    duration: Duration,
    ramp_discard: Duration,
    cmd: u8,
    opts: &WireOptions,
    reg: &Registry,
) -> std::io::Result<WireResult> {
    assert!(n_conns >= 1, "need at least one connection");
    assert!(ramp_discard < duration, "discard must be shorter than the test");

    let total = Arc::new(AtomicU64::new(0));
    let steady = Arc::new(AtomicU64::new(0));
    let abort = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel::<std::io::Result<()>>();
    let start = Instant::now();

    for _ in 0..n_conns {
        let total = Arc::clone(&total);
        let steady = Arc::clone(&steady);
        let abort = Arc::clone(&abort);
        let tx = tx.clone();
        let opts = *opts;
        let reg = reg.clone();
        thread::spawn(move || {
            let result = run_one_connection(
                addr,
                duration,
                ramp_discard,
                cmd,
                &opts,
                start,
                &total,
                &steady,
                &abort,
                &reg,
            );
            let _ = tx.send(result);
        });
    }
    drop(tx);

    // Collect per-connection outcomes under the overall deadline. When it
    // expires, raise the abort flag (workers poll it every socket-timeout
    // tick), grant one grace window for them to report, then count any
    // holdout as failed and abandon its detached thread.
    let mut connections = 0usize;
    let mut failed = 0usize;
    let mut last_err: Option<std::io::Error> = None;
    let mut pending = n_conns;
    let mut deadline_hit = false;
    while pending > 0 {
        let budget = if deadline_hit {
            Duration::from_millis(500)
        } else {
            opts.deadline.saturating_sub(start.elapsed())
        };
        match rx.recv_timeout(budget) {
            Ok(Ok(())) => {
                connections += 1;
                pending -= 1;
            }
            Ok(Err(e)) => {
                failed += 1;
                last_err = Some(e);
                pending -= 1;
            }
            Err(_) if !deadline_hit => {
                deadline_hit = true;
                reg.inc("wire.deadline_hits", &[("dir", dir_label(cmd))]);
                abort.store(true, Ordering::Relaxed);
            }
            Err(_) => {
                failed += pending;
                last_err = Some(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "wire test deadline exceeded",
                ));
                pending = 0;
            }
        }
    }

    let outcome_labels = &[("dir", dir_label(cmd))];
    reg.add("wire.connections_ok", outcome_labels, connections as u64);
    reg.add("wire.connections_failed", outcome_labels, failed as u64);

    if connections == 0 {
        return Err(last_err.unwrap_or_else(|| std::io::Error::other("all connections failed")));
    }
    let to_mbps = |bytes: u64, secs: f64| bytes as f64 * 8.0 / 1e6 / secs;
    Ok(WireResult {
        mean_all_mbps: to_mbps(total.load(Ordering::Relaxed), duration.as_secs_f64()),
        mean_steady_mbps: to_mbps(
            steady.load(Ordering::Relaxed),
            (duration - ramp_discard).as_secs_f64(),
        ),
        connections,
        connections_failed: failed,
    })
}

/// A complete wire-level test session: download + upload + latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSession {
    /// Download measurement.
    pub download: WireResult,
    /// Upload measurement.
    pub upload: WireResult,
    /// Idle latency (measured before the transfers).
    pub idle_latency: LatencyResult,
    /// Latency measured while the download ran (loaded latency).
    pub loaded_latency: LatencyResult,
}

/// Run a full session against a [`ShapedServer`]: idle pings, then a
/// download with concurrent pings (loaded latency), then an upload.
/// This is the wire-level equivalent of what the simulated methodologies
/// report, including the bufferbloat signal.
pub fn run_session(
    addr: SocketAddr,
    n_conns: usize,
    duration: Duration,
    ramp_discard: Duration,
) -> std::io::Result<WireSession> {
    let idle_latency = measure_latency(addr, 10)?;

    // Loaded latency: ping while the download saturates the shaped link.
    let ping_handle = {
        let ping_duration = duration;
        let opts = WireOptions::for_duration(duration);
        thread::spawn(move || -> std::io::Result<LatencyResult> {
            // Spread pings across the transfer window.
            let n = 10usize;
            let gap = ping_duration / (n as u32 + 1);
            let mut stream = connect_with_retry(addr, &opts, &Registry::disabled(), "ping")?;
            stream.set_nodelay(true)?;
            stream.set_write_timeout(Some(Duration::from_secs(2)))?;
            stream.write_all(&[CMD_PING])?;
            stream.set_read_timeout(Some(Duration::from_secs(2)))?;
            let mut rtts = Vec::with_capacity(n);
            let mut buf = [0u8; PING_PAYLOAD];
            for seq in 0..n as u64 {
                thread::sleep(gap);
                let payload = seq.to_be_bytes();
                let t0 = Instant::now();
                stream.write_all(&payload)?;
                stream.read_exact(&mut buf)?;
                rtts.push(t0.elapsed().as_secs_f64());
            }
            Ok(LatencyResult::from_rtts(&rtts))
        })
    };
    let download = measure_download(addr, n_conns, duration, ramp_discard)?;
    let loaded_latency =
        ping_handle.join().map_err(|_| std::io::Error::other("ping thread panicked"))??;

    let upload = measure_upload(addr, n_conns.min(2), duration, ramp_discard)?;
    Ok(WireSession { download, upload, idle_latency, loaded_latency })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_rate() {
        // 80 Mbps = 10 MB/s; taking 2 MB should need ~0.2 s.
        let bucket = TokenBucket::new(80.0, 10.0);
        let start = Instant::now();
        for _ in 0..128 {
            bucket.take(CHUNK); // 128 * 16 KiB = 2 MiB
        }
        let secs = start.elapsed().as_secs_f64();
        let mbps = 128.0 * CHUNK as f64 * 8.0 / 1e6 / secs;
        assert!(mbps < 100.0, "shaped rate {mbps} way above 80 Mbps");
        assert!(mbps > 40.0, "shaped rate {mbps} way below 80 Mbps");
    }

    #[test]
    fn bucket_burst_allows_initial_spike() {
        let bucket = TokenBucket::new(8.0, 1000.0); // 1 s of burst = 1 MB
        thread::sleep(Duration::from_millis(300)); // accumulate some tokens
        let start = Instant::now();
        bucket.take(200 * 1024); // within accumulated burst
        assert!(start.elapsed() < Duration::from_millis(120));
    }

    #[test]
    fn bucket_reports_rate() {
        assert!((TokenBucket::new(123.0, 5.0).rate_mbps() - 123.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn bucket_rejects_zero_rate() {
        let _ = TokenBucket::new(0.0, 5.0);
    }

    #[test]
    fn loopback_download_measures_shaped_rate() {
        let server = ShapedServer::start(60.0, 10.0).unwrap();
        let res = measure_download(
            server.addr(),
            4,
            Duration::from_millis(1200),
            Duration::from_millis(300),
        )
        .unwrap();
        assert!(
            res.mean_steady_mbps > 35.0 && res.mean_steady_mbps < 75.0,
            "measured {res:?} against 60 Mbps shaping"
        );
    }

    #[test]
    fn loopback_upload_measures_shaped_rate() {
        let server = ShapedServer::start(100.0, 20.0).unwrap();
        let res = measure_upload(
            server.addr(),
            2,
            Duration::from_millis(1200),
            Duration::from_millis(300),
        )
        .unwrap();
        assert!(
            res.mean_steady_mbps > 10.0 && res.mean_steady_mbps < 40.0,
            "measured {res:?} against 20 Mbps shaping"
        );
    }

    #[test]
    fn multi_connection_shares_one_bucket() {
        // Aggregate throughput must track the shaped rate regardless of
        // connection count — the bucket is the access link.
        let server = ShapedServer::start(50.0, 10.0).unwrap();
        let one = measure_download(
            server.addr(),
            1,
            Duration::from_millis(900),
            Duration::from_millis(200),
        )
        .unwrap();
        let four = measure_download(
            server.addr(),
            4,
            Duration::from_millis(900),
            Duration::from_millis(200),
        )
        .unwrap();
        assert!(
            (four.mean_steady_mbps - one.mean_steady_mbps).abs()
                < 0.6 * one.mean_steady_mbps.max(four.mean_steady_mbps),
            "1 conn {one:?} vs 4 conn {four:?} should both track ~50 Mbps"
        );
    }

    #[test]
    fn ping_measures_loopback_latency() {
        let server = ShapedServer::start(50.0, 10.0).unwrap();
        let lat = measure_latency(server.addr(), 20).unwrap();
        assert_eq!(lat.count, 20);
        assert!(lat.min_s > 0.0);
        assert!(lat.min_s <= lat.mean_s && lat.mean_s <= lat.max_s);
        assert!(lat.mean_s < 0.05, "loopback RTT {} too high", lat.mean_s);
        assert!(lat.jitter_s >= 0.0);
    }

    #[test]
    fn ping_works_alongside_a_download() {
        // Latency measured while another client loads the shaped link.
        let server = ShapedServer::start(40.0, 10.0).unwrap();
        let addr = server.addr();
        let loader = thread::spawn(move || {
            measure_download(addr, 2, Duration::from_millis(800), Duration::from_millis(200))
        });
        thread::sleep(Duration::from_millis(100));
        let lat = measure_latency(addr, 10).unwrap();
        assert!(lat.count == 10);
        loader.join().unwrap().unwrap();
    }

    #[test]
    fn full_session_reports_all_four_measurements() {
        let server = ShapedServer::start(60.0, 12.0).unwrap();
        let s =
            run_session(server.addr(), 4, Duration::from_millis(1000), Duration::from_millis(250))
                .unwrap();
        assert!(s.download.mean_steady_mbps > 20.0, "{s:?}");
        assert!(s.upload.mean_steady_mbps > 3.0, "{s:?}");
        assert_eq!(s.idle_latency.count, 10);
        assert_eq!(s.loaded_latency.count, 10);
        // Loopback has no shaped queue on the ping path, so loaded latency
        // stays sane (scheduling noise only).
        assert!(s.loaded_latency.mean_s < 0.2);
    }

    #[test]
    fn shutdown_joins_workers_even_with_a_stalled_client() {
        // A client that starts a download and then never reads: the
        // connection worker parks in shaped writes. Dropping the server
        // must still join it promptly instead of leaking the thread.
        let server = ShapedServer::start(500.0, 10.0).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&[CMD_DOWNLOAD]).unwrap();
        thread::sleep(Duration::from_millis(150)); // let the worker start
        let t0 = Instant::now();
        drop(server);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown blocked on a stalled connection worker"
        );
        drop(stream);
    }

    #[test]
    fn refused_port_fails_after_bounded_retries() {
        // Bind and immediately drop a listener so the port refuses
        // connections; the client must exhaust its retries and return an
        // error quickly instead of hanging or succeeding.
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
        let t0 = Instant::now();
        let res = measure_download_with(
            addr,
            2,
            Duration::from_millis(400),
            Duration::from_millis(100),
            &opts,
            &Registry::disabled(),
        );
        assert!(res.is_err(), "refused port produced {res:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "retries not bounded: took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn stalled_server_cannot_hang_the_test() {
        // A server that accepts but never sends a byte: every download
        // connection times out read after read until the transfer window
        // closes, then reports "no data". The caller gets an error within
        // the deadline instead of blocking forever.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = thread::spawn(move || {
            let mut held = Vec::new();
            for _ in 0..2 {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s); // keep the sockets open, send nothing
                }
            }
            thread::sleep(Duration::from_millis(900));
            drop(held);
        });
        let opts = WireOptions { deadline: Duration::from_secs(3), ..WireOptions::default() };
        let t0 = Instant::now();
        let res = measure_download_with(
            addr,
            2,
            Duration::from_millis(500),
            Duration::from_millis(100),
            &opts,
            &Registry::disabled(),
        );
        assert!(res.is_err(), "a silent server produced data: {res:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "stalled server hung the test: {:?}",
            t0.elapsed()
        );
        stall.join().unwrap();
    }

    #[test]
    fn partial_connection_failure_still_reports_survivors() {
        // A one-shot server: the first accepted connection is served a
        // real download stream, later ones are closed immediately. The
        // test must report the surviving connection's throughput and count
        // the two casualties instead of failing wholesale.
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
                    drop(s2); // refuse service: immediate close
                }
            }
            feeder.join().unwrap();
        });
        let res = measure_download(addr, 3, Duration::from_millis(600), Duration::from_millis(150))
            .unwrap();
        assert_eq!(res.connections, 1, "exactly one connection was served: {res:?}");
        assert_eq!(res.connections_failed, 2, "{res:?}");
        assert!(res.mean_all_mbps > 0.0, "survivor moved no data: {res:?}");
        server.join().unwrap();
    }

    #[test]
    fn healthy_test_reports_no_failed_connections() {
        let server = ShapedServer::start(80.0, 10.0).unwrap();
        let res = measure_download(
            server.addr(),
            3,
            Duration::from_millis(700),
            Duration::from_millis(200),
        )
        .unwrap();
        assert_eq!(res.connections, 3);
        assert_eq!(res.connections_failed, 0);
    }

    #[test]
    fn fault_preamble_without_a_profile_serves_healthily() {
        // Back-compat: a tagged client against a plain server must be
        // indistinguishable from an untagged one.
        let server = ShapedServer::start(60.0, 10.0).unwrap();
        let opts = WireOptions {
            session: Some(SessionTag { id: 7, attempt: 0 }),
            ..WireOptions::for_duration(Duration::from_millis(600))
        };
        let res = measure_download_with(
            server.addr(),
            2,
            Duration::from_millis(600),
            Duration::from_millis(150),
            &opts,
            &Registry::disabled(),
        )
        .unwrap();
        assert_eq!(res.connections_failed, 0, "{res:?}");
        assert!(res.mean_all_mbps > 0.0, "{res:?}");
        let lat = measure_latency_with(server.addr(), 5, &opts, &Registry::disabled()).unwrap();
        assert_eq!(lat.count, 5);
    }

    #[test]
    fn corrupt_echo_fault_is_detected_then_clears_after_its_window() {
        let profile = FaultProfile::new(11, 1.0);
        let sid = (0..500u64)
            .find(|&s| profile.plan_for(s).kind == Some(FaultKind::CorruptEcho))
            .expect("rate-1.0 profile deals every kind in 500 sessions");
        let server = ShapedServer::start_with_faults(50.0, 10.0, profile).unwrap();
        let faulted = WireOptions {
            session: Some(SessionTag { id: sid, attempt: 0 }),
            ..WireOptions::default()
        };
        let err =
            measure_latency_with(server.addr(), 3, &faulted, &Registry::disabled()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        // An attempt past the fault window is served clean — this is what
        // makes retried sessions recover deterministically.
        let recovered = WireOptions {
            session: Some(SessionTag {
                id: sid,
                attempt: profile.plan_for(sid).faulted_attempts as u8,
            }),
            ..WireOptions::default()
        };
        assert_eq!(
            measure_latency_with(server.addr(), 3, &recovered, &Registry::disabled())
                .unwrap()
                .count,
            3
        );
    }

    #[test]
    fn refuse_connect_fault_fails_the_download_attempt() {
        let profile = FaultProfile::new(3, 1.0);
        let sid = (0..500u64)
            .find(|&s| profile.plan_for(s).kind == Some(FaultKind::RefuseConnect))
            .unwrap();
        let server = ShapedServer::start_with_faults(50.0, 10.0, profile).unwrap();
        let opts = WireOptions {
            session: Some(SessionTag { id: sid, attempt: 0 }),
            ..WireOptions::for_duration(Duration::from_millis(400))
        };
        let res = measure_download_with(
            server.addr(),
            1,
            Duration::from_millis(400),
            Duration::from_millis(100),
            &opts,
            &Registry::disabled(),
        );
        assert!(res.is_err(), "refused session produced {res:?}");
    }

    #[test]
    fn early_fin_fault_degrades_but_survives() {
        let profile = FaultProfile::new(5, 1.0);
        let sid =
            (0..500u64).find(|&s| profile.plan_for(s).kind == Some(FaultKind::EarlyFin)).unwrap();
        let server = ShapedServer::start_with_faults(500.0, 10.0, profile).unwrap();
        let opts = WireOptions {
            session: Some(SessionTag { id: sid, attempt: 0 }),
            ..WireOptions::for_duration(Duration::from_millis(500))
        };
        let res = measure_download_with(
            server.addr(),
            1,
            Duration::from_millis(500),
            Duration::from_millis(100),
            &opts,
            &Registry::disabled(),
        )
        .unwrap();
        // The planned chunks moved, then a clean close: partial data, no
        // failure — the soft-fault contract (chunks_before ≥ 1 ⇒ bytes > 0).
        assert_eq!(res.connections, 1, "{res:?}");
        assert!(res.mean_all_mbps > 0.0, "{res:?}");
    }

    #[test]
    #[should_panic(expected = "discard must be shorter")]
    fn discard_longer_than_test_rejected() {
        let server = ShapedServer::start(10.0, 10.0).unwrap();
        let _ = measure_download(
            server.addr(),
            1,
            Duration::from_millis(100),
            Duration::from_millis(200),
        );
    }
}
