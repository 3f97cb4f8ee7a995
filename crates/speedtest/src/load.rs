//! Chaos-hardened concurrent load harness (DESIGN.md §16).
//!
//! [`run_load`] drives hundreds of wire sessions against a pool of
//! [`crate::wire::ShapedServer`]s — optionally fault-injecting ones —
//! with per-session capped-exponential retry ([`BackoffSchedule`]), a
//! per-endpoint [`CircuitBreaker`], and AIM-style quality scoring of
//! every surviving session. It never panics and never fails wholesale:
//! the worst possible world (every session faulted, every endpoint
//! tripped) still folds into a [`LoadSummary`] with an explicit
//! degraded marker and NaN-free zeros.
//!
//! ## The plan → execute → fold shape
//!
//! The harness is deterministic where it matters and honest where it
//! can't be. Under the two-class metric contract (DESIGN.md §13) every
//! counter must be byte-identical across runs and `--parallelism`
//! levels, but sockets deliver bytes in wall-clock order — so the
//! harness splits:
//!
//! 1. **Plan** (sequential, in session-id order): every session's fate
//!    is derived from the [`FaultProfile`] — a pure function of
//!    `(seed, session id)` — and fed through the per-endpoint breakers.
//!    Every deterministic metric (`load.sessions_*`,
//!    `load.breaker_trips`, planned retries and backoff sleeps) is
//!    recorded here, before a single socket opens.
//! 2. **Execute** (concurrent, any order): admitted sessions run real
//!    wire measurements into per-session sub-registries that carry only
//!    wall-clock data (span durations, measured value histograms).
//! 3. **Fold** (sequential, in session-id order): sub-registries merge
//!    into the root, surviving sessions are scored, and actual-vs-plan
//!    divergence — possible only if the environment misbehaves beyond
//!    the injected faults — is surfaced as the wall-clock-class
//!    `unexpected_outcomes` count rather than silently absorbed.

use crate::fault::{FaultProfile, SessionFault};
use crate::retry::{Admission, BackoffSchedule, BreakerState, CircuitBreaker};
use crate::scoring::{score, QualityScores, SessionQuality};
use crate::wire::{
    measure_download_with, measure_latency_with, measure_upload_with, LatencyResult, SessionTag,
    WireOptions, WireResult,
};
use parking_lot::Mutex;
use serde::Serialize;
use st_obs::Registry;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Bucket bounds for the planned-backoff histogram, seconds.
const BACKOFF_BOUNDS: &[f64] = &[0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];
/// Bucket bounds for measured 0–100 quality scores.
const SCORE_BOUNDS: &[f64] = &[10.0, 25.0, 50.0, 75.0, 90.0, 99.0];
/// Bucket bounds for measured throughput, Mbps.
const MBPS_BOUNDS: &[f64] = &[1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0];
/// Bucket bounds for measured latency, milliseconds.
const LATENCY_MS_BOUNDS: &[f64] = &[0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0];

/// Configuration of one [`run_load`] campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadOptions {
    /// Sessions to drive. Session ids are `0..sessions`, assigned to
    /// pool endpoints round-robin.
    pub sessions: usize,
    /// Connections per session transfer.
    pub n_conns: usize,
    /// Transfer window per direction.
    pub duration: Duration,
    /// Ramp-up discard inside the transfer window.
    pub ramp_discard: Duration,
    /// Echo exchanges for the latency phase.
    pub n_pings: usize,
    /// Attempt budget per session (1 = no retries). At most 255 so the
    /// attempt index fits the wire preamble.
    pub attempts: u32,
    /// Retry backoff schedule (seeded jitter; see [`BackoffSchedule`]).
    pub backoff: BackoffSchedule,
    /// Breaker trips after this many consecutive session failures.
    pub breaker_k: u32,
    /// Breaker cooldown, counted in skipped admissions.
    pub breaker_cooldown: u32,
    /// Concurrent session workers. Changes wall-clock behavior only —
    /// never the deterministic metric class.
    pub parallelism: usize,
    /// Also measure upload (off by default: halves the wall cost).
    pub with_upload: bool,
    /// The fault schedule shared with the server pool. `None` plans
    /// every session healthy.
    pub faults: Option<FaultProfile>,
    /// Wire-level robustness knobs for each attempt's measurements.
    pub wire: WireOptions,
}

impl LoadOptions {
    /// Defaults sized for fast loopback campaigns: short transfers, one
    /// connection, three attempts with millisecond backoff, breakers at
    /// `k = 3` with a cooldown of 2 skips.
    pub fn new(sessions: usize) -> LoadOptions {
        let duration = Duration::from_millis(150);
        LoadOptions {
            sessions,
            n_conns: 1,
            duration,
            ramp_discard: Duration::from_millis(50),
            n_pings: 3,
            attempts: 3,
            backoff: BackoffSchedule::new(
                Duration::from_millis(5),
                Duration::from_millis(40),
                0xb0ff_5eed,
            ),
            breaker_k: 3,
            breaker_cooldown: 2,
            parallelism: 8,
            with_upload: false,
            faults: None,
            wire: WireOptions::for_duration(duration),
        }
    }
}

/// A session's plan-derived fate class. The deterministic summary
/// counters are sums over these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlannedOutcome {
    /// Healthy: completes on the first attempt.
    Ok,
    /// Hard-faulted with a fault window shorter than the attempt
    /// budget: completes after retries.
    Retried,
    /// Soft-faulted: completes on the first attempt with partial or
    /// slowed data.
    Degraded,
    /// Hard-faulted beyond the attempt budget: every attempt fails.
    Abandoned,
    /// Never admitted: the endpoint's breaker was open.
    Skipped,
}

impl PlannedOutcome {
    /// Whether a session of this class completes with a result.
    fn completes(self) -> bool {
        matches!(self, PlannedOutcome::Ok | PlannedOutcome::Retried | PlannedOutcome::Degraded)
    }
}

/// One session's fully-resolved plan.
struct PlannedSession {
    id: u64,
    endpoint: usize,
    fault: SessionFault,
    outcome: PlannedOutcome,
}

/// One executed (or skipped) session, as reported in
/// [`LoadSummary::reports`]. Every float is finite: absent measurements
/// report `0.0`, never NaN.
#[derive(Debug, Clone, Serialize)]
pub struct SessionReport {
    /// Session id (the fault-schedule key).
    pub session: u64,
    /// Pool index the session was routed to.
    pub endpoint: usize,
    /// Plan-derived fate class.
    pub planned: PlannedOutcome,
    /// Injected fault label, if the plan faulted this session.
    pub fault: Option<&'static str>,
    /// Whether the session actually produced a measurement.
    pub completed: bool,
    /// Attempts consumed (0 for skipped sessions).
    pub attempts_used: u32,
    /// Measured download, Mbps (`0.0` when not completed).
    pub down_mbps: f64,
    /// Measured upload, Mbps (`0.0` when not measured).
    pub up_mbps: f64,
    /// Measured mean RTT, milliseconds (`0.0` when not completed).
    pub latency_ms: f64,
    /// Measured jitter, milliseconds (`0.0` when not completed).
    pub jitter_ms: f64,
    /// Application quality scores of a completed session.
    pub scores: Option<QualityScores>,
    /// The last attempt's error, when the session did not complete.
    pub error: Option<String>,
}

/// The fold of one [`run_load`] campaign. The counter fields up to
/// [`LoadSummary::breaker_skips`] are **plan-derived and deterministic**
/// — byte-identical across runs and parallelism for a fixed
/// configuration; the rest is wall-clock class (DESIGN.md §13/§16).
#[derive(Debug, Clone, Serialize)]
pub struct LoadSummary {
    /// Sessions planned (`opts.sessions`).
    pub sessions_total: u64,
    /// Planned healthy completions.
    pub sessions_ok: u64,
    /// Planned retried completions (hard fault, recovered).
    pub sessions_retried: u64,
    /// Planned degraded completions (soft fault).
    pub sessions_degraded: u64,
    /// Planned abandonments (hard fault, budget exhausted).
    pub sessions_abandoned: u64,
    /// Sessions never admitted (breaker open).
    pub sessions_skipped: u64,
    /// Sessions handed to the execution phase (`total - skipped`).
    pub sessions_executed: u64,
    /// Planned retry attempts across admitted sessions.
    pub retries_planned: u64,
    /// Planned fault count per [`crate::fault::FaultKind::label`].
    pub faults_planned: BTreeMap<String, u64>,
    /// Breaker trips summed over endpoints.
    pub breaker_trips: u64,
    /// Breaker probes summed over endpoints.
    pub breaker_probes: u64,
    /// Breaker skips summed over endpoints.
    pub breaker_skips: u64,
    /// Sessions that actually completed (wall-clock class).
    pub sessions_completed: u64,
    /// Sessions whose actual fate diverged from the plan — nonzero only
    /// when the environment misbehaves beyond the injected faults.
    pub unexpected_outcomes: u64,
    /// True when **no** session completed: the explicit marker that the
    /// means below are empty-set zeros, not measurements.
    pub degraded: bool,
    /// Mean download over completed sessions, Mbps (0.0 if none).
    pub mean_down_mbps: f64,
    /// Mean RTT over completed sessions, milliseconds (0.0 if none).
    pub mean_latency_ms: f64,
    /// Mean jitter over completed sessions, milliseconds (0.0 if none).
    pub mean_jitter_ms: f64,
    /// Mean streaming score over completed sessions (0.0 if none).
    pub mean_streaming: f64,
    /// Mean gaming score over completed sessions (0.0 if none).
    pub mean_gaming: f64,
    /// Mean conferencing score over completed sessions (0.0 if none).
    pub mean_conferencing: f64,
    /// Campaign wall time, seconds.
    pub elapsed_s: f64,
    /// Per-session reports, in session-id order.
    pub reports: Vec<SessionReport>,
}

/// Classify a session's fate from its fault plan and the attempt
/// budget — the deterministic heart of the summary.
fn classify(fault: &SessionFault, attempts: u32) -> PlannedOutcome {
    match fault.kind {
        None => PlannedOutcome::Ok,
        Some(k) if k.is_hard() => {
            if fault.faulted_attempts < attempts {
                PlannedOutcome::Retried
            } else {
                PlannedOutcome::Abandoned
            }
        }
        Some(_) => PlannedOutcome::Degraded,
    }
}

/// Retries an admitted session of this plan will consume.
fn planned_retries(fault: &SessionFault, attempts: u32) -> u32 {
    match fault.kind {
        Some(k) if k.is_hard() => fault.faulted_attempts.min(attempts.saturating_sub(1)),
        _ => 0,
    }
}

/// A breaker state's event-name suffix.
fn state_event(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "load.breaker_close",
        BreakerState::Open => "load.breaker_open",
        BreakerState::HalfOpen => "load.breaker_half_open",
    }
}

/// Breaker totals summed over endpoints at the end of planning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BreakerTotals {
    trips: u64,
    probes: u64,
    skips: u64,
}

/// Plan every session and record the deterministic metric class.
fn plan_campaign(
    pool_len: usize,
    opts: &LoadOptions,
    reg: &Registry,
) -> (Vec<PlannedSession>, BreakerTotals) {
    let mut breakers: Vec<CircuitBreaker> =
        (0..pool_len).map(|_| CircuitBreaker::new(opts.breaker_k, opts.breaker_cooldown)).collect();
    let mut plans = Vec::with_capacity(opts.sessions);
    let mut class_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut retries_planned = 0u64;

    for s in 0..opts.sessions as u64 {
        let endpoint = (s as usize) % pool_len;
        let fault = match &opts.faults {
            Some(p) => p.plan_for(s),
            None => SessionFault::healthy(),
        };
        let unblocked = classify(&fault, opts.attempts);
        let breaker = &mut breakers[endpoint];
        let before = breaker.state();
        let outcome = match breaker.admit() {
            Admission::Skip => PlannedOutcome::Skipped,
            Admission::Admit | Admission::AdmitProbe => {
                breaker.record(unblocked.completes());
                unblocked
            }
        };
        let after = breaker.state();
        if after != before {
            let endpoint_str = endpoint.to_string();
            let session_str = s.to_string();
            reg.event(
                state_event(after),
                "lifecycle",
                &[("endpoint", &endpoint_str), ("session", &session_str)],
            );
        }
        if let Some(kind) = fault.kind {
            reg.inc("load.faults_planned", &[("kind", kind.label())]);
        }
        if outcome != PlannedOutcome::Skipped {
            let retries = planned_retries(&fault, opts.attempts);
            retries_planned += u64::from(retries);
            for r in 0..retries {
                reg.observe(
                    "load.backoff_s",
                    &[],
                    opts.backoff.delay(s, r).as_secs_f64(),
                    BACKOFF_BOUNDS,
                );
            }
        }
        *class_counts
            .entry(match outcome {
                PlannedOutcome::Ok => "ok",
                PlannedOutcome::Retried => "retried",
                PlannedOutcome::Degraded => "degraded",
                PlannedOutcome::Abandoned => "abandoned",
                PlannedOutcome::Skipped => "skipped",
            })
            .or_insert(0) += 1;
        plans.push(PlannedSession { id: s, endpoint, fault, outcome });
    }

    reg.add("load.sessions_total", &[], opts.sessions as u64);
    for (class, n) in &class_counts {
        reg.add(&format!("load.sessions_{class}"), &[], *n);
    }
    let skipped = class_counts.get("skipped").copied().unwrap_or(0);
    reg.add("load.sessions_executed", &[], opts.sessions as u64 - skipped);
    reg.add("load.retries_planned", &[], retries_planned);
    let mut totals = BreakerTotals::default();
    for (i, b) in breakers.iter().enumerate() {
        let endpoint_str = i.to_string();
        let labels = &[("endpoint", endpoint_str.as_str())];
        reg.add("load.breaker_trips", labels, b.trips());
        reg.add("load.breaker_probes", labels, b.probes());
        reg.add("load.breaker_skips", labels, b.skips());
        totals.trips += b.trips();
        totals.probes += b.probes();
        totals.skips += b.skips();
    }
    (plans, totals)
}

/// One attempt's measurements, in phase order.
fn try_attempt(
    addr: SocketAddr,
    opts: &LoadOptions,
    wire: &WireOptions,
) -> std::io::Result<(LatencyResult, WireResult, Option<WireResult>)> {
    let off = &Registry::disabled();
    let latency = measure_latency_with(addr, opts.n_pings, wire, off)?;
    let download =
        measure_download_with(addr, opts.n_conns, opts.duration, opts.ramp_discard, wire, off)?;
    let upload = if opts.with_upload {
        Some(measure_upload_with(addr, opts.n_conns, opts.duration, opts.ramp_discard, wire, off)?)
    } else {
        None
    };
    Ok((latency, download, upload))
}

/// Execute one admitted session: attempt/backoff loop over the wire
/// measurements, then score the survivor. `reg` is this session's
/// private sub-registry and receives only wall-clock data — the wire
/// calls run with their metrics disabled because byte counts and
/// retry timing are not parallelism-invariant.
fn execute_session(
    pool: &[SocketAddr],
    plan: &PlannedSession,
    opts: &LoadOptions,
    reg: &Registry,
) -> SessionReport {
    let addr = pool[plan.endpoint];
    let mut report = SessionReport {
        session: plan.id,
        endpoint: plan.endpoint,
        planned: plan.outcome,
        fault: plan.fault.kind.map(|k| k.label()),
        completed: false,
        attempts_used: 0,
        down_mbps: 0.0,
        up_mbps: 0.0,
        latency_ms: 0.0,
        jitter_ms: 0.0,
        scores: None,
        error: None,
    };
    if plan.outcome == PlannedOutcome::Skipped {
        report.error = Some("breaker open: session skipped".to_string());
        return report;
    }

    let span = reg.span("load/session");
    for attempt in 0..opts.attempts {
        report.attempts_used = attempt + 1;
        if attempt > 0 {
            thread::sleep(opts.backoff.delay(plan.id, attempt - 1));
        }
        let wire = WireOptions {
            session: Some(SessionTag { id: plan.id, attempt: attempt.min(255) as u8 }),
            ..opts.wire
        };
        match try_attempt(addr, opts, &wire) {
            Ok((latency, download, upload)) => {
                let attempted = download.connections + download.connections_failed;
                let loss = if attempted > 0 {
                    Some(download.connections_failed as f64 / attempted as f64)
                } else {
                    None
                };
                report.completed = true;
                report.down_mbps = download.mean_all_mbps;
                report.up_mbps = upload.map_or(0.0, |u| u.mean_all_mbps);
                report.latency_ms = latency.mean_s * 1e3;
                report.jitter_ms = latency.jitter_s * 1e3;
                report.scores = Some(score(&SessionQuality {
                    down_mbps: report.down_mbps,
                    up_mbps: report.up_mbps,
                    latency_ms: report.latency_ms,
                    jitter_ms: report.jitter_ms,
                    loss,
                }));
                report.error = None;
                break;
            }
            Err(e) => report.error = Some(e.to_string()),
        }
    }
    span.stop();
    report
}

/// Drive `opts.sessions` concurrent wire sessions against `pool` and
/// fold the outcome into a [`LoadSummary`]. See the module docs for the
/// plan → execute → fold contract; the summary's counter fields and the
/// `load.*` counters/histograms in `reg` are deterministic, everything
/// measured is wall-clock class.
///
/// Partial failure is a result, not an error: the function returns a
/// summary even when every session dies.
pub fn run_load(pool: &[SocketAddr], opts: &LoadOptions, reg: &Registry) -> LoadSummary {
    assert!(!pool.is_empty(), "need at least one endpoint");
    assert!(opts.sessions >= 1, "need at least one session");
    assert!((1..=255).contains(&opts.attempts), "attempt budget must be in 1..=255");
    assert!(opts.n_conns >= 1, "need at least one connection per session");

    let start = Instant::now();
    let pool_str = pool.len().to_string();
    let sessions_str = opts.sessions.to_string();
    reg.event("load.start", "lifecycle", &[("sessions", &sessions_str), ("pool", &pool_str)]);

    // Phase 1: plan (sequential; records the deterministic class).
    let (plans, breaker_totals) = plan_campaign(pool.len(), opts, reg);

    // Phase 2: execute concurrently. Results land in per-session slots
    // so the fold below runs in session-id order regardless of which
    // worker finished when.
    let slots: Vec<Mutex<Option<(SessionReport, Registry)>>> =
        plans.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = opts.parallelism.clamp(1, plans.len());
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(plan) = plans.get(i) else { break };
                let sub = reg.sub();
                let report = execute_session(pool, plan, opts, &sub);
                *slots[i].lock() = Some((report, sub));
            });
        }
    });

    // Phase 3: fold in session-id order.
    let mut summary = LoadSummary {
        sessions_total: plans.len() as u64,
        sessions_ok: 0,
        sessions_retried: 0,
        sessions_degraded: 0,
        sessions_abandoned: 0,
        sessions_skipped: 0,
        sessions_executed: 0,
        retries_planned: 0,
        faults_planned: BTreeMap::new(),
        breaker_trips: breaker_totals.trips,
        breaker_probes: breaker_totals.probes,
        breaker_skips: breaker_totals.skips,
        sessions_completed: 0,
        unexpected_outcomes: 0,
        degraded: false,
        mean_down_mbps: 0.0,
        mean_latency_ms: 0.0,
        mean_jitter_ms: 0.0,
        mean_streaming: 0.0,
        mean_gaming: 0.0,
        mean_conferencing: 0.0,
        elapsed_s: 0.0,
        reports: Vec::with_capacity(plans.len()),
    };
    for plan in &plans {
        match plan.outcome {
            PlannedOutcome::Ok => summary.sessions_ok += 1,
            PlannedOutcome::Retried => summary.sessions_retried += 1,
            PlannedOutcome::Degraded => summary.sessions_degraded += 1,
            PlannedOutcome::Abandoned => summary.sessions_abandoned += 1,
            PlannedOutcome::Skipped => summary.sessions_skipped += 1,
        }
        if let Some(kind) = plan.fault.kind {
            *summary.faults_planned.entry(kind.label().to_string()).or_insert(0) += 1;
        }
        summary.retries_planned += if plan.outcome == PlannedOutcome::Skipped {
            0
        } else {
            u64::from(planned_retries(&plan.fault, opts.attempts))
        };
    }
    summary.sessions_executed = summary.sessions_total - summary.sessions_skipped;

    for (i, slot) in slots.iter().enumerate() {
        let (report, sub) = slot.lock().take().unwrap_or_else(|| {
            // A worker can only leave a slot empty by panicking, which
            // thread::scope would have propagated — but degrade anyway.
            (execute_skipped_stub(&plans[i]), Registry::disabled())
        });
        reg.merge(&sub);
        if report.completed != report.planned.completes() {
            summary.unexpected_outcomes += 1;
        }
        if report.completed {
            summary.sessions_completed += 1;
            summary.mean_down_mbps += report.down_mbps;
            summary.mean_latency_ms += report.latency_ms;
            summary.mean_jitter_ms += report.jitter_ms;
            if let Some(s) = &report.scores {
                summary.mean_streaming += s.streaming;
                summary.mean_gaming += s.gaming;
                summary.mean_conferencing += s.conferencing;
            }
            reg.observe_wall("load.session_down_mbps", &[], report.down_mbps, MBPS_BOUNDS);
            reg.observe_wall("load.session_latency_ms", &[], report.latency_ms, LATENCY_MS_BOUNDS);
            if let Some(s) = &report.scores {
                reg.observe_wall("load.score_streaming", &[], s.streaming, SCORE_BOUNDS);
                reg.observe_wall("load.score_gaming", &[], s.gaming, SCORE_BOUNDS);
                reg.observe_wall("load.score_conferencing", &[], s.conferencing, SCORE_BOUNDS);
            }
        }
        summary.reports.push(report);
    }

    // NaN-free by construction: an empty survivor set reports explicit
    // zeros behind the `degraded` marker instead of 0/0.
    if summary.sessions_completed == 0 {
        summary.degraded = true;
    } else {
        let n = summary.sessions_completed as f64;
        summary.mean_down_mbps /= n;
        summary.mean_latency_ms /= n;
        summary.mean_jitter_ms /= n;
        summary.mean_streaming /= n;
        summary.mean_gaming /= n;
        summary.mean_conferencing /= n;
    }
    summary.elapsed_s = start.elapsed().as_secs_f64();

    let completed_str = summary.sessions_completed.to_string();
    let skipped_str = summary.sessions_skipped.to_string();
    reg.event("load.end", "lifecycle", &[("completed", &completed_str), ("skipped", &skipped_str)]);
    summary
}

/// Fallback report for a slot no worker filled (see the fold phase).
fn execute_skipped_stub(plan: &PlannedSession) -> SessionReport {
    SessionReport {
        session: plan.id,
        endpoint: plan.endpoint,
        planned: plan.outcome,
        fault: plan.fault.kind.map(|k| k.label()),
        completed: false,
        attempts_used: 0,
        down_mbps: 0.0,
        up_mbps: 0.0,
        latency_ms: 0.0,
        jitter_ms: 0.0,
        scores: None,
        error: Some("session was never executed".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ShapedServer;
    use std::net::TcpListener;

    #[test]
    fn healthy_pool_completes_every_session() {
        let server = ShapedServer::start(100.0, 20.0).unwrap();
        let mut opts = LoadOptions::new(4);
        opts.duration = Duration::from_millis(120);
        opts.ramp_discard = Duration::from_millis(40);
        opts.parallelism = 4;
        let reg = Registry::new();
        let summary = run_load(&[server.addr()], &opts, &reg);
        assert_eq!(summary.sessions_ok, 4, "{summary:?}");
        assert_eq!(summary.sessions_completed, 4);
        assert_eq!(summary.unexpected_outcomes, 0);
        assert!(!summary.degraded);
        assert!(summary.mean_down_mbps > 0.0);
        assert!(summary.reports.iter().all(|r| r.scores.is_some()));
        let snap = reg.snapshot();
        assert_eq!(snap.deterministic.counters.get("load.sessions_total"), Some(&4));
        assert_eq!(snap.deterministic.counters.get("load.sessions_ok"), Some(&4));
        assert!(snap.wall_clock.values.contains_key("load.score_streaming"));
    }

    #[test]
    fn dead_pool_degrades_without_nans() {
        // A port that refuses every connect: zero survivors. The summary
        // must carry the explicit degraded marker and finite zeros —
        // never 0/0 — and classify the divergence from the (healthy)
        // plan instead of dropping it.
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let mut opts = LoadOptions::new(6);
        opts.attempts = 2;
        opts.wire.connect_attempts = 1;
        opts.wire.connect_backoff = Duration::from_millis(1);
        opts.parallelism = 3;
        let summary = run_load(&[addr], &opts, &Registry::new());
        assert_eq!(summary.sessions_completed, 0);
        assert!(summary.degraded, "zero survivors must raise the degraded marker");
        assert_eq!(summary.mean_down_mbps, 0.0);
        assert_eq!(summary.mean_streaming, 0.0);
        assert_eq!(summary.unexpected_outcomes, 6, "every planned-ok session diverged");
        for v in [
            summary.mean_down_mbps,
            summary.mean_latency_ms,
            summary.mean_jitter_ms,
            summary.mean_streaming,
            summary.mean_gaming,
            summary.mean_conferencing,
            summary.elapsed_s,
        ] {
            assert!(v.is_finite(), "non-finite summary field: {summary:?}");
        }
        assert!(summary
            .reports
            .iter()
            .all(|r| { r.down_mbps.is_finite() && r.latency_ms.is_finite() && r.error.is_some() }));
        // And the whole summary round-trips through JSON (serde_json
        // would render a NaN as null — which `is_finite` above rules
        // out for every float the summary carries).
        serde_json::to_string(&summary).unwrap();
    }

    #[test]
    fn planning_is_deterministic_and_parallelism_free() {
        // The deterministic metric class must not depend on execution:
        // plan the same campaign twice straight into registries and
        // compare the exact-compare surface.
        let opts = LoadOptions {
            faults: Some(FaultProfile::new(99, 0.5)),
            sessions: 100,
            ..LoadOptions::new(100)
        };
        let reg_a = Registry::new();
        let reg_b = Registry::new();
        let _ = plan_campaign(4, &opts, &reg_a);
        let _ = plan_campaign(4, &opts, &reg_b);
        assert_eq!(reg_a.snapshot().deterministic_json(), reg_b.snapshot().deterministic_json());
    }

    #[test]
    fn abandoned_sessions_trip_breakers_in_the_plan() {
        // A profile whose hard faults always outlast the attempt budget
        // (attempts = 1) yields abandonments; with k = 1 every
        // abandonment trips its endpoint's breaker and later sessions
        // on that endpoint are skipped.
        let mut opts = LoadOptions::new(40);
        opts.attempts = 1;
        opts.breaker_k = 1;
        opts.breaker_cooldown = 5;
        opts.faults = Some(FaultProfile::new(13, 0.9));
        let reg = Registry::new();
        let (plans, totals) = plan_campaign(2, &opts, &reg);
        let abandoned = plans.iter().filter(|p| p.outcome == PlannedOutcome::Abandoned).count();
        let skipped = plans.iter().filter(|p| p.outcome == PlannedOutcome::Skipped).count();
        assert!(abandoned > 0, "rate-0.9 hard faults must abandon some sessions");
        assert!(skipped > 0, "k=1 breakers must skip sessions after abandonments");
        assert!(totals.trips > 0 && totals.skips as usize == skipped, "{totals:?}");
        let snap = reg.snapshot();
        let trips: u64 = snap
            .deterministic
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("load.breaker_trips"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(trips, totals.trips, "{:?}", snap.deterministic.counters);
    }
}
