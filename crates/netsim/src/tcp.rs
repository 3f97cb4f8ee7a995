//! Round-based TCP throughput simulation.
//!
//! The decisive methodological difference between the paper's two vendors
//! (§6.3) is transport behaviour: M-Lab's NDT drives **one** TCP connection
//! and reports the whole-transfer average, while Ookla drives **several**
//! connections and discards the ramp-up. On a high bandwidth-delay-product
//! path with non-zero random loss, a single Reno-style flow cannot hold the
//! pipe full (the Mathis ceiling `MSS/RTT · sqrt(3/2p)`), while the sum of
//! several flows can — so NDT under-reports by up to ~2× exactly where the
//! paper sees it.
//!
//! [`TcpSimulator`] evolves per-flow congestion windows one RTT at a time:
//! slow start with doubling, congestion avoidance with +1 MSS/RTT, halving
//! on loss; loss events come from random (link) loss plus congestion loss
//! when aggregate demand overruns the bottleneck. Receive windows cap the
//! aggregate at the device's buffer limit.

use crate::units::Mbps;
use rand::Rng;

/// The congestion-control algorithm a flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionControl {
    /// Classic Reno: +1 MSS/RTT additive increase, halve on loss.
    #[default]
    Reno,
    /// CUBIC (RFC 8312): cubic window growth around the last loss point
    /// with a 0.7 multiplicative decrease — the Linux default, and what
    /// 2021-era speed-test servers actually ran. Recovers from loss much
    /// faster on high-BDP paths, which *narrows* (but does not close) the
    /// single-flow NDT gap; the `ablations` bench quantifies this.
    Cubic,
}

/// Configuration for one simulated transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Number of concurrent TCP connections (NDT: 1, Ookla: 4–8).
    pub n_flows: usize,
    /// Transfer duration, seconds.
    pub duration_s: f64,
    /// Path round-trip time, seconds.
    pub rtt_s: f64,
    /// Random per-packet loss probability (link-layer residual loss).
    pub loss_rate: f64,
    /// Available path rate (min of access/WiFi bottlenecks).
    pub bottleneck: Mbps,
    /// Total receive-window budget across all flows, bytes
    /// (device TCP-buffer limit).
    pub rwnd_total_bytes: f64,
    /// Maximum segment size, bytes.
    pub mss_bytes: usize,
    /// Initial congestion window, packets (RFC 6928 default: 10).
    pub initial_cwnd_pkts: f64,
    /// Bottleneck buffer size in bandwidth-delay products. A buffer of one
    /// BDP lets a halved Reno window keep the pipe full (the classic
    /// buffer-sizing rule); congestion loss only starts once the offered
    /// load exceeds capacity *plus* this buffer.
    pub buffer_bdp: f64,
    /// Congestion-control algorithm for all flows in the transfer.
    pub congestion_control: CongestionControl,
}

impl FlowConfig {
    /// A config with protocol defaults; callers set path parameters.
    pub fn new(n_flows: usize, duration_s: f64, rtt_s: f64, bottleneck: Mbps) -> Self {
        assert!(n_flows >= 1, "need at least one flow");
        assert!(duration_s > 0.0 && rtt_s > 0.0, "times must be positive");
        assert!(bottleneck.is_valid() && bottleneck.0 > 0.0, "bottleneck must be positive");
        FlowConfig {
            n_flows,
            duration_s,
            rtt_s,
            loss_rate: 0.0,
            bottleneck,
            rwnd_total_bytes: 64.0 * 1024.0 * 1024.0,
            mss_bytes: 1500,
            initial_cwnd_pkts: 10.0,
            buffer_bdp: 1.0,
            congestion_control: CongestionControl::default(),
        }
    }

    /// Select the congestion-control algorithm.
    pub fn with_congestion_control(mut self, cc: CongestionControl) -> Self {
        self.congestion_control = cc;
        self
    }

    /// Set the random per-packet loss rate.
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        assert!((0.0..1.0).contains(&loss_rate), "loss must be in [0,1)");
        self.loss_rate = loss_rate;
        self
    }

    /// Set the total receive-window budget in bytes.
    pub fn with_rwnd_total(mut self, bytes: f64) -> Self {
        assert!(bytes > 0.0, "rwnd must be positive");
        self.rwnd_total_bytes = bytes;
        self
    }
}

/// The outcome of a simulated transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSample {
    /// Whole-duration average goodput (what NDT reports).
    pub mean_all: Mbps,
    /// Average excluding the first `ramp_discard` seconds (what a
    /// ramp-discarding methodology reports).
    pub mean_steady: Mbps,
    /// Seconds discarded for `mean_steady`.
    pub ramp_discard_s: f64,
    /// Total loss events across flows.
    pub loss_events: u64,
    /// Number of RTT rounds simulated.
    pub rounds: usize,
    /// Mean RTT experienced *during* the transfer: the base RTT plus the
    /// time-averaged queueing delay at the bottleneck buffer
    /// (bufferbloat). What a "latency under load" responsiveness metric
    /// reports.
    pub loaded_rtt_s: f64,
}

/// One per-round observation from a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Time since transfer start, seconds.
    pub t_s: f64,
    /// Aggregate congestion window across flows, packets.
    pub cwnd_pkts: f64,
    /// Delivered rate this round.
    pub rate: Mbps,
}

/// Round-based multi-flow TCP simulator.
#[derive(Debug, Clone)]
pub struct TcpSimulator {
    cfg: FlowConfig,
}

struct FlowState {
    cwnd: f64,
    ssthresh: f64,
    slow_start: bool,
    /// CUBIC state: window size at the last loss event, packets.
    w_max: f64,
    /// CUBIC state: seconds since the last loss event.
    t_since_loss: f64,
}

/// CUBIC constants per RFC 8312.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;

/// CUBIC target window at `t` seconds after a loss that occurred at
/// window `w_max` (packets).
fn cubic_window(w_max: f64, t: f64) -> f64 {
    let k = (w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
    CUBIC_C * (t - k).powi(3) + w_max
}

/// The RFC 8312 TCP-friendly window estimate: what a well-behaved AIMD
/// flow with CUBIC's beta would have reached `t` seconds after the loss.
/// CUBIC never runs below this, which keeps it competitive on
/// short-RTT paths where the cubic term is slow near its plateau.
fn cubic_tcp_friendly(w_max: f64, t: f64, rtt_s: f64) -> f64 {
    w_max * CUBIC_BETA + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt_s)
}

impl TcpSimulator {
    /// Create a simulator for the given configuration.
    pub fn new(cfg: FlowConfig) -> Self {
        TcpSimulator { cfg }
    }

    /// Run the transfer; returns aggregate goodput measures.
    ///
    /// `ramp_discard_s` seconds at the start are excluded from
    /// `mean_steady` (Ookla-style); `mean_all` always covers the full
    /// duration (NDT-style).
    pub fn run<R: Rng + ?Sized>(&self, ramp_discard_s: f64, rng: &mut R) -> ThroughputSample {
        self.run_inner(ramp_discard_s, rng, None)
    }

    /// Like [`TcpSimulator::run`], additionally returning the per-round
    /// window/rate trace (for dynamics visualization and debugging).
    pub fn run_traced<R: Rng + ?Sized>(
        &self,
        ramp_discard_s: f64,
        rng: &mut R,
    ) -> (ThroughputSample, Vec<TracePoint>) {
        let mut trace = Vec::new();
        let sample = self.run_inner(ramp_discard_s, rng, Some(&mut trace));
        (sample, trace)
    }

    fn run_inner<R: Rng + ?Sized>(
        &self,
        ramp_discard_s: f64,
        rng: &mut R,
        trace: Option<&mut Vec<TracePoint>>,
    ) -> ThroughputSample {
        let cfg = &self.cfg;
        match cfg.congestion_control {
            CongestionControl::Reno => flow_rounds::<R, false>(cfg, ramp_discard_s, rng, trace),
            CongestionControl::Cubic => flow_rounds::<R, true>(cfg, ramp_discard_s, rng, trace),
        }
    }
}

/// Relative margin on the random-loss exponent `x = sent·(−ln(1−p))`.
/// The filter forms `x` as `cwnd · (delivered/demand) · (−ln(1−p))`, the
/// exact path as `sent = cwnd·delivered/demand` fed to `powf`; the two
/// differ by a handful of roundings and one `ln`, each within about one
/// ulp (~1e-16 relative), so 1e-12 covers them with room to spare.
const X_REL_MARGIN: f64 = 1e-12;

/// Absolute margin on `p_loss`. The exact path's `powf` (a few ulps of a
/// value ≤ 1), its rounded `−`, `+`, `×`, `−` steps and the filter's own
/// rounded bound arithmetic each move `p_loss` by at most ~1e-16; 1e-12
/// allows thousands of ulps.
const P_ABS_MARGIN: f64 = 1e-12;

/// Largest per-round capacity and per-flow window, in packets, for which
/// the filter's error analysis is carried out: below it `cwnd · delivered`
/// cannot overflow, so `sent` is finite and the margins above hold.
const FILTER_MAX_PKTS: f64 = 1e100;

/// Per-round bounds on each flow's loss probability.
///
/// `p_loss = 1 − (1−p_rand)(1−p_cong)` rises monotonically with
/// `p_rand = 1 − e^{−x}`, and `x − x²/2 ≤ 1 − e^{−x} ≤ x` for `x ≥ 0`.
/// Widened by [`X_REL_MARGIN`] on `x` and [`P_ABS_MARGIN`] on the result,
/// the bounds bracket the float the seed expression ([`exact_p_loss`])
/// computes, so a draw outside them decides the same way that float does.
#[derive(Debug, Clone, Copy)]
struct LossFilter {
    /// Lower bound on `x` per packet of window.
    x_lo: f64,
    /// Upper bound on `x` per packet of window.
    x_hi: f64,
    p_cong: f64,
    /// `1 − p_cong`, so that `p_loss = p_cong + p_rand · keep`.
    keep: f64,
}

impl LossFilter {
    /// `x_per_pkt` is `(delivered/demand)·(−ln(1−p))` for the round.
    fn new(x_per_pkt: f64, p_cong: f64) -> Self {
        LossFilter {
            x_lo: x_per_pkt * (1.0 - X_REL_MARGIN),
            x_hi: x_per_pkt * (1.0 + X_REL_MARGIN),
            p_cong,
            keep: 1.0 - p_cong,
        }
    }

    /// The loss decision `u < p_loss` for a flow of `cwnd` packets, or
    /// `None` when `u` falls between the bounds and only the exact
    /// expression can decide.
    #[inline(always)]
    fn decide(&self, cwnd: f64, u: f64) -> Option<bool> {
        let hi = self.p_cong + (cwnd * self.x_hi).min(1.0) * self.keep + P_ABS_MARGIN;
        if u >= hi {
            return Some(false);
        }
        let x = cwnd * self.x_lo;
        let lo = self.p_cong + (x - 0.5 * x * x).max(0.0) * self.keep - P_ABS_MARGIN;
        if u < lo {
            return Some(true);
        }
        None
    }
}

/// The seed's per-flow loss probability, expression for expression:
/// random loss over the flow's delivered share (`q = 1 − p`), plus
/// congestion loss, clamped. The kernel falls back to it when
/// [`LossFilter::decide`] cannot decide.
#[cold]
fn exact_p_loss(sent: f64, q: f64, p_cong: f64) -> f64 {
    let p_rand = 1.0 - q.powf(sent.max(0.0));
    (p_rand + p_cong - p_rand * p_cong).clamp(0.0, 1.0)
}

/// Whether [`LossFilter`]'s error analysis covers this transfer: loss in
/// `[0, 1)`, a non-negative buffer, a positive initial window (so every
/// window stays positive), and capacity and windows below
/// [`FILTER_MAX_PKTS`]. Every realistic path qualifies; configurations
/// outside, reachable only through the public fields, run
/// [`reference_run`].
fn filter_domain(cfg: &FlowConfig, cap_pkts_round: f64, rwnd_pkts: f64) -> bool {
    (0.0..1.0).contains(&cfg.loss_rate)
        && cfg.buffer_bdp >= 0.0
        && cfg.initial_cwnd_pkts > 0.0
        && (0.0..=FILTER_MAX_PKTS).contains(&cap_pkts_round)
        && rwnd_pkts <= FILTER_MAX_PKTS
}

/// The flow-round kernel behind [`TcpSimulator::run`].
///
/// Makes the same decisions as [`reference_run`] from the same draws in
/// the same order: one uniform per flow per round, tested against
/// [`LossFilter`]'s bounds and, only inside them, against the unchanged
/// [`exact_p_loss`]. `−ln(1−p)` is hoisted per transfer, `delivered/demand`
/// and `p_cong` per round, and the congestion-control match per transfer
/// (`CUBIC`). The next round's demand is summed in flow order during the
/// update pass, from the same neutral element `Sum` folds from, so it is
/// the same float the reference's `sum()` yields.
fn flow_rounds<R: Rng + ?Sized, const CUBIC: bool>(
    cfg: &FlowConfig,
    ramp_discard_s: f64,
    rng: &mut R,
    mut trace: Option<&mut Vec<TracePoint>>,
) -> ThroughputSample {
    let mss = cfg.mss_bytes as f64;
    let cap_pkts_round = cfg.bottleneck.packets_per_sec(cfg.mss_bytes) * cfg.rtt_s;
    let rwnd_pkts = (cfg.rwnd_total_bytes / cfg.n_flows as f64 / mss).max(1.0);
    if !filter_domain(cfg, cap_pkts_round, rwnd_pkts) {
        return reference_run(cfg, ramp_discard_s, rng, trace);
    }
    let rounds = (cfg.duration_s / cfg.rtt_s).ceil() as usize;
    let ramp_discard_s = ramp_discard_s.clamp(0.0, cfg.duration_s * 0.8);
    let discard_rounds = (ramp_discard_s / cfg.rtt_s).floor() as usize;
    let buffered_cap = cap_pkts_round * (1.0 + cfg.buffer_bdp);
    let q = 1.0 - cfg.loss_rate;
    let neg_ln_q = -q.ln();

    let mut flows: Vec<FlowState> = (0..cfg.n_flows)
        .map(|_| FlowState {
            cwnd: cfg.initial_cwnd_pkts.min(rwnd_pkts),
            ssthresh: rwnd_pkts,
            slow_start: true,
            w_max: rwnd_pkts,
            t_since_loss: 0.0,
        })
        .collect();

    let mut demand: f64 = flows.iter().map(|f| f.cwnd).sum();
    let mut total_pkts = 0.0f64;
    let mut steady_pkts = 0.0f64;
    let mut loss_events = 0u64;
    let mut queue_delay_acc = 0.0f64;

    for round in 0..rounds {
        let delivered = demand.min(cap_pkts_round);
        total_pkts += delivered;
        if round >= discard_rounds {
            steady_pkts += delivered;
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(TracePoint {
                t_s: round as f64 * cfg.rtt_s,
                cwnd_pkts: demand,
                rate: Mbps::from_bytes_per_sec(delivered * mss / cfg.rtt_s),
            });
        }

        let queue_pkts = (demand - cap_pkts_round).clamp(0.0, cap_pkts_round * cfg.buffer_bdp);
        queue_delay_acc += queue_pkts / cap_pkts_round * cfg.rtt_s;

        let overshoot = if demand > buffered_cap { (demand - buffered_cap) / demand } else { 0.0 };
        let p_cong = (overshoot * 1.5).min(1.0);
        let demand_floor = demand.max(1e-12);
        let filter = LossFilter::new(delivered / demand_floor * neg_ln_q, p_cong);

        let mut next_demand = -0.0f64;
        for f in flows.iter_mut() {
            let u = rng.gen::<f64>();
            let lost = match filter.decide(f.cwnd, u) {
                Some(lost) => lost,
                None => u < exact_p_loss(f.cwnd * delivered / demand_floor, q, p_cong),
            };
            if lost {
                loss_events += 1;
                if CUBIC {
                    f.w_max = f.cwnd;
                    f.t_since_loss = 0.0;
                    f.cwnd = (f.cwnd * CUBIC_BETA).max(2.0);
                    f.ssthresh = f.cwnd;
                } else {
                    f.ssthresh = (f.cwnd / 2.0).max(2.0);
                    f.cwnd = f.ssthresh;
                }
                f.slow_start = false;
            } else if f.slow_start {
                f.cwnd = (f.cwnd * 2.0).min(rwnd_pkts);
                if f.cwnd >= f.ssthresh {
                    f.slow_start = false;
                }
            } else if CUBIC {
                f.t_since_loss += cfg.rtt_s;
                f.cwnd = cubic_window(f.w_max, f.t_since_loss)
                    .max(cubic_tcp_friendly(f.w_max, f.t_since_loss, cfg.rtt_s))
                    .max(f.cwnd)
                    .min(rwnd_pkts);
            } else {
                f.cwnd = (f.cwnd + 1.0).min(rwnd_pkts);
            }
            next_demand += f.cwnd;
        }
        demand = next_demand;
    }

    let total_time = rounds as f64 * cfg.rtt_s;
    let steady_time = (rounds - discard_rounds) as f64 * cfg.rtt_s;
    let to_mbps = |pkts: f64, secs: f64| {
        if secs <= 0.0 {
            Mbps::ZERO
        } else {
            Mbps::from_bytes_per_sec(pkts * mss / secs)
        }
    };

    ThroughputSample {
        mean_all: to_mbps(total_pkts, total_time),
        mean_steady: to_mbps(steady_pkts, steady_time),
        ramp_discard_s,
        loss_events,
        rounds,
        loaded_rtt_s: cfg.rtt_s + queue_delay_acc / rounds.max(1) as f64,
    }
}

/// Scalar reference for [`TcpSimulator::run`] and
/// [`TcpSimulator::run_traced`]: the original flow-round loop, retained
/// verbatim as the executable contract for the production kernel. It
/// divides for `sent`, evaluates `1 − (1−p)^sent` with `powf` and matches
/// on the congestion control for every flow-round; slow, but the
/// proptests assert the kernel's samples and traces match it bit-for-bit,
/// so any drift in a loss decision or a sum is a test failure.
pub fn reference_run<R: Rng + ?Sized>(
    cfg: &FlowConfig,
    ramp_discard_s: f64,
    rng: &mut R,
    mut trace: Option<&mut Vec<TracePoint>>,
) -> ThroughputSample {
    let mss = cfg.mss_bytes as f64;
    let rounds = (cfg.duration_s / cfg.rtt_s).ceil() as usize;
    let ramp_discard_s = ramp_discard_s.clamp(0.0, cfg.duration_s * 0.8);
    let discard_rounds = (ramp_discard_s / cfg.rtt_s).floor() as usize;

    // Bottleneck capacity per round, in packets.
    let cap_pkts_round = cfg.bottleneck.packets_per_sec(cfg.mss_bytes) * cfg.rtt_s;
    // Per-flow receive-window cap, packets.
    let rwnd_pkts = (cfg.rwnd_total_bytes / cfg.n_flows as f64 / mss).max(1.0);

    let mut flows: Vec<FlowState> = (0..cfg.n_flows)
        .map(|_| FlowState {
            cwnd: cfg.initial_cwnd_pkts.min(rwnd_pkts),
            ssthresh: rwnd_pkts,
            slow_start: true,
            w_max: rwnd_pkts,
            t_since_loss: 0.0,
        })
        .collect();

    let mut total_pkts = 0.0f64;
    let mut steady_pkts = 0.0f64;
    let mut loss_events = 0u64;
    let mut queue_delay_acc = 0.0f64;

    for round in 0..rounds {
        let demand: f64 = flows.iter().map(|f| f.cwnd).sum();
        let delivered = demand.min(cap_pkts_round);
        total_pkts += delivered;
        if round >= discard_rounds {
            steady_pkts += delivered;
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.push(TracePoint {
                t_s: round as f64 * cfg.rtt_s,
                cwnd_pkts: demand,
                rate: Mbps::from_bytes_per_sec(delivered * mss / cfg.rtt_s),
            });
        }

        // Standing queue this round: packets beyond the pipe, capped by
        // the buffer. Draining them takes queue/cap_rate seconds — the
        // queueing delay every packet in the round experiences.
        let queue_pkts = (demand - cap_pkts_round).clamp(0.0, cap_pkts_round * cfg.buffer_bdp);
        queue_delay_acc += queue_pkts / cap_pkts_round * cfg.rtt_s;

        // Congestion loss pressure: load beyond what capacity plus the
        // bottleneck buffer can absorb this round.
        let buffered_cap = cap_pkts_round * (1.0 + cfg.buffer_bdp);
        let overshoot = if demand > buffered_cap { (demand - buffered_cap) / demand } else { 0.0 };

        for f in flows.iter_mut() {
            // Probability at least one of this flow's packets was lost:
            // random loss over its delivered share, plus congestion loss
            // proportional to the round's overshoot.
            let sent = f.cwnd * delivered / demand.max(1e-12);
            let p_rand = 1.0 - (1.0 - cfg.loss_rate).powf(sent.max(0.0));
            let p_cong = (overshoot * 1.5).min(1.0);
            let p_loss = (p_rand + p_cong - p_rand * p_cong).clamp(0.0, 1.0);

            if rng.gen::<f64>() < p_loss {
                loss_events += 1;
                match cfg.congestion_control {
                    CongestionControl::Reno => {
                        f.ssthresh = (f.cwnd / 2.0).max(2.0);
                        f.cwnd = f.ssthresh;
                    }
                    CongestionControl::Cubic => {
                        f.w_max = f.cwnd;
                        f.t_since_loss = 0.0;
                        f.cwnd = (f.cwnd * CUBIC_BETA).max(2.0);
                        f.ssthresh = f.cwnd;
                    }
                }
                f.slow_start = false;
            } else if f.slow_start {
                f.cwnd = (f.cwnd * 2.0).min(rwnd_pkts);
                if f.cwnd >= f.ssthresh {
                    f.slow_start = false;
                }
            } else {
                f.t_since_loss += cfg.rtt_s;
                f.cwnd = match cfg.congestion_control {
                    CongestionControl::Reno => (f.cwnd + 1.0).min(rwnd_pkts),
                    CongestionControl::Cubic => cubic_window(f.w_max, f.t_since_loss)
                        .max(cubic_tcp_friendly(f.w_max, f.t_since_loss, cfg.rtt_s))
                        .max(f.cwnd) // never shrink without loss
                        .min(rwnd_pkts),
                };
            }
        }
    }

    let total_time = rounds as f64 * cfg.rtt_s;
    let steady_time = (rounds - discard_rounds) as f64 * cfg.rtt_s;
    let to_mbps = |pkts: f64, secs: f64| {
        if secs <= 0.0 {
            Mbps::ZERO
        } else {
            Mbps::from_bytes_per_sec(pkts * mss / secs)
        }
    };

    ThroughputSample {
        mean_all: to_mbps(total_pkts, total_time),
        mean_steady: to_mbps(steady_pkts, steady_time),
        ramp_discard_s,
        loss_events,
        rounds,
        loaded_rtt_s: cfg.rtt_s + queue_delay_acc / rounds.max(1) as f64,
    }
}

/// The Mathis et al. steady-state ceiling for a single Reno flow:
/// `MSS/RTT * sqrt(3 / (2p))`, in Mbps. Exposed for tests and docs.
pub fn mathis_ceiling(mss_bytes: usize, rtt_s: f64, loss_rate: f64) -> Mbps {
    assert!(loss_rate > 0.0, "Mathis ceiling undefined at zero loss");
    let pkts_per_rtt = (3.0 / (2.0 * loss_rate)).sqrt();
    Mbps::from_bytes_per_sec(pkts_per_rtt * mss_bytes as f64 / rtt_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn mean_of_runs(cfg: FlowConfig, discard: f64, runs: usize, all: bool) -> f64 {
        let sim = TcpSimulator::new(cfg);
        let mut r = rng(11);
        let total: f64 = (0..runs)
            .map(|_| {
                let s = sim.run(discard, &mut r);
                if all {
                    s.mean_all.0
                } else {
                    s.mean_steady.0
                }
            })
            .sum();
        total / runs as f64
    }

    #[test]
    fn lossless_single_flow_fills_small_pipe() {
        let cfg = FlowConfig::new(1, 10.0, 0.02, Mbps(100.0));
        let v = mean_of_runs(cfg, 2.0, 10, false);
        assert!(v > 85.0 && v <= 100.0, "steady {v}");
    }

    #[test]
    fn throughput_never_exceeds_bottleneck() {
        let mut r = rng(3);
        for &(flows, rate) in &[(1usize, 50.0), (4, 200.0), (8, 1000.0)] {
            let cfg = FlowConfig::new(flows, 8.0, 0.015, Mbps(rate)).with_loss(1e-4);
            let s = TcpSimulator::new(cfg).run(1.0, &mut r);
            assert!(s.mean_all.0 <= rate + 1e-9, "{} > {rate}", s.mean_all);
            assert!(s.mean_steady.0 <= rate + 1e-9);
        }
    }

    #[test]
    fn single_flow_hits_mathis_ceiling_on_fat_pipe() {
        // 1 Gbps pipe, 15 ms RTT, p = 1e-4 → ceiling ≈ 98 Mbps; the single
        // flow must land well below the pipe and near the ceiling.
        let loss = 1e-4;
        let ceiling = mathis_ceiling(1500, 0.015, loss).0;
        let cfg = FlowConfig::new(1, 15.0, 0.015, Mbps(1000.0)).with_loss(loss);
        let v = mean_of_runs(cfg, 2.0, 30, false);
        assert!(v < 0.35 * 1000.0, "single flow {v} should not fill the pipe");
        assert!(
            (0.4 * ceiling..2.0 * ceiling).contains(&v),
            "single flow {v} should be near the Mathis ceiling {ceiling}"
        );
    }

    #[test]
    fn multiple_flows_beat_one_on_lossy_fat_pipe() {
        let loss = 1e-4;
        let one = mean_of_runs(
            FlowConfig::new(1, 15.0, 0.015, Mbps(800.0)).with_loss(loss),
            2.0,
            20,
            false,
        );
        let eight = mean_of_runs(
            FlowConfig::new(8, 15.0, 0.015, Mbps(800.0)).with_loss(loss),
            2.0,
            20,
            false,
        );
        assert!(eight > one * 1.5, "8 flows ({eight}) should clearly beat 1 flow ({one})");
    }

    #[test]
    fn whole_transfer_average_lags_steady_state() {
        // Slow start eats into the front of the transfer; on a pipe the
        // flow can sustain (below its Mathis ceiling) the NDT-style
        // whole-duration mean must not exceed the ramp-discarded mean.
        let cfg = FlowConfig::new(1, 10.0, 0.02, Mbps(100.0)).with_loss(2e-5);
        let sim = TcpSimulator::new(cfg);
        let mut r = rng(7);
        let (mut all_sum, mut steady_sum) = (0.0, 0.0);
        for _ in 0..40 {
            let s = sim.run(2.0, &mut r);
            all_sum += s.mean_all.0;
            steady_sum += s.mean_steady.0;
        }
        assert!(
            all_sum <= steady_sum * 1.02,
            "mean all {} vs mean steady {}",
            all_sum / 40.0,
            steady_sum / 40.0
        );
    }

    #[test]
    fn rwnd_caps_throughput() {
        // 64 KB total window at 20 ms RTT → ~26 Mbps cap on a 1 Gbps pipe.
        let cfg = FlowConfig::new(1, 10.0, 0.02, Mbps(1000.0)).with_rwnd_total(64.0 * 1024.0);
        let v = mean_of_runs(cfg, 1.0, 10, false);
        let cap = 64.0 * 1024.0 * 8.0 / 0.02 / 1e6;
        assert!(v <= cap * 1.05, "throughput {v} exceeds window cap {cap}");
        assert!(v > cap * 0.5, "throughput {v} far below window cap {cap}");
    }

    #[test]
    fn loss_events_increase_with_loss_rate() {
        let mut r = rng(13);
        let mut run = |loss| {
            let cfg = FlowConfig::new(4, 10.0, 0.02, Mbps(500.0)).with_loss(loss);
            TcpSimulator::new(cfg).run(0.0, &mut r).loss_events
        };
        let lo: u64 = (0..10).map(|_| run(1e-6)).sum();
        let hi: u64 = (0..10).map(|_| run(1e-3)).sum();
        assert!(hi > lo, "loss events lo={lo} hi={hi}");
    }

    #[test]
    fn higher_rtt_slows_single_flow() {
        let loss = 5e-5;
        let near = mean_of_runs(
            FlowConfig::new(1, 15.0, 0.010, Mbps(900.0)).with_loss(loss),
            2.0,
            20,
            false,
        );
        let far = mean_of_runs(
            FlowConfig::new(1, 15.0, 0.060, Mbps(900.0)).with_loss(loss),
            2.0,
            20,
            false,
        );
        assert!(far < near, "far-RTT {far} should be below near-RTT {near}");
    }

    #[test]
    fn mathis_formula_spot_check() {
        // MSS 1500 B, RTT 15 ms, p 2e-5: sqrt(3/4e-5) ≈ 273.9 pkts/RTT
        // → 273.9 * 1500 * 8 / 0.015 ≈ 219 Mbps.
        let m = mathis_ceiling(1500, 0.015, 2e-5);
        assert!((m.0 - 219.0).abs() < 5.0, "ceiling {m}");
    }

    #[test]
    fn result_fields_are_consistent() {
        let cfg = FlowConfig::new(2, 5.0, 0.025, Mbps(100.0));
        let s = TcpSimulator::new(cfg).run(1.0, &mut rng(1));
        assert_eq!(s.rounds, (5.0f64 / 0.025).ceil() as usize);
        assert!(s.ramp_discard_s <= 5.0 * 0.8);
        assert!(s.mean_all.is_valid() && s.mean_steady.is_valid());
        assert!(s.loaded_rtt_s >= 0.025, "loaded RTT below base: {}", s.loaded_rtt_s);
    }

    #[test]
    fn loaded_rtt_grows_with_offered_load() {
        // A transfer that saturates the pipe keeps the buffer occupied;
        // an rwnd-limited one never queues.
        let mut r = rng(31);
        let saturating = FlowConfig::new(8, 10.0, 0.02, Mbps(100.0));
        let s1 = TcpSimulator::new(saturating).run(1.0, &mut r);
        let limited = FlowConfig::new(1, 10.0, 0.02, Mbps(100.0)).with_rwnd_total(32.0 * 1024.0); // ~13 Mbps cap, pipe never fills
        let s2 = TcpSimulator::new(limited).run(1.0, &mut r);
        assert!(
            s1.loaded_rtt_s > s2.loaded_rtt_s + 0.002,
            "saturating {} vs limited {}",
            s1.loaded_rtt_s,
            s2.loaded_rtt_s
        );
        // Queueing delay is bounded by one buffer's worth (1 BDP = 1 RTT).
        assert!(s1.loaded_rtt_s <= 0.02 * 2.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "need at least one flow")]
    fn zero_flows_rejected() {
        let _ = FlowConfig::new(0, 1.0, 0.01, Mbps(10.0));
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1)")]
    fn bad_loss_rejected() {
        let _ = FlowConfig::new(1, 1.0, 0.01, Mbps(10.0)).with_loss(1.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_every_round() {
        let cfg = FlowConfig::new(2, 5.0, 0.02, Mbps(200.0)).with_loss(1e-5);
        let sim = TcpSimulator::new(cfg);
        let a = TcpSimulator::new(sim.cfg.clone()).run(1.0, &mut rng(5));
        let (b, trace) = sim.run_traced(1.0, &mut rng(5));
        assert_eq!(a, b, "tracing must not change the simulation");
        assert_eq!(trace.len(), b.rounds);
        // Trace invariants: time strictly increasing, rates bounded.
        for w in trace.windows(2) {
            assert!(w[0].t_s < w[1].t_s);
        }
        for p in &trace {
            assert!(p.rate.is_valid());
            assert!(p.rate.0 <= 200.0 + 1e-9);
            assert!(p.cwnd_pkts > 0.0);
        }
    }

    #[test]
    fn loss_filter_brackets_the_exact_decision() {
        // One flow carrying the whole round (delivered/demand = 1), so
        // x = sent·(−ln q). Draws at and one ulp either side of the exact
        // p_loss must fall inside the bounds; every draw the filter does
        // decide must agree with `u < p_loss`.
        let mut r = rng(41);
        for &p in &[1e-7f64, 1e-4, 0.01, 0.05] {
            let q = 1.0 - p;
            let neg_ln_q = -q.ln();
            for &p_cong in &[0.0, 0.3, 1.0] {
                let filter = LossFilter::new(neg_ln_q, p_cong);
                let mut x = 1e-9;
                while x <= 5.0 {
                    let sent = x / neg_ln_q;
                    let exact = exact_p_loss(sent, q, p_cong);
                    for u in [exact.next_down(), exact, exact.next_up()] {
                        if (0.0..1.0).contains(&u) {
                            assert_eq!(filter.decide(sent, u), None, "p={p} x={x} u={u}");
                        }
                    }
                    for _ in 0..200 {
                        let u: f64 = r.gen();
                        if let Some(lost) = filter.decide(sent, u) {
                            assert_eq!(lost, u < exact, "p={p} x={x} u={u} exact={exact}");
                        }
                    }
                    if p_cong < 1.0 && x < 1e-3 {
                        // Far from the band the filter decides on its own.
                        assert_eq!(filter.decide(sent, 0.999), Some(false), "p={p} x={x}");
                    }
                    x *= 1.7;
                }
            }
        }
    }

    #[test]
    fn configs_outside_the_filter_domain_run_the_reference() {
        let mut zero_window = FlowConfig::new(2, 3.0, 0.02, Mbps(50.0)).with_loss(1e-3);
        zero_window.initial_cwnd_pkts = 0.0;
        let mut nan_loss = FlowConfig::new(3, 3.0, 0.02, Mbps(50.0));
        nan_loss.loss_rate = f64::NAN;
        for cfg in [zero_window, nan_loss] {
            let got = TcpSimulator::new(cfg.clone()).run(1.0, &mut rng(9));
            let want = reference_run(&cfg, 1.0, &mut rng(9), None);
            assert_eq!(got.mean_all.0.to_bits(), want.mean_all.0.to_bits());
            assert_eq!(got.mean_steady.0.to_bits(), want.mean_steady.0.to_bits());
            assert_eq!(got.loss_events, want.loss_events);
        }
    }

    #[test]
    fn cubic_window_function_shape() {
        // At t = 0 the window is the post-loss floor (beta * w_max);
        // it regrows to w_max at t = K and overshoots afterwards.
        let w_max = 100.0;
        let k = (w_max * 0.3 / 0.4_f64).cbrt();
        assert!((cubic_window(w_max, 0.0) - 70.0).abs() < 1e-9);
        assert!((cubic_window(w_max, k) - w_max).abs() < 1e-9);
        assert!(cubic_window(w_max, k + 1.0) > w_max);
    }

    #[test]
    fn cubic_beats_reno_single_flow_at_high_bdp() {
        // CUBIC's real-time (RTT-independent) growth wins at larger RTTs;
        // 40 ms x 900 Mbps is a 3000-packet BDP.
        let loss = 5e-5;
        let run_cc = |cc: CongestionControl| {
            let cfg = FlowConfig::new(1, 15.0, 0.04, Mbps(900.0))
                .with_loss(loss)
                .with_congestion_control(cc);
            mean_of_runs(cfg, 2.0, 25, false)
        };
        let reno = run_cc(CongestionControl::Reno);
        let cubic = run_cc(CongestionControl::Cubic);
        assert!(cubic > reno * 1.3, "CUBIC {cubic} should out-recover Reno {reno} at high BDP");
    }

    #[test]
    fn cubic_is_tcp_friendly_at_short_rtt() {
        // On a 15 ms path CUBIC must stay within a modest factor of Reno
        // (the RFC 8312 friendly region), not collapse below it.
        let loss = 1e-4;
        let run_cc = |cc: CongestionControl| {
            let cfg = FlowConfig::new(1, 15.0, 0.015, Mbps(900.0))
                .with_loss(loss)
                .with_congestion_control(cc);
            mean_of_runs(cfg, 2.0, 25, false)
        };
        let reno = run_cc(CongestionControl::Reno);
        let cubic = run_cc(CongestionControl::Cubic);
        assert!(cubic > reno * 0.8, "CUBIC {cubic} should stay near Reno {reno} at short RTT");
    }

    #[test]
    fn cubic_single_flow_still_lags_multi_flow() {
        // CUBIC narrows the NDT gap but does not close it.
        let loss = 1e-4;
        let one = mean_of_runs(
            FlowConfig::new(1, 15.0, 0.015, Mbps(900.0))
                .with_loss(loss)
                .with_congestion_control(CongestionControl::Cubic),
            2.0,
            25,
            false,
        );
        let eight = mean_of_runs(
            FlowConfig::new(8, 15.0, 0.015, Mbps(900.0))
                .with_loss(loss)
                .with_congestion_control(CongestionControl::Cubic),
            2.0,
            25,
            false,
        );
        assert!(eight > one * 1.1, "8 CUBIC flows {eight} vs 1 {one}");
    }

    #[test]
    fn cubic_respects_the_bottleneck_and_window() {
        let mut r = rng(77);
        let cfg = FlowConfig::new(2, 8.0, 0.02, Mbps(300.0))
            .with_loss(1e-4)
            .with_rwnd_total(256.0 * 1024.0)
            .with_congestion_control(CongestionControl::Cubic);
        for _ in 0..10 {
            let s = TcpSimulator::new(cfg.clone()).run(1.0, &mut r);
            assert!(s.mean_all.0 <= 300.0 + 1e-9);
            let window_cap = 256.0 * 1024.0 * 8.0 / 0.02 / 1e6;
            assert!(s.mean_steady.0 <= window_cap * 1.05 + 0.5);
        }
    }
}
