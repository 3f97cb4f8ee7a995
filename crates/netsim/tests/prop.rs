//! Property-based tests for the network simulator's invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use st_netsim::tcp::{
    mathis_ceiling, reference_run, CongestionControl, FlowConfig, TcpSimulator, ThroughputSample,
    TracePoint,
};
use st_netsim::{
    AccessLink, AccessMedium, Band, DeviceProfile, Mbps, NetworkPath, RttModel, WifiLink,
};

/// Every float of a sample as raw bits, so `-0.0`/`0.0` and NaN payloads
/// count as differences.
fn sample_bits(s: &ThroughputSample) -> [u64; 6] {
    [
        s.mean_all.0.to_bits(),
        s.mean_steady.0.to_bits(),
        s.ramp_discard_s.to_bits(),
        s.loss_events,
        s.rounds as u64,
        s.loaded_rtt_s.to_bits(),
    ]
}

fn trace_bits(trace: &[TracePoint]) -> Vec<[u64; 3]> {
    trace.iter().map(|p| [p.t_s.to_bits(), p.cwnd_pkts.to_bits(), p.rate.0.to_bits()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tcp_kernel_matches_reference_bit_for_bit(
        flows in 1usize..=8,
        rate in 1.0f64..2000.0,
        rtt_ms in 2.0f64..120.0,
        loss_kind in 0u8..3,
        loss_frac in 0.0f64..1.0,
        rwnd_kind in 0u8..3,
        rwnd_frac in 0.0f64..1.0,
        buffer_bdp in 0.0f64..2.0,
        cubic in any::<bool>(),
        discard_on in any::<bool>(),
        discard in 0.0f64..5.0,
        seed in any::<u64>(),
    ) {
        // Lossless, log-uniform loss in [1e-7, 1e-2], or uniform up to 5%.
        let loss = match loss_kind {
            0 => 0.0,
            1 => 10f64.powf(-7.0 + 5.0 * loss_frac),
            _ => 0.05 * loss_frac,
        };
        // A tiny (1–16 packets), typical (64 KiB–16 MiB) or huge (1–64 GiB)
        // total window: with 1 Mbps–2 Gbps pipes this spans window-limited
        // and saturating transfers.
        let rwnd = match rwnd_kind {
            0 => 1500.0 * (1.0 + 15.0 * rwnd_frac),
            1 => 65536.0 * 256f64.powf(rwnd_frac),
            _ => 1024f64.powi(3) * 64f64.powf(rwnd_frac),
        };
        let cc = if cubic { CongestionControl::Cubic } else { CongestionControl::Reno };
        let mut cfg = FlowConfig::new(flows, 6.0, rtt_ms / 1000.0, Mbps(rate))
            .with_loss(loss)
            .with_rwnd_total(rwnd)
            .with_congestion_control(cc);
        cfg.buffer_bdp = buffer_bdp;
        let ramp = if discard_on { discard } else { 0.0 };

        let mut want_trace = Vec::new();
        let mut want_rng = StdRng::seed_from_u64(seed);
        let want = reference_run(&cfg, ramp, &mut want_rng, Some(&mut want_trace));
        let sim = TcpSimulator::new(cfg);
        let mut run_rng = StdRng::seed_from_u64(seed);
        let got = sim.run(ramp, &mut run_rng);
        let mut traced_rng = StdRng::seed_from_u64(seed);
        let (got_traced, got_trace) = sim.run_traced(ramp, &mut traced_rng);
        prop_assert_eq!(sample_bits(&got), sample_bits(&want));
        prop_assert_eq!(sample_bits(&got_traced), sample_bits(&want));
        prop_assert_eq!(trace_bits(&got_trace), trace_bits(&want_trace));
        // Same number of draws: the streams continue in lockstep.
        let next = want_rng.next_u64();
        prop_assert_eq!(run_rng.next_u64(), next);
        prop_assert_eq!(traced_rng.next_u64(), next);
    }

    #[test]
    fn tcp_throughput_never_exceeds_bottleneck(
        flows in 1usize..10,
        rate in 5.0f64..1500.0,
        rtt_ms in 4.0f64..80.0,
        loss_exp in 3.0f64..6.0,
        seed in 0u64..500,
    ) {
        let loss = 10f64.powf(-loss_exp);
        let cfg = FlowConfig::new(flows, 8.0, rtt_ms / 1000.0, Mbps(rate)).with_loss(loss);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = TcpSimulator::new(cfg).run(1.0, &mut rng);
        prop_assert!(s.mean_all.is_valid());
        prop_assert!(s.mean_steady.is_valid());
        prop_assert!(s.mean_all.0 <= rate + 1e-6, "{} > {rate}", s.mean_all);
        prop_assert!(s.mean_steady.0 <= rate + 1e-6);
    }

    #[test]
    fn tcp_respects_receive_window(
        rate in 100.0f64..1500.0,
        rwnd_kb in 32.0f64..512.0,
        seed in 0u64..200,
    ) {
        let rtt = 0.02;
        let cfg = FlowConfig::new(1, 8.0, rtt, Mbps(rate))
            .with_rwnd_total(rwnd_kb * 1024.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = TcpSimulator::new(cfg).run(1.0, &mut rng);
        let window_cap = rwnd_kb * 1024.0 * 8.0 / rtt / 1e6;
        prop_assert!(
            s.mean_steady.0 <= window_cap * 1.05 + 0.5,
            "steady {} vs window cap {window_cap}",
            s.mean_steady
        );
    }

    #[test]
    fn more_flows_never_hurt_much_on_lossy_paths(
        rate in 100.0f64..1000.0,
        seed in 0u64..100,
    ) {
        // Aggregate multi-flow throughput should be at least the single
        // flow's (averaged over a few runs to tame variance).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut avg = |flows: usize| {
            let cfg = FlowConfig::new(flows, 10.0, 0.02, Mbps(rate)).with_loss(1e-4);
            let sim = TcpSimulator::new(cfg);
            (0..5).map(|_| sim.run(2.0, &mut rng).mean_steady.0).sum::<f64>() / 5.0
        };
        let one = avg(1);
        let six = avg(6);
        prop_assert!(six >= one * 0.8, "6 flows {six} vs 1 flow {one}");
    }

    #[test]
    fn mathis_ceiling_decreases_with_loss_and_rtt(
        rtt_a in 5.0f64..50.0,
        extra_rtt in 1.0f64..50.0,
        loss_a in 1e-6f64..1e-3,
        loss_mult in 1.5f64..20.0,
    ) {
        let base = mathis_ceiling(1500, rtt_a / 1000.0, loss_a);
        let more_rtt = mathis_ceiling(1500, (rtt_a + extra_rtt) / 1000.0, loss_a);
        let more_loss = mathis_ceiling(1500, rtt_a / 1000.0, loss_a * loss_mult);
        prop_assert!(more_rtt.0 < base.0);
        prop_assert!(more_loss.0 < base.0);
    }

    #[test]
    fn wifi_capacity_and_loss_are_physical(
        rssi in -95.0f64..-20.0,
        seed in 0u64..200,
        band_is_5 in any::<bool>(),
    ) {
        let band = if band_is_5 { Band::G5 } else { Band::G2_4 };
        let link = WifiLink::new(band, rssi);
        let mut rng = StdRng::seed_from_u64(seed);
        let cap = link.sample_capacity(&mut rng);
        prop_assert!(cap.is_valid());
        prop_assert!(cap.0 > 0.0);
        prop_assert!(cap.0 < link.phy_rate().0);
        let loss = link.loss_rate();
        prop_assert!((0.0..=0.05).contains(&loss));
    }

    #[test]
    fn access_link_availability_is_bounded(
        down in 10.0f64..1500.0,
        up in 1.0f64..40.0,
        hour in 0u8..24,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let link = AccessLink::provision(Mbps(down), Mbps(up), &mut rng);
        let d = link.sample_down_available(hour, &mut rng);
        let u = link.sample_up_available(hour, &mut rng);
        prop_assert!(d.is_valid() && u.is_valid());
        prop_assert!(d.0 <= link.down_capacity().0 + 1e-9);
        prop_assert!(u.0 <= link.up_capacity().0 + 1e-9);
        prop_assert!(d.0 >= 0.0 && u.0 >= 0.0);
    }

    #[test]
    fn path_snapshot_is_internally_consistent(
        down in 25.0f64..1500.0,
        memory in 1.0f64..16.0,
        rssi in -90.0f64..-30.0,
        hour in 0u8..24,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let access = AccessLink::provision(Mbps(down), Mbps(10.0), &mut rng);
        let device = DeviceProfile::from_memory(memory, &mut rng);
        let path = NetworkPath::new(
            access,
            AccessMedium::Wifi(WifiLink::new(Band::G5, rssi)),
            device,
            RttModel::metro(),
        );
        let s = path.snapshot(hour, &mut rng);
        prop_assert!(s.down_available.is_valid());
        prop_assert!(s.up_available.is_valid());
        prop_assert!(s.rtt_s > 0.0 && s.rtt_s < 1.0);
        prop_assert!((0.0..=0.05).contains(&s.loss_rate));
        prop_assert!(s.rwnd_total_bytes > 0.0);
        // The device processing cap is honoured.
        prop_assert!(s.down_available.0 <= s.device_cap.0 + 1e-9);
    }
}
