//! Headless frame contracts: determinism of the `D|` pane, strict
//! pane separation, fixed-width grid geometry, and wire-format
//! parsing of the three query verbs the console consumes.

use st_console::{
    metrics_event, run_headless, status_event, watch_event, Controller, Event, Renderer,
};
use st_console::{EpochPoint, RunIdentity};

fn ingest_events(parallelism: u64, uptime_s: f64, addr: &str) -> Vec<Event> {
    // A scripted run: deterministic content identical across calls,
    // wall-clock content (parallelism, uptime, address) varying.
    let mut events = vec![
        Event::Connected { addr: addr.to_string() },
        Event::LedgerAttached { path: "out/BENCH_ledger.jsonl".into() },
        Event::Ledger(RunIdentity {
            mode: "serve".into(),
            scale: 0.05,
            seed: 2024,
            parallelism,
            artifact_hash: "00f1e2d3c4b5a697".into(),
            artifact_files: 7,
        }),
    ];
    for epoch in 0..5u64 {
        events.push(Event::Watch(EpochPoint {
            epoch,
            final_epoch: false,
            accepted_rows: epoch * 64,
            segments_sealed: epoch * 4,
            clean_delta: if epoch == 0 { 0 } else { 60 },
            repaired_delta: if epoch == 0 { 0 } else { 3 },
            quarantined_delta: if epoch == 0 { 0 } else { 1 },
        }));
    }
    events.push(Event::Status {
        epoch: 4,
        final_epoch: false,
        accepted_rows: 256,
        rows_in: 260,
        quarantined: 4,
        chunks: 13,
        segments_sealed: 16,
        epochs_published: 4,
        uptime_s,
        cities: vec![("City-A".into(), 130), ("City-B".into(), 126)],
    });
    // A metrics poll reporting the same totals the watch deltas sum
    // to: the two sources must agree, not add.
    events.push(Event::Metrics { clean: 240, repaired: 12, quarantined: 4 });
    events.push(Event::Drift(vec![]));
    events
}

fn render_frames(events: &[Event], frames: u64) -> String {
    let mut controller = Controller::new();
    let renderer = Renderer::new(72);
    let mut queue: Vec<Event> = events.to_vec();
    let mut out = Vec::new();
    run_headless(
        &mut controller,
        &renderer,
        frames,
        |c| {
            for e in queue.drain(..) {
                c.apply(e);
            }
        },
        &mut out,
    )
    .unwrap();
    String::from_utf8(out).unwrap()
}

fn deterministic_pane(text: &str) -> String {
    text.lines().filter(|l| l.starts_with("D|")).collect::<Vec<_>>().join("\n")
}

#[test]
fn same_events_render_byte_identical_frames() {
    let a = render_frames(&ingest_events(1, 1.25, "127.0.0.1:4000"), 3);
    let b = render_frames(&ingest_events(1, 1.25, "127.0.0.1:4000"), 3);
    assert_eq!(a, b, "rendering is a pure function of the event sequence");
}

#[test]
fn deterministic_pane_is_invariant_to_wall_clock_inputs() {
    // Same run observed at parallelism 1 and 4: different uptime,
    // different address, different parallelism knob. The D pane must
    // not move; the W pane must (it is where those inputs live).
    let p1 = render_frames(&ingest_events(1, 0.9, "127.0.0.1:4000"), 2);
    let p4 = render_frames(&ingest_events(4, 7.6, "127.0.0.1:5111"), 2);
    assert_eq!(deterministic_pane(&p1), deterministic_pane(&p4));
    assert_ne!(p1, p4, "wall-clock pane reflects the differing environment");
    for needle in ["0.9", "7.6", "4000", "5111"] {
        assert!(
            !deterministic_pane(&p1).contains(needle) && !deterministic_pane(&p4).contains(needle),
            "wall-clock value {needle:?} leaked into the deterministic pane"
        );
    }
}

#[test]
fn frames_are_a_fixed_width_cell_grid_with_classed_lines() {
    let text = render_frames(&ingest_events(2, 3.0, "127.0.0.1:4000"), 2);
    let mut d_lines = 0;
    let mut w_lines = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue; // frame separator
        }
        assert!(line.starts_with("D|") || line.starts_with("W|"), "unclassed frame line: {line:?}");
        assert_eq!(line.chars().count(), 72 + 2, "grid width broken on: {line:?}");
        if line.starts_with("D|") {
            d_lines += 1;
        } else {
            w_lines += 1;
        }
    }
    assert!(d_lines > 0 && w_lines > 0, "both pane classes present");
    // Frame headers are ordinal, not wall-clock.
    assert!(text.contains("st-console frame 1"));
    assert!(text.contains("st-console frame 2"));
    // The scripted metrics poll reports the same totals the watch
    // deltas sum to; the rates panel must not double count.
    assert!(text.contains("clean 240 "), "outcome totals counted once:\n{text}");
}

#[test]
fn drift_flags_render_in_the_deterministic_pane() {
    let mut events = ingest_events(1, 1.0, "127.0.0.1:4000");
    events.push(Event::Drift(vec![
        "seed: 2024 -> 2025".into(),
        "counters ledger.records_quarantined: 4 -> 9".into(),
    ]));
    let text = render_frames(&events, 1);
    let pane = deterministic_pane(&text);
    assert!(pane.contains("drift: 2 flag(s)"));
    assert!(pane.contains("!! seed: 2024 -> 2025"));

    // And a clean comparison renders as such.
    let clean = render_frames(&ingest_events(1, 1.0, "127.0.0.1:4000"), 1);
    assert!(deterministic_pane(&clean).contains("drift: clean"));

    // No baseline at all is distinct from a clean comparison.
    let bare = render_frames(&[], 1);
    assert!(deterministic_pane(&bare).contains("drift: (no baseline)"));
}

#[test]
fn sparkline_panel_reflects_throughput_and_stays_fixed_width() {
    let text = render_frames(&ingest_events(1, 1.0, "127.0.0.1:4000"), 1);
    let ingest_line =
        text.lines().find(|l| l.starts_with("D|ingest/epoch:")).expect("throughput panel present");
    let open = ingest_line.find('[').unwrap();
    let close = ingest_line.find(']').unwrap();
    assert_eq!(ingest_line[open + 1..close].chars().count(), 24);
    assert!(ingest_line.contains("max 63"), "per-epoch max from counters: {ingest_line:?}");
}

#[test]
fn wire_formats_of_all_three_verbs_parse_into_events() {
    let status = serde_json::from_str(
        "{\"ok\":true,\"kind\":\"status\",\"epoch\":3,\"final_epoch\":false,\
         \"accepted_rows\":192,\"rows_in\":200,\"quarantined\":8,\"chunks\":4,\
         \"segments_sealed\":12,\"epochs_published\":3,\"uptime_s\":1.5,\
         \"cities\":[{\"city\":\"City-A\",\"accepted_rows\":192}]}",
    )
    .unwrap();
    match status_event(&status).unwrap() {
        Event::Status { epoch, accepted_rows, cities, .. } => {
            assert_eq!((epoch, accepted_rows), (3, 192));
            assert_eq!(cities, vec![("City-A".to_string(), 192)]);
        }
        other => panic!("expected Status, got {other:?}"),
    }

    let metrics = serde_json::from_str(
        "{\"ok\":true,\"kind\":\"metrics\",\"epoch\":3,\"snapshot\":{\
         \"schema\":\"st-obs/v1\",\"deterministic\":{\"counters\":{\
         \"serve.rows{outcome=clean}\":180,\"serve.rows{outcome=repaired}\":12,\
         \"serve.rows{outcome=quarantined}\":8}},\"wall_clock\":{}}}",
    )
    .unwrap();
    assert_eq!(
        metrics_event(&metrics).unwrap(),
        Event::Metrics { clean: 180, repaired: 12, quarantined: 8 }
    );

    let watch = serde_json::from_str(
        "{\"ok\":true,\"kind\":\"watch\",\"epoch\":2,\"final_epoch\":true,\
         \"accepted_rows\":128,\"quarantined\":0,\"chunks\":2,\"segments_sealed\":8,\
         \"seals\":[],\"counters\":{\"serve.rows{outcome=clean}\":64,\
         \"serve.epochs\":1}}",
    )
    .unwrap();
    match watch_event(&watch).unwrap() {
        Event::Watch(p) => {
            assert!(p.final_epoch);
            assert_eq!((p.epoch, p.accepted_rows, p.clean_delta), (2, 128, 64));
        }
        other => panic!("expected Watch, got {other:?}"),
    }

    // The uniform error row surfaces as an Err, not a panic.
    let error =
        serde_json::from_str("{\"ok\":false,\"kind\":\"error\",\"detail\":\"unknown command\"}")
            .unwrap();
    let err = status_event(&error).unwrap_err();
    assert!(err.contains("unknown command"), "error detail propagated: {err}");
}
