//! The trace-export half of the two-class contract (DESIGN.md §14):
//! `BENCH_trace.json` must be valid Chrome Trace Event Format, and its
//! deterministic fields (`name`, `cat`, `ph`, `pid`/`tid`, `args`,
//! event order) must be byte-identical at every parallelism level —
//! only `ts` and `dur` may move.

use serde_json::Value;
use st_bench::{run, Feed, IngestOptions, RunOptions};
use st_obs::Registry;

/// Run the full observed pipeline and return its trace.
fn observed_trace(parallelism: usize, fail_jobs: Vec<String>) -> st_obs::Trace {
    let obs = Registry::new();
    let opts = RunOptions { fail_jobs, ..RunOptions::new(0.004, 2024, parallelism) };
    let report = run(&opts, Feed::Chunks(IngestOptions::WHOLE), &obs).unwrap().report;
    assert!(report.metrics.is_some());
    obs.trace()
}

/// Recursively drop the wall-clock keys from a parsed CTEF document,
/// leaving only the deterministic class.
fn strip_wall_clock(v: &Value) -> Value {
    match v {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| k.as_str() != "ts" && k.as_str() != "dur")
                .map(|(k, x)| (k.clone(), strip_wall_clock(x)))
                .collect(),
        ),
        Value::Array(xs) => Value::Array(xs.iter().map(strip_wall_clock).collect()),
        other => other.clone(),
    }
}

#[test]
fn deterministic_trace_fields_are_identical_across_parallelism() {
    let t1 = observed_trace(1, Vec::new());
    let t4 = observed_trace(4, Vec::new());
    // Golden comparison: the deterministic view is byte-identical.
    assert_eq!(
        t1.deterministic_json(),
        t4.deterministic_json(),
        "trace names/cats/lanes/args/order diverged across parallelism"
    );
    // And the full CTEF files agree once ts/dur are stripped — the same
    // check the CI regression gate runs on the written BENCH_trace.json.
    let c1 = serde_json::from_str(&t1.to_chrome_json("repro")).expect("p1 trace is valid JSON");
    let c4 = serde_json::from_str(&t4.to_chrome_json("repro")).expect("p4 trace is valid JSON");
    assert_eq!(
        strip_wall_clock(&c1),
        strip_wall_clock(&c4),
        "CTEF documents diverged beyond ts/dur"
    );
}

#[test]
fn chrome_trace_is_valid_ctef_and_covers_the_pipeline() {
    let trace = observed_trace(2, Vec::new());
    let json = trace.to_chrome_json("repro test");
    let doc = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(Value::as_str), Some("ms"));
    let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(events.len() > 50, "suspiciously small trace: {} events", events.len());

    let mut names = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("every event has ph");
        assert!(e.get("name").and_then(Value::as_str).is_some(), "event without name");
        assert_eq!(e.get("pid").and_then(Value::as_u64), Some(1), "single-process trace");
        assert!(e.get("tid").and_then(Value::as_u64).is_some(), "event without tid");
        match ph {
            "M" => {} // metadata carries no timestamp
            "X" => {
                assert!(e.get("ts").and_then(Value::as_u64).is_some(), "X event without ts");
                assert!(e.get("dur").and_then(Value::as_u64).is_some(), "X event without dur");
            }
            "i" => {
                assert!(e.get("ts").and_then(Value::as_u64).is_some(), "instant without ts");
                assert_eq!(e.get("s").and_then(Value::as_str), Some("t"), "unscoped instant");
                assert!(e.get("dur").is_none(), "instant with a dur");
            }
            other => panic!("unexpected phase {other:?}"),
        }
        names.push(e.get("name").and_then(Value::as_str).unwrap_or_default().to_string());
    }

    // Lifecycle coverage: every stage marked start and end, sanitize
    // outcomes recorded per campaign, spans present for stages, cities
    // and render jobs.
    for stage in ["generate", "fit", "derive", "render"] {
        let starts = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("stage.start")
                    && e.get("args").and_then(|a| a.get("stage")).and_then(Value::as_str)
                        == Some(stage)
            })
            .count();
        assert_eq!(starts, 1, "stage.start for {stage}");
        assert!(names.contains(&"stage.end".to_string()));
        assert!(names.contains(&stage.to_string()), "missing {stage} span event");
    }
    let sanitize_marks = names.iter().filter(|n| n.as_str() == "sanitize.outcome").count();
    assert_eq!(sanitize_marks, 12, "3 campaigns x 4 cities");
    assert!(names.iter().any(|n| n.starts_with("generate/City-")), "per-city generate span");
    assert!(names.contains(&"render/fig01".to_string()), "per-job render span");

    // Metadata names every lane used by an event.
    let mut lanes: Vec<u64> =
        events.iter().filter_map(|e| e.get("tid").and_then(Value::as_u64)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let named = events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("thread_name")
                && e.get("tid").and_then(Value::as_u64) == Some(lane)
        });
        assert!(named || lane == 0, "lane {lane} has no thread_name metadata");
    }
}

#[test]
fn degraded_jobs_leave_deterministic_trace_marks() {
    let trace = observed_trace(2, vec!["fig08".into()]);
    let degraded: Vec<&st_obs::TraceEvent> =
        trace.events.iter().filter(|e| e.name == "render.degraded").collect();
    assert_eq!(degraded.len(), 1, "one injected failure, one mark");
    let args = &degraded[0].args;
    assert_eq!(args.iter().find(|(k, _)| k == "job").map(|(_, v)| v.as_str()), Some("fig08"));
    let reason = args.iter().find(|(k, _)| k == "reason").map(|(_, v)| v.as_str()).unwrap_or("");
    assert!(reason.contains("injected failure"), "reason not carried: {reason:?}");
    // The mark is deterministic: same position and payload at p1.
    let seq = observed_trace(1, vec!["fig08".into()]);
    assert_eq!(seq.deterministic_json(), trace.deterministic_json());
}
