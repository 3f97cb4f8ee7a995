//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! every end-to-end metric untraced (`--trace 0`), every per-layer
//! metric traced (`--trace 1`). A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`. Exits 1 when an output
//! was wrong, 2 on bad arguments.

use perfbench::pipeline::DEFAULT_SEED;
use perfbench::trace::Tracer;
use perfbench::workloads::{self, Outcome};
use perfbench::{procfs, serve};
use std::process::ExitCode;

/// End-to-end metrics (every workload, untraced runs), with units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mib", "MiB"), ("success_ratio", "ratio")];

/// Per-layer metrics (every workload, traced runs), with units. A layer
/// the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("datagen.population_s", "s"),
    ("datagen.ookla_s", "s"),
    ("datagen.mlab_s", "s"),
    ("datagen.mba_s", "s"),
    ("datagen.tests", "count"),
    ("datagen.us_per_test", "us"),
    ("bench.city_skew", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("speedtest.sanitize_s", "s"),
    ("speedtest.sanitize_rows", "count"),
    ("speedtest.store_s", "s"),
    ("speedtest.derive_s", "s"),
    ("analysis.fit_s", "s"),
    ("bst.em_iterations", "count"),
    ("bst.kde_grid_evals", "count"),
    ("analysis.fit_us_per_em_iteration", "us"),
    ("bench.render_s", "s"),
    ("bench.render_bytes", "B"),
    ("ingest_rows_per_s", "1/s"),
    ("epoch_publish_p50_ms", "ms"),
    ("serve.ingest_chunk_p50_us", "us"),
    ("serve.ingest_chunk_p90_us", "us"),
    ("serve.ingest_chunks", "count"),
    ("serve.warm_refits", "count"),
    ("serve.warm_refit_p50_ms", "ms"),
    ("serve.warm_rows_fitted", "count"),
    ("serve.warm_new_row_ratio", "ratio"),
    ("serve.drain_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("serve.query_status_p50_ms", "ms"),
    ("serve.query_city_p50_ms", "ms"),
    ("serve.query_headline_p50_ms", "ms"),
    ("serve.query_quarantine_p50_ms", "ms"),
    ("serve.query_metrics_p50_ms", "ms"),
    ("serve.query_bytes", "B"),
    ("loadgen.queries", "count"),
    ("loadgen.late_p90_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|e| format!("bad --seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["repro", "reanalyze", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be repro, reanalyze or serve, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = format!("{}-{}-{}-{nanos}", args.workload, args.seed, std::process::id());
    let tracer = if args.trace { Tracer::new(&run_id) } else { Tracer::disabled() };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        st_datagen::par::default_parallelism()
    );

    let Outcome { checks, mut metrics } = match args.workload.as_str() {
        "repro" => workloads::repro(args.seed, args.seconds, &tracer),
        "reanalyze" => workloads::reanalyze(args.seed, args.seconds, &tracer),
        _ => serve::serve(args.seed, args.seconds, &tracer),
    };
    metrics.insert("peak_rss_mib", procfs::peak_rss_mib().unwrap_or(0.0));
    metrics.insert("success_ratio", 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64);
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| tracer.write_json(&path)) {
            Ok(()) => eprintln!("perfbench: spans of run {run_id} in {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for f in &checks.failures {
        eprintln!("perfbench: FAILED {f}");
    }

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for &(name, unit) in list {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !checks.incorrect,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if checks.incorrect {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
