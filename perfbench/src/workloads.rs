//! The batch workloads, `repro` and `reanalyze`, and the metrics every
//! workload shares. `serve` lives in [`crate::serve`].

use crate::pipeline::{
    fit_and_render, generate_all, sanitize_city, Campaigns, Checks, Generated, Rendered, SCALE,
};
use crate::procfs;
use crate::stats::median;
use crate::trace::{busy_time, wall_share, SpanRec, Tracer};
use st_bench::ledger::artifact_hash;
use st_bench::{build_analyses_par, run_all_par};
use st_datagen::par::default_parallelism;
use st_datagen::CityDataset;
use std::collections::BTreeMap;
use std::time::Instant;

/// Scale of the `repro` warm-up runs that make up its set-up.
const WARMUP_SCALE: f64 = 0.004;
/// Warm-up runs in `repro`'s set-up; the median is reported.
const WARMUPS: usize = 3;

/// Metric values by name; whatever a workload does not measure reads 0
/// in the traced report (the layer did no work on that workload).
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run measured and checked.
pub struct Outcome {
    /// Correctness and failure bookkeeping.
    pub checks: Checks,
    /// Measured metrics.
    pub metrics: Metrics,
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Wall time and CPU seconds of one timed pass.
pub struct Pass<T> {
    /// What the pass returned.
    pub out: T,
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the whole process over the pass.
    pub cpu_s: f64,
}

/// Run `f` as one timed pass.
pub fn timed<T>(f: impl FnOnce() -> T) -> Pass<T> {
    let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let out = f();
    let wall_s = secs(t0);
    let cpu_s = procfs::cpu_seconds().unwrap_or(0.0) - cpu0;
    Pass { out, wall_s, cpu_s }
}

/// Whether to start another timed pass: always a first one, then while
/// the next pass, if it takes as long as the last, would end less than
/// half a pass past the run's `seconds`. A run of long passes so does the
/// same number of passes on every seed.
pub fn another_pass(passes: usize, timed_s: f64, last_s: f64, seconds: f64) -> bool {
    passes == 0 || timed_s + last_s / 2.0 < seconds
}

/// CPU time over wall time times cores, for a set of passes.
pub fn cpu_util(wall_s: &[f64], cpu_s: &[f64]) -> f64 {
    cpu_s.iter().sum::<f64>() / (wall_s.iter().sum::<f64>() * default_parallelism() as f64)
}

/// Span names whose wall-share self time is reported as a layer time,
/// with the metric each feeds.
const LAYERS: [(&str, &str); 9] = [
    ("datagen.population", "datagen.population_s"),
    ("datagen.ookla", "datagen.ookla_s"),
    ("datagen.mlab", "datagen.mlab_s"),
    ("datagen.mba", "datagen.mba_s"),
    ("speedtest.sanitize", "speedtest.sanitize_s"),
    ("speedtest.store", "speedtest.store_s"),
    ("analysis.fit", "analysis.fit_s"),
    ("speedtest.derive", "speedtest.derive_s"),
    ("bench.render", "bench.render_s"),
];

/// The root span `name` (the last one recorded, if several).
pub fn root_of(spans: &[SpanRec], name: &str) -> Option<u64> {
    spans.iter().rev().find(|s| s.name == name && s.parent.is_none()).map(|s| s.id)
}

/// Layer times under `root`, plus `trace.attributed_ratio`: the share of
/// the root's wall time those layer times account for.
pub fn layer_times(spans: &[SpanRec], root: u64) -> Metrics {
    let share = wall_share(spans, root);
    let total = spans.iter().find(|s| s.id == root).map_or(0.0, SpanRec::duration);
    let mut m = Metrics::new();
    let mut attributed = 0.0;
    for (span, metric) in LAYERS {
        if let Some(&v) = share.get(span) {
            m.insert(metric, v);
            attributed += v;
        }
    }
    if total > 0.0 {
        m.insert("trace.attributed_ratio", attributed / total);
    }
    m
}

/// Generation figures that are not layer times: tests generated, busy
/// microseconds per test, and the slowest city's generate time over the
/// mean (`bench.city_skew`).
pub fn generation_metrics(spans: &[SpanRec], root: u64, generated: &Generated) -> Metrics {
    let busy = busy_time(spans, root);
    let gen_busy: f64 = ["datagen.population", "datagen.ookla", "datagen.mlab", "datagen.mba"]
        .iter()
        .filter_map(|n| busy.get(*n))
        .sum();
    let mut m = Metrics::new();
    m.insert("datagen.tests", generated.tests as f64);
    m.insert("datagen.us_per_test", gen_busy / generated.tests.max(1) as f64 * 1e6);
    let mean = generated.city_s.iter().sum::<f64>() / generated.city_s.len().max(1) as f64;
    let slowest = generated.city_s.iter().copied().fold(0.0, f64::max);
    m.insert("bench.city_skew", slowest / mean);
    m
}

/// Layer times and generation figures of a set-up that only generated.
pub fn setup_metrics(spans: &[SpanRec], root: u64, generated: &Generated) -> Metrics {
    let mut m = layer_times(spans, root);
    m.remove("trace.attributed_ratio");
    m.extend(generation_metrics(spans, root, generated));
    m
}

/// Fit-layer figures from a traced fit under `root`.
pub fn fit_metrics(spans: &[SpanRec], root: u64, r: &Rendered) -> Metrics {
    let busy = busy_time(spans, root);
    let mut m = Metrics::new();
    m.insert("bst.em_iterations", r.em_iterations as f64);
    m.insert("bst.kde_grid_evals", r.kde_grid_evals as f64);
    let fit_busy = busy.get("analysis.fit").copied().unwrap_or(0.0);
    m.insert("analysis.fit_us_per_em_iteration", fit_busy / r.em_iterations.max(1) as f64 * 1e6);
    m.insert("bench.render_bytes", r.bytes as f64);
    m
}

/// Per-metric median over several passes' metric maps.
pub fn median_metrics(passes: &[Metrics]) -> Metrics {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (&k, &v) in p {
            all.entry(k).or_default().push(v);
        }
    }
    all.into_iter().filter_map(|(k, v)| median(&v).map(|m| (k, m))).collect()
}

/// `repro`: the whole batch pipeline at one worker per core, from
/// generation to hashed artifacts, through `build_analyses_par` and
/// `run_all_par`. Set-up is three untimed warm-up runs at scale 0.004.
/// Traced runs alternate library passes with staged, traced passes and
/// check that both hash the same.
pub fn repro(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let workers = default_parallelism();
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();

    let mut warmups = Vec::new();
    for _ in 0..WARMUPS {
        let t0 = Instant::now();
        let (analyses, timings) = build_analyses_par(WARMUP_SCALE, seed, workers);
        let report = run_all_par(&analyses, WARMUP_SCALE, seed, workers, timings);
        std::hint::black_box(artifact_hash(&report.artifacts));
        warmups.push(secs(t0));
    }
    metrics.insert("setup_s", median(&warmups).unwrap_or(0.0));

    let mut first = None;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut layer_passes = Vec::new();
    let mut timed_s = 0.0;
    let mut k = 0;
    let mut last_s = 0.0;
    while another_pass(k, timed_s, last_s, seconds) || (tracer.is_enabled() && traced.is_empty()) {
        if tracer.is_enabled() && k % 2 == 1 {
            let pass = timed(|| {
                let root = tracer.span("repro.pass", None);
                let stage = tracer.span("bench.generate_stage", root.id());
                let mut generated = generate_all(seed, workers, true, tracer, stage.id());
                stage.end();
                let cities = std::mem::take(&mut generated.cities);
                let inputs = cities.into_iter().map(Campaigns::of).collect();
                (fit_and_render(inputs, seed, workers, true, tracer, root.id()), generated)
            });
            let (rendered, generated) = &pass.out;
            checks.artifacts(rendered, seed, &mut first);
            let spans = tracer.spans();
            let root = root_of(&spans, "repro.pass").expect("traced pass recorded its root");
            let mut m = layer_times(&spans, root);
            m.extend(generation_metrics(&spans, root, generated));
            m.extend(fit_metrics(&spans, root, rendered));
            m.insert("speedtest.sanitize_rows", generated.tests as f64);
            m.insert("proc.cpu_util", cpu_util(&[pass.wall_s], &[pass.cpu_s]));
            layer_passes.push(m);
            (timed_s, last_s) = (timed_s + pass.wall_s, pass.wall_s);
            traced.push(pass.wall_s);
        } else {
            let pass = timed(|| {
                let (analyses, timings) = build_analyses_par(SCALE, seed, workers);
                let report = run_all_par(&analyses, SCALE, seed, workers, timings);
                let (hash, files) = artifact_hash(&report.artifacts);
                Rendered {
                    analyses,
                    hash,
                    files,
                    bytes: 0,
                    jobs: report.health.jobs_total,
                    jobs_failed: report.health.jobs_failed,
                    em_iterations: 0,
                    kde_grid_evals: 0,
                }
            });
            checks.artifacts(&pass.out, seed, &mut first);
            if k == 0 {
                checks.claims(&pass.out.analyses, seed);
            }
            (timed_s, last_s) = (timed_s + pass.wall_s, pass.wall_s);
            plain.push(pass.wall_s);
        }
        k += 1;
    }

    let plain_median = median(&plain).unwrap_or(0.0);
    metrics.insert("pass_s", plain_median);
    eprintln!("repro: library passes {plain:.3?}, median {plain_median:.3} s");
    if tracer.is_enabled() {
        metrics.extend(median_metrics(&layer_passes));
        let traced_median = median(&traced).unwrap_or(0.0);
        metrics.insert("trace.overhead_ratio", traced_median / plain_median);
        eprintln!("repro: traced passes {traced:.3?}, median {traced_median:.3} s");
    }
    Outcome { checks, metrics }
}

/// One `reanalyze` pass over fresh clones: sanitize, stores, fit,
/// derive, render and hash at one worker. Returns the rendered result
/// and the rows sanitized.
fn reanalyze_pass(
    mut cities: Vec<CityDataset>,
    seed: u64,
    tracer: &Tracer,
    root: Option<u64>,
) -> (Rendered, u64) {
    let rows = cities.iter_mut().map(|ds| sanitize_city(ds, tracer, root)).sum();
    let inputs = cities.into_iter().map(Campaigns::of).collect();
    (fit_and_render(inputs, seed, 1, tracer.is_enabled(), tracer, root), rows)
}

/// `reanalyze`: records are generated once in set-up (one worker per
/// core), then the batch back half runs single-threaded over fresh
/// clones, after one untimed warm-up pass that counts as set-up.
pub fn reanalyze(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();

    let t0 = Instant::now();
    let setup = tracer.span("reanalyze.setup", None);
    let generated = generate_all(seed, default_parallelism(), false, tracer, setup.id());
    setup.end();
    let (warmup, _) = reanalyze_pass(generated.cities.clone(), seed, &Tracer::disabled(), None);
    metrics.insert("setup_s", secs(t0));
    let mut first = None;
    checks.artifacts(&warmup, seed, &mut first);
    checks.claims(&warmup.analyses, seed);
    drop(warmup);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut layer_passes = Vec::new();
    let mut timed_s = 0.0;
    let mut k = 0;
    let mut last_s = 0.0;
    while another_pass(k, timed_s, last_s, seconds) || (tracer.is_enabled() && traced.is_empty()) {
        let traced_pass = tracer.is_enabled() && k % 2 == 1;
        let clones = generated.cities.clone();
        let pass = if traced_pass {
            timed(|| {
                let root = tracer.span("reanalyze.pass", None);
                reanalyze_pass(clones, seed, tracer, root.id())
            })
        } else {
            timed(|| reanalyze_pass(clones, seed, &Tracer::disabled(), None))
        };
        (timed_s, last_s) = (timed_s + pass.wall_s, pass.wall_s);
        let (rendered, rows) = &pass.out;
        checks.artifacts(rendered, seed, &mut first);
        if traced_pass {
            let spans = tracer.spans();
            let root = root_of(&spans, "reanalyze.pass").expect("traced pass recorded its root");
            let mut m = layer_times(&spans, root);
            m.extend(fit_metrics(&spans, root, rendered));
            m.insert("speedtest.sanitize_rows", *rows as f64);
            m.insert("proc.cpu_util", cpu_util(&[pass.wall_s], &[pass.cpu_s]));
            layer_passes.push(m);
            traced.push(pass.wall_s);
        } else {
            plain.push(pass.wall_s);
        }
        k += 1;
    }

    let plain_median = median(&plain).unwrap_or(0.0);
    metrics.insert("pass_s", plain_median);
    eprintln!("reanalyze: passes {plain:.3?}, median {plain_median:.3} s");
    if tracer.is_enabled() {
        let spans = tracer.spans();
        let setup_root = root_of(&spans, "reanalyze.setup").expect("traced set-up recorded");
        // Set-up holds only generation layers and the passes none, so
        // the two maps share no layer time.
        metrics.extend(setup_metrics(&spans, setup_root, &generated));
        metrics.extend(median_metrics(&layer_passes));
        let traced_median = median(&traced).unwrap_or(0.0);
        metrics.insert("trace.overhead_ratio", traced_median / plain_median);
        eprintln!("reanalyze: traced passes {traced:.3?}, median {traced_median:.3} s");
    }
    Outcome { checks, metrics }
}
