//! The one stage chain behind `repro`, `ingest`, `serve` and the benches.
//!
//! Every run regenerates every table and figure of the paper through the
//! same five stages:
//!
//! ```text
//! generate → ingest → fit → derive → render
//! ```
//!
//! * **generate** — the four cities' campaigns at the run's scale and
//!   seed, optionally corrupted by the dirty-record scenario of
//!   [`RunOptions::dirty`] ([`st_datagen::faults`]);
//! * **ingest** — how the generated records reach the segmented campaign
//!   stores. This is the only stage that differs between the binaries,
//!   selected by a [`Feed`]:
//!   - [`Feed::Chunks`] splits each campaign into
//!     [`IngestOptions::chunk_rows`]-row chunks and appends them to
//!     thread-local [`SegmentedStore`]s in a seed-scheduled interleave
//!     ([`ReplaySchedule`]), sanitizing per chunk and sealing segments as
//!     the tails fill. `ingest` runs it at the plan its flags give;
//!     `repro` and the benches run it at [`IngestOptions::WHOLE`], one
//!     chunk and one sealed segment per campaign;
//!   - [`Feed::Service`] (`serve`) replays the same chunks, in the same
//!     order, through a running [`ContextService`] and drains it;
//! * **fit** — [`CityAnalysis::from_stores`] per city;
//! * **derive** — every store's derived columns, materialized up front;
//! * **render** — the supervised render jobs (see below).
//!
//! [`run`] drives the whole chain. The benches call its two halves,
//! [`build_analyses_par`] (generate → derive on the whole-campaign chunk
//! feed) and [`run_all_par`] (render).
//!
//! **One output.** Segment boundaries and the chunk interleave are pure
//! functions of the accepted-row sequence, the seed and the chunk plan,
//! and the fit consumes gathered, contiguous values, so both feeds
//! render byte-identical artifacts at every chunk plan and every
//! parallelism: the golden-, ingest- and serve-identity suites pin them
//! to one hash. Parallel units (cities, stores, render jobs) run on
//! [`st_datagen::par`]-style scoped workers and their results are folded
//! back in fixed city/job order.
//!
//! **Supervised** (DESIGN.md §"Fault taxonomy and supervision contract"):
//! records pass the sanitizer before any model is fitted, and every
//! render job runs under `catch_unwind` with a per-attempt deadline and
//! one retry; a job that still fails degrades to a placeholder artifact,
//! is listed in the report's `## Health` section and makes
//! [`RunHealth::is_degraded`] true.
//!
//! **Observable** (DESIGN.md §"Observability"): every stage records into
//! an [`st_obs::Registry`]. Each parallel unit records into its own
//! sub-registry, merged in city/job order, so the deterministic metric
//! class is byte-identical at every parallelism level. Stage wall-clocks
//! come from the `generate`/`ingest`/`fit`/`derive`/`render` span tree
//! and fill [`StageTimings`] and [`ReplayStats::ingest_s`]. Observation
//! is read-only: artifacts are byte-identical with the registry enabled
//! or [`Registry::disabled`].
//!
//! [`output`] writes what a run produced; [`cli`] parses the flags the
//! binaries share.

pub mod claims;
pub mod cli;
pub mod diff;
pub mod ledger;
pub mod output;

use serde::Serialize;
use st_analysis::{
    cities, ext_latency, fig01, fig02, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11,
    fig12, fig13, table1, table2, table3, table4, CityAnalysis,
};
use st_datagen::{City, CityConfig, CityDataset, DirtyScenario};
use st_obs::{MetricsSnapshot, Registry};
use st_serve::{ContextService, ServeError, WarmInput, WarmOutput, WarmRenderer};
use st_speedtest::{Measurement, SanitizeReport, SegmentedStore};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One rendered artifact: an id, markdown/text body, and optional SVG.
#[derive(Clone)]
pub struct Artifact {
    /// Stable id ("fig09a", "table2", ...).
    pub id: String,
    /// Text rendering for the report.
    pub text: String,
    /// SVG document, when the artifact is a figure.
    pub svg: Option<String>,
    /// JSON payload of the underlying result.
    pub json: String,
}

/// Wall-clock seconds spent in each repro stage.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageTimings {
    /// Dataset generation (four cities); the ingest stage that follows
    /// is [`ReplayStats::ingest_s`].
    pub generate_s: f64,
    /// BST model fitting (four cities).
    pub fit_s: f64,
    /// Derived-column materialization across all campaign stores.
    pub derive_s: f64,
    /// Experiment rendering (tables, figures, SVG/JSON).
    pub render_s: f64,
}

/// One render job that failed past its retry and was degraded to a
/// placeholder artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobFailure {
    /// The job's stable label ("fig08", "appendix_b", ...).
    pub label: String,
    /// Why it failed ("panic: ...", "deadline exceeded", plus the retry's
    /// outcome).
    pub reason: String,
}

/// Supervision outcome of one repro run: what degraded, what retried,
/// and what the sanitizer did to the input records.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunHealth {
    /// Render jobs dispatched.
    pub jobs_total: usize,
    /// Jobs that needed (and survived on) a retry.
    pub jobs_retried: usize,
    /// Jobs that failed both attempts and were degraded to placeholders.
    pub jobs_failed: usize,
    /// One entry per degraded job, in paper order.
    pub failures: Vec<JobFailure>,
    /// Merged record-sanitization counters across all campaigns.
    pub sanitize: SanitizeReport,
}

impl RunHealth {
    /// Whether any artifact was degraded to a placeholder. Quarantined
    /// records alone do not count — dropping dirty records is the
    /// sanitizer doing its job, not a degraded run.
    pub fn is_degraded(&self) -> bool {
        self.jobs_failed > 0
    }
}

/// Everything the render stage produces.
pub struct ReproReport {
    /// The scale the datasets were generated at.
    pub scale: f64,
    /// The seed used.
    pub seed: u64,
    /// All artifacts, in paper order (placeholders included).
    pub artifacts: Vec<Artifact>,
    /// Headline numbers for the summary (label, value).
    pub headlines: Vec<(String, String)>,
    /// Per-stage wall-clock timings of this run.
    pub timings: StageTimings,
    /// Supervision and sanitization outcome.
    pub health: RunHealth,
    /// Metrics snapshot of the run; `None` when it ran against
    /// [`Registry::disabled`].
    pub metrics: Option<MetricsSnapshot>,
}

/// The knobs of one run of the stage chain.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Fraction of the paper's campaign sizes to generate.
    pub scale: f64,
    /// Master seed of generation, replay schedule and fits.
    pub seed: u64,
    /// Worker threads of every stage.
    pub parallelism: usize,
    /// Per-attempt deadline for one render job. A job that neither
    /// returns nor panics within this window is abandoned (its thread is
    /// detached and drains on its own) and retried once.
    pub deadline: Duration,
    /// Fault injection: labels of jobs forced to panic on every attempt
    /// (they degrade to placeholders). For tests and the CI smoke job.
    pub fail_jobs: Vec<String>,
    /// Fault injection: labels of jobs forced to panic on their first
    /// attempt only (they succeed on retry).
    pub flaky_jobs: Vec<String>,
    /// Fault injection: labels of jobs that stall well past any sane
    /// deadline before returning empty output.
    pub hang_jobs: Vec<String>,
    /// Fault injection: the dirty-record scenario each city's campaigns
    /// are corrupted with right after generation, if any.
    pub dirty: Option<DirtyScenario>,
}

impl RunOptions {
    /// A run at `(scale, seed, parallelism)` with a 300 s render deadline
    /// and no injected faults or dirty records.
    pub fn new(scale: f64, seed: u64, parallelism: usize) -> Self {
        RunOptions {
            scale,
            seed,
            parallelism,
            deadline: Duration::from_secs(300),
            fail_jobs: Vec::new(),
            flaky_jobs: Vec::new(),
            hang_jobs: Vec::new(),
            dirty: None,
        }
    }
}

/// How generated records reach the campaign stores — the one stage of
/// the chain that differs between the binaries.
pub enum Feed<'a> {
    /// Replay seed-scheduled chunks into thread-local stores under an
    /// `ingest` stage.
    Chunks(IngestOptions),
    /// Replay the same chunks through `service` under an `ingest` stage,
    /// then drain it. `service` must hold one deterministic partition per
    /// [`City::all`] entry (label-matched) with the `ookla`/`mlab`/`mba`
    /// campaigns — [`st_serve::PartitionSpec::city`]; extra partitions
    /// (the wire partition) are frozen by the drain but never fitted.
    Service {
        /// The running service.
        service: &'a ContextService,
        /// Rows per replayed chunk.
        chunk_rows: usize,
    },
}

/// Knobs of the thread-local chunk replay ([`Feed::Chunks`]).
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Rows per replayed chunk.
    pub chunk_rows: usize,
    /// Sealed-segment size threshold of each store's mutable tail.
    pub seal_rows: usize,
}

impl IngestOptions {
    /// One chunk per campaign and one sealed segment per store — the
    /// plan of `repro` and [`build_analyses_par`]. Every column view of
    /// such a store is a single zero-copy fragment.
    pub const WHOLE: IngestOptions =
        IngestOptions { chunk_rows: usize::MAX, seal_rows: usize::MAX };
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { chunk_rows: 2048, seal_rows: st_speedtest::DEFAULT_SEAL_ROWS }
    }
}

/// What the ingest stage did, summed over all campaign streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Chunks appended across the twelve campaign streams.
    pub chunks: u64,
    /// Rows offered to the incremental sanitizer.
    pub rows: u64,
    /// Sealed segments across all frozen stores.
    pub segments: u64,
    /// Warm epochs the service published while streaming — a pure
    /// function of the accepted-row total and the epoch size. The final
    /// epoch adds one more at `publish_final`; the `serve` binary counts
    /// it here before writing its ledger row. Zero on [`Feed::Chunks`].
    pub epochs: u64,
    /// Wall-clock seconds of the `ingest` stage (chunks + freeze/drain).
    pub ingest_s: f64,
}

impl ReplayStats {
    /// Ingest throughput in rows per wall-clock second; 0 when nothing
    /// was replayed.
    pub fn rows_per_s(&self) -> f64 {
        if self.ingest_s > 0.0 {
            self.rows as f64 / self.ingest_s
        } else {
            0.0
        }
    }
}

/// Everything one run of the chain produces.
pub struct Run {
    /// The fitted cities, in [`City::all`] order.
    pub analyses: Arc<Vec<CityAnalysis>>,
    /// Artifacts, headlines, timings, health and metrics.
    pub report: ReproReport,
    /// What the replay feeds did.
    pub replay: ReplayStats,
}

/// Run the whole chain: generate → ingest → fit → derive → render. Only
/// [`Feed::Service`] can fail, when the service rejects a chunk or its
/// drain fails.
pub fn run(opts: &RunOptions, feed: Feed<'_>, obs: &Registry) -> Result<Run, ServeError> {
    let (analyses, timings, sanitize, replay) = build(opts, feed, obs)?;
    let report = render(&analyses, opts, timings, sanitize, obs);
    Ok(Run { analyses, report, replay })
}

/// Generate → derive on the whole-campaign chunk feed
/// ([`IngestOptions::WHOLE`]), unobserved; `render_s` stays 0 until
/// [`run_all_par`]. Output is identical at every parallelism.
pub fn build_analyses_par(
    scale: f64,
    seed: u64,
    parallelism: usize,
) -> (Arc<Vec<CityAnalysis>>, StageTimings) {
    let opts = RunOptions::new(scale, seed, parallelism);
    let (analyses, timings, _, _) =
        build(&opts, Feed::Chunks(IngestOptions::WHOLE), &Registry::disabled())
            .expect("the chunk feed cannot fail");
    (analyses, timings)
}

/// The render stage alone, unobserved and fault-free, on analyses from
/// [`build_analyses_par`]; fills in `render_s` on `timings`.
pub fn run_all_par(
    analyses: &Arc<Vec<CityAnalysis>>,
    scale: f64,
    seed: u64,
    parallelism: usize,
    timings: StageTimings,
) -> ReproReport {
    let opts = RunOptions::new(scale, seed, parallelism);
    render(analyses, &opts, timings, SanitizeReport::default(), &Registry::disabled())
}

/// Map `items` through `f` on up to `workers` scoped threads, preserving
/// item order in the output. `f` gets the item's index and the item.
fn par_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let (job_tx, job_rx) = crossbeam::channel::bounded::<(usize, T)>(workers);
    let (out_tx, out_rx) = crossbeam::channel::unbounded::<(usize, U)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let out_tx = out_tx.clone();
            let f = &f;
            scope.spawn(move || {
                for (i, item) in job_rx.iter() {
                    if out_tx.send((i, f(i, item))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(job_rx);
        drop(out_tx);
        // Feed the bounded queue; workers drain it as they go.
        for pair in items.into_iter().enumerate() {
            assert!(job_tx.send(pair).is_ok(), "workers alive while feeding");
        }
        drop(job_tx);
        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for (i, out) in out_rx.iter() {
            slots[i] = Some(out);
        }
        slots.into_iter().map(|s| s.expect("every job completed")).collect()
    })
}

/// Run one top-level stage between its `stage.start`/`stage.end`
/// lifecycle events, under a span of the same name. Returns the stage's
/// output and the span's wall-clock seconds.
fn stage<T>(obs: &Registry, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    obs.event("stage.start", "lifecycle", &[("stage", name)]);
    let span = obs.span(name);
    let out = f();
    let secs = span.stop();
    obs.event("stage.end", "lifecycle", &[("stage", name)]);
    (out, secs)
}

/// The three campaign streams of a city, in store order.
const CAMPAIGNS: [&str; 3] = ["ookla", "mlab", "mba"];

/// A city's config and its `ookla`/`mlab`/`mba` records — what the
/// generate stage hands to the feeds.
type CityRecords = (CityConfig, [Vec<Measurement>; 3]);

/// A city's config and its frozen `ookla`/`mlab`/`mba` stores — what
/// every feed hands to the fit stage.
type CityStores = (CityConfig, [SegmentedStore; 3]);

/// What [`build`] hands back: the analyses, the stage timings
/// (`render_s` still 0), the merged sanitize counters and the replay
/// statistics.
type Built = (Arc<Vec<CityAnalysis>>, StageTimings, SanitizeReport, ReplayStats);

/// Generate → ingest → fit → derive.
fn build(opts: &RunOptions, feed: Feed<'_>, obs: &Registry) -> Result<Built, ServeError> {
    let parallelism = opts.parallelism.max(1);
    let city_workers = parallelism.min(City::all().len());
    let (cities, generate_s) = generate_stage(opts, obs);
    let (prepared, sanitize, replay) = match feed {
        Feed::Chunks(plan) => chunk_feed(cities, opts.seed, plan, city_workers, obs),
        Feed::Service { service, chunk_rows } => {
            service_feed(cities, opts.seed, chunk_rows, service, city_workers, obs)?
        }
    };
    let (analyses, fit_s) = fit_stage(prepared, opts.seed, city_workers, obs);
    let derive_s = derive_stage(&analyses, parallelism, obs);
    let timings = StageTimings { generate_s, fit_s, derive_s, render_s: 0.0 };
    Ok((Arc::new(analyses), timings, sanitize, replay))
}

/// Fold each parallel unit's sub-registry into `obs` in unit order — the
/// fold that keeps the deterministic metric class and the trace order
/// parallelism-invariant — and return the units' outputs.
fn merged<T>(obs: &Registry, units: Vec<(T, Registry)>) -> Vec<T> {
    units
        .into_iter()
        .map(|(out, sub)| {
            obs.merge(&sub);
            out
        })
        .collect()
}

/// The generate stage: each city's campaigns are generated (and
/// corrupted by [`RunOptions::dirty`], if any) and observed on the
/// city's own sub-registry inside a `generate/<city>` span.
fn generate_stage(opts: &RunOptions, obs: &Registry) -> (Vec<CityRecords>, f64) {
    let parallelism = opts.parallelism.max(1);
    let cities = City::all();
    let city_workers = parallelism.min(cities.len());
    // Workers beyond one-per-city go into each city's chunked loops.
    let inner = parallelism.div_ceil(city_workers);
    let (generated, generate_s) = stage(obs, "generate", || {
        par_map(cities.to_vec(), city_workers, |_, city| {
            let sub = obs.sub();
            let city_span = sub.span(&format!("generate/{}", city.label()));
            let mut ds = CityDataset::generate_with_parallelism(city, opts.scale, opts.seed, inner);
            let dirty_labels =
                opts.dirty.as_ref().map(|scenario| ds.inject_dirty(scenario, opts.seed));
            ds.observe(&sub);
            if let Some(labels) = &dirty_labels {
                ds.observe_dirty(&sub, labels);
            }
            // The feeds need only the records; the population goes here.
            let CityDataset { config, ookla, mlab, mba, .. } = ds;
            city_span.stop();
            ((config, [ookla, mlab, mba]), sub)
        })
    });
    (merged(obs, generated), generate_s)
}

/// The replay loop both feeds share: split the city's campaigns
/// into `chunk_rows`-row chunks and offer them to `sink`, with the
/// campaign's index into [`CAMPAIGNS`], in the city's [`ReplaySchedule`]
/// order. `sink` returns the rows it was offered.
fn replay_city<E>(
    (config, campaigns): CityRecords,
    seed: u64,
    city_index: usize,
    chunk_rows: usize,
    mut sink: impl FnMut(usize, Vec<Measurement>) -> Result<usize, E>,
) -> Result<(CityConfig, ReplayStats), E> {
    let mut queues = campaigns.map(|records| split_chunks(records, chunk_rows));
    let mut sched = ReplaySchedule::new(seed, city_index);
    let mut stats = ReplayStats::default();
    loop {
        let live: Vec<usize> = (0..queues.len()).filter(|&k| !queues[k].is_empty()).collect();
        if live.is_empty() {
            return Ok((config, stats));
        }
        let k = live[sched.pick(live.len())];
        let chunk = queues[k].pop_front().expect("stream is live");
        stats.rows += sink(k, chunk)? as u64;
        stats.chunks += 1;
    }
}

/// Per-chunk ingest latency buckets, seconds (wall-clock class).
const INGEST_CHUNK_BOUNDS: &[f64] =
    &[0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0];

/// The thread-local replay feed ([`Feed::Chunks`]) under the `ingest`
/// stage. Each city replays into its own builder stores on its own
/// sub-registry (`ingest/<city>` span, per-chunk `ingest.*` metrics),
/// then freezes them and records their `sanitize.*` counters.
fn chunk_feed(
    cities: Vec<CityRecords>,
    seed: u64,
    plan: IngestOptions,
    city_workers: usize,
    obs: &Registry,
) -> (Vec<CityStores>, SanitizeReport, ReplayStats) {
    let (ingested, ingest_s) = stage(obs, "ingest", || {
        par_map(cities, city_workers, |ci, records| {
            let sub = obs.sub();
            let city = records.0.city.label();
            let city_span = sub.span(&format!("ingest/{city}"));
            let mut stores = CAMPAIGNS.map(|_| SegmentedStore::builder(plan.seal_rows));
            let Ok((config, mut stats)) =
                replay_city(records, seed, ci, plan.chunk_rows, |k, chunk| {
                    let t0 = Instant::now();
                    let cs = stores[k]
                        .append_chunk(chunk)
                        .expect("tail stores accept chunks until frozen");
                    let elapsed = t0.elapsed().as_secs_f64();
                    sub.observe_wall(
                        "ingest.chunk_seconds",
                        &[("city", city)],
                        elapsed,
                        INGEST_CHUNK_BOUNDS,
                    );
                    sub.inc("ingest.chunks", &[("campaign", CAMPAIGNS[k]), ("city", city)]);
                    for (outcome, n) in [
                        ("clean", cs.clean),
                        ("repaired", cs.repaired),
                        ("quarantined", cs.quarantined),
                    ] {
                        sub.add("ingest.rows", &[("outcome", outcome)], n);
                    }
                    Ok::<_, std::convert::Infallible>(cs.rows_in)
                });
            let mut report = SanitizeReport::default();
            for (campaign, store) in CAMPAIGNS.into_iter().zip(&mut stores) {
                store.freeze().expect("ingest freezes each store exactly once");
                store.report().record(&sub, &[("campaign", campaign), ("city", city)]);
                report.merge(store.report());
                stats.segments += store.num_segments() as u64;
            }
            city_span.stop();
            (((config, stores), report, stats), sub)
        })
    });
    let mut sanitize = SanitizeReport::default();
    let mut replay = ReplayStats { ingest_s, ..ReplayStats::default() };
    let prepared = merged(obs, ingested)
        .into_iter()
        .map(|(stores, report, stats)| {
            sanitize.merge(&report);
            replay.chunks += stats.chunks;
            replay.rows += stats.rows;
            replay.segments += stats.segments;
            stores
        })
        .collect();
    (prepared, sanitize, replay)
}

/// The service replay feed ([`Feed::Service`]) under the `ingest` stage:
/// every city streams its chunks through `service`, which records its
/// own `serve.*` metrics, and the service is drained within the stage.
/// The deterministic partitions' `sanitize.*` counters are then recorded
/// in partition order, as the chunk feed records them at freeze;
/// wire-partition rows stay out of the deterministic metric class
/// (DESIGN.md §18).
fn service_feed(
    cities: Vec<CityRecords>,
    seed: u64,
    chunk_rows: usize,
    service: &ContextService,
    city_workers: usize,
    obs: &Registry,
) -> Result<(Vec<CityStores>, SanitizeReport, ReplayStats), ServeError> {
    let (streamed, ingest_s) = stage(obs, "ingest", || -> Result<_, ServeError> {
        let streamed = par_map(cities, city_workers, |ci, records| {
            let city = records.0.city.label();
            replay_city(records, seed, ci, chunk_rows, |k, chunk| {
                service.ingest_chunk(city, CAMPAIGNS[k], chunk).map(|r| r.stats.rows_in)
            })
        });
        let streamed = streamed.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok((streamed, service.drain()?))
    });
    let (streamed, drained) = streamed?;
    let mut replay = ReplayStats {
        segments: drained.segments,
        epochs: service.current_epoch().epoch,
        ingest_s,
        ..ReplayStats::default()
    };

    let mut sanitize = SanitizeReport::default();
    let mut by_city = std::collections::BTreeMap::new();
    for part in drained.partitions.into_iter().filter(|p| p.deterministic) {
        for (campaign, store) in &part.stores {
            store.report().record(obs, &[("campaign", campaign), ("city", &part.city)]);
            sanitize.merge(store.report());
        }
        by_city.insert(part.city, part.stores);
    }
    let mut prepared = Vec::with_capacity(streamed.len());
    for (config, stats) in streamed {
        replay.chunks += stats.chunks;
        replay.rows += stats.rows;
        let city = config.city.label();
        let mut stores =
            by_city.remove(city).ok_or_else(|| ServeError::UnknownCity(city.to_string()))?;
        let mut take = |campaign: &str| -> Result<SegmentedStore, ServeError> {
            let i = stores.iter().position(|(c, _)| c == campaign).ok_or_else(|| {
                ServeError::UnknownCampaign {
                    city: city.to_string(),
                    campaign: campaign.to_string(),
                }
            })?;
            Ok(stores.swap_remove(i).1)
        };
        let stores = [take("ookla")?, take("mlab")?, take("mba")?];
        prepared.push((config, stores));
    }
    Ok((prepared, sanitize, replay))
}

/// The fit stage: one [`CityAnalysis::from_stores`] per city, each on its
/// own sub-registry, with the fit seed `seed ^ 0x5eed`. Every feed ends
/// here, which is what lets the identity suites claim the fit of every
/// chunk plan and of the service *is* the whole-campaign fit.
fn fit_stage(
    prepared: Vec<CityStores>,
    seed: u64,
    city_workers: usize,
    obs: &Registry,
) -> (Vec<CityAnalysis>, f64) {
    let (fitted, fit_s) = stage(obs, "fit", || {
        par_map(prepared, city_workers, |_, (config, [ookla, mlab, mba])| {
            let sub = obs.sub();
            let city_span = sub.span(&format!("fit/{}", config.city.label()));
            let analysis = CityAnalysis::from_stores(config, ookla, mlab, mba, seed ^ 0x5eed, &sub);
            city_span.stop();
            (analysis, sub)
        })
    });
    (merged(obs, fitted), fit_s)
}

/// The derive stage: materialize every store's lazy derived columns up
/// front so the render jobs only ever read memoized slices. Each column
/// is a pure function of the base columns, so building them in parallel
/// (one job per campaign, city order preserved by `par_map`) cannot
/// change their contents.
fn derive_stage(analyses: &[CityAnalysis], parallelism: usize, obs: &Registry) -> f64 {
    let (subs, derive_s) = stage(obs, "derive", || {
        let stores: Vec<(&str, &str, &SegmentedStore)> = analyses
            .iter()
            .flat_map(|a| {
                let city = a.config.city.label();
                [("ookla", city, &a.ookla), ("mlab", city, &a.mlab), ("mba", city, &a.mba)]
            })
            .collect();
        par_map(stores, parallelism, |_, (campaign, city, store)| {
            let sub = obs.sub();
            store.materialize_derived();
            store.observe(&sub, &[("campaign", campaign), ("city", city)]);
            ((), sub)
        })
    });
    merged(obs, subs);
    derive_s
}

/// SplitMix64 step — the replay scheduler's whole PRNG. Keeping it local
/// (rather than an `StdRng`) pins the chunk interleave to a documented
/// three-line recurrence that cannot drift under a rand upgrade.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Split one campaign's records into `chunk_rows`-row chunks, preserving
/// stream order — the chunk plan of both replay feeds.
pub fn split_chunks(records: Vec<Measurement>, chunk_rows: usize) -> VecDeque<Vec<Measurement>> {
    assert!(chunk_rows > 0, "chunk_rows must be >= 1");
    if !records.is_empty() && records.len() <= chunk_rows {
        // One chunk (the whole-campaign plan): hand the records over as is.
        return VecDeque::from([records]);
    }
    records.chunks(chunk_rows).map(<[Measurement]>::to_vec).collect()
}

/// The seed-scheduled chunk interleave of one city's campaign streams —
/// a pure function of `(seed, city index, pick sequence)`; worker
/// interleaving and wall-clock never feed into it. Both replay feeds
/// draw from this schedule, which is what makes their accepted-row
/// sequences (and therefore the fitted models) identical.
#[derive(Debug, Clone)]
pub struct ReplaySchedule {
    state: u64,
}

impl ReplaySchedule {
    /// Schedule for city number `city_index` under `seed`.
    pub fn new(seed: u64, city_index: usize) -> Self {
        ReplaySchedule { state: seed ^ (city_index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) }
    }

    /// Pick which of `live` still-nonempty streams sends next.
    pub fn pick(&mut self, live: usize) -> usize {
        assert!(live > 0, "pick needs a live stream");
        (splitmix64(&mut self.state) % live as u64) as usize
    }
}

/// The warm-analysis renderer the `serve` binary injects into
/// [`st_serve::ContextService`]: fit whatever rows have sealed with the
/// batch fit path (`st_analysis::warm`) and render headline
/// figures/tables. City configs are reconstructed from `(scale, city)`
/// — [`CityConfig::at_scale`] is pure — so the closure captures no
/// dataset state. The fit seed is the batch derivation (`seed ^
/// 0x5eed`): a warm fit over the *complete* sealed stream is the batch
/// fit, which is what the serve-identity suite pins.
///
/// **Memoized per city.** The renderer keeps each city's last fit,
/// keyed by `(service id, city, sealed row count per campaign)`, and
/// refits a city only when its key changes. Reuse is exact: within one
/// service a stream's sealed rows only grow, by appending whole
/// segments, so equal counts mean equal rows, and the service id
/// ([`WarmInput::service`]) keeps services that share one renderer
/// apart. Every output is therefore the one a fresh fit would give. A
/// city's stale entry is dropped before its refit, and no lock is held
/// while fitting (DESIGN.md §18); two renders that miss the same key
/// both fit, and their identical results may overwrite each other.
pub fn make_warm_renderer(scale: f64, seed: u64) -> WarmRenderer {
    let memo: Mutex<HashMap<City, WarmFit>> = Mutex::new(HashMap::new());
    Arc::new(move |input: &WarmInput| {
        let mut analyses = Vec::new();
        for wc in &input.cities {
            let Some(city) = City::all().iter().copied().find(|c| c.label() == wc.city) else {
                continue; // non-city partitions (e.g. "wire") carry no warm fit
            };
            let key = (input.service, wc.campaigns.iter().map(|(_, rows)| rows.len()).collect());
            let hit = {
                let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
                match memo.get(&city) {
                    Some((k, fit)) if *k == key => Some(Arc::clone(fit)),
                    _ => {
                        memo.remove(&city);
                        None
                    }
                }
            };
            let fit = hit.unwrap_or_else(|| {
                let stream = |name: &str| {
                    wc.campaigns
                        .iter()
                        .find(|(c, _)| c == name)
                        .map(|(_, rows)| rows.as_slice())
                        .unwrap_or(&[])
                };
                let fit = Arc::new(st_analysis::warm::warm_fit(
                    CityConfig::at_scale(city, scale),
                    stream("ookla"),
                    stream("mlab"),
                    stream("mba"),
                    seed ^ 0x5eed,
                ));
                let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
                memo.insert(city, (key, Arc::clone(&fit)));
                fit
            });
            analyses.push(fit);
        }
        let analyses: Vec<&CityAnalysis> = analyses.iter().map(Arc::as_ref).collect();
        WarmOutput {
            headlines: st_analysis::warm::warm_headlines(&analyses),
            tables: st_analysis::warm::warm_tables(&analyses),
        }
    })
}

/// A memoized warm fit and its key: the service id and the sealed row
/// count of each campaign, in campaign order.
type WarmFit = ((u64, Vec<usize>), Arc<CityAnalysis>);

fn cdf_artifact(r: &st_analysis::CdfResult) -> Artifact {
    Artifact {
        id: r.id.clone(),
        text: r.render(),
        svg: Some(r.to_svg()),
        json: serde_json::to_string_pretty(r).expect("serializable result"),
    }
}

fn table_artifact(t: &st_analysis::TableResult) -> Artifact {
    Artifact {
        id: t.id.clone(),
        text: t.render(),
        svg: None,
        json: serde_json::to_string_pretty(t).expect("serializable result"),
    }
}

fn density_artifact(d: &st_analysis::results::DensityResult) -> Artifact {
    Artifact {
        id: d.id.clone(),
        text: d.render(),
        svg: Some(d.to_svg()),
        json: serde_json::to_string_pretty(d).expect("serializable result"),
    }
}

/// What one render job yields: its artifacts and headlines, in paper
/// order within the job.
type JobOut = (Vec<Artifact>, Vec<(String, String)>);

/// A render job: shared so the supervisor can re-dispatch it for the
/// retry attempt, `'static` so an attempt can run on its own watchdogged
/// thread.
type RenderJob = Arc<dyn Fn() -> JobOut + Send + Sync + 'static>;

/// Build one labeled job from a slice-level closure.
fn job<F>(label: &str, analyses: &Arc<Vec<CityAnalysis>>, f: F) -> (String, RenderJob)
where
    F: Fn(&[CityAnalysis]) -> JobOut + Send + Sync + 'static,
{
    let analyses = Arc::clone(analyses);
    (label.to_string(), Arc::new(move || f(&analyses)))
}

/// The full experiment suite as independent labeled render jobs. Job
/// order is paper order; concatenating the outputs job by job reproduces
/// the sequential report exactly.
fn render_jobs(analyses: &Arc<Vec<CityAnalysis>>) -> Vec<(String, RenderJob)> {
    let mut jobs = Vec::new();

    // Table 1.
    jobs.push(job("table1", analyses, |all| {
        let refs: Vec<&CityAnalysis> = all.iter().collect();
        (vec![table_artifact(&table1::run(&refs))], vec![])
    }));

    // §2 cross-city comparison.
    jobs.push(job("cities", analyses, |all| {
        let all_refs: Vec<&CityAnalysis> = all.iter().collect();
        let (cities_table, _) = cities::run(&all_refs);
        (vec![table_artifact(&cities_table)], vec![])
    }));

    // Fig 1 + 2.
    jobs.push(job("fig01", analyses, |all| {
        let f1 = fig01::run(&all[0]);
        let headline = (
            "fig01 uncontextualized median (Mbps)".into(),
            format!("{:.1}", f1.medians.first().copied().unwrap_or(f64::NAN)),
        );
        (vec![cdf_artifact(&f1)], vec![headline])
    }));
    jobs.push(job("fig02", analyses, |all| {
        let f2 = fig02::run(&all[0]);
        let mut headlines = Vec::new();
        if f2.medians.len() == 2 {
            headlines.push((
                "fig02 consistency medians (down / up)".into(),
                format!("{:.2} / {:.2}", f2.medians[0], f2.medians[1]),
            ));
        }
        (vec![cdf_artifact(&f2)], headlines)
    }));

    // Table 2 across all states.
    jobs.push(job("table2", analyses, |all| {
        let refs: Vec<&CityAnalysis> = all.iter().collect();
        let (t2, stats) = table2::run(&refs);
        let headlines = stats
            .iter()
            .map(|s| {
                (
                    format!("table2 {} upload accuracy", s.state),
                    format!("{:.2}%", s.upload_accuracy * 100.0),
                )
            })
            .collect();
        (vec![table_artifact(&t2)], headlines)
    }));

    // Figs 4-7 and tables 3-4 (City/State-A) plus appendix variants.
    jobs.push(job("fig04", analyses, |all| (vec![density_artifact(&fig04::run(&all[0]))], vec![])));
    jobs.push(job("fig05", analyses, |all| {
        (fig05::run(&all[0]).iter().map(density_artifact).collect(), vec![])
    }));
    jobs.push(job("fig06", analyses, |all| (vec![density_artifact(&fig06::run(&all[0]))], vec![])));
    jobs.push(job("table3", analyses, |all| {
        let (t3, _) = table3::run(&all[0]);
        (vec![table_artifact(&t3)], vec![])
    }));
    jobs.push(job("fig07", analyses, |all| {
        (fig07::run(&all[0]).iter().map(density_artifact).collect(), vec![])
    }));
    jobs.push(job("table4", analyses, |all| {
        let (t4, _) = table4::run(&all[0]);
        (vec![table_artifact(&t4)], vec![])
    }));

    // Fig 8.
    jobs.push(job("fig08", analyses, |all| {
        let f8 = fig08::run(&all[0]);
        let headlines = f8
            .medians
            .first()
            .map(|m| ("fig08 alpha median".into(), format!("{m:.2}")))
            .into_iter()
            .collect();
        (vec![cdf_artifact(&f8)], headlines)
    }));

    // Fig 9 panels.
    jobs.push(job("fig09", analyses, |all| {
        (fig09::run(&all[0]).iter().map(cdf_artifact).collect(), vec![])
    }));

    // Fig 10.
    jobs.push(job("fig10", analyses, |all| {
        let (f10, shares) = fig10::run(&all[0]);
        let mut headlines = vec![(
            "fig10 local-bottleneck share".into(),
            format!("{:.0}%", shares.local_bottleneck_share * 100.0),
        )];
        if f10.medians.len() == 2 {
            headlines.push((
                "fig10 medians (best / bottleneck)".into(),
                format!("{:.2} / {:.2}", f10.medians[0], f10.medians[1]),
            ));
        }
        (vec![cdf_artifact(&f10)], headlines)
    }));

    // Figs 11-12.
    jobs.push(job("fig11", analyses, |all| {
        let (_vol, t11) = fig11::run(&all[0]);
        (vec![table_artifact(&t11)], vec![])
    }));
    jobs.push(job("fig12", analyses, |all| {
        (fig12::run_default(&all[0]).iter().map(cdf_artifact).collect(), vec![])
    }));

    // Fig 13.
    jobs.push(job("fig13", analyses, |all| {
        let (panels, gaps) = fig13::run(&all[0]);
        let headlines = gaps
            .iter()
            .map(|g| {
                (format!("fig13 {} Ookla/M-Lab median ratio", g.group), format!("{:.2}", g.ratio))
            })
            .collect();
        (panels.iter().map(cdf_artifact).collect(), headlines)
    }));

    // Extension: latency under load (not a paper figure; see the module
    // docs of `st_analysis::ext_latency`).
    jobs.push(job("ext_latency", analyses, |all| {
        let (lat_cdf, lat) = ext_latency::run(&all[0]);
        let headline = (
            "ext_latency medians (idle / loaded, ms)".into(),
            format!("{:.1} / {:.1}", lat.idle_median_ms, lat.loaded_median_ms),
        );
        (vec![cdf_artifact(&lat_cdf)], vec![headline])
    }));

    // Appendix: tables 5-7 (upload clusters for cities B-D) and the
    // per-state appendix densities.
    for i in 1..analyses.len() {
        let label = format!("appendix_{}", (b'a' + i as u8) as char);
        let analyses2 = Arc::clone(analyses);
        let f: RenderJob = Arc::new(move || {
            let city_a = &analyses2[i];
            let mut artifacts = Vec::new();
            let (mut t, _) = table3::run(city_a);
            t.id = format!("table{}", 4 + i); // tables 5, 6, 7
            artifacts.push(table_artifact(&t));
            let mut d = fig04::run(city_a);
            d.id = format!("fig14_{}", city_a.config.city.state_label().to_lowercase());
            artifacts.push(density_artifact(&d));
            for (j, mut dd) in fig05::run(city_a).into_iter().enumerate() {
                dd.id = format!(
                    "fig{}_{}",
                    15 + i, // figs 16, 17, 18
                    j
                );
                artifacts.push(density_artifact(&dd));
            }
            let mut f6 = fig06::run(city_a);
            f6.id = format!("fig15_{}", city_a.config.city.label().to_lowercase());
            artifacts.push(density_artifact(&f6));
            (artifacts, vec![])
        });
        jobs.push((label, f));
    }

    jobs
}

/// Outcome of one supervised attempt.
enum Attempt {
    Completed(Box<JobOut>),
    Panicked(String),
    TimedOut,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one attempt of `job` on a watchdogged thread. A panic is caught
/// and reported; a job that blows `deadline` is abandoned — its thread
/// keeps running detached and exits whenever the job returns, but its
/// result is discarded.
fn attempt_job(job: &RenderJob, deadline: Duration) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let job = Arc::clone(job);
    let handle = std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| job()));
        let _ = tx.send(result);
    });
    match rx.recv_timeout(deadline) {
        Ok(Ok(out)) => {
            let _ = handle.join();
            Attempt::Completed(Box::new(out))
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            Attempt::Panicked(panic_message(payload.as_ref()))
        }
        Err(_) => Attempt::TimedOut,
    }
}

fn describe(a: &Attempt) -> String {
    match a {
        Attempt::Completed(_) => "completed".to_string(),
        Attempt::Panicked(msg) => format!("panic: {msg}"),
        Attempt::TimedOut => "deadline exceeded".to_string(),
    }
}

/// The stand-in artifact emitted for a job that failed both attempts.
fn placeholder_artifact(label: &str, reason: &str) -> Artifact {
    #[derive(Serialize)]
    struct Placeholder {
        degraded: bool,
        job: String,
        reason: String,
    }
    let payload =
        Placeholder { degraded: true, job: label.to_string(), reason: reason.to_string() };
    Artifact {
        id: format!("degraded_{label}"),
        text: format!("DEGRADED: render job '{label}' failed ({reason}); artifacts omitted.\n"),
        svg: None,
        json: serde_json::to_string_pretty(&payload).expect("placeholder serializes"),
    }
}

/// Apply the fault-injection knobs of `opts` to a labeled job.
fn instrument_job(label: &str, inner: RenderJob, opts: &RunOptions) -> RenderJob {
    if opts.fail_jobs.iter().any(|l| l == label) {
        let label = label.to_string();
        return Arc::new(move || panic!("injected failure in job '{label}'"));
    }
    if opts.flaky_jobs.iter().any(|l| l == label) {
        let armed = AtomicBool::new(true);
        let label = label.to_string();
        return Arc::new(move || {
            if armed.swap(false, Ordering::SeqCst) {
                panic!("injected flaky failure in job '{label}'");
            }
            inner()
        });
    }
    if opts.hang_jobs.iter().any(|l| l == label) {
        return Arc::new(move || {
            // Stall far past any test deadline, but bounded, so the
            // abandoned thread drains instead of leaking forever.
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(100));
            }
            (Vec::new(), Vec::new())
        });
    }
    inner
}

/// The render stage: every experiment as a supervised job on up to
/// `opts.parallelism` workers, stitched back into paper order. Every job
/// runs under `catch_unwind` with a per-attempt deadline and one retry;
/// a job that fails both attempts degrades to a placeholder artifact at
/// its paper-order position and is recorded in [`ReproReport::health`],
/// so the run always completes. Each job records into its own
/// sub-registry (one `render/<label>` span); the coordinator merges them
/// in paper order and adds the deterministic job counters
/// (`render.jobs`, `render.jobs_retried`, `render.jobs_failed`,
/// `render.artifacts{job}`, `render.headlines{job}`). `analyses` must
/// hold the four cities in order; `sanitize` surfaces in the report's
/// `## Health` section.
fn render(
    analyses: &Arc<Vec<CityAnalysis>>,
    opts: &RunOptions,
    timings: StageTimings,
    sanitize: SanitizeReport,
    obs: &Registry,
) -> ReproReport {
    assert_eq!(analyses.len(), 4, "need all four cities");
    let ((artifacts, headlines, health), render_s) =
        stage(obs, "render", || supervise(analyses, opts, sanitize, obs));
    let metrics = obs.is_enabled().then(|| obs.snapshot());
    ReproReport {
        scale: opts.scale,
        seed: opts.seed,
        artifacts,
        headlines,
        timings: StageTimings { render_s, ..timings },
        health,
        metrics,
    }
}

/// Dispatch, supervise and stitch the render jobs (the body of the
/// render stage).
fn supervise(
    analyses: &Arc<Vec<CityAnalysis>>,
    opts: &RunOptions,
    sanitize: SanitizeReport,
    obs: &Registry,
) -> (Vec<Artifact>, Vec<(String, String)>, RunHealth) {
    let jobs: Vec<(String, RenderJob)> = render_jobs(analyses)
        .into_iter()
        .map(|(label, inner)| {
            let instrumented = instrument_job(&label, inner, opts);
            (label, instrumented)
        })
        .collect();

    let deadline = opts.deadline;
    let outs = par_map(jobs, opts.parallelism.max(1), |_, (label, job)| {
        let sub = obs.sub();
        let job_span = sub.span(&format!("render/{label}"));
        let outcome = match attempt_job(&job, deadline) {
            Attempt::Completed(out) => (label, Ok(out), false),
            failed => {
                let first_reason = describe(&failed);
                match attempt_job(&job, deadline) {
                    Attempt::Completed(out) => (label, Ok(out), true),
                    retry_failed => {
                        let reason = format!("{first_reason}; retry: {}", describe(&retry_failed));
                        (label, Err(reason), true)
                    }
                }
            }
        };
        job_span.stop();
        (outcome, sub)
    });

    let mut artifacts = Vec::new();
    let mut headlines = Vec::new();
    let mut health = RunHealth { jobs_total: outs.len(), sanitize, ..RunHealth::default() };
    for ((label, result, retried), sub) in outs {
        obs.merge(&sub);
        obs.inc("render.jobs", &[]);
        match result {
            Ok(out) => {
                if retried {
                    health.jobs_retried += 1;
                    obs.inc("render.jobs_retried", &[]);
                    obs.event("render.retried", "lifecycle", &[("job", label.as_str())]);
                }
                let (art, heads) = *out;
                obs.add("render.artifacts", &[("job", label.as_str())], art.len() as u64);
                obs.add("render.headlines", &[("job", label.as_str())], heads.len() as u64);
                artifacts.extend(art);
                headlines.extend(heads);
            }
            Err(reason) => {
                health.jobs_failed += 1;
                obs.inc("render.jobs_failed", &[]);
                obs.event(
                    "render.degraded",
                    "lifecycle",
                    &[("job", label.as_str()), ("reason", reason.as_str())],
                );
                artifacts.push(placeholder_artifact(&label, &reason));
                health.failures.push(JobFailure { label, reason });
            }
        }
    }
    (artifacts, headlines, health)
}

/// Render the `## Health` section body (shared by the report and tests;
/// wall-clock free, so it is byte-identical across parallelism levels).
pub fn render_health(health: &RunHealth) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "- render jobs: {} total, {} failed, {} retried\n",
        health.jobs_total, health.jobs_failed, health.jobs_retried
    ));
    let s = &health.sanitize;
    out.push_str(&format!(
        "- records: {} clean, {} repaired, {} quarantined\n",
        s.clean, s.repaired, s.quarantined
    ));
    if !s.quarantine_reasons.is_empty() {
        out.push_str("- quarantine reasons:\n");
        for (reason, count) in &s.quarantine_reasons {
            out.push_str(&format!("  - {reason}: {count}\n"));
        }
    }
    if !s.repair_reasons.is_empty() {
        out.push_str("- repair reasons:\n");
        for (reason, count) in &s.repair_reasons {
            out.push_str(&format!("  - {reason}: {count}\n"));
        }
    }
    if !health.failures.is_empty() {
        out.push_str("- degraded artifacts:\n");
        for f in &health.failures {
            out.push_str(&format!("  - {}: {}\n", f.label, f.reason));
        }
    }
    out
}

/// Render the `## Metrics` section body from the **deterministic**
/// metric class only. Wall-clock spans are deliberately excluded, so —
/// like the artifacts and the `## Health` section — the rendered text
/// is byte-identical at every parallelism level.
pub fn render_metrics(det: &st_obs::DeterministicMetrics) -> String {
    fn base(key: &str) -> &str {
        key.split('{').next().unwrap_or(key)
    }
    let mut out = String::new();
    out.push_str(&format!(
        "- deterministic keys: {} counters, {} gauges, {} histograms, {} series\n",
        det.counters.len(),
        det.gauges.len(),
        det.histograms.len(),
        det.series.len()
    ));
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (key, v) in &det.counters {
        *totals.entry(base(key)).or_default() += v;
    }
    if !totals.is_empty() {
        out.push_str("- counter totals (summed over labels):\n");
        for (name, total) in &totals {
            out.push_str(&format!("  - {name}: {total}\n"));
        }
    }
    if !det.histograms.is_empty() {
        let q = |h: &st_obs::Histogram, p: f64| {
            h.quantile(p).map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".to_string())
        };
        out.push_str("- histograms:\n");
        for (key, h) in &det.histograms {
            out.push_str(&format!(
                "  - {key}: n={} min={} max={} p50={} p90={} p99={}\n",
                h.count,
                h.min,
                h.max,
                q(h, 0.5),
                q(h, 0.9),
                q(h, 0.99)
            ));
        }
    }
    out
}

/// Render the full markdown report.
pub fn render_report(report: &ReproReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Repro run (scale {}, seed {})\n\n## Headlines\n\n",
        report.scale, report.seed
    ));
    for (label, value) in &report.headlines {
        out.push_str(&format!("- {label}: **{value}**\n"));
    }
    let t = &report.timings;
    out.push_str(&format!(
        "\n## Timings\n\n- generate: {:.2} s\n- fit: {:.2} s\n- derive: {:.2} s\n- render: {:.2} s\n",
        t.generate_s, t.fit_s, t.derive_s, t.render_s
    ));
    out.push_str("\n## Health\n\n");
    out.push_str(&render_health(&report.health));
    if let Some(metrics) = &report.metrics {
        out.push_str("\n## Metrics\n\n");
        out.push_str(&render_metrics(&metrics.deterministic));
    }
    out.push_str("\n## Artifacts\n\n");
    for a in &report.artifacts {
        out.push_str("```text\n");
        out.push_str(&a.text);
        out.push_str("```\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Arc<Vec<CityAnalysis>> {
        build_analyses_par(0.004, 2024, 1).0
    }

    /// The render stage alone, unobserved, with `opts`' fault injection.
    fn render_with(analyses: &Arc<Vec<CityAnalysis>>, opts: &RunOptions) -> ReproReport {
        render(
            analyses,
            opts,
            StageTimings::default(),
            SanitizeReport::default(),
            &Registry::disabled(),
        )
    }

    #[test]
    fn tiny_run_produces_all_artifacts() {
        let report = run_all_par(&tiny(), 0.004, 2024, 1, StageTimings::default());
        assert!(report.artifacts.len() > 25, "artifacts: {}", report.artifacts.len());
        assert!(report.headlines.len() >= 8);
        let ids: Vec<&str> = report.artifacts.iter().map(|a| a.id.as_str()).collect();
        for want in [
            "table1", "fig01", "fig02", "table2", "fig04", "fig06", "table3", "table4", "fig08",
            "fig09a", "fig09d", "fig10", "fig11", "table5", "table6", "table7",
        ] {
            assert!(ids.contains(&want), "missing {want} in {ids:?}");
        }
        // A pristine generator sails through the sanitizer untouched and
        // nothing degrades.
        assert!(!report.health.is_degraded());
        assert_eq!(report.health.jobs_failed, 0);
        assert_eq!(report.health.jobs_retried, 0);
        let md = render_report(&report);
        assert!(md.contains("## Headlines"));
        assert!(md.contains("## Timings"));
        assert!(md.contains("## Health"));
        assert!(md.contains("0 failed, 0 retried"));
    }

    #[test]
    fn observed_run_records_metrics_and_plain_run_does_not() {
        let obs = Registry::new();
        let run = run(&RunOptions::new(0.004, 2024, 2), Feed::Chunks(IngestOptions::WHOLE), &obs)
            .unwrap();
        let report = &run.report;
        let metrics = report.metrics.as_ref().expect("enabled registry yields a snapshot");
        let det = &metrics.deterministic;
        for prefix in ["datagen.records", "sanitize.clean", "bst.em_iterations_total", "store.rows"]
        {
            assert!(
                det.counters.keys().any(|k| k.starts_with(prefix)),
                "no {prefix} counter in {:?}",
                det.counters.keys().collect::<Vec<_>>()
            );
        }
        assert_eq!(det.counters.get("render.jobs").copied(), Some(report.health.jobs_total as u64));
        let spans = &metrics.wall_clock.spans;
        for root in ["generate", "fit", "derive", "render"] {
            assert!(spans.contains_key(root), "missing span {root}");
        }
        assert!(spans.keys().any(|k| k.starts_with("generate/City-")), "no per-city span");
        assert!(spans.contains_key("render/fig01"), "no per-job span");
        let md = render_report(report);
        assert!(md.contains("## Metrics"));
        assert!(md.contains("counter totals"));
        // An unobserved render stays metrics-free.
        let plain = run_all_par(&run.analyses, 0.004, 2024, 1, StageTimings::default());
        assert!(plain.metrics.is_none());
        assert!(!render_report(&plain).contains("## Metrics"));
    }

    #[test]
    fn parallel_report_matches_sequential() {
        let (seq_analyses, _) = build_analyses_par(0.004, 77, 1);
        let (par_analyses, _) = build_analyses_par(0.004, 77, 4);
        let seq = run_all_par(&seq_analyses, 0.004, 77, 1, StageTimings::default());
        let par = run_all_par(&par_analyses, 0.004, 77, 4, StageTimings::default());
        assert_eq!(seq.artifacts.len(), par.artifacts.len());
        for (s, p) in seq.artifacts.iter().zip(&par.artifacts) {
            assert_eq!(s.id, p.id, "artifact order diverged");
            assert_eq!(s.text, p.text, "artifact {} text diverged", s.id);
            assert_eq!(s.svg, p.svg, "artifact {} svg diverged", s.id);
            assert_eq!(s.json, p.json, "artifact {} json diverged", s.id);
        }
        assert_eq!(seq.headlines, par.headlines);
    }

    #[test]
    fn sanitizer_counts_pristine_records_as_clean() {
        let opts = RunOptions::new(0.004, 2024, 2);
        let (_, _, report, _) =
            build(&opts, Feed::Chunks(IngestOptions::WHOLE), &Registry::disabled()).unwrap();
        assert!(report.clean > 1000, "clean records: {}", report.clean);
        assert_eq!(report.quarantined, 0, "pristine generator quarantined: {report:?}");
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn dirty_records_quarantine_and_analysis_survives() {
        let dirty = Some(DirtyScenario::with_total_rate(0.02));
        let opts = RunOptions { dirty, ..RunOptions::new(0.004, 2024, 2) };
        let run = run(&opts, Feed::Chunks(IngestOptions::WHOLE), &Registry::disabled()).unwrap();
        let report = &run.report.health.sanitize;
        assert!(report.quarantined > 0, "2% dirty must quarantine something");
        // Duplicates and clock-skew repairs both occur at this rate.
        assert!(report.quarantine_reasons.contains_key("duplicate-id"), "{report:?}");
        assert!(report.repaired > 0, "clock-skewed records should be repaired: {report:?}");
        // The degraded dataset still fits and renders end to end.
        assert!(run.report.artifacts.len() > 25);
        assert!(!run.report.health.is_degraded());
    }

    #[test]
    fn injected_job_failure_degrades_to_placeholder() {
        let opts = RunOptions {
            fail_jobs: vec!["fig08".into()],
            deadline: Duration::from_secs(60),
            ..RunOptions::new(0.004, 2024, 1)
        };
        let report = render_with(&tiny(), &opts);
        assert!(report.health.is_degraded());
        assert_eq!(report.health.jobs_failed, 1);
        assert_eq!(report.health.failures[0].label, "fig08");
        assert!(report.health.failures[0].reason.contains("injected failure"));
        let ids: Vec<&str> = report.artifacts.iter().map(|a| a.id.as_str()).collect();
        assert!(ids.contains(&"degraded_fig08"), "placeholder missing: {ids:?}");
        assert!(!ids.contains(&"fig08"), "failed job still produced its artifact");
        // Everything else still rendered.
        for want in ["table1", "fig01", "fig09a", "table5", "table7"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        let md = render_report(&report);
        assert!(md.contains("1 failed"));
        assert!(md.contains("degraded_fig08") || md.contains("fig08: panic"));
    }

    #[test]
    fn flaky_job_survives_on_retry() {
        let analyses = tiny();
        let opts =
            RunOptions { flaky_jobs: vec!["table1".into()], ..RunOptions::new(0.004, 2024, 1) };
        let report = render_with(&analyses, &opts);
        assert!(!report.health.is_degraded());
        assert_eq!(report.health.jobs_retried, 1);
        assert_eq!(report.health.jobs_failed, 0);
        let clean = render_with(&analyses, &RunOptions::new(0.004, 2024, 1));
        assert_eq!(report.artifacts.len(), clean.artifacts.len());
        assert_eq!(report.artifacts[0].text, clean.artifacts[0].text);
    }

    #[test]
    fn hanging_job_hits_the_deadline_and_degrades() {
        let analyses = tiny();
        let opts = RunOptions {
            hang_jobs: vec!["ext_latency".into()],
            deadline: Duration::from_millis(250),
            ..RunOptions::new(0.004, 2024, 1)
        };
        let t0 = Instant::now();
        let report = render_with(&analyses, &opts);
        assert!(report.health.is_degraded());
        assert_eq!(report.health.failures[0].label, "ext_latency");
        assert!(report.health.failures[0].reason.contains("deadline exceeded"));
        // Two attempts at 250ms each plus the real jobs; nowhere near the
        // 10s the hang job sleeps.
        assert!(t0.elapsed() < Duration::from_secs(9), "deadline did not bound the run");
    }

    #[test]
    fn degraded_run_is_identical_across_parallelism() {
        let mk = |par: usize| {
            let opts = RunOptions {
                fail_jobs: vec!["fig10".into()],
                dirty: Some(DirtyScenario::with_total_rate(0.02)),
                ..RunOptions::new(0.004, 99, par)
            };
            run(&opts, Feed::Chunks(IngestOptions::WHOLE), &Registry::disabled()).unwrap().report
        };
        let seq = mk(1);
        let par = mk(4);
        assert_eq!(seq.artifacts.len(), par.artifacts.len());
        for (s, p) in seq.artifacts.iter().zip(&par.artifacts) {
            assert_eq!(s.id, p.id, "artifact order diverged");
            assert_eq!(s.text, p.text, "artifact {} text diverged", s.id);
            assert_eq!(s.json, p.json, "artifact {} json diverged", s.id);
        }
        assert_eq!(seq.headlines, par.headlines);
        assert_eq!(render_health(&seq.health), render_health(&par.health));
    }
}
