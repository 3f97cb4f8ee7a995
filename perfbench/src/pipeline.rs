//! The pipeline stages the workloads share, called through the public
//! API of the workspace crates, with a span around each layer call.
//!
//! The staged calls here mirror `st_bench::build_analyses_par` (city
//! fan-out, per-city sanitize, store + fit, derive fan-out) so that a
//! traced run can time each layer; the `repro` workload checks that the
//! staged path hashes exactly like the library path.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_analysis::CityAnalysis;
use st_bench::ledger::artifact_hash;
use st_bench::{run_all_par, StageTimings};
use st_datagen::population::{mlab_tier_weights, tier_weights};
use st_datagen::{
    generate_mba_chunked, generate_mlab_chunked, generate_ookla_chunked, par, technology_for, City,
    CityConfig, CityDataset, Population,
};
use st_obs::Registry;
use st_speedtest::{sanitize, Measurement, SegmentedStore};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Dataset scale of every workload: 0.05 of the paper's campaign sizes
/// (about 74.4k tests over four cities).
pub const SCALE: f64 = 0.05;
/// The seed the artifact hash is pinned at.
pub const DEFAULT_SEED: u64 = 20220707;
/// FNV-1a hash of the 91 artifact files at [`SCALE`] and
/// [`DEFAULT_SEED`], as the `repro` binary's ledger row reports it.
pub const PINNED_HASH: u64 = 0x09e6_0513_1122_9de9;
/// Artifact files behind [`PINNED_HASH`].
pub const PINNED_FILES: usize = 91;
/// Shape claims `st_bench::claims::check_all` evaluates.
pub const CLAIMS: usize = 19;

/// Map `items` through `f` on up to `workers` scoped threads, taking
/// items in order from a shared queue (the scheduling of
/// `st_bench`'s fan-out) and returning outputs in item order.
pub fn fan_out<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue lock poisoned by a worker panic").pop_front();
                let Some((i, item)) = next else { return };
                let out = f(i, item);
                slots.lock().expect("slot lock poisoned by a worker panic")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("slot lock poisoned by a worker panic")
        .into_iter()
        .map(|s| s.expect("every item was processed"))
        .collect()
}

/// Generate one city layer by layer, exactly as
/// `CityDataset::generate_with_parallelism` does: populations from
/// their own sub-stream, then the Ookla, M-Lab and MBA campaigns.
pub fn generate_city_staged(
    city: City,
    seed: u64,
    inner: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> CityDataset {
    let config = CityConfig::at_scale(city, SCALE);
    let master = seed ^ ((city.index() as u64) << 32);
    let tech = |tier: usize| technology_for(city, tier);

    let span = tracer.span("datagen.population", parent);
    let mut rng = StdRng::seed_from_u64(par::stream_seed(master, par::tags::POPULATION));
    let n_users = (config.ookla_tests / 3).clamp(50, 200_000);
    let population = Population::generate_with_technology(
        &config.catalog,
        &tier_weights(city),
        n_users,
        tech,
        &mut rng,
    );
    let n_mlab_users = (config.mlab_tests / 3).clamp(50, 200_000);
    let mlab_population = Population::generate_with_technology(
        &config.catalog,
        &mlab_tier_weights(city),
        n_mlab_users,
        tech,
        &mut rng,
    );
    span.end();

    let span = tracer.span("datagen.ookla", parent);
    let ookla = generate_ookla_chunked(
        &config,
        &population,
        par::stream_seed(master, par::tags::OOKLA),
        inner,
    );
    span.end();
    let span = tracer.span("datagen.mlab", parent);
    let mlab = generate_mlab_chunked(
        &config,
        &mlab_population,
        par::stream_seed(master, par::tags::MLAB),
        inner,
    );
    span.end();
    let span = tracer.span("datagen.mba", parent);
    let mba = generate_mba_chunked(&config, par::stream_seed(master, par::tags::MBA), inner);
    span.end();

    CityDataset { config, population, ookla, mlab, mba }
}

/// The four generated cities and what generating them took.
pub struct Generated {
    /// One dataset per city, in study order.
    pub cities: Vec<CityDataset>,
    /// Seconds each city's generation took.
    pub city_s: Vec<f64>,
    /// Records generated (before sanitize).
    pub tests: u64,
}

/// Generate the four cities over `parallelism` workers with the library
/// split (one city per worker, leftover workers inside each city), and
/// with `sanitize_in_job` sanitize each city in its worker right after,
/// as `build_analyses_par` does. Untraced, generation is the library
/// call `CityDataset::generate_with_parallelism`; traced, the staged
/// copy under a `datagen.generate` span per city.
pub fn generate_all(
    seed: u64,
    parallelism: usize,
    sanitize_in_job: bool,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Generated {
    let cities = City::all();
    let city_workers = parallelism.clamp(1, cities.len());
    let inner = parallelism.div_ceil(city_workers);
    let jobs = fan_out(cities.to_vec(), city_workers, |_, city| {
        let t0 = Instant::now();
        let mut ds = if tracer.is_enabled() {
            let span = tracer.span("datagen.generate", parent);
            generate_city_staged(city, seed, inner, tracer, span.id())
        } else {
            CityDataset::generate_with_parallelism(city, SCALE, seed, inner)
        };
        let secs = t0.elapsed().as_secs_f64();
        let tests = (ds.ookla.len() + ds.mlab.len() + ds.mba.len()) as u64;
        if sanitize_in_job {
            sanitize_city(&mut ds, tracer, parent);
        }
        (ds, secs, tests)
    });
    let mut out = Generated { cities: Vec::new(), city_s: Vec::new(), tests: 0 };
    for (ds, secs, tests) in jobs {
        out.cities.push(ds);
        out.city_s.push(secs);
        out.tests += tests;
    }
    out
}

/// Sanitize one city's three campaigns in place; returns rows offered.
pub fn sanitize_city(ds: &mut CityDataset, tracer: &Tracer, parent: Option<u64>) -> u64 {
    let span = tracer.span("speedtest.sanitize", parent);
    let mut rows = 0;
    for records in [&mut ds.ookla, &mut ds.mlab, &mut ds.mba] {
        rows += records.len() as u64;
        let (kept, _) = sanitize(std::mem::take(records));
        *records = kept;
    }
    span.end();
    rows
}

/// What the fit stage starts from: sanitized records, or frozen stores
/// drained from the service.
pub enum Campaigns {
    /// Sanitized Ookla, M-Lab and MBA records.
    Records(Vec<Measurement>, Vec<Measurement>, Vec<Measurement>),
    /// Frozen Ookla, M-Lab and MBA stores.
    Stores(Box<[SegmentedStore; 3]>),
}

impl Campaigns {
    /// A city's (sanitized) records as fit-stage input.
    pub fn of(ds: CityDataset) -> (CityConfig, Campaigns) {
        (ds.config, Campaigns::Records(ds.ookla, ds.mlab, ds.mba))
    }
}

/// The hashed result of one pass through fit, derive and render.
pub struct Rendered {
    /// The fitted cities (for the shape claims).
    pub analyses: Arc<Vec<CityAnalysis>>,
    /// FNV-1a hash of the artifact files.
    pub hash: u64,
    /// Artifact files hashed.
    pub files: usize,
    /// Bytes of all artifact files.
    pub bytes: u64,
    /// Render jobs dispatched.
    pub jobs: usize,
    /// Render jobs degraded to placeholders.
    pub jobs_failed: usize,
    /// EM iterations summed over every fit (`bst.em_iterations_total`).
    pub em_iterations: u64,
    /// KDE grid evaluations summed over every fit (`bst.kde_grid_evals`).
    pub kde_grid_evals: u64,
}

/// Sum of the counters named `name` over all label sets.
fn counter_total(reg: &Registry, name: &str) -> u64 {
    let snap = reg.snapshot();
    snap.deterministic
        .counters
        .iter()
        .filter(|(k, _)| k.split('{').next() == Some(name))
        .map(|(_, v)| v)
        .sum()
}

/// Build stores, fit BST per city (`seed ^ 0x5eed`, the library's fit
/// seed), materialize derived columns and render every artifact, over
/// `workers` threads, then hash the artifact files. The fit counters are
/// read from an enabled registry only when `count_fit` is set.
pub fn fit_and_render(
    cities: Vec<(CityConfig, Campaigns)>,
    seed: u64,
    workers: usize,
    count_fit: bool,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Rendered {
    let city_workers = workers.clamp(1, cities.len().max(1));
    let stage = tracer.span("bench.fit_stage", parent);
    let fitted = fan_out(cities, city_workers, |_, (config, campaigns)| {
        let (ookla, mlab, mba) = match campaigns {
            Campaigns::Records(o, m, b) => {
                let span = tracer.span("speedtest.store", stage.id());
                let stores = (
                    SegmentedStore::from_measurements(&o),
                    SegmentedStore::from_measurements(&m),
                    SegmentedStore::from_measurements(&b),
                );
                span.end();
                stores
            }
            Campaigns::Stores(stores) => {
                let [o, m, b] = *stores;
                (o, m, b)
            }
        };
        let reg = if count_fit { Registry::new() } else { Registry::disabled() };
        let span = tracer.span("analysis.fit", stage.id());
        let analysis = CityAnalysis::from_stores(config, ookla, mlab, mba, seed ^ 0x5eed, &reg);
        span.end();
        let counts = (
            counter_total(&reg, "bst.em_iterations_total"),
            counter_total(&reg, "bst.kde_grid_evals"),
        );
        (analysis, counts)
    });
    stage.end();
    let (analyses, counts): (Vec<CityAnalysis>, Vec<(u64, u64)>) = fitted.into_iter().unzip();

    let stage = tracer.span("bench.derive_stage", parent);
    let stores: Vec<&SegmentedStore> =
        analyses.iter().flat_map(|a| [&a.ookla, &a.mlab, &a.mba]).collect();
    fan_out(stores, workers, |_, store| {
        let span = tracer.span("speedtest.derive", stage.id());
        store.materialize_derived();
        span.end();
    });
    stage.end();

    let analyses = Arc::new(analyses);
    let span = tracer.span("bench.render", parent);
    let report = run_all_par(&analyses, SCALE, seed, workers, StageTimings::default());
    span.end();
    let span = tracer.span("bench.hash", parent);
    let (hash, files) = artifact_hash(&report.artifacts);
    let bytes = report
        .artifacts
        .iter()
        .map(|a| (a.json.len() + a.svg.as_ref().map_or(0, String::len)) as u64)
        .sum();
    span.end();
    Rendered {
        analyses,
        hash,
        files,
        bytes,
        jobs: report.health.jobs_total,
        jobs_failed: report.health.jobs_failed,
        em_iterations: counts.iter().map(|c| c.0).sum(),
        kde_grid_evals: counts.iter().map(|c| c.1).sum(),
    }
}

/// Correctness bookkeeping of one run: every check and operation is one
/// attempt; anything that failed is counted and described.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Whether an output was wrong (as opposed to an operation that
    /// failed, such as a query that timed out).
    pub incorrect: bool,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count a correctness check; a failed one is described and marks
    /// the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.incorrect = true;
            self.failures.push(what());
        }
    }

    /// Check one pass's artifacts: no degraded render job, the pinned
    /// hash at the default seed, and the same hash as every earlier pass
    /// of this run (`first` holds the run's first hash).
    pub fn artifacts(&mut self, r: &Rendered, seed: u64, first: &mut Option<(u64, usize)>) {
        self.attempted += r.jobs as u64;
        self.failed += r.jobs_failed as u64;
        if r.jobs_failed > 0 {
            self.incorrect = true;
            self.failures.push(format!("{} render jobs degraded", r.jobs_failed));
        }
        let got = (r.hash, r.files);
        if seed == DEFAULT_SEED {
            self.check(got == (PINNED_HASH, PINNED_FILES), || {
                format!(
                    "artifact hash {:016x} over {} files, pinned {PINNED_HASH:016x} over {PINNED_FILES}",
                    got.0, got.1
                )
            });
        }
        let want = *first.get_or_insert(got);
        self.check(got == want, || {
            format!(
                "pass hashed {:016x}/{} but the run's first pass {:016x}/{}",
                got.0, got.1, want.0, want.1
            )
        });
    }

    /// Check the shape claims on `analyses`: all of them must be
    /// evaluated, and at [`DEFAULT_SEED`] all must hold, as the
    /// repository's own claims test asserts. At other seeds a claim that
    /// does not hold is reported but not failed: the claims are
    /// statistical, and at this scale `fig13-max-gap` leaves its band on
    /// some seeds (3.25x at seed 4, upper bound 3.0) with every output
    /// still correct.
    pub fn claims(&mut self, analyses: &[CityAnalysis], seed: u64) {
        let claims = st_bench::claims::check_all(analyses);
        self.check(claims.len() == CLAIMS, || {
            format!("{} claims evaluated, want {CLAIMS}", claims.len())
        });
        for c in claims {
            if seed == DEFAULT_SEED {
                self.check(c.holds, || format!("claim {} does not hold: {}", c.id, c.measured));
            } else if !c.holds {
                eprintln!("perfbench: claim {} does not hold at seed {seed}: {}", c.id, c.measured);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_keeps_item_order_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 5, 64] {
            let out = fan_out(items.clone(), workers, |i, x| (i as u64) * 1000 + x * x);
            let want: Vec<u64> = (0..37).map(|x| x * 1000 + x * x).collect();
            assert_eq!(out, want, "workers {workers}");
        }
        assert!(fan_out(Vec::<u8>::new(), 2, |_, x| x).is_empty());
    }

    #[test]
    fn a_failed_check_is_counted_described_and_marks_the_run_wrong() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        assert_eq!((c.attempted, c.failed, c.incorrect), (1, 0, false));
        c.check(false, || "hash differs".into());
        assert_eq!((c.attempted, c.failed, c.incorrect), (2, 1, true));
        assert_eq!(c.failures, vec!["hash differs"]);
    }
}
