//! The warm renderer's per-city memo is exact.
//!
//! `make_warm_renderer` reuses a city's last warm fit while the city's
//! sealed row count per campaign is unchanged within one service
//! (DESIGN.md §18). These tests wrap the memoized renderer and compare
//! every output it gives with a fresh fit over the same input, on a
//! concurrent service replay and on two services sharing one renderer.

use st_analysis::warm::{warm_fit, warm_headlines, warm_tables};
use st_analysis::CityAnalysis;
use st_bench::{make_warm_renderer, run, Feed, RunOptions};
use st_datagen::{City, CityConfig, CityDataset};
use st_obs::Registry;
use st_serve::{ContextService, PartitionSpec, ServeOptions, WarmInput, WarmRenderer};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const SCALE: f64 = 0.004;

type Lines = Vec<(String, String)>;

/// One city's memo key as the renderer sees it: `(service, city,
/// sealed row count per campaign)`.
type Key = (u64, String, Vec<usize>);

/// One warm render: the memo keys of its cities, what the memoized
/// renderer returned, and what a fresh fit returns.
struct Render {
    keys: Vec<Key>,
    memoized: (Lines, Lines),
    fresh: (Lines, Lines),
}

/// The renderer's output computed from scratch: a warm fit of every
/// city in the input, then headlines and tables.
fn fresh(input: &WarmInput, seed: u64) -> (Lines, Lines) {
    let analyses: Vec<CityAnalysis> = input
        .cities
        .iter()
        .filter_map(|wc| {
            let city = City::all().iter().copied().find(|c| c.label() == wc.city)?;
            let stream = |name: &str| {
                wc.campaigns.iter().find(|(c, _)| c == name).map_or(&[][..], |(_, r)| r.as_slice())
            };
            Some(warm_fit(
                CityConfig::at_scale(city, SCALE),
                stream("ookla"),
                stream("mlab"),
                stream("mba"),
                seed ^ 0x5eed,
            ))
        })
        .collect();
    let refs: Vec<&CityAnalysis> = analyses.iter().collect();
    (warm_headlines(&refs), warm_tables(&refs))
}

/// Wrap `inner` so every render is logged with its fresh counterpart.
fn checked(inner: WarmRenderer, seed: u64, log: &Arc<Mutex<Vec<Render>>>) -> WarmRenderer {
    let log = Arc::clone(log);
    Arc::new(move |input: &WarmInput| {
        let out = inner(input);
        let keys = input
            .cities
            .iter()
            .map(|c| {
                let counts = c.campaigns.iter().map(|(_, rows)| rows.len()).collect();
                (input.service, c.city.clone(), counts)
            })
            .collect();
        let render = Render {
            keys,
            memoized: (out.headlines.clone(), out.tables.clone()),
            fresh: fresh(input, seed),
        };
        log.lock().unwrap().push(render);
        out
    })
}

fn assert_all_fresh(log: &[Render]) {
    for (i, r) in log.iter().enumerate() {
        assert_eq!(r.memoized, r.fresh, "render {i} ({:?}) differs from a fresh fit", r.keys);
    }
}

#[test]
fn memoized_renders_equal_fresh_fits_on_a_concurrent_replay() {
    let seed = 2024;
    let log = Arc::new(Mutex::new(Vec::new()));
    let warm = checked(make_warm_renderer(SCALE, seed), seed, &log);
    let specs = City::all().iter().map(|c| PartitionSpec::city(c.label())).collect();
    let opts = ServeOptions { seal_rows: 300, epoch_rows: 400, warm: Some(warm) };
    let service = ContextService::new(specs, opts, Registry::new());
    let feed = Feed::Service { service: &service, chunk_rows: 150 };
    run(&RunOptions::new(SCALE, seed, 2), feed, &Registry::disabled()).expect("replay succeeds");

    let log = log.lock().unwrap();
    assert!(log.len() >= 5, "only {} warm renders", log.len());
    assert_all_fresh(&log);
    // Some city was rendered twice with the same sealed counts, so the
    // memo's hit path was exercised.
    let mut seen = HashSet::new();
    let repeats = log.iter().flat_map(|r| &r.keys).filter(|k| !seen.insert(*k)).count();
    assert!(repeats > 0, "no city repeated its sealed counts: the memo never hit");
}

#[test]
fn services_sharing_one_renderer_get_their_own_fits() {
    // Two services, two seeds' City-A records, one renderer, the same
    // plan, fed in lockstep: each render of one service follows the
    // other's render of the same epoch, usually at the same sealed
    // counts, so a memo keyed without the service id would hand one
    // service the other's fit.
    let seeds = [5u64, 6];
    let log = Arc::new(Mutex::new(Vec::new()));
    let inner = make_warm_renderer(SCALE, seeds[0]);
    let services: Vec<ContextService> = seeds
        .iter()
        .map(|_| {
            let opts = ServeOptions {
                seal_rows: 200,
                epoch_rows: 200,
                warm: Some(checked(Arc::clone(&inner), seeds[0], &log)),
            };
            ContextService::new(vec![PartitionSpec::city("City-A")], opts, Registry::new())
        })
        .collect();
    let records: Vec<_> =
        seeds.iter().map(|&s| CityDataset::generate(City::A, SCALE, s).ookla).collect();
    let rows = records.iter().map(Vec::len).min().unwrap();
    for start in (0..rows).step_by(200) {
        for (service, ookla) in services.iter().zip(&records) {
            let chunk = ookla[start..(start + 200).min(rows)].to_vec();
            service.ingest_chunk("City-A", "ookla", chunk).expect("chunk accepted");
        }
    }

    let log = log.lock().unwrap();
    assert_all_fresh(&log);
    // The two services collided on (city, sealed counts) with different
    // fits, so the test would catch a memo that ignores the service id.
    let collisions = log.windows(2).filter(|w| {
        let ((sa, ca, na), (sb, cb, nb)) = (&w[0].keys[0], &w[1].keys[0]);
        sa != sb && (ca, na) == (cb, nb) && w[0].fresh != w[1].fresh
    });
    assert!(collisions.count() > 0, "the two services never rendered the same sealed counts");
}
