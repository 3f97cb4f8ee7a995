//! Property tests for the segmented store: any chunking of any record
//! stream is indistinguishable from the monolithic batch path
//! (DESIGN.md §17).
//!
//! The invariants under test:
//!
//! * the incremental sanitizer (one seen-id set threaded across chunks)
//!   classifies exactly as one batch pass would — duplicate detection
//!   included, across chunk boundaries;
//! * segment boundaries are a pure function of the accepted-row
//!   sequence and the seal threshold, never of chunk sizes;
//! * segmented base columns, derived columns, selections, assigned
//!   columns, and cap counts are bit-identical to the one-segment batch
//!   store for every chunking — 1-row chunks and chunks straddling the
//!   KERNEL_BLOCK (64) and EM_BLOCK (512) boundaries of the blocked
//!   kernels included.

use proptest::prelude::*;
use st_netsim::Band;
use st_speedtest::{sanitize, Access, Measurement, PlanCatalog, Platform, SegmentedStore};

/// A quality value drawn from a pool of pathological and sane numbers,
/// so streams mix clean, repairable, and quarantined records.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![f64::NAN, f64::INFINITY, -5.0, 0.0, 1e9, 900.0, 120.0, 35.0, 0.5])
}

/// A measurement with possibly-corrupt numerics and ids drawn from a
/// small pool, so cross-chunk duplicate submissions occur routinely.
fn measurement_strategy() -> impl Strategy<Value = Measurement> {
    (
        (0u64..600, 0u8..4, value_strategy(), value_strategy()),
        (value_strategy(), 0u16..400, 0u8..25, (0u8..4, 1.0f64..16.0)),
    )
        .prop_map(|((id, plat, down, up), (rtt, day, hour, (mem_known, mem)))| {
            let mem = (mem_known > 0).then_some(mem);
            let platform = match plat {
                0 => Platform::AndroidApp,
                1 => Platform::IosApp,
                2 => Platform::Web,
                _ => Platform::NdtWeb,
            };
            let access = match id % 3 {
                0 => Access::Wifi {
                    band: if id % 2 == 0 { Band::G2_4 } else { Band::G5 },
                    rssi_dbm: -40.0 - (id % 40) as f64,
                },
                1 => Access::Ethernet,
                _ => Access::Unknown,
            };
            Measurement {
                id,
                user_id: id % 17,
                platform,
                city: (id % 4) as u8,
                day,
                hour,
                down_mbps: down,
                up_mbps: up,
                rtt_ms: rtt,
                loaded_rtt_ms: if rtt.is_finite() { rtt * 1.3 } else { rtt },
                access,
                kernel_memory_gb: mem,
                truth_tier: (id % 5 > 0).then_some(1 + (id % 3) as usize),
            }
        })
}

/// Chunk sizes that exercise the interesting boundaries: single rows,
/// straddles of KERNEL_BLOCK = 64, and straddles of EM_BLOCK = 512.
fn chunk_size_strategy() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 5, 17, 63, 64, 65, 127, 511, 512, 513])
}

/// Replay `stream` into a segmented store, cycling through the chunk
/// plan's sizes, then freeze.
fn ingest(stream: &[Measurement], plan: &[usize], seal_rows: usize) -> SegmentedStore {
    let mut store = SegmentedStore::builder(seal_rows);
    let mut rest = stream;
    let mut i = 0;
    while !rest.is_empty() {
        let take = plan[i % plan.len()].min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        store.append_chunk(chunk.to_vec()).expect("stores accept chunks until frozen");
        rest = tail;
        i += 1;
    }
    store.freeze().unwrap();
    store
}

/// The batch reference: one sanitize pass, one single-segment store.
fn monolithic(stream: &[Measurement]) -> (SegmentedStore, st_speedtest::SanitizeReport) {
    let (kept, report) = sanitize(stream.to_vec());
    (SegmentedStore::from_measurements(&kept), report)
}

/// Bit-exact f64 comparison (NaN-tolerant; `==` is not).
fn bits(vals: impl IntoIterator<Item = f64>) -> Vec<u64> {
    vals.into_iter().map(f64::to_bits).collect()
}

/// Assert every base column of `seg` equals `mono`'s, floats bit for
/// bit.
fn assert_same_rows(seg: &SegmentedStore, mono: &SegmentedStore) {
    assert_eq!(seg.id().to_vec(), mono.id().to_vec());
    assert_eq!(seg.user_id().to_vec(), mono.user_id().to_vec());
    assert_eq!(seg.platform().to_vec(), mono.platform().to_vec());
    assert_eq!(seg.city().to_vec(), mono.city().to_vec());
    assert_eq!(seg.day().to_vec(), mono.day().to_vec());
    assert_eq!(seg.hour().to_vec(), mono.hour().to_vec());
    assert_eq!(seg.access().to_vec(), mono.access().to_vec());
    assert_eq!(seg.truth_tier().to_vec(), mono.truth_tier().to_vec());
    for (name, a, b) in [
        ("down", seg.down(), mono.down()),
        ("up", seg.up(), mono.up()),
        ("rtt", seg.rtt(), mono.rtt()),
        ("loaded_rtt", seg.loaded_rtt(), mono.loaded_rtt()),
        ("kernel_memory_gb", seg.kernel_memory_gb(), mono.kernel_memory_gb()),
    ] {
        assert_eq!(bits(a.iter().copied()), bits(b.iter().copied()), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_chunking_matches_the_batch_store(
        stream in prop::collection::vec(measurement_strategy(), 0..300),
        plan in prop::collection::vec(chunk_size_strategy(), 1..4),
        seal_rows in prop::sample::select(vec![1usize, 3, 16, 63, 64, 65, 100, 8192]),
    ) {
        let (mono, batch_report) = monolithic(&stream);
        let seg = ingest(&stream, &plan, seal_rows);

        // The incremental sanitizer classifies exactly as the batch pass.
        prop_assert_eq!(seg.report(), &batch_report);
        prop_assert_eq!(seg.len(), mono.len());

        // Base and derived columns are bit-identical across any chunking.
        assert_same_rows(&seg, &mono);
        prop_assert_eq!(bits(seg.rssi_dbm().iter().copied()), bits(mono.rssi_dbm().iter().copied()));
        prop_assert_eq!(seg.time_bin().to_vec(), mono.time_bin().to_vec());
        prop_assert_eq!(seg.month().to_vec(), mono.month().to_vec());
        prop_assert_eq!(seg.access_class().to_vec(), mono.access_class().to_vec());
        prop_assert_eq!(seg.wifi_band().to_vec(), mono.wifi_band().to_vec());
        prop_assert_eq!(seg.memory_class().to_vec(), mono.memory_class().to_vec());

        // Memoized selections compose to the same global row sets.
        for platform in Platform::all() {
            let s: Vec<usize> = seg.platform_sel(platform).iter().collect();
            let m: Vec<usize> = mono.platform_sel(platform).iter().collect();
            prop_assert_eq!(s, m);
        }
        let native: Vec<usize> = seg.native_sel().iter().collect();
        let mono_native: Vec<usize> = mono.native_sel().iter().collect();
        prop_assert_eq!(native, mono_native);
    }

    #[test]
    fn seal_boundaries_depend_only_on_the_seal_threshold(
        stream in prop::collection::vec(measurement_strategy(), 0..300),
        plan_a in prop::collection::vec(chunk_size_strategy(), 1..4),
        plan_b in prop::collection::vec(chunk_size_strategy(), 1..4),
        seal_rows in prop::sample::select(vec![1usize, 7, 64, 100]),
    ) {
        let a = ingest(&stream, &plan_a, seal_rows);
        let b = ingest(&stream, &plan_b, seal_rows);
        prop_assert_eq!(a.num_segments(), b.num_segments());
        let (ids_a, ids_b) = (a.id(), b.id());
        prop_assert_eq!(ids_a.offsets(), ids_b.offsets());
        prop_assert_eq!(ids_a.fragments(), ids_b.fragments());
        // Every non-final segment holds exactly seal_rows rows, and the
        // count is the pure function ceil(accepted / seal_rows).
        let accepted = a.len();
        let expect = (accepted.div_ceil(seal_rows)).max(1);
        prop_assert_eq!(a.num_segments(), expect);
        prop_assert_eq!(ids_a.fragments().len(), expect);
        for frag in &ids_a.fragments()[..expect - 1] {
            prop_assert_eq!(frag.len(), seal_rows);
        }
    }

    #[test]
    fn assigned_columns_and_cap_counts_match_for_any_chunking(
        stream in prop::collection::vec(measurement_strategy(), 1..300),
        plan in prop::collection::vec(chunk_size_strategy(), 1..4),
        seal_rows in prop::sample::select(vec![1usize, 16, 63, 65, 100]),
    ) {
        let catalog =
            PlanCatalog::new("prop-ISP", &[(50.0, 5.0), (200.0, 10.0), (500.0, 20.0)]);
        let (mono, _) = monolithic(&stream);
        let seg = ingest(&stream, &plan, seal_rows);
        let n = mono.len();

        // A synthetic row-local scatter (what a BST fit produces): the
        // same global columns go to both stores.
        let tiers: Vec<Option<usize>> =
            (0..n).map(|i| (i % 4 != 3).then_some(1 + i % 3)).collect();
        let caps: Vec<i32> = (0..n).map(|i| if i % 4 == 3 { -1 } else { (i % 3) as i32 }).collect();
        mono.set_assignments(tiers.clone(), caps.clone(), &catalog).expect("first scatter");
        seg.set_assignments(tiers, caps, &catalog).expect("first scatter");

        prop_assert_eq!(seg.assigned_tier().to_vec(), mono.assigned_tier().to_vec());
        prop_assert_eq!(seg.group_idx().to_vec(), mono.group_idx().to_vec());
        prop_assert_eq!(seg.upload_cap_idx().to_vec(), mono.upload_cap_idx().to_vec());
        prop_assert_eq!(
            bits(seg.normalized_down().iter().copied()),
            bits(mono.normalized_down().iter().copied())
        );
        prop_assert_eq!(
            bits(seg.plan_down_col().iter().copied()),
            bits(mono.plan_down_col().iter().copied())
        );

        // Cap counts over the identity and per-platform selections.
        let all = seg.from_pred(|_| true);
        prop_assert_eq!(seg.cap_counts(&all), mono.cap_counts(&mono.from_pred(|_| true)));
        for platform in Platform::all() {
            prop_assert_eq!(
                seg.cap_counts(&seg.platform_sel(platform)),
                mono.cap_counts(&mono.platform_sel(platform))
            );
        }
        prop_assert_eq!(seg.n_groups(), mono.n_groups());
        for gi in 0..seg.n_groups() {
            let s: Vec<usize> = seg.group_sel(gi).iter().collect();
            let m: Vec<usize> = mono.group_sel(gi).iter().collect();
            prop_assert_eq!(s, m);
        }
    }
}

/// Deterministic EM_BLOCK straddle: a stream long enough that 512-row
/// blocks split across segments, sealed at sizes around the block edge.
#[test]
fn em_block_straddle_matches_batch() {
    let stream: Vec<Measurement> = (0..1300u64)
        .map(|id| Measurement {
            id,
            user_id: id % 31,
            platform: if id % 2 == 0 { Platform::AndroidApp } else { Platform::Web },
            city: 0,
            day: (id % 365) as u16,
            hour: (id % 24) as u8,
            down_mbps: 5.0 + (id % 97) as f64,
            up_mbps: 1.0 + (id % 13) as f64,
            rtt_ms: 8.0 + (id % 50) as f64,
            loaded_rtt_ms: 12.0 + (id % 50) as f64,
            access: Access::Wifi {
                band: if id % 3 == 0 { Band::G2_4 } else { Band::G5 },
                rssi_dbm: -45.0 - (id % 30) as f64,
            },
            kernel_memory_gb: Some(2.0 + (id % 6) as f64),
            truth_tier: Some(1 + (id % 3) as usize),
        })
        .collect();
    let (mono, report) = monolithic(&stream);
    for (chunk, seal) in [(511, 513), (513, 511), (1, 512), (512, 64)] {
        let seg = ingest(&stream, &[chunk], seal);
        assert_eq!(seg.report(), &report);
        assert_eq!(seg.id().to_vec(), mono.id().to_vec(), "chunk {chunk} seal {seal}");
        assert_eq!(
            bits(seg.rssi_dbm().iter().copied()),
            bits(mono.rssi_dbm().iter().copied()),
            "derived columns diverged at chunk {chunk} seal {seal}"
        );
        assert_same_rows(&seg, &mono);
    }
}
