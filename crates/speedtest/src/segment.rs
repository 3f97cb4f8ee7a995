//! Segmented campaign store: sealed immutable segments + a mutable tail.
//!
//! A [`SegmentedStore`] is the one store behind repro, chunked ingest and
//! the live service. Each sealed segment is a write-once
//! columnar block with its own memoized derived columns and write-once
//! assigned columns (the crate-private `CampaignStore`), while the
//! **mutable tail** buffers appended measurement chunks, sanitizes them
//! incrementally (one seen-id set threaded across chunks so cross-chunk
//! duplicates classify exactly as a batch pass would), and seals
//! deterministically.
//!
//! ## Seal determinism
//!
//! A segment seals when the tail reaches `seal_rows` accepted rows, and
//! the remainder seals on [`SegmentedStore::freeze`]. Sealing consumes
//! *exactly* `seal_rows` rows at a time, so segment boundaries are a
//! pure function of the accepted-row sequence and `seal_rows` — never
//! of chunk sizes, wall-clock, or thread scheduling. Since sanitize is
//! a pure function of record order and appends never reorder a store's
//! own stream, the accepted-row sequence itself is chunking-invariant:
//! any chunking of the same stream yields byte-identical segment
//! contents.
//!
//! ## Reading across segments
//!
//! Column getters return [`FragCol`]s chaining the per-segment slices;
//! selections return [`FragSelection`]s composing the per-segment
//! memoized [`st_dataframe::Selection`]s. A store whose seal threshold
//! covers its whole campaign (the `repro` plan) or one wrapped by
//! [`SegmentedStore::from_measurements`] has exactly one segment, so
//! every view is a single borrowed fragment and an identity
//! `gather_view` borrows the column without copying.

use std::borrow::Cow;
use std::collections::HashSet;

use st_dataframe::{FragCol, FragSelection};

use crate::plans::PlanCatalog;
use crate::record::{Access, Measurement, Platform};
use crate::sanitize::{sanitize_with_seen, SanitizeReport};
use crate::store::{CampaignStore, StoreError};

/// Default accepted-row count at which the tail seals into a segment.
pub const DEFAULT_SEAL_ROWS: usize = 8192;

/// Per-chunk ingest outcome counts returned by
/// [`SegmentedStore::append_chunk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Records offered in this chunk.
    pub rows_in: usize,
    /// Records accepted unchanged.
    pub clean: u64,
    /// Records accepted after normalization.
    pub repaired: u64,
    /// Records dropped by the quarantine.
    pub quarantined: u64,
    /// Segments sealed while absorbing this chunk.
    pub segments_sealed: usize,
}

/// A measurement campaign as sealed immutable segments plus a mutable
/// tail; the one storage engine behind repro, chunked ingest and the
/// live service.
pub struct SegmentedStore {
    segments: Vec<CampaignStore>,
    tail: Vec<Measurement>,
    seen: HashSet<u64>,
    report: SanitizeReport,
    seal_rows: usize,
    chunks: u64,
    frozen: bool,
}

impl SegmentedStore {
    /// An empty store accepting appended chunks; the tail seals into a
    /// segment every `seal_rows` accepted rows (and on
    /// [`SegmentedStore::freeze`]).
    pub fn builder(seal_rows: usize) -> Self {
        assert!(seal_rows > 0, "seal threshold must be positive");
        SegmentedStore {
            segments: Vec::new(),
            tail: Vec::new(),
            seen: HashSet::new(),
            report: SanitizeReport::default(),
            seal_rows,
            chunks: 0,
            frozen: false,
        }
    }

    /// Wrap one already-sanitized campaign as a single sealed segment,
    /// for callers that hold clean rows outside the pipeline's feeds
    /// (warm fits, test oracles). No sanitize runs here, and with exactly
    /// one segment every column view borrows one contiguous slice.
    pub fn from_measurements(ms: &[Measurement]) -> Self {
        SegmentedStore {
            segments: vec![CampaignStore::from_measurements(ms)],
            tail: Vec::new(),
            seen: HashSet::new(),
            report: SanitizeReport::default(),
            seal_rows: DEFAULT_SEAL_ROWS,
            chunks: 0,
            frozen: true,
        }
    }

    // ---- ingest ---------------------------------------------------------

    /// Append one arrival chunk: sanitize it incrementally (duplicate
    /// detection spans chunks), buffer the accepted rows in the tail,
    /// and seal full segments of exactly `seal_rows` rows as the tail
    /// fills. Errors with [`StoreError::Frozen`] after
    /// [`SegmentedStore::freeze`].
    pub fn append_chunk(&mut self, records: Vec<Measurement>) -> Result<ChunkStats, StoreError> {
        if self.frozen {
            return Err(StoreError::Frozen);
        }
        let rows_in = records.len();
        let (kept, report) = sanitize_with_seen(records, &mut self.seen);
        let stats = ChunkStats {
            rows_in,
            clean: report.clean,
            repaired: report.repaired,
            quarantined: report.quarantined,
            segments_sealed: 0,
        };
        self.report.merge(&report);
        if self.tail.is_empty() {
            self.tail = kept;
        } else {
            self.tail.extend(kept);
        }
        let mut sealed = 0;
        while self.tail.len() >= self.seal_rows {
            let rest = self.tail.split_off(self.seal_rows);
            let full: Vec<Measurement> = std::mem::replace(&mut self.tail, rest);
            self.segments.push(CampaignStore::from_measurements(&full));
            sealed += 1;
        }
        self.chunks += 1;
        Ok(ChunkStats { segments_sealed: sealed, ..stats })
    }

    /// Seal the remaining tail (an empty segment if the store never saw
    /// an accepted row, so downstream code always has ≥ 1 segment) and
    /// reject any further appends.
    ///
    /// Freezing is a one-shot lifecycle transition: a second call
    /// returns [`StoreError::Frozen`] instead of silently succeeding,
    /// so a serve/ingest coordinator that freezes the same partition
    /// twice learns about its bookkeeping bug instead of masking it.
    pub fn freeze(&mut self) -> Result<(), StoreError> {
        if self.frozen {
            return Err(StoreError::Frozen);
        }
        if !self.tail.is_empty() || self.segments.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            self.segments.push(CampaignStore::from_measurements(&tail));
        }
        // Duplicate detection ends with the last append.
        self.seen = HashSet::new();
        self.frozen = true;
        Ok(())
    }

    /// Rows accepted by the sanitizer so far: sealed plus still-buffered
    /// tail rows. This is the quantity epoch boundaries are a pure
    /// function of (DESIGN.md §18) — chunk sizes and interleave never
    /// feed into it.
    pub fn accepted_rows(&self) -> usize {
        self.len() + self.tail.len()
    }

    /// Reconstruct the accepted rows of every **sealed** segment, in
    /// seal order. Tail rows are excluded (they are not readable until
    /// sealed), so the result is a pure function of the accepted-row
    /// sequence and the seal threshold — the input a warm analysis
    /// rebuild (st-serve epoch publishing) consumes.
    pub fn sealed_measurements(&self) -> Vec<Measurement> {
        let mut rows = Vec::with_capacity(self.len());
        for seg in &self.segments {
            for i in 0..seg.len() {
                let mem = seg.kernel_memory_gb[i];
                rows.push(Measurement {
                    id: seg.id[i],
                    user_id: seg.user_id[i],
                    platform: seg.platform[i],
                    city: seg.city[i],
                    day: seg.day[i],
                    hour: seg.hour[i],
                    down_mbps: seg.down[i],
                    up_mbps: seg.up[i],
                    rtt_ms: seg.rtt[i],
                    loaded_rtt_ms: seg.loaded_rtt[i],
                    access: seg.access[i],
                    kernel_memory_gb: (!mem.is_nan()).then_some(mem),
                    truth_tier: seg.truth_tier[i],
                });
            }
        }
        rows
    }

    /// Cumulative sanitize report over every appended chunk (empty for
    /// stores wrapped by [`SegmentedStore::from_measurements`]).
    pub fn report(&self) -> &SanitizeReport {
        &self.report
    }

    /// Chunks appended so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Sealed segments so far (the tail is not a segment until sealed).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Accepted rows still buffered in the mutable tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Whether [`SegmentedStore::freeze`] has run.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    // ---- segmented column views -----------------------------------------

    /// Total rows across sealed segments (tail rows are not readable
    /// until sealed).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when no sealed segment has any rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn seg_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.len()).collect()
    }

    fn frag_col<'a, T>(&'a self, f: impl Fn(&'a CampaignStore) -> &'a [T]) -> FragCol<'a, T> {
        FragCol::new(self.segments.iter().map(f).collect())
    }

    /// Test ids.
    pub fn id(&self) -> FragCol<'_, u64> {
        self.frag_col(|s| &s.id)
    }

    /// Per-user ids.
    pub fn user_id(&self) -> FragCol<'_, u64> {
        self.frag_col(|s| &s.user_id)
    }

    /// Platform per row.
    pub fn platform(&self) -> FragCol<'_, Platform> {
        self.frag_col(|s| &s.platform)
    }

    /// City index per row.
    pub fn city(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| &s.city)
    }

    /// Day of year per row.
    pub fn day(&self) -> FragCol<'_, u16> {
        self.frag_col(|s| &s.day)
    }

    /// Local hour per row.
    pub fn hour(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| &s.hour)
    }

    /// Download speeds, Mbps.
    pub fn down(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| &s.down)
    }

    /// Upload speeds, Mbps.
    pub fn up(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| &s.up)
    }

    /// Idle round-trip times, ms.
    pub fn rtt(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| &s.rtt)
    }

    /// Loaded round-trip times, ms.
    pub fn loaded_rtt(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| &s.loaded_rtt)
    }

    /// Access medium per row.
    pub fn access(&self) -> FragCol<'_, Access> {
        self.frag_col(|s| &s.access)
    }

    /// Kernel memory, GB (NaN when the platform reported none).
    pub fn kernel_memory_gb(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| &s.kernel_memory_gb)
    }

    /// Ground-truth tier per row (generator-known; evaluation only).
    pub fn truth_tier(&self) -> FragCol<'_, Option<usize>> {
        self.frag_col(|s| &s.truth_tier)
    }

    // ---- derived columns (per-segment memoized) --------------------------

    /// Six-hour time-of-day bin per row (0..4).
    pub fn time_bin(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| s.time_bin())
    }

    /// Month index per row (0..12).
    pub fn month(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| s.month())
    }

    /// Access class per row (see [`crate::store::ACCESS_WIFI`] etc.).
    pub fn access_class(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| s.access_class())
    }

    /// WiFi band per row (see [`crate::store::BAND_2_4`] etc.).
    pub fn wifi_band(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| s.wifi_band())
    }

    /// WiFi RSSI per row, dBm (NaN for non-WiFi rows).
    pub fn rssi_dbm(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| s.rssi_dbm())
    }

    /// Memory-class code per row (see [`crate::store::memory_code`]).
    pub fn memory_class(&self) -> FragCol<'_, u8> {
        self.frag_col(|s| s.memory_class())
    }

    /// Selection of this platform's rows, composed from each segment's
    /// memoized per-platform selection (borrowed, not copied).
    pub fn platform_sel(&self, platform: Platform) -> FragSelection<'_> {
        let parts = self.segments.iter().map(|s| Cow::Borrowed(s.platform_sel(platform))).collect();
        FragSelection::from_parts(parts, &self.seg_lens())
    }

    /// Selection of native-app rows (platforms with device metadata),
    /// composed from each segment's memoized selection.
    pub fn native_sel(&self) -> FragSelection<'_> {
        let parts = self.segments.iter().map(|s| Cow::Borrowed(s.native_sel())).collect();
        FragSelection::from_parts(parts, &self.seg_lens())
    }

    /// Evaluate `pred` over global row indices, one owned selection part
    /// per segment (the segmented `Selection::from_pred`).
    pub fn from_pred(&self, pred: impl FnMut(usize) -> bool) -> FragSelection<'_> {
        FragSelection::from_pred(&self.seg_lens(), pred)
    }

    /// Force every segment's lazy derived columns.
    pub fn materialize_derived(&self) {
        for s in &self.segments {
            s.materialize_derived();
        }
    }

    /// Derived column families built so far, summed over segments.
    pub fn derived_builds(&self) -> usize {
        self.segments.iter().map(|s| s.derived_builds()).sum()
    }

    /// Record the store's shape into a metrics registry under `labels`,
    /// segment by segment in seal order (so `store.rows` totals match
    /// the monolithic store for any chunking).
    pub fn observe(&self, reg: &st_obs::Registry, labels: &[(&str, &str)]) {
        for s in &self.segments {
            s.observe(reg, labels);
        }
    }

    // ---- assigned columns -----------------------------------------------

    /// Scatter BST fit outputs onto the store: the global `tier` /
    /// `upload_cap_idx` columns are split at segment boundaries and
    /// scattered per segment (scattering is row-local, so this equals
    /// the monolithic scatter for any segmentation). Errors with
    /// [`StoreError::NotFrozen`] before [`SegmentedStore::freeze`],
    /// [`StoreError::LengthMismatch`] when a column does not cover every
    /// row, and [`StoreError::AssignmentsAlreadySet`] on re-scatter; the
    /// length checks run before any segment mutates.
    pub fn set_assignments(
        &self,
        tier: Vec<Option<usize>>,
        upload_cap_idx: Vec<i32>,
        catalog: &PlanCatalog,
    ) -> Result<(), StoreError> {
        if !self.frozen {
            return Err(StoreError::NotFrozen);
        }
        if tier.len() != self.len() {
            return Err(StoreError::LengthMismatch {
                column: "tier",
                expected: self.len(),
                got: tier.len(),
            });
        }
        if upload_cap_idx.len() != self.len() {
            return Err(StoreError::LengthMismatch {
                column: "upload_cap_idx",
                expected: self.len(),
                got: upload_cap_idx.len(),
            });
        }
        let mut off = 0;
        for s in &self.segments {
            let end = off + s.len();
            s.set_assignments(tier[off..end].to_vec(), upload_cap_idx[off..end].to_vec(), catalog)?;
            off = end;
        }
        Ok(())
    }

    /// Whether assignments have been scattered onto every segment.
    pub fn has_assignments(&self) -> bool {
        !self.segments.is_empty() && self.segments.iter().all(|s| s.has_assignments())
    }

    /// Assigned subscription tier per row.
    pub fn assigned_tier(&self) -> FragCol<'_, Option<usize>> {
        self.frag_col(|s| s.assigned().tier.as_slice())
    }

    /// Matched upload-cap index per row (-1 when unmatched).
    pub fn upload_cap_idx(&self) -> FragCol<'_, i32> {
        self.frag_col(|s| s.assigned().upload_cap_idx.as_slice())
    }

    /// Tier-group index per row (-1 when unassigned).
    pub fn group_idx(&self) -> FragCol<'_, i32> {
        self.frag_col(|s| s.assigned().group_idx.as_slice())
    }

    /// Advertised plan download speed per row (NaN when unassigned).
    pub fn plan_down_col(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| s.assigned().plan_down.as_slice())
    }

    /// Plan-normalized download per row (NaN when unassigned).
    pub fn normalized_down(&self) -> FragCol<'_, f64> {
        self.frag_col(|s| s.assigned().normalized_down.as_slice())
    }

    /// Number of tier groups the assignments were scattered against.
    pub fn n_groups(&self) -> usize {
        self.segments.first().map(|s| s.assigned().group_sels.len()).unwrap_or(0)
    }

    /// Number of upload caps the assignments were scattered against.
    pub fn n_caps(&self) -> usize {
        self.segments.first().map(|s| s.assigned().cap_sels.len()).unwrap_or(0)
    }

    /// Selection of rows in tier group `gi`, composed from each
    /// segment's memoized group selection.
    pub fn group_sel(&self, gi: usize) -> FragSelection<'_> {
        let parts =
            self.segments.iter().map(|s| Cow::Borrowed(&s.assigned().group_sels[gi])).collect();
        FragSelection::from_parts(parts, &self.seg_lens())
    }

    /// Selection of rows matched to upload cap `ci`, composed from each
    /// segment's memoized cap selection.
    pub fn cap_sel(&self, ci: usize) -> FragSelection<'_> {
        let parts =
            self.segments.iter().map(|s| Cow::Borrowed(&s.assigned().cap_sels[ci])).collect();
        FragSelection::from_parts(parts, &self.seg_lens())
    }

    /// Count rows per upload cap within `sel`: each segment counts its
    /// own part, and the per-cap counts sum across segments.
    pub fn cap_counts(&self, sel: &FragSelection<'_>) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_caps()];
        for (k, s) in self.segments.iter().enumerate() {
            for (c, n) in counts.iter_mut().zip(s.cap_counts(sel.part(k))) {
                *c += n;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Platform;
    use crate::sanitize::sanitize;
    use st_dataframe::ColumnView;
    use st_netsim::Band;

    fn m(id: u64) -> Measurement {
        Measurement {
            id,
            user_id: id % 5,
            platform: match id % 3 {
                0 => Platform::AndroidApp,
                1 => Platform::Web,
                _ => Platform::IosApp,
            },
            city: 0,
            day: (id % 365) as u16,
            hour: (id % 24) as u8,
            down_mbps: 10.0 + id as f64,
            up_mbps: 1.0 + (id % 7) as f64,
            rtt_ms: 12.0,
            loaded_rtt_ms: 15.0,
            access: Access::Wifi { band: Band::G5, rssi_dbm: -50.0 },
            kernel_memory_gb: Some(4.0),
            truth_tier: None,
        }
    }

    fn dirty_stream(n: u64) -> Vec<Measurement> {
        let mut out = Vec::new();
        for id in 0..n {
            let mut r = m(id);
            match id % 11 {
                3 => r.down_mbps = f64::NAN,
                5 => r.day = 400,
                7 => r.rtt_ms = 0.0,
                _ => {}
            }
            out.push(r);
            if id % 13 == 0 && id > 0 {
                out.push(m(id - 1)); // duplicate of the previous id
            }
        }
        out
    }

    fn ingest(stream: &[Measurement], chunk: usize, seal: usize) -> SegmentedStore {
        let mut store = SegmentedStore::builder(seal);
        for c in stream.chunks(chunk) {
            store.append_chunk(c.to_vec()).unwrap();
        }
        store.freeze().unwrap();
        store
    }

    #[test]
    fn seal_boundaries_are_a_pure_function_of_accepted_rows() {
        let stream = dirty_stream(100);
        let a = ingest(&stream, 7, 16);
        let b = ingest(&stream, 33, 16);
        assert_eq!(a.num_segments(), b.num_segments(), "boundaries independent of chunk size");
        for (x, y) in a.segments.iter().zip(&b.segments) {
            assert_eq!(x.id, y.id);
        }
        // Every non-final segment holds exactly seal_rows rows.
        for s in &a.segments[..a.num_segments() - 1] {
            assert_eq!(s.len(), 16);
        }
    }

    #[test]
    fn chunked_ingest_matches_monolithic_store() {
        let stream = dirty_stream(80);
        let (kept, batch_report) = sanitize(stream.clone());
        let mono = SegmentedStore::from_measurements(&kept);
        for (chunk, seal) in [(1, 7), (9, 7), (80, 7), (5, 1000)] {
            let seg = ingest(&stream, chunk, seal);
            assert_eq!(seg.len(), mono.len());
            assert_eq!(seg.report(), &batch_report, "chunk {chunk} seal {seal}");
            assert_eq!(seg.id().to_vec(), mono.id().to_vec());
            assert_eq!(seg.down().to_vec(), mono.down().to_vec());
            assert_eq!(seg.time_bin().to_vec(), mono.time_bin().to_vec());
            assert_eq!(seg.month().to_vec(), mono.month().to_vec());
            assert_eq!(seg.memory_class().to_vec(), mono.memory_class().to_vec());
            let sel: Vec<usize> = seg.platform_sel(Platform::AndroidApp).iter().collect();
            let mono_sel: Vec<usize> = mono.platform_sel(Platform::AndroidApp).iter().collect();
            assert_eq!(sel, mono_sel);
        }
    }

    #[test]
    fn append_after_freeze_is_rejected() {
        let mut store = SegmentedStore::builder(8);
        store.append_chunk(vec![m(1)]).unwrap();
        store.freeze().unwrap();
        assert_eq!(store.append_chunk(vec![m(2)]), Err(StoreError::Frozen));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn freeze_always_leaves_a_segment_and_is_one_shot() {
        let mut empty = SegmentedStore::builder(8);
        empty.freeze().unwrap();
        assert_eq!(empty.num_segments(), 1);
        assert!(empty.is_empty());
        // A second freeze is a lifecycle bug, not a no-op.
        assert_eq!(empty.freeze(), Err(StoreError::Frozen));
        assert_eq!(empty.num_segments(), 1);
        // Batch-wrapped stores are born frozen, so freezing them again
        // reports the same typed error.
        let batch = SegmentedStore::from_measurements(&[]);
        assert!(batch.is_frozen());
    }

    #[test]
    fn accepted_rows_and_sealed_measurements_track_the_accepted_stream() {
        let stream = dirty_stream(60);
        let (kept, _) = sanitize(stream.clone());

        let mut store = SegmentedStore::builder(16);
        for c in stream.chunks(7) {
            store.append_chunk(c.to_vec()).unwrap();
        }
        assert_eq!(store.accepted_rows(), kept.len());
        assert_eq!(store.accepted_rows(), store.len() + store.tail_len());
        // Sealed reconstruction is exactly the accepted prefix that has
        // been sealed so far.
        assert_eq!(store.sealed_measurements(), kept[..store.len()].to_vec());

        store.freeze().unwrap();
        assert_eq!(store.accepted_rows(), kept.len());
        assert_eq!(store.sealed_measurements(), kept, "frozen store reconstructs every row");
    }

    #[test]
    fn chunk_stats_count_outcomes_and_seals() {
        let mut store = SegmentedStore::builder(4);
        let mut records: Vec<Measurement> = (0..6).map(m).collect();
        records[2].down_mbps = f64::NAN;
        let stats = store.append_chunk(records).unwrap();
        assert_eq!(stats.rows_in, 6);
        assert_eq!(stats.clean, 5);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.segments_sealed, 1, "5 accepted rows seal one segment of 4");
        assert_eq!(store.tail_len(), 1);
        assert_eq!(store.chunks(), 1);
    }

    #[test]
    fn assignments_require_freeze_and_split_per_segment() {
        let stream: Vec<Measurement> = (0..20).map(m).collect();
        let catalog = PlanCatalog::new("Test-ISP", &[(50.0, 5.0), (100.0, 10.0)]);
        let mut store = SegmentedStore::builder(6);
        store.append_chunk(stream.clone()).unwrap();
        let tiers: Vec<Option<usize>> =
            (0..20).map(|i| if i % 2 == 0 { Some(1) } else { None }).collect();
        let caps: Vec<i32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { -1 }).collect();
        assert_eq!(
            store.set_assignments(tiers.clone(), caps.clone(), &catalog),
            Err(StoreError::NotFrozen)
        );
        store.freeze().unwrap();
        assert_eq!(store.num_segments(), 4);
        store.set_assignments(tiers.clone(), caps.clone(), &catalog).unwrap();
        assert!(store.has_assignments());
        assert_eq!(
            store.set_assignments(tiers.clone(), caps.clone(), &catalog),
            Err(StoreError::AssignmentsAlreadySet)
        );
        // Per-segment scatter equals the monolithic scatter.
        let mono = SegmentedStore::from_measurements(&stream);
        mono.set_assignments(tiers, caps, &catalog).unwrap();
        assert_eq!(store.group_idx().to_vec(), mono.group_idx().to_vec());
        let bits: Vec<u64> = store.normalized_down().iter().map(|v| v.to_bits()).collect();
        let mono_bits: Vec<u64> = mono.normalized_down().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, mono_bits, "normalized_down bit-identical incl. NaN rows");
        let all = store.from_pred(|_| true);
        assert_eq!(store.cap_counts(&all), mono.cap_counts(&mono.from_pred(|_| true)));
        let g0: Vec<usize> = store.group_sel(0).iter().collect();
        let mono_g0: Vec<usize> = mono.group_sel(0).iter().collect();
        assert_eq!(g0, mono_g0);
    }

    #[test]
    fn single_segment_views_borrow_the_column() {
        let stream: Vec<Measurement> = (0..10).map(m).collect();
        let seg = SegmentedStore::from_measurements(&stream);
        let stored = seg.segments[0].down.as_ptr();
        let all = seg.from_pred(|_| true);
        for view in [seg.down().view(), all.gather_view(&seg.down())] {
            assert!(matches!(view, ColumnView::Borrowed(_)), "batch view must not copy");
            assert!(std::ptr::eq(view.as_ptr(), stored));
        }
    }
}
