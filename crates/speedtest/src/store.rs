//! The columnar segment behind [`crate::SegmentedStore`], plus the
//! dense codes its derived columns use.
//!
//! The paper's contextualization analyses are all slices of the same
//! corpus — by platform, tier, access type, WiFi band, hour, and memory
//! (PAPER §4–§6). A `CampaignStore` holds one sealed segment of a
//! campaign as contiguous columns (`f64` / `u8` / small enums) so a
//! figure expresses "Android + WiFi-2.4GHz + tier k" as one predicate
//! pass producing a [`Selection`], then gathers just the column it needs.
//! It is crate-private: analyses read columns through the segmented
//! store's `FragCol` / `FragSelection` views.
//!
//! Three kinds of columns live here:
//!
//! * **Base columns** — copied straight out of the [`Measurement`]s at
//!   construction (`down`, `up`, `hour`, `access`, …).
//! * **Derived columns** — pure functions of base columns (time bin,
//!   month, access class, WiFi band, memory class, per-platform
//!   selections). They are computed lazily on first use and memoized in
//!   `OnceLock`s; because each is a deterministic function of immutable
//!   base columns, materializing them from any thread (or in parallel
//!   across campaigns) yields bit-identical results.
//! * **Assigned columns** — the BST fit outputs (tier, plan cap, tier
//!   group, plan-normalized download) scattered onto the segment exactly
//!   once via `set_assignments` after the models fit.
//!
//! Determinism contract: selections keep row indices ascending, so a
//! gather through a selection visits rows in the same order as the
//! classic `iter().enumerate().filter()` chain — downstream statistics
//! and rendered artifacts stay byte-identical to row-oriented code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use st_dataframe::Selection;
use st_netsim::MemoryClass;

use crate::plans::PlanCatalog;
use crate::record::{Access, Measurement, Platform};

/// Typed error for store mutations that violate a structural invariant.
///
/// Every mutation entry point of [`crate::SegmentedStore`] surfaces one
/// of these variants instead of panicking, so ingest and serve paths can
/// recover from a bad append, freeze or scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// `set_assignments` was called on a store that already has
    /// assignments — they are write-once by design.
    AssignmentsAlreadySet,
    /// A scattered column does not cover every row of the store.
    LengthMismatch {
        /// Which column was the wrong length.
        column: &'static str,
        /// Rows in the store.
        expected: usize,
        /// Rows in the offered column.
        got: usize,
    },
    /// An append was attempted on a store already frozen by
    /// `SegmentedStore::freeze`.
    Frozen,
    /// A read that requires sealed data (assignments, full-column views)
    /// was attempted before `SegmentedStore::freeze`.
    NotFrozen,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::AssignmentsAlreadySet => {
                write!(f, "set_assignments called twice on one store")
            }
            StoreError::LengthMismatch { column, expected, got } => {
                write!(f, "{column} column must cover every row (expected {expected}, got {got})")
            }
            StoreError::Frozen => write!(f, "store is frozen: no further appends accepted"),
            StoreError::NotFrozen => write!(f, "store must be frozen before this operation"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Access-class code: the platform reported no access medium.
pub const ACCESS_UNKNOWN: u8 = 0;
/// Access-class code: WiFi (band/RSSI metadata lives in separate columns).
pub const ACCESS_WIFI: u8 = 1;
/// Access-class code: wired Ethernet.
pub const ACCESS_ETHERNET: u8 = 2;

/// WiFi-band code: not a WiFi measurement.
pub const BAND_NONE: u8 = 0;
/// WiFi-band code: 2.4 GHz.
pub const BAND_2_4: u8 = 1;
/// WiFi-band code: 5 GHz.
pub const BAND_5: u8 = 2;

/// Memory-class code for "platform reported no memory".
pub const MEMORY_NONE: u8 = 0;

/// Number of distinct [`Platform`] variants (including MBA units).
const N_PLATFORMS: usize = 7;

/// Dense code for a platform, used to index per-platform selections.
fn platform_code(p: Platform) -> usize {
    match p {
        Platform::AndroidApp => 0,
        Platform::IosApp => 1,
        Platform::DesktopWifiApp => 2,
        Platform::DesktopEthernetApp => 3,
        Platform::Web => 4,
        Platform::NdtWeb => 5,
        Platform::MbaUnit => 6,
    }
}

/// Dense code for a memory class: `1 + index` in [`MemoryClass::all`]
/// order (so [`MEMORY_NONE`] stays 0 for unreported memory).
pub fn memory_code(class: MemoryClass) -> u8 {
    1 + MemoryClass::all().iter().position(|c| *c == class).expect("class listed in all()") as u8
}

/// BST fit outputs scattered onto the store (one entry per row).
///
/// All vectors are parallel to the base columns. Rows the fit never
/// assigned carry `None` / `-1` / NaN, so every consumer can branch on
/// one column instead of re-deriving "was this row assigned".
pub(crate) struct AssignedColumns {
    /// Assigned subscription tier (1-based into the plan catalog).
    pub(crate) tier: Vec<Option<usize>>,
    /// Index of the matched upload cap in `catalog.upload_caps()`, or -1.
    pub(crate) upload_cap_idx: Vec<i32>,
    /// Index of the tier group containing the assigned tier, or -1.
    pub(crate) group_idx: Vec<i32>,
    /// Advertised download speed of the assigned tier's plan (NaN if
    /// unassigned).
    pub(crate) plan_down: Vec<f64>,
    /// Download normalized by the plan speed, clamped to `[0, 1]`
    /// (NaN if unassigned), as in the paper's figures.
    pub(crate) normalized_down: Vec<f64>,
    /// Memoized selection of rows per tier group (ascending group index).
    pub(crate) group_sels: Vec<Selection>,
    /// Memoized selection of rows per upload cap (ascending cap index).
    pub(crate) cap_sels: Vec<Selection>,
}

/// Lazily built, memoized derived columns (pure functions of the base
/// columns). The `builds` counter counts column-family initializations
/// so tests can assert each family is computed exactly once.
#[derive(Default)]
struct DerivedColumns {
    builds: AtomicUsize,
    time_bin: OnceLock<Vec<u8>>,
    month: OnceLock<Vec<u8>>,
    access_class: OnceLock<Vec<u8>>,
    wifi_band: OnceLock<Vec<u8>>,
    rssi_dbm: OnceLock<Vec<f64>>,
    memory_class: OnceLock<Vec<u8>>,
    platform_sels: OnceLock<Vec<Selection>>,
    native_sel: OnceLock<Selection>,
}

/// One sealed segment of a measurement campaign as typed columns. The
/// segmented store reads the base columns directly.
pub(crate) struct CampaignStore {
    pub(crate) id: Vec<u64>,
    pub(crate) user_id: Vec<u64>,
    pub(crate) platform: Vec<Platform>,
    pub(crate) city: Vec<u8>,
    pub(crate) day: Vec<u16>,
    pub(crate) hour: Vec<u8>,
    pub(crate) down: Vec<f64>,
    pub(crate) up: Vec<f64>,
    pub(crate) rtt: Vec<f64>,
    pub(crate) loaded_rtt: Vec<f64>,
    pub(crate) access: Vec<Access>,
    pub(crate) kernel_memory_gb: Vec<f64>,
    pub(crate) truth_tier: Vec<Option<usize>>,
    derived: DerivedColumns,
    assigned: OnceLock<AssignedColumns>,
}

impl CampaignStore {
    /// Build the base columns from a slice of measurements.
    pub fn from_measurements(ms: &[Measurement]) -> Self {
        let n = ms.len();
        let mut id = Vec::with_capacity(n);
        let mut user_id = Vec::with_capacity(n);
        let mut platform = Vec::with_capacity(n);
        let mut city = Vec::with_capacity(n);
        let mut day = Vec::with_capacity(n);
        let mut hour = Vec::with_capacity(n);
        let mut down = Vec::with_capacity(n);
        let mut up = Vec::with_capacity(n);
        let mut rtt = Vec::with_capacity(n);
        let mut loaded_rtt = Vec::with_capacity(n);
        let mut access = Vec::with_capacity(n);
        let mut kernel_memory_gb = Vec::with_capacity(n);
        let mut truth_tier = Vec::with_capacity(n);
        for m in ms {
            id.push(m.id);
            user_id.push(m.user_id);
            platform.push(m.platform);
            city.push(m.city);
            day.push(m.day);
            hour.push(m.hour);
            down.push(m.down_mbps);
            up.push(m.up_mbps);
            rtt.push(m.rtt_ms);
            loaded_rtt.push(m.loaded_rtt_ms);
            access.push(m.access);
            kernel_memory_gb.push(m.kernel_memory_gb.unwrap_or(f64::NAN));
            truth_tier.push(m.truth_tier);
        }
        CampaignStore {
            id,
            user_id,
            platform,
            city,
            day,
            hour,
            down,
            up,
            rtt,
            loaded_rtt,
            access,
            kernel_memory_gb,
            truth_tier,
            derived: DerivedColumns::default(),
            assigned: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.down.len()
    }

    // ---- derived columns (lazy, memoized) -------------------------------

    /// Six-hour time-of-day bin per row (0..4), as in Figs. 11–12.
    pub fn time_bin(&self) -> &[u8] {
        self.derived.time_bin.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            self.hour.iter().map(|&h| (h % 24) / 6).collect()
        })
    }

    /// Month index per row (0..12), as in the §5.2 consistency analysis.
    pub fn month(&self) -> &[u8] {
        self.derived.month.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            self.day.iter().map(|&d| crate::record::month_of_day(d) as u8).collect()
        })
    }

    /// Access class per row ([`ACCESS_UNKNOWN`] / [`ACCESS_WIFI`] /
    /// [`ACCESS_ETHERNET`]).
    pub fn access_class(&self) -> &[u8] {
        self.derived.access_class.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            self.access
                .iter()
                .map(|a| match a {
                    Access::Wifi { .. } => ACCESS_WIFI,
                    Access::Ethernet => ACCESS_ETHERNET,
                    Access::Unknown => ACCESS_UNKNOWN,
                })
                .collect()
        })
    }

    /// WiFi band per row ([`BAND_NONE`] / [`BAND_2_4`] / [`BAND_5`]).
    pub fn wifi_band(&self) -> &[u8] {
        self.derived.wifi_band.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            self.access
                .iter()
                .map(|a| match a {
                    Access::Wifi { band: st_netsim::Band::G2_4, .. } => BAND_2_4,
                    Access::Wifi { band: st_netsim::Band::G5, .. } => BAND_5,
                    _ => BAND_NONE,
                })
                .collect()
        })
    }

    /// WiFi RSSI per row, dBm (NaN for non-WiFi rows).
    pub fn rssi_dbm(&self) -> &[f64] {
        self.derived.rssi_dbm.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            self.access
                .iter()
                .map(|a| match a {
                    Access::Wifi { rssi_dbm, .. } => *rssi_dbm,
                    _ => f64::NAN,
                })
                .collect()
        })
    }

    /// Memory-class code per row ([`MEMORY_NONE`] when unreported,
    /// otherwise `1 + index` in [`MemoryClass::all`] order; see
    /// [`memory_code`]).
    pub fn memory_class(&self) -> &[u8] {
        self.derived.memory_class.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            self.kernel_memory_gb
                .iter()
                .map(
                    |&gb| {
                        if gb.is_nan() {
                            MEMORY_NONE
                        } else {
                            memory_code(MemoryClass::from_gb(gb))
                        }
                    },
                )
                .collect()
        })
    }

    /// Memoized selection of this platform's rows (ascending row order).
    /// All per-platform selections are built in one pass over the store.
    pub fn platform_sel(&self, platform: Platform) -> &Selection {
        let sels = self.derived.platform_sels.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); N_PLATFORMS];
            for (i, p) in self.platform.iter().enumerate() {
                buckets[platform_code(*p)].push(i as u32);
            }
            buckets.into_iter().map(Selection::from_sorted).collect()
        });
        &sels[platform_code(platform)]
    }

    /// Memoized selection of native-app rows (platforms with device
    /// metadata, i.e. everything but the web portals and MBA units).
    pub fn native_sel(&self) -> &Selection {
        self.derived.native_sel.get_or_init(|| {
            self.derived.builds.fetch_add(1, Ordering::Relaxed);
            Selection::from_pred(self.len(), |i| self.platform[i].has_device_metadata())
        })
    }

    /// Force every lazy derived column, so later figure passes only read.
    /// Safe to call from any thread: each family is a pure function of
    /// the immutable base columns.
    pub fn materialize_derived(&self) {
        self.time_bin();
        self.month();
        self.access_class();
        self.wifi_band();
        self.rssi_dbm();
        self.memory_class();
        self.platform_sel(Platform::Web);
        self.native_sel();
    }

    /// How many derived column families have been built so far (for
    /// memoization tests: each family must be computed exactly once).
    pub fn derived_builds(&self) -> usize {
        self.derived.builds.load(Ordering::Relaxed)
    }

    /// Record the store's shape into a metrics registry under `labels`
    /// (deterministic class, DESIGN.md §13): `store.rows` counts this
    /// store's rows and `store.derived_builds` the derived column
    /// families built so far — the memoization contract says that is at
    /// most one build per family no matter how many readers raced.
    pub fn observe(&self, reg: &st_obs::Registry, labels: &[(&str, &str)]) {
        if !reg.is_enabled() {
            return;
        }
        reg.add("store.rows", labels, self.len() as u64);
        reg.add("store.derived_builds", labels, self.derived_builds() as u64);
    }

    // ---- assigned columns (written once after the BST fit) --------------

    /// Scatter BST fit outputs onto the store. `tier[i]` is the assigned
    /// tier of row `i`; `upload_cap_idx[i]` indexes
    /// `catalog.upload_caps()` (-1 when unmatched). Derives the group
    /// index, plan speed, and normalized download per row plus memoized
    /// per-group and per-cap selections.
    ///
    /// Errors with [`StoreError::AssignmentsAlreadySet`] if called twice
    /// (assignments are write-once by design) and
    /// [`StoreError::LengthMismatch`] when a column does not cover every
    /// row; the store is unchanged on error.
    pub fn set_assignments(
        &self,
        tier: Vec<Option<usize>>,
        upload_cap_idx: Vec<i32>,
        catalog: &PlanCatalog,
    ) -> Result<(), StoreError> {
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
        let groups = catalog.tier_groups();
        let n_caps = catalog.upload_caps().len();
        // Tier -> containing group, precomputed once (tiers are 1-based).
        let tier_group: Vec<i32> = (0..=catalog.len())
            .map(|t| {
                groups.iter().position(|g| g.tiers.contains(&t)).map(|g| g as i32).unwrap_or(-1)
            })
            .collect();

        let mut group_idx = vec![-1i32; self.len()];
        let mut plan_down = vec![f64::NAN; self.len()];
        let mut normalized_down = vec![f64::NAN; self.len()];
        let mut group_rows: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
        let mut cap_rows: Vec<Vec<u32>> = vec![Vec::new(); n_caps];
        for i in 0..self.len() {
            if let Some(t) = tier[i] {
                group_idx[i] = tier_group.get(t).copied().unwrap_or(-1);
                if group_idx[i] >= 0 {
                    group_rows[group_idx[i] as usize].push(i as u32);
                }
                if let Some(plan) = catalog.plan(t) {
                    plan_down[i] = plan.down.0;
                    normalized_down[i] = (self.down[i] / plan.down.0).clamp(0.0, 1.0);
                }
            }
            let c = upload_cap_idx[i];
            if c >= 0 {
                cap_rows[c as usize].push(i as u32);
            }
        }
        let assigned = AssignedColumns {
            tier,
            upload_cap_idx,
            group_idx,
            plan_down,
            normalized_down,
            group_sels: group_rows.into_iter().map(Selection::from_sorted).collect(),
            cap_sels: cap_rows.into_iter().map(Selection::from_sorted).collect(),
        };
        match self.assigned.set(assigned) {
            Ok(()) => Ok(()),
            Err(_) => Err(StoreError::AssignmentsAlreadySet),
        }
    }

    /// The assigned columns. Panics if [`CampaignStore::set_assignments`]
    /// has not run yet — analyses always scatter assignments (possibly
    /// all-`None`) right after fitting.
    pub fn assigned(&self) -> &AssignedColumns {
        self.assigned.get().expect("set_assignments must run before reading assigned columns")
    }

    /// Whether assignments have been scattered yet.
    pub fn has_assignments(&self) -> bool {
        self.assigned.get().is_some()
    }

    /// Count rows per upload cap within `sel`, in one pass (replaces the
    /// per-figure O(n·caps) `members_of` scans of Tables 3–4).
    pub fn cap_counts(&self, sel: &Selection) -> Vec<usize> {
        let caps = &self.assigned().upload_cap_idx;
        let mut counts = vec![0usize; self.assigned().cap_sels.len()];
        for i in sel.iter() {
            if caps[i] >= 0 {
                counts[caps[i] as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_netsim::Band;

    fn m(id: u64, platform: Platform, down: f64, up: f64, access: Access) -> Measurement {
        Measurement {
            id,
            user_id: id % 3,
            platform,
            city: 0,
            day: (id % 365) as u16,
            hour: (id % 24) as u8,
            down_mbps: down,
            up_mbps: up,
            rtt_ms: 10.0,
            loaded_rtt_ms: 12.0,
            access,
            kernel_memory_gb: if platform == Platform::AndroidApp { Some(3.0) } else { None },
            truth_tier: None,
        }
    }

    fn sample() -> Vec<Measurement> {
        vec![
            m(0, Platform::AndroidApp, 80.0, 9.0, Access::Wifi { band: Band::G5, rssi_dbm: -40.0 }),
            m(1, Platform::Web, 90.0, 9.5, Access::Unknown),
            m(
                2,
                Platform::AndroidApp,
                20.0,
                2.0,
                Access::Wifi { band: Band::G2_4, rssi_dbm: -70.0 },
            ),
            m(3, Platform::DesktopEthernetApp, 400.0, 20.0, Access::Ethernet),
            m(4, Platform::IosApp, 50.0, 5.0, Access::Wifi { band: Band::G5, rssi_dbm: -55.0 }),
        ]
    }

    #[test]
    fn base_columns_mirror_measurements() {
        let ms = sample();
        let s = CampaignStore::from_measurements(&ms);
        assert_eq!(s.len(), ms.len());
        assert_eq!(s.down, [80.0, 90.0, 20.0, 400.0, 50.0]);
        assert_eq!(s.platform[3], Platform::DesktopEthernetApp);
        assert!(s.kernel_memory_gb[1].is_nan(), "web reports no memory");
        assert_eq!(s.kernel_memory_gb[0], 3.0);
    }

    #[test]
    fn derived_columns_computed_exactly_once() {
        let s = CampaignStore::from_measurements(&sample());
        assert_eq!(s.derived_builds(), 0, "nothing derived up front");
        let first = s.time_bin().to_vec();
        assert_eq!(s.derived_builds(), 1);
        let second = s.time_bin().to_vec();
        assert_eq!(s.derived_builds(), 1, "memoized: no recomputation");
        assert_eq!(first, second);
        // Every family builds once, no matter how often it is read.
        s.materialize_derived();
        s.materialize_derived();
        let after = s.derived_builds();
        assert_eq!(after, 8, "eight derived families, each built once");
        s.platform_sel(Platform::AndroidApp);
        s.month();
        s.wifi_band();
        assert_eq!(s.derived_builds(), after);
    }

    #[test]
    fn derived_codes_match_row_logic() {
        let ms = sample();
        let s = CampaignStore::from_measurements(&ms);
        assert_eq!(
            s.access_class(),
            &[ACCESS_WIFI, ACCESS_UNKNOWN, ACCESS_WIFI, ACCESS_ETHERNET, ACCESS_WIFI]
        );
        assert_eq!(s.wifi_band(), &[BAND_5, BAND_NONE, BAND_2_4, BAND_NONE, BAND_5]);
        assert_eq!(s.rssi_dbm()[0], -40.0);
        assert!(s.rssi_dbm()[3].is_nan());
        for (i, m) in ms.iter().enumerate() {
            let expect = m.memory_class().map(memory_code).unwrap_or(MEMORY_NONE);
            assert_eq!(s.memory_class()[i], expect);
            assert_eq!(s.time_bin()[i] as usize, m.time_bin());
            assert_eq!(s.month()[i] as usize, m.month());
        }
    }

    #[test]
    fn platform_selections_partition_the_store() {
        let s = CampaignStore::from_measurements(&sample());
        assert_eq!(s.platform_sel(Platform::AndroidApp).indices(), &[0, 2]);
        assert_eq!(s.platform_sel(Platform::Web).indices(), &[1]);
        assert_eq!(s.platform_sel(Platform::NdtWeb).len(), 0);
        let native = s.native_sel();
        assert_eq!(native.indices(), &[0, 2, 3, 4], "web portal is not native");
    }

    #[test]
    fn assignments_are_write_once_and_derive_groups() {
        let s = CampaignStore::from_measurements(&sample());
        let catalog = PlanCatalog::new("Test-ISP", &[(50.0, 5.0), (100.0, 5.0), (500.0, 20.0)]);
        assert!(!s.has_assignments());
        let top = catalog.len();
        let tiers = vec![Some(1), None, Some(1), Some(top), None];
        let caps = vec![0, -1, 0, (catalog.upload_caps().len() - 1) as i32, -1];
        s.set_assignments(tiers.clone(), caps.clone(), &catalog).unwrap();
        assert_eq!(
            s.set_assignments(tiers, caps, &catalog),
            Err(StoreError::AssignmentsAlreadySet),
            "second scatter must surface a typed error, not panic"
        );
        let asg = s.assigned();
        assert_eq!(asg.group_idx[0], 0);
        assert_eq!(asg.group_idx[1], -1);
        assert!(asg.plan_down[1].is_nan());
        assert!(asg.normalized_down[0] <= 1.0);
        assert_eq!(asg.group_sels[0].indices(), &[0, 2]);
        assert_eq!(s.cap_counts(&Selection::all(s.len()))[0], 2);
        let android = s.platform_sel(Platform::AndroidApp);
        assert_eq!(s.cap_counts(android)[0], 2);
    }

    #[test]
    fn short_assignment_columns_error_without_mutating() {
        let s = CampaignStore::from_measurements(&sample());
        let catalog = PlanCatalog::new("Test-ISP", &[(50.0, 5.0), (100.0, 5.0)]);
        assert_eq!(
            s.set_assignments(vec![None; 2], vec![-1; s.len()], &catalog),
            Err(StoreError::LengthMismatch { column: "tier", expected: 5, got: 2 })
        );
        assert_eq!(
            s.set_assignments(vec![None; s.len()], vec![-1; 3], &catalog),
            Err(StoreError::LengthMismatch { column: "upload_cap_idx", expected: 5, got: 3 })
        );
        assert!(!s.has_assignments(), "failed scatters must leave the store unassigned");
        s.set_assignments(vec![None; s.len()], vec![-1; s.len()], &catalog).unwrap();
        assert!(s.has_assignments());
    }
}
