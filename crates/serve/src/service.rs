//! The sharded ingest service: per-city [`SegmentedStore`] partitions
//! behind per-partition locks, a tiny coordinator for the global
//! accepted-row count, and epoch publication at every boundary
//! crossing (DESIGN.md §18).
//!
//! Locking discipline (no lock is ever held while another of the same
//! rank is taken):
//!
//! 1. a partition's `streams` mutex — held only for one
//!    `append_chunk` (or one stat read during snapshot assembly);
//! 2. the coordinator mutex — held for a few integer updates;
//! 3. the publisher's `RwLock` — held for one `Arc` swap.
//!
//! Ingest takes 1 then 2 then (on a crossing) 3, releasing each before
//! the next; snapshot assembly re-takes partition locks one at a time.
//! Queries touch only 3 (a read lock around an `Arc` clone), so
//! readers never block writers and vice versa.

use crate::epoch::{epoch_index, CampaignSnapshot, CitySnapshot, EpochPublisher, EpochSnapshot};
use parking_lot::Mutex;
use st_obs::Registry;
use st_speedtest::{
    ChunkStats, Measurement, SanitizeReport, SegmentedStore, StoreError, DEFAULT_SEAL_ROWS,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

/// Default accepted rows per epoch.
pub const DEFAULT_EPOCH_ROWS: usize = 8192;

/// Per-chunk ingest latency buckets, seconds (wall-clock class).
const SERVE_CHUNK_BOUNDS: &[f64] =
    &[0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0];

/// Accepted-rows-per-wire-chunk buckets (wall-clock class: wire
/// completion counts move with real sockets).
const WIRE_ROW_BOUNDS: &[f64] = &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0, 1000.0];

/// One partition the service shards into, declared at construction.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// Partition name — a city label, or e.g. "wire".
    pub city: String,
    /// Campaign stream names within the partition.
    pub campaigns: Vec<String>,
    /// Whether rows here join the deterministic counter class and
    /// advance epochs. Replayed campaign streams say true; wire
    /// sessions (whose completion set depends on real sockets) say
    /// false, keeping `serve.*` deterministic counters
    /// parallelism-invariant and epoch boundaries pure (DESIGN.md §18).
    pub deterministic: bool,
}

impl PartitionSpec {
    /// A deterministic city partition with the standard three
    /// campaigns.
    pub fn city(label: &str) -> Self {
        PartitionSpec {
            city: label.to_string(),
            campaigns: vec!["ookla".into(), "mlab".into(), "mba".into()],
            deterministic: true,
        }
    }

    /// The wall-clock-class partition wire-session results land in.
    pub fn wire() -> Self {
        PartitionSpec {
            city: "wire".to_string(),
            campaigns: vec!["sessions".into()],
            deterministic: false,
        }
    }
}

/// Everything a warm render sees: the sealed (therefore
/// chunking-invariant) rows of every deterministic partition.
pub struct WarmInput {
    /// Process-unique id of the [`ContextService`] rendering, the same
    /// in every input of one service. Within one service a stream's
    /// sealed rows only grow, by whole segments, so `(service, city,
    /// sealed row count per campaign)` names a city's sealed rows
    /// exactly: a renderer may reuse a fit made under the same key.
    pub service: u64,
    /// Epoch index being rendered.
    pub epoch: u64,
    /// Per-city `(campaign, sealed rows)` streams, in partition order.
    pub cities: Vec<WarmCity>,
}

/// One city's sealed streams, handed to the warm renderer.
pub struct WarmCity {
    /// City label.
    pub city: String,
    /// `(campaign, sealed accepted rows)` in campaign order.
    pub campaigns: Vec<(String, Vec<Measurement>)>,
}

/// What a warm render produces for the epoch snapshot.
#[derive(Debug, Clone, Default)]
pub struct WarmOutput {
    /// Headline `(label, value)` pairs.
    pub headlines: Vec<(String, String)>,
    /// Rendered tables as `(id, text)` pairs.
    pub tables: Vec<(String, String)>,
}

/// Injected warm-analysis renderer. The service itself knows nothing
/// about BST fits or figures — the bench layer injects a closure over
/// `st-analysis` entry points, keeping the dependency arrow pointing
/// the right way (st-bench → st-serve, never back).
pub type WarmRenderer = Arc<dyn Fn(&WarmInput) -> WarmOutput + Send + Sync>;

/// Service construction knobs.
#[derive(Clone)]
pub struct ServeOptions {
    /// Accepted rows per sealed segment (per stream).
    pub seal_rows: usize,
    /// Accepted rows per published epoch (global).
    pub epoch_rows: usize,
    /// Warm-analysis renderer run at each epoch crossing (`None`
    /// publishes counters-only epochs).
    pub warm: Option<WarmRenderer>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { seal_rows: DEFAULT_SEAL_ROWS, epoch_rows: DEFAULT_EPOCH_ROWS, warm: None }
    }
}

/// Typed ingest-path error: the service loop never unwraps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The named partition does not exist.
    UnknownCity(String),
    /// The partition exists but has no such campaign stream.
    UnknownCampaign {
        /// Partition name.
        city: String,
        /// Offered campaign name.
        campaign: String,
    },
    /// The service has drained: stores are frozen and owned by the
    /// caller of [`ContextService::drain`].
    Draining,
    /// A store-level invariant violation surfaced through the ingest
    /// path (e.g. [`StoreError::Frozen`]).
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownCity(city) => write!(f, "unknown partition {city:?}"),
            ServeError::UnknownCampaign { city, campaign } => {
                write!(f, "partition {city:?} has no campaign {campaign:?}")
            }
            ServeError::Draining => write!(f, "service is draining; stores are frozen"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// What one accepted chunk did, from the caller's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Sanitize outcome counts and segments sealed by this chunk.
    pub stats: ChunkStats,
    /// Epoch index after this chunk.
    pub epoch: u64,
    /// Boundaries this chunk crossed (0 almost always).
    pub epochs_crossed: u64,
}

/// One frozen campaign stream handed back by [`ContextService::drain`].
pub struct DrainedPartition {
    /// Partition name.
    pub city: String,
    /// Whether the partition was deterministic class.
    pub deterministic: bool,
    /// `(campaign, frozen store)` in campaign order.
    pub stores: Vec<(String, SegmentedStore)>,
}

/// Everything [`ContextService::drain`] hands to the finisher.
pub struct DrainOutput {
    /// Frozen partitions, in spec order.
    pub partitions: Vec<DrainedPartition>,
    /// Merged sanitize taxonomy across every stream.
    pub sanitize: SanitizeReport,
    /// Sealed segments across every frozen store.
    pub segments: u64,
}

struct StreamSlot {
    campaign: String,
    store: SegmentedStore,
}

struct Partition {
    city: String,
    deterministic: bool,
    campaigns: Vec<String>,
    streams: Mutex<Vec<StreamSlot>>,
}

/// The final epoch's rendered payload: headlines, tables, the
/// batch-comparable artifact hash, and the hashed file count.
type FinalPayload = (Vec<(String, String)>, Vec<(String, String)>, Option<String>, u64);

/// Global integer state; every field is updated under one short-lived
/// mutex so an epoch snapshot captures them atomically.
#[derive(Debug, Clone, Copy, Default)]
struct Coordinator {
    rows_in: u64,
    accepted: u64,
    quarantined: u64,
    chunks: u64,
    segments: u64,
    epoch: u64,
}

/// Source of [`ContextService`] ids: unique within the process.
static NEXT_SERVICE_ID: AtomicU64 = AtomicU64::new(1);

/// The long-running contextualization service (DESIGN.md §18).
pub struct ContextService {
    /// Process-unique id, handed to the warm renderer.
    id: u64,
    partitions: Vec<Partition>,
    coord: Mutex<Coordinator>,
    publisher: EpochPublisher,
    drained: AtomicBool,
    /// City detail captured at drain time, used by `publish_final`
    /// (the live partitions are empty once their stores are handed
    /// out).
    final_cities: Mutex<Option<Vec<CitySnapshot>>>,
    seal_rows: usize,
    epoch_rows: u64,
    warm: Option<WarmRenderer>,
    obs: Registry,
    started: Instant,
}

impl ContextService {
    /// Build the service with one [`SegmentedStore`] per declared
    /// campaign stream and publish the empty epoch 0.
    pub fn new(specs: Vec<PartitionSpec>, opts: ServeOptions, obs: Registry) -> Self {
        assert!(opts.seal_rows > 0, "seal_rows must be >= 1");
        assert!(opts.epoch_rows > 0, "epoch_rows must be >= 1");
        let partitions: Vec<Partition> = specs
            .into_iter()
            .map(|spec| Partition {
                streams: Mutex::new(
                    spec.campaigns
                        .iter()
                        .map(|c| StreamSlot {
                            campaign: c.clone(),
                            store: SegmentedStore::builder(opts.seal_rows),
                        })
                        .collect(),
                ),
                city: spec.city,
                deterministic: spec.deterministic,
                campaigns: spec.campaigns,
            })
            .collect();
        let skeleton = partitions
            .iter()
            .map(|p| CitySnapshot {
                city: p.city.clone(),
                deterministic: p.deterministic,
                campaigns: p
                    .campaigns
                    .iter()
                    .map(|c| CampaignSnapshot {
                        campaign: c.clone(),
                        accepted_rows: 0,
                        sealed_segments: 0,
                        tail_rows: 0,
                        frozen: false,
                    })
                    .collect(),
            })
            .collect();
        ContextService {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            partitions,
            coord: Mutex::new(Coordinator::default()),
            publisher: EpochPublisher::new(EpochSnapshot::initial(skeleton)),
            drained: AtomicBool::new(false),
            final_cities: Mutex::new(None),
            seal_rows: opts.seal_rows,
            epoch_rows: opts.epoch_rows as u64,
            warm: opts.warm,
            obs,
            started: Instant::now(),
        }
    }

    /// Partition names, in spec order.
    pub fn cities(&self) -> Vec<String> {
        self.partitions.iter().map(|p| p.city.clone()).collect()
    }

    /// Accepted rows per sealed segment.
    pub fn seal_rows(&self) -> usize {
        self.seal_rows
    }

    /// Accepted rows per published epoch.
    pub fn epoch_rows(&self) -> u64 {
        self.epoch_rows
    }

    /// Whether [`ContextService::drain`] has run.
    pub fn is_drained(&self) -> bool {
        self.drained.load(Ordering::Acquire)
    }

    /// Seconds since the service was built (wall-clock class).
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The metrics registry every `serve.*` metric lands in.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// The current epoch (an `Arc` bump; never blocks ingest).
    pub fn current_epoch(&self) -> Arc<EpochSnapshot> {
        self.publisher.current()
    }

    /// Subscribe to epoch publications: the current snapshot as a base
    /// plus a receiver yielding every later successfully-published
    /// snapshot exactly once, in order (the `watch` verb's feed — see
    /// [`EpochPublisher::subscribe`] for the gap-freedom argument).
    pub fn subscribe_epochs(&self) -> (Arc<EpochSnapshot>, Receiver<Arc<EpochSnapshot>>) {
        self.publisher.subscribe()
    }

    fn lookup(&self, city: &str, campaign: &str) -> Result<(usize, usize), ServeError> {
        let pi = self
            .partitions
            .iter()
            .position(|p| p.city == city)
            .ok_or_else(|| ServeError::UnknownCity(city.to_string()))?;
        let si =
            self.partitions[pi].campaigns.iter().position(|c| c == campaign).ok_or_else(|| {
                ServeError::UnknownCampaign {
                    city: city.to_string(),
                    campaign: campaign.to_string(),
                }
            })?;
        Ok((pi, si))
    }

    /// Ingest one chunk into the named campaign stream: incremental
    /// sanitize, segment sealing, deterministic counters, and epoch
    /// publication when a boundary is crossed. Every failure mode is a
    /// typed [`ServeError`] — the service loop never unwraps.
    pub fn ingest_chunk(
        &self,
        city: &str,
        campaign: &str,
        rows: Vec<Measurement>,
    ) -> Result<IngestReceipt, ServeError> {
        let (pi, si) = self.lookup(city, campaign)?;
        if self.is_drained() {
            return Err(ServeError::Draining);
        }
        let part = &self.partitions[pi];
        let t0 = Instant::now();
        let stats = {
            let mut streams = part.streams.lock();
            // A drain that raced us between the flag check and this
            // lock leaves the slot list empty — surface it typed.
            let slot = streams.get_mut(si).ok_or(ServeError::Draining)?;
            slot.store.append_chunk(rows)?
        };
        let accepted = stats.clean + stats.repaired;
        self.obs.observe_wall(
            "serve.chunk_seconds",
            &[("city", &part.city)],
            t0.elapsed().as_secs_f64(),
            SERVE_CHUNK_BOUNDS,
        );
        if part.deterministic {
            self.obs.inc("serve.chunks", &[("campaign", campaign), ("city", &part.city)]);
            for (outcome, n) in [
                ("clean", stats.clean),
                ("repaired", stats.repaired),
                ("quarantined", stats.quarantined),
            ] {
                self.obs.add("serve.rows", &[("outcome", outcome)], n);
            }
        } else {
            // Wire-session rows: wall-clock class only (DESIGN.md §18).
            self.obs.observe_wall(
                "serve.wire_rows",
                &[("city", &part.city)],
                accepted as f64,
                WIRE_ROW_BOUNDS,
            );
        }
        let (view, crossed) = {
            let mut c = self.coord.lock();
            c.rows_in += stats.rows_in as u64;
            c.chunks += 1;
            c.quarantined += stats.quarantined;
            c.segments += stats.segments_sealed as u64;
            if part.deterministic {
                let before = c.epoch;
                c.accepted += accepted;
                c.epoch = epoch_index(c.accepted, self.epoch_rows);
                (*c, c.epoch - before)
            } else {
                (*c, 0)
            }
        };
        if crossed > 0 {
            // Crossings telescope to epoch_index(total accepted), so
            // this counter is chunking- and parallelism-invariant.
            self.obs.add("serve.epochs", &[], crossed);
            let snap = self.build_snapshot(view, false, None);
            self.publisher.publish(Arc::new(snap));
        }
        Ok(IngestReceipt { stats, epoch: view.epoch, epochs_crossed: crossed })
    }

    /// Assemble an epoch from a coordinator view captured at the
    /// crossing plus per-partition detail read immediately after
    /// (never older than the trigger, see [`EpochSnapshot`]).
    fn build_snapshot(
        &self,
        view: Coordinator,
        final_epoch: bool,
        finals: Option<FinalPayload>,
    ) -> EpochSnapshot {
        let mut cities = Vec::with_capacity(self.partitions.len());
        let mut sanitize = SanitizeReport::default();
        let mut warm_cities = Vec::new();
        for part in &self.partitions {
            let streams = part.streams.lock();
            let mut campaigns = Vec::with_capacity(streams.len());
            let mut warm_campaigns = Vec::new();
            for slot in streams.iter() {
                sanitize.merge(slot.store.report());
                campaigns.push(CampaignSnapshot {
                    campaign: slot.campaign.clone(),
                    accepted_rows: slot.store.accepted_rows() as u64,
                    sealed_segments: slot.store.num_segments() as u64,
                    tail_rows: slot.store.tail_len() as u64,
                    frozen: slot.store.is_frozen(),
                });
                if self.warm.is_some() && part.deterministic && !final_epoch {
                    warm_campaigns.push((slot.campaign.clone(), slot.store.sealed_measurements()));
                }
            }
            drop(streams);
            if !warm_campaigns.is_empty() {
                warm_cities.push(WarmCity { city: part.city.clone(), campaigns: warm_campaigns });
            }
            cities.push(CitySnapshot {
                city: part.city.clone(),
                deterministic: part.deterministic,
                campaigns,
            });
        }
        let (mut headlines, mut tables, mut artifact_hash, mut artifact_files) =
            (Vec::new(), Vec::new(), None, 0);
        if let Some((h, t, hash, files)) = finals {
            (headlines, tables, artifact_hash, artifact_files) = (h, t, hash, files);
        } else if let Some(warm) = &self.warm {
            let out = warm(&WarmInput { service: self.id, epoch: view.epoch, cities: warm_cities });
            headlines = out.headlines;
            tables = out.tables;
        }
        EpochSnapshot {
            epoch: view.epoch,
            final_epoch,
            accepted_rows: view.accepted,
            rows_in: view.rows_in,
            quarantined: view.quarantined,
            chunks: view.chunks,
            segments_sealed: view.segments,
            cities,
            sanitize,
            headlines,
            tables,
            artifact_hash,
            artifact_files,
        }
    }

    /// Stop ingest, freeze every stream, and hand the frozen stores to
    /// the caller (who fits/renders the final analyses). A second
    /// drain — or any ingest after this — gets a typed error.
    pub fn drain(&self) -> Result<DrainOutput, ServeError> {
        if self.drained.swap(true, Ordering::AcqRel) {
            return Err(ServeError::Draining);
        }
        let mut partitions = Vec::with_capacity(self.partitions.len());
        let mut sanitize = SanitizeReport::default();
        let mut segments = 0u64;
        let mut cities = Vec::with_capacity(self.partitions.len());
        for part in &self.partitions {
            let taken: Vec<StreamSlot> = std::mem::take(&mut *part.streams.lock());
            let mut stores = Vec::with_capacity(taken.len());
            let mut campaigns = Vec::with_capacity(taken.len());
            for mut slot in taken {
                slot.store.freeze()?;
                sanitize.merge(slot.store.report());
                segments += slot.store.num_segments() as u64;
                campaigns.push(CampaignSnapshot {
                    campaign: slot.campaign.clone(),
                    accepted_rows: slot.store.accepted_rows() as u64,
                    sealed_segments: slot.store.num_segments() as u64,
                    tail_rows: 0,
                    frozen: true,
                });
                stores.push((slot.campaign, slot.store));
            }
            cities.push(CitySnapshot {
                city: part.city.clone(),
                deterministic: part.deterministic,
                campaigns,
            });
            partitions.push(DrainedPartition {
                city: part.city.clone(),
                deterministic: part.deterministic,
                stores,
            });
        }
        self.coord.lock().segments = segments;
        *self.final_cities.lock() = Some(cities);
        Ok(DrainOutput { partitions, sanitize, segments })
    }

    /// Publish the final epoch: the drained counters plus the rendered
    /// artifacts' headline set and batch-comparable hash. Returns the
    /// final epoch index (`epoch_index(total accepted) + 1`, so the
    /// total `serve.epochs` count stays a pure function of the
    /// accepted-row sequence).
    pub fn publish_final(
        &self,
        sanitize: &SanitizeReport,
        headlines: Vec<(String, String)>,
        tables: Vec<(String, String)>,
        artifact_hash: Option<String>,
        artifact_files: u64,
    ) -> Result<u64, ServeError> {
        if !self.is_drained() {
            return Err(ServeError::Store(StoreError::NotFrozen));
        }
        let view = {
            let mut c = self.coord.lock();
            c.epoch += 1;
            *c
        };
        self.obs.inc("serve.epochs", &[]);
        let cities = self.final_cities.lock().clone().unwrap_or_default();
        let snap = EpochSnapshot {
            epoch: view.epoch,
            final_epoch: true,
            accepted_rows: view.accepted,
            rows_in: view.rows_in,
            quarantined: view.quarantined,
            chunks: view.chunks,
            segments_sealed: view.segments,
            cities,
            sanitize: sanitize.clone(),
            headlines,
            tables,
            artifact_hash,
            artifact_files,
        };
        self.publisher.publish(Arc::new(snap));
        Ok(view.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_speedtest::{Access, Measurement, Platform};

    fn m(id: u64) -> Measurement {
        Measurement {
            id,
            user_id: id,
            platform: Platform::AndroidApp,
            city: 0,
            day: (id % 300) as u16,
            hour: (id % 24) as u8,
            down_mbps: 100.0,
            up_mbps: 10.0,
            rtt_ms: 20.0,
            loaded_rtt_ms: 40.0,
            access: Access::Ethernet,
            kernel_memory_gb: Some(4.0),
            truth_tier: None,
        }
    }

    fn svc(epoch_rows: usize) -> ContextService {
        ContextService::new(
            vec![PartitionSpec::city("City-A"), PartitionSpec::wire()],
            ServeOptions { seal_rows: 8, epoch_rows, warm: None },
            Registry::new(),
        )
    }

    #[test]
    fn unknown_targets_are_typed_errors() {
        let s = svc(100);
        assert_eq!(
            s.ingest_chunk("Nowhere", "ookla", vec![m(1)]),
            Err(ServeError::UnknownCity("Nowhere".into()))
        );
        assert_eq!(
            s.ingest_chunk("City-A", "nope", vec![m(1)]),
            Err(ServeError::UnknownCampaign { city: "City-A".into(), campaign: "nope".into() })
        );
    }

    #[test]
    fn epochs_publish_at_accepted_row_boundaries() {
        let s = svc(10);
        assert_eq!(s.current_epoch().epoch, 0);
        let r = s.ingest_chunk("City-A", "ookla", (0..9).map(m).collect()).unwrap();
        assert_eq!((r.epoch, r.epochs_crossed), (0, 0));
        assert_eq!(s.current_epoch().epoch, 0);
        // One more accepted row crosses the boundary.
        let r = s.ingest_chunk("City-A", "mlab", vec![m(100)]).unwrap();
        assert_eq!((r.epoch, r.epochs_crossed), (1, 1));
        let snap = s.current_epoch();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.accepted_rows, 10);
        assert_eq!(snap.epoch, epoch_index(snap.accepted_rows, 10));
        // A quarantined row does not advance the accepted count.
        let mut bad = m(200);
        bad.down_mbps = f64::NAN;
        let r = s.ingest_chunk("City-A", "ookla", vec![bad]).unwrap();
        assert_eq!(r.stats.quarantined, 1);
        assert_eq!(s.current_epoch().epoch, 1);
    }

    #[test]
    fn wire_rows_do_not_advance_epochs_or_deterministic_counters() {
        let s = svc(5);
        s.ingest_chunk("wire", "sessions", (0..25).map(m).collect()).unwrap();
        assert_eq!(s.current_epoch().epoch, 0, "wire rows are wall-clock class");
        let snap = s.registry().snapshot_shared();
        assert!(snap.deterministic.counters.is_empty(), "no deterministic serve counters");
        assert!(snap.wall_clock.values.contains_key("serve.wire_rows{city=wire}"));
        // ... but they are visible in the partition detail of the next
        // published epoch.
        s.ingest_chunk("City-A", "ookla", (100..105).map(m).collect()).unwrap();
        let ep = s.current_epoch();
        assert_eq!(ep.epoch, 1);
        let wire = ep.cities.iter().find(|c| c.city == "wire").unwrap();
        assert_eq!(wire.campaigns[0].accepted_rows, 25);
        assert!(!wire.deterministic);
    }

    #[test]
    fn drain_freezes_once_and_ingest_after_drain_is_typed() {
        let s = svc(100);
        s.ingest_chunk("City-A", "ookla", (0..20).map(m).collect()).unwrap();
        let out = s.drain().unwrap();
        assert_eq!(out.partitions.len(), 2);
        let city = &out.partitions[0];
        assert_eq!(city.stores.len(), 3);
        assert!(city.stores.iter().all(|(_, st)| st.is_frozen()));
        assert_eq!(city.stores[0].1.accepted_rows(), 20);
        assert!(out.segments >= 4, "3 + 1 wire streams leave at least one segment each");
        // Second drain and late ingest both surface typed errors.
        assert!(matches!(s.drain(), Err(ServeError::Draining)));
        assert!(matches!(
            s.ingest_chunk("City-A", "ookla", vec![m(999)]),
            Err(ServeError::Draining)
        ));
        // publish_final increments the epoch once and flips the flag.
        let e = s
            .publish_final(
                &out.sanitize,
                vec![("h".into(), "1".into())],
                vec![],
                Some("abc".into()),
                89,
            )
            .unwrap();
        let snap = s.current_epoch();
        assert_eq!(snap.epoch, e);
        assert!(snap.final_epoch);
        assert_eq!(snap.artifact_hash.as_deref(), Some("abc"));
        assert_eq!(snap.cities[0].campaigns[0].accepted_rows, 20);
        assert!(snap.cities[0].campaigns.iter().all(|c| c.frozen));
    }

    #[test]
    fn publish_final_before_drain_is_rejected() {
        let s = svc(100);
        assert!(s.publish_final(&SanitizeReport::default(), vec![], vec![], None, 0).is_err());
    }

    #[test]
    fn warm_renderer_feeds_epoch_headlines_from_sealed_rows_only() {
        let warm: WarmRenderer = Arc::new(|input: &WarmInput| {
            let sealed: usize =
                input.cities.iter().flat_map(|c| c.campaigns.iter()).map(|(_, r)| r.len()).sum();
            WarmOutput {
                headlines: vec![("sealed rows".into(), sealed.to_string())],
                tables: vec![],
            }
        });
        let s = ContextService::new(
            vec![PartitionSpec::city("City-A")],
            ServeOptions { seal_rows: 8, epoch_rows: 10, warm: Some(warm) },
            Registry::new(),
        );
        s.ingest_chunk("City-A", "ookla", (0..12).map(m).collect()).unwrap();
        let ep = s.current_epoch();
        assert_eq!(ep.epoch, 1);
        // 12 accepted rows, seal_rows 8: exactly one sealed segment.
        assert_eq!(ep.headlines, vec![("sealed rows".to_string(), "8".to_string())]);
    }

    #[test]
    fn every_service_hands_its_own_id_to_every_warm_render() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let warm: WarmRenderer = {
            let seen = Arc::clone(&seen);
            Arc::new(move |input: &WarmInput| {
                seen.lock().push(input.service);
                WarmOutput::default()
            })
        };
        let service = || {
            ContextService::new(
                vec![PartitionSpec::city("City-A")],
                ServeOptions { seal_rows: 4, epoch_rows: 5, warm: Some(Arc::clone(&warm)) },
                Registry::new(),
            )
        };
        let (a, b) = (service(), service());
        for chunk in 0..3 {
            a.ingest_chunk("City-A", "ookla", (chunk * 5..chunk * 5 + 5).map(m).collect()).unwrap();
        }
        b.ingest_chunk("City-A", "mlab", (0..5).map(m).collect()).unwrap();
        b.ingest_chunk("City-A", "mlab", (5..10).map(m).collect()).unwrap();
        let seen = seen.lock().clone();
        assert_eq!(seen.len(), 5, "three epochs of `a`, two of `b`");
        let (ids_a, ids_b) = seen.split_at(3);
        assert!(ids_a.iter().all(|&id| id == ids_a[0]), "{seen:?}");
        assert!(ids_b.iter().all(|&id| id == ids_b[0]), "{seen:?}");
        assert_ne!(ids_a[0], ids_b[0], "two services share an id");
    }
}
