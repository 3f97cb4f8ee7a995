#![warn(missing_docs)]
//! Speed-test domain model and test methodologies.
//!
//! This crate holds everything that is "about speed tests" rather than
//! about networks or statistics:
//!
//! * [`plans`] — ISP subscription-plan catalogs ([`Plan`], [`PlanCatalog`],
//!   tier groups keyed by upload speed), the ground structure the BST
//!   methodology recovers from data.
//! * [`record`] — the [`Measurement`] schema: one speed test with its
//!   vendor, platform, QoS results, and the local-context metadata the
//!   paper argues must accompany every test, plus [`write_csv`], the
//!   16-column CSV export of a campaign.
//! * [`methodology`] — the [`Methodology`] trait plus the two vendor
//!   implementations: [`OoklaMethodology`] (multi-connection, ramp-up
//!   discarded) and [`NdtMethodology`] (single connection, whole-transfer
//!   average), run over `st-netsim` path snapshots.
//! * [`pairing`] — M-Lab's download/upload association: NDT reports the two
//!   directions as separate tests, so the paper pairs them with a 120 s
//!   window per client/server pair (§3.2); implemented here.
//! * [`segment`] — the [`SegmentedStore`], the one columnar campaign
//!   store: sealed immutable segments with lazily memoized derived
//!   context (time bin, access class, WiFi band, memory class) and cheap
//!   composable row [`Selection`]s, plus a mutable tail that absorbs
//!   appended measurement chunks, sanitizes them incrementally, and
//!   seals deterministically — the storage engine behind the batch
//!   repro, chunked ingest and the live service. Analyses scan
//!   contiguous columns instead of cloning `Vec<Measurement>` rows.
//! * [`store`] — the dense access / band / memory codes of the derived
//!   columns, and [`StoreError`].
//! * [`sanitize`](mod@sanitize) — the record quarantine stage: every measurement
//!   entering an analysis is classified clean / repaired / quarantined
//!   against a structured error taxonomy, with per-reason counters, so
//!   dirty crowdsourced records degrade the dataset instead of crashing
//!   the pipeline.
//! * [`wire`] — a real TCP speed test over loopback sockets with a
//!   token-bucket-shaped server, demonstrating that the methodology gap is
//!   not an artifact of the flow-level simulator.
//! * [`fault`] — deterministic, seed-scheduled wire fault injection: a
//!   [`FaultProfile`] deals each session one of six failure modes as a
//!   pure function of `(seed, session id)`.
//! * [`retry`] — session-level capped-exponential [`BackoffSchedule`]
//!   with seeded jitter and a clock-free per-endpoint [`CircuitBreaker`].
//! * [`load`] — the chaos-hardened concurrent load harness: hundreds of
//!   sessions against a fault-injecting server pool, with retry, circuit
//!   breaking, and a [`LoadSummary`] whose counters are byte-identical
//!   across runs and parallelism levels.
//! * [`scoring`] — AIM-style application quality scores (streaming /
//!   gaming / conferencing) from a session's measured quality vector.

pub mod fault;
pub mod load;
pub mod methodology;
pub mod pairing;
pub mod plans;
pub mod record;
pub mod retry;
pub mod sanitize;
pub mod scoring;
pub mod segment;
pub mod store;
pub mod wire;

pub use fault::{FaultKind, FaultProfile, SessionFault, ALL_FAULT_KINDS};
pub use load::{run_load, LoadOptions, LoadSummary, PlannedOutcome, SessionReport};
pub use methodology::{FastMethodology, Methodology, NdtMethodology, OoklaMethodology, TestResult};
pub use pairing::{pair_ndt_tests, NdtEvent, NdtPair};
pub use plans::{Plan, PlanCatalog, TierGroup};
pub use record::{write_csv, Access, Measurement, Platform, Vendor};
pub use retry::{Admission, BackoffSchedule, BreakerState, CircuitBreaker};
pub use sanitize::{
    classify, sanitize, sanitize_with_seen, Classification, QuarantineReason, RepairReason,
    SanitizeReport,
};
pub use scoring::{score, QualityScores, SessionQuality};
pub use segment::{ChunkStats, SegmentedStore, DEFAULT_SEAL_ROWS};
pub use st_dataframe::{FragCol, FragSelection, Selection};
pub use store::StoreError;
