#![warn(missing_docs)]
//! Synthetic replacements for the paper's gated datasets.
//!
//! Every dataset in the paper is access-restricted (Ookla Speedtest
//! Intelligence under DUA, M-Lab's multi-terabyte BigQuery archive, the
//! FCC MBA raw data, Zillow addresses). This crate substitutes them with a
//! generative model of the measurement ecosystem itself:
//!
//! * [`catalogs`] — per-ISP subscription-plan catalogs. ISP-A is quoted
//!   verbatim from paper §4.1; ISPs B–D are reconstructed from the
//!   appendix tables and figures.
//! * [`city`] — the four-city study configuration: dominant ISP, campaign
//!   sizes (Table 1), platform mix (Table 3).
//! * [`population`] — subscribers: plan adoption skewed toward cheap
//!   tiers, home WiFi environments, devices and kernel memory, testing
//!   frequency, and diurnal habits.
//! * [`crowd`] — crowdsourced campaigns: Ookla native-app/web tests and
//!   M-Lab NDT tests (generated as separate up/down events and re-paired
//!   with the paper's 120 s window).
//! * [`mba`] — the FCC MBA panel: wired whiteboxes testing around the
//!   clock, with the ground-truth plan retained for evaluating BST.
//! * [`faults`] — injectable access-network faults (oversubscribed
//!   nodes, degraded plant, mis-provisioned upstream) giving the
//!   challenge-triage pipeline true positives with known ground truth,
//!   plus dirty-measurement corruption (aborted/truncated tests, zero and
//!   NaN throughput, duplicate submissions, clock skew) so the
//!   sanitization stage can be scored against known labels.
//! * [`scenario`] — one-call generation of a full city dataset (the
//!   Ookla and M-Lab campaigns plus the state's MBA panel).
//!
//! Everything is deterministic given a seed: the same `(city, scale,
//! seed)` triple always yields the same measurements — at *every*
//! parallelism level, because generation is partitioned into fixed
//! chunks whose RNGs depend only on `(seed, chunk index)` (see [`par`]).

pub mod catalogs;
pub mod city;
pub mod crowd;
pub mod faults;
pub mod mba;
pub mod par;
pub mod population;
pub mod scenario;

pub use catalogs::{catalog_for, isp_a, isp_b, isp_c, isp_d, technology_for};
pub use city::{City, CityConfig};
pub use crowd::{generate_mlab, generate_mlab_chunked, generate_ookla, generate_ookla_chunked};
pub use faults::{inject, inject_dirty, DirtyKind, DirtyLabel, DirtyScenario, FaultScenario};
pub use mba::{generate_mba, generate_mba_chunked};
pub use population::{Population, UserProfile};
pub use scenario::CityDataset;
