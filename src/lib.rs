//! # speedtest-context
//!
//! A full reproduction of *"The Importance of Contextualization of
//! Crowdsourced Active Speed Test Measurements"* (Paul, Liu, Gu, Gupta,
//! Belding — IMC 2022), built as a Rust workspace.
//!
//! The paper's datasets (Ookla Speedtest Intelligence, M-Lab NDT, FCC MBA)
//! are all access-gated, so this workspace pairs the paper's methodology
//! with a generative simulator of the measurement ecosystem itself — see
//! `DESIGN.md` for the substitution table and `EXPERIMENTS.md` for
//! paper-vs-measured numbers.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`bst`] | `st-bst` | **the paper's contribution**: the two-stage Broadband Subscription Tier methodology, evaluation, α-consistency, ablations |
//! | [`stats`] | `st-stats` | KDE, GMM-EM (with seeded init and a uniform background component), k-means, quantiles, ECDFs |
//! | [`netsim`] | `st-netsim` | flow-level path simulator: access link, 802.11 WiFi, device constraints, round-based TCP |
//! | [`speedtest`] | `st-speedtest` | plan catalogs, measurement schema and its CSV export, the segmented columnar store, Ookla/NDT methodologies, NDT pairing, a real-socket loopback speed test |
//! | [`datagen`] | `st-datagen` | synthetic Ookla / M-Lab / MBA campaigns for the four-city study |
//! | [`dataframe`] | `st-dataframe` | row selections and segment-aware column views over the campaign store |
//! | [`analysis`] | `st-analysis` | one module per paper table/figure |
//! | [`viz`] | `st-viz` | SVG and ASCII rendering |
//!
//! ## Quickstart
//!
//! ```
//! use speedtest_context::bst::{BstConfig, BstModel, evaluate};
//! use speedtest_context::datagen::{City, CityDataset};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Simulate the FCC MBA panel for State-A (ground truth retained) ...
//! let ds = CityDataset::generate(City::A, 0.01, 7);
//! let down: Vec<f64> = ds.mba.iter().map(|m| m.down_mbps).collect();
//! let up: Vec<f64> = ds.mba.iter().map(|m| m.up_mbps).collect();
//!
//! // ... fit the BST methodology to the <download, upload> tuples ...
//! let mut rng = StdRng::seed_from_u64(1);
//! let model =
//!     BstModel::fit(&down, &up, &ds.config.catalog, &BstConfig::default(), &mut rng)
//!         .expect("panel is clusterable");
//!
//! // ... and score it against the panel's known subscriptions (Table 2).
//! let truth: Vec<Option<usize>> = ds.mba.iter().map(|m| m.truth_tier).collect();
//! let eval = evaluate(&model, &truth, &ds.config.catalog);
//! assert!(eval.upload_accuracy > 0.96); // the paper's headline number
//! ```

pub use st_analysis as analysis;
pub use st_bst as bst;
pub use st_dataframe as dataframe;
pub use st_datagen as datagen;
pub use st_netsim as netsim;
pub use st_speedtest as speedtest;
pub use st_stats as stats;
pub use st_viz as viz;
