#![warn(missing_docs)]
//! Statistical substrate for the speedtest-context workspace.
//!
//! The BST methodology of the paper is built from three statistical tools
//! that have no mature offline Rust equivalent, so they are implemented here
//! from scratch:
//!
//! * [`kde`] — Gaussian kernel density estimation with data-driven bandwidth
//!   selection and peak finding, used to *count* the clusters present in an
//!   upload- or download-speed distribution (paper §4.2, Figs. 4, 5, 6, 7).
//! * [`gmm`] — one-dimensional Gaussian mixture models fit with
//!   Expectation–Maximization, used to *assign* each measurement to a cluster
//!   (paper §4.2, "GMM-EM").
//! * [`kmeans`] — 1-D k-means with k-means++ seeding; used both to initialize
//!   EM and as the ablation baseline the paper argues against.
//! * [`gmm2d`] — full-covariance bivariate mixtures, enabling the
//!   joint-`<download, upload>`-clustering ablation of BST's hierarchy.
//!
//! Supporting modules provide descriptive statistics ([`describe`], including
//! the paper's *consistency factor*, §4.1) and empirical CDFs ([`ecdf`]) for
//! every CDF figure in the paper.
//!
//! All estimators are deterministic given an explicit RNG, which the rest of
//! the workspace threads through from a single seed so experiments are
//! exactly reproducible.

pub mod bootstrap;
pub mod describe;
pub mod ecdf;
pub mod error;
pub mod gmm;
pub mod gmm2d;
pub mod kde;
pub mod kmeans;
pub mod ks;

pub use bootstrap::{bootstrap_ci, median_ci, median_ratio_ci, ConfidenceInterval};
pub use describe::{
    consistency_factor, gini, mean, median, quantile, quantile_select, std_dev, variance, Summary,
};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use gmm::{GaussianMixture, GmmConfig, GmmFit};
pub use gmm2d::{Cov2, GaussianMixture2d};
pub use kde::{Bandwidth, KernelDensity};
pub use kmeans::{kmeans_1d, KMeansResult};
pub use ks::{ks_test, KsTest};

/// Result alias for fallible statistics operations.
pub type Result<T> = std::result::Result<T, StatsError>;
