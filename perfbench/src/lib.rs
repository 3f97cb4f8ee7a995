//! The speedtest-context benchmark: three workloads (`repro`,
//! `reanalyze`, `serve`) driven through the public API of the workspace
//! crates, end-to-end metrics from untraced runs and per-layer metrics
//! from traced ones. See README.md for why each workload exists and
//! which metric each layer should move.

pub mod loadgen;
pub mod pipeline;
pub mod procfs;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;
