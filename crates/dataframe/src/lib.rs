#![warn(missing_docs)]
//! A small typed columnar data-frame.
//!
//! The paper's analyses are pandas/polars-style pipelines over ~1.5M
//! measurement rows: filter by platform, group by tier, aggregate medians.
//! No such tooling is available offline in Rust, so this crate provides the
//! minimal substrate those pipelines need:
//!
//! * typed columns ([`Column`]: `f64`, `i64`, `String`, `bool`),
//! * a [`DataFrame`] with schema-checked construction,
//! * boolean-mask filtering and row selection,
//! * stable multi-key sorting, and
//! * CSV import/export for interop with external plotting.
//!
//! Design note: columns are dense (no null bitmap). Missing numeric data is
//! represented as `f64::NAN` and aggregations skip NaNs explicitly, which is
//! the same contract the paper's Python stack uses by default.

pub mod column;
pub mod csv;
pub mod error;
pub mod frag;
pub mod frame;
pub mod selection;
pub mod shared;

pub use column::{Column, DType, Value};
pub use error::FrameError;
pub use frag::{FragCol, FragSelection};
pub use frame::DataFrame;
pub use selection::ColumnView;
pub use selection::Selection;
pub use shared::Shared;

/// Result alias for data-frame operations.
pub type Result<T> = std::result::Result<T, FrameError>;
