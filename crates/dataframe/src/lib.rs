#![warn(missing_docs)]
//! Row selections and segment-aware column views.
//!
//! The paper's analyses slice ~1.5M measurement rows by platform, tier,
//! access type, band and memory, then aggregate one column of the slice.
//! This crate holds the small substrate those slices need, over columns
//! owned by the campaign store:
//!
//! * [`Selection`] — an ascending row-index set built from a predicate
//!   or a mask, composable with `and` / `or` / `refine`;
//! * [`ColumnView`] — a gathered column that borrows the source when the
//!   selection is the identity and copies only true subsets;
//! * [`FragCol`] / [`FragSelection`] — the same two ideas over a column
//!   that lives in several consecutive segment slices.
//!
//! Columns are dense (no null bitmap). Missing numeric data is
//! represented as `f64::NAN` and gathers that feed statistics skip it
//! explicitly (`gather_finite`).

pub mod frag;
pub mod selection;

pub use frag::{FragCol, FragSelection};
pub use selection::{ColumnView, Selection};
