//! The [`DataFrame`] container and row-wise operations.

use crate::column::{Column, DType, Value};
use crate::error::FrameError;
use crate::Result;

/// A schema-checked collection of equally-long named columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
    n_rows: usize,
}

impl DataFrame {
    /// An empty frame (no columns, no rows).
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Build a frame from `(name, column)` pairs, validating lengths and
    /// name uniqueness.
    pub fn from_columns<I, S>(cols: I) -> Result<Self>
    where
        I: IntoIterator<Item = (S, Column)>,
        S: Into<String>,
    {
        let mut df = DataFrame::new();
        for (name, col) in cols {
            df.add_column(name.into(), col)?;
        }
        Ok(df)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Column names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Add a column; its length must match existing rows (any length is
    /// accepted for the first column).
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows {
            return Err(FrameError::LengthMismatch {
                column: name,
                expected: self.n_rows,
                got: col.len(),
            });
        }
        if self.columns.is_empty() {
            self.n_rows = col.len();
        }
        self.names.push(name);
        self.columns.push(col);
        Ok(())
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_owned()))?;
        Ok(&self.columns[idx])
    }

    /// Borrow an f64 column by name, or fail with a type error.
    pub fn f64(&self, name: &str) -> Result<&[f64]> {
        let col = self.column(name)?;
        col.as_f64().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_owned(),
            expected: DType::F64.name(),
            got: col.dtype().name(),
        })
    }

    /// Borrow an i64 column by name, or fail with a type error.
    pub fn i64(&self, name: &str) -> Result<&[i64]> {
        let col = self.column(name)?;
        col.as_i64().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_owned(),
            expected: DType::I64.name(),
            got: col.dtype().name(),
        })
    }

    /// Borrow a string column by name, or fail with a type error.
    pub fn str(&self, name: &str) -> Result<&[String]> {
        let col = self.column(name)?;
        col.as_str().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_owned(),
            expected: DType::Str.name(),
            got: col.dtype().name(),
        })
    }

    /// Borrow a bool column by name, or fail with a type error.
    pub fn bool(&self, name: &str) -> Result<&[bool]> {
        let col = self.column(name)?;
        col.as_bool().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_owned(),
            expected: DType::Bool.name(),
            got: col.dtype().name(),
        })
    }

    /// Cell value at `(row, column)`.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.n_rows {
            return Err(FrameError::IndexOutOfBounds { index: row, len: self.n_rows });
        }
        Ok(self.column(name)?.value(row))
    }

    /// New frame keeping only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut df = DataFrame::new();
        for &name in names {
            df.add_column(name, self.column(name)?.clone())?;
        }
        Ok(df)
    }

    /// New frame keeping rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.n_rows {
            return Err(FrameError::MaskLength { expected: self.n_rows, got: mask.len() });
        }
        let indices: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i).collect();
        Ok(self.take(&indices))
    }

    /// Build a boolean mask from a predicate over an f64 column.
    pub fn mask_f64(&self, name: &str, pred: impl Fn(f64) -> bool) -> Result<Vec<bool>> {
        Ok(self.f64(name)?.iter().map(|&v| pred(v)).collect())
    }

    /// Build a boolean mask from a predicate over a string column.
    pub fn mask_str(&self, name: &str, pred: impl Fn(&str) -> bool) -> Result<Vec<bool>> {
        Ok(self.str(name)?.iter().map(|v| pred(v)).collect())
    }

    /// Build a boolean mask from a predicate over an i64 column.
    pub fn mask_i64(&self, name: &str, pred: impl Fn(i64) -> bool) -> Result<Vec<bool>> {
        Ok(self.i64(name)?.iter().map(|&v| pred(v)).collect())
    }

    /// Elementwise AND of two masks.
    pub fn mask_and(a: &[bool], b: &[bool]) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| x && y).collect()
    }

    /// Elementwise OR of two masks.
    pub fn mask_or(a: &[bool], b: &[bool]) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| x || y).collect()
    }

    /// Elementwise NOT of a mask.
    pub fn mask_not(a: &[bool]) -> Vec<bool> {
        a.iter().map(|&x| !x).collect()
    }

    /// New frame gathering the given row indices (indices may repeat).
    /// Panics if an index is out of bounds — callers produce indices from
    /// this frame's own row count.
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        DataFrame { names: self.names.clone(), columns, n_rows: indices.len() }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let indices: Vec<usize> = (0..n.min(self.n_rows)).collect();
        self.take(&indices)
    }

    /// New frame sorted ascending by the given key columns (stable).
    pub fn sort_by(&self, keys: &[&str]) -> Result<DataFrame> {
        let key_cols: Vec<&Column> = keys.iter().map(|k| self.column(k)).collect::<Result<_>>()?;
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        indices.sort_by(|&a, &b| {
            for col in &key_cols {
                let ord = col.cmp_rows(a, b);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(self.take(&indices))
    }

    /// Summary statistics of every numeric (f64) column: a new frame with
    /// one row per column and `count / mean / std / min / median / max`
    /// columns (NaNs skipped, pandas-style `describe`).
    pub fn describe(&self) -> DataFrame {
        let mut names = Vec::new();
        let (mut count, mut mean, mut std, mut min, mut median, mut max) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for name in &self.names {
            let Some(values) = self.column(name).expect("own name").as_f64() else {
                continue;
            };
            let mut clean: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
            names.push(name.clone());
            count.push(clean.len() as f64);
            if clean.is_empty() {
                for v in [&mut mean, &mut std, &mut min, &mut median, &mut max] {
                    v.push(f64::NAN);
                }
                continue;
            }
            let m = clean.iter().sum::<f64>() / clean.len() as f64;
            mean.push(m);
            std.push(
                (clean.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / clean.len() as f64).sqrt(),
            );
            clean.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
            min.push(clean[0]);
            median.push(clean[clean.len() / 2]);
            max.push(*clean.last().expect("non-empty"));
        }
        DataFrame::from_columns([
            ("column", Column::Str(names)),
            ("count", Column::F64(count.into())),
            ("mean", Column::F64(mean.into())),
            ("std", Column::F64(std.into())),
            ("min", Column::F64(min.into())),
            ("median", Column::F64(median.into())),
            ("max", Column::F64(max.into())),
        ])
        .expect("parallel construction")
    }

    /// Vertically concatenate another frame with an identical schema.
    pub fn vstack(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.columns.is_empty() {
            return Ok(other.clone());
        }
        if self.names != other.names {
            return Err(FrameError::NoSuchColumn(format!(
                "schema mismatch: {:?} vs {:?}",
                self.names, other.names
            )));
        }
        let mut out = self.clone();
        for (i, col) in out.columns.iter_mut().enumerate() {
            match (col, &other.columns[i]) {
                (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
                (Column::I64(a), Column::I64(b)) => a.extend_from_slice(b),
                (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
                (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
                (col, other_col) => {
                    return Err(FrameError::TypeMismatch {
                        column: self.names[i].clone(),
                        expected: col.dtype().name(),
                        got: other_col.dtype().name(),
                    })
                }
            }
        }
        out.n_rows += other.n_rows;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::from_columns([
            ("speed", Column::from(vec![25.0, 100.0, 200.0, 100.0])),
            ("tier", Column::from(vec![1i64, 2, 3, 2])),
            ("city", Column::from(vec!["A", "A", "B", "B"])),
            ("wifi", Column::from(vec![true, false, true, true])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = sample();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.n_cols(), 4);
        assert_eq!(df.names(), &["speed", "tier", "city", "wifi"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut df = sample();
        let err = df.add_column("speed", Column::from(vec![0.0; 4])).unwrap_err();
        assert!(matches!(err, FrameError::DuplicateColumn(_)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut df = sample();
        let err = df.add_column("extra", Column::from(vec![1.0])).unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn typed_accessors_enforce_types() {
        let df = sample();
        assert_eq!(df.f64("speed").unwrap()[0], 25.0);
        assert!(df.f64("city").is_err());
        assert_eq!(df.i64("tier").unwrap()[2], 3);
        assert_eq!(df.str("city").unwrap()[3], "B");
        assert!(!df.bool("wifi").unwrap()[1]);
        assert!(df.column("nope").is_err());
    }

    #[test]
    fn filter_by_mask() {
        let df = sample();
        let mask = df.mask_str("city", |c| c == "A").unwrap();
        let a = df.filter(&mask).unwrap();
        assert_eq!(a.n_rows(), 2);
        assert_eq!(a.f64("speed").unwrap(), &[25.0, 100.0]);
    }

    #[test]
    fn combined_masks() {
        let df = sample();
        let fast = df.mask_f64("speed", |v| v >= 100.0).unwrap();
        let wifi = df.bool("wifi").unwrap().to_vec();
        let both = DataFrame::mask_and(&fast, &wifi);
        let out = df.filter(&both).unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.f64("speed").unwrap(), &[200.0, 100.0]);
        let either = DataFrame::mask_or(&fast, &wifi);
        assert_eq!(either.iter().filter(|&&b| b).count(), 4);
        assert_eq!(DataFrame::mask_not(&[true, false]), vec![false, true]);
    }

    #[test]
    fn mask_length_checked() {
        let df = sample();
        assert!(matches!(df.filter(&[true]).unwrap_err(), FrameError::MaskLength { .. }));
    }

    #[test]
    fn select_projects_columns() {
        let df = sample().select(&["city", "speed"]).unwrap();
        assert_eq!(df.names(), &["city", "speed"]);
        assert_eq!(df.n_rows(), 4);
        assert!(sample().select(&["missing"]).is_err());
    }

    #[test]
    fn take_and_head() {
        let df = sample();
        let t = df.take(&[3, 0]);
        assert_eq!(t.f64("speed").unwrap(), &[100.0, 25.0]);
        assert_eq!(df.head(2).n_rows(), 2);
        assert_eq!(df.head(100).n_rows(), 4);
    }

    #[test]
    fn sort_by_single_and_multi_key() {
        let df = sample();
        let by_speed = df.sort_by(&["speed"]).unwrap();
        assert_eq!(by_speed.f64("speed").unwrap(), &[25.0, 100.0, 100.0, 200.0]);
        // multi-key: city then speed descending? (ascending only; verify order)
        let multi = df.sort_by(&["city", "speed"]).unwrap();
        assert_eq!(multi.str("city").unwrap(), &["A", "A", "B", "B"]);
        assert_eq!(multi.f64("speed").unwrap(), &[25.0, 100.0, 100.0, 200.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let df = sample();
        let both = df.vstack(&df).unwrap();
        assert_eq!(both.n_rows(), 8);
        assert_eq!(both.f64("speed").unwrap()[4], 25.0);
    }

    #[test]
    fn vstack_schema_mismatch_rejected() {
        let df = sample();
        let other = df.select(&["speed"]).unwrap();
        assert!(df.vstack(&other).is_err());
    }

    #[test]
    fn value_accessor_bounds_checked() {
        let df = sample();
        assert_eq!(df.value(0, "city").unwrap(), Value::Str("A".into()));
        assert!(df.value(10, "city").is_err());
    }

    #[test]
    fn describe_summarizes_numeric_columns() {
        let df = sample();
        let d = df.describe();
        assert_eq!(d.n_rows(), 1); // only "speed" is f64
        assert_eq!(d.str("column").unwrap(), &["speed"]);
        assert_eq!(d.f64("count").unwrap()[0], 4.0);
        assert_eq!(d.f64("mean").unwrap()[0], 106.25);
        assert_eq!(d.f64("min").unwrap()[0], 25.0);
        assert_eq!(d.f64("max").unwrap()[0], 200.0);
    }

    #[test]
    fn describe_skips_nans_and_handles_all_nan_columns() {
        let df = DataFrame::from_columns([
            ("x", Column::from(vec![1.0, f64::NAN, 3.0])),
            ("y", Column::from(vec![f64::NAN, f64::NAN, f64::NAN])),
        ])
        .unwrap();
        let d = df.describe();
        assert_eq!(d.f64("count").unwrap(), &[2.0, 0.0]);
        assert_eq!(d.f64("mean").unwrap()[0], 2.0);
        assert!(d.f64("mean").unwrap()[1].is_nan());
    }

    #[test]
    fn empty_frame_behaviour() {
        let df = DataFrame::new();
        assert!(df.is_empty());
        assert_eq!(df.n_cols(), 0);
        let stacked = df.vstack(&sample()).unwrap();
        assert_eq!(stacked.n_rows(), 4);
    }
}
