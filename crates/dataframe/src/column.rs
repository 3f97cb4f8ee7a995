//! Typed columns and scalar values.

use crate::shared::Shared;
use std::fmt;

/// The data type of a [`Column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit float.
    F64,
    /// 64-bit signed integer.
    I64,
    /// Owned string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl DType {
    /// Lowercase type name.
    pub fn name(&self) -> &'static str {
        match self {
            DType::F64 => "f64",
            DType::I64 => "i64",
            DType::Str => "str",
            DType::Bool => "bool",
        }
    }
}

/// A scalar value extracted from a frame cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A float cell.
    F64(f64),
    /// An integer cell.
    I64(i64),
    /// A string cell.
    Str(String),
    /// A boolean cell.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// A dense, typed column of values.
///
/// Float columns hold [`Shared`] storage: cloning an F64 column (or
/// building one from a store's `Shared` base column) is an `Arc` bump,
/// not a data copy, and mutation detaches via copy-on-write.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// A float column (shared, copy-on-write storage).
    F64(Shared<f64>),
    /// An integer column.
    I64(Vec<i64>),
    /// A string column.
    Str(Vec<String>),
    /// A boolean column.
    Bool(Vec<bool>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::F64(_) => DType::F64,
            Column::I64(_) => DType::I64,
            Column::Str(_) => DType::Str,
            Column::Bool(_) => DType::Bool,
        }
    }

    /// Value at `row` (panics if out of bounds; frame-level APIs bound-check).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::F64(v) => Value::F64(v[row]),
            Column::I64(v) => Value::I64(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
            Column::Bool(v) => Value::Bool(v[row]),
        }
    }

    /// Borrow as `&[f64]`, if this is an F64 column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i64]`, if this is an I64 column.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[String]`, if this is a Str column.
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[bool]`, if this is a Bool column.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Gather rows by index into a new column. Indices must be in bounds.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::F64(v) => Column::F64(indices.iter().map(|&i| v[i]).collect()),
            Column::I64(v) => Column::I64(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Compare rows `a` and `b` within this column (ascending).
    pub(crate) fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self {
            Column::F64(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
            Column::I64(v) => v[a].cmp(&v[b]),
            Column::Str(v) => v[a].cmp(&v[b]),
            Column::Bool(v) => v[a].cmp(&v[b]),
        }
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::F64(v.into())
    }
}

impl From<Shared<f64>> for Column {
    fn from(v: Shared<f64>) -> Self {
        Column::F64(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::I64(v)
    }
}

impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Str(v)
    }
}

impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::Str(v.into_iter().map(str::to_owned).collect())
    }
}

impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_and_len() {
        assert_eq!(Column::from(vec![1.0, 2.0]).dtype(), DType::F64);
        assert_eq!(Column::from(vec![1i64]).dtype(), DType::I64);
        assert_eq!(Column::from(vec!["a"]).dtype(), DType::Str);
        assert_eq!(Column::from(vec![true]).dtype(), DType::Bool);
        assert_eq!(Column::from(vec![1.0, 2.0, 3.0]).len(), 3);
        assert!(Column::F64(vec![].into()).is_empty());
    }

    #[test]
    fn take_gathers_and_repeats() {
        let c = Column::from(vec![10.0, 20.0, 30.0]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.as_f64().unwrap(), &[30.0, 10.0, 10.0]);
    }

    #[test]
    fn typed_borrows() {
        let c = Column::from(vec!["x", "y"]);
        assert!(c.as_f64().is_none());
        assert_eq!(c.as_str().unwrap()[1], "y");
    }

    #[test]
    fn values_round_trip_display() {
        assert_eq!(Value::F64(1.5).to_string(), "1.5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::I64(-3).to_string(), "-3");
    }

    #[test]
    fn cmp_rows_orders_ascending() {
        let c = Column::from(vec![3.0, 1.0]);
        assert_eq!(c.cmp_rows(1, 0), std::cmp::Ordering::Less);
        let s = Column::from(vec!["b", "a"]);
        assert_eq!(s.cmp_rows(0, 1), std::cmp::Ordering::Greater);
    }
}
