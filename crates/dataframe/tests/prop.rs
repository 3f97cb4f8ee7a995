//! Property-based tests for the data-frame substrate.

use proptest::prelude::*;
use st_dataframe::{csv, Column, DataFrame};

fn frame_strategy() -> impl Strategy<Value = DataFrame> {
    (1usize..60).prop_flat_map(|n| {
        (
            prop::collection::vec(0.0f64..1000.0, n..=n),
            prop::collection::vec(0i64..5, n..=n),
            prop::collection::vec(prop::sample::select(vec!["A", "B", "C"]), n..=n),
            prop::collection::vec(any::<bool>(), n..=n),
        )
            .prop_map(|(down, tier, city, wifi)| {
                DataFrame::from_columns([
                    ("down", Column::F64(down.into())),
                    ("tier", Column::I64(tier)),
                    ("city", Column::from(city)),
                    ("wifi", Column::Bool(wifi)),
                ])
                .expect("equal lengths by construction")
            })
    })
}

proptest! {
    #[test]
    fn filter_preserves_schema_and_shrinks(df in frame_strategy(), bits in prop::collection::vec(any::<bool>(), 0..60)) {
        let mut mask = bits;
        mask.resize(df.n_rows(), false);
        let out = df.filter(&mask).unwrap();
        prop_assert_eq!(out.n_cols(), df.n_cols());
        prop_assert_eq!(out.n_rows(), mask.iter().filter(|&&b| b).count());
        prop_assert_eq!(out.names(), df.names());
    }

    #[test]
    fn filter_then_concat_partitions_rows(df in frame_strategy(), bits in prop::collection::vec(any::<bool>(), 0..60)) {
        let mut mask = bits;
        mask.resize(df.n_rows(), false);
        let yes = df.filter(&mask).unwrap();
        let no = df.filter(&DataFrame::mask_not(&mask)).unwrap();
        prop_assert_eq!(yes.n_rows() + no.n_rows(), df.n_rows());
        // Sums are preserved across the partition.
        let sum = |f: &DataFrame| f.f64("down").unwrap().iter().sum::<f64>();
        prop_assert!((sum(&yes) + sum(&no) - sum(&df)).abs() < 1e-6);
    }

    #[test]
    fn sort_is_a_permutation_and_ordered(df in frame_strategy()) {
        let sorted = df.sort_by(&["down"]).unwrap();
        prop_assert_eq!(sorted.n_rows(), df.n_rows());
        let col = sorted.f64("down").unwrap();
        for w in col.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut a: Vec<f64> = df.f64("down").unwrap().to_vec();
        let mut b: Vec<f64> = col.to_vec();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csv_round_trips_exactly(df in frame_strategy()) {
        let text = csv::to_csv(&df).unwrap();
        let back = csv::from_csv(&text).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        prop_assert_eq!(back.names(), df.names());
        // Numeric columns round-trip through decimal text.
        let a = df.f64("down").unwrap();
        let b = back.f64("down").unwrap();
        for (x, y) in a.iter().zip(b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        prop_assert_eq!(back.i64("tier").unwrap(), df.i64("tier").unwrap());
        prop_assert_eq!(back.str("city").unwrap(), df.str("city").unwrap());
        prop_assert_eq!(back.bool("wifi").unwrap(), df.bool("wifi").unwrap());
    }

    #[test]
    fn vstack_length_adds(df in frame_strategy()) {
        let both = df.vstack(&df).unwrap();
        prop_assert_eq!(both.n_rows(), df.n_rows() * 2);
    }

    #[test]
    fn take_out_of_order_indices(df in frame_strategy(), raw in prop::collection::vec(0usize..1000, 0..40)) {
        let indices: Vec<usize> = raw.into_iter().map(|i| i % df.n_rows()).collect();
        let out = df.take(&indices);
        prop_assert_eq!(out.n_rows(), indices.len());
        let down = df.f64("down").unwrap();
        let out_down = out.f64("down").unwrap();
        for (j, &i) in indices.iter().enumerate() {
            prop_assert_eq!(out_down[j], down[i]);
        }
    }
}
