//! Byte pin of `gen-data`'s CSV export.
//!
//! `gen-data --city A --scale 0.002 --seed 2024` writes these three
//! campaigns through [`st_speedtest::write_csv`]. The expected values are
//! FNV-1a hashes of each file's bytes (`city_a_ookla.csv` is 429 lines),
//! so any change to the header, cell text or line ends fails here.

use st_bench::ledger::{fnv1a, FNV_OFFSET};
use st_datagen::{City, CityDataset};
use st_speedtest::write_csv;

#[test]
fn city_a_csv_bytes_are_pinned() {
    let ds = CityDataset::generate(City::A, 0.002, 2024);
    for (name, ms, expect) in [
        ("ookla", &ds.ookla, 0xfccc_d98e_c37e_90ec_u64),
        ("mlab", &ds.mlab, 0x17c9_f2eb_502a_9ed6),
        ("mba", &ds.mba, 0x9e19_82f4_4657_f101),
    ] {
        let mut body = Vec::new();
        write_csv(ms, &mut body).unwrap();
        assert_eq!(fnv1a(&body, FNV_OFFSET), expect, "city_a_{name}.csv bytes changed");
    }
}
