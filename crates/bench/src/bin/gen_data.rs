//! Export synthetic campaigns as CSV for external analysis stacks.
//!
//! ```text
//! gen-data [--city A|B|C|D|all] [--scale S] [--seed N] [--out DIR]
//!          [--format csv|json]
//! ```
//!
//! Writes `<city>_ookla.{csv,json}`, `<city>_mlab.*`, `<city>_mba.*` with
//! one row per measurement and the full context schema (platform, vendor,
//! access, band, RSSI, memory, loaded RTT, ground-truth tier). `--help`
//! exits 0; a malformed invocation exits 2.

use st_bench::cli::{next_value, parse_scale, parse_u64, CliError};
use st_datagen::{City, CityDataset};
use st_speedtest::write_csv;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: gen-data [--city A|B|C|D|all] [--scale S] [--seed N] [--out DIR] [--format csv|json]";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Csv,
    Json,
}

struct Args {
    cities: Vec<City>,
    scale: f64,
    seed: u64,
    out: PathBuf,
    format: Format,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut a = Args {
        cities: City::all().to_vec(),
        scale: 0.01,
        seed: 20220707,
        out: PathBuf::from("data-out"),
        format: Format::Csv,
    };
    let mut it = args.into_iter();
    let mut parse = || -> Result<(), CliError> {
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--city" => {
                    a.cities = match next_value(&mut it, &flag)?.as_str() {
                        "A" => vec![City::A],
                        "B" => vec![City::B],
                        "C" => vec![City::C],
                        "D" => vec![City::D],
                        "all" => City::all().to_vec(),
                        other => return Err(CliError::Usage(format!("unknown city {other}"))),
                    }
                }
                "--scale" => a.scale = parse_scale(&flag, &next_value(&mut it, &flag)?)?,
                "--seed" => a.seed = parse_u64(&flag, &next_value(&mut it, &flag)?)?,
                "--out" => a.out = PathBuf::from(next_value(&mut it, &flag)?),
                "--format" => {
                    a.format = match next_value(&mut it, &flag)?.as_str() {
                        "csv" => Format::Csv,
                        "json" => Format::Json,
                        other => return Err(CliError::Usage(format!("unknown format {other}"))),
                    }
                }
                "--help" | "-h" => return Err(CliError::Help(USAGE.to_string())),
                other => return Err(CliError::Usage(format!("unknown flag {other}"))),
            }
        }
        Ok(())
    };
    match parse() {
        Ok(()) => Ok(a),
        Err(CliError::Usage(msg)) => Err(CliError::Usage(format!("{msg}\n{USAGE}"))),
        Err(help) => Err(help),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return e.report(),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    for city in &args.cities {
        let ds = CityDataset::generate(*city, args.scale, args.seed);
        let tag = city.label().to_lowercase().replace('-', "_");
        for (suffix, ms) in [("ookla", &ds.ookla), ("mlab", &ds.mlab), ("mba", &ds.mba)] {
            let (path, body) = match args.format {
                Format::Csv => {
                    let mut body = Vec::new();
                    write_csv(ms, &mut body).expect("writing to memory cannot fail");
                    (args.out.join(format!("{tag}_{suffix}.csv")), body)
                }
                Format::Json => (
                    args.out.join(format!("{tag}_{suffix}.json")),
                    serde_json::to_string_pretty(ms).expect("records serialize").into_bytes(),
                ),
            };
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} ({} rows)", path.display(), ms.len());
        }
    }
    ExitCode::SUCCESS
}
