//! Shared validated flag parsing for the st-bench binaries.
//!
//! [`parse_args`] is the one parse loop of the pipeline binaries
//! (`repro`, `ingest`, `serve`): it owns the flags they share
//! ([`CommonArgs`]) and hands every other flag to the binary. The value
//! parsers below are shared by every binary, so all of them reject the
//! same nonsense the same way. The exit contract has two halves:
//!
//! * **usage errors** (bad flag, missing value, out-of-range knob like
//!   `--chunk-rows 0`) exit with [`USAGE_EXIT_CODE`] (2) — the caller
//!   never started doing work;
//! * **runtime failures** (degraded render, baseline drift, write
//!   failures) exit 1.
//!
//! `--help` is not an error: it prints the usage string to stdout and
//! exits 0.

use crate::diff::DiffOptions;
use crate::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code for malformed invocations (POSIX-style "incorrect usage").
pub const USAGE_EXIT_CODE: u8 = 2;

/// How an argument parse ends early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: print the usage string to stdout, exit 0.
    Help(String),
    /// A malformed invocation: print to stderr, exit [`USAGE_EXIT_CODE`].
    Usage(String),
}

impl CliError {
    /// Report the outcome and produce the binary's exit code.
    pub fn report(self) -> ExitCode {
        match self {
            CliError::Help(usage) => {
                println!("{usage}");
                ExitCode::SUCCESS
            }
            CliError::Usage(msg) => {
                eprintln!("{msg}");
                ExitCode::from(USAGE_EXIT_CODE)
            }
        }
    }
}

/// Pull the value following `flag` off the argument iterator.
pub fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next().ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

/// Parse a `--scale`-style fraction: a float in `(0, 1]`.
pub fn parse_scale(flag: &str, raw: &str) -> Result<f64, CliError> {
    let v: f64 = raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))?;
    if !(v > 0.0 && v <= 1.0) {
        return Err(CliError::Usage(format!("{flag} must be in (0, 1], got {raw}")));
    }
    Ok(v)
}

/// Parse a count knob that must be at least 1 (`--chunk-rows`,
/// `--seal-rows`, `--epoch-rows`, `--parallelism`, ...). Zero is a
/// usage error, not a panic deep in the pipeline.
pub fn parse_at_least_one(flag: &str, raw: &str) -> Result<usize, CliError> {
    let v: usize = raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))?;
    if v == 0 {
        return Err(CliError::Usage(format!("{flag} must be >= 1")));
    }
    Ok(v)
}

/// Parse an unsigned 64-bit knob (`--seed`, session counts, ...).
pub fn parse_u64(flag: &str, raw: &str) -> Result<u64, CliError> {
    raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))
}

/// Parse an unsigned count that may legitimately be zero
/// (`--wire-sessions`, `--linger`, ...).
pub fn parse_count(flag: &str, raw: &str) -> Result<usize, CliError> {
    raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))
}

/// Parse a float knob with a lower bound (`--wall-ratio`, ...). NaN is
/// rejected.
pub fn parse_float_min(flag: &str, raw: &str, min: f64) -> Result<f64, CliError> {
    let v: f64 = raw.parse().map_err(|e| CliError::Usage(format!("bad {flag} {raw:?}: {e}")))?;
    if v < min || v.is_nan() {
        return Err(CliError::Usage(format!("{flag} must be >= {min}")));
    }
    Ok(v)
}

/// The flags every pipeline binary shares.
#[derive(Debug)]
pub struct CommonArgs {
    /// `--scale`: fraction of the paper's campaign sizes (default 0.05).
    pub scale: f64,
    /// `--seed` (default 20220707).
    pub seed: u64,
    /// `--out`: the output directory.
    pub out: PathBuf,
    /// `--parallelism` (default: all cores).
    pub parallelism: usize,
    /// `--metrics`: also write `BENCH_metrics.json`.
    pub metrics: bool,
    /// `--baseline`: a previous `BENCH_metrics.json` to diff against.
    pub baseline: Option<PathBuf>,
    /// `--wall-ratio` / `--wall-floor` of the baseline diff.
    pub diff_options: DiffOptions,
}

impl CommonArgs {
    /// Fault-free [`RunOptions`] at this run's scale, seed and
    /// parallelism.
    pub fn run_options(&self) -> RunOptions {
        RunOptions::new(self.scale, self.seed, self.parallelism)
    }
}

/// Parse `args` (program name excluded). The shared flags fill a
/// [`CommonArgs`] whose `--out` defaults to `default_out`; any other flag
/// goes to `own(flag, value)`, which pulls the flag's value through
/// `value` and returns `Ok(false)` for a flag it does not know. `--help`
/// answers with `usage`, and every usage error ends with it.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    usage: &str,
    default_out: &str,
    mut own: impl FnMut(&str, &mut dyn FnMut() -> Result<String, CliError>) -> Result<bool, CliError>,
) -> Result<CommonArgs, CliError> {
    let mut a = CommonArgs {
        scale: 0.05,
        seed: 20220707,
        out: PathBuf::from(default_out),
        parallelism: st_datagen::par::default_parallelism(),
        metrics: false,
        baseline: None,
        diff_options: DiffOptions::default(),
    };
    let mut it = args.into_iter();
    let mut parse = || -> Result<(), CliError> {
        while let Some(flag) = it.next() {
            let mut value = || next_value(&mut it, &flag);
            match flag.as_str() {
                "--scale" => a.scale = parse_scale(&flag, &value()?)?,
                "--seed" => a.seed = parse_u64(&flag, &value()?)?,
                "--out" => a.out = PathBuf::from(value()?),
                "--parallelism" => a.parallelism = parse_at_least_one(&flag, &value()?)?,
                "--metrics" => a.metrics = true,
                "--baseline" => a.baseline = Some(PathBuf::from(value()?)),
                "--wall-ratio" => {
                    a.diff_options.wall_ratio = parse_float_min(&flag, &value()?, 1.0)?;
                }
                "--wall-floor" => {
                    a.diff_options.wall_floor_s = parse_float_min(&flag, &value()?, 0.0)?;
                }
                "--help" | "-h" => return Err(CliError::Help(usage.to_string())),
                other => {
                    if !own(other, &mut value)? {
                        return Err(CliError::Usage(format!("unknown flag {other}")));
                    }
                }
            }
        }
        Ok(())
    };
    match parse() {
        Ok(()) => Ok(a),
        Err(CliError::Usage(msg)) => Err(CliError::Usage(format!("{msg}\n{usage}"))),
        Err(help) => Err(help),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in ["--chunk-rows", "--seal-rows", "--epoch-rows", "--parallelism"] {
            match parse_at_least_one(flag, "0") {
                Err(CliError::Usage(msg)) => assert!(msg.contains(flag), "{msg}"),
                other => panic!("{flag} 0 must be a usage error, got {other:?}"),
            }
        }
        assert_eq!(parse_at_least_one("--chunk-rows", "500"), Ok(500));
    }

    #[test]
    fn scale_bounds_and_garbage_are_usage_errors() {
        assert!(parse_scale("--scale", "0.05").is_ok());
        assert!(parse_scale("--scale", "1.0").is_ok());
        for bad in ["0", "1.5", "-0.1", "NaN", "banana"] {
            assert!(
                matches!(parse_scale("--scale", bad), Err(CliError::Usage(_))),
                "--scale {bad} must be rejected"
            );
        }
    }

    #[test]
    fn missing_values_and_floats_are_validated() {
        let mut empty = std::iter::empty::<String>();
        assert!(matches!(next_value(&mut empty, "--seed"), Err(CliError::Usage(_))));
        let mut one = ["7".to_string()].into_iter();
        assert_eq!(next_value(&mut one, "--seed").unwrap(), "7");
        assert_eq!(parse_u64("--seed", "7"), Ok(7));
        assert!(matches!(parse_float_min("--wall-ratio", "0.5", 1.0), Err(CliError::Usage(_))));
        assert!(matches!(parse_float_min("--wall-ratio", "NaN", 1.0), Err(CliError::Usage(_))));
        assert_eq!(parse_float_min("--wall-ratio", "1.25", 1.0), Ok(1.25));
        assert_eq!(parse_count("--linger", "0"), Ok(0));
    }

    fn parse(args: &[&str]) -> Result<(CommonArgs, Vec<String>), CliError> {
        let mut seen = Vec::new();
        let common =
            parse_args(args.iter().map(|a| a.to_string()), "usage: t", "t-out", |f, v| {
                if f != "--own" {
                    return Ok(false);
                }
                seen.push(v()?);
                Ok(true)
            })?;
        Ok((common, seen))
    }

    #[test]
    fn shared_flags_parse_and_the_rest_go_to_the_binary() {
        let (a, own) = parse(&["--scale", "0.004", "--own", "x", "--parallelism", "3"]).unwrap();
        assert_eq!((a.scale, a.seed, a.parallelism), (0.004, 20220707, 3));
        assert_eq!(a.out, PathBuf::from("t-out"));
        assert!(!a.metrics && a.baseline.is_none());
        assert_eq!(own, ["x"]);
        let (a, _) = parse(&["--metrics", "--baseline", "b.json", "--wall-ratio", "1.5"]).unwrap();
        assert!(a.metrics);
        assert_eq!(a.baseline, Some(PathBuf::from("b.json")));
        assert_eq!(a.diff_options.wall_ratio, 1.5);
    }

    #[test]
    fn usage_errors_carry_the_usage_and_help_is_not_an_error() {
        for bad in [&["--bogus"][..], &["--scale", "0"], &["--parallelism", "0"], &["--own"]] {
            match parse(bad) {
                Err(CliError::Usage(msg)) => assert!(msg.ends_with("\nusage: t"), "{bad:?}: {msg}"),
                other => panic!("{bad:?} must be a usage error, got {other:?}"),
            }
        }
        assert_eq!(parse(&["--help"]).unwrap_err(), CliError::Help("usage: t".into()));
    }
}
