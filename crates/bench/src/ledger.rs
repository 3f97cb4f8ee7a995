//! Append-only run ledger: one JSON line per completed run.
//!
//! Every run of `repro`, `ingest` or `serve` appends one [`LedgerRow`]
//! to `BENCH_ledger.jsonl` (DESIGN.md §14), so a working directory
//! accumulates a queryable history. There is one row type under one
//! schema tag ([`LEDGER_SCHEMA`]); its `mode` field names the binary
//! that wrote it. A row carries the run knobs (scale, seed,
//! parallelism, the chunk plan of an `ingest` or `serve` run), what the
//! ingest stage did, an FNV-1a hash of the artifact set, headline counters, the
//! per-stage wall-clock durations and the process's peak RSS. The file
//! is JSON Lines — append-only, one self-contained object per line — so
//! concurrent tooling can `tail` it and a truncated final line (crash
//! mid-append) never corrupts the rows before it.
//!
//! `wire-load` campaigns append a [`LoadLedgerRow`] to the same kind of
//! file, under the same tag with `mode: "wire-load"`. It hashes a
//! metrics section rather than an artifact set, so the read side
//! ([`LedgerRow::parse`], [`LedgerTail`]) rejects or skips it.
//!
//! The artifact hash uses the same FNV-1a scheme as the golden-identity
//! test ([`fnv1a`] over the sorted `<id>.svg`/`<id>.json` file set, name
//! bytes then content bytes), so a ledger row's hash can be compared
//! directly against the pinned golden value: two rows with equal
//! `artifact_hash` produced byte-identical artifact sets, whichever
//! binary wrote them.

use crate::diff::{diff_metrics, DiffOptions, MetricsDoc};
use crate::output::ChunkPlan;
use crate::{Artifact, Run};
use serde::Serialize;
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema tag stamped on every row.
pub const LEDGER_SCHEMA: &str = "st-ledger/v2";

/// The `mode` of a `wire-load` campaign row.
const LOAD_MODE: &str = "wire-load";

/// FNV-1a offset basis (matches the golden-identity test).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (matches the golden-identity test).
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into an FNV-1a hash state.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash an artifact set the way the golden-identity capture did: the
/// `<id>.svg` / `<id>.json` files the repro binary writes (`report.md`
/// and the BENCH_* records carry wall-clock values and are excluded),
/// sorted by file name, each folded as name bytes then content bytes.
/// Returns `(hash, file_count)`.
pub fn artifact_hash(artifacts: &[Artifact]) -> (u64, usize) {
    let mut files: Vec<(String, &str)> = Vec::new();
    for a in artifacts {
        if let Some(svg) = &a.svg {
            files.push((format!("{}.svg", a.id), svg));
        }
        files.push((format!("{}.json", a.id), &a.json));
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = FNV_OFFSET;
    for (name, body) in &files {
        h = fnv1a(name.as_bytes(), h);
        h = fnv1a(body.as_bytes(), h);
    }
    (h, files.len())
}

/// One run's summary row. Everything except the stage durations,
/// `rows_per_s` and `peak_rss_kib` is deterministic for a given (code,
/// mode, scale, seed, chunk plan, fault-injection) tuple —
/// `artifact_hash` in particular is parallelism-invariant, and equal
/// across modes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerRow {
    /// Row schema tag ([`LEDGER_SCHEMA`]).
    pub schema: String,
    /// The binary that wrote the row: `repro`, `ingest` or `serve`.
    pub mode: String,
    /// The run's `--scale`.
    pub scale: f64,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--parallelism`.
    pub parallelism: usize,
    /// Rows per replayed chunk (`--chunk-rows`); `ingest` and `serve`
    /// only (`repro` ingests one chunk per campaign).
    pub chunk_rows: Option<usize>,
    /// Sealed-segment size threshold (`--seal-rows`); `ingest` and
    /// `serve` only (`repro` seals one segment per store).
    pub seal_rows: Option<usize>,
    /// Accepted rows per published epoch (`--epoch-rows`); `serve` only.
    pub epoch_rows: Option<usize>,
    /// Chunks replayed across all campaign streams.
    pub chunks: u64,
    /// Rows offered to the incremental sanitizer.
    pub rows: u64,
    /// Sealed segments across all frozen stores.
    pub segments: u64,
    /// Epochs published, the final epoch included (`serve` only).
    /// Crossings telescope to `floor(accepted / epoch_rows) + 1`
    /// regardless of interleave or parallelism.
    pub epochs: u64,
    /// FNV-1a hash of the artifact file set, as 16 hex digits.
    pub artifact_hash: String,
    /// Files in the hashed artifact set.
    pub artifact_files: usize,
    /// Artifacts produced (placeholders included).
    pub artifacts: usize,
    /// Headline numbers produced.
    pub headlines: usize,
    /// Render jobs that failed both attempts (degraded placeholders).
    pub jobs_failed: usize,
    /// Render jobs that survived on their retry.
    pub jobs_retried: usize,
    /// Records the sanitizer passed through untouched.
    pub records_clean: u64,
    /// Records the sanitizer repaired.
    pub records_repaired: u64,
    /// Records the sanitizer quarantined.
    pub records_quarantined: u64,
    /// Wall-clock seconds of the generate stage.
    pub generate_s: f64,
    /// Wall-clock seconds of the ingest stage (replay + freeze/drain).
    pub ingest_s: f64,
    /// Wall-clock seconds of the fit stage.
    pub fit_s: f64,
    /// Wall-clock seconds of the derive stage.
    pub derive_s: f64,
    /// Wall-clock seconds of the render stage.
    pub render_s: f64,
    /// Ingest throughput, rows per wall-clock second.
    pub rows_per_s: f64,
    /// Peak resident set of the process in KiB (`VmHWM`), when the
    /// platform reports it.
    pub peak_rss_kib: Option<u64>,
}

impl LedgerRow {
    /// Summarize one completed run. `peak_rss_kib` is left `None`; the
    /// writer fills it in ([`crate::output::write_run`]).
    pub fn from_run(
        mode: &str,
        parallelism: usize,
        plan: Option<ChunkPlan>,
        run: &Run,
    ) -> LedgerRow {
        let report = &run.report;
        let (hash, files) = artifact_hash(&report.artifacts);
        let (s, t, r) = (&report.health.sanitize, &report.timings, &run.replay);
        LedgerRow {
            schema: LEDGER_SCHEMA.to_string(),
            mode: mode.to_string(),
            scale: report.scale,
            seed: report.seed,
            parallelism,
            chunk_rows: plan.map(|p| p.ingest.chunk_rows),
            seal_rows: plan.map(|p| p.ingest.seal_rows),
            epoch_rows: plan.and_then(|p| p.epoch_rows),
            chunks: r.chunks,
            rows: r.rows,
            segments: r.segments,
            epochs: r.epochs,
            artifact_hash: format!("{hash:016x}"),
            artifact_files: files,
            artifacts: report.artifacts.len(),
            headlines: report.headlines.len(),
            jobs_failed: report.health.jobs_failed,
            jobs_retried: report.health.jobs_retried,
            records_clean: s.clean,
            records_repaired: s.repaired,
            records_quarantined: s.quarantined,
            generate_s: t.generate_s,
            ingest_s: r.ingest_s,
            fit_s: t.fit_s,
            derive_s: t.derive_s,
            render_s: t.render_s,
            rows_per_s: r.rows_per_s(),
            peak_rss_kib: None,
        }
    }

    /// Parse one ledger line back into the row that wrote it — the
    /// console's read side. Rejects `wire-load` rows and any schema
    /// tag other than [`LEDGER_SCHEMA`] with a typed message.
    pub fn parse(line: &str) -> Result<LedgerRow, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("bad ledger JSON: {e}"))?;
        LedgerRow::from_value(&v)
    }

    /// [`LedgerRow::parse`] over an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<LedgerRow, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "ledger row has no string `schema` tag".to_string())?;
        if schema != LEDGER_SCHEMA {
            return Err(format!("unknown ledger schema {schema:?}"));
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("ledger row is missing `{k}`"));
        let typed = |k: &str, what: &str| format!("ledger row field `{k}` is not {what}");
        let string =
            |k: &str| field(k)?.as_str().map(str::to_string).ok_or_else(|| typed(k, "a string"));
        let u64f = |k: &str| field(k)?.as_u64().ok_or_else(|| typed(k, "a u64"));
        let f64f = |k: &str| field(k)?.as_f64_lossy().ok_or_else(|| typed(k, "a number"));
        let opt = |k: &str| match v.get(k) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x.as_u64().map(Some).ok_or_else(|| typed(k, "a u64 or null")),
        };
        let mode = string("mode")?;
        if mode == LOAD_MODE {
            return Err(format!(
                "{mode} rows carry a metrics hash, not an artifact set — not batch-comparable"
            ));
        }
        Ok(LedgerRow {
            schema: schema.to_string(),
            mode,
            scale: f64f("scale")?,
            seed: u64f("seed")?,
            parallelism: u64f("parallelism")? as usize,
            chunk_rows: opt("chunk_rows")?.map(|n| n as usize),
            seal_rows: opt("seal_rows")?.map(|n| n as usize),
            epoch_rows: opt("epoch_rows")?.map(|n| n as usize),
            chunks: u64f("chunks")?,
            rows: u64f("rows")?,
            segments: u64f("segments")?,
            epochs: u64f("epochs")?,
            artifact_hash: string("artifact_hash")?,
            artifact_files: u64f("artifact_files")? as usize,
            artifacts: u64f("artifacts")? as usize,
            headlines: u64f("headlines")? as usize,
            jobs_failed: u64f("jobs_failed")? as usize,
            jobs_retried: u64f("jobs_retried")? as usize,
            records_clean: u64f("records_clean")?,
            records_repaired: u64f("records_repaired")?,
            records_quarantined: u64f("records_quarantined")?,
            generate_s: f64f("generate_s")?,
            ingest_s: f64f("ingest_s")?,
            fit_s: f64f("fit_s")?,
            derive_s: f64f("derive_s")?,
            render_s: f64f("render_s")?,
            rows_per_s: f64f("rows_per_s")?,
            peak_rss_kib: opt("peak_rss_kib")?,
        })
    }

    /// The row's deterministic fields as a [`MetricsDoc`], so ledger
    /// rows ride the exact-comparison machinery `obs-diff` uses: the
    /// batch-comparable counters become counters, the scale becomes a
    /// gauge, and the stage durations stay out (wall-clock class).
    pub fn deterministic_doc(&self) -> MetricsDoc {
        let mut doc = MetricsDoc {
            schema: self.schema.clone(),
            scale: Some(self.scale),
            seed: Some(self.seed),
            parallelism: Some(self.parallelism as u64),
            ..MetricsDoc::default()
        };
        for (key, value) in [
            ("ledger.artifacts", self.artifacts as u64),
            ("ledger.headlines", self.headlines as u64),
            ("ledger.jobs_failed", self.jobs_failed as u64),
            ("ledger.jobs_retried", self.jobs_retried as u64),
            ("ledger.records_clean", self.records_clean),
            ("ledger.records_repaired", self.records_repaired),
            ("ledger.records_quarantined", self.records_quarantined),
            ("ledger.artifact_files", self.artifact_files as u64),
        ] {
            doc.counters.insert(key.to_string(), value);
        }
        doc.gauges.insert("ledger.scale".to_string(), self.scale);
        doc
    }

    /// Drift flags for this row against a baseline row, one line per
    /// divergent key. Empty means the runs are batch-identical where
    /// the determinism contract requires it: seed, the counter surface,
    /// and the artifact hash. `mode` and `parallelism` are exempt —
    /// comparing a serve run against a batch baseline across
    /// parallelism levels is exactly the console's job.
    pub fn drift_against(&self, baseline: &LedgerRow) -> Vec<String> {
        let mut flags = Vec::new();
        if self.seed != baseline.seed {
            flags.push(format!("seed: {} -> {}", baseline.seed, self.seed));
        }
        let diff = diff_metrics(
            &baseline.deterministic_doc(),
            &self.deterministic_doc(),
            DiffOptions::default(),
        );
        for d in &diff.drift {
            flags.push(format!("{} {}: {}", d.section, d.key, d.detail));
        }
        if self.artifact_hash != baseline.artifact_hash {
            flags.push(format!(
                "artifact_hash: {} -> {}",
                baseline.artifact_hash, self.artifact_hash
            ));
        }
        flags
    }
}

/// The process's peak resident set in KiB, from `/proc/self/status`;
/// `None` where that file or its `VmHWM` line is missing or malformed.
pub fn peak_rss_kib() -> Option<u64> {
    vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM:  1234 kB` line of a `/proc/<pid>/status` text, in KiB.
fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        [kib, "kB"] => kib.parse().ok(),
        _ => None,
    }
}

/// One `wire-load` campaign's summary row ([`LEDGER_SCHEMA`], mode
/// `wire-load`).
/// Every field up to `breaker_trips` is deterministic for a given
/// (code, sessions, seed, fault-rate, pool) tuple — `metrics_hash` in
/// particular is parallelism-invariant, which is what the `chaos-smoke`
/// CI job regression-gates on. The trailing means and `elapsed_s` are
/// wall-clock class.
#[derive(Debug, Clone, Serialize)]
pub struct LoadLedgerRow {
    /// Row schema tag ([`LEDGER_SCHEMA`]).
    pub schema: String,
    /// Always `wire-load`.
    pub mode: String,
    /// The campaign's `--seed` (fault schedule + backoff jitter).
    pub seed: u64,
    /// The campaign's `--fault-rate`.
    pub fault_rate: f64,
    /// Sessions driven.
    pub sessions: u64,
    /// Servers in the shaped pool.
    pub pool: usize,
    /// The campaign's `--parallelism` (documentation only: nothing
    /// deterministic may depend on it).
    pub parallelism: usize,
    /// FNV-1a of the deterministic metrics JSON, as 16 hex digits: two
    /// rows with equal hashes saw byte-identical deterministic sections.
    pub metrics_hash: String,
    /// Planned healthy completions.
    pub sessions_ok: u64,
    /// Planned retried completions.
    pub sessions_retried: u64,
    /// Planned degraded completions.
    pub sessions_degraded: u64,
    /// Planned abandonments.
    pub sessions_abandoned: u64,
    /// Breaker-skipped sessions.
    pub sessions_skipped: u64,
    /// Breaker trips summed over endpoints.
    pub breaker_trips: u64,
    /// Sessions whose actual fate diverged from the plan (wall-clock
    /// class; 0 on a healthy host).
    pub unexpected_outcomes: u64,
    /// True when no session completed (the NaN-free empty marker).
    pub degraded: bool,
    /// Mean download over completed sessions, Mbps.
    pub mean_down_mbps: f64,
    /// Mean RTT over completed sessions, milliseconds.
    pub mean_latency_ms: f64,
    /// Mean streaming score over completed sessions.
    pub mean_streaming: f64,
    /// Mean gaming score over completed sessions.
    pub mean_gaming: f64,
    /// Mean conferencing score over completed sessions.
    pub mean_conferencing: f64,
    /// Campaign wall time, seconds.
    pub elapsed_s: f64,
}

impl LoadLedgerRow {
    /// Summarize one completed campaign. `deterministic_json` is the
    /// registry snapshot's exact-compare section, hashed with the same
    /// FNV-1a scheme as artifact sets.
    pub fn from_summary(
        summary: &st_speedtest::LoadSummary,
        deterministic_json: &str,
        seed: u64,
        fault_rate: f64,
        pool: usize,
        parallelism: usize,
    ) -> LoadLedgerRow {
        LoadLedgerRow {
            schema: LEDGER_SCHEMA.to_string(),
            mode: LOAD_MODE.to_string(),
            seed,
            fault_rate,
            sessions: summary.sessions_total,
            pool,
            parallelism,
            metrics_hash: format!("{:016x}", fnv1a(deterministic_json.as_bytes(), FNV_OFFSET)),
            sessions_ok: summary.sessions_ok,
            sessions_retried: summary.sessions_retried,
            sessions_degraded: summary.sessions_degraded,
            sessions_abandoned: summary.sessions_abandoned,
            sessions_skipped: summary.sessions_skipped,
            breaker_trips: summary.breaker_trips,
            unexpected_outcomes: summary.unexpected_outcomes,
            degraded: summary.degraded,
            mean_down_mbps: summary.mean_down_mbps,
            mean_latency_ms: summary.mean_latency_ms,
            mean_streaming: summary.mean_streaming,
            mean_gaming: summary.mean_gaming,
            mean_conferencing: summary.mean_conferencing,
            elapsed_s: summary.elapsed_s,
        }
    }
}

/// Append one row to the JSON Lines ledger at `path`, creating the file
/// on first use. Strictly append-only: existing rows are never touched.
/// Accepts either row type ([`LedgerRow`], [`LoadLedgerRow`]); the
/// `mode` field tells readers apart.
pub fn append_ledger<T: Serialize>(path: &Path, row: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(row)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{json}")
}

/// Read every row of a ledger back as parsed JSON values, newest last.
/// Blank lines are skipped; a malformed line is an error naming its
/// 1-based line number.
pub fn read_ledger(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = serde_json::from_str(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        rows.push(row);
    }
    Ok(rows)
}

/// Incremental reader over a live ledger file: remembers its byte
/// offset between polls and consumes only newline-terminated lines,
/// matching [`append_ledger`]'s crash contract — a torn final line is
/// not yet a row and will be re-read once its writer finishes it. The
/// file not existing yet is an empty poll, not an error, so a console
/// can attach before the first run completes.
pub struct LedgerTail {
    path: PathBuf,
    offset: u64,
}

impl LedgerTail {
    /// Tail the ledger at `path` from its beginning.
    pub fn new(path: impl Into<PathBuf>) -> LedgerTail {
        LedgerTail { path: path.into(), offset: 0 }
    }

    /// The ledger file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Batch-comparable rows completed since the last poll. `wire-load`
    /// rows share the file but have no artifact surface, so they are
    /// skipped rather than errors; any other unparseable row is an
    /// error naming the file. A file that shrank (rotation) restarts
    /// the tail from the top.
    pub fn poll(&mut self) -> Result<Vec<LedgerRow>, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot open {}: {e}", self.path.display())),
        };
        let err = |e: std::io::Error| format!("cannot read {}: {e}", self.path.display());
        if file.metadata().map_err(err)?.len() < self.offset {
            self.offset = 0;
        }
        file.seek(SeekFrom::Start(self.offset)).map_err(err)?;
        let mut buf = String::new();
        file.read_to_string(&mut buf).map_err(err)?;
        let mut rows = Vec::new();
        let mut consumed = 0usize;
        while let Some(nl) = buf[consumed..].find('\n') {
            let line = buf[consumed..consumed + nl].trim();
            consumed += nl + 1;
            if line.is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| format!("{}: bad ledger row: {e}", self.path.display()))?;
            if v.get("mode").and_then(Value::as_str) == Some(LOAD_MODE) {
                continue;
            }
            rows.push(LedgerRow::from_value(&v)?);
        }
        self.offset += consumed as u64;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(id: &str, svg: Option<&str>, json: &str) -> Artifact {
        Artifact {
            id: id.to_string(),
            text: String::new(),
            svg: svg.map(|s| s.to_string()),
            json: json.to_string(),
        }
    }

    #[test]
    fn artifact_hash_is_order_invariant_and_content_sensitive() {
        let a = art("fig01", Some("<svg/>"), "{}");
        let b = art("table1", None, "{\"rows\":1}");
        let fwd = artifact_hash(&[a.clone(), b.clone()]);
        let rev = artifact_hash(&[b.clone(), a.clone()]);
        assert_eq!(fwd, rev, "hash must sort by file name, not input order");
        assert_eq!(fwd.1, 3, "fig01.svg + fig01.json + table1.json");
        let mut changed = a.clone();
        changed.json = "{\"rows\":2}".to_string();
        assert_ne!(artifact_hash(&[changed, b]).0, fwd.0);
    }

    /// A row of `mode` as its binary would write it.
    fn row(mode: &str) -> LedgerRow {
        let replay = mode != "repro";
        LedgerRow {
            schema: LEDGER_SCHEMA.to_string(),
            mode: mode.to_string(),
            scale: 0.004,
            seed: 2024,
            parallelism: 1,
            chunk_rows: replay.then_some(500),
            seal_rows: replay.then_some(2048),
            epoch_rows: (mode == "serve").then_some(1500),
            chunks: if replay { 9 } else { 0 },
            rows: if replay { 4150 } else { 0 },
            segments: if replay { 14 } else { 0 },
            epochs: if mode == "serve" { 3 } else { 0 },
            artifact_hash: format!("{:016x}", 0xabcdu64),
            artifact_files: 89,
            artifacts: 40,
            headlines: 12,
            jobs_failed: 0,
            jobs_retried: 0,
            records_clean: 1000,
            records_repaired: 3,
            records_quarantined: 2,
            generate_s: 1.0,
            ingest_s: if replay { 0.5 } else { 0.0 },
            fit_s: 2.0,
            derive_s: 0.1,
            render_s: 3.0,
            rows_per_s: if replay { 8300.0 } else { 0.0 },
            peak_rss_kib: (mode != "ingest").then_some(43_210),
        }
    }

    fn temp_ledger(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("st-ledger-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn every_mode_round_trips_through_the_tail_and_load_rows_are_skipped() {
        let path = temp_ledger("modes");
        let mut tail = LedgerTail::new(&path);
        assert_eq!(tail.poll().expect("missing file is empty"), vec![]);
        for mode in ["repro", "ingest", "serve"] {
            append_ledger(&path, &row(mode)).expect("append");
            let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(file, "{{\"schema\":\"{LEDGER_SCHEMA}\",\"mode\":\"{LOAD_MODE}\"}}").unwrap();
        }
        let rows = tail.poll().expect("poll");
        assert_eq!(rows, vec![row("repro"), row("ingest"), row("serve")]);
        assert_eq!(tail.poll().expect("steady state"), vec![], "no re-reads");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_rejects_load_rows_retired_and_unknown_schemas_and_torn_fields() {
        let load = format!("{{\"schema\":\"{LEDGER_SCHEMA}\",\"mode\":\"{LOAD_MODE}\"}}");
        assert!(LedgerRow::parse(&load).unwrap_err().contains("not batch-comparable"));
        // The retired v1 tags (batch and serve rows) and a made-up one.
        for schema in ["ledger/v1", "serve/v1", "mystery/v9"].map(|tag| format!("st-{tag}")) {
            let line = serde_json::to_string(&LedgerRow { schema, ..row("serve") }).unwrap();
            let err = LedgerRow::parse(&line).unwrap_err();
            assert!(err.contains("unknown ledger schema"), "{line}: {err}");
        }
        assert!(LedgerRow::parse("{\"seed\":1}").unwrap_err().contains("schema"));
        assert!(LedgerRow::parse("not json").unwrap_err().contains("bad ledger JSON"));
        let torn = format!("{{\"schema\":\"{LEDGER_SCHEMA}\",\"mode\":\"repro\",\"scale\":0.004}}");
        assert!(LedgerRow::parse(&torn).unwrap_err().contains("`seed`"));
    }

    #[test]
    fn drift_flags_fire_on_divergence_and_a_serve_row_matches_a_repro_row() {
        let baseline = row("repro");
        // Same deterministic surface, different mode, parallelism and
        // timings: no drift.
        let serve = LedgerRow { parallelism: 4, render_s: 99.0, ..row("serve") };
        assert_eq!(serve.drift_against(&baseline), Vec::<String>::new());
        // Divergent counters, hash, and seed each produce a flag.
        let bad = LedgerRow {
            seed: 2025,
            records_quarantined: 7,
            artifact_hash: format!("{:016x}", 0xbeefu64),
            ..row("repro")
        };
        let flags = bad.drift_against(&baseline);
        assert!(flags.iter().any(|f| f.starts_with("seed:")), "{flags:?}");
        assert!(flags.iter().any(|f| f.contains("ledger.records_quarantined")), "{flags:?}");
        assert!(flags.iter().any(|f| f.starts_with("artifact_hash:")), "{flags:?}");
    }

    #[test]
    fn tail_consumes_only_finished_lines() {
        use std::io::Write as _;
        let path = temp_ledger("torn");
        let mut tail = LedgerTail::new(&path);
        let full = serde_json::to_string(&row("repro")).unwrap();
        let (head, rest) = full.split_at(10);
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(&path).expect("ledger");
        write!(file, "{head}").unwrap();
        file.flush().unwrap();
        assert_eq!(tail.poll().expect("torn line poll"), vec![]);
        // Finish the torn line into a full row: now it arrives, once.
        writeln!(file, "{rest}").unwrap();
        drop(file);
        assert_eq!(tail.poll().expect("completed line poll"), vec![row("repro")]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vm_hwm_parses_the_status_line_or_nothing() {
        let status = "Name:\trepro\nVmPeak:\t  99 kB\nVmHWM:\t   43210 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(43_210));
        assert_eq!(vm_hwm_kib("Name:\trepro\nVmRSS:\t 1 kB\n"), None, "missing line");
        for garbage in
            ["VmHWM:", "VmHWM:\tlots kB", "VmHWM:\t12 MB", "VmHWM: 1 kB 2", "\u{0}\u{ff}"]
        {
            assert_eq!(vm_hwm_kib(garbage), None, "{garbage:?}");
        }
    }
}
