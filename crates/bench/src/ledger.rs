//! Append-only run ledger: one JSON line per completed `repro` run.
//!
//! The `repro` binary appends a [`LedgerRow`] to `BENCH_ledger.jsonl`
//! after every run (DESIGN.md §14), so a working directory accumulates a
//! queryable history: schema version, run knobs (scale, seed,
//! parallelism), an FNV-1a hash of the artifact set, headline counters,
//! and the per-stage wall-clock durations. The file is JSON Lines —
//! append-only, one self-contained object per line — so concurrent
//! tooling can `tail` it and a truncated final line (crash mid-append)
//! never corrupts the rows before it.
//!
//! The artifact hash uses the same FNV-1a scheme as the golden-identity
//! test ([`fnv1a`] over the sorted `<id>.svg`/`<id>.json` file set, name
//! bytes then content bytes), so a ledger row's hash can be compared
//! directly against the pinned golden value: two rows with equal
//! `artifact_hash` produced byte-identical artifact sets.

use crate::diff::{diff_metrics, DiffOptions, MetricsDoc};
use crate::{Artifact, ReproReport};
use serde::Serialize;
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema tag stamped on every row.
pub const LEDGER_SCHEMA: &str = "st-ledger/v1";

/// Schema tag stamped on every `wire-load` campaign row.
pub const LOAD_LEDGER_SCHEMA: &str = "st-load/v1";

/// Schema tag stamped on every `ingest` replay row.
pub const INGEST_LEDGER_SCHEMA: &str = "st-ingest/v1";

/// Schema tag stamped on every `serve` run row.
pub const SERVE_LEDGER_SCHEMA: &str = "st-serve/v1";

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

/// One run's summary row. Everything except the four stage durations is
/// deterministic for a given (code, scale, seed, fault-injection)
/// tuple — `artifact_hash` in particular is parallelism-invariant.
#[derive(Debug, Clone, Serialize)]
pub struct LedgerRow {
    /// Row schema tag ([`LEDGER_SCHEMA`]).
    pub schema: String,
    /// The run's `--scale`.
    pub scale: f64,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--parallelism`.
    pub parallelism: usize,
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
    /// Wall-clock seconds of the fit stage.
    pub fit_s: f64,
    /// Wall-clock seconds of the derive stage.
    pub derive_s: f64,
    /// Wall-clock seconds of the render stage.
    pub render_s: f64,
}

/// Schemas the read side accepts: every batch-comparable row kind.
/// (`st-load/v1` rows hash a metrics section instead of an artifact set
/// and are deliberately absent — they have no drift surface here.)
pub const BATCH_COMPARABLE_SCHEMAS: &[&str] =
    &[LEDGER_SCHEMA, INGEST_LEDGER_SCHEMA, SERVE_LEDGER_SCHEMA];

impl LedgerRow {
    /// Parse one ledger line back into the batch-comparable field set —
    /// the console's read side. Accepts every schema in
    /// [`BATCH_COMPARABLE_SCHEMAS`] (ingest and serve rows are supersets
    /// of the batch row; the extra fields are dropped, the actual
    /// schema tag is kept) and rejects `st-load/v1` rows and unknown
    /// schemas with a typed message.
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
        if schema == LOAD_LEDGER_SCHEMA {
            return Err(format!(
                "{schema} rows carry a metrics hash, not an artifact set — not batch-comparable"
            ));
        }
        if !BATCH_COMPARABLE_SCHEMAS.contains(&schema) {
            return Err(format!("unknown ledger schema {schema:?}"));
        }
        let u64f = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{schema} row is missing u64 `{k}`"))
        };
        let f64f = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64_lossy)
                .ok_or_else(|| format!("{schema} row is missing number `{k}`"))
        };
        let hash = v
            .get("artifact_hash")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{schema} row is missing string `artifact_hash`"))?;
        Ok(LedgerRow {
            schema: schema.to_string(),
            scale: f64f("scale")?,
            seed: u64f("seed")?,
            parallelism: u64f("parallelism")? as usize,
            artifact_hash: hash.to_string(),
            artifact_files: u64f("artifact_files")? as usize,
            artifacts: u64f("artifacts")? as usize,
            headlines: u64f("headlines")? as usize,
            jobs_failed: u64f("jobs_failed")? as usize,
            jobs_retried: u64f("jobs_retried")? as usize,
            records_clean: u64f("records_clean")?,
            records_repaired: u64f("records_repaired")?,
            records_quarantined: u64f("records_quarantined")?,
            generate_s: f64f("generate_s")?,
            fit_s: f64f("fit_s")?,
            derive_s: f64f("derive_s")?,
            render_s: f64f("render_s")?,
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
    /// and the artifact hash. The schema tag and `parallelism` are
    /// exempt — comparing a serve run against a batch baseline across
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
            if d.section == "schema" {
                continue;
            }
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

    /// Summarize one completed run.
    pub fn from_report(report: &ReproReport, parallelism: usize) -> LedgerRow {
        let (hash, files) = artifact_hash(&report.artifacts);
        let s = &report.health.sanitize;
        LedgerRow {
            schema: LEDGER_SCHEMA.to_string(),
            scale: report.scale,
            seed: report.seed,
            parallelism,
            artifact_hash: format!("{hash:016x}"),
            artifact_files: files,
            artifacts: report.artifacts.len(),
            headlines: report.headlines.len(),
            jobs_failed: report.health.jobs_failed,
            jobs_retried: report.health.jobs_retried,
            records_clean: s.clean,
            records_repaired: s.repaired,
            records_quarantined: s.quarantined,
            generate_s: report.timings.generate_s,
            fit_s: report.timings.fit_s,
            derive_s: report.timings.derive_s,
            render_s: report.timings.render_s,
        }
    }
}

/// One incremental-ingest replay's summary row (schema
/// [`INGEST_LEDGER_SCHEMA`]). `artifact_hash` uses the same FNV-1a scheme
/// as [`LedgerRow`], so an ingest row can be compared field-for-field
/// against a batch row: equal hashes mean the chunked replay reproduced
/// the batch artifact set byte for byte. Chunk counts and segment counts
/// are deterministic for a given (code, scale, seed, chunk plan) tuple;
/// the stage durations and `rows_per_s` are wall-clock class.
#[derive(Debug, Clone, Serialize)]
pub struct IngestLedgerRow {
    /// Row schema tag ([`INGEST_LEDGER_SCHEMA`]).
    pub schema: String,
    /// The run's `--scale`.
    pub scale: f64,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--parallelism`.
    pub parallelism: usize,
    /// Rows per replayed chunk (`--chunk-rows`).
    pub chunk_rows: usize,
    /// Sealed-segment size threshold (`--seal-rows`).
    pub seal_rows: usize,
    /// Chunks appended across all campaign streams.
    pub chunks: u64,
    /// Rows offered to the incremental sanitizer.
    pub rows: u64,
    /// Sealed segments across all stores after freeze.
    pub segments: u64,
    /// FNV-1a hash of the artifact file set, as 16 hex digits —
    /// comparable against batch rows and the pinned golden value.
    pub artifact_hash: String,
    /// Files in the hashed artifact set.
    pub artifact_files: usize,
    /// Artifacts produced (placeholders included).
    pub artifacts: usize,
    /// Headline numbers produced.
    pub headlines: usize,
    /// Render jobs that failed both attempts.
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
    /// Wall-clock seconds of the ingest stage (chunk replay + freeze).
    pub ingest_s: f64,
    /// Wall-clock seconds of the fit stage.
    pub fit_s: f64,
    /// Wall-clock seconds of the derive stage.
    pub derive_s: f64,
    /// Wall-clock seconds of the render stage.
    pub render_s: f64,
    /// Ingest throughput, rows per wall-clock second (wall-clock class).
    pub rows_per_s: f64,
}

impl IngestLedgerRow {
    /// Summarize one completed ingest replay.
    pub fn from_report(
        report: &ReproReport,
        parallelism: usize,
        chunk_rows: usize,
        seal_rows: usize,
        ingest: &crate::ReplayStats,
    ) -> IngestLedgerRow {
        let (hash, files) = artifact_hash(&report.artifacts);
        let s = &report.health.sanitize;
        IngestLedgerRow {
            schema: INGEST_LEDGER_SCHEMA.to_string(),
            scale: report.scale,
            seed: report.seed,
            parallelism,
            chunk_rows,
            seal_rows,
            chunks: ingest.chunks,
            rows: ingest.rows,
            segments: ingest.segments,
            artifact_hash: format!("{hash:016x}"),
            artifact_files: files,
            artifacts: report.artifacts.len(),
            headlines: report.headlines.len(),
            jobs_failed: report.health.jobs_failed,
            jobs_retried: report.health.jobs_retried,
            records_clean: s.clean,
            records_repaired: s.repaired,
            records_quarantined: s.quarantined,
            generate_s: report.timings.generate_s,
            ingest_s: ingest.ingest_s,
            fit_s: report.timings.fit_s,
            derive_s: report.timings.derive_s,
            render_s: report.timings.render_s,
            rows_per_s: if ingest.ingest_s > 0.0 {
                ingest.rows as f64 / ingest.ingest_s
            } else {
                0.0
            },
        }
    }
}

/// One `serve` run's summary row (schema [`SERVE_LEDGER_SCHEMA`]).
/// `artifact_hash` uses the same FNV-1a scheme as every other row kind,
/// so a serve row is batch-comparable: equal hashes mean the service's
/// final epoch republished the batch artifact set byte for byte.
/// `chunks`, `rows`, `segments`, and `epochs` are deterministic for a
/// given (code, scale, seed, chunk plan, epoch size) tuple — epochs in
/// particular because boundary crossings telescope to
/// `floor(accepted / epoch_rows) + 1` regardless of interleave or
/// parallelism. The stage durations and `rows_per_s` (sustained ingest
/// throughput through the service path) are wall-clock class.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLedgerRow {
    /// Row schema tag ([`SERVE_LEDGER_SCHEMA`]).
    pub schema: String,
    /// The run's `--scale`.
    pub scale: f64,
    /// The run's `--seed`.
    pub seed: u64,
    /// The run's `--parallelism`.
    pub parallelism: usize,
    /// Rows per streamed chunk (`--chunk-rows`).
    pub chunk_rows: usize,
    /// Sealed-segment size threshold (`--seal-rows`).
    pub seal_rows: usize,
    /// Accepted rows per published epoch (`--epoch-rows`).
    pub epoch_rows: usize,
    /// Chunks streamed through the service.
    pub chunks: u64,
    /// Rows offered to the incremental sanitizer.
    pub rows: u64,
    /// Sealed segments across all frozen stores after drain.
    pub segments: u64,
    /// Epochs published (warm crossings plus the final epoch).
    pub epochs: u64,
    /// FNV-1a hash of the artifact file set, as 16 hex digits —
    /// comparable against batch and ingest rows and the pinned golden
    /// value.
    pub artifact_hash: String,
    /// Files in the hashed artifact set.
    pub artifact_files: usize,
    /// Artifacts produced (placeholders included).
    pub artifacts: usize,
    /// Headline numbers produced.
    pub headlines: usize,
    /// Render jobs that failed both attempts.
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
    /// Wall-clock seconds of the streaming stage (chunks + drain).
    pub ingest_s: f64,
    /// Wall-clock seconds of the fit stage.
    pub fit_s: f64,
    /// Wall-clock seconds of the derive stage.
    pub derive_s: f64,
    /// Wall-clock seconds of the render stage.
    pub render_s: f64,
    /// Sustained ingest throughput, rows per wall-clock second
    /// (wall-clock class).
    pub rows_per_s: f64,
}

impl ServeLedgerRow {
    /// Summarize one completed serve run. `epochs` should count the
    /// final epoch too (i.e. the value *after* `publish_final`).
    pub fn from_report(
        report: &ReproReport,
        parallelism: usize,
        chunk_rows: usize,
        seal_rows: usize,
        epoch_rows: usize,
        stats: &crate::ReplayStats,
        epochs: u64,
    ) -> ServeLedgerRow {
        let (hash, files) = artifact_hash(&report.artifacts);
        let s = &report.health.sanitize;
        ServeLedgerRow {
            schema: SERVE_LEDGER_SCHEMA.to_string(),
            scale: report.scale,
            seed: report.seed,
            parallelism,
            chunk_rows,
            seal_rows,
            epoch_rows,
            chunks: stats.chunks,
            rows: stats.rows,
            segments: stats.segments,
            epochs,
            artifact_hash: format!("{hash:016x}"),
            artifact_files: files,
            artifacts: report.artifacts.len(),
            headlines: report.headlines.len(),
            jobs_failed: report.health.jobs_failed,
            jobs_retried: report.health.jobs_retried,
            records_clean: s.clean,
            records_repaired: s.repaired,
            records_quarantined: s.quarantined,
            generate_s: report.timings.generate_s,
            ingest_s: stats.ingest_s,
            fit_s: report.timings.fit_s,
            derive_s: report.timings.derive_s,
            render_s: report.timings.render_s,
            rows_per_s: if stats.ingest_s > 0.0 { stats.rows as f64 / stats.ingest_s } else { 0.0 },
        }
    }
}

/// One `wire-load` campaign's summary row (schema [`LOAD_LEDGER_SCHEMA`]).
/// Every field up to `breaker_trips` is deterministic for a given
/// (code, sessions, seed, fault-rate, pool) tuple — `metrics_hash` in
/// particular is parallelism-invariant, which is what the `chaos-smoke`
/// CI job regression-gates on. The trailing means and `elapsed_s` are
/// wall-clock class.
#[derive(Debug, Clone, Serialize)]
pub struct LoadLedgerRow {
    /// Row schema tag ([`LOAD_LEDGER_SCHEMA`]).
    pub schema: String,
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
            schema: LOAD_LEDGER_SCHEMA.to_string(),
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
/// Accepts any serializable row type ([`LedgerRow`], [`LoadLedgerRow`]);
/// the `schema` field tells readers apart.
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

    /// Batch-comparable rows completed since the last poll. `st-load/v1`
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
            if v.get("schema").and_then(Value::as_str) == Some(LOAD_LEDGER_SCHEMA) {
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

    #[test]
    fn ledger_appends_one_parseable_line_per_row() {
        let dir = std::env::temp_dir().join(format!("st-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_ledger.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut row = LedgerRow {
            schema: LEDGER_SCHEMA.to_string(),
            scale: 0.004,
            seed: 2024,
            parallelism: 1,
            artifact_hash: format!("{:016x}", 0xabcdu64),
            artifact_files: 89,
            artifacts: 40,
            headlines: 12,
            jobs_failed: 0,
            jobs_retried: 0,
            records_clean: 1000,
            records_repaired: 0,
            records_quarantined: 0,
            generate_s: 1.0,
            fit_s: 2.0,
            derive_s: 0.1,
            render_s: 3.0,
        };
        append_ledger(&path, &row).expect("first append");
        row.parallelism = 4;
        append_ledger(&path, &row).expect("second append");

        let rows = read_ledger(&path).expect("ledger parses");
        assert_eq!(rows.len(), 2, "append-only: both rows survive");
        for r in &rows {
            assert_eq!(r.get("schema").and_then(Value::as_str), Some(LEDGER_SCHEMA));
            assert_eq!(r.get("artifact_files").and_then(Value::as_u64), Some(89));
        }
        assert_eq!(rows[0].get("parallelism").and_then(Value::as_u64), Some(1));
        assert_eq!(rows[1].get("parallelism").and_then(Value::as_u64), Some(4));
        let _ = std::fs::remove_file(&path);
    }

    fn sample_row() -> LedgerRow {
        LedgerRow {
            schema: LEDGER_SCHEMA.to_string(),
            scale: 0.004,
            seed: 2024,
            parallelism: 1,
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
            fit_s: 2.0,
            derive_s: 0.1,
            render_s: 3.0,
        }
    }

    #[test]
    fn parse_round_trips_every_batch_comparable_schema() {
        let mut row = sample_row();
        for schema in BATCH_COMPARABLE_SCHEMAS {
            row.schema = schema.to_string();
            let line = serde_json::to_string(&row).expect("row serializes");
            let back = LedgerRow::parse(&line).expect("row parses back");
            assert_eq!(back.schema, *schema, "the actual schema tag is kept");
            assert_eq!(back.seed, row.seed);
            assert_eq!(back.artifact_hash, row.artifact_hash);
            assert_eq!(back.records_clean, 1000);
        }
        // Superset rows (ingest/serve) parse down to the common subset:
        // extra fields are simply ignored.
        let line = format!(
            "{{\"schema\":\"{INGEST_LEDGER_SCHEMA}\",\"scale\":0.05,\"seed\":7,\
             \"parallelism\":4,\"chunk_rows\":500,\"seal_rows\":4096,\"chunks\":9,\
             \"rows\":100,\"segments\":2,\"artifact_hash\":\"00000000000000aa\",\
             \"artifact_files\":89,\"artifacts\":40,\"headlines\":12,\
             \"jobs_failed\":0,\"jobs_retried\":0,\"records_clean\":98,\
             \"records_repaired\":1,\"records_quarantined\":1,\"generate_s\":1.0,\
             \"ingest_s\":0.5,\"fit_s\":2.0,\"derive_s\":0.1,\"render_s\":3.0,\
             \"rows_per_s\":200.0}}"
        );
        let back = LedgerRow::parse(&line).expect("ingest row parses");
        assert_eq!(back.schema, INGEST_LEDGER_SCHEMA);
        assert_eq!(back.records_clean, 98);
    }

    #[test]
    fn parse_rejects_load_rows_unknown_schemas_and_torn_fields() {
        let load = format!("{{\"schema\":\"{LOAD_LEDGER_SCHEMA}\",\"seed\":1}}");
        assert!(LedgerRow::parse(&load).unwrap_err().contains("not batch-comparable"));
        assert!(LedgerRow::parse("{\"schema\":\"st-mystery/v9\"}")
            .unwrap_err()
            .contains("unknown ledger schema"));
        assert!(LedgerRow::parse("{\"seed\":1}").unwrap_err().contains("schema"));
        assert!(LedgerRow::parse("not json").unwrap_err().contains("bad ledger JSON"));
        // A known schema with missing fields names the first one it
        // needed (the hash is extracted before the counters).
        let torn = format!("{{\"schema\":\"{LEDGER_SCHEMA}\",\"scale\":0.004}}");
        assert!(LedgerRow::parse(&torn).unwrap_err().contains("artifact_hash"));
    }

    #[test]
    fn drift_flags_fire_on_divergence_and_stay_silent_across_run_kinds() {
        let baseline = sample_row();
        // Same deterministic surface, different run kind, different
        // parallelism, different timings: no drift.
        let mut serve = sample_row();
        serve.schema = SERVE_LEDGER_SCHEMA.to_string();
        serve.parallelism = 4;
        serve.render_s = 99.0;
        assert_eq!(serve.drift_against(&baseline), Vec::<String>::new());
        // Divergent counters, hash, and seed each produce a flag.
        let mut bad = sample_row();
        bad.seed = 2025;
        bad.records_quarantined = 7;
        bad.artifact_hash = format!("{:016x}", 0xbeefu64);
        let flags = bad.drift_against(&baseline);
        assert!(flags.iter().any(|f| f.starts_with("seed:")), "{flags:?}");
        assert!(flags.iter().any(|f| f.contains("ledger.records_quarantined")), "{flags:?}");
        assert!(flags.iter().any(|f| f.starts_with("artifact_hash:")), "{flags:?}");
    }

    #[test]
    fn tail_consumes_only_finished_lines_and_skips_load_rows() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("st-tail-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_ledger.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut tail = LedgerTail::new(&path);
        assert_eq!(tail.poll().expect("missing file is empty").len(), 0);

        append_ledger(&path, &sample_row()).expect("append");
        let rows = tail.poll().expect("first poll");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].seed, 2024);
        assert_eq!(tail.poll().expect("steady state").len(), 0, "no re-reads");

        // A load row shares the file and is skipped; a torn final line
        // (no newline yet) is not consumed until its writer finishes.
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("reopen ledger");
        writeln!(file, "{{\"schema\":\"{LOAD_LEDGER_SCHEMA}\",\"seed\":1}}").unwrap();
        let full = serde_json::to_string(&sample_row()).unwrap();
        let (head, rest) = full.split_at(10);
        write!(file, "{head}").unwrap();
        file.flush().unwrap();
        assert_eq!(tail.poll().expect("torn line poll").len(), 0);
        // Finish the torn line into a full row: now it arrives, once.
        writeln!(file, "{rest}").unwrap();
        drop(file);
        let rows = tail.poll().expect("completed line poll");
        assert_eq!(rows.len(), 1, "exactly the finished row, the load row skipped");
        let _ = std::fs::remove_file(&path);
    }
}
