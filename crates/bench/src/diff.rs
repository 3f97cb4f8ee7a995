//! Run-over-run regression diffing of `BENCH_metrics.json` snapshots
//! (DESIGN.md §14).
//!
//! [`MetricsDoc::parse`] loads a snapshot written by `repro --metrics`;
//! [`diff_metrics`] compares two documents under the two-class metric
//! contract of DESIGN.md §13:
//!
//! * The **deterministic** class (counters, gauges, histograms, series,
//!   plus the schema tag) must match **exactly**. Any difference is
//!   drift, rendered as a per-key drill-down (`old -> new`, first
//!   divergent bucket/index, changed histogram fields and quantiles).
//! * The **wall-clock** class (span durations) is compared by ratio
//!   against a configurable tolerance with a noise floor. Exceedances
//!   are *warnings*: they never make a comparison fail, because span
//!   timings legitimately move with load, parallelism, and hardware.
//!
//! Span *keys* also live outside the strict contract: a span path that
//! exists on only one side is reported with the wall-clock warnings, not
//! as drift, so that comparing a `--parallelism 1` run against a
//! `--parallelism 4` run stays clean.
//!
//! Both the `obs-diff` binary and `repro --baseline` sit on this module;
//! they exit zero exactly when [`MetricsDiff::deterministic_match`]
//! holds.
//!
//! Float semantics: the snapshot serializer writes every non-finite
//! value as JSON `null` and the parser reads `null` back as NaN, so the
//! diff compares the *serialized* view of the metrics. Two NaNs compare
//! equal here — they are the same byte sequence on disk.

use serde_json::Value;
use st_obs::Histogram;
use std::collections::BTreeMap;

/// Wall-clock statistics of one span path, as stored in the snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanDoc {
    /// Times the span was entered.
    pub count: u64,
    /// Total seconds across entries.
    pub total_s: f64,
}

/// A parsed `BENCH_metrics.json` document. `schema` and the four
/// deterministic maps are the strict-comparison surface; `scale`, `seed`
/// and `parallelism` are informational header fields (absent in
/// snapshots produced by [`st_obs::MetricsSnapshot::to_json`], which has
/// no run header); `spans` is the wall-clock class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    /// Snapshot schema tag ("st-obs/v1").
    pub schema: String,
    /// The run's `--scale`, when the snapshot carries a run header.
    pub scale: Option<f64>,
    /// The run's `--seed`, when present.
    pub seed: Option<u64>,
    /// The run's `--parallelism`, when present.
    pub parallelism: Option<u64>,
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Deterministic fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Deterministic ordered series.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Wall-clock span statistics.
    pub spans: BTreeMap<String, SpanDoc>,
}

/// NaN-tolerant float equality: non-finite values round-trip through the
/// snapshot as `null`/NaN, so NaN == NaN here.
fn feq(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn fmt_f(v: f64) -> String {
    if v.is_nan() {
        "null".to_string()
    } else {
        format!("{v}")
    }
}

fn fmt_q(q: Option<f64>) -> String {
    q.map(fmt_f).unwrap_or_else(|| "-".to_string())
}

fn parse_f64_lossy(section: &str, key: &str, v: &Value) -> Result<f64, String> {
    v.as_f64_lossy().ok_or_else(|| format!("{section} `{key}` holds a non-number"))
}

fn parse_histogram(key: &str, v: &Value) -> Result<Histogram, String> {
    let obj = v.as_object().ok_or_else(|| format!("histogram `{key}` is not an object"))?;
    let field =
        |name: &str| obj.get(name).ok_or_else(|| format!("histogram `{key}` is missing `{name}`"));
    let floats = |name: &str| -> Result<Vec<f64>, String> {
        field(name)?
            .as_array()
            .ok_or_else(|| format!("histogram `{key}` field `{name}` is not an array"))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| format!("histogram `{key}` field `{name}` holds a non-number"))
            })
            .collect()
    };
    let uints = |name: &str| -> Result<Vec<u64>, String> {
        field(name)?
            .as_array()
            .ok_or_else(|| format!("histogram `{key}` field `{name}` is not an array"))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| format!("histogram `{key}` field `{name}` holds a non-u64"))
            })
            .collect()
    };
    let uint = |name: &str| -> Result<u64, String> {
        field(name)?
            .as_u64()
            .ok_or_else(|| format!("histogram `{key}` field `{name}` is not a u64"))
    };
    let float = |name: &str| -> Result<f64, String> {
        field(name)?
            .as_f64()
            .ok_or_else(|| format!("histogram `{key}` field `{name}` is not a number"))
    };
    let h = Histogram {
        bounds: floats("bounds")?,
        counts: uints("counts")?,
        overflow: uint("overflow")?,
        nan: uint("nan")?,
        count: uint("count")?,
        finite: uint("finite")?,
        min: float("min")?,
        max: float("max")?,
    };
    if h.bounds.len() != h.counts.len() {
        return Err(format!(
            "histogram `{key}` has {} bounds but {} buckets",
            h.bounds.len(),
            h.counts.len()
        ));
    }
    Ok(h)
}

impl MetricsDoc {
    /// Parse a snapshot produced by `repro --metrics` (run header
    /// included) or by [`st_obs::MetricsSnapshot::to_json`] (bare
    /// snapshot). Structural problems — wrong JSON, missing sections,
    /// mistyped fields — are reported with the offending key.
    pub fn parse(json: &str) -> Result<MetricsDoc, String> {
        let root = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
        let mut doc = MetricsDoc {
            schema: root
                .get("schema")
                .and_then(Value::as_str)
                .ok_or("missing `schema` string")?
                .to_string(),
            scale: root.get("scale").and_then(Value::as_f64),
            seed: root.get("seed").and_then(Value::as_u64),
            parallelism: root.get("parallelism").and_then(Value::as_u64),
            ..MetricsDoc::default()
        };
        let det = root
            .get("deterministic")
            .and_then(Value::as_object)
            .ok_or("missing `deterministic` object")?;
        if let Some(counters) = det.get("counters").and_then(Value::as_object) {
            for (k, v) in counters {
                let n = v.as_u64().ok_or_else(|| format!("counter `{k}` is not a u64"))?;
                doc.counters.insert(k.clone(), n);
            }
        }
        if let Some(gauges) = det.get("gauges").and_then(Value::as_object) {
            for (k, v) in gauges {
                doc.gauges.insert(k.clone(), parse_f64_lossy("gauge", k, v)?);
            }
        }
        if let Some(histograms) = det.get("histograms").and_then(Value::as_object) {
            for (k, v) in histograms {
                doc.histograms.insert(k.clone(), parse_histogram(k, v)?);
            }
        }
        if let Some(series) = det.get("series").and_then(Value::as_object) {
            for (k, v) in series {
                let xs = v
                    .as_array()
                    .ok_or_else(|| format!("series `{k}` is not an array"))?
                    .iter()
                    .map(|x| parse_f64_lossy("series", k, x))
                    .collect::<Result<Vec<f64>, String>>()?;
                doc.series.insert(k.clone(), xs);
            }
        }
        if let Some(spans) =
            root.get("wall_clock").and_then(|w| w.get("spans")).and_then(Value::as_object)
        {
            for (k, v) in spans {
                let count = v
                    .get("count")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("span `{k}` is missing a u64 `count`"))?;
                let total_s = v
                    .get("total_s")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("span `{k}` is missing a numeric `total_s`"))?;
                doc.spans.insert(k.clone(), SpanDoc { count, total_s });
            }
        }
        Ok(doc)
    }

    /// One-line description of the run header for diff reports.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("schema {}", self.schema)];
        if let Some(s) = self.scale {
            parts.push(format!("scale {s}"));
        }
        if let Some(s) = self.seed {
            parts.push(format!("seed {s}"));
        }
        if let Some(p) = self.parallelism {
            parts.push(format!("parallelism {p}"));
        }
        parts.join(", ")
    }
}

/// Tolerances for the wall-clock comparison. The deterministic class
/// takes no options: it is compared exactly, always.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Flag spans whose `new/old` total-seconds ratio leaves
    /// `[1/wall_ratio, wall_ratio]`.
    pub wall_ratio: f64,
    /// Skip spans below this many seconds on both sides — micro-spans
    /// are scheduling noise, not regressions.
    pub wall_floor_s: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { wall_ratio: 2.0, wall_floor_s: 0.05 }
    }
}

/// One deterministic difference between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Section of the key: "schema", "counters", "gauges", "histograms"
    /// or "series".
    pub section: &'static str,
    /// The full metric key, labels included.
    pub key: String,
    /// Human-readable `old -> new` drill-down.
    pub detail: String,
}

/// One wall-clock span present in both snapshots and above the noise
/// floor on at least one side.
#[derive(Debug, Clone, PartialEq)]
pub struct WallDelta {
    /// Span path.
    pub key: String,
    /// Old total seconds.
    pub old_s: f64,
    /// New total seconds.
    pub new_s: f64,
    /// `new_s / old_s` (infinite when the old side is zero).
    pub ratio: f64,
    /// Whether the ratio leaves the tolerance band.
    pub exceeds: bool,
}

/// Outcome of comparing two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDiff {
    /// Every deterministic difference, in section-then-key order.
    pub drift: Vec<Drift>,
    /// Deterministic keys that compared equal.
    pub matched_keys: usize,
    /// Wall-clock deltas for spans present in both snapshots.
    pub wall: Vec<WallDelta>,
    /// Span paths present in only one snapshot (informational).
    pub wall_missing: Vec<String>,
    /// The tolerances the wall-clock comparison ran with.
    pub options: DiffOptions,
}

impl MetricsDiff {
    /// Whether the deterministic class is identical — the exit-0
    /// condition of `obs-diff` and `repro --baseline`.
    pub fn deterministic_match(&self) -> bool {
        self.drift.is_empty()
    }

    /// How many wall-clock spans left the tolerance band.
    pub fn wall_exceedances(&self) -> usize {
        self.wall.iter().filter(|w| w.exceeds).count()
    }

    /// Render the drill-down report.
    pub fn render(&self, old: &MetricsDoc, new: &MetricsDoc) -> String {
        let mut out = String::new();
        out.push_str("# Metrics comparison\n\n");
        out.push_str(&format!("- old: {}\n", old.describe()));
        out.push_str(&format!("- new: {}\n", new.describe()));
        if self.deterministic_match() {
            out.push_str(&format!(
                "- deterministic: MATCH ({} keys identical)\n",
                self.matched_keys
            ));
        } else {
            out.push_str(&format!(
                "- deterministic: DRIFT in {} keys ({} identical)\n",
                self.drift.len(),
                self.matched_keys
            ));
        }
        out.push_str(&format!(
            "- wall-clock: {} spans compared, {} beyond x{:.2} tolerance (floor {} s)\n",
            self.wall.len(),
            self.wall_exceedances(),
            self.options.wall_ratio,
            self.options.wall_floor_s
        ));
        if !self.drift.is_empty() {
            out.push_str("\n## Deterministic drift\n\n");
            for d in &self.drift {
                out.push_str(&format!("- [{}] {}: {}\n", d.section, d.key, d.detail));
            }
        }
        let exceeding: Vec<&WallDelta> = self.wall.iter().filter(|w| w.exceeds).collect();
        if !exceeding.is_empty() {
            out.push_str("\n## Wall-clock deltas beyond tolerance (warnings)\n\n");
            for w in exceeding {
                out.push_str(&format!(
                    "- {}: {:.3} s -> {:.3} s (x{:.2})\n",
                    w.key, w.old_s, w.new_s, w.ratio
                ));
            }
        }
        if !self.wall_missing.is_empty() {
            out.push_str("\n## Spans present in only one run (informational)\n\n");
            for k in &self.wall_missing {
                out.push_str(&format!("- {k}\n"));
            }
        }
        out
    }
}

/// Accumulates deterministic-class comparison results section by
/// section: the drift list plus the matched-key count.
struct KeyDiff {
    drift: Vec<Drift>,
    matched: usize,
}

impl KeyDiff {
    /// Walk the union of two maps' keys, pushing a [`Drift`] per mismatch.
    fn diff_keys<T>(
        &mut self,
        section: &'static str,
        old: &BTreeMap<String, T>,
        new: &BTreeMap<String, T>,
        eq: impl Fn(&T, &T) -> bool,
        show: impl Fn(&T) -> String,
        detail: impl Fn(&T, &T) -> String,
    ) {
        for (k, ov) in old {
            match new.get(k) {
                None => self.drift.push(Drift {
                    section,
                    key: k.clone(),
                    detail: format!("removed (was {})", show(ov)),
                }),
                Some(nv) if eq(ov, nv) => self.matched += 1,
                Some(nv) => {
                    self.drift.push(Drift { section, key: k.clone(), detail: detail(ov, nv) })
                }
            }
        }
        for (k, nv) in new {
            if !old.contains_key(k) {
                self.drift.push(Drift {
                    section,
                    key: k.clone(),
                    detail: format!("added (now {})", show(nv)),
                });
            }
        }
    }
}

fn hist_eq(a: &Histogram, b: &Histogram) -> bool {
    a.bounds == b.bounds
        && a.counts == b.counts
        && a.overflow == b.overflow
        && a.nan == b.nan
        && a.count == b.count
        && a.finite == b.finite
        && feq(a.min, b.min)
        && feq(a.max, b.max)
}

fn hist_show(h: &Histogram) -> String {
    format!(
        "n={} min={} max={} p50={} p90={} p99={}",
        h.count,
        fmt_f(h.min),
        fmt_f(h.max),
        fmt_q(h.quantile(0.5)),
        fmt_q(h.quantile(0.9)),
        fmt_q(h.quantile(0.99))
    )
}

fn hist_detail(a: &Histogram, b: &Histogram) -> String {
    let mut parts = Vec::new();
    if a.bounds != b.bounds {
        parts.push(format!("bounds {:?} -> {:?}", a.bounds, b.bounds));
    }
    if a.counts != b.counts {
        let i = a
            .counts
            .iter()
            .zip(&b.counts)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.counts.len().min(b.counts.len()));
        parts.push(format!(
            "bucket[{i}] {} -> {}",
            a.counts.get(i).map(|c| c.to_string()).unwrap_or_else(|| "-".into()),
            b.counts.get(i).map(|c| c.to_string()).unwrap_or_else(|| "-".into())
        ));
    }
    for (name, x, y) in [
        ("overflow", a.overflow, b.overflow),
        ("nan", a.nan, b.nan),
        ("count", a.count, b.count),
        ("finite", a.finite, b.finite),
    ] {
        if x != y {
            parts.push(format!("{name} {x} -> {y}"));
        }
    }
    if !feq(a.min, b.min) {
        parts.push(format!("min {} -> {}", fmt_f(a.min), fmt_f(b.min)));
    }
    if !feq(a.max, b.max) {
        parts.push(format!("max {} -> {}", fmt_f(a.max), fmt_f(b.max)));
    }
    for (p, label) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
        let (qa, qb) = (a.quantile(p), b.quantile(p));
        let same = match (qa, qb) {
            (Some(x), Some(y)) => feq(x, y),
            (None, None) => true,
            _ => false,
        };
        if !same {
            parts.push(format!("{label} {} -> {}", fmt_q(qa), fmt_q(qb)));
        }
    }
    parts.join("; ")
}

fn series_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| feq(*x, *y))
}

fn series_detail(a: &[f64], b: &[f64]) -> String {
    if a.len() != b.len() {
        return format!("length {} -> {}", a.len(), b.len());
    }
    let i = a.iter().zip(b).position(|(x, y)| !feq(*x, *y)).expect("unequal series diverge");
    format!("diverges at index {i}: {} -> {}", fmt_f(a[i]), fmt_f(b[i]))
}

/// Compare two parsed snapshots: exact on the deterministic class,
/// ratio-with-tolerance on the wall-clock class.
pub fn diff_metrics(old: &MetricsDoc, new: &MetricsDoc, options: DiffOptions) -> MetricsDiff {
    let mut acc = KeyDiff { drift: Vec::new(), matched: 0 };
    if old.schema == new.schema {
        acc.matched += 1;
    } else {
        acc.drift.push(Drift {
            section: "schema",
            key: "schema".into(),
            detail: format!("{} -> {}", old.schema, new.schema),
        });
    }
    acc.diff_keys(
        "counters",
        &old.counters,
        &new.counters,
        |a, b| a == b,
        |v| v.to_string(),
        |a, b| format!("{a} -> {b} ({:+})", *b as i128 - *a as i128),
    );
    acc.diff_keys(
        "gauges",
        &old.gauges,
        &new.gauges,
        |a, b| feq(*a, *b),
        |v| fmt_f(*v),
        |a, b| format!("{} -> {}", fmt_f(*a), fmt_f(*b)),
    );
    acc.diff_keys("histograms", &old.histograms, &new.histograms, hist_eq, hist_show, hist_detail);
    acc.diff_keys(
        "series",
        &old.series,
        &new.series,
        |a, b| series_eq(a, b),
        |v| format!("{} values", v.len()),
        |a, b| series_detail(a, b),
    );
    let KeyDiff { drift, matched } = acc;

    let mut wall = Vec::new();
    let mut wall_missing = Vec::new();
    for (k, o) in &old.spans {
        match new.spans.get(k) {
            None => wall_missing.push(format!("{k} (only in old)")),
            Some(n) => {
                if o.total_s < options.wall_floor_s && n.total_s < options.wall_floor_s {
                    continue;
                }
                let ratio = if o.total_s > 0.0 { n.total_s / o.total_s } else { f64::INFINITY };
                let exceeds = !(1.0 / options.wall_ratio..=options.wall_ratio).contains(&ratio);
                wall.push(WallDelta {
                    key: k.clone(),
                    old_s: o.total_s,
                    new_s: n.total_s,
                    ratio,
                    exceeds,
                });
            }
        }
    }
    for k in new.spans.keys() {
        if !old.spans.contains_key(k) {
            wall_missing.push(format!("{k} (only in new)"));
        }
    }
    MetricsDiff { drift, matched_keys: matched, wall, wall_missing, options }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json(render_jobs: u64, fit_s: f64) -> String {
        format!(
            r#"{{
  "schema": "st-obs/v1",
  "scale": 0.004,
  "seed": 2024,
  "parallelism": 1,
  "deterministic": {{
    "counters": {{ "render.jobs": {render_jobs}, "datagen.records{{city=City-A}}": 1000 }},
    "gauges": {{ "bst.converged": 1.0 }},
    "histograms": {{
      "wire.bytes": {{
        "bounds": [1.0, 10.0],
        "counts": [3, 4],
        "overflow": 1,
        "nan": 0,
        "count": 8,
        "finite": 8,
        "min": 0.5,
        "max": 20.0
      }}
    }},
    "series": {{ "em.loglik": [1.0, 2.5, null] }}
  }},
  "wall_clock": {{
    "spans": {{
      "fit": {{ "count": 1, "total_s": {fit_s} }},
      "render": {{ "count": 1, "total_s": 2.0 }}
    }}
  }}
}}"#
        )
    }

    #[test]
    fn identical_documents_match() {
        let doc = MetricsDoc::parse(&sample_json(19, 1.0)).expect("parses");
        assert_eq!(doc.schema, "st-obs/v1");
        assert_eq!(doc.parallelism, Some(1));
        assert_eq!(doc.counters.len(), 2);
        // The `null` series element reads back as NaN ...
        assert!(doc.series["em.loglik"][2].is_nan());
        let diff = diff_metrics(&doc, &doc, DiffOptions::default());
        // ... and NaN == NaN under the serialized-view semantics.
        assert!(diff.deterministic_match(), "self-diff drifted: {:?}", diff.drift);
        // schema + 2 counters + 1 gauge + 1 histogram + 1 series.
        assert_eq!(diff.matched_keys, 6);
        assert_eq!(diff.wall_exceedances(), 0);
    }

    #[test]
    fn counter_and_histogram_changes_are_drift_with_drilldown() {
        let old = MetricsDoc::parse(&sample_json(19, 1.0)).expect("parses");
        let mut new = MetricsDoc::parse(&sample_json(20, 1.0)).expect("parses");
        new.histograms.get_mut("wire.bytes").expect("histogram").counts[1] = 5;
        new.histograms.get_mut("wire.bytes").expect("histogram").count = 9;
        new.series.remove("em.loglik");
        let diff = diff_metrics(&old, &new, DiffOptions::default());
        assert!(!diff.deterministic_match());
        assert_eq!(diff.drift.len(), 3);
        let report = diff.render(&old, &new);
        assert!(report.contains("[counters] render.jobs: 19 -> 20 (+1)"), "{report}");
        assert!(report.contains("bucket[1] 4 -> 5"), "{report}");
        assert!(report.contains("[series] em.loglik: removed (was 3 values)"), "{report}");
    }

    #[test]
    fn wall_clock_changes_warn_but_never_drift() {
        let old = MetricsDoc::parse(&sample_json(19, 1.0)).expect("parses");
        let new = MetricsDoc::parse(&sample_json(19, 9.0)).expect("parses");
        let diff = diff_metrics(&old, &new, DiffOptions::default());
        assert!(diff.deterministic_match(), "span timing must not be drift");
        assert_eq!(diff.wall_exceedances(), 1);
        let w = diff.wall.iter().find(|w| w.key == "fit").expect("fit delta");
        assert!(w.exceeds);
        assert!((w.ratio - 9.0).abs() < 1e-12);
        // Within the default x2 band: no warning.
        let ok = diff_metrics(
            &old,
            &MetricsDoc::parse(&sample_json(19, 1.5)).unwrap(),
            DiffOptions::default(),
        );
        assert_eq!(ok.wall_exceedances(), 0);
    }

    #[test]
    fn spans_below_the_floor_are_ignored() {
        let mut old = MetricsDoc::parse(&sample_json(19, 0.001)).expect("parses");
        let mut new = MetricsDoc::parse(&sample_json(19, 0.04)).expect("parses");
        // 40x apart, but both under the 0.05 s floor.
        old.spans.remove("render");
        new.spans.remove("render");
        let diff = diff_metrics(&old, &new, DiffOptions::default());
        assert!(diff.wall.is_empty(), "sub-floor span compared: {:?}", diff.wall);
    }

    #[test]
    fn schema_mismatch_and_parse_errors_are_loud() {
        let old = MetricsDoc::parse(&sample_json(19, 1.0)).expect("parses");
        let mut new = old.clone();
        new.schema = "st-obs/v2".into();
        let diff = diff_metrics(&old, &new, DiffOptions::default());
        assert_eq!(diff.drift[0].section, "schema");
        assert!(diff.drift[0].detail.contains("st-obs/v1 -> st-obs/v2"));

        assert!(MetricsDoc::parse("{}").is_err(), "schema is mandatory");
        assert!(MetricsDoc::parse("not json").unwrap_err().contains("invalid JSON"));
        let bad = sample_json(19, 1.0).replace("\"counts\": [3, 4]", "\"counts\": [3, -4]");
        assert!(MetricsDoc::parse(&bad).unwrap_err().contains("wire.bytes"));
    }
}
