//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] keeps every finished span in memory (name, start, end,
//! parent, thread) under one run id and writes them out once, at exit.
//! A disabled tracer records nothing and reads no clock, so untraced
//! runs pay nothing for the span calls left in shared code.
//!
//! Per-layer time is *wall share*: every instant of a root span is
//! credited to the spans that are doing their own work then (active,
//! with no active child), split evenly when several run at once on
//! different threads. The shares of all spans under a root add up to the
//! root's duration, so per-layer times of a parallel stage sum to its
//! wall time instead of to its thread time.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer name, e.g. `analysis.fit`.
    pub name: String,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Small integer naming the recording thread.
    pub thread: u64,
}

impl SpanRec {
    /// Duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

struct Inner {
    run_id: String,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// Span recorder; cheap to clone and share across threads.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

thread_local! {
    static THREAD_NO: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer whose spans all carry `run_id`.
    pub fn new(run_id: &str) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                run_id: run_id.to_string(),
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span under `parent` (a [`Span::id`]); it is recorded when
    /// [`Span::end`] is called or it is dropped.
    pub fn span(&self, name: &str, parent: Option<u64>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { rec: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let start = inner.origin.elapsed().as_secs_f64();
        Span {
            rec: Some((
                Arc::clone(inner),
                SpanRec {
                    id,
                    parent,
                    name: name.to_string(),
                    start,
                    end: start,
                    thread: THREAD_NO.with(|t| *t),
                },
            )),
        }
    }

    /// Every span finished so far, in finishing order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.spans.lock().expect("span list lock poisoned by a panicking thread").clone()
        })
    }

    /// Write the run id and every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(inner) = &self.inner else { return Ok(()) };
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"run_id\":\"{}\",\"spans\":[", escape(&inner.run_id))?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"thread\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                parent,
                escape(&s.name),
                s.start,
                s.end,
                s.thread
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// An open span. Ends (and is recorded) on [`Span::end`] or drop.
pub struct Span {
    rec: Option<(Arc<Inner>, SpanRec)>,
}

impl Span {
    /// The id children pass as their parent (`None` when disabled).
    pub fn id(&self) -> Option<u64> {
        self.rec.as_ref().map(|(_, r)| r.id)
    }

    /// Close the span.
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, mut rec)) = self.rec.take() {
            rec.end = inner.origin.elapsed().as_secs_f64();
            // A poisoned list only means another thread panicked; the
            // span is dropped rather than panicking inside `drop`.
            if let Ok(mut spans) = inner.spans.lock() {
                spans.push(rec);
            }
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `[start, end)` intervals sorted and merged.
fn union(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// The parts of each span's interval not covered by any of its children
/// (children clipped to the parent), keyed by span index.
fn self_intervals(spans: &[SpanRec]) -> Vec<Vec<(f64, f64)>> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (ps, pe) = (spans[p].start, spans[p].end);
            let (cs, ce) = (s.start.max(ps), s.end.min(pe));
            if ce > cs {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let mut free = Vec::new();
            let mut at = s.start;
            for (cs, ce) in union(kids) {
                if cs > at {
                    free.push((at, cs));
                }
                at = at.max(ce);
            }
            if s.end > at {
                free.push((at, s.end));
            }
            free
        })
        .collect()
}

/// Self time of every span (its duration minus the part of its interval
/// its children cover), in input order.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    self_intervals(spans).iter().map(|iv| iv.iter().map(|(s, e)| e - s).sum()).collect()
}

/// Ids of `root` and every span below it.
fn subtree(spans: &[SpanRec], root: u64) -> Vec<usize> {
    let mut by_parent: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            by_parent.entry(p).or_default().push(i);
        }
    }
    let mut out: Vec<usize> = spans.iter().position(|s| s.id == root).into_iter().collect();
    let mut k = 0;
    while k < out.len() {
        if let Some(kids) = by_parent.get(&spans[out[k]].id) {
            out.extend(kids);
        }
        k += 1;
    }
    out
}

/// Wall-share self time per span name over the subtree of `root` (see
/// the module docs). The values sum to the root's duration.
pub fn wall_share(spans: &[SpanRec], root: u64) -> BTreeMap<String, f64> {
    let keep = subtree(spans, root);
    let sub: Vec<SpanRec> = keep.iter().map(|&i| spans[i].clone()).collect();
    let free = self_intervals(&sub);
    // Sweep the interval edges; between two edges, each interval that
    // covers the gap gets an equal part of it.
    let mut edges: Vec<(f64, i32, usize)> = Vec::new();
    for (i, iv) in free.iter().enumerate() {
        for &(s, e) in iv {
            edges.push((s, 1, i));
            edges.push((e, -1, i));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active: BTreeMap<usize, usize> = BTreeMap::new();
    let mut share = vec![0.0; sub.len()];
    let mut last = edges.first().map_or(0.0, |e| e.0);
    for (t, delta, i) in edges {
        if t > last && !active.is_empty() {
            let part = (t - last) / active.values().sum::<usize>() as f64;
            for (&j, &count) in &active {
                share[j] += part * count as f64;
            }
        }
        last = t;
        if delta > 0 {
            *active.entry(i).or_default() += 1;
        } else if let Some(c) = active.get_mut(&i) {
            *c -= 1;
            if *c == 0 {
                active.remove(&i);
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, v) in sub.iter().zip(share) {
        *out.entry(s.name.clone()).or_insert(0.0) += v;
    }
    out
}

/// Summed span durations per name over the subtree of `root`: thread
/// time, which counts parallel work once per thread.
pub fn busy_time(spans: &[SpanRec], root: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for i in subtree(spans, root) {
        *out.entry(spans[i].name.clone()).or_insert(0.0) += spans[i].duration();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> SpanRec {
        SpanRec { id, parent, name: name.into(), start, end, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        // root [0,10): children [1,4) and [3,6) overlap, [8,12) overruns
        // the root and is clipped; grandchild [2,3) only shrinks child 2.
        let spans = vec![
            rec(1, None, "root", 0.0, 10.0),
            rec(2, Some(1), "a", 1.0, 4.0),
            rec(3, Some(1), "b", 3.0, 6.0),
            rec(4, Some(1), "c", 8.0, 12.0),
            rec(5, Some(2), "d", 2.0, 3.0),
        ];
        let st = self_times(&spans);
        // root: 10 - |[1,6) u [8,10)| = 10 - 7 = 3.
        assert_eq!(st, vec![3.0, 2.0, 3.0, 4.0, 1.0]);
    }

    #[test]
    fn wall_share_splits_concurrent_work_and_sums_to_the_root() {
        // Two workers under one stage: [0,4) and [2,6); the stage ends at
        // 7, leaving [6,7) to itself.
        let mut spans = vec![
            rec(1, None, "stage", 0.0, 7.0),
            rec(2, Some(1), "gen", 0.0, 4.0),
            rec(3, Some(1), "fit", 2.0, 6.0),
        ];
        spans[2].thread = 1;
        let w = wall_share(&spans, 1);
        // [0,2) gen alone, [2,4) shared, [4,6) fit alone, [6,7) stage.
        assert_eq!(w["gen"], 3.0);
        assert_eq!(w["fit"], 3.0);
        assert_eq!(w["stage"], 1.0);
        assert_eq!(w.values().sum::<f64>(), 7.0);
        let b = busy_time(&spans, 1);
        assert_eq!((b["gen"], b["fit"], b["stage"]), (4.0, 4.0, 7.0));
    }

    #[test]
    fn wall_share_ignores_spans_outside_the_root() {
        let spans = vec![
            rec(1, None, "setup", 0.0, 5.0),
            rec(2, Some(1), "gen", 0.0, 5.0),
            rec(3, None, "pass", 5.0, 9.0),
            rec(4, Some(3), "fit", 5.0, 8.0),
        ];
        let w = wall_share(&spans, 3);
        assert_eq!(w.len(), 2);
        assert_eq!((w["fit"], w["pass"]), (3.0, 1.0));
    }

    #[test]
    fn tracer_records_parentage_and_disabled_tracer_records_nothing() {
        let t = Tracer::new("run-1");
        let root = t.span("root", None);
        let child = t.span("child", root.id());
        child.end();
        root.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);

        let off = Tracer::disabled();
        let s = off.span("x", None);
        assert_eq!(s.id(), None);
        s.end();
        assert!(off.spans().is_empty());
    }
}
