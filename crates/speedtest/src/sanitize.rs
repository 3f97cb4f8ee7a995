//! Record sanitization and quarantine.
//!
//! Real crowdsourced archives are full of aborted, truncated, duplicated,
//! and clock-skewed tests; a pipeline that assumes every record is clean
//! either panics on the first malformed one or silently clamps it into the
//! statistics. This module replaces both failure modes with a structured
//! taxonomy: every record entering an analysis is classified as **clean**
//! (used as-is), **repaired** (a recoverable defect was normalized, e.g. a
//! clock-skewed timestamp wrapped back into range), or **quarantined**
//! (dropped, with a single machine-readable reason). Per-reason counters
//! travel with the output so the repro report can surface exactly what was
//! excluded and why, instead of the run aborting — the paper's
//! contextualization argument applied to the pipeline itself.
//!
//! Classification is a pure function of the record (plus the set of ids
//! already seen, for duplicate detection), so the outcome is deterministic
//! and independent of how the upstream generation was parallelized.

use crate::record::Measurement;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};

/// Throughput above this is implausible for any access link in the study
/// (the largest catalog plan is ~1.2 Gbps; 100 Gbps is beyond any
/// residential technology the paper considers).
pub const MAX_PLAUSIBLE_MBPS: f64 = 100_000.0;

/// RTT above this (one minute) means the latency phase did not measure a
/// round trip but a timeout.
pub const MAX_PLAUSIBLE_RTT_MS: f64 = 60_000.0;

/// Why a record was quarantined. Exactly one reason is ever assigned —
/// checks run in the order of the variants and the first hit wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum QuarantineReason {
    /// Download or upload throughput is NaN or infinite.
    NonFiniteThroughput,
    /// Download or upload throughput is zero or negative.
    NonPositiveThroughput,
    /// Throughput exceeds [`MAX_PLAUSIBLE_MBPS`].
    ImplausibleThroughput,
    /// Idle or loaded RTT is NaN or infinite.
    NonFiniteLatency,
    /// Idle RTT is zero or negative — the latency phase never completed,
    /// the signature of an aborted/truncated test.
    AbortedTest,
    /// RTT exceeds [`MAX_PLAUSIBLE_RTT_MS`].
    ImplausibleLatency,
    /// A record with this test id was already accepted (duplicate
    /// submission; first submission wins).
    DuplicateId,
}

impl QuarantineReason {
    /// Stable kebab-case label used in counters and reports.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::NonFiniteThroughput => "non-finite-throughput",
            QuarantineReason::NonPositiveThroughput => "non-positive-throughput",
            QuarantineReason::ImplausibleThroughput => "implausible-throughput",
            QuarantineReason::NonFiniteLatency => "non-finite-latency",
            QuarantineReason::AbortedTest => "aborted-test",
            QuarantineReason::ImplausibleLatency => "implausible-latency",
            QuarantineReason::DuplicateId => "duplicate-id",
        }
    }
}

/// A recoverable defect that was normalized in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum RepairReason {
    /// Day-of-year beyond the campaign year (clock skew) wrapped with
    /// `day % 365`.
    DayOutOfRange,
    /// Hour of day `>= 24` (clock skew) wrapped with `hour % 24`.
    HourOutOfRange,
}

impl RepairReason {
    /// Stable kebab-case label used in counters and reports.
    pub fn label(&self) -> &'static str {
        match self {
            RepairReason::DayOutOfRange => "day-out-of-range",
            RepairReason::HourOutOfRange => "hour-out-of-range",
        }
    }
}

/// The verdict for one record.
#[derive(Debug, Clone, PartialEq)]
pub enum Classification {
    /// Record is valid as-is.
    Clean,
    /// Record was normalized; the listed defects were repaired.
    Repaired(Vec<RepairReason>),
    /// Record must be dropped for this single reason.
    Quarantined(QuarantineReason),
}

/// Classify `m` without mutating it. `is_duplicate` is the caller's
/// verdict on whether this test id was already accepted ([`sanitize`]
/// threads a seen-set through; pass `false` when checking one record in
/// isolation).
///
/// Checks run in a fixed order (throughput, latency, duplicate, then
/// repairable timestamp defects), so every record lands in exactly one
/// bucket and re-running the classification is byte-stable.
pub fn classify(m: &Measurement, is_duplicate: bool) -> Classification {
    if !m.down_mbps.is_finite() || !m.up_mbps.is_finite() {
        return Classification::Quarantined(QuarantineReason::NonFiniteThroughput);
    }
    if m.down_mbps <= 0.0 || m.up_mbps <= 0.0 {
        return Classification::Quarantined(QuarantineReason::NonPositiveThroughput);
    }
    if m.down_mbps > MAX_PLAUSIBLE_MBPS || m.up_mbps > MAX_PLAUSIBLE_MBPS {
        return Classification::Quarantined(QuarantineReason::ImplausibleThroughput);
    }
    if !m.rtt_ms.is_finite() || !m.loaded_rtt_ms.is_finite() {
        return Classification::Quarantined(QuarantineReason::NonFiniteLatency);
    }
    if m.rtt_ms <= 0.0 {
        return Classification::Quarantined(QuarantineReason::AbortedTest);
    }
    if m.rtt_ms > MAX_PLAUSIBLE_RTT_MS || m.loaded_rtt_ms > MAX_PLAUSIBLE_RTT_MS {
        return Classification::Quarantined(QuarantineReason::ImplausibleLatency);
    }
    if is_duplicate {
        return Classification::Quarantined(QuarantineReason::DuplicateId);
    }
    let mut repairs = Vec::new();
    if m.day >= 365 {
        repairs.push(RepairReason::DayOutOfRange);
    }
    if m.hour >= 24 {
        repairs.push(RepairReason::HourOutOfRange);
    }
    if repairs.is_empty() {
        Classification::Clean
    } else {
        Classification::Repaired(repairs)
    }
}

/// Per-reason counters for one sanitization pass (or several merged ones).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SanitizeReport {
    /// Records accepted unchanged.
    pub clean: u64,
    /// Records accepted after normalization.
    pub repaired: u64,
    /// Records dropped.
    pub quarantined: u64,
    /// Quarantined count per [`QuarantineReason::label`].
    pub quarantine_reasons: BTreeMap<String, u64>,
    /// Repair count per [`RepairReason::label`] (a record with two
    /// defects counts once per defect here, once in `repaired`).
    pub repair_reasons: BTreeMap<String, u64>,
}

impl SanitizeReport {
    /// Records that survived into the analysis.
    pub fn accepted(&self) -> u64 {
        self.clean + self.repaired
    }

    /// Total records examined.
    pub fn total(&self) -> u64 {
        self.clean + self.repaired + self.quarantined
    }

    /// Record this report's counters into a metrics registry under
    /// `labels` (deterministic class, DESIGN.md §13): `sanitize.clean` /
    /// `sanitize.repaired` / `sanitize.quarantined`, plus per-reason
    /// `sanitize.quarantine` and `sanitize.repair` counters keyed by a
    /// `reason` label. Also drops one `sanitize.outcome` lifecycle mark
    /// on the trace timeline carrying the same tallies, so each
    /// campaign's quarantine decision is visible in `BENCH_trace.json`
    /// (DESIGN.md §14; counts are pure functions of the data, so the
    /// event args are deterministic class).
    pub fn record(&self, reg: &st_obs::Registry, labels: &[(&str, &str)]) {
        if !reg.is_enabled() {
            return;
        }
        let (clean, repaired, quarantined) =
            (self.clean.to_string(), self.repaired.to_string(), self.quarantined.to_string());
        let mut event_args: Vec<(&str, &str)> = labels.to_vec();
        event_args.push(("clean", &clean));
        event_args.push(("repaired", &repaired));
        event_args.push(("quarantined", &quarantined));
        reg.event("sanitize.outcome", "lifecycle", &event_args);
        reg.add("sanitize.clean", labels, self.clean);
        reg.add("sanitize.repaired", labels, self.repaired);
        reg.add("sanitize.quarantined", labels, self.quarantined);
        for (reason, &n) in &self.quarantine_reasons {
            let mut with_reason: Vec<(&str, &str)> = labels.to_vec();
            with_reason.push(("reason", reason));
            reg.add("sanitize.quarantine", &with_reason, n);
        }
        for (reason, &n) in &self.repair_reasons {
            let mut with_reason: Vec<(&str, &str)> = labels.to_vec();
            with_reason.push(("reason", reason));
            reg.add("sanitize.repair", &with_reason, n);
        }
    }

    /// Fold another report's counters into this one.
    pub fn merge(&mut self, other: &SanitizeReport) {
        self.clean += other.clean;
        self.repaired += other.repaired;
        self.quarantined += other.quarantined;
        for (k, v) in &other.quarantine_reasons {
            *self.quarantine_reasons.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.repair_reasons {
            *self.repair_reasons.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Sanitize a campaign: classify every record, repair the repairable,
/// drop the quarantined, and count everything. Records keep their
/// relative order; duplicates resolve to the *first* submission.
pub fn sanitize(records: Vec<Measurement>) -> (Vec<Measurement>, SanitizeReport) {
    let mut seen = HashSet::with_capacity(records.len());
    sanitize_with_seen(records, &mut seen)
}

/// Incremental form of [`sanitize`]: `seen` carries the accepted test
/// ids across chunks, so sanitizing a campaign chunk-by-chunk (in
/// arrival order, threading one seen-set through) classifies every
/// record — including cross-chunk duplicates — exactly as one batch
/// pass over the concatenated records would. Only *accepted* ids enter
/// `seen`; quarantined records never shadow a later valid submission.
pub fn sanitize_with_seen(
    mut records: Vec<Measurement>,
    seen: &mut HashSet<u64>,
) -> (Vec<Measurement>, SanitizeReport) {
    let mut report = SanitizeReport::default();
    // In place and in order: the kept rows reuse the input's buffer.
    records.retain_mut(|m| match classify(m, seen.contains(&m.id)) {
        Classification::Clean => {
            report.clean += 1;
            seen.insert(m.id);
            true
        }
        Classification::Repaired(reasons) => {
            for r in &reasons {
                if matches!(r, RepairReason::DayOutOfRange) {
                    m.day %= 365;
                }
                if matches!(r, RepairReason::HourOutOfRange) {
                    m.hour %= 24;
                }
                *report.repair_reasons.entry(r.label().into()).or_insert(0) += 1;
            }
            report.repaired += 1;
            seen.insert(m.id);
            true
        }
        Classification::Quarantined(reason) => {
            report.quarantined += 1;
            *report.quarantine_reasons.entry(reason.label().into()).or_insert(0) += 1;
            false
        }
    });
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Access, Platform};
    use st_netsim::Band;

    fn base(id: u64) -> Measurement {
        Measurement {
            id,
            user_id: 10,
            platform: Platform::AndroidApp,
            city: 0,
            day: 100,
            hour: 13,
            down_mbps: 95.0,
            up_mbps: 5.1,
            rtt_ms: 14.0,
            loaded_rtt_ms: 21.0,
            access: Access::Wifi { band: Band::G5, rssi_dbm: -55.0 },
            kernel_memory_gb: Some(7.2),
            truth_tier: Some(2),
        }
    }

    #[test]
    fn clean_records_pass_untouched() {
        let records = vec![base(1), base(2), base(3)];
        let (kept, report) = sanitize(records.clone());
        assert_eq!(kept, records);
        assert_eq!(report.clean, 3);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.quarantined, 0);
        assert!(report.quarantine_reasons.is_empty());
    }

    #[test]
    fn nan_and_zero_throughput_quarantine() {
        let mut nan = base(1);
        nan.down_mbps = f64::NAN;
        let mut zero = base(2);
        zero.up_mbps = 0.0;
        let mut neg = base(3);
        neg.down_mbps = -4.0;
        let (kept, report) = sanitize(vec![nan, zero, neg, base(4)]);
        assert_eq!(kept.len(), 1);
        assert_eq!(report.quarantined, 3);
        assert_eq!(report.quarantine_reasons["non-finite-throughput"], 1);
        assert_eq!(report.quarantine_reasons["non-positive-throughput"], 2);
    }

    #[test]
    fn aborted_test_signature_quarantines() {
        let mut aborted = base(1);
        aborted.rtt_ms = 0.0;
        let (kept, report) = sanitize(vec![aborted, base(2)]);
        assert_eq!(kept.len(), 1);
        assert_eq!(report.quarantine_reasons["aborted-test"], 1);
    }

    #[test]
    fn duplicates_keep_first_submission() {
        let mut second = base(7);
        second.down_mbps = 50.0;
        let (kept, report) = sanitize(vec![base(7), second, base(8)]);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].down_mbps, 95.0, "first submission wins");
        assert_eq!(report.quarantine_reasons["duplicate-id"], 1);
    }

    #[test]
    fn clock_skew_repairs_and_counts() {
        let mut skewed = base(1);
        skewed.day = 500; // 500 % 365 = 135
        skewed.hour = 37; // 37 % 24 = 13
        let (kept, report) = sanitize(vec![skewed]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].day, 135);
        assert_eq!(kept[0].hour, 13);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.repair_reasons["day-out-of-range"], 1);
        assert_eq!(report.repair_reasons["hour-out-of-range"], 1);
    }

    #[test]
    fn quarantine_wins_over_repair() {
        // A record that is both clock-skewed and NaN must land in exactly
        // one bucket: the quarantine.
        let mut m = base(1);
        m.day = 999;
        m.up_mbps = f64::INFINITY;
        assert_eq!(
            classify(&m, false),
            Classification::Quarantined(QuarantineReason::NonFiniteThroughput)
        );
        let (kept, report) = sanitize(vec![m]);
        assert!(kept.is_empty());
        assert_eq!(report.total(), 1);
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn implausible_values_quarantine() {
        let mut fast = base(1);
        fast.down_mbps = 1e7;
        let mut slowping = base(2);
        slowping.rtt_ms = 1e8;
        let (_, report) = sanitize(vec![fast, slowping]);
        assert_eq!(report.quarantine_reasons["implausible-throughput"], 1);
        assert_eq!(report.quarantine_reasons["implausible-latency"], 1);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = SanitizeReport::default();
        let mut nan = base(1);
        nan.down_mbps = f64::NAN;
        let (_, b) = sanitize(vec![nan, base(2)]);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.clean, 2);
        assert_eq!(a.quarantine_reasons["non-finite-throughput"], 2);
        assert_eq!(a.total(), 4);
        assert_eq!(a.accepted(), 2);
    }

    // Satellite: merging per-chunk reports must be associative and, in
    // arrival order, equal to the one-shot batch report — the contract
    // the segmented store's incremental ingest front-end leans on.

    fn dirty_stream() -> Vec<Measurement> {
        let mut records = Vec::new();
        for id in 0..40u64 {
            let mut m = base(id);
            match id % 7 {
                1 => m.down_mbps = f64::NAN,
                2 => m.up_mbps = 0.0,
                3 => m.day = 400 + id as u16,
                4 => m.rtt_ms = 0.0,
                5 => m.hour = 30,
                _ => {}
            }
            records.push(m);
        }
        // Cross-chunk duplicates: resubmissions far from the originals,
        // including a resubmission of an id whose first appearance was
        // quarantined (id 8: 8 % 7 == 1, NaN) — that later copy must be
        // *accepted*, not flagged duplicate.
        records.push(base(0));
        records.push(base(8));
        records.push(base(14));
        records
    }

    #[test]
    fn merge_is_associative() {
        let stream = dirty_stream();
        let reports: Vec<SanitizeReport> = stream
            .chunks(5)
            .map(|c| {
                // Independent chunks (fresh seen-sets) — merge only needs
                // counter associativity here, not duplicate threading.
                sanitize(c.to_vec()).1
            })
            .collect();
        let [a, b, c] = [&reports[0], &reports[1], &reports[2]];
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge(merge(a,b),c) == merge(a,merge(b,c))");
        // And against the fold over every chunk, any grouping agrees.
        let mut folded = SanitizeReport::default();
        for r in &reports {
            folded.merge(r);
        }
        let mut paired = SanitizeReport::default();
        for pair in reports.chunks(2) {
            let mut p = pair[0].clone();
            if let Some(second) = pair.get(1) {
                p.merge(second);
            }
            paired.merge(&p);
        }
        assert_eq!(folded, paired);
    }

    #[test]
    fn chunked_sanitize_matches_batch_for_any_chunk_size() {
        let stream = dirty_stream();
        let (batch_kept, batch_report) = sanitize(stream.clone());
        for chunk in [1usize, 2, 5, 7, 16, stream.len()] {
            let mut seen = HashSet::new();
            let mut kept = Vec::new();
            let mut report = SanitizeReport::default();
            for c in stream.chunks(chunk) {
                let (k, r) = sanitize_with_seen(c.to_vec(), &mut seen);
                kept.extend(k);
                report.merge(&r);
            }
            assert_eq!(kept, batch_kept, "chunk size {chunk}: accepted rows");
            assert_eq!(report, batch_report, "chunk size {chunk}: merged report");
        }
    }

    #[test]
    fn quarantined_id_does_not_poison_later_submission() {
        let mut broken = base(9);
        broken.down_mbps = f64::NAN;
        let mut seen = HashSet::new();
        let (kept1, r1) = sanitize_with_seen(vec![broken], &mut seen);
        assert!(kept1.is_empty());
        assert_eq!(r1.quarantined, 1);
        let (kept2, r2) = sanitize_with_seen(vec![base(9)], &mut seen);
        assert_eq!(kept2.len(), 1, "a quarantined id must not mark later valid records duplicate");
        assert_eq!(r2.clean, 1);
        let (kept3, r3) = sanitize_with_seen(vec![base(9)], &mut seen);
        assert!(kept3.is_empty());
        assert_eq!(r3.quarantine_reasons["duplicate-id"], 1);
    }

    #[test]
    fn report_serializes() {
        let (_, report) = sanitize(vec![base(1)]);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"clean\":1"));
    }
}
