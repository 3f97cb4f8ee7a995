//! The renderer: a pure function from [`ConsoleState`] to a
//! fixed-width plain-text [`Frame`].
//!
//! Every frame line carries a [`PaneClass`]. Deterministic lines are a
//! pure function of deterministic inputs (counters, ledger rows, the
//! frame index) and are byte-identical at every parallelism level —
//! CI extracts them with `grep '^D|'` and byte-compares runs.
//! Wall-clock lines carry everything environmental: addresses,
//! uptimes, the parallelism knob, feed notes. No clock is ever read
//! here; the frame index comes from the controller's tick counter.

use crate::state::ConsoleState;

/// Which determinism contract a frame line lives under (DESIGN.md
/// §13 taxonomy, applied to UI text instead of metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaneClass {
    /// Byte-identical across parallelism levels for one (scale, seed).
    Deterministic,
    /// Environmental; never compared across runs.
    WallClock,
}

/// One rendered frame: a fixed-width cell grid of classed lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Interior width of every line, in characters.
    pub width: usize,
    /// The lines, top to bottom, each with its pane class.
    pub lines: Vec<(PaneClass, String)>,
}

impl Frame {
    /// Serialize the frame: one line per cell row, prefixed `D|` or
    /// `W|`, padded (or truncated) to exactly `width` characters.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (class, line) in &self.lines {
            out.push_str(match class {
                PaneClass::Deterministic => "D|",
                PaneClass::WallClock => "W|",
            });
            out.push_str(&pad(line, self.width));
            out.push('\n');
        }
        out
    }
}

/// Pad or truncate to exactly `width` characters (counted as chars,
/// so the grid stays aligned for any UTF-8 city name).
fn pad(s: &str, width: usize) -> String {
    let mut out: String = s.chars().take(width).collect();
    for _ in out.chars().count()..width {
        out.push(' ');
    }
    out
}

/// Glyph ramp for sparklines, darkest last. ASCII only, one byte per
/// glyph, so deterministic-pane comparisons stay byte-level.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Render `values` as a fixed-width sparkline: the last `width`
/// values, left-padded with blanks, each mapped onto [`RAMP`] by
/// integer math against the window maximum. Zero is always blank and
/// any non-zero value is visible. Pure integer arithmetic: the same
/// counters always produce the same glyphs.
pub fn sparkline(values: &[u64], width: usize) -> String {
    let window = &values[values.len().saturating_sub(width)..];
    let max = window.iter().copied().max().unwrap_or(0);
    let mut out = String::with_capacity(width);
    for _ in 0..width - window.len() {
        out.push(' ');
    }
    for &v in window {
        let glyph = if v == 0 || max == 0 {
            b' '
        } else {
            // Map 1..=max onto ramp indices 1..=9, with v == max
            // always landing on the darkest glyph.
            RAMP[(1 + (v as usize * (RAMP.len() - 2)) / max as usize).min(RAMP.len() - 1)]
        };
        out.push(glyph as char);
    }
    out
}

/// Renders [`ConsoleState`] into fixed-width frames.
#[derive(Debug, Clone)]
pub struct Renderer {
    /// Interior frame width in characters.
    pub width: usize,
}

/// Default interior frame width.
pub const DEFAULT_WIDTH: usize = 72;

impl Default for Renderer {
    fn default() -> Self {
        Self { width: DEFAULT_WIDTH }
    }
}

impl Renderer {
    /// A renderer with the given interior width (clamped to a usable
    /// minimum so headers and sparklines always fit).
    pub fn new(width: usize) -> Self {
        Self { width: width.max(40) }
    }

    /// Render one frame. `frame_idx` is ordinal (1-based) and comes
    /// from the caller's loop, never from a clock.
    pub fn render(&self, s: &ConsoleState, frame_idx: u64) -> Frame {
        use PaneClass::{Deterministic as D, WallClock as W};
        let mut lines: Vec<(PaneClass, String)> = Vec::new();
        let spark_w = 24usize;

        lines.push((D, format!("st-console frame {frame_idx}")));
        lines.push((
            D,
            match &s.run {
                Some(r) => format!(
                    "run: {} scale {} seed {} artifacts {} hash {}",
                    r.mode, r.scale, r.seed, r.artifact_files, r.artifact_hash
                ),
                None => format!("run: (no ledger row yet) ledger rows {}", s.ledger_rows),
            },
        ));
        lines.push((
            D,
            format!(
                "stage: {} epoch {}{} published {}",
                s.stage(),
                s.epoch,
                if s.final_epoch { " (final)" } else { "" },
                s.epochs_published
            ),
        ));
        let (clean, repaired, quarantined) = s.outcomes;
        let judged = clean + repaired + quarantined;
        lines.push((
            D,
            format!(
                "rows: in {} accepted {} | clean {} ({}) repaired {} ({}) quarantined {} ({})",
                s.rows_in,
                s.accepted_rows,
                clean,
                permille(clean, judged),
                repaired,
                permille(repaired, judged),
                quarantined,
                permille(quarantined, judged),
            ),
        ));
        lines
            .push((D, format!("store: chunks {} segments sealed {}", s.chunks, s.segments_sealed)));
        let cities = if s.cities.is_empty() {
            "(none)".to_string()
        } else {
            s.cities
                .iter()
                .map(|(name, rows)| format!("{name} {rows}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        lines.push((D, format!("cities: {cities}")));
        lines.push((
            D,
            format!("ingest/epoch: [{}] max {}", sparkline(&s.throughput_buckets(), spark_w), {
                s.throughput_buckets().into_iter().max().unwrap_or(0)
            }),
        ));
        let timeline: String = {
            let pts = &s.timeline;
            let shown = &pts[pts.len().saturating_sub(8)..];
            if shown.is_empty() {
                "(no crossings yet)".to_string()
            } else {
                let head = if shown.len() < pts.len() { ".. " } else { "" };
                format!(
                    "{head}{}",
                    shown
                        .iter()
                        .map(|p| format!(
                            "e{}{}:{}",
                            p.epoch,
                            if p.final_epoch { "F" } else { "" },
                            p.accepted_rows
                        ))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            }
        };
        lines.push((D, format!("epochs: {timeline}")));
        match &s.drift {
            None => lines.push((D, "drift: (no baseline)".to_string())),
            Some(flags) if flags.is_empty() => lines.push((D, "drift: clean".to_string())),
            Some(flags) => {
                lines.push((D, format!("drift: {} flag(s)", flags.len())));
                for flag in flags {
                    lines.push((D, format!("  !! {flag}")));
                }
            }
        }

        // ---- wall-clock pane: environment only ----
        lines.push((
            W,
            format!(
                "feed: {} ledger {}",
                s.connected.as_deref().unwrap_or("(not connected)"),
                s.ledger_path.as_deref().unwrap_or("(none)")
            ),
        ));
        let parallelism = s.run.as_ref().map(|r| r.parallelism);
        lines.push((
            W,
            format!(
                "env: uptime {:.1}s parallelism {} ticks {}",
                s.uptime_s,
                parallelism.map_or_else(|| "?".to_string(), |p| p.to_string()),
                s.ticks
            ),
        ));
        for note in &s.notes {
            lines.push((W, format!("note: {note}")));
        }

        Frame { width: self.width, lines }
    }
}

/// Integer per-mille formatter: avoids float division so the
/// deterministic pane never depends on float formatting.
fn permille(part: u64, total: u64) -> String {
    match (part * 1000).checked_div(total) {
        None => "---".to_string(),
        Some(pm) => format!("{}.{}%", pm / 10, pm % 10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_is_fixed_width_and_integer_scaled() {
        assert_eq!(sparkline(&[], 8), "        ");
        assert_eq!(sparkline(&[0, 0, 0], 8).chars().count(), 8);
        let line = sparkline(&[1, 5, 10], 8);
        assert_eq!(line.chars().count(), 8);
        assert!(line.ends_with('@'), "max value maps to the darkest glyph: {line:?}");
        assert_eq!(&line[..5], "     ");
        // Window: only the last `width` values matter.
        assert_eq!(sparkline(&[99, 1, 1], 2), sparkline(&[1, 1], 2));
        // All-equal values are all darkest; zeros stay blank.
        assert_eq!(sparkline(&[4, 0, 4], 3), "@ @");
    }

    #[test]
    fn pad_counts_chars_not_bytes() {
        assert_eq!(pad("ab", 4), "ab  ");
        assert_eq!(pad("abcdef", 4), "abcd");
        let city = "Zürich"; // 6 chars, 7 bytes
        assert_eq!(pad(city, 8).chars().count(), 8);
    }

    #[test]
    fn permille_never_touches_floats() {
        assert_eq!(permille(0, 0), "---");
        assert_eq!(permille(1, 3), "33.3%");
        assert_eq!(permille(3, 3), "100.0%");
    }
}
