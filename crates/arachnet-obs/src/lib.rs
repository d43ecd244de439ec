//! Zero-dependency observability for the ARACHNET reproduction.
//!
//! This crate is std-only (the no-external-deps rule) and provides three
//! building blocks, all designed so that the *disabled* path costs a single
//! branch and the *enabled* path stays allocation-free per event once the
//! bounded buffers are warm:
//!
//! * [`span`] — wall-clock timing of PHY/DSP stages with thread-local
//!   aggregation. Span *names* merge deterministically (sorted); span
//!   *durations* are wall-domain and are never part of the deterministic
//!   export (DESIGN.md §11).
//! * [`Recorder`] — a bounded ring-buffer flight recorder of structured sim
//!   events ([`EventKind`]) stamped with sim slot, tag id, and trial seed.
//!   `Recorder::disabled()` is a `None` handle: recording is one branch.
//! * [`MetricSet`] — an ordered (BTreeMap) bag of named counts and gauges
//!   with a stable JSON encoding used by `repro --metrics`; byte-identical
//!   output at any `--threads` count is enforced by the repo smoke tests.
//!
//! The [`warn!`] macro (and [`capture`]) replace ad-hoc `eprintln!` warnings
//! so tests can assert on what was emitted; the stderr path deduplicates
//! repeats ([`flush_warnings`] prints the `×N` summaries).
//!
//! Two offline readers sit on top (DESIGN.md §15):
//! [`chrome_trace`]/[`TrialLane`] (Chrome `trace_event` export merging
//! worker lanes, sim events, and span aggregates on a dual-clock
//! timeline), strictly wall-domain so it can never perturb the
//! deterministic metrics export, and [`parse_json`] (the minimal JSON
//! reader behind `repro diff`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrometrace;
mod event;
mod jsonval;
mod metrics;
mod recorder;
mod span;
mod timeline;
mod warnsink;

pub use chrometrace::{chrome_trace, TrialLane};
pub use event::{DecodeFailReason, Event, EventKind, MigrateReason, KIND_COUNT, NO_TAG};
pub use jsonval::{parse_json, JsonError, JsonValue};
pub use metrics::{MetricSet, MetricValue};
pub use recorder::{
    default_ring_capacity, set_default_ring_capacity, Recorder, RecorderSnapshot, DEFAULT_CAPACITY,
};
pub use span::{flush_thread_spans, span, take_spans, SpanStat, SpanTimer};
pub use timeline::render_timeline;
pub use warnsink::{capture, flush_warnings, warn_str};

/// Format an `f64` for the deterministic JSON export.
///
/// Uses Rust's shortest-roundtrip `Display` (deterministic across runs and
/// platforms for finite values); non-finite values map to `null` so the
/// output stays valid JSON.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` never emits an exponent for integral magnitudes below
        // 1e16, and exponents it does emit ("1e300") are valid JSON.
        s
    } else {
        "null".into()
    }
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_is_valid_json() {
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
