//! The `repro diff` regression sentinel: structural comparison of two
//! `METRICS_<id>.json` exports with per-metric relative tolerances.
//!
//! The byte-identity gates in `tools/verify.sh` used `cmp`, which can only
//! say "the files differ somewhere". [`diff_metrics`] parses both
//! documents (via [`arachnet_obs::parse_json`]), flattens them to dotted
//! keys, and compares value by value: numbers within a relative tolerance
//! pass, everything else (string/bool mismatches, missing or extra keys)
//! is a violation. The [`DiffReport`] renders a per-key table so a
//! regression names the metric that moved and by how much — and
//! `--tolerance 0` reproduces the old exact gate with a readable failure.

use arachnet_obs::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one flattened key compares across the two documents.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffEntry {
    /// Both sides numeric, relative difference within tolerance.
    /// `rel` is `|a-b| / max(|a|,|b|)` (0 when both are 0).
    NumOk {
        /// Left value.
        a: f64,
        /// Right value.
        b: f64,
        /// Relative difference.
        rel: f64,
    },
    /// Both sides numeric, relative difference past tolerance.
    NumViolation {
        /// Left value.
        a: f64,
        /// Right value.
        b: f64,
        /// Relative difference.
        rel: f64,
    },
    /// Non-numeric values (strings, bools, nulls, containers of different
    /// shape) that are not exactly equal.
    ValueMismatch {
        /// Left value, rendered.
        a: String,
        /// Right value, rendered.
        b: String,
    },
    /// Key present only in the left document.
    OnlyLeft,
    /// Key present only in the right document.
    OnlyRight,
}

impl DiffEntry {
    /// Is this entry a violation (fails the gate)?
    pub fn is_violation(&self) -> bool {
        !matches!(self, DiffEntry::NumOk { .. })
    }
}

/// The outcome of comparing two metrics documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Flattened keys that differed (or existed on only one side), with
    /// how. Keys identical on both sides are counted, not listed.
    pub entries: BTreeMap<String, DiffEntry>,
    /// Flattened keys that compared exactly equal.
    pub identical: usize,
    /// The tolerance the comparison ran with.
    pub tolerance: f64,
}

impl DiffReport {
    /// Number of violating entries (nonzero → the gate fails).
    pub fn violations(&self) -> usize {
        self.entries.values().filter(|e| e.is_violation()).count()
    }

    /// Did the comparison pass (no violations)?
    pub fn is_ok(&self) -> bool {
        self.violations() == 0
    }

    /// Renders the human-readable regression report (one line per
    /// differing key, then a summary line).
    pub fn render(&self, left: &str, right: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "diff {left} {right} (tolerance {})", self.tolerance);
        for (key, entry) in &self.entries {
            let line = match entry {
                DiffEntry::NumOk { a, b, rel } => {
                    format!("  ok        {key}: {a} vs {b} (rel {rel:.3e})")
                }
                DiffEntry::NumViolation { a, b, rel } => {
                    format!("  VIOLATION {key}: {a} vs {b} (rel {rel:.3e})")
                }
                DiffEntry::ValueMismatch { a, b } => {
                    format!("  VIOLATION {key}: {a} vs {b}")
                }
                DiffEntry::OnlyLeft => format!("  VIOLATION {key}: only in {left}"),
                DiffEntry::OnlyRight => format!("  VIOLATION {key}: only in {right}"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{} keys identical, {} within tolerance, {} violations",
            self.identical,
            self.entries.len() - self.violations(),
            self.violations()
        );
        out
    }
}

/// Renders a leaf value for mismatch messages.
fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => n.to_string(),
        JsonValue::Str(s) => format!("\"{s}\""),
        JsonValue::Arr(a) => format!("[{} items]", a.len()),
        JsonValue::Obj(o) => format!("{{{} keys}}", o.len()),
    }
}

/// Flattens a JSON document to `dotted.path -> leaf` pairs. Arrays flatten
/// by index (`key.0`, `key.1`, …); empty containers flatten to themselves
/// so a `{}`-vs-missing difference is still visible.
fn flatten(value: &JsonValue, prefix: &str, out: &mut BTreeMap<String, JsonValue>) {
    let join = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match value {
        JsonValue::Obj(map) if !map.is_empty() => {
            for (k, v) in map {
                flatten(v, &join(k), out);
            }
        }
        JsonValue::Arr(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &join(&i.to_string()), out);
            }
        }
        leaf => {
            out.insert(prefix.to_string(), leaf.clone());
        }
    }
}

/// Relative difference `|a-b| / max(|a|,|b|)`, 0 when both are zero.
///
/// A NaN on either side is `INFINITY` — never within tolerance. The
/// previous formulation fell into `f64::max`'s NaN-ignoring semantics:
/// `f64::max(NaN, 0.0)` is `0.0`, so `NaN` vs `0.0` scored a relative
/// difference of exactly 0 and compared as *identical* (the same trap the
/// PR 4 `total_cmp` fix closed in the quantile sort).
fn rel_diff(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        return f64::INFINITY;
    }
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Compares two metrics documents (raw JSON text) under a relative
/// per-metric tolerance. Returns `Err` with a parse diagnostic when either
/// document is not valid JSON; violations are reported in the
/// [`DiffReport`], not as errors.
pub fn diff_metrics(left: &str, right: &str, tolerance: f64) -> Result<DiffReport, String> {
    let a = parse_json(left).map_err(|e| format!("left document: {e}"))?;
    let b = parse_json(right).map_err(|e| format!("right document: {e}"))?;
    let mut fa = BTreeMap::new();
    let mut fb = BTreeMap::new();
    flatten(&a, "", &mut fa);
    flatten(&b, "", &mut fb);
    let mut report = DiffReport {
        tolerance,
        ..DiffReport::default()
    };
    for (key, va) in &fa {
        match fb.get(key) {
            None => {
                report.entries.insert(key.clone(), DiffEntry::OnlyLeft);
            }
            Some(vb) => {
                let entry = match (va, vb) {
                    (JsonValue::Num(x), JsonValue::Num(y)) => {
                        let rel = rel_diff(*x, *y);
                        if rel == 0.0 {
                            report.identical += 1;
                            continue;
                        } else if rel <= tolerance {
                            DiffEntry::NumOk { a: *x, b: *y, rel }
                        } else {
                            DiffEntry::NumViolation { a: *x, b: *y, rel }
                        }
                    }
                    _ if va == vb => {
                        report.identical += 1;
                        continue;
                    }
                    _ => DiffEntry::ValueMismatch {
                        a: render_value(va),
                        b: render_value(vb),
                    },
                };
                report.entries.insert(key.clone(), entry);
            }
        }
    }
    for key in fb.keys() {
        if !fa.contains_key(key) {
            report.entries.insert(key.clone(), DiffEntry::OnlyRight);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str =
        r#"{"experiment":"x","partial":false,"metrics":{"snr":12.5,"loss":0.01,"label":"ok"}}"#;

    #[test]
    fn identical_documents_pass_at_zero_tolerance() {
        let r = diff_metrics(A, A, 0.0).unwrap();
        assert!(r.is_ok());
        assert_eq!(r.violations(), 0);
        assert!(r.entries.is_empty());
        assert_eq!(r.identical, 5);
    }

    #[test]
    fn tolerance_separates_drift_from_regression() {
        let b = A.replace("12.5", "12.6"); // rel diff ~0.0079
        let tight = diff_metrics(A, &b, 0.001).unwrap();
        assert!(!tight.is_ok());
        assert!(matches!(
            tight.entries["metrics.snr"],
            DiffEntry::NumViolation { .. }
        ));
        let loose = diff_metrics(A, &b, 0.01).unwrap();
        assert!(loose.is_ok(), "{:?}", loose.entries);
        assert!(matches!(
            loose.entries["metrics.snr"],
            DiffEntry::NumOk { .. }
        ));
    }

    #[test]
    fn shape_changes_are_always_violations() {
        let missing = A.replace(",\"loss\":0.01", "");
        let r = diff_metrics(A, &missing, 1.0).unwrap();
        assert!(!r.is_ok());
        assert_eq!(r.entries["metrics.loss"], DiffEntry::OnlyLeft);
        let relabeled = A.replace("\"ok\"", "\"bad\"");
        let r = diff_metrics(A, &relabeled, 1.0).unwrap();
        assert!(matches!(
            r.entries["metrics.label"],
            DiffEntry::ValueMismatch { .. }
        ));
        let rendered = r.render("a.json", "b.json");
        assert!(rendered.contains("VIOLATION metrics.label"), "{rendered}");
        assert!(rendered.contains("1 violations"), "{rendered}");
    }

    #[test]
    fn nan_is_always_a_violation_in_every_ordering() {
        // `parse_json` refuses NaN literals, so exercise the library
        // contract directly: every NaN pairing — crucially NaN-vs-0.0,
        // where `f64::max(NaN, 0.0) == 0.0` used to zero the scale and
        // score the pair identical — must land outside any tolerance.
        for (a, b) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::NAN, 12.5),
            (12.5, f64::NAN),
            (f64::NAN, f64::NAN),
        ] {
            assert_eq!(rel_diff(a, b), f64::INFINITY, "{a} vs {b}");
        }
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        // On-disk, a NaN metric exports as `null` (`json_f64`); against a
        // number that is a ValueMismatch violation, not a silent pass.
        let nulled = A.replace("12.5", "null");
        let r = diff_metrics(A, &nulled, 1.0).unwrap();
        assert!(!r.is_ok());
        assert!(matches!(
            r.entries["metrics.snr"],
            DiffEntry::ValueMismatch { .. }
        ));
    }

    #[test]
    fn invalid_json_is_an_error_not_a_violation() {
        assert!(diff_metrics("{", A, 0.0).is_err());
        assert!(diff_metrics(A, "nope", 0.0)
            .unwrap_err()
            .contains("right document"));
    }
}
