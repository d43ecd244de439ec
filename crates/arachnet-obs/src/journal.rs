//! Run journal: append-only JSONL heartbeats for long sweeps.
//!
//! A multi-hour soak run is a black box without progress telemetry. The
//! sweep engine emits a [`Heartbeat`] roughly once per heartbeat interval
//! (plus one final beat at completion); the [`Journal`] appends each beat
//! as one JSON line to `JOURNAL_<id>.jsonl` and mirrors it to stderr as a
//! live progress line. Everything here is **wall-domain** — the journal
//! never feeds `METRICS_<id>.json`, so enabling it cannot perturb the
//! deterministic export (DESIGN.md §11, §15).
//!
//! The file format is torn-tail tolerant by construction: each record is a
//! single `\n`-terminated JSON object, and [`read_journal`] drops a final
//! line that is unterminated or fails to parse — exactly the recovery
//! contract the checkpoint codec already follows for its binary records.

use crate::jsonval::{parse_json, JsonValue};
use crate::{json_f64, warn_str};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One wall-domain progress record for a running sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// Milliseconds since the sweep started (wall clock).
    pub t_ms: u64,
    /// Total trials the sweep will run (flat job space).
    pub trials: u64,
    /// Trials completed so far (including restored ones).
    pub completed: u64,
    /// Trials quarantined so far.
    pub quarantined: u64,
    /// Trials restored from a checkpoint at startup.
    pub restored: u64,
    /// Trials skipped by budget exhaustion so far.
    pub skipped: u64,
    /// Trials currently in flight across the worker pool.
    pub inflight: u32,
    /// Worker threads serving this sweep.
    pub workers: u32,
    /// Trials flagged by the stall watchdog so far.
    pub stalled: u64,
    /// Observed throughput, trials per second (completed-since-start / t).
    pub tps: f64,
    /// Estimated seconds to completion at the observed throughput
    /// (`None` until throughput is measurable).
    pub eta_secs: Option<f64>,
    /// Seconds left in the wall-clock budget, if one is set.
    pub budget_secs_left: Option<f64>,
    /// True on the final heartbeat written when the sweep exits.
    pub done: bool,
}

impl Heartbeat {
    /// Encode as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"t_ms\":{},\"trials\":{},\"completed\":{},\"quarantined\":{},\"restored\":{},\"skipped\":{},\"inflight\":{},\"workers\":{},\"stalled\":{},\"tps\":{}",
            self.t_ms,
            self.trials,
            self.completed,
            self.quarantined,
            self.restored,
            self.skipped,
            self.inflight,
            self.workers,
            self.stalled,
            json_f64(self.tps),
        );
        match self.eta_secs {
            Some(v) => s.push_str(&format!(",\"eta_secs\":{}", json_f64(v))),
            None => s.push_str(",\"eta_secs\":null"),
        }
        match self.budget_secs_left {
            Some(v) => s.push_str(&format!(",\"budget_secs_left\":{}", json_f64(v))),
            None => s.push_str(",\"budget_secs_left\":null"),
        }
        s.push_str(&format!(",\"done\":{}}}", self.done));
        s
    }

    /// Decode one journal line. `None` for torn or foreign lines.
    pub fn parse(line: &str) -> Option<Heartbeat> {
        let v = parse_json(line.trim_end()).ok()?;
        let u = |k: &str| v.get(k)?.as_f64().map(|x| x.max(0.0) as u64);
        let opt = |k: &str| match v.get(k) {
            Some(JsonValue::Num(x)) => Some(Some(*x)),
            Some(JsonValue::Null) | None => Some(None),
            _ => None,
        };
        Some(Heartbeat {
            t_ms: u("t_ms")?,
            trials: u("trials")?,
            completed: u("completed")?,
            quarantined: u("quarantined")?,
            restored: u("restored")?,
            skipped: u("skipped")?,
            inflight: u("inflight")? as u32,
            workers: u("workers")? as u32,
            stalled: u("stalled")?,
            // Journals written before the rate-math clamp could carry
            // `"tps":null` (a non-finite rate through `json_f64`); read
            // those back as 0.0 instead of flagging the file corrupt.
            tps: match v.get("tps") {
                Some(JsonValue::Num(x)) => *x,
                Some(JsonValue::Null) => 0.0,
                _ => return None,
            },
            eta_secs: opt("eta_secs")?,
            budget_secs_left: opt("budget_secs_left")?,
            done: v.get("done")?.as_bool()?,
        })
    }

    /// One-line human progress string for the live stderr stream.
    pub fn progress_line(&self) -> String {
        let pct = if self.trials > 0 {
            100.0 * self.completed as f64 / self.trials as f64
        } else {
            100.0
        };
        let mut s = format!(
            "[journal] {:5.1}% {}/{} trials  {:.1} trials/s",
            pct, self.completed, self.trials, self.tps
        );
        if let Some(eta) = self.eta_secs {
            s.push_str(&format!("  eta {eta:.0}s"));
        }
        if self.quarantined > 0 {
            s.push_str(&format!("  quarantined {}", self.quarantined));
        }
        if self.stalled > 0 {
            s.push_str(&format!("  stalled {}", self.stalled));
        }
        if let Some(b) = self.budget_secs_left {
            s.push_str(&format!("  budget {b:.0}s left"));
        }
        if self.done {
            s.push_str("  done");
        }
        s
    }
}

/// Append-only heartbeat writer.
///
/// Opens the file in append mode (multi-pass experiments share one
/// journal); IO errors warn once and self-disable so telemetry can never
/// take a run down.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Option<File>,
}

impl Journal {
    /// Open (creating or appending) the journal at `path`.
    pub fn open(path: &Path) -> Journal {
        let file = match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => Some(f),
            Err(e) => {
                warn_str(&format!("journal: cannot open {}: {e}", path.display()));
                None
            }
        };
        Journal {
            path: path.to_path_buf(),
            file,
        }
    }

    /// Where this journal writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one heartbeat line; flushes so the tail is observable while
    /// the run is still going.
    pub fn append(&mut self, beat: &Heartbeat) {
        self.append_line(&beat.to_json());
    }

    /// Append one raw pre-encoded JSON line (the serve tier journals its
    /// own beat shape through the same writer). `line` must be a single
    /// JSON object without the trailing newline; the same flush-per-line
    /// and warn-once-then-disable contract as [`Journal::append`] applies.
    pub fn append_line(&mut self, line: &str) {
        let Some(f) = self.file.as_mut() else { return };
        let line = format!("{line}\n");
        if let Err(e) = f.write_all(line.as_bytes()).and_then(|()| f.flush()) {
            warn_str(&format!(
                "journal: write to {} failed, disabling: {e}",
                self.path.display()
            ));
            self.file = None;
        }
    }
}

/// Clamped throughput/ETA math shared by every heartbeat emitter.
///
/// Returns `(rate_per_sec, eta_secs)` for `completed` units over
/// `elapsed_secs` of wall clock with `remaining` units to go. The wall
/// delta can legitimately be ~zero — the first beat after a checkpoint
/// resume fires before the clock has advanced — and naive division there
/// produces `inf`/`NaN`, which [`json_f64`] serializes as `null` in the
/// *numeric* `tps` field and breaks [`Heartbeat::parse`] on readback. So:
/// a window under 1 ms reports a rate of `0.0`, and the ETA is `None`
/// whenever the rate is zero or either input is non-finite.
pub fn progress_rates(completed: u64, elapsed_secs: f64, remaining: u64) -> (f64, Option<f64>) {
    if !elapsed_secs.is_finite() || elapsed_secs < 1e-3 {
        return (0.0, None);
    }
    let rate = completed as f64 / elapsed_secs;
    if !rate.is_finite() || rate <= 0.0 {
        return (0.0, None);
    }
    let eta = remaining as f64 / rate;
    (rate, eta.is_finite().then_some(eta))
}

/// Read a journal back, tolerating a torn tail.
///
/// Every complete line must parse as a [`Heartbeat`]; a final line that is
/// missing its terminator or fails to parse (a crash mid-append) is
/// silently dropped. A malformed line *before* the tail is an error — that
/// is corruption, not tearing.
pub fn read_journal(path: &Path) -> Result<Vec<Heartbeat>, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("journal: cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    let mut lines = raw.split_inclusive('\n').peekable();
    while let Some(line) = lines.next() {
        let last = lines.peek().is_none();
        let torn = !line.ends_with('\n');
        match Heartbeat::parse(line) {
            Some(b) if !torn => out.push(b),
            // A parseable but unterminated tail still counts as torn: the
            // writer flushes line-atomically, so trust only complete lines.
            _ if last => break,
            _ => {
                return Err(format!(
                    "journal: corrupt record in {} (not at tail)",
                    path.display()
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(t_ms: u64, completed: u64, done: bool) -> Heartbeat {
        Heartbeat {
            t_ms,
            trials: 96,
            completed,
            quarantined: 1,
            restored: 3,
            skipped: 0,
            inflight: 4,
            workers: 4,
            stalled: 2,
            tps: 12.5,
            eta_secs: Some(3.2),
            budget_secs_left: None,
            done,
        }
    }

    #[test]
    fn heartbeat_json_roundtrips() {
        let b = beat(1500, 40, false);
        assert_eq!(Heartbeat::parse(&b.to_json()), Some(b));
        let none = Heartbeat {
            eta_secs: None,
            budget_secs_left: Some(9.0),
            ..b
        };
        assert_eq!(Heartbeat::parse(&none.to_json()), Some(none));
    }

    #[test]
    fn progress_line_mentions_the_essentials() {
        let line = beat(1500, 48, true).progress_line();
        assert!(line.contains("48/96"), "{line}");
        assert!(line.contains("12.5 trials/s"), "{line}");
        assert!(line.contains("quarantined 1"), "{line}");
        assert!(line.contains("stalled 2"), "{line}");
        assert!(line.contains("done"), "{line}");
    }

    #[test]
    fn journal_appends_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("arachnet-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("JOURNAL_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path);
        j.append(&beat(100, 10, false));
        j.append(&beat(200, 96, true));
        drop(j);
        let beats = read_journal(&path).unwrap();
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[1].completed, 96);
        assert!(beats[1].done);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_but_midfile_corruption_is_an_error() {
        let dir =
            std::env::temp_dir().join(format!("arachnet-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("JOURNAL_torn.jsonl");

        // Simulate a crash mid-append: truncate the second record.
        let full = beat(100, 10, false).to_json() + "\n" + &beat(200, 20, false).to_json();
        let torn = &full[..full.len() - 7];
        std::fs::write(&path, torn).unwrap();
        let beats = read_journal(&path).unwrap();
        assert_eq!(beats.len(), 1, "torn tail must be dropped, head kept");
        assert_eq!(beats[0].completed, 10);

        // Corruption before the tail must NOT be silently dropped.
        let bad = format!("garbage\n{}\n", beat(300, 30, false).to_json());
        std::fs::write(&path, bad).unwrap();
        assert!(read_journal(&path).is_err());

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn progress_rates_clamp_zero_and_nonfinite_windows() {
        // Zero (and sub-millisecond) wall deltas — the first beat after a
        // checkpoint resume — must not divide through to inf/NaN.
        assert_eq!(progress_rates(40, 0.0, 56), (0.0, None));
        assert_eq!(progress_rates(40, 1e-9, 56), (0.0, None));
        assert_eq!(progress_rates(40, f64::NAN, 56), (0.0, None));
        assert_eq!(progress_rates(0, 10.0, 56), (0.0, None));
        // A healthy window reports plain division.
        let (tps, eta) = progress_rates(40, 4.0, 20);
        assert_eq!(tps, 10.0);
        assert_eq!(eta, Some(2.0));
        // Whatever comes out must survive the JSON roundtrip as numbers.
        assert!(json_f64(tps) != "null");
    }

    #[test]
    fn torn_tail_resume_roundtrip_keeps_rates_parseable() {
        let dir =
            std::env::temp_dir().join(format!("arachnet-journal-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("JOURNAL_resume.jsonl");
        let _ = std::fs::remove_file(&path);

        // Run 1 crashes mid-append: one good beat plus a torn tail.
        let mut j = Journal::open(&path);
        j.append(&beat(100, 10, false));
        drop(j);
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"t_ms\":200,\"tri").unwrap();
        }

        // Run 2 resumes: the first beat fires before the wall clock moves,
        // so its rates go through the clamp — tps 0.0, ETA null.
        let (tps, eta) = progress_rates(10, 0.0, 86);
        let mut j = Journal::open(&path);
        j.append(&Heartbeat {
            tps,
            eta_secs: eta,
            ..beat(1, 10, false)
        });
        j.append(&beat(900, 96, true));
        drop(j);

        // Readback: the torn tail from run 1 sits mid-file now, but each
        // *line* is still parsed independently — it fails parse and is not
        // at the tail, so the file reads as corrupt... unless the torn
        // bytes were never newline-terminated, in which case run 2's first
        // append glued onto them. Either way the reader must not panic and
        // the final done beat must be reachable after a repair pass.
        match read_journal(&path) {
            Ok(beats) => {
                assert!(beats.iter().any(|b| b.done));
                assert!(beats.iter().all(|b| b.tps.is_finite()));
            }
            Err(_) => {
                // The glued line is corruption mid-file; a resuming writer
                // that wants clean readback should truncate the torn tail
                // first. What must NOT happen is inf/NaN in run 2's beats.
            }
        }

        // The clean-resume path: truncate the torn tail, then resume.
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path);
        j.append(&beat(100, 10, false));
        drop(j);
        let mut j = Journal::open(&path);
        let (tps, eta) = progress_rates(10, 0.0, 86);
        assert_eq!((tps, eta), (0.0, None));
        j.append(&Heartbeat {
            tps,
            eta_secs: eta,
            ..beat(1, 10, false)
        });
        j.append(&beat(900, 96, true));
        drop(j);
        let beats = read_journal(&path).unwrap();
        assert_eq!(beats.len(), 3);
        assert_eq!(beats[1].tps, 0.0);
        assert_eq!(beats[1].eta_secs, None);
        assert!(beats[2].done);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_null_tps_lines_parse_as_zero() {
        // Journals written before the clamp could serialize a non-finite
        // rate as `"tps":null`; those files must still read back.
        let line = beat(100, 10, false)
            .to_json()
            .replace("\"tps\":12.5", "\"tps\":null");
        let b = Heartbeat::parse(&line).expect("null tps must parse");
        assert_eq!(b.tps, 0.0);
    }

    #[test]
    fn append_line_matches_append_on_disk() {
        let dir = std::env::temp_dir().join(format!("arachnet-journal-raw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("JOURNAL_raw.jsonl");
        let _ = std::fs::remove_file(&path);
        let b = beat(100, 10, false);
        let mut j = Journal::open(&path);
        j.append(&b);
        j.append_line(&b.to_json());
        drop(j);
        let raw = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1]);
        std::fs::remove_file(&path).unwrap();
    }
}
