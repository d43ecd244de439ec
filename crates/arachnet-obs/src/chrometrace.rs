//! Chrome `trace_event` export: one timeline, two clocks.
//!
//! `repro trace <id> --chrome` writes `TRACE_<id>.chrome.json`, a JSON
//! document in the Trace Event Format that `chrome://tracing` and Perfetto
//! load directly. Three process lanes merge what the repo already records:
//!
//! * **pid 1 — sweep workers (wall µs)**: one thread row per worker, one
//!   complete (`ph:"X"`) event per trial lane captured by the sweep
//!   scheduler, and one (`help trial N`) per stretch a worker that ran out
//!   of trials spent running items of trial N. Timestamps are wall
//!   microseconds since the sweep started.
//! * **pid 2 — sim events (slot clock)**: the flight recorder's retained
//!   ring as instant (`ph:"i"`) events at `ts = slot × slot_us`. This is
//!   the *sim-slot* clock mapped one-slot-per-microsecond by default — it
//!   shares the x-axis with pid 1 but NOT its clock; the two domains are
//!   deliberately separate processes so the dual-clock mapping is explicit
//!   (DESIGN.md §15).
//! * **pid 3 — span aggregates**: per-stage wall totals from [`crate::span`]
//!   as back-to-back `ph:"X"` events. The span layer aggregates (it keeps
//!   no begin/end pairs), so these render cumulative cost per stage, not
//!   individual calls.
//!
//! Everything here is an offline exporter over already-collected data; it
//! costs nothing while a sim runs.

use crate::event::{Event, NO_TAG};
use crate::span::SpanStat;
use crate::{json_escape, json_f64};

/// One trial's occupancy of one worker, in wall µs since sweep start: the
/// worker ran the trial, or (`help`) ran items of it for the worker that did.
///
/// Collected by the sweep engine when lane capture is on; strictly
/// wall-domain (never part of the deterministic export).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialLane {
    /// Flat trial index within the sweep's job space.
    pub trial: u64,
    /// Worker thread that ran it.
    pub worker: u32,
    /// Wall-clock start, µs since the sweep began.
    pub start_us: u64,
    /// Wall-clock duration in µs (clamped to ≥ 1 so the bar is visible).
    pub dur_us: u64,
    /// Whether the trial completed (false = quarantined / budget-skipped).
    pub ok: bool,
    /// A help lane: this worker had run out of trials and ran items of
    /// `trial` for the worker running it.
    pub help: bool,
}

fn push_event(out: &mut String, first: &mut bool, body: String) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('\n');
    out.push_str(&body);
}

fn meta(pid: u32, tid: Option<u32>, name_key: &str, name: &str) -> String {
    let tid_field = tid.map_or(String::new(), |t| format!(",\"tid\":{t}"));
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid}{tid_field},\"name\":\"{name_key}\",\"args\":{{\"name\":\"{}\"}}}}",
        json_escape(name)
    )
}

/// Render a complete Trace Event Format document.
///
/// * `lanes` — per-worker trial lanes from the sweep scheduler (pid 1).
/// * `spans` — aggregated span stats, as returned by [`crate::take_spans`]
///   (pid 3).
/// * `events` — flight-recorder sim events (pid 2), stamped with `seed`.
/// * `slot_us` — sim-slot → µs scale for pid 2 (use 1 unless a run is so
///   long the lane would overflow the viewer's zoom).
pub fn chrome_trace(
    lanes: &[TrialLane],
    spans: &[(&'static str, SpanStat)],
    events: &[Event],
    seed: u64,
    slot_us: u64,
) -> String {
    let slot_us = slot_us.max(1);
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;

    // Process/thread naming so the viewer labels the lanes.
    push_event(&mut out, &mut first, meta(1, None, "process_name", "sweep workers (wall us)"));
    push_event(&mut out, &mut first, meta(2, None, "process_name", "sim events (slot clock)"));
    push_event(&mut out, &mut first, meta(3, None, "process_name", "span aggregates (wall us)"));
    let mut workers: Vec<u32> = lanes.iter().map(|l| l.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in &workers {
        push_event(&mut out, &mut first, meta(1, Some(*w), "thread_name", &format!("worker {w}")));
    }

    // pid 1: one X event per trial lane.
    for l in lanes {
        let (name, cat, outcome) = match (l.help, l.ok) {
            (true, _) => ("help trial", "help", "help"),
            (false, true) => ("trial", "trial", "ok"),
            (false, false) => ("trial", "trial", "failed"),
        };
        push_event(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{name} {}\",\"cat\":\"{cat}\",\"args\":{{\"trial\":{},\"outcome\":\"{outcome}\"}}}}",
                l.worker,
                l.start_us,
                l.dur_us.max(1),
                l.trial,
                l.trial,
            ),
        );
    }

    // pid 2: flight-recorder events on the sim-slot clock.
    for e in events {
        let tag = if e.tag == NO_TAG {
            "null".to_string()
        } else {
            e.tag.to_string()
        };
        let scope = if e.kind.is_anomaly() { "p" } else { "t" };
        push_event(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":{},\"s\":\"{}\",\"name\":\"{}\",\"cat\":\"sim\",\"args\":{{\"slot\":{},\"tag\":{},\"seed\":{},\"detail\":\"{}\"}}}}",
                e.slot.saturating_mul(slot_us),
                scope,
                json_escape(e.kind.label()),
                e.slot,
                tag,
                seed,
                json_escape(&e.kind.describe())
            ),
        );
    }

    // pid 3: span aggregates laid end to end (the span layer keeps totals,
    // not begin/end pairs — see module docs).
    let mut cursor_us = 0u64;
    for (name, stat) in spans {
        let dur_us = (stat.total_ns / 1_000).max(1);
        let mean_us = if stat.calls > 0 {
            stat.total_ns as f64 / stat.calls as f64 / 1_000.0
        } else {
            0.0
        };
        push_event(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"X\",\"pid\":3,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"span\",\"args\":{{\"calls\":{},\"mean_us\":{}}}}}",
                cursor_us,
                dur_us,
                json_escape(name),
                stat.calls,
                json_f64(mean_us)
            ),
        );
        cursor_us = cursor_us.saturating_add(dur_us);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::jsonval::parse_json;

    #[test]
    fn export_is_valid_trace_event_json_with_all_three_lanes() {
        let lanes = [
            TrialLane {
                trial: 0,
                worker: 0,
                start_us: 0,
                dur_us: 120,
                ok: true,
                help: false,
            },
            TrialLane {
                trial: 1,
                worker: 1,
                start_us: 5,
                dur_us: 0,
                ok: false,
                help: false,
            },
        ];
        let spans = [("phy.decode", SpanStat { total_ns: 42_000, calls: 7 })];
        let events = [Event {
            slot: 10,
            tag: 3,
            kind: EventKind::Collision { transmitters: 2 },
        }];
        let doc = chrome_trace(&lanes, &spans, &events, 7, 1);
        let v = parse_json(&doc).expect("chrome trace must be valid JSON");
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 process metas + 2 thread metas + 2 lanes + 1 sim + 1 span.
        assert_eq!(te.len(), 9, "{doc}");
        let phases: Vec<&str> =
            te.iter().map(|e| e.get("ph").unwrap().as_str().unwrap()).collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 5);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        // Zero-duration lanes are clamped to 1 µs so the bar renders.
        let lane1 = te
            .iter()
            .find(|e| e.get("name").map(|n| n.as_str()) == Some(Some("trial 1")))
            .unwrap();
        assert_eq!(lane1.get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            lane1.get("args").unwrap().get("outcome").unwrap().as_str(),
            Some("failed")
        );
        // Sim events land at slot × slot_us on the pid-2 clock.
        let sim = te.iter().find(|e| e.get("pid").unwrap().as_f64() == Some(2.0) && e.get("ph").unwrap().as_str() == Some("i")).unwrap();
        assert_eq!(sim.get("ts").unwrap().as_f64(), Some(10.0));
        assert_eq!(sim.get("s").unwrap().as_str(), Some("p"), "anomaly → process scope");
    }

    #[test]
    fn slot_scale_and_empty_inputs() {
        let doc = chrome_trace(&[], &[], &[], 0, 50);
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
        let e = Event { slot: 4, tag: NO_TAG, kind: EventKind::Decoded };
        let doc = chrome_trace(&[], &[], &[e], 1, 50);
        let v = parse_json(&doc).unwrap();
        let sim = v.get("traceEvents").unwrap().as_arr().unwrap().last().unwrap().clone();
        assert_eq!(sim.get("ts").unwrap().as_f64(), Some(200.0));
        assert_eq!(sim.get("args").unwrap().get("tag"), Some(&crate::jsonval::JsonValue::Null));
    }
}
