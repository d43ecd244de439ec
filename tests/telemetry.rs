//! Run-telemetry layer, end to end through the experiment layer: journal
//! heartbeats (including torn-tail recovery), the stall watchdog, the
//! Chrome trace export, and — the invariant everything above rides on —
//! that turning all of it on never changes the deterministic
//! `METRICS_<id>.json` bytes at any thread count.

use std::fs;
use std::path::PathBuf;

use arachnet_experiments::dyn_scenarios::DynChurn;
use arachnet_experiments::report::{metrics_json, Experiment, ExperimentCtx};
use arachnet_obs::{chrome_trace, parse_json, read_journal, JsonValue};
use arachnet_sim::sweep::{run_sweep, SweepConfig, TelemetrySpec};
use arachnet_sim::wavesim::{UplinkResult, WaveSim};

const SEED: u64 = 11;

/// A fresh scratch directory for this test's journal files.
fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arachnet_telemetry_{}_{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Quick context with the whole telemetry layer on.
fn tele_ctx(threads: usize, dir: &PathBuf) -> ExperimentCtx {
    ExperimentCtx::builder(SEED)
        .quick()
        .threads(threads)
        .observe(true)
        .journal(true)
        .stall_secs(600.0) // far above any quick trial: never fires
        .lanes(true)
        .checkpoint_dir(dir)
        .build()
        .unwrap()
}

#[test]
fn journal_heartbeats_and_torn_tail_recovery() {
    let dir = scratch("journal");
    let ctx = tele_ctx(2, &dir);
    let report = DynChurn.run(&ctx);
    assert!(!report.telemetry.lanes.is_empty(), "lanes captured");
    let path = ctx.journal_path(DynChurn.id()).expect("journal on");
    let beats = read_journal(&path).expect("journal parses");
    assert!(!beats.is_empty(), "at least the final heartbeat");
    let last = beats.last().unwrap();
    assert!(last.done, "final heartbeat is marked done");
    assert_eq!(last.inflight, 0);
    assert_eq!(last.completed, last.trials);
    // A crash mid-write leaves an unterminated tail; recovery drops it and
    // keeps every complete line.
    let mut raw = fs::read_to_string(&path).unwrap();
    raw.push_str("{\"t_ms\":9,\"trials\":"); // torn tail, no newline
    let torn = dir.join("torn.jsonl");
    fs::write(&torn, &raw).unwrap();
    let recovered = read_journal(&torn).expect("torn tail tolerated");
    assert_eq!(recovered, beats, "complete lines survive");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chrome_trace_export_is_well_formed_for_dyn_churn() {
    let dir = scratch("chrome");
    let ctx = tele_ctx(2, &dir);
    let report = DynChurn.run(&ctx);
    let doc = chrome_trace(
        &report.telemetry.lanes,
        &[],
        &report.snapshot.events,
        report.snapshot.seed,
        1_000,
    );
    let parsed = parse_json(&doc).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Worker trial lanes live in pid 1, sim events in pid 2 — both present
    // for an observed churn run with lanes on.
    let pid_of = |e: &JsonValue| e.get("pid").and_then(JsonValue::as_f64).unwrap_or(-1.0);
    let ph_of = |e: &JsonValue| {
        e.get("ph")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    assert!(
        events.iter().any(|e| pid_of(e) == 1.0 && ph_of(e) == "X"),
        "worker lanes present"
    );
    assert!(
        events.iter().any(|e| pid_of(e) == 2.0 && ph_of(e) == "i"),
        "sim events present"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chrome_trace_shows_a_worker_helping_the_last_trial() {
    // Trial 0 returns at once; trial 1 sends 64 packets, which fan out as
    // 64 items over the pool, so the worker that ran out of trials helps.
    let sim = WaveSim::paper(SEED);
    let cfg = SweepConfig::new(SEED)
        .with_threads(2)
        .with_telemetry(TelemetrySpec::new().with_lanes(true));
    let run = run_sweep(&cfg, 2, |i, _seed| match i {
        0 => None,
        _ => Some(sim.uplink_trial(8, 3_000.0, 64)),
    });
    let bare = sim.uplink_trial(8, 3_000.0, 64);
    assert_eq!(
        run.results[1],
        Ok(Some::<UplinkResult>(bare)),
        "helping moved a result"
    );

    let doc = chrome_trace(&run.telemetry.lanes, &[], &[], SEED, 1);
    let parsed = parse_json(&doc).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    let lane = |name: &str| {
        events.iter().find(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("name").and_then(JsonValue::as_str) == Some(name)
        })
    };
    let worker = |e: &JsonValue| e.get("tid").and_then(JsonValue::as_f64);
    let owner = worker(lane("trial 1").expect("trial 1 has a lane"));
    let help = lane("help trial 1").expect("the idle worker helped trial 1");
    assert_ne!(worker(help), owner, "help is drawn on the helper's row");
    assert_eq!(help.get("cat").and_then(JsonValue::as_str), Some("help"));

    // A worker's lanes (its trials, then its help) never overlap.
    let mut lanes = run.telemetry.lanes.clone();
    lanes.sort_by_key(|l| (l.worker, l.start_us));
    for w in lanes.windows(2).filter(|w| w[0].worker == w[1].worker) {
        assert!(
            w[0].start_us + w[0].dur_us <= w[1].start_us,
            "overlapping lanes on worker {}: {:?}",
            w[0].worker,
            w
        );
    }
}

#[test]
fn watchdog_flags_slow_trials_through_the_experiment_ctx() {
    let ctx = ExperimentCtx::builder(SEED)
        .quick()
        .threads(2)
        .stall_secs(0.05)
        .build()
        .unwrap();
    let cfg = ctx.sweep_for("tele-watchdog");
    let ((), warned) = arachnet_obs::capture(|| {
        let run = run_sweep(&cfg, 3, |i, _seed| {
            if i == 1 {
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            i as f64
        });
        assert!(
            run.telemetry.stalled >= 1,
            "watchdog flagged the slow trial"
        );
        assert!(
            run.telemetry.stall_events.iter().any(|e| e.slot == 1),
            "stall event names trial 1"
        );
    });
    assert!(
        warned.iter().any(|w| w.contains("stalled")),
        "watchdog warned: {warned:?}"
    );
}

#[test]
fn telemetry_never_changes_the_metrics_export() {
    let id = DynChurn.id();
    let plain = {
        let ctx = ExperimentCtx::builder(SEED)
            .quick()
            .threads(1)
            .observe(true)
            .build()
            .unwrap();
        metrics_json(id, &DynChurn.run(&ctx))
    };
    for threads in [1usize, 2, 8] {
        let dir = scratch(&format!("identity{threads}"));
        let doc = metrics_json(id, &DynChurn.run(&tele_ctx(threads, &dir)));
        assert_eq!(
            doc, plain,
            "journal+watchdog+lanes at {threads} threads must not move a byte"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
