//! Trial lanes, end to end through the experiment layer: the Chrome trace
//! export and — the invariant it rides on — that capturing lanes never
//! changes the deterministic `METRICS_<id>.json` bytes at any thread
//! count.

use arachnet_experiments::dyn_scenarios::DynChurn;
use arachnet_experiments::report::{metrics_json, Experiment, ExperimentCtx};
use arachnet_obs::{chrome_trace, parse_json, JsonValue};
use arachnet_sim::sweep::{run_sweep, SweepConfig};
use arachnet_sim::wavesim::{UplinkResult, WaveSim};

const SEED: u64 = 11;

/// Quick observed context with trial lanes on.
fn lanes_ctx(threads: usize) -> ExperimentCtx {
    ExperimentCtx::builder(SEED)
        .quick()
        .threads(threads)
        .observe(true)
        .lanes(true)
        .build()
        .unwrap()
}

#[test]
fn chrome_trace_export_is_well_formed_for_dyn_churn() {
    let report = DynChurn.run(&lanes_ctx(2));
    assert!(!report.lanes.is_empty(), "lanes captured");
    let doc = chrome_trace(
        &report.lanes,
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
}

#[test]
fn chrome_trace_shows_a_worker_helping_the_last_trial() {
    // Trial 0 returns at once; trial 1 sends 64 packets, which fan out as
    // 64 items over the pool, so the worker that ran out of trials helps.
    let sim = WaveSim::paper(SEED);
    let cfg = SweepConfig::new(SEED).with_threads(2).with_lanes(true);
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

    let doc = chrome_trace(&run.lanes, &[], &[], SEED, 1);
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
    let mut lanes = run.lanes.clone();
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
        let report = DynChurn.run(&lanes_ctx(threads));
        assert!(
            !report.lanes.is_empty(),
            "lanes captured at {threads} threads"
        );
        let doc = metrics_json(id, &report);
        assert_eq!(
            doc, plain,
            "lanes at {threads} threads must not move a byte"
        );
    }
}
