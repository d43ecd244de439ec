//! Checkpoint/resume determinism, end to end through the experiment layer.
//!
//! The resilience contract: a sweep interrupted mid-run (deterministically,
//! via `--halt-after`) and then resumed from its checkpoint must export a
//! `METRICS_<id>.json` document byte-identical to an uninterrupted run —
//! at every worker-thread count, and even when one of the trials is
//! quarantined along the way. `tools/verify.sh` drives the same loop
//! through the `repro` binary; this test exercises the library path. A
//! halted run of any registered experiment must still report, flagged
//! partial.

use std::fs;
use std::path::PathBuf;

use arachnet_experiments::registry;
use arachnet_experiments::report::{export_metrics, metrics_json, Experiment, ExperimentCtx};
use arachnet_experiments::resilience::Resilience;

const SEED: u64 = 9;
/// Trials run before the deterministic interruption. The resilience
/// experiment's poisoned trial (index 3) sits *after* the halt point, so
/// the quarantine happens on the resumed leg.
const HALT_AFTER: u64 = 3;

/// A fresh scratch directory for this test's checkpoint files.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arachnet_resume_{}_{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn ctx(threads: usize) -> ExperimentCtx {
    ExperimentCtx::builder(SEED)
        .quick()
        .threads(threads)
        .observe(true)
        .build()
        .unwrap()
}

fn ctx_halted(threads: usize, dir: &PathBuf) -> ExperimentCtx {
    ExperimentCtx::builder(SEED)
        .quick()
        .threads(threads)
        .observe(true)
        .checkpoint_every(1)
        .halt_after(HALT_AFTER)
        .checkpoint_dir(dir)
        .build()
        .unwrap()
}

fn ctx_resumed(threads: usize, dir: &PathBuf) -> ExperimentCtx {
    ExperimentCtx::builder(SEED)
        .quick()
        .threads(threads)
        .observe(true)
        .resume(true)
        .checkpoint_dir(dir)
        .build()
        .unwrap()
}

#[test]
fn interrupted_then_resumed_run_is_byte_identical_at_every_thread_count() {
    // The ground truth: one uninterrupted run. Thread-count invariance of
    // this baseline itself is covered by the repro smoke tests.
    let baseline = metrics_json("resilience", &Resilience.run(&ctx(2)));
    assert!(baseline.contains("\"partial\":false"), "{baseline}");

    for threads in [1usize, 2, 8] {
        let dir = scratch(&format!("t{threads}"));
        let ckpt = dir.join("CHECKPOINT_resilience.bin");

        // Leg 1: halt after three dispatches. The report must be partial
        // and the checkpoint must survive on disk.
        let halted = Resilience.run(&ctx_halted(threads, &dir));
        assert!(
            halted.is_partial(),
            "threads {threads}: halted run not partial"
        );
        assert!(
            halted.sweep.skipped > 0,
            "threads {threads}: nothing was skipped at the halt point"
        );
        assert!(
            ckpt.is_file(),
            "threads {threads}: no checkpoint left by the halted run"
        );
        let partial_doc = metrics_json("resilience", &halted);
        assert!(partial_doc.contains("\"partial\":true"), "{partial_doc}");
        assert!(partial_doc.contains("\"sweep.skipped\""), "{partial_doc}");

        // Leg 2: resume. Finished trials are restored, the poisoned trial
        // is quarantined on this leg, and the export matches the
        // uninterrupted baseline byte for byte.
        let resumed = Resilience.run(&ctx_resumed(threads, &dir));
        assert_eq!(
            resumed.sweep.restored, HALT_AFTER,
            "threads {threads}: wrong restore count"
        );
        assert_eq!(resumed.sweep.quarantined, 1, "threads {threads}");
        assert!(
            !resumed.is_partial(),
            "threads {threads}: resumed run partial"
        );
        assert!(
            !ckpt.exists(),
            "threads {threads}: completed resume left its checkpoint behind"
        );
        assert_eq!(
            metrics_json("resilience", &resumed),
            baseline,
            "threads {threads}: resumed metrics differ from uninterrupted run"
        );

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn quarantined_trials_survive_a_checkpoint_round_trip() {
    // Interrupt *after* the poisoned trial has been quarantined: the
    // checkpoint must carry the failure (with its attempt count) so the
    // resumed run neither re-runs it nor forgets it.
    let baseline = metrics_json("resilience", &Resilience.run(&ctx(2)));
    let dir = scratch("quarantine_roundtrip");

    let halted = Resilience.run(
        &ExperimentCtx::builder(SEED)
            .quick()
            .threads(1)
            .observe(true)
            .checkpoint_every(1)
            .halt_after(5)
            .checkpoint_dir(&dir)
            .build()
            .unwrap(),
    );
    assert_eq!(halted.sweep.quarantined, 1, "poison ran before the halt");
    assert!(halted.is_partial());

    let resumed = Resilience.run(&ctx_resumed(8, &dir));
    assert_eq!(resumed.sweep.restored, 5, "quarantined slot not restored");
    assert_eq!(resumed.sweep.quarantined, 1, "restored failure lost");
    assert_eq!(metrics_json("resilience", &resumed), baseline);

    let _ = fs::remove_dir_all(&dir);
}

fn ctx_halt(halt_after: u64) -> ExperimentCtx {
    ExperimentCtx::builder(SEED)
        .quick()
        .threads(2)
        .observe(true)
        .halt_after(halt_after)
        .build()
        .unwrap()
}

#[test]
fn every_experiment_reports_a_run_halted_before_its_sweep_finished() {
    // A run cut short after 0 or 1 dispatched trials still returns a
    // report (empty samples render as `-`), and every sweep-backed report
    // says it is partial.
    for halt in [0, 1] {
        let ctx = ctx_halt(halt);
        for e in registry::all() {
            let report = e.run(&ctx);
            assert!(!report.render().is_empty(), "{}", e.id());
            if report.sweep.trials > 0 {
                assert!(
                    report.is_partial(),
                    "{} halted after {halt} trial(s) is not partial",
                    e.id()
                );
            }
        }
    }
    // Budget-skipped packets count as neither sent nor lost. A run halted
    // after 3 packets sent them all at its first point (Tag 8, 93.75 bps):
    // that loss cell holds exactly the losses among those 3, which the
    // recorder saw as decode failures, and the 17 cells that sent nothing
    // export null.
    let fig12 = registry::find("fig12a12b").unwrap().run(&ctx_halt(3));
    let m = export_metrics(&fig12);
    assert_eq!(m.get_count("sweep.completed"), Some(3));
    let (sent, unsent): (Vec<String>, Vec<String>) = fig12
        .measured()
        .into_iter()
        .map(|(key, _)| key)
        .filter(|key| key.starts_with("lost."))
        .partition(|key| m.get_count(key).is_some());
    assert_eq!(sent, ["lost.tag-8.93.75"]);
    assert_eq!(unsent.len(), 17);
    assert!(unsent.iter().all(|key| m.get_gauge(key).unwrap().is_nan()));
    let lost = m.get_count(&sent[0]).unwrap();
    let count = |kind: &str| m.get_count(&format!("sim.events.{kind}")).unwrap_or(0);
    assert_eq!(lost, count("decode_fail"));
    assert_eq!(count("decoded") + count("decode_fail"), 3);
}
