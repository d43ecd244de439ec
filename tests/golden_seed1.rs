//! Golden regression test: seed-1 headline numbers from EXPERIMENTS.md.
//!
//! The repro harness is only trustworthy if its numbers are stable: these
//! are the exact values EXPERIMENTS.md quotes for `--seed 1`, pinned so a
//! refactor that silently shifts a random stream (or a units bug in the
//! energy model) fails loudly instead of drifting the documentation. The
//! three artifacts chosen deliberately avoid the waveform fast path —
//! Table 2 is closed-form energy accounting, Fig. 16 runs the slot-level
//! simulator, Fig. 13(b) is edge-domain only — so they must survive any
//! PHY-layer optimization bit for bit.

use arachnet_experiments::registry;
use arachnet_experiments::report::ExperimentCtx;

fn run_full(id: &str) -> String {
    let ctx = ExperimentCtx::builder(1)
        .build()
        .expect("valid golden context");
    registry::find(id)
        .unwrap_or_else(|err| panic!("registry is missing {id}: {err}"))
        .run(&ctx)
        .render()
}

#[test]
fn table2_duty_cycle_currents_match_experiments_md() {
    let out = run_full("table2");
    // Mode rows: MCU µA, total µA, power µW at 2.0 V.
    for marker in [
        "RX     6.5      6.4      12.5     12.4      25.0     24.8",
        "TX     4.7      4.7      25.5     25.5      51.0     51.0",
        "IDLE     0.6      0.6       3.7      3.8       7.5      7.6",
    ] {
        assert!(
            out.contains(marker),
            "table2 drifted; missing {marker:?} in:\n{out}"
        );
    }
    assert!(
        out.contains("saves 86 %"),
        "interrupt-driven saving claim drifted:\n{out}"
    );
}

#[test]
fn fig16_long_run_ratios_match_experiments_md() {
    let out = run_full("fig16");
    assert!(
        out.contains("non-empty = 0.801"),
        "fig16 non-empty ratio drifted:\n{out}"
    );
    assert!(
        out.contains("collision = 0.079"),
        "fig16 collision ratio drifted:\n{out}"
    );
    assert!(
        out.contains("0.84375"),
        "fig16 theoretical upper bound drifted:\n{out}"
    );
}

#[test]
fn fig13b_sync_offset_matches_experiments_md() {
    let out = run_full("fig13b");
    // EXPERIMENTS.md: "All 12 tags decode the same beacon within 0.43 ms".
    assert!(
        out.contains("max |offset| = 0.428 ms"),
        "fig13b sync offset drifted:\n{out}"
    );
}
