//! Fig. 16 — long-running slot statistics under pattern c3.

use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};
use arachnet_sim::sweep::{run_sweep, SweepConfig};

use crate::render::f;
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// Fig. 16 experiment: one recorded trajectory plus a multi-seed sweep of
/// the whole-run averages.
pub struct Fig16;

impl Experiment for Fig16 {
    fn id(&self) -> &'static str {
        "fig16"
    }

    fn title(&self) -> &'static str {
        "Long-running slot statistics (pattern c3)"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 16"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report(
            ctx.scale(1_000, 10_000),
            ctx.scale(4, 8),
            &ctx.sweep_for(self.id()),
            ctx.observe(),
        )
    }
}

/// Runs c3 for `slots` slots (trajectory from the sweep's base seed) and
/// sweeps `extra_seeds` further runs in parallel for the whole-run
/// averages the paper reports. With `observe`, the trajectory run carries
/// a flight recorder and the report exports slot-outcome metrics.
pub fn report(slots: u64, extra_seeds: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let mut sim = SlotSim::new(SlotSimConfig::new(Pattern::c3(), sweep.base_seed));
    sim.record_trajectory(true);
    if observe {
        sim.attach_recorder(arachnet_obs::Recorder::enabled(sweep.base_seed));
    }
    let run = sim.run(slots);
    let snapshot = sim.take_recorder_snapshot();
    let stride = (slots / 20).max(1) as usize;
    let rows: Vec<Vec<String>> = run
        .trajectory
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i == run.trajectory.len() - 1)
        .map(|(i, &(ne, col))| {
            let bar = "#".repeat((ne * 40.0) as usize);
            vec![format!("{i}"), f(ne, 3), f(col, 3), bar]
        })
        .collect();
    // Whole-run averages across an independent seed sweep (parallel).
    let sweep_runs = run_sweep(sweep, extra_seeds, |_trial, seed| {
        let mut s = SlotSim::new(SlotSimConfig::new(Pattern::c3(), seed));
        let r = s.run(slots);
        (r.non_empty_ratio, r.collision_ratio)
    });
    let ok = || sweep_runs.results.iter().filter_map(|r| r.as_ref().ok());
    let ne: Vec<f64> = ok().map(|&(a, _)| a).collect();
    let col: Vec<f64> = ok().map(|&(_, b)| b).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut metrics = arachnet_obs::MetricSet::new();
    if observe {
        metrics.set_count("fig16.slots", slots);
        metrics.set_count("fig16.seeds", ne.len() as u64 + 1);
        metrics.set_gauge("fig16.non_empty_ratio", run.non_empty_ratio);
        metrics.set_gauge("fig16.collision_ratio", run.collision_ratio);
        metrics.set_gauge("fig16.sweep_non_empty_mean", mean(&ne));
        metrics.set_gauge("fig16.sweep_collision_mean", mean(&col));
    }
    Report::single(
        Section::new(
            format!(
                "Fig. 16 — Non-empty / collision ratio over {slots} slots (32-slot window, \
                 pattern c3)"
            ),
            &["slot", "non-empty", "collision", "non-empty bar"],
            rows,
        )
        .with_note(format!(
            "whole-run averages: non-empty = {:.3} (paper: 0.812; theoretical upper bound \
             0.84375), collision = {:.3} (paper: 0.056).\nacross {} independent seeds: \
             non-empty = {:.3}, collision = {:.3}.\nfluctuations stem from DL beacon loss \
             (slot desynchronization) and UL decode failures.",
            run.non_empty_ratio,
            run.collision_ratio,
            ne.len(),
            mean(&ne),
            mean(&col),
        )),
    )
    .with_metrics(metrics)
    .with_snapshot(snapshot)
    .with_sweep(sweep_runs.stats)
    .with_telemetry(sweep_runs.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_averages() {
        let out = report(500, 2, &SweepConfig::new(1).with_threads(2), false).render();
        assert!(out.contains("whole-run averages"));
        assert!(out.contains("0.84375"));
        assert!(out.contains("across 2 independent seeds"));
    }

    #[test]
    fn observed_run_exports_outcome_metrics() {
        let r = report(400, 2, &SweepConfig::new(1).with_threads(2), true);
        assert_eq!(r.metrics.get_count("fig16.slots"), Some(400));
        assert!(r.metrics.get_gauge("fig16.non_empty_ratio").is_some());
        // 400 slots of a busy pattern must leave events in the recorder.
        assert!(r.snapshot.total() >= 400, "total {}", r.snapshot.total());
        let m = r.merged_metrics();
        assert!(m.get_count("sim.events.decoded").unwrap_or(0) > 0);
    }
}
