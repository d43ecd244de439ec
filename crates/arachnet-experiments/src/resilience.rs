//! `resilience` — a self-test of the sweep runtime's quarantine path.
//!
//! One trial of this experiment panics *by design*, every run, at every
//! seed. The sweep must retry it (the deterministic salted-retry seed
//! changes nothing here — the failure depends only on the trial index),
//! quarantine it, and still deliver a complete report whose
//! `METRICS_resilience.json` carries `sweep.quarantined = 1`. The
//! `tools/verify.sh` quarantine smoke check runs this experiment and
//! fails the build if the poisoned trial ever aborts the process again —
//! the regression the old `unwrap` in the sweep aggregator allowed.

use arachnet_obs::MetricSet;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::first_convergence_time;
use arachnet_sim::sweep::run_sweep;

use crate::render::five_num_cells;
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// Convergence-slot cap for the healthy trials.
const CAP: u64 = 100_000;
/// The trial index that always panics.
const POISON_TRIAL: u64 = 3;

/// `resilience`: injected-panic sweep, quarantined not fatal.
pub struct Resilience;

impl Experiment for Resilience {
    fn id(&self) -> &'static str {
        "resilience"
    }

    fn title(&self) -> &'static str {
        "Sweep quarantine self-test (one trial always panics)"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 7 (infrastructure)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        let trials = ctx.scale(6, 24).max(POISON_TRIAL + 1);
        let run = run_sweep(&ctx.sweep_for(self.id()), trials, |i, seed| {
            assert!(
                i != POISON_TRIAL,
                "injected resilience-check failure at trial {i}"
            );
            first_convergence_time(&Pattern::c1(), seed, CAP, true).unwrap_or(CAP) as f64
        });
        let times: Vec<f64> = run
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .copied()
            .collect();
        let [_, _, median, _, _] = five_num_cells(&times, 0);
        let mut metrics = MetricSet::new();
        if ctx.observe() {
            for &t in &times {
                metrics.record("resilience.convergence.slots", t as u64);
            }
        }
        let mut rows = vec![vec![
            "c1".to_string(),
            format!("{trials}"),
            format!("{}", times.len()),
            format!("{}", run.stats.quarantined),
            median,
        ]];
        // Budget-skipped slots never ran: only quarantined ones get a row.
        let errors = run.results.iter().filter_map(|r| r.as_ref().err());
        for e in errors.filter(|e| !e.is_budget_skip()) {
            rows.push(vec![
                format!("trial {}", e.trial),
                "-".to_string(),
                "-".to_string(),
                format!("attempts {}", e.attempts),
                "quarantined".to_string(),
            ]);
        }
        Report::single(
            Section::new(
                "Resilience self-test — injected panic quarantined, sweep completes",
                &["pattern", "trials", "completed", "quarantined", "median slots"],
                rows,
            )
            .with_note(
                "trial 3 panics unconditionally; the runtime retries it at a salted seed, gives \
                 up, and quarantines the slot while every other trial's result survives.",
            ),
        )
        .with_metrics(metrics)
        .with_sweep(run.stats)
        .with_telemetry(run.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::metrics_json;

    fn ctx(threads: usize) -> ExperimentCtx {
        ExperimentCtx::builder(11)
            .quick()
            .threads(threads)
            .observe(true)
            .build()
            .unwrap()
    }

    #[test]
    fn poisoned_trial_is_quarantined_not_fatal() {
        let r = Resilience.run(&ctx(2));
        assert_eq!(r.sweep.quarantined, 1);
        assert_eq!(r.sweep.completed, r.sweep.trials - 1);
        assert!(!r.is_partial(), "quarantine is not a partial report");
        let doc = metrics_json("resilience", &r);
        assert!(doc.contains("\"sweep.quarantined\":1"), "{doc}");
        assert!(doc.contains("\"partial\":false"), "{doc}");
        let out = r.render();
        assert!(out.contains("quarantined"), "{out}");
    }

    #[test]
    fn quarantine_is_thread_count_invariant() {
        let one = Resilience.run(&ctx(1));
        let eight = Resilience.run(&ctx(8));
        assert_eq!(one.render(), eight.render());
        assert_eq!(
            metrics_json("resilience", &one),
            metrics_json("resilience", &eight)
        );
    }
}
