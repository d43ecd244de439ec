//! Fig. 15 — first convergence time.
//!
//! Each point is dozens of independent `(pattern, seed)` convergence
//! trials, so this is the flagship customer of the parallel sweep engine:
//! the pattern × trial matrix fans out over `arachnet_sim::sweep` and the
//! per-trial seeds derive from the trial index alone, making the table
//! bit-identical at any thread count.

use arachnet_obs::MetricSet;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::first_convergence_trial;
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};

use crate::render::{f, five_num_cells};
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// Convergence-slot cap (trials that never converge count as the cap).
const CAP: u64 = 500_000;

fn measure(
    patterns: &[Pattern],
    trials: u64,
    sweep: &SweepConfig,
    observe: bool,
    title: &str,
    note: &str,
) -> Report {
    // With observation on, trial 0 of each pattern carries a flight
    // recorder. Recording never draws from the sim's random streams, so
    // the convergence numbers are identical either way; the snapshots ride
    // along in trial-index order, keeping the export thread-invariant.
    let matrix = run_matrix_sweep(sweep, patterns, trials, |p, trial, seed| {
        let t = first_convergence_trial(p, seed, CAP, false, observe && trial == 0);
        (t.converged_at.unwrap_or(CAP) as f64, t.snapshot)
    });
    let mut rows = Vec::new();
    let mut metrics = MetricSet::new();
    let mut snapshot = None;
    for (p, cell) in patterns.iter().zip(&matrix.cells) {
        let times: Vec<f64> = cell
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|(t, _)| *t)
            .collect();
        let [min, q1, median, q3, max] = five_num_cells(&times, 0);
        if observe {
            let prefix = format!("convergence.{}", p.name);
            for &t in &times {
                metrics.record(&format!("{prefix}.slots"), t as u64);
            }
            let unconverged = times.iter().filter(|&&t| t >= CAP as f64).count() as u64;
            metrics.add_count(&format!("{prefix}.unconverged"), unconverged);
            metrics.add_count("convergence.trials", times.len() as u64);
            if let Some(Ok((_, snap))) = cell.first() {
                let mut m = MetricSet::new();
                snap.add_counts_to(&mut m, &prefix);
                metrics.merge(&m);
                if snapshot.is_none() && !snap.events.is_empty() {
                    snapshot = Some(snap.clone());
                }
            }
        }
        rows.push(vec![
            p.name.to_string(),
            f(p.utilization(), 3),
            format!("{}", p.len()),
            min,
            q1,
            median,
            q3,
            max,
        ]);
    }
    let mut report = Report::single(
        Section::new(
            title,
            &[
                "pattern", "util", "tags", "min", "q1", "median", "q3", "max",
            ],
            rows,
        )
        .with_note(note),
    )
    .with_metrics(metrics)
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry);
    if let Some(snap) = snapshot {
        report = report.with_snapshot(snap);
    }
    report
}

/// Fig. 15(a): fixed tag count (c1–c5), utilization sweep.
pub struct Fig15a;

impl Experiment for Fig15a {
    fn id(&self) -> &'static str {
        "fig15a"
    }

    fn title(&self) -> &'static str {
        "First convergence time, fixed 12 tags"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 15(a)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_a(ctx.scale(3, 50), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// Fig. 15(a) at an explicit trial count and sweep configuration.
pub fn report_a(trials: u64, sweep: &SweepConfig, observe: bool) -> Report {
    measure(
        &Pattern::fixed_tag_family(),
        trials,
        sweep,
        observe,
        "Fig. 15(a) — First convergence time (slots), fixed 12 tags",
        "paper: median rises steeply with utilization — 139 slots at U=0.38 (c1) to 1712 at \
         U=1.0 (c5).",
    )
}

/// Fig. 15(b): fixed utilization 0.75 (c2, c6–c9).
pub struct Fig15b;

impl Experiment for Fig15b {
    fn id(&self) -> &'static str {
        "fig15b"
    }

    fn title(&self) -> &'static str {
        "First convergence time, fixed utilization 0.75"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 15(b)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_b(ctx.scale(3, 50), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// Fig. 15(b) at an explicit trial count and sweep configuration.
pub fn report_b(trials: u64, sweep: &SweepConfig, observe: bool) -> Report {
    measure(
        &Pattern::fixed_util_family(),
        trials,
        sweep,
        observe,
        "Fig. 15(b) — First convergence time (slots), fixed utilization 0.75",
        "paper: similar medians across tag counts — slot utilization, not tag count, is the \
         predominant factor.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runs_produce_tables() {
        let sweep = SweepConfig::new(1).with_threads(2);
        let a = report_a(2, &sweep, false).render();
        assert!(a.contains("c5"));
        let b = report_b(2, &sweep, false).render();
        assert!(b.contains("c9"));
    }

    #[test]
    fn sweep_table_is_thread_count_invariant() {
        let one = report_a(2, &SweepConfig::new(7).with_threads(1), true);
        let four = report_a(2, &SweepConfig::new(7).with_threads(4), true);
        assert_eq!(one.render(), four.render());
        // The exported metrics document is part of the invariance contract.
        assert_eq!(
            crate::report::metrics_json("fig15a", &one),
            crate::report::metrics_json("fig15a", &four)
        );
    }

    #[test]
    fn observation_collects_metrics_without_changing_the_table() {
        let sweep = SweepConfig::new(3).with_threads(2);
        let plain = report_a(2, &sweep, false);
        let observed = report_a(2, &sweep, true);
        assert_eq!(plain.render(), observed.render(), "observation perturbed results");
        assert!(plain.metrics.is_empty());
        assert_eq!(observed.metrics.get_count("convergence.trials"), Some(10));
        let h = observed
            .metrics
            .get_histo("convergence.c1.slots")
            .expect("per-pattern histogram");
        assert_eq!(h.count(), 2);
        assert!(!observed.snapshot.events.is_empty(), "no representative trace");
    }
}
