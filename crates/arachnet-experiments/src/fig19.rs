//! Fig. 19 / Appendix B — the ALOHA baseline.

use arachnet_sim::aloha::{run_aloha, AlohaConfig};
use arachnet_sim::sweep::{run_sweep, SweepConfig};

use crate::render::{f, five_num_cells};
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// Fig. 19 experiment: the ALOHA simulation, per-tag table from the base
/// seed plus a parallel seed sweep of the overall success rate.
pub struct Fig19;

impl Experiment for Fig19 {
    fn id(&self) -> &'static str {
        "fig19"
    }

    fn title(&self) -> &'static str {
        "ALOHA baseline"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 19 / Appendix B"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report(
            if ctx.is_quick() { 1_000.0 } else { 10_000.0 },
            ctx.scale(3, 8),
            &ctx.sweep_for(self.id()),
        )
    }
}

/// Runs the ALOHA simulation for `duration_s` at the sweep's base seed and
/// sweeps `extra_seeds` further runs in parallel for the success-rate
/// spread.
pub fn report(duration_s: f64, extra_seeds: u64, sweep: &SweepConfig) -> Report {
    let run = run_aloha(&AlohaConfig {
        duration_s,
        seed: sweep.base_seed,
        ..AlohaConfig::default()
    });
    let rows: Vec<Vec<String>> = run
        .tags
        .iter()
        .map(|t| {
            vec![
                format!("{}", t.tid),
                f(t.full_charge_s, 1),
                format!("{}", t.total_tx),
                format!("{}", t.collided_tx),
                f(t.success_rate() * 100.0, 1),
            ]
        })
        .collect();
    let sweep_rates = run_sweep(sweep, extra_seeds, |_trial, seed| {
        run_aloha(&AlohaConfig {
            duration_s,
            seed,
            ..AlohaConfig::default()
        })
        .overall_success_rate()
            * 100.0
    });
    let rates: Vec<f64> = sweep_rates
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .copied()
        .collect();
    let [min, _, median, _, max] = five_num_cells(&rates, 1);
    Report::single(
        Section::new(
            format!("Fig. 19 — ALOHA baseline over {duration_s:.0} s"),
            &["Tag", "charge (s)", "total TX", "collided TX", "success %"],
            rows,
        )
        .with_note(format!(
            "overall collision-free: {:.1} % (paper: 34.0 %; our calibrated deployment charges \
             faster overall, loading the channel harder).\nacross {} independent seeds: median \
             {median} %, range {min}–{max} %.\npaper: fast chargers dominate the channel yet \
             still collide in most attempts — ALOHA is both inefficient and unfair;\ncompare the \
             protocol's long-run collision ratio of ~0.06 (Fig. 16).",
            run.overall_success_rate() * 100.0,
            rates.len(),
        )),
    )
    .with_sweep(sweep_rates.stats)
    .with_telemetry(sweep_rates.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_prints_all_tags() {
        let out = report(500.0, 2, &SweepConfig::new(1).with_threads(2)).render();
        assert_eq!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            12
        );
        assert!(out.contains("overall collision-free"));
        assert!(out.contains("independent seeds"));
    }
}
