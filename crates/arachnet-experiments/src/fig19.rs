//! Fig. 19 / Appendix B — the ALOHA baseline.

use arachnet_sim::aloha::{run_aloha, AlohaConfig};
use arachnet_sim::sweep::{run_sweep, SweepConfig};

use crate::render::five_num_cells;
use crate::report::{Cell, Experiment, ExperimentCtx, Num, Report, Section};

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
    });
    let rows: Vec<Vec<Cell>> = run
        .tags
        .iter()
        .map(|t| {
            vec![
                Cell::label(format!("{}", t.tid)),
                Num::Real(t.full_charge_s, 1).into(),
                Num::Int(t.total_tx).into(),
                Num::Int(t.collided_tx).into(),
                Num::Real(t.success_rate() * 100.0, 1).into(),
            ]
        })
        .collect();
    let sweep_rates = run_sweep(sweep, extra_seeds, |_trial, seed| {
        run_aloha(&AlohaConfig { duration_s, seed }).overall_success_rate() * 100.0
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
            "aloha",
            format!("Fig. 19 — ALOHA baseline over {duration_s:.0} s"),
            &["Tag", "charge (s)", "total TX", "collided TX", "success %"],
            rows,
        )
        .with_note(Cell::fill(
            "overall collision-free: {collision-free} % (paper: 34.0 %; our calibrated \
             deployment charges faster overall, loading the channel harder).\nacross {seeds} \
             independent seeds: median {seeds-median} %, range {seeds-min}–{seeds-max} %.\npaper: \
             fast chargers dominate the channel yet still collide in most attempts — ALOHA is \
             both inefficient and unfair;\ncompare the protocol's long-run collision ratio of \
             ~0.06 (Fig. 16).",
            &[
                (
                    "collision-free",
                    Num::Real(run.overall_success_rate() * 100.0, 1),
                ),
                ("seeds", Num::Int(rates.len() as u64)),
                ("seeds-median", median),
                ("seeds-min", min),
                ("seeds-max", max),
            ],
        )),
    )
    .with_sweep(sweep_rates.stats)
    .with_lanes(sweep_rates.lanes)
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
