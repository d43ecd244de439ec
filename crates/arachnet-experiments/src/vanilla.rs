//! Vanilla-vs-distributed comparison (the Sec. 5.2 motivation, quantified).

use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::vanilla::{run_vanilla, VanillaConfig};

use crate::render::f;
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// Vanilla-vs-distributed experiment.
pub struct Vanilla;

impl Experiment for Vanilla {
    fn id(&self) -> &'static str {
        "vanilla"
    }

    fn title(&self) -> &'static str {
        "Vanilla centralized allocation vs the distributed protocol"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 5.2"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report(ctx.scale(3_000, 20_000), &ctx.sweep_for(self.id()))
    }
}

/// Head-to-head over c3 at several beacon-loss rates. Each loss-rate cell
/// (vanilla run + distributed run) is one trial of a parallel sweep.
pub fn report(slots: u64, sweep: &SweepConfig) -> Report {
    let losses = [0.0f64, 0.001, 0.005, 0.02];
    // One matrix cell per loss rate; the cell's seed is scheduling-
    // independent, so the whole table is bit-identical at any thread count.
    let matrix = run_matrix_sweep(sweep, &losses, 1, |&loss, _trial, seed| {
        let v = run_vanilla(
            &VanillaConfig {
                pattern: Pattern::c3(),
                dl_loss_prob: loss,
                staggered_start: false,
                seed,
            },
            slots,
        );
        let mut sim = SlotSim::new(SlotSimConfig {
            dl_loss_prob: loss,
            ul_loss_prob: 0.0,
            ..SlotSimConfig::new(Pattern::c3(), seed)
        });
        let d = sim.run(slots);
        (v.collision_ratio, v.tail_collision_ratio, d.collision_ratio)
    });
    let mut rows = Vec::new();
    for (&loss, cell) in losses.iter().zip(&matrix.cells) {
        // A quarantined cell renders as dashes instead of sinking the
        // whole report (the sweep counters flag it).
        let row = match cell.first().and_then(|r| r.as_ref().ok()) {
            Some(&(vc, vt, dc)) => vec![
                format!("{:.1}%", loss * 100.0),
                f(vc, 3),
                f(vt, 3),
                f(dc, 3),
            ],
            None => vec![
                format!("{:.1}%", loss * 100.0),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
        };
        rows.push(row);
    }
    // The staggered-start case: vanilla cannot even begin.
    let v = run_vanilla(
        &VanillaConfig {
            pattern: Pattern::c3(),
            dl_loss_prob: 0.0,
            staggered_start: true,
            seed: sweep.base_seed,
        },
        slots,
    );
    rows.push(vec![
        "staggered".into(),
        f(v.collision_ratio, 3),
        f(v.tail_collision_ratio, 3),
        "converges".into(),
    ]);
    Report::single(
        Section::new(
            format!(
                "Sec. 5.2 — vanilla centralized allocation vs the distributed protocol (c3, \
                 {slots} slots)"
            ),
            &[
                "DL loss",
                "vanilla collisions",
                "vanilla tail",
                "distributed collisions",
            ],
            rows,
        )
        .with_note(
            "the vanilla scheme is perfect in a perfect world and decays monotonically under \
             beacon loss (Eq. 3's offset\nshifts accumulate; nothing ever migrates back). The \
             distributed protocol absorbs the same losses with a\nbounded, stationary collision \
             ratio — the paper's core argument for Secs. 5.3–5.6.",
        ),
    )
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_renders_and_shows_decay() {
        let out = report(3_000, &SweepConfig::new(1).with_threads(2)).render();
        assert!(out.contains("vanilla tail"));
        assert!(out.contains("staggered"));
    }
}
