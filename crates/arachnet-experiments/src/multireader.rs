//! Multi-reader fleet experiments (`mr-*`): frequency-space division over
//! one Body-in-White.
//!
//! Three artifacts, all marked [`Experiment::multi_reader`] so the
//! context's `--readers`/`--bands` overrides apply:
//!
//! * [`MrFdma`] — fleet sizes 1/2/4 under the FDMA plan: per-reader loss,
//!   cross-reader collision flags, and aggregate delivery, showing the
//!   fleet scales throughput with spectrum;
//! * [`MrInterference`] — the 2-reader interference A/B: FDMA with the
//!   coherent carrier rejection on and off, against the co-channel
//!   baseline where the neighbour's backscatter lands in band;
//! * [`MrFleetSoak`] — the sharded slot-level soak: K cells each replaying
//!   a churn scenario over the sweep pool, with sub-band reuse marked by
//!   `xreader_collision` events.

use arachnet_core::rates::DEFAULT_UL_BPS;
use arachnet_core::slot::Period;
use arachnet_obs::{EventKind, Recorder};
use arachnet_reader::fleet::{FleetPlan, FleetPlanError};
use arachnet_sim::fleet::{run_fleet, FleetCell, FleetWaveSim};
use arachnet_sim::scenario::Scenario;
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::Pattern;

use crate::report::{representative, Cell, Experiment, ExperimentCtx, Num, Report, Section};

/// Slot cap for the fleet soak's re-convergence measurements.
const CAP: u64 = 100_000;

/// Builds the FDMA plan for `readers` cells over `bands` sub-bands
/// (band reuse when the budget is short).
fn plan_for(readers: usize, bands: usize) -> Result<FleetPlan, FleetPlanError> {
    if bands >= readers {
        FleetPlan::fdma(readers)
    } else {
        FleetPlan::fdma_reuse(readers, bands)
    }
}

/// One waveform-level fleet pass: every reader of `plan` decodes its own
/// copy of tag `tid` while the whole fleet transmits.
struct FleetPass {
    label: String,
    plan: FleetPlan,
    tid: u8,
    reject: bool,
}

/// Runs every pass as one sweep — each reader of each pass is a cell of
/// one trial, pass-major — so `--halt-after`, `--budget-secs` and the
/// checkpoint act once per experiment. Returns one row per reader under
/// the section `section` builds, plus the representative trace.
fn fleet_report(
    passes: &[FleetPass],
    n: u64,
    sweep: &SweepConfig,
    observe: bool,
    section: impl FnOnce(Vec<Vec<Cell>>) -> Section,
) -> Report {
    let sims: Vec<FleetWaveSim> = passes
        .iter()
        .map(|p| FleetWaveSim::paper(p.plan.clone(), sweep.base_seed))
        .collect();
    let cells: Vec<(usize, usize)> = passes
        .iter()
        .enumerate()
        .flat_map(|(p, pass)| (0..pass.plan.readers()).map(move |r| (p, r)))
        .collect();
    let matrix = run_matrix_sweep(sweep, &cells, 1, |&(p, r), _trial, seed| {
        let (pass, sim) = (&passes[p], &sims[p]);
        let mut rx = sim.fleet_rx(r, DEFAULT_UL_BPS);
        rx.set_rejection(pass.reject);
        let mut recorder = if observe {
            Recorder::enabled(seed)
        } else {
            Recorder::disabled()
        };
        recorder.record(
            0,
            r as u8,
            EventKind::ReaderAssigned {
                band: pass.plan.band(r) as u16,
            },
        );
        let result = sim.uplink_trial_observed(&rx, r, pass.tid, n, &mut recorder);
        (result, recorder.into_snapshot())
    });
    let mut rows = Vec::new();
    for (&(p, r), cell) in cells.iter().zip(&matrix.cells) {
        let Some(Ok((res, _))) = cell.first() else {
            continue;
        };
        let plan = &passes[p].plan;
        rows.push(vec![
            Cell::label(passes[p].label.clone()),
            Cell::label(format!("R{r}")),
            Num::Real(plan.carrier_hz(r) / 1_000.0, 0).into(),
            Num::Int(plan.band(r) as u64).into(),
            Num::Int(res.sent).into(),
            Num::Int(res.lost).into(),
            Num::Int(res.cross_collisions).into(),
            Num::finite(res.snr_db, 1).into(),
        ]);
    }
    let trial0 = matrix.cells.iter().filter_map(|c| c.first()?.as_ref().ok());
    Report::single(section(rows))
        .with_snapshot(representative(trial0.map(|(_, snap)| snap)))
        .with_sweep(matrix.stats)
        .with_lanes(matrix.lanes)
}

/// `mr-fdma`: fleet FDMA throughput scaling.
pub struct MrFdma;

impl Experiment for MrFdma {
    fn id(&self) -> &'static str {
        "mr-fdma"
    }

    fn title(&self) -> &'static str {
        "Reader-fleet FDMA throughput scaling"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 8 (extension)"
    }

    fn multi_reader(&self) -> bool {
        true
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        let fleets: Vec<usize> = match ctx.readers() {
            Some(k) => vec![k],
            None => vec![1, 2, 4],
        };
        let passes: Vec<FleetPass> = fleets
            .iter()
            .map(|&k| FleetPass {
                label: format!("k{k}"),
                plan: plan_for(k, ctx.fleet_bands(k)).expect("validated fleet shape"),
                tid: 8,
                reject: true,
            })
            .collect();
        let sweep = ctx.sweep_for(self.id());
        fleet_report(&passes, ctx.scale(3, 16), &sweep, ctx.observe(), |rows| {
            Section::new(
                "fleet",
                "Fleet FDMA — per-reader uplink over shared sheet metal (Tag 8, 375 bps)",
                &[
                    "fleet", "reader", "fc (kHz)", "band", "sent", "lost", "xflags", "SNR (dB)",
                ],
                rows,
            )
            .with_note(Cell::label(
                "every cell's copy of the tag transmits concurrently; sub-band separation plus \
                 coherent carrier rejection keeps each reader's link clean, so delivered packets \
                 scale with fleet size.",
            ))
        })
    }
}

/// `mr-interference`: rejection on/off against the co-channel baseline.
pub struct MrInterference;

impl Experiment for MrInterference {
    fn id(&self) -> &'static str {
        "mr-interference"
    }

    fn title(&self) -> &'static str {
        "Cross-reader interference and carrier rejection"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 8 (extension)"
    }

    fn multi_reader(&self) -> bool {
        true
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        let k = ctx.fleet_readers(2);
        let fdma = plan_for(k, ctx.fleet_bands(k)).expect("validated fleet shape");
        let co = FleetPlan::co_channel(k).expect("validated fleet shape");
        let mut passes = Vec::new();
        for (plan, label, reject) in [
            (&fdma, "fdma-reject", true),
            (&fdma, "fdma-raw", false),
            (&co, "co-channel", true),
        ] {
            for tid in [8u8, 11] {
                passes.push(FleetPass {
                    label: format!("{label}.tag{tid}"),
                    plan: plan.clone(),
                    tid,
                    reject,
                });
            }
        }
        let sweep = ctx.sweep_for(self.id());
        fleet_report(&passes, ctx.scale(3, 16), &sweep, ctx.observe(), |rows| {
            Section::new(
                "fleet",
                format!("Cross-reader interference — {k}-reader fleet, rejection A/B (375 bps)"),
                &[
                    "plan", "reader", "fc (kHz)", "band", "sent", "lost", "xflags", "SNR (dB)",
                ],
                rows,
            )
            .with_note(Cell::label(
                "co-channel neighbours backscatter in band, so the IQ clustering flags \
                 cross-reader collisions the FDMA plan never sees; rejection removes the \
                 foreign CW leak that would otherwise bias the decimated baseband.",
            ))
        })
    }
}

/// Staggered per-cell churn scenario for the fleet soak.
fn soak_scenario(cell: u64) -> Scenario {
    let p = |v: u32| Period::new(v).expect("soak period is valid");
    // The rejoin uses period 8 so the timeline fits every cell pattern:
    // period 4 would push c3 (util 0.84 with tag 9 at period 32) past
    // utilization 1 and the join could never settle.
    Scenario::builder()
        .leave(1_000 + 200 * cell, 9)
        .join(2_200 + 200 * cell, 9, p(8))
        .brownout(4_000 + 100 * cell, 7)
        .build()
        .expect("soak timeline is valid")
}

/// `mr-fleet-soak`: K cells, sharded slot-level scenarios.
pub struct MrFleetSoak;

impl Experiment for MrFleetSoak {
    fn id(&self) -> &'static str {
        "mr-fleet-soak"
    }

    fn title(&self) -> &'static str {
        "Sharded fleet soak with sub-band reuse"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 8 (extension)"
    }

    fn multi_reader(&self) -> bool {
        true
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_fleet_soak(
            ctx.fleet_readers(6),
            ctx.fleet_bands(4),
            ctx.scale(2, 8),
            &ctx.sweep_for(self.id()),
            ctx.observe(),
        )
    }
}

/// `mr-fleet-soak` at explicit shape and trial count.
pub fn report_fleet_soak(
    readers: usize,
    bands: usize,
    trials: u64,
    sweep: &SweepConfig,
    observe: bool,
) -> Report {
    let plan = plan_for(readers, bands.clamp(1, readers)).expect("validated fleet shape");
    let patterns = [Pattern::c2(), Pattern::c3()];
    let cells: Vec<FleetCell> = (0..readers as u64)
        .map(|c| FleetCell {
            name: format!("cell{c}"),
            pattern: patterns[(c as usize) % patterns.len()].clone(),
            scenario: soak_scenario(c),
        })
        .collect();
    let run = run_fleet(&plan, &cells, trials, sweep, CAP, observe);
    let mut rows = Vec::new();
    for (cell, row) in cells.iter().zip(&run.cells) {
        let mut finite: Vec<u64> = Vec::new();
        let mut unresolved = 0u64;
        let mut band = 0;
        let mut sharers = 0;
        for trial in row.iter().flatten() {
            band = trial.band;
            sharers = trial.band_sharers;
            for s in &trial.samples {
                match s.slots {
                    Some(v) => finite.push(v),
                    None => unresolved += 1,
                }
            }
        }
        finite.sort_unstable();
        let median = finite
            .get(finite.len() / 2)
            .map_or(Num::Absent, |&v| Num::Int(v));
        rows.push(vec![
            Cell::label(cell.name.clone()),
            Num::Int(band as u64).into(),
            Num::Int(u64::from(sharers)).into(),
            Num::Int(trials).into(),
            Num::Int(finite.len() as u64).into(),
            median.into(),
            Num::Int(unresolved).into(),
        ]);
    }
    let trials_run = run.cells.iter().flatten().flatten();
    Report::single(
        Section::new(
            "fleet.soak",
            format!("Fleet soak — {readers} cells over {bands} sub-bands, churn scenario per cell"),
            &[
                "cell",
                "band",
                "sharers",
                "trials",
                "measured",
                "median reconv (slots)",
                "unresolved",
            ],
            rows,
        )
        .with_note(Cell::label(
            "cells run the scenario engine independently, sharded over the sweep pool; cells \
             that share a sub-band carry an xreader_collision marker in their trace — the \
             frequency plan, not the MAC, is what keeps them apart.",
        )),
    )
    .with_snapshot(representative(trials_run.map(|t| &t.snapshot)))
    .with_sweep(run.stats)
    .with_lanes(run.lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{export_metrics, metrics_json};

    fn ctx(seed: u64, threads: usize) -> ExperimentCtx {
        ExperimentCtx::builder(seed)
            .quick()
            .threads(threads)
            .observe(true)
            .build()
            .unwrap()
    }

    /// Σ(sent − lost) over the rows whose keys start with `prefix`.
    fn delivered(r: &Report, prefix: &str) -> u64 {
        let m = export_metrics(r);
        r.measured()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(".sent"))
            .map(|(k, _)| {
                let lost = k.strip_suffix(".sent").unwrap().to_string() + ".lost";
                m.get_count(k).unwrap() - m.get_count(&lost).unwrap()
            })
            .sum()
    }

    #[test]
    fn mr_fdma_scales_delivery_with_fleet_size() {
        let r = MrFdma.run(&ctx(9, 2));
        let d1 = delivered(&r, "fleet.k1.");
        let d4 = delivered(&r, "fleet.k4.");
        assert!(d4 > d1, "k4 delivered {d4} <= k1 delivered {d1}");
        let out = r.render();
        assert!(out.contains("R0") && out.contains("R3"));
        assert!(!r.snapshot.events.is_empty(), "no representative trace");
    }

    #[test]
    fn mr_fdma_honours_reader_override() {
        let c = ExperimentCtx::builder(9)
            .quick()
            .threads(1)
            .readers(2)
            .build()
            .unwrap();
        let out = MrFdma.run(&c).render();
        assert!(out.contains("k2"));
        assert!(!out.contains("k4"), "override must replace the ladder");
    }

    #[test]
    fn mr_interference_flags_co_channel_collisions() {
        let r = MrInterference.run(&ctx(9, 2));
        let m = export_metrics(&r);
        let co = m.get_count("fleet.co-channel.tag8.r0.xflags").unwrap();
        let fdma = m.get_count("fleet.fdma-reject.tag8.r0.xflags").unwrap();
        assert!(
            co > fdma,
            "co-channel flags {co} not above fdma-reject {fdma}"
        );
    }

    #[test]
    fn mr_interference_honours_band_override() {
        let c = ExperimentCtx::builder(9)
            .quick()
            .threads(2)
            .bands(1)
            .build()
            .unwrap();
        let m = export_metrics(&MrInterference.run(&c));
        for plan in ["fdma-reject", "fdma-raw"] {
            for r in 0..2 {
                let key = format!("fleet.{plan}.tag8.r{r}.band");
                assert_eq!(m.get_count(&key), Some(0), "{key}");
            }
        }
    }

    #[test]
    fn mr_fleet_soak_reuses_bands_and_closes_disruptions() {
        let r = report_fleet_soak(5, 3, 1, &SweepConfig::new(7).with_threads(2), true);
        let m = export_metrics(&r);
        let sharers: Vec<u64> = (0..)
            .map_while(|c| m.get_count(&format!("fleet.soak.cell{c}.sharers")))
            .collect();
        assert_eq!(sharers.len(), 5);
        assert!(
            sharers.iter().filter(|&&s| s > 0).count() >= 2,
            "5 cells over 3 bands must share"
        );
        assert!(m.get_count("fleet.soak.cell0.measured").unwrap() >= 1);
        assert!(!r.snapshot.events.is_empty());
    }

    #[test]
    fn mr_metrics_are_thread_count_invariant() {
        for e in [&MrFdma as &dyn Experiment, &MrInterference, &MrFleetSoak] {
            let one = e.run(&ctx(9, 1));
            let four = e.run(&ctx(9, 4));
            assert_eq!(one.render(), four.render(), "{} table diverged", e.id());
            assert_eq!(
                metrics_json(e.id(), &one),
                metrics_json(e.id(), &four),
                "{} metrics diverged",
                e.id()
            );
        }
    }
}
