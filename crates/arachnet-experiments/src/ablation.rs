//! Ablation studies — what each design choice buys.
//!
//! The paper motivates four refinements (Secs. 4.1, 5.4–5.6) and one
//! threshold (N = 3). These runners switch each off in turn and measure
//! the damage, quantifying claims the paper only argues qualitatively.
//! The variant × trial loops fan out over `arachnet_sim::sweep`.

use arachnet_core::mac::ProtocolConfig;
use arachnet_sim::metrics::mean;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::wavesim::WaveSim;
use biw_channel::resonator::DriveScheme;

use crate::render::five_num_cells;
use crate::report::{sent_lost, Cell, Experiment, ExperimentCtx, Num, Report, Section};

/// Protocol-refinement ablation experiment.
pub struct Ablation;

impl Experiment for Ablation {
    fn id(&self) -> &'static str {
        "ablation"
    }

    fn title(&self) -> &'static str {
        "Protocol-refinement ablation"
    }

    fn paper_anchor(&self) -> &'static str {
        "Secs. 5.3-5.6"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_protocol(ctx.scale(2, 7), &ctx.sweep_for(self.id()))
    }
}

/// Protocol-refinement ablation: convergence and long-run health of c3
/// under realistic losses, with each refinement disabled in turn. The
/// variant × trial convergence matrix runs on the parallel sweep engine.
pub fn report_protocol(trials: u64, sweep: &SweepConfig) -> Report {
    let variants: Vec<(&str, ProtocolConfig)> = vec![
        ("full protocol", ProtocolConfig::default()),
        (
            "no beacon-timeout migrate (5.4)",
            ProtocolConfig {
                beacon_timeout_migrate: false,
                ..ProtocolConfig::default()
            },
        ),
        (
            "no EMPTY gating (5.5)",
            ProtocolConfig {
                empty_gating: false,
                ..ProtocolConfig::default()
            },
        ),
        (
            "no future-collision avoidance (5.6)",
            ProtocolConfig {
                future_collision_avoidance: false,
                ..ProtocolConfig::default()
            },
        ),
        (
            "vanilla feedback only (5.3)",
            ProtocolConfig::vanilla_feedback(),
        ),
        (
            "N = 1",
            ProtocolConfig {
                nack_threshold: 1,
                ..ProtocolConfig::default()
            },
        ),
        (
            "N = 6",
            ProtocolConfig {
                nack_threshold: 6,
                ..ProtocolConfig::default()
            },
        ),
    ];
    // Convergence (ideal channel, RESET protocol), parallel over the matrix.
    let matrix = run_matrix_sweep(sweep, &variants, trials, |&(_, protocol), _trial, seed| {
        let mut sim = SlotSim::new(SlotSimConfig {
            protocol,
            ..SlotSimConfig::ideal(Pattern::c3(), seed)
        });
        sim.run(4);
        sim.reset_network();
        sim.run_until_converged(300_000)
            .converged_at
            .unwrap_or(300_000) as f64
    });
    let mut rows = Vec::new();
    for ((name, protocol), cell) in variants.iter().zip(&matrix.cells) {
        let conv: Vec<f64> = cell
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .copied()
            .collect();
        // Long-run health under losses (one run per variant, base seed).
        let mut sim = SlotSim::new(SlotSimConfig {
            protocol: *protocol,
            dl_loss_prob: 0.005,
            ..SlotSimConfig::new(Pattern::c3(), sweep.base_seed)
        });
        let run = sim.run(5_000);
        let [_, _, median, _, max] = five_num_cells(&conv, 0);
        rows.push(vec![
            Cell::label(*name),
            median.into(),
            max.into(),
            Num::Real(run.non_empty_ratio, 3).into(),
            Num::Real(run.collision_ratio, 3).into(),
        ]);
    }
    Report::single(
        Section::new(
            "protocol",
            format!(
                "Ablation — protocol refinements (c3, {trials} trials; long run at 0.5 % DL loss)"
            ),
            &[
                "variant",
                "conv. median",
                "conv. max",
                "non-empty",
                "collision",
            ],
            rows,
        )
        .with_note(Cell::label(
            "expected: disabling the 5.4 timeout leaves desynchronized tags colliding longer; \
             larger N tolerates\nmore transient NACKs but reacts slower; the 5.5/5.6 refinements \
             matter most for late arrivals (see `repro ablation-latearrival`).",
        )),
    )
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry)
}

/// Late-arrival ablation experiment.
pub struct AblationLateArrival;

impl Experiment for AblationLateArrival {
    fn id(&self) -> &'static str {
        "ablation-latearrival"
    }

    fn title(&self) -> &'static str {
        "Late-arrival ablation"
    }

    fn paper_anchor(&self) -> &'static str {
        "Secs. 5.5-5.6"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_late_arrival(ctx.scale(2, 7), &ctx.sweep_for(self.id()))
    }
}

/// Late-arrival ablation: cold-start integration with and without the
/// Sec. 5.5 / 5.6 refinements, parallel over the variant × trial matrix.
pub fn report_late_arrival(trials: u64, sweep: &SweepConfig) -> Report {
    let variants: Vec<(&str, ProtocolConfig)> = vec![
        ("full protocol", ProtocolConfig::default()),
        (
            "no EMPTY gating (5.5)",
            ProtocolConfig {
                empty_gating: false,
                ..ProtocolConfig::default()
            },
        ),
        (
            "no future-collision avoidance (5.6)",
            ProtocolConfig {
                future_collision_avoidance: false,
                ..ProtocolConfig::default()
            },
        ),
    ];
    let horizon = 1_500u64;
    let matrix = run_matrix_sweep(sweep, &variants, trials, |&(_, protocol), _trial, seed| {
        let mut sim = SlotSim::new(SlotSimConfig {
            protocol,
            charged_start: false, // staggered activation = real late arrivals
            ..SlotSimConfig::ideal(Pattern::c3(), seed)
        });
        let run = sim.run(horizon);
        let settled = sim
            .tags()
            .iter()
            .filter(|tg| tg.mac().state() == arachnet_core::mac::MacState::Settle)
            .count();
        (settled as f64, run.collision_ratio)
    });
    let mut rows = Vec::new();
    for ((name, _), cell) in variants.iter().zip(&matrix.cells) {
        let ok: Vec<&(f64, f64)> = cell.iter().filter_map(|r| r.as_ref().ok()).collect();
        let settled: Vec<f64> = ok.iter().map(|&&(s, _)| s).collect();
        let disruption: Vec<f64> = ok.iter().map(|&&(_, c)| c).collect();
        rows.push(vec![
            Cell::label(*name),
            Num::Real(mean(&settled), 1).into(),
            Num::Real(mean(&disruption), 4).into(),
        ]);
    }
    Report::single(
        Section::new(
            "late-arrival",
            format!("Ablation — late arrivals (cold start, c3, {horizon} slots, {trials} trials)"),
            &["variant", "settled tags (of 12)", "collision ratio"],
            rows,
        )
        .with_note(Cell::label(
            "EMPTY gating lets newcomers probe only unused slots; admission control prevents \
             latent period conflicts.\nDisabling them trades integration for disruption of the \
             settled schedule.",
        )),
    )
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry)
}

/// Drive-scheme ablation experiment.
pub struct AblationDrive;

impl Experiment for AblationDrive {
    fn id(&self) -> &'static str {
        "ablation-drive"
    }

    fn title(&self) -> &'static str {
        "TX drive-scheme ablation"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 4.1"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_drive(ctx.scale(50, 400), &ctx.sweep_for(self.id()))
    }
}

/// Drive-scheme ablation (Sec. 4.1): plain OOK's ring tail vs the paper's
/// FSK-in/OOK-out on downlink loss, `n` beacons per cell. The
/// (scheme × rate × beacon) trials fan out over the sweep worker pool.
pub fn report_drive(n: u64, sweep: &SweepConfig) -> Report {
    let schemes = [
        ("FSK in / OOK out (paper)", DriveScheme::FskInOokOut),
        ("plain OOK (ring tail)", DriveScheme::PlainOok),
    ];
    let rates = [250.0, 500.0, 1_000.0];
    let sims: Vec<WaveSim> = schemes
        .iter()
        .map(|&(_, scheme)| WaveSim::paper(sweep.base_seed).with_drive_scheme(scheme))
        .collect();
    let cells: Vec<(usize, f64)> = (0..schemes.len())
        .flat_map(|si| rates.iter().map(move |&bps| (si, bps)))
        .collect();
    let matrix = run_matrix_sweep(sweep, &cells, n, |&(si, bps), _trial, seed| {
        sims[si].downlink_beacon(8, bps, seed)
    });
    let mut rows = Vec::new();
    for (si, (name, _)) in schemes.iter().enumerate() {
        let mut row = vec![Cell::label(*name)];
        for ri in 0..rates.len() {
            let (sent, lost) = sent_lost(&matrix.cells[si * rates.len() + ri], |&ok| ok);
            row.push(Cell::fill(
                "{lost}/{sent}",
                &[("lost", Num::Int(lost)), ("sent", Num::Int(sent))],
            ));
        }
        rows.push(row);
    }
    Report::single(
        Section::new(
            "drive",
            "Ablation — TX drive scheme vs DL loss (Tag 8)",
            &["scheme", "250 bps", "500 bps", "1000 bps"],
            rows,
        )
        .with_note(Cell::label(
            "plain OOK's free ring tail (~0.5 ms) stretches every falling edge, corrupting PIE \
             intervals at higher rates;\nthe FSK-in/OOK-out drive keeps the transducer \
             amplifier-loaded and the tail ~5x shorter (Sec. 4.1).",
        )),
    )
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry)
}

/// Multiplier-stage ablation experiment.
pub struct AblationStages;

impl Experiment for AblationStages {
    fn id(&self) -> &'static str {
        "ablation-stages"
    }

    fn title(&self) -> &'static str {
        "Multiplier stage-count ablation"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 3.2"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        report_stages()
    }
}

/// Multiplier-stage ablation (Sec. 3.2): how many tags can activate at
/// each stage count, and at what charging speed.
pub fn report_stages() -> Report {
    use arachnet_energy::cutoff::LowVoltageCutoff;
    use arachnet_energy::harvester::HarvestChain;
    use arachnet_energy::multiplier::Multiplier;
    use biw_channel::channel::{BiwChannel, ChannelConfig};
    use biw_channel::noise::NoiseConfig;
    let ch = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig::silent(),
        ..ChannelConfig::default()
    });
    let mut rows = Vec::new();
    for stages in [2u32, 4, 6, 8, 10] {
        let chain = HarvestChain {
            multiplier: Multiplier::new(stages),
            capacitance: 1.0e-3,
            cutoff: LowVoltageCutoff::paper(),
        };
        let mut activated = 0;
        let mut fastest = f64::MAX;
        for tid in 1..=12u8 {
            let vp = ch.tag_carrier_voltage(tid).unwrap();
            if let Some(t) = chain.full_charge_time(vp) {
                activated += 1;
                fastest = fastest.min(t);
            }
        }
        rows.push(vec![
            Cell::label(format!("{stages}")),
            Cell::fill("{activated}/12", &[("activated", Num::Int(activated))]),
            Num::finite(fastest, 1).into(),
        ]);
    }
    Report::single(
        Section::new(
            "stages",
            "Ablation — multiplier stage count",
            &["stages", "tags activating", "fastest charge (s)"],
            rows,
        )
        .with_note(Cell::label(
            "the paper picks 8 stages: the fewest that activate all 12 tags. More stages add \
             output impedance\n(slower charging) for no extra coverage.",
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepConfig {
        SweepConfig::new(5).with_threads(2)
    }

    #[test]
    fn protocol_ablation_renders_all_variants() {
        let out = report_protocol(1, &sweep()).render();
        for v in ["full protocol", "vanilla", "N = 6"] {
            assert!(out.contains(v), "{v} missing");
        }
    }

    #[test]
    fn late_arrival_ablation_runs() {
        let out = report_late_arrival(1, &sweep()).render();
        assert!(out.contains("settled tags"));
    }

    #[test]
    fn drive_scheme_shows_ring_damage() {
        let out = report_drive(40, &SweepConfig::new(5).with_threads(2)).render();
        assert!(out.contains("plain OOK"));
        // Parse the two 1000 bps cells: plain OOK must lose at least as
        // many beacons as the paper scheme.
        let lines: Vec<&str> = out.lines().collect();
        let get = |needle: &str| {
            lines
                .iter()
                .find(|l| l.contains(needle))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|c| c.split('/').next())
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap()
        };
        let fsk = get("FSK in");
        let ook = get("plain OOK");
        assert!(
            ook >= fsk,
            "ring tail should not help: ook {ook} vs fsk {fsk}"
        );
    }

    #[test]
    fn stage_ablation_shows_8_is_minimal_full_coverage() {
        let out = report_stages().render();
        assert!(out.contains("8") && out.contains("12/12"));
        // At 6 stages at least one tag is stranded.
        let line6 = out
            .lines()
            .find(|l| l.trim_start().starts_with("6 "))
            .unwrap();
        assert!(
            !line6.contains("12/12"),
            "6 stages should strand a tag: {line6}"
        );
    }
}
