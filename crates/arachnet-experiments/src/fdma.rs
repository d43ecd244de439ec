//! FDMA parallel-decoding extension study (Sec. 6.3 future work).

use arachnet_core::packet::UlPacket;
use arachnet_core::rng::TagRng;
use arachnet_reader::fdma::{FdmaConfig, FdmaReceiver};
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::wavesim::with_phy_scratch;
use arachnet_tag::subcarrier::SubcarrierChannel;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;

use crate::render::f;
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// FDMA parallel-decoding extension experiment.
pub struct Fdma;

impl Experiment for Fdma {
    fn id(&self) -> &'static str {
        "fdma"
    }

    fn title(&self) -> &'static str {
        "FDMA parallel decoding"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 6.3 (extension)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report(ctx.scale(3, 10), &ctx.sweep_for(self.id()))
    }
}

fn chips_to_states(chips: &[bool], spc: f64, lead: usize) -> Vec<PztState> {
    let total = lead + (chips.len() as f64 * spc).ceil() as usize;
    let mut states = vec![PztState::Absorptive; total];
    for (i, s) in states.iter_mut().enumerate().skip(lead) {
        let chip = ((i - lead) as f64 / spc) as usize;
        if let Some(&c) = chips.get(chip) {
            *s = if c {
                PztState::Reflective
            } else {
                PztState::Absorptive
            };
        }
    }
    states
}

/// Concurrent-tag sweep: how many FDMA channels decode cleanly in one
/// slot, and the resulting aggregate throughput vs single-tag FM0. The
/// (concurrent × slot) trials fan out over the sweep worker pool: the
/// channel is built once, and each slot's noise and payloads are pure
/// functions of the sweep seed, so results are bit-identical at any
/// thread count.
pub fn report(trials: u64, sweep: &SweepConfig) -> Report {
    let cfg = FdmaConfig::default();
    let rx = FdmaReceiver::new(cfg);
    // Evaluation tags and subcarrier channels (distinct cycle counts).
    let assignments: Vec<(u8, SubcarrierChannel)> = vec![
        (8, SubcarrierChannel::new(6)),
        (7, SubcarrierChannel::new(9)),
        (5, SubcarrierChannel::new(12)),
        (4, SubcarrierChannel::new(16)),
    ];
    for i in 0..assignments.len() {
        for j in (i + 1)..assignments.len() {
            assert!(
                assignments[i].1.orthogonal_to(&assignments[j].1),
                "channel plan must be pairwise orthogonal"
            );
        }
    }
    let ch = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig {
            floor_sigma: 0.013,
            ..NoiseConfig::default()
        },
        seed: sweep.base_seed,
        ..ChannelConfig::default()
    });
    let cells: Vec<usize> = (1..=assignments.len()).collect();
    let matrix = run_matrix_sweep(sweep, &cells, trials, |&concurrent, _trial, seed| {
        let mut rng = TagRng::new(seed);
        let subset = &assignments[..concurrent];
        let mut streams = Vec::new();
        let mut packets = Vec::new();
        let mut max_len = 0;
        for &(tid, sub) in subset {
            let pkt = UlPacket::new(tid, (rng.next_u64() & 0xFFF) as u16)
                .unwrap_or_else(|e| panic!("FDMA uplink from tag {tid}: {e}"));
            let chips = sub.modulate(&pkt.to_bits());
            let spc = cfg.sample_rate / (cfg.bit_rate * f64::from(sub.chips_per_bit()));
            let states = chips_to_states(&chips, spc, spc as usize);
            max_len = max_len.max(states.len());
            streams.push((tid, states));
            packets.push(pkt);
        }
        let refs: Vec<(u8, &[PztState])> =
            streams.iter().map(|(t, s)| (*t, s.as_slice())).collect();
        let channels: Vec<SubcarrierChannel> = subset.iter().map(|&(_, s)| s).collect();
        with_phy_scratch(|s| {
            ch.uplink_waveform_seeded_into(&refs, max_len + 2_000, seed, &mut s.wave);
            let mut ok = 0u64;
            let mut total = 0u64;
            for (decode, expect) in rx.decode_all(&s.wave, &channels).iter().zip(&packets) {
                total += 1;
                if decode.packet == Some(*expect) {
                    ok += 1;
                }
            }
            (ok, total)
        })
    });
    let mut rows = Vec::new();
    for (&concurrent, cell) in cells.iter().zip(&matrix.cells) {
        let (ok, total) = cell
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .fold((0u64, 0u64), |(a, b), &(o, t)| (a + o, b + t));
        // Aggregate throughput: concurrent packets per slot × success rate,
        // normalized to the single-FM0-packet baseline.
        let success = ok as f64 / total.max(1) as f64;
        rows.push(vec![
            format!("{concurrent}"),
            format!("{ok}/{total}"),
            f(success * 100.0, 1),
            f(concurrent as f64 * success, 2),
        ]);
    }
    Report::single(
        Section::new(
            format!("Extension — FDMA parallel decoding ({trials} slots per point)"),
            &[
                "concurrent tags",
                "packets ok",
                "success %",
                "throughput × (vs 1 tag/slot)",
            ],
            rows,
        )
        .with_note(
            "tags on distinct subcarrier channels (k = 6/9/12/16 cycles per bit) transmit in \
             the SAME slot and are\nseparated by coherent despreading — the paper's named \
             future-work route to higher throughput (Sec. 6.3).\nThe MAC is untouched: a slot \
             simply carries several channels.",
        ),
    )
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry)
}

#[cfg(test)]
mod tests {
    use super::SweepConfig;

    #[test]
    fn fdma_study_shows_parallel_gain() {
        let out = super::report(2, &SweepConfig::new(3)).render();
        assert!(out.contains("concurrent tags"));
        // The 2-concurrent row must exist and decode something.
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("2 "))
            .unwrap();
        assert!(!line.contains(" 0/"), "no packets decoded: {line}");
    }
}
