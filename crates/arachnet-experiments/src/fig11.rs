//! Fig. 11 — amplified voltage (a) and charging time (b).

use arachnet_energy::harvester::HarvestChain;
use arachnet_energy::multiplier::Multiplier;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;

use crate::report::{Cell, Experiment, ExperimentCtx, Num, Report, Section};

fn channel() -> BiwChannel {
    BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig::silent(),
        ..ChannelConfig::default()
    })
}

/// Fig. 11(a): per-tag multiplier output at 2/4/6/8 stages (4×–16×).
pub struct Fig11a;

impl Experiment for Fig11a {
    fn id(&self) -> &'static str {
        "fig11a"
    }

    fn title(&self) -> &'static str {
        "Amplified voltage per tag vs stage count"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 11(a)"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let ch = channel();
        let v16 = |tid| {
            let vp = ch.tag_carrier_voltage(tid).expect("deployment tag");
            Num::Real(Multiplier::new(8).open_circuit_voltage(vp), 2)
        };
        let mut rows = Vec::new();
        for tid in 1..=12u8 {
            let vp = ch.tag_carrier_voltage(tid).expect("deployment tag");
            let mut row = vec![Cell::label(format!("{tid}"))];
            for stages in [2u32, 4, 6, 8] {
                let v = Multiplier::new(stages).open_circuit_voltage(vp);
                row.push(Num::Real(v, 2).into());
            }
            let active = Multiplier::new(8).open_circuit_voltage(vp) > 2.3;
            row.push(Cell::label(if active { "yes" } else { "NO" }));
            rows.push(row);
        }
        Report::single(
            Section::new(
                "voltage",
                "Fig. 11(a) — Amplified voltage per tag (V) vs stage count",
                &[
                    "Tag",
                    "4x (2st)",
                    "8x (4st)",
                    "12x (6st)",
                    "16x (8st)",
                    ">2.3V@16x",
                ],
                rows,
            )
            .with_note(Cell::fill(
                "paper anchors: Tag 4 = 4.74 V at 16x (measured {tag4-16x}); Tag 11 = 2.70 V \
                 (measured {tag11-16x});\nall 12 tags exceed the 2.3 V activation threshold at \
                 8 stages (as in the paper).",
                &[("tag4-16x", v16(4)), ("tag11-16x", v16(11))],
            )),
        )
    }
}

/// Fig. 11(b): charging time vs 16× amplified voltage, plus net charging
/// power.
pub struct Fig11b;

impl Experiment for Fig11b {
    fn id(&self) -> &'static str {
        "fig11b"
    }

    fn title(&self) -> &'static str {
        "Charging time vs amplified voltage"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 11(b)"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let ch = channel();
        let chain = HarvestChain::paper();
        let mut entries: Vec<(u8, f64, f64, f64, f64)> = (1..=12u8)
            .map(|tid| {
                let vp = ch.tag_carrier_voltage(tid).unwrap();
                let v16 = chain.open_circuit_voltage(vp);
                let t = chain.full_charge_time(vp).unwrap();
                let p = chain.net_charging_power(vp).unwrap() * 1e6;
                let resume = chain.resume_charge_time(vp).unwrap();
                (tid, v16, t, p, resume)
            })
            .collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1));
        let rows: Vec<Vec<Cell>> = entries
            .iter()
            .map(|&(tid, v16, t, p, resume)| {
                let mut row = vec![Cell::label(format!("{tid}")), Num::Real(v16, 2).into()];
                row.extend([t, p, resume].map(|v| Cell::from(Num::Real(v, 1))));
                row
            })
            .collect();
        let min_t = entries.iter().map(|e| e.2).fold(f64::MAX, f64::min);
        let max_t = entries.iter().map(|e| e.2).fold(0.0f64, f64::max);
        Report::single(
            Section::new(
                "charging",
                "Fig. 11(b) — Charging time vs amplified voltage",
                &[
                    "Tag",
                    "16x V (V)",
                    "full charge (s)",
                    "net power (uW)",
                    "resume (s)",
                ],
                rows,
            )
            .with_note(Cell::fill(
                "paper: charging spans 4.5 s – 56.2 s (measured {min-full-charge-s} – \
                 {max-full-charge-s}); net charging power 587.8 – 47.1 uW;\nresume-from-LTH \
                 ~15.2 % of a full charge for strong tags.",
                &[
                    ("min-full-charge-s", Num::Real(min_t, 1)),
                    ("max-full-charge-s", Num::Real(max_t, 1)),
                ],
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11a_has_12_rows_and_anchors() {
        let out = Fig11a.run(&ExperimentCtx::default()).render();
        assert_eq!(out.lines().filter(|l| l.contains("yes")).count(), 12);
        assert!(out.contains("4.74"));
    }

    #[test]
    fn fig11b_reports_paper_span() {
        let out = Fig11b.run(&ExperimentCtx::default()).render();
        assert!(out.contains("4.5 s"));
        assert!(out.contains("resume"));
    }
}
