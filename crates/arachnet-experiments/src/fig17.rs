//! Fig. 17(b) — strain measurement vs metal displacement.

use arachnet_sensors::StrainSensor;

use crate::render::f;
use crate::report::{Cell, Experiment, ExperimentCtx, Num, Report, Section};

/// Fig. 17(b) experiment: displacement sweep −10…+10 cm for three gauges.
pub struct Fig17b;

impl Experiment for Fig17b {
    fn id(&self) -> &'static str {
        "fig17b"
    }

    fn title(&self) -> &'static str {
        "Sensor voltage vs displacement"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 17(b)"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let gauges = [
            ("Tag A", StrainSensor::default().with_gain_factor(1.0)),
            ("Tag B", StrainSensor::default().with_gain_factor(0.85)),
            ("Tag C", StrainSensor::default().with_gain_factor(1.15)),
        ];
        let mut rows = Vec::new();
        for step in 0..=10 {
            let d = -0.10 + 0.02 * f64::from(step);
            let mut row = vec![Cell::label(f(d * 100.0, 0))];
            for (_, g) in &gauges {
                row.push(Num::Real(g.voltage(d), 3).into());
            }
            row.push(Num::Int(u64::from(gauges[0].1.sample(d))).into());
            rows.push(row);
        }
        Report::single(
            Section::new(
                "strain",
                "Fig. 17(b) — Sensor voltage vs displacement",
                &[
                    "disp (cm)",
                    "Tag A (V)",
                    "Tag B (V)",
                    "Tag C (V)",
                    "ADC code (A)",
                ],
                rows,
            )
            .with_note(Cell::label(
                "paper: a clear correlation between voltage and displacement over ±10 cm, three \
                 gauges with distinct slopes,\nreadings carried as the 12-bit UL payload. \
                 Sampling costs ~1 mW, hence at most one sample per slot.",
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_range_and_monotone() {
        let out = Fig17b.run(&ExperimentCtx::default()).render();
        assert!(out.contains("-10"));
        assert!(out.contains("10"));
        assert!(out.contains("Tag C"));
    }
}
