//! Table 2 — tag power consumption in different modes.

use arachnet_energy::ledger::PowerMode;

use crate::render::f;
use crate::report::{Cell, Experiment, ExperimentCtx, Num, Report, Section};

/// Table 2 experiment.
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Tag power consumption by mode"
    }

    fn paper_anchor(&self) -> &'static str {
        "Table 2"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let modes = [
            ("RX", PowerMode::rx_default(), (6.4, 12.4, 24.8)),
            ("TX", PowerMode::tx_default(), (4.7, 25.5, 51.0)),
            ("IDLE", PowerMode::Idle, (0.6, 3.8, 7.6)),
        ];
        // The "(paper)" columns are the paper's values: labels, not measurements.
        let rows: Vec<Vec<Cell>> = modes
            .iter()
            .map(|(name, mode, (p_mcu, p_tot, p_pow))| {
                vec![
                    Cell::label(*name),
                    Num::Real(mode.mcu_current() * 1e6, 1).into(),
                    Cell::label(f(*p_mcu, 1)),
                    Num::Real(mode.total_current() * 1e6, 1).into(),
                    Cell::label(f(*p_tot, 1)),
                    Num::Real(mode.power() * 1e6, 1).into(),
                    Cell::label(f(*p_pow, 1)),
                ]
            })
            .collect();
        let active = arachnet_energy::ledger::MCU_ACTIVE_A;
        let rx_saving = 1.0 - PowerMode::rx_default().mcu_current() / active;
        Report::single(
            Section::new(
                "power",
                "Table 2 — Tag power consumption (derived from ISR duty cycles, 2.0 V supply)",
                &[
                    "Mode", "MCU uA", "(paper)", "total uA", "(paper)", "power uW", "(paper)",
                ],
                rows,
            )
            .with_note(Cell::fill(
                "interrupt-driven design saves {rx-mcu-saving-pct} % of MCU current vs \
                 continuous active mode (paper: \"over 80 %\").",
                &[("rx-mcu-saving-pct", Num::Real(rx_saving * 100.0, 0))],
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_present_and_close() {
        let out = Table2.run(&ExperimentCtx::default()).render();
        for label in ["RX", "TX", "IDLE"] {
            assert!(out.contains(label));
        }
        assert!(out.contains("24.8"));
        assert!(out.contains("51.0"));
    }
}
