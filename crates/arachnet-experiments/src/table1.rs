//! Table 1 — illustrative slot allocation for four tags.

use arachnet_core::slot::{occupancy_table, Period, Schedule};

use crate::report::{Cell, Experiment, ExperimentCtx, Report, Section};

/// Table 1 experiment.
pub struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Illustrative slot allocation (periods 2/4/8/8)"
    }

    fn paper_anchor(&self) -> &'static str {
        "Table 1"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let p = |v| Period::new(v).unwrap();
        let tags = [
            ("tA", Schedule::new(p(2), 0).unwrap(), "pA=2, aA=0"),
            ("tB", Schedule::new(p(4), 1).unwrap(), "pB=4, aB=1"),
            ("tC", Schedule::new(p(8), 7).unwrap(), "pC=8, aC=7"),
            ("tD", Schedule::new(p(8), 3).unwrap(), "pD=8, aD=3"),
        ];
        let schedules: Vec<Schedule> = tags.iter().map(|t| t.1).collect();
        let occupancy = occupancy_table(&schedules, 8);
        let mut rows = Vec::new();
        for (i, (name, _, alloc)) in tags.iter().enumerate() {
            let mut row = vec![Cell::label(*name)];
            for &occupied in occupancy[i].iter().take(8) {
                row.push(Cell::label(if occupied { "T" } else { "" }));
            }
            row.push(Cell::label(*alloc));
            rows.push(row);
        }
        // Verify the paper's property: each slot hosts exactly one
        // transmitter.
        let mut per_slot = [0usize; 8];
        for row in &occupancy {
            for (s, &t) in row.iter().enumerate() {
                per_slot[s] += usize::from(t);
            }
        }
        let ok = per_slot.iter().all(|&c| c == 1);
        Report::single(
            Section::new(
                "table1",
                "Table 1 — Illustrative Slot Allocation (periods 2/4/8/8)",
                &[
                    "Tag/Slot",
                    "0",
                    "1",
                    "2",
                    "3",
                    "4",
                    "5",
                    "6",
                    "7",
                    "Allocation",
                ],
                rows,
            )
            .with_note(Cell::label(format!(
                "each slot hosts exactly one transmitter: {} (paper: maximum slot utilization)",
                if ok { "yes" } else { "NO" }
            ))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_verifies() {
        let out = Table1.run(&ExperimentCtx::default()).render();
        assert!(out.contains("tA"));
        assert!(out.contains("exactly one transmitter: yes"));
    }
}
