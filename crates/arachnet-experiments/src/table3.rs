//! Table 3 — the nine tag transmission patterns.

use arachnet_core::slot::Period;
use arachnet_sim::patterns::Pattern;

use crate::report::{Cell, Experiment, ExperimentCtx, Num, Report, Section};

/// Table 3 experiment.
pub struct Table3;

impl Experiment for Table3 {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn title(&self) -> &'static str {
        "Tag transmission patterns c1-c9"
    }

    fn paper_anchor(&self) -> &'static str {
        "Table 3"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let patterns = Pattern::table3();
        let count = |p: &Pattern, period: u32| {
            p.tags
                .iter()
                .filter(|&&(_, pp)| pp == Period::new(period).unwrap())
                .count()
        };
        let mut rows = Vec::new();
        for period in [4u32, 8, 16, 32] {
            let mut row = vec![Cell::label(format!("{period} slots"))];
            for p in &patterns {
                row.push(Num::Int(count(p, period) as u64).into());
            }
            rows.push(row);
        }
        let mut tagrow = vec![Cell::label("Tag #")];
        let mut utilrow = vec![Cell::label("Slot Util.")];
        for p in &patterns {
            tagrow.push(Num::Int(p.len() as u64).into());
            utilrow.push(Num::Real(p.utilization(), 3).into());
        }
        rows.push(tagrow);
        rows.push(utilrow);
        Report::single(
            Section::new(
                "patterns",
                "Table 3 — Tag transmission patterns",
                &[
                    "TX Period",
                    "c1",
                    "c2",
                    "c3",
                    "c4",
                    "c5",
                    "c6",
                    "c7",
                    "c8",
                    "c9",
                ],
                rows,
            )
            .with_note(Cell::label(
                "c1–c5: 12 tags, utilization sweep 0.375→1.0; c2,c6–c9: utilization 0.75 with \
                 11/10/8/6 tags\n(excluding the tags listed in the paper's footnotes).",
            )),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_values() {
        let out = Table3.run(&ExperimentCtx::default()).render();
        assert!(out.contains("0.844")); // c3 = 0.84375 rounded
        assert!(out.contains("1.000")); // c5
        assert!(out.contains("c9"));
    }
}
