//! Table 4 / Appendix D — qualitative comparison of BiW monitoring
//! solutions.

use crate::report::{Cell, Experiment, ExperimentCtx, Report, Section};

/// Table 4 experiment.
pub struct Table4;

impl Experiment for Table4 {
    fn id(&self) -> &'static str {
        "table4"
    }

    fn title(&self) -> &'static str {
        "Qualitative comparison of monitoring solutions"
    }

    fn paper_anchor(&self) -> &'static str {
        "Table 4 / Appendix D"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Report {
        let rows: Vec<Vec<Cell>> = [
            [
                "Power Source",
                "Wired power",
                "Battery-powered",
                "Battery-free",
            ],
            [
                "Integration Complexity",
                "High (new wires)",
                "Medium (RF-transparent spots)",
                "Low (attached to BiW)",
            ],
            ["Deployment Cost", "High (wires, labor)", "Medium", "Medium"],
            ["Maintainability", "Good", "Poor (battery)", "Good"],
            [
                "Compatibility with BiW",
                "Limited",
                "Limited (metal blocks RF)",
                "Good (BiW as medium)",
            ],
            ["Data Throughput", "High", "Medium", "Low"],
        ]
        .iter()
        .map(|r| r.iter().map(|&s| Cell::label(s)).collect())
        .collect();
        Report::single(Section::new(
            "table4",
            "Table 4 — Qualitative comparison of monitoring solutions for vehicle BiW",
            &["Aspect", "Wired Sensors", "RF-based Sensors", "ARACHNET"],
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_aspects_present() {
        let out = Table4.run(&ExperimentCtx::default()).render();
        for aspect in ["Power Source", "Maintainability", "Data Throughput"] {
            assert!(out.contains(aspect));
        }
    }
}
