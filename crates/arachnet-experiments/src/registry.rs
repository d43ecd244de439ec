//! The static experiment registry.
//!
//! Every evaluation artifact registers exactly one [`Experiment`]
//! implementation here, in the paper's presentation order. The `repro`
//! binary, the bench suite, and the smoke tests are all driven off this
//! single list — adding an experiment means adding one line to [`ALL`].

use crate::report::Experiment;

use crate::ablation::{Ablation, AblationDrive, AblationLateArrival, AblationStages};
use crate::ambient::Ambient;
use crate::dyn_scenarios::{DynChurn, DynDrift, DynOutage, DynSoak};
use crate::fdma::Fdma;
use crate::fig11::{Fig11a, Fig11b};
use crate::fig12::Fig12;
use crate::fig13::{Fig13a, Fig13b};
use crate::fig14::{Fig14a, Fig14b};
use crate::fig15::{Fig15a, Fig15b};
use crate::fig16::Fig16;
use crate::fig17::Fig17b;
use crate::fig19::Fig19;
use crate::markov::Markov;
use crate::multireader::{MrFdma, MrFleetSoak, MrInterference};
use crate::resilience::Resilience;
use crate::table1::Table1;
use crate::table2::Table2;
use crate::table3::Table3;
use crate::table4::Table4;
use crate::vanilla::Vanilla;

/// All registered experiments, in the paper's presentation order.
pub static ALL: &[&'static dyn Experiment] = &[
    &Table1,
    &Fig11a,
    &Fig11b,
    &Table2,
    &Fig12,
    &Fig13a,
    &Fig13b,
    &Fig14a,
    &Fig14b,
    &Table3,
    &Fig15a,
    &Fig15b,
    &Fig16,
    &Fig17b,
    &Fig19,
    &Table4,
    &Markov,
    &Ablation,
    &AblationLateArrival,
    &AblationDrive,
    &AblationStages,
    &Ambient,
    &Fdma,
    &Vanilla,
    &DynChurn,
    &DynDrift,
    &DynOutage,
    &DynSoak,
    &MrFdma,
    &MrInterference,
    &MrFleetSoak,
    &Resilience,
];

/// Iterates every registered experiment in presentation order.
pub fn all() -> impl Iterator<Item = &'static dyn Experiment> {
    ALL.iter().copied()
}

/// Error from [`find`]: the id is not registered. Carries the closest
/// registered ids so callers (the `repro` binary in particular) can print
/// "did you mean ...?" instead of a bare failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The id that failed to resolve.
    pub id: String,
    /// Closest registered ids, best match first (empty when nothing is
    /// plausibly close).
    pub suggestions: Vec<&'static str>,
}

impl std::fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown experiment `{}`", self.id)?;
        if !self.suggestions.is_empty() {
            write!(f, " (did you mean {}?)", self.suggestions.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownExperiment {}

/// Levenshtein distance between two ids (full DP over a rolling row; ids
/// are short so the quadratic cost is irrelevant).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Nearest registered ids to a misspelt one: anything within two edits or
/// sharing the typed prefix, best first, at most three.
fn suggestions_for(id: &str) -> Vec<&'static str> {
    let mut scored: Vec<(usize, &'static str)> = all()
        .map(|e| (edit_distance(id, e.id()), e.id()))
        .filter(|&(d, cand)| d <= 2 || (!id.is_empty() && cand.starts_with(id)))
        .collect();
    scored.sort_by_key(|&(d, cand)| (d, cand));
    scored.into_iter().take(3).map(|(_, cand)| cand).collect()
}

/// Looks an experiment up by its `repro` subcommand id.
pub fn find(id: &str) -> Result<&'static dyn Experiment, UnknownExperiment> {
    all()
        .find(|e| e.id() == id)
        .ok_or_else(|| UnknownExperiment {
            id: id.to_string(),
            suggestions: suggestions_for(id),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lowercase() {
        let mut seen = std::collections::BTreeSet::new();
        for e in all() {
            assert!(seen.insert(e.id()), "duplicate id {}", e.id());
            assert_eq!(e.id(), e.id().to_lowercase());
            assert!(!e.title().is_empty());
            assert!(!e.paper_anchor().is_empty());
        }
    }

    #[test]
    fn find_resolves_every_id() {
        for e in all() {
            let found = find(e.id()).expect("id registered");
            assert_eq!(found.id(), e.id());
        }
        assert!(find("no-such-experiment").is_err());
    }

    #[test]
    fn find_suggests_near_misses() {
        // One edit away resolves to a suggestion...
        let Err(err) = find("fig15") else {
            panic!("fig15 should not resolve")
        };
        assert_eq!(err.id, "fig15");
        assert!(
            err.suggestions.contains(&"fig15a"),
            "suggestions: {:?}",
            err.suggestions
        );
        assert!(err.suggestions.len() <= 3);
        let msg = err.to_string();
        assert!(msg.contains("unknown experiment"), "{msg}");
        assert!(msg.contains("did you mean"), "{msg}");
        // ...while garbage gets no suggestions at all.
        let Err(err) = find("zzzzzzzzzzzz") else {
            panic!("garbage should not resolve")
        };
        assert!(err.suggestions.is_empty(), "{:?}", err.suggestions);
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("fig15", "fig15a"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("table2", "table2"), 0);
        assert_eq!(edit_distance("mr-fdm", "mr-fdma"), 1);
    }
}
