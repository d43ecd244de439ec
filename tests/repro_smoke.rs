//! Smoke test: every evaluation artifact stays regenerable.
//!
//! Drives the experiment registry end to end at quick scale and checks
//! each report for its key markers — the cheap guarantee that no refactor
//! silently breaks the reproduction harness. Also asserts the registry
//! covers every `repro <id>` mentioned in EXPERIMENTS.md, so the docs and
//! the code cannot drift apart.

use std::collections::BTreeSet;

use arachnet_experiments::registry;
use arachnet_experiments::report::{export_metrics, metrics_json, ExperimentCtx, Num};
use arachnet_obs::MetricValue;

/// Quick-mode run context shared by the smoke tests.
fn ctx(seed: u64, threads: usize, observe: bool) -> ExperimentCtx {
    ExperimentCtx::builder(seed)
        .quick()
        .threads(threads)
        .observe(observe)
        .build()
        .expect("valid smoke-test context")
}

/// Every `repro <id>` token in EXPERIMENTS.md (excluding `all`).
fn documented_ids() -> BTreeSet<String> {
    let doc = include_str!("../EXPERIMENTS.md");
    let mut ids = BTreeSet::new();
    for (pos, _) in doc.match_indices("repro ") {
        let rest = &doc[pos + "repro ".len()..];
        let id: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
            .collect();
        if id.chars().any(|c| c.is_ascii_alphabetic()) && id != "all" {
            ids.insert(id);
        }
    }
    ids
}

#[test]
fn registry_covers_every_documented_experiment() {
    let ids = documented_ids();
    assert!(
        ids.len() >= 15,
        "EXPERIMENTS.md should document most artifacts, found {ids:?}"
    );
    for id in &ids {
        assert!(
            registry::find(id).is_ok(),
            "EXPERIMENTS.md documents `repro {id}` but the registry has no such experiment"
        );
    }
}

#[test]
fn registry_ids_resolve_and_describe_themselves() {
    let mut seen = BTreeSet::new();
    for e in registry::all() {
        assert!(seen.insert(e.id()), "duplicate id {}", e.id());
        assert!(registry::find(e.id()).is_ok());
        assert!(!e.title().is_empty(), "{}: empty title", e.id());
        assert!(!e.paper_anchor().is_empty(), "{}: empty anchor", e.id());
    }
    assert!(seen.len() >= 20, "registry unexpectedly small: {seen:?}");
}

/// Key output markers per experiment id: the numbers and labels a correct
/// reproduction must emit.
fn markers(id: &str) -> &'static [&'static str] {
    match id {
        "table1" => &["exactly one transmitter: yes"],
        "table2" => &["RX", "51.0"],
        "table3" => &["c9", "1.000"],
        "table4" => &["ARACHNET", "Battery-free"],
        "fig11a" => &["4.74", "Tag"],
        "fig11b" => &["net power", "resume"],
        "fig12a12b" => &["93.75", "3000", "Tag 11"],
        "fig13a" => &["2000", "Tag 4"],
        "fig13b" => &["max |offset|"],
        "fig14a" => &["RMS"],
        "fig14b" => &["p99", "281.9"],
        "fig15a" => &["c5", "median"],
        "fig15b" => &["c9"],
        "fig16" => &["whole-run averages", "0.84375"],
        "fig17b" => &["Tag C", "ADC"],
        "fig19" => &["overall collision-free"],
        "markov" => &["absorbing chain", "yes"],
        "ablation" => &["full protocol", "N = 6"],
        "ablation-latearrival" => &["settled tags"],
        "ablation-drive" => &["plain OOK"],
        "ablation-stages" => &["12/12"],
        "ambient" => &["highway", "RX sustained"],
        "fdma" => &["concurrent tags"],
        "vanilla" => &["vanilla tail", "staggered"],
        "dyn-churn" => &["c2-storm", "median"],
        "dyn-drift" => &["ring-2x", "Tag 11"],
        "dyn-outage" => &["c2-dark512", "burst"],
        "dyn-soak" => &["c3-soak", "unresolved"],
        "mr-fdma" => &["k4", "R0"],
        "mr-interference" => &["co-channel", "tag8"],
        "mr-fleet-soak" => &["cell0", "band"],
        _ => &[],
    }
}

#[test]
fn every_registered_experiment_regenerates() {
    let run_ctx = ctx(9, 1, false);
    for e in registry::all() {
        let out = e.run(&run_ctx).render();
        assert!(!out.trim().is_empty(), "{}: empty output", e.id());
        for m in markers(e.id()) {
            assert!(
                out.contains(m),
                "{}: missing marker {m:?} in:\n{out}",
                e.id()
            );
        }
    }
}

#[test]
fn every_registered_experiment_is_thread_count_invariant() {
    // `--threads` must change only the wall clock, never the report: every
    // experiment's output at 1 worker must be byte-identical to 4 workers.
    for e in registry::all() {
        let one = e.run(&ctx(9, 1, false)).render();
        let four = e.run(&ctx(9, 4, false)).render();
        assert_eq!(
            one,
            four,
            "{}: report differs between --threads 1 and --threads 4",
            e.id()
        );
    }
}

#[test]
fn every_registered_experiment_exports_thread_invariant_metrics() {
    // The `--metrics` export must be deterministic in the sim domain: the
    // METRICS_<id>.json document (observation enabled) is byte-identical
    // at 1, 2 and 8 workers for every registered experiment.
    for e in registry::all() {
        let docs: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let run_ctx = ctx(9, threads, true);
                metrics_json(e.id(), &e.run(&run_ctx))
            })
            .collect();
        assert_eq!(
            docs[0],
            docs[1],
            "{}: metrics differ between --threads 1 and --threads 2",
            e.id()
        );
        assert_eq!(
            docs[0],
            docs[2],
            "{}: metrics differ between --threads 1 and --threads 8",
            e.id()
        );
        assert!(
            docs[0].contains("\"metrics\":{\""),
            "{}: metrics export is empty:\n{}",
            e.id(),
            docs[0]
        );
    }
}

#[test]
fn every_printed_number_is_exported_at_its_exact_value() {
    // METRICS holds every number the tables and notes print, each under
    // its own key, at the value it was formatted from: a count as a
    // count, a reading bit for bit, and an absent or NaN reading as null.
    for e in registry::all() {
        let report = e.run(&ctx(7, 2, true));
        let exported = export_metrics(&report);
        let measured = report.measured();
        let printed: usize = report
            .sections
            .iter()
            .flat_map(|s| s.rows.iter().flatten().chain(&s.notes))
            .map(|cell| cell.nums().count())
            .sum();
        assert_eq!(measured.len(), printed, "{}: a number has no key", e.id());
        let keys: BTreeSet<&str> = measured.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.len(), measured.len(), "{}: duplicate keys", e.id());
        for (key, num) in &measured {
            let value = exported.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            let exact = match (*num, value) {
                (Num::Int(n), Some(MetricValue::Count(c))) => n == c,
                (Num::Real(v, _), Some(MetricValue::Gauge(g))) => {
                    v.to_bits() == g.to_bits() || (v.is_nan() && g.is_nan())
                }
                (Num::Absent, Some(MetricValue::Gauge(g))) => g.is_nan(),
                _ => false,
            };
            assert!(exact, "{}: {key} prints {num:?}, exports {value:?}", e.id());
        }
    }
}
