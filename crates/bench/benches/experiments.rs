//! One benchmark per evaluation artifact: every registered experiment is
//! run in quick mode through the same `Experiment` trait the `repro`
//! binary uses, so `cargo bench` both regenerates every artifact's code
//! path and measures it. Emits `BENCH_experiments.json`.

use arachnet_experiments::registry;
use arachnet_experiments::report::ExperimentCtx;
use bench::{Suite, SuiteConfig};

fn main() {
    // Experiment runs are whole-artifact regenerations (milliseconds to
    // seconds each), so cap the sample count below the hot-path default.
    let mut cfg = SuiteConfig::default();
    cfg.samples = cfg.samples.min(10);
    let mut s = Suite::with_config("experiments", cfg);
    let ctx = ExperimentCtx::builder(1)
        .quick()
        .build()
        .expect("valid ctx");
    for exp in registry::all() {
        s.bench(&format!("repro/{}", exp.id()), || exp.run(&ctx));
    }
    s.finish();
}
