//! `repro` — regenerate every table and figure of the ARACHNET paper.
//!
//! ```text
//! repro run <artifact|all> [flags]
//! repro list
//! repro metrics <artifact|all> [flags]      (run with --metrics implied)
//! repro trace <artifact> <tag|all> [flags]  (run with --trace implied)
//! repro diff <A.json> <B.json> [--tolerance F]
//! repro serve [--port P] [--workers N] [--queue-depth N] [--deadline-ms N]
//! repro <artifact|all> [flags]              (legacy alias for `run`)
//! ```
//!
//! Each subcommand accepts only the flags it reads: `list` takes none,
//! `diff` only `--tolerance`, `serve` only its four flags above, and
//! `run`/`metrics`/`trace` everything except the serve-only flags and
//! `--tolerance`. Any other flag is a usage error (exit 2) before anything
//! is bound, printed or written.
//!
//! Flags: `--quick` shrinks trial counts; `--seed N` reseeds every random
//! stream; `--threads N` caps the parallel sweep pool (results are
//! bit-identical at any thread count); `--metrics` / `--trace <tag|all>`
//! toggle observability output; `--readers K` sizes a multi-reader fleet
//! (at most 8) and `--bands B` caps its sub-band budget (at most the FDMA
//! grid's 7; mr-* experiments only — single-reader artifacts reject fleet
//! flags).
//!
//! Resilience flags: every sweep experiment runs one sweep, so each flag
//! acts once per experiment. `--checkpoint-every N` persists completed
//! trials to `CHECKPOINT_<id>.bin` every N trials; `--resume` restores
//! them on the next run (skipping finished work) and produces
//! byte-identical `METRICS_<id>.json` output at any `--threads` count;
//! `--budget-secs S` stops dispatching new trials S seconds into the
//! experiment's sweep and marks the report `partial=true`; `--halt-after
//! N` deterministically stops after the experiment's first N dispatches
//! (testing/verify hook for interrupting a run mid-sweep);
//! `--checkpoint-dir DIR` redirects `CHECKPOINT_<id>.bin` into `DIR`,
//! creating it if needed (a directory that cannot be created is a clear
//! exit-3 error, never a panic); it needs `--checkpoint-every` or
//! `--resume`, since without them no checkpoint is written or read. Every
//! sweep experiment honours these flags and `--threads`; an experiment
//! that runs no sweep rejects them with exit 2 when it is named on its
//! own, and `all` applies them to its sweep experiments only.
//!
//! Trace flags (DESIGN.md §15, all wall-domain — the deterministic exports
//! never change): `--chrome` additionally writes
//! `TRACE_<id>.chrome.json`, a Chrome `trace_event` timeline of
//! per-worker trial lanes, sim events, and span aggregates;
//! `--trace-window N` sizes the text timeline (default 40);
//! `--ring-capacity N` overrides the flight-recorder ring size. These
//! three act only on a traced run, so without `trace` (or `--trace`) they
//! are usage errors.
//!
//! `repro serve` (DESIGN.md §16) runs the backpressured TCP query
//! service: `--port 0` binds an ephemeral port (announced as the first
//! stdout line), `--workers`/`--queue-depth` size the pool and the
//! bounded admission queue, and `--deadline-ms N` (N ≥ 1, default 30000)
//! is the per-request deadline.
//! Drains gracefully on the wire `shutdown` op and exits 0.
//!
//! Exit codes: `0` success, `1` regression (`diff` found violations), `2`
//! usage error (unknown artifact, bad flag combination), `3` experiment
//! failure (a run panicked or an output file could not be written).
//! Quarantined trials do *not* fail the run: the report completes with the
//! failure counted in `sweep.quarantined`.
//!
//! `--metrics` prints each experiment's sim-domain metric table (plus
//! wall-domain span totals, which are never exported) and writes the
//! deterministic `METRICS_<id>.json` document — byte-identical at any
//! `--threads` count. `--trace <tag|all>` dumps the flight-recorder events
//! of a representative trial to `TRACE_<id>.jsonl` and prints a text
//! timeline of the last slots leading up to the first anomaly, optionally
//! filtered to one tag id. `repro diff` compares two `METRICS_*.json`
//! documents under a relative per-metric tolerance and prints a regression
//! report naming every metric that moved.

use std::env;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

use arachnet_experiments::diff::diff_metrics;
use arachnet_experiments::registry;
use arachnet_experiments::report::{export_metrics, metrics_json, Experiment, ExperimentCtx};
use arachnet_obs::{
    chrome_trace, flush_warnings, render_timeline, set_default_ring_capacity, take_spans, SpanStat,
};
use arachnet_sim::sweep::provenance_events;

/// Default `--trace-window`: how many events the text timeline shows.
const TIMELINE_WINDOW: usize = 40;
/// Largest `--trace-window` accepted (the timeline is for humans).
const MAX_TRACE_WINDOW: usize = 10_000;
/// Microseconds one sim slot occupies on the Chrome trace's sim timeline.
/// Display scale only: protocol slots are 1 s, but compressing them to
/// 1 ms keeps thousand-slot soaks browsable next to the wall-clock lanes.
const CHROME_SLOT_US: u64 = 1_000;

/// Exit code for `diff` regressions (tolerance violations).
const EXIT_REGRESSION: i32 = 1;
/// Exit code for usage errors.
const EXIT_USAGE: i32 = 2;
/// Exit code for experiment failures (panics, unwritable outputs).
const EXIT_FAILURE: i32 = 3;

/// Flags only `repro serve` reads.
const SERVE_ONLY_FLAGS: [&str; 4] = ["--port", "--workers", "--queue-depth", "--deadline-ms"];

/// Observability output options parsed from the command line.
#[derive(Clone, Copy)]
struct ObsOpts {
    /// `--metrics`: print + export the metric set.
    metrics: bool,
    /// `--trace`: `None` = off, `Some(None)` = all tags,
    /// `Some(Some(t))` = filter the timeline to tag `t`.
    trace: Option<Option<u8>>,
    /// `--chrome`: also write the Chrome `trace_event` export.
    chrome: bool,
    /// `--trace-window N`: text-timeline length.
    trace_window: usize,
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut positionals: Vec<String> = Vec::new();
    let mut quick = false;
    let mut seed = 1u64;
    let mut threads = None;
    let mut readers = None;
    let mut bands = None;
    let mut resume = false;
    let mut budget_secs = None;
    let mut checkpoint_every = None;
    let mut halt_after = None;
    let mut ring_capacity = None;
    let mut tolerance = 0.0f64;
    let mut port = 0u16;
    let mut serve_workers = 2usize;
    let mut queue_depth = 64usize;
    let mut deadline_ms: Option<u64> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut obs = ObsOpts {
        metrics: false,
        trace: None,
        chrome: false,
        trace_window: TIMELINE_WINDOW,
    };
    // Every flag given, checked against the subcommand once it is known.
    let mut flags: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            flags.push(a);
        }
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| usage("--threads needs a number")),
                );
            }
            "--readers" => {
                readers = Some(
                    it.next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| usage("--readers needs a number")),
                );
            }
            "--bands" => {
                bands = Some(
                    it.next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| usage("--bands needs a number")),
                );
            }
            "--resume" => resume = true,
            "--budget-secs" => {
                budget_secs = Some(
                    it.next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| usage("--budget-secs needs a number")),
                );
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    it.next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| usage("--checkpoint-every needs a number")),
                );
            }
            "--halt-after" => {
                halt_after = Some(
                    it.next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| usage("--halt-after needs a number")),
                );
            }
            "--ring-capacity" => {
                ring_capacity = Some(
                    it.next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| usage("--ring-capacity needs a number")),
                );
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| usage("--tolerance needs a number"));
                if !(tolerance.is_finite() && tolerance >= 0.0) {
                    usage("--tolerance must be finite and non-negative");
                }
            }
            "--port" => {
                port = it
                    .next()
                    .and_then(|s| s.parse::<u16>().ok())
                    .unwrap_or_else(|| usage("--port needs a number in 0..=65535"));
            }
            "--workers" => {
                serve_workers = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--workers needs a number >= 1"));
            }
            "--queue-depth" => {
                queue_depth = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--queue-depth needs a number >= 1"));
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--deadline-ms needs a number >= 1")),
                );
            }
            "--checkpoint-dir" => {
                checkpoint_dir =
                    Some(std::path::PathBuf::from(it.next().unwrap_or_else(|| {
                        usage("--checkpoint-dir needs a directory")
                    })));
            }
            "--chrome" => obs.chrome = true,
            "--trace-window" => {
                obs.trace_window = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage("--trace-window needs a number"));
                if obs.trace_window == 0 || obs.trace_window > MAX_TRACE_WINDOW {
                    usage(&format!("--trace-window must be in 1..={MAX_TRACE_WINDOW}"));
                }
            }
            "--metrics" => obs.metrics = true,
            "--trace" => {
                let target = it
                    .next()
                    .unwrap_or_else(|| usage("--trace needs a tag id or `all`"));
                obs.trace = Some(parse_trace_target(target));
            }
            flag if flag.starts_with("--") => usage(&format!("unexpected flag {flag}")),
            name => positionals.push(name.to_string()),
        }
    }
    // Subcommand dispatch; a bare artifact id is a legacy alias for `run`.
    let (command, artifact) = match positionals.first().map(String::as_str) {
        None => usage("missing command"),
        Some("list") => {
            accept_only("list", &flags, |_| false);
            if positionals.len() > 1 {
                usage("`list` takes no artifact");
            }
            for e in registry::all() {
                println!("{:<22} {:<24} {}", e.id(), e.paper_anchor(), e.title());
            }
            return;
        }
        Some("diff") => {
            accept_only("diff", &flags, |f| f == "--tolerance");
            let files = &positionals[1..];
            if files.len() != 2 {
                usage("`diff` takes exactly two METRICS json files");
            }
            run_diff(&files[0], &files[1], tolerance);
            return;
        }
        Some("serve") => {
            accept_only("serve", &flags, |f| SERVE_ONLY_FLAGS.contains(&f));
            if positionals.len() > 1 {
                usage("`serve` takes no artifact");
            }
            run_serve(ServeOpts {
                port,
                workers: serve_workers,
                queue_depth,
                deadline_ms,
            });
            return;
        }
        Some("run") | Some("metrics") | Some("trace") => {
            let cmd = positionals[0].clone();
            let mut rest = positionals[1..].iter();
            let Some(artifact) = rest.next() else {
                usage(&format!("`{cmd}` needs an artifact id"));
            };
            match cmd.as_str() {
                "metrics" => obs.metrics = true,
                "trace" => {
                    // `repro trace <id> <tag|all>`; target defaults to all.
                    let target = rest.next().map(String::as_str).unwrap_or("all");
                    obs.trace = Some(parse_trace_target(target));
                }
                _ => {}
            }
            if rest.next().is_some() {
                usage(&format!("`{cmd}` takes one artifact"));
            }
            (cmd, artifact.clone())
        }
        Some(_) => {
            if positionals.len() > 1 {
                usage("expected one artifact (or a subcommand)");
            }
            ("run".to_string(), positionals[0].clone())
        }
    };
    accept_only(&command, &flags, |f| {
        f != "--tolerance" && !SERVE_ONLY_FLAGS.contains(&f)
    });
    // These act only on a traced run; anywhere else they would be ignored.
    if obs.trace.is_none() {
        for flag in ["--chrome", "--trace-window", "--ring-capacity"] {
            if flags.contains(&flag) {
                usage(&format!("{flag} needs the `trace` subcommand (or --trace)"));
            }
        }
    }
    // It only places checkpoint files; with none written or read it would
    // create an empty directory and change nothing else.
    if checkpoint_dir.is_some() && checkpoint_every.is_none() && !resume {
        usage("--checkpoint-dir needs --checkpoint-every or --resume");
    }
    let mut b = ExperimentCtx::builder(seed)
        .observe(obs.metrics || obs.trace.is_some())
        // The Chrome export's worker lanes come from the sweeps.
        .lanes(obs.chrome);
    if quick {
        b = b.quick();
    }
    if let Some(n) = threads {
        b = b.threads(n);
    }
    if let Some(k) = readers {
        b = b.readers(k);
    }
    if let Some(n) = bands {
        b = b.bands(n);
    }
    if resume {
        b = b.resume(true);
    }
    if let Some(s) = budget_secs {
        b = b.budget_secs(s);
    }
    if let Some(n) = checkpoint_every {
        b = b.checkpoint_every(n);
    }
    if let Some(n) = halt_after {
        b = b.halt_after(n);
    }
    if let Some(n) = ring_capacity {
        b = b.ring_capacity(n);
    }
    if let Some(dir) = checkpoint_dir {
        // Create-or-clear-error semantics: a missing directory is created
        // (nested paths included); one that cannot be created is a clear
        // exit-3 diagnostic, never a downstream panic.
        if let Err(err) = fs::create_dir_all(&dir) {
            eprintln!(
                "error: cannot create --checkpoint-dir {}: {err}",
                dir.display()
            );
            std::process::exit(EXIT_FAILURE);
        }
        b = b.checkpoint_dir(dir);
    }
    let ctx = match b.build() {
        Ok(ctx) => ctx,
        Err(err) => usage(&format!("invalid run context: {err}")),
    };
    if let Some(cap) = ctx.ring_capacity() {
        set_default_ring_capacity(cap);
    }
    match artifact.as_str() {
        "all" => {
            for e in registry::all() {
                check_ctx(&ctx, e);
            }
            for e in registry::all() {
                println!("==================================================================");
                run_one(e, &ctx, obs, false);
            }
        }
        // Historical alias from before Fig. 12(a)/(b) shared one table.
        "fig12" => {
            let e = registry::find("fig12a12b").expect("fig12a12b registered");
            check_ctx(&ctx, e);
            run_one(e, &ctx, obs, true);
        }
        id => match registry::find(id) {
            Ok(e) => {
                check_ctx(&ctx, e);
                run_one(e, &ctx, obs, true);
            }
            Err(err) => usage(&err.to_string()),
        },
    }
    // Print the `×N` summaries for any stderr warnings that repeated
    // (one line per message, not a flood).
    flush_warnings();
}

/// `repro diff A.json B.json`: the regression sentinel. Prints a
/// per-metric report; exits [`EXIT_REGRESSION`] when any metric moved past
/// the relative tolerance (or changed shape), [`EXIT_FAILURE`] when a
/// document is unreadable or not valid JSON.
fn run_diff(left: &str, right: &str, tolerance: f64) {
    let read = |path: &str| {
        fs::read_to_string(path).unwrap_or_else(|err| {
            eprintln!("error: cannot read {path}: {err}");
            std::process::exit(EXIT_FAILURE);
        })
    };
    let (a, b) = (read(left), read(right));
    match diff_metrics(&a, &b, tolerance) {
        Ok(report) => {
            print!("{}", report.render(left, right));
            if !report.is_ok() {
                std::process::exit(EXIT_REGRESSION);
            }
        }
        Err(err) => {
            eprintln!("error: diff {left} {right}: {err}");
            std::process::exit(EXIT_FAILURE);
        }
    }
}

/// Usage error (exit 2) naming the first flag in `flags` that `cmd` does
/// not read: a flag that would be ignored is rejected instead.
fn accept_only(cmd: &str, flags: &[&str], accepts: impl Fn(&str) -> bool) {
    if let Some(flag) = flags.iter().find(|f| !accepts(f)) {
        usage(&format!("`{cmd}` does not take {flag}"));
    }
}

/// Everything `repro serve` needs from the command line.
struct ServeOpts {
    port: u16,
    workers: usize,
    queue_depth: usize,
    /// `--deadline-ms N`: per-request deadline (N ≥ 1).
    deadline_ms: Option<u64>,
}

/// `repro serve`: stand up the TCP query service over the PHY engines and
/// the experiment registry, print the bound address, and block until a
/// client sends the `shutdown` op (graceful drain). Exit 0 after a clean
/// drain; wall-domain only — serving never touches `METRICS_<id>.json`.
fn run_serve(opts: ServeOpts) {
    use std::io::Write as _;

    let ServeOpts {
        port,
        workers,
        queue_depth,
        deadline_ms,
    } = opts;

    // The `experiment` op runs registry artifacts on demand. The closure
    // is the seam that breaks the arachnet-serve → arachnet-experiments
    // dependency cycle: serve knows only this signature.
    let runner: arachnet_serve::ExperimentRunner = Box::new(|id, quick, seed| {
        let e = registry::find(id).map_err(|err| err.to_string())?;
        let mut b = ExperimentCtx::builder(seed).observe(true);
        if quick {
            b = b.quick();
        }
        let ctx = b.build().map_err(|err| err.to_string())?;
        ctx.validate_for(e).map_err(|err| err.to_string())?;
        let report = catch_unwind(AssertUnwindSafe(|| e.run(&ctx)))
            .map_err(|_| format!("experiment {id} panicked"))?;
        Ok(metrics_json(e.id(), &report))
    });

    let mut cfg = arachnet_serve::ServeConfig {
        port,
        workers,
        queue_depth,
        experiment_runner: Some(runner),
        ..arachnet_serve::ServeConfig::default()
    };
    if let Some(ms) = deadline_ms {
        cfg.request_deadline = std::time::Duration::from_millis(ms);
    }
    let handle = match arachnet_serve::start(cfg) {
        Ok(h) => h,
        Err(err) => {
            eprintln!("error: serve: cannot bind 127.0.0.1:{port}: {err}");
            std::process::exit(EXIT_FAILURE);
        }
    };
    // The address line is machine-parsed (verify.sh, tests); flush so a
    // parent piping stdout sees it before the first query.
    println!("serve: listening on {}", handle.local_addr());
    println!(
        "serve: {workers} worker(s), queue depth {queue_depth} \
         — send {{\"op\":\"shutdown\"}} to drain"
    );
    let _ = std::io::stdout().flush();
    while !handle.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let stats = handle.join();
    println!(
        "serve: drained — {} admitted, {} completed, {} rejected, {} malformed, {} torn; \
         latency p50 {} us, p95 {} us",
        stats.requests,
        stats.completed,
        stats.rejected,
        stats.malformed,
        stats.torn,
        stats.p50_us,
        stats.p95_us,
    );
    println!(
        "serve: {} deadline_exceeded, {} orphaned",
        stats.deadlines, stats.orphaned,
    );
    flush_warnings();
}

fn parse_trace_target(target: &str) -> Option<u8> {
    match target {
        "all" => None,
        t => Some(
            t.parse::<u8>()
                .unwrap_or_else(|_| usage("--trace needs a tag id or `all`")),
        ),
    }
}

/// Rejects fleet flags on single-reader experiments (usage error).
fn check_ctx(ctx: &ExperimentCtx, e: &'static dyn Experiment) {
    if let Err(err) = ctx.validate_for(e) {
        usage(&format!("{}: {err}", e.id()));
    }
}

/// Runs one experiment and prints or writes what `obs` asks for. `named`:
/// the artifact was named on its own, so sweep-only flags on a report
/// without a sweep are a usage error; under `all` they act on the sweep
/// experiments only.
fn run_one(e: &'static dyn Experiment, ctx: &ExperimentCtx, obs: ObsOpts, named: bool) {
    // Delete-before-run policy for the per-id artifacts: a stale trace or
    // checkpoint left by an aborted run of this id would otherwise survive
    // (and confuse verify.sh, which asserts on artifact presence after a
    // run). An experiment runs one sweep, so it has one checkpoint file,
    // kept when --resume asked for it; the trace files are only stale if
    // this invocation is not about to rewrite them anyway.
    if !ctx.is_resume() {
        let _ = fs::remove_file(ctx.checkpoint_path(e.id()));
    }
    let _ = fs::remove_file(format!("TRACE_{}.jsonl", e.id()));
    let _ = fs::remove_file(format!("TRACE_{}.chrome.json", e.id()));
    let report = match catch_unwind(AssertUnwindSafe(|| e.run(ctx))) {
        Ok(report) => report,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("error: experiment {} failed: {msg}", e.id());
            std::process::exit(EXIT_FAILURE);
        }
    };
    // Sweep-only flags on a named experiment that ran no sweep are a
    // usage error, reported before anything is printed or written.
    if let (true, Err(err)) = (named, ctx.validate_report(&report)) {
        usage(&format!("{}: {err}", e.id()));
    }
    println!("{}", report.render());
    // Resilience provenance: stdout-only, never part of the exported
    // artifacts, so resumed and uninterrupted runs still compare equal.
    let stats = &report.sweep;
    if stats.restored > 0 {
        println!(
            "resumed: {} trial(s) restored from CHECKPOINT_{}.bin",
            stats.restored,
            e.id()
        );
    }
    if stats.quarantined > 0 {
        println!(
            "quarantined: {} trial(s) failed after retries ({} retried in total)",
            stats.quarantined, stats.retried
        );
    }
    if report.is_partial() {
        println!(
            "warning: partial report — sweep budget exhausted with {} trial(s) undispatched",
            stats.skipped
        );
    }
    // Spans drain once per experiment; the metrics printout and the Chrome
    // export share the same snapshot.
    let spans = take_spans();
    if obs.metrics {
        let path = format!("METRICS_{}.json", e.id());
        write_file(&path, &metrics_json(e.id(), &report));
        println!("-- metrics (sim-domain, exported to {path}) --");
        print!("{}", export_metrics(&report).render());
        print_wall_domain(&spans);
    }
    if let Some(tag) = obs.trace {
        let snap = &report.snapshot;
        let mut doc = String::new();
        for ev in &snap.events {
            doc.push_str(&ev.to_json(snap.seed));
            doc.push('\n');
        }
        // Provenance events (SweepResumed / BudgetExhausted) ride along in
        // the trace export; empty for complete, non-resumed runs.
        for ev in provenance_events(&report.sweep) {
            doc.push_str(&ev.to_json(snap.seed));
            doc.push('\n');
        }
        let path = format!("TRACE_{}.jsonl", e.id());
        write_file(&path, &doc);
        println!(
            "-- trace: {} retained events (of {} recorded) -> {path} --",
            snap.events.len(),
            snap.total()
        );
        print!("{}", render_timeline(&snap.events, tag, obs.trace_window));
        if obs.chrome {
            let doc = chrome_trace(
                &report.lanes,
                &spans,
                &snap.events,
                snap.seed,
                CHROME_SLOT_US,
            );
            let path = format!("TRACE_{}.chrome.json", e.id());
            write_file(&path, &doc);
            println!(
                "-- chrome trace: {} worker lanes + {} sim events -> {path} (chrome://tracing) --",
                report.lanes.len(),
                snap.events.len()
            );
        }
    }
}

/// Wall-clock span totals: printed for humans, never exported — they
/// differ run to run and across thread counts.
fn print_wall_domain(spans: &[(&'static str, SpanStat)]) {
    if spans.is_empty() {
        return;
    }
    println!("-- wall-domain diagnostics (not exported) --");
    for (name, s) in spans {
        println!(
            "  {name:<28} {} calls, {:.3} ms total",
            s.calls,
            s.total_ns as f64 / 1e6
        );
    }
}

fn write_file(path: &str, contents: &str) {
    if let Err(err) = fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {err}");
        std::process::exit(EXIT_FAILURE);
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro <run|metrics|trace|list> <artifact|all> [--quick] [--seed N] \
         [--threads N] [--readers K] [--bands B] [--metrics] [--trace <tag|all>] \
         [--checkpoint-every N] [--resume] [--budget-secs S] [--halt-after N] \
         [--checkpoint-dir DIR] [--chrome] [--trace-window N] [--ring-capacity N]"
    );
    eprintln!("       repro diff <A.json> <B.json> [--tolerance F]");
    eprintln!("       repro serve [--port P] [--workers N] [--queue-depth N] [--deadline-ms N>=1]");
    eprintln!("       repro <artifact|all>   (alias for `repro run`)");
    eprintln!(
        "artifacts: {}",
        registry::all()
            .map(|e| e.id())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(EXIT_USAGE);
}
