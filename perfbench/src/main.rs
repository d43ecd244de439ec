//! End-to-end and per-layer benchmark for the ARACHNET reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (see README.md for why each exists):
//! `uplink-sweep`, `drift-coarse`, `slot-mac` or `serve-decode`. The seed
//! sets every input. The run times the workload for about `--seconds`,
//! checks its outputs, prints a report, and ends with one JSON line:
//! end-to-end metrics for `--trace 0`, per-layer metrics for `--trace 1`.

mod checks;
mod metrics;
mod phy;
mod procfs;
mod serve;
mod stats;
mod sweeps;
mod trace;

use std::process::ExitCode;

use metrics::Outcome;

const USAGE: &str =
    "usage: perfbench --workload <uplink-sweep|drift-coarse|slot-mac|serve-decode> --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 4] = ["uplink-sweep", "drift-coarse", "slot-mac", "serve-decode"];

/// Command-line arguments, checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(format!("unknown workload `{value}`")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err("--trace takes 0 or 1".into()),
                },
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Starts the trace clock.
    trace::now_ns();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload {} seed {} seconds {} trace {} ({cores} cores available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "uplink-sweep" => sweeps::uplink_sweep(&args, &mut out),
        "drift-coarse" => sweeps::drift_coarse(&args, &mut out),
        "slot-mac" => sweeps::slot_mac(&args, &mut out),
        "serve-decode" => serve::serve_decode(&args, &mut out),
        other => unreachable!("Args::parse admitted unknown workload {other}"),
    }
    match procfs::peak_rss_mb() {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.problem(format!("peak RSS: {e}")),
    }

    let names = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for (name, unit) in metrics::end_to_end().iter().chain(&metrics::per_layer()) {
        if let Some(v) = out.metrics.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    let failed = out.failed_ops();
    println!(
        "operations: {} attempted, {failed} failed ({:.3} %); checks: {}",
        out.attempted,
        100.0 * failed as f64 / out.attempted.max(1) as f64,
        if out.problems.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} failed", out.problems.len())
        }
    );
    println!("{}", out.json(&names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload slot-mac --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "slot-mac".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload slot-mac --seed -1 --seconds 1 --trace 0",
            "--workload slot-mac --seed 1 --seconds 0 --trace 0",
            "--workload slot-mac --seed 1 --seconds 1 --trace 2",
            "--workload slot-mac --seed 1 --seconds 1",
            "--workload slot-mac --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
