//! # bench — in-tree statistical benchmark harness for ARACHNET
//!
//! Criterion is a heavy external dependency and the workspace must build
//! offline, so this crate carries its own minimal harness: warmup, batch
//! calibration, a fixed number of wall-clock samples, median/p95 summary,
//! and a hand-rolled JSON emit to `BENCH_<suite>.json` at the workspace
//! root so CI (or a human) can diff runs. [`Suite::bench_paired`] compares
//! two closures sample by sample and reports the median of the per-pair
//! cost ratios under the JSON's `pairs` key.
//!
//! Two suites live under `benches/`, and `tools/verify.sh` gates both:
//!
//! * `phy` — the waveform PHY: channel synthesis, the RX decode chain and
//!   SNR over one slot, and one full Fig. 12 uplink trial, plus the paired
//!   time-varying-over-static ratio (`BENCH_phy.json`);
//! * `serve` — the serve tier over a real TCP socket: a `ping` round trip
//!   and one decode request (`BENCH_serve.json`).
//!
//! Run: `cargo bench -p bench`. Environment knobs:
//!
//! | variable | effect |
//! |---|---|
//! | `ARACHNET_BENCH_SAMPLES` | samples per benchmark (default 30) |
//! | `ARACHNET_BENCH_SAMPLE_MS` | target wall-clock per sample (default 10) |
//! | `ARACHNET_BENCH_WARMUP_MS` | warmup before sampling (default 100) |
//! | `ARACHNET_BENCH_DIR` | output directory for `BENCH_*.json` |

use std::time::{Duration, Instant};

pub use std::hint::black_box;

use arachnet_sim::metrics::{mean, percentile};

/// Parses an `ARACHNET_BENCH_*` value. `Ok(None)` means the variable was
/// unset (use the default silently); `Err` carries the malformed text so
/// the caller can warn instead of silently ignoring a typo like
/// `ARACHNET_BENCH_SAMPLES=1e3`.
fn parse_env_u64(value: Option<&str>) -> Result<Option<u64>, String> {
    match value {
        None => Ok(None),
        Some(s) => s.trim().parse().map(Some).map_err(|_| s.trim().to_string()),
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    let raw = std::env::var(key).ok();
    match parse_env_u64(raw.as_deref()) {
        Ok(Some(v)) => v,
        Ok(None) => default,
        Err(bad) => {
            arachnet_obs::warn!("{key}={bad:?} is not a valid integer; using default {default}");
            default
        }
    }
}

/// Harness configuration; [`SuiteConfig::default`] reads the
/// `ARACHNET_BENCH_*` environment variables.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Wall-clock samples collected per benchmark.
    pub samples: u64,
    /// Target duration of one sample; the batch size (iterations per
    /// sample) is calibrated so a sample takes roughly this long.
    pub sample_time: Duration,
    /// Warmup time before calibration and sampling.
    pub warmup: Duration,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            samples: env_u64("ARACHNET_BENCH_SAMPLES", 30),
            sample_time: Duration::from_millis(env_u64("ARACHNET_BENCH_SAMPLE_MS", 10)),
            warmup: Duration::from_millis(env_u64("ARACHNET_BENCH_WARMUP_MS", 100)),
        }
    }
}

/// Summary statistics over the per-iteration wall-clock of one benchmark,
/// in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub ns_min: f64,
    /// Median sample — the headline number (robust to scheduler noise).
    pub ns_median: f64,
    /// 95th-percentile sample — the tail a real-time budget cares about.
    pub ns_p95: f64,
    /// Arithmetic mean of the samples.
    pub ns_mean: f64,
    /// Slowest sample.
    pub ns_max: f64,
}

/// One benchmark's measured result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/case` by convention).
    pub name: String,
    /// Calibrated iterations per sample.
    pub iters_per_sample: u64,
    /// Number of samples collected.
    pub samples: u64,
    /// Per-iteration wall-clock statistics.
    pub stats: Stats,
}

/// One [`Suite::bench_paired`] result: the cost of `other` over the cost
/// of `base`, as ratios of samples taken back to back.
#[derive(Debug, Clone)]
struct PairResult {
    name: String,
    /// Calibrated iterations per sample, the same for both closures.
    iters_per_sample: u64,
    /// Number of sample pairs.
    pairs: u64,
    /// Median per-pair ratio — the headline number.
    ratio_median: f64,
    /// 95th-percentile per-pair ratio.
    ratio_p95: f64,
}

/// A named collection of benchmarks; accumulates results and emits a text
/// table plus `BENCH_<suite>.json` on [`Suite::finish`].
pub struct Suite {
    name: String,
    cfg: SuiteConfig,
    results: Vec<BenchResult>,
    pairs: Vec<PairResult>,
}

impl Suite {
    /// Starts a suite with configuration from the environment.
    pub fn new(name: &str) -> Self {
        Suite {
            name: name.to_string(),
            cfg: SuiteConfig::default(),
            results: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Measures `f`: warmup, batch-size calibration, then
    /// `cfg.samples` timed batches. The closure's return value is passed
    /// through [`black_box`] so the work is not optimized away.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        // Warmup, then calibrate: estimate per-iteration cost from the
        // warmup and pick a batch size that makes one sample last
        // ~sample_time.
        let iters = self.batch_size(self.warm_up(&mut f));

        let mut per_iter_ns = Vec::with_capacity(self.cfg.samples as usize);
        for _ in 0..self.cfg.samples {
            per_iter_ns.push(time_batch(iters, &mut f) / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));

        let stats = Stats {
            ns_min: per_iter_ns[0],
            ns_median: percentile(&per_iter_ns, 50.0),
            ns_p95: percentile(&per_iter_ns, 95.0),
            ns_mean: mean(&per_iter_ns),
            ns_max: *per_iter_ns.last().unwrap(),
        };
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: self.cfg.samples,
            stats,
        };
        println!(
            "{:<44} median {:>12}  p95 {:>12}  ({} iters x {} samples)",
            result.name,
            fmt_ns(stats.ns_median),
            fmt_ns(stats.ns_p95),
            iters,
            self.cfg.samples
        );
        self.results.push(result);
    }

    /// Compares two closures that should cost the same. Both are warmed
    /// up and share one calibrated batch size; then `cfg.samples` pairs of
    /// batches run back to back, `base` first in even pairs and `other`
    /// first in odd ones, and each pair gives the ratio `other / base`.
    /// A slow phase of the host stretches both halves of a pair alike, so
    /// the median ratio sees a difference of a few percent that two
    /// separately sampled medians, drifting apart by more than that
    /// within one run, cannot.
    pub fn bench_paired<T, U, A, B>(&mut self, name: &str, mut base: A, mut other: B)
    where
        A: FnMut() -> T,
        B: FnMut() -> U,
    {
        let per_iter_base = self.warm_up(&mut base);
        let per_iter_other = self.warm_up(&mut other);
        let iters = self.batch_size(per_iter_base.max(per_iter_other));
        let mut ratios = Vec::with_capacity(self.cfg.samples as usize);
        for pair in 0..self.cfg.samples {
            let (b, o) = if pair % 2 == 0 {
                let b = time_batch(iters, &mut base);
                (b, time_batch(iters, &mut other))
            } else {
                let o = time_batch(iters, &mut other);
                (time_batch(iters, &mut base), o)
            };
            ratios.push(o / b.max(1.0));
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let result = PairResult {
            name: name.to_string(),
            iters_per_sample: iters,
            pairs: self.cfg.samples,
            ratio_median: percentile(&ratios, 50.0),
            ratio_p95: percentile(&ratios, 95.0),
        };
        println!(
            "{:<44} ratio {:>8.4}  p95 {:>8.4}  ({} iters x {} pairs)",
            result.name, result.ratio_median, result.ratio_p95, iters, self.cfg.samples
        );
        self.pairs.push(result);
    }

    /// Runs `f` for the warmup budget (at least once) and returns its mean
    /// cost per iteration in nanoseconds.
    fn warm_up<T>(&self, f: &mut impl FnMut() -> T) -> f64 {
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.cfg.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        warm_start.elapsed().as_nanos() as f64 / warm_iters as f64
    }

    /// Iterations per sample that make one sample last ~`sample_time`.
    fn batch_size(&self, per_iter_ns: f64) -> u64 {
        let target_ns = self.cfg.sample_time.as_nanos() as f64;
        (target_ns / per_iter_ns.max(1.0)).ceil().max(1.0) as u64
    }

    /// Prints the summary and writes `BENCH_<suite>.json`. Returns the path
    /// written.
    pub fn finish(self) -> std::path::PathBuf {
        let dir = std::env::var("ARACHNET_BENCH_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| {
                // Workspace root: two levels above this crate's manifest.
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
            });
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        if let Err(e) = std::fs::write(&path, &json) {
            arachnet_obs::warn!("could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
        path
    }

    /// Renders the suite as a JSON document (stable key order, no external
    /// serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", self.name));
        out.push_str(&format!("  \"samples_per_bench\": {},\n", self.cfg.samples));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                 \"ns_min\": {:.1}, \"ns_median\": {:.1}, \"ns_p95\": {:.1}, \
                 \"ns_mean\": {:.1}, \"ns_max\": {:.1}}}{}",
                r.name,
                r.iters_per_sample,
                r.samples,
                r.stats.ns_min,
                r.stats.ns_median,
                r.stats.ns_p95,
                r.stats.ns_mean,
                r.stats.ns_max,
                if i + 1 == self.results.len() {
                    "\n"
                } else {
                    ",\n"
                }
            ));
        }
        out.push_str("  ]");
        if !self.pairs.is_empty() {
            let rows: Vec<String> = self
                .pairs
                .iter()
                .map(|p| {
                    format!(
                        "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"pairs\": {}, \
                         \"ratio_median\": {:.4}, \"ratio_p95\": {:.4}}}",
                        p.name, p.iters_per_sample, p.pairs, p.ratio_median, p.ratio_p95
                    )
                })
                .collect();
            out.push_str(&format!(",\n  \"pairs\": [\n{}\n  ]", rows.join(",\n")));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Wall-clock nanoseconds of `iters` back-to-back calls of `f`.
fn time_batch<T>(iters: u64, f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64
}

/// Formats a nanosecond figure with a human-friendly unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A suite with a tiny budget, whatever the environment asks for.
    fn tiny() -> Suite {
        Suite {
            cfg: SuiteConfig {
                samples: 5,
                sample_time: Duration::from_micros(200),
                warmup: Duration::from_micros(100),
            },
            ..Suite::new("unit")
        }
    }

    #[test]
    fn bench_produces_ordered_stats() {
        let mut s = tiny();
        s.bench("noop_sum", || (0..100u64).sum::<u64>());
        let r = &s.results[0];
        assert!(r.stats.ns_min <= r.stats.ns_median);
        assert!(r.stats.ns_median <= r.stats.ns_p95);
        assert!(r.stats.ns_p95 <= r.stats.ns_max);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut s = tiny();
        s.bench("a", || 1 + 1);
        s.bench("b", || 2 + 2);
        let json = s.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"suite\": \"unit\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"ns_median\""));
        assert_eq!(json.matches("{\"name\"").count(), 2);
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn paired_bench_reports_the_ratio_of_the_two_closures() {
        let spin = |n: u64| (0..n).fold(0u64, |a, x| black_box(a ^ x.wrapping_mul(31)));
        let mut s = tiny();
        s.bench_paired("unit/4x", || spin(2_000), || spin(8_000));
        let p = &s.pairs[0];
        assert_eq!(p.pairs, 5);
        assert!(p.ratio_median <= p.ratio_p95);
        // Four times the work reads well above 1 however noisy the host.
        assert!(p.ratio_median > 1.5, "ratio {}", p.ratio_median);
        let json = s.to_json();
        assert!(json.contains("\"pairs\": [\n    {\"name\": \"unit/4x\""));
        assert!(json.contains("\"ratio_median\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn malformed_env_warns_on_the_obs_sink() {
        // The warning is observable now, not just stderr noise: run the
        // parse under the capture sink and assert on what was emitted.
        std::env::set_var("ARACHNET_BENCH_TEST_BOGUS", "1e3");
        let (v, warnings) = arachnet_obs::capture(|| env_u64("ARACHNET_BENCH_TEST_BOGUS", 17));
        std::env::remove_var("ARACHNET_BENCH_TEST_BOGUS");
        assert_eq!(v, 17, "malformed value must fall back to the default");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("ARACHNET_BENCH_TEST_BOGUS"));
        assert!(warnings[0].contains("1e3"));
        // A well-formed value warns about nothing.
        std::env::set_var("ARACHNET_BENCH_TEST_GOOD", "21");
        let (v, warnings) = arachnet_obs::capture(|| env_u64("ARACHNET_BENCH_TEST_GOOD", 17));
        std::env::remove_var("ARACHNET_BENCH_TEST_GOOD");
        assert_eq!(v, 21);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn env_parse_distinguishes_unset_valid_and_malformed() {
        assert_eq!(parse_env_u64(None), Ok(None));
        assert_eq!(parse_env_u64(Some("30")), Ok(Some(30)));
        assert_eq!(parse_env_u64(Some("  42  ")), Ok(Some(42)));
        // The classic typo: scientific notation is not a u64.
        assert_eq!(parse_env_u64(Some("1e3")), Err("1e3".to_string()));
        assert_eq!(parse_env_u64(Some("")), Err(String::new()));
        assert_eq!(parse_env_u64(Some("-5")), Err("-5".to_string()));
    }

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("us"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with('s'));
    }
}
