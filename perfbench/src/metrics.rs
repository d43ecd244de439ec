//! Metric names and units, the run outcome, and its JSON line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `benchmark_json_lists_every_metric` test keeps the two in step.

use std::collections::BTreeMap;

use arachnet_core::rates::ul_rates;

/// End-to-end metrics, printed by untraced runs.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("wall_s", "s"),
        ("cpu_s", "s"),
        ("peak_rss_mb", "MB"),
        ("decode_p50_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// Metric-name suffix of an uplink rate: `bps93_75`, …, `bps3000`.
pub fn rate_suffix(bps: f64) -> String {
    format!("bps{bps}").replace('.', "_")
}

/// Per-layer metrics, printed by traced runs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let per_rate = |base: &str| -> Vec<(String, &'static str)> {
        std::iter::once((base.to_string(), "ns"))
            .chain(
                ul_rates()
                    .iter()
                    .map(|r| (format!("{base}.{}", rate_suffix(r.bps)), "ns")),
            )
            .collect()
    };
    let fixed = |v: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        v.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&[("decode_p95_ms", "ms"), ("decode_p99_ms", "ms")]);
    out.extend(per_rate("channel.noise.ns_per_sample"));
    out.extend(fixed(&[
        ("channel.carrier.ns_per_sample", "ns"),
        ("channel.tags.ns_per_sample", "ns"),
        ("channel.samples", "count"),
        ("tag.modulate.self_s", "s"),
    ]));
    out.extend(per_rate("rx.decode.ns_per_sample"));
    out.extend(fixed(&[
        ("rx.decode.calls", "count"),
        ("rx.decode.ok_frac", "ratio"),
        ("rx.snr.ns_per_sample", "ns"),
        ("rx.snr.calls", "count"),
        ("sweep.trials", "count"),
        ("sweep.trial_p50_ms", "ms"),
        ("sweep.trial_p99_ms", "ms"),
        ("sweep.busy_frac", "ratio"),
        ("sweep.tail_idle_s", "s"),
        ("sweep.overhead_us_per_trial", "us"),
        ("sweep.quarantined", "count"),
        ("sweep.retried", "count"),
        ("slotsim.slots", "count"),
        ("slotsim.ns_per_slot", "ns"),
        ("serve.ping_p50_ms", "ms"),
        ("serve.phy_p50_ms", "ms"),
        ("serve.overhead_p50_ms", "ms"),
        ("serve.batched_frac", "ratio"),
        ("serve.rejected", "count"),
        ("serve.deadlines", "count"),
        ("loadgen.late_p99_ms", "ms"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_pct", "%"),
    ]));
    out
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: sweep trials or serve requests.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// A shape check failed: every operation of the run counts as failed.
    pub shape_broken: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        let p = p.into();
        println!("CHECK FAILED: {p}");
        self.problems.push(p);
    }

    /// Records a shape check: prints it, and on failure marks the run.
    pub fn shape(&mut self, ok: bool, what: &str) {
        if ok {
            println!("shape ok: {what}");
        } else {
            self.shape_broken = true;
            self.problem(format!("shape: {what}"));
        }
    }

    /// Failed operations: every one of them when a shape check broke.
    pub fn failed_ops(&self) -> u64 {
        if self.shape_broken {
            self.attempted
        } else {
            self.failed.min(self.attempted)
        }
    }

    /// The JSON result line: the `names` metrics in order, a metric the
    /// run did not produce (a layer the workload does not exercise) as 0.
    pub fn json(&self, names: &[(String, &str)]) -> String {
        let failed = self.failed_ops();
        let metrics: Vec<String> = names
            .iter()
            .map(|(n, u)| {
                let v = self
                    .metrics
                    .get(n)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arachnet_obs::{parse_json, JsonValue};

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), own(per_layer()));
    }

    #[test]
    fn rate_suffixes_are_metric_safe() {
        assert_eq!(rate_suffix(93.75), "bps93_75");
        assert_eq!(rate_suffix(3000.0), "bps3000");
    }

    #[test]
    fn broken_shape_fails_every_operation() {
        let mut o = Outcome {
            attempted: 40,
            ..Outcome::default()
        };
        o.set("wall_s", 1.5);
        let names = [("wall_s".to_string(), "s"), ("cpu_s".to_string(), "s")];
        assert_eq!(
            o.json(&names),
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"cpu_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        o.shape(false, "doctored");
        assert!(o
            .json(&names)
            .starts_with("{\"correct\": false, \"attempted\": 40, \"failed\": 40,"));
    }
}
