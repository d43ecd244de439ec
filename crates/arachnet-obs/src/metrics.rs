//! Ordered metric sets with a stable JSON encoding.

use crate::{json_escape, json_f64};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A single named metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic count.
    Count(u64),
    /// A float reading; a non-finite one exports as `null`.
    Gauge(f64),
}

/// An ordered bag of named metrics.
///
/// Backed by a `BTreeMap`, so iteration order — and therefore the JSON and
/// table renderings — is deterministic regardless of insertion order or
/// thread count. This is the unit of the deterministic `METRICS_<id>.json`
/// export: everything put here must be sim-domain (no wall-clock readings).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricSet {
    /// An empty metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a counter to an absolute value.
    pub fn set_count(&mut self, name: &str, v: u64) {
        self.entries.insert(name.to_string(), MetricValue::Count(v));
    }

    /// Add to a counter (creating it at zero if absent). Non-counter
    /// entries under the same name are replaced.
    pub fn add_count(&mut self, name: &str, v: u64) {
        match self.entries.entry(name.to_string()) {
            Entry::Occupied(mut e) => {
                if let MetricValue::Count(c) = e.get_mut() {
                    *c = c.saturating_add(v);
                } else {
                    e.insert(MetricValue::Count(v));
                }
            }
            Entry::Vacant(e) => {
                e.insert(MetricValue::Count(v));
            }
        }
    }

    /// Set a gauge reading.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.entries.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// Read a counter, if present.
    pub fn get_count(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Count(c)) => Some(*c),
            _ => None,
        }
    }

    /// Read a gauge, if present.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold `other` into `self`: counters add, gauges take `other`'s value
    /// (last write wins).
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, v) in &other.entries {
            match *v {
                MetricValue::Count(c) => self.add_count(name, c),
                MetricValue::Gauge(g) => self.set_gauge(name, g),
            }
        }
    }

    /// Stable single-line JSON object: keys sorted (BTreeMap order).
    /// Byte-identical for equal metric sets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(name));
            out.push_str("\":");
            match v {
                MetricValue::Count(c) => out.push_str(&format!("{c}")),
                MetricValue::Gauge(g) => out.push_str(&json_f64(*g)),
            }
        }
        out.push('}');
        out
    }

    /// Aligned human-readable table, one metric per line, name order. A
    /// non-finite gauge reads `null`, as the JSON encoding writes it.
    pub fn render(&self) -> String {
        let width = self.entries.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, v) in &self.entries {
            let val = match v {
                MetricValue::Count(c) => format!("{c}"),
                MetricValue::Gauge(g) if g.is_finite() => format!("{g:.6}"),
                MetricValue::Gauge(_) => "null".to_string(),
            };
            out.push_str(&format!("  {name:<width$}  {val}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = MetricSet::new();
        m.set_gauge("b.gauge", 0.25);
        m.add_count("a.count", 3);
        m.set_gauge("c.absent", f64::NAN);
        let j = m.to_json();
        assert_eq!(j, "{\"a.count\":3,\"b.gauge\":0.25,\"c.absent\":null}");
        assert_eq!(j, m.clone().to_json());
    }

    #[test]
    fn merge_adds_counts_and_takes_the_last_gauge() {
        let mut a = MetricSet::new();
        a.add_count("n", 1);
        a.set_gauge("g", 0.5);
        let mut b = MetricSet::new();
        b.add_count("n", 2);
        b.set_gauge("g", 1.5);
        a.merge(&b);
        assert_eq!(a.get_count("n"), Some(3));
        assert_eq!(a.get_gauge("g"), Some(1.5));
    }

    #[test]
    fn render_lists_every_metric() {
        let mut m = MetricSet::new();
        m.add_count("x", 1);
        m.set_gauge("y", 2.0);
        m.set_gauge("z", f64::NAN);
        let r = m.render();
        assert!(r.contains("x"));
        assert!(r.contains("2.000000"));
        assert!(r.contains("z  null") && !r.contains("NaN"), "{r}");
    }
}
