//! Wall-clock spans with thread-local aggregation.
//!
//! Spans time PHY/DSP stages without touching a global lock on the hot
//! path: each [`SpanTimer`] drop folds into a thread-local map, and
//! [`take_spans`] (called at sweep join / report time) merges every
//! flushed thread's map into one name-sorted view. Span *names* and call
//! counts are deterministic for a deterministic workload; *durations* are
//! wall-domain and must never enter the deterministic metrics export.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Aggregated timing for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Total elapsed nanoseconds across all calls.
    pub total_ns: u64,
    /// Number of completed spans.
    pub calls: u64,
}

impl SpanStat {
    fn fold(&mut self, other: SpanStat) {
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.calls += other.calls;
    }
}

thread_local! {
    static LOCAL: RefCell<BTreeMap<&'static str, SpanStat>> = const { RefCell::new(BTreeMap::new()) };
}

static GLOBAL: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

/// Start timing a named stage; the span ends (and is aggregated) on drop.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub fn span(name: &'static str) -> SpanTimer {
    SpanTimer {
        name,
        start: Instant::now(),
    }
}

/// An in-flight span returned by [`span`].
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    start: Instant,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        LOCAL.with(|l| {
            l.borrow_mut().entry(self.name).or_default().fold(SpanStat {
                total_ns: ns,
                calls: 1,
            });
        });
    }
}

/// Merge this thread's span aggregates into the global map.
///
/// Worker threads call this before exiting (the sweep engine does it at
/// join); the main thread is flushed implicitly by [`take_spans`].
pub fn flush_thread_spans() {
    let drained: Vec<(&'static str, SpanStat)> =
        LOCAL.with(|l| l.borrow_mut().iter().map(|(k, v)| (*k, *v)).collect());
    LOCAL.with(|l| l.borrow_mut().clear());
    if drained.is_empty() {
        return;
    }
    let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, stat) in drained {
        g.entry(name).or_default().fold(stat);
    }
}

/// Flush the calling thread, then drain and return all aggregated spans in
/// name order. Resets the global map.
pub fn take_spans() -> Vec<(&'static str, SpanStat)> {
    flush_thread_spans();
    let mut g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let out: Vec<_> = g.iter().map(|(k, v)| (*k, *v)).collect();
    g.clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_across_threads() {
        // Drain anything left over from other tests in this process.
        let _ = take_spans();
        {
            let _s = span("obs-test.stage_a");
        }
        std::thread::spawn(|| {
            {
                let _s = span("obs-test.stage_a");
            }
            {
                let _s = span("obs-test.stage_b");
            }
            flush_thread_spans();
        })
        .join()
        .unwrap();
        let spans = take_spans();
        let a = spans
            .iter()
            .find(|(n, _)| *n == "obs-test.stage_a")
            .unwrap();
        let b = spans
            .iter()
            .find(|(n, _)| *n == "obs-test.stage_b")
            .unwrap();
        assert_eq!(a.1.calls, 2);
        assert_eq!(b.1.calls, 1);
        // Sorted by name.
        let names: Vec<_> = spans.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // Drained.
        assert!(take_spans()
            .iter()
            .all(|(n, _)| !n.starts_with("obs-test.")));
    }
}
