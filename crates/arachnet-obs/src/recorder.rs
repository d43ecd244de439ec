//! Bounded ring-buffer flight recorder.

use crate::event::{Event, EventKind, KIND_COUNT};
use crate::metrics::MetricSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default ring capacity: enough to hold the tail of a long convergence run
/// without ever reallocating after warmup.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Process-wide default ring capacity used by [`Recorder::enabled`].
///
/// `ExperimentCtx` pushes its builder-validated `--ring-capacity` here so
/// every recorder an experiment creates internally picks it up without
/// threading a capacity through each call site. Capacity only bounds ring
/// *retention*; per-kind counts are never dropped, so the deterministic
/// metrics export is unaffected by this knob.
static DEFAULT_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Set the process-wide default ring capacity (clamped to ≥ 1).
pub fn set_default_ring_capacity(cap: usize) {
    DEFAULT_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The process-wide default ring capacity [`Recorder::enabled`] uses.
pub fn default_ring_capacity() -> usize {
    DEFAULT_CAP.load(Ordering::Relaxed)
}

#[derive(Clone, Debug)]
struct Active {
    seed: u64,
    cap: usize,
    ring: VecDeque<Event>,
    dropped: u64,
    counts: [u64; KIND_COUNT],
}

/// A flight-recorder handle.
///
/// [`Recorder::disabled`] is a `None` under the hood: every [`Recorder::record`]
/// call on a disabled recorder is a single branch, so instrumented hot paths
/// cost nothing measurable when observability is off. An enabled recorder
/// keeps per-kind event counts (never dropped) plus a bounded ring of the
/// most recent events (oldest evicted once `cap` is reached; the eviction
/// count is reported as `dropped`).
#[derive(Clone, Debug, Default)]
pub struct Recorder(Option<Box<Active>>);

impl Recorder {
    /// A no-op recorder: recording is a single branch, no allocation ever.
    pub const fn disabled() -> Self {
        Recorder(None)
    }

    /// An enabled recorder with the process default ring capacity (see
    /// [`set_default_ring_capacity`]; 4096 unless overridden), stamped with
    /// the trial seed used for this sim run.
    pub fn enabled(seed: u64) -> Self {
        Self::with_capacity(seed, default_ring_capacity())
    }

    /// An enabled recorder holding at most `cap` events (`cap >= 1`).
    pub fn with_capacity(seed: u64, cap: usize) -> Self {
        let cap = cap.max(1);
        Recorder(Some(Box::new(Active {
            seed,
            cap,
            ring: VecDeque::with_capacity(cap),
            dropped: 0,
            counts: [0; KIND_COUNT],
        })))
    }

    /// `true` when events are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record an event. One branch when disabled; allocation-free when the
    /// ring is at capacity.
    #[inline]
    pub fn record(&mut self, slot: u64, tag: u8, kind: EventKind) {
        if let Some(a) = self.0.as_deref_mut() {
            a.counts[kind.index()] += 1;
            if a.ring.len() == a.cap {
                a.ring.pop_front();
                a.dropped += 1;
            }
            a.ring.push_back(Event { slot, tag, kind });
        }
    }

    /// Count an event *without* inserting it into the ring.
    ///
    /// For routine per-slot outcomes (empty slot, successful decode) that
    /// would otherwise crowd anomaly context out of the bounded ring: the
    /// per-kind totals still include them, the timeline does not.
    #[inline]
    pub fn note(&mut self, kind: EventKind) {
        if let Some(a) = self.0.as_deref_mut() {
            a.counts[kind.index()] += 1;
        }
    }

    /// Trial seed this recorder was stamped with (0 when disabled).
    pub fn seed(&self) -> u64 {
        self.0.as_deref().map_or(0, |a| a.seed)
    }

    /// Events currently retained in the ring, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.0
            .as_deref()
            .map_or_else(Vec::new, |a| a.ring.iter().copied().collect())
    }

    /// Consume the recorder into an immutable snapshot (disabled → empty
    /// snapshot with zero counts).
    pub fn into_snapshot(self) -> RecorderSnapshot {
        match self.0 {
            None => RecorderSnapshot::empty(),
            Some(a) => RecorderSnapshot {
                seed: a.seed,
                dropped: a.dropped,
                counts: a.counts,
                events: a.ring.into_iter().collect(),
            },
        }
    }
}

/// Immutable result of a recording run; merges deterministically by
/// trial-index order at sweep join.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Trial seed stamped on every event of this snapshot.
    pub seed: u64,
    /// Events evicted from the bounded ring (counts still include them).
    pub dropped: u64,
    /// Per-kind totals, indexed by [`EventKind::index`].
    pub counts: [u64; KIND_COUNT],
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

impl RecorderSnapshot {
    /// A snapshot with nothing in it.
    pub fn empty() -> Self {
        RecorderSnapshot {
            seed: 0,
            dropped: 0,
            counts: [0; KIND_COUNT],
            events: Vec::new(),
        }
    }

    /// Total recorded events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-kind total by event-kind label index.
    pub fn count_at(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Add this snapshot's per-kind counts into `metrics` as
    /// `<prefix>.events.<kind>` counters (zero-count kinds are skipped so
    /// the export stays compact and stable).
    pub fn add_counts_to(&self, metrics: &mut MetricSet, prefix: &str) {
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                metrics.add_count(&format!("{prefix}.events.{}", EventKind::label_at(i)), c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecodeFailReason, MigrateReason, NO_TAG};

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.record(1, 2, EventKind::Empty);
        assert!(!r.is_enabled());
        let s = r.into_snapshot();
        assert_eq!(s.total(), 0);
        assert!(s.events.is_empty());
    }

    #[test]
    fn ring_bounds_and_counts() {
        let mut r = Recorder::with_capacity(9, 4);
        for slot in 0..10u64 {
            r.record(slot, 1, EventKind::BeaconLost);
        }
        r.record(
            10,
            2,
            EventKind::DecodeFail {
                reason: DecodeFailReason::BadCrc,
            },
        );
        let s = r.into_snapshot();
        assert_eq!(s.seed, 9);
        assert_eq!(s.total(), 11);
        assert_eq!(s.count_at(EventKind::BeaconLost.index()), 10);
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.dropped, 7);
        // Oldest evicted first: the retained window is the most recent.
        assert_eq!(s.events.first().unwrap().slot, 7);
        assert_eq!(s.events.last().unwrap().slot, 10);
    }

    #[test]
    fn default_ring_capacity_is_configurable() {
        // Runs in one test to avoid racing the process-wide default
        // against parallel tests that call `Recorder::enabled`.
        assert_eq!(default_ring_capacity(), DEFAULT_CAPACITY);
        set_default_ring_capacity(2);
        let mut r = Recorder::enabled(1);
        for slot in 0..5u64 {
            r.record(slot, NO_TAG, EventKind::Empty);
        }
        let s = r.into_snapshot();
        set_default_ring_capacity(DEFAULT_CAPACITY);
        assert_eq!(s.events.len(), 2, "ring bounded by the new default");
        assert_eq!(s.total(), 5, "counts never dropped regardless of capacity");
        set_default_ring_capacity(0);
        assert_eq!(default_ring_capacity(), 1, "clamped to >= 1");
        set_default_ring_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn counts_feed_metric_set() {
        let mut r = Recorder::enabled(1);
        r.record(0, NO_TAG, EventKind::Collision { transmitters: 3 });
        r.record(
            1,
            4,
            EventKind::TagMigrated {
                from: 0,
                to: 2,
                reason: MigrateReason::FeedbackNack,
            },
        );
        let mut m = MetricSet::new();
        r.into_snapshot().add_counts_to(&mut m, "sim");
        assert_eq!(m.get_count("sim.events.collision"), Some(1));
        assert_eq!(m.get_count("sim.events.tag_migrated"), Some(1));
        assert_eq!(m.get_count("sim.events.empty"), None);
    }
}
