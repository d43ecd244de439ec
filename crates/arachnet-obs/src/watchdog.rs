//! Stall watchdog: flags in-flight trials that blow past a soft deadline.
//!
//! PR 7's resilience policy contains *panicking* trials, but a trial that
//! simply never returns hangs its worker silently. The watchdog gives the
//! sweep's monitor thread a cheap way to notice: workers report trial
//! begin/end through per-worker slots, completed durations feed a running
//! [`Histo`], and [`Watchdog::poll`] compares every in-flight trial
//! against a soft deadline — either the `--stall-secs` override or a
//! multiple of the running median trial duration. A flagged trial warns
//! once through the [`warn!`](crate::warn!) sink and appends a
//! [`EventKind::TrialStalled`] event for the run telemetry; the trial is
//! *reported*, never killed (std offers no safe thread cancellation, and
//! a false positive must not lose work).
//!
//! Everything here is wall-domain: nothing the watchdog observes or emits
//! can reach the deterministic metrics export.

use crate::event::{Event, EventKind, NO_TAG};
use crate::histo::Histo;
use crate::warn_str;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Deadline = `MEDIAN_MULTIPLIER × p50(trial duration)` in auto mode.
const MEDIAN_MULTIPLIER: u64 = 8;
/// Auto mode never flags before this floor (quick trials are microseconds;
/// scheduler noise alone can exceed a few multiples of their median).
const AUTO_FLOOR_MS: u64 = 1_000;
/// Auto mode needs this many completed trials before the median is trusted.
const MIN_SAMPLES: u64 = 3;

#[derive(Debug)]
struct InFlight {
    trial: u64,
    started: Instant,
    flagged: bool,
}

/// Shared stall monitor for one sweep's worker pool.
///
/// Workers call [`begin`](Watchdog::begin)/[`end`](Watchdog::end) around
/// each trial; the monitor thread calls [`poll`](Watchdog::poll)
/// periodically. All methods take `&self` and are thread-safe.
#[derive(Debug)]
pub struct Watchdog {
    slots: Vec<Mutex<Option<InFlight>>>,
    durations: Mutex<Histo>,
    override_ms: Option<u64>,
    stalled: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl Watchdog {
    /// A watchdog for `workers` worker slots. `stall_secs` overrides the
    /// median-derived soft deadline (values ≤ 0 are treated as unset).
    pub fn new(workers: usize, stall_secs: Option<f64>) -> Watchdog {
        let override_ms = stall_secs
            .filter(|s| s.is_finite() && *s > 0.0)
            .map(|s| (s * 1_000.0).round().max(1.0) as u64);
        Watchdog {
            slots: (0..workers.max(1)).map(|_| Mutex::new(None)).collect(),
            durations: Mutex::new(Histo::new()),
            override_ms,
            stalled: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Worker `worker` started running `trial`.
    pub fn begin(&self, worker: usize, trial: u64) {
        if let Some(slot) = self.slots.get(worker) {
            *slot.lock().unwrap() = Some(InFlight {
                trial,
                started: Instant::now(),
                flagged: false,
            });
        }
    }

    /// Worker `worker` finished its current trial (however it ended —
    /// quarantined attempts still teach the duration histogram).
    pub fn end(&self, worker: usize) {
        let Some(slot) = self.slots.get(worker) else {
            return;
        };
        if let Some(fly) = slot.lock().unwrap().take() {
            let ms = fly.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
            self.durations.lock().unwrap().record(ms);
        }
    }

    /// The soft deadline currently in force, in ms. `None` while auto mode
    /// has too few completed trials to trust the median.
    pub fn deadline_ms(&self) -> Option<u64> {
        if let Some(ms) = self.override_ms {
            return Some(ms);
        }
        let d = self.durations.lock().unwrap();
        if d.count() < MIN_SAMPLES {
            return None;
        }
        Some((d.p50().saturating_mul(MEDIAN_MULTIPLIER)).max(AUTO_FLOOR_MS))
    }

    /// Check every in-flight trial against the soft deadline; warn and
    /// record a [`EventKind::TrialStalled`] for each newly flagged one.
    /// Returns how many trials were newly flagged by this poll.
    pub fn poll(&self) -> usize {
        let Some(deadline_ms) = self.deadline_ms() else {
            return 0;
        };
        let mut newly = 0;
        for (worker, slot) in self.slots.iter().enumerate() {
            let mut guard = slot.lock().unwrap();
            let Some(fly) = guard.as_mut() else { continue };
            if fly.flagged {
                continue;
            }
            let waited = fly.started.elapsed().as_millis();
            if waited <= deadline_ms as u128 {
                continue;
            }
            fly.flagged = true;
            let waited_ms = waited.min(u32::MAX as u128) as u32;
            warn_str(&format!(
                "watchdog: trial {} on worker {worker} stalled ({waited_ms} ms > soft deadline {deadline_ms} ms); still running",
                fly.trial
            ));
            self.events.lock().unwrap().push(Event {
                slot: fly.trial,
                tag: NO_TAG,
                kind: EventKind::TrialStalled { waited_ms },
            });
            self.stalled.fetch_add(1, Ordering::Relaxed);
            newly += 1;
        }
        newly
    }

    /// Total trials flagged so far.
    pub fn stalled(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Drain the accumulated `TrialStalled` events (oldest first).
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn override_deadline_flags_a_slow_trial_once() {
        let wd = Watchdog::new(2, Some(0.01));
        assert_eq!(wd.deadline_ms(), Some(10));
        wd.begin(0, 7);
        std::thread::sleep(Duration::from_millis(30));
        let ((), warned) = crate::capture(|| {
            assert_eq!(wd.poll(), 1);
            assert_eq!(wd.poll(), 0, "a flagged trial must not re-warn");
        });
        assert_eq!(warned.len(), 1);
        assert!(warned[0].contains("trial 7"), "{warned:?}");
        assert!(warned[0].contains("stalled"), "{warned:?}");
        let events = wd.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].slot, 7);
        assert!(matches!(events[0].kind, EventKind::TrialStalled { waited_ms } if waited_ms >= 10));
        assert_eq!(wd.stalled(), 1);
        assert!(wd.take_events().is_empty(), "take_events drains");
    }

    #[test]
    fn auto_mode_waits_for_samples_and_floors_the_deadline() {
        let wd = Watchdog::new(1, None);
        assert_eq!(wd.deadline_ms(), None, "no samples yet");
        for trial in 0..3 {
            wd.begin(0, trial);
            wd.end(0);
        }
        // Sub-millisecond trials: median rounds to ~0, floor dominates.
        assert_eq!(wd.deadline_ms(), Some(AUTO_FLOOR_MS));
        wd.begin(0, 99);
        assert_eq!(wd.poll(), 0, "fresh trial is inside the floor");
    }

    #[test]
    fn end_without_begin_and_bad_worker_index_are_harmless() {
        let wd = Watchdog::new(1, Some(1.0));
        wd.end(0);
        wd.begin(5, 1); // out of range: ignored
        wd.end(5);
        assert_eq!(wd.poll(), 0);
    }
}
