//! Bounded MPMC job queue with explicit admission control.
//!
//! The serving tier's backpressure contract lives here: [`Bounded::try_push`]
//! never blocks and never grows the queue past its capacity — when the queue
//! is full the *caller* gets the job back and turns it into a structured
//! `{"error":"overloaded"}` rejection. Workers block in [`Bounded::pop`]
//! until a job arrives or the queue is closed and empty (graceful drain:
//! everything admitted before [`Bounded::close`] is still served).
//!
//! [`Bounded::pop_matching`] is the micro-batching hook: a worker that just
//! popped a job can opportunistically take more *compatible* jobs (same
//! channel seed, so they share one synthesized [`WaveSim`]) without
//! disturbing the rest of the queue. It never blocks — batching only ever
//! amortizes work that is already waiting.
//!
//! [`WaveSim`]: arachnet_sim::wavesim::WaveSim

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused; the job is handed back untouched.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — admission control says reject.
    Full(T),
    /// The queue is closed (server draining) — no new work is admitted.
    Closed(T),
}

struct State<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue (mutex + condvar; the
/// repo is std-only by the PR 1 rule, so no crossbeam).
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    takeable: Condvar,
    cap: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `cap` jobs (clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        Bounded {
            state: Mutex::new(State {
                q: VecDeque::new(),
                closed: false,
            }),
            takeable: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Non-blocking admission: `Err(Full)` when at capacity, `Err(Closed)`
    /// after [`Bounded::close`]. Success wakes one waiting worker.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.q.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        st.q.push_back(item);
        drop(st);
        self.takeable.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (or the queue is closed *and*
    /// empty, which returns `None` — drain semantics: admitted jobs are
    /// always served).
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.q.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .takeable
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Removes up to `max` queued jobs matching `pred` (front to back),
    /// leaving the rest in their original order. Never blocks — this is
    /// the micro-batching hook, and batching only amortizes work that is
    /// already waiting.
    pub fn pop_matching(&self, pred: impl Fn(&T) -> bool, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        if max == 0 {
            return out;
        }
        let mut st = self.lock();
        let mut keep = VecDeque::with_capacity(st.q.len());
        while let Some(item) = st.q.pop_front() {
            if out.len() < max && pred(&item) {
                out.push(item);
            } else {
                keep.push_back(item);
            }
        }
        st.q = keep;
        out
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and workers drain the remaining jobs then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.takeable.notify_all();
    }

    /// Jobs currently queued (admission-control / telemetry gauge).
    pub fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// Is the queue empty right now?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_after_close() {
        let q = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        q.close();
        match q.try_push(4) {
            Err(PushError::Closed(v)) => assert_eq!(v, 4),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Drain semantics: already-admitted jobs still come out.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_matching_takes_only_compatible_jobs_in_order() {
        let q = Bounded::new(8);
        for v in [10, 21, 11, 22, 12, 23] {
            q.try_push(v).unwrap();
        }
        let evens = q.pop_matching(|v| v % 2 == 0, 2);
        assert_eq!(evens, vec![10, 22]);
        // Remaining jobs keep their relative order.
        assert_eq!(q.pop(), Some(21));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(12));
        assert_eq!(q.pop(), Some(23));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.try_push(7).unwrap();
        assert_eq!(h.join().unwrap(), Some(7));

        let q3 = Arc::clone(&q);
        let h = std::thread::spawn(move || q3.pop());
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
