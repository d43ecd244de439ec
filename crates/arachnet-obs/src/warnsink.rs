//! A single process-wide warning sink.
//!
//! Library code calls [`warn!`](crate::warn!) (or [`warn_str`]) instead of
//! `eprintln!`; by default warnings go to stderr, but tests can wrap a
//! closure in [`capture`] to collect everything warned during it.

use std::sync::Mutex;

/// Warnings collected by an active [`capture`], or `None` → stderr.
static CAPTURED: Mutex<Option<Vec<String>>> = Mutex::new(None);

/// Serializes concurrent [`capture`] calls so captures don't interleave.
static CAPTURE_GATE: Mutex<()> = Mutex::new(());

/// Messages already printed to stderr this run, with occurrence counts.
/// Bounded: past [`DEDUP_LIMIT`] distinct messages, new ones print
/// unconditionally (no dedup) rather than growing without bound.
static DEDUP: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

/// Maximum distinct messages the stderr dedup table tracks.
const DEDUP_LIMIT: usize = 512;

/// Emit a warning to the process-wide sink.
///
/// Prefer the [`warn!`](crate::warn!) macro, which accepts format args.
///
/// On the stderr path, repeated identical messages print only once; the
/// repeats are counted and summarized by [`flush_warnings`] (a stalled
/// soak run warning every poll must not flood stderr). The [`capture`]
/// path records every call verbatim — tests see the true sequence.
pub fn warn_str(msg: &str) {
    let mut guard = CAPTURED.lock().unwrap_or_else(|e| e.into_inner());
    match guard.as_mut() {
        Some(buf) => buf.push(msg.to_string()),
        None => {
            drop(guard);
            let mut seen = DEDUP.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = seen.iter_mut().find(|(m, _)| m == msg) {
                entry.1 += 1;
                return; // suppressed; flush_warnings reports the ×N
            }
            if seen.len() < DEDUP_LIMIT {
                seen.push((msg.to_string(), 1));
            }
            drop(seen);
            eprintln!("warning: {msg}");
        }
    }
}

/// Print a `×N` summary line for every stderr warning that repeated, then
/// reset the dedup table. Call once at process exit (repro does).
///
/// Returns the summary lines (also printed to stderr) so callers and tests
/// can inspect what was suppressed.
pub fn flush_warnings() -> Vec<String> {
    let drained: Vec<(String, u64)> = {
        let mut seen = DEDUP.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *seen)
    };
    let mut out = Vec::new();
    for (msg, n) in drained {
        if n > 1 {
            let line = format!("{msg} (×{n} total, {} repeats suppressed)", n - 1);
            eprintln!("warning: {line}");
            out.push(line);
        }
    }
    out
}

/// Run `f` with the warning sink redirected to a buffer; returns `f`'s
/// result and every warning emitted while it ran.
///
/// Captures are serialized process-wide (warnings from unrelated threads
/// during the window are captured too — assert with `contains`, not
/// equality). The sink is restored even if `f` panics.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    let _gate = CAPTURE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            *CAPTURED.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
    }
    *CAPTURED.lock().unwrap_or_else(|e| e.into_inner()) = Some(Vec::new());
    let restore = Restore;
    let out = f();
    let warnings = CAPTURED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    drop(restore);
    (out, warnings)
}

/// Emit a formatted warning to the process-wide sink ([`warn_str`]).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::warn_str(&::std::format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn stderr_path_deduplicates_and_flush_summarizes() {
        // Hold the capture gate so no concurrent `capture` redirects these
        // warnings into its buffer (the stderr/dedup path must be active).
        let _gate = super::CAPTURE_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        super::flush_warnings(); // start from a clean table
        let msg = format!("dedup probe {}", std::process::id());
        crate::warn_str(&msg); // prints
        crate::warn_str(&msg); // suppressed
        crate::warn_str(&msg); // suppressed
        crate::warn_str("dedup lone message"); // prints, never repeats
        let summaries = super::flush_warnings();
        assert_eq!(
            summaries.len(),
            1,
            "only repeated messages summarize: {summaries:?}"
        );
        assert!(summaries[0].contains(&msg), "{summaries:?}");
        assert!(summaries[0].contains("×3"), "{summaries:?}");
        assert!(
            summaries[0].contains("2 repeats suppressed"),
            "{summaries:?}"
        );
        assert!(super::flush_warnings().is_empty(), "flush resets the table");
    }

    #[test]
    fn capture_collects_warnings() {
        let (val, warnings) = crate::capture(|| {
            crate::warn!("bad value {}", 42);
            7
        });
        assert_eq!(val, 7);
        assert!(warnings.iter().any(|w| w == "bad value 42"));
    }

    #[test]
    fn capture_restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            crate::capture(|| -> () {
                crate::warn!("before panic");
                panic!("boom");
            })
        });
        assert!(result.is_err());
        // Sink restored: this goes to stderr, not a stale buffer.
        let (_, warnings) = crate::capture(|| crate::warn!("after"));
        assert_eq!(warnings, vec!["after".to_string()]);
    }
}
