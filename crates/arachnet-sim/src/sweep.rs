//! Deterministic, resilient parallel trial runner.
//!
//! The evaluation sweeps (Fig. 12's tag × rate × packet matrix, Fig. 15's
//! 9 patterns × dozens of convergence trials, Fig. 19's ALOHA runs, the
//! dyn-* soaks, the fleet grids) are embarrassingly parallel: every trial
//! is a pure function of `(pattern, seed)`. Every sweep experiment runs
//! through one of two entry points — [`run_sweep`] for a flat trial list,
//! [`run_matrix_sweep`] for a `cells × trials` grid — which share one
//! runner core and one `std::thread::scope` worker pool at every thread
//! count, and keep results **bit-identical at any thread count**:
//!
//! * each trial's seed is derived from the sweep's base seed and the trial
//!   index alone ([`trial_seed`], a splitmix64 finalizer) — never from
//!   which worker picks the job up;
//! * workers pull job indices from a shared atomic counter and keep
//!   `(index, result)` pairs locally; the results are merged by index
//!   after the pool joins, so scheduling order cannot leak into output
//!   order;
//! * every trial runs under `catch_unwind`, so one panicking trial shows
//!   up as a [`TrialError`] in its slot instead of poisoning the sweep —
//!   and even a worker thread dying outside the isolated-panic window
//!   surfaces as structured errors for its unreported trials, never as a
//!   harness panic;
//! * a worker that runs out of trials does not exit while others are
//!   mid-trial: it parks and helps finish them. A trial splits its work
//!   with the crate-private `fan_out`, whose items are pure in their
//!   index and folded in index order by the trial that owns them, so
//!   helping changes wall time only (DESIGN.md §14).
//!
//! On top of that baseline, [`SweepConfig`]'s resilience options add the
//! machinery long sweeps need to survive real hosts:
//!
//! * **trial quarantine** — a panicking trial is retried once, at a
//!   deterministically-salted seed ([`retry_seed`]); a trial that fails
//!   both attempts is *quarantined*: its slot carries the final
//!   [`TrialError`] (with the attempt count) and the sweep keeps going.
//!   Because panics are pure in `(trial, seed)`, the quarantine set is
//!   itself deterministic and safe to export in metrics.
//! * **checkpoint/resume** — with a [`CheckpointSpec`], every completed
//!   trial is appended to a length-prefixed binary file (exact
//!   [`TrialCodec`] encodings, floats as raw bits). A resumed sweep
//!   replays its lowest restored trial to check that the file is its own,
//!   then restores those slots instead of recomputing them, so an
//!   interrupted-then-resumed run is byte-identical to an uninterrupted
//!   one at any thread count. The file is deleted when the sweep
//!   completes.
//! * **deadline budgets** — [`SweepConfig::budget`] stops
//!   *dispatching* new trials once the wall-clock deadline passes (already
//!   running trials finish and are checkpointed); undispatched slots come
//!   back as budget-skip errors and [`SweepStats::partial`] flags the
//!   report. [`SweepConfig::halt_after`] is the deterministic
//!   test/CI analogue: it caps the number of dispatched jobs by *index*,
//!   which is scheduler-independent.
//!
//! ```
//! use arachnet_sim::sweep::{run_sweep, SweepConfig};
//!
//! let cfg = SweepConfig::new(42).with_threads(4);
//! let squares = run_sweep(&cfg, 8, |trial, _seed| trial * trial).results;
//! assert_eq!(squares[3], Ok(9));
//! ```

use std::cell::Cell;
use std::fs;
use std::io::{Seek, SeekFrom, Write as _};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use arachnet_obs::{flush_thread_spans, span, Event, EventKind, TrialLane, NO_TAG};

use crate::codec::TrialCodec;

/// Sweep configuration: worker count, base seed, and what the sweep does
/// when hosts die or time runs out. A panicking trial is always retried
/// once before it is quarantined.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads (at least 1). Every count runs the same scoped pool.
    pub threads: usize,
    /// Base seed; trial `i` runs with [`trial_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Wall-clock dispatch budget. `None` (default) runs to completion.
    pub budget: Option<Duration>,
    /// Deterministic dispatch cap: at most this many jobs (by dispatch
    /// index) run; the rest are budget-skipped. `None` (default) is
    /// unlimited. Unlike [`Self::budget`], the skip set is independent of
    /// scheduling, so partial results stay thread-invariant.
    pub halt_after: Option<u64>,
    /// Persist completed trials for crash/interrupt recovery.
    pub checkpoint: Option<CheckpointSpec>,
    /// Capture per-worker [`TrialLane`]s for the Chrome trace export (a
    /// small allocation per trial). Wall-domain: lanes never change a
    /// result. Off by default.
    pub lanes: bool,
}

impl SweepConfig {
    /// A sweep seeded with `base_seed`, using all available cores, with no
    /// checkpoint and no budget.
    pub fn new(base_seed: u64) -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            base_seed,
            budget: None,
            halt_after: None,
            checkpoint: None,
            lanes: false,
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets a wall-clock budget: once it elapses, no new trials are
    /// dispatched and the sweep reports [`SweepStats::partial`].
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Caps the number of jobs dispatched this run (deterministic
    /// interruption for tests and the resume-determinism CI gate).
    pub fn with_halt_after(mut self, jobs: u64) -> Self {
        self.halt_after = Some(jobs);
        self
    }

    /// Attaches a checkpoint file.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Turns per-worker trial-lane capture on or off (see
    /// [`SweepConfig::lanes`]).
    pub fn with_lanes(mut self, lanes: bool) -> Self {
        self.lanes = lanes;
        self
    }
}

/// Extra attempts a panicking trial gets, each at a salted deterministic
/// seed ([`retry_seed`]), before its slot is quarantined.
const RETRIES: u32 = 1;

/// Where and how often a sweep checkpoints completed trials.
///
/// File format (all integers little-endian):
///
/// ```text
/// header:  "ACP2" | base_seed u64 | total_trials u64          (20 bytes)
/// record:  trial u64 | kind u8 | attempts u32 | len u32 | crc u32 | payload
/// ```
///
/// `kind` 0 carries a [`TrialCodec`] encoding of the result; `kind` 1 a
/// UTF-8 quarantine payload. `crc` is the CRC-32 of the record's other
/// header fields and its payload. A torn tail (the process died
/// mid-write, caught by the length prefix) or the first record that fails
/// its checksum ends the valid prefix: a resume restores only that
/// prefix, truncates the file there and re-runs the trials of every
/// record past it. A header that does not match the resuming sweep's
/// `(base_seed, trials)` shape, or a restored trial that does not
/// reproduce its record when replayed (the file came from other settings
/// or another build), makes the whole file ignored — never silently
/// misapplied.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path (conventionally `CHECKPOINT_<id>.bin`).
    pub path: PathBuf,
    /// Flush to disk after this many completed trials (min 1).
    pub every: u64,
    /// Restore completed trials from an existing file before running.
    /// When `false`, any existing file is overwritten.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A spec at `path`, flushing every 8 trials, not resuming.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 8,
            resume: false,
        }
    }

    /// Overrides the flush interval (clamped to at least 1).
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }

    /// Sets whether an existing file is restored or overwritten.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

/// Payload of a budget-skipped slot: the trial was never dispatched
/// because the sweep's budget (or dispatch cap) ran out first.
pub const BUDGET_SKIP_PAYLOAD: &str = "skipped: sweep budget exhausted before dispatch";

/// A trial that failed instead of returning a value: it panicked on every
/// attempt, its worker thread died before reporting it, or the sweep's
/// budget ran out before it was dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialError {
    /// Index of the failed trial.
    pub trial: u64,
    /// The panic payload (or a description of how the trial was lost).
    pub payload: String,
    /// Attempts made (first run plus retries); 0 for budget-skipped
    /// slots that never ran.
    pub attempts: u32,
}

impl TrialError {
    /// `true` when this slot was never dispatched because the sweep's
    /// wall-clock budget (or dispatch cap) ran out — a *partial-report*
    /// marker, not a quarantined failure.
    pub fn is_budget_skip(&self) -> bool {
        self.payload == BUDGET_SKIP_PAYLOAD
    }
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.attempts > 1 {
            write!(
                f,
                "trial {} failed after {} attempts: {}",
                self.trial, self.attempts, self.payload
            )
        } else {
            write!(f, "trial {} failed: {}", self.trial, self.payload)
        }
    }
}

impl std::error::Error for TrialError {}

/// Per-trial outcome: the trial's value, or the error that ate it.
pub type TrialResult<T> = Result<T, TrialError>;

/// Derives trial `index`'s seed from the sweep's base seed using the
/// splitmix64 finalizer, so neighbouring trials get decorrelated streams
/// and the mapping is independent of worker scheduling.
pub fn trial_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt folded into retry seeds so attempt `a > 0` of a trial draws a
/// stream decorrelated from attempt 0 (and from every other trial).
const RETRY_SALT: u64 = 0xA5A5_5EED_0BAD_F00D;

/// Seed for retry `attempt` (1-based) of a trial whose first attempt ran
/// at `first_seed`. Deterministic: a flaky-by-seed trial either always
/// recovers on the same attempt or is always quarantined.
pub fn retry_seed(first_seed: u64, attempt: u64) -> u64 {
    trial_seed(first_seed ^ RETRY_SALT, attempt)
}

/// Counters describing how resilient a sweep's execution was. The
/// sim-domain fields (`trials`, `completed`, `quarantined`, `retried`,
/// `skipped`, `partial`) are deterministic and safe to export in metrics;
/// `restored` is run-shape provenance (how this particular invocation got
/// its results) and must stay out of deterministic exports, or a resumed
/// run could never be byte-identical to an uninterrupted one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total slots in the sweep.
    pub trials: u64,
    /// Slots that hold a value.
    pub completed: u64,
    /// Slots quarantined after exhausting every attempt (plus slots lost
    /// to a dying worker).
    pub quarantined: u64,
    /// Extra attempts made beyond each trial's first (counting restored
    /// trials' recorded attempts, so resumed runs report identically).
    pub retried: u64,
    /// Slots restored from a checkpoint instead of recomputed.
    pub restored: u64,
    /// Slots never dispatched because the budget/dispatch cap ran out.
    pub skipped: u64,
    /// `true` when any slot was budget-skipped: the report is partial.
    pub partial: bool,
}

impl SweepStats {
    /// Accumulates another sweep's counters into this one (for a caller
    /// that runs several sweeps and reports once).
    pub fn merge(&mut self, other: &SweepStats) {
        self.trials += other.trials;
        self.completed += other.completed;
        self.quarantined += other.quarantined;
        self.retried += other.retried;
        self.restored += other.restored;
        self.skipped += other.skipped;
        self.partial |= other.partial;
    }
}

/// A resilient sweep's results plus its execution counters.
#[derive(Debug, Clone)]
pub struct SweepRun<T> {
    /// Per-trial outcomes, ordered by trial index.
    pub results: Vec<TrialResult<T>>,
    /// Quarantine / resume / budget counters.
    pub stats: SweepStats,
    /// Per-worker trial and help lanes, ordered by start (empty unless
    /// [`SweepConfig::lanes`]). Wall-domain: timings differ every run.
    pub lanes: Vec<TrialLane>,
}

/// A resilient matrix run: `cells[cell][trial]` plus execution counters.
#[derive(Debug, Clone)]
pub struct MatrixRun<T> {
    /// Per-cell rows of per-trial outcomes, ordered like the inputs.
    pub cells: Vec<Vec<TrialResult<T>>>,
    /// Quarantine / resume / budget counters for the whole grid.
    pub stats: SweepStats,
    /// Per-worker trial and help lanes (empty unless
    /// [`SweepConfig::lanes`]; lane `trial` values are flat job indices).
    pub lanes: Vec<TrialLane>,
}

/// Provenance events for how this run executed ([`EventKind::SweepResumed`],
/// [`EventKind::BudgetExhausted`]). Wall/run-shape domain: print or trace
/// them, but never fold them into deterministic metric exports — a resumed
/// run restores a different number of trials than an uninterrupted one.
pub fn provenance_events(stats: &SweepStats) -> Vec<Event> {
    let mut out = Vec::new();
    if stats.restored > 0 {
        out.push(Event {
            slot: 0,
            tag: NO_TAG,
            kind: EventKind::SweepResumed {
                restored: stats.restored.min(u64::from(u16::MAX)) as u16,
            },
        });
    }
    if stats.partial {
        out.push(Event {
            slot: 0,
            tag: NO_TAG,
            kind: EventKind::BudgetExhausted,
        });
    }
    out
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

const CKPT_MAGIC: [u8; 4] = *b"ACP2";
const CKPT_HEADER_LEN: usize = 20;
/// Record fields ahead of the checksum: trial, kind, attempts, length.
const CKPT_REC_FIELDS_LEN: usize = 17;
const CKPT_REC_HEADER_LEN: usize = CKPT_REC_FIELDS_LEN + 4;

/// One parsed checkpoint record.
struct CkptRecord {
    trial: u64,
    ok: bool,
    attempts: u32,
    payload: Vec<u8>,
}

/// CRC-32 (IEEE 802.3: reflected polynomial `0xEDB8_8320`, all-ones
/// initial value and final XOR) of `fields` followed by `payload`,
/// computed bit-serially: records are small.
fn record_crc(fields: &[u8], payload: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in fields.iter().chain(payload) {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn encode_record(trial: u64, kind: u8, attempts: u32, payload: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&trial.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&attempts.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = record_crc(&out[start..], payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Parses a checkpoint file. Returns the valid records and the byte
/// length of the valid prefix, or `None` when the file is absent or its
/// header does not match this sweep's `(base_seed, trials)` shape. The
/// prefix ends at a torn tail or at the first record that fails its
/// checksum or names no trial of this sweep; one warning reports what
/// was dropped.
fn load_checkpoint(path: &Path, base_seed: u64, trials: u64) -> Option<(Vec<CkptRecord>, u64)> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < CKPT_HEADER_LEN || bytes[..4] != CKPT_MAGIC {
        arachnet_obs::warn!(
            "ignoring checkpoint '{}': missing or foreign header",
            path.display()
        );
        return None;
    }
    let seed = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    let total = u64::from_le_bytes(bytes[12..20].try_into().ok()?);
    if seed != base_seed || total != trials {
        arachnet_obs::warn!(
            "ignoring checkpoint '{}': shape mismatch (file seed {seed}, {total} trials; sweep seed {base_seed}, {trials} trials)",
            path.display()
        );
        return None;
    }
    let mut records = Vec::new();
    let mut off = CKPT_HEADER_LEN;
    let mut corrupt = false;
    while bytes.len() - off >= CKPT_REC_HEADER_LEN {
        let fields = &bytes[off..off + CKPT_REC_FIELDS_LEN];
        let trial = u64::from_le_bytes(fields[..8].try_into().ok()?);
        let kind = fields[8];
        let attempts = u32::from_le_bytes(fields[9..13].try_into().ok()?);
        let len = u32::from_le_bytes(fields[13..17].try_into().ok()?) as usize;
        let body = off + CKPT_REC_HEADER_LEN;
        let crc = u32::from_le_bytes(bytes[off + CKPT_REC_FIELDS_LEN..body].try_into().ok()?);
        if bytes.len() - body < len {
            break;
        }
        let payload = &bytes[body..body + len];
        if record_crc(fields, payload) != crc || kind > 1 || trial >= trials {
            corrupt = true;
            break;
        }
        records.push(CkptRecord {
            trial,
            ok: kind == 0,
            attempts,
            payload: payload.to_vec(),
        });
        off = body + len;
    }
    if corrupt {
        arachnet_obs::warn!(
            "checkpoint '{}': corrupt record at byte {off} (checksum or fields); \
             dropping the last {} bytes and re-running their trials",
            path.display(),
            bytes.len() - off
        );
    } else if off < bytes.len() {
        arachnet_obs::warn!(
            "checkpoint '{}': dropping {} torn trailing bytes",
            path.display(),
            bytes.len() - off
        );
    }
    Some((records, off as u64))
}

/// Buffered appender for checkpoint records.
struct CkptWriter {
    file: fs::File,
    buf: Vec<u8>,
    buffered: u64,
    every: u64,
}

impl CkptWriter {
    fn push(&mut self, rec: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(rec);
        self.buffered += 1;
        if self.buffered >= self.every {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.buffered = 0;
        Ok(())
    }
}

/// Opens the checkpoint file for appending. `append_at` truncates to the
/// valid prefix of a resumed file; `None` starts a fresh file with a new
/// header. I/O failure disables checkpointing (with a warning) — it never
/// fails the sweep.
fn open_writer(
    spec: &CheckpointSpec,
    base_seed: u64,
    trials: u64,
    append_at: Option<u64>,
) -> Option<CkptWriter> {
    let opened = (|| -> std::io::Result<fs::File> {
        match append_at {
            Some(valid) => {
                let mut f = fs::OpenOptions::new().write(true).open(&spec.path)?;
                f.set_len(valid)?;
                f.seek(SeekFrom::End(0))?;
                Ok(f)
            }
            None => {
                let mut f = fs::File::create(&spec.path)?;
                let mut header = Vec::with_capacity(CKPT_HEADER_LEN);
                header.extend_from_slice(&CKPT_MAGIC);
                header.extend_from_slice(&base_seed.to_le_bytes());
                header.extend_from_slice(&trials.to_le_bytes());
                f.write_all(&header)?;
                Ok(f)
            }
        }
    })();
    match opened {
        Ok(file) => Some(CkptWriter {
            file,
            buf: Vec::new(),
            buffered: 0,
            every: spec.every.max(1),
        }),
        Err(e) => {
            arachnet_obs::warn!(
                "sweep checkpoint '{}' unavailable, checkpointing disabled: {e}",
                spec.path.display()
            );
            None
        }
    }
}

/// Re-runs the lowest-index restored `Ok` trial at the seed it recorded
/// (its last retry seed when it needed retries) and compares the
/// [`TrialCodec`] bytes with the restored value's. A checkpoint whose
/// header matches but that a run with other settings (scale, observation,
/// fleet options) or another build wrote would otherwise restore foreign
/// results; one replayed trial per resume catches that. Returns the index
/// of the trial that did not reproduce (or panicked on replay).
fn replay_mismatch<T: TrialCodec>(
    slots: &[Option<TrialResult<T>>],
    attempts: &[u32],
    seed_of: impl Fn(u64) -> u64,
    f: impl Fn(u64, u64) -> T,
) -> Option<u64> {
    let (i, recorded) = slots.iter().enumerate().find_map(|(i, s)| match s {
        Some(Ok(v)) => Some((i as u64, v)),
        _ => None,
    })?;
    let seed = match attempts[i as usize] {
        a if a > 1 => retry_seed(seed_of(i), u64::from(a - 1)),
        _ => seed_of(i),
    };
    let encode = |v: &T| {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    };
    let replayed = catch_unwind(AssertUnwindSafe(|| encode(&f(i, seed))));
    (replayed.ok() != Some(encode(recorded))).then_some(i)
}

type JobOutput<T> = (u64, u32, TrialResult<T>);

// --- helping: idle workers finish the trials still running ---------------

/// Locks `m`, recovering the guard if a panicking thread poisoned it: every
/// update below leaves the state valid between statements.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One sweep's open fan-outs and the count of its trials in flight.
#[derive(Default)]
struct HelpPool {
    state: Mutex<PoolState>,
    /// Wakes parked workers: a fan-out opened, or no trial is in flight.
    wake: Condvar,
}

#[derive(Default)]
struct PoolState {
    open: Vec<Arc<dyn Helpable>>,
    /// Workers between claiming a dispatch index and finishing its trial.
    in_flight: usize,
}

/// A published fan-out, as a helper sees it (without its item type).
trait Helpable: Send + Sync {
    /// The trial that owns this fan-out (for help lanes).
    fn trial(&self) -> u64;
    /// Whether an item is left to claim.
    fn has_work(&self) -> bool;
    /// Claims and runs one item; `false` when none was left.
    fn run_one(&self) -> bool;
}

/// Decrements [`PoolState::in_flight`] on drop — also when the worker
/// unwinds outside the per-trial catch, so no helper stays parked.
struct InFlight<'a>(&'a HelpPool);

impl HelpPool {
    fn enter(&self) -> InFlight<'_> {
        lock(&self.state).in_flight += 1;
        InFlight(self)
    }

    fn publish(&self, job: Arc<dyn Helpable>) {
        lock(&self.state).open.push(job);
        self.wake.notify_all();
    }

    fn retire(&self, job: &Arc<dyn Helpable>) {
        lock(&self.state).open.retain(|j| !Arc::ptr_eq(j, job));
    }

    /// Runs items of open fan-outs, parking while none has work, until no
    /// trial is in flight. Called only by a worker whose dispatch is over,
    /// so no trial can start once the count reads zero. Each contiguous
    /// stretch of help on one fan-out is reported to `helped`, as
    /// `(trial, start)`, when it ends.
    fn help(&self, mut helped: impl FnMut(u64, Instant)) {
        loop {
            let job = {
                let mut st = lock(&self.state);
                loop {
                    if let Some(job) = st.open.iter().find(|j| j.has_work()) {
                        break Arc::clone(job);
                    }
                    if st.in_flight == 0 {
                        return;
                    }
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let _help = span("sweep.help");
            let start = Instant::now();
            // The owner may have claimed the last item since the check.
            if job.run_one() {
                while job.run_one() {}
                helped(job.trial(), start);
            }
        }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.in_flight -= 1;
        if st.in_flight == 0 {
            self.0.wake.notify_all();
        }
    }
}

thread_local! {
    /// The pool of the sweep whose trial this thread is running, and the
    /// trial's index. `None` off a sweep worker, between trials, and while
    /// the thread runs a fan-out item (so nested fan-outs run inline).
    static ON_TRIAL: Cell<Option<(Arc<HelpPool>, u64)>> = const { Cell::new(None) };
}

/// Sets this thread's [`ON_TRIAL`] until dropped, then restores the
/// previous value (also when unwinding).
struct OnTrial(Option<(Arc<HelpPool>, u64)>);

impl OnTrial {
    fn set(ctx: Option<(Arc<HelpPool>, u64)>) -> Self {
        Self(ON_TRIAL.replace(ctx))
    }
}

impl Drop for OnTrial {
    fn drop(&mut self) {
        ON_TRIAL.set(self.0.take());
    }
}

/// One fan-out's items and their result slots.
struct FanOut<T, F> {
    f: F,
    n: usize,
    trial: u64,
    items: Mutex<Items<T>>,
    /// Wakes the owner when the last running item finishes.
    idle: Condvar,
}

struct Items<T> {
    /// The next index to hand out.
    next: usize,
    /// Items handed out and not finished yet.
    running: usize,
    /// An item panicked: no further item is handed out. Every index below
    /// `next` was already handed out, so the lowest panicking one ran.
    halted: bool,
    slots: Vec<Option<std::thread::Result<T>>>,
}

impl<T, F> Helpable for FanOut<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn trial(&self) -> u64 {
        self.trial
    }

    fn has_work(&self) -> bool {
        let items = lock(&self.items);
        !items.halted && items.next < self.n
    }

    fn run_one(&self) -> bool {
        let i = {
            let mut items = lock(&self.items);
            if items.halted || items.next == self.n {
                return false;
            }
            items.next += 1;
            items.running += 1;
            items.next - 1
        };
        let out = catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
        let mut items = lock(&self.items);
        items.halted |= out.is_err();
        items.slots[i] = Some(out);
        items.running -= 1;
        if items.running == 0 {
            self.idle.notify_all();
        }
        true
    }
}

/// Returns `[f(0), …, f(n - 1)]`. Inside a sweep trial this forks: the
/// items are published to the sweep's pool, this worker runs them, and
/// workers that have run out of trials claim items too. Off a sweep
/// worker, inside another item, or for `n ≤ 1` it is a plain loop.
///
/// Results are those of the plain loop whoever runs an item, as long as
/// `f` is pure in its index. A panic is caught where its item ran; once
/// every item handed out has finished, the lowest-index payload is
/// re-raised, which is the panic the plain loop would have raised.
pub(crate) fn fan_out<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let owner = OnTrial::set(None);
    let Some((pool, trial)) = owner.0.as_ref().filter(|_| n > 1) else {
        return (0..n).map(f).collect();
    };
    let job = Arc::new(FanOut {
        f,
        n,
        trial: *trial,
        items: Mutex::new(Items {
            next: 0,
            running: 0,
            halted: false,
            slots: (0..n).map(|_| None).collect(),
        }),
        idle: Condvar::new(),
    });
    let open: Arc<dyn Helpable> = job.clone();
    pool.publish(Arc::clone(&open));
    while job.run_one() {}
    pool.retire(&open);
    let mut items = lock(&job.items);
    while items.running > 0 {
        items = job.idle.wait(items).unwrap_or_else(PoisonError::into_inner);
    }
    let slots = std::mem::take(&mut items.slots);
    drop(items);
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("every item below the lowest panic ran") {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// The runner core behind both entry points: seed derivation via
/// `seed_of`, retry/quarantine around `f`, checkpoint restore + append
/// when the config has a [`CheckpointSpec`], budget/halt dispatch gating,
/// and the scheduling-independent merge.
fn run_core<T, F, S>(cfg: &SweepConfig, trials: u64, seed_of: S, f: F) -> SweepRun<T>
where
    T: Send + TrialCodec,
    F: Fn(u64, u64) -> T + Sync,
    S: Fn(u64) -> u64 + Sync,
{
    let mut slots: Vec<Option<TrialResult<T>>> = (0..trials).map(|_| None).collect();
    let mut attempts_of: Vec<u32> = vec![0; trials as usize];
    let mut restored = 0u64;

    // --- restore from checkpoint ---------------------------------------
    let ckpt = cfg.checkpoint.as_ref();
    let mut writer: Option<CkptWriter> = None;
    if let Some(spec) = ckpt {
        let mut append_at = None;
        if spec.resume {
            if let Some((records, valid)) = load_checkpoint(&spec.path, cfg.base_seed, trials) {
                let mut dup_warned = false;
                // (first trial, count) of records that do not decode as
                // `T`; a file another build wrote has only such records,
                // so they are reported once per file, not once each.
                let mut undecodable: Option<(u64, u64)> = None;
                for rec in records {
                    let i = rec.trial as usize;
                    if slots[i].is_some() {
                        // Duplicate record for an already-restored trial
                        // (a crash between append and fsync can replay a
                        // record on the next run). Policy: FIRST wins —
                        // the earliest record is the one whose bytes the
                        // original run committed; a later duplicate may be
                        // a retry from a torn rewrite. Warn once per file,
                        // keep `restored` consistent (the trial was
                        // already counted).
                        if !dup_warned {
                            arachnet_obs::warn!(
                                "checkpoint '{}': duplicate record for trial {} \
                                 (keeping the first occurrence)",
                                spec.path.display(),
                                rec.trial
                            );
                            dup_warned = true;
                        }
                        continue;
                    }
                    let slot = if rec.ok {
                        let mut input = rec.payload.as_slice();
                        match T::decode(&mut input) {
                            Some(v) if input.is_empty() => Ok(v),
                            _ => {
                                let (_, n) = undecodable.get_or_insert((rec.trial, 0));
                                *n += 1;
                                continue;
                            }
                        }
                    } else {
                        Err(TrialError {
                            trial: rec.trial,
                            payload: String::from_utf8_lossy(&rec.payload).into_owned(),
                            attempts: rec.attempts,
                        })
                    };
                    restored += 1;
                    slots[i] = Some(slot);
                    attempts_of[i] = rec.attempts;
                }
                if let Some((first, n)) = undecodable {
                    arachnet_obs::warn!(
                        "checkpoint '{}': {n} undecodable record(s), the first for trial {first}; \
                         re-running them",
                        spec.path.display()
                    );
                }
                if let Some(i) = replay_mismatch(&slots, &attempts_of, &seed_of, &f) {
                    arachnet_obs::warn!(
                        "ignoring checkpoint '{}': trial {i} does not reproduce its recorded \
                         result (written with other settings or by another build)",
                        spec.path.display()
                    );
                    slots.fill_with(|| None);
                    attempts_of.fill(0);
                    restored = 0;
                } else {
                    append_at = Some(valid);
                }
            }
        }
        writer = open_writer(spec, cfg.base_seed, trials, append_at);
    }

    let pending: Vec<u64> = (0..trials)
        .filter(|&i| slots[i as usize].is_none())
        .collect();
    let workers = cfg.threads.clamp(1, pending.len().max(1));

    let _sweep_span = span("sweep.run");

    let deadline = cfg.budget.map(|b| Instant::now() + b);
    let next_job = AtomicU64::new(0);
    let pool = Arc::new(HelpPool::default());
    let starved = AtomicBool::new(false);
    let sink: Mutex<Option<CkptWriter>> = Mutex::new(writer);

    let one_job = |i: u64| -> JobOutput<T> {
        let first = seed_of(i);
        let mut attempt = 0u32;
        loop {
            let seed = if attempt == 0 {
                first
            } else {
                retry_seed(first, u64::from(attempt))
            };
            let r = catch_unwind(AssertUnwindSafe(|| f(i, seed)));
            attempt += 1;
            match r {
                Ok(v) => return (i, attempt, Ok(v)),
                Err(p) => {
                    if attempt > RETRIES {
                        return (
                            i,
                            attempt,
                            Err(TrialError {
                                trial: i,
                                payload: panic_text(p),
                                attempts: attempt,
                            }),
                        );
                    }
                }
            }
        }
    };

    let checkpoint_one = |i: u64, attempts: u32, r: &TrialResult<T>| {
        let mut guard = sink.lock().unwrap_or_else(|p| p.into_inner());
        let Some(w) = guard.as_mut() else { return };
        let mut payload = Vec::new();
        let kind = match r {
            Ok(v) => {
                v.encode(&mut payload);
                0u8
            }
            Err(e) => {
                payload.extend_from_slice(e.payload.as_bytes());
                1
            }
        };
        let mut rec = Vec::with_capacity(CKPT_REC_HEADER_LEN + payload.len());
        encode_record(i, kind, attempts, &payload, &mut rec);
        if let Err(e) = w.push(&rec) {
            arachnet_obs::warn!("sweep checkpoint write failed, checkpointing disabled: {e}");
            *guard = None;
        }
    };

    // Wall µs since the sweep started, the clock of the trial lanes.
    let started = Instant::now();
    let lane_us = |at: Instant| {
        let d = at.saturating_duration_since(started);
        d.as_micros().min(u64::MAX as u128) as u64
    };

    let work = |widx: usize| {
        let mut local: Vec<JobOutput<T>> = Vec::new();
        let mut lanes: Vec<TrialLane> = Vec::new();
        let mut lane = |trial: u64, start: Instant, ok: bool, help: bool| {
            let start_us = lane_us(start);
            lanes.push(TrialLane {
                trial,
                worker: widx as u32,
                start_us,
                dur_us: lane_us(Instant::now()).saturating_sub(start_us),
                ok,
                help,
            });
        };
        loop {
            // Counted before the index is claimed: a worker that finds the
            // counter spent and then reads zero in flight knows no trial
            // can start any more.
            let _flight = pool.enter();
            let k = next_job.fetch_add(1, Ordering::Relaxed);
            if k >= pending.len() as u64 {
                break;
            }
            if cfg.halt_after.is_some_and(|h| k >= h)
                || deadline.is_some_and(|d| Instant::now() >= d)
            {
                starved.store(true, Ordering::Relaxed);
                break;
            }
            let i = pending[k as usize];
            let _on_trial = OnTrial::set(Some((Arc::clone(&pool), i)));
            let _t = span("sweep.trial");
            let lane_start = cfg.lanes.then(Instant::now);
            let out = one_job(i);
            if let Some(start) = lane_start {
                lane(i, start, out.2.is_ok(), false);
            }
            checkpoint_one(out.0, out.1, &out.2);
            local.push(out);
        }
        pool.help(|trial, start| {
            if cfg.lanes {
                lane(trial, start, true, true);
            }
        });
        (local, lanes)
    };

    let mut worker_deaths: Vec<String> = Vec::new();
    let mut outputs: Vec<JobOutput<T>> = Vec::new();
    let mut all_lanes: Vec<TrialLane> = Vec::new();
    // A fully restored (or zero-trial) sweep dispatches nothing.
    if !pending.is_empty() {
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..workers)
                .map(|widx| {
                    scope.spawn(move || {
                        let out = work(widx);
                        // Spans recorded inside trials live in this worker's
                        // thread-local map; merge them before the thread dies.
                        flush_thread_spans();
                        out
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((local, lanes)) => {
                        outputs.extend(local);
                        all_lanes.extend(lanes);
                    }
                    Err(p) => worker_deaths.push(panic_text(p)),
                }
            }
        });
    }
    for (i, a, r) in outputs {
        attempts_of[i as usize] = a;
        slots[i as usize] = Some(r);
    }

    // --- merge ----------------------------------------------------------
    let starved = starved.load(Ordering::Relaxed);
    let death_detail = if worker_deaths.is_empty() {
        "trial was never executed".to_string()
    } else {
        format!(
            "sweep worker died before reporting this trial: {}",
            worker_deaths.join("; ")
        )
    };
    let mut stats = SweepStats {
        trials,
        restored,
        ..SweepStats::default()
    };
    let results: Vec<TrialResult<T>> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(r) => r,
            None if starved && worker_deaths.is_empty() => {
                stats.skipped += 1;
                Err(TrialError {
                    trial: i as u64,
                    payload: BUDGET_SKIP_PAYLOAD.to_string(),
                    attempts: 0,
                })
            }
            None => Err(TrialError {
                trial: i as u64,
                payload: death_detail.clone(),
                attempts: 1,
            }),
        })
        .collect();
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(_) => stats.completed += 1,
            Err(e) if e.is_budget_skip() => {}
            Err(_) => stats.quarantined += 1,
        }
        stats.retried += u64::from(attempts_of[i].saturating_sub(1));
    }
    stats.partial = stats.skipped > 0;

    // --- finalize the checkpoint ----------------------------------------
    {
        let mut guard = sink.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(w) = guard.as_mut() {
            if let Err(e) = w.flush() {
                arachnet_obs::warn!("sweep checkpoint final flush failed: {e}");
            }
        }
        if let Some(spec) = ckpt {
            if !stats.partial && worker_deaths.is_empty() {
                // The sweep completed: the checkpoint has served its
                // purpose (quarantined slots are final results, not work
                // to redo).
                *guard = None;
                let _ = fs::remove_file(&spec.path);
            }
        }
    }

    all_lanes.sort_unstable_by_key(|l| (l.start_us, l.worker, l.trial));
    SweepRun {
        results,
        stats,
        lanes: all_lanes,
    }
}

/// Runs `trials` independent trials of `f(trial_index, trial_seed)` across
/// the worker pool, seeding trial `i` with [`trial_seed`]`(base_seed, i)`,
/// and returns results ordered by trial index plus the sweep's
/// quarantine/resume/budget counters. Bit-identical at any thread count;
/// a panicking trial is retried and then quarantined as `Err(TrialError)`
/// in its slot, and even a worker thread dying outside the isolated-panic
/// window cannot poison the sweep: the trials it never reported come back
/// as structured errors. When the config has a [`CheckpointSpec`],
/// completed trials are persisted and restored so an interrupted sweep
/// resumes byte-identically.
pub fn run_sweep<T, F>(cfg: &SweepConfig, trials: u64, f: F) -> SweepRun<T>
where
    T: Send + TrialCodec,
    F: Fn(u64, u64) -> T + Sync,
{
    run_core(cfg, trials, |i| trial_seed(cfg.base_seed, i), f)
}

/// Runs a `cells × trials` matrix (e.g. Table 3 patterns × seeds) over one
/// shared worker pool, returning `cells[cell][trial]` ordered like the
/// inputs. A trial's seed depends only on `(base_seed, cell index, trial
/// index)` — never on worker scheduling — so the whole matrix is
/// bit-identical at any thread count. Retries, checkpoint/resume and the
/// budget apply over the flattened `cells × trials` job space, with
/// counters in [`MatrixRun::stats`].
pub fn run_matrix_sweep<P, T, F>(cfg: &SweepConfig, cells: &[P], trials: u64, f: F) -> MatrixRun<T>
where
    P: Sync,
    T: Send + TrialCodec,
    F: Fn(&P, u64, u64) -> T + Sync,
{
    let per = trials.max(1);
    let run = run_core(
        cfg,
        cells.len() as u64 * trials,
        |job| trial_seed(trial_seed(cfg.base_seed, job / per), job % per),
        |job, seed| f(&cells[(job / per) as usize], job % per, seed),
    );
    let mut flat = run.results.into_iter();
    MatrixRun {
        cells: cells
            .iter()
            .map(|_| flat.by_ref().take(trials as usize).collect())
            .collect(),
        stats: run.stats,
        lanes: run.lanes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Pattern;
    use crate::slotsim::first_convergence_time;
    use std::sync::atomic::AtomicUsize;

    /// A unique checkpoint path under the system temp dir (tests run in
    /// parallel within one process and across processes).
    fn temp_ckpt(label: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "arachnet_ckpt_{}_{label}_{n}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn results_are_ordered_by_trial_index() {
        let cfg = SweepConfig::new(7).with_threads(4);
        let out = run_sweep(&cfg, 64, |i, _| i).results;
        let expect: Vec<_> = (0..64).map(Ok).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn bit_identical_at_any_thread_count() {
        // The acceptance property of the whole module: 1 worker and N
        // workers produce byte-for-byte identical sweeps (seeds derive from
        // the trial index, never the scheduler).
        let run_at = |threads| {
            let cfg = SweepConfig::new(42).with_threads(threads);
            run_sweep(&cfg, 24, |_i, seed| {
                first_convergence_time(&Pattern::c1(), seed, 50_000, true)
            })
            .results
        };
        let single = run_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(single, run_at(threads), "threads={threads}");
        }
    }

    #[test]
    fn matrix_is_bit_identical_across_thread_counts() {
        let cells = [1u64, 2, 3];
        let run_at = |threads| {
            let cfg = SweepConfig::new(9).with_threads(threads);
            run_matrix_sweep(&cfg, &cells, 5, |&c, t, seed| (c, t, seed)).cells
        };
        let single = run_at(1);
        assert_eq!(single, run_at(4));
        assert_eq!(single, run_at(7));
        assert_eq!(single.len(), 3);
        assert!(single.iter().all(|row| row.len() == 5));
        // Distinct cells must not share trial seeds. Error slots are
        // propagated, never unwrapped: collect the successes explicitly.
        let oks: Vec<u64> = single
            .iter()
            .flatten()
            .filter_map(|r| r.as_ref().ok())
            .map(|&(_, _, seed)| seed)
            .collect();
        assert_eq!(oks.len(), 15, "all matrix slots succeeded");
        let seeds: std::collections::HashSet<u64> = oks.into_iter().collect();
        assert_eq!(seeds.len(), 15);
    }

    #[test]
    fn matrix_quarantines_injected_panic_without_poisoning_the_grid() {
        // Regression for the aggregator unwrap: one poisoned slot must
        // stay a structured error in its own cell while every other slot
        // keeps its value — at any thread count.
        let cells = ["a", "b", "c"];
        let run_at = |threads| {
            let cfg = SweepConfig::new(11).with_threads(threads);
            run_matrix_sweep(&cfg, &cells, 4, |&name, t, seed| {
                assert!(
                    !(name == "b" && t == 2),
                    "injected failure in cell b trial 2"
                );
                (name.len() as u64, t, seed)
            })
            .cells
        };
        let grid = run_at(1);
        assert_eq!(grid, run_at(5), "error slots are thread-invariant too");
        for (c, row) in grid.iter().enumerate() {
            for (t, r) in row.iter().enumerate() {
                if c == 1 && t == 2 {
                    let e = r.as_ref().unwrap_err();
                    assert!(e.payload.contains("injected failure"), "{}", e.payload);
                    assert_eq!(e.attempts, 2, "first attempt plus one retry");
                    // Flat job index over the 3×4 grid.
                    assert_eq!(e.trial, 6);
                } else {
                    assert!(r.is_ok(), "cell {c} trial {t} poisoned: {r:?}");
                }
            }
        }
    }

    #[test]
    fn panics_are_isolated_per_trial() {
        let cfg = SweepConfig::new(1).with_threads(3);
        let out = run_sweep(&cfg, 10, |i, _| {
            assert!(i != 7, "trial seven always fails");
            i * 2
        })
        .results;
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.trial, 7);
                assert!(e.payload.contains("seven"), "{}", e.payload);
            } else {
                assert_eq!(*r, Ok(i as u64 * 2));
            }
        }
    }

    #[test]
    fn retry_recovers_a_seed_flaky_trial() {
        // A trial that panics only at its attempt-0 seed succeeds on the
        // salted retry — deterministically.
        let base = 1234;
        let cfg = SweepConfig::new(base).with_threads(2);
        let run = run_sweep(&cfg, 6, |i, seed| {
            assert!(
                !(i == 3 && seed == trial_seed(base, 3)),
                "flaky at first seed"
            );
            seed
        });
        assert!(run.results.iter().all(Result::is_ok));
        assert_eq!(run.results[3], Ok(retry_seed(trial_seed(base, 3), 1)));
        assert_eq!(run.stats.completed, 6);
        assert_eq!(run.stats.retried, 1);
        assert_eq!(run.stats.quarantined, 0);
        assert!(!run.stats.partial);
    }

    #[test]
    fn exhausted_retries_quarantine_with_attempt_count() {
        let cfg = SweepConfig::new(5).with_threads(1);
        let run = run_sweep(&cfg, 4, |i, _seed| {
            assert!(i != 1, "always fails");
            i
        });
        let e = run.results[1].as_ref().unwrap_err();
        assert_eq!(e.trial, 1);
        assert_eq!(e.attempts, 2, "first attempt plus one retry");
        assert!(!e.is_budget_skip());
        assert_eq!(run.stats.quarantined, 1);
        assert_eq!(run.stats.retried, 1);
        assert_eq!(run.stats.completed, 3);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        // Regression: 8 requested workers with 2 trials must not spawn
        // idle workers.
        let cfg = SweepConfig::new(3).with_threads(8);
        let out = run_sweep(&cfg, 2, |i, _| i * 10).results;
        assert_eq!(out, vec![Ok(0), Ok(10)]);
    }

    #[test]
    fn budget_zero_skips_everything_as_a_partial_report() {
        let cfg = SweepConfig::new(8)
            .with_threads(4)
            .with_budget(Duration::ZERO);
        let run = run_sweep(&cfg, 5, |i, _| i);
        assert_eq!(run.stats.skipped, 5);
        assert_eq!(run.stats.completed, 0);
        assert!(run.stats.partial);
        assert!(run
            .results
            .iter()
            .all(|r| r.as_ref().is_err_and(TrialError::is_budget_skip)));
        // Skips are partial-report markers, not quarantined failures.
        assert_eq!(run.stats.quarantined, 0);
        let prov = provenance_events(&run.stats);
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].kind, EventKind::BudgetExhausted);
    }

    #[test]
    fn halt_after_is_deterministic_across_thread_counts() {
        let run_at = |threads| {
            let cfg = SweepConfig::new(21)
                .with_threads(threads)
                .with_halt_after(3);
            run_sweep(&cfg, 8, |i, seed| (i, seed))
        };
        let single = run_at(1);
        assert_eq!(single.stats.completed, 3);
        assert_eq!(single.stats.skipped, 5);
        assert!(single.stats.partial);
        for threads in [2, 4, 8] {
            let multi = run_at(threads);
            assert_eq!(single.results, multi.results, "threads={threads}");
            assert_eq!(single.stats, multi.stats, "threads={threads}");
        }
    }

    #[test]
    fn checkpoint_resume_reproduces_an_uninterrupted_run() {
        let path = temp_ckpt("resume");
        let uninterrupted = {
            let cfg = SweepConfig::new(99).with_threads(2);
            run_sweep(&cfg, 10, |i, seed| (i, seed))
        };
        // Interrupt after 4 dispatched jobs, checkpointing every trial.
        let partial = {
            let cfg = SweepConfig::new(99)
                .with_threads(2)
                .with_halt_after(4)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
            run_sweep(&cfg, 10, |i, seed| (i, seed))
        };
        assert!(partial.stats.partial);
        assert_eq!(partial.stats.completed, 4);
        assert!(path.exists(), "partial run must keep its checkpoint");
        // Resume at a different thread count: byte-identical results.
        let resumed = {
            let cfg = SweepConfig::new(99)
                .with_threads(8)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            run_sweep(&cfg, 10, |i, seed| (i, seed))
        };
        assert_eq!(resumed.results, uninterrupted.results);
        assert_eq!(resumed.stats.restored, 4);
        assert_eq!(resumed.stats.completed, 10);
        assert!(!resumed.stats.partial);
        let prov = provenance_events(&resumed.stats);
        assert_eq!(prov[0].kind, EventKind::SweepResumed { restored: 4 });
        assert!(!path.exists(), "completed run must delete its checkpoint");
    }

    #[test]
    fn checkpoint_restores_quarantined_trials_with_their_attempts() {
        let path = temp_ckpt("quarantine");
        let mk = |halt: Option<u64>, resume: bool| {
            let spec = CheckpointSpec::new(&path).with_every(1).with_resume(resume);
            let mut cfg = SweepConfig::new(4).with_threads(1).with_checkpoint(spec);
            if let Some(h) = halt {
                cfg = cfg.with_halt_after(h);
            }
            run_sweep(&cfg, 5, |i, _seed| {
                assert!(i != 0, "poison pill");
                i
            })
        };
        let first = mk(Some(2), false);
        assert_eq!(first.stats.quarantined, 1);
        assert!(first.stats.partial);
        let resumed = mk(None, true);
        assert_eq!(resumed.stats.restored, 2, "err and ok records restored");
        assert_eq!(resumed.stats.quarantined, 1);
        assert_eq!(resumed.stats.retried, 1, "restored attempts counted");
        let e = resumed.results[0].as_ref().unwrap_err();
        assert!(e.payload.contains("poison pill"), "{}", e.payload);
        assert_eq!(e.attempts, 2);
        // Identical to a run that never checkpointed.
        let fresh = {
            let cfg = SweepConfig::new(4).with_threads(1);
            run_sweep(&cfg, 5, |i, _seed| {
                assert!(i != 0, "poison pill");
                i
            })
        };
        assert_eq!(resumed.results, fresh.results);
        assert_eq!(resumed.stats.quarantined, fresh.stats.quarantined);
        assert_eq!(resumed.stats.retried, fresh.stats.retried);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_checkpoint_tail_is_truncated_not_trusted() {
        let path = temp_ckpt("torn");
        {
            let cfg = SweepConfig::new(31)
                .with_threads(1)
                .with_halt_after(3)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
            run_sweep(&cfg, 6, |i, seed| (i, seed));
        }
        // Simulate a crash mid-write: garbage half-record at the tail.
        {
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 9, 9, 9, 9]).unwrap();
        }
        let resumed = {
            let cfg = SweepConfig::new(31)
                .with_threads(2)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            run_sweep(&cfg, 6, |i, seed| (i, seed))
        };
        assert_eq!(resumed.stats.restored, 3, "valid prefix only");
        let fresh = {
            let cfg = SweepConfig::new(31).with_threads(1);
            run_sweep(&cfg, 6, |i, seed| (i, seed))
        };
        assert_eq!(resumed.results, fresh.results);
        assert!(!path.exists());
    }

    #[test]
    fn record_crc_is_crc32_ieee() {
        // The standard check value of CRC-32/ISO-HDLC over "123456789".
        assert_eq!(record_crc(b"1234", b"56789"), 0xCBF4_3926);
        assert_eq!(record_crc(b"", b""), 0);
    }

    #[test]
    fn corrupt_checkpoint_record_ends_the_valid_prefix() {
        let path = temp_ckpt("corrupt");
        let halted = SweepConfig::new(41)
            .with_threads(1)
            .with_halt_after(4)
            .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
        run_sweep(&halted, 6, |i, seed| (i, seed));
        // Flip one payload bit of the third record (trial 2): before
        // checksums it was restored as a wrong value.
        let mut bytes = fs::read(&path).unwrap();
        let record = CKPT_REC_HEADER_LEN + 16;
        bytes[CKPT_HEADER_LEN + 2 * record + CKPT_REC_HEADER_LEN] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        let resume = |halt: Option<u64>| {
            let mut cfg = SweepConfig::new(41)
                .with_threads(2)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            cfg.halt_after = halt;
            arachnet_obs::capture(|| run_sweep(&cfg, 6, |i, seed| (i, seed)))
        };
        // A resume that runs nothing truncates the file to its valid prefix.
        let (idle, _) = resume(Some(0));
        assert_eq!(idle.stats.restored, 2, "trials 0 and 1 only");
        let valid = (CKPT_HEADER_LEN + 2 * record) as u64;
        assert_eq!(fs::metadata(&path).unwrap().len(), valid);
        fs::write(&path, &bytes).unwrap();
        let (run, warnings) = resume(None);
        assert_eq!(run.stats.restored, 2, "trials 0 and 1 only");
        let fresh = run_sweep(&SweepConfig::new(41).with_threads(1), 6, |i, seed| {
            (i, seed)
        });
        assert_eq!(run.results, fresh.results);
        let corrupt = warnings
            .iter()
            .filter(|w| w.contains("corrupt record"))
            .count();
        assert_eq!(corrupt, 1, "warn once: {warnings:?}");
        assert!(
            !warnings.iter().any(|w| w.contains("torn")),
            "a checksum failure is not a torn tail: {warnings:?}"
        );
        assert!(!path.exists(), "completed run cleans up");
    }

    #[test]
    fn duplicate_checkpoint_records_keep_the_first_and_warn_once() {
        let path = temp_ckpt("dup");
        // Craft a checkpoint by hand: header for (seed 77, 4 trials), a
        // record for trial 0, a record for trial 1, then TWO duplicates of
        // trial 0 with different payloads — the replay pattern a crash
        // between append and fsync leaves behind. The first records hold
        // what the sweep computes, so the resume replay accepts the file.
        let first: (u64, u64) = (0, trial_seed(77, 0));
        let dup: (u64, u64) = (42, 43);
        let tr1: (u64, u64) = (1, trial_seed(77, 1));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CKPT_MAGIC);
        bytes.extend_from_slice(&77u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        let mut payload = Vec::new();
        for (trial, val) in [(0u64, first), (1, tr1), (0, dup), (0, dup)] {
            payload.clear();
            val.encode(&mut payload);
            encode_record(trial, 0, 1, &payload, &mut bytes);
        }
        fs::write(&path, &bytes).unwrap();

        let (run, warnings) = arachnet_obs::capture(|| {
            let cfg = SweepConfig::new(77)
                .with_threads(2)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            run_sweep(&cfg, 4, |i, seed| (i, seed))
        });
        // First-wins: trial 0 keeps the earliest record's payload, and the
        // duplicates neither inflate `restored` nor shadow it.
        assert_eq!(run.results[0].as_ref().unwrap(), &first);
        assert_eq!(run.results[1].as_ref().unwrap(), &tr1);
        assert_eq!(run.stats.restored, 2);
        assert_eq!(run.stats.completed, 4);
        assert!(!run.stats.partial);
        let dup_warns: Vec<_> = warnings
            .iter()
            .filter(|w| w.contains("duplicate record"))
            .collect();
        assert_eq!(dup_warns.len(), 1, "warn once per file: {warnings:?}");
        assert!(dup_warns[0].contains("trial 0"), "{dup_warns:?}");
        assert!(!path.exists(), "completed run cleans up");
    }

    #[test]
    fn undecodable_checkpoint_records_are_rerun_with_one_warning() {
        let path = temp_ckpt("undecodable");
        // A file whose header matches but whose records hold another
        // payload layout (as another build writes): three bytes never
        // decode as `(u64, u64)`.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CKPT_MAGIC);
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        for trial in 0..3u64 {
            encode_record(trial, 0, 1, &[1, 2, 3], &mut bytes);
        }
        fs::write(&path, &bytes).unwrap();
        let (run, warnings) = arachnet_obs::capture(|| {
            let cfg = SweepConfig::new(5)
                .with_threads(2)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            run_sweep(&cfg, 4, |i, seed| (i, seed))
        });
        assert_eq!(run.stats.restored, 0);
        assert_eq!(run.stats.completed, 4);
        assert_eq!(run.results[2], Ok((2, trial_seed(5, 2))));
        let undecodable: Vec<_> = warnings
            .iter()
            .filter(|w| w.contains("undecodable"))
            .collect();
        assert_eq!(undecodable.len(), 1, "warn once per file: {warnings:?}");
        assert!(
            undecodable[0].contains("3 undecodable") && undecodable[0].contains("trial 0"),
            "{undecodable:?}"
        );
        assert!(!path.exists(), "completed run cleans up");
    }

    #[test]
    fn mismatched_checkpoint_header_is_ignored() {
        let path = temp_ckpt("mismatch");
        {
            let cfg = SweepConfig::new(1)
                .with_threads(1)
                .with_halt_after(2)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
            run_sweep(&cfg, 4, |i, seed| (i, seed));
        }
        // Different base seed: the file must be ignored, not misapplied.
        let (_, warnings) = arachnet_obs::capture(|| {
            let cfg = SweepConfig::new(2)
                .with_threads(1)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            let run = run_sweep(&cfg, 4, |i, seed| (i, seed));
            assert_eq!(run.stats.restored, 0);
            assert_eq!(run.stats.completed, 4);
        });
        assert!(
            warnings.iter().any(|w| w.contains("shape mismatch")),
            "{warnings:?}"
        );
        assert!(!path.exists(), "completed run cleans up");
        // Same seed and trial count, but a run whose trials compute other
        // values (another scale or build): the header matches, the replay
        // of trial 0 does not, so the whole file is ignored once.
        let halted = SweepConfig::new(1)
            .with_threads(1)
            .with_halt_after(2)
            .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
        run_sweep(&halted, 4, |i, seed| (i, seed));
        let (run, warnings) = arachnet_obs::capture(|| {
            let cfg = SweepConfig::new(1)
                .with_threads(2)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            run_sweep(&cfg, 4, |i, seed| (i + 100, seed))
        });
        assert_eq!(run.stats.restored, 0);
        assert_eq!(run.stats.completed, 4);
        assert_eq!(run.results[0], Ok((100, trial_seed(1, 0))));
        let replay_warns = warnings
            .iter()
            .filter(|w| w.contains("does not reproduce"))
            .count();
        assert_eq!(replay_warns, 1, "{warnings:?}");
        assert!(!path.exists(), "completed run cleans up");
    }

    #[test]
    fn matrix_sweep_checkpoints_over_the_flat_job_space() {
        let path = temp_ckpt("matrix");
        let cells = [10u64, 20, 30];
        let full = {
            let cfg = SweepConfig::new(55).with_threads(2);
            run_matrix_sweep(&cfg, &cells, 4, |&c, t, seed| (c + t, seed))
        };
        let partial = {
            let cfg = SweepConfig::new(55)
                .with_threads(2)
                .with_halt_after(5)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
            run_matrix_sweep(&cfg, &cells, 4, |&c, t, seed| (c + t, seed))
        };
        assert!(partial.stats.partial);
        let resumed = {
            let cfg = SweepConfig::new(55)
                .with_threads(7)
                .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
            run_matrix_sweep(&cfg, &cells, 4, |&c, t, seed| (c + t, seed))
        };
        assert_eq!(resumed.cells, full.cells);
        assert_eq!(resumed.stats.restored, 5);
        assert!(!path.exists());
    }

    /// Checkpoint `a` truncated (`kind` 0), with one bit flipped (1), with
    /// its head spliced onto the tail of checkpoint `b` (2), or with a
    /// foreign byte inserted (3); `at` picks the positions.
    fn mutate(a: &[u8], b: &[u8], kind: u8, at: u64) -> Vec<u8> {
        let cut = (at % (a.len() as u64 + 1)) as usize;
        match kind {
            0 => a[..cut].to_vec(),
            1 if a.is_empty() => Vec::new(),
            1 => {
                let mut flipped = a.to_vec();
                flipped[cut.min(a.len() - 1)] ^= 1 << ((at >> 32) % 8);
                flipped
            }
            2 => {
                let tail = ((at >> 16) % (b.len() as u64 + 1)) as usize;
                [&a[..cut], &b[tail..]].concat()
            }
            _ => [&a[..cut], &[0xFF][..], &a[cut..]].concat(),
        }
    }

    /// Property (testkit): resuming a matrix sweep from a mutated `ACP2`
    /// file never panics, and whatever the mutation — truncation, a
    /// flipped bit, a splice or an inserted byte — the resumed run equals
    /// an uninterrupted one. A record's checksum catches the flipped bit
    /// anywhere in it, so the damaged record and every later one are
    /// re-run instead of restored as written.
    #[test]
    fn mutated_checkpoints_resume_without_panicking() {
        use arachnet_testkit::{check_with, gen, prop_assert, prop_assert_eq, Config};
        let cells = [10u64, 20, 30];
        let trials = 4;
        let total = cells.len() as u64 * trials;
        let f = |&c: &u64, t: u64, seed: u64| (c + t, seed);
        let full = run_matrix_sweep(&SweepConfig::new(55).with_threads(2), &cells, trials, f);
        // One file per halt point short of completion (a completed run
        // deletes its file), written at one thread so each file's record
        // order, and so each generated case, is reproducible.
        let files: Vec<Vec<u8>> = (0..total)
            .map(|halt| {
                let path = temp_ckpt("prop_src");
                let cfg = SweepConfig::new(55)
                    .with_threads(1)
                    .with_halt_after(halt)
                    .with_checkpoint(CheckpointSpec::new(&path).with_every(1));
                run_matrix_sweep(&cfg, &cells, trials, f);
                let bytes = fs::read(&path).expect("halted run keeps its checkpoint");
                let _ = fs::remove_file(&path);
                bytes
            })
            .collect();
        let g = gen::zip4(
            gen::zip(
                gen::usize_range(0, files.len()),
                gen::usize_range(0, files.len()),
            ),
            gen::u8_range(0, 4),
            gen::u64_any(),
            gen::usize_range(1, 4),
        );
        let cfg = Config {
            cases: 300,
            ..Config::default()
        };
        check_with(
            &cfg,
            "checkpoint_mutated",
            &g,
            |&((a, b), kind, at, threads)| {
                let path = temp_ckpt("prop");
                fs::write(&path, mutate(&files[a], &files[b], kind, at))
                    .map_err(|e| e.to_string())?;
                let cfg = SweepConfig::new(55)
                    .with_threads(threads)
                    .with_checkpoint(CheckpointSpec::new(&path).with_every(1).with_resume(true));
                let run = run_matrix_sweep(&cfg, &cells, trials, f);
                let _ = fs::remove_file(&path);
                prop_assert!(run.cells.iter().all(|row| row.len() == trials as usize));
                prop_assert_eq!(run.stats.skipped, 0);
                prop_assert_eq!(run.stats.completed + run.stats.quarantined, total);
                prop_assert_eq!(&run.cells, &full.cells);
                Ok(())
            },
        );
    }

    /// Property (testkit): whatever the trial count, thread count and
    /// panic pattern, a panicking trial surfaces as `Err(TrialError)` in
    /// its own slot — never as a harness panic — and every other slot
    /// still carries its value.
    #[test]
    fn property_panics_surface_as_errors_not_harness_panics() {
        use arachnet_testkit::{check, gen, prop_assert, prop_assert_eq};
        let g = gen::zip3(
            gen::u64_range(0, 33),
            gen::u64_range(1, 9),
            gen::u64_range(2, 7),
        );
        check(
            "sweep_panic_isolation",
            &g,
            |&(trials, threads, modulus)| {
                let cfg = SweepConfig::new(trials ^ 0xC0FFEE).with_threads(threads as usize);
                let out = run_sweep(&cfg, trials, |i, _| {
                    assert!(i % modulus != 0, "synthetic failure at {i}");
                    i * 3
                })
                .results;
                prop_assert_eq!(out.len(), trials as usize);
                for (i, r) in out.iter().enumerate() {
                    if (i as u64).is_multiple_of(modulus) {
                        let e = r.as_ref().err().ok_or("expected an error slot")?;
                        prop_assert_eq!(e.trial, i as u64);
                        prop_assert!(e.payload.contains("synthetic failure"));
                    } else {
                        prop_assert_eq!(r, &Ok(i as u64 * 3));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn lanes_cover_every_trial_and_never_change_results() {
        let cfg = SweepConfig::new(5).with_threads(2).with_lanes(true);
        let run = run_sweep(&cfg, 6, |i, seed| (i, seed));
        assert_eq!(run.stats.completed, 6);
        // Every trial got a lane, each assigned to a real worker.
        assert_eq!(run.lanes.len(), 6);
        let mut seen: Vec<u64> = run.lanes.iter().map(|l| l.trial).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert!(run.lanes.iter().all(|l| l.worker < 2 && l.ok));
        // Lanes are wall-domain: results identical to a plain run.
        let plain = run_sweep(&SweepConfig::new(5).with_threads(1), 6, |i, seed| (i, seed));
        assert_eq!(run.results, plain.results);
        assert!(plain.lanes.is_empty(), "no lanes unless asked for");
    }

    #[test]
    fn trial_seeds_are_decorrelated() {
        let a = trial_seed(1, 0);
        let b = trial_seed(1, 1);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8);
        // Retry seeds are decorrelated from first-attempt seeds too.
        let r1 = retry_seed(a, 1);
        assert_ne!(r1, a);
        assert!((r1 ^ a).count_ones() > 8);
        assert_ne!(retry_seed(a, 1), retry_seed(a, 2));
    }

    /// A fan-out item with `index`-dependent work: up to ~4k splitmix
    /// rounds, pure in `(salt, index)`.
    fn busy_item(salt: u64, index: usize) -> u64 {
        let mut z = trial_seed(salt, index as u64);
        for _ in 0..z % 4096 {
            z = trial_seed(z, 1);
        }
        z
    }

    /// Runs `f` on another thread and fails the test if it has not
    /// returned within a minute (a helper left parked hangs the sweep).
    fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the sweep returned (no worker left parked)")
    }

    /// Property (testkit): whatever the thread count, trial count and
    /// per-trial fan-out sizes, every trial's `fan_out` returns exactly
    /// the serial map — whichever workers ran its items.
    #[test]
    fn fan_out_equals_the_serial_map_at_any_thread_count() {
        use arachnet_testkit::{check, gen, prop_assert_eq};
        let g = gen::zip3(
            gen::usize_range(1, 5),
            gen::vec(gen::usize_range(0, 65), 1, 5),
            gen::u64_any(),
        );
        check("fan_out_serial_map", &g, |(threads, sizes, salt)| {
            let sizes = Arc::new(sizes.clone());
            let salt = *salt;
            let cfg = SweepConfig::new(salt).with_threads(*threads);
            let run = {
                let sizes = Arc::clone(&sizes);
                run_sweep(&cfg, sizes.len() as u64, move |i, seed| {
                    fan_out(sizes[i as usize], move |k| busy_item(seed, k))
                })
            };
            for (i, r) in run.results.iter().enumerate() {
                let seed = trial_seed(salt, i as u64);
                let serial: Vec<u64> = (0..sizes[i]).map(|k| busy_item(seed, k)).collect();
                prop_assert_eq!(r, &Ok(serial));
            }
            Ok(())
        });
    }

    /// Property (testkit): a trial whose items panic at random indices is
    /// retried and quarantined exactly as at one thread, and its payload
    /// is the lowest panicking item's, as in the serial loop.
    #[test]
    fn fan_out_panics_surface_as_the_serial_loops_trial_error() {
        use arachnet_testkit::{check_with, gen, prop_assert, prop_assert_eq, Config};
        let g = gen::zip(
            gen::usize_range(2, 5),
            gen::vec(gen::usize_range(0, 64), 1, 4),
        );
        let cfg = Config {
            cases: 32,
            ..Config::default()
        };
        check_with(&cfg, "fan_out_panics", &g, |(threads, bad)| {
            let bad = Arc::new(bad.clone());
            let run_at = |threads: usize| {
                let bad = Arc::clone(&bad);
                let cfg = SweepConfig::new(3).with_threads(threads);
                run_sweep(&cfg, 3, move |i, seed| {
                    let bad = Arc::clone(&bad);
                    let n = if i == 1 { 64 } else { 8 };
                    fan_out(n, move |k| {
                        assert!(!(i == 1 && bad.contains(&k)), "item {k} failed");
                        busy_item(seed, k)
                    })
                })
            };
            let (serial, helped) = (run_at(1), run_at(*threads));
            prop_assert_eq!(&serial.results, &helped.results);
            prop_assert_eq!(serial.stats, helped.stats);
            let e = helped.results[1]
                .as_ref()
                .err()
                .ok_or("trial 1 must fail")?;
            let lowest = bad.iter().min().expect("one bad index at least");
            prop_assert_eq!(&e.payload, &format!("item {lowest} failed"));
            prop_assert_eq!(e.attempts, 2);
            prop_assert!(helped.results[0].is_ok() && helped.results[2].is_ok());
            Ok(())
        });
    }

    #[test]
    fn fan_out_is_inline_off_a_worker_and_when_nested() {
        let here = std::thread::current().id();
        let ids = fan_out(16, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id == here),
            "off a worker: a plain loop"
        );
        let off = std::panic::catch_unwind(|| fan_out(4, |k| assert!(k != 2, "item {k}")));
        assert_eq!(panic_text(off.unwrap_err()), "item 2");
        // Four workers; trials 0–2 return at once and their workers help
        // trial 3's two items. The worker left idle stays parked while an
        // item's own slow fan-out runs on the item's thread.
        let cfg = SweepConfig::new(5).with_threads(4);
        let run = run_sweep(&cfg, 4, |i, _| {
            if i < 3 {
                return Vec::new();
            }
            fan_out(2, |_| {
                let outer = std::thread::current().id();
                let inner = fan_out(16, |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    std::thread::current().id()
                });
                inner.iter().all(|&id| id == outer)
            })
        });
        assert_eq!(
            run.results[3],
            Ok(vec![true, true]),
            "a nested item left its thread"
        );
    }

    /// Encodes as its value, but panics encoding 0: with a checkpoint
    /// attached, that kills a worker outside the per-trial catch.
    #[derive(Debug, PartialEq)]
    struct Bomb(u64);

    impl TrialCodec for Bomb {
        fn encode(&self, out: &mut Vec<u8>) {
            assert!(self.0 != 0, "checkpoint encoder failed");
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            u64::decode(input).map(Bomb)
        }
    }

    #[test]
    fn helpers_never_stay_parked_when_dispatch_stops_or_a_worker_dies() {
        let items = |seed: u64| fan_out(48, move |k| busy_item(seed, k));
        let halted = within_a_minute(move || {
            let cfg = SweepConfig::new(8).with_threads(3).with_halt_after(1);
            run_sweep(&cfg, 4, move |_, seed| items(seed))
        });
        let serial: Vec<u64> = (0..48).map(|k| busy_item(trial_seed(8, 0), k)).collect();
        assert_eq!(halted.results[0], Ok(serial));
        assert_eq!((halted.stats.completed, halted.stats.skipped), (1, 3));
        let starved = within_a_minute(move || {
            let cfg = SweepConfig::new(8)
                .with_threads(3)
                .with_budget(Duration::ZERO);
            run_sweep(&cfg, 4, move |_, seed| items(seed))
        });
        assert_eq!(starved.stats.skipped, 4);
        // Trial 0 runs long (its items are helped), trial 1 returns at
        // once; then trial 0's worker dies writing its checkpoint record.
        let path = temp_ckpt("death");
        let ckpt = path.clone();
        let died = within_a_minute(move || {
            let cfg = SweepConfig::new(8)
                .with_threads(2)
                .with_checkpoint(CheckpointSpec::new(&ckpt).with_every(1));
            run_sweep(&cfg, 2, |i, seed| match i {
                0 => {
                    fan_out(32, move |k| busy_item(seed, k));
                    Bomb(0)
                }
                _ => Bomb(i),
            })
        });
        let _ = fs::remove_file(&path);
        let e = died.results[0].as_ref().expect_err("trial 0's worker died");
        assert!(
            e.payload
                .starts_with("sweep worker died before reporting this trial")
                && e.payload.contains("checkpoint encoder failed"),
            "{}",
            e.payload
        );
    }

    #[test]
    fn zero_trials_is_fine() {
        let cfg = SweepConfig::new(5).with_threads(4);
        let out = run_sweep(&cfg, 0, |i, _| i).results;
        assert!(out.is_empty());
        let m = run_matrix_sweep(&cfg, &[1, 2], 0, |_, _, _| 0u8).cells;
        assert_eq!(m, vec![Vec::new(), Vec::new()]);
        // Even with a checkpoint attached: no residue left behind.
        let path = temp_ckpt("empty");
        let cfg = SweepConfig::new(5)
            .with_threads(4)
            .with_checkpoint(CheckpointSpec::new(&path).with_resume(true));
        let run = run_sweep(&cfg, 0, |i, _| i);
        assert!(run.results.is_empty());
        assert_eq!(run.stats, SweepStats::default());
        assert!(!path.exists());
    }
}
