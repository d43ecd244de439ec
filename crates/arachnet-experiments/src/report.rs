//! The `Experiment` abstraction: structured reports, validated run
//! contexts, and the trait every artifact regenerator implements.
//!
//! Historically each experiment was an ad-hoc `pub fn run(n, seed) ->
//! String` with its trial counts hard-coded into the `repro` binary. The
//! redesigned API inverts that: an [`Experiment`] owns its identity
//! (`id`/`title`/`paper_anchor`) *and* its quick/full trial counts, takes a
//! uniform [`ExperimentCtx`], and returns a [`Report`] of structured
//! sections (headers + rows + notes) that callers can either inspect or
//! [`render`](Report::render) to the classic text tables. The static
//! registry in [`crate::registry`] is the single source of truth the
//! `repro` binary, the benches, and the smoke tests all iterate.
//!
//! An [`ExperimentCtx`] is built through [`ExperimentCtx::builder`], which
//! validates the combination up front (zero thread counts, malformed fleet
//! shapes) and returns [`ConfigError`] instead of deferring the blow-up to
//! the middle of a long run.

use arachnet_obs::{json_escape, MetricSet, RecorderSnapshot};
use arachnet_sim::sweep::{
    CheckpointSpec, RunTelemetry, SweepConfig, SweepStats, TelemetrySpec, TrialResult,
};
use arachnet_sim::ConfigError;

use crate::render;

/// Most readers a fleet context accepts — the `FleetPlan` limit in the
/// reader crate, checked here too so the error surfaces at build time.
const MAX_FLEET_READERS: usize = 8;

/// Largest flight-recorder ring capacity the builder accepts — an event is
/// tens of bytes, so this caps the ring at a few tens of megabytes.
const MAX_RING_CAPACITY: usize = 1 << 20;

/// Validated, uniform run context for every experiment.
///
/// Construct through [`ExperimentCtx::builder`]; fields are private so a
/// value that exists is a value that passed validation. Fleet options
/// (`readers`/`bands`) only make sense for experiments whose
/// [`Experiment::multi_reader`] is `true` — [`ExperimentCtx::validate_for`]
/// enforces that pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCtx {
    quick: bool,
    seed: u64,
    threads: Option<usize>,
    observe: bool,
    readers: Option<usize>,
    bands: Option<usize>,
    resume: bool,
    budget_secs: Option<u64>,
    checkpoint_every: Option<u64>,
    halt_after: Option<u64>,
    checkpoint_dir: Option<std::path::PathBuf>,
    journal: bool,
    stall_secs: Option<f64>,
    lanes: bool,
    ring_capacity: Option<usize>,
}

/// Builder for [`ExperimentCtx`] — the only public construction path.
#[derive(Debug, Clone)]
pub struct ExperimentCtxBuilder {
    ctx: ExperimentCtx,
}

impl ExperimentCtxBuilder {
    /// Quick mode: reduced trial counts (each experiment owns the actual
    /// numbers; full mode matches the paper's scale where tractable).
    pub fn quick(mut self) -> Self {
        self.ctx.quick = true;
        self
    }

    /// Full-scale mode (the default).
    pub fn full(mut self) -> Self {
        self.ctx.quick = false;
        self
    }

    /// Pins the worker-thread count (sweep-backed experiments only).
    /// Validated at [`Self::build`]: zero is rejected.
    pub fn threads(mut self, threads: usize) -> Self {
        self.ctx.threads = Some(threads);
        self
    }

    /// Collect sim-domain metrics and flight-recorder events while running
    /// (`repro --metrics` / `--trace`). Observation never perturbs random
    /// streams, so observed and unobserved runs produce identical tables.
    pub fn observe(mut self, observe: bool) -> Self {
        self.ctx.observe = observe;
        self
    }

    /// Fleet size override for multi-reader experiments (`--readers`).
    pub fn readers(mut self, readers: usize) -> Self {
        self.ctx.readers = Some(readers);
        self
    }

    /// Sub-band budget override for multi-reader experiments (`--bands`):
    /// fewer bands than readers forces frequency-space reuse.
    pub fn bands(mut self, bands: usize) -> Self {
        self.ctx.bands = Some(bands);
        self
    }

    /// Resume from this experiment's `CHECKPOINT_<id>.bin` (`--resume`):
    /// finished trials are restored instead of recomputed, and the output
    /// stays byte-identical to an uninterrupted run.
    pub fn resume(mut self, resume: bool) -> Self {
        self.ctx.resume = resume;
        self
    }

    /// Wall-clock budget in seconds (`--budget-secs`): past the deadline
    /// no new trials are dispatched and the report is flagged partial.
    pub fn budget_secs(mut self, secs: u64) -> Self {
        self.ctx.budget_secs = Some(secs);
        self
    }

    /// Checkpoint flush interval in trials (`--checkpoint-every`); setting
    /// it turns checkpointing on. Validated at [`Self::build`]: zero is
    /// rejected.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.ctx.checkpoint_every = Some(every);
        self
    }

    /// Deterministic dispatch cap (`--halt-after`): at most this many jobs
    /// run, the rest are budget-skipped. The CI-friendly way to simulate
    /// an interruption, since the skip set is thread-invariant.
    pub fn halt_after(mut self, jobs: u64) -> Self {
        self.ctx.halt_after = Some(jobs);
        self
    }

    /// Directory for `CHECKPOINT_<id>.bin` files (default: the working
    /// directory). Tests point this at a temp dir so interrupted runs
    /// never litter the repo.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.ctx.checkpoint_dir = Some(dir.into());
        self
    }

    /// Stream wall-domain progress heartbeats to `JOURNAL_<id>.jsonl`
    /// (`--journal`). Strictly diagnostic: the deterministic metrics export
    /// is unaffected.
    pub fn journal(mut self, journal: bool) -> Self {
        self.ctx.journal = journal;
        self
    }

    /// Stall-watchdog soft deadline in seconds (`--stall-secs`). Without
    /// it the watchdog auto-calibrates from the running median trial
    /// duration. Validated at [`Self::build`]: must be finite and positive.
    pub fn stall_secs(mut self, secs: f64) -> Self {
        self.ctx.stall_secs = Some(secs);
        self
    }

    /// Record per-worker trial lanes for the Chrome trace export
    /// (`repro trace --chrome`).
    pub fn lanes(mut self, lanes: bool) -> Self {
        self.ctx.lanes = lanes;
        self
    }

    /// Flight-recorder ring capacity override (`--ring-capacity`; default
    /// [`arachnet_obs::DEFAULT_CAPACITY`]). Affects only how many recent
    /// events the trace window can show — per-kind counts, and therefore
    /// the metrics export, see every event regardless. Validated at
    /// [`Self::build`]: zero and absurdly large values are rejected.
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        self.ctx.ring_capacity = Some(cap);
        self
    }

    /// Validates the combination and returns the context.
    pub fn build(self) -> Result<ExperimentCtx, ConfigError> {
        let c = &self.ctx;
        if c.threads == Some(0) {
            return Err(ConfigError::NotPositive {
                field: "threads",
                value: 0.0,
            });
        }
        if c.checkpoint_every == Some(0) {
            return Err(ConfigError::NotPositive {
                field: "checkpoint_every",
                value: 0.0,
            });
        }
        if c.readers == Some(0) {
            return Err(ConfigError::NotPositive {
                field: "readers",
                value: 0.0,
            });
        }
        if c.bands == Some(0) {
            return Err(ConfigError::NotPositive {
                field: "bands",
                value: 0.0,
            });
        }
        if let Some(secs) = c.stall_secs {
            if !(secs.is_finite() && secs > 0.0) {
                return Err(ConfigError::NotPositive {
                    field: "stall_secs",
                    value: secs,
                });
            }
        }
        if c.ring_capacity == Some(0) {
            return Err(ConfigError::NotPositive {
                field: "ring_capacity",
                value: 0.0,
            });
        }
        if let Some(cap) = c.ring_capacity {
            if cap > MAX_RING_CAPACITY {
                return Err(ConfigError::Inconsistent {
                    reason: "ring_capacity exceeds the 1Mi-event ceiling",
                });
            }
        }
        if let Some(r) = c.readers {
            if r > MAX_FLEET_READERS {
                return Err(ConfigError::Inconsistent {
                    reason: "readers exceeds the 8-reader fleet plan limit",
                });
            }
            if let Some(b) = c.bands {
                if b > r {
                    return Err(ConfigError::Inconsistent {
                        reason: "more sub-bands than readers",
                    });
                }
            }
        }
        Ok(self.ctx)
    }
}

impl ExperimentCtx {
    /// Starts a builder at full scale with the given seed and no
    /// overrides.
    pub fn builder(seed: u64) -> ExperimentCtxBuilder {
        ExperimentCtxBuilder {
            ctx: ExperimentCtx {
                quick: false,
                seed,
                threads: None,
                observe: false,
                readers: None,
                bands: None,
                resume: false,
                budget_secs: None,
                checkpoint_every: None,
                halt_after: None,
                checkpoint_dir: None,
                journal: false,
                stall_secs: None,
                lanes: false,
                ring_capacity: None,
            },
        }
    }

    /// Quick mode?
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// Experiment seed (drives every random stream).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Metric/event collection on?
    pub fn observe(&self) -> bool {
        self.observe
    }

    /// Fleet-size override, if any (multi-reader experiments only).
    pub fn readers(&self) -> Option<usize> {
        self.readers
    }

    /// Sub-band budget override, if any (multi-reader experiments only).
    pub fn bands(&self) -> Option<usize> {
        self.bands
    }

    /// Fleet size for a multi-reader experiment: the `--readers` override
    /// or the experiment's default.
    pub fn fleet_readers(&self, default: usize) -> usize {
        self.readers.unwrap_or(default)
    }

    /// Sub-band budget for a multi-reader experiment: the `--bands`
    /// override or the experiment's default, never above the fleet size.
    pub fn fleet_bands(&self, default: usize) -> usize {
        let readers = self.fleet_readers(default);
        self.bands.unwrap_or(default).min(readers)
    }

    /// Picks the quick or full variant of a count.
    pub fn scale(&self, quick: u64, full: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Resume from an existing checkpoint?
    pub fn is_resume(&self) -> bool {
        self.resume
    }

    /// Flight-recorder ring capacity override, if any.
    pub fn ring_capacity(&self) -> Option<usize> {
        self.ring_capacity
    }

    /// Any run telemetry (journal / watchdog / lanes) requested? When
    /// false, [`ExperimentCtx::sweep_for`] leaves the sweep's telemetry off
    /// and the whole layer costs nothing.
    pub fn wants_telemetry(&self) -> bool {
        self.journal || self.stall_secs.is_some() || self.lanes
    }

    /// The sweep configuration for experiment `id` — the only way an
    /// experiment gets one: base seed from [`ExperimentCtx::seed`], the
    /// `--threads` worker count, the context's budget / dispatch-cap
    /// overrides, run telemetry when requested, and — when `--resume` or
    /// `--checkpoint-every` was given — a checkpoint at
    /// [`ExperimentCtx::checkpoint_path`].
    pub fn sweep_for(&self, id: &str) -> SweepConfig {
        let mut cfg = SweepConfig::new(self.seed);
        if let Some(threads) = self.threads {
            cfg = cfg.with_threads(threads);
        }
        if let Some(secs) = self.budget_secs {
            cfg = cfg.with_budget(std::time::Duration::from_secs(secs));
        }
        if let Some(jobs) = self.halt_after {
            cfg = cfg.with_halt_after(jobs);
        }
        if self.resume || self.checkpoint_every.is_some() {
            let spec = CheckpointSpec::new(self.checkpoint_path(id))
                .with_every(self.checkpoint_every.unwrap_or(8))
                .with_resume(self.resume);
            cfg = cfg.with_checkpoint(spec);
        }
        if self.wants_telemetry() {
            let mut tele = TelemetrySpec::new().with_lanes(self.lanes);
            if let Some(path) = self.journal_path(id) {
                tele = tele.with_journal(path);
            }
            if let Some(secs) = self.stall_secs {
                tele = tele.with_stall_secs(secs);
            }
            cfg = cfg.with_telemetry(tele);
        }
        cfg
    }

    /// The journal file this context would write for experiment `id`
    /// (`JOURNAL_<id>.jsonl`, in the checkpoint dir when one is set), or
    /// `None` when journaling is off. The `repro` binary deletes any stale
    /// file here before a fresh run, since the journal opens in append
    /// mode.
    pub fn journal_path(&self, id: &str) -> Option<std::path::PathBuf> {
        if !self.journal {
            return None;
        }
        let file = format!("JOURNAL_{id}.jsonl");
        Some(match &self.checkpoint_dir {
            Some(dir) => dir.join(file),
            None => std::path::PathBuf::from(file),
        })
    }

    /// Where this context's sweeps would checkpoint experiment `id`
    /// (`CHECKPOINT_<id>.bin`, in the checkpoint dir when one is set).
    /// This names the location regardless of whether checkpointing is
    /// enabled — the `repro` binary uses it to delete a stale file from an
    /// aborted earlier run before a fresh (non-`--resume`) run.
    pub fn checkpoint_path(&self, id: &str) -> std::path::PathBuf {
        let file = format!("CHECKPOINT_{id}.bin");
        match &self.checkpoint_dir {
            Some(dir) => dir.join(file),
            None => std::path::PathBuf::from(file),
        }
    }

    /// Checks this context against a specific experiment: fleet options on
    /// a single-reader experiment are a usage error, reported as
    /// [`ConfigError::Inconsistent`] rather than silently ignored.
    pub fn validate_for(&self, e: &dyn Experiment) -> Result<(), ConfigError> {
        if !e.multi_reader() && (self.readers.is_some() || self.bands.is_some()) {
            return Err(ConfigError::Inconsistent {
                reason: "fleet options (readers/bands) on a single-reader experiment",
            });
        }
        Ok(())
    }

    /// Checks this context against a finished report: the resilience and
    /// journal options (`resume`, `checkpoint_every`, `budget_secs`,
    /// `halt_after`, `journal`, `stall_secs`) act only on sweeps, so a
    /// report with no sweep trials rejects them as
    /// [`ConfigError::Inconsistent`] rather than silently ignoring them.
    /// Trial lanes stay allowed: a Chrome export without them still
    /// carries sim events and spans.
    pub fn validate_report(&self, report: &Report) -> Result<(), ConfigError> {
        let sweep_only = self.resume
            || self.checkpoint_every.is_some()
            || self.budget_secs.is_some()
            || self.halt_after.is_some()
            || self.journal
            || self.stall_secs.is_some();
        if sweep_only && report.sweep.trials == 0 {
            return Err(ConfigError::Inconsistent {
                reason: "resume/checkpoint/budget/halt/journal/stall options on an experiment \
                         that runs no sweep",
            });
        }
        Ok(())
    }
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        Self::builder(1)
            .quick()
            .build()
            .expect("default context is valid")
    }
}

/// One table of an experiment's output: a title, column headers, data
/// rows, and free-form notes (the "paper says" anchors).
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (cells are pre-formatted strings).
    pub rows: Vec<Vec<String>>,
    /// Notes printed after the table, one per line.
    pub notes: Vec<String>,
}

impl Section {
    /// Builds a section from a title, headers, and rows.
    pub fn new(title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows,
            notes: Vec::new(),
        }
    }

    /// Appends a note line (chainable).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the section as an aligned text table plus its notes.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut out = render::table(&self.title, &headers, &self.rows);
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

/// A structured experiment result: one or more [`Section`]s, plus the
/// observability payload collected when [`ExperimentCtx::observe`] was set —
/// sim-domain metrics and a flight-recorder snapshot of a representative
/// trial. Both stay empty on unobserved runs.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The sections, in print order.
    pub sections: Vec<Section>,
    /// Sim-domain metrics (deterministic at any thread count).
    pub metrics: MetricSet,
    /// Flight-recorder snapshot of a representative trial (`--trace`).
    pub snapshot: RecorderSnapshot,
    /// Sweep resilience counters (quarantine / resume / budget), merged
    /// over every sweep the experiment ran. `Default` (all zero) for
    /// experiments that don't run sweeps.
    pub sweep: SweepStats,
    /// Wall-domain run telemetry (worker lanes, stall events), merged over
    /// every sweep the experiment ran. Empty unless the context requested
    /// telemetry; never part of the deterministic metrics export.
    pub telemetry: RunTelemetry,
}

impl Report {
    /// A report with a single section.
    pub fn single(section: Section) -> Self {
        Self {
            sections: vec![section],
            ..Self::default()
        }
    }

    /// A report over several sections.
    pub fn sections(sections: Vec<Section>) -> Self {
        Self {
            sections,
            ..Self::default()
        }
    }

    /// Attaches sim-domain metrics (chainable).
    pub fn with_metrics(mut self, metrics: MetricSet) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches a representative flight-recorder snapshot (chainable).
    pub fn with_snapshot(mut self, snapshot: RecorderSnapshot) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Attaches sweep resilience counters (chainable). Experiments that
    /// run several sweeps merge their stats first.
    pub fn with_sweep(mut self, sweep: SweepStats) -> Self {
        self.sweep = sweep;
        self
    }

    /// Attaches wall-domain run telemetry (chainable). Experiments that
    /// run several sweeps [`merge`](RunTelemetry::merge) theirs first.
    pub fn with_telemetry(mut self, telemetry: RunTelemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// `true` when any of this report's sweeps ran out of budget before
    /// dispatching every trial — the numbers cover a subset of the
    /// intended trial set.
    pub fn is_partial(&self) -> bool {
        self.sweep.partial
    }

    /// The report's metrics plus the snapshot's per-kind event totals
    /// (`sim.events.*`): the exact set `repro --metrics` prints and
    /// exports.
    pub fn merged_metrics(&self) -> MetricSet {
        let mut m = self.metrics.clone();
        self.snapshot.add_counts_to(&mut m, "sim");
        m
    }

    /// Renders every section, separated by blank lines.
    pub fn render(&self) -> String {
        self.sections
            .iter()
            .map(Section::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The deterministic `METRICS_<id>.json` document for a report: one line of
/// JSON containing only sim-domain values, byte-identical at any
/// `--threads` count. `partial` is `true` when a budget cut the sweep
/// short — consumers must treat the numbers as covering a subset of the
/// trial set. Shared by the `repro` binary and the repo smoke test so both
/// always agree on the bytes.
pub fn metrics_json(id: &str, report: &Report) -> String {
    format!(
        "{{\"experiment\":\"{}\",\"partial\":{},\"metrics\":{}}}\n",
        json_escape(id),
        report.is_partial(),
        export_metrics(report).to_json()
    )
}

/// The exact metric set `METRICS_<id>.json` serializes: the report's merged
/// sim-domain metrics plus generic report-shape counters, so even an
/// experiment with no bespoke metrics exports a non-empty deterministic
/// document. Sweep-backed reports also export their quarantine counters —
/// those are sim-domain (a trial panics or not purely by `(trial, seed)`).
/// The `restored` counter is deliberately NOT exported: it describes how
/// *this invocation* got its results, and including it would break the
/// resumed-equals-uninterrupted byte identity.
pub fn export_metrics(report: &Report) -> MetricSet {
    let mut metrics = report.merged_metrics();
    let rows: usize = report.sections.iter().map(|s| s.rows.len()).sum();
    metrics.set_count("report.sections", report.sections.len() as u64);
    metrics.set_count("report.rows", rows as u64);
    let s = &report.sweep;
    if s.trials > 0 {
        metrics.set_count("sweep.trials", s.trials);
        metrics.set_count("sweep.completed", s.completed);
        metrics.set_count("sweep.quarantined", s.quarantined);
        metrics.set_count("sweep.retried", s.retried);
    }
    if s.partial {
        metrics.set_count("sweep.skipped", s.skipped);
    }
    metrics
}

/// `(sent, lost)` over one cell of packet trials, where `delivered` says
/// whether a trial's packet got through. A budget-skipped slot was never
/// sent, so it counts as neither; a quarantined slot counts as lost.
pub fn sent_lost<T>(cell: &[TrialResult<T>], delivered: impl Fn(&T) -> bool) -> (u64, u64) {
    let mut sent = 0;
    let mut lost = 0;
    for r in cell {
        match r {
            Err(e) if e.is_budget_skip() => continue,
            Ok(v) if delivered(v) => {}
            _ => lost += 1,
        }
        sent += 1;
    }
    (sent, lost)
}

/// An artifact regenerator: every table/figure of the paper implements
/// this, and the static registry ([`crate::registry`]) lists them all.
///
/// `Sync` is a supertrait so trait objects can live in statics.
pub trait Experiment: Sync {
    /// Stable command-line identifier (`repro <id>`).
    fn id(&self) -> &'static str;
    /// One-line human title.
    fn title(&self) -> &'static str;
    /// Where in the paper the artifact lives (e.g. `"Fig. 15(a)"`).
    fn paper_anchor(&self) -> &'static str;
    /// Whether this experiment simulates a multi-reader fleet — only then
    /// do the context's fleet options (`readers`/`bands`) apply (see
    /// [`ExperimentCtx::validate_for`]).
    fn multi_reader(&self) -> bool {
        false
    }
    /// Regenerates the artifact.
    fn run(&self, ctx: &ExperimentCtx) -> Report;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_scale_picks_by_mode() {
        let quick = ExperimentCtx::builder(1).quick().build().unwrap();
        let full = ExperimentCtx::builder(1).build().unwrap();
        assert_eq!(quick.scale(3, 50), 3);
        assert_eq!(full.scale(3, 50), 50);
    }

    #[test]
    fn ctx_sweep_carries_seed_and_threads() {
        let cfg = ExperimentCtx::builder(42)
            .quick()
            .threads(2)
            .build()
            .unwrap()
            .sweep_for("x");
        assert_eq!(cfg.base_seed, 42);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    fn ctx_builder_rejects_bad_combinations() {
        use arachnet_sim::ConfigError;
        assert_eq!(
            ExperimentCtx::builder(1).threads(0).build(),
            Err(ConfigError::NotPositive {
                field: "threads",
                value: 0.0
            })
        );
        assert_eq!(
            ExperimentCtx::builder(1).readers(0).build(),
            Err(ConfigError::NotPositive {
                field: "readers",
                value: 0.0
            })
        );
        assert_eq!(
            ExperimentCtx::builder(1).bands(0).build(),
            Err(ConfigError::NotPositive {
                field: "bands",
                value: 0.0
            })
        );
        assert!(matches!(
            ExperimentCtx::builder(1).readers(9).build(),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(matches!(
            ExperimentCtx::builder(1).readers(2).bands(3).build(),
            Err(ConfigError::Inconsistent { .. })
        ));
        let ok = ExperimentCtx::builder(1).readers(4).bands(2).build().unwrap();
        assert_eq!(ok.fleet_readers(6), 4);
        assert_eq!(ok.fleet_bands(4), 2);
    }

    #[test]
    fn ctx_fleet_defaults_apply_without_overrides() {
        let ctx = ExperimentCtx::default();
        assert!(ctx.is_quick());
        assert_eq!(ctx.fleet_readers(6), 6);
        assert_eq!(ctx.fleet_bands(4), 4);
        // The band budget never exceeds the fleet size.
        let two = ExperimentCtx::builder(1).readers(2).build().unwrap();
        assert_eq!(two.fleet_bands(4), 2);
    }

    #[test]
    fn ctx_validates_fleet_options_against_the_experiment() {
        use arachnet_sim::ConfigError;
        struct Single;
        impl Experiment for Single {
            fn id(&self) -> &'static str {
                "single"
            }
            fn title(&self) -> &'static str {
                "single-reader"
            }
            fn paper_anchor(&self) -> &'static str {
                "-"
            }
            fn run(&self, _ctx: &ExperimentCtx) -> Report {
                Report::default()
            }
        }
        struct Multi;
        impl Experiment for Multi {
            fn id(&self) -> &'static str {
                "multi"
            }
            fn title(&self) -> &'static str {
                "multi-reader"
            }
            fn paper_anchor(&self) -> &'static str {
                "-"
            }
            fn multi_reader(&self) -> bool {
                true
            }
            fn run(&self, _ctx: &ExperimentCtx) -> Report {
                Report::default()
            }
        }
        let fleet = ExperimentCtx::builder(1).readers(2).build().unwrap();
        assert!(matches!(
            fleet.validate_for(&Single),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(fleet.validate_for(&Multi).is_ok());
        let plain = ExperimentCtx::builder(1).build().unwrap();
        assert!(plain.validate_for(&Single).is_ok());
    }

    #[test]
    fn ctx_rejects_sweep_only_options_on_a_report_without_a_sweep() {
        let swept = Report::default().with_sweep(SweepStats {
            trials: 4,
            ..SweepStats::default()
        });
        let halted = ExperimentCtx::builder(1).halt_after(1).build().unwrap();
        assert!(matches!(
            halted.validate_report(&Report::default()),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(halted.validate_report(&swept).is_ok());
        // Lanes (`--chrome`) and plain contexts pass either way.
        let lanes = ExperimentCtx::builder(1).lanes(true).build().unwrap();
        assert!(lanes.validate_report(&Report::default()).is_ok());
        let plain = ExperimentCtx::builder(1).build().unwrap();
        assert!(plain.validate_report(&Report::default()).is_ok());
    }

    #[test]
    fn ctx_sweep_for_wires_resilience_through() {
        let ctx = ExperimentCtx::builder(5)
            .quick()
            .resume(true)
            .checkpoint_every(3)
            .halt_after(10)
            .budget_secs(60)
            .build()
            .unwrap();
        let cfg = ctx.sweep_for("dyn-churn");
        assert_eq!(cfg.policy.halt_after, Some(10));
        assert_eq!(cfg.policy.budget, Some(std::time::Duration::from_secs(60)));
        let spec = cfg.policy.checkpoint.expect("checkpoint wired");
        assert_eq!(
            spec.path,
            std::path::PathBuf::from("CHECKPOINT_dyn-churn.bin")
        );
        assert_eq!(spec.every, 3);
        assert!(spec.resume);
        // Without resume/checkpoint flags no file is ever touched.
        let plain = ExperimentCtx::builder(5).build().unwrap().sweep_for("x");
        assert!(plain.policy.checkpoint.is_none());
        // Zero flush interval is a config error, not a runtime surprise.
        assert_eq!(
            ExperimentCtx::builder(1).checkpoint_every(0).build(),
            Err(ConfigError::NotPositive {
                field: "checkpoint_every",
                value: 0.0
            })
        );
    }

    #[test]
    fn ctx_wires_telemetry_and_validates_it() {
        use arachnet_sim::ConfigError;
        let ctx = ExperimentCtx::builder(5)
            .quick()
            .journal(true)
            .stall_secs(2.5)
            .lanes(true)
            .checkpoint_dir("ckpts")
            .build()
            .unwrap();
        assert!(ctx.wants_telemetry());
        let cfg = ctx.sweep_for("dyn-churn");
        let tele = cfg.telemetry.expect("telemetry wired");
        assert_eq!(
            tele.journal,
            Some(std::path::PathBuf::from("ckpts/JOURNAL_dyn-churn.jsonl"))
        );
        assert_eq!(tele.stall_secs, Some(2.5));
        assert!(tele.lanes);
        assert_eq!(ctx.journal_path("dyn-churn"), tele.journal);
        // Plain contexts leave the whole layer off.
        let plain = ExperimentCtx::builder(5).build().unwrap();
        assert!(!plain.wants_telemetry());
        assert!(plain.sweep_for("x").telemetry.is_none());
        assert_eq!(plain.journal_path("x"), None);
        // Bad values are config errors at build time, not runtime surprises.
        assert!(matches!(
            ExperimentCtx::builder(1).stall_secs(0.0).build(),
            Err(ConfigError::NotPositive { .. })
        ));
        assert!(matches!(
            ExperimentCtx::builder(1).stall_secs(f64::NAN).build(),
            Err(ConfigError::NotPositive { .. })
        ));
        assert!(matches!(
            ExperimentCtx::builder(1).ring_capacity(0).build(),
            Err(ConfigError::NotPositive { .. })
        ));
        assert!(matches!(
            ExperimentCtx::builder(1).ring_capacity((1 << 20) + 1).build(),
            Err(ConfigError::Inconsistent { .. })
        ));
        let cap = ExperimentCtx::builder(1).ring_capacity(64).build().unwrap();
        assert_eq!(cap.ring_capacity(), Some(64));
    }

    #[test]
    fn metrics_json_flags_partial_and_exports_quarantine_counters() {
        let mut stats = SweepStats {
            trials: 10,
            completed: 9,
            quarantined: 1,
            retried: 2,
            restored: 4, // provenance: must NOT appear in the export
            ..SweepStats::default()
        };
        let r = Report::default().with_sweep(stats);
        let doc = metrics_json("x", &r);
        assert!(doc.contains("\"partial\":false"), "{doc}");
        assert!(doc.contains("\"sweep.quarantined\":1"), "{doc}");
        assert!(doc.contains("\"sweep.retried\":2"), "{doc}");
        assert!(!doc.contains("restored"), "{doc}");
        assert!(!doc.contains("skipped"), "{doc}");
        // A budget-cut run is clearly flagged.
        stats.skipped = 3;
        stats.partial = true;
        let partial = Report::default().with_sweep(stats);
        assert!(partial.is_partial());
        let doc = metrics_json("x", &partial);
        assert!(doc.contains("\"partial\":true"), "{doc}");
        assert!(doc.contains("\"sweep.skipped\":3"), "{doc}");
        // Sweep-less reports export no sweep counters at all.
        assert!(!metrics_json("x", &Report::default()).contains("sweep."));
    }

    #[test]
    fn report_render_concatenates_sections_and_notes() {
        let r = Report::sections(vec![
            Section::new("A", &["x"], vec![vec!["1".into()]]).with_note("note a"),
            Section::new("B", &["y"], vec![vec!["2".into()]]),
        ]);
        let out = r.render();
        assert!(out.contains("A\n"));
        assert!(out.contains("note a"));
        let a_pos = out.find("note a").unwrap();
        let b_pos = out.find('B').unwrap();
        assert!(a_pos < b_pos, "sections render in order");
    }
}
