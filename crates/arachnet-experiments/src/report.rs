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

use std::fmt;

use arachnet_obs::{json_escape, MetricSet, RecorderSnapshot, TrialLane};
use arachnet_reader::fleet::{GRID_BANDS, MAX_READERS};
use arachnet_sim::sweep::{CheckpointSpec, SweepConfig, SweepStats, TrialResult};
use arachnet_sim::ConfigError;

use crate::render;

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

    /// Pins the worker-thread count (sweep-backed experiments only:
    /// [`ExperimentCtx::validate_report`] rejects it on a report without a
    /// sweep). Validated at [`Self::build`]: zero is rejected.
    pub fn threads(mut self, threads: usize) -> Self {
        self.ctx.threads = Some(threads);
        self
    }

    /// Record flight-recorder events while running (`repro --metrics` /
    /// `--trace`). Observation never perturbs random streams, so observed
    /// and unobserved runs produce identical tables.
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
    /// fewer bands than readers forces frequency-space reuse. Validated at
    /// [`Self::build`]: zero and more than the FDMA grid's
    /// [`GRID_BANDS`] are rejected.
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
        // The limits the fleet plan enforces, checked here too so the
        // error surfaces before the run instead of in its middle.
        if c.bands.is_some_and(|b| b > GRID_BANDS) {
            return Err(ConfigError::Inconsistent {
                reason: "bands exceeds the 7 sub-bands of the FDMA grid",
            });
        }
        if let Some(r) = c.readers {
            if r > MAX_READERS {
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

    /// Flight-recorder event collection on?
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
    /// The default is capped at the FDMA grid's [`GRID_BANDS`], so a
    /// larger fleet reuses bands instead of planning a carrier out of band.
    pub fn fleet_bands(&self, default: usize) -> usize {
        let readers = self.fleet_readers(default);
        self.bands.unwrap_or(default.min(GRID_BANDS)).min(readers)
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

    /// The sweep configuration for experiment `id` — the only way an
    /// experiment gets one: base seed from [`ExperimentCtx::seed`], the
    /// `--threads` worker count, the context's budget / dispatch-cap
    /// overrides, trial-lane capture when requested, and — when `--resume` or
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
            let mut spec = CheckpointSpec::new(self.checkpoint_path(id)).with_resume(self.resume);
            if let Some(every) = self.checkpoint_every {
                spec = spec.with_every(every);
            }
            cfg = cfg.with_checkpoint(spec);
        }
        cfg.with_lanes(self.lanes)
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

    /// Checks this context against a finished report: the worker count and
    /// the resilience options (`threads`, `resume`, `checkpoint_every`,
    /// `budget_secs`, `halt_after`) act only on sweeps, so a report with no
    /// sweep trials rejects them as [`ConfigError::Inconsistent`] rather
    /// than silently ignoring them. Trial lanes stay allowed: a Chrome
    /// export without them still carries sim events and spans.
    pub fn validate_report(&self, report: &Report) -> Result<(), ConfigError> {
        let sweep_only = self.threads.is_some()
            || self.resume
            || self.checkpoint_every.is_some()
            || self.budget_secs.is_some()
            || self.halt_after.is_some();
        if sweep_only && report.sweep.trials == 0 {
            return Err(ConfigError::Inconsistent {
                reason: "threads/resume/checkpoint/budget/halt options on an experiment that \
                         runs no sweep",
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

/// A measured number and the precision a table prints it at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// A count.
    Int(u64),
    /// A reading and its decimals (`NaN` prints as `NaN`).
    Real(f64, usize),
    /// No sample to measure (an empty or skipped cell); prints `-`.
    Absent,
}

impl Num {
    /// `v` with `decimals`, or absent when `v` is not finite.
    pub fn finite(v: f64, decimals: usize) -> Num {
        if v.is_finite() {
            Num::Real(v, decimals)
        } else {
            Num::Absent
        }
    }
}

impl fmt::Display for Num {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Num::Int(n) => write!(out, "{n}"),
            Num::Real(v, decimals) => write!(out, "{v:.decimals$}"),
            Num::Absent => out.write_str("-"),
        }
    }
}

/// What a table cell or a note line prints: text with typed numbers
/// spliced in. A cell without numbers is a label (a row name, a run
/// parameter, a bar).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell(Vec<Part>);

#[derive(Debug, Clone, PartialEq)]
enum Part {
    Text(String),
    /// A number, named when the cell or note holds several.
    Num(&'static str, Num),
}

impl Cell {
    /// Text that measures nothing.
    pub fn label(text: impl Into<String>) -> Cell {
        Cell(vec![Part::Text(text.into())])
    }

    /// `template` with each `{name}` replaced by the number `values` gives
    /// that name, e.g. `"{lost}/{sent}"`. Panics on a name without a value.
    pub fn fill(template: &str, values: &[(&'static str, Num)]) -> Cell {
        let mut parts = Vec::new();
        let mut rest = template;
        while let Some((text, tail)) = rest.split_once('{') {
            let (name, tail) = tail.split_once('}').expect("unclosed `{` in a cell");
            let value = values.iter().find(|(n, _)| *n == name);
            let &(name, num) = value.unwrap_or_else(|| panic!("no value for `{name}`"));
            parts.extend([Part::Text(text.to_string()), Part::Num(name, num)]);
            rest = tail;
        }
        parts.push(Part::Text(rest.to_string()));
        Cell(parts)
    }

    /// The numbers this cell prints, with their names, in print order.
    pub fn nums(&self) -> impl Iterator<Item = (&'static str, Num)> + '_ {
        self.0.iter().filter_map(|p| match *p {
            Part::Num(name, num) => Some((name, num)),
            Part::Text(_) => None,
        })
    }

    /// `true` when the cell prints no number.
    pub fn is_label(&self) -> bool {
        self.nums().next().is_none()
    }
}

impl From<Num> for Cell {
    fn from(num: Num) -> Cell {
        Cell(vec![Part::Num("", num)])
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        for part in &self.0 {
            match part {
                Part::Text(text) => out.write_str(text)?,
                Part::Num(_, num) => write!(out, "{num}")?,
            }
        }
        Ok(())
    }
}

/// A cell equals the text it prints.
impl PartialEq<String> for Cell {
    fn eq(&self, text: &String) -> bool {
        /// Consumes the expected text as `Display` writes, so the
        /// comparison allocates nothing.
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, printed: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(printed).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(text);
        fmt::write(&mut rest, format_args!("{self}")).is_ok() && rest.0.is_empty()
    }
}

/// A METRICS key segment: the lowercased runs of ASCII letters, digits,
/// `.` and `_`, joined by `-`, keeping a leading minus sign (`"SNR (dB)"`
/// → `snr-db`, `"Tag 8"` → `tag-8`, `"-10"` → `-10`).
fn slug(text: &str) -> String {
    let kept = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_');
    let words: Vec<&str> = text.split(|c| !kept(c)).filter(|w| !w.is_empty()).collect();
    let sign = if text.starts_with('-') { "-" } else { "" };
    let slug = format!("{sign}{}", words.join("-")).to_ascii_lowercase();
    slug.trim_matches('.').to_string()
}

/// `key.segment`, or either one alone when the other is empty.
fn join(key: &str, segment: &str) -> String {
    match (key.is_empty(), segment.is_empty()) {
        (_, true) => key.to_string(),
        (true, false) => segment.to_string(),
        (false, false) => format!("{key}.{segment}"),
    }
}

/// One table of an experiment's output: a title, column headers, data
/// rows, and notes (the "paper says" anchors), plus the key its numbers
/// export under.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Prefix of the METRICS key of every number in this section.
    pub key: String,
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
    /// Notes printed after the table, one per line.
    pub notes: Vec<Cell>,
}

impl Section {
    /// Builds a section from its key, a title, headers, and rows.
    pub fn new(
        key: &str,
        title: impl Into<String>,
        headers: &[&str],
        rows: Vec<Vec<Cell>>,
    ) -> Self {
        Self {
            key: key.to_string(),
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows,
            notes: Vec::new(),
        }
    }

    /// Appends a note line (chainable).
    pub fn with_note(mut self, note: Cell) -> Self {
        self.notes.push(note);
        self
    }

    /// Renders the section as an aligned text table plus its notes.
    pub fn render(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        let mut out = render::table(&self.title, &headers, &rows);
        for note in &self.notes {
            out.push_str(&note.to_string());
            out.push('\n');
        }
        out
    }

    /// Every number this section prints, with its METRICS key, in print
    /// order. A table cell's key is `<section key>.<row labels>.<column
    /// header>`, where the row labels are the label cells the row starts
    /// with; a named number adds `.<name>`. A note number's key is
    /// `<section key>.<name>`. Labels and headers are slugged.
    pub fn measured(&self) -> Vec<(String, Num)> {
        let mut out = Vec::new();
        for row in &self.rows {
            let labels = row.iter().take_while(|c| c.is_label());
            let row_key = labels.fold(self.key.clone(), |k, c| join(&k, &slug(&c.to_string())));
            for (cell, header) in row.iter().zip(&self.headers) {
                let cell_key = join(&row_key, &slug(header));
                out.extend(cell.nums().map(|(name, num)| (join(&cell_key, name), num)));
            }
        }
        for (name, num) in self.notes.iter().flat_map(Cell::nums) {
            out.push((join(&self.key, name), num));
        }
        out
    }
}

/// A structured experiment result: one or more [`Section`]s, plus a
/// flight-recorder snapshot of a representative trial (empty unless
/// [`ExperimentCtx::observe`] was set) and the sweep's counters.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The sections, in print order.
    pub sections: Vec<Section>,
    /// Flight-recorder snapshot of a representative trial (`--trace`).
    pub snapshot: RecorderSnapshot,
    /// Sweep resilience counters (quarantine / resume / budget), merged
    /// over every sweep the experiment ran. `Default` (all zero) for
    /// experiments that don't run sweeps.
    pub sweep: SweepStats,
    /// Per-worker trial and help lanes of every sweep the experiment ran,
    /// for the Chrome trace export. Empty unless the context asked for
    /// lanes; wall-domain, so never part of the metrics export.
    pub lanes: Vec<TrialLane>,
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

    /// Attaches a representative flight-recorder snapshot (chainable).
    pub fn with_snapshot(mut self, snapshot: RecorderSnapshot) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Attaches the experiment's sweep resilience counters (chainable).
    pub fn with_sweep(mut self, sweep: SweepStats) -> Self {
        self.sweep = sweep;
        self
    }

    /// Attaches the experiment's sweep trial lanes (chainable).
    pub fn with_lanes(mut self, lanes: Vec<TrialLane>) -> Self {
        self.lanes = lanes;
        self
    }

    /// `true` when the report's sweep ran out of budget before
    /// dispatching every trial — the numbers cover a subset of the
    /// intended trial set.
    pub fn is_partial(&self) -> bool {
        self.sweep.partial
    }

    /// Every number the report prints, with its METRICS key (see
    /// [`Section::measured`]).
    pub fn measured(&self) -> Vec<(String, Num)> {
        self.sections.iter().flat_map(Section::measured).collect()
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

/// The exact metric set `METRICS_<id>.json` serializes, and all of it:
/// every number the report prints at its exact value under its
/// [`Report::measured`] key (`null` when absent or NaN), the representative
/// snapshot's `sim.events.*`, the report's shape (`report.*`), and a
/// sweep's counters (`sweep.*`, sim-domain: a trial panics or not purely by
/// `(trial, seed)`). `restored` is deliberately NOT exported: it describes
/// how *this invocation* got its results, and would break the
/// resumed-equals-uninterrupted byte identity.
pub fn export_metrics(report: &Report) -> MetricSet {
    let mut metrics = MetricSet::new();
    for (key, num) in report.measured() {
        match num {
            Num::Int(n) => metrics.set_count(&key, n),
            Num::Real(v, _) => metrics.set_gauge(&key, v),
            Num::Absent => metrics.set_gauge(&key, f64::NAN),
        }
    }
    report.snapshot.add_counts_to(&mut metrics, "sim");
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

/// The report's representative trace: the first of `snapshots` that
/// recorded an event (an empty snapshot when none did).
pub fn representative<'a>(
    snapshots: impl IntoIterator<Item = &'a RecorderSnapshot>,
) -> RecorderSnapshot {
    let first = snapshots.into_iter().find(|s| !s.events.is_empty());
    first.cloned().unwrap_or_default()
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
        // The grid holds GRID_BANDS sub-bands, and the error names them.
        let err = ExperimentCtx::builder(1)
            .readers(MAX_READERS)
            .bands(GRID_BANDS + 1)
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains(&format!("{GRID_BANDS} sub-bands")),
            "{err}"
        );
        let ok = ExperimentCtx::builder(1)
            .readers(4)
            .bands(2)
            .build()
            .unwrap();
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
        // A full fleet gets the whole grid and reuses one band.
        let full = ExperimentCtx::builder(1)
            .readers(MAX_READERS)
            .build()
            .unwrap();
        assert_eq!(full.fleet_bands(MAX_READERS), GRID_BANDS);
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
        let threaded = ExperimentCtx::builder(1).threads(2).build().unwrap();
        assert!(matches!(
            threaded.validate_report(&Report::default()),
            Err(ConfigError::Inconsistent { .. })
        ));
        assert!(threaded.validate_report(&swept).is_ok());
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
        assert_eq!(cfg.halt_after, Some(10));
        assert_eq!(cfg.budget, Some(std::time::Duration::from_secs(60)));
        let spec = cfg.checkpoint.expect("checkpoint wired");
        assert_eq!(
            spec.path,
            std::path::PathBuf::from("CHECKPOINT_dyn-churn.bin")
        );
        assert_eq!(spec.every, 3);
        assert!(spec.resume);
        // Without resume/checkpoint flags no file is ever touched.
        let plain = ExperimentCtx::builder(5).build().unwrap().sweep_for("x");
        assert!(plain.checkpoint.is_none());
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
    fn ctx_wires_lanes_and_validates_the_ring() {
        use arachnet_sim::ConfigError;
        let ctx = ExperimentCtx::builder(5).quick().lanes(true).build();
        assert!(ctx.unwrap().sweep_for("dyn-churn").lanes);
        // Plain contexts capture no lanes.
        let plain = ExperimentCtx::builder(5).build().unwrap();
        assert!(!plain.sweep_for("x").lanes);
        // Bad values are config errors at build time, not runtime surprises.
        assert!(matches!(
            ExperimentCtx::builder(1).ring_capacity(0).build(),
            Err(ConfigError::NotPositive { .. })
        ));
        assert!(matches!(
            ExperimentCtx::builder(1)
                .ring_capacity((1 << 20) + 1)
                .build(),
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
    fn cells_print_their_numbers_under_keys_from_the_row_labels() {
        let lost_sent = |lost, sent| {
            Cell::fill(
                "{lost}/{sent}",
                &[("lost", Num::Int(lost)), ("sent", Num::Int(sent))],
            )
        };
        let s = Section::new(
            "up",
            "T",
            &["Tag", "SNR (dB)", "lost / sent", "bar"],
            vec![
                vec![
                    Cell::label("Tag 8"),
                    Num::Real(12.345, 1).into(),
                    lost_sent(2, 20),
                    Cell::label("##"),
                ],
                vec![
                    Cell::label("-10"),
                    Num::Absent.into(),
                    lost_sent(0, 20),
                    Cell::label(""),
                ],
            ],
        )
        .with_note(Cell::fill(
            "median {median} slots",
            &[("median", Num::Real(179.0, 0))],
        ));
        // Rows compare equal to the text they print.
        assert_eq!(
            s.rows[0],
            vec![
                "Tag 8".to_string(),
                "12.3".into(),
                "2/20".into(),
                "##".into()
            ]
        );
        assert_eq!(s.rows[1][1], "-".to_string());
        assert_ne!(s.rows[0][2], "2/2".to_string());
        assert_ne!(s.rows[0][2], "2/200".to_string());
        assert_eq!(s.notes[0].to_string(), "median 179 slots");
        let keys: Vec<String> = s.measured().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "up.tag-8.snr-db",
                "up.tag-8.lost-sent.lost",
                "up.tag-8.lost-sent.sent",
                "up.-10.snr-db",
                "up.-10.lost-sent.lost",
                "up.-10.lost-sent.sent",
                "up.median",
            ]
        );
        let doc = metrics_json("x", &Report::single(s));
        assert!(doc.contains("\"up.tag-8.snr-db\":12.345}"), "{doc}");
        assert!(doc.contains("\"up.-10.snr-db\":null,"), "{doc}");
        assert!(doc.contains("\"up.median\":179,"), "{doc}");
    }

    #[test]
    fn slugs_keep_signs_and_dots_and_drop_punctuation() {
        assert_eq!(slug("SNR (dB)"), "snr-db");
        assert_eq!(slug("93.75"), "93.75");
        assert_eq!(slug("Slot Util."), "slot-util");
        assert_eq!(slug("a - b"), "a-b");
        assert_eq!(slug(">2.3V@16x"), "2.3v-16x");
        assert_eq!(slug("fdma-reject.tag8"), "fdma-reject.tag8");
    }

    #[test]
    fn report_render_concatenates_sections_and_notes() {
        let r = Report::sections(vec![
            Section::new("a", "A", &["x"], vec![vec![Cell::label("1")]])
                .with_note(Cell::label("note a")),
            Section::new("b", "B", &["y"], vec![vec![Cell::label("2")]]),
        ]);
        let out = r.render();
        assert!(out.contains("A\n"));
        assert!(out.contains("note a"));
        let a_pos = out.find("note a").unwrap();
        let b_pos = out.find('B').unwrap();
        assert!(a_pos < b_pos, "sections render in order");
    }
}
