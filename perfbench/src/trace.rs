//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Every sweep trial closure runs under [`trial`], which records one root
//! span per trial in both untraced and traced runs (it is what the sweep
//! split and the trial percentiles are computed from). Traced runs add
//! child spans with [`span`] around each public layer call. Spans live in
//! a per-thread buffer while a trial runs and move to a global list once
//! its root span closes, so the hot path takes no lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One sweep trial closure or one in-process request (the root).
    Trial,
    /// `arachnet-tag`/`arachnet-core`: payload, packet, FM0, clock, states.
    TagModulate,
    /// `biw-channel`: `ChannelNoise::fill`.
    ChannelNoise,
    /// `biw-channel`: `uplink_add_carrier_into`.
    ChannelCarrier,
    /// `biw-channel`: `uplink_add_tags_into`.
    ChannelTags,
    /// `arachnet-reader::rx` + `arachnet-dsp::psd`: `uplink_snr_db_with`.
    RxSnr,
    /// `arachnet-reader::rx`: `process_slot_with`.
    RxDecode,
    /// `arachnet-sim::slotsim`: `first_convergence_trial`.
    SlotSim,
}

impl Layer {
    /// The span name, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trial => "trial",
            Layer::TagModulate => "tag.modulate",
            Layer::ChannelNoise => "channel.noise",
            Layer::ChannelCarrier => "channel.carrier",
            Layer::ChannelTags => "channel.tags",
            Layer::RxSnr => "rx.snr",
            Layer::RxDecode => "rx.decode",
            Layer::SlotSim => "slotsim",
        }
    }
}

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch; `parent` indexes the same trial's span list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Work items the span processed (waveform samples), 0 if uncounted.
    pub samples: u64,
    /// Uplink bit rate the span worked at, 0 if none.
    pub bps: f64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// All spans of one trial, root first, as recorded by one worker thread.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub worker: usize,
    pub trial: u64,
    pub spans: Vec<Span>,
}

impl Chunk {
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }
}

struct Local {
    worker: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);
static SINK: Mutex<Vec<Chunk>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        worker: NEXT_WORKER.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let e = EPOCH.get_or_init(Instant::now);
    e.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

fn open(layer: Layer, samples: u64, bps: f64) {
    let start = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied();
        let idx = l.spans.len();
        l.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
            samples,
            bps,
        });
        l.stack.push(idx);
    });
}

fn close() {
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.stack.pop().expect("span closed without being opened");
        l.spans[idx].end = end;
    });
}

/// Runs one trial under a root span, then hands the trial's spans to the
/// global list. A trial that panicked earlier on this thread left its
/// spans behind; they are discarded here.
pub fn trial<T>(trial: u64, f: impl FnOnce() -> T) -> T {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.clear();
        l.spans.clear();
    });
    open(Layer::Trial, 0, 0.0);
    let out = f();
    close();
    let chunk = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        Chunk {
            worker: l.worker,
            trial,
            spans: std::mem::take(&mut l.spans),
        }
    });
    SINK.lock()
        .expect("span sink poisoned by a panic")
        .push(chunk);
    out
}

/// Runs `f` under a child span of the current trial.
pub fn span<T>(layer: Layer, samples: u64, bps: f64, f: impl FnOnce() -> T) -> T {
    open(layer, samples, bps);
    let out = f();
    close();
    out
}

/// Takes every trial recorded since the last call.
pub fn take_chunks() -> Vec<Chunk> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned by a panic"))
}

/// Self time of each span: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start.max(ps.start), s.end.min(ps.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// How one sweep call spent its workers' time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepSplit {
    pub workers: u64,
    pub wall_ns: u64,
    /// Σ trial closure time.
    pub busy_ns: u64,
    /// Σ over workers of (sweep return − that worker's last closure end).
    pub tail_idle_ns: u64,
    pub trials: u64,
}

impl SweepSplit {
    /// Splits the sweep that ran from `t0` to `t1` on `workers` workers.
    /// A worker that ran no trial idled for the whole sweep.
    pub fn of(workers: u64, t0: u64, t1: u64, chunks: &[Chunk]) -> Self {
        let mut last_end: BTreeMap<usize, u64> = BTreeMap::new();
        let mut busy = 0;
        for c in chunks {
            let r = c.root();
            busy += r.dur();
            let e = last_end.entry(c.worker).or_insert(r.end);
            *e = (*e).max(r.end);
        }
        let silent = workers.saturating_sub(last_end.len() as u64);
        let tail = last_end
            .values()
            .map(|&e| t1.saturating_sub(e))
            .sum::<u64>()
            + silent * t1.saturating_sub(t0);
        SweepSplit {
            workers,
            wall_ns: t1.saturating_sub(t0),
            busy_ns: busy,
            tail_idle_ns: tail,
            trials: chunks.len() as u64,
        }
    }

    pub fn add(&mut self, o: &SweepSplit) {
        self.workers = self.workers.max(o.workers);
        self.wall_ns += o.wall_ns;
        self.busy_ns += o.busy_ns;
        self.tail_idle_ns += o.tail_idle_ns;
        self.trials += o.trials;
    }

    /// Worker-time the sweep had: workers × wall.
    pub fn capacity_ns(&self) -> u64 {
        self.workers * self.wall_ns
    }

    pub fn busy_frac(&self) -> f64 {
        self.busy_ns as f64 / self.capacity_ns().max(1) as f64
    }

    /// Worker-time that was neither a trial nor tail idle: dispatch,
    /// thread start and join, result merge.
    pub fn overhead_ns(&self) -> u64 {
        self.capacity_ns()
            .saturating_sub(self.busy_ns)
            .saturating_sub(self.tail_idle_ns)
    }
}

/// Per-layer totals over many trials.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// (self ns, calls, samples) per layer.
    pub by_layer: BTreeMap<Layer, (u64, u64, u64)>,
    /// (self ns, samples) per layer and bit rate (bits of the f64).
    pub by_rate: BTreeMap<(Layer, u64), (u64, u64)>,
}

impl LayerTotals {
    pub fn add(&mut self, chunks: &[Chunk]) {
        for c in chunks {
            for (s, own) in c.spans.iter().zip(self_times(&c.spans)) {
                let e = self.by_layer.entry(s.layer).or_default();
                e.0 += own;
                e.1 += 1;
                e.2 += s.samples;
                if s.bps > 0.0 {
                    let r = self.by_rate.entry((s.layer, s.bps.to_bits())).or_default();
                    r.0 += own;
                    r.1 += s.samples;
                }
            }
        }
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.by_layer.get(&layer).map_or(0, |e| e.0)
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.by_layer.get(&layer).map_or(0, |e| e.1)
    }

    pub fn samples(&self, layer: Layer) -> u64 {
        self.by_layer.get(&layer).map_or(0, |e| e.2)
    }

    /// Self ns per sample, 0 when the layer processed no samples.
    pub fn ns_per_sample(&self, layer: Layer) -> f64 {
        ratio(self.self_ns(layer), self.samples(layer))
    }

    pub fn ns_per_sample_at(&self, layer: Layer, bps: f64) -> f64 {
        let (ns, n) = self
            .by_rate
            .get(&(layer, bps.to_bits()))
            .copied()
            .unwrap_or_default();
        ratio(ns, n)
    }

    /// Σ self time of every layer below the root.
    pub fn layer_self_ns(&self) -> u64 {
        self.by_layer
            .iter()
            .filter(|(l, _)| **l != Layer::Trial)
            .map(|(_, e)| e.0)
            .sum()
    }
}

fn ratio(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Writes every span as one tab-separated line per span.
pub fn write_spans(path: &Path, chunks: &[Chunk]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "worker\ttrial\tspan\tlayer\tparent\tstart_ns\tend_ns\tsamples\tbps"
    )?;
    for c in chunks {
        for (i, s) in c.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                c.worker,
                c.trial,
                i,
                s.layer.name(),
                parent,
                s.start,
                s.end,
                s.samples,
                s.bps
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            samples: 0,
            bps: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        let spans = [
            sp(Layer::Trial, 0, 100, None),
            sp(Layer::ChannelNoise, 10, 40, Some(0)),
            sp(Layer::TagModulate, 15, 20, Some(1)),
            sp(Layer::RxDecode, 40, 70, Some(0)),
            sp(Layer::RxSnr, 70, 75, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![35, 25, 5, 30, 5]);
    }

    #[test]
    fn self_time_never_counts_overlap_twice() {
        // Overlapping or out-of-bounds children (clock skew) cover the
        // parent at most once.
        let spans = [
            sp(Layer::Trial, 0, 50, None),
            sp(Layer::ChannelNoise, 10, 30, Some(0)),
            sp(Layer::RxDecode, 20, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorded_spans_nest_under_the_trial_root() {
        let _ = take_chunks();
        let v = trial(7, || span(Layer::ChannelNoise, 3, 375.0, || 5));
        assert_eq!(v, 5);
        let chunks: Vec<Chunk> = take_chunks().into_iter().filter(|c| c.trial == 7).collect();
        assert_eq!(chunks.len(), 1);
        let spans = &chunks[0].spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].layer, Layer::Trial);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
    }

    fn root(worker: usize, start: u64, end: u64) -> Chunk {
        Chunk {
            worker,
            trial: 0,
            spans: vec![sp(Layer::Trial, start, end, None)],
        }
    }

    #[test]
    fn sweep_split_separates_busy_tail_idle_and_overhead() {
        // Sweep runs 0..100 on two workers. Worker 0: trials 2..40 and
        // 41..90; worker 1: trial 3..60, then nothing left to take.
        let chunks = [root(0, 2, 40), root(1, 3, 60), root(0, 41, 90)];
        let s = SweepSplit::of(2, 0, 100, &chunks);
        assert_eq!(s.capacity_ns(), 200);
        assert_eq!(s.busy_ns, 38 + 57 + 49);
        assert_eq!(s.tail_idle_ns, 10 + 40);
        assert_eq!(s.overhead_ns(), 200 - 144 - 50);
        assert!((s.busy_frac() - 0.72).abs() < 1e-12);
        // A worker that never got a trial idles for the whole sweep.
        let lone = SweepSplit::of(2, 0, 100, &[root(0, 0, 100)]);
        assert_eq!(lone.tail_idle_ns, 100);
        assert_eq!(lone.overhead_ns(), 0);
    }
}
