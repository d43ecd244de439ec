//! The three sweep workloads: `uplink-sweep` (Fig. 12), `drift-coarse`
//! (`dyn-drift`) and `slot-mac` (Fig. 15(a)).
//!
//! Each makes its own `run_matrix_sweep` call with the experiment's
//! per-trial closure, so errored trials are counted and set-up stays out
//! of the timed section. A run repeats one fixed-size sweep (a "round")
//! until `--seconds` have passed and reports medians over rounds. Traced
//! runs alternate an untraced round with a traced one, whose closure
//! composes the same work from public calls under spans (`phy`).

use std::time::Instant;

use arachnet_core::rates::ul_rates;
use arachnet_experiments::{dyn_scenarios, fig12, fig15, render::f, Report};
use arachnet_obs::Recorder;
use arachnet_reader::rx::UplinkReceiver;
use arachnet_sim::codec::TrialCodec;
use arachnet_sim::metrics::five_num;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::first_convergence_trial;
use arachnet_sim::sweep::{run_matrix_sweep, trial_seed, SweepConfig, SweepStats, TrialResult};
use arachnet_sim::wavesim::{with_phy_scratch, UplinkResult, WaveSim};
use biw_channel::timevarying::{ChannelDrift, TimeVaryingChannel};

use crate::checks;
use crate::metrics::{rate_suffix, Outcome};
use crate::trace::{self, Chunk, Layer, LayerTotals, SweepSplit};
use crate::{phy, procfs, stats, Args};

/// Sweep workers (the host has two cores).
const THREADS: usize = 2;
/// Set-up repetitions before each round. `setup_s` is the median over
/// all of them, so it samples the host at many moments of the run rather
/// than in one burst.
const SETUP_REPS: usize = 5;
/// Trials per cell of the small sweep compared with the experiment
/// function before timing.
const EQUIV_TRIALS: u64 = 2;

/// Packets per (tag, rate) cell in one `uplink-sweep` round.
const UPLINK_PACKETS: u64 = 20;
/// Packets per drift epoch in one `drift-coarse` round.
const DRIFT_PACKETS: u64 = 24;
/// The `dyn-drift` uplink rate.
const DRIFT_BPS: f64 = 375.0;
/// Convergence trials per pattern in one `slot-mac` round.
const SLOT_TRIALS: u64 = 800;
/// Fig. 15's convergence-slot cap.
const SLOT_CAP: u64 = 500_000;
/// Slots `first_convergence_trial` steps before its RESET.
const SLOT_WARMUP: u64 = 4;

fn sweep_config(seed: u64) -> SweepConfig {
    SweepConfig::new(seed).with_threads(THREADS)
}

/// One timed sweep call.
struct Round {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    split: SweepSplit,
    chunks: Vec<Chunk>,
}

/// Every round of a run, plus the first round's results.
struct Rounds<T> {
    rounds: Vec<Round>,
    reference: Vec<Vec<TrialResult<T>>>,
    /// Seconds of each set-up repetition.
    setup: Vec<f64>,
    digest: u64,
    /// Rounds whose results differed from the first round's.
    diverged: Vec<(usize, bool)>,
    stats: SweepStats,
    errors: u64,
}

/// Repeats the `cells × trials` sweep for `args.seconds` (at least
/// twice), timing `SETUP_REPS` runs of `setup` before each round. The
/// set-up products are dropped; the rounds use an identical earlier build.
/// Traced runs alternate `plain` and `composed` rounds.
#[allow(clippy::too_many_arguments)]
fn run_rounds<C, T, S>(
    args: &Args,
    cfg: &SweepConfig,
    cells: &[C],
    trials: u64,
    mut setup: impl FnMut() -> S,
    plain: impl Fn(&C, u64, u64) -> T + Sync,
    composed: impl Fn(&C, u64, u64) -> T + Sync,
) -> Rounds<T>
where
    C: Sync,
    T: Send + TrialCodec,
{
    let indexed: Vec<(u64, &C)> = (0..).zip(cells).collect();
    let workers = THREADS.clamp(1, indexed.len() * trials as usize) as u64;
    let wrap = |f: &(dyn Fn(&C, u64, u64) -> T + Sync)| {
        let sweep = |&(ci, c): &(u64, &C), t: u64, seed: u64| {
            trace::trial(ci * trials + t, || f(c, t, seed))
        };
        let t0 = trace::now_ns();
        let cpu0 = procfs::cpu_s().expect("read /proc/self/stat");
        let run = run_matrix_sweep(cfg, &indexed, trials, sweep);
        let cpu = procfs::cpu_s().expect("read /proc/self/stat") - cpu0;
        let t1 = trace::now_ns();
        (run, t0, t1, cpu)
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut out: Rounds<T> = Rounds {
        rounds: Vec::new(),
        reference: Vec::new(),
        setup: Vec::new(),
        digest: 0,
        diverged: Vec::new(),
        stats: SweepStats::default(),
        errors: 0,
    };
    // A round starts only if it should end by the deadline (judged by
    // the previous round), and there are always at least two.
    let mut last = std::time::Duration::ZERO;
    while out.rounds.len() < 2 || Instant::now() + last <= deadline {
        let started = Instant::now();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            drop(std::hint::black_box(setup()));
            out.setup.push(t.elapsed().as_secs_f64());
        }
        let traced = args.trace && out.rounds.len() % 2 == 1;
        trace::take_chunks();
        let (run, t0, t1, cpu) = if traced {
            wrap(&composed)
        } else {
            wrap(&plain)
        };
        let chunks = trace::take_chunks();
        out.stats.merge(&run.stats);
        out.errors += run.cells.iter().flatten().filter(|r| r.is_err()).count() as u64;
        let digest = checks::digest_cells(&run.cells);
        if out.rounds.is_empty() {
            out.digest = digest;
            out.reference = run.cells;
        } else if digest != out.digest {
            out.diverged.push((out.rounds.len(), traced));
        }
        out.rounds.push(Round {
            traced,
            wall_s: (t1 - t0) as f64 * 1e-9,
            cpu_s: cpu,
            split: SweepSplit::of(workers, t0, t1, &chunks),
            chunks,
        });
        last = started.elapsed();
    }
    out
}

fn trial_latency(rounds: &[&Round]) -> stats::Latency {
    let per_round: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| {
            r.chunks
                .iter()
                .map(|c| c.root().dur() as f64 * 1e-6)
                .collect()
        })
        .collect();
    stats::Latency::of_windows(&per_round)
}

/// Metrics and checks every sweep workload shares.
fn finish<T>(args: &Args, out: &mut Outcome, r: &Rounds<T>) -> LayerTotals {
    // From the sweep's own slot count: a trial that panicked on every
    // attempt never closed its span.
    let trials = r.stats.trials;
    out.attempted += trials;
    out.failed += r.errors;
    println!(
        "rounds: {} ({} traced), {} trials attempted, {} errored, {} retried",
        r.rounds.len(),
        r.rounds.iter().filter(|x| x.traced).count(),
        trials,
        r.errors,
        r.stats.retried
    );
    for &(i, traced) in &r.diverged {
        let kind = if traced { "traced" } else { "untraced" };
        out.problem(format!(
            "{kind} round {i} produced results different from round 0"
        ));
    }
    checks::report_digest(&args.workload, args.seed, r.digest);

    let plain: Vec<&Round> = r.rounds.iter().filter(|x| !x.traced).collect();
    let traced: Vec<&Round> = r.rounds.iter().filter(|x| x.traced).collect();
    let median_of = |rs: &[&Round], f: fn(&Round) -> f64| {
        stats::median(&rs.iter().map(|x| f(x)).collect::<Vec<_>>())
    };
    let wall_u = median_of(&plain, |x| x.wall_s);
    let listed = |rs: &[&Round], f: fn(&Round) -> f64| {
        rs.iter()
            .map(|x| format!("{:.3}", f(x)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "untraced rounds: wall_s {} | cpu_s {}",
        listed(&plain, |x| x.wall_s),
        listed(&plain, |x| x.cpu_s)
    );
    let lat = trial_latency(&plain);
    stats::report_setup(&r.setup);
    out.set("setup_s", stats::median(&r.setup));
    out.set("wall_s", wall_u);
    out.set("cpu_s", median_of(&plain, |x| x.cpu_s));
    out.set("decode_p50_ms", lat.p50);
    out.set("decode_p95_ms", lat.p95);
    out.set("decode_p99_ms", lat.p99);
    println!("trial latency (untraced): {}", lat.describe("ms"));

    let mut totals = LayerTotals::default();
    if traced.is_empty() {
        return totals;
    }
    let n = traced.len() as f64;
    let mut split = SweepSplit::default();
    for t in &traced {
        totals.add(&t.chunks);
        split.add(&t.split);
    }
    let tlat = trial_latency(&traced);
    let coverage = (totals.layer_self_ns() + split.overhead_ns() + split.tail_idle_ns) as f64
        / split.capacity_ns().max(1) as f64;
    let overhead_pct = (median_of(&traced, |x| x.wall_s) / wall_u - 1.0) * 100.0;
    out.set("sweep.trials", split.trials as f64 / n);
    out.set("sweep.trial_p50_ms", tlat.p50);
    out.set("sweep.trial_p99_ms", tlat.p99);
    out.set("sweep.busy_frac", split.busy_frac());
    out.set("sweep.tail_idle_s", split.tail_idle_ns as f64 * 1e-9 / n);
    out.set(
        "sweep.overhead_us_per_trial",
        split.overhead_ns() as f64 * 1e-3 / split.trials.max(1) as f64,
    );
    let all_rounds = r.rounds.len() as f64;
    out.set("sweep.quarantined", r.stats.quarantined as f64 / all_rounds);
    out.set("sweep.retried", r.stats.retried as f64 / all_rounds);
    out.set("trace.coverage", coverage);
    out.set("trace.overhead_pct", overhead_pct);
    println!("trial latency (traced): {}", tlat.describe("ms"));
    println!(
        "sweep: busy {:.4} of {} workers x wall, tail idle {:.4} s/round, overhead {:.2} us/trial",
        split.busy_frac(),
        split.workers,
        split.tail_idle_ns as f64 * 1e-9 / n,
        split.overhead_ns() as f64 * 1e-3 / split.trials.max(1) as f64
    );
    checks::coverage(out, coverage, overhead_pct);
    let all: Vec<Chunk> = traced
        .iter()
        .flat_map(|t| t.chunks.iter().cloned())
        .collect();
    checks::write_spans(args, &all);
    totals
}

/// PHY layer metrics from traced rounds (per round where a count).
pub fn phy_metrics(out: &mut Outcome, totals: &LayerTotals, rounds: f64, decoded: u64) {
    let rates = ul_rates();
    for (layer, base) in [
        (Layer::ChannelNoise, "channel.noise.ns_per_sample"),
        (Layer::RxDecode, "rx.decode.ns_per_sample"),
    ] {
        out.set(base, totals.ns_per_sample(layer));
        for r in &rates {
            out.set(
                &format!("{base}.{}", rate_suffix(r.bps)),
                totals.ns_per_sample_at(layer, r.bps),
            );
        }
    }
    out.set(
        "channel.carrier.ns_per_sample",
        totals.ns_per_sample(Layer::ChannelCarrier),
    );
    out.set(
        "channel.tags.ns_per_sample",
        totals.ns_per_sample(Layer::ChannelTags),
    );
    out.set(
        "channel.samples",
        totals.samples(Layer::ChannelNoise) as f64 / rounds,
    );
    out.set(
        "tag.modulate.self_s",
        totals.self_ns(Layer::TagModulate) as f64 * 1e-9 / rounds,
    );
    let calls = totals.calls(Layer::RxDecode);
    out.set("rx.decode.calls", calls as f64 / rounds);
    out.set("rx.decode.ok_frac", decoded as f64 / calls.max(1) as f64);
    out.set("rx.snr.ns_per_sample", totals.ns_per_sample(Layer::RxSnr));
    out.set("rx.snr.calls", totals.calls(Layer::RxSnr) as f64 / rounds);
    checks::phy_shares(totals);
}

/// Compares rows built by the benchmark with an experiment report's.
fn same_rows(
    out: &mut Outcome,
    what: &str,
    mine: Vec<Vec<String>>,
    report: &Report,
    section: usize,
) {
    if report.sections[section].rows == mine {
        println!("equivalence ok: {what} per-cell results equal the experiment function's");
    } else {
        out.problem(format!(
            "{what} per-cell results differ from the experiment function's"
        ));
    }
}

struct UplinkCell {
    tid: u8,
    bps: f64,
    rx: UplinkReceiver,
}

fn uplink_setup(seed: u64) -> (WaveSim, Vec<UplinkCell>) {
    let sim = WaveSim::paper(seed);
    let cells = fig12::TAGS
        .iter()
        .flat_map(|&tid| ul_rates().into_iter().map(move |r| (tid, r.bps)))
        .map(|(tid, bps)| UplinkCell {
            tid,
            bps,
            rx: sim.uplink_rx(bps),
        })
        .collect();
    (sim, cells)
}

/// One Fig. 12 trial: decoded exactly, and the cell's SNR on trial 0.
type UplinkTrial = (bool, Option<f64>);

/// Fig. 12 rows (SNR, then loss) from `cells × n` trial results.
fn uplink_rows(
    cells: &[UplinkCell],
    results: &[Vec<TrialResult<UplinkTrial>>],
) -> [Vec<Vec<String>>; 2] {
    let per_tag = ul_rates().len();
    let mut rows = [Vec::new(), Vec::new()];
    for (tag_cells, tag_results) in cells.chunks(per_tag).zip(results.chunks(per_tag)) {
        let label = format!("Tag {}", tag_cells[0].tid);
        let mut snr = vec![label.clone()];
        let mut loss = vec![label];
        for cell in tag_results {
            let lost = cell.iter().filter(|r| !matches!(r, Ok((true, _)))).count();
            let db = cell
                .iter()
                .filter_map(|r| r.as_ref().ok().and_then(|(_, s)| *s))
                .next()
                .unwrap_or(f64::NAN);
            snr.push(f(db, 1));
            loss.push(format!("{lost}"));
        }
        rows[0].push(snr);
        rows[1].push(loss);
    }
    rows
}

pub fn uplink_sweep(args: &Args, out: &mut Outcome) {
    let cfg = sweep_config(args.seed);
    let (sim, cells) = uplink_setup(args.seed);
    let seed = args.seed;
    let plain = |c: &UplinkCell, trial: u64, s: u64| {
        with_phy_scratch(|sc| {
            let ok = sim.uplink_packet(&c.rx, c.tid, s, sc);
            let snr = (trial == 0).then(|| sim.uplink_snr(&c.rx, c.tid, sc));
            (ok, snr)
        })
    };
    let composed = |c: &UplinkCell, trial: u64, s: u64| {
        with_phy_scratch(|sc| {
            let pkt = phy::packet(seed, sim.channel(), &c.rx, c.tid, s, sc);
            let ok = phy::decode(&c.rx, pkt, sc);
            let snr = (trial == 0).then(|| phy::representative_snr(&sim, seed, &c.rx, c.tid, sc));
            (ok, snr)
        })
    };

    let small = run_matrix_sweep(&cfg, &cells, EQUIV_TRIALS, plain);
    let report = fig12::report(EQUIV_TRIALS, &cfg, false);
    let [snr_rows, loss_rows] = uplink_rows(&cells, &small.cells);
    same_rows(out, "fig12 SNR", snr_rows, &report, 0);
    same_rows(out, "fig12 loss", loss_rows, &report, 1);
    if args.trace {
        let checked: Result<(), String> = cells.iter().try_for_each(|c| {
            let base = sim.uplink_base_seed(c.tid, c.bps);
            (0..EQUIV_TRIALS).try_for_each(|i| {
                phy::check_against_wavesim(
                    &sim,
                    seed,
                    sim.channel(),
                    &c.rx,
                    c.tid,
                    trial_seed(base, i),
                )
            })
        });
        checks::trace_self_check(out, checked, cells.len() as u64 * EQUIV_TRIALS);
    }

    let r = run_rounds(
        args,
        &cfg,
        &cells,
        UPLINK_PACKETS,
        || uplink_setup(seed),
        plain,
        composed,
    );
    let totals = finish(args, out, &r);
    let n = UPLINK_PACKETS;
    let table: Vec<(u8, f64, u64, f64)> = cells
        .iter()
        .zip(&r.reference)
        .map(|(c, res)| {
            let lost = res.iter().filter(|x| !matches!(x, Ok((true, _)))).count() as u64;
            let snr = res
                .first()
                .and_then(|x| x.as_ref().ok())
                .and_then(|x| x.1)
                .unwrap_or(f64::NAN);
            (c.tid, c.bps, lost, snr)
        })
        .collect();
    checks::uplink_shape(out, &table, n);
    if args.trace {
        let traced_rounds = r.rounds.iter().filter(|x| x.traced).count() as f64;
        let sent = n * cells.len() as u64;
        let lost: u64 = table.iter().map(|t| t.2).sum();
        phy_metrics(
            out,
            &totals,
            traced_rounds,
            (sent - lost) * traced_rounds as u64,
        );
    }
}

/// The `dyn-drift` ladder: nominal, two fades, a long-ring epoch and a
/// noisy-floor epoch (`dyn_scenarios::report_drift`'s schedule).
fn drift_ladder() -> [(&'static str, ChannelDrift); 5] {
    [
        ("nominal", ChannelDrift::identity()),
        ("fade-25", ChannelDrift::fade(0.75)),
        ("fade-50", ChannelDrift::fade(0.5)),
        (
            "ring-2x",
            ChannelDrift {
                q_scale: 2.0,
                ..ChannelDrift::identity()
            },
        ),
        (
            "noise-3x",
            ChannelDrift {
                noise_scale: 3.0,
                ..ChannelDrift::identity()
            },
        ),
    ]
}

const DRIFT_TAGS: [u8; 3] = [8, 4, 11];

fn drift_setup(seed: u64) -> (WaveSim, TimeVaryingChannel) {
    let sim = WaveSim::paper(seed);
    let drifts: Vec<ChannelDrift> = drift_ladder().iter().map(|&(_, d)| d).collect();
    let tvc = TimeVaryingChannel::paper(sim.channel().config().clone(), &drifts);
    (sim, tvc)
}

fn drift_rows(results: &[Vec<TrialResult<Vec<UplinkResult>>>]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (&tid, cell) in DRIFT_TAGS.iter().zip(results) {
        let Some(Ok(per_epoch)) = cell.first() else {
            continue;
        };
        for ((name, _), r) in drift_ladder().iter().zip(per_epoch) {
            rows.push(vec![
                format!("Tag {tid}"),
                (*name).to_string(),
                format!("{}", r.sent),
                format!("{}", r.lost),
                f(r.snr_db, 1),
            ]);
        }
    }
    rows
}

pub fn drift_coarse(args: &Args, out: &mut Outcome) {
    let cfg = sweep_config(args.seed);
    let (sim, tvc) = drift_setup(args.seed);
    let seed = args.seed;
    let trial_of = |n: u64| {
        let (sim, tvc) = (&sim, &tvc);
        move |&tid: &u8, _t: u64, _s: u64| {
            sim.uplink_trial_drifting(tvc, tid, DRIFT_BPS, n, &mut Recorder::disabled())
        }
    };

    let small = run_matrix_sweep(&cfg, &DRIFT_TAGS, 1, trial_of(EQUIV_TRIALS));
    let report = dyn_scenarios::report_drift(EQUIV_TRIALS, &cfg, false);
    same_rows(out, "dyn-drift", drift_rows(&small.cells), &report, 0);
    if args.trace {
        let rx = sim.uplink_rx(DRIFT_BPS);
        let checked: Result<(), String> = DRIFT_TAGS.iter().try_for_each(|&tid| {
            let base = sim.uplink_base_seed(tid, DRIFT_BPS);
            (0..tvc.epoch_count()).try_for_each(|e| {
                let packet_seed = trial_seed(base, e as u64 * DRIFT_PACKETS);
                phy::check_against_wavesim(&sim, seed, tvc.channel_at(e), &rx, tid, packet_seed)
            })
        });
        checks::trace_self_check(out, checked, (DRIFT_TAGS.len() * tvc.epoch_count()) as u64);
    }

    let composed = |&tid: &u8, _t: u64, _s: u64| {
        with_phy_scratch(|sc| {
            phy::drifting_trial(&sim, seed, &tvc, tid, DRIFT_BPS, DRIFT_PACKETS, sc)
        })
    };
    let r = run_rounds(
        args,
        &cfg,
        &DRIFT_TAGS,
        1,
        || drift_setup(seed),
        trial_of(DRIFT_PACKETS),
        composed,
    );
    let totals = finish(args, out, &r);
    let ladder = drift_ladder();
    let table: Vec<(u8, &str, u64, f64)> = DRIFT_TAGS
        .iter()
        .zip(&r.reference)
        .filter_map(|(&tid, cell)| cell.first()?.as_ref().ok().map(|v| (tid, v)))
        .flat_map(|(tid, v)| {
            ladder
                .iter()
                .zip(v)
                .map(move |((name, _), x)| (tid, *name, x.lost, x.snr_db))
        })
        .collect();
    checks::drift_shape(out, &table, DRIFT_PACKETS);
    if args.trace {
        let traced_rounds = r.rounds.iter().filter(|x| x.traced).count() as f64;
        let sent = DRIFT_PACKETS * table.len() as u64;
        let lost: u64 = table.iter().map(|t| t.2).sum();
        phy_metrics(
            out,
            &totals,
            traced_rounds,
            (sent - lost) * traced_rounds as u64,
        );
    }
}

/// Fig. 15(a) rows from `patterns × n` convergence times.
fn slot_rows(patterns: &[Pattern], results: &[Vec<TrialResult<f64>>]) -> Vec<Vec<String>> {
    patterns
        .iter()
        .zip(results)
        .map(|(p, cell)| {
            let times: Vec<f64> = cell
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .copied()
                .collect();
            let s = five_num(&times);
            vec![
                p.name.to_string(),
                f(p.utilization(), 3),
                format!("{}", p.len()),
                f(s.min, 0),
                f(s.q1, 0),
                f(s.median, 0),
                f(s.q3, 0),
                f(s.max, 0),
            ]
        })
        .collect()
}

pub fn slot_mac(args: &Args, out: &mut Outcome) {
    let cfg = sweep_config(args.seed);
    let patterns = Pattern::fixed_tag_family();
    let plain = |p: &Pattern, _t: u64, s: u64| {
        first_convergence_trial(p, s, SLOT_CAP, false, false)
            .converged_at
            .unwrap_or(SLOT_CAP) as f64
    };
    let composed =
        |p: &Pattern, t: u64, s: u64| trace::span(Layer::SlotSim, 0, 0.0, || plain(p, t, s));

    let small = run_matrix_sweep(&cfg, &patterns, EQUIV_TRIALS, plain);
    let report = fig15::report_a(EQUIV_TRIALS, &cfg, false);
    same_rows(
        out,
        "fig15a",
        slot_rows(&patterns, &small.cells),
        &report,
        0,
    );

    let r = run_rounds(
        args,
        &cfg,
        &patterns,
        SLOT_TRIALS,
        Pattern::fixed_tag_family,
        plain,
        composed,
    );
    let totals = finish(args, out, &r);
    let times: Vec<Vec<f64>> = r
        .reference
        .iter()
        .map(|cell| {
            cell.iter()
                .filter_map(|x| x.as_ref().ok())
                .copied()
                .collect()
        })
        .collect();
    let slots: f64 = times.iter().flatten().map(|t| t + SLOT_WARMUP as f64).sum();
    checks::slot_shape(out, &patterns, &times, SLOT_CAP as f64);
    if args.trace {
        let traced_rounds = r.rounds.iter().filter(|x| x.traced).count() as f64;
        out.set("slotsim.slots", slots);
        out.set(
            "slotsim.ns_per_slot",
            totals.self_ns(Layer::SlotSim) as f64 / (slots * traced_rounds).max(1.0),
        );
        checks::phy_shares(&totals);
    }
}
