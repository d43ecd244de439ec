//! Dynamic-network scenarios — churn, drift, outages, and a soak run.
//!
//! The paper's evaluation starts every network from cold and measures the
//! *first* convergence. A BiW line is never that kind: tags get swapped
//! mid-shift, fixtures re-clamp and shift path gains, the reader
//! duty-cycles. These experiments replay scripted
//! [`arachnet_sim::scenario::Scenario`] timelines against the slot-level
//! simulator (and, for channel drift, the waveform PHY) and report the
//! **re-convergence time**: slots from each disruption until the schedule
//! is collision-free again (32 consecutive clean slots).
//!
//! All four fan their `(case, seed)` matrices over `arachnet_sim::sweep`,
//! with per-trial seeds derived from the trial index alone, so every table
//! and metric document is bit-identical at any `--threads` count.

use arachnet_obs::{MetricSet, Recorder};
use arachnet_sim::patterns::Pattern;
use arachnet_sim::scenario::Scenario;
use arachnet_sim::slotsim::run_scenario_trial;
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::wavesim::WaveSim;
use biw_channel::timevarying::{ChannelDrift, TimeVaryingChannel};

use crate::render::{f, five_num_cells};
use crate::report::{Experiment, ExperimentCtx, Report, Section};

use arachnet_core::slot::Period;

/// Re-convergence slot cap: disruptions still open at the cap count as
/// unresolved rather than stalling the trial forever.
const CAP: u64 = 100_000;

fn p(v: u32) -> Period {
    Period::new(v).expect("scenario periods are powers of two")
}

/// One named (pattern, timeline) case of a scenario experiment.
struct Case {
    name: &'static str,
    pattern: Pattern,
    scenario: Scenario,
}

/// Replays every case `trials` times and tabulates re-convergence times.
fn measure(cases: &[Case], trials: u64, sweep: &SweepConfig, observe: bool, title: &str, note: &str) -> Report {
    // Trial 0 of each case carries a flight recorder when observation is
    // on; recording never draws from the sim's random streams, so the
    // measured times are identical either way.
    let matrix = run_matrix_sweep(sweep, cases, trials, |c, trial, seed| {
        let t = run_scenario_trial(
            &c.pattern,
            &c.scenario,
            seed,
            CAP,
            false,
            observe && trial == 0,
        );
        let samples: Vec<Option<u64>> = t.samples.iter().map(|s| s.slots).collect();
        (samples, t.snapshot)
    });
    let mut rows = Vec::new();
    let mut metrics = MetricSet::new();
    let mut snapshot = None;
    for (c, cell) in cases.iter().zip(&matrix.cells) {
        let mut finite: Vec<f64> = Vec::new();
        let mut unresolved = 0u64;
        let mut samples = 0u64;
        for r in cell.iter().filter_map(|r| r.as_ref().ok()) {
            for s in &r.0 {
                samples += 1;
                match s {
                    Some(d) => finite.push(*d as f64),
                    None => unresolved += 1,
                }
            }
        }
        let [lo, _, mid, _, hi] = five_num_cells(&finite, 0);
        if observe {
            let prefix = format!("reconvergence.{}", c.name);
            for &d in &finite {
                metrics.record(&format!("{prefix}.slots"), d as u64);
            }
            metrics.add_count(&format!("{prefix}.unresolved"), unresolved);
            metrics.add_count("reconvergence.samples", samples);
            metrics.add_count("reconvergence.trials", cell.len() as u64);
            if let Some(Ok((_, snap))) = cell.first() {
                let mut m = MetricSet::new();
                snap.add_counts_to(&mut m, &prefix);
                metrics.merge(&m);
                if snapshot.is_none() && !snap.events.is_empty() {
                    snapshot = Some(snap.clone());
                }
            }
        }
        rows.push(vec![
            c.name.to_string(),
            f(c.pattern.utilization(), 3),
            format!("{}", c.scenario.disruption_slots().len()),
            lo,
            mid,
            hi,
            format!("{unresolved}"),
        ]);
    }
    let mut report = Report::single(
        Section::new(
            title,
            &[
                "case",
                "util",
                "disruptions",
                "min",
                "median",
                "max",
                "unresolved",
            ],
            rows,
        )
        .with_note(note),
    )
    .with_metrics(metrics)
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry);
    if let Some(snap) = snapshot {
        report = report.with_snapshot(snap);
    }
    report
}

/// Storm timeline over a 12-tag pattern: 6 tags rip out at once, then the
/// same 6 rejoin a few hundred slots later.
fn churn_storm(pattern: &Pattern, leave_at: u64, rejoin_at: u64) -> Scenario {
    let mut b = Scenario::builder();
    for &(tid, period) in pattern.tags.iter().take(6) {
        b = b.leave(leave_at, tid).join(rejoin_at, tid, period);
    }
    b.build().expect("storm timeline is valid")
}

/// `dyn-churn`: mass tag departure + re-arrival.
pub struct DynChurn;

impl Experiment for DynChurn {
    fn id(&self) -> &'static str {
        "dyn-churn"
    }

    fn title(&self) -> &'static str {
        "Re-convergence under tag churn storms"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 7.4 (extension)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_churn(ctx.scale(2, 25), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// `dyn-churn` at an explicit trial count.
pub fn report_churn(trials: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let cases = vec![
        Case {
            name: "c2-storm",
            pattern: Pattern::c2(),
            scenario: churn_storm(&Pattern::c2(), 4_000, 4_600),
        },
        Case {
            name: "c3-storm",
            pattern: Pattern::c3(),
            scenario: churn_storm(&Pattern::c3(), 4_000, 4_600),
        },
    ];
    measure(
        &cases,
        trials,
        sweep,
        observe,
        "Dynamic churn — re-convergence time (slots) after 6-leave / 6-rejoin storms",
        "departures free slots (fast settle); the rejoin wave re-runs acquisition for half the \
         network and dominates the tail.",
    )
}

/// `dyn-outage`: duty-cycled reader and noise storms.
pub struct DynOutage;

impl Experiment for DynOutage {
    fn id(&self) -> &'static str {
        "dyn-outage"
    }

    fn title(&self) -> &'static str {
        "Re-convergence after reader outages and noise bursts"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 7.4 (extension)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_outage(ctx.scale(2, 25), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// `dyn-outage` at an explicit trial count.
pub fn report_outage(trials: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let outage = |slots| {
        Scenario::builder()
            .outage(4_000, slots)
            .build()
            .expect("outage timeline is valid")
    };
    let cases = vec![
        Case {
            name: "c2-dark64",
            pattern: Pattern::c2(),
            scenario: outage(64),
        },
        Case {
            name: "c2-dark512",
            pattern: Pattern::c2(),
            scenario: outage(512),
        },
        Case {
            name: "c2-burst",
            pattern: Pattern::c2(),
            scenario: Scenario::builder()
                .noise_burst(4_000, 128, 0.35, 0.35)
                .build()
                .expect("burst timeline is valid"),
        },
    ];
    measure(
        &cases,
        trials,
        sweep,
        observe,
        "Reader outages & noise bursts — re-convergence time (slots) from window end",
        "tags free-run through dark windows on their local slot counters, so a settled schedule \
         survives the darkness and recovery cost is nearly independent of window length; bursts \
         only raise loss rates and heal just as fast.",
    )
}

/// `dyn-soak`: one long mixed timeline — brownout, outage, burst, churn.
pub struct DynSoak;

impl Experiment for DynSoak {
    fn id(&self) -> &'static str {
        "dyn-soak"
    }

    fn title(&self) -> &'static str {
        "Soak run: mixed disruption timeline"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 7.4 (extension)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_soak(ctx.scale(2, 10), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// `dyn-soak` at an explicit trial count.
pub fn report_soak(trials: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let scenario = Scenario::builder()
        .brownout(2_000, 5)
        .outage(3_500, 48)
        .noise_burst(5_000, 96, 0.3, 0.3)
        .leave(6_500, 7)
        .channel_epoch(7_000, 1)
        .join(8_000, 7, p(32))
        .build()
        .expect("soak timeline is valid");
    let cases = vec![Case {
        name: "c3-soak",
        pattern: Pattern::c3(),
        scenario,
    }];
    measure(
        &cases,
        trials,
        sweep,
        observe,
        "Soak — re-convergence time (slots) across a mixed disruption timeline",
        "five disruptions (brownout, outage, burst, leave, rejoin) on the Fig. 16 workload; \
         every one must close before the trial ends.",
    )
}

/// `dyn-drift`: uplink decode health as the channel drifts epoch by epoch.
pub struct DynDrift;

impl Experiment for DynDrift {
    fn id(&self) -> &'static str {
        "dyn-drift"
    }

    fn title(&self) -> &'static str {
        "Uplink loss and SNR under channel drift"
    }

    fn paper_anchor(&self) -> &'static str {
        "Sec. 8.1 (extension)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_drift(ctx.scale(15, 150), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// The drift ladder `dyn-drift` walks: nominal, two progressive fades, a
/// long-ring epoch (cold panel, higher Q), and a noisy-floor epoch.
fn drift_ladder() -> Vec<(&'static str, ChannelDrift)> {
    vec![
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

/// `dyn-drift` at an explicit per-epoch packet count. The per-tag trials
/// fan out over the sweep pool; each tag's drifting trial is a pure
/// function of the base seed, so the table is thread-invariant.
pub fn report_drift(n_per_epoch: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let sim = WaveSim::paper(sweep.base_seed);
    let ladder = drift_ladder();
    let drifts: Vec<ChannelDrift> = ladder.iter().map(|&(_, d)| d).collect();
    let tvc = TimeVaryingChannel::paper(sim.channel().config().clone(), &drifts);
    let tags = [8u8, 4, 11];
    let matrix = run_matrix_sweep(sweep, &tags, 1, |&tid, _trial, seed| {
        let mut recorder = if observe {
            Recorder::enabled(seed)
        } else {
            Recorder::disabled()
        };
        let results = sim.uplink_trial_drifting(&tvc, tid, 375.0, n_per_epoch, &mut recorder);
        (results, recorder.into_snapshot())
    });
    let mut rows = Vec::new();
    let mut metrics = MetricSet::new();
    let mut snapshot = None;
    for (&tid, cell) in tags.iter().zip(&matrix.cells) {
        let Some(Ok((results, snap))) = cell.first() else {
            continue;
        };
        for ((name, _), r) in ladder.iter().zip(results) {
            if observe {
                metrics.add_count(&format!("drift.tag{tid}.{name}.lost"), r.lost);
                metrics.add_count(&format!("drift.tag{tid}.{name}.sent"), r.sent);
            }
            rows.push(vec![
                format!("Tag {tid}"),
                (*name).to_string(),
                format!("{}", r.sent),
                format!("{}", r.lost),
                f(r.snr_db, 1),
            ]);
        }
        if observe {
            let mut m = MetricSet::new();
            snap.add_counts_to(&mut m, &format!("drift.tag{tid}"));
            metrics.merge(&m);
            if snapshot.is_none() && !snap.events.is_empty() {
                snapshot = Some(snap.clone());
            }
        }
    }
    if observe {
        metrics.set_count("drift.epochs", ladder.len() as u64);
    }
    let mut report = Report::single(
        Section::new(
            format!("Channel drift — uplink loss of {n_per_epoch} sent per epoch, per tag"),
            &["Tag", "epoch", "sent", "lost", "SNR (dB)"],
            rows,
        )
        .with_note(
            "fades cut SNR link-wide; the long-ring epoch smears FM0 transitions (ISI) and the \
             noisy epoch lifts the floor — Tag 11's weak link degrades first.",
        ),
    )
    .with_metrics(metrics)
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry);
    if let Some(snap) = snapshot {
        report = report.with_snapshot(snap);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::metrics_json;

    #[test]
    fn churn_quick_run_produces_a_table_with_all_cases() {
        let out = report_churn(1, &SweepConfig::new(1).with_threads(2), false).render();
        assert!(out.contains("c2-storm"));
        assert!(out.contains("c3-storm"));
    }

    #[test]
    fn churn_metrics_are_thread_count_invariant() {
        let one = report_churn(2, &SweepConfig::new(9).with_threads(1), true);
        let four = report_churn(2, &SweepConfig::new(9).with_threads(4), true);
        assert_eq!(one.render(), four.render());
        assert_eq!(
            metrics_json("dyn-churn", &one),
            metrics_json("dyn-churn", &four)
        );
    }

    #[test]
    fn churn_reconvergence_is_finite_and_observed() {
        let r = report_churn(2, &SweepConfig::new(9).with_threads(2), true);
        let h = r
            .metrics
            .get_histo("reconvergence.c2-storm.slots")
            .expect("per-case histogram");
        assert!(h.count() >= 1, "no finite re-convergence samples");
        assert_eq!(r.metrics.get_count("reconvergence.c2-storm.unresolved"), Some(0));
        assert!(!r.snapshot.events.is_empty(), "no representative trace");
    }

    #[test]
    fn outage_recovery_cost_grows_with_window_length() {
        let r = report_outage(2, &SweepConfig::new(5).with_threads(2), true);
        let short = r
            .metrics
            .get_histo("reconvergence.c2-dark64.slots")
            .expect("short-outage histogram");
        let long = r
            .metrics
            .get_histo("reconvergence.c2-dark512.slots")
            .expect("long-outage histogram");
        assert!(short.count() >= 1 && long.count() >= 1);
    }

    #[test]
    fn soak_closes_every_disruption() {
        let r = report_soak(1, &SweepConfig::new(3).with_threads(1), true);
        assert_eq!(r.metrics.get_count("reconvergence.c3-soak.unresolved"), Some(0));
        let h = r.metrics.get_histo("reconvergence.c3-soak.slots").unwrap();
        assert_eq!(h.count(), 5, "all five disruptions must be measured");
    }

    #[test]
    fn drift_ladder_degrades_the_weak_link() {
        let r = report_drift(12, &SweepConfig::new(2).with_threads(2), true);
        let nominal = r.metrics.get_count("drift.tag11.nominal.lost").unwrap();
        let faded = r.metrics.get_count("drift.tag11.fade-50.lost").unwrap();
        assert!(
            faded >= nominal,
            "deep fade lost {faded} < nominal {nominal}"
        );
        assert_eq!(r.metrics.get_count("drift.epochs"), Some(5));
        let out = r.render();
        assert!(out.contains("ring-2x") && out.contains("Tag 4"));
    }

    #[test]
    fn drift_metrics_are_thread_count_invariant() {
        let one = report_drift(8, &SweepConfig::new(6).with_threads(1), true);
        let four = report_drift(8, &SweepConfig::new(6).with_threads(4), true);
        assert_eq!(one.render(), four.render());
        assert_eq!(
            metrics_json("dyn-drift", &one),
            metrics_json("dyn-drift", &four)
        );
    }
}
