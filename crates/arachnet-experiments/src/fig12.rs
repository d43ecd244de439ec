//! Fig. 12 — uplink SNR (a) and packet loss (b) vs bit rate.
//!
//! The (tag × rate × packet) trials fan out over `arachnet_sim::sweep`:
//! every packet is a pure function of its sweep seed, so the tables are
//! bit-identical at any `--threads` count.

use arachnet_core::rates::ul_rates;
use arachnet_obs::{EventKind, Recorder};
use arachnet_reader::rx::UplinkReceiver;
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::wavesim::{with_phy_scratch, WaveSim};

use crate::report::{sent_lost, Cell, Experiment, ExperimentCtx, Num, Report, Section};

/// Tags the paper evaluates (near / junction / far).
pub const TAGS: [u8; 3] = [8, 4, 11];

/// Fig. 12 experiment, both panels: SNR and loss for Tags 8/4/11 across
/// the six UL rates. `n = 1000` matches the paper but takes minutes; quick
/// mode preserves the shape with 20 packets per point.
pub struct Fig12;

impl Experiment for Fig12 {
    fn id(&self) -> &'static str {
        "fig12a12b"
    }

    fn title(&self) -> &'static str {
        "Uplink SNR and packet loss vs bit rate"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 12"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report(ctx.scale(20, 200), &ctx.sweep_for(self.id()), ctx.observe())
    }
}

/// One point of the Fig. 12 matrix: a tag, a rate, and the receiver tuned
/// for that rate (built once per point, not per packet).
struct Point {
    tid: u8,
    rx: UplinkReceiver,
}

/// Both panels at an explicit packet count (the trait impl picks 20/200).
/// Packets fan out over the sweep worker pool, and each returns its
/// decode outcome. With `observe`, the report's flight recorder gets the
/// table's own packets in trial order: decodes are counted, and losses
/// land in the ring with the receiver's stage-of-failure reason (slot =
/// sweep job index, `(tag × 6 + rate) × n + packet`: unique per packet).
pub fn report(n: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let sim = WaveSim::paper(sweep.base_seed);
    let rates = ul_rates();
    let points: Vec<Point> = TAGS
        .iter()
        .flat_map(|&tid| rates.iter().map(move |r| (tid, r.bps)))
        .map(|(tid, bps)| Point {
            tid,
            rx: sim.uplink_rx(bps),
        })
        .collect();
    // Trial 0 of each point also measures the representative-waveform SNR.
    let matrix = run_matrix_sweep(sweep, &points, n, |p, trial, seed| {
        with_phy_scratch(|s| {
            let outcome = match sim.uplink_decode(&p.rx, p.tid, seed, s) {
                Ok(()) => EventKind::Decoded,
                Err(reason) => EventKind::DecodeFail { reason },
            };
            let snr = (trial == 0).then(|| sim.uplink_snr(&p.rx, p.tid, s));
            (outcome, snr)
        })
    });
    let mut recorder = if observe {
        Recorder::enabled(sweep.base_seed)
    } else {
        Recorder::disabled()
    };
    let mut snr_rows = Vec::new();
    let mut loss_rows = Vec::new();
    for (ti, &tid) in TAGS.iter().enumerate() {
        let mut snr_row = vec![Cell::label(format!("Tag {tid}"))];
        let mut loss_row = snr_row.clone();
        for ri in 0..rates.len() {
            let point = ti * rates.len() + ri;
            let cell = &matrix.cells[point];
            for (trial, r) in cell.iter().enumerate() {
                let job = point as u64 * n + trial as u64;
                match r {
                    Ok((EventKind::Decoded, _)) => recorder.note(EventKind::Decoded),
                    Ok((outcome, _)) => recorder.record(job, tid, *outcome),
                    Err(_) => {}
                }
            }
            let (_, lost) = sent_lost(cell, |&(outcome, _)| outcome == EventKind::Decoded);
            let snr_db = cell
                .iter()
                .find_map(|r| r.as_ref().ok().and_then(|(_, snr)| *snr))
                .unwrap_or(f64::NAN);
            snr_row.push(Num::Real(snr_db, 1).into());
            loss_row.push(Num::Int(lost).into());
        }
        snr_rows.push(snr_row);
        loss_rows.push(loss_row);
    }
    let headers: Vec<String> = std::iter::once("Tag".to_string())
        .chain(rates.iter().map(|r| {
            format!("{:.5}", r.bps)
                .trim_end_matches('0')
                .trim_end_matches('.')
                .to_string()
        }))
        .collect();
    let h: Vec<&str> = headers.iter().map(String::as_str).collect();
    Report::sections(vec![
        Section::new(
            "snr",
            "Fig. 12(a) — Uplink SNR (dB) vs raw bit rate (bps)",
            &h,
            snr_rows,
        )
        .with_note(Cell::label(
            "paper: SNR falls with rate; Tag 8 > Tag 4 > Tag 11; Tag 8 > 11.7 dB at 3 kbps.",
        )),
        Section::new(
            "lost",
            format!("Fig. 12(b) — Uplink packets lost of {n} sent"),
            &h,
            loss_rows,
        )
        .with_note(Cell::label(
            "paper: loss below 0.5 % at every rate, rising slightly with rate.",
        )),
    ])
    .with_snapshot(recorder.into_snapshot())
    .with_sweep(matrix.stats)
    .with_telemetry(matrix.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_all_rates() {
        let out = report(2, &SweepConfig::new(1), false).render();
        assert!(out.contains("93.75"));
        assert!(out.contains("3000"));
        assert!(out.contains("Tag 11"));
    }

    #[test]
    fn thread_count_does_not_change_the_tables() {
        let one = report(3, &SweepConfig::new(5).with_threads(1), true);
        let four = report(3, &SweepConfig::new(5).with_threads(4), true);
        assert_eq!(one.render(), four.render());
        assert_eq!(
            crate::report::metrics_json("fig12a12b", &one),
            crate::report::metrics_json("fig12a12b", &four)
        );
    }

    #[test]
    fn event_counts_are_the_loss_tables_own_packets() {
        for threads in [1, 4] {
            let r = report(3, &SweepConfig::new(5).with_threads(threads), true);
            let m = crate::report::export_metrics(&r);
            // 3 tags x 6 rates x 3 packets each.
            let sent = m.get_count("sweep.completed").unwrap();
            assert_eq!(sent, 54);
            let lost: u64 = r
                .measured()
                .iter()
                .filter(|(key, _)| key.starts_with("lost."))
                .map(|(key, _)| m.get_count(key).unwrap())
                .sum();
            let count = |kind: &str| m.get_count(&format!("sim.events.{kind}")).unwrap_or(0);
            assert_eq!(count("decode_fail"), lost, "threads {threads}");
            assert_eq!(count("decoded"), sent - lost, "threads {threads}");
        }
    }
}
