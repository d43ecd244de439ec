//! Fig. 12 — uplink SNR (a) and packet loss (b) vs bit rate.
//!
//! The (tag × rate × packet) trials fan out over `arachnet_sim::sweep`:
//! every packet is a pure function of its sweep seed, so the tables are
//! bit-identical at any `--threads` count.

use arachnet_core::rates::ul_rates;
use arachnet_reader::rx::UplinkReceiver;
use arachnet_sim::sweep::{run_matrix_sweep, SweepConfig};
use arachnet_sim::wavesim::{with_phy_scratch, WaveSim};

use crate::render::f;
use crate::report::{sent_lost, Experiment, ExperimentCtx, Report, Section};

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
/// for that rate (built once per cell, not per packet).
struct Cell {
    tid: u8,
    rx: UplinkReceiver,
}

/// Both panels at an explicit packet count (the trait impl picks 20/200).
/// Packets fan out over the sweep worker pool. With `observe`, per-tag
/// sent/lost counters ride along and the far tag (11) reruns its hardest
/// rate under a flight recorder so the trace carries the receiver's
/// stage-of-failure reasons.
pub fn report(n: u64, sweep: &SweepConfig, observe: bool) -> Report {
    let sim = WaveSim::paper(sweep.base_seed);
    let rates = ul_rates();
    let cells: Vec<Cell> = TAGS
        .iter()
        .flat_map(|&tid| {
            rates.iter().map(move |r| (tid, r.bps))
        })
        .map(|(tid, bps)| Cell {
            tid,
            rx: sim.uplink_rx(bps),
        })
        .collect();
    // Trial 0 of each cell also measures the representative-waveform SNR.
    let matrix = run_matrix_sweep(sweep, &cells, n, |cell, trial, seed| {
        with_phy_scratch(|s| {
            let ok = sim.uplink_packet(&cell.rx, cell.tid, seed, s);
            let snr = (trial == 0).then(|| sim.uplink_snr(&cell.rx, cell.tid, s));
            (ok, snr)
        })
    });
    let mut snr_rows = Vec::new();
    let mut loss_rows = Vec::new();
    let mut metrics = arachnet_obs::MetricSet::new();
    for (ti, &tid) in TAGS.iter().enumerate() {
        let mut snr_row = vec![format!("Tag {tid}")];
        let mut loss_row = vec![format!("Tag {tid}")];
        for (ri, _) in rates.iter().enumerate() {
            let cell = &matrix.cells[ti * rates.len() + ri];
            let (sent, lost) = sent_lost(cell, |&(ok, _)| ok);
            if observe {
                metrics.add_count(&format!("uplink.tag{tid}.sent"), sent);
                metrics.add_count(&format!("uplink.tag{tid}.lost"), lost);
                metrics.add_count("uplink.sent", sent);
                metrics.add_count("uplink.lost", lost);
            }
            let snr_db = cell
                .iter()
                .filter_map(|r| r.as_ref().ok().and_then(|(_, snr)| *snr))
                .next()
                .unwrap_or(f64::NAN);
            snr_row.push(f(snr_db, 1));
            loss_row.push(format!("{lost}"));
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
    let mut snapshot = arachnet_obs::RecorderSnapshot::empty();
    if observe {
        // Representative trace: the far tag at the fastest rate is where
        // losses concentrate, so its recorder ring shows *why* packets die
        // (stage-of-failure reasons from the receiver).
        let mut rec = arachnet_obs::Recorder::enabled(sweep.base_seed);
        let hardest = rates.last().map_or(3_000.0, |r| r.bps);
        sim.uplink_trial_observed(11, hardest, n, &mut rec);
        snapshot = rec.into_snapshot();
    }
    Report::sections(vec![
        Section::new(
            "Fig. 12(a) — Uplink SNR (dB) vs raw bit rate (bps)",
            &h,
            snr_rows,
        )
        .with_note(
            "paper: SNR falls with rate; Tag 8 > Tag 4 > Tag 11; Tag 8 > 11.7 dB at 3 kbps.",
        ),
        Section::new(
            format!("Fig. 12(b) — Uplink packets lost of {n} sent"),
            &h,
            loss_rows,
        )
        .with_note("paper: loss below 0.5 % at every rate, rising slightly with rate."),
    ])
    .with_metrics(metrics)
    .with_snapshot(snapshot)
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
    fn observed_run_counts_reconcile_with_the_loss_table() {
        let r = report(3, &SweepConfig::new(5), true);
        // 3 tags x 6 rates x 3 packets each.
        assert_eq!(r.metrics.get_count("uplink.sent"), Some(54));
        let per_tag: u64 = TAGS
            .iter()
            .filter_map(|t| r.metrics.get_count(&format!("uplink.tag{t}.lost")))
            .sum();
        assert_eq!(r.metrics.get_count("uplink.lost"), Some(per_tag));
    }
}
