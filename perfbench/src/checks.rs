//! Output checks: simulated-result digests, paper shape checks, and the
//! trace's own consistency checks.
//!
//! Shape checks hold for any correct noise stream; a broken one makes
//! every operation of the run count as failed. Paper numbers the
//! reproduction is known to miss (EXPERIMENTS.md, "Summary of known
//! deviations") are printed with a label instead of failing.

use std::path::PathBuf;

use arachnet_core::rates::ul_rates;
use arachnet_sim::codec::TrialCodec;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::sweep::TrialResult;

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::{Chunk, Layer, LayerTotals};
use crate::Args;

/// `|trace.coverage − 1|` above this fails a traced run.
const COVERAGE_TOLERANCE: f64 = 0.02;

/// Paper Sec. 6.1: uplink loss stays below 0.5 %.
const PAPER_MAX_LOSS: f64 = 0.005;

/// Stored `sim_digest` per workload and seed (see README.md).
const STORED: &str = include_str!("../digests.txt");

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of every trial result of a sweep, from their exact encodings.
pub fn digest_cells<T: TrialCodec>(cells: &[Vec<TrialResult<T>>]) -> u64 {
    let mut buf = Vec::new();
    for cell in cells {
        buf.extend_from_slice(&(cell.len() as u64).to_le_bytes());
        for r in cell {
            match r {
                Ok(v) => {
                    buf.push(0);
                    v.encode(&mut buf);
                }
                Err(e) => {
                    buf.push(1);
                    buf.extend_from_slice(e.payload.as_bytes());
                }
            }
        }
    }
    fnv1a(&buf)
}

fn stored(workload: &str, seed: u64) -> Option<u64> {
    STORED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Prints the run's digest and how it compares with the stored one. A
/// mismatch is reported, not failed: a change may alter the simulated
/// results on purpose.
pub fn report_digest(workload: &str, seed: u64, digest: u64) {
    let verdict = match stored(workload, seed) {
        Some(d) if d == digest => "equals the stored digest".to_string(),
        Some(d) => format!("DIFFERS from the stored digest {d:016x}"),
        None => "no digest stored for this seed".to_string(),
    };
    println!("sim_digest {workload} {seed} {digest:016x} ({verdict})");
}

pub fn trace_self_check(out: &mut Outcome, checked: Result<(), String>, packets: u64) {
    match checked {
        Ok(()) => println!(
            "trace self-check ok: composed PHY path bit-identical to WaveSim on {packets} sampled packets"
        ),
        Err(e) => out.problem(format!("trace self-check: {e}")),
    }
}

pub fn coverage(out: &mut Outcome, coverage: f64, overhead_pct: f64) {
    println!("trace.coverage {coverage:.4} (tolerance ±{COVERAGE_TOLERANCE}), trace.overhead_pct {overhead_pct:.2}");
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        out.problem(format!(
            "trace coverage {coverage:.4} is not within {COVERAGE_TOLERANCE} of 1"
        ));
    }
}

/// Prints each layer's share of the traced self time below the root.
pub fn phy_shares(totals: &LayerTotals) {
    let all = totals.layer_self_ns().max(1) as f64;
    let shares: Vec<String> = totals
        .by_layer
        .iter()
        .filter(|(l, _)| **l != Layer::Trial)
        .map(|(l, e)| format!("{} {:.1} %", l.name(), 100.0 * e.0 as f64 / all))
        .collect();
    if shares.is_empty() {
        println!("layer self-time shares: no layer spans");
    } else {
        println!("layer self-time shares: {}", shares.join(", "));
    }
}

/// Writes the traced run's spans under `.perfbench/` in the working
/// directory. A write failure is reported, not failed.
pub fn write_spans(args: &Args, chunks: &[Chunk]) {
    let path =
        PathBuf::from(".perfbench").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match crate::trace::write_spans(&path, chunks) {
        Ok(()) => println!(
            "spans: {} trials written to {}",
            chunks.len(),
            path.display()
        ),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

fn loss_pct(lost: u64, sent: u64) -> f64 {
    100.0 * lost as f64 / sent.max(1) as f64
}

/// Fig. 12 checks over `(tag, rate, lost, snr)` rows of `n` packets.
pub fn uplink_shape(out: &mut Outcome, table: &[(u8, f64, u64, f64)], n: u64) {
    let at = |tid: u8, bps: f64| table.iter().find(|t| t.0 == tid && t.1 == bps).copied();
    let ordered = ul_rates().iter().all(|r| {
        let snr = |t| at(t, r.bps).map_or(f64::NAN, |x| x.3);
        snr(8) > snr(4) && snr(4) > snr(11)
    });
    out.shape(
        ordered,
        "Fig. 12(a): SNR Tag 8 > Tag 4 > Tag 11 at every rate",
    );
    let low_loss = table
        .iter()
        .filter(|t| t.0 != 11)
        .all(|t| (t.2 as f64) < PAPER_MAX_LOSS * n as f64);
    out.shape(
        low_loss,
        "Fig. 12(b): Tags 8 and 4 lose under 0.5 % at every rate",
    );
    if let Some(t8) = at(8, 3000.0) {
        println!(
            "paper: Tag 8 SNR at 3 kbps {:.1} dB (paper: above 11.7 dB)",
            t8.3
        );
    }
    for bps in [1500.0, 3000.0] {
        if let Some(t) = at(11, bps) {
            println!(
                "known deviation (EXPERIMENTS.md 2): Tag 11 lost {}/{n} = {:.1} % at {bps} bps (paper: under 0.5 %)",
                t.2,
                loss_pct(t.2, n)
            );
        }
    }
    println!(
        "known deviation (EXPERIMENTS.md 4): absolute SNR is set by a white simulated noise floor"
    );
}

/// `dyn-drift` checks over `(tag, epoch, lost, snr)` rows of `n` packets.
pub fn drift_shape(out: &mut Outcome, table: &[(u8, &str, u64, f64)], n: u64) {
    let at = |tid: u8, epoch: &str| table.iter().find(|t| t.0 == tid && t.1 == epoch).copied();
    let snr = |tid, epoch| at(tid, epoch).map_or(f64::NAN, |x| x.3);
    let lost = |tid, epoch| at(tid, epoch).map_or(u64::MAX, |x| x.2);
    out.shape(
        snr(8, "nominal") > snr(4, "nominal") && snr(4, "nominal") > snr(11, "nominal"),
        "drift nominal epoch: SNR Tag 8 > Tag 4 > Tag 11",
    );
    out.shape(
        [8, 4]
            .iter()
            .all(|&t| (lost(t, "nominal") as f64) < PAPER_MAX_LOSS * n as f64),
        "drift nominal epoch: Tags 8 and 4 lose under 0.5 %",
    );
    out.shape(
        [4, 11].iter().all(|&t| {
            snr(t, "nominal") > snr(t, "fade-25") && snr(t, "fade-25") > snr(t, "fade-50")
        }),
        "drift fades: SNR of Tags 4 and 11 falls nominal > fade-25 > fade-50",
    );
    out.shape(
        lost(11, "fade-50") >= lost(11, "nominal") && lost(11, "noise-3x") >= lost(11, "nominal"),
        "drift: Tag 11 loses at least as much under fade-50 and noise-3x as nominal",
    );
    println!(
        "extension (no paper number): Tag 11 lost {}/{n} nominal, {}/{n} fade-50, {}/{n} noise-3x",
        lost(11, "nominal"),
        lost(11, "fade-50"),
        lost(11, "noise-3x")
    );
}

/// Fig. 15(a) checks over each pattern's convergence times.
pub fn slot_shape(out: &mut Outcome, patterns: &[Pattern], times: &[Vec<f64>], cap: f64) {
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let rising = medians.windows(2).all(|w| w[0] <= w[1]) && medians.first() < medians.last();
    out.shape(rising, "Fig. 15(a): median convergence rises from c1 to c5");
    out.shape(
        times.iter().flatten().all(|&t| t < cap),
        "Fig. 15(a): every trial converges before the slot cap",
    );
    let named: Vec<String> = patterns
        .iter()
        .zip(&medians)
        .map(|(p, m)| format!("{} {m}", p.name))
        .collect();
    println!("convergence medians (slots): {}", named.join(", "));
    if let (Some(c1), Some(c5)) = (medians.first(), medians.last()) {
        println!("known deviation (EXPERIMENTS.md 3): c1 median {c1} slots (paper: 139)");
        println!("paper: c5 median {c5} slots (paper: 1712)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig12_table() -> Vec<(u8, f64, u64, f64)> {
        let mut t = Vec::new();
        for (tid, base) in [(8u8, 21.0), (4, 17.0), (11, 12.0)] {
            for r in ul_rates() {
                t.push((tid, r.bps, 0, base - r.bps / 1000.0));
            }
        }
        t
    }

    #[test]
    fn uplink_shape_accepts_the_paper_ordering() {
        let mut out = Outcome::default();
        uplink_shape(&mut out, &fig12_table(), 20);
        assert!(out.problems.is_empty() && !out.shape_broken);
    }

    #[test]
    fn uplink_shape_rejects_a_doctored_result() {
        // Tag 4 beats Tag 8 at one rate.
        let mut doctored = fig12_table();
        doctored[ul_rates().len() + 2].3 = 30.0;
        let mut out = Outcome::default();
        uplink_shape(&mut out, &doctored, 20);
        assert!(out.shape_broken);
        // Tag 8 losing one packet in 20 breaks the 0.5 % bound.
        let mut lossy = fig12_table();
        lossy[0].2 = 1;
        let mut out = Outcome::default();
        uplink_shape(&mut out, &lossy, 20);
        assert!(out.shape_broken);
    }

    #[test]
    fn slot_shape_rejects_falling_medians_and_capped_trials() {
        let patterns = Pattern::fixed_tag_family();
        let rising: Vec<Vec<f64>> = (1..=5).map(|i| vec![100.0 * f64::from(i); 3]).collect();
        let mut out = Outcome::default();
        slot_shape(&mut out, &patterns, &rising, 1e6);
        assert!(!out.shape_broken);
        let mut falling = rising.clone();
        falling.swap(0, 4);
        let mut out = Outcome::default();
        slot_shape(&mut out, &patterns, &falling, 1e6);
        assert!(out.shape_broken);
        let mut out = Outcome::default();
        slot_shape(&mut out, &patterns, &rising, 500.0);
        assert!(out.shape_broken);
    }

    #[test]
    fn digest_tracks_every_bit_of_the_results() {
        let a: Vec<Vec<TrialResult<f64>>> = vec![vec![Ok(1.0), Ok(2.0)]];
        let b: Vec<Vec<TrialResult<f64>>> =
            vec![vec![Ok(1.0), Ok(f64::from_bits(2.0f64.to_bits() + 1))]];
        assert_eq!(digest_cells(&a), digest_cells(&a.clone()));
        assert_ne!(digest_cells(&a), digest_cells(&b));
    }

    #[test]
    fn stored_digests_parse() {
        assert!(STORED.lines().filter(|l| !l.starts_with('#')).all(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() == 3 && stored(f[0], f[1].parse().expect("seed")).is_some()
        }));
    }
}
