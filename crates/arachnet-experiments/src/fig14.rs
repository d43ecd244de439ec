//! Fig. 14 — the ping-pong test: raw waveform (a) and latency CDF (b).

use arachnet_sim::metrics::Ecdf;
use arachnet_sim::sweep::{run_sweep, SweepConfig};
use arachnet_sim::wavesim::WaveSim;
use biw_channel::noise::NoiseConfig;

use crate::render::f;
use crate::report::{Experiment, ExperimentCtx, Report, Section};

/// Fig. 14(a): synthesizes one ping-pong waveform and prints its envelope
/// profile — DL burst, 20 ms guard, UL backscatter.
pub struct Fig14a;

impl Experiment for Fig14a {
    fn id(&self) -> &'static str {
        "fig14a"
    }

    fn title(&self) -> &'static str {
        "Ping-pong raw waveform envelope"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 14(a)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        let sim = WaveSim::new(ctx.seed(), NoiseConfig::silent());
        let (wave, fs) = sim.ping_pong_waveform(8);
        // Envelope in 5 ms bins.
        let bin = (0.005 * fs) as usize;
        let mut rows = Vec::new();
        let mut t = 0.0;
        for chunk in wave.chunks(bin) {
            let rms = (chunk.iter().map(|x| x * x).sum::<f64>() / chunk.len() as f64).sqrt();
            let bar = "#".repeat(((rms / 3.0) * 40.0).min(60.0) as usize);
            rows.push(vec![f(t * 1e3, 0), f(rms, 3), bar]);
            t += 0.005;
        }
        Report::single(
            Section::new(
                "Fig. 14(a) — Ping-pong raw waveform (reader RX), 5 ms RMS envelope",
                &["t (ms)", "RMS", ""],
                rows,
            )
            .with_note(
                "paper: a strong DL beacon, a polite 20 ms tag wait, then the UL packet riding \
                 on the carrier leak.",
            ),
        )
    }
}

/// Fig. 14(b): CDF of ping-pong delay over `n` rounds, split into the
/// paper's two stages.
pub struct Fig14b;

impl Experiment for Fig14b {
    fn id(&self) -> &'static str {
        "fig14b"
    }

    fn title(&self) -> &'static str {
        "Ping-pong delay CDF"
    }

    fn paper_anchor(&self) -> &'static str {
        "Fig. 14(b)"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Report {
        report_b(ctx.scale(200, 1_000) as usize, &ctx.sweep_for(self.id()))
    }
}

/// Fig. 14(b) at an explicit round count (the trait impl picks 200/1000).
/// Rounds fan out over the sweep worker pool; each is a pure function of
/// its sweep seed, so the CDF is bit-identical at any thread count.
pub fn report_b(n: usize, sweep: &SweepConfig) -> Report {
    let sim = WaveSim::paper(sweep.base_seed);
    let run = run_sweep(sweep, n as u64, |_i, seed| {
        let p = sim.ping_pong_sample(seed);
        (p.stage1_s, p.stage2_s)
    });
    let samples: Vec<(f64, f64)> = run
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .copied()
        .collect();
    let stage1: Vec<f64> = samples.iter().map(|p| p.0).collect();
    let stage2: Vec<f64> = samples.iter().map(|p| p.1).collect();
    // `PingPong::total`: the two stages summed.
    let total: Vec<f64> = samples.iter().map(|(s1, s2)| s1 + s2).collect();
    let rows: Vec<Vec<String>> = [
        ("Stage 1 (DL)", &stage1),
        ("Stage 2 (DL end→UL decoded)", &stage2),
        ("Total", &total),
    ]
    .iter()
    .map(|(name, v)| {
        let e = Ecdf::new(v);
        vec![
            name.to_string(),
            quantile_ms(&e, 0.5),
            quantile_ms(&e, 0.9),
            quantile_ms(&e, 0.99),
        ]
    })
    .collect();
    let e2 = Ecdf::new(&stage2);
    let guard_ul = 0.020 + 2.0 * 32.0 / 375.0;
    let software = arachnet_sim::metrics::mean(&stage2) - guard_ul;
    Report::single(
        Section::new(
            format!("Fig. 14(b) — Ping-pong delay CDF over {n} rounds (ms)"),
            &["stage", "p50", "p90", "p99"],
            rows,
        )
        .with_note(format!(
            "stage-2 p99 = {} ms (paper: 99 % under 281.9 ms); mean software delay = {:.1} \
             ms (paper: ~58.9 ms),\nwhich is {:.0} % of the ~200 ms UL slot cost (paper: <30 %).",
            quantile_ms(&e2, 0.99),
            software * 1e3,
            software / guard_ul * 100.0
        )),
    )
    .with_sweep(run.stats)
    .with_telemetry(run.telemetry)
}

/// Quantile `q` of a latency CDF in ms, or `-` when a partial run left it
/// without samples.
fn quantile_ms(e: &Ecdf, q: f64) -> String {
    if e.is_empty() {
        return "-".to_string();
    }
    f(e.quantile(q) * 1e3, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14a_shows_phases() {
        let out = Fig14a.run(&ExperimentCtx::default()).render();
        assert!(out.contains("RMS"));
        assert!(out.lines().count() > 20);
    }

    #[test]
    fn fig14b_reports_p99() {
        let out = report_b(200, &SweepConfig::new(1)).render();
        assert!(out.contains("p99"));
        assert!(out.contains("281.9"));
    }

    #[test]
    fn fig14b_is_thread_count_invariant() {
        let one = report_b(64, &SweepConfig::new(2).with_threads(1)).render();
        let four = report_b(64, &SweepConfig::new(2).with_threads(4)).render();
        assert_eq!(one, four);
    }
}
