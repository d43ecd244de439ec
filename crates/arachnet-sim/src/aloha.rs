//! The pure-ALOHA contention baseline (Appendix B, Fig. 19).
//!
//! Every tag transmits the moment its supercapacitor reaches the
//! activation threshold, with no coordination: charge → 200 ms packet →
//! recharge (from the 1.95 V cutoff floor, which costs only ~15.2 % of the
//! full charge) → transmit again. Over a 10 000-second run the simulator
//! records every transmission interval and counts overlaps.
//!
//! The paper's findings this reproduces: ~34 % of transmissions
//! collision-free overall, per-tag success between 28.4 % and 37.3 %, the
//! fastest-charging tag (Tag 8, 4.5 s) sending over 11 000 packets, and
//! slow chargers both transmitting less *and* colliding more — "ALOHA's
//! inability to provide fair channel access across asymmetrically powered
//! tags".

use arachnet_core::rng::TagRng;
use arachnet_energy::harvester::HarvestChain;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;

/// Packet on-air time (s) — "each 200 ms packet transmission".
pub const PACKET_S: f64 = 0.2;

/// Resume charge as a fraction of the full charge duration (paper: 15.2 %).
pub const RESUME_FRACTION: f64 = 0.152;

/// Multiplicative Gaussian noise on each charge duration (paper: 2 %).
pub const CHARGE_NOISE: f64 = 0.02;

/// Configuration of the ALOHA simulation.
#[derive(Debug, Clone)]
pub struct AlohaConfig {
    /// Simulated duration (s) — the paper uses 10 000 s.
    pub duration_s: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for AlohaConfig {
    fn default() -> Self {
        Self {
            duration_s: 10_000.0,
            seed: 1,
        }
    }
}

/// Per-tag outcome.
#[derive(Debug, Clone, Copy)]
pub struct AlohaTagStats {
    /// Tag ID.
    pub tid: u8,
    /// Full (cold) charge time used for this tag (s).
    pub full_charge_s: f64,
    /// Total transmissions.
    pub total_tx: u64,
    /// Transmissions that overlapped another tag's.
    pub collided_tx: u64,
}

impl AlohaTagStats {
    /// Collision-free success rate.
    pub fn success_rate(&self) -> f64 {
        if self.total_tx == 0 {
            return 0.0;
        }
        1.0 - self.collided_tx as f64 / self.total_tx as f64
    }
}

/// Aggregate outcome.
#[derive(Debug, Clone)]
pub struct AlohaRun {
    /// Per-tag statistics, ordered by TID.
    pub tags: Vec<AlohaTagStats>,
}

impl AlohaRun {
    /// Overall fraction of collision-free transmissions.
    pub fn overall_success_rate(&self) -> f64 {
        let total: u64 = self.tags.iter().map(|t| t.total_tx).sum();
        let collided: u64 = self.tags.iter().map(|t| t.collided_tx).sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - collided as f64 / total as f64
    }

    /// Total transmissions across all tags.
    pub fn total_tx(&self) -> u64 {
        self.tags.iter().map(|t| t.total_tx).sum()
    }
}

/// Runs the ALOHA baseline over the paper's 12-tag deployment.
pub fn run_aloha(config: &AlohaConfig) -> AlohaRun {
    let channel = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig::silent(),
        ..ChannelConfig::default()
    });
    let chain = HarvestChain::paper();

    // Per-tag charge parameters from the calibrated deployment.
    struct TagState {
        tid: u8,
        full_s: f64,
        resume_s: f64,
        rng: TagRng,
        intervals: Vec<(f64, f64)>,
    }
    let mut tags: Vec<TagState> = (1..=12u8)
        .map(|tid| {
            let vp = channel.tag_carrier_voltage(tid).expect("deployment tag");
            let full = chain.full_charge_time(vp).expect("all tags activate");
            TagState {
                tid,
                full_s: full,
                resume_s: full * RESUME_FRACTION,
                rng: TagRng::for_tag(config.seed, tid),
                intervals: Vec::new(),
            }
        })
        .collect();

    // Generate each tag's transmission intervals. Charging pauses during
    // TX, so the cycle is strictly sequential: charge → transmit → charge…
    for t in &mut tags {
        let mut now = (t.full_s * (1.0 + CHARGE_NOISE * gaussian(&mut t.rng))).max(0.0);
        while now < config.duration_s {
            t.intervals.push((now, now + PACKET_S));
            let recharge = t.resume_s * (1.0 + CHARGE_NOISE * gaussian(&mut t.rng));
            now += PACKET_S + recharge.max(0.0);
        }
    }

    // Collision detection: merge all intervals and sweep.
    let mut events: Vec<(f64, f64, usize)> = Vec::new();
    for (i, t) in tags.iter().enumerate() {
        for &(s, e) in &t.intervals {
            events.push((s, e, i));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut collided: Vec<Vec<bool>> = tags
        .iter()
        .map(|t| vec![false; t.intervals.len()])
        .collect();
    let mut per_tag_idx = vec![0usize; tags.len()];
    let mut active: Vec<(f64, usize, usize)> = Vec::new(); // (end, tag, interval idx)
    for &(s, e, tag) in &events {
        let idx = per_tag_idx[tag];
        per_tag_idx[tag] += 1;
        active.retain(|&(end, ..)| end > s);
        for &(_, other_tag, other_idx) in &active {
            collided[tag][idx] = true;
            collided[other_tag][other_idx] = true;
        }
        active.push((e, tag, idx));
    }

    AlohaRun {
        tags: tags
            .iter()
            .enumerate()
            .map(|(i, t)| AlohaTagStats {
                tid: t.tid,
                full_charge_s: t.full_s,
                total_tx: t.intervals.len() as u64,
                collided_tx: collided[i].iter().filter(|&&c| c).count() as u64,
            })
            .collect(),
    }
}

/// Standard normal via Box–Muller on the tag RNG.
fn gaussian(rng: &mut TagRng) -> f64 {
    let u1 = rng.unit_f64().max(1e-12);
    let u2 = rng.unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_default() -> AlohaRun {
        run_aloha(&AlohaConfig::default())
    }

    #[test]
    fn fast_tag_transmits_most() {
        let run = run_default();
        let tag8 = run.tags.iter().find(|t| t.tid == 8).unwrap();
        for t in &run.tags {
            assert!(
                t.total_tx <= tag8.total_tx,
                "tag {} out-transmitted tag 8",
                t.tid
            );
        }
        // Paper: "transmit over 11,000 times" for the 4.5 s charger. Our
        // calibrated charge time is slightly faster, so the count lands in
        // the same regime.
        assert!(tag8.total_tx > 9_000, "tag 8 sent only {}", tag8.total_tx);
    }

    #[test]
    fn slow_tag_transmits_least() {
        let run = run_default();
        let tag11 = run.tags.iter().find(|t| t.tid == 11).unwrap();
        for t in &run.tags {
            assert!(
                t.total_tx >= tag11.total_tx,
                "tag {} under-transmitted tag 11",
                t.tid
            );
        }
        assert!(tag11.total_tx < 2_500, "tag 11 sent {}", tag11.total_tx);
    }

    #[test]
    fn overall_success_matches_paper_band() {
        // Paper: 34.0 % collision-free. Our deployment is somewhat more
        // loaded (faster chargers), so accept a generous band around it.
        let run = run_default();
        let rate = run.overall_success_rate();
        assert!((0.10..=0.55).contains(&rate), "success rate {rate:.3}");
    }

    #[test]
    fn every_tag_collides_a_lot() {
        // Paper: per-tag success 28.4–37.3 % — nobody escapes contention.
        let run = run_default();
        for t in &run.tags {
            let s = t.success_rate();
            assert!(s < 0.6, "tag {} implausibly clean: {s:.3}", t.tid);
            assert!(t.collided_tx > 0, "tag {} never collided", t.tid);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_aloha(&AlohaConfig::default());
        let b = run_aloha(&AlohaConfig::default());
        assert_eq!(a.total_tx(), b.total_tx());
        let collided = |r: &AlohaRun| r.tags.iter().map(|t| t.collided_tx).collect::<Vec<_>>();
        assert_eq!(collided(&a), collided(&b));
        // A different seed shifts the noise draws; with 2 % noise the
        // per-tag *collision* pattern almost surely changes even when the
        // robust transmission counts do not.
        let c = run_aloha(&AlohaConfig {
            seed: 2,
            ..AlohaConfig::default()
        });
        assert_ne!(collided(&a), collided(&c));
    }

    #[test]
    fn charge_times_span_the_paper_range() {
        let run = run_default();
        let min = run
            .tags
            .iter()
            .map(|t| t.full_charge_s)
            .fold(f64::MAX, f64::min);
        let max = run
            .tags
            .iter()
            .map(|t| t.full_charge_s)
            .fold(0.0f64, f64::max);
        assert!(min < 6.0, "fastest charge {min:.1} (paper 4.5 s)");
        assert!(max > 40.0, "slowest charge {max:.1} (paper 56.2 s)");
    }

    #[test]
    fn shorter_duration_scales_counts() {
        let short = run_aloha(&AlohaConfig {
            duration_s: 1_000.0,
            ..AlohaConfig::default()
        });
        let long = run_default();
        let ratio = long.total_tx() as f64 / short.total_tx() as f64;
        assert!((ratio - 10.0).abs() < 1.0, "scaling ratio {ratio:.2}");
    }

    #[test]
    fn aloha_loses_to_the_protocol() {
        // The headline comparison: ARACHNET's long-run collision ratio is
        // ~0.05; ALOHA's is >0.4.
        let run = run_default();
        assert!(1.0 - run.overall_success_rate() > 0.4);
    }
}
