//! The assembled waveform-level channel.
//!
//! [`BiwChannel`] binds the deployment geometry, the PZT models and the
//! noise sources into the two directions of the link:
//!
//! * **downlink** — the steady-state carrier voltage at each tag's PZT,
//!   which sets the tag's harvest and its envelope detector's edge
//!   timing (`arachnet-sim`'s downlink edge model adds the path delay and
//!   the reader's ring tail, [`crate::resonator::DriveScheme::ring_tau_s`]);
//! * **uplink** — what the reader's RX PZT sees while the reader holds a CW
//!   carrier and one or more tags toggle their reflection state: a strong
//!   direct-leakage carrier plus, per tag, a round-trip-attenuated copy
//!   modulated by that tag's reflection coefficient.
//!
//! Amplitudes are in normalized units where 1 unit ≡ 1 V of open-circuit
//! tag-PZT voltage; the drive amplitude is calibrated so the 12-tag
//! harvested-voltage ladder matches Fig. 11 (see the calibration tests).

use crate::geometry::Deployment;
use crate::noise::{ChannelNoise, NoiseConfig};
use crate::pzt::{Pzt, PztState};

/// Carrier / system resonant frequency (Hz) — Sec. 2.2.
pub const CARRIER_HZ: f64 = 90_000.0;

/// Reader DAQ sample rate (Hz) — Sec. 6.1.
pub const SAMPLE_RATE_HZ: f64 = 500_000.0;

/// Channel configuration.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// DAQ sample rate (Hz) — [`SAMPLE_RATE_HZ`] by default.
    pub sample_rate: f64,
    /// Carrier / resonant frequency (Hz) — [`CARRIER_HZ`] by default.
    pub carrier_hz: f64,
    /// Source amplitude at the reference distance, normalized units. The
    /// calibrated value reproduces the paper's harvested voltages under the
    /// 18 W / 72 Vpp electrical-safety-limited drive.
    pub drive_amplitude: f64,
    /// Noise configuration.
    pub noise: NoiseConfig,
    /// Direct TX→RX leakage amplitude at the reader (the two PZTs share the
    /// same panel).
    pub carrier_leakage: f64,
    /// Quality-factor scale of the reader PZT's ring-down tail
    /// ([`crate::resonator::DriveScheme::ring_tau_s`]): 1.0 is the paper's
    /// calibrated ring (τ ≈ 0.5 ms free). Channel drift (temperature,
    /// clamping) stretches or shrinks the tail through this knob.
    pub q_scale: f64,
    /// Random seed for the noise processes.
    pub seed: u64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            sample_rate: SAMPLE_RATE_HZ,
            carrier_hz: CARRIER_HZ,
            drive_amplitude: 3.35,
            noise: NoiseConfig::default(),
            carrier_leakage: 2.0,
            q_scale: 1.0,
            seed: 1,
        }
    }
}

/// Largest carrier period (in samples) [`exact_carrier_period`] searches.
const MAX_CARRIER_PERIOD: usize = 4096;

/// Smallest `p ≤ 4096` such that `carrier_hz · p / fs` is an integer
/// number of cycles, i.e. the carrier repeats exactly every `p` samples
/// (the paper's 90 kHz @ 500 kHz repeats every 50). `None` when the ratio
/// is irrational (or rational with a huge denominator).
///
/// Every carrier path indexes a table of this period (the channel's
/// synthesis here, the reader's mixing, SNR and interference rejection),
/// so a carrier without one cannot be built.
pub fn exact_carrier_period(fs: f64, carrier_hz: f64) -> Option<usize> {
    if fs <= 0.0 || carrier_hz <= 0.0 || fs.is_nan() || carrier_hz.is_nan() {
        return None;
    }
    for p in 1..=MAX_CARRIER_PERIOD {
        let cycles = carrier_hz * p as f64 / fs;
        if cycles >= 1.0 - 1e-9 && (cycles - cycles.round()).abs() < 1e-9 {
            return Some(p);
        }
    }
    None
}

/// Precomputed per-link synthesis state for one tag site.
///
/// Everything the per-sample uplink loop needs is folded into two
/// period-length tables: `refl_tab[n] = up_gain · ρ(Reflective) · sin(ωn)`
/// and the absorptive twin, so adding a tag's contribution is one table
/// lookup and one add per sample.
#[derive(Debug, Clone)]
pub struct TagLink {
    /// Tag ID (deployment site ID).
    pub id: u8,
    /// Uplink amplitude: drive amplitude × round-trip path gain.
    pub up_gain: f64,
    /// Uplink delay in samples (round trip).
    pub up_delay: usize,
    /// Steady-state open-circuit carrier voltage at the tag (volts).
    pub carrier_voltage: f64,
    refl_tab: Vec<f64>,
    abso_tab: Vec<f64>,
}

/// Per-deployment synthesis cache: carrier lookup tables plus one
/// [`TagLink`] per site, built once when the channel is constructed so no
/// geometry lookup, reflection-coefficient evaluation or trig call happens
/// inside the per-sample synthesis loops.
#[derive(Debug, Clone)]
pub struct ChannelCache {
    period: usize,
    leak_tab: Vec<f64>,
    links: Vec<TagLink>,
}

impl ChannelCache {
    fn build(config: &ChannelConfig, deployment: &Deployment, tag_pzt: &Pzt) -> Self {
        let fs = config.sample_rate;
        let w = 2.0 * std::f64::consts::PI * config.carrier_hz / fs;
        let period = exact_carrier_period(fs, config.carrier_hz).unwrap_or_else(|| {
            panic!(
                "carrier {} Hz has no exact sample period at {fs} Hz",
                config.carrier_hz
            )
        });
        let sin_tab: Vec<f64> = (0..period).map(|n| (w * n as f64).sin()).collect();
        let leak_tab = sin_tab.iter().map(|s| config.carrier_leakage * s).collect();
        let rho_refl = tag_pzt.reflect(1.0, PztState::Reflective);
        let rho_abso = tag_pzt.reflect(1.0, PztState::Absorptive);
        let links = deployment
            .sites
            .iter()
            .map(|site| {
                let up_gain = config.drive_amplitude * site.path.round_trip_gain();
                TagLink {
                    id: site.id,
                    up_gain,
                    up_delay: 2 * site.path.delay_samples(fs),
                    carrier_voltage: tag_pzt
                        .open_circuit_voltage(config.drive_amplitude * site.path.gain()),
                    refl_tab: sin_tab.iter().map(|s| up_gain * rho_refl * s).collect(),
                    abso_tab: sin_tab.iter().map(|s| up_gain * rho_abso * s).collect(),
                }
            })
            .collect();
        Self {
            period,
            leak_tab,
            links,
        }
    }

    /// Exact carrier period in samples.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Link parameters for tag `id`, if the deployment has that site.
    pub fn link(&self, id: u8) -> Option<&TagLink> {
        self.links.iter().find(|l| l.id == id)
    }
}

/// The waveform-level BiW channel.
///
/// ```
/// use biw_channel::channel::{BiwChannel, ChannelConfig};
///
/// let channel = BiwChannel::paper(ChannelConfig::default());
/// // Tag 8 (nearest) harvests far more than tag 11 (cargo corner).
/// let v8 = channel.tag_carrier_voltage(8).unwrap();
/// let v11 = channel.tag_carrier_voltage(11).unwrap();
/// assert!(v8 > 3.0 * v11);
/// ```
#[derive(Debug, Clone)]
pub struct BiwChannel {
    config: ChannelConfig,
    deployment: Deployment,
    cache: ChannelCache,
}

impl BiwChannel {
    /// Channel over the paper's 12-tag deployment.
    ///
    /// # Panics
    /// As [`BiwChannel::new`].
    pub fn paper(config: ChannelConfig) -> Self {
        Self::new(config, Deployment::paper())
    }

    /// Channel over a custom deployment.
    ///
    /// # Panics
    /// When `config.carrier_hz` has no exact sample period at
    /// `config.sample_rate` ([`exact_carrier_period`]): synthesis runs
    /// from period-length tables only.
    pub fn new(config: ChannelConfig, deployment: Deployment) -> Self {
        let cache = ChannelCache::build(&config, &deployment, &Pzt::arachnet_tag());
        Self {
            config,
            deployment,
            cache,
        }
    }

    /// Configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Precomputed per-deployment synthesis cache.
    pub fn cache(&self) -> &ChannelCache {
        &self.cache
    }

    /// Steady-state carrier amplitude (≡ open-circuit voltage, volts) at a
    /// tag while the reader transmits continuously. This is the `V_P` that
    /// feeds the voltage multiplier in Fig. 11's experiment.
    pub fn tag_carrier_voltage(&self, tag_id: u8) -> Option<f64> {
        Some(self.cache.link(tag_id)?.carrier_voltage)
    }

    /// Uplink synthesis: the reader RX waveform over `len` samples while
    /// each listed tag follows its per-sample reflection-state stream
    /// (streams shorter than `len` are treated as absorptive afterwards).
    ///
    /// The reader transmits a CW carrier; each tag's contribution is the
    /// carrier delayed by its round trip, scaled by the round-trip path
    /// gain and the tag's instantaneous reflection coefficient.
    pub fn uplink_waveform(&self, tags: &[(u8, &[PztState])], len: usize) -> Vec<f64> {
        self.uplink_waveform_seeded(tags, len, self.config.seed)
    }

    /// [`BiwChannel::uplink_waveform`] with an explicit noise seed: the
    /// result is what a channel rebuilt with `ChannelConfig { seed, .. }`
    /// would synthesize, without rebuilding anything.
    pub fn uplink_waveform_seeded(
        &self,
        tags: &[(u8, &[PztState])],
        len: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.uplink_waveform_seeded_into(tags, len, seed, &mut out);
        out
    }

    /// Allocation-free uplink synthesis: clears and refills `out` (reusing
    /// its capacity) with the same waveform `uplink_waveform_seeded` would
    /// return. This is the block-processing fast path: noise is streamed
    /// into the buffer first, then the leakage carrier and each tag's
    /// contribution are added from the per-deployment [`ChannelCache`]
    /// tables — no allocation and no trig inside the per-sample loop.
    pub fn uplink_waveform_seeded_into(
        &self,
        tags: &[(u8, &[PztState])],
        len: usize,
        seed: u64,
        out: &mut Vec<f64>,
    ) {
        let fs = self.config.sample_rate;
        out.clear();
        out.resize(len, 0.0);
        let mut noise = ChannelNoise::new(self.config.noise, fs, seed ^ 0xA5A5);
        noise.fill(out);
        self.uplink_add_carrier_into(out);
        self.uplink_add_tags_into(tags, out);
    }

    /// Adds this channel's CW carrier-leakage term into `out` *without*
    /// clearing it — one half of the superposition primitive multi-reader
    /// synthesis uses to stack several readers' carriers into a single RX
    /// buffer (see the `fleet` module). Phase 0 lands on `out[0]`.
    pub fn uplink_add_carrier_into(&self, out: &mut [f64]) {
        let (leak, p) = (&self.cache.leak_tab, self.cache.period);
        let mut phase = 0;
        for x in out.iter_mut() {
            *x += leak[phase];
            phase += 1;
            if phase == p {
                phase = 0;
            }
        }
    }

    /// Adds each listed tag's backscatter contribution into `out` *without*
    /// clearing it (no noise, no carrier term) — the other half of the
    /// multi-reader superposition primitive. Streams shorter than `out`
    /// stay absorptive afterwards, exactly as in
    /// [`BiwChannel::uplink_waveform_seeded_into`].
    pub fn uplink_add_tags_into(&self, tags: &[(u8, &[PztState])], out: &mut [f64]) {
        let p = self.cache.period;
        for &(id, states) in tags {
            let Some(link) = self.cache.link(id) else {
                continue;
            };
            let d = link.up_delay;
            if d >= out.len() {
                continue;
            }
            // Streams shorter than the slot stay absorptive afterwards.
            let active = states.len().min(out.len() - d);
            let (refl, abso) = (&link.refl_tab, &link.abso_tab);
            let mut phase = 0;
            for (x, &state) in out[d..d + active].iter_mut().zip(states) {
                *x += if state == PztState::Reflective {
                    refl[phase]
                } else {
                    abso[phase]
                };
                phase += 1;
                if phase == p {
                    phase = 0;
                }
            }
            for x in out[d + active..].iter_mut() {
                *x += abso[phase];
                phase += 1;
                if phase == p {
                    phase = 0;
                }
            }
        }
    }

    /// Expands a raw-bit line stream into per-sample PZT states (raw bit
    /// `true` = reflective).
    pub fn states_from_raw_bits(raw: &[bool], samples_per_bit: usize) -> Vec<PztState> {
        let mut out = Vec::with_capacity(raw.len() * samples_per_bit);
        for &bit in raw {
            let s = if bit {
                PztState::Reflective
            } else {
                PztState::Absorptive
            };
            out.extend(std::iter::repeat_n(s, samples_per_bit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_channel() -> BiwChannel {
        BiwChannel::paper(ChannelConfig {
            noise: NoiseConfig::silent(),
            ..ChannelConfig::default()
        })
    }

    /// Fig. 11 calibration: per-tag carrier voltages must reproduce the
    /// paper's harvested-voltage ladder. `V16 = 16 (V_P − 0.15)` is the
    /// 8-stage multiplier output checked against the reported values.
    #[test]
    fn calibration_matches_fig11_anchors() {
        let ch = quiet_channel();
        let v16 = |id: u8| 16.0 * (ch.tag_carrier_voltage(id).unwrap() - 0.15);
        // Tag 4: paper reports 4.74 V at 16×.
        assert!((v16(4) - 4.74).abs() < 0.6, "tag 4: {}", v16(4));
        // Tag 11: paper reports 2.70 V.
        assert!((v16(11) - 2.70).abs() < 0.6, "tag 11: {}", v16(11));
        // Strongest tag (8) lands near the top of Fig. 11(b)'s axis (~20 V).
        assert!((v16(8) - 20.0).abs() < 3.0, "tag 8: {}", v16(8));
    }

    #[test]
    fn all_tags_activate_at_8_stages() {
        // "at a stage number of 8, the amplified voltage for all 12 tags
        // exceeds the activation threshold of 2.3 V".
        let ch = quiet_channel();
        for id in 1..=12u8 {
            let v16 = 16.0 * (ch.tag_carrier_voltage(id).unwrap() - 0.15);
            assert!(v16 > 2.3, "tag {id} fails to activate: {v16:.2} V");
        }
    }

    #[test]
    fn some_tags_fail_at_6_stages() {
        // The reason the paper defaults to 8 stages: fewer stages strand
        // the weak tags below threshold.
        let ch = quiet_channel();
        let failing = (1..=12u8)
            .filter(|&id| 12.0 * (ch.tag_carrier_voltage(id).unwrap() - 0.15) < 2.3)
            .count();
        assert!(failing >= 1, "6 stages should strand at least one tag");
    }

    #[test]
    fn voltage_ordering_matches_paper_observations() {
        let ch = quiet_channel();
        let v = |id: u8| ch.tag_carrier_voltage(id).unwrap();
        // Tag 8 (nearest, junction-free) is the strongest link.
        for other in 1..=12u8 {
            assert!(v(8) >= v(other), "tag 8 vs {other}");
        }
        // Tag 4's perpendicular junction makes it weak despite the short
        // path — weaker than every junction-free second-row tag.
        for other in [5u8, 6, 7, 8] {
            assert!(v(4) < v(other), "tag 4 vs {other}");
        }
        // Tag 11 (longest path, two seams) is the overall weakest.
        for other in 1..=10u8 {
            assert!(v(11) < v(other), "tag 11 vs {other}");
        }
        // The ladder spreads widely enough to scatter Fig. 11(b)'s charge
        // times between ~4 s and ~55 s.
        assert!(v(8) / v(11) > 3.5);
    }

    #[test]
    fn unknown_tag_is_none() {
        let ch = quiet_channel();
        assert!(ch.tag_carrier_voltage(0).is_none());
        assert!(ch.tag_carrier_voltage(13).is_none());
    }

    #[test]
    fn uplink_reflects_tag_state_changes() {
        let ch = quiet_channel();
        let fs = 500_000.0;
        let spb = (fs / 375.0) as usize;
        // Tag 8 alternating reflect/absorb each raw bit.
        let raw = [true, false, true, false, true, false];
        let states = BiwChannel::states_from_raw_bits(&raw, spb);
        let wave = ch.uplink_waveform(&[(8, &states)], states.len());
        // The amplitude of the 90 kHz component must differ between
        // reflective and absorptive bits.
        let rms = |s: &[f64]| (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt();
        let refl = rms(&wave[spb / 4..spb * 3 / 4]);
        let abso = rms(&wave[spb + spb / 4..spb + spb * 3 / 4]);
        assert!(refl != abso, "no modulation visible");
        // Modulation is small against leakage but present.
        let depth = (refl - abso).abs() / refl.max(abso);
        assert!(depth > 0.005, "depth {depth}");
    }

    #[test]
    fn uplink_superimposes_multiple_tags() {
        let ch = quiet_channel();
        let spb = 1_000;
        let s1 = BiwChannel::states_from_raw_bits(&[true; 8], spb);
        let s2 = BiwChannel::states_from_raw_bits(&[true; 8], spb);
        let solo = ch.uplink_waveform(&[(8, &s1)], 8 * spb);
        let duo = ch.uplink_waveform(&[(8, &s1), (7, &s2)], 8 * spb);
        // Adding a second reflector changes the waveform.
        let diff: f64 = solo.iter().zip(&duo).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1.0, "second tag invisible");
    }

    #[test]
    fn states_expansion() {
        let s = BiwChannel::states_from_raw_bits(&[true, false], 3);
        assert_eq!(s.len(), 6);
        assert!(s[..3].iter().all(|&x| x == PztState::Reflective));
        assert!(s[3..].iter().all(|&x| x == PztState::Absorptive));
    }

    #[test]
    fn paper_carrier_has_exact_50_sample_period() {
        // 90 kHz @ 500 kHz repeats every 50 samples (9 full cycles).
        let ch = quiet_channel();
        assert_eq!(ch.cache().period(), 50);
        assert_eq!(exact_carrier_period(44_100.0, 12_345.678), None);
    }

    #[test]
    #[should_panic(expected = "carrier 90000.7 Hz has no exact sample period")]
    fn carrier_without_an_exact_period_cannot_be_built() {
        BiwChannel::paper(ChannelConfig {
            carrier_hz: 90_000.7,
            ..ChannelConfig::default()
        });
    }

    #[test]
    fn tabulated_synthesis_matches_direct_trig() {
        // The tables must agree with per-sample trig to within carrier-
        // phase rounding (the tables are exact; direct sin(w*j) accumulates
        // ~j*eps of phase error). Each tag's carrier starts at phase zero
        // at its round-trip delay and stays absorptive after its stream.
        let ch = quiet_channel();
        let spb = 1_333;
        let states = BiwChannel::states_from_raw_bits(&[true, false, true, false], spb);
        let tags: [(u8, &[PztState]); 2] = [(8, &states), (11, &states)];
        let len = states.len() + 2_000;
        let mut fast = Vec::new();
        ch.uplink_waveform_seeded_into(&tags, len, 1, &mut fast);
        let cfg = ch.config();
        let tag_pzt = Pzt::arachnet_tag();
        let w = 2.0 * std::f64::consts::PI * cfg.carrier_hz / cfg.sample_rate;
        let mut direct: Vec<f64> = (0..len)
            .map(|i| cfg.carrier_leakage * (w * i as f64).sin())
            .collect();
        for &(id, states) in &tags {
            let link = ch.cache().link(id).unwrap();
            for (j, x) in direct[link.up_delay..].iter_mut().enumerate() {
                let state = states.get(j).copied().unwrap_or(PztState::Absorptive);
                *x += link.up_gain * tag_pzt.reflect(1.0, state) * (w * j as f64).sin();
            }
        }
        for (i, (a, b)) in fast.iter().zip(&direct).enumerate() {
            assert!((a - b).abs() < 1e-6, "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn seeded_waveform_matches_rebuilt_channel() {
        // uplink_waveform_seeded(seed) ≡ rebuilding the channel with that
        // seed — this is what lets callers vary noise per packet without
        // reconstructing the cache.
        let rebuilt = BiwChannel::paper(ChannelConfig {
            seed: 77,
            ..ChannelConfig::default()
        });
        let base = BiwChannel::paper(ChannelConfig::default());
        let states = BiwChannel::states_from_raw_bits(&[true, false, true], 500);
        let a = rebuilt.uplink_waveform(&[(5, &states)], 2_000);
        let b = base.uplink_waveform_seeded(&[(5, &states)], 2_000, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_into_reuses_capacity() {
        let ch = quiet_channel();
        let mut buf = Vec::new();
        ch.uplink_waveform_seeded_into(&[], 10_000, 1, &mut buf);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        ch.uplink_waveform_seeded_into(&[], 8_000, 2, &mut buf);
        assert_eq!(buf.len(), 8_000);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn noise_seed_reproducibility() {
        let cfg = ChannelConfig {
            seed: 99,
            ..ChannelConfig::default()
        };
        let a = BiwChannel::paper(cfg.clone());
        let b = BiwChannel::paper(cfg);
        let states = BiwChannel::states_from_raw_bits(&[true, false], 500);
        let wa = a.uplink_waveform(&[(5, &states)], 1_000);
        let wb = b.uplink_waveform(&[(5, &states)], 1_000);
        assert_eq!(wa, wb);
    }
}
