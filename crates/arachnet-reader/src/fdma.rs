//! FDMA parallel decoding — the reader side of the subcarrier extension.
//!
//! Several tags transmit in the same slot on distinct subcarrier channels
//! (see `arachnet_tag::subcarrier`). The receiver mixes the slot to
//! baseband IQ once, through the same one-period carrier table as the FM0
//! receiver, and, per tag, coherently despreads with that tag's ±1 chip
//! template: integer-cycle windows make different channels orthogonal, so
//! each despread output sees only its own tag. Carrier phase is recovered
//! from the known packet preamble, and frame timing by maximizing the
//! preamble correlation over a lag search.

use arachnet_core::bits::BitBuf;
use arachnet_core::packet::{UlPacket, UL_PACKET_BITS, UL_PREAMBLE};
use arachnet_dsp::cplx::Cplx;
use arachnet_dsp::nco::CarrierTable;
use arachnet_tag::subcarrier::SubcarrierChannel;

use crate::rx::carrier_table;

/// Configuration of the FDMA receiver.
#[derive(Debug, Clone, Copy)]
pub struct FdmaConfig {
    /// DAQ sample rate (Hz).
    pub sample_rate: f64,
    /// Carrier frequency (Hz).
    pub carrier_hz: f64,
    /// Data bit rate shared by all FDMA tags (bps).
    pub bit_rate: f64,
    /// Minimum preamble correlation to accept a frame.
    pub sync_threshold: f64,
}

impl Default for FdmaConfig {
    fn default() -> Self {
        Self {
            sample_rate: 500_000.0,
            carrier_hz: 90_000.0,
            bit_rate: 93.75,
            sync_threshold: 0.6,
        }
    }
}

/// Per-tag decode result.
#[derive(Debug, Clone, PartialEq)]
pub struct FdmaDecode {
    /// The channel that was despread.
    pub channel: SubcarrierChannel,
    /// CRC-valid packet, if recovered.
    pub packet: Option<UlPacket>,
    /// Preamble correlation achieved at the chosen lag.
    pub sync_score: f64,
}

/// The FDMA receiver.
#[derive(Debug, Clone)]
pub struct FdmaReceiver {
    cfg: FdmaConfig,
    /// Exact-period conjugate-carrier table.
    carrier_tab: CarrierTable,
}

impl FdmaReceiver {
    /// Receiver with the given configuration.
    ///
    /// # Panics
    /// When `cfg.carrier_hz` has no exact sample period at
    /// `cfg.sample_rate`
    /// ([`exact_carrier_period`](biw_channel::channel::exact_carrier_period)).
    pub fn new(cfg: FdmaConfig) -> Self {
        Self {
            cfg,
            carrier_tab: carrier_table(cfg.sample_rate, cfg.carrier_hz),
        }
    }

    /// Configuration.
    pub fn config(&self) -> &FdmaConfig {
        &self.cfg
    }

    /// Samples per chip for a channel.
    fn samples_per_chip(&self, ch: &SubcarrierChannel) -> f64 {
        self.cfg.sample_rate / (self.cfg.bit_rate * f64::from(ch.chips_per_bit()))
    }

    /// Mixes a slot waveform to (undecimated) baseband IQ with the carrier
    /// mean removed.
    fn to_iq(&self, wave: &[f64]) -> Vec<Cplx> {
        let phasors = self.carrier_tab.phasors().iter().cycle();
        let mut iq: Vec<Cplx> = wave.iter().zip(phasors).map(|(&x, &c)| c * x).collect();
        // Light smoothing to suppress the 2fc image: boxcar over ~2 carrier
        // cycles.
        let d = (2.0 * self.cfg.sample_rate / self.cfg.carrier_hz) as usize;
        let mut acc = Cplx::ZERO;
        let src = iq.clone();
        for (i, z) in iq.iter_mut().enumerate() {
            acc += src[i];
            if i >= d {
                acc -= src[i - d];
                *z = acc / d as f64;
            } else {
                *z = acc / (i + 1) as f64;
            }
        }
        let mean = iq.iter().fold(Cplx::ZERO, |a, &z| a + z) / iq.len() as f64;
        iq.iter().map(|&z| z - mean).collect()
    }

    /// Despreads one channel at a given start-sample lag, returning one
    /// complex value per data bit.
    fn despread(&self, iq: &[Cplx], ch: &SubcarrierChannel, lag: usize) -> Vec<Cplx> {
        let spc = self.samples_per_chip(ch);
        let chips = ch.chip_template();
        let bits_avail = ((iq.len() - lag) as f64 / (spc * chips.len() as f64)).floor() as usize;
        let n_bits = bits_avail.min(UL_PACKET_BITS);
        let mut out = Vec::with_capacity(n_bits);
        for b in 0..n_bits {
            let mut acc = Cplx::ZERO;
            for (ci, &cv) in chips.iter().enumerate() {
                let start = lag as f64 + (b * chips.len() + ci) as f64 * spc;
                let end = start + spc;
                let (s, e) = (start as usize, (end as usize).min(iq.len()));
                for &z in &iq[s..e] {
                    acc += z * cv;
                }
            }
            out.push(acc);
        }
        out
    }

    /// Preamble-based sync + phase metric: returns `(score, phase)` for a
    /// despread bit stream.
    fn preamble_metric(bits: &[Cplx]) -> (f64, f64) {
        if bits.len() < UL_PREAMBLE.len() {
            return (0.0, 0.0);
        }
        let mut acc = Cplx::ZERO;
        let mut energy = 0.0;
        for (i, &p) in UL_PREAMBLE.iter().enumerate() {
            let s = if p { 1.0 } else { -1.0 };
            acc += bits[i] * s;
            energy += bits[i].abs();
        }
        if energy < 1e-30 {
            return (0.0, 0.0);
        }
        (acc.abs() / energy, acc.arg())
    }

    /// Decodes one channel from a slot waveform.
    pub fn decode_channel(&self, wave: &[f64], ch: SubcarrierChannel) -> FdmaDecode {
        self.decode_iq(&self.to_iq(wave), ch)
    }

    /// Decodes one channel from the slot's baseband IQ.
    fn decode_iq(&self, iq: &[Cplx], ch: SubcarrierChannel) -> FdmaDecode {
        let spc = self.samples_per_chip(&ch);
        let bit_samples = spc * f64::from(ch.chips_per_bit());
        // Lag search over one bit duration in quarter-chip steps.
        let step = (spc / 4.0).max(1.0) as usize;
        let max_lag = bit_samples as usize;
        let mut best: Option<(usize, f64, f64)> = None; // (lag, score, phase)
        let mut lag = 0;
        while lag < max_lag {
            let bits = self.despread(iq, &ch, lag);
            let (score, phase) = Self::preamble_metric(&bits);
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((lag, score, phase));
            }
            lag += step;
        }
        let Some((lag, score, phase)) = best else {
            return FdmaDecode {
                channel: ch,
                packet: None,
                sync_score: 0.0,
            };
        };
        if score < self.cfg.sync_threshold {
            return FdmaDecode {
                channel: ch,
                packet: None,
                sync_score: score,
            };
        }
        let soft = self.despread(iq, &ch, lag);
        let rot = Cplx::cis(-phase);
        let mut hard = BitBuf::with_capacity(soft.len());
        for z in &soft {
            hard.push((*z * rot).re >= 0.0);
        }
        let packet = if hard.len() >= UL_PACKET_BITS {
            UlPacket::from_bits(&hard.slice(0, UL_PACKET_BITS).expect("length checked")).ok()
        } else {
            None
        };
        FdmaDecode {
            channel: ch,
            packet,
            sync_score: score,
        }
    }

    /// Decodes every configured channel from one slot — the parallel-
    /// decoding throughput win. The slot is mixed once for all channels.
    pub fn decode_all(&self, wave: &[f64], channels: &[SubcarrierChannel]) -> Vec<FdmaDecode> {
        let iq = self.to_iq(wave);
        channels.iter().map(|&ch| self.decode_iq(&iq, ch)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arachnet_tag::subcarrier::SubcarrierChannel;
    use biw_channel::channel::{BiwChannel, ChannelConfig};
    use biw_channel::noise::NoiseConfig;
    use biw_channel::pzt::PztState;

    fn channel(noise: NoiseConfig) -> BiwChannel {
        BiwChannel::paper(ChannelConfig {
            noise,
            seed: 5,
            ..ChannelConfig::default()
        })
    }

    /// Expands chips into per-sample states at *fractional* chip
    /// boundaries, exactly as a hardware timer clocking the switch would.
    fn chips_to_states(chips: &[bool], spc: f64, lead: usize) -> Vec<PztState> {
        let total = lead + (chips.len() as f64 * spc).ceil() as usize;
        let mut states = vec![PztState::Absorptive; total];
        for (i, s) in states.iter_mut().enumerate().skip(lead) {
            let chip = ((i - lead) as f64 / spc) as usize;
            if let Some(&c) = chips.get(chip) {
                *s = if c {
                    PztState::Reflective
                } else {
                    PztState::Absorptive
                };
            }
        }
        states
    }

    fn make_slot(
        ch: &BiwChannel,
        cfg: &FdmaConfig,
        tags: &[(u8, SubcarrierChannel, UlPacket)],
    ) -> Vec<f64> {
        let mut streams: Vec<(u8, Vec<PztState>)> = Vec::new();
        let mut max_len = 0;
        for (tid, sub, pkt) in tags {
            let chips = sub.modulate(&pkt.to_bits());
            let spc = cfg.sample_rate / (cfg.bit_rate * f64::from(sub.chips_per_bit()));
            let states = chips_to_states(&chips, spc, spc as usize);
            max_len = max_len.max(states.len());
            streams.push((*tid, states));
        }
        let refs: Vec<(u8, &[PztState])> =
            streams.iter().map(|(t, s)| (*t, s.as_slice())).collect();
        ch.uplink_waveform(&refs, max_len + 2_000)
    }

    #[test]
    fn single_tag_decodes() {
        let cfg = FdmaConfig::default();
        let rx = FdmaReceiver::new(cfg);
        let ch = channel(NoiseConfig::silent());
        let sub = SubcarrierChannel::new(6);
        let pkt = UlPacket::new(8, 0x5A5).unwrap();
        let wave = make_slot(&ch, &cfg, &[(8, sub, pkt)]);
        let out = rx.decode_channel(&wave, sub);
        assert_eq!(out.packet, Some(pkt), "sync {:.2}", out.sync_score);
    }

    #[test]
    fn two_tags_decode_in_parallel() {
        // The headline: two tags, same slot, different subcarriers — both
        // packets recovered. FM0 would have called this a collision.
        let cfg = FdmaConfig::default();
        let rx = FdmaReceiver::new(cfg);
        let ch = channel(NoiseConfig::silent());
        let sub_a = SubcarrierChannel::new(6);
        let sub_b = SubcarrierChannel::new(9);
        let pkt_a = UlPacket::new(8, 0x111).unwrap();
        let pkt_b = UlPacket::new(7, 0xEEE).unwrap();
        let wave = make_slot(&ch, &cfg, &[(8, sub_a, pkt_a), (7, sub_b, pkt_b)]);
        let outs = rx.decode_all(&wave, &[sub_a, sub_b]);
        assert_eq!(
            outs[0].packet,
            Some(pkt_a),
            "tag A sync {:.2}",
            outs[0].sync_score
        );
        assert_eq!(
            outs[1].packet,
            Some(pkt_b),
            "tag B sync {:.2}",
            outs[1].sync_score
        );
    }

    #[test]
    fn parallel_decode_survives_noise() {
        let cfg = FdmaConfig::default();
        let rx = FdmaReceiver::new(cfg);
        let ch = channel(NoiseConfig::default());
        let sub_a = SubcarrierChannel::new(6);
        let sub_b = SubcarrierChannel::new(9);
        let pkt_a = UlPacket::new(5, 0x234).unwrap();
        let pkt_b = UlPacket::new(11, 0xABC).unwrap();
        let wave = make_slot(&ch, &cfg, &[(8, sub_a, pkt_a), (11, sub_b, pkt_b)]);
        let outs = rx.decode_all(&wave, &[sub_a, sub_b]);
        assert_eq!(outs[0].packet, Some(pkt_a));
        assert_eq!(outs[1].packet, Some(pkt_b));
        // One mix for the whole slot decodes each channel exactly as a
        // decode of that channel alone.
        assert_eq!(outs[0], rx.decode_channel(&wave, sub_a));
        assert_eq!(outs[1], rx.decode_channel(&wave, sub_b));
    }

    #[test]
    fn unused_channel_stays_silent() {
        // Despreading a channel nobody transmits on must not hallucinate a
        // packet (CRC + sync threshold).
        let cfg = FdmaConfig::default();
        let rx = FdmaReceiver::new(cfg);
        let ch = channel(NoiseConfig::default());
        let sub_a = SubcarrierChannel::new(6);
        let sub_idle = SubcarrierChannel::new(4);
        let pkt = UlPacket::new(8, 0x777).unwrap();
        let wave = make_slot(&ch, &cfg, &[(8, sub_a, pkt)]);
        let out = rx.decode_channel(&wave, sub_idle);
        assert_eq!(out.packet, None);
    }

    #[test]
    #[should_panic(expected = "carrier 90000.7 Hz has no exact sample period")]
    fn carrier_without_an_exact_period_is_refused() {
        FdmaReceiver::new(FdmaConfig {
            carrier_hz: 90_000.7,
            ..FdmaConfig::default()
        });
    }

    #[test]
    fn empty_slot_decodes_nothing() {
        let cfg = FdmaConfig::default();
        let rx = FdmaReceiver::new(cfg);
        let ch = channel(NoiseConfig::default());
        let wave = ch.uplink_waveform(&[], 60_000);
        let out = rx.decode_channel(&wave, SubcarrierChannel::new(6));
        assert_eq!(out.packet, None);
    }
}
