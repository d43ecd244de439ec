//! The uplink PHY path composed from public calls, one span per layer.
//!
//! `WaveSim` synthesizes a packet in one private step; traced runs rebuild
//! that step here from the tag, channel and receiver calls it makes, so
//! each layer gets its own span. [`check_against_wavesim`] proves the
//! composition bit-identical to the program's own path before a traced
//! run trusts it.

use arachnet_core::bits::BitBuf;
use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::UlPacket;
use arachnet_core::rng::TagRng;
use arachnet_reader::rx::UplinkReceiver;
use arachnet_sim::sweep::trial_seed;
use arachnet_sim::wavesim::{PhyScratch, UplinkResult, WaveSim};
use arachnet_tag::mcu::McuClock;
use biw_channel::channel::BiwChannel;
use biw_channel::noise::ChannelNoise;
use biw_channel::pzt::PztState;
use biw_channel::timevarying::TimeVaryingChannel;

use crate::trace::{span, Layer};

/// Salt `BiwChannel::uplink_waveform_seeded_into` folds into a packet
/// seed to seed its noise. The derivation is private to the channel;
/// [`check_against_wavesim`] fails if it changes.
const NOISE_SEED_SALT: u64 = 0xA5A5;

/// Tag side of one packet: payload draw, packet build, FM0 encoding, the
/// tag clock's stretch under a sagging supply, and the per-sample PZT
/// state stream with six bits of padding on each side.
fn modulate(
    sim_seed: u64,
    fs: f64,
    ul_bps: f64,
    tid: u8,
    packet_seed: u64,
    states: &mut Vec<PztState>,
) -> UlPacket {
    let mut rng = TagRng::new(packet_seed);
    let payload = (rng.next_u64() & 0xFFF) as u16;
    let pkt = UlPacket::new(tid % 16, payload).expect("12-bit payload");
    let raw = Fm0Encoder::new().encode(pkt.to_bits().iter());
    let mut clock = McuClock::for_tag(sim_seed, tid);
    clock.set_supply(1.95 + 0.35 * rng.unit_f64());
    let spb = (fs * (1.0 / ul_bps) * (12_000.0 / clock.actual_hz())).round() as usize;
    expand_states(&raw, spb, 6 * spb, states);
    pkt
}

fn expand_states(raw: &BitBuf, spb: usize, pad: usize, out: &mut Vec<PztState>) {
    out.clear();
    out.reserve(raw.len() * spb + 2 * pad);
    out.extend(std::iter::repeat_n(PztState::Absorptive, pad));
    for bit in raw.iter() {
        let s = if bit {
            PztState::Reflective
        } else {
            PztState::Absorptive
        };
        out.extend(std::iter::repeat_n(s, spb));
    }
    out.extend(std::iter::repeat_n(PztState::Absorptive, pad));
}

/// Synthesizes one seeded packet from `tid` into `s.wave` through
/// `channel`, one span per layer, and returns the packet sent.
pub fn packet(
    sim_seed: u64,
    channel: &BiwChannel,
    rx: &UplinkReceiver,
    tid: u8,
    packet_seed: u64,
    s: &mut PhyScratch,
) -> UlPacket {
    let cfg = channel.config();
    let bps = rx.config().ul_bps;
    let pkt = span(Layer::TagModulate, 0, bps, || {
        modulate(
            sim_seed,
            cfg.sample_rate,
            bps,
            tid,
            packet_seed,
            &mut s.states,
        )
    });
    let n = s.states.len() as u64;
    let PhyScratch { states, wave, .. } = s;
    span(Layer::ChannelNoise, n, bps, || {
        wave.clear();
        wave.resize(states.len(), 0.0);
        ChannelNoise::new(cfg.noise, cfg.sample_rate, packet_seed ^ NOISE_SEED_SALT).fill(wave);
    });
    span(Layer::ChannelCarrier, n, bps, || {
        channel.uplink_add_carrier_into(wave)
    });
    span(Layer::ChannelTags, n, bps, || {
        channel.uplink_add_tags_into(&[(tid, states.as_slice())], wave)
    });
    pkt
}

/// Decodes `s.wave`; `true` when it yields exactly `sent`.
pub fn decode(rx: &UplinkReceiver, sent: UlPacket, s: &mut PhyScratch) -> bool {
    let bps = rx.config().ul_bps;
    let PhyScratch { wave, rx: rxs, .. } = s;
    span(Layer::RxDecode, wave.len() as u64, bps, || {
        rx.process_slot_with(wave, rxs).packet == Some(sent)
    })
}

/// PSD-band SNR of `s.wave`.
pub fn snr(rx: &UplinkReceiver, s: &mut PhyScratch) -> f64 {
    let bps = rx.config().ul_bps;
    let PhyScratch { wave, rx: rxs, .. } = s;
    span(Layer::RxSnr, wave.len() as u64, bps, || {
        rx.uplink_snr_db_with(wave, rxs)
    })
}

/// `WaveSim::uplink_snr`: the SNR of the (tag, rate) sequence's packet 0.
pub fn representative_snr(
    sim: &WaveSim,
    sim_seed: u64,
    rx: &UplinkReceiver,
    tid: u8,
    s: &mut PhyScratch,
) -> f64 {
    let seed0 = trial_seed(sim.uplink_base_seed(tid, rx.config().ul_bps), 0);
    packet(sim_seed, sim.channel(), rx, tid, seed0, s);
    snr(rx, s)
}

/// `WaveSim::uplink_trial_drifting` with a disabled recorder.
pub fn drifting_trial(
    sim: &WaveSim,
    sim_seed: u64,
    tvc: &TimeVaryingChannel,
    tid: u8,
    ul_bps: f64,
    n_per_epoch: u64,
    s: &mut PhyScratch,
) -> Vec<UplinkResult> {
    let rx = sim.uplink_rx(ul_bps);
    let base = sim.uplink_base_seed(tid, ul_bps);
    (0..tvc.epoch_count())
        .map(|epoch| {
            let channel = tvc.channel_at(epoch);
            let first = epoch as u64 * n_per_epoch;
            let mut snr_db = f64::NAN;
            let mut lost = 0;
            for i in 0..n_per_epoch.max(1) {
                let pkt = packet(sim_seed, channel, &rx, tid, trial_seed(base, first + i), s);
                if i == 0 {
                    snr_db = snr(&rx, s);
                }
                if i < n_per_epoch && !decode(&rx, pkt, s) {
                    lost += 1;
                }
            }
            UplinkResult {
                sent: n_per_epoch,
                lost,
                snr_db,
            }
        })
        .collect()
}

/// `WaveSim::uplink_trial` (`n` packets, SNR on packet 0).
pub fn uplink_trial(
    sim: &WaveSim,
    sim_seed: u64,
    tid: u8,
    ul_bps: f64,
    n: u64,
    s: &mut PhyScratch,
) -> UplinkResult {
    let rx = sim.uplink_rx(ul_bps);
    let base = sim.uplink_base_seed(tid, ul_bps);
    let mut snr_db = f64::NAN;
    let mut lost = 0;
    for i in 0..n.max(1) {
        let pkt = packet(sim_seed, sim.channel(), &rx, tid, trial_seed(base, i), s);
        if i == 0 {
            snr_db = snr(&rx, s);
        }
        if i < n && !decode(&rx, pkt, s) {
            lost += 1;
        }
    }
    UplinkResult {
        sent: n,
        lost,
        snr_db,
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks the composed path against the program's own on one packet:
/// the state stream and waveform must match `WaveSim::uplink_packet`'s
/// scratch bit for bit, the waveform must equal
/// `BiwChannel::uplink_waveform_seeded_into` on `channel`, and both
/// decodes must agree. Returns a description of the first mismatch.
pub fn check_against_wavesim(
    sim: &WaveSim,
    sim_seed: u64,
    channel: &BiwChannel,
    rx: &UplinkReceiver,
    tid: u8,
    packet_seed: u64,
) -> Result<(), String> {
    let what = format!(
        "tag {tid} at {} bps, packet seed {packet_seed:#x}",
        rx.config().ul_bps
    );
    let mut mine = PhyScratch::default();
    let pkt = packet(sim_seed, channel, rx, tid, packet_seed, &mut mine);
    let mut reference = Vec::new();
    channel.uplink_waveform_seeded_into(
        &[(tid, &mine.states)],
        mine.states.len(),
        packet_seed,
        &mut reference,
    );
    if !same_bits(&mine.wave, &reference) {
        return Err(format!(
            "composed waveform differs from uplink_waveform_seeded_into: {what}"
        ));
    }
    if std::ptr::eq(channel, sim.channel()) {
        let mut theirs = PhyScratch::default();
        let ok = sim.uplink_packet(rx, tid, packet_seed, &mut theirs);
        if theirs.states != mine.states || !same_bits(&theirs.wave, &mine.wave) {
            return Err(format!(
                "composed packet differs from WaveSim::uplink_packet: {what}"
            ));
        }
        if decode(rx, pkt, &mut mine) != ok {
            return Err(format!(
                "composed decode disagrees with WaveSim::uplink_packet: {what}"
            ));
        }
    }
    Ok(())
}
