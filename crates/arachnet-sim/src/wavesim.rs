//! Waveform/edge-level co-simulation for the PHY experiments.
//!
//! * **Uplink trials** (Fig. 12): a tag modulates a packet with its
//!   drifting clock, the channel superimposes carrier leak and noise, the
//!   reader DSP chain decodes; SNR is measured the paper's way (PSD band
//!   ratio).
//! * **Downlink trials** (Fig. 13a): reader PIE edges with software
//!   jitter, transformed by the channel (path delay + envelope-detector
//!   threshold-crossing delays that depend on the tag's received
//!   amplitude), decoded by the tag's tick-quantized demodulator.
//! * **Synchronization offsets** (Fig. 13b): one broadcast beacon; each
//!   tag's decode-completion instant relative to Tag 6.
//! * **Ping-pong** (Fig. 14): DL + guard + UL + software latency samples,
//!   and the raw reader waveform for the Fig. 14(a) illustration.

use std::cell::RefCell;
use std::sync::Arc;

use arachnet_core::bits::BitBuf;
use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::{DlBeacon, DlCmd, PacketError, UlPacket};
use arachnet_core::rng::TagRng;
use arachnet_obs::{DecodeFailReason, EventKind, Recorder, NO_TAG};
use arachnet_reader::driver::{LatencyModel, PingPong};
use arachnet_reader::rx::{RxConfig, RxScratch, UplinkReceiver};
use arachnet_reader::tx::BeaconTransmitter;
use arachnet_tag::demod::PieDemodulator;
use arachnet_tag::mcu::McuClock;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::geometry::Deployment;
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;
use biw_channel::resonator::DriveScheme;
use biw_channel::timevarying::TimeVaryingChannel;

use crate::sweep::{fan_out, trial_seed};

/// Reusable PHY working storage: the PZT state stream, the synthesized
/// waveform and the receiver's DSP scratch. One per worker thread means a
/// warm uplink trial reallocates no buffer that grows with the waveform
/// (what each packet still allocates is listed on `RxScratch`). Scratch
/// *contents* never influence results — only capacities persist between
/// calls — so reusing (or not reusing) a scratch cannot change any decode
/// outcome.
#[derive(Debug, Default)]
pub struct PhyScratch {
    /// Per-sample PZT state stream for the packet under synthesis.
    pub states: Vec<PztState>,
    /// Reader-side waveform buffer.
    pub wave: Vec<f64>,
    /// Receiver DSP scratch (down-conversion, projection, PSD, ...).
    pub rx: RxScratch,
}

thread_local! {
    static PHY_SCRATCH: RefCell<PhyScratch> = RefCell::new(PhyScratch::default());
}

/// Runs `f` with this thread's persistent [`PhyScratch`]. Sweep workers
/// call this from trial closures so every trial on a thread reuses the
/// same buffers. Do not nest calls (the inner one would re-borrow). A
/// `WaveSim` trial takes the scratch once per packet, on whichever worker
/// runs that packet, so call trials outside `f`, never inside.
pub fn with_phy_scratch<R>(f: impl FnOnce(&mut PhyScratch) -> R) -> R {
    PHY_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Expands raw FM0 bits into a per-sample PZT state stream: `pad`
/// absorptive samples, `spb` samples per raw bit (`1` reflects), then
/// `pad` absorptive samples again.
pub(crate) fn expand_states_into(raw: &BitBuf, spb: usize, pad: usize, out: &mut Vec<PztState>) {
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

/// The tag side of one seeded uplink packet, shared by every waveform
/// engine that replays packet sequences: payload draw, FM0 encoding, the
/// tag's 12 kHz timer stretching raw bits as its supply sags across the
/// cutoff band, and six bits of padding on each side, written to
/// `states`. The clock comes from `McuClock::for_tag(clock_seed, tid)`.
/// Returns the packet sent, or the field violation when `tid` does not
/// fit the 4-bit TID field.
pub(crate) fn modulate_uplink(
    clock_seed: u64,
    tid: u8,
    fs: f64,
    ul_bps: f64,
    packet_seed: u64,
    states: &mut Vec<PztState>,
) -> Result<UlPacket, PacketError> {
    let mut rng = TagRng::new(packet_seed);
    let payload = (rng.next_u64() & 0xFFF) as u16;
    let pkt = UlPacket::new(tid, payload)?;
    let raw = Fm0Encoder::new().encode(pkt.to_bits().iter());
    let mut clock = McuClock::for_tag(clock_seed, tid);
    clock.set_supply(1.95 + 0.35 * rng.unit_f64());
    let spb = (fs * (1.0 / ul_bps) * (12_000.0 / clock.actual_hz())).round() as usize;
    expand_states_into(&raw, spb, 6 * spb, states);
    Ok(pkt)
}

/// The envelope-detector diode drop (V).
const DIODE_DROP_V: f64 = 0.15;
/// The envelope-detector threshold the tag comparator switches at (V).
const COMPARATOR_THRESHOLD_V: f64 = 0.12;
/// Envelope-detector RC time constant (s) — ~9 carrier cycles; fast
/// enough that pulse-width distortion stays below half a raw bit at
/// 500 bps even for the strongest tag.
const ENVELOPE_TAU_S: f64 = 9.0 / 90_000.0;

/// Transforms reader TX edges into the edges at tag `tid`'s comparator
/// output, written to `out` (cleared first): path delay plus the envelope
/// detector's threshold-crossing delays for the tag's received amplitude
/// (carrier voltage minus the diode drop). A rising edge waits for the
/// envelope to charge to the threshold. A falling edge waits for it to
/// decay, and on top of the detector's own RC the *reader PZT's ring
/// tail* keeps pumping the channel after the drive stops: with plain OOK
/// the transducer rings freely (τ = 2Q_free/ω ≈ 0.5 ms), while the
/// FSK-in/OOK-out drive keeps it amplifier-loaded (τ ≈ 0.1 ms) — Sec.
/// 4.1's mitigation. `false` means the tag is not in the deployment or
/// its amplitude is below the threshold: it hears nothing.
pub(crate) fn beacon_edges_at_tag(
    channel: &BiwChannel,
    scheme: DriveScheme,
    tid: u8,
    edges: &[(f64, bool)],
    out: &mut Vec<(f64, bool)>,
) -> bool {
    out.clear();
    let Some(site) = channel.deployment().site(tid) else {
        return false;
    };
    let Some(v) = channel.tag_carrier_voltage(tid) else {
        return false;
    };
    let a = (v - DIODE_DROP_V).max(0.0);
    let vth = COMPARATOR_THRESHOLD_V;
    if a <= vth {
        return false;
    }
    let rise = ENVELOPE_TAU_S * (a / (a - vth)).ln();
    let ring_tau = match scheme {
        DriveScheme::PlainOok => 2.0 * 141.0 / (2.0 * std::f64::consts::PI * 90_000.0),
        DriveScheme::FskInOokOut { .. } => 2.0 * 28.0 / (2.0 * std::f64::consts::PI * 90_000.0),
    };
    let fall = (ENVELOPE_TAU_S + ring_tau) * (a / vth).ln();
    let delay = site.path.delay_s();
    out.extend(
        edges
            .iter()
            .map(|&(t, rising)| (t + delay + if rising { rise } else { fall }, rising)),
    );
    true
}

/// Synthesizes one seeded uplink packet of `tid`, whose clock is keyed by
/// `clock_seed`, through `channel` into `s.wave` and returns the packet
/// that was sent. Everything — payload, supply sag, noise — is a pure
/// function of `packet_seed`. Panics when `tid` overflows the packet's
/// 4-bit TID field.
fn synth_uplink_packet(
    clock_seed: u64,
    channel: &BiwChannel,
    rx: &UplinkReceiver,
    tid: u8,
    packet_seed: u64,
    s: &mut PhyScratch,
) -> UlPacket {
    let (fs, ul_bps) = (channel.config().sample_rate, rx.config().ul_bps);
    let pkt = modulate_uplink(clock_seed, tid, fs, ul_bps, packet_seed, &mut s.states)
        .unwrap_or_else(|e| panic!("uplink packet from tag {tid}: {e}"));
    let len = s.states.len();
    channel.uplink_waveform_seeded_into(&[(tid, &s.states)], len, packet_seed, &mut s.wave);
    pkt
}

/// The channel each epoch of an uplink trial's packets crosses, shared
/// with the packets by refcount.
enum Epochs {
    /// One static channel; no epoch is stamped into the recorder.
    Static(Arc<BiwChannel>),
    /// A drift schedule; each epoch's start is stamped.
    Drifting(TimeVaryingChannel),
}

impl Epochs {
    fn count(&self) -> usize {
        match self {
            Epochs::Static(_) => 1,
            Epochs::Drifting(tvc) => tvc.epoch_count(),
        }
    }

    fn at(&self, epoch: usize) -> &BiwChannel {
        match self {
            Epochs::Static(channel) => channel,
            Epochs::Drifting(tvc) => tvc.channel_at(epoch),
        }
    }
}

/// The co-simulation environment.
pub struct WaveSim {
    /// Shared by refcount with the packets a trial fans out.
    channel: Arc<BiwChannel>,
    seed: u64,
    /// TX drive scheme: governs the reader-PZT ring tail seen by tags.
    drive_scheme: DriveScheme,
}

/// Result of an uplink packet-loss trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkResult {
    /// Packets sent.
    pub sent: u64,
    /// Packets not decoded (or decoded wrong).
    pub lost: u64,
    /// PSD-band SNR (dB) measured on a representative waveform.
    pub snr_db: f64,
}

/// Result of a downlink packet-loss trial.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkResult {
    /// Beacons sent.
    pub sent: u64,
    /// Beacons not decoded correctly by the tag.
    pub lost: u64,
}

impl WaveSim {
    /// Environment over the paper's deployment with the given noise floor.
    pub fn new(seed: u64, noise: NoiseConfig) -> Self {
        let channel = BiwChannel::paper(ChannelConfig {
            noise,
            seed,
            ..ChannelConfig::default()
        });
        Self {
            channel: Arc::new(channel),
            seed,
            drive_scheme: DriveScheme::paper_default(),
        }
    }

    /// Selects the TX drive scheme (the Sec. 4.1 ring-effect ablation:
    /// plain OOK leaves a long free ring tail; FSK-in/OOK-out keeps the
    /// amplifier loading the transducer, damping it ~5x faster).
    pub fn with_drive_scheme(mut self, scheme: DriveScheme) -> Self {
        self.drive_scheme = scheme;
        self
    }

    /// Default environment: the noise floor calibrated so uplink losses
    /// match Fig. 12(b)'s regime (sub-percent at low rates, growing with
    /// rate).
    pub fn paper(seed: u64) -> Self {
        Self::new(
            seed,
            NoiseConfig {
                floor_sigma: 0.013,
                ..NoiseConfig::default()
            },
        )
    }

    /// The underlying channel.
    pub fn channel(&self) -> &BiwChannel {
        &self.channel
    }

    /// A receiver tuned for `ul_bps` uplink. Build one per (cell, rate) —
    /// not per packet — and pass it to [`Self::uplink_packet`].
    pub fn uplink_rx(&self, ul_bps: f64) -> UplinkReceiver {
        UplinkReceiver::new(RxConfig {
            ul_bps,
            ..RxConfig::default()
        })
    }

    /// Base seed for a (tag, rate) uplink trial sequence: packet `i` of
    /// the sequence uses `trial_seed(base, i)`, so trials are pure
    /// functions of their index and parallelize without order effects.
    pub fn uplink_base_seed(&self, tid: u8, ul_bps: f64) -> u64 {
        trial_seed(self.seed ^ (u64::from(tid) << 32), ul_bps.to_bits())
    }

    /// Sends one seeded packet from `tid` through the channel and the
    /// receiver; `true` when it decodes exactly. Pure in `packet_seed`,
    /// so any thread may run any packet of a trial sequence.
    pub fn uplink_packet(
        &self,
        rx: &UplinkReceiver,
        tid: u8,
        packet_seed: u64,
        s: &mut PhyScratch,
    ) -> bool {
        let pkt = synth_uplink_packet(self.seed, &self.channel, rx, tid, packet_seed, s);
        let PhyScratch { wave, rx: rxs, .. } = s;
        rx.process_slot_with(wave, rxs).packet == Some(pkt)
    }

    /// PSD-band SNR of the representative (index-0) packet waveform for
    /// this (tag, rate) — the paper's Fig. 12(a) metric. Independent of
    /// how many packets a trial sends.
    pub fn uplink_snr(&self, rx: &UplinkReceiver, tid: u8, s: &mut PhyScratch) -> f64 {
        let seed0 = trial_seed(self.uplink_base_seed(tid, rx.config().ul_bps), 0);
        synth_uplink_packet(self.seed, &self.channel, rx, tid, seed0, s);
        let PhyScratch { wave, rx: rxs, .. } = s;
        rx.uplink_snr_db_with(wave, rxs)
    }

    /// Fig. 12: sends `n` packets from `tid` at `ul_bps` and counts losses;
    /// measures SNR on the representative (index-0) waveform, which is
    /// synthesized once and shared between the SNR estimate and the decode.
    pub fn uplink_trial(&self, tid: u8, ul_bps: f64, n: u64) -> UplinkResult {
        // Hot path deliberately runs through the instrumented variant with
        // a disabled recorder: the `phy/full_uplink_trial` bench gate proves
        // that path costs the same as the uninstrumented one did.
        self.uplink_trial_observed(tid, ul_bps, n, &mut Recorder::disabled())
    }

    /// [`Self::uplink_trial`] with a flight recorder watching every packet:
    /// successful decodes are counted ([`EventKind::Decoded`]); losses land
    /// in the ring as [`EventKind::DecodeFail`] carrying the receiver's
    /// stage-of-failure reason, stamped with the packet index as the slot.
    pub fn uplink_trial_observed(
        &self,
        tid: u8,
        ul_bps: f64,
        n: u64,
        recorder: &mut Recorder,
    ) -> UplinkResult {
        let epochs = Epochs::Static(Arc::clone(&self.channel));
        self.uplink_packets(epochs, self.uplink_rx(ul_bps), tid, n, recorder)
            .pop()
            .expect("a static trial has one epoch")
    }

    /// Drifting-channel uplink trial: sends `n_per_epoch` packets from
    /// `tid` through *each* epoch of the drift schedule in order, switching
    /// the prebuilt epoch channel at the boundaries — the per-packet loop
    /// is the one [`Self::uplink_trial`] runs. Packet seeds are a pure
    /// function of the global packet index, so an identity drift schedule
    /// reproduces [`Self::uplink_trial`] exactly and results are
    /// thread-invariant.
    ///
    /// Each epoch boundary is stamped into the recorder as
    /// [`EventKind::ChannelEpoch`] (slot = global packet index); per-epoch
    /// SNR is measured on the epoch's first packet. Returns one
    /// [`UplinkResult`] per epoch.
    pub fn uplink_trial_drifting(
        &self,
        tvc: &TimeVaryingChannel,
        tid: u8,
        ul_bps: f64,
        n_per_epoch: u64,
        recorder: &mut Recorder,
    ) -> Vec<UplinkResult> {
        let epochs = Epochs::Drifting(tvc.clone());
        self.uplink_packets(epochs, self.uplink_rx(ul_bps), tid, n_per_epoch, recorder)
    }

    /// The per-packet loop behind every uplink trial: sends `n` packets of
    /// `tid`'s sequence at `rx`'s rate through each epoch's channel (packet
    /// `epoch·n + i`) and decodes each. SNR is measured on each epoch's
    /// first packet, which is synthesized (once, shared with its decode)
    /// even when `n == 0`.
    ///
    /// Every packet of every epoch is one item of a single [`fan_out`],
    /// pure in its index and taking the scratch of the thread it runs on,
    /// so workers that have run out of trials can finish this one. The
    /// fold then rebuilds the serial loop's results and recorder stream in
    /// index order: a drifting epoch's first packet index is stamped as
    /// [`EventKind::ChannelEpoch`], decodes are counted as
    /// [`EventKind::Decoded`], and losses are recorded as
    /// [`EventKind::DecodeFail`] with slot = packet index.
    fn uplink_packets(
        &self,
        epochs: Epochs,
        rx: UplinkReceiver,
        tid: u8,
        n: u64,
        recorder: &mut Recorder,
    ) -> Vec<UplinkResult> {
        let base = self.uplink_base_seed(tid, rx.config().ul_bps);
        let clock_seed = self.seed;
        let (count, per) = (epochs.count(), n.max(1));
        let drifting = matches!(epochs, Epochs::Drifting(_));
        let outcomes = fan_out(count * per as usize, move |k| {
            let (epoch, i) = (k as u64 / per, k as u64 % per);
            let channel = epochs.at(epoch as usize);
            let packet_seed = trial_seed(base, epoch * n + i);
            with_phy_scratch(|s| {
                let pkt = synth_uplink_packet(clock_seed, channel, &rx, tid, packet_seed, s);
                let PhyScratch { wave, rx: rxs, .. } = s;
                let snr_db = (i == 0).then(|| rx.uplink_snr_db_with(wave, rxs));
                let decode = (i < n).then(|| {
                    let out = rx.process_slot_with(wave, rxs);
                    // A decode to the *wrong* packet passed CRC on a
                    // corrupted waveform — report it as a CRC-level
                    // failure rather than inventing a new taxon.
                    if out.packet == Some(pkt) {
                        Ok(())
                    } else {
                        Err(out.fail.unwrap_or(DecodeFailReason::BadCrc))
                    }
                });
                (snr_db, decode)
            })
        });
        let mut outcomes = outcomes.into_iter();
        (0..count)
            .map(|epoch| {
                let first = epoch as u64 * n;
                if drifting {
                    let epoch = epoch.min(u16::MAX as usize) as u16;
                    recorder.record(first, NO_TAG, EventKind::ChannelEpoch { epoch });
                }
                let mut result = UplinkResult {
                    sent: n,
                    lost: 0,
                    snr_db: f64::NAN,
                };
                for (packet, (snr_db, decode)) in
                    (first..).zip(outcomes.by_ref().take(per as usize))
                {
                    if let Some(snr_db) = snr_db {
                        result.snr_db = snr_db;
                    }
                    match decode {
                        Some(Ok(())) => recorder.note(EventKind::Decoded),
                        Some(Err(reason)) => {
                            result.lost += 1;
                            recorder.record(packet, tid, EventKind::DecodeFail { reason });
                        }
                        None => {}
                    }
                }
                result
            })
            .collect()
    }

    /// Base seed for a (tag, rate) downlink beacon sequence.
    pub fn downlink_base_seed(&self, tid: u8, dl_bps: f64) -> u64 {
        trial_seed(self.seed ^ 0xD1D1 ^ (u64::from(tid) << 24), dl_bps.to_bits())
    }

    /// Sends one seeded beacon to `tid` at `dl_bps`; `true` when the
    /// tag's demodulator recovers it exactly. The transmitter's jitter
    /// RNG is stateful, so each beacon gets a fresh transmitter keyed by
    /// `beacon_seed` — making the outcome a pure function of the seed.
    /// The start time is drawn from the seed too: real beacons arrive at
    /// arbitrary phases of the tag's 12 kHz timer, and a fixed start would
    /// pin every beacon to one (possibly pathological) quantisation phase.
    pub fn downlink_beacon(&self, tid: u8, dl_bps: f64, beacon_seed: u64) -> bool {
        let mut rng = TagRng::new(beacon_seed);
        let mut tx = BeaconTransmitter::new(dl_bps, rng.next_u64());
        let cmd = DlCmd::from_nibble((rng.next_u64() & 0xF) as u8);
        let beacon = DlBeacon::new(cmd);
        let edges = tx.edges(&beacon, rng.unit_f64());
        let mut tag_edges = Vec::new();
        let scheme = self.drive_scheme;
        if !beacon_edges_at_tag(&self.channel, scheme, tid, &edges, &mut tag_edges) {
            return false;
        }
        let mut demod = PieDemodulator::new(McuClock::for_tag(self.seed, tid), dl_bps);
        demod.set_supply(1.95 + 0.35 * rng.unit_f64());
        let decoded = demod.feed_edges(&tag_edges);
        decoded.len() == 1 && decoded[0].beacon == beacon
    }

    /// Fig. 13(a): sends `n` beacons at `dl_bps` to tag `tid` and counts
    /// decode failures.
    pub fn downlink_trial(&self, tid: u8, dl_bps: f64, n: u64) -> DownlinkResult {
        let base = self.downlink_base_seed(tid, dl_bps);
        let mut lost = 0;
        for i in 0..n {
            if !self.downlink_beacon(tid, dl_bps, trial_seed(base, i)) {
                lost += 1;
            }
        }
        DownlinkResult { sent: n, lost }
    }

    /// Fig. 13(b): one beacon broadcast; per-tag decode-completion offsets
    /// relative to Tag 6, in seconds. Tags that fail to decode are omitted.
    pub fn sync_offsets(&self) -> Vec<(u8, f64)> {
        let mut tx = BeaconTransmitter::new(250.0, self.seed ^ 0x5F0C);
        let beacon = DlBeacon::new(DlCmd::nack().with_empty(true));
        let edges = tx.edges(&beacon, 0.0);
        let mut completions: Vec<(u8, f64)> = Vec::new();
        let mut tag_edges = Vec::new();
        for site in &Deployment::paper().sites {
            let tid = site.id;
            let scheme = self.drive_scheme;
            if !beacon_edges_at_tag(&self.channel, scheme, tid, &edges, &mut tag_edges) {
                continue;
            }
            let mut demod = PieDemodulator::new(McuClock::for_tag(self.seed, tid), 250.0);
            let decoded = demod.feed_edges(&tag_edges);
            if let Some(d) = decoded.first() {
                completions.push((tid, d.completed_at));
            }
        }
        let reference = completions
            .iter()
            .find(|&&(tid, _)| tid == 6)
            .map(|&(_, t)| t)
            .unwrap_or_else(|| completions.first().map(|&(_, t)| t).unwrap_or(0.0));
        completions
            .into_iter()
            .map(|(tid, t)| (tid, t - reference))
            .collect()
    }

    /// Fig. 14(b): one seeded ping-pong round — beacon duration plus the
    /// guard + UL + software-latency reply stage. Pure in `round_seed`.
    pub fn ping_pong_sample(&self, round_seed: u64) -> PingPong {
        let tx = BeaconTransmitter::new(250.0, round_seed);
        let latency = LatencyModel::default();
        let mut rng = TagRng::new(round_seed ^ 0xB0B0);
        let beacon = DlBeacon::new(DlCmd::ack());
        let stage1 = tx.beacon_duration(&beacon);
        let stage2 = arachnet_core::rates::TAG_REPLY_GUARD_S
            + 2.0 * arachnet_core::packet::UL_PACKET_BITS as f64 / 375.0
            + latency.sample(&mut rng);
        PingPong {
            stage1_s: stage1,
            stage2_s: stage2,
        }
    }

    /// Fig. 14(b): samples `n` ping-pong latencies.
    pub fn ping_pong_samples(&self, n: usize) -> Vec<PingPong> {
        (0..n)
            .map(|i| self.ping_pong_sample(trial_seed(self.seed ^ 0x1414, i as u64)))
            .collect()
    }

    /// Fig. 14(a): the raw reader-side waveform of one ping-pong — beacon
    /// (strong, keyed carrier), 20 ms tag guard (CW leak), UL packet
    /// (backscatter on leak). Returns `(waveform, sample_rate)`.
    pub fn ping_pong_waveform(&self, tid: u8) -> (Vec<f64>, f64) {
        let fs = self.channel.config().sample_rate;
        let tx = BeaconTransmitter::new(250.0, self.seed);
        let beacon = DlBeacon::new(DlCmd::ack());
        let levels = tx.raw_levels(&beacon);
        let spl = (fs / 250.0).round() as usize;
        // Beacon segment: keyed carrier at TX amplitude (what the RX PZT
        // sees from the neighbouring TX PZT is essentially the drive).
        let w = 2.0 * std::f64::consts::PI * 90_000.0 / fs;
        let mut wave: Vec<f64> = Vec::new();
        let amp = self.channel.config().carrier_leakage * 2.0;
        for (li, &lvl) in levels.iter().enumerate() {
            for k in 0..spl {
                let n = li * spl + k;
                wave.push(if lvl { amp * (w * n as f64).sin() } else { 0.0 });
            }
        }
        // Guard + UL segment via the uplink synthesizer.
        let pkt = UlPacket::new(tid, 0x3A5)
            .unwrap_or_else(|e| panic!("ping-pong uplink from tag {tid}: {e}"));
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(pkt.to_bits().iter()).to_bools();
        let spb = (fs / 375.0).round() as usize;
        let guard = (0.020 * fs) as usize;
        let mut states = vec![PztState::Absorptive; guard];
        states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
        states.extend(vec![PztState::Absorptive; spb * 4]);
        let len = states.len();
        let ul = self.channel.uplink_waveform(&[(tid, &states)], len);
        wave.extend(ul);
        (wave, fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_packet_is_pure_in_seed_and_scratch() {
        // The same packet seed must decode identically through a fresh
        // scratch and one warmed on a different tag — scratch contents
        // must never leak into results.
        let sim = WaveSim::paper(11);
        let rx = sim.uplink_rx(375.0);
        let base = sim.uplink_base_seed(8, 375.0);
        let mut warm = PhyScratch::default();
        sim.uplink_packet(&rx, 11, trial_seed(base, 5), &mut warm);
        let mut fresh = PhyScratch::default();
        for i in 0..4 {
            let s = trial_seed(base, i);
            let a = sim.uplink_packet(&rx, 8, s, &mut fresh);
            let b = sim.uplink_packet(&rx, 8, s, &mut warm);
            assert_eq!(a, b, "packet {i} diverged between fresh and warm scratch");
        }
        let snr_a = sim.uplink_snr(&rx, 8, &mut fresh);
        let snr_b = sim.uplink_snr(&rx, 8, &mut warm);
        assert_eq!(snr_a, snr_b);
    }

    #[test]
    #[should_panic(expected = "TID 31")]
    fn out_of_range_tid_panics_instead_of_sending_another_tags_id() {
        // TID is a 4-bit packet field: tag 31 used to go out as tag 15.
        WaveSim::paper(1).uplink_trial(31, 375.0, 1);
    }

    #[test]
    #[should_panic(expected = "TID 31")]
    fn ping_pong_waveform_rejects_an_out_of_range_tid() {
        // It used to send tag 31's uplink as tag 15's.
        WaveSim::new(10, NoiseConfig::silent()).ping_pong_waveform(31);
    }

    #[test]
    fn downlink_beacon_is_pure_in_seed() {
        let sim = WaveSim::paper(12);
        let base = sim.downlink_base_seed(8, 250.0);
        for i in 0..8 {
            let s = trial_seed(base, i);
            assert_eq!(
                sim.downlink_beacon(8, 250.0, s),
                sim.downlink_beacon(8, 250.0, s)
            );
        }
    }

    #[test]
    fn uplink_low_rate_is_reliable() {
        let sim = WaveSim::paper(1);
        let r = sim.uplink_trial(8, 3_000.0, 15);
        // At 3 kbps the strongest tag should still be near-lossless.
        assert!(r.lost <= 1, "{}/{} lost", r.lost, r.sent);
        assert!(r.snr_db > 5.0, "snr {:.1}", r.snr_db);
    }

    #[test]
    fn observed_uplink_trial_matches_unobserved() {
        // Attaching a recorder must not change a single loss count, and the
        // recorded events must reconcile exactly with the result.
        let sim = WaveSim::paper(13);
        let bare = sim.uplink_trial(11, 1_500.0, 20);
        let mut rec = Recorder::enabled(13);
        let observed = sim.uplink_trial_observed(11, 1_500.0, 20, &mut rec);
        assert_eq!(bare.lost, observed.lost);
        assert_eq!(bare.snr_db, observed.snr_db);
        let snap = rec.clone().into_snapshot();
        assert_eq!(snap.count_at(EventKind::Decoded.index()), observed.sent - observed.lost);
        let fails: u64 = (0..arachnet_obs::KIND_COUNT)
            .filter(|&i| {
                i == EventKind::DecodeFail { reason: DecodeFailReason::BadCrc }.index()
            })
            .map(|i| snap.count_at(i))
            .sum();
        assert_eq!(fails, observed.lost);
    }

    #[test]
    fn uplink_snr_ordering_matches_fig12a() {
        let sim = WaveSim::paper(2);
        let s8 = sim.uplink_trial(8, 375.0, 1).snr_db;
        let s4 = sim.uplink_trial(4, 375.0, 1).snr_db;
        let s11 = sim.uplink_trial(11, 375.0, 1).snr_db;
        assert!(s8 > s4 && s4 > s11, "s8={s8:.1} s4={s4:.1} s11={s11:.1}");
    }

    #[test]
    fn uplink_snr_falls_with_rate() {
        let sim = WaveSim::paper(3);
        let lo = sim.uplink_trial(8, 93.75, 1).snr_db;
        let hi = sim.uplink_trial(8, 3_000.0, 1).snr_db;
        assert!(lo > hi, "lo={lo:.1} hi={hi:.1}");
    }

    #[test]
    fn downlink_default_rate_is_nearly_lossless() {
        let sim = WaveSim::paper(4);
        for tid in [8u8, 4, 11] {
            let r = sim.downlink_trial(tid, 250.0, 100);
            assert!(
                (r.lost as f64) / (r.sent as f64) < 0.02,
                "tag {tid}: {}/{} lost at 250 bps",
                r.lost,
                r.sent
            );
        }
    }

    #[test]
    fn downlink_loss_surges_at_high_rates() {
        // Fig. 13(a)'s signature: heavy loss at 1–2 kbps.
        let sim = WaveSim::paper(5);
        let r2000 = sim.downlink_trial(8, 2_000.0, 100);
        assert!(
            r2000.lost > 30,
            "expected a surge at 2 kbps, got {}/{}",
            r2000.lost,
            r2000.sent
        );
        let r500 = sim.downlink_trial(8, 500.0, 100);
        assert!(
            r500.lost < r2000.lost,
            "500 bps ({}) vs 2 kbps ({})",
            r500.lost,
            r2000.lost
        );
    }

    #[test]
    fn downlink_loss_monotone_profile() {
        let sim = WaveSim::paper(6);
        let losses: Vec<u64> = [125.0, 250.0, 1_000.0, 2_000.0]
            .iter()
            .map(|&bps| sim.downlink_trial(4, bps, 60).lost)
            .collect();
        assert!(
            losses[0] <= losses[2] + 5 && losses[1] <= losses[2] + 5,
            "{losses:?}"
        );
        assert!(losses[3] >= losses[1], "{losses:?}");
    }

    #[test]
    fn sync_offsets_within_5ms() {
        // Fig. 13(b): all tags within ±5 ms of Tag 6.
        let sim = WaveSim::paper(7);
        let offsets = sim.sync_offsets();
        assert!(offsets.len() >= 10, "only {} tags decoded", offsets.len());
        for (tid, off) in &offsets {
            assert!(off.abs() < 5e-3, "tag {tid}: offset {off}");
        }
        // The reference itself is zero.
        let t6 = offsets.iter().find(|&&(t, _)| t == 6).unwrap();
        assert_eq!(t6.1, 0.0);
    }

    #[test]
    fn sync_offsets_are_not_all_identical() {
        let sim = WaveSim::paper(8);
        let offsets = sim.sync_offsets();
        let distinct = offsets.iter().filter(|(_, o)| o.abs() > 1e-6).count();
        assert!(distinct >= 5, "offsets suspiciously uniform: {offsets:?}");
    }

    #[test]
    fn identity_drift_reproduces_the_static_trial() {
        use biw_channel::timevarying::ChannelDrift;
        let sim = WaveSim::paper(14);
        let tvc = TimeVaryingChannel::paper(
            sim.channel().config().clone(),
            &[ChannelDrift::identity()],
        );
        let r = sim.uplink_trial_drifting(&tvc, 8, 1_500.0, 20, &mut Recorder::disabled());
        let bare = sim.uplink_trial(8, 1_500.0, 20);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].lost, bare.lost);
        assert_eq!(r[0].snr_db, bare.snr_db);
    }

    #[test]
    fn fading_epochs_lose_snr_and_get_recorded() {
        use biw_channel::timevarying::ChannelDrift;
        let sim = WaveSim::paper(15);
        let tvc = TimeVaryingChannel::paper(
            sim.channel().config().clone(),
            &[
                ChannelDrift::identity(),
                ChannelDrift::fade(0.5),
                ChannelDrift::fade(0.2),
            ],
        );
        let mut rec = Recorder::enabled(15);
        let r = sim.uplink_trial_drifting(&tvc, 8, 375.0, 5, &mut rec);
        assert_eq!(r.len(), 3);
        assert!(
            r[0].snr_db > r[1].snr_db && r[1].snr_db > r[2].snr_db,
            "SNR did not fall with the fade: {:?}",
            r.iter().map(|x| x.snr_db).collect::<Vec<_>>()
        );
        let snap = rec.into_snapshot();
        assert_eq!(
            snap.count_at(EventKind::ChannelEpoch { epoch: 0 }.index()),
            3,
            "one epoch marker per epoch"
        );
    }

    #[test]
    fn drifting_trial_is_deterministic() {
        use biw_channel::timevarying::ChannelDrift;
        let sim = WaveSim::paper(16);
        let tvc = TimeVaryingChannel::paper(
            sim.channel().config().clone(),
            &[ChannelDrift::identity(), ChannelDrift::fade(0.6)],
        );
        let a = sim.uplink_trial_drifting(&tvc, 11, 750.0, 10, &mut Recorder::disabled());
        let b = sim.uplink_trial_drifting(&tvc, 11, 750.0, 10, &mut Recorder::enabled(16));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.lost, y.lost);
            assert_eq!(x.snr_db, y.snr_db);
        }
    }

    #[test]
    fn helped_trials_equal_the_bare_calls() {
        // On a sweep worker a trial's packets fan out over the pool; the
        // results and every recorded event must be the bare call's.
        use crate::sweep::{run_matrix_sweep, SweepConfig};
        use biw_channel::timevarying::ChannelDrift;
        let sim = WaveSim::paper(17);
        let tvc = TimeVaryingChannel::paper(
            sim.channel().config().clone(),
            &[ChannelDrift::identity(), ChannelDrift::fade(0.3)],
        );
        let drifting = |tid| {
            let mut rec = Recorder::enabled(17);
            let r = sim.uplink_trial_drifting(&tvc, tid, 3_000.0, 6, &mut rec);
            (r, rec.into_snapshot())
        };
        let observed = |tid| {
            let mut rec = Recorder::enabled(17);
            let r = sim.uplink_trial_observed(tid, 3_000.0, 8, &mut rec);
            (vec![r], rec.into_snapshot())
        };
        let tags = [8u8, 4, 11];
        let bare_drifting: Vec<_> = tags.iter().map(|&t| drifting(t)).collect();
        let bare_observed: Vec<_> = tags.iter().map(|&t| observed(t)).collect();
        let losses: u64 = bare_drifting
            .iter()
            .flat_map(|(r, _)| r)
            .map(|r| r.lost)
            .sum();
        assert!(
            losses > 0,
            "the fade must lose packets, so DecodeFail events are compared too"
        );
        for threads in [1, 2, 3] {
            let cfg = SweepConfig::new(17).with_threads(threads);
            for (name, trial, bare) in [
                (
                    "drifting",
                    &drifting as &(dyn Fn(u8) -> _ + Sync),
                    &bare_drifting,
                ),
                ("observed", &observed, &bare_observed),
            ] {
                let run = run_matrix_sweep(&cfg, &tags, 1, |&tid, _, _| trial(tid));
                for (cell, want) in run.cells.iter().zip(bare) {
                    assert_eq!(
                        cell[0].as_ref().ok(),
                        Some(want),
                        "{name} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn ping_pong_distribution_matches_fig14b() {
        let sim = WaveSim::paper(9);
        let samples = sim.ping_pong_samples(1_000);
        let mut stage2: Vec<f64> = samples.iter().map(|p| p.stage2_s).collect();
        stage2.sort_by(f64::total_cmp);
        let p99 = stage2[989];
        assert!(p99 < 0.2819, "p99 {p99}");
        // Stage 2 ≈ 20 ms guard + 171 ms UL + ~59 ms software.
        let mean = stage2.iter().sum::<f64>() / stage2.len() as f64;
        assert!(mean > 0.22 && mean < 0.27, "mean {mean}");
        let total_max = samples.iter().map(|p| p.total()).fold(0.0f64, f64::max);
        assert!(total_max < 0.5, "total {total_max}");
    }

    #[test]
    fn ping_pong_stage1_is_the_beacon_on_air_time() {
        // Stage 1 is the ACK beacon's on-air time at 250 bps (24 raw
        // levels), whatever the round's seed; the software jitter lands in
        // stage 2 only.
        let sim = WaveSim::paper(9);
        let beacon = DlBeacon::new(DlCmd::ack());
        let on_air = BeaconTransmitter::new(250.0, 0).beacon_duration(&beacon);
        assert!((on_air - 24.0 / 250.0).abs() < 1e-9, "{on_air}");
        for seed in 0..16 {
            let pp = sim.ping_pong_sample(seed);
            assert_eq!(pp.stage1_s, on_air, "round seed {seed}");
            assert_eq!(pp.total(), pp.stage1_s + pp.stage2_s);
        }
    }

    #[test]
    fn ping_pong_waveform_shows_three_phases() {
        let sim = WaveSim::new(10, NoiseConfig::silent());
        let (wave, fs) = sim.ping_pong_waveform(8);
        let rms = |s: &[f64]| (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt();
        // Beacon phase: strong.
        let beacon_end = (23.0 / 250.0 * fs) as usize;
        let dl = rms(&wave[..beacon_end]);
        // Guard phase (CW leak only).
        let guard = rms(&wave[beacon_end + 100..beacon_end + (0.015 * fs) as usize]);
        assert!(dl > guard, "DL {dl} vs guard {guard}");
        assert!(guard > 0.5, "guard leak missing: {guard}");
        assert!(wave.len() as f64 / fs > 0.2, "waveform too short");
    }

}
