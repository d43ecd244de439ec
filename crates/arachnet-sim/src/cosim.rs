//! Full waveform co-simulation: the MAC loop closed over real signals.
//!
//! The slot-level simulator ([`crate::slotsim`]) abstracts the PHY into
//! loss probabilities. This engine removes that abstraction for the
//! ultimate integration check: every slot, the reader *really* transmits a
//! jittered PIE beacon as an edge stream, every tag *really* demodulates it
//! with its drifting 12 kHz clock and envelope-response delays, the MAC
//! state machines decide, transmitting tags *really* modulate FM0 onto the
//! synthesized acoustic channel (superposed if they collide), and the
//! reader *really* runs its DSP chain — decode, CRC, IQ-cluster collision
//! detection — before its MAC issues the next beacon.
//!
//! It is ~10⁵× more expensive per slot than the slot-level engine, so it
//! runs tens of slots, not tens of thousands — enough to watch a small
//! network converge with zero modeling shortcuts.
//!
//! Its tag set is fixed and the reader never goes dark: joins, leaves,
//! brownouts, outages and the flight recorder belong to
//! [`crate::slotsim`], the one scenario engine.

use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::mac::{ProtocolConfig, ReaderMac, SlotObservation};
use arachnet_core::packet::UlPacket;
use arachnet_core::rates::{DEFAULT_DL_BPS, DEFAULT_UL_BPS, MCU_CLOCK_HZ};
use arachnet_core::rng::TagRng;
use arachnet_core::slot::Period;
use arachnet_reader::rx::{RxConfig, RxScratch, SlotRx, UplinkReceiver};
use arachnet_reader::tx::BeaconTransmitter;
use arachnet_tag::demod::PieDemodulator;
use arachnet_tag::mcu::McuClock;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;
use biw_channel::resonator::DriveScheme;

use crate::wavesim::{beacon_edges_at_tag, draw_supply_v, expand_states_into};

/// Ground truth + reader view of one co-simulated slot.
#[derive(Debug, Clone)]
pub struct CoSimSlot {
    /// Tags that actually transmitted.
    pub transmitters: Vec<u8>,
    /// Tags that failed to decode the beacon this slot.
    pub beacon_losses: Vec<u8>,
    /// What the reader's RX chain decoded.
    pub rx: SlotRx,
    /// Significant IQ clusters in the slot.
    pub clusters: usize,
    /// The reader's collision verdict: more than two clusters.
    pub collision: bool,
}

struct CoSimTag {
    tid: u8,
    mac: arachnet_core::mac::TagMac,
    clock: McuClock,
    rng: TagRng,
}

/// Persistent per-engine working storage: slots reuse these buffers
/// instead of allocating fresh edge/state/waveform vectors each step.
/// Contents never carry over between slots (each is cleared before use),
/// only capacities do.
#[derive(Debug, Default)]
struct CoSimScratch {
    tag_edges: Vec<(f64, bool)>,
    streams: Vec<Vec<PztState>>,
    wave: Vec<f64>,
    rx: RxScratch,
}

/// The engine.
pub struct CoSim {
    channel: BiwChannel,
    reader_mac: ReaderMac,
    tx: BeaconTransmitter,
    rx: UplinkReceiver,
    tags: Vec<CoSimTag>,
    beacon: Option<arachnet_core::packet::DlBeacon>,
    slots_run: u64,
    scratch: CoSimScratch,
}

impl CoSim {
    /// Builds the engine over the paper deployment, at the paper's noise
    /// floor, protocol and default DL/UL rates, with one `(tid, period)`
    /// per tag. A tid with no site in the paper deployment never hears a
    /// beacon, so it never transmits: every slot counts as a beacon loss
    /// for it.
    pub fn new(tags: Vec<(u8, Period)>, seed: u64) -> Self {
        let protocol = ProtocolConfig::default();
        let channel = BiwChannel::paper(ChannelConfig {
            noise: NoiseConfig::paper(),
            seed,
            ..ChannelConfig::default()
        });
        let reader_mac = ReaderMac::new(protocol, &tags);
        let tx = BeaconTransmitter::new(DEFAULT_DL_BPS, seed ^ 0xBEAC);
        let rx = UplinkReceiver::new(RxConfig::default());
        let tags = tags
            .iter()
            .map(|&(tid, period)| CoSimTag {
                tid,
                mac: arachnet_core::mac::TagMac::new(
                    tid,
                    period,
                    protocol,
                    TagRng::for_tag(seed, tid),
                ),
                clock: McuClock::for_tag(seed, tid),
                rng: TagRng::for_tag(seed ^ 0x51de, tid),
            })
            .collect();
        Self {
            channel,
            reader_mac,
            tx,
            rx,
            tags,
            beacon: None,
            slots_run: 0,
            scratch: CoSimScratch::default(),
        }
    }

    /// Settled-tag count (for convergence checks).
    pub fn settled(&self) -> usize {
        self.tags
            .iter()
            .filter(|t| t.mac.state() == arachnet_core::mac::MacState::Settle)
            .count()
    }

    /// Per-tag `(tid, state, offset)` snapshot.
    pub fn tag_states(&self) -> Vec<(u8, arachnet_core::mac::MacState, u32)> {
        self.tags
            .iter()
            .map(|t| (t.tid, t.mac.state(), t.mac.offset()))
            .collect()
    }

    /// Runs one slot end to end; returns what happened.
    pub fn step(&mut self) -> CoSimSlot {
        let beacon = match self.beacon.take() {
            Some(b) => b,
            None => self.reader_mac.start(),
        };

        // --- Downlink: real edges through the channel to every tag. ------
        let edges = self.tx.edges(&beacon, 0.0);
        let mut transmitters: Vec<u8> = Vec::new();
        let mut beacon_losses: Vec<u8> = Vec::new();
        for tag in &mut self.tags {
            // The paper's FSK-in/OOK-out drive: the reader PZT's ring tail
            // is the damped one.
            let heard = beacon_edges_at_tag(
                &self.channel,
                DriveScheme::FskInOokOut,
                tag.tid,
                &edges,
                &mut self.scratch.tag_edges,
            );
            let decoded = if heard {
                let mut demod = PieDemodulator::new(tag.clock, DEFAULT_DL_BPS);
                demod.set_supply(draw_supply_v(&mut tag.rng));
                demod.feed_edges(&self.scratch.tag_edges)
            } else {
                Vec::new()
            };
            match decoded.first() {
                Some(d) => {
                    if tag.mac.on_beacon(d.beacon.cmd).transmit {
                        transmitters.push(tag.tid);
                    }
                }
                None => {
                    beacon_losses.push(tag.tid);
                    tag.mac.on_beacon_timeout();
                }
            }
        }

        // --- Uplink: real FM0 waveforms, superposed. ----------------------
        let fs = self.channel.config().sample_rate;
        while self.scratch.streams.len() < transmitters.len() {
            self.scratch.streams.push(Vec::new());
        }
        for (k, &tid) in transmitters.iter().enumerate() {
            let tag = self
                .tags
                .iter_mut()
                .find(|t| t.tid == tid)
                .expect("known tid");
            let payload = (tag.rng.next_u64() & 0xFFF) as u16;
            let pkt = UlPacket::new(tid, payload)
                .unwrap_or_else(|e| panic!("uplink packet from tag {tid}: {e}"));
            // The tag's timer fires every `divider` ticks of its own
            // drifting clock (Fig. 6b).
            let divider = (MCU_CLOCK_HZ / DEFAULT_UL_BPS) as u32;
            assert!(divider >= 1);
            let raw = Fm0Encoder::new().encode(pkt.to_bits().iter());
            let spb = (fs * tag.clock.ticks_to_seconds(divider)).round() as usize;
            expand_states_into(&raw, spb, 4 * spb, &mut self.scratch.streams[k]);
        }
        // The channel's own seed keys slot noise, exactly as the eager
        // `uplink_waveform` did before buffers were made reusable.
        let noise_seed = self.channel.config().seed;
        let active = &self.scratch.streams[..transmitters.len()];
        let len = if transmitters.is_empty() {
            // Still listen to an idle window (leak + noise only).
            (0.05 * fs) as usize
        } else {
            active.iter().map(|s| s.len()).max().unwrap_or(0) + 2_000
        };
        let refs: Vec<(u8, &[PztState])> = transmitters
            .iter()
            .zip(active)
            .map(|(&t, s)| (t, s.as_slice()))
            .collect();
        self.channel
            .uplink_waveform_seeded_into(&refs, len, noise_seed, &mut self.scratch.wave);
        let CoSimScratch { wave, rx: rxs, .. } = &mut self.scratch;
        let rx_out = self.rx.process_slot_with(wave, rxs);
        let clusters = self.rx.iq_clusters(rxs);
        let collision = clusters > 2;

        // --- Reader MAC closes the loop. ----------------------------------
        let obs = SlotObservation {
            decoded: rx_out.packet.map(|p| p.tid()),
            collision,
        };
        self.beacon = Some(self.reader_mac.end_slot(obs));
        self.slots_run += 1;
        CoSimSlot {
            transmitters,
            beacon_losses,
            rx: rx_out,
            clusters,
            collision,
        }
    }

    /// Runs until every tag is settled and the last `clean_streak` slots
    /// were collision-free, or `cap` slots. Returns the slot count on
    /// success.
    pub fn run_until_converged(&mut self, clean_streak: u32, cap: u64) -> Option<u64> {
        let mut streak = 0;
        while self.slots_run < cap {
            let slot = self.step();
            if slot.collision {
                streak = 0;
            } else {
                streak += 1;
            }
            if streak >= clean_streak && self.settled() == self.tags.len() {
                return Some(self.slots_run);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Period {
        Period::new(v).unwrap()
    }

    #[test]
    fn two_tag_network_converges_on_real_waveforms() {
        let mut sim = CoSim::new(vec![(8, p(2)), (7, p(2))], 3);
        let at = sim.run_until_converged(4, 60);
        assert!(at.is_some(), "no convergence in 60 waveform slots");
        assert_eq!(sim.settled(), 2);
    }

    #[test]
    fn four_tag_table1_network_converges() {
        let tags = vec![(8, p(2)), (7, p(4)), (5, p(8)), (6, p(8))];
        let mut sim = CoSim::new(tags, 7);
        let at = sim.run_until_converged(8, 150);
        assert!(
            at.is_some(),
            "Table-1 network failed to converge end to end"
        );
    }

    #[test]
    fn collisions_are_really_detected_from_waveforms() {
        // Two period-1 tags must collide every slot until migration breaks
        // the tie — the collision flag must come from IQ clustering, and
        // eventually single transmissions decode.
        let mut sim = CoSim::new(vec![(8, p(2)), (5, p(2))], 11);
        let mut saw_collision = false;
        let mut saw_decode = false;
        for _ in 0..40 {
            let slot = sim.step();
            if slot.transmitters.len() > 1 {
                assert!(
                    slot.collision,
                    "simultaneous TX not flagged: {} clusters",
                    slot.clusters
                );
                saw_collision = true;
            }
            if slot.transmitters.len() == 1 && slot.rx.packet.is_some() {
                saw_decode = true;
            }
            if saw_collision && saw_decode {
                break;
            }
        }
        assert!(saw_decode, "no clean decode in 40 slots");
    }

    /// Per slot: transmitters, decoded tid, collision verdict, clusters.
    type Golden<'a> = (&'a [u8], Option<u8>, bool, usize);

    fn assert_golden(mut sim: CoSim, want: &[Golden]) {
        for (slot, &(tx, tid, collision, clusters)) in want.iter().enumerate() {
            let s = sim.step();
            let got = (s.transmitters.as_slice(), s.rx.packet.map(|p| p.tid()));
            assert_eq!(got, (tx, tid), "slot {slot}");
            assert_eq!(
                (s.collision, s.clusters),
                (collision, clusters),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn waveform_network_slots_match_the_recorded_run() {
        // `examples/waveform_network.rs`'s network, whose verdict drives
        // the reader MAC every slot; no METRICS file covers this path.
        let tags = vec![(8, p(2)), (7, p(4)), (5, p(8)), (6, p(8))];
        let want: [Golden; 40] = [
            (&[], None, false, 1),
            (&[8], Some(8), false, 2),
            (&[], None, false, 1),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[], None, false, 1),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[6], Some(6), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[6], Some(6), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[6], Some(6), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
            (&[8], Some(8), false, 2),
            (&[7], Some(7), false, 2),
            (&[8], Some(8), false, 2),
        ];
        assert_golden(CoSim::new(tags, 21), &want);
        // It never collides, so also pin two period-2 tags that collide in
        // slot 0 (four clusters; capture still decodes Tag 8) and then
        // alternate.
        let pair = vec![(8, p(2)), (5, p(2))];
        let want: [Golden; 5] = [
            (&[8, 5], Some(8), true, 4),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
            (&[8], Some(8), false, 2),
            (&[5], Some(5), false, 2),
        ];
        assert_golden(CoSim::new(pair, 11), &want);
    }

    #[test]
    fn beacon_losses_are_rare_at_default_rate() {
        let mut sim = CoSim::new(vec![(8, p(2)), (11, p(4))], 13);
        let mut losses = 0;
        for _ in 0..30 {
            losses += sim.step().beacon_losses.len();
        }
        assert!(losses <= 1, "{losses} beacon losses in 60 deliveries");
    }
}
