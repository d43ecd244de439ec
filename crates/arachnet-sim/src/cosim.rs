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

use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::mac::{ProtocolConfig, ReaderMac, SlotObservation};
use arachnet_core::packet::UlPacket;
use arachnet_core::rates::{DEFAULT_DL_BPS, DEFAULT_UL_BPS, MCU_CLOCK_HZ};
use arachnet_core::rng::TagRng;
use arachnet_core::slot::Period;
use arachnet_obs::{DecodeFailReason, EventKind, Recorder, RecorderSnapshot, NO_TAG};
use arachnet_reader::rx::{RxConfig, RxScratch, SlotRx, UplinkReceiver};
use arachnet_reader::tx::BeaconTransmitter;
use arachnet_tag::demod::PieDemodulator;
use arachnet_tag::mcu::McuClock;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;
use biw_channel::resonator::DriveScheme;

use crate::scenario::{Scenario, ScenarioEvent};
use crate::wavesim::{beacon_edges_at_tag, draw_supply_v, expand_states_into};

/// Configuration of the co-simulation.
#[derive(Debug, Clone)]
pub struct CoSimConfig {
    /// `(tid, period)` for each tag. A tid with no site in the paper
    /// deployment never hears a beacon, so it never transmits: every slot
    /// counts as a beacon loss for it.
    pub tags: Vec<(u8, Period)>,
    /// Protocol parameters.
    pub protocol: ProtocolConfig,
    /// DL raw bit rate (bps).
    pub dl_bps: f64,
    /// UL raw bit rate (bps).
    pub ul_bps: f64,
    /// Channel noise.
    pub noise: NoiseConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl CoSimConfig {
    /// Paper-default rates over the given tag set.
    pub fn new(tags: Vec<(u8, Period)>, seed: u64) -> Self {
        Self {
            tags,
            protocol: ProtocolConfig::default(),
            dl_bps: DEFAULT_DL_BPS,
            ul_bps: DEFAULT_UL_BPS,
            noise: NoiseConfig::paper(),
            seed,
        }
    }
}

/// Ground truth + reader view of one co-simulated slot.
#[derive(Debug, Clone)]
pub struct CoSimSlot {
    /// Tags that actually transmitted.
    pub transmitters: Vec<u8>,
    /// Tags that failed to decode the beacon this slot.
    pub beacon_losses: Vec<u8>,
    /// What the reader's RX chain decoded.
    pub rx: SlotRx,
    /// Significant IQ clusters in the slot (0 while the reader is dark).
    pub clusters: usize,
    /// The reader's collision verdict: more than two clusters.
    pub collision: bool,
}

struct CoSimTag {
    tid: u8,
    mac: arachnet_core::mac::TagMac,
    clock: McuClock,
    rng: TagRng,
    /// Physically present (scenario churn toggles this; absent tags hear
    /// nothing and never transmit).
    deployed: bool,
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

/// Scenario playback state for a co-simulation (see [`crate::scenario`]).
struct CoSimScenario {
    scenario: Scenario,
    next_event: usize,
    outage_until: u64,
}

/// The engine.
pub struct CoSim {
    config: CoSimConfig,
    channel: BiwChannel,
    reader_mac: ReaderMac,
    tx: BeaconTransmitter,
    rx: UplinkReceiver,
    tags: Vec<CoSimTag>,
    beacon: Option<arachnet_core::packet::DlBeacon>,
    slots_run: u64,
    scratch: CoSimScratch,
    recorder: Recorder,
    scenario: Option<CoSimScenario>,
}

impl CoSim {
    /// Builds the engine over the paper deployment.
    pub fn new(config: CoSimConfig) -> Self {
        Self::build(config, None)
    }

    /// Builds the engine with a dynamic-network scenario: churn events
    /// toggle tags in and out of the deployment, reader outages silence the
    /// beacon. Tags that only ever appear through
    /// [`ScenarioEvent::TagJoin`] are pre-registered with the reader but
    /// start undeployed. [`ScenarioEvent::NoiseBurst`] is a slot-domain
    /// abstraction and is ignored at the waveform level (the noise floor is
    /// baked into the channel); use [`crate::slotsim`] to study bursts.
    pub fn with_scenario(config: CoSimConfig, scenario: Scenario) -> Self {
        Self::build(config, Some(scenario))
    }

    fn build(config: CoSimConfig, scenario: Option<Scenario>) -> Self {
        // The reader registry covers the configured tags plus every tag the
        // scenario will ever join; join-only tags start undeployed.
        let mut roster = config.tags.clone();
        if let Some(sc) = &scenario {
            for (tid, period) in sc.join_registry() {
                if !roster.iter().any(|&(t, _)| t == tid) {
                    roster.push((tid, period));
                }
            }
        }
        let channel = BiwChannel::paper(ChannelConfig {
            noise: config.noise,
            seed: config.seed,
            ..ChannelConfig::default()
        });
        let reader_mac = ReaderMac::new(config.protocol, &roster);
        let tx = BeaconTransmitter::new(config.dl_bps, config.seed ^ 0xBEAC);
        let rx = UplinkReceiver::new(RxConfig {
            ul_bps: config.ul_bps,
            ..RxConfig::default()
        });
        let preset = config.tags.len();
        let tags = roster
            .iter()
            .enumerate()
            .map(|(i, &(tid, period))| CoSimTag {
                tid,
                mac: arachnet_core::mac::TagMac::new(
                    tid,
                    period,
                    config.protocol,
                    TagRng::for_tag(config.seed, tid),
                ),
                clock: McuClock::for_tag(config.seed, tid),
                rng: TagRng::for_tag(config.seed ^ 0x51de, tid),
                deployed: i < preset,
            })
            .collect();
        Self {
            config,
            channel,
            reader_mac,
            tx,
            rx,
            tags,
            beacon: None,
            slots_run: 0,
            scratch: CoSimScratch::default(),
            recorder: Recorder::disabled(),
            scenario: scenario.map(|scenario| CoSimScenario {
                scenario,
                next_event: 0,
                outage_until: 0,
            }),
        }
    }

    /// Attach a flight recorder; subsequent [`CoSim::step`] calls will log
    /// structured events into it. Has no effect on sim outcomes.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The currently attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Detach the recorder and consume it into an immutable snapshot
    /// (subsequent slots run unobserved).
    pub fn take_recorder_snapshot(&mut self) -> RecorderSnapshot {
        std::mem::replace(&mut self.recorder, Recorder::disabled()).into_snapshot()
    }

    /// Slots executed.
    pub fn slots_run(&self) -> u64 {
        self.slots_run
    }

    /// Settled-tag count among deployed tags (for convergence checks).
    pub fn settled(&self) -> usize {
        self.tags
            .iter()
            .filter(|t| t.deployed && t.mac.state() == arachnet_core::mac::MacState::Settle)
            .count()
    }

    /// Tags currently deployed (physically present).
    pub fn deployed(&self) -> usize {
        self.tags.iter().filter(|t| t.deployed).count()
    }

    /// Per-tag `(tid, state, offset)` snapshot.
    pub fn tag_states(&self) -> Vec<(u8, arachnet_core::mac::MacState, u32)> {
        self.tags
            .iter()
            .map(|t| (t.tid, t.mac.state(), t.mac.offset()))
            .collect()
    }

    /// Plays every scenario event due at `slot` (events are sorted by
    /// [`crate::scenario::ScenarioBuilder::build`]).
    fn apply_scenario_events(&mut self, slot: u64) {
        loop {
            let ev = {
                let st = self.scenario.as_ref().expect("scenario playback state");
                match st.scenario.events().get(st.next_event) {
                    Some(ev) if ev.at <= slot => ev.event,
                    _ => break,
                }
            };
            match ev {
                ScenarioEvent::TagJoin { tid, .. } => {
                    if let Some(tag) = self.tags.iter_mut().find(|t| t.tid == tid && !t.deployed) {
                        tag.deployed = true;
                        tag.mac.power_on_reset();
                        self.recorder.record(slot, tid, EventKind::TagJoined);
                    }
                }
                ScenarioEvent::TagLeave { tid } => {
                    if let Some(tag) = self.tags.iter_mut().find(|t| t.tid == tid && t.deployed) {
                        tag.deployed = false;
                        self.recorder.record(slot, tid, EventKind::TagDeparted);
                    }
                }
                ScenarioEvent::Brownout { tid } => {
                    // No energy model here — a brownout is a bare MAC reset.
                    if let Some(tag) = self.tags.iter_mut().find(|t| t.tid == tid && t.deployed) {
                        tag.mac.power_on_reset();
                        self.recorder.record(slot, tid, EventKind::PowerCutoff);
                    }
                }
                ScenarioEvent::ReaderOutage { slots } => {
                    let st = self.scenario.as_mut().expect("scenario playback state");
                    st.outage_until = st.outage_until.max(slot + slots);
                    let clamped = slots.min(u64::from(u16::MAX)) as u16;
                    self.recorder
                        .record(slot, NO_TAG, EventKind::ReaderOutage { slots: clamped });
                }
                // Slot-domain loss probabilities do not exist at the
                // waveform level; see `with_scenario` docs.
                ScenarioEvent::NoiseBurst { .. } => {}
                ScenarioEvent::ChannelEpoch { epoch } => {
                    self.recorder
                        .record(slot, NO_TAG, EventKind::ChannelEpoch { epoch });
                }
            }
            self.scenario
                .as_mut()
                .expect("scenario playback state")
                .next_event += 1;
        }
    }

    /// One slot with the reader dark: no beacon goes out, every deployed
    /// tag times out, and the reader's pending beacon (and MAC slot
    /// counter) stays frozen until the outage ends.
    fn dark_step(&mut self, slot: u64) -> CoSimSlot {
        let mut beacon_losses: Vec<u8> = Vec::new();
        let recorder = &mut self.recorder;
        for tag in self.tags.iter_mut().filter(|t| t.deployed) {
            tag.mac.on_beacon_timeout();
            beacon_losses.push(tag.tid);
            if recorder.is_enabled() {
                recorder.record(slot, tag.tid, EventKind::BeaconLost);
                for &ev in tag.mac.events() {
                    recorder.record(slot, tag.tid, ev);
                }
            }
        }
        self.slots_run += 1;
        CoSimSlot {
            transmitters: Vec::new(),
            beacon_losses,
            rx: SlotRx {
                packet: None,
                edges: 0,
                fail: None,
            },
            clusters: 0,
            collision: false,
        }
    }

    /// Runs one slot end to end; returns what happened.
    pub fn step(&mut self) -> CoSimSlot {
        let slot = self.slots_run;
        if self.scenario.is_some() {
            self.apply_scenario_events(slot);
            if self
                .scenario
                .as_ref()
                .is_some_and(|st| slot < st.outage_until)
            {
                return self.dark_step(slot);
            }
        }
        let beacon = match self.beacon.take() {
            Some(b) => b,
            None => self.reader_mac.start(),
        };

        // --- Downlink: real edges through the channel to every tag. ------
        let edges = self.tx.edges(&beacon, 0.0);
        let mut transmitters: Vec<u8> = Vec::new();
        let mut beacon_losses: Vec<u8> = Vec::new();
        let dl_bps = self.config.dl_bps;
        let recorder = &mut self.recorder;
        for tag in self.tags.iter_mut().filter(|t| t.deployed) {
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
                let mut demod = PieDemodulator::new(tag.clock, dl_bps);
                demod.set_supply(draw_supply_v(&mut tag.rng));
                demod.feed_edges(&self.scratch.tag_edges)
            } else {
                Vec::new()
            };
            let action = match decoded.first() {
                Some(d) => Some(tag.mac.on_beacon(d.beacon.cmd)),
                None => {
                    beacon_losses.push(tag.tid);
                    tag.mac.on_beacon_timeout();
                    None
                }
            };
            if recorder.is_enabled() {
                if action.is_none() {
                    recorder.record(slot, tag.tid, EventKind::BeaconLost);
                }
                for &ev in tag.mac.events() {
                    recorder.record(slot, tag.tid, ev);
                }
            }
            if action.is_some_and(|a| a.transmit) {
                transmitters.push(tag.tid);
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
            let divider = (MCU_CLOCK_HZ / self.config.ul_bps) as u32;
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
        if self.recorder.is_enabled() {
            if collision {
                let n = transmitters.len().min(255) as u8;
                self.recorder
                    .record(slot, NO_TAG, EventKind::Collision { transmitters: n });
            } else if let Some(tid) = obs.decoded {
                self.recorder.note(EventKind::Decoded);
                let offset = self
                    .tags
                    .iter()
                    .find(|t| t.tid == tid)
                    .map_or(0, |t| t.mac.offset() as u16);
                self.recorder
                    .record(slot, tid, EventKind::SlotClaimed { offset });
            } else if transmitters.is_empty() {
                self.recorder.note(EventKind::Empty);
            } else {
                // Real transmissions the DSP chain could not recover: the
                // receiver's own stage-of-failure diagnosis is the reason.
                let reason = rx_out.fail.unwrap_or(DecodeFailReason::NoPreamble);
                let tag = if transmitters.len() == 1 {
                    transmitters[0]
                } else {
                    NO_TAG
                };
                self.recorder
                    .record(slot, tag, EventKind::DecodeFail { reason });
            }
        }
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

    /// Runs until every deployed tag is settled and the last
    /// `clean_streak` slots were collision-free, or `cap` slots. Returns
    /// the slot count on success.
    pub fn run_until_converged(&mut self, clean_streak: u32, cap: u64) -> Option<u64> {
        let mut streak = 0;
        while self.slots_run < cap {
            let slot = self.step();
            if slot.collision {
                streak = 0;
            } else {
                streak += 1;
            }
            if streak >= clean_streak && self.settled() == self.deployed() {
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
        let mut sim = CoSim::new(CoSimConfig::new(vec![(8, p(2)), (7, p(2))], 3));
        let at = sim.run_until_converged(4, 60);
        assert!(at.is_some(), "no convergence in 60 waveform slots");
        assert_eq!(sim.settled(), 2);
    }

    #[test]
    fn four_tag_table1_network_converges() {
        let tags = vec![(8, p(2)), (7, p(4)), (5, p(8)), (6, p(8))];
        let mut sim = CoSim::new(CoSimConfig::new(tags, 7));
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
        let mut sim = CoSim::new(CoSimConfig::new(vec![(8, p(2)), (5, p(2))], 11));
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

    #[test]
    fn recorder_sees_real_phy_collisions_and_decodes() {
        // Same scenario as `collisions_are_really_detected_from_waveforms`,
        // but observed through the flight recorder: it must log at least one
        // IQ-clustered collision and one clean decode, and attaching it must
        // not perturb the simulated outcomes.
        let tags = vec![(8, p(2)), (5, p(2))];
        let mut bare = CoSim::new(CoSimConfig::new(tags.clone(), 11));
        let mut observed = CoSim::new(CoSimConfig::new(tags, 11));
        observed.attach_recorder(Recorder::enabled(11));
        for _ in 0..25 {
            let a = bare.step();
            let b = observed.step();
            assert_eq!(a.transmitters, b.transmitters, "recorder perturbed the sim");
            assert_eq!(a.collision, b.collision);
        }
        let snap = observed.take_recorder_snapshot();
        assert_eq!(snap.seed, 11);
        assert!(
            snap.count_at(EventKind::Collision { transmitters: 0 }.index()) >= 1,
            "no collision events: {:?}",
            snap.counts
        );
        assert!(
            snap.count_at(EventKind::Decoded.index()) >= 1,
            "no decode events: {:?}",
            snap.counts
        );
        // Both period-1 tags start on the same schedule, so at least one
        // must have migrated to break the tie.
        assert!(
            snap.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::TagMigrated { .. })),
            "no migration in the event ring"
        );
    }

    #[test]
    fn scenario_playback_matches_plain_cosim_until_disturbed() {
        // A scenario whose only event lies far past the slots we run must
        // not perturb a single waveform outcome.
        let tags = vec![(8, p(2)), (7, p(2))];
        let scenario = Scenario::builder().channel_epoch(500, 1).build().unwrap();
        let mut plain = CoSim::new(CoSimConfig::new(tags.clone(), 3));
        let mut scripted = CoSim::with_scenario(CoSimConfig::new(tags, 3), scenario);
        for _ in 0..20 {
            let a = plain.step();
            let b = scripted.step();
            assert_eq!(a.transmitters, b.transmitters, "scenario perturbed the sim");
            assert_eq!(a.collision, b.collision);
            assert_eq!(a.beacon_losses, b.beacon_losses);
        }
    }

    #[test]
    fn reader_outage_darkens_waveform_slots_and_recovers() {
        let tags = vec![(8, p(2)), (7, p(2))];
        let scenario = Scenario::builder().outage(10, 6).build().unwrap();
        let mut sim = CoSim::with_scenario(CoSimConfig::new(tags, 3), scenario);
        sim.attach_recorder(Recorder::enabled(3));
        for _ in 0..10 {
            sim.step();
        }
        for _ in 0..6 {
            let s = sim.step();
            assert!(
                s.transmitters.is_empty(),
                "tag transmitted into a dark slot"
            );
            assert!(s.rx.packet.is_none() && !s.collision);
            assert_eq!(s.beacon_losses.len(), 2, "both tags must time out");
        }
        let at = sim.run_until_converged(4, 140);
        assert!(at.is_some(), "no re-convergence after the outage");
        let snap = sim.take_recorder_snapshot();
        assert!(
            snap.count_at(EventKind::ReaderOutage { slots: 0 }.index()) >= 1,
            "outage not recorded: {:?}",
            snap.counts
        );
    }

    #[test]
    fn churn_join_and_leave_play_out_on_real_waveforms() {
        let scenario = Scenario::builder()
            .join(15, 7, p(2))
            .leave(40, 8)
            .build()
            .unwrap();
        let mut sim = CoSim::with_scenario(CoSimConfig::new(vec![(8, p(2))], 5), scenario);
        sim.attach_recorder(Recorder::enabled(5));
        assert_eq!(sim.deployed(), 1);
        for _ in 0..16 {
            sim.step();
        }
        assert_eq!(sim.deployed(), 2, "joined tag not deployed");
        while sim.slots_run() <= 40 {
            sim.step();
        }
        assert_eq!(sim.deployed(), 1, "departed tag still deployed");
        let mut saw_joined_tx = false;
        for _ in 0..30 {
            let s = sim.step();
            assert!(!s.transmitters.contains(&8), "departed tag transmitted");
            saw_joined_tx |= s.transmitters.contains(&7);
        }
        assert!(
            saw_joined_tx,
            "joined tag never transmitted after the churn"
        );
        let snap = sim.take_recorder_snapshot();
        assert!(snap.count_at(EventKind::TagJoined.index()) >= 1);
        assert!(snap.count_at(EventKind::TagDeparted.index()) >= 1);
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
        assert_golden(CoSim::new(CoSimConfig::new(tags, 21)), &want);
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
        assert_golden(CoSim::new(CoSimConfig::new(pair, 11)), &want);
    }

    #[test]
    fn beacon_losses_are_rare_at_default_rate() {
        let mut sim = CoSim::new(CoSimConfig::new(vec![(8, p(2)), (11, p(4))], 13));
        let mut losses = 0;
        for _ in 0..30 {
            losses += sim.step().beacon_losses.len();
        }
        assert!(losses <= 1, "{losses} beacon losses in 60 deliveries");
    }
}
