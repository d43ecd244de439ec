//! The slot-level network simulator.
//!
//! Drives the full protocol — reader MAC, per-tag MAC state machines with
//! their energy lifecycles, and a slot-granular channel — for thousands of
//! slots. This is the engine behind Fig. 15 (first convergence time),
//! Fig. 16 (long-running slot statistics), and the fault-injection
//! experiments (beacon loss, late arrivals, brownouts).
//!
//! Channel abstractions at this granularity:
//!
//! * each tag independently loses each beacon with `dl_loss_prob`
//!   (waveform-level experiments calibrate this rate — the paper bounds it
//!   below 0.1 % at the default 250 bps);
//! * a slot with exactly one transmitter decodes unless `ul_loss_prob`
//!   strikes (UL decode failures "affect only the non-empty ratio");
//! * a slot with several transmitters is always a collision; the capture
//!   effect may still yield one decodable packet (`capture_prob`), which
//!   the reader's IQ clustering overrides (Sec. 5.3).

use arachnet_core::convergence::{ConvergenceDetector, SlotStats};
use arachnet_core::mac::{ProtocolConfig, ReaderMac, SlotObservation, SlotOutcome};
use arachnet_core::rng::TagRng;
use arachnet_core::slot::{Period, Schedule};
use arachnet_obs::{DecodeFailReason, EventKind, Recorder, RecorderSnapshot, NO_TAG};
use arachnet_tag::device::{Lifecycle, SlotTiming, TagDevice};
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;

use crate::patterns::Pattern;
use crate::scenario::{ReconvergenceSample, Scenario, ScenarioEvent};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SlotSimConfig {
    /// The workload (Table 3 pattern or custom).
    pub pattern: Pattern,
    /// Protocol parameters.
    pub protocol: ProtocolConfig,
    /// Experiment seed (drives every random stream).
    pub seed: u64,
    /// Per-tag per-beacon loss probability.
    pub dl_loss_prob: f64,
    /// Decode-failure probability for a clean single-transmitter slot.
    pub ul_loss_prob: f64,
    /// Probability that a collision still yields one decodable packet.
    pub capture_prob: f64,
    /// Start tags charged (skip the cold-start phase).
    pub charged_start: bool,
    /// Slot timing (energy accounting).
    pub timing: SlotTiming,
}

impl SlotSimConfig {
    /// Defaults matching the paper's long-run conditions.
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        Self {
            pattern,
            protocol: ProtocolConfig::default(),
            seed,
            dl_loss_prob: 0.001,
            ul_loss_prob: 0.002,
            capture_prob: 0.3,
            charged_start: true,
            timing: SlotTiming::default(),
        }
    }

    /// An idealized channel (no losses) — for convergence-property tests.
    pub fn ideal(pattern: Pattern, seed: u64) -> Self {
        Self {
            dl_loss_prob: 0.0,
            ul_loss_prob: 0.0,
            capture_prob: 0.0,
            ..Self::new(pattern, seed)
        }
    }
}

/// Ground-truth record of one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruthOutcome {
    /// Nobody transmitted.
    Empty,
    /// Exactly one tag transmitted (decoded or not).
    Single(u8),
    /// Multiple tags transmitted.
    Collision(Vec<u8>),
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Slots executed.
    pub slots: u64,
    /// Slot at which the convergence detector fired (32 consecutive
    /// non-collision slots), if it did.
    pub converged_at: Option<u64>,
    /// Whole-run ground-truth non-empty ratio.
    pub non_empty_ratio: f64,
    /// Whole-run ground-truth collision ratio.
    pub collision_ratio: f64,
    /// Per-window trajectories (window = 32 slots), sampled every slot:
    /// `(non_empty, collision)`.
    pub trajectory: Vec<(f64, f64)>,
}

/// Progress of an attached [`Scenario`] replay.
struct ScenarioState {
    scenario: Scenario,
    /// Index of the next unfired event (events are sorted by slot).
    next_event: usize,
    /// Re-convergence measurement origins, sorted (see
    /// [`Scenario::disruption_slots`]).
    disruptions: Vec<u64>,
    next_disruption: usize,
    /// The disruption currently being measured, if any. Overlapping
    /// disruptions merge into the earliest unresolved one.
    open_disruption: Option<u64>,
    samples: Vec<ReconvergenceSample>,
    /// Reader dark until this slot (exclusive).
    outage_until: u64,
    /// Noise storm until this slot (exclusive).
    burst_until: u64,
    burst_dl: f64,
    burst_ul: f64,
    /// Carrier voltage per registry tid, for join-time device creation.
    vps: Vec<(u8, f64)>,
}

/// The simulator.
///
/// ```
/// use arachnet_sim::patterns::Pattern;
/// use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};
///
/// // 12 tags under the paper's Fig. 16 workload, realistic channel.
/// let mut sim = SlotSim::new(SlotSimConfig::new(Pattern::c3(), 42));
/// let run = sim.run(200);
/// assert_eq!(run.slots, 200);
/// assert!(run.non_empty_ratio > 0.0);
/// ```
pub struct SlotSim {
    config: SlotSimConfig,
    reader: ReaderMac,
    tags: Vec<TagDevice>,
    rng: TagRng,
    beacon: Option<arachnet_core::packet::DlBeacon>,
    detector: ConvergenceDetector,
    stats: SlotStats,
    slots_run: u64,
    keep_trajectory: bool,
    trajectory: Vec<(f64, f64)>,
    recorder: Recorder,
    scenario: Option<Box<ScenarioState>>,
}

impl SlotSim {
    /// Builds the simulator: reader registry and tag devices from the
    /// pattern, harvest inputs from the calibrated deployment.
    pub fn new(config: SlotSimConfig) -> Self {
        Self::build(config, None)
    }

    /// Builds the simulator with a [`Scenario`] attached. The reader's
    /// a-priori registry is extended with every scenario-joined tag (their
    /// periods are known ahead of time, Sec. 5.6), and the scenario's timed
    /// events replay against the sim's slot clock (`slots_run`).
    ///
    /// Attaching [`Scenario::empty`] is exactly equivalent to [`Self::new`]
    /// — same random streams, same outcomes. Scenario slots are absolute:
    /// combining a scenario with [`Self::reset_network`] re-bases the
    /// timeline, so scenario experiments use charged starts instead of the
    /// reset protocol.
    pub fn with_scenario(config: SlotSimConfig, scenario: Scenario) -> Self {
        Self::build(config, Some(scenario))
    }

    fn build(config: SlotSimConfig, scenario: Option<Scenario>) -> Self {
        let channel = BiwChannel::paper(ChannelConfig {
            noise: NoiseConfig::silent(),
            ..ChannelConfig::default()
        });
        let mut registry: Vec<(u8, Period)> = config.pattern.tags.clone();
        if let Some(sc) = &scenario {
            for (tid, period) in sc.join_registry() {
                if !registry.iter().any(|&(t, _)| t == tid) {
                    registry.push((tid, period));
                }
            }
        }
        let reader = ReaderMac::new(config.protocol, &registry);
        let tags: Vec<TagDevice> = config
            .pattern
            .tags
            .iter()
            .map(|&(tid, period)| {
                let vp = channel.tag_carrier_voltage(tid).unwrap_or(1.0);
                new_device(&config, tid, period, vp)
            })
            .collect();
        let scenario = scenario.map(|sc| {
            let vps = registry
                .iter()
                .map(|&(tid, _)| (tid, channel.tag_carrier_voltage(tid).unwrap_or(1.0)))
                .collect();
            let disruptions = sc.disruption_slots();
            Box::new(ScenarioState {
                scenario: sc,
                next_event: 0,
                disruptions,
                next_disruption: 0,
                open_disruption: None,
                samples: Vec::new(),
                outage_until: 0,
                burst_until: 0,
                burst_dl: 0.0,
                burst_ul: 0.0,
                vps,
            })
        });
        let rng = TagRng::new(config.seed ^ 0xC0FFEE);
        Self {
            config,
            reader,
            tags,
            rng,
            beacon: None,
            detector: ConvergenceDetector::new(),
            stats: SlotStats::new(),
            slots_run: 0,
            keep_trajectory: false,
            trajectory: Vec::new(),
            recorder: Recorder::disabled(),
            scenario,
        }
    }

    /// Attaches a flight recorder; pass [`Recorder::disabled`] to detach.
    /// With a disabled recorder (the default) the per-slot cost of the
    /// instrumentation is a single branch.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Starts a trial's flight recording, stamped with the trial `seed`,
    /// when `record` is set.
    fn record_trial(&mut self, record: bool, seed: u64) {
        if record {
            self.attach_recorder(Recorder::enabled(seed));
        }
    }

    /// Detaches and consumes the flight recorder into a snapshot.
    pub fn take_recorder_snapshot(&mut self) -> RecorderSnapshot {
        std::mem::replace(&mut self.recorder, Recorder::disabled()).into_snapshot()
    }

    /// Enables per-slot trajectory recording (Fig. 16).
    pub fn record_trajectory(&mut self, on: bool) {
        self.keep_trajectory = on;
    }

    /// Immutable access to the tag devices.
    pub fn tags(&self) -> &[TagDevice] {
        &self.tags
    }

    /// Immutable access to the reader MAC.
    pub fn reader(&self) -> &ReaderMac {
        &self.reader
    }

    /// Slots executed so far.
    pub fn slots_run(&self) -> u64 {
        self.slots_run
    }

    /// Re-convergence measurements taken so far (empty without a scenario).
    pub fn reconvergence_samples(&self) -> &[ReconvergenceSample] {
        self.scenario.as_ref().map_or(&[], |st| &st.samples)
    }

    /// Slot of the disruption currently being measured, if re-convergence
    /// has not been reached yet.
    pub fn open_disruption(&self) -> Option<u64> {
        self.scenario.as_ref().and_then(|st| st.open_disruption)
    }

    /// Fires scenario events due at `slot` and restarts the convergence
    /// detector at each disruption origin.
    fn apply_scenario_events(&mut self, slot: u64) {
        // Disruption boundaries first: they define measurement origins.
        {
            let st = self.scenario.as_mut().expect("scenario attached");
            let mut fired = false;
            while st.next_disruption < st.disruptions.len()
                && st.disruptions[st.next_disruption] <= slot
            {
                if st.open_disruption.is_none() {
                    st.open_disruption = Some(st.disruptions[st.next_disruption]);
                }
                st.next_disruption += 1;
                fired = true;
            }
            if fired {
                self.detector.reset();
            }
        }
        // Then the events themselves (sorted; same-slot in insertion order).
        loop {
            let event = {
                let st = self.scenario.as_ref().expect("scenario attached");
                match st.scenario.events().get(st.next_event) {
                    Some(ev) if ev.at <= slot => ev.event,
                    _ => break,
                }
            };
            self.scenario
                .as_mut()
                .expect("scenario attached")
                .next_event += 1;
            match event {
                ScenarioEvent::TagJoin { tid, period } => {
                    // A join of a still-present tid is a no-op (the builder
                    // rejects double-joins within the scenario; this guards
                    // joins of tags the pattern already deploys).
                    if !self.tags.iter().any(|t| t.tid() == tid) {
                        let st = self.scenario.as_ref().expect("scenario attached");
                        let vp = st
                            .vps
                            .iter()
                            .find(|&&(t, _)| t == tid)
                            .map_or(1.0, |&(_, v)| v);
                        self.tags.push(new_device(&self.config, tid, period, vp));
                        self.recorder.record(slot, tid, EventKind::TagJoined);
                    }
                }
                ScenarioEvent::TagLeave { tid } => {
                    let before = self.tags.len();
                    self.tags.retain(|t| t.tid() != tid);
                    if self.tags.len() < before {
                        self.recorder.record(slot, tid, EventKind::TagDeparted);
                    }
                }
                ScenarioEvent::Brownout { tid } => {
                    if let Some(tag) = self.tags.iter_mut().find(|t| t.tid() == tid) {
                        tag.force_discharge();
                        self.recorder.record(slot, tid, EventKind::PowerCutoff);
                    }
                }
                ScenarioEvent::ReaderOutage { slots } => {
                    let st = self.scenario.as_mut().expect("scenario attached");
                    st.outage_until = st.outage_until.max(slot + slots);
                    self.recorder.record(
                        slot,
                        NO_TAG,
                        EventKind::ReaderOutage {
                            slots: slots.min(u64::from(u16::MAX)) as u16,
                        },
                    );
                }
                ScenarioEvent::NoiseBurst {
                    slots,
                    dl_loss,
                    ul_loss,
                } => {
                    let st = self.scenario.as_mut().expect("scenario attached");
                    st.burst_until = st.burst_until.max(slot + slots);
                    st.burst_dl = dl_loss;
                    st.burst_ul = ul_loss;
                }
                ScenarioEvent::ChannelEpoch { epoch } => {
                    self.recorder
                        .record(slot, NO_TAG, EventKind::ChannelEpoch { epoch });
                }
            }
        }
    }

    /// Ends the current slot on its ground-truth `outcome`: the
    /// convergence detector and the statistics see it, the trajectory
    /// records it, the slot clock advances, and an open re-convergence
    /// measurement closes if the detector fired.
    fn close_slot(&mut self, outcome: SlotOutcome) {
        self.detector.push(outcome);
        self.stats.push(outcome);
        if self.keep_trajectory {
            self.trajectory
                .push((self.stats.non_empty_ratio(), self.stats.collision_ratio()));
        }
        self.slots_run += 1;
        self.close_disruption_if_converged();
    }

    /// Closes the open re-convergence measurement if the detector fired.
    fn close_disruption_if_converged(&mut self) {
        if let Some(st) = self.scenario.as_mut() {
            if let (Some(n), Some(d)) = (self.detector.converged_at(), st.open_disruption) {
                st.open_disruption = None;
                st.samples.push(ReconvergenceSample {
                    disruption_slot: d,
                    slots: Some(n),
                });
            }
        }
    }

    /// A slot with the reader dark: no beacon goes out (the held one stays
    /// pending), the carrier is off so tags harvest nothing, and the
    /// reader's slot counter freezes together with the tags' local
    /// counters — exactly what a duty-cycled reader looks like from the
    /// network's side.
    fn dark_step(&mut self, slot: u64) -> TruthOutcome {
        for tag in &mut self.tags {
            let report = tag.on_slot_dark();
            if self.recorder.is_enabled() {
                let tid = tag.tid();
                if report.browned_out {
                    self.recorder.record(slot, tid, EventKind::PowerCutoff);
                }
                if report.active {
                    for &kind in tag.mac().events() {
                        self.recorder.record(slot, tid, kind);
                    }
                }
            }
        }
        self.close_slot(SlotOutcome::Empty);
        TruthOutcome::Empty
    }

    /// Executes one slot; returns the ground-truth outcome.
    pub fn step(&mut self) -> TruthOutcome {
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
        // Effective slot-domain loss rates: a noise storm overrides the
        // configured channel for its window. The draw pattern is identical
        // either way, so an attached scenario never perturbs the random
        // streams outside its windows.
        let (dl_loss, ul_loss) = match &self.scenario {
            Some(st) if slot < st.burst_until => (st.burst_dl, st.burst_ul),
            _ => (self.config.dl_loss_prob, self.config.ul_loss_prob),
        };

        let beacon = match self.beacon.take() {
            Some(b) => b,
            None => self.reader.start(),
        };

        // Deliver the beacon (with per-tag loss) and collect transmitters.
        let mut transmitters: Vec<u8> = Vec::new();
        for tag in &mut self.tags {
            let delivered = !self.rng.chance(dl_loss);
            let report = tag.on_slot(delivered.then_some(beacon.cmd));
            if report.transmitted {
                transmitters.push(tag.tid());
            }
            if self.recorder.is_enabled() {
                let tid = tag.tid();
                if report.active && !delivered {
                    self.recorder.record(slot, tid, EventKind::BeaconLost);
                }
                if report.browned_out {
                    self.recorder.record(slot, tid, EventKind::PowerCutoff);
                }
                if report.activated {
                    self.recorder.record(slot, tid, EventKind::PowerOn);
                }
                if report.active {
                    // MAC transitions from this slot's callback (ACK/NACK
                    // feedback, migrations, settles). After a brownout the
                    // power-on reset's migration is what remains — correct,
                    // since it superseded the in-slot feedback.
                    for &kind in tag.mac().events() {
                        self.recorder.record(slot, tid, kind);
                    }
                }
            }
        }

        // Reader-side observation.
        let (obs, truth) = match transmitters.len() {
            0 => {
                self.recorder.note(EventKind::Empty);
                (SlotObservation::empty(), TruthOutcome::Empty)
            }
            1 => {
                let tid = transmitters[0];
                if self.rng.chance(ul_loss) {
                    // Abstract UL decode failure: the slot-level channel
                    // models it as a vanished packet, not a specific PHY
                    // stage, so the closest taxon is a missed preamble.
                    self.recorder.record(
                        slot,
                        tid,
                        EventKind::DecodeFail {
                            reason: DecodeFailReason::NoPreamble,
                        },
                    );
                    (SlotObservation::empty(), TruthOutcome::Single(tid))
                } else {
                    if self.recorder.is_enabled() {
                        self.recorder.note(EventKind::Decoded);
                        let offset = self
                            .tags
                            .iter()
                            .find(|t| t.tid() == tid)
                            .map_or(0, |t| t.mac().offset() as u16);
                        self.recorder
                            .record(slot, tid, EventKind::SlotClaimed { offset });
                    }
                    (SlotObservation::received(tid), TruthOutcome::Single(tid))
                }
            }
            _ => {
                let captured = if self.rng.chance(self.config.capture_prob) {
                    let i = self.rng.below(transmitters.len() as u64) as usize;
                    Some(transmitters[i])
                } else {
                    None
                };
                self.recorder.record(
                    slot,
                    NO_TAG,
                    EventKind::Collision {
                        transmitters: transmitters.len().min(u8::MAX as usize) as u8,
                    },
                );
                (
                    SlotObservation::collision(captured),
                    TruthOutcome::Collision(transmitters.clone()),
                )
            }
        };

        // Statistics on ground truth.
        let stat_outcome = match &truth {
            TruthOutcome::Empty => SlotOutcome::Empty,
            TruthOutcome::Single(t) => SlotOutcome::Received(*t),
            TruthOutcome::Collision(_) => SlotOutcome::Collision,
        };
        self.close_slot(stat_outcome);

        self.beacon = Some(self.reader.end_slot(obs));
        truth
    }

    /// Runs `n` slots and summarizes.
    pub fn run(&mut self, n: u64) -> SimRun {
        for _ in 0..n {
            self.step();
        }
        self.summary()
    }

    /// Runs until convergence (or `cap` slots) and summarizes.
    pub fn run_until_converged(&mut self, cap: u64) -> SimRun {
        while self.detector.converged_at().is_none() && self.slots_run < cap {
            self.step();
        }
        self.summary()
    }

    /// Issues a RESET on the next beacon and restarts the detector/stats —
    /// the Fig. 15 experiment protocol.
    pub fn reset_network(&mut self) {
        if self.beacon.is_none() {
            // Nothing sent yet: open the network first.
            self.beacon = Some(self.reader.start());
        }
        self.reader.queue_reset();
        // Deliver the reset beacon immediately so the next step starts the
        // measured phase.
        let beacon = self.reader.end_slot(SlotObservation::empty());
        debug_assert!(beacon.cmd.reset);
        for tag in &mut self.tags {
            // RESET beacons are assumed robustly delivered (the reader can
            // repeat them; tags also reset on power-on).
            let _ = tag.on_slot(Some(beacon.cmd));
        }
        // The reset beacon opened a fresh slot 1 in which no tag transmits;
        // close it and hold the next beacon for the first measured slot.
        self.beacon = Some(self.reader.end_slot(SlotObservation::empty()));
        self.detector.reset();
        self.stats = SlotStats::new();
        self.slots_run = 0;
        self.trajectory.clear();
    }

    /// Snapshot of the run so far.
    pub fn summary(&self) -> SimRun {
        SimRun {
            slots: self.slots_run,
            converged_at: self.detector.converged_at(),
            non_empty_ratio: self.stats.avg_non_empty_ratio(),
            collision_ratio: self.stats.avg_collision_ratio(),
            trajectory: self.trajectory.clone(),
        }
    }

    /// Settled-tag schedules (for invariant checks): `(tid, schedule)` of
    /// every active tag currently in SETTLE, with offsets translated into
    /// *global* slot terms.
    ///
    /// Tags keep purely local counters whose origins differ (activation
    /// time, missed beacons), so two tags' local offsets are not directly
    /// comparable; a tag whose local counter lags the reader's by `d`
    /// slots fires at global slots `≡ a_local + d (mod p)`.
    pub fn settled_schedules(&self) -> Vec<(u8, Schedule)> {
        // The last closed slot: tags' local counters refer to it.
        let s_global = self.reader.current_slot().saturating_sub(1);
        self.tags
            .iter()
            .filter(|t| {
                t.lifecycle() == Lifecycle::Active
                    && t.mac().state() == arachnet_core::mac::MacState::Settle
            })
            .map(|t| {
                let period = t.mac().period();
                let p = u64::from(period.get());
                let local = t.mac().local_slot();
                let delta = s_global.saturating_sub(local);
                let global_offset = ((u64::from(t.mac().offset()) + delta) % p) as u32;
                (
                    t.tid(),
                    Schedule::new(period, global_offset).expect("valid offset"),
                )
            })
            .collect()
    }
}

/// A tag device of `config`'s network: charged or cold per
/// `config.charged_start`, its random stream keyed by the sim seed.
fn new_device(config: &SlotSimConfig, tid: u8, period: Period, vp: f64) -> TagDevice {
    let rng = TagRng::for_tag(config.seed, tid);
    if config.charged_start {
        TagDevice::new_charged(tid, period, vp, config.protocol, config.timing, rng)
    } else {
        TagDevice::new(tid, period, vp, config.protocol, config.timing, rng)
    }
}

/// The config a trial runner starts from: the ideal channel or the lossy
/// paper one.
fn trial_config(pattern: &Pattern, seed: u64, ideal: bool) -> SlotSimConfig {
    if ideal {
        SlotSimConfig::ideal(pattern.clone(), seed)
    } else {
        SlotSimConfig::new(pattern.clone(), seed)
    }
}

/// Result of one recorded convergence trial (Fig. 15 protocol).
#[derive(Debug, Clone)]
pub struct ConvergenceTrial {
    /// Slot of first convergence, if reached within the cap.
    pub converged_at: Option<u64>,
    /// Flight-recorder snapshot of the measured phase (empty when the
    /// trial ran unrecorded).
    pub snapshot: RecorderSnapshot,
}

/// Convenience: measures first convergence time for a pattern with a given
/// seed, using the Fig. 15 protocol (RESET, then count slots until 32
/// consecutive non-collision slots).
pub fn first_convergence_time(pattern: &Pattern, seed: u64, cap: u64, ideal: bool) -> Option<u64> {
    first_convergence_trial(pattern, seed, cap, ideal, false).converged_at
}

/// [`first_convergence_time`] with an optional flight recorder attached for
/// the measured phase. Recording never alters the sim's random streams, so
/// the convergence result is identical with and without it.
pub fn first_convergence_trial(
    pattern: &Pattern,
    seed: u64,
    cap: u64,
    ideal: bool,
    record: bool,
) -> ConvergenceTrial {
    let mut sim = SlotSim::new(trial_config(pattern, seed, ideal));
    // Warm the network slightly, then reset — mirrors "following the
    // transmission of a RESET packet".
    sim.run(4);
    sim.reset_network();
    sim.record_trial(record, seed);
    let converged_at = sim.run_until_converged(cap).converged_at;
    ConvergenceTrial {
        converged_at,
        snapshot: sim.take_recorder_snapshot(),
    }
}

/// Result of one scenario replay.
#[derive(Debug, Clone)]
pub struct ScenarioTrial {
    /// One re-convergence measurement per disruption origin (a `None`
    /// duration means the run hit the cap first).
    pub samples: Vec<ReconvergenceSample>,
    /// Slots executed.
    pub slots: u64,
    /// Flight-recorder snapshot (empty when the trial ran unrecorded).
    pub snapshot: RecorderSnapshot,
}

/// Replays a [`Scenario`] against a pattern and measures re-convergence:
/// the run continues past the scenario's horizon until every disruption's
/// measurement closes (32 consecutive non-collision slots) or `cap` slots
/// elapse. Deterministic per `(pattern, scenario, seed)`; recording never
/// alters the random streams.
pub fn run_scenario_trial(
    pattern: &Pattern,
    scenario: &Scenario,
    seed: u64,
    cap: u64,
    ideal: bool,
    record: bool,
) -> ScenarioTrial {
    let mut sim = SlotSim::with_scenario(trial_config(pattern, seed, ideal), scenario.clone());
    sim.record_trial(record, seed);
    let horizon = scenario.horizon();
    while sim.slots_run() < cap && (sim.slots_run() <= horizon || sim.open_disruption().is_some()) {
        sim.step();
    }
    let mut samples = sim.reconvergence_samples().to_vec();
    if let Some(d) = sim.open_disruption() {
        samples.push(ReconvergenceSample {
            disruption_slot: d,
            slots: None,
        });
    }
    ScenarioTrial {
        samples,
        slots: sim.slots_run(),
        snapshot: sim.take_recorder_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arachnet_core::slot::Period;

    fn small_pattern() -> Pattern {
        // Table 1's configuration as a pattern: p = {2, 4, 8, 8} on four
        // deployment tags.
        Pattern {
            name: "table1",
            tags: vec![
                (5, Period::new(2).unwrap()),
                (6, Period::new(4).unwrap()),
                (7, Period::new(8).unwrap()),
                (8, Period::new(8).unwrap()),
            ],
        }
    }

    #[test]
    fn ideal_small_network_converges() {
        let mut sim = SlotSim::new(SlotSimConfig::ideal(small_pattern(), 1));
        let run = sim.run_until_converged(5_000);
        assert!(run.converged_at.is_some(), "no convergence in 5000 slots");
    }

    #[test]
    fn convergence_is_deterministic_per_seed() {
        let a = first_convergence_time(&small_pattern(), 7, 5_000, true);
        let b = first_convergence_time(&small_pattern(), 7, 5_000, true);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn settled_schedules_are_conflict_free_after_convergence() {
        // The central protocol invariant (Lemma 1): once converged, no two
        // SETTLEd tags share a slot.
        for seed in 0..5 {
            let mut sim = SlotSim::new(SlotSimConfig::ideal(small_pattern(), seed));
            let run = sim.run_until_converged(5_000);
            assert!(run.converged_at.is_some(), "seed {seed}");
            let settled = sim.settled_schedules();
            for i in 0..settled.len() {
                for j in (i + 1)..settled.len() {
                    assert!(
                        !settled[i].1.conflicts_with(&settled[j].1),
                        "seed {seed}: tags {} and {} conflict",
                        settled[i].0,
                        settled[j].0
                    );
                }
            }
        }
    }

    #[test]
    fn converged_network_stays_collision_free_on_ideal_channel() {
        let mut sim = SlotSim::new(SlotSimConfig::ideal(small_pattern(), 3));
        sim.run_until_converged(5_000);
        // 500 more slots: not a single collision.
        for _ in 0..500 {
            let truth = sim.step();
            assert!(!matches!(truth, TruthOutcome::Collision(_)));
        }
    }

    #[test]
    fn table3_c1_converges_quickly() {
        // Low utilization: the paper's median is ~139 slots.
        let t = first_convergence_time(&Pattern::c1(), 11, 20_000, true);
        assert!(t.is_some());
        assert!(t.unwrap() < 2_000, "c1 took {t:?} slots");
    }

    #[test]
    fn higher_utilization_converges_slower() {
        // Fig. 15(a)'s headline trend, on medians over a few seeds.
        let median = |p: &Pattern| {
            let mut ts: Vec<u64> = (0..5)
                .map(|s| first_convergence_time(p, s, 200_000, true).unwrap_or(200_000))
                .collect();
            ts.sort_unstable();
            ts[2]
        };
        let low = median(&Pattern::c1());
        let high = median(&Pattern::c4());
        assert!(high > low, "expected c4 ({high}) slower than c1 ({low})");
    }

    #[test]
    fn long_run_c3_matches_fig16_statistics() {
        // Fig. 16: average non-empty ratio ≈ 0.812 (bound 0.84375),
        // collision ratio ≈ 0.056 over 10 000 slots.
        let mut sim = SlotSim::new(SlotSimConfig::new(Pattern::c3(), 42));
        let run = sim.run(10_000);
        assert!(
            run.non_empty_ratio > 0.70 && run.non_empty_ratio <= 0.84375 + 0.01,
            "non-empty {:.3}",
            run.non_empty_ratio
        );
        assert!(
            run.collision_ratio < 0.12,
            "collision {:.3}",
            run.collision_ratio
        );
    }

    #[test]
    fn beacon_loss_causes_fluctuations() {
        // With DL loss the windowed trajectory must dip below the bound at
        // least occasionally (Fig. 16's fluctuations).
        let mut lossy = SlotSim::new(SlotSimConfig {
            dl_loss_prob: 0.01,
            ..SlotSimConfig::new(Pattern::c3(), 5)
        });
        lossy.record_trajectory(true);
        let run = lossy.run(3_000);
        let min_ne = run.trajectory[500..]
            .iter()
            .map(|t| t.0)
            .fold(f64::MAX, f64::min);
        assert!(min_ne < 0.75, "no visible disruption: min {min_ne}");
    }

    #[test]
    fn cold_start_activates_tags_over_time() {
        let mut sim = SlotSim::new(SlotSimConfig {
            charged_start: false,
            ..SlotSimConfig::ideal(small_pattern(), 9)
        });
        let active_at = |sim: &SlotSim| {
            sim.tags()
                .iter()
                .filter(|t| t.lifecycle() == Lifecycle::Active)
                .count()
        };
        assert_eq!(active_at(&sim), 0);
        sim.run(120);
        assert!(
            active_at(&sim) >= 3,
            "tags failed to charge: {}",
            active_at(&sim)
        );
    }

    #[test]
    fn late_arrivals_integrate_without_disrupting_settled() {
        // Cold start (staggered activations by charge time) on the ideal
        // channel must still converge.
        let mut sim = SlotSim::new(SlotSimConfig {
            charged_start: false,
            ..SlotSimConfig::ideal(small_pattern(), 13)
        });
        let run = sim.run_until_converged(5_000);
        assert!(
            run.converged_at.is_some(),
            "late arrivals prevented convergence"
        );
    }

    #[test]
    fn reset_restarts_counters() {
        let mut sim = SlotSim::new(SlotSimConfig::ideal(small_pattern(), 15));
        sim.run(100);
        sim.reset_network();
        let run = sim.summary();
        assert_eq!(run.slots, 0);
        assert_eq!(run.converged_at, None);
        // Tags must be back in MIGRATE.
        for t in sim.tags() {
            assert!(!t.mac().is_integrated());
        }
    }

    #[test]
    fn recorder_does_not_perturb_the_sim() {
        // The determinism contract: attaching a recorder must not change a
        // single outcome (it draws no randomness and holds no sim state).
        let bare = first_convergence_time(&small_pattern(), 21, 5_000, true);
        let recorded = first_convergence_trial(&small_pattern(), 21, 5_000, true, true);
        assert_eq!(bare, recorded.converged_at);
        assert!(bare.is_some());
        // A converging contention run must show settles, and the totals
        // must be self-consistent.
        let snap = recorded.snapshot;
        assert!(snap.count_at(EventKind::Settled { offset: 0 }.index()) >= 1);
        assert!(snap.total() >= snap.events.len() as u64);
    }

    #[test]
    fn recorder_captures_migrate_settle_timeline() {
        let trial = first_convergence_trial(&small_pattern(), 3, 5_000, true, true);
        let settles: Vec<_> = trial
            .snapshot
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Settled { .. }))
            .collect();
        assert!(!settles.is_empty(), "no settle events recorded");
        // Events are stamped in nondecreasing slot order.
        let slots: Vec<u64> = trial.snapshot.events.iter().map(|e| e.slot).collect();
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }

    /// `n` more slots of `sim`, as the ground truth `step` returns.
    fn steps(sim: &mut SlotSim, n: u64) -> Vec<TruthOutcome> {
        (0..n).map(|_| sim.step()).collect()
    }

    #[test]
    fn step_outcomes_are_what_the_run_ratios_count() {
        let mut sim = SlotSim::new(SlotSimConfig::ideal(small_pattern(), 17));
        let outcomes = steps(&mut sim, 50);
        let count = |f: fn(&TruthOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
        let non_empty = count(|o| *o != TruthOutcome::Empty);
        let collisions = count(|o| matches!(o, TruthOutcome::Collision(_)));
        let run = sim.summary();
        assert_eq!(run.slots, 50);
        assert_eq!(run.non_empty_ratio, non_empty as f64 / 50.0);
        assert_eq!(run.collision_ratio, collisions as f64 / 50.0);
    }

    #[test]
    fn empty_scenario_is_byte_identical_to_no_scenario() {
        let mut bare = SlotSim::new(SlotSimConfig::new(small_pattern(), 23));
        let mut with =
            SlotSim::with_scenario(SlotSimConfig::new(small_pattern(), 23), Scenario::empty());
        assert_eq!(steps(&mut bare, 500), steps(&mut with, 500));
        assert_eq!(bare.summary().converged_at, with.summary().converged_at);
    }

    #[test]
    fn departed_tag_frees_its_slot_and_rejoin_reconverges() {
        // Converge, evict tag 7 at slot 600, re-admit it at 700; both
        // disruptions must yield finite re-convergence times.
        let scenario = Scenario::builder()
            .leave(600, 7)
            .join(700, 7, Period::new(8).unwrap())
            .build()
            .unwrap();
        let trial = run_scenario_trial(&small_pattern(), &scenario, 31, 20_000, true, true);
        assert_eq!(trial.samples.len(), 2);
        assert_eq!(trial.samples[0].disruption_slot, 600);
        assert_eq!(trial.samples[1].disruption_slot, 700);
        for s in &trial.samples {
            assert!(s.slots.is_some(), "no re-convergence after {s:?}");
        }
        assert!(trial.snapshot.count_at(EventKind::TagDeparted.index()) >= 1);
        assert!(trial.snapshot.count_at(EventKind::TagJoined.index()) >= 1);
    }

    #[test]
    fn reader_outage_goes_dark_and_recovers() {
        let scenario = Scenario::builder().outage(200, 40).build().unwrap();
        let mut sim =
            SlotSim::with_scenario(SlotSimConfig::ideal(small_pattern(), 37), scenario.clone());
        sim.attach_recorder(Recorder::enabled(37));
        sim.run(200);
        // The reader's slot counter freezes for the whole dark window.
        let frozen = sim.reader().current_slot();
        let dark = steps(&mut sim, 40);
        assert_eq!(sim.reader().current_slot(), frozen);
        let after = steps(&mut sim, 160);
        assert_eq!(sim.reader().current_slot(), frozen + 160);
        // Every outage slot is ground-truth Empty (nobody hears a beacon).
        for (i, o) in dark.iter().enumerate() {
            assert_eq!(*o, TruthOutcome::Empty, "slot {}", 200 + i);
        }
        // Transmissions resume after the outage.
        assert!(
            after.iter().any(|o| matches!(o, TruthOutcome::Single(_))),
            "network never recovered"
        );
        let snap = sim.take_recorder_snapshot();
        assert!(snap.count_at(EventKind::ReaderOutage { slots: 0 }.index()) >= 1);
        // Re-convergence is measured from the outage *end*.
        let samples = sim.reconvergence_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].disruption_slot, 240);
        assert!(samples[0].slots.is_some());
    }

    #[test]
    fn forced_brownout_resets_the_tag_and_network_reconverges() {
        let scenario = Scenario::builder().brownout(400, 5).build().unwrap();
        let trial = run_scenario_trial(&small_pattern(), &scenario, 41, 20_000, true, false);
        assert_eq!(trial.samples.len(), 1);
        assert!(trial.samples[0].slots.is_some(), "no re-convergence");
    }

    #[test]
    fn noise_burst_raises_losses_only_inside_its_window() {
        // A brutal storm on an otherwise ideal channel: collisions and
        // losses while it lasts, pristine again afterwards.
        let scenario = Scenario::builder()
            .noise_burst(300, 64, 0.5, 0.5)
            .build()
            .unwrap();
        let mut sim = SlotSim::with_scenario(SlotSimConfig::ideal(small_pattern(), 43), scenario);
        sim.run(300);
        let run = steps(&mut sim, 1_000);
        let stormy = &run[..64];
        assert!(
            stormy
                .iter()
                .any(|o| matches!(o, TruthOutcome::Collision(_))),
            "storm caused no disruption"
        );
        // After re-convergence the tail is collision-free again (ideal
        // channel outside the window).
        let samples = sim.reconvergence_samples().to_vec();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].disruption_slot, 364);
        assert!(samples[0].slots.is_some());
    }

    #[test]
    fn scenario_trials_are_deterministic_per_seed() {
        let scenario = Scenario::builder()
            .leave(500, 6)
            .outage(800, 32)
            .join(900, 6, Period::new(4).unwrap())
            .build()
            .unwrap();
        let a = run_scenario_trial(&small_pattern(), &scenario, 47, 30_000, false, false);
        let b = run_scenario_trial(&small_pattern(), &scenario, 47, 30_000, false, true);
        assert_eq!(a.samples, b.samples, "recording perturbed the trial");
        assert_eq!(a.slots, b.slots);
    }
}
