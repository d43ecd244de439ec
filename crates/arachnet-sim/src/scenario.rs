//! Timed-event scenarios: dynamic-network stress descriptions.
//!
//! Every experiment the paper reproduces runs a *static* deployment: the
//! tag set, the channel, and the reader are fixed for the whole run. A
//! [`Scenario`] makes time a first-class dimension — it is a validated,
//! zero-dependency description of timed disturbances that
//! [`crate::slotsim::SlotSim`], the one scenario engine, replays
//! deterministically (the fleet soak in [`crate::fleet`] replays one per
//! cell through it):
//!
//! * **tag churn** — [`ScenarioEvent::TagJoin`] /
//!   [`ScenarioEvent::TagLeave`] / [`ScenarioEvent::Brownout`] (forced
//!   discharge → brownout-death, then natural recharge);
//! * **reader duty-cycling** — [`ScenarioEvent::ReaderOutage`]: the reader
//!   goes dark for a window, so tags see beacon timeouts *and* harvest
//!   nothing (the carrier is off);
//! * **channel weather** — [`ScenarioEvent::NoiseBurst`] (slot-domain loss
//!   storm) and [`ScenarioEvent::ChannelEpoch`] (PHY drift epoch marker,
//!   which the slot engine only records; the waveform drift path in
//!   [`crate::wavesim`] switches `biw_channel::timevarying::TimeVaryingChannel`
//!   epochs on its own schedule).
//!
//! Scenarios are plain data: replaying one draws no randomness of its own,
//! so a simulation with a scenario attached stays bit-identical at any
//! `--threads` count, and a simulation with *no* scenario attached is
//! byte-identical to the pre-scenario code path.
//!
//! The **re-convergence-time** metric is defined here too: each disruption
//! (join/leave/brownout at its event slot; outage/burst at its *end* slot,
//! when recovery can begin) restarts the convergence detector, and the
//! sample closes when the schedule is collision-free again (32 consecutive
//! non-collision slots, the paper's Sec. 6.4 criterion). The sample value
//! is the number of slots from the disruption until the streak completes.
//!
//! ```
//! use arachnet_core::slot::Period;
//! use arachnet_sim::scenario::Scenario;
//!
//! let p4 = Period::new(4).unwrap();
//! let s = Scenario::builder()
//!     .leave(500, 7)
//!     .join(600, 7, p4)
//!     .outage(800, 40)
//!     .build()
//!     .unwrap();
//! assert_eq!(s.disruption_slots(), vec![500, 600, 840]);
//! ```

use arachnet_core::slot::Period;

use crate::config::ConfigError;

/// One timed disturbance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// A tag (known to the reader's registry) joins the live deployment.
    TagJoin {
        /// Tag id.
        tid: u8,
        /// Its transmission period.
        period: Period,
    },
    /// A tag leaves the deployment (removed physically; it will never
    /// transmit again unless a later [`ScenarioEvent::TagJoin`] re-adds it).
    TagLeave {
        /// Tag id.
        tid: u8,
    },
    /// A tag's storage cap is force-discharged (brownout-death). Unlike
    /// [`ScenarioEvent::TagLeave`] the device stays deployed and recharges
    /// from the carrier, eventually re-arriving on its own.
    Brownout {
        /// Tag id.
        tid: u8,
    },
    /// The reader goes dark for `slots` slots: no beacons, no feedback,
    /// no carrier (tags cannot harvest during the window).
    ReaderOutage {
        /// Window length in slots.
        slots: u64,
    },
    /// A noise storm: for `slots` slots the slot-domain loss probabilities
    /// are replaced by the given values.
    NoiseBurst {
        /// Window length in slots.
        slots: u64,
        /// Per-tag per-beacon downlink loss probability during the storm.
        dl_loss: f64,
        /// Clean-slot uplink decode-failure probability during the storm.
        ul_loss: f64,
    },
    /// The physical channel enters drift epoch `epoch`. Slot-level
    /// simulators record the marker; waveform-level simulators switch the
    /// `TimeVaryingChannel` epoch.
    ChannelEpoch {
        /// Epoch index within the drift schedule.
        epoch: u16,
    },
}

impl ScenarioEvent {
    /// Window length for windowed events, 0 otherwise.
    fn duration(&self) -> u64 {
        match self {
            ScenarioEvent::ReaderOutage { slots } | ScenarioEvent::NoiseBurst { slots, .. } => {
                *slots
            }
            _ => 0,
        }
    }

    /// Whether the event disrupts the schedule (defines a re-convergence
    /// measurement origin). Epoch markers do not by themselves.
    fn is_disruptive(&self) -> bool {
        !matches!(self, ScenarioEvent::ChannelEpoch { .. })
    }
}

/// A [`ScenarioEvent`] pinned to a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Slot (0-based sim slot index) at which the event fires, before the
    /// slot's beacon.
    pub at: u64,
    /// What happens.
    pub event: ScenarioEvent,
}

/// A validated, replayable schedule of timed events (sorted by slot;
/// same-slot events fire in insertion order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    events: Vec<TimedEvent>,
}

impl Scenario {
    /// An empty scenario (the identity: attaching it changes nothing).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Returns a validating builder.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder { events: Vec::new() }
    }

    /// The events, sorted by slot (stable for same-slot events).
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// True when the scenario has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `(tid, period)` of every joined tag — the reader's a-priori registry
    /// must include these ("all tags periods are known to the reader",
    /// Sec. 5.6, extended to future joiners).
    pub fn join_registry(&self) -> Vec<(u8, Period)> {
        let mut out: Vec<(u8, Period)> = Vec::new();
        for ev in &self.events {
            if let ScenarioEvent::TagJoin { tid, period } = ev.event {
                if !out.iter().any(|&(t, _)| t == tid) {
                    out.push((tid, period));
                }
            }
        }
        out
    }

    /// Slots at which re-convergence measurements begin: the event slot for
    /// churn events, the *end* of the window for outages and bursts (the
    /// schedule cannot start recovering before the disturbance ends).
    /// Sorted and deduplicated.
    pub fn disruption_slots(&self) -> Vec<u64> {
        let mut slots: Vec<u64> = self
            .events
            .iter()
            .filter(|ev| ev.event.is_disruptive())
            .map(|ev| ev.at + ev.event.duration())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Last slot at which the scenario is still doing something: the
    /// maximum event end. 0 for an empty scenario.
    pub fn horizon(&self) -> u64 {
        self.events
            .iter()
            .map(|ev| ev.at + ev.event.duration())
            .max()
            .unwrap_or(0)
    }
}

/// Validating builder for [`Scenario`]: typed [`ConfigError`]s instead of
/// panics-later.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    events: Vec<TimedEvent>,
}

impl ScenarioBuilder {
    fn push(mut self, at: u64, event: ScenarioEvent) -> Self {
        self.events.push(TimedEvent { at, event });
        self
    }

    /// Tag `tid` joins at slot `at` with the given period.
    pub fn join(self, at: u64, tid: u8, period: Period) -> Self {
        self.push(at, ScenarioEvent::TagJoin { tid, period })
    }

    /// Tag `tid` leaves at slot `at`.
    pub fn leave(self, at: u64, tid: u8) -> Self {
        self.push(at, ScenarioEvent::TagLeave { tid })
    }

    /// Tag `tid` is force-discharged (brownout-death) at slot `at`.
    pub fn brownout(self, at: u64, tid: u8) -> Self {
        self.push(at, ScenarioEvent::Brownout { tid })
    }

    /// The reader goes dark for `slots` slots starting at slot `at`.
    pub fn outage(self, at: u64, slots: u64) -> Self {
        self.push(at, ScenarioEvent::ReaderOutage { slots })
    }

    /// A loss storm of `slots` slots starting at `at`, with the given
    /// downlink/uplink loss probabilities while it lasts.
    pub fn noise_burst(self, at: u64, slots: u64, dl_loss: f64, ul_loss: f64) -> Self {
        self.push(
            at,
            ScenarioEvent::NoiseBurst {
                slots,
                dl_loss,
                ul_loss,
            },
        )
    }

    /// The channel enters drift epoch `epoch` at slot `at`.
    pub fn channel_epoch(self, at: u64, epoch: u16) -> Self {
        self.push(at, ScenarioEvent::ChannelEpoch { epoch })
    }

    /// Validates and produces the scenario. Events are sorted by slot
    /// (stable, so same-slot events keep insertion order).
    pub fn build(mut self) -> Result<Scenario, ConfigError> {
        for ev in &self.events {
            match ev.event {
                ScenarioEvent::ReaderOutage { slots: 0 } => {
                    return Err(ConfigError::NotPositive {
                        field: "outage.slots",
                        value: 0.0,
                    });
                }
                ScenarioEvent::ReaderOutage { .. } => {}
                ScenarioEvent::NoiseBurst {
                    slots,
                    dl_loss,
                    ul_loss,
                } => {
                    if slots == 0 {
                        return Err(ConfigError::NotPositive {
                            field: "noise_burst.slots",
                            value: 0.0,
                        });
                    }
                    if !(0.0..=1.0).contains(&dl_loss) {
                        return Err(ConfigError::ProbabilityOutOfRange {
                            field: "noise_burst.dl_loss",
                            value: dl_loss,
                        });
                    }
                    if !(0.0..=1.0).contains(&ul_loss) {
                        return Err(ConfigError::ProbabilityOutOfRange {
                            field: "noise_burst.ul_loss",
                            value: ul_loss,
                        });
                    }
                }
                _ => {}
            }
        }
        self.events.sort_by_key(|ev| ev.at);
        // Internal churn consistency: a tag may not join twice without an
        // intervening leave (its initial pattern-presence is checked by the
        // simulator at attach time, not here).
        let mut joined: Vec<u8> = Vec::new();
        for ev in &self.events {
            match ev.event {
                ScenarioEvent::TagJoin { tid, .. } => {
                    if joined.contains(&tid) {
                        return Err(ConfigError::DuplicateTag { tid });
                    }
                    joined.push(tid);
                }
                ScenarioEvent::TagLeave { tid } => joined.retain(|&t| t != tid),
                _ => {}
            }
        }
        Ok(Scenario {
            events: self.events,
        })
    }
}

/// One re-convergence measurement: a disruption and how long the network
/// took to become collision-free again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconvergenceSample {
    /// Slot at which the measured disruption fired (window end for
    /// outages/bursts).
    pub disruption_slot: u64,
    /// Slots from the disruption until 32 consecutive non-collision slots
    /// were observed; `None` if the run ended first.
    pub slots: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Period {
        Period::new(v).unwrap()
    }

    #[test]
    fn builder_sorts_and_reports_disruptions() {
        let s = Scenario::builder()
            .outage(800, 40)
            .leave(500, 7)
            .join(600, 7, p(4))
            .channel_epoch(100, 1)
            .build()
            .unwrap();
        let ats: Vec<u64> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![100, 500, 600, 800]);
        // Epoch markers are not disruptions; the outage disrupts at its end.
        assert_eq!(s.disruption_slots(), vec![500, 600, 840]);
        assert_eq!(s.horizon(), 840);
        assert_eq!(s.join_registry(), vec![(7, p(4))]);
    }

    #[test]
    fn builder_rejects_zero_windows_and_bad_probabilities() {
        assert!(matches!(
            Scenario::builder().outage(10, 0).build(),
            Err(ConfigError::NotPositive {
                field: "outage.slots",
                ..
            })
        ));
        assert!(matches!(
            Scenario::builder().noise_burst(10, 5, 1.5, 0.0).build(),
            Err(ConfigError::ProbabilityOutOfRange {
                field: "noise_burst.dl_loss",
                ..
            })
        ));
        assert!(matches!(
            Scenario::builder().noise_burst(10, 5, 0.5, -0.1).build(),
            Err(ConfigError::ProbabilityOutOfRange {
                field: "noise_burst.ul_loss",
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_double_join_without_leave() {
        let err = Scenario::builder()
            .join(10, 5, p(4))
            .join(20, 5, p(4))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::DuplicateTag { tid: 5 });
        // Leave in between makes it legal (churn cycle).
        assert!(Scenario::builder()
            .join(10, 5, p(4))
            .leave(15, 5)
            .join(20, 5, p(4))
            .build()
            .is_ok());
    }

    #[test]
    fn empty_scenario_is_identity_shaped() {
        let s = Scenario::empty();
        assert!(s.is_empty());
        assert_eq!(s.horizon(), 0);
        assert!(s.disruption_slots().is_empty());
        assert!(s.join_registry().is_empty());
    }

    #[test]
    fn same_slot_events_keep_insertion_order() {
        let s = Scenario::builder()
            .leave(100, 1)
            .leave(100, 2)
            .join(100, 13, p(8))
            .build()
            .unwrap();
        assert!(matches!(
            s.events()[0].event,
            ScenarioEvent::TagLeave { tid: 1 }
        ));
        assert!(matches!(
            s.events()[1].event,
            ScenarioEvent::TagLeave { tid: 2 }
        ));
        assert!(matches!(
            s.events()[2].event,
            ScenarioEvent::TagJoin { tid: 13, .. }
        ));
        // One shared disruption origin for the whole storm.
        assert_eq!(s.disruption_slots(), vec![100]);
    }
}
