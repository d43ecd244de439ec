//! Structured sim-event taxonomy for the flight recorder.

use crate::json_escape;

/// Sentinel tag id for reader-/slot-scoped events that have no single tag.
pub const NO_TAG: u8 = u8::MAX;

/// Why a tag re-randomized its slot offset (MIGRATE transitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrateReason {
    /// NACK feedback received while already in MIGRATE.
    FeedbackNack,
    /// `nack_threshold` consecutive NACKs while SETTLEd.
    NackRun,
    /// No beacon decoded for the configured timeout.
    BeaconTimeout,
    /// EMPTY-slot gating re-randomized a gated transmission.
    EmptyGated,
    /// Reader-commanded reset (eviction / frame restructure).
    Reset,
    /// Power-on reset after a brownout.
    PowerOnReset,
}

impl MigrateReason {
    /// Short lowercase label (stable; used in JSON and timelines).
    pub fn label(&self) -> &'static str {
        match self {
            MigrateReason::FeedbackNack => "feedback-nack",
            MigrateReason::NackRun => "nack-run",
            MigrateReason::BeaconTimeout => "beacon-timeout",
            MigrateReason::EmptyGated => "empty-gated",
            MigrateReason::Reset => "reset",
            MigrateReason::PowerOnReset => "power-on-reset",
        }
    }
}

/// Why an uplink slot failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeFailReason {
    /// Waveform shorter than the minimum the receiver accepts.
    TooShort,
    /// Envelope contrast below the modulation-detection threshold.
    NoModulation,
    /// Too few envelope edges to attempt clock recovery.
    TooFewEdges,
    /// Edge intervals yielded no plausible FM0 bit clock.
    NoBitClock,
    /// Bitstream never matched the preamble in either polarity.
    NoPreamble,
    /// Preamble matched but the CRC check rejected the payload.
    BadCrc,
}

impl DecodeFailReason {
    /// Short lowercase label (stable; used in JSON and timelines).
    pub fn label(&self) -> &'static str {
        match self {
            DecodeFailReason::TooShort => "too-short",
            DecodeFailReason::NoModulation => "no-modulation",
            DecodeFailReason::TooFewEdges => "too-few-edges",
            DecodeFailReason::NoBitClock => "no-bit-clock",
            DecodeFailReason::NoPreamble => "no-preamble",
            DecodeFailReason::BadCrc => "bad-crc",
        }
    }
}

/// Number of distinct [`EventKind`] variants (size of per-kind count arrays).
pub const KIND_COUNT: usize = 21;

/// A structured sim event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A slot was successfully captured by exactly one tag (reader view).
    SlotClaimed {
        /// Slot offset within the frame.
        offset: u16,
    },
    /// A tag transitioned MIGRATE → SETTLE on ACK feedback (tag view).
    Settled {
        /// The offset the tag settled on.
        offset: u16,
    },
    /// A tag re-randomized its offset.
    TagMigrated {
        /// Offset before migration.
        from: u16,
        /// Offset after migration.
        to: u16,
        /// Why the tag migrated.
        reason: MigrateReason,
    },
    /// Feedback delivered to a tag for its own slot.
    AckNack {
        /// `true` for ACK, `false` for NACK.
        ack: bool,
    },
    /// Two or more tags transmitted in the same slot (ground truth).
    Collision {
        /// Number of simultaneous transmitters.
        transmitters: u8,
    },
    /// A claimed-empty slot observation.
    Empty,
    /// A tag failed to decode the downlink beacon this slot.
    BeaconLost,
    /// A tag's storage voltage fell below cutoff (brownout).
    PowerCutoff,
    /// A tag charged past the power-on threshold and woke up.
    PowerOn,
    /// The receiver decoded a packet in this slot.
    Decoded,
    /// The receiver failed to decode this slot.
    DecodeFail {
        /// Failure taxonomy.
        reason: DecodeFailReason,
    },
    /// A scenario event added this tag to the live deployment.
    TagJoined,
    /// A scenario event removed this tag from the live deployment.
    TagDeparted,
    /// The time-varying channel switched to a new drift epoch.
    ChannelEpoch {
        /// Epoch index within the drift schedule.
        epoch: u16,
    },
    /// The reader went dark (duty-cycle / outage window).
    ReaderOutage {
        /// Outage length in slots.
        slots: u16,
    },
    /// The fleet coordinator assigned a reader its FDMA sub-band (the
    /// `tag` field carries the reader index for fleet-scoped events).
    ReaderAssigned {
        /// Sub-band index within the fleet plan.
        band: u16,
    },
    /// Concurrent transmissions from different reader cells interfered
    /// (co-channel or insufficiently rejected sub-band neighbours).
    CrossReaderCollision {
        /// Number of interfering readers active at the time.
        readers: u8,
    },
    /// A sweep trial failed every attempt and was quarantined into the
    /// report instead of aborting the sweep (the `slot` field carries the
    /// trial index). Deterministic: panics are pure in `(trial, seed)`.
    TrialQuarantined {
        /// Total attempts made (first run plus retries).
        attempts: u8,
    },
    /// A sweep restored completed trials from a checkpoint instead of
    /// recomputing them. Wall-domain provenance: never part of the
    /// deterministic metrics export.
    SweepResumed {
        /// Number of trials restored from the checkpoint.
        restored: u16,
    },
    /// A sweep's wall-clock (or dispatch) budget ran out before every
    /// trial was dispatched; the report is partial.
    BudgetExhausted,
    /// The stall watchdog flagged an in-flight trial past its soft
    /// deadline (the `slot` field carries the trial index). Wall-domain
    /// diagnostics: never part of the deterministic metrics export.
    TrialStalled {
        /// How long the trial had been running when flagged, in ms
        /// (saturating at `u32::MAX`).
        waited_ms: u32,
    },
}

impl EventKind {
    /// Dense index for per-kind counting (`0 .. KIND_COUNT`).
    pub fn index(&self) -> usize {
        match self {
            EventKind::SlotClaimed { .. } => 0,
            EventKind::Settled { .. } => 1,
            EventKind::TagMigrated { .. } => 2,
            EventKind::AckNack { .. } => 3,
            EventKind::Collision { .. } => 4,
            EventKind::Empty => 5,
            EventKind::BeaconLost => 6,
            EventKind::PowerCutoff => 7,
            EventKind::PowerOn => 8,
            EventKind::Decoded => 9,
            EventKind::DecodeFail { .. } => 10,
            EventKind::TagJoined => 11,
            EventKind::TagDeparted => 12,
            EventKind::ChannelEpoch { .. } => 13,
            EventKind::ReaderOutage { .. } => 14,
            EventKind::ReaderAssigned { .. } => 15,
            EventKind::CrossReaderCollision { .. } => 16,
            EventKind::TrialQuarantined { .. } => 17,
            EventKind::SweepResumed { .. } => 18,
            EventKind::BudgetExhausted => 19,
            EventKind::TrialStalled { .. } => 20,
        }
    }

    /// Stable label for the kind at `index` (inverse of [`EventKind::index`]).
    pub fn label_at(index: usize) -> &'static str {
        const LABELS: [&str; KIND_COUNT] = [
            "slot_claimed",
            "settled",
            "tag_migrated",
            "ack_nack",
            "collision",
            "empty",
            "beacon_lost",
            "power_cutoff",
            "power_on",
            "decoded",
            "decode_fail",
            "tag_joined",
            "tag_departed",
            "channel_epoch",
            "reader_outage",
            "reader_assigned",
            "xreader_collision",
            "trial_quarantined",
            "sweep_resumed",
            "budget_exhausted",
            "trial_stalled",
        ];
        LABELS[index]
    }

    /// Stable label for this kind.
    pub fn label(&self) -> &'static str {
        Self::label_at(self.index())
    }

    /// `true` for kinds the timeline renderer treats as anomalies.
    pub fn is_anomaly(&self) -> bool {
        matches!(
            self,
            EventKind::Collision { .. }
                | EventKind::PowerCutoff
                | EventKind::DecodeFail { .. }
                | EventKind::TagDeparted
                | EventKind::ReaderOutage { .. }
                | EventKind::CrossReaderCollision { .. }
                | EventKind::TrialQuarantined { .. }
                | EventKind::BudgetExhausted
                | EventKind::TrialStalled { .. }
        )
    }

    /// Human one-line description (used by the timeline renderer).
    pub fn describe(&self) -> String {
        match self {
            EventKind::SlotClaimed { offset } => format!("slot claimed at offset {offset}"),
            EventKind::Settled { offset } => format!("SETTLE at offset {offset}"),
            EventKind::TagMigrated { from, to, reason } => {
                format!("MIGRATE offset {from} -> {to} ({})", reason.label())
            }
            EventKind::AckNack { ack } => {
                if *ack {
                    "feedback ACK".into()
                } else {
                    "feedback NACK".into()
                }
            }
            EventKind::Collision { transmitters } => {
                format!("collision ({transmitters} transmitters)")
            }
            EventKind::Empty => "empty slot".into(),
            EventKind::BeaconLost => "beacon lost".into(),
            EventKind::PowerCutoff => "power cutoff (brownout)".into(),
            EventKind::PowerOn => "powered on".into(),
            EventKind::Decoded => "packet decoded".into(),
            EventKind::DecodeFail { reason } => format!("decode fail ({})", reason.label()),
            EventKind::TagJoined => "joined the deployment".into(),
            EventKind::TagDeparted => "departed the deployment".into(),
            EventKind::ChannelEpoch { epoch } => format!("channel drift epoch {epoch}"),
            EventKind::ReaderOutage { slots } => format!("reader outage ({slots} slots)"),
            EventKind::ReaderAssigned { band } => format!("assigned FDMA sub-band {band}"),
            EventKind::CrossReaderCollision { readers } => {
                format!("cross-reader collision ({readers} interfering readers)")
            }
            EventKind::TrialQuarantined { attempts } => {
                format!("trial quarantined after {attempts} attempts")
            }
            EventKind::SweepResumed { restored } => {
                format!("sweep resumed ({restored} trials restored from checkpoint)")
            }
            EventKind::BudgetExhausted => "sweep budget exhausted (partial report)".into(),
            EventKind::TrialStalled { waited_ms } => {
                format!("trial stalled ({waited_ms} ms past dispatch)")
            }
        }
    }

    /// Extra `"key":value` JSON fields for this kind (no braces), or empty.
    fn json_detail(&self) -> String {
        match self {
            EventKind::SlotClaimed { offset } | EventKind::Settled { offset } => {
                format!(",\"offset\":{offset}")
            }
            EventKind::TagMigrated { from, to, reason } => {
                format!(",\"from\":{from},\"to\":{to},\"reason\":\"{}\"", reason.label())
            }
            EventKind::AckNack { ack } => format!(",\"ack\":{ack}"),
            EventKind::Collision { transmitters } => format!(",\"transmitters\":{transmitters}"),
            EventKind::DecodeFail { reason } => format!(",\"reason\":\"{}\"", reason.label()),
            EventKind::ChannelEpoch { epoch } => format!(",\"epoch\":{epoch}"),
            EventKind::ReaderOutage { slots } => format!(",\"slots\":{slots}"),
            EventKind::ReaderAssigned { band } => format!(",\"band\":{band}"),
            EventKind::CrossReaderCollision { readers } => format!(",\"readers\":{readers}"),
            EventKind::TrialQuarantined { attempts } => format!(",\"attempts\":{attempts}"),
            EventKind::SweepResumed { restored } => format!(",\"restored\":{restored}"),
            EventKind::TrialStalled { waited_ms } => format!(",\"waited_ms\":{waited_ms}"),
            _ => String::new(),
        }
    }
}

/// A recorded event: what happened, to which tag, in which slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Sim slot index at which the event occurred.
    pub slot: u64,
    /// Tag id, or [`NO_TAG`] for slot-scoped events.
    pub tag: u8,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// One-line JSON object for the JSONL trace dump.
    ///
    /// `seed` is the trial seed the recorder was stamped with; it is
    /// threaded here so every line is self-describing.
    pub fn to_json(&self, seed: u64) -> String {
        let tag = if self.tag == NO_TAG {
            "null".to_string()
        } else {
            format!("{}", self.tag)
        };
        format!(
            "{{\"seed\":{},\"slot\":{},\"tag\":{},\"event\":\"{}\"{}}}",
            seed,
            self.slot,
            tag,
            json_escape(self.kind.label()),
            self.kind.json_detail()
        )
    }

    /// Human one-line description including slot and tag.
    pub fn describe(&self) -> String {
        let who = if self.tag == NO_TAG {
            "      ".to_string()
        } else {
            format!("tag {:>2}", self.tag)
        };
        let mark = if self.kind.is_anomaly() { "!" } else { " " };
        format!("{mark} slot {:>7}  {who}  {}", self.slot, self.kind.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_labelled() {
        let kinds = [
            EventKind::SlotClaimed { offset: 0 },
            EventKind::Settled { offset: 0 },
            EventKind::TagMigrated { from: 0, to: 1, reason: MigrateReason::NackRun },
            EventKind::AckNack { ack: true },
            EventKind::Collision { transmitters: 2 },
            EventKind::Empty,
            EventKind::BeaconLost,
            EventKind::PowerCutoff,
            EventKind::PowerOn,
            EventKind::Decoded,
            EventKind::DecodeFail { reason: DecodeFailReason::BadCrc },
            EventKind::TagJoined,
            EventKind::TagDeparted,
            EventKind::ChannelEpoch { epoch: 2 },
            EventKind::ReaderOutage { slots: 40 },
            EventKind::ReaderAssigned { band: 1 },
            EventKind::CrossReaderCollision { readers: 2 },
            EventKind::TrialQuarantined { attempts: 2 },
            EventKind::SweepResumed { restored: 12 },
            EventKind::BudgetExhausted,
            EventKind::TrialStalled { waited_ms: 5000 },
        ];
        assert_eq!(kinds.len(), KIND_COUNT);
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(EventKind::label_at(i), k.label());
        }
    }

    #[test]
    fn event_json_is_one_line() {
        let e = Event {
            slot: 42,
            tag: 3,
            kind: EventKind::TagMigrated { from: 1, to: 5, reason: MigrateReason::BeaconTimeout },
        };
        let j = e.to_json(7);
        assert!(!j.contains('\n'));
        assert!(j.contains("\"event\":\"tag_migrated\""));
        assert!(j.contains("\"reason\":\"beacon-timeout\""));
        let none = Event { slot: 1, tag: NO_TAG, kind: EventKind::Empty };
        assert!(none.to_json(7).contains("\"tag\":null"));
    }
}
