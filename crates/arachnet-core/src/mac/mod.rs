//! The distributed slot-allocation MAC of Sec. 5.
//!
//! * [`tag`] — the per-tag state machine (Fig. 7): MIGRATE / SETTLE states,
//!   random offset re-selection, the consecutive-NACK counter, beacon-loss
//!   handling (Sec. 5.4) and the EMPTY-gated integration of late arrivals
//!   (Sec. 5.5).
//! * [`reader`] — the reader side: ACK/NACK feedback with collision
//!   override (Sec. 5.3), the EMPTY-flag predictor (Eq. 4), and the
//!   future-collision avoidance / eviction logic (Sec. 5.6).
//!
//! The two halves communicate *only* through [`crate::packet::DlCmd`]
//! beacons and slot-level observations — exactly the information that
//! crosses the acoustic channel in the real system.

pub mod reader;
pub mod tag;

pub use reader::{ReaderMac, SlotObservation, SlotOutcome};
pub use tag::{MacState, TagAction, TagMac};

/// The paper's consecutive-NACK threshold `N` (Sec. 5.3): this many NACKs
/// in a row knock a SETTLEd tag back to MIGRATE.
pub const NACK_THRESHOLD: u8 = 3;

/// Tunable protocol parameters. Defaults reproduce the paper's deployment;
/// the boolean switches expose each refinement for ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Consecutive-NACK threshold `N` that knocks a SETTLEd tag back to
    /// MIGRATE (Sec. 5.3; the paper's is [`NACK_THRESHOLD`]).
    pub nack_threshold: u8,
    /// Sec. 5.4 refinement: a tag that detects a missed beacon by timer
    /// immediately re-enters MIGRATE instead of waiting for NACKs.
    pub beacon_timeout_migrate: bool,
    /// Sec. 5.5 refinement: late-arriving tags transmit only in slots the
    /// reader flags EMPTY.
    pub empty_gating: bool,
    /// Sec. 5.6 refinement: the reader predicts future collisions for new
    /// tags and evicts settled tags from crowded slots when necessary.
    pub future_collision_avoidance: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            nack_threshold: NACK_THRESHOLD,
            beacon_timeout_migrate: true,
            empty_gating: true,
            future_collision_avoidance: true,
        }
    }
}

impl ProtocolConfig {
    /// The unrefined "dynamic feedback only" protocol of Sec. 5.3 — every
    /// refinement switched off. Useful as an ablation baseline.
    pub fn vanilla_feedback() -> Self {
        Self {
            nack_threshold: NACK_THRESHOLD,
            beacon_timeout_migrate: false,
            empty_gating: false,
            future_collision_avoidance: false,
        }
    }
}
