//! The tag MAC state machine (Fig. 7, Secs. 5.3–5.5).
//!
//! Each tag runs this machine inside the "network operation" interrupt
//! handler: a software interrupt fires when a complete beacon has been
//! decoded (Sec. 4.3), the machine consumes the beacon's command nibble and
//! answers with a [`TagAction`] that tells the modulator whether to
//! backscatter an uplink packet in the slot that just opened.
//!
//! Key behaviours, straight from the paper:
//!
//! * tags start in **MIGRATE** with a uniformly random offset;
//! * an ACK for a slot in which the tag transmitted moves it to **SETTLE**;
//! * a NACK in MIGRATE triggers an immediate random re-selection;
//! * a NACK in SETTLE increments a failure counter; `N` consecutive NACKs
//!   (paper: 3) knock the tag back to MIGRATE;
//! * tags react to ACK/NACK **only if they transmitted in the previous
//!   slot** — the beacon carries no tag ID;
//! * a beacon missed (detected by a local timer) sends the tag back to
//!   MIGRATE with a fresh offset (Sec. 5.4 refinement) and, crucially, the
//!   local slot counter does *not* advance — the desynchronisation analysed
//!   in Eq. 3;
//! * a tag that has never been ACKed since activation is a *new arrival* and
//!   only contends in slots the reader flags EMPTY (Sec. 5.5 refinement).

use crate::mac::ProtocolConfig;
use crate::packet::DlCmd;
use crate::rng::TagRng;
use crate::slot::Period;
use arachnet_obs::{EventKind, MigrateReason};

/// Primary state of the machine (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacState {
    /// Searching for a collision-free offset via trial and error.
    Migrate,
    /// Holding a seemingly collision-free offset.
    Settle,
}

/// What the tag does in the slot a beacon just opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagAction {
    /// Backscatter an uplink packet in this slot.
    pub transmit: bool,
}

/// The per-tag MAC state machine.
#[derive(Debug, Clone)]
pub struct TagMac {
    tid: u8,
    period: Period,
    config: ProtocolConfig,
    state: MacState,
    offset: u32,
    /// Local slot counter `s_i`; increments once per *received* beacon.
    local_slot: u64,
    /// Consecutive-NACK counter `c_i`.
    nack_run: u8,
    /// Whether the tag transmitted in the slot the incoming feedback covers.
    tx_last_slot: bool,
    /// True once the tag has been ACKed since activation.
    integrated: bool,
    /// The "newly arriving" condition of Sec. 5.5: set at power-on,
    /// cleared by the first ACK. A RESET command does *not* set it — a
    /// reset cohort re-contends freely; only tags that just charged up
    /// tip-toe in through EMPTY slots.
    new_arrival: bool,
    rng: TagRng,
    /// State-machine transitions from the most recent callback
    /// (`on_beacon` / `on_beacon_timeout` / `power_on_reset`), for the
    /// sim layer's flight recorder. Cleared at the start of each callback;
    /// capacity is reused, so pushes allocate at most once per tag.
    events: Vec<EventKind>,
}

impl TagMac {
    /// Creates a freshly activated tag: MIGRATE state, random offset.
    pub fn new(tid: u8, period: Period, config: ProtocolConfig, rng: TagRng) -> Self {
        let mut mac = Self {
            tid,
            period,
            config,
            state: MacState::Migrate,
            offset: 0,
            local_slot: 0,
            nack_run: 0,
            tx_last_slot: false,
            integrated: false,
            new_arrival: true,
            rng,
            events: Vec::new(),
        };
        mac.offset = mac.random_offset();
        mac
    }

    /// Tag identifier.
    pub fn tid(&self) -> u8 {
        self.tid
    }

    /// Transmission period.
    pub fn period(&self) -> Period {
        self.period
    }

    /// Current state.
    pub fn state(&self) -> MacState {
        self.state
    }

    /// Current slot offset `a_i`.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// Local slot counter `s_i`.
    pub fn local_slot(&self) -> u64 {
        self.local_slot
    }

    /// Consecutive-NACK counter `c_i`.
    pub fn nack_run(&self) -> u8 {
        self.nack_run
    }

    /// Whether this tag has been integrated (ACKed at least once since
    /// activation / RESET).
    pub fn is_integrated(&self) -> bool {
        self.integrated
    }

    fn random_offset(&mut self) -> u32 {
        self.rng.below(u64::from(self.period.get())) as u32
    }

    /// State-machine transition events from the most recent callback
    /// (flight-recorder feed; see `arachnet-obs`). The slice is valid until
    /// the next `on_beacon` / `on_beacon_timeout` / `power_on_reset` call.
    pub fn events(&self) -> &[EventKind] {
        &self.events
    }

    fn migrate_to(&mut self, reason: MigrateReason) {
        let from = self.offset as u16;
        self.offset = self.random_offset();
        self.events.push(EventKind::TagMigrated {
            from,
            to: self.offset as u16,
            reason,
        });
    }

    /// Handles a decoded beacon. The beacon closes the previous slot
    /// (delivering its ACK/NACK) and opens the next; the returned action
    /// says whether to transmit in the newly opened slot.
    pub fn on_beacon(&mut self, cmd: DlCmd) -> TagAction {
        self.events.clear();
        if cmd.reset {
            self.apply_reset(MigrateReason::Reset);
            return TagAction { transmit: false };
        }

        // 1. Feedback phase — only relevant if we transmitted last slot.
        if self.tx_last_slot {
            self.events.push(EventKind::AckNack { ack: cmd.ack });
            if cmd.ack {
                if self.state == MacState::Migrate {
                    self.events.push(EventKind::Settled {
                        offset: self.offset as u16,
                    });
                }
                self.state = MacState::Settle;
                self.nack_run = 0;
                self.integrated = true;
                self.new_arrival = false;
            } else {
                match self.state {
                    MacState::Migrate => {
                        // Collision while probing: try a different offset.
                        self.migrate_to(MigrateReason::FeedbackNack);
                    }
                    MacState::Settle => {
                        self.nack_run += 1;
                        if self.nack_run >= self.config.nack_threshold {
                            self.state = MacState::Migrate;
                            self.migrate_to(MigrateReason::NackRun);
                            self.nack_run = 0;
                        }
                    }
                }
            }
        }

        // 2. Slot bookkeeping: the beacon advances the local counter.
        // Saturating, not wrapping: a wrap would silently shift
        // `local_slot % period` and break the settled schedule. At one
        // 1-second slot per tick, u64 saturation is ~5.8e11 years away, so
        // long-horizon soaks can never hit either edge — but saturation is
        // the fail-safe that keeps the schedule arithmetic monotone.
        self.local_slot = self.local_slot.saturating_add(1);

        // 3. Transmission decision (Eq. 2), gated by EMPTY for new arrivals.
        let my_turn = self.local_slot % u64::from(self.period.get()) == u64::from(self.offset);
        let gated = self.config.empty_gating && self.new_arrival && !cmd.empty;
        if my_turn && gated {
            // Our chosen slot is predicted occupied: abandoning the turn
            // without re-selecting would stall forever, so migrate to a new
            // candidate offset and wait for an EMPTY slot there.
            self.migrate_to(MigrateReason::EmptyGated);
        }
        let transmit = my_turn && !gated;
        self.tx_last_slot = transmit;
        TagAction { transmit }
    }

    /// Handles a beacon-loss timeout (the tag's expected-beacon timer
    /// expired without a decode — Sec. 5.4 refinement). The local counter
    /// does **not** advance; the tag conservatively migrates.
    pub fn on_beacon_timeout(&mut self) {
        self.events.clear();
        // We certainly did not transmit in the lost slot: transmissions are
        // beacon-triggered (reader-talks-first).
        self.tx_last_slot = false;
        if self.config.beacon_timeout_migrate {
            self.state = MacState::Migrate;
            self.migrate_to(MigrateReason::BeaconTimeout);
            self.nack_run = 0;
        }
    }

    /// Re-initializes the machine as a cold boot would (used when the
    /// low-voltage cutoff power-cycles the MCU). Equivalent to receiving a
    /// RESET beacon, but initiated by hardware. The RNG stream continues —
    /// a rebooted tag does not replay its old offset choices.
    pub fn power_on_reset(&mut self) {
        self.events.clear();
        self.apply_reset(MigrateReason::PowerOnReset);
        self.new_arrival = true; // overrides apply_reset: cold boots are new
    }

    fn apply_reset(&mut self, reason: MigrateReason) {
        self.state = MacState::Migrate;
        self.migrate_to(reason);
        self.local_slot = 0;
        self.nack_run = 0;
        self.tx_last_slot = false;
        self.integrated = false;
        // A RESET beacon restarts the *whole* network: every recipient is
        // part of the re-contending cohort, so nobody is a gated "new
        // arrival" afterwards. (power_on_reset() re-arms the gate — a tag
        // that just charged up really is new.)
        self.new_arrival = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(period: u32, seed: u64) -> TagMac {
        TagMac::new(
            1,
            Period::new(period).unwrap(),
            ProtocolConfig {
                empty_gating: false,
                ..ProtocolConfig::default()
            },
            TagRng::new(seed),
        )
    }

    fn beacon_ack() -> DlCmd {
        DlCmd::ack().with_empty(true)
    }

    fn beacon_nack() -> DlCmd {
        DlCmd::nack().with_empty(true)
    }

    /// Drives the tag with NACK beacons until it transmits; returns slots taken.
    fn drive_to_tx(tag: &mut TagMac, max: u32) -> u32 {
        for i in 0..max {
            if tag.on_beacon(beacon_nack()).transmit {
                return i;
            }
        }
        panic!("tag never transmitted in {max} slots");
    }

    #[test]
    fn starts_in_migrate_with_valid_offset() {
        let tag = mk(8, 42);
        assert_eq!(tag.state(), MacState::Migrate);
        assert!(tag.offset() < 8);
        assert!(!tag.is_integrated());
    }

    #[test]
    fn transmits_at_its_offset_only() {
        let mut tag = mk(4, 7);
        let offset = tag.offset();
        let mut fired = Vec::new();
        for s in 1..=12u64 {
            // Send idle beacons (NACK but tag didn't transmit → ignored).
            let act = tag.on_beacon(beacon_nack());
            if act.transmit {
                fired.push(s);
                // Immediately ACK so it stays put (feedback consumed next beacon).
                let _ = tag.on_beacon(beacon_ack());
                break;
            }
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0] % 4, u64::from(offset));
    }

    #[test]
    fn ack_after_transmit_settles() {
        let mut tag = mk(4, 3);
        drive_to_tx(&mut tag, 8);
        assert!(tag.tx_last_slot);
        tag.on_beacon(beacon_ack());
        assert_eq!(tag.state(), MacState::Settle);
        assert!(tag.is_integrated());
        assert_eq!(tag.nack_run(), 0);
    }

    #[test]
    fn ack_without_transmit_is_ignored() {
        let mut tag = mk(8, 5);
        // Ensure the tag did not transmit at this beacon (drive until a
        // non-transmit slot right before the ACK).
        loop {
            let act = tag.on_beacon(beacon_nack().with_empty(true));
            if !act.transmit {
                break;
            }
        }
        let state_before = tag.state();
        tag.on_beacon(beacon_ack());
        // The ACK must not settle a tag that did not transmit. (It may have
        // transmitted in the *new* slot, but state only changes on feedback.)
        if state_before == MacState::Migrate {
            assert_ne!(
                (tag.state(), tag.is_integrated()),
                (MacState::Settle, true),
                "ACK wrongly consumed by non-transmitting tag"
            );
        }
    }

    #[test]
    fn nack_in_migrate_reselects_offset() {
        let mut tag = mk(32, 11);
        let mut changes = 0;
        let mut last = tag.offset();
        for _ in 0..10 {
            drive_to_tx(&mut tag, 64);
            tag.on_beacon(beacon_nack());
            assert_eq!(tag.state(), MacState::Migrate);
            if tag.offset() != last {
                changes += 1;
            }
            last = tag.offset();
        }
        // With 32 offsets, re-selection collides with the old one rarely.
        assert!(changes >= 7, "offset changed only {changes}/10 times");
    }

    #[test]
    fn settled_tag_survives_fewer_than_n_nacks() {
        let mut tag = mk(4, 9);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        let offset = tag.offset();
        // Two NACKs (N=3): must stay settled on the same offset.
        for expected_run in 1..=2u8 {
            // Wait for its next transmission.
            drive_to_tx(&mut tag, 8);
            tag.on_beacon(beacon_nack());
            assert_eq!(tag.state(), MacState::Settle, "run {expected_run}");
            assert_eq!(tag.offset(), offset);
            assert_eq!(tag.nack_run(), expected_run);
        }
    }

    #[test]
    fn n_consecutive_nacks_trigger_migrate() {
        let mut tag = mk(4, 13);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        for _ in 0..3 {
            drive_to_tx(&mut tag, 8);
            tag.on_beacon(beacon_nack());
        }
        assert_eq!(tag.state(), MacState::Migrate);
        assert_eq!(tag.nack_run(), 0);
    }

    #[test]
    fn ack_resets_nack_counter() {
        let mut tag = mk(4, 17);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        // Two NACKs…
        for _ in 0..2 {
            drive_to_tx(&mut tag, 8);
            tag.on_beacon(beacon_nack());
        }
        assert_eq!(tag.nack_run(), 2);
        // …then an ACK clears the run…
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        assert_eq!(tag.nack_run(), 0);
        // …so two more NACKs still do not evict.
        for _ in 0..2 {
            drive_to_tx(&mut tag, 8);
            tag.on_beacon(beacon_nack());
        }
        assert_eq!(tag.state(), MacState::Settle);
    }

    #[test]
    fn beacon_timeout_migrates_and_freezes_counter() {
        let mut tag = mk(4, 21);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        let slot_before = tag.local_slot();
        tag.on_beacon_timeout();
        assert_eq!(tag.state(), MacState::Migrate);
        assert_eq!(
            tag.local_slot(),
            slot_before,
            "missed beacon must not advance s_i"
        );
        assert!(!tag.tx_last_slot);
    }

    #[test]
    fn beacon_timeout_without_refinement_keeps_state() {
        let mut tag = TagMac::new(
            1,
            Period::new(4).unwrap(),
            ProtocolConfig {
                beacon_timeout_migrate: false,
                empty_gating: false,
                ..ProtocolConfig::default()
            },
            TagRng::new(1),
        );
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        tag.on_beacon_timeout();
        assert_eq!(tag.state(), MacState::Settle);
    }

    #[test]
    fn missed_beacon_shifts_effective_offset_by_one() {
        // Eq. 3: after one missed beacon the tag fires one global slot later.
        let mut tag = mk(4, 25);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        // Disable the timeout refinement effect by reading the offset, then
        // simulate the *unrefined* loss: simply don't deliver one beacon.
        let offset = tag.offset();
        let s_local = tag.local_slot();
        // Global slot g tracks beacons sent; the tag missed one, so when the
        // tag's local counter shows s_local + k, the global slot is
        // s_local + k + 1. The tag fires when (s_local + k) % 4 == offset,
        // i.e. at global slots ≡ offset + 1 (mod 4).
        let mut global = s_local; // before the loss, synchronized
        global += 1; // lost beacon (tag does not see it)
        let mut fired_at = None;
        for _ in 0..8 {
            let act = tag.on_beacon(beacon_nack());
            global += 1;
            if act.transmit {
                fired_at = Some(global);
                break;
            }
        }
        let fired = fired_at.expect("tag must fire within two periods");
        assert_eq!(fired % 4, (u64::from(offset) + 1) % 4, "Eq. 3 shift");
    }

    #[test]
    fn reset_returns_to_initial_conditions() {
        let mut tag = mk(4, 29);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        assert!(tag.is_integrated());
        let act = tag.on_beacon(DlCmd::reset());
        assert!(!act.transmit);
        assert_eq!(tag.state(), MacState::Migrate);
        assert_eq!(tag.local_slot(), 0);
        assert!(!tag.is_integrated());
        assert_eq!(tag.nack_run(), 0);
    }

    #[test]
    fn empty_gating_blocks_new_arrivals() {
        let mut tag = TagMac::new(
            2,
            Period::new(2).unwrap(),
            ProtocolConfig::default(), // empty_gating = true
            TagRng::new(31),
        );
        // Never flag EMPTY: tag must never transmit.
        for _ in 0..16 {
            let act = tag.on_beacon(DlCmd::nack().with_empty(false));
            assert!(!act.transmit);
        }
        // Flag EMPTY: tag transmits at its next turn.
        let mut fired = false;
        for _ in 0..4 {
            if tag.on_beacon(DlCmd::nack().with_empty(true)).transmit {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn integrated_tag_ignores_empty_flag() {
        let mut tag = TagMac::new(
            2,
            Period::new(2).unwrap(),
            ProtocolConfig::default(),
            TagRng::new(37),
        );
        // Integrate it first (EMPTY = true during contention).
        loop {
            let act = tag.on_beacon(DlCmd::nack().with_empty(true));
            if act.transmit {
                tag.on_beacon(DlCmd::ack().with_empty(true));
                break;
            }
        }
        assert!(tag.is_integrated());
        // Now EMPTY = false everywhere: a settled tag still transmits.
        let mut fired = false;
        for _ in 0..4 {
            if tag.on_beacon(DlCmd::nack().with_empty(false)).transmit {
                fired = true;
                break;
            }
        }
        // One NACK won't unsettle it (N=3), so it must have fired.
        assert!(fired, "settled tag must ignore EMPTY gating");
    }

    #[test]
    fn transitions_surface_as_events() {
        use arachnet_obs::{EventKind, MigrateReason};
        let mut tag = mk(4, 43);
        drive_to_tx(&mut tag, 8);
        tag.on_beacon(beacon_ack());
        // ACK while migrating: AckNack + Settled.
        assert!(tag
            .events()
            .iter()
            .any(|e| matches!(e, EventKind::Settled { .. })));
        assert!(tag
            .events()
            .iter()
            .any(|e| matches!(e, EventKind::AckNack { ack: true })));
        // Three NACKs evict: the third carries a nack-run migration.
        for _ in 0..3 {
            drive_to_tx(&mut tag, 8);
            tag.on_beacon(beacon_nack());
        }
        assert!(tag.events().iter().any(|e| matches!(
            e,
            EventKind::TagMigrated {
                reason: MigrateReason::NackRun,
                ..
            }
        )));
        // Beacon timeout migrates with its own reason.
        tag.on_beacon_timeout();
        assert!(tag.events().iter().any(|e| matches!(
            e,
            EventKind::TagMigrated {
                reason: MigrateReason::BeaconTimeout,
                ..
            }
        )));
        // Events are cleared by the next callback.
        tag.on_beacon(beacon_nack());
        assert!(!tag.events().iter().any(|e| matches!(
            e,
            EventKind::TagMigrated {
                reason: MigrateReason::BeaconTimeout,
                ..
            }
        )));
    }
}
