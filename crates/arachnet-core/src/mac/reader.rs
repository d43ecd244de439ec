//! The reader side of the MAC (Secs. 5.3, 5.5, 5.6).
//!
//! The reader talks first: every slot boundary it broadcasts a beacon whose
//! command nibble carries the feedback for the slot that just closed and the
//! EMPTY prediction for the slot that just opened. Its inputs are
//! *slot observations* — whether a packet was decoded and whether the IQ
//! clustering stage flagged a collision (capture effect, Sec. 5.3).
//!
//! Three pieces of intelligence live here:
//!
//! 1. **Feedback** — ACK iff exactly one tag was heard: a decoded packet
//!    with a collision flag still yields NACK, because capture would
//!    otherwise hide the loser (Sec. 5.3);
//! 2. **EMPTY prediction** (Eq. 4) — the opened slot is declared empty iff,
//!    for every known transmission period `p`, no packet was received `p`
//!    slots earlier;
//! 3. **Future-collision avoidance** (Sec. 5.6) — when a previously unseen
//!    tag shows up whose period admits no conflict-free offset under the
//!    current allocation, the reader NACKs it *and* evicts a settled tag
//!    from a low-traffic slot by NACKing that tag until it migrates;
//! 4. **Stale-schedule eviction** — a tag that misses
//!    [`MISS_EVICTION_THRESHOLD`] consecutive expected transmissions is
//!    dropped from `seen`, so a departed tag's inferred schedule stops
//!    poisoning the EMPTY predictor (without this, `predict_empty` would
//!    gate the departed tag's slots forever and re-arrivals could never
//!    claim them back).

use std::collections::{BTreeMap, BTreeSet};

use arachnet_obs::warn;

use crate::mac::ProtocolConfig;
use crate::packet::{DlBeacon, DlCmd};
use crate::slot::{viable_offset, Period, Schedule};

/// Consecutive missed expected transmissions after which the reader evicts
/// a tag's inferred schedule from `seen`. Collisions are ambiguous (the tag
/// may be among the colliders) and neither count as a miss nor clear the
/// run.
pub const MISS_EVICTION_THRESHOLD: u8 = 3;

/// Retained slot-history window. Once the buffer holds twice this many
/// outcomes the oldest half is dropped, so long-horizon soaks run in
/// bounded memory; [`ReaderMac::outcome_at`] answers `None` for evicted
/// slots.
pub const HISTORY_WINDOW: usize = 1 << 14;

/// What the reader's PHY observed during one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotObservation {
    /// TID of a successfully decoded uplink packet, if any.
    pub decoded: Option<u8>,
    /// IQ-domain clustering found more than one backscatterer (Sec. 5.3).
    pub collision: bool,
}

impl SlotObservation {
    /// Nothing heard.
    pub fn empty() -> Self {
        Self {
            decoded: None,
            collision: false,
        }
    }

    /// One packet cleanly decoded.
    pub fn received(tid: u8) -> Self {
        Self {
            decoded: Some(tid),
            collision: false,
        }
    }

    /// Collision; `captured` is a packet that still decoded via capture.
    pub fn collision(captured: Option<u8>) -> Self {
        Self {
            decoded: captured,
            collision: true,
        }
    }
}

/// The reader's record of one past slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No energy above threshold.
    Empty,
    /// Exactly one tag heard and decoded.
    Received(u8),
    /// Multiple concurrent backscatterers.
    Collision,
}

/// An in-progress eviction (Sec. 5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Eviction {
    /// The late tag that cannot currently fit.
    new_tid: u8,
    /// The settled tag being NACKed out of its slot.
    victim_tid: u8,
    /// The victim's offset at the time the plan was made; NACKs only apply
    /// to transmissions at this offset (its migrated self is welcome).
    victim_offset: u32,
}

/// Reader-side view of a tag that has been heard at least once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TagView {
    period: Period,
    /// Offset inferred from the last clean reception: `slot mod period`.
    offset: u32,
    last_rx_slot: u64,
    /// Consecutive expected transmissions (slots where this schedule fires)
    /// that produced no reception from this tag.
    miss_run: u8,
}

/// The reader MAC engine.
#[derive(Debug, Clone)]
pub struct ReaderMac {
    config: ProtocolConfig,
    /// A-priori knowledge: TID → period for every tag in the deployment
    /// ("All tags periods are known to the reader", Sec. 5.6).
    registry: BTreeMap<u8, Period>,
    /// Tags actually heard so far.
    seen: BTreeMap<u8, TagView>,
    /// Outcome of slot `history_base + i + 1` lives at index `i` (slot
    /// numbering starts at 1 with the first beacon). Bounded: see
    /// [`HISTORY_WINDOW`].
    history: Vec<SlotOutcome>,
    /// Number of old outcomes dropped off the front of `history`.
    history_base: u64,
    /// Index of the currently open slot (== number of beacons sent).
    current_slot: u64,
    eviction: Option<Eviction>,
    pending_reset: bool,
    /// Tags that belong to the re-contending cohort after a RESET: the
    /// Sec. 5.6 new-tag admission logic does not apply to them — they are
    /// expected to collide and sort themselves out (that is exactly what
    /// Fig. 15 measures). Only tags outside the cohort (genuine late
    /// arrivals, e.g. freshly charged devices) face future-collision
    /// admission.
    cohort: BTreeSet<u8>,
}

impl ReaderMac {
    /// Creates a reader knowing every deployed tag's period.
    pub fn new(config: ProtocolConfig, registry: &[(u8, Period)]) -> Self {
        Self {
            config,
            registry: registry.iter().copied().collect(),
            seen: BTreeMap::new(),
            history: Vec::new(),
            history_base: 0,
            current_slot: 0,
            eviction: None,
            pending_reset: false,
            cohort: BTreeSet::new(),
        }
    }

    /// Number of the currently open slot (0 before [`ReaderMac::start`]).
    pub fn current_slot(&self) -> u64 {
        self.current_slot
    }

    /// Immutable view of the retained per-slot history window (oldest
    /// retained slot first; see [`ReaderMac::history_base`]).
    pub fn history(&self) -> &[SlotOutcome] {
        &self.history
    }

    /// Number of outcomes evicted off the front of the history window: the
    /// first entry of [`ReaderMac::history`] describes slot
    /// `history_base() + 1`.
    pub fn history_base(&self) -> u64 {
        self.history_base
    }

    /// Whether an eviction is in progress.
    pub fn evicting(&self) -> bool {
        self.eviction.is_some()
    }

    /// Requests that the next beacon carry RESET; reader state is cleared
    /// when that beacon is issued.
    pub fn queue_reset(&mut self) {
        self.pending_reset = true;
    }

    /// Sends the first beacon, opening slot 1. No feedback is carried.
    pub fn start(&mut self) -> DlBeacon {
        assert_eq!(self.current_slot, 0, "start() called twice");
        self.current_slot = 1;
        let empty = self.predict_empty(self.current_slot);
        DlBeacon::new(DlCmd::nack().with_empty(empty))
    }

    /// Closes the current slot with its observation and issues the beacon
    /// that opens the next slot.
    pub fn end_slot(&mut self, obs: SlotObservation) -> DlBeacon {
        assert!(self.current_slot > 0, "end_slot() before start()");
        if self.pending_reset {
            return self.issue_reset();
        }
        let slot = self.current_slot;

        // Classify the slot.
        let outcome = if obs.collision {
            SlotOutcome::Collision
        } else if let Some(tid) = obs.decoded {
            SlotOutcome::Received(tid)
        } else {
            SlotOutcome::Empty
        };

        // Feedback, possibly overridden by future-collision avoidance.
        let mut ack = matches!(outcome, SlotOutcome::Received(_));
        if let SlotOutcome::Received(tid) = outcome {
            if self.config.future_collision_avoidance {
                ack = self.admit(tid, slot);
            } else {
                self.record_reception(tid, slot);
            }
        }

        self.track_expected_transmissions(slot, outcome);

        self.history.push(outcome);
        debug_assert_eq!(self.history_base + self.history.len() as u64, slot);
        if self.history.len() >= 2 * HISTORY_WINDOW {
            // Drop the oldest half in one amortized move so soak runs stay
            // in bounded memory.
            self.history.drain(..HISTORY_WINDOW);
            self.history_base += HISTORY_WINDOW as u64;
        }
        self.current_slot += 1;
        let empty = self.predict_empty(self.current_slot);
        let cmd = DlCmd {
            ack,
            empty,
            reset: false,
            reserved: false,
        };
        DlBeacon::new(cmd)
    }

    fn issue_reset(&mut self) -> DlBeacon {
        self.pending_reset = false;
        self.seen.clear();
        self.history.clear();
        self.history_base = 0;
        self.eviction = None;
        self.current_slot = 1;
        // Everyone in the registry is expected to re-contend at once.
        self.cohort = self.registry.keys().copied().collect();
        DlBeacon::new(DlCmd::reset())
    }

    fn record_reception(&mut self, tid: u8, slot: u64) {
        let Some(&period) = self.registry.get(&tid) else {
            return; // unknown tag: tracked nowhere, ACKed normally
        };
        let offset = (slot % u64::from(period.get())) as u32;
        self.seen.insert(
            tid,
            TagView {
                period,
                offset,
                last_rx_slot: slot,
                miss_run: 0,
            },
        );
    }

    /// Updates per-tag miss runs for slot `slot` and evicts stale schedules.
    ///
    /// Every seen tag whose inferred schedule fires in this slot was
    /// *expected* to transmit. A clean reception from that tag clears its
    /// run; an empty slot or a clean reception from somebody else counts a
    /// miss; a collision is ambiguous (the tag may be one of the colliders)
    /// and leaves the run untouched. [`MISS_EVICTION_THRESHOLD`] consecutive
    /// misses drop the tag from `seen` so its stale schedule stops gating
    /// [`ReaderMac::predict_empty`].
    fn track_expected_transmissions(&mut self, slot: u64, outcome: SlotOutcome) {
        let mut stale: Vec<u8> = Vec::new();
        for (&tid, view) in self.seen.iter_mut() {
            if slot % u64::from(view.period.get()) != u64::from(view.offset) {
                continue;
            }
            match outcome {
                SlotOutcome::Received(rx) if rx == tid => view.miss_run = 0,
                SlotOutcome::Collision => {}
                _ => {
                    view.miss_run = view.miss_run.saturating_add(1);
                    if view.miss_run >= MISS_EVICTION_THRESHOLD {
                        stale.push(tid);
                    }
                }
            }
        }
        for tid in stale {
            self.seen.remove(&tid);
            // No slot number in the text: repeat evictions of a tag are then
            // one message, which the stderr sink prints once and counts.
            warn!(
                "reader: tag {tid} missed {MISS_EVICTION_THRESHOLD} expected transmissions; \
                 evicting its stale schedule"
            );
            if self.eviction.is_some_and(|ev| ev.victim_tid == tid) {
                // The planned victim vanished; re-plan around the survivors.
                self.refresh_eviction();
            }
        }
    }

    /// Admission control for a clean reception: returns whether to ACK.
    fn admit(&mut self, tid: u8, slot: u64) -> bool {
        let Some(&period) = self.registry.get(&tid) else {
            return true; // not in registry: no prediction possible
        };
        let offset = (slot % u64::from(period.get())) as u32;

        // Active eviction: NACK the victim while it still uses its old slot,
        // and keep NACKing the new tag until a viable offset exists for it.
        if let Some(ev) = self.eviction {
            if tid == ev.victim_tid && offset == ev.victim_offset {
                return false; // force the victim to migrate
            }
            if tid == ev.victim_tid {
                // Victim migrated somewhere new: accept it there and end the
                // pressure on it (the new tag may now fit).
                self.record_reception(tid, slot);
                self.refresh_eviction();
                return true;
            }
            if tid == ev.new_tid {
                let others = self.schedules_excluding(tid);
                if viable_offset(period, &others).is_none() {
                    return false; // still no room
                }
                // Room appeared: does the new tag's *current* position work?
                let cand = Schedule::new(period, offset).unwrap();
                let ok = others.iter().all(|s| !cand.conflicts_with(s));
                if ok {
                    self.record_reception(tid, slot);
                    self.eviction = None;
                    return true;
                }
                return false;
            }
        }

        let is_new = !self.seen.contains_key(&tid) && !self.cohort.contains(&tid);
        let others = self.schedules_excluding(tid);
        if is_new {
            if viable_offset(period, &others).is_none() {
                // Sec. 5.6: no viable option — NACK the newcomer and evict a
                // settled tag from a low-traffic slot.
                self.plan_eviction(tid);
                return false;
            }
            // Viable options exist, but is *this* one of them?
            let cand = Schedule::new(period, offset).unwrap();
            if others.iter().any(|s| cand.conflicts_with(s)) {
                // The newcomer picked a slot that will collide with an
                // existing (longer-period) tag in the future. The reader can
                // see this even though the present slot was clean.
                return false;
            }
        }
        self.record_reception(tid, slot);
        true
    }

    /// Schedules of every seen tag except `except`.
    fn schedules_excluding(&self, except: u8) -> Vec<Schedule> {
        self.seen
            .iter()
            .filter(|(&t, _)| t != except)
            .map(|(_, v)| Schedule::new(v.period, v.offset).expect("stored offsets are valid"))
            .collect()
    }

    /// Chooses an eviction victim for `new_tid`: among seen tags whose
    /// removal makes the newcomer viable, prefer the lowest-rate tag
    /// (largest period — the "less crowded slot"), tie-break on lowest TID.
    fn plan_eviction(&mut self, new_tid: u8) {
        let Some(&new_period) = self.registry.get(&new_tid) else {
            return;
        };
        let mut best: Option<(u32, u8, u32)> = None; // (period, tid, offset)
        for (&tid, view) in &self.seen {
            if tid == new_tid {
                continue;
            }
            // Would removing this candidate victim make the newcomer viable?
            let without: Vec<Schedule> = self
                .seen
                .iter()
                .filter(|(&t, _)| t != tid && t != new_tid)
                .map(|(_, v)| Schedule::new(v.period, v.offset).unwrap())
                .collect();
            if viable_offset(new_period, &without).is_some() {
                let key = (view.period.get(), tid, view.offset);
                let better = match best {
                    None => true,
                    Some((bp, bt, _)) => key.0 > bp || (key.0 == bp && key.1 < bt),
                };
                if better {
                    best = Some(key);
                }
            }
        }
        if let Some((_, victim_tid, victim_offset)) = best {
            self.eviction = Some(Eviction {
                new_tid,
                victim_tid,
                victim_offset,
            });
        }
    }

    /// After the victim moved, check whether the pending newcomer now has a
    /// viable offset; if so the eviction plan has served its purpose. If
    /// the victim merely moved to another blocking position, plan a fresh
    /// eviction (possibly the same tag at its new offset) — otherwise the
    /// stale plan would never NACK anyone again and the newcomer would be
    /// locked out forever.
    fn refresh_eviction(&mut self) {
        let Some(ev) = self.eviction else { return };
        let Some(&p) = self.registry.get(&ev.new_tid) else {
            self.eviction = None;
            return;
        };
        let others = self.schedules_excluding(ev.new_tid);
        if viable_offset(p, &others).is_some() {
            self.eviction = None;
        } else {
            self.eviction = None;
            self.plan_eviction(ev.new_tid);
        }
    }

    /// The EMPTY predictor (Eq. 4, sharpened with the reader's knowledge).
    ///
    /// The paper's formula checks "no packet received in slot `s − p_i`"
    /// for each appearing tag — but applied literally, a period-4 tag's
    /// packets also poison the period-2 look-back, and with several fast
    /// periods in the registry *every* slot can end up flagged occupied,
    /// permanently gating new arrivals. The reader decodes TIDs and knows
    /// each tag's period, so it can do strictly better: a slot is predicted
    /// occupied iff some *heard* tag's inferred schedule
    /// (`s ≡ offset_j (mod p_j)`) fires in it.
    fn predict_empty(&self, slot: u64) -> bool {
        !self
            .seen
            .values()
            .any(|v| slot % u64::from(v.period.get()) == u64::from(v.offset))
    }

    /// Outcome of a past slot (1-based), if still inside the retained
    /// history window. The index is computed relative to `history_base`,
    /// so it stays a small number even at `u64` slot counts (no 32-bit
    /// `usize` truncation on long-horizon soaks).
    pub fn outcome_at(&self, slot: u64) -> Option<SlotOutcome> {
        if slot == 0 || slot <= self.history_base {
            return None;
        }
        let idx = usize::try_from(slot - 1 - self.history_base).ok()?;
        self.history.get(idx).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Period {
        Period::new(v).unwrap()
    }

    fn reader(registry: &[(u8, u32)]) -> ReaderMac {
        let reg: Vec<(u8, Period)> = registry.iter().map(|&(t, v)| (t, p(v))).collect();
        ReaderMac::new(ProtocolConfig::default(), &reg)
    }

    #[test]
    fn start_opens_slot_one() {
        let mut r = reader(&[(1, 4)]);
        let b = r.start();
        assert_eq!(r.current_slot(), 1);
        assert!(!b.cmd.ack);
        assert!(b.cmd.empty, "no history: everything predicted empty");
    }

    #[test]
    fn clean_reception_is_acked() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        let b = r.end_slot(SlotObservation::received(1));
        assert!(b.cmd.ack);
    }

    #[test]
    fn collision_overrides_capture() {
        // Sec. 5.3: even a decodable packet is NACKed if clustering saw >1
        // transmitter.
        let mut r = reader(&[(1, 4), (2, 4)]);
        r.start();
        let b = r.end_slot(SlotObservation::collision(Some(1)));
        assert!(!b.cmd.ack);
        assert_eq!(r.outcome_at(1), Some(SlotOutcome::Collision));
    }

    #[test]
    fn empty_slot_is_nacked_harmlessly() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        let b = r.end_slot(SlotObservation::empty());
        assert!(!b.cmd.ack);
        assert_eq!(r.outcome_at(1), Some(SlotOutcome::Empty));
    }

    #[test]
    fn empty_flag_tracks_periodic_occupancy() {
        // Tag 1, period 4, received in slots 2 and 6 ⇒ Eq. 4 predicts slots
        // 6 and 10 occupied (look-back of exactly one period from actual
        // receptions); everything else empty.
        let mut r = reader(&[(1, 4)]);
        r.start(); // slot 1 open
        let mut empties = Vec::new();
        for s in 1..=9u64 {
            let obs = if s == 2 || s == 6 {
                SlotObservation::received(1)
            } else {
                SlotObservation::empty()
            };
            let b = r.end_slot(obs);
            // b opens slot s+1.
            empties.push((s + 1, b.cmd.empty));
        }
        for (slot, empty) in empties {
            let expect_occupied = slot == 6 || slot == 10;
            assert_eq!(empty, !expect_occupied, "slot {slot}");
        }
    }

    #[test]
    fn empty_flag_considers_all_known_periods() {
        let mut r = reader(&[(1, 2), (2, 8)]);
        r.start();
        // Tag 2 (p=8) received in slot 1.
        r.end_slot(SlotObservation::received(2)); // opens 2
        for _ in 2..=8 {
            r.end_slot(SlotObservation::empty());
        }
        // We are now opening slot 9 = 1 + 8 → predicted occupied via p=8.
        // Verify through the last beacon by replaying: slot 9 look-back hits
        // slot 1 (p=8) which was Received, and slot 7 (p=2) which was empty.
        // (The beacon for slot 9 was returned by the last end_slot call.)
        // Re-derive via the public API:
        assert_eq!(r.current_slot(), 9);
        assert_eq!(r.outcome_at(1), Some(SlotOutcome::Received(2)));
        // Direct prediction check:
        assert!(!r.predict_empty(9));
        assert!(r.predict_empty(8));
    }

    #[test]
    fn collision_slots_do_not_mark_occupancy() {
        // Eq. 4 keys on "no packet received" — a collision means nothing was
        // received, so the predictor treats it as free.
        let mut r = reader(&[(1, 4)]);
        r.start();
        r.end_slot(SlotObservation::collision(None)); // slot 1
        for _ in 0..3 {
            r.end_slot(SlotObservation::empty());
        }
        assert!(r.predict_empty(5));
    }

    #[test]
    fn reset_clears_state_and_restarts_slots() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        r.end_slot(SlotObservation::received(1));
        r.queue_reset();
        let b = r.end_slot(SlotObservation::empty());
        assert!(b.cmd.reset);
        assert_eq!(r.current_slot(), 1);
        assert!(r.history().is_empty());
    }

    #[test]
    fn future_collision_newcomer_is_nacked_when_unviable() {
        // Paper's Sec. 5.6 example: tags 1 and 2 (p=4) settled at offsets 2
        // and 3; tag 3 (p=2) cannot fit anywhere.
        let mut r = reader(&[(1, 4), (2, 4), (3, 2)]);
        r.start(); // slot 1
                   // Establish tag 1 at offset 2 (slot 2) and tag 2 at offset 3 (slot 3).
        r.end_slot(SlotObservation::empty()); // slot 1 done, open 2
        let b = r.end_slot(SlotObservation::received(1)); // slot 2
        assert!(b.cmd.ack);
        let b = r.end_slot(SlotObservation::received(2)); // slot 3
        assert!(b.cmd.ack);
        // Tag 3 transmits in slot 4 (offset 0 mod 2), clean — but unviable.
        let b = r.end_slot(SlotObservation::received(3));
        assert!(!b.cmd.ack, "newcomer must be NACKed despite clean decode");
        assert!(r.evicting());
    }

    #[test]
    fn future_collision_evicts_victim_until_it_moves() {
        let mut r = reader(&[(1, 4), (2, 4), (3, 2)]);
        r.start();
        r.end_slot(SlotObservation::empty()); // slot 1
        r.end_slot(SlotObservation::received(1)); // slot 2: tag1 offset 2
        r.end_slot(SlotObservation::received(2)); // slot 3: tag2 offset 3
        r.end_slot(SlotObservation::received(3)); // slot 4: newcomer NACKed
        assert!(r.evicting());
        // Victim should be tag 1 (same period as tag 2, lower TID).
        // Tag 1 transmits again at its old offset (slot 6): NACK.
        r.end_slot(SlotObservation::empty()); // slot 5
        let b = r.end_slot(SlotObservation::received(1)); // slot 6 = offset 2
        assert!(!b.cmd.ack, "victim at old offset must be NACKed");
        // Tag 1 migrates to offset 1 (slot 9): ACKed, eviction may end once
        // the newcomer fits. After tag1 moves to offset 1, tag3 (p=2) needs
        // an offset o with o != 1 mod 2 and o != 3 mod 2 → both odd → still
        // unviable! Offsets mod 2: tag1@1, tag2@3 → both 1 → viable offset 0.
        r.end_slot(SlotObservation::empty()); // slot 7
        r.end_slot(SlotObservation::empty()); // slot 8
        let b = r.end_slot(SlotObservation::received(1)); // slot 9 → offset 1
        assert!(
            b.cmd.ack,
            "migrated victim must be accepted at a new offset"
        );
        assert!(!r.evicting(), "newcomer now viable (offset 0 mod 2)");
        // Tag 3 retries at an even slot (offset 0): ACK.
        let b = r.end_slot(SlotObservation::received(3)); // slot 10, 10%2=0
        assert!(b.cmd.ack);
    }

    #[test]
    fn newcomer_with_viable_but_conflicting_choice_is_nacked() {
        // Tag 1 (p=4) at offset 2. Newcomer tag 2 (p=4) transmits at slot 6
        // → offset 2: clean *now*? No — same offset means they'd collide in
        // the same slots; the observation itself would be a collision. Use
        // p=8 newcomer at offset 2 (slot 10): clean in slot 10 only if tag 1
        // is silent there — but 10 % 4 = 2 is tag 1's slot, so a clean
        // observation can only happen if tag 1 missed a beacon. The reader
        // still predicts the future conflict and NACKs.
        let mut r = reader(&[(1, 4), (2, 8)]);
        r.start();
        r.end_slot(SlotObservation::empty()); // 1
        r.end_slot(SlotObservation::received(1)); // 2: tag1 offset 2
        for _ in 3..=9 {
            r.end_slot(SlotObservation::empty());
        }
        let b = r.end_slot(SlotObservation::received(2)); // slot 10, offset 2 (mod 8)
        assert!(!b.cmd.ack, "conflicting future schedule must be NACKed");
    }

    #[test]
    fn avoidance_disabled_acks_everything_clean() {
        let mut r = ReaderMac::new(
            ProtocolConfig {
                future_collision_avoidance: false,
                ..ProtocolConfig::default()
            },
            &[(1, p(4)), (2, p(4)), (3, p(2))],
        );
        r.start();
        r.end_slot(SlotObservation::empty());
        r.end_slot(SlotObservation::received(1));
        r.end_slot(SlotObservation::received(2));
        let b = r.end_slot(SlotObservation::received(3));
        assert!(b.cmd.ack, "without Sec. 5.6 the newcomer is blindly ACKed");
    }

    #[test]
    fn unknown_tid_is_acked_without_tracking() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        let b = r.end_slot(SlotObservation::received(9));
        assert!(b.cmd.ack);
        assert!(!r.evicting());
    }

    #[test]
    fn departed_tag_is_evicted_and_its_slot_recovers() {
        // Join → leave → rejoin → leave. Pre-fix, `seen` never evicted, so
        // the departed tag's schedule kept `predict_empty` false for its
        // slots forever and the EMPTY gate blocked any re-arrival there.
        let (_, warns) = arachnet_obs::capture(|| {
            let mut r = reader(&[(1, 4)]);
            r.start();
            r.end_slot(SlotObservation::empty()); // slot 1
            r.end_slot(SlotObservation::received(1)); // slot 2 → offset 2
            assert!(!r.predict_empty(6), "live schedule gates its slot");
            // Tag 1 departs; its expected slots 6, 10 and 14 all go empty.
            for _ in 3..=14 {
                r.end_slot(SlotObservation::empty());
            }
            assert!(
                r.predict_empty(18),
                "stale schedule must be evicted so a re-arrival can claim the slot"
            );
            // The tag rejoins at the same offset: clean ACK, re-tracked.
            for _ in 15..=17 {
                r.end_slot(SlotObservation::empty());
            }
            let b = r.end_slot(SlotObservation::received(1)); // slot 18 → offset 2
            assert!(b.cmd.ack, "rejoining tag must be re-admitted");
            assert!(!r.predict_empty(22), "rejoined schedule gates again");
            // It departs again: slots 22, 26 and 30 go empty, so the same
            // tag is evicted a second time, at a later slot.
            for _ in 19..=30 {
                r.end_slot(SlotObservation::empty());
            }
            assert!(r.predict_empty(34), "second departure is evicted too");
        });
        // Other tests' warnings may land in the capture window; keep ours.
        let evictions: Vec<&String> = warns
            .iter()
            .filter(|w| w.contains("tag 1 ") && w.contains("evicting"))
            .collect();
        assert!(
            evictions.len() >= 2,
            "each eviction must emit an obs warn: {warns:?}"
        );
        // Equal text lets the stderr dedup collapse repeats to one line.
        assert_eq!(evictions[0], evictions[1]);
    }

    #[test]
    fn collisions_do_not_advance_the_miss_run() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        r.end_slot(SlotObservation::empty()); // slot 1
        r.end_slot(SlotObservation::received(1)); // slot 2 → offset 2
        // Collisions in every expected slot are ambiguous: the tag may be
        // among the colliders, so its schedule must survive indefinitely.
        for s in 3..=30u64 {
            let obs = if s % 4 == 2 {
                SlotObservation::collision(None)
            } else {
                SlotObservation::empty()
            };
            r.end_slot(obs);
        }
        assert!(!r.predict_empty(34), "colliding tag is still tracked");
    }

    #[test]
    fn history_window_stays_bounded_on_long_horizons() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        let total = 2 * HISTORY_WINDOW as u64 + 10;
        for _ in 0..total {
            r.end_slot(SlotObservation::empty());
        }
        assert!(
            r.history().len() < 2 * HISTORY_WINDOW,
            "history must stay bounded, got {}",
            r.history().len()
        );
        assert_eq!(r.history_base(), HISTORY_WINDOW as u64);
        assert_eq!(r.outcome_at(1), None, "evicted slots answer None");
        assert_eq!(r.outcome_at(total), Some(SlotOutcome::Empty));
        assert_eq!(r.outcome_at(total + 5), None, "future slots answer None");
    }

    #[test]
    fn outcome_at_bounds() {
        let mut r = reader(&[(1, 4)]);
        r.start();
        r.end_slot(SlotObservation::empty());
        assert_eq!(r.outcome_at(0), None);
        assert_eq!(r.outcome_at(1), Some(SlotOutcome::Empty));
        assert_eq!(r.outcome_at(2), None);
    }
}
