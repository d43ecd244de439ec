//! The slot-level tag device: MAC + energy lifecycle.
//!
//! [`TagDevice`] is what the network simulator schedules: a battery-free
//! node that spends most of its life charging, boots through the
//! low-voltage cutoff, participates in the slot-allocation protocol while
//! its supercapacitor lasts, and browns out (and later re-arrives as a
//! "late tag", Sec. 5.5) if consumption outpaces harvest.
//!
//! Per slot the device:
//!
//! 1. pays the RX cost of the beacon (every DL bit wakes every tag —
//!    Sec. 4.2's motivation for the 10-bit beacon);
//! 2. runs the MAC state machine on the beacon (or the beacon-loss path);
//! 3. pays the TX cost if the MAC transmits;
//! 4. idles the rest of the slot, harvesting throughout.

use arachnet_core::mac::{ProtocolConfig, TagAction, TagMac};
use arachnet_core::packet::DlCmd;
use arachnet_core::rates::{ul_reply_s, DEFAULT_DL_BPS, DEFAULT_UL_BPS, SLOT_DURATION_S};
use arachnet_core::rng::TagRng;
use arachnet_core::slot::Period;
use arachnet_energy::cutoff::{LowVoltageCutoff, V_HTH};
use arachnet_energy::harvester::HarvestChain;
use arachnet_energy::ledger::{PowerLedger, PowerMode};
use arachnet_energy::storage::SuperCap;

/// Timing parameters of one slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotTiming {
    /// Slot duration (s). Paper default: 1 s.
    pub slot_s: f64,
    /// Beacon on-air time (s) — RX cost window.
    pub beacon_s: f64,
    /// UL packet on-air time (s) — TX cost window.
    pub packet_s: f64,
    /// DL raw bit rate (bps) for the RX power model.
    pub dl_bps: f64,
    /// UL raw bit rate (bps) for the TX power model.
    pub ul_bps: f64,
}

impl Default for SlotTiming {
    fn default() -> Self {
        // Beacon: 10 bits PIE at 250 bps ≈ 0.1 s; packet: 64 raw bits at
        // 375 bps ≈ 0.171 s + 20 ms guard.
        Self {
            slot_s: SLOT_DURATION_S,
            beacon_s: 0.1,
            packet_s: ul_reply_s(DEFAULT_UL_BPS),
            dl_bps: DEFAULT_DL_BPS,
            ul_bps: DEFAULT_UL_BPS,
        }
    }
}

/// Power/lifecycle state of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Below the cutoff: charging, MCU unpowered.
    Dormant,
    /// MCU powered and participating in the network.
    Active,
}

/// What the device did in a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotReport {
    /// Whether the device transmitted an uplink packet.
    pub transmitted: bool,
    /// Whether the device was active (powered) during the slot.
    pub active: bool,
    /// Whether the device browned out during this slot.
    pub browned_out: bool,
    /// Whether the device became active during this slot.
    pub activated: bool,
}

/// A battery-free tag at slot granularity.
#[derive(Debug, Clone)]
pub struct TagDevice {
    tid: u8,
    /// PZT carrier voltage at this tag's site (V) — from `biw-channel`.
    vp: f64,
    chain: HarvestChain,
    cap: SuperCap,
    cutoff: LowVoltageCutoff,
    mac: TagMac,
    timing: SlotTiming,
    ledger: PowerLedger,
    lifecycle: Lifecycle,
    brownouts: u64,
    activations: u64,
}

impl TagDevice {
    /// Creates a fully discharged device.
    pub fn new(
        tid: u8,
        period: Period,
        vp: f64,
        protocol: ProtocolConfig,
        timing: SlotTiming,
        rng: TagRng,
    ) -> Self {
        Self {
            tid,
            vp,
            chain: HarvestChain::paper(),
            cap: SuperCap::default(),
            cutoff: LowVoltageCutoff::paper(),
            mac: TagMac::new(tid, period, protocol, rng),
            timing,
            ledger: PowerLedger::new(),
            lifecycle: Lifecycle::Dormant,
            brownouts: 0,
            activations: 0,
        }
    }

    /// Creates a device already charged to the activation threshold (for
    /// experiments that skip the cold-start phase).
    pub fn new_charged(
        tid: u8,
        period: Period,
        vp: f64,
        protocol: ProtocolConfig,
        timing: SlotTiming,
        rng: TagRng,
    ) -> Self {
        let mut d = Self::new(tid, period, vp, protocol, timing, rng);
        d.cap.set_voltage(V_HTH + 0.01);
        d.cutoff.update(d.cap.voltage());
        d.lifecycle = Lifecycle::Active;
        d.activations = 1;
        d
    }

    /// Tag ID.
    pub fn tid(&self) -> u8 {
        self.tid
    }

    /// MAC state machine (read access for metrics).
    pub fn mac(&self) -> &TagMac {
        &self.mac
    }

    /// Current lifecycle state.
    pub fn lifecycle(&self) -> Lifecycle {
        self.lifecycle
    }

    /// Supercapacitor voltage.
    pub fn voltage(&self) -> f64 {
        self.cap.voltage()
    }

    /// Total brownouts so far.
    pub fn brownouts(&self) -> u64 {
        self.brownouts
    }

    /// Total activations so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Energy ledger (consumption since creation).
    pub fn ledger(&self) -> &PowerLedger {
        &self.ledger
    }

    /// Harvest input voltage.
    pub fn vp(&self) -> f64 {
        self.vp
    }

    /// Force-discharges the storage cap (scenario fault injection: a
    /// brownout-death at a chosen slot). An active device browns out
    /// immediately — MAC state is lost, so it re-arrives as a "late tag"
    /// (Sec. 5.5) once the carrier recharges it.
    pub fn force_discharge(&mut self) {
        self.cap.set_voltage(0.0);
        self.brown_out_if_cut();
    }

    /// Advances one slot with the reader dark: no beacon arrives *and* the
    /// carrier is off, so the harvest chain delivers nothing
    /// (`output_current(0, ·) = 0`). Active tags burn stored energy
    /// listening for a beacon that never comes; dormant tags simply do not
    /// charge.
    pub fn on_slot_dark(&mut self) -> SlotReport {
        let vp = self.vp;
        self.vp = 0.0;
        let report = self.on_slot(None);
        self.vp = vp;
        report
    }

    /// Advances one slot. `beacon` is `Some(cmd)` if this tag successfully
    /// decoded the beacon, `None` if the beacon was lost to it. Returns
    /// what happened.
    pub fn on_slot(&mut self, beacon: Option<DlCmd>) -> SlotReport {
        match self.lifecycle {
            Lifecycle::Dormant => {
                let activated = self.charge_interval(self.timing.slot_s, 0.0);
                SlotReport {
                    transmitted: false,
                    active: false,
                    browned_out: false,
                    activated,
                }
            }
            Lifecycle::Active => self.active_slot(beacon),
        }
    }

    fn active_slot(&mut self, beacon: Option<DlCmd>) -> SlotReport {
        // 1. MAC decision.
        let action: Option<TagAction> = match beacon {
            Some(cmd) => Some(self.mac.on_beacon(cmd)),
            None => {
                self.mac.on_beacon_timeout();
                None
            }
        };
        let transmit = action.is_some_and(|a| a.transmit);

        // 2. Energy accounting across the slot's phases.
        let rx = PowerMode::Rx {
            dl_bps: self.timing.dl_bps,
        };
        let tx = PowerMode::Tx {
            ul_bps: self.timing.ul_bps,
        };
        let mut browned = false;
        browned |= self.spend_interval(rx, self.timing.beacon_s);
        let mut remaining = self.timing.slot_s - self.timing.beacon_s;
        if transmit && !browned {
            browned |= self.spend_interval(tx, self.timing.packet_s);
            remaining -= self.timing.packet_s;
        }
        if !browned && remaining > 0.0 {
            browned |= self.spend_interval(PowerMode::Idle, remaining);
        }

        SlotReport {
            // A brownout mid-slot invalidates the transmission.
            transmitted: transmit && !browned,
            active: true,
            browned_out: browned,
            activated: false,
        }
    }

    /// Spends `dt` in `mode` while harvesting; returns `true` on brownout.
    fn spend_interval(&mut self, mode: PowerMode, dt: f64) -> bool {
        self.ledger.spend(mode, dt);
        self.integrate(dt, mode.total_current());
        self.brown_out_if_cut()
    }

    /// Feeds the storage voltage to the cutoff; when it powers the tag off,
    /// the tag browns out: dormant, counted, and its MAC reset. Returns
    /// `true` on a brownout.
    fn brown_out_if_cut(&mut self) -> bool {
        if let Some(arachnet_energy::cutoff::CutoffEvent::PoweredOff) =
            self.cutoff.update(self.cap.voltage())
        {
            self.lifecycle = Lifecycle::Dormant;
            self.brownouts += 1;
            self.mac.power_on_reset();
            return true;
        }
        false
    }

    /// Charges for `dt` with an extra constant load; returns `true` if the
    /// device activated.
    fn charge_interval(&mut self, dt: f64, load: f64) -> bool {
        self.integrate(dt, load);
        if let Some(arachnet_energy::cutoff::CutoffEvent::PoweredOn) =
            self.cutoff.update(self.cap.voltage())
        {
            self.lifecycle = Lifecycle::Active;
            self.activations += 1;
            return true;
        }
        false
    }

    /// Integrates the supercap over `dt` while harvesting against a
    /// constant `load`. Coarse integration: a few sub-steps per interval
    /// are plenty at these time constants (RC ≈ 33 s).
    fn integrate(&mut self, dt: f64, load: f64) {
        let steps = 4;
        let h = dt / steps as f64;
        for _ in 0..steps {
            let i = self
                .chain
                .multiplier
                .output_current(self.vp, self.cap.voltage())
                - load;
            self.cap.step(i, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period(p: u32) -> Period {
        Period::new(p).unwrap()
    }

    #[test]
    fn energy_copies_equal_the_core_constants() {
        // arachnet-energy depends on no crate, so it keeps its own copies
        // of the clock and the default rates; this crate sees both.
        use arachnet_core::rates::MCU_CLOCK_HZ;
        assert_eq!(arachnet_energy::ledger::MCU_CLOCK_HZ, MCU_CLOCK_HZ);
        assert_eq!(
            PowerMode::rx_default(),
            PowerMode::Rx {
                dl_bps: DEFAULT_DL_BPS
            }
        );
        assert_eq!(
            PowerMode::tx_default(),
            PowerMode::Tx {
                ul_bps: DEFAULT_UL_BPS
            }
        );
    }

    fn protocol() -> ProtocolConfig {
        ProtocolConfig {
            empty_gating: false,
            ..ProtocolConfig::default()
        }
    }

    fn strong_device(tid: u8) -> TagDevice {
        TagDevice::new(
            tid,
            period(4),
            1.385,
            protocol(),
            SlotTiming::default(),
            TagRng::new(7),
        )
    }

    #[test]
    fn cold_device_is_dormant() {
        let d = strong_device(1);
        assert_eq!(d.lifecycle(), Lifecycle::Dormant);
        assert_eq!(d.voltage(), 0.0);
    }

    #[test]
    fn strong_tag_activates_within_seconds() {
        let mut d = strong_device(1);
        let mut slots = 0;
        while d.lifecycle() == Lifecycle::Dormant {
            let r = d.on_slot(Some(DlCmd::nack()));
            slots += 1;
            assert!(slots < 20, "never activated");
            if r.activated {
                break;
            }
        }
        // Paper: 4.5 s full charge for the strongest placement.
        assert!((3..=7).contains(&slots), "activated after {slots} slots");
        assert_eq!(d.activations(), 1);
    }

    #[test]
    fn weak_tag_takes_about_a_minute() {
        let mut d = TagDevice::new(
            11,
            period(8),
            0.329,
            protocol(),
            SlotTiming::default(),
            TagRng::new(3),
        );
        let mut slots = 0;
        loop {
            let r = d.on_slot(Some(DlCmd::nack()));
            slots += 1;
            if r.activated {
                break;
            }
            assert!(slots < 200, "never activated");
        }
        assert!(
            (40..=80).contains(&slots),
            "activated after {slots} slots (paper: 56.2 s)"
        );
    }

    #[test]
    fn dormant_device_never_transmits() {
        let mut d = strong_device(1);
        let r = d.on_slot(Some(DlCmd::ack()));
        assert!(!r.transmitted);
        assert!(!r.active);
    }

    #[test]
    fn active_device_follows_mac_schedule() {
        let mut d = TagDevice::new_charged(
            2,
            period(4),
            1.385,
            protocol(),
            SlotTiming::default(),
            TagRng::new(11),
        );
        // Settle the tag with ACKs first; a settled tag fires exactly once
        // per period.
        let mut transmissions = 0;
        for _ in 0..32 {
            let r = d.on_slot(Some(DlCmd::ack()));
            if r.transmitted {
                transmissions += 1;
            }
        }
        // The first fire may take up to one period to arrive; after that the
        // cadence is exact: 32 slots of period 4 → 7 or 8 transmissions.
        assert!(
            (7..=8).contains(&transmissions),
            "{transmissions} transmissions"
        );
        assert_eq!(d.mac().state(), arachnet_core::mac::MacState::Settle);
    }

    #[test]
    fn sustained_operation_on_weak_harvest() {
        // Sec. 6.2's claim: duty-cycled operation is sustainable even at
        // the minimum charging power. Run 500 slots of period-8 duty on the
        // weakest tag; it must never brown out.
        let mut d = TagDevice::new_charged(
            11,
            period(8),
            0.329,
            protocol(),
            SlotTiming::default(),
            TagRng::new(5),
        );
        for i in 0..500 {
            let r = d.on_slot(Some(DlCmd::nack()));
            assert!(!r.browned_out, "brownout at slot {i}, V={}", d.voltage());
        }
        assert_eq!(d.brownouts(), 0);
        assert!(d.voltage() >= 1.95);
    }

    /// A deliberately unsustainable configuration: period-1 transmissions
    /// at 3 kbps draw ~180 µA against a ~20 µA harvest.
    fn starving_timing() -> SlotTiming {
        SlotTiming {
            ul_bps: 3_000.0,
            packet_s: 0.4,
            ..SlotTiming::default()
        }
    }

    #[test]
    fn starvation_causes_brownout_and_reboot() {
        // A tag whose duty cycle outpaces its harvest must brown out, then
        // recharge and re-arrive.
        let mut d = TagDevice::new_charged(
            3,
            period(1),
            0.33,
            protocol(),
            starving_timing(),
            TagRng::new(13),
        );
        let mut browned = false;
        let mut reactivated = false;
        for _ in 0..5_000 {
            let r = d.on_slot(Some(DlCmd::nack()));
            if r.browned_out {
                browned = true;
            }
            if browned && r.activated {
                reactivated = true;
                break;
            }
        }
        assert!(browned, "device never browned out");
        assert!(reactivated, "device never recovered");
        assert!(d.brownouts() >= 1);
        assert!(d.activations() >= 2);
    }

    #[test]
    fn brownout_resets_mac_state() {
        let mut d = TagDevice::new_charged(
            4,
            period(1),
            0.33,
            protocol(),
            starving_timing(),
            TagRng::new(17),
        );
        // Settle the MAC first.
        for i in 0.. {
            let r = d.on_slot(Some(DlCmd::ack()));
            if d.mac().state() == arachnet_core::mac::MacState::Settle {
                break;
            }
            assert!(
                !r.browned_out && i < 100,
                "browned or stalled before settling"
            );
        }
        // Drain until brownout.
        for _ in 0..10_000 {
            if d.lifecycle() != Lifecycle::Active {
                break;
            }
            d.on_slot(Some(DlCmd::nack()));
        }
        assert_eq!(d.lifecycle(), Lifecycle::Dormant, "never browned out");
        assert_eq!(d.mac().state(), arachnet_core::mac::MacState::Migrate);
        assert!(
            !d.mac().is_integrated(),
            "rebooted tag must be a new arrival"
        );
    }

    #[test]
    fn force_discharge_browns_out_an_active_device() {
        let mut d = TagDevice::new_charged(
            7,
            period(4),
            1.385,
            protocol(),
            SlotTiming::default(),
            TagRng::new(29),
        );
        assert_eq!(d.lifecycle(), Lifecycle::Active);
        d.force_discharge();
        assert_eq!(d.lifecycle(), Lifecycle::Dormant);
        assert_eq!(d.voltage(), 0.0);
        assert_eq!(d.brownouts(), 1);
        assert!(
            !d.mac().is_integrated(),
            "a force-discharged tag must re-arrive as new"
        );
        // Idempotent on an already-dormant device: no double-counting.
        d.force_discharge();
        assert_eq!(d.brownouts(), 1);
        // The carrier is still on, so the device recharges and re-arrives.
        let mut slots = 0;
        while d.lifecycle() == Lifecycle::Dormant {
            d.on_slot(None);
            slots += 1;
            assert!(slots < 50, "never recovered from forced discharge");
        }
        assert_eq!(d.activations(), 2);
    }

    #[test]
    fn dark_slots_drain_active_tags_and_stall_dormant_ones() {
        // Active tag: a dark slot spends RX+idle energy with zero harvest.
        let mut d = strong_device(8);
        while d.lifecycle() == Lifecycle::Dormant {
            d.on_slot(Some(DlCmd::nack()));
        }
        let v0 = d.voltage();
        let r = d.on_slot_dark();
        assert!(r.active && !r.transmitted);
        assert!(d.voltage() < v0, "dark slot must not harvest");
        assert!((d.vp() - 1.385).abs() < 1e-12, "vp must be restored");

        // Dormant tag: dark slots leave the cap exactly where it was.
        let mut cold = strong_device(9);
        for _ in 0..10 {
            let r = cold.on_slot_dark();
            assert!(!r.active && !r.activated);
        }
        assert_eq!(cold.voltage(), 0.0);
        // With the carrier back, activation proceeds as normal.
        let mut slots = 0;
        while cold.lifecycle() == Lifecycle::Dormant {
            cold.on_slot(Some(DlCmd::nack()));
            slots += 1;
            assert!(slots < 20);
        }
    }

    #[test]
    fn beacon_loss_freezes_local_slot() {
        let mut d = TagDevice::new_charged(
            5,
            period(4),
            1.385,
            protocol(),
            SlotTiming::default(),
            TagRng::new(19),
        );
        d.on_slot(Some(DlCmd::nack()));
        let s = d.mac().local_slot();
        d.on_slot(None); // lost beacon
        assert_eq!(d.mac().local_slot(), s);
        d.on_slot(Some(DlCmd::nack()));
        assert_eq!(d.mac().local_slot(), s + 1);
    }

    #[test]
    fn ledger_accumulates_slot_time() {
        let mut d = TagDevice::new_charged(
            6,
            period(4),
            1.385,
            protocol(),
            SlotTiming::default(),
            TagRng::new(23),
        );
        for _ in 0..10 {
            d.on_slot(Some(DlCmd::nack()));
        }
        assert!((d.ledger().time() - 10.0).abs() < 1e-9);
        assert!(d.ledger().energy() > 0.0);
    }
}
