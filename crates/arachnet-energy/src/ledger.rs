//! Per-mode power accounting (Table 2), derived from the interrupt-driven
//! architecture of Sec. 4.3.
//!
//! Table 2 reports, at a 2.0 V supply:
//!
//! | mode | MCU µA | total µA | power µW |
//! |------|-------:|---------:|---------:|
//! | RX   |    6.4 |     12.4 |     24.8 |
//! | TX   |    4.7 |     25.5 |     51.0 |
//! | IDLE |    0.6 |      3.8 |      7.6 |
//!
//! These are not magic constants here — they fall out of a duty-cycle
//! model: the MSP430 draws ~45 µA active and ~0.55 µA in LPM3; RX wakes
//! twice per PIE symbol for an 8-cycle edge ISR at 250 bps, TX wakes once
//! per raw bit for a 3-cycle pin-set ISR at 375 bps, and each mode adds its
//! analog overhead (envelope detector + comparator for RX, MOSFET gate
//! charge for TX, the cutoff divider always).

/// MCU active-mode current (A) — MSP430G2553 at 2 V, ~40–50 µA per the
/// paper.
pub const MCU_ACTIVE_A: f64 = 45.0e-6;
/// MCU LPM3 sleep current (A).
pub const MCU_SLEEP_A: f64 = 0.55e-6;
/// MCU clock (Hz). Equal to `arachnet_core::rates::MCU_CLOCK_HZ`: this
/// crate depends on no other, so it keeps a copy, and a unit test in
/// `arachnet-tag`, which sees both, asserts the two agree.
pub const MCU_CLOCK_HZ: f64 = 12_000.0;
/// Nominal supply voltage for the power figures (V).
pub const SUPPLY_V: f64 = 2.0;

/// Cycles spent in the DL edge ISR (timer reset / timer read + decode).
pub const RX_ISR_CYCLES: f64 = 8.0;
/// Cycles spent in the UL timer ISR (set output pin from packet buffer).
pub const TX_ISR_CYCLES: f64 = 3.0;

/// Envelope detector + comparator supply current during RX (A).
pub const RX_ANALOG_A: f64 = 2.8e-6;
/// Cutoff divider + comparator quiescent current, always present (A).
pub const QUIESCENT_A: f64 = 3.2e-6;
/// Effective MOSFET gate charge per toggle (C). Dominates TX cost via
/// `I = Q_g · f_toggle` ("frequent toggling of the MOSFET … draws notable
/// power through the MCU pin").
pub const GATE_CHARGE_C: f64 = 46.9e-9;

/// Operating mode of the tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerMode {
    /// Receiving/decoding DL beacons (edge interrupts).
    Rx {
        /// DL raw bit rate (bps).
        dl_bps: f64,
    },
    /// Backscattering an UL packet (timer interrupts + MOSFET).
    Tx {
        /// UL raw bit rate (bps).
        ul_bps: f64,
    },
    /// Deep sleep between duties.
    Idle,
}

impl PowerMode {
    /// The paper's default RX mode (250 bps DL, a copy of
    /// `arachnet_core::rates::DEFAULT_DL_BPS`; see [`MCU_CLOCK_HZ`]).
    pub fn rx_default() -> Self {
        PowerMode::Rx { dl_bps: 250.0 }
    }

    /// The paper's default TX mode (375 bps UL, a copy of
    /// `arachnet_core::rates::DEFAULT_UL_BPS`; see [`MCU_CLOCK_HZ`]).
    pub fn tx_default() -> Self {
        PowerMode::Tx { ul_bps: 375.0 }
    }

    /// Average MCU current in this mode (A).
    pub fn mcu_current(&self) -> f64 {
        match *self {
            PowerMode::Rx { dl_bps } => {
                // PIE symbols average 2.5 raw bits; each symbol costs two
                // edge ISRs (rising + falling).
                let symbols_per_s = dl_bps / 2.5;
                let isr_s = RX_ISR_CYCLES / MCU_CLOCK_HZ;
                let duty = (2.0 * symbols_per_s * isr_s).min(1.0);
                MCU_ACTIVE_A * duty + MCU_SLEEP_A * (1.0 - duty)
            }
            PowerMode::Tx { ul_bps } => {
                let isr_s = TX_ISR_CYCLES / MCU_CLOCK_HZ;
                let duty = (ul_bps * isr_s).min(1.0);
                MCU_ACTIVE_A * duty + MCU_SLEEP_A * (1.0 - duty)
            }
            PowerMode::Idle => MCU_SLEEP_A,
        }
    }

    /// Average peripheral (non-MCU) current in this mode (A).
    pub fn peripheral_current(&self) -> f64 {
        match *self {
            PowerMode::Rx { .. } => QUIESCENT_A + RX_ANALOG_A,
            PowerMode::Tx { ul_bps } => {
                // FM0 toggles the reflection switch up to once per raw bit.
                QUIESCENT_A + GATE_CHARGE_C * ul_bps
            }
            PowerMode::Idle => QUIESCENT_A,
        }
    }

    /// Total tag current (A).
    pub fn total_current(&self) -> f64 {
        self.mcu_current() + self.peripheral_current()
    }

    /// Total tag power at the nominal 2.0 V supply (W).
    pub fn power(&self) -> f64 {
        self.total_current() * SUPPLY_V
    }
}

/// Accumulates energy use across mode intervals — the per-slot accounting
/// the network simulator charges against the supercapacitor.
#[derive(Debug, Clone, Default)]
pub struct PowerLedger {
    energy_j: f64,
    time_s: f64,
    rx_s: f64,
    tx_s: f64,
}

impl PowerLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `dt` seconds spent in `mode`.
    pub fn spend(&mut self, mode: PowerMode, dt: f64) {
        assert!(dt >= 0.0);
        self.energy_j += mode.power() * dt;
        self.time_s += dt;
        match mode {
            PowerMode::Rx { .. } => self.rx_s += dt,
            PowerMode::Tx { .. } => self.tx_s += dt,
            PowerMode::Idle => {}
        }
    }

    /// Total energy consumed (J).
    pub fn energy(&self) -> f64 {
        self.energy_j
    }

    /// Total time accounted (s).
    pub fn time(&self) -> f64 {
        self.time_s
    }

    /// Fraction of accounted time spent in RX or TX — the harvester duty
    /// cycle the paper's energy section keys on. 0.0 for an empty ledger.
    pub fn active_duty(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            (self.rx_s + self.tx_s) / self.time_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UA: f64 = 1e-6;
    const UW: f64 = 1e-6;

    #[test]
    fn table2_rx_row() {
        let m = PowerMode::rx_default();
        assert!(
            (m.mcu_current() / UA - 6.4).abs() < 0.4,
            "MCU {:.2} µA",
            m.mcu_current() / UA
        );
        assert!(
            (m.total_current() / UA - 12.4).abs() < 0.8,
            "total {:.2} µA",
            m.total_current() / UA
        );
        assert!(
            (m.power() / UW - 24.8).abs() < 1.6,
            "power {:.1} µW",
            m.power() / UW
        );
    }

    #[test]
    fn table2_tx_row() {
        let m = PowerMode::tx_default();
        assert!(
            (m.mcu_current() / UA - 4.7).abs() < 0.4,
            "MCU {:.2} µA",
            m.mcu_current() / UA
        );
        assert!(
            (m.total_current() / UA - 25.5).abs() < 1.5,
            "total {:.2} µA",
            m.total_current() / UA
        );
        assert!(
            (m.power() / UW - 51.0).abs() < 3.0,
            "power {:.1} µW",
            m.power() / UW
        );
    }

    #[test]
    fn table2_idle_row() {
        let m = PowerMode::Idle;
        assert!(
            (m.mcu_current() / UA - 0.6).abs() < 0.1,
            "MCU {:.2} µA",
            m.mcu_current() / UA
        );
        assert!(
            (m.total_current() / UA - 3.8).abs() < 0.3,
            "total {:.2} µA",
            m.total_current() / UA
        );
        assert!(
            (m.power() / UW - 7.6).abs() < 0.6,
            "power {:.1} µW",
            m.power() / UW
        );
    }

    #[test]
    fn interrupt_design_saves_over_80_percent() {
        // Sec. 4.3: "over 80 % less than continuous active mode" — compare
        // the interrupt-driven MCU currents against always-active.
        let active = MCU_ACTIVE_A;
        for m in [PowerMode::rx_default(), PowerMode::tx_default()] {
            let saving = 1.0 - m.mcu_current() / active;
            assert!(saving > 0.8, "{m:?}: saving {saving:.2}");
        }
    }

    #[test]
    fn tx_power_dominated_by_gate_charge() {
        // "primarily due to the frequent toggling of the MOSFET".
        let m = PowerMode::tx_default();
        assert!(m.peripheral_current() > m.mcu_current() * 2.0);
    }

    #[test]
    fn faster_rates_cost_more() {
        let slow = PowerMode::Tx { ul_bps: 93.75 };
        let fast = PowerMode::Tx { ul_bps: 3_000.0 };
        assert!(fast.power() > slow.power() * 3.0);
        let rx_slow = PowerMode::Rx { dl_bps: 125.0 };
        let rx_fast = PowerMode::Rx { dl_bps: 2_000.0 };
        assert!(rx_fast.power() > rx_slow.power());
    }

    #[test]
    fn duty_cycle_saturates_at_one() {
        // Pathologically fast rates cannot exceed always-active current.
        let m = PowerMode::Rx { dl_bps: 1e9 };
        assert!(m.mcu_current() <= MCU_ACTIVE_A + 1e-12);
    }

    #[test]
    fn rx_sustainable_on_weakest_tag() {
        // Sec. 6.2: RX (24.8 µW) must stay below the minimum charging power
        // (47.1 µW); TX (51.0 µW) exceeds it, hence duty-cycled operation.
        let rx = PowerMode::rx_default().power() / UW;
        let tx = PowerMode::tx_default().power() / UW;
        assert!(rx < 47.1);
        assert!(tx > 47.1, "TX is only sustainable duty-cycled");
    }

    #[test]
    fn ledger_accumulates() {
        let mut l = PowerLedger::new();
        l.spend(PowerMode::rx_default(), 0.1);
        l.spend(PowerMode::tx_default(), 0.2);
        l.spend(PowerMode::Idle, 0.7);
        assert!((l.time() - 1.0).abs() < 1e-12);
        let expect = PowerMode::rx_default().power() * 0.1
            + PowerMode::tx_default().power() * 0.2
            + PowerMode::Idle.power() * 0.7;
        assert!((l.energy() - expect).abs() < 1e-15);
    }

    #[test]
    fn ledger_tracks_per_mode_time() {
        let mut l = PowerLedger::new();
        l.spend(PowerMode::rx_default(), 0.1);
        l.spend(PowerMode::tx_default(), 0.2);
        l.spend(PowerMode::Idle, 0.7);
        assert!((l.active_duty() - 0.3).abs() < 1e-12);
        assert_eq!(PowerLedger::new().active_duty(), 0.0);
    }

    #[test]
    fn slot_cycle_energy_is_sustainable() {
        // One slot of the default protocol: ~0.12 s RX (beacon), ~0.19 s TX
        // (packet, worst case every slot), rest idle. Average power must be
        // below even the weakest tag's 47.1 µW charging power… with room to
        // duty-cycle TX at realistic periods.
        let mut l = PowerLedger::new();
        l.spend(PowerMode::rx_default(), 0.12);
        l.spend(PowerMode::Tx { ul_bps: 375.0 }, 0.19);
        l.spend(PowerMode::Idle, 0.69);
        let avg = l.energy() / l.time() / UW;
        assert!(avg < 47.1, "per-slot average {avg:.1} µW");
    }
}
