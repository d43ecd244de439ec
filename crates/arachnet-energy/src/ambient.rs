//! Ambient-vibration harvesting — the paper's future-work extension.
//!
//! Sec. 2.2: "These self-vibrations can, however, serve as an auxiliary
//! energy source. While our current design relies on reader-transmitted
//! vibrations …, harvesting ambient vibrations remains a promising
//! enhancement for future work."
//!
//! The vehicle's own vibration sits below 0.1 kHz — far off the PZT's
//! 90 kHz resonance, so conversion is poor but the excitation is large
//! (road + powertrain inputs reach mm-scale displacements vs the reader's
//! µm-scale ultrasonic field). This module models the auxiliary source as
//! a rectified low-frequency harvester feeding the same supercapacitor
//! through its own (single-stage) rectifier, and quantifies what it buys:
//! faster charging while driving, and idle-mode survival without the
//! reader.

use crate::harvester::HarvestChain;

/// Driving conditions for the ambient source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DrivingState {
    /// Vehicle parked, systems off: no ambient input.
    Parked,
    /// Idling: powertrain vibration only.
    Idle,
    /// City driving: road + powertrain.
    City,
    /// Highway: broadband, strongest excitation.
    Highway,
}

/// An ambient (sub-100 Hz) vibration harvester bonded next to the tag PZT.
#[derive(Debug, Clone, Copy)]
pub struct AmbientHarvester {
    /// Open-circuit voltage under highway excitation (V). Low-frequency
    /// strain coupling is weak: ~1 V-scale peaks despite large excitation.
    pub v_peak_highway: f64,
    /// Source resistance of the low-frequency rectifier (Ω). Much higher
    /// than the pump's — the source impedance of a PZT at 30 Hz is large.
    pub source_ohm: f64,
    /// Rectifier diode drop (V).
    pub diode_drop: f64,
}

impl Default for AmbientHarvester {
    fn default() -> Self {
        Self {
            v_peak_highway: 4.2,
            source_ohm: 150_000.0,
            diode_drop: 0.15,
        }
    }
}

impl AmbientHarvester {
    /// Excitation scale factor for a driving state.
    pub fn excitation(state: DrivingState) -> f64 {
        match state {
            DrivingState::Parked => 0.0,
            DrivingState::Idle => 0.25,
            DrivingState::City => 0.6,
            DrivingState::Highway => 1.0,
        }
    }

    /// Open-circuit rectified voltage in a driving state.
    pub fn open_circuit_voltage(&self, state: DrivingState) -> f64 {
        (self.v_peak_highway * Self::excitation(state) - self.diode_drop).max(0.0)
    }

    /// Charging current contribution into a store at `v_cap` (A).
    pub fn output_current(&self, state: DrivingState, v_cap: f64) -> f64 {
        ((self.open_circuit_voltage(state) - v_cap) / self.source_ohm).max(0.0)
    }
}

/// A harvesting chain with the auxiliary ambient source attached.
#[derive(Debug, Clone, Copy)]
pub struct HybridChain {
    /// The reader-driven chain (Sec. 3).
    pub reader_chain: HarvestChain,
    /// The ambient source.
    pub ambient: AmbientHarvester,
    /// Current driving state.
    pub state: DrivingState,
}

impl HybridChain {
    /// Hybrid of the paper's chain and the default ambient harvester.
    pub fn new(state: DrivingState) -> Self {
        Self {
            reader_chain: HarvestChain::paper(),
            ambient: AmbientHarvester::default(),
            state,
        }
    }

    /// Total charging current into a store at `v_cap` for a reader-field
    /// input `vp` (A).
    pub fn output_current(&self, vp: f64, v_cap: f64) -> f64 {
        self.reader_chain.multiplier.output_current(vp, v_cap)
            + self.ambient.output_current(self.state, v_cap)
    }

    /// Step-simulated time to charge from `v0` to `v_target`; `None` if
    /// not reached within `max_s`.
    pub fn charge_time(&self, vp: f64, v0: f64, v_target: f64, max_s: f64) -> Option<f64> {
        let mut cap = crate::storage::SuperCap::new(self.reader_chain.capacitance);
        cap.set_voltage(v0);
        let dt = 1e-2;
        let mut t = 0.0;
        while t < max_s {
            if cap.voltage() >= v_target {
                return Some(t);
            }
            cap.step(self.output_current(vp, cap.voltage()), dt);
            t += dt;
        }
        None
    }

    /// Whether the tag can sustain RX-mode listening on ambient power
    /// alone (reader off) — the future-work scenario of a parked-but-
    /// running vehicle monitored without an active reader.
    pub fn sustains_rx_without_reader(&self) -> bool {
        let rx = crate::ledger::PowerMode::rx_default().total_current();
        self.ambient.output_current(self.state, 2.0) > rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tag 11's calibrated reader-field input.
    const VP_WEAK: f64 = 0.329;

    #[test]
    fn parked_contributes_nothing() {
        let a = AmbientHarvester::default();
        assert_eq!(a.output_current(DrivingState::Parked, 1.0), 0.0);
        assert_eq!(a.open_circuit_voltage(DrivingState::Parked), 0.0);
    }

    #[test]
    fn excitation_orders_by_driving_intensity() {
        let a = AmbientHarvester::default();
        let p = |s| a.output_current(s, 2.0) * 2.0;
        assert!(p(DrivingState::Highway) > p(DrivingState::City));
        assert!(p(DrivingState::City) > p(DrivingState::Idle));
        assert!(p(DrivingState::Idle) >= p(DrivingState::Parked));
    }

    #[test]
    fn ambient_power_is_auxiliary_scale() {
        // Tens of µW at highway — comparable to the weakest reader-driven
        // charging power (47 µW), i.e. a meaningful supplement, not a
        // replacement for the strong tags.
        let a = AmbientHarvester::default();
        let p = a.output_current(DrivingState::Highway, 2.0) * 2.0 * 1e6;
        assert!((5.0..60.0).contains(&p), "ambient power {p:.1} µW");
    }

    #[test]
    fn highway_speeds_up_the_weakest_tag() {
        let parked = HybridChain::new(DrivingState::Parked);
        let highway = HybridChain::new(DrivingState::Highway);
        let t_parked = parked.charge_time(VP_WEAK, 0.0, 2.3, 500.0).unwrap();
        let t_highway = highway.charge_time(VP_WEAK, 0.0, 2.3, 500.0).unwrap();
        assert!(
            t_highway < t_parked * 0.8,
            "ambient assist too small: {t_highway:.1} vs {t_parked:.1} s"
        );
    }

    #[test]
    fn strong_tags_barely_notice() {
        let parked = HybridChain::new(DrivingState::Parked);
        let highway = HybridChain::new(DrivingState::Highway);
        let vp_strong = 1.376;
        let tp = parked.charge_time(vp_strong, 0.0, 2.3, 100.0).unwrap();
        let th = highway.charge_time(vp_strong, 0.0, 2.3, 100.0).unwrap();
        assert!(th <= tp);
        assert!(th > tp * 0.8, "ambient should be secondary for strong tags");
    }

    #[test]
    fn ambient_alone_sustains_rx_on_highway() {
        // The future-work pitch: while driving, a tag could keep listening
        // with the reader silent.
        assert!(HybridChain::new(DrivingState::Highway).sustains_rx_without_reader());
        assert!(!HybridChain::new(DrivingState::Parked).sustains_rx_without_reader());
    }

    #[test]
    fn ambient_alone_cannot_activate_from_zero_when_weak() {
        // Idle vibration cannot push the cap to 2.3 V (open-circuit 0.75 V).
        let idle = HybridChain::new(DrivingState::Idle);
        assert!(idle.charge_time(0.0, 0.0, 2.3, 1_000.0).is_none());
    }

    #[test]
    fn hybrid_current_is_sum_of_sources() {
        let h = HybridChain::new(DrivingState::Highway);
        let v = 1.5;
        let total = h.output_current(VP_WEAK, v);
        let reader = h.reader_chain.multiplier.output_current(VP_WEAK, v);
        let amb = h.ambient.output_current(DrivingState::Highway, v);
        assert!((total - reader - amb).abs() < 1e-15);
    }
}
