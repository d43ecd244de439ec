//! The assembled harvesting chain: PZT → multiplier → supercap → cutoff.
//!
//! This module answers the questions the evaluation asks of the energy
//! subsystem (Sec. 6.2 / Fig. 11b):
//!
//! * how long does a tag take to charge from 0 V to the 2.3 V activation
//!   threshold? (paper: 4.5 s for the best-placed tag, 56.2 s for the
//!   worst);
//! * how long to *resume* from the 1.95 V cutoff floor? (paper: "within
//!   10 s", ≈ 15 % of the full charge for strong tags);
//! * what is the *net charging power* `½·C·V²_HTH / t`? (paper: 587.8 µW
//!   down to 47.1 µW).
//!
//! Charging follows the pump's Thevenin model: `dV/dt = (V_oc − V) / (R·C)`
//! minus leakage, which integrates to the familiar RC exponential; the
//! closed forms below are exact for zero leakage and the step simulator
//! handles the general case.

use crate::cutoff::LowVoltageCutoff;
use crate::multiplier::Multiplier;

/// The chain of one tag.
///
/// ```
/// use arachnet_energy::harvester::HarvestChain;
///
/// let chain = HarvestChain::paper();
/// // The strongest deployment site charges in seconds…
/// assert!(chain.full_charge_time(1.38).unwrap() < 6.0);
/// // …while an input below ~0.29 V can never reach the 2.3 V threshold.
/// assert!(chain.full_charge_time(0.25).is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HarvestChain {
    /// The voltage multiplier.
    pub multiplier: Multiplier,
    /// Capacitance of the store (F).
    pub capacitance: f64,
    /// The cutoff thresholds.
    pub cutoff: LowVoltageCutoff,
}

impl Default for HarvestChain {
    fn default() -> Self {
        Self::paper()
    }
}

impl HarvestChain {
    /// The paper's chain: 8-stage pump, 1 mF store, 2.3/1.95 V cutoff.
    pub fn paper() -> Self {
        Self {
            multiplier: Multiplier::default(),
            capacitance: crate::storage::DEFAULT_CAPACITANCE_F,
            cutoff: LowVoltageCutoff::paper(),
        }
    }

    /// Pump open-circuit voltage for a PZT peak input.
    pub fn open_circuit_voltage(&self, vp: f64) -> f64 {
        self.multiplier.open_circuit_voltage(vp)
    }

    /// Exact (leakage-free) time to charge the store from `v0` to `v1`
    /// volts: `t = R·C · ln((V_oc − v0)/(V_oc − v1))`. `None` when the pump
    /// cannot reach `v1`.
    pub fn charge_time(&self, vp: f64, v0: f64, v1: f64) -> Option<f64> {
        assert!(v0 <= v1);
        let voc = self.open_circuit_voltage(vp);
        if voc <= v1 {
            return None;
        }
        let rc = self.multiplier.output_resistance() * self.capacitance;
        Some(rc * ((voc - v0) / (voc - v1)).ln())
    }

    /// Full activation charge: 0 V → V_HTH (the Fig. 11(b) metric).
    pub fn full_charge_time(&self, vp: f64) -> Option<f64> {
        self.charge_time(vp, 0.0, self.cutoff.v_hth())
    }

    /// Resume charge: V_LTH → V_HTH (the footnote-4 metric — "re-activation
    /// within 10 s" thanks to the cutoff).
    pub fn resume_charge_time(&self, vp: f64) -> Option<f64> {
        self.charge_time(vp, self.cutoff.v_lth(), self.cutoff.v_hth())
    }

    /// Net charging power `½·C·V²_HTH / t_full` (W) — how the paper turns
    /// charge times into the 587.8/47.1 µW figures.
    pub fn net_charging_power(&self, vp: f64) -> Option<f64> {
        let t = self.full_charge_time(vp)?;
        let v = self.cutoff.v_hth();
        Some(0.5 * self.capacitance * v * v / t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SuperCap;

    /// V_P of the best-placed tag (Tag 8's calibrated carrier voltage).
    const VP_STRONG: f64 = 1.385;
    /// V_P of the weakest tag (Tag 11).
    const VP_WEAK: f64 = 0.329;

    /// Step-simulates charging with the store's leakage and a constant
    /// load: the time to reach `v_target` from `v0`, or `None` if not
    /// reached within `max_s`.
    fn simulate_charge(
        h: &HarvestChain,
        vp: f64,
        v0: f64,
        v_target: f64,
        load_current: f64,
        max_s: f64,
    ) -> Option<f64> {
        let mut cap = SuperCap::new(h.capacitance);
        cap.set_voltage(v0);
        let dt = 1e-3;
        let mut t = 0.0;
        while t < max_s {
            if cap.voltage() >= v_target {
                return Some(t);
            }
            let i = h.multiplier.output_current(vp, cap.voltage()) - load_current;
            cap.step(i, dt);
            t += dt;
        }
        None
    }

    #[test]
    fn strong_tag_charges_in_seconds() {
        let h = HarvestChain::paper();
        let t = h.full_charge_time(VP_STRONG).unwrap();
        assert!((t - 4.5).abs() < 1.0, "paper: 4.5 s, model: {t:.1} s");
    }

    #[test]
    fn weak_tag_charges_in_a_minute() {
        let h = HarvestChain::paper();
        let t = h.full_charge_time(VP_WEAK).unwrap();
        assert!((t - 56.2).abs() < 12.0, "paper: 56.2 s, model: {t:.1} s");
    }

    #[test]
    fn net_charging_power_range_matches_paper() {
        let h = HarvestChain::paper();
        let p_strong = h.net_charging_power(VP_STRONG).unwrap() * 1e6;
        let p_weak = h.net_charging_power(VP_WEAK).unwrap() * 1e6;
        assert!(
            (p_strong - 587.8).abs() < 120.0,
            "paper: 587.8 µW, model {p_strong:.1}"
        );
        assert!(
            (p_weak - 47.1).abs() < 12.0,
            "paper: 47.1 µW, model {p_weak:.1}"
        );
    }

    #[test]
    fn resume_is_about_15_percent_for_strong_tags() {
        // Appendix B: "recharging resumes from 1.95 V and requires only
        // 15.2 % of the full charging duration".
        let h = HarvestChain::paper();
        let frac =
            h.resume_charge_time(VP_STRONG).unwrap() / h.full_charge_time(VP_STRONG).unwrap();
        assert!((frac - 0.152).abs() < 0.03, "resume fraction {frac:.3}");
    }

    #[test]
    fn resume_within_10_seconds_for_typical_tags() {
        // Footnote 4: "enabling re-activation within 10 s" — holds for all
        // but the most starved placements.
        let h = HarvestChain::paper();
        for vp in [1.385, 1.0, 0.7, 0.5] {
            let t = h.resume_charge_time(vp).unwrap();
            assert!(t < 10.0, "vp={vp}: resume {t:.1} s");
        }
    }

    #[test]
    fn charge_time_monotone_in_input() {
        let h = HarvestChain::paper();
        let mut last = f64::MAX;
        for vp in [0.33, 0.40, 0.50, 0.70, 1.0, 1.385] {
            let t = h.full_charge_time(vp).unwrap();
            assert!(t < last, "charge time must fall with input voltage");
            last = t;
        }
    }

    #[test]
    fn insufficient_input_never_charges() {
        let h = HarvestChain::paper();
        // V_oc must exceed 2.3 V: V_P ≤ 0.29 V cannot activate.
        assert!(h.full_charge_time(0.29).is_none());
        assert!(h.full_charge_time(0.30).is_some());
    }

    #[test]
    fn simulated_charge_matches_closed_form() {
        let h = HarvestChain::paper();
        let analytic = h.full_charge_time(1.0).unwrap();
        let simulated = simulate_charge(&h, 1.0, 0.0, 2.3, 0.0, 100.0).unwrap();
        // Leakage in the simulation makes it slightly slower.
        assert!(simulated >= analytic * 0.98, "{simulated} vs {analytic}");
        assert!(simulated <= analytic * 1.10, "{simulated} vs {analytic}");
    }

    #[test]
    fn load_slows_or_prevents_charging() {
        let h = HarvestChain::paper();
        let free = simulate_charge(&h, 0.5, 1.95, 2.3, 0.0, 200.0).unwrap();
        // A 25 µW load (RX mode at 2 V ≈ 12.4 µA) slows the weak tag down.
        let loaded = simulate_charge(&h, 0.5, 1.95, 2.3, 12.4e-6, 200.0).unwrap();
        assert!(loaded > free);
        // A load exceeding the charge current stalls charging entirely.
        assert!(simulate_charge(&h, 0.33, 1.95, 2.3, 50e-6, 30.0).is_none());
    }

    #[test]
    fn charging_power_exceeds_rx_cost_for_all_deployed_tags() {
        // Sec. 6.2's sustainability argument: even the minimum charging
        // power (47.1 µW) exceeds the 24.8 µW RX cost, so duty-cycled
        // operation is sustainable everywhere.
        let h = HarvestChain::paper();
        let p_weak = h.net_charging_power(VP_WEAK).unwrap() * 1e6;
        assert!(
            p_weak > 24.8,
            "weakest tag cannot sustain RX: {p_weak:.1} µW"
        );
    }
}
