//! The PZT transducer two-port (Sec. 2.2, Fig. 2).
//!
//! A PZT bonded to the BiW converts between panel vibration and electrical
//! voltage in both directions. For the system model only three numbers
//! matter per transducer:
//!
//! * the **conversion ratio** between incident vibration amplitude (in our
//!   normalized units) and open-circuit voltage — this sets how much the
//!   harvester sees;
//! * the two **backscatter reflection coefficients**: short-circuited the
//!   element is stiff and reflects the incident wave (reflective state);
//!   open-circuited it absorbs and converts (absorptive state). Toggling
//!   between them is the OOK modulator.

/// Backscatter state of a tag's PZT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PztState {
    /// Switch closed (short circuit): incident wave is reflected.
    Reflective,
    /// Switch open: incident wave is absorbed / harvested.
    Absorptive,
}

/// Electrical/mechanical parameters of one transducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pzt {
    /// Open-circuit volts per unit incident amplitude.
    pub volts_per_amplitude: f64,
    /// Amplitude reflection coefficient in the reflective (short) state.
    pub rho_reflective: f64,
    /// Amplitude reflection coefficient in the absorptive (open) state.
    pub rho_absorptive: f64,
}

impl Default for Pzt {
    fn default() -> Self {
        Self::arachnet_tag()
    }
}

impl Pzt {
    /// The tag transducer used throughout the evaluation. The reflection
    /// contrast (0.8 vs 0.25) sets the OOK modulation depth seen by the
    /// reader; the conversion ratio is folded into the channel's normalized
    /// units (1 amplitude unit ≡ 1 V open-circuit).
    pub fn arachnet_tag() -> Self {
        Self {
            volts_per_amplitude: 1.0,
            rho_reflective: 0.8,
            rho_absorptive: 0.25,
        }
    }

    /// Open-circuit voltage for an incident amplitude.
    pub fn open_circuit_voltage(&self, amplitude: f64) -> f64 {
        self.volts_per_amplitude * amplitude
    }

    /// Reflected amplitude for an incident amplitude in the given state.
    pub fn reflect(&self, amplitude: f64, state: PztState) -> f64 {
        match state {
            PztState::Reflective => self.rho_reflective * amplitude,
            PztState::Absorptive => self.rho_absorptive * amplitude,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflective_exceeds_absorptive() {
        let p = Pzt::arachnet_tag();
        assert!(p.rho_reflective > p.rho_absorptive);
        assert!(p.reflect(1.0, PztState::Reflective) > p.reflect(1.0, PztState::Absorptive));
    }

    #[test]
    fn reflection_is_linear_in_amplitude() {
        let p = Pzt::arachnet_tag();
        for s in [PztState::Reflective, PztState::Absorptive] {
            assert!((p.reflect(2.0, s) - 2.0 * p.reflect(1.0, s)).abs() < 1e-15);
        }
    }

    #[test]
    fn modulation_depth_is_meaningful() {
        // OOK modulation depth `(ρ_r − ρ_a) / ρ_r`: the fractional
        // amplitude swing the reader can detect.
        let p = Pzt::arachnet_tag();
        let depth = (p.rho_reflective - p.rho_absorptive) / p.rho_reflective;
        // Less than full (the absorptive state still reflects a little),
        // but deep enough for robust OOK slicing.
        assert!(depth > 0.5 && depth < 1.0, "depth {depth}");
    }

    #[test]
    fn harvest_fraction_bounds() {
        // Fraction of incident power left to the harvester in the
        // absorptive state: what isn't reflected is absorbed.
        let p = Pzt::arachnet_tag();
        let h = 1.0 - p.rho_absorptive * p.rho_absorptive;
        assert!(h > 0.9 && h <= 1.0, "harvest fraction {h}");
    }

    #[test]
    fn open_circuit_voltage_scales() {
        let p = Pzt::arachnet_tag();
        assert_eq!(p.open_circuit_voltage(0.5), 0.5);
        assert_eq!(p.open_circuit_voltage(1.4), 1.4);
    }

    #[test]
    fn coefficients_are_physical() {
        let p = Pzt::arachnet_tag();
        assert!(p.rho_reflective <= 1.0 && p.rho_reflective >= 0.0);
        assert!(p.rho_absorptive <= 1.0 && p.rho_absorptive >= 0.0);
    }
}
