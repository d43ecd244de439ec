//! # arachnet-sensors — the strain-measurement case study (Sec. 6.5)
//!
//! Each tag carries a strain module: a metal-foil gauge bonded to the
//! panel, a full Wheatstone bridge detecting the gauge's resistance change,
//! a bridge amplifier (the TI SBOA247 circuit adapted to the tag's 1.8 V
//! supply), and the MSP430's 10-bit ADC. The case study bends a metal
//! sheet by displacing one end ±10 cm and reads a clearly correlated
//! voltage (Fig. 17b).
//!
//! The module chain here is physical end-to-end: displacement → surface
//! strain (cantilever bending) → ΔR/R (gauge factor) → differential bridge
//! voltage → amplified single-ended voltage → ADC code → the 12-bit UL
//! payload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Metal-foil gauge factor (typical constantan foil).
pub const GAUGE_FACTOR: f64 = 2.1;

/// Nominal gauge resistance (Ω).
pub const GAUGE_OHM: f64 = 350.0;

/// Sensor-module supply (V) — "adapts the supply voltage to 1.8 V".
pub const SUPPLY_V: f64 = 1.8;

/// Power draw of ADC + pre-amplifier while sampling (W) — "around 1 mW in
/// our case", which is why the tag samples at most once per slot.
pub const SAMPLING_POWER_W: f64 = 1.0e-3;

/// A strain gauge bonded to a bending element.
#[derive(Debug, Clone, Copy)]
pub struct StrainGauge {
    /// Gauge factor (ΔR/R per unit strain).
    pub gauge_factor: f64,
    /// Unstrained resistance (Ω).
    pub nominal_ohm: f64,
}

impl Default for StrainGauge {
    fn default() -> Self {
        Self {
            gauge_factor: GAUGE_FACTOR,
            nominal_ohm: GAUGE_OHM,
        }
    }
}

impl StrainGauge {
    /// Resistance under a given strain (ε, dimensionless).
    pub fn resistance(&self, strain: f64) -> f64 {
        self.nominal_ohm * (1.0 + self.gauge_factor * strain)
    }
}

/// The bent metal sheet of the case study, modelled as a cantilever with
/// the gauge bonded near the clamped end.
#[derive(Debug, Clone, Copy)]
pub struct Cantilever {
    /// Free length (m) — the displaced span.
    pub length_m: f64,
    /// Sheet thickness (m).
    pub thickness_m: f64,
}

impl Default for Cantilever {
    fn default() -> Self {
        // A ~60 cm test sheet of 1.5 mm steel.
        Self {
            length_m: 0.6,
            thickness_m: 1.5e-3,
        }
    }
}

impl Cantilever {
    /// Surface strain at the clamped end for a tip displacement `d` (m):
    /// ε = 3·t·d / (2·L²) (Euler–Bernoulli tip-loaded cantilever).
    pub fn strain_at_root(&self, tip_displacement_m: f64) -> f64 {
        3.0 * self.thickness_m * tip_displacement_m / (2.0 * self.length_m * self.length_m)
    }
}

/// A full Wheatstone bridge with one active gauge per arm pair (two active
/// + two dummy in the classic half-active full-bridge used by SBOA247).
#[derive(Debug, Clone, Copy)]
pub struct WheatstoneBridge {
    /// The active gauge.
    pub gauge: StrainGauge,
    /// Excitation voltage (V).
    pub excitation_v: f64,
    /// Number of active arms (1, 2 or 4) — multiplies sensitivity.
    pub active_arms: u8,
}

impl Default for WheatstoneBridge {
    fn default() -> Self {
        Self {
            gauge: StrainGauge::default(),
            excitation_v: SUPPLY_V,
            active_arms: 2,
        }
    }
}

impl WheatstoneBridge {
    /// Differential output voltage for a strain (small-signal formula
    /// `V_out = n/4 · GF · ε · V_exc`).
    pub fn output(&self, strain: f64) -> f64 {
        f64::from(self.active_arms) / 4.0 * self.gauge.gauge_factor * strain * self.excitation_v
    }
}

/// The bridge amplifier: differential gain plus mid-rail offset so that
/// zero strain reads mid-scale on the single-supply ADC.
#[derive(Debug, Clone, Copy)]
pub struct BridgeAmplifier {
    /// Differential gain.
    pub gain: f64,
    /// Output offset (V) at zero differential input.
    pub offset_v: f64,
}

impl Default for BridgeAmplifier {
    fn default() -> Self {
        Self {
            gain: 390.0,
            offset_v: SUPPLY_V / 2.0,
        }
    }
}

impl BridgeAmplifier {
    /// Output voltage, clamped to the single-supply rails.
    pub fn output(&self, differential_v: f64) -> f64 {
        (self.offset_v + self.gain * differential_v).clamp(0.0, SUPPLY_V)
    }
}

/// The MSP430's SAR ADC.
#[derive(Debug, Clone, Copy)]
pub struct Adc {
    /// Resolution in bits (MSP430G2553: 10).
    pub bits: u8,
    /// Full-scale reference (V).
    pub vref: f64,
}

impl Default for Adc {
    fn default() -> Self {
        Self {
            bits: 10,
            vref: SUPPLY_V,
        }
    }
}

impl Adc {
    /// Converts a voltage to a code.
    pub fn sample(&self, v: f64) -> u16 {
        let max = (1u32 << self.bits) - 1;
        let code = (v.clamp(0.0, self.vref) / self.vref * max as f64).round() as u32;
        code.min(max) as u16
    }
}

/// The full sensing chain of one tag.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrainSensor {
    /// The bending element.
    pub cantilever: Cantilever,
    /// The bridge.
    pub bridge: WheatstoneBridge,
    /// The amplifier.
    pub amplifier: BridgeAmplifier,
    /// The converter.
    pub adc: Adc,
}

impl StrainSensor {
    /// Analog output voltage for a tip displacement (m).
    pub fn voltage(&self, displacement_m: f64) -> f64 {
        let strain = self.cantilever.strain_at_root(displacement_m);
        self.amplifier.output(self.bridge.output(strain))
    }

    /// ADC code for a tip displacement (m) — what goes into the UL payload.
    pub fn sample(&self, displacement_m: f64) -> u16 {
        self.adc.sample(self.voltage(displacement_m))
    }

    /// A per-tag variant with gain spread (the three gauges of Fig. 17b
    /// read slightly different slopes).
    pub fn with_gain_factor(mut self, factor: f64) -> Self {
        self.amplifier.gain *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One ADC code step in volts.
    fn adc_lsb(adc: &Adc) -> f64 {
        adc.vref / f64::from((1u32 << adc.bits) - 1)
    }

    #[test]
    fn gauge_resistance_follows_strain() {
        let g = StrainGauge::default();
        assert_eq!(g.resistance(0.0), 350.0);
        let r = g.resistance(1e-3); // 1000 µε
        assert!((r - 350.0 * (1.0 + 2.1e-3)).abs() < 1e-9);
        assert!(g.resistance(-1e-3) < 350.0);
    }

    #[test]
    fn cantilever_strain_is_linear_and_signed() {
        let c = Cantilever::default();
        let e1 = c.strain_at_root(0.05);
        let e2 = c.strain_at_root(0.10);
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
        assert!(c.strain_at_root(-0.05) < 0.0);
        // 10 cm displacement on the default sheet: ε = 3·1.5e-3·0.1/(2·0.36)
        // = 625 µε — a realistic bending strain.
        assert!((c.strain_at_root(0.10) - 625e-6).abs() < 1e-9);
    }

    #[test]
    fn bridge_output_scales_with_arms() {
        let mut b = WheatstoneBridge::default();
        let v2 = b.output(1e-3);
        b.active_arms = 4;
        let v4 = b.output(1e-3);
        assert!((v4 - 2.0 * v2).abs() < 1e-15);
    }

    #[test]
    fn bridge_microvolt_scale_needs_amplifier() {
        // 625 µε on a 2-arm 1.8 V bridge: ~1.2 mV — far below ADC LSB
        // (1.76 mV), which is exactly why the pre-amplifier exists.
        let b = WheatstoneBridge::default();
        let v = b.output(625e-6);
        let lsb = adc_lsb(&Adc::default());
        assert!(v < lsb, "bridge {v} vs LSB {lsb}");
    }

    #[test]
    fn amplifier_clamps_to_rails() {
        let a = BridgeAmplifier::default();
        assert_eq!(a.output(1.0), SUPPLY_V);
        assert_eq!(a.output(-1.0), 0.0);
        assert!((a.output(0.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn adc_codes_roundtrip_within_lsb() {
        let adc = Adc::default();
        let max = f64::from((1u32 << adc.bits) - 1);
        for v in [0.0, 0.45, 0.9, 1.35, 1.8] {
            let back = f64::from(adc.sample(v)) / max * adc.vref;
            assert!((back - v).abs() <= adc_lsb(&adc) / 2.0 + 1e-12);
        }
    }

    #[test]
    fn adc_clamps_out_of_range() {
        let adc = Adc::default();
        assert_eq!(adc.sample(-1.0), 0);
        assert_eq!(adc.sample(5.0), 1023);
    }

    #[test]
    fn payload_fits_12_bits() {
        let s = StrainSensor::default();
        for d in [-0.10, -0.05, 0.0, 0.05, 0.10] {
            assert!(s.sample(d) < 1 << 12);
        }
    }

    #[test]
    fn fig17b_voltage_displacement_correlation() {
        // The case-study result: a clear monotone relationship over the
        // −10…+10 cm sweep, spanning a usable fraction of the 0–1.5 V plot
        // range.
        let s = StrainSensor::default();
        let mut last = -1.0;
        for step in 0..=20 {
            let d = -0.10 + 0.01 * f64::from(step);
            let v = s.voltage(d);
            assert!(v > last, "non-monotone at {d}");
            assert!((0.0..=1.8).contains(&v));
            last = v;
        }
        let span = s.voltage(0.10) - s.voltage(-0.10);
        assert!(span > 0.5, "span {span} too small to plot");
        assert!(s.voltage(0.10) <= 1.5, "stays on Fig. 17(b)'s axis");
    }

    #[test]
    fn three_gauges_have_distinct_slopes() {
        // Fig. 17(b) shows tags A/B/C with slightly different responses.
        let a = StrainSensor::default().with_gain_factor(1.0);
        let b = StrainSensor::default().with_gain_factor(0.85);
        let c = StrainSensor::default().with_gain_factor(1.15);
        let at = |s: &StrainSensor| s.voltage(0.08) - s.voltage(-0.08);
        assert!(at(&c) > at(&a));
        assert!(at(&a) > at(&b));
    }

    #[test]
    fn sampling_power_motivates_duty_cycling() {
        // 1 mW sampling vs 51 µW TX budget: >19× — one sample per slot max.
        let ratio = SAMPLING_POWER_W / 51e-6;
        assert!(ratio > 19.0, "sampling/TX power ratio {ratio} too small");
    }
}
