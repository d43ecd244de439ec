//! The MSP430's 12 kHz low-frequency clock model (Secs. 3.2, 6.3).
//!
//! The tag deliberately runs its timer from the very-low-power VLO-class
//! oscillator at a nominal 12 kHz. Two imperfections matter for protocol
//! timing, and the paper blames both for the downlink-loss surge at high
//! bit rates (Fig. 13a):
//!
//! * **quantisation** — durations are measured in whole timer ticks
//!   (83.3 µs each), so at 2 kbps a raw bit spans only 6 ticks;
//! * **drift** — "because it is powered by a varying voltage from the
//!   supercapacitor rather than a stable one from an LDO regulator, the
//!   timer lacks precision". We model a per-chip tolerance plus a
//!   supply-voltage coefficient: the actual frequency is
//!   `f = 12 kHz · (1 + tol + k·(V − 2.0))`.

use arachnet_core::rates::MCU_CLOCK_HZ;

/// Supply-voltage sensitivity of the VLO-class oscillator (fractional
/// frequency change per volt). MSP430 datasheets quote a few %/V.
pub const SUPPLY_COEFF_PER_V: f64 = 0.04;

/// Worst-case per-chip frequency tolerance (fraction).
pub const CHIP_TOLERANCE: f64 = 0.03;

/// A tag's clock instance.
#[derive(Debug, Clone, Copy)]
pub struct McuClock {
    /// Static per-chip tolerance, in [-CHIP_TOLERANCE, CHIP_TOLERANCE].
    tolerance: f64,
    /// Current supply voltage (V).
    supply_v: f64,
}

impl McuClock {
    /// An ideal clock (no tolerance, nominal supply).
    pub fn ideal() -> Self {
        Self {
            tolerance: 0.0,
            supply_v: 2.0,
        }
    }

    /// A clock with an explicit chip tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance.abs() <= CHIP_TOLERANCE + 1e-12,
            "tolerance out of spec"
        );
        Self {
            tolerance,
            supply_v: 2.0,
        }
    }

    /// Deterministically derives a chip tolerance for a tag ID from an
    /// experiment seed (uniform over the spec band).
    pub fn for_tag(seed: u64, tid: u8) -> Self {
        let mut z = seed ^ (u64::from(tid).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        Self::with_tolerance((unit * 2.0 - 1.0) * CHIP_TOLERANCE)
    }

    /// Updates the supply voltage (the supercap sags between 2.3 and
    /// 1.95 V during operation).
    pub fn set_supply(&mut self, v: f64) {
        assert!(v > 0.0);
        self.supply_v = v;
    }

    /// The chip's static tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Actual oscillator frequency under the current supply (Hz).
    pub fn actual_hz(&self) -> f64 {
        MCU_CLOCK_HZ * (1.0 + self.tolerance + SUPPLY_COEFF_PER_V * (self.supply_v - 2.0))
    }

    /// Converts a real duration (seconds) into the integer tick count the
    /// timer capture register would report.
    pub fn measure_ticks(&self, duration_s: f64) -> u32 {
        assert!(duration_s >= 0.0);
        (duration_s * self.actual_hz()).round() as u32
    }

    /// Converts a desired tick count into the real duration it produces —
    /// the dual direction, and the timing of the timer-interrupt FM0
    /// modulator (Fig. 6b, Sec. 4.3). That timer fires once per raw-bit
    /// interval, and its ISR sets the MOSFET gate pin from the pre-encoded
    /// packet buffer, toggling the PZT between its reflective and
    /// absorptive states. The interval is programmed as a divider in ticks
    /// of this drifting clock, so the on-air raw bit lasts
    /// `divider / f_actual`: the reader's decoder must absorb that
    /// time-scaling, which is why the paper pairs higher UL rates with
    /// lower SNR and occasional losses (Fig. 12).
    pub fn ticks_to_seconds(&self, ticks: u32) -> f64 {
        f64::from(ticks) / self.actual_hz()
    }

    /// Nominal ticks per raw-bit interval at a bit rate (what the firmware
    /// *assumes* when comparing against thresholds).
    pub fn nominal_ticks_per_raw(bps: f64) -> f64 {
        MCU_CLOCK_HZ / bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_is_nominal() {
        let c = McuClock::ideal();
        assert_eq!(c.actual_hz(), MCU_CLOCK_HZ);
    }

    #[test]
    fn supply_sag_slows_or_speeds_clock() {
        let mut c = McuClock::ideal();
        c.set_supply(1.95);
        let sagged = c.actual_hz();
        c.set_supply(2.3);
        let topped = c.actual_hz();
        assert!(sagged < MCU_CLOCK_HZ);
        assert!(topped > MCU_CLOCK_HZ);
        // Across the full cutoff band the swing stays modest (±1.4%).
        assert!((topped - sagged) / MCU_CLOCK_HZ < 0.02);
    }

    #[test]
    fn tolerance_shifts_frequency() {
        let fast = McuClock::with_tolerance(0.03);
        let slow = McuClock::with_tolerance(-0.03);
        assert!(fast.actual_hz() > slow.actual_hz());
        assert!((fast.actual_hz() / MCU_CLOCK_HZ - 1.03).abs() < 1e-12);
    }

    #[test]
    fn per_tag_tolerances_are_deterministic_and_spread() {
        let a = McuClock::for_tag(1, 3);
        let b = McuClock::for_tag(1, 3);
        assert_eq!(a.tolerance(), b.tolerance());
        let tols: Vec<f64> = (1..=12)
            .map(|t| McuClock::for_tag(42, t).tolerance())
            .collect();
        let distinct = tols.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct >= 10, "tolerances too clustered: {tols:?}");
        assert!(tols.iter().all(|t| t.abs() <= CHIP_TOLERANCE));
    }

    #[test]
    fn tick_measurement_quantizes() {
        let c = McuClock::ideal();
        // One tick = 83.33 µs; 100 µs rounds to 1 tick, 130 µs to 2.
        assert_eq!(c.measure_ticks(100e-6), 1);
        assert_eq!(c.measure_ticks(130e-6), 2);
        assert_eq!(c.measure_ticks(0.0), 0);
    }

    #[test]
    fn measure_roundtrip_within_one_tick() {
        let c = McuClock::with_tolerance(0.02);
        for d in [0.5e-3, 1.0e-3, 2.7e-3, 10.0e-3] {
            let ticks = c.measure_ticks(d);
            let back = c.ticks_to_seconds(ticks);
            assert!((back - d).abs() <= 0.5 / c.actual_hz() + 1e-12);
        }
    }

    #[test]
    fn ticks_to_seconds_scales_inversely_with_the_clock() {
        // An ideal clock turns the UL dividers into the nominal rates.
        let ideal = McuClock::ideal();
        assert!((1.0 / ideal.ticks_to_seconds(32) - 375.0).abs() < 1e-9);
        assert!((1.0 / ideal.ticks_to_seconds(4) - 3_000.0).abs() < 1e-9);
        for divider in [4u32, 8, 16, 32, 64, 128] {
            for tol in [-0.03, -0.012, 0.0, 0.007, 0.03] {
                let c = McuClock::with_tolerance(tol);
                let expect = f64::from(divider) / (12_000.0 * (1.0 + tol));
                assert!((c.ticks_to_seconds(divider) - expect).abs() < 1e-12);
            }
        }
        // A fast clock finishes each tick sooner → shorter raw bits.
        let fast = McuClock::with_tolerance(0.03).ticks_to_seconds(32);
        let slow = McuClock::with_tolerance(-0.03).ticks_to_seconds(32);
        assert!(fast < slow);
        assert!((fast - 32.0 / 12_000.0 / 1.03).abs() < 1e-9);
    }

    #[test]
    fn rate_ladder_tick_budgets() {
        // The Fig. 13(a) story in numbers: ticks per raw bit across the DL
        // ladder. At 2 kbps only 6 ticks remain → the 0.5-tick quantisation
        // is 8 % of a bit.
        assert_eq!(McuClock::nominal_ticks_per_raw(125.0), 96.0);
        assert_eq!(McuClock::nominal_ticks_per_raw(250.0), 48.0);
        assert_eq!(McuClock::nominal_ticks_per_raw(2_000.0), 6.0);
    }

    #[test]
    #[should_panic(expected = "out of spec")]
    fn excessive_tolerance_rejected() {
        McuClock::with_tolerance(0.5);
    }
}
