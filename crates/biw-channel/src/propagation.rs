//! Path gain and delay through the BiW plate network.
//!
//! Three loss mechanisms, each standard for guided plate (Lamb) waves in
//! sheet metal at ultrasonic frequencies:
//!
//! * **cylindrical spreading** — a point-excited plate wave spreads in 2-D,
//!   so amplitude falls as `1/√d`;
//! * **material damping** — welded automotive steel with sealant/damping
//!   layers attenuates exponentially, `e^{-αd}`;
//! * **junction losses** — a spot-welded seam transmits only part of the
//!   incident energy, and a perpendicular panel junction (Tag 4's "turning
//!   face") loses far more because the wave must mode-convert around the
//!   corner.
//!
//! The constants are calibrated (see `channel::tests`) so the 12-tag
//! voltage ladder lands on Fig. 11's reported values.

/// Reference distance at which spreading loss is normalized (metres).
pub const REFERENCE_DISTANCE_M: f64 = 0.3;

/// Material damping coefficient α (1/m) at 90 kHz.
pub const DAMPING_PER_M: f64 = 0.30;

/// Amplitude transmission factor of a spot-welded seam.
pub const SEAM_TRANSMISSION: f64 = 0.75;

/// Amplitude transmission factor of a perpendicular panel junction.
pub const PERP_TRANSMISSION: f64 = 0.30;

/// Group velocity of the A0 Lamb mode in ~1 mm automotive steel near
/// 90 kHz (m/s). Sets path delays.
pub const GROUP_VELOCITY_M_S: f64 = 3_000.0;

/// A structural path descriptor from the reader to a tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSpec {
    /// Path length through the metal, metres.
    pub length_m: f64,
    /// Number of seam (spot-weld) junctions crossed.
    pub seam_junctions: u8,
    /// Number of perpendicular panel junctions crossed.
    pub perp_junctions: u8,
}

impl PathSpec {
    /// One-way amplitude gain of the path (≤ 1 beyond the reference
    /// distance).
    pub fn gain(&self) -> f64 {
        let d = self.length_m.max(REFERENCE_DISTANCE_M);
        let spreading = (REFERENCE_DISTANCE_M / d).sqrt();
        let damping = (-DAMPING_PER_M * (d - REFERENCE_DISTANCE_M)).exp();
        let seams = SEAM_TRANSMISSION.powi(i32::from(self.seam_junctions));
        let perps = PERP_TRANSMISSION.powi(i32::from(self.perp_junctions));
        spreading * damping * seams * perps
    }

    /// Round-trip amplitude gain (reader → tag → reader), as experienced by
    /// a backscattered wave.
    pub fn round_trip_gain(&self) -> f64 {
        let g = self.gain();
        g * g
    }

    /// One-way propagation delay in seconds.
    pub fn delay_s(&self) -> f64 {
        self.length_m / GROUP_VELOCITY_M_S
    }

    /// One-way delay in samples at the given rate.
    pub fn delay_samples(&self, sample_rate: f64) -> usize {
        (self.delay_s() * sample_rate).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(len: f64, seams: u8, perps: u8) -> PathSpec {
        PathSpec {
            length_m: len,
            seam_junctions: seams,
            perp_junctions: perps,
        }
    }

    #[test]
    fn gain_is_unity_at_reference() {
        let g = path(REFERENCE_DISTANCE_M, 0, 0).gain();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gain_decreases_with_distance() {
        let mut last = f64::MAX;
        for d in [0.3, 0.6, 1.2, 2.4, 4.8] {
            let g = path(d, 0, 0).gain();
            assert!(g < last, "gain must fall with distance");
            assert!(g > 0.0);
            last = g;
        }
    }

    #[test]
    fn closer_than_reference_clamps() {
        assert_eq!(path(0.1, 0, 0).gain(), path(0.3, 0, 0).gain());
    }

    #[test]
    fn junctions_multiply() {
        let base = path(1.0, 0, 0).gain();
        assert!((path(1.0, 1, 0).gain() - base * SEAM_TRANSMISSION).abs() < 1e-12);
        assert!((path(1.0, 2, 0).gain() - base * SEAM_TRANSMISSION.powi(2)).abs() < 1e-12);
        assert!((path(1.0, 0, 1).gain() - base * PERP_TRANSMISSION).abs() < 1e-12);
    }

    #[test]
    fn perpendicular_junction_costs_more_than_seam() {
        let (perp, seam) = (PERP_TRANSMISSION, SEAM_TRANSMISSION);
        assert!(
            perp < seam,
            "perpendicular path {perp} should lose more than seam path {seam}"
        );
    }

    #[test]
    fn round_trip_is_square() {
        let p = path(1.7, 1, 0);
        assert!((p.round_trip_gain() - p.gain() * p.gain()).abs() < 1e-15);
    }

    #[test]
    fn delay_scales_with_length() {
        let d1 = path(1.5, 0, 0).delay_s();
        let d2 = path(3.0, 0, 0).delay_s();
        assert!((d2 - 2.0 * d1).abs() < 1e-12);
        // 3 m at 3000 m/s = 1 ms.
        assert!((d2 - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn delay_samples_at_daq_rate() {
        // 2.6 m (Tag 11) at 500 kHz → 433 samples.
        let p = path(2.6, 2, 0);
        assert_eq!(p.delay_samples(500_000.0), 433);
    }

    #[test]
    fn whole_vehicle_path_is_still_audible() {
        // Even the worst path must retain enough amplitude for activation —
        // the paper activates all 12 tags at 8 stages.
        let worst = path(2.6, 2, 0);
        assert!(worst.gain() > 0.05, "worst-case gain {}", worst.gain());
    }
}
