//! The 90 kHz system resonance and the ring effect (Secs. 2.2, 4.1).
//!
//! The reader drives the BiW at the system's resonant frequency. The
//! coupled PZT + panel behaves as a moderately damped second-order
//! resonator: when the drive voltage cuts off, "the reader's PZT continues
//! vibrating" — a ring-down tail with time constant `τ = 2Q/ω₀` that
//! smears OOK symbol edges and corrupts PIE pulse timing at high DL rates.
//!
//! The paper's mitigation is **FSK in, OOK out** (adopted from EcoCapsule,
//! ref. 19): drive at the resonant frequency for a HIGH and at an off-resonant
//! frequency for a LOW. Two effects combine: the resonator's selectivity
//! rejects the off-resonant tone (so the vibration is still OOK), and —
//! crucially for the ring — the amplifier's low output impedance keeps the
//! transducer electrically loaded while it drives, which damps the stored
//! mechanical energy. A silent drive (plain OOK LOW) leaves the element
//! open and free to ring. The model captures this with two quality
//! factors: a high *free* Q when undriven and a lower *loaded* Q when the
//! amplifier is active. The downlink edge model (`arachnet-sim`'s
//! `wavesim`) adds the resulting ring tail to every falling edge a tag sees.

use std::f64::consts::PI;

/// Free (undriven) quality factor: τ = 2Q/ω₀ with τ = 0.5 ms and
/// ω₀ = 2π·90 kHz gives Q ≈ 141.
const Q_FREE: f64 = 141.0;
/// Amplifier-loaded quality factor, ~5× below the free one.
const Q_LOADED: f64 = 28.0;

/// How the reader drives its TX PZT for OOK symbols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveScheme {
    /// Plain OOK: full drive for HIGH, silence for LOW. Suffers the ring
    /// effect — the transducer rings freely through short LOWs.
    PlainOok,
    /// "FSK in, OOK out" (Sec. 4.1), the paper's scheme: resonant drive
    /// for HIGH, off-resonant drive for LOW. The resonator rejects the
    /// off-resonant tone, and the continued pumping damps the ring tail.
    FskInOokOut,
}

impl DriveScheme {
    /// Ring-down time constant τ = 2Q/ω₀ in seconds of the reader PZT
    /// resonating at `f0_hz` once a HIGH ends: the free Q under plain OOK,
    /// the amplifier-loaded Q under FSK-in/OOK-out, scaled by `q_scale`.
    /// Channel drift (temperature, panel clamping) shifts the damping,
    /// stretching (`q_scale > 1`) or shrinking (`< 1`) the tail.
    pub fn ring_tau_s(self, f0_hz: f64, q_scale: f64) -> f64 {
        let q = match self {
            DriveScheme::PlainOok => Q_FREE,
            DriveScheme::FskInOokOut => Q_LOADED,
        };
        2.0 * (q * q_scale) / (2.0 * PI * f0_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_tau_matches_formula() {
        let free = DriveScheme::PlainOok.ring_tau_s(90_000.0, 1.0);
        let loaded = DriveScheme::FskInOokOut.ring_tau_s(90_000.0, 1.0);
        // The free ring lasts ≈ 0.5 ms; amplifier loading cuts it ~5×.
        assert!((free - 0.5e-3).abs() < 0.05e-3, "free τ {free}");
        let ratio = free / loaded;
        assert!((4.5..5.5).contains(&ratio), "free/loaded {ratio}");
    }
}
