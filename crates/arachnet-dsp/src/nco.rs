//! Numerically controlled oscillator and complex down-conversion.
//!
//! The first RX block: multiply the real 500 kHz stream by `e^{-j2πf_c t}`
//! to shift the 90 kHz backscatter band to baseband (Sec. 6.1 "down
//! conversion"). The NCO phase accumulates in f64 radians; for the signal
//! lengths we process (seconds) the accumulated rounding error is orders of
//! magnitude below one sample of phase.

use crate::cplx::Cplx;
use std::f64::consts::PI;

/// A numerically controlled oscillator.
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    step: f64,
}

impl Nco {
    /// Oscillator at `freq` Hz for sample rate `fs`.
    pub fn new(fs: f64, freq: f64) -> Self {
        Self {
            phase: 0.0,
            step: 2.0 * PI * freq / fs,
        }
    }

    /// Next complex oscillator sample `e^{jφ}`.
    ///
    /// Not an `Iterator`: the oscillator never ends and returning
    /// `Option<Cplx>` from the per-sample hot path would be noise.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Cplx {
        let z = Cplx::cis(self.phase);
        self.phase += self.step;
        if self.phase > PI {
            self.phase -= 2.0 * PI;
        } else if self.phase < -PI {
            self.phase += 2.0 * PI;
        }
        z
    }
}

/// Streaming down-converter: real input × conjugate oscillator → IQ out.
#[derive(Debug, Clone)]
pub struct DownConverter {
    nco: Nco,
}

impl DownConverter {
    /// Mixer shifting `carrier` Hz to DC at sample rate `fs`.
    pub fn new(fs: f64, carrier: f64) -> Self {
        Self {
            nco: Nco::new(fs, carrier),
        }
    }

    /// Mixes one real sample to baseband.
    pub fn mix(&mut self, x: f64) -> Cplx {
        self.nco.next().conj() * x
    }

    /// Mixes a block.
    pub fn mix_block(&mut self, input: &[f64]) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.mix_block_into(input, &mut out);
        out
    }

    /// Mixes a block into caller-owned storage (cleared and refilled;
    /// capacity reused across calls).
    pub fn mix_block_into(&mut self, input: &[f64], out: &mut Vec<Cplx>) {
        out.clear();
        out.extend(input.iter().map(|&x| self.mix(x)));
    }
}

/// Tabulated conjugate mixer for carriers whose frequency divides the
/// sample rate rationally: when `carrier · p / fs` is an integer for some
/// small period `p`, the oscillator `e^{-jωn}` repeats exactly every `p`
/// samples, so down-conversion becomes a table lookup per sample — no trig
/// and no accumulated phase error, ever.
#[derive(Debug, Clone)]
pub struct CarrierTable {
    table: Vec<Cplx>,
}

impl CarrierTable {
    /// Builds the table when an exact period `p ≤ max_period` exists;
    /// `None` otherwise (callers fall back to [`DownConverter`]).
    pub fn exact(fs: f64, carrier: f64, max_period: usize) -> Option<Self> {
        if fs <= 0.0 || carrier <= 0.0 || fs.is_nan() || carrier.is_nan() {
            return None;
        }
        let period = (1..=max_period).find(|&p| {
            let cycles = carrier * p as f64 / fs;
            cycles >= 1.0 - 1e-9 && (cycles - cycles.round()).abs() < 1e-9
        })?;
        let w = 2.0 * PI * carrier / fs;
        Some(Self {
            table: (0..period).map(|n| Cplx::cis(-w * n as f64)).collect(),
        })
    }

    /// The exact period in samples.
    pub fn period(&self) -> usize {
        self.table.len()
    }

    /// Conjugate-oscillator phasor `e^{-jωn}` at absolute sample index `n`.
    pub fn phasor(&self, n: usize) -> Cplx {
        self.table[n % self.table.len()]
    }

    /// The full one-period phasor table. Long per-sample loops should index
    /// this with a wrapping counter instead of calling
    /// [`CarrierTable::phasor`] — same values, no division per sample.
    pub fn phasors(&self) -> &[Cplx] {
        &self.table
    }

    /// Down-converts a real block starting at phase zero into `out`
    /// (cleared and refilled; capacity reused).
    pub fn mix_block_into(&self, input: &[f64], out: &mut Vec<Cplx>) {
        out.clear();
        out.reserve(input.len());
        let p = self.table.len();
        let mut phase = 0;
        for &x in input {
            out.push(self.table[phase] * x);
            phase += 1;
            if phase == p {
                phase = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nco_produces_unit_phasors() {
        let mut nco = Nco::new(1_000.0, 100.0);
        for _ in 0..1_000 {
            assert!((nco.next().abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nco_frequency_is_correct() {
        let fs = 1_000.0;
        let f = 50.0;
        let mut nco = Nco::new(fs, f);
        let a = nco.next();
        // Advance exactly one period: phase must return (mod 2π).
        for _ in 0..(fs / f) as usize - 1 {
            nco.next();
        }
        let b = nco.next();
        assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
    }

    #[test]
    fn mixing_carrier_to_dc() {
        let fs = 500_000.0;
        let fc = 90_000.0;
        let mut dc = DownConverter::new(fs, fc);
        // Real carrier at exactly fc mixes to a DC term (plus a 2fc image).
        let input: Vec<f64> = (0..5_000)
            .map(|i| (2.0 * PI * fc * i as f64 / fs).cos())
            .collect();
        let iq = dc.mix_block(&input);
        // Average over an integer number of 2fc periods to cancel the image.
        let n = iq.len();
        let mean = iq.iter().fold(Cplx::ZERO, |a, &z| a + z) / n as f64;
        // cos(ωt)·e^{-jωt} averages to 1/2.
        assert!((mean.re - 0.5).abs() < 0.01, "DC re {mean:?}");
        assert!(mean.im.abs() < 0.01, "DC im {mean:?}");
    }

    #[test]
    fn off_carrier_tone_mixes_to_offset() {
        let fs = 500_000.0;
        let mut dc = DownConverter::new(fs, 90_000.0);
        let f_in = 91_000.0; // 1 kHz above carrier
        let input: Vec<f64> = (0..50_000)
            .map(|i| (2.0 * PI * f_in * i as f64 / fs).cos())
            .collect();
        let iq = dc.mix_block(&input);
        // Mixing a *real* tone produces the wanted +1 kHz term plus an image
        // at −(f_in + fc) = −181 kHz; a moving average suppresses the image
        // before the phase-slope measurement (the real chain low-passes too).
        let ma = 50usize;
        let smoothed: Vec<Cplx> = iq
            .windows(ma)
            .map(|w| w.iter().fold(Cplx::ZERO, |a, &z| a + z) / ma as f64)
            .collect();
        let mut acc = Cplx::ZERO;
        for w in smoothed.windows(2).skip(1_000).take(40_000) {
            acc += w[1] * w[0].conj();
        }
        let f_est = acc.arg() / (2.0 * PI) * fs;
        assert!((f_est - 1_000.0).abs() < 20.0, "estimated offset {f_est}");
    }

    #[test]
    fn carrier_table_matches_down_converter() {
        let fs = 500_000.0;
        let fc = 90_000.0;
        let tab = CarrierTable::exact(fs, fc, 4096).expect("90k/500k has period 50");
        assert_eq!(tab.period(), 50);
        let input: Vec<f64> = (0..1_000)
            .map(|i| (2.0 * PI * fc * i as f64 / fs).cos() + 0.1 * (i as f64 * 0.7).sin())
            .collect();
        let mut dc = DownConverter::new(fs, fc);
        let reference = dc.mix_block(&input);
        let mut out = Vec::new();
        tab.mix_block_into(&input, &mut out);
        for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                "sample {i}: {a:?} vs {b:?}"
            );
        }
        // Phasor accessor agrees with the block path.
        for n in [0usize, 49, 50, 137] {
            let z = tab.phasor(n);
            let want = Cplx::cis(-2.0 * PI * fc / fs * (n % 50) as f64);
            assert!((z.re - want.re).abs() < 1e-12 && (z.im - want.im).abs() < 1e-12);
        }
    }

    #[test]
    fn carrier_table_rejects_irrational_ratio() {
        assert!(CarrierTable::exact(44_100.0, 12_345.678, 4096).is_none());
    }

    #[test]
    fn phase_wrap_keeps_magnitude() {
        // Run long enough to wrap many times; phasors must stay unit.
        let mut nco = Nco::new(10.0, 4.9);
        for _ in 0..10_000 {
            assert!((nco.next().abs() - 1.0).abs() < 1e-9);
        }
    }

    use std::f64::consts::PI;
}
