//! Tabulated carrier phasors for complex down-conversion.
//!
//! The first RX block multiplies the real 500 kHz stream by `e^{-j2πf_c t}`
//! to shift the 90 kHz backscatter band to baseband (Sec. 6.1 "down
//! conversion"). Every carrier the system builds repeats exactly every `p`
//! samples (90 kHz at 500 kHz every 50), so the oscillator is one period of
//! phasors indexed by a wrapping counter: no trig per sample and no
//! accumulated phase error. Finding `p` is the caller's job (the reader
//! crate uses `biw_channel::channel::exact_carrier_period`).

use crate::cplx::Cplx;
use std::f64::consts::PI;

/// One period of the conjugate oscillator `e^{-jωn}` of a carrier that
/// repeats exactly every `period` samples.
#[derive(Debug, Clone)]
pub struct CarrierTable {
    table: Vec<Cplx>,
}

impl CarrierTable {
    /// The phasors `e^{-jωn}`, `ω = 2π · carrier / fs`, for
    /// `n = 0..period`. Indexing them with a counter that wraps at `period`
    /// is exact only when `carrier · period / fs` is a whole number of
    /// cycles.
    pub fn new(fs: f64, carrier: f64, period: usize) -> Self {
        let w = 2.0 * PI * carrier / fs;
        Self {
            table: (0..period).map(|n| Cplx::cis(-w * n as f64)).collect(),
        }
    }

    /// The exact period in samples.
    pub fn period(&self) -> usize {
        self.table.len()
    }

    /// The full one-period phasor table; per-sample loops index it with a
    /// wrapping counter.
    pub fn phasors(&self) -> &[Cplx] {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mixes `input` to baseband through the table, from phase zero.
    fn mix(tab: &CarrierTable, input: &[f64]) -> Vec<Cplx> {
        input
            .iter()
            .zip(tab.phasors().iter().cycle())
            .map(|(&x, &z)| z * x)
            .collect()
    }

    #[test]
    fn mixing_carrier_to_dc() {
        let fs = 500_000.0;
        let fc = 90_000.0;
        let tab = CarrierTable::new(fs, fc, 50);
        // Real carrier at exactly fc mixes to a DC term (plus a 2fc image).
        let input: Vec<f64> = (0..5_000)
            .map(|i| (2.0 * PI * fc * i as f64 / fs).cos())
            .collect();
        let iq = mix(&tab, &input);
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
        let tab = CarrierTable::new(fs, 90_000.0, 50);
        let f_in = 91_000.0; // 1 kHz above carrier
        let input: Vec<f64> = (0..50_000)
            .map(|i| (2.0 * PI * f_in * i as f64 / fs).cos())
            .collect();
        let iq = mix(&tab, &input);
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
    fn carrier_table_holds_one_period_of_conjugate_phasors() {
        let (fs, fc) = (500_000.0, 90_000.0);
        let tab = CarrierTable::new(fs, fc, 50);
        assert_eq!(tab.period(), 50);
        let w = 2.0 * PI * fc / fs;
        for (n, z) in tab.phasors().iter().enumerate() {
            let want = Cplx::cis(-w * n as f64);
            assert_eq!((z.re, z.im), (want.re, want.im), "phase {n}");
        }
        // 50 samples hold 9 whole cycles: the phasor one period on, by
        // direct trig, is the table's first entry again.
        let wrapped = Cplx::cis(-w * 50.0);
        let first = tab.phasors()[0];
        assert!((wrapped.re - first.re).abs() < 1e-12 && (wrapped.im - first.im).abs() < 1e-12);
    }
}
