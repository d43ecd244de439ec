//! Welch power-spectral-density estimation.
//!
//! Fig. 12(a) computes the uplink SNR "by dividing the backscattering
//! frequency power by the surrounding frequency power via Power Spectral
//! Density". [`welch_psd`] reproduces the estimator and
//! [`Psd::band_power`] integrates it over a band; the receiver
//! (`arachnet-reader::rx`) forms the sideband-over-surround ratio.

use crate::cplx::Cplx;
use crate::fft::RealFft;
use crate::window::Window;

/// A one-sided PSD estimate.
#[derive(Debug, Clone, Default)]
pub struct Psd {
    /// Power density per bin (linear units, power / Hz).
    pub density: Vec<f64>,
    /// Bin spacing in Hz.
    pub bin_hz: f64,
}

impl Psd {
    /// Frequency of bin `i` in Hz.
    pub fn freq(&self, i: usize) -> f64 {
        self.bin_hz * i as f64
    }

    /// Total power in `[lo_hz, hi_hz)` (rectangle integration).
    pub fn band_power(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        let mut total = 0.0;
        for (i, &d) in self.density.iter().enumerate() {
            let f = self.freq(i);
            if f >= lo_hz && f < hi_hz {
                total += d * self.bin_hz;
            }
        }
        total
    }

    /// Index of the bin nearest to `hz`.
    pub fn bin_of(&self, hz: f64) -> usize {
        ((hz / self.bin_hz).round() as usize).min(self.density.len().saturating_sub(1))
    }
}

/// Reusable scratch for [`welch_psd_into`]: window coefficients, the
/// real-FFT plan and working buffers, re-planned only when the segment
/// length or window changes. One scratch per worker makes repeated PSD
/// estimation allocation-free.
#[derive(Debug, Clone, Default)]
pub struct WelchScratch {
    seg_len: usize,
    window: Option<Window>,
    coeffs: Vec<f64>,
    win_power: f64,
    plan: Option<RealFft>,
    spec: Vec<Cplx>,
    acc: Vec<f64>,
}

impl WelchScratch {
    fn ensure(&mut self, seg_len: usize, window: Window) {
        if self.seg_len != seg_len || self.window != Some(window) {
            self.seg_len = seg_len;
            self.window = Some(window);
            self.coeffs = window.coefficients(seg_len);
            self.win_power = window.power(seg_len);
            self.plan = Some(RealFft::new(seg_len));
        }
    }
}

/// Welch PSD of a real signal: segments of `seg_len` (power of two) with
/// 50 % overlap, windowed, averaged.
pub fn welch_psd(signal: &[f64], sample_rate: f64, seg_len: usize, window: Window) -> Psd {
    let mut scratch = WelchScratch::default();
    let mut out = Psd {
        density: Vec::new(),
        bin_hz: 0.0,
    };
    welch_psd_into(signal, sample_rate, seg_len, window, &mut scratch, &mut out);
    out
}

/// [`welch_psd`] into caller-owned storage: `out.density` is cleared and
/// refilled (capacity reused) and `scratch` carries the plan and working
/// buffers across calls, so the estimator allocates nothing once warm.
pub fn welch_psd_into(
    signal: &[f64],
    sample_rate: f64,
    seg_len: usize,
    window: Window,
    scratch: &mut WelchScratch,
    out: &mut Psd,
) {
    assert!(
        seg_len.is_power_of_two(),
        "segment length must be a power of two"
    );
    assert!(signal.len() >= seg_len, "signal shorter than one segment");
    scratch.ensure(seg_len, window);
    let WelchScratch {
        coeffs,
        win_power,
        plan,
        spec,
        acc,
        ..
    } = scratch;
    let plan = plan.as_mut().expect("plan set by ensure");
    let hop = seg_len / 2;
    let half = seg_len / 2 + 1;
    acc.clear();
    acc.resize(half, 0.0);
    let mut segments = 0usize;
    let mut start = 0;
    while start + seg_len <= signal.len() {
        plan.process_windowed(&signal[start..start + seg_len], coeffs, spec);
        for (i, slot) in acc.iter_mut().enumerate() {
            // One-sided: double everything except DC and Nyquist.
            let scale = if i == 0 || i == seg_len / 2 { 1.0 } else { 2.0 };
            *slot += scale * spec[i].norm_sq();
        }
        segments += 1;
        start += hop;
    }
    let norm = 1.0 / (sample_rate * *win_power * segments as f64);
    out.bin_hz = sample_rate / seg_len as f64;
    out.density.clear();
    out.density.extend(acc.iter().map(|p| p * norm));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn psd_peak_at_tone_frequency() {
        let fs = 10_000.0;
        let sig = tone(1_250.0, fs, 8192, 1.0);
        let psd = welch_psd(&sig, fs, 1024, Window::Hann);
        let peak_bin = psd
            .density
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!((psd.freq(peak_bin) - 1_250.0).abs() < 2.0 * psd.bin_hz);
    }

    #[test]
    fn psd_total_power_matches_signal_variance() {
        // Parseval for Welch: integral of PSD ≈ mean square of the signal.
        let fs = 8_000.0;
        let sig = tone(440.0, fs, 16384, 2.0);
        let psd = welch_psd(&sig, fs, 2048, Window::Hann);
        let total: f64 = psd.density.iter().map(|d| d * psd.bin_hz).sum();
        let ms: f64 = sig.iter().map(|x| x * x).sum::<f64>() / sig.len() as f64;
        assert!((total - ms).abs() / ms < 0.05, "total {total} vs ms {ms}");
    }

    #[test]
    fn stronger_tone_has_higher_density() {
        let fs = 10_000.0;
        let weak = tone(1_000.0, fs, 8192, 0.1);
        let strong = tone(1_000.0, fs, 8192, 1.0);
        let pw = welch_psd(&weak, fs, 1024, Window::Hann);
        let ps = welch_psd(&strong, fs, 1024, Window::Hann);
        let bin = pw.bin_of(1_000.0);
        let ratio = ps.density[bin] / pw.density[bin];
        assert!(
            (ratio - 100.0).abs() < 5.0,
            "expected ~100x power, got {ratio}"
        );
    }

    #[test]
    fn band_power_splits_cleanly() {
        let fs = 10_000.0;
        let mut sig = tone(1_000.0, fs, 8192, 1.0);
        let other = tone(3_000.0, fs, 8192, 1.0);
        for (a, b) in sig.iter_mut().zip(&other) {
            *a += b;
        }
        let psd = welch_psd(&sig, fs, 1024, Window::Hann);
        let p1 = psd.band_power(900.0, 1_100.0);
        let p3 = psd.band_power(2_900.0, 3_100.0);
        let rest = psd.band_power(1_500.0, 2_500.0);
        assert!((p1 - p3).abs() / p1 < 0.05);
        assert!(rest < p1 * 1e-6);
    }

    #[test]
    fn scratch_reuse_is_exact_and_allocation_free() {
        let fs = 10_000.0;
        let sig = tone(1_250.0, fs, 8192, 1.0);
        let fresh = welch_psd(&sig, fs, 1024, Window::Hann);
        let mut scratch = WelchScratch::default();
        let mut out = Psd {
            density: Vec::new(),
            bin_hz: 0.0,
        };
        welch_psd_into(&sig, fs, 1024, Window::Hann, &mut scratch, &mut out);
        assert_eq!(out.density, fresh.density);
        let ptr = out.density.as_ptr();
        // Warm call: same plan, reused storage, identical result.
        welch_psd_into(&sig, fs, 1024, Window::Hann, &mut scratch, &mut out);
        assert_eq!(out.density, fresh.density);
        assert_eq!(out.density.as_ptr(), ptr);
        // Re-planning on a size change still works.
        welch_psd_into(&sig, fs, 512, Window::Rectangular, &mut scratch, &mut out);
        assert_eq!(out.density.len(), 257);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_segment_panics() {
        welch_psd(&vec![0.0; 4096], 1_000.0, 1000, Window::Hann);
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn short_signal_panics() {
        welch_psd(&[0.0; 100], 1_000.0, 1024, Window::Hann);
    }
}
