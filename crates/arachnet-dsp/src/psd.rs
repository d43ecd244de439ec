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
    ///
    /// Only the bins from two below `lo_hz` to two above `hi_hz` are
    /// tested — a margin far wider than the rounding of `freq` — so the
    /// sum adds the same bins, in the same ascending order, as a test of
    /// every bin would.
    pub fn band_power(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        let (first, end) = if self.bin_hz > 0.0 {
            // `as usize` saturates: NaN and -inf give 0, +inf the maximum.
            let first = (lo_hz / self.bin_hz - 2.0) as usize;
            let end = (hi_hz / self.bin_hz + 3.0) as usize;
            (first, end)
        } else {
            (0, self.density.len())
        };
        let mut total = 0.0;
        for (i, &d) in self.density.iter().enumerate().take(end).skip(first) {
            let f = self.freq(i);
            if f >= lo_hz && f < hi_hz {
                total += d * self.bin_hz;
            }
        }
        total
    }
}

/// Reusable scratch for [`welch_psd_into`]: window coefficients, the
/// real-FFT plan and working buffers (one segment, its spectrum and the
/// running sum), re-planned only when the segment length or window
/// changes. One scratch per worker makes repeated PSD estimation
/// allocation-free, and no buffer in it is longer than one segment.
#[derive(Debug, Clone, Default)]
pub struct WelchScratch {
    seg_len: usize,
    window: Option<Window>,
    coeffs: Vec<f64>,
    win_power: f64,
    plan: Option<RealFft>,
    seg: Vec<f64>,
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
            self.seg = vec![0.0; seg_len];
        }
    }
}

/// Welch PSD of a real signal: segments of `seg_len` (power of two) with
/// 50 % overlap, windowed, averaged.
pub fn welch_psd(signal: &[f64], sample_rate: f64, seg_len: usize, window: Window) -> Psd {
    let mut scratch = WelchScratch::default();
    let mut out = Psd::default();
    welch_psd_into(
        signal.len(),
        |start, buf| buf.copy_from_slice(&signal[start..start + buf.len()]),
        sample_rate,
        seg_len,
        window,
        &mut scratch,
        &mut out,
    );
    out
}

/// [`welch_psd`] of a `len`-sample signal that the caller writes as it is
/// needed: `fill(start, buf)` must write samples `start..start + buf.len()`
/// into all of `buf`. The first call asks for a whole segment, every later
/// one for the half that the 50 % overlap does not carry over, so each
/// sample is asked for once. A signal derived from another — the
/// receiver's carrier-cleaned packet — then never exists whole, only one
/// segment of it. `out.density` is cleared and refilled (capacity reused)
/// and `scratch` carries the plan and working buffers across calls, so
/// the estimator allocates nothing once warm.
pub fn welch_psd_into(
    len: usize,
    mut fill: impl FnMut(usize, &mut [f64]),
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
    assert!(len >= seg_len, "signal shorter than one segment");
    scratch.ensure(seg_len, window);
    let WelchScratch {
        coeffs,
        win_power,
        plan,
        seg,
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
    while start + seg_len <= len {
        if segments == 0 {
            fill(start, seg);
        } else {
            // 50 % overlap: this segment's first half is the last one's
            // second half, so only the new half is asked for.
            seg.copy_within(hop.., 0);
            fill(start + hop, &mut seg[hop..]);
        }
        plan.process_windowed(seg, coeffs, spec);
        for (i, (slot, z)) in acc.iter_mut().zip(spec.iter()).enumerate() {
            // One-sided: double everything except DC and Nyquist.
            let scale = if i == 0 || i == seg_len / 2 { 1.0 } else { 2.0 };
            *slot += scale * z.norm_sq();
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
        let bin = (1_000.0 / pw.bin_hz).round() as usize;
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
        let from = |start: usize, buf: &mut [f64]| {
            buf.copy_from_slice(&sig[start..start + buf.len()]);
        };
        let fresh = welch_psd(&sig, fs, 1024, Window::Hann);
        let mut scratch = WelchScratch::default();
        let mut out = Psd::default();
        welch_psd_into(
            sig.len(),
            from,
            fs,
            1024,
            Window::Hann,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.density, fresh.density);
        let ptr = out.density.as_ptr();
        // Warm call: same plan, reused storage, identical result.
        welch_psd_into(
            sig.len(),
            from,
            fs,
            1024,
            Window::Hann,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.density, fresh.density);
        assert_eq!(out.density.as_ptr(), ptr);
        // Re-planning on a size change still works.
        welch_psd_into(
            sig.len(),
            from,
            fs,
            512,
            Window::Rectangular,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.density.len(), 257);
    }

    #[test]
    fn samples_are_asked_for_once_and_scratch_holds_one_segment() {
        // A signal 13.7 segments long: the caller is asked for the first
        // segment, then for the new half of every 50 %-overlapped segment
        // that fits, in order; the scratch never holds more than one
        // segment of anything.
        let fs = 10_000.0;
        let sig = tone(700.0, fs, 1024 * 13 + 700, 1.0);
        let mut scratch = WelchScratch::default();
        let mut out = Psd::default();
        let mut asked = Vec::new();
        welch_psd_into(
            sig.len(),
            |start, buf| {
                asked.push((start, buf.len()));
                buf.copy_from_slice(&sig[start..start + buf.len()]);
            },
            fs,
            1024,
            Window::Hann,
            &mut scratch,
            &mut out,
        );
        let mut want = vec![(0, 1024)];
        want.extend((1024..=sig.len() - 512).step_by(512).map(|s| (s, 512)));
        assert_eq!(asked, want);
        assert_eq!(out.density, welch_psd(&sig, fs, 1024, Window::Hann).density);
        let WelchScratch {
            coeffs,
            seg,
            spec,
            acc,
            ..
        } = &scratch;
        let longest = [
            coeffs.capacity(),
            seg.capacity(),
            spec.capacity(),
            acc.capacity(),
        ];
        assert!(longest.iter().all(|&c| c <= 1024), "{longest:?}");
    }

    #[test]
    fn band_power_equals_a_scan_of_every_bin() {
        use arachnet_testkit::{check, gen, prop_assert};
        fn every_bin(psd: &Psd, lo: f64, hi: f64) -> f64 {
            let mut total = 0.0;
            for (i, &d) in psd.density.iter().enumerate() {
                let f = psd.freq(i);
                if f >= lo && f < hi {
                    total += d * psd.bin_hz;
                }
            }
            total
        }
        let bins = [500_000.0 / 8192.0, 500_000.0 / 256.0, 1.0 / 3.0, 7.3];
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let g = gen::zip4(
            gen::usize_range(0, bins.len()),
            gen::usize_range(0, 7),
            gen::f64_range(-0.1, 1.1),
            gen::f64_range(-0.1, 1.1),
        );
        check(
            "band_power_equals_a_scan_of_every_bin",
            &g,
            |&(b, mode, u, v)| {
                // Uneven densities, so a changed summation order would show.
                let psd = Psd {
                    density: (0..4097u64)
                        .map(|i| 1.0 + ((i * 7919) % 1000) as f64 / 7.0)
                        .collect(),
                    bin_hz: bins[b],
                };
                let top = psd.freq(4096);
                let on_bin = |x: f64| psd.freq((x.clamp(0.0, 1.0) * 4096.0) as usize);
                let (lo, hi) = match mode {
                    // Random band; reversed when v < u, so empty.
                    0 => (u * top, v * top),
                    // Edges exactly on bin frequencies, and one ulp either side.
                    1 => (on_bin(u), on_bin(v)),
                    2 => (on_bin(u).next_down(), on_bin(v).next_up()),
                    3 => (on_bin(u).next_up(), on_bin(v).next_down()),
                    // Below zero, and beyond Nyquist.
                    4 => (-(u.abs() + 0.01) * top, v * top),
                    5 => (u * top, top * (1.0 + v.abs()) + psd.bin_hz),
                    // Empty and non-finite edges.
                    _ => {
                        let pick = |x: f64| odd[((x.abs() * 50.0) as usize) % odd.len()];
                        (pick(u), if v > 0.5 { pick(v) } else { u * top })
                    }
                };
                let (got, want) = (psd.band_power(lo, hi), every_bin(&psd, lo, hi));
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "[{lo}, {hi}) at {} Hz/bin: {got} vs {want}",
                    psd.bin_hz
                );
                Ok(())
            },
        );
        // No bins, no width: nothing to sum, as before.
        assert_eq!(Psd::default().band_power(0.0, 1.0), 0.0);
        let flat = Psd {
            density: vec![1.0; 8],
            bin_hz: 0.0,
        };
        assert_eq!(
            flat.band_power(0.0, 1.0).to_bits(),
            every_bin(&flat, 0.0, 1.0).to_bits()
        );
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
