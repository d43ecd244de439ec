//! Planned real-input radix-2 FFT.
//!
//! Used by the Welch PSD estimator ([`crate::psd`]) that computes the
//! uplink SNR of Fig. 12(a). Power-of-two sizes only — the evaluation uses
//! segment lengths we control, so no need for mixed-radix machinery.

use crate::cplx::Cplx;
use std::f64::consts::PI;

/// Reusable real-input FFT plan: an `n`-point real transform computed as
/// one `n/2`-point complex FFT (even samples packed into the real part,
/// odd into the imaginary) plus an untangling pass. Roughly halves the
/// work of an `n`-point complex transform of the same signal and, because
/// the plan owns its buffers, repeated transforms of the same size
/// allocate nothing.
///
/// The pack writes each sample pair straight into its bit-reversed slot,
/// so the inner transform starts at its butterflies, and every stage reads
/// its twiddles from one contiguous slice. Every output equals, bit for
/// bit, the textbook order — natural-order pack, swap-loop permutation,
/// butterflies striding one `m/2`-entry twiddle table — since each value
/// meets the same operands and operations in the same order.
#[derive(Debug, Clone)]
pub struct RealFft {
    n: usize,
    packed: Vec<Cplx>,
    twiddle: Vec<Cplx>,
    /// `bitrev[k]`: the slot of sample pair `k` in the packed buffer, `k`
    /// with its `log2(n/2)` bits reversed.
    bitrev: Vec<usize>,
    /// Butterfly twiddles of the inner m-point complex FFT, stage by
    /// stage: the stage with block length `len` (4, 8, …, m) owns
    /// `stage_tw[len/2 - 2..len - 2]`, whose entry `k` is a copy of
    /// `cis(-2π·j/m)` at `j = k·(m/len)`. Precomputing them spares each
    /// butterfly a twiddle rotation.
    stage_tw: Vec<Cplx>,
}

impl RealFft {
    /// Plan for real signals of length `n` (power of two, ≥ 2).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "real FFT size {n} must be a power of two >= 2"
        );
        let m = n / 2;
        let table: Vec<Cplx> = (0..m / 2)
            .map(|k| Cplx::cis(-2.0 * PI * k as f64 / m as f64))
            .collect();
        let mut stage_tw = Vec::with_capacity(m.saturating_sub(2));
        let mut len = 4;
        while len <= m {
            let stride = m / len;
            stage_tw.extend((0..len / 2).map(|k| table[k * stride]));
            len <<= 1;
        }
        // A reversed-bit counter: `j` runs through the bit reversals of
        // 0, 1, 2, … in turn.
        let mut bitrev = vec![0; m];
        let mut j = 0usize;
        for slot in bitrev.iter_mut().skip(1) {
            let mut bit = m >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            *slot = j;
        }
        Self {
            n,
            packed: vec![Cplx::ZERO; m],
            twiddle: (0..m)
                .map(|k| Cplx::cis(-2.0 * PI * k as f64 / n as f64))
                .collect(),
            bitrev,
            stage_tw,
        }
    }

    /// Butterflies of the inner complex FFT over `data`, which the pack
    /// left in bit-reversed order: iterative radix-2 (Danielson–Lanczos)
    /// stages over the precomputed twiddles.
    fn butterflies(data: &mut [Cplx], stage_tw: &[Cplx]) {
        // First stage's only twiddle is 1: pure add/sub, no multiply.
        for pair in data.chunks_exact_mut(2) {
            let (u, v) = (pair[0], pair[1]);
            pair[0] = u + v;
            pair[1] = u - v;
        }
        let mut len = 4;
        while len <= data.len() {
            let half = len / 2;
            let tw = &stage_tw[half - 2..len - 2];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            len <<= 1;
        }
    }

    /// Planned transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// One-sided spectrum of `input` over bins `0..=n/2`, written into
    /// `out` (cleared and refilled; capacity reused): bin `k` is the DFT
    /// `X[k] = Σᵢ input[i]·e^(−2πj·ik/n)`, and the bins above `n/2` follow
    /// by conjugate symmetry.
    pub fn process(&mut self, input: &[f64], out: &mut Vec<Cplx>) {
        assert_eq!(
            input.len(),
            self.n,
            "input length {} != plan size {}",
            input.len(),
            self.n
        );
        for (pair, &slot) in input.chunks_exact(2).zip(&self.bitrev) {
            self.packed[slot] = Cplx::new(pair[0], pair[1]);
        }
        self.finish(out);
    }

    /// [`RealFft::process`] of the pointwise product `input[i] * window[i]`,
    /// multiplying during the pack so callers (the Welch estimator) don't
    /// need a separate windowed copy of each segment.
    pub fn process_windowed(&mut self, input: &[f64], window: &[f64], out: &mut Vec<Cplx>) {
        assert_eq!(
            input.len(),
            self.n,
            "input length {} != plan size {}",
            input.len(),
            self.n
        );
        assert_eq!(
            window.len(),
            self.n,
            "window length {} != plan size {}",
            window.len(),
            self.n
        );
        let pairs = input.chunks_exact(2).zip(window.chunks_exact(2));
        for ((pair, win), &slot) in pairs.zip(&self.bitrev) {
            self.packed[slot] = Cplx::new(pair[0] * win[0], pair[1] * win[1]);
        }
        self.finish(out);
    }

    /// Shared FFT + untangling tail of the `process*` entry points.
    fn finish(&mut self, out: &mut Vec<Cplx>) {
        let n = self.n;
        let m = n / 2;
        Self::butterflies(&mut self.packed, &self.stage_tw);
        out.clear();
        out.resize(m + 1, Cplx::ZERO);
        let z0 = self.packed[0];
        out[0] = Cplx::new(z0.re + z0.im, 0.0);
        out[m] = Cplx::new(z0.re - z0.im, 0.0);
        // Bin k pairs packed[k] with its mirror packed[m - k]: the same
        // slice forwards and backwards, from k = 1.
        let rest = &self.packed[1..];
        let mirrors = rest.iter().zip(rest.iter().rev());
        let bins = out[1..m].iter_mut().zip(&self.twiddle[1..]);
        for ((slot, &w), (&zk, &zm)) in bins.zip(mirrors) {
            let zc = zm.conj();
            // Even/odd sub-spectra: X[k] = E[k] + W_n^k · O[k].
            let even = (zk + zc).scale(0.5);
            let half_diff = (zk - zc).scale(0.5); // = j · O[k]
            let odd = Cplx::new(half_diff.im, -half_diff.re);
            *slot = even + w * odd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// Bins `0..=n/2` of the DFT of `signal`, straight from the definition.
    fn dft(signal: &[f64]) -> Vec<Cplx> {
        let n = signal.len();
        (0..=n / 2)
            .map(|k| {
                signal.iter().enumerate().fold(Cplx::ZERO, |acc, (i, &x)| {
                    let turn = ((i * k) % n) as f64 / n as f64;
                    acc + Cplx::cis(-2.0 * PI * turn) * x
                })
            })
            .collect()
    }

    #[test]
    fn real_fft_matches_the_dft_definition() {
        for n in [2usize, 4, 8, 64, 512, 1024] {
            let signal: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() + 0.5 * ((i * i) as f64 * 0.013).cos())
                .collect();
            let want = dft(&signal);
            let mut plan = RealFft::new(n);
            let mut got = Vec::new();
            plan.process(&signal, &mut got);
            assert_eq!(got.len(), n / 2 + 1);
            for (k, (z, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    close(z.re, w.re, 1e-8) && close(z.im, w.im, 1e-8),
                    "n={n} bin {k}: {z:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn real_fft_reuses_buffers() {
        let mut plan = RealFft::new(256);
        let signal = vec![1.0; 256];
        let mut out = Vec::new();
        plan.process(&signal, &mut out);
        let ptr = out.as_ptr();
        plan.process(&signal, &mut out);
        assert_eq!(out.as_ptr(), ptr, "output capacity not reused");
        assert!(close(out[0].re, 256.0, 1e-9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn real_fft_rejects_non_power_of_two() {
        RealFft::new(24);
    }

    /// The same real FFT in textbook order: a natural-order pack, the
    /// swap-loop permutation, butterflies reading every `(m/len)`-th entry
    /// of one `m/2`-entry twiddle table, then the untangling pass.
    /// `RealFft` must equal it bit for bit.
    fn swap_loop_reference(input: &[f64], window: Option<&[f64]>) -> Vec<Cplx> {
        let n = input.len();
        let m = n / 2;
        let twiddle: Vec<Cplx> = (0..m)
            .map(|k| Cplx::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let stage_tw: Vec<Cplx> = (0..m / 2)
            .map(|k| Cplx::cis(-2.0 * PI * k as f64 / m as f64))
            .collect();
        let mut data: Vec<Cplx> = (0..m)
            .map(|k| match window {
                Some(w) => Cplx::new(input[2 * k] * w[2 * k], input[2 * k + 1] * w[2 * k + 1]),
                None => Cplx::new(input[2 * k], input[2 * k + 1]),
            })
            .collect();
        if m > 1 {
            let mut j = 0usize;
            for i in 1..m {
                let mut bit = m >> 1;
                while j & bit != 0 {
                    j ^= bit;
                    bit >>= 1;
                }
                j |= bit;
                if i < j {
                    data.swap(i, j);
                }
            }
            for pair in data.chunks_exact_mut(2) {
                let (u, v) = (pair[0], pair[1]);
                pair[0] = u + v;
                pair[1] = u - v;
            }
            let mut len = 4;
            while len <= m {
                let stride = m / len;
                for start in (0..m).step_by(len) {
                    for k in 0..len / 2 {
                        let w = stage_tw[k * stride];
                        let u = data[start + k];
                        let v = data[start + k + len / 2] * w;
                        data[start + k] = u + v;
                        data[start + k + len / 2] = u - v;
                    }
                }
                len <<= 1;
            }
        }
        let mut out = vec![Cplx::ZERO; m + 1];
        out[0] = Cplx::new(data[0].re + data[0].im, 0.0);
        out[m] = Cplx::new(data[0].re - data[0].im, 0.0);
        for k in 1..m {
            let zk = data[k];
            let zc = data[m - k].conj();
            let even = (zk + zc).scale(0.5);
            let half_diff = (zk - zc).scale(0.5);
            let odd = Cplx::new(half_diff.im, -half_diff.re);
            out[k] = even + twiddle[k] * odd;
        }
        out
    }

    /// `n` samples from splitmix64, uniform in `[-scale, scale)`.
    fn noise(n: usize, seed: u64, scale: f64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            })
            .collect()
    }

    #[test]
    fn real_fft_is_bit_identical_to_the_swap_loop_reference() {
        use arachnet_testkit::{check, gen, prop_assert};
        let bits = |v: &[Cplx]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let agree = |log2n: usize, seed: u64| -> Result<(), String> {
            let n = 1usize << log2n;
            let scale = [1e-3, 1.0, 1e3][(seed % 3) as usize];
            let input = noise(n, seed, scale);
            let window: Vec<f64> = noise(n, !seed, 1.0).iter().map(|w| w.abs()).collect();
            // One plan for both calls: each pack must overwrite every slot.
            let mut plan = RealFft::new(n);
            let mut out = Vec::new();
            plan.process_windowed(&input, &window, &mut out);
            let want = swap_loop_reference(&input, Some(&window));
            prop_assert!(bits(&out) == bits(&want), "process_windowed, n = {n}");
            plan.process(&input, &mut out);
            let want = swap_loop_reference(&input, None);
            prop_assert!(bits(&out) == bits(&want), "process, n = {n}");
            Ok(())
        };
        // Every size once, then random sizes, contents and windows.
        for log2n in 1..=14 {
            agree(log2n, log2n as u64).unwrap();
        }
        let g = gen::zip(gen::usize_range(1, 15), gen::u64_any());
        check(
            "real_fft_is_bit_identical_to_the_swap_loop_reference",
            &g,
            |&(log2n, seed)| agree(log2n, seed),
        );
    }

    use std::f64::consts::PI;
}
