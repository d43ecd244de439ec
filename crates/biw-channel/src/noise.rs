//! Channel noise sources.
//!
//! Two components, matching Sec. 2.2's discussion:
//!
//! * an **electronic/acoustic noise floor** — white Gaussian, set by the
//!   DAQ front end and ambient micro-vibration at ultrasonic frequencies;
//! * **vehicle self-vibration** — large-amplitude but entirely below
//!   0.1 kHz ("their frequency is below 0.1 kHz, while our communication
//!   operates at 90 kHz"). It dominates the raw waveform yet is trivially
//!   separated in frequency; including it lets the evaluation demonstrate
//!   exactly that robustness.
//!
//! The generator is deterministic (xorshift + Box–Muller) so every
//! experiment is reproducible from its seed.

use std::f64::consts::PI;

/// Deterministic Gaussian noise source.
#[derive(Debug, Clone)]
pub struct NoiseSource {
    state: u64,
    cached: Option<f64>,
}

impl NoiseSource {
    /// Creates a source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0xBAD5EED } else { seed },
            cached: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample (Box–Muller, cached pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let u1 = self.unit();
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * PI * u2).sin_cos();
        self.cached = Some(r * s);
        r * c
    }
}

/// Configuration of the combined channel noise.
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// White noise standard deviation (normalized amplitude units).
    pub floor_sigma: f64,
    /// Peak amplitude of the vehicle vibration component.
    pub vibration_amp: f64,
    /// Vehicle vibration fundamental (Hz) — the paper bounds it < 100 Hz.
    pub vibration_hz: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            floor_sigma: 0.01,
            vibration_amp: 0.0,
            vibration_hz: 30.0,
        }
    }
}

impl NoiseConfig {
    /// No noise at all (unit tests of other components).
    pub fn silent() -> Self {
        Self {
            floor_sigma: 0.0,
            vibration_amp: 0.0,
            vibration_hz: 30.0,
        }
    }
}

/// Streaming combined-noise generator.
#[derive(Debug, Clone)]
pub struct ChannelNoise {
    cfg: NoiseConfig,
    src: NoiseSource,
    fs: f64,
    n: u64,
}

impl ChannelNoise {
    /// Generator at sample rate `fs` with the given config and seed.
    pub fn new(cfg: NoiseConfig, fs: f64, seed: u64) -> Self {
        Self {
            cfg,
            src: NoiseSource::new(seed),
            fs,
            n: 0,
        }
    }

    /// Next noise sample.
    ///
    /// Not an `Iterator`: the stream is infinite and the per-sample hot
    /// path should not thread `Option` through.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        let t = self.n as f64 / self.fs;
        self.n += 1;
        let vib = if self.cfg.vibration_amp > 0.0 {
            // A few low harmonics make it engine-like; all below 100 Hz.
            self.cfg.vibration_amp
                * (0.7 * (2.0 * PI * self.cfg.vibration_hz * t).sin()
                    + 0.25 * (2.0 * PI * 2.0 * self.cfg.vibration_hz * t).sin()
                    + 0.05 * (2.0 * PI * 3.0 * self.cfg.vibration_hz * t).sin())
        } else {
            0.0
        };
        vib + self.cfg.floor_sigma * self.src.gaussian()
    }

    /// Overwrites `out` with the next `out.len()` noise samples
    /// (allocation-free counterpart of [`ChannelNoise::block`]). Produces
    /// the exact stream repeated [`ChannelNoise::next`] calls would; when
    /// the vibration component is off, it skips the per-sample time
    /// bookkeeping that component needs.
    pub fn fill(&mut self, out: &mut [f64]) {
        if self.cfg.vibration_amp > 0.0 {
            for x in out.iter_mut() {
                *x = self.next();
            }
            return;
        }
        // Floor-only fast path: the `0.0 +` mirrors `vib +` in `next` so
        // the emitted values match it bit for bit (-0.0 included).
        let sigma = self.cfg.floor_sigma;
        self.n += out.len() as u64;
        for x in out.iter_mut() {
            *x = 0.0 + sigma * self.src.gaussian();
        }
    }

    /// Fills a block with noise.
    pub fn block(&mut self, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.fill(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noise while the vehicle idles with systems running: a strong
    /// sub-100 Hz component on top of the floor.
    fn vehicle_running() -> NoiseConfig {
        NoiseConfig {
            vibration_amp: 0.5,
            ..NoiseConfig::default()
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut s = NoiseSource::new(42);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| s.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = ChannelNoise::new(NoiseConfig::default(), 500e3, 7);
        let mut b = ChannelNoise::new(NoiseConfig::default(), 500e3, 7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChannelNoise::new(NoiseConfig::default(), 500e3, 1);
        let mut b = ChannelNoise::new(NoiseConfig::default(), 500e3, 2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert!(same < 4);
    }

    #[test]
    fn fill_matches_streaming_next() {
        // The fast path must emit the exact stream `next` would, including
        // across fill boundaries (the vibration clock keeps advancing).
        for cfg in [NoiseConfig::default(), vehicle_running()] {
            let mut a = ChannelNoise::new(cfg, 500e3, 21);
            let mut b = ChannelNoise::new(cfg, 500e3, 21);
            let mut buf = [0.0; 257];
            for _ in 0..2 {
                a.fill(&mut buf);
                for x in buf {
                    assert_eq!(x, b.next());
                }
            }
        }
    }

    #[test]
    fn silent_config_is_zero() {
        let mut n = ChannelNoise::new(NoiseConfig::silent(), 500e3, 9);
        assert!(n.block(1_000).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn vibration_energy_is_below_100hz() {
        // Verify the frequency-separation claim: with vehicle vibration on,
        // nearly all noise power sits below 100 Hz.
        let fs = 50_000.0;
        let cfg = NoiseConfig {
            floor_sigma: 0.0,
            ..vehicle_running()
        };
        let mut n = ChannelNoise::new(cfg, fs, 3);
        let block = n.block(1 << 15);
        // Goertzel at the harmonics vs at 5 kHz.
        let p30 = tone_power(&block, fs, 30.0);
        let p5k = tone_power(&block, fs, 5_000.0);
        assert!(p30 > 1e-3, "vibration fundamental missing: {p30}");
        assert!(p5k < p30 * 1e-4, "vibration leaked to 5 kHz: {p5k}");
    }

    #[test]
    fn floor_sigma_scales_power() {
        let fs = 500e3;
        let mk = |sigma| {
            let cfg = NoiseConfig {
                floor_sigma: sigma,
                vibration_amp: 0.0,
                vibration_hz: 30.0,
            };
            let mut n = ChannelNoise::new(cfg, fs, 11);
            let b = n.block(50_000);
            b.iter().map(|x| x * x).sum::<f64>() / b.len() as f64
        };
        let p1 = mk(0.01);
        let p2 = mk(0.02);
        assert!((p2 / p1 - 4.0).abs() < 0.3, "power ratio {}", p2 / p1);
    }

    /// Minimal local Goertzel so this crate's tests don't depend on
    /// arachnet-dsp (keeps the dependency graph acyclic).
    fn tone_power(signal: &[f64], fs: f64, freq: f64) -> f64 {
        let w = 2.0 * PI * freq / fs;
        let coeff = 2.0 * w.cos();
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        for &x in signal {
            let s0 = x + coeff * s1 - s2;
            s2 = s1;
            s1 = s0;
        }
        let re = s1 * w.cos() - s2;
        let im = s1 * w.sin();
        (re * re + im * im) / (signal.len() as f64 * signal.len() as f64)
    }
}
