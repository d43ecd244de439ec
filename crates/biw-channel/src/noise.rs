//! Channel noise: the uplink's white Gaussian floor.
//!
//! The floor stands for the DAQ front end and ambient micro-vibration at
//! ultrasonic frequencies. It is the only noise term. Sec. 2.2's vehicle
//! self-vibration ("their frequency is below 0.1 kHz, while our
//! communication operates at 90 kHz") is not modelled, so the paper's
//! claim that it does not disturb decoding is not checked here.
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

/// Configuration of the channel noise.
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// White noise standard deviation (normalized amplitude units).
    pub floor_sigma: f64,
}

impl Default for NoiseConfig {
    /// σ = 0.01, the floor the unit tests and the `phy` bench's receiver
    /// rows synthesize at. The simulators use [`NoiseConfig::paper`].
    fn default() -> Self {
        Self { floor_sigma: 0.01 }
    }
}

impl NoiseConfig {
    /// The paper floor, σ = 0.013. The paper reports no noise level: this
    /// one is fitted so the uplink losses fall in Fig. 12(b)'s regime
    /// (sub-percent at low rates, growing with rate). Every simulator's
    /// `paper` environment reads it, so a refit is one edit here.
    pub fn paper() -> Self {
        Self { floor_sigma: 0.013 }
    }

    /// No noise at all (unit tests of other components).
    pub fn silent() -> Self {
        Self { floor_sigma: 0.0 }
    }
}

/// Streaming white-noise generator.
#[derive(Debug, Clone)]
pub struct ChannelNoise {
    cfg: NoiseConfig,
    src: NoiseSource,
}

impl ChannelNoise {
    /// Generator with the given config and seed.
    ///
    /// `_fs`, the sample rate, is unused: a white floor has no time axis.
    /// The argument stays because the benchmark in `perfbench/` rebuilds
    /// the uplink synthesis from public calls and passes it; it can go
    /// when that benchmark next changes.
    pub fn new(cfg: NoiseConfig, _fs: f64, seed: u64) -> Self {
        Self {
            cfg,
            src: NoiseSource::new(seed),
        }
    }

    /// Overwrites `out` with the next `out.len()` noise samples. The
    /// stream continues across calls: filling 2n samples at once equals
    /// filling n twice.
    pub fn fill(&mut self, out: &mut [f64]) {
        // The `0.0 +` turns a `-0.0` product (σ = 0 times a negative draw)
        // into `+0.0`, so a silent channel emits positive zeros.
        let sigma = self.cfg.floor_sigma;
        for x in out.iter_mut() {
            *x = 0.0 + sigma * self.src.gaussian();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(cfg: NoiseConfig, seed: u64, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        ChannelNoise::new(cfg, 500e3, seed).fill(&mut out);
        out
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
        let a = samples(NoiseConfig::default(), 7, 100);
        let b = samples(NoiseConfig::default(), 7, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = samples(NoiseConfig::default(), 1, 64);
        let b = samples(NoiseConfig::default(), 2, 64);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 4);
    }

    #[test]
    fn one_fill_of_2n_equals_two_fills_of_n() {
        // An odd n splits a cached Box–Muller pair across the two fills.
        let n = 257;
        let whole = samples(NoiseConfig::default(), 21, 2 * n);
        let mut halves = vec![0.0; 2 * n];
        let mut noise = ChannelNoise::new(NoiseConfig::default(), 500e3, 21);
        let (first, second) = halves.split_at_mut(n);
        noise.fill(first);
        noise.fill(second);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole), bits(&halves));
    }

    #[test]
    fn silent_config_is_positive_zero() {
        let out = samples(NoiseConfig::silent(), 9, 1_000);
        assert!(out.iter().all(|&x| x.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn floor_sigma_scales_power() {
        let power = |sigma| {
            let b = samples(NoiseConfig { floor_sigma: sigma }, 11, 50_000);
            b.iter().map(|x| x * x).sum::<f64>() / b.len() as f64
        };
        let p1 = power(0.01);
        let p2 = power(0.02);
        assert!((p2 / p1 - 4.0).abs() < 0.3, "power ratio {}", p2 / p1);
    }

    #[test]
    fn paper_floor_is_the_fitted_sigma() {
        assert_eq!(NoiseConfig::paper().floor_sigma, 0.013);
        assert_eq!(NoiseConfig::default().floor_sigma, 0.01);
    }
}
