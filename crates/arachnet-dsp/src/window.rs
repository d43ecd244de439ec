//! Window functions for spectral estimation.

use std::f64::consts::PI;

/// Window shapes supported by the PSD estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No tapering.
    Rectangular,
    /// Hann (raised cosine) — the Welch default here.
    Hann,
}

impl Window {
    /// Generates the window coefficients for length `n`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        assert!(n > 0);
        if n == 1 {
            return vec![1.0];
        }
        (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
                }
            })
            .collect()
    }

    /// Sum of squared coefficients (the PSD normalization factor).
    pub fn power(self, n: usize) -> f64 {
        self.coefficients(n).iter().map(|c| c * c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(8)
            .iter()
            .all(|&c| c == 1.0));
    }

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_one() {
        let w = Window::Hann.coefficients(65);
        assert!(w[0].abs() < 1e-12);
        assert!(w[64].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for win in [Window::Rectangular, Window::Hann] {
            let w = win.coefficients(64);
            for i in 0..32 {
                assert!(
                    (w[i] - w[63 - i]).abs() < 1e-12,
                    "{win:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn power_matches_manual_sum() {
        let n = 47;
        let w = Window::Hann.coefficients(n);
        let manual: f64 = w.iter().map(|c| c * c).sum();
        assert!((Window::Hann.power(n) - manual).abs() < 1e-12);
    }

    #[test]
    fn length_one_window() {
        for win in [Window::Rectangular, Window::Hann] {
            assert_eq!(win.coefficients(1), vec![1.0]);
        }
    }
}
