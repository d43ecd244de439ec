//! A minimal complex-number type for IQ processing.
//!
//! The reader's RX chain mixes the real 500 kHz DAQ stream down to baseband
//! and works on IQ pairs from then on. A full complex-math crate would be
//! overkill; [`Cplx`] provides exactly the operations the pipeline uses.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number (f64 re/im).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real (in-phase) part.
    pub re: f64,
    /// Imaginary (quadrature) part.
    pub im: f64,
}

impl Cplx {
    /// Zero.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };

    /// Constructs from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Constructs `e^{iθ}` (unit phasor).
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Argument (phase) in radians, `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Cplx {
    type Output = Cplx;
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cplx {
    fn sub_assign(&mut self, rhs: Cplx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cplx {
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: f64) -> Cplx {
        self.scale(rhs)
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    fn div(self, rhs: f64) -> Cplx {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Cplx::new(3.0, -4.0);
        assert_eq!(z + Cplx::ZERO, z);
        assert_eq!(z * Cplx::ONE, z);
        assert_eq!(z - z, Cplx::ZERO);
        assert_eq!(-z, Cplx::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        let p = a * b;
        assert!(close(p.re, 5.0) && close(p.im, 5.0));
    }

    #[test]
    fn conj_mul_gives_norm() {
        let z = Cplx::new(3.0, -4.0);
        let n = z * z.conj();
        assert!(close(n.re, 25.0) && close(n.im, 0.0));
        assert!(close(z.norm_sq(), 25.0));
        assert!(close(z.abs(), 5.0));
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..8 {
            let theta = PI * f64::from(k) / 4.0;
            let z = Cplx::cis(theta);
            assert!(close(z.abs(), 1.0));
            assert!(
                (z.arg() - theta)
                    .rem_euclid(2.0 * PI)
                    .min((2.0 * PI - (z.arg() - theta).rem_euclid(2.0 * PI)).abs(),)
                    < 1e-12
            );
        }
    }

    #[test]
    fn assign_ops() {
        let mut z = Cplx::new(1.0, 1.0);
        z += Cplx::new(1.0, -1.0);
        assert_eq!(z, Cplx::new(2.0, 0.0));
        z -= Cplx::new(0.5, 0.0);
        assert_eq!(z, Cplx::new(1.5, 0.0));
        z *= Cplx::new(0.0, 2.0);
        assert_eq!(z, Cplx::new(0.0, 3.0));
    }

    #[test]
    fn real_scaling() {
        let z = Cplx::new(2.0, -6.0);
        assert_eq!(z * 0.5, Cplx::new(1.0, -3.0));
        assert_eq!(z / 2.0, Cplx::new(1.0, -3.0));
    }
}
