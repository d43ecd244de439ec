//! Subcarrier (FDMA) backscatter modulation — the paper's future-work
//! extension for throughput ("FDMA-based techniques", ref. 27, Sec. 6.3).
//!
//! Instead of FM0 at baseband, a tag toggles its reflection at a
//! *subcarrier* frequency `k × bit rate` and BPSK-modulates its data onto
//! it: data bit 1 transmits the subcarrier square wave, data bit 0 its
//! inverse. Tags assigned different integer `k` are orthogonal over a bit
//! window (each contains a whole number of subcarrier cycles), so several
//! tags can transmit *in the same slot* and the reader separates them by
//! frequency — multiplying uplink throughput without touching the MAC.

use arachnet_core::bits::BitBuf;

/// A subcarrier channel assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubcarrierChannel {
    /// Subcarrier cycles per data bit (the FDMA channel index). Distinct
    /// integers are mutually orthogonal over one bit.
    pub cycles_per_bit: u32,
}

impl SubcarrierChannel {
    /// A channel with `k` cycles per bit (k ≥ 2 keeps the subcarrier well
    /// above the bit rate).
    pub fn new(cycles_per_bit: u32) -> Self {
        assert!(cycles_per_bit >= 2, "subcarrier must exceed the bit rate");
        Self { cycles_per_bit }
    }

    /// Chips (reflection states) per data bit — two per subcarrier cycle.
    pub fn chips_per_bit(&self) -> u32 {
        2 * self.cycles_per_bit
    }

    /// The ±1 chip template of one data-bit window (a square wave).
    pub fn chip_template(&self) -> Vec<f64> {
        (0..self.chips_per_bit())
            .map(|c| if c % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    /// Modulates data bits into reflection chips: bit 1 → template, bit 0 →
    /// inverted template.
    pub fn modulate(&self, data: &BitBuf) -> Vec<bool> {
        let mut chips = Vec::with_capacity(data.len() * self.chips_per_bit() as usize);
        for bit in data.iter() {
            for c in 0..self.chips_per_bit() {
                let chip_high = c % 2 == 0;
                chips.push(chip_high == bit);
            }
        }
        chips
    }

    /// *Exact* orthogonality check over one bit window.
    ///
    /// Square waves carry odd harmonics only, so channels `k1 ≠ k2`
    /// interfere iff some odd multiple of `k1` equals an odd multiple of
    /// `k2` — equivalently, iff `k1/k2` in lowest terms is an odd/odd
    /// ratio (e.g. 3 and 5 share their 15th harmonic, with ≈5 % residual
    /// cross-talk). Pick assignments where each pair has an even factor in
    /// its reduced ratio.
    pub fn orthogonal_to(&self, other: &SubcarrierChannel) -> bool {
        if self.cycles_per_bit == other.cycles_per_bit {
            return false;
        }
        fn gcd(a: u32, b: u32) -> u32 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let g = gcd(self.cycles_per_bit, other.cycles_per_bit);
        let (r1, r2) = (self.cycles_per_bit / g, other.cycles_per_bit / g);
        // Exactly orthogonal unless both reduced terms are odd.
        !(r1 % 2 == 1 && r2 % 2 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_counts() {
        let ch = SubcarrierChannel::new(6);
        assert_eq!(ch.chips_per_bit(), 12);
        assert_eq!(ch.chip_template().len(), 12);
    }

    #[test]
    fn template_is_dc_free_square() {
        let ch = SubcarrierChannel::new(5);
        let t = ch.chip_template();
        assert_eq!(t.iter().sum::<f64>(), 0.0);
        for w in t.windows(2) {
            assert_eq!(w[0], -w[1]);
        }
    }

    #[test]
    fn modulation_encodes_bits_as_phase() {
        let ch = SubcarrierChannel::new(2);
        let data = BitBuf::from_bools(&[true, false]);
        let chips = ch.modulate(&data);
        // bit 1: template as-is (high, low, high, low);
        // bit 0: inverted (low, high, low, high).
        assert_eq!(
            chips,
            vec![true, false, true, false, false, true, false, true]
        );
    }

    #[test]
    fn distinct_channels_are_orthogonal_over_a_bit() {
        // Discrete orthogonality of the square templates at a common chip
        // grid: upsample both to the lcm grid and correlate. These pairs
        // have an even factor in their reduced ratio → exactly orthogonal.
        for (a, b) in [(2u32, 3u32), (2, 5), (6, 9), (4, 6)] {
            let ca = SubcarrierChannel::new(a);
            let cb = SubcarrierChannel::new(b);
            assert!(ca.orthogonal_to(&cb));
            let n = num_lcm(ca.chips_per_bit(), cb.chips_per_bit()) as usize;
            let upsample = |ch: &SubcarrierChannel| -> Vec<f64> {
                let t = ch.chip_template();
                let rep = n / t.len();
                t.iter()
                    .flat_map(|&v| std::iter::repeat_n(v, rep))
                    .collect()
            };
            let ua = upsample(&ca);
            let ub = upsample(&cb);
            let dot: f64 = ua.iter().zip(&ub).map(|(x, y)| x * y).sum();
            assert!(dot.abs() < 1e-9, "channels {a}/{b} not orthogonal: {dot}");
        }
    }

    fn num_lcm(a: u32, b: u32) -> u32 {
        fn gcd(a: u32, b: u32) -> u32 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        a / gcd(a, b) * b
    }

    #[test]
    fn odd_odd_ratios_are_flagged_non_orthogonal() {
        // 3 and 5 share their 15th harmonic; 9 and 15 their 45th.
        assert!(!SubcarrierChannel::new(3).orthogonal_to(&SubcarrierChannel::new(5)));
        assert!(!SubcarrierChannel::new(9).orthogonal_to(&SubcarrierChannel::new(15)));
        assert!(SubcarrierChannel::new(6).orthogonal_to(&SubcarrierChannel::new(9)));
        assert!(SubcarrierChannel::new(9).orthogonal_to(&SubcarrierChannel::new(16)));
        assert!(!SubcarrierChannel::new(7).orthogonal_to(&SubcarrierChannel::new(7)));
    }

    #[test]
    #[should_panic(expected = "exceed the bit rate")]
    fn too_low_subcarrier_rejected() {
        SubcarrierChannel::new(1);
    }
}
