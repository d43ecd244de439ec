//! CRC-8 used by the uplink packet (Fig. 5a).
//!
//! The paper allocates an 8-bit CRC to the 24 information bits
//! (preamble + TID + payload) of each uplink packet. We use the ubiquitous
//! CRC-8/ATM polynomial `x^8 + x^2 + x + 1` (0x07), computed bit-serially —
//! exactly how a 12 kHz MSP430 with no CRC peripheral would compute it while
//! assembling the packet.

use crate::bits::BitBuf;

/// Generator polynomial, normal form (implicit leading x^8): `0x07`.
pub const POLY: u8 = 0x07;

/// Initial register value.
pub const INIT: u8 = 0x00;

/// Computes the CRC-8 of a bit sequence, MSB first.
///
/// ```
/// use arachnet_core::crc::crc8_bits;
/// use arachnet_core::bits::BitBuf;
/// let msg = BitBuf::from_u32(0x31_3233, 24); // "123" in ASCII
/// assert_eq!(crc8_bits(msg.iter()), crc8_bits(msg.iter())); // deterministic
/// ```
pub fn crc8_bits<I: Iterator<Item = bool>>(bits: I) -> u8 {
    let mut reg: u8 = INIT;
    for bit in bits {
        let msb = (reg & 0x80 != 0) ^ bit;
        reg <<= 1;
        if msb {
            reg ^= POLY;
        }
    }
    reg
}

/// Verifies a message followed by its CRC: the register must return to zero.
pub fn verify(bits_with_crc: &BitBuf) -> bool {
    crc8_bits(bits_with_crc.iter()) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // CRC-8/ATM ("CRC-8") check value for "123456789" is 0xF4, each
        // byte MSB first.
        let mut bits = BitBuf::new();
        for &b in b"123456789" {
            bits.push_u8(b, 8);
        }
        assert_eq!(crc8_bits(bits.iter()), 0xF4);
    }

    #[test]
    fn empty_message_is_init() {
        assert_eq!(crc8_bits(std::iter::empty()), INIT);
    }

    #[test]
    fn appending_crc_zeroes_register() {
        let mut msg = BitBuf::new();
        msg.push_u32(0x000A_BCDE, 20);
        let crc = crc8_bits(msg.iter());
        let mut framed = msg.clone();
        framed.push_u8(crc, 8);
        assert!(verify(&framed));
    }

    #[test]
    fn detects_any_single_bit_error() {
        let mut msg = BitBuf::new();
        msg.push_u32(0x0000_F00D, 24);
        let crc = crc8_bits(msg.iter());
        let mut framed = msg.clone();
        framed.push_u8(crc, 8);
        for i in 0..framed.len() {
            let mut corrupted = framed.clone();
            corrupted.set(i, !corrupted.get(i).unwrap());
            assert!(!verify(&corrupted), "single-bit error at {i} undetected");
        }
    }

    #[test]
    fn detects_all_double_bit_errors_in_packet_sized_message() {
        // The CRC-8/ATM polynomial has Hamming distance 4 up to 119 bits, so
        // every 2-bit error in our 32-bit packet must be caught.
        let mut msg = BitBuf::new();
        msg.push_u32(0xDEAD55, 24);
        let crc = crc8_bits(msg.iter());
        let mut framed = msg.clone();
        framed.push_u8(crc, 8);
        for i in 0..framed.len() {
            for j in (i + 1)..framed.len() {
                let mut c = framed.clone();
                c.set(i, !c.get(i).unwrap());
                c.set(j, !c.get(j).unwrap());
                assert!(!verify(&c), "double-bit error at ({i},{j}) undetected");
            }
        }
    }

    #[test]
    fn detects_burst_errors_up_to_8_bits() {
        let mut msg = BitBuf::new();
        msg.push_u32(0x15C0DE, 24);
        let crc = crc8_bits(msg.iter());
        let mut framed = msg.clone();
        framed.push_u8(crc, 8);
        // Any burst of length <= 8 (the CRC width) must be detected.
        for start in 0..framed.len() {
            for len in 1..=8usize {
                if start + len > framed.len() {
                    continue;
                }
                let mut c = framed.clone();
                // A burst must flip its first and last bit to have that length.
                c.set(start, !c.get(start).unwrap());
                if len > 1 {
                    c.set(start + len - 1, !c.get(start + len - 1).unwrap());
                }
                assert!(!verify(&c), "burst at {start} len {len} undetected");
            }
        }
    }
}
