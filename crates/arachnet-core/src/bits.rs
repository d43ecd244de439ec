//! Compact bit buffer used by the packet codecs.
//!
//! Packets in ARACHNET are tiny (10–32 bits) and are processed one bit at a
//! time by an interrupt-driven MCU, so the natural unit of work everywhere in
//! this crate is a *bit*, not a byte. [`BitBuf`] stores bits MSB-first in a
//! packed byte vector and offers the handful of operations the codecs need:
//! push/get, field extraction/insertion, and iteration.

use std::fmt;

/// A growable, packed, MSB-first bit buffer.
///
/// ```
/// use arachnet_core::bits::BitBuf;
/// let mut b = BitBuf::new();
/// b.push_u8(0xA5, 8);
/// assert_eq!(b.len(), 8);
/// assert_eq!(b.get(0), Some(true));   // MSB of 0xA5
/// assert_eq!(b.get(7), Some(true));   // LSB of 0xA5
/// assert_eq!(b.extract_u16(0, 8), Some(0xA5));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitBuf {
    bytes: Vec<u8>,
    len: usize,
}

impl BitBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Builds a buffer from a slice of booleans (index 0 is transmitted
    /// first).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = Self::with_capacity(bits.len());
        for &bit in bits {
            b.push(bit);
        }
        b
    }

    /// Builds a buffer from the low `n` bits of `value`, MSB first.
    pub fn from_u32(value: u32, n: usize) -> Self {
        let mut b = Self::with_capacity(n);
        b.push_u32(value, n);
        b
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let byte_idx = self.len / 8;
        let bit_idx = self.len % 8;
        if bit_idx == 0 {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 0x80 >> bit_idx;
        }
        self.len += 1;
    }

    /// Appends the low `n` bits (n ≤ 8) of `value`, MSB first.
    pub fn push_u8(&mut self, value: u8, n: usize) {
        assert!(n <= 8, "push_u8 takes at most 8 bits");
        for i in (0..n).rev() {
            self.push(value >> i & 1 == 1);
        }
    }

    /// Appends the low `n` bits (n ≤ 32) of `value`, MSB first.
    pub fn push_u32(&mut self, value: u32, n: usize) {
        assert!(n <= 32, "push_u32 takes at most 32 bits");
        for i in (0..n).rev() {
            self.push(value >> i & 1 == 1);
        }
    }

    /// Appends every bit of `other`.
    pub fn extend(&mut self, other: &BitBuf) {
        for bit in other.iter() {
            self.push(bit);
        }
    }

    /// Returns the bit at `idx`, or `None` past the end.
    pub fn get(&self, idx: usize) -> Option<bool> {
        if idx >= self.len {
            return None;
        }
        Some(self.bytes[idx / 8] & (0x80 >> (idx % 8)) != 0)
    }

    /// Sets the bit at `idx`. Panics if out of range.
    pub fn set(&mut self, idx: usize, bit: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let mask = 0x80 >> (idx % 8);
        if bit {
            self.bytes[idx / 8] |= mask;
        } else {
            self.bytes[idx / 8] &= !mask;
        }
    }

    /// Extracts `n` bits (n ≤ 16) starting at `start` as an MSB-first
    /// integer. Returns `None` if the range does not fit.
    pub fn extract_u16(&self, start: usize, n: usize) -> Option<u16> {
        assert!(n <= 16, "extract_u16 reads at most 16 bits");
        if start + n > self.len {
            return None;
        }
        let mut v = 0u16;
        for i in 0..n {
            v = v << 1 | u16::from(self.get(start + i).unwrap());
        }
        Some(v)
    }

    /// Extracts a sub-range `[start, start + n)` as a new buffer.
    pub fn slice(&self, start: usize, n: usize) -> Option<BitBuf> {
        if start + n > self.len {
            return None;
        }
        let mut out = BitBuf::with_capacity(n);
        for i in 0..n {
            out.push(self.get(start + i).unwrap());
        }
        Some(out)
    }

    /// Iterates over bits in transmission order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter { buf: self, idx: 0 }
    }

    /// Collects the bits into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitBuf[")?;
        for bit in self.iter() {
            write!(f, "{}", u8::from(bit))?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitBuf {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut b = BitBuf::new();
        for bit in iter {
            b.push(bit);
        }
        b
    }
}

/// Iterator over the bits of a [`BitBuf`] in transmission order.
pub struct BitIter<'a> {
    buf: &'a BitBuf,
    idx: usize,
}

impl Iterator for BitIter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.buf.get(self.idx)?;
        self.idx += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.buf.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BitIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer() {
        let b = BitBuf::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.get(0), None);
    }

    #[test]
    fn push_and_get_single_bits() {
        let mut b = BitBuf::new();
        b.push(true);
        b.push(false);
        b.push(true);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), Some(true));
        assert_eq!(b.get(1), Some(false));
        assert_eq!(b.get(2), Some(true));
        assert_eq!(b.get(3), None);
    }

    #[test]
    fn push_u8_is_msb_first() {
        let mut b = BitBuf::new();
        b.push_u8(0b1011_0001, 8);
        assert_eq!(
            b.to_bools(),
            vec![true, false, true, true, false, false, false, true]
        );
    }

    #[test]
    fn push_u8_partial_width_takes_low_bits() {
        let mut b = BitBuf::new();
        b.push_u8(0b101, 3);
        assert_eq!(b.to_bools(), vec![true, false, true]);
    }

    #[test]
    fn push_u32_roundtrips_through_extract() {
        let mut b = BitBuf::new();
        b.push_u32(0xDEAD, 16);
        assert_eq!(b.extract_u16(0, 16), Some(0xDEAD));
        assert_eq!(b.extract_u16(4, 8), Some(0xEA));
    }

    #[test]
    fn extract_out_of_range_is_none() {
        let b = BitBuf::from_u32(0xF, 4);
        assert_eq!(b.extract_u16(0, 5), None);
        assert_eq!(b.extract_u16(4, 1), None);
        assert_eq!(b.extract_u16(0, 4), Some(0xF));
    }

    #[test]
    fn set_overwrites_bits() {
        let mut b = BitBuf::from_u32(0, 8);
        b.set(0, true);
        b.set(7, true);
        assert_eq!(b.extract_u16(0, 8), Some(0x81));
        b.set(0, false);
        assert_eq!(b.extract_u16(0, 8), Some(0x01));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_past_end_panics() {
        let mut b = BitBuf::from_u32(0, 4);
        b.set(4, true);
    }

    #[test]
    fn slice_extracts_subrange() {
        let b = BitBuf::from_u32(0b1010_1100, 8);
        let s = b.slice(2, 4).unwrap();
        assert_eq!(s.to_bools(), vec![true, false, true, true]);
        assert!(b.slice(5, 4).is_none());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BitBuf::from_u32(0b101, 3);
        let b = BitBuf::from_u32(0b01, 2);
        a.extend(&b);
        assert_eq!(a.to_bools(), vec![true, false, true, false, true]);
    }

    #[test]
    fn from_bools_matches_iter() {
        let bits = vec![true, true, false, true, false, false, true, true, true];
        let b = BitBuf::from_bools(&bits);
        assert_eq!(b.to_bools(), bits);
        assert_eq!(b.len(), 9);
    }

    #[test]
    fn from_iterator_collects() {
        let b: BitBuf = [true, false, true].into_iter().collect();
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(1), Some(false));
    }

    #[test]
    fn debug_format_is_binary_string() {
        let b = BitBuf::from_u32(0b101, 3);
        assert_eq!(format!("{b:?}"), "BitBuf[101]");
    }

    #[test]
    fn crosses_byte_boundaries() {
        let mut b = BitBuf::new();
        for i in 0..77 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 77);
        for i in 0..77 {
            assert_eq!(b.get(i), Some(i % 3 == 0), "bit {i}");
        }
    }
}
