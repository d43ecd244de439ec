//! The compact packet structures of Fig. 5.
//!
//! * **Uplink** (tag → reader): `Preamble(8) | TID(4) | Payload(12) | CRC(8)`
//!   — 32 bits, FM0-modulated, ≈171 ms on air at the default 375 bps raw
//!   rate (the paper quotes "~200 ms" including the reply guard time).
//! * **Downlink** (reader → tags, the *beacon*): `Preamble(6) | CMD(4)` —
//!   10 bits, PIE-modulated, deliberately CRC-free: every DL bit wakes every
//!   tag, so each bit of beacon costs system-wide energy (Sec. 4.2).
//!
//! The CMD nibble multiplexes the four commands of Sec. 4.2: ACK/NACK (bit
//! 0), the EMPTY slot-status flag of Sec. 5.5 (bit 1), RESET (bit 2) and a
//! RESERVED bit. The beacon carries **no tag ID** — tags decide relevance
//! themselves ("respond to ACK/NACK only if they transmitted at the last
//! slot").

use crate::bits::BitBuf;
use crate::crc::crc8_bits;

/// UL preamble bit pattern (8 bits). The pattern is *bifix-free* (no proper
/// suffix equals a prefix), so a shifted copy can never fully alias as a
/// packet start in the correlator.
pub const UL_PREAMBLE: [bool; 8] = [true, true, true, false, true, false, false, false];

/// DL preamble bit pattern (6 bits).
pub const DL_PREAMBLE: [bool; 6] = [true, true, false, true, false, false];

/// Width of the TID field — 4 bits supports up to 16 tags (Sec. 4.2).
pub const TID_BITS: usize = 4;
/// Width of the sensor payload field.
pub const PAYLOAD_BITS: usize = 12;
/// Total UL packet length in data bits.
pub const UL_PACKET_BITS: usize = 8 + TID_BITS + PAYLOAD_BITS + 8;
/// Total DL beacon length in data bits.
pub const DL_PACKET_BITS: usize = 6 + 4;

/// Errors raised when constructing or parsing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// TID does not fit the 4-bit field.
    TidOutOfRange {
        /// Offending value.
        tid: u8,
    },
    /// Payload does not fit the 12-bit field.
    PayloadOutOfRange {
        /// Offending value.
        payload: u16,
    },
    /// Bit buffer has the wrong length for this packet type.
    WrongLength {
        /// Expected bit count.
        expected: usize,
        /// Actual bit count.
        actual: usize,
    },
    /// Preamble did not match.
    BadPreamble,
    /// CRC check failed.
    BadCrc,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::TidOutOfRange { tid } => write!(f, "TID {tid} exceeds 4-bit field"),
            PacketError::PayloadOutOfRange { payload } => {
                write!(f, "payload {payload:#x} exceeds 12-bit field")
            }
            PacketError::WrongLength { expected, actual } => {
                write!(
                    f,
                    "wrong packet length: expected {expected} bits, got {actual}"
                )
            }
            PacketError::BadPreamble => write!(f, "preamble mismatch"),
            PacketError::BadCrc => write!(f, "CRC check failed"),
        }
    }
}

impl std::error::Error for PacketError {}

/// An uplink packet: tag ID plus a 12-bit sensor reading (Fig. 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UlPacket {
    tid: u8,
    payload: u16,
}

impl UlPacket {
    /// Builds a packet, validating field widths.
    pub fn new(tid: u8, payload: u16) -> Result<Self, PacketError> {
        if tid >= 1 << TID_BITS {
            return Err(PacketError::TidOutOfRange { tid });
        }
        if payload >= 1 << PAYLOAD_BITS {
            return Err(PacketError::PayloadOutOfRange { payload });
        }
        Ok(Self { tid, payload })
    }

    /// Tag ID (0–15).
    pub fn tid(&self) -> u8 {
        self.tid
    }

    /// Sensor payload (12 bits).
    pub fn payload(&self) -> u16 {
        self.payload
    }

    /// Serializes to the 32-bit on-air representation, computing the CRC over
    /// preamble + TID + payload.
    pub fn to_bits(&self) -> BitBuf {
        let mut b = BitBuf::with_capacity(UL_PACKET_BITS);
        for bit in UL_PREAMBLE {
            b.push(bit);
        }
        b.push_u8(self.tid, TID_BITS);
        b.push_u32(u32::from(self.payload), PAYLOAD_BITS);
        let crc = crc8_bits(b.iter());
        b.push_u8(crc, 8);
        b
    }

    /// Parses a 32-bit buffer, checking preamble and CRC.
    pub fn from_bits(bits: &BitBuf) -> Result<Self, PacketError> {
        if bits.len() != UL_PACKET_BITS {
            return Err(PacketError::WrongLength {
                expected: UL_PACKET_BITS,
                actual: bits.len(),
            });
        }
        for (i, &p) in UL_PREAMBLE.iter().enumerate() {
            if bits.get(i) != Some(p) {
                return Err(PacketError::BadPreamble);
            }
        }
        if crc8_bits(bits.iter()) != 0 {
            return Err(PacketError::BadCrc);
        }
        let tid = bits.extract_u16(8, TID_BITS).unwrap() as u8;
        let payload = bits.extract_u16(8 + TID_BITS, PAYLOAD_BITS).unwrap();
        Ok(Self { tid, payload })
    }

    /// Parses the body of a packet when the preamble was consumed by the
    /// correlator (the common reader-side path): expects
    /// `TID(4) | Payload(12) | CRC(8)` = 24 bits, and recomputes the CRC
    /// including the implicit preamble.
    pub fn from_body_bits(body: &BitBuf) -> Result<Self, PacketError> {
        if body.len() != UL_PACKET_BITS - 8 {
            return Err(PacketError::WrongLength {
                expected: UL_PACKET_BITS - 8,
                actual: body.len(),
            });
        }
        let mut full = BitBuf::with_capacity(UL_PACKET_BITS);
        for bit in UL_PREAMBLE {
            full.push(bit);
        }
        full.extend(body);
        Self::from_bits(&full)
    }
}

/// The 4-bit downlink command nibble.
///
/// Bit layout (MSB-first on air): `ACK | EMPTY | RESET | RESERVED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DlCmd {
    /// ACK (true) / NACK (false) for the tag(s) that transmitted last slot.
    pub ack: bool,
    /// EMPTY flag of Sec. 5.5 — the *current* slot is predicted unoccupied,
    /// so late-arriving tags may contend in it.
    pub empty: bool,
    /// RESET — all tags drop to initial state (used to start experiments).
    pub reset: bool,
    /// Reserved for future use.
    pub reserved: bool,
}

impl DlCmd {
    /// Plain positive acknowledgement.
    pub fn ack() -> Self {
        Self {
            ack: true,
            ..Self::default()
        }
    }

    /// Plain negative acknowledgement.
    pub fn nack() -> Self {
        Self::default()
    }

    /// Network reset command.
    pub fn reset() -> Self {
        Self {
            reset: true,
            ..Self::default()
        }
    }

    /// Sets the EMPTY flag.
    pub fn with_empty(mut self, empty: bool) -> Self {
        self.empty = empty;
        self
    }

    /// Packs into the 4-bit nibble.
    pub fn to_nibble(&self) -> u8 {
        u8::from(self.ack) << 3
            | u8::from(self.empty) << 2
            | u8::from(self.reset) << 1
            | u8::from(self.reserved)
    }

    /// Unpacks from a 4-bit nibble.
    pub fn from_nibble(n: u8) -> Self {
        Self {
            ack: n & 0b1000 != 0,
            empty: n & 0b0100 != 0,
            reset: n & 0b0010 != 0,
            reserved: n & 0b0001 != 0,
        }
    }
}

/// A downlink beacon (Fig. 5b): just a preamble and a command nibble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DlBeacon {
    /// Command carried by this beacon.
    pub cmd: DlCmd,
}

impl DlBeacon {
    /// Builds a beacon around a command.
    pub fn new(cmd: DlCmd) -> Self {
        Self { cmd }
    }

    /// Serializes to the 10-bit on-air representation.
    pub fn to_bits(&self) -> BitBuf {
        let mut b = BitBuf::with_capacity(DL_PACKET_BITS);
        for bit in DL_PREAMBLE {
            b.push(bit);
        }
        b.push_u8(self.cmd.to_nibble(), 4);
        b
    }

    /// Parses a 10-bit buffer; only the preamble is checked (the DL format
    /// has no CRC by design — Sec. 4.2).
    pub fn from_bits(bits: &BitBuf) -> Result<Self, PacketError> {
        if bits.len() != DL_PACKET_BITS {
            return Err(PacketError::WrongLength {
                expected: DL_PACKET_BITS,
                actual: bits.len(),
            });
        }
        for (i, &p) in DL_PREAMBLE.iter().enumerate() {
            if bits.get(i) != Some(p) {
                return Err(PacketError::BadPreamble);
            }
        }
        let nibble = bits.extract_u16(6, 4).unwrap() as u8;
        Ok(Self {
            cmd: DlCmd::from_nibble(nibble),
        })
    }
}

/// Streaming preamble matcher used by the tag firmware: as each DL bit is
/// decoded it is shifted in, and [`PreambleMatcher::push`] reports when the
/// preamble has just completed.
#[derive(Debug, Clone)]
pub struct PreambleMatcher {
    pattern: Vec<bool>,
    window: Vec<bool>,
}

impl PreambleMatcher {
    /// Matcher for the DL preamble.
    pub fn downlink() -> Self {
        Self::new(&DL_PREAMBLE)
    }

    /// Matcher for the UL preamble.
    pub fn uplink() -> Self {
        Self::new(&UL_PREAMBLE)
    }

    /// Matcher for an arbitrary pattern.
    pub fn new(pattern: &[bool]) -> Self {
        Self {
            pattern: pattern.to_vec(),
            window: Vec::with_capacity(pattern.len()),
        }
    }

    /// Shifts in one decoded bit; returns `true` when the last
    /// `pattern.len()` bits equal the pattern.
    pub fn push(&mut self, bit: bool) -> bool {
        if self.window.len() == self.pattern.len() {
            self.window.remove(0);
        }
        self.window.push(bit);
        self.window.len() == self.pattern.len() && self.window == self.pattern
    }

    /// Clears the shift register (called after a packet completes).
    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ul_packet_roundtrip() {
        for tid in [0u8, 1, 7, 15] {
            for payload in [0u16, 1, 0x5A7, 0xFFF] {
                let p = UlPacket::new(tid, payload).unwrap();
                let bits = p.to_bits();
                assert_eq!(bits.len(), 32);
                let q = UlPacket::from_bits(&bits).unwrap();
                assert_eq!(p, q);
            }
        }
    }

    #[test]
    fn ul_rejects_wide_fields() {
        assert_eq!(
            UlPacket::new(16, 0),
            Err(PacketError::TidOutOfRange { tid: 16 })
        );
        assert_eq!(
            UlPacket::new(0, 0x1000),
            Err(PacketError::PayloadOutOfRange { payload: 0x1000 })
        );
    }

    #[test]
    fn ul_detects_corrupted_payload() {
        let p = UlPacket::new(5, 0xABC).unwrap();
        let mut bits = p.to_bits();
        bits.set(15, !bits.get(15).unwrap());
        assert_eq!(UlPacket::from_bits(&bits), Err(PacketError::BadCrc));
    }

    #[test]
    fn ul_detects_corrupted_preamble() {
        let p = UlPacket::new(5, 0xABC).unwrap();
        let mut bits = p.to_bits();
        bits.set(0, !bits.get(0).unwrap());
        assert_eq!(UlPacket::from_bits(&bits), Err(PacketError::BadPreamble));
    }

    #[test]
    fn ul_rejects_wrong_length() {
        let short = BitBuf::from_u32(0, 31);
        assert!(matches!(
            UlPacket::from_bits(&short),
            Err(PacketError::WrongLength {
                expected: 32,
                actual: 31
            })
        ));
    }

    #[test]
    fn ul_body_parse_matches_full_parse() {
        let p = UlPacket::new(9, 0x123).unwrap();
        let bits = p.to_bits();
        let body = bits.slice(8, 24).unwrap();
        assert_eq!(UlPacket::from_body_bits(&body).unwrap(), p);
    }

    #[test]
    fn dl_beacon_roundtrip_all_commands() {
        for n in 0u8..16 {
            let cmd = DlCmd::from_nibble(n);
            let b = DlBeacon::new(cmd);
            let bits = b.to_bits();
            assert_eq!(bits.len(), 10);
            assert_eq!(DlBeacon::from_bits(&bits).unwrap(), b);
            assert_eq!(cmd.to_nibble(), n);
        }
    }

    #[test]
    fn dl_cmd_constructors() {
        assert!(DlCmd::ack().ack);
        assert!(!DlCmd::nack().ack);
        assert!(DlCmd::reset().reset);
        assert!(DlCmd::ack().with_empty(true).empty);
    }

    #[test]
    fn dl_bad_preamble_rejected() {
        let b = DlBeacon::new(DlCmd::ack());
        let mut bits = b.to_bits();
        bits.set(2, !bits.get(2).unwrap());
        assert_eq!(DlBeacon::from_bits(&bits), Err(PacketError::BadPreamble));
    }

    #[test]
    fn preamble_matcher_fires_once_at_end_of_pattern() {
        let mut m = PreambleMatcher::downlink();
        let mut fired = Vec::new();
        for (i, &b) in DL_PREAMBLE.iter().enumerate() {
            if m.push(b) {
                fired.push(i);
            }
        }
        assert_eq!(fired, vec![DL_PREAMBLE.len() - 1]);
    }

    #[test]
    fn preamble_matcher_finds_pattern_mid_stream() {
        let mut m = PreambleMatcher::downlink();
        let mut stream: Vec<bool> = vec![false, true, false];
        stream.extend_from_slice(&DL_PREAMBLE);
        let mut hits = 0;
        for b in stream {
            if m.push(b) {
                hits += 1;
            }
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn preamble_matcher_reset_clears_state() {
        let mut m = PreambleMatcher::downlink();
        for &b in &DL_PREAMBLE[..5] {
            m.push(b);
        }
        m.reset();
        // Completing the pattern after reset must not fire.
        assert!(!m.push(DL_PREAMBLE[5]));
    }

    #[test]
    fn ul_preamble_has_sharp_autocorrelation() {
        // No shifted overlap of the preamble with itself should match in all
        // overlapping positions — guards against false sync.
        for shift in 1..UL_PREAMBLE.len() {
            let overlap = UL_PREAMBLE.len() - shift;
            let matches = (0..overlap)
                .filter(|&i| UL_PREAMBLE[i + shift] == UL_PREAMBLE[i])
                .count();
            assert!(matches < overlap, "shift {shift} fully self-matches");
        }
    }

    #[test]
    fn dl_packet_is_10_bits_as_designed() {
        // Sec. 4.2: adding TID+CRC would double the 10-bit design.
        assert_eq!(DL_PACKET_BITS, 10);
        assert_eq!(UL_PACKET_BITS, 32);
    }
}
