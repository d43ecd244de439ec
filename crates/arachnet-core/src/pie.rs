//! Pulse-interval encoding (PIE) for the downlink (Sec. 4.1, Fig. 6a).
//!
//! The reader keys the 90 kHz carrier on and off; the tag's envelope
//! detector and comparator turn this into a binary waveform. Each PIE
//! symbol is a HIGH pulse followed by exactly one LOW raw interval:
//!
//! * bit **0** → raw `10`  (high for 1 interval, low for 1);
//! * bit **1** → raw `110` (high for 2 intervals, low for 1).
//!
//! The tag decodes by *timing the high pulse* between the rising and falling
//! edge (Fig. 6a): the rising edge resets the MCU timer, the falling edge
//! latches it, and a threshold of 1.5 raw intervals discriminates the two
//! symbols. This module contains both the ideal raw-bit codec (used by the
//! slot-level simulator) and the duration-based decoder that mirrors the
//! interrupt-driven firmware (used by the waveform-level simulation, where
//! timer quantisation and reader jitter distort the durations).

use crate::bits::BitBuf;

/// Raw intervals occupied by a PIE `0` symbol.
pub const ZERO_RAW_LEN: usize = 2;
/// Raw intervals occupied by a PIE `1` symbol.
pub const ONE_RAW_LEN: usize = 3;

/// Encodes data bits into raw line bits.
///
/// ```
/// use arachnet_core::pie;
/// use arachnet_core::bits::BitBuf;
/// let raw = pie::encode(BitBuf::from_bools(&[false, true]).iter());
/// assert_eq!(raw.to_bools(), vec![true, false, true, true, false]);
/// ```
pub fn encode<I: Iterator<Item = bool>>(data: I) -> BitBuf {
    let mut out = BitBuf::new();
    for bit in data {
        out.push(true);
        if bit {
            out.push(true);
        }
        out.push(false);
    }
    out
}

/// Errors from raw-bit PIE decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PieError {
    /// The stream ended in the middle of a symbol.
    Truncated,
    /// A high pulse was longer than 2 raw intervals (no valid symbol).
    PulseTooLong {
        /// Raw-bit index where the over-long pulse starts.
        at: usize,
    },
    /// The stream did not start with a high pulse.
    MissingPulse {
        /// Raw-bit index of the offending position.
        at: usize,
    },
}

impl std::fmt::Display for PieError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PieError::Truncated => write!(f, "PIE stream truncated mid-symbol"),
            PieError::PulseTooLong { at } => write!(f, "PIE pulse too long at raw bit {at}"),
            PieError::MissingPulse { at } => write!(f, "expected PIE pulse at raw bit {at}"),
        }
    }
}

impl std::error::Error for PieError {}

/// Decodes an exact raw-bit stream produced by [`encode`].
pub fn decode(raw: &BitBuf) -> Result<BitBuf, PieError> {
    let mut out = BitBuf::new();
    let mut i = 0;
    while i < raw.len() {
        if !raw.get(i).unwrap() {
            return Err(PieError::MissingPulse { at: i });
        }
        // Count the high run.
        let mut high = 1;
        while raw.get(i + high) == Some(true) {
            high += 1;
        }
        if high > 2 {
            return Err(PieError::PulseTooLong { at: i });
        }
        // Mandatory trailing low.
        if raw.get(i + high).is_none() {
            return Err(PieError::Truncated);
        }
        out.push(high == 2);
        i += high + 1;
    }
    Ok(out)
}

/// Duration-based symbol decoder mirroring the tag firmware.
///
/// The firmware measures each high pulse in *timer ticks* and compares it to
/// a threshold. With a raw interval of `ticks_per_raw` ticks, the threshold
/// sits halfway between the nominal 1-interval and 2-interval pulses.
#[derive(Debug, Clone)]
pub struct PulseDecoder {
    /// Nominal timer ticks per raw interval.
    ticks_per_raw: f64,
}

impl PulseDecoder {
    /// New decoder for the given nominal raw-interval length in ticks.
    pub fn new(ticks_per_raw: f64) -> Self {
        assert!(ticks_per_raw > 0.0);
        Self { ticks_per_raw }
    }

    /// Threshold (in ticks) separating the 0-symbol and 1-symbol pulses.
    pub fn threshold(&self) -> f64 {
        1.5 * self.ticks_per_raw
    }

    /// Classifies one measured high-pulse duration. Pulses shorter than half
    /// a raw interval or longer than 2.5 intervals are rejected as glitches.
    pub fn classify(&self, ticks: f64) -> Option<bool> {
        if ticks < 0.5 * self.ticks_per_raw || ticks > 2.5 * self.ticks_per_raw {
            return None;
        }
        Some(ticks > self.threshold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[bool]) {
        let raw = encode(data.iter().copied());
        let dec = decode(&raw).unwrap();
        assert_eq!(dec.to_bools(), data);
    }

    #[test]
    fn zero_is_10() {
        assert_eq!(encode([false].into_iter()).to_bools(), vec![true, false]);
    }

    #[test]
    fn one_is_110() {
        assert_eq!(
            encode([true].into_iter()).to_bools(),
            vec![true, true, false]
        );
    }

    #[test]
    fn roundtrip_all_4bit_patterns() {
        for v in 0u8..16 {
            let data: Vec<bool> = (0..4).rev().map(|i| v >> i & 1 == 1).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn beacon_raw_length_matches_paper_math() {
        // A 10-bit DL beacon with k ones occupies 20 + k raw bits; at the
        // default 250 bps this is 80–120 ms, matching Sec. 4.2's "short DL".
        let all_zero = encode(std::iter::repeat_n(false, 10));
        let all_one = encode(std::iter::repeat_n(true, 10));
        assert_eq!(all_zero.len(), 20);
        assert_eq!(all_one.len(), 30);
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut raw = encode([true].into_iter());
        let cut = raw.slice(0, raw.len() - 1).unwrap();
        raw = cut;
        assert_eq!(decode(&raw), Err(PieError::Truncated));
    }

    #[test]
    fn missing_pulse_rejected() {
        let raw = BitBuf::from_bools(&[false, true, false]);
        assert_eq!(decode(&raw), Err(PieError::MissingPulse { at: 0 }));
    }

    #[test]
    fn long_pulse_rejected() {
        let raw = BitBuf::from_bools(&[true, true, true, false]);
        assert_eq!(decode(&raw), Err(PieError::PulseTooLong { at: 0 }));
    }

    #[test]
    fn pulse_decoder_classifies_nominal_durations() {
        let d = PulseDecoder::new(48.0); // 12 kHz clock / 250 bps
        assert_eq!(d.classify(48.0), Some(false));
        assert_eq!(d.classify(96.0), Some(true));
    }

    #[test]
    fn pulse_decoder_threshold_is_midpoint() {
        let d = PulseDecoder::new(48.0);
        assert_eq!(d.threshold(), 72.0);
        assert_eq!(d.classify(71.9), Some(false));
        assert_eq!(d.classify(72.1), Some(true));
    }

    #[test]
    fn pulse_decoder_rejects_glitches() {
        let d = PulseDecoder::new(48.0);
        assert_eq!(d.classify(10.0), None); // runt pulse
        assert_eq!(d.classify(200.0), None); // stuck-high
    }

    #[test]
    fn pulse_decoder_tolerates_moderate_jitter() {
        let d = PulseDecoder::new(48.0);
        // ±20% timing error must not flip a symbol.
        assert_eq!(d.classify(48.0 * 1.2), Some(false));
        assert_eq!(d.classify(96.0 * 0.8), Some(true));
    }
}
