//! Bit-rate and timing constants (Secs. 3.2, 4.1, 6.3, Fig. 14a).
//!
//! Every raw-bit interval on the tag is derived from the 12 kHz low-frequency
//! MCU clock through a divider, so the legal bit rates form the geometric
//! ladder 93.75 → 3000 bps (UL) and 125 → 2000 bps (DL). The defaults are the
//! paper's conservative choices: 375 bps up, 250 bps down.
//!
//! This module is the one home of the protocol and timing values; the
//! carrier and DAQ rate live with the medium, in `biw_channel::channel`.

use crate::packet::UL_PACKET_BITS;

/// Tag MCU low-frequency clock (Hz) — Sec. 3.2.
pub const MCU_CLOCK_HZ: f64 = 12_000.0;

/// Default UL raw bit rate (bps).
pub const DEFAULT_UL_BPS: f64 = 375.0;

/// Default DL raw bit rate (bps).
pub const DEFAULT_DL_BPS: f64 = 250.0;

/// Default slot duration (seconds) — Sec. 6.4 ("empirically set to 1 s").
pub const SLOT_DURATION_S: f64 = 1.0;

/// Tag reply guard time after a decoded beacon (seconds) — Fig. 14a
/// ("politely waits for 20 ms").
pub const TAG_REPLY_GUARD_S: f64 = 0.020;

/// Time from a decoded beacon to the end of the tag's reply (seconds):
/// the reply guard, then one uplink packet's FM0 air time (two raw bits
/// per data bit) at `ul_bps`. About 190.7 ms at the default 375 bps.
pub fn ul_reply_s(ul_bps: f64) -> f64 {
    TAG_REPLY_GUARD_S + 2.0 * UL_PACKET_BITS as f64 / ul_bps
}

/// UL clock dividers evaluated in Fig. 12 (12 kHz / divider = raw bps).
pub const UL_DIVIDERS: [u32; 6] = [128, 64, 32, 16, 8, 4];

/// DL raw bit rates evaluated in Fig. 13 (bps).
pub const DL_RATES_BPS: [f64; 5] = [125.0, 250.0, 500.0, 1000.0, 2000.0];

/// A raw bit rate derived from the MCU clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitRate {
    /// Raw bits per second.
    pub bps: f64,
}

impl BitRate {
    /// Rate from an MCU clock divider.
    pub fn from_divider(divider: u32) -> Self {
        assert!(divider > 0);
        Self {
            bps: MCU_CLOCK_HZ / f64::from(divider),
        }
    }

    /// MCU timer ticks per raw interval at the 12 kHz clock.
    pub fn ticks_per_raw(&self) -> f64 {
        MCU_CLOCK_HZ / self.bps
    }
}

/// The six UL rates of Fig. 12 in ascending order.
pub fn ul_rates() -> Vec<BitRate> {
    let mut v: Vec<BitRate> = UL_DIVIDERS
        .iter()
        .map(|&d| BitRate::from_divider(d))
        .collect();
    v.sort_by(|a, b| a.bps.total_cmp(&b.bps));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pie::{ONE_RAW_LEN, ZERO_RAW_LEN};

    /// On-air duration of `data_bits` FM0-coded bits (2 raw bits each).
    fn fm0_duration_s(bps: f64, data_bits: usize) -> f64 {
        2.0 * data_bits as f64 / bps
    }

    /// On-air duration of a PIE-coded message with the given bit counts.
    fn pie_duration_s(bps: f64, zeros: usize, ones: usize) -> f64 {
        (zeros * ZERO_RAW_LEN + ones * ONE_RAW_LEN) as f64 / bps
    }

    #[test]
    fn dividers_produce_paper_rates() {
        let rates = ul_rates();
        let expected = [93.75, 187.5, 375.0, 750.0, 1500.0, 3000.0];
        for (r, e) in rates.iter().zip(expected) {
            assert!((r.bps - e).abs() < 1e-9, "{} != {e}", r.bps);
        }
    }

    #[test]
    fn default_ul_rate_is_divider_32() {
        let r = BitRate::from_divider(32);
        assert!((r.bps - DEFAULT_UL_BPS).abs() < 1e-9);
    }

    #[test]
    fn ul_packet_duration_matches_paper_estimate() {
        // 32-bit packet, FM0 → 64 raw bits at 375 bps ≈ 171 ms; the paper
        // rounds the full slot cost to "~200 ms" including guard time.
        let d = fm0_duration_s(DEFAULT_UL_BPS, UL_PACKET_BITS);
        assert!((d - 64.0 / 375.0).abs() < 1e-12);
        assert!(d > 0.15 && d < 0.2, "{d}");
        assert!(d + TAG_REPLY_GUARD_S < 0.2 + 1e-9);
    }

    #[test]
    fn dl_beacon_duration_at_default_rate() {
        // 10-bit beacon, PIE: 20 + ones raw bits; at 250 bps that is
        // 80–120 ms depending on content.
        let min = pie_duration_s(DEFAULT_DL_BPS, 10, 0);
        let max = pie_duration_s(DEFAULT_DL_BPS, 0, 10);
        assert!((min - 0.080).abs() < 1e-12);
        assert!((max - 0.120).abs() < 1e-12);
    }

    #[test]
    fn ticks_per_raw_at_default_rates() {
        let ticks = |bps| BitRate { bps }.ticks_per_raw();
        assert!((ticks(375.0) - 32.0).abs() < 1e-12);
        assert!((ticks(250.0) - 48.0).abs() < 1e-12);
        // At 2000 bps DL only 6 ticks remain per raw bit — the root cause of
        // the Fig. 13(a) packet-loss surge.
        assert!((ticks(2000.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ul_reply_is_guard_plus_packet_air_time() {
        // Exact, not within a tolerance: Fig. 14(b)'s stage 2 and the slot
        // timing read this sum, and a regrouping would move their digits.
        assert_eq!(ul_reply_s(DEFAULT_UL_BPS), 0.020 + 2.0 * 32.0 / 375.0);
    }

    #[test]
    fn slot_fits_beacon_guard_and_packet() {
        let busy = pie_duration_s(DEFAULT_DL_BPS, 0, 10)
            + TAG_REPLY_GUARD_S
            + fm0_duration_s(DEFAULT_UL_BPS, UL_PACKET_BITS);
        assert!(busy < SLOT_DURATION_S, "slot too small: {busy}");
    }
}
