//! The timer-interrupt FM0 modulator (Fig. 6b, Sec. 4.3).
//!
//! The timer fires once per raw-bit interval; the ISR sets the MOSFET gate
//! pin from the pre-encoded packet buffer, toggling the PZT between its
//! reflective and absorptive states. Because the interval is programmed in
//! *timer ticks* of the drifting 12 kHz clock, the real on-air raw-bit
//! duration is `divider / f_actual` — the reader's decoder must absorb
//! that time-scaling, which is why the paper pairs higher UL rates with
//! lower SNR and occasional losses (Fig. 12).

use arachnet_core::bits::BitBuf;
use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::UlPacket;

use crate::mcu::McuClock;

/// One pin-state interval produced by the modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinInterval {
    /// Start time (s).
    pub start: f64,
    /// Duration (s).
    pub duration: f64,
    /// Pin level (true = reflective).
    pub level: bool,
}

/// The firmware modulator of one tag.
#[derive(Debug, Clone)]
pub struct Fm0Modulator {
    clock: McuClock,
    /// Programmed clock divider = timer ticks per raw bit.
    divider: u32,
}

impl Fm0Modulator {
    /// Modulator with the given clock and divider (e.g. 32 → 375 bps).
    pub fn new(clock: McuClock, divider: u32) -> Self {
        assert!(divider >= 1);
        Self { clock, divider }
    }

    /// Updates the supply voltage (clock drift follows the supercap).
    pub fn set_supply(&mut self, v: f64) {
        self.clock.set_supply(v);
    }

    /// Actual on-air raw-bit duration (s) under the current clock.
    pub fn actual_raw_interval(&self) -> f64 {
        self.clock.ticks_to_seconds(self.divider)
    }

    /// Modulates arbitrary data bits starting at `t0`, returning the FM0
    /// raw line bits and the pin timeline.
    pub fn modulate_bits(&self, data: &BitBuf, t0: f64) -> (BitBuf, Vec<PinInterval>) {
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(data.iter());
        let dt = self.actual_raw_interval();
        let timeline = raw
            .iter()
            .enumerate()
            .map(|(i, level)| PinInterval {
                start: t0 + i as f64 * dt,
                duration: dt,
                level,
            })
            .collect();
        (raw, timeline)
    }

    /// Modulates a full uplink packet starting at `t0`.
    pub fn modulate_packet(&self, packet: &UlPacket, t0: f64) -> (BitBuf, Vec<PinInterval>) {
        self.modulate_bits(&packet.to_bits(), t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arachnet_core::fm0;
    use arachnet_core::packet::UL_PACKET_BITS;

    #[test]
    fn divider_sets_nominal_rate() {
        let bps =
            |divider| 1.0 / Fm0Modulator::new(McuClock::ideal(), divider).actual_raw_interval();
        assert!((bps(32) - 375.0).abs() < 1e-9);
        assert!((bps(4) - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_is_contiguous_and_uniform() {
        let m = Fm0Modulator::new(McuClock::ideal(), 32);
        let data = BitBuf::from_u32(0b1011_0010, 8);
        let (raw, tl) = m.modulate_bits(&data, 1.0);
        assert_eq!(tl.len(), raw.len());
        assert_eq!(tl.len(), 16);
        for w in tl.windows(2) {
            assert!((w[1].start - (w[0].start + w[0].duration)).abs() < 1e-12);
            assert_eq!(w[0].duration, w[1].duration);
        }
        assert_eq!(tl[0].start, 1.0);
    }

    #[test]
    fn timeline_levels_match_fm0() {
        let m = Fm0Modulator::new(McuClock::ideal(), 32);
        let data = BitBuf::from_u32(0b1100, 4);
        let (raw, tl) = m.modulate_bits(&data, 0.0);
        for (i, iv) in tl.iter().enumerate() {
            assert_eq!(Some(iv.level), raw.get(i));
        }
        // And the raw stream decodes back.
        let dec = fm0::decode(&raw, true).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn clock_drift_scales_duration() {
        let fast = Fm0Modulator::new(McuClock::with_tolerance(0.03), 32);
        let slow = Fm0Modulator::new(McuClock::with_tolerance(-0.03), 32);
        // A fast clock finishes each tick sooner → shorter raw bits.
        assert!(fast.actual_raw_interval() < slow.actual_raw_interval());
        let nominal = 32.0 / 12_000.0;
        assert!((fast.actual_raw_interval() - nominal / 1.03).abs() < 1e-9);
    }

    #[test]
    fn packet_duration_matches_paper_estimate() {
        // 32-bit packet at 375 bps ≈ 171 ms ("~200 ms" with guard).
        let m = Fm0Modulator::new(McuClock::ideal(), 32);
        let d = 2.0 * UL_PACKET_BITS as f64 * m.actual_raw_interval();
        assert!((d - 64.0 / 375.0).abs() < 1e-9);
    }

    #[test]
    fn modulate_packet_emits_64_raw_bits() {
        let m = Fm0Modulator::new(McuClock::ideal(), 32);
        let p = UlPacket::new(5, 0x3A1).unwrap();
        let (raw, tl) = m.modulate_packet(&p, 0.0);
        assert_eq!(raw.len(), 64);
        assert_eq!(tl.len(), 64);
    }

    #[test]
    fn supply_change_affects_interval() {
        let mut m = Fm0Modulator::new(McuClock::ideal(), 32);
        let before = m.actual_raw_interval();
        m.set_supply(1.95);
        assert!(
            m.actual_raw_interval() > before,
            "sagging supply slows the clock"
        );
    }

    #[test]
    #[should_panic]
    fn zero_divider_panics() {
        Fm0Modulator::new(McuClock::ideal(), 0);
    }
}
