//! Property-based tests over the protocol core (arachnet-testkit).

use arachnet_core::bits::BitBuf;
use arachnet_core::crc::{crc8_bits, verify};
use arachnet_core::fm0::{self, Fm0Encoder};
use arachnet_core::mac::{ProtocolConfig, TagMac};
use arachnet_core::packet::{DlBeacon, DlCmd, UlPacket};
use arachnet_core::pie;
use arachnet_core::rng::TagRng;
use arachnet_core::slot::{allocate, utilization, Period, Schedule};
use arachnet_testkit::gen;
use arachnet_testkit::{check, prop_assert, prop_assert_eq, prop_assume};

fn bits(max_len: usize) -> gen::Gen<Vec<bool>> {
    gen::vec(gen::boolean(), 0, max_len)
}

/// FM0 encode/decode is an exact inverse for any data.
#[test]
fn fm0_roundtrip() {
    check("fm0_roundtrip", &bits(255), |data| {
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(data.iter().copied());
        let dec = fm0::decode(&raw, true).unwrap();
        prop_assert_eq!(dec.to_bools(), *data);
        Ok(())
    });
}

/// FM0 raw streams never contain a run longer than 2 — the property the
/// reader's edge-domain decoder relies on.
#[test]
fn fm0_runs_bounded() {
    check("fm0_runs_bounded", &bits(255), |data| {
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(data.iter().copied()).to_bools();
        let mut run = 1;
        for w in raw.windows(2) {
            if w[0] == w[1] {
                run += 1;
                prop_assert!(run <= 2);
            } else {
                run = 1;
            }
        }
        Ok(())
    });
}

/// PIE encode/decode is an exact inverse.
#[test]
fn pie_roundtrip() {
    check("pie_roundtrip", &bits(127), |data| {
        let raw = pie::encode(data.iter().copied());
        let dec = pie::decode(&raw).unwrap();
        prop_assert_eq!(dec.to_bools(), *data);
        Ok(())
    });
}

/// CRC-8 detects every single- and double-bit error on packet-sized
/// messages.
#[test]
fn crc_detects_small_errors() {
    let g = gen::zip3(bits(23), gen::usize_range(0, 32), gen::usize_range(0, 32));
    check("crc_detects_small_errors", &g, |(data, i, j)| {
        let mut msg = BitBuf::from_bools(data);
        let crc = crc8_bits(msg.iter());
        msg.push_u8(crc, 8);
        let len = msg.len();
        let (i, j) = (i % len, j % len);
        let mut corrupted = msg.clone();
        corrupted.set(i, !corrupted.get(i).unwrap());
        if i != j {
            corrupted.set(j, !corrupted.get(j).unwrap());
        }
        prop_assert!(!verify(&corrupted));
        Ok(())
    });
}

/// UL packets roundtrip for every legal field combination.
#[test]
fn ul_packet_roundtrip() {
    let g = gen::zip(gen::u8_range(0, 16), gen::u16_range(0, 4096));
    check("ul_packet_roundtrip", &g, |&(tid, payload)| {
        let p = UlPacket::new(tid, payload).unwrap();
        let q = UlPacket::from_bits(&p.to_bits()).unwrap();
        prop_assert_eq!(p, q);
        Ok(())
    });
}

/// BitBuf extract/push are inverses for any value and width.
#[test]
fn bitbuf_field_roundtrip() {
    let g = gen::zip(
        gen::u64_any().map(|v| (v & 0xFFFF) as u16),
        gen::usize_range(1, 17),
    );
    check("bitbuf_field_roundtrip", &g, |&(value, width)| {
        let masked = value & ((1u32 << width) - 1) as u16;
        let mut b = BitBuf::new();
        b.push_u32(u32::from(masked), width);
        prop_assert_eq!(b.extract_u16(0, width), Some(masked));
        Ok(())
    });
}

/// The slot conflict rule matches brute-force schedule simulation.
#[test]
fn conflict_rule_matches_brute_force() {
    let periods = vec![1u32, 2, 4, 8, 16];
    let g = gen::zip4(
        gen::select(periods.clone()),
        gen::select(periods),
        gen::u32_range(0, 16),
        gen::u32_range(0, 16),
    );
    check(
        "conflict_rule_matches_brute_force",
        &g,
        |&(pa, pb, aa, ab)| {
            let (aa, ab) = (aa % pa, ab % pb);
            let sa = Schedule::new(Period::new(pa).unwrap(), aa).unwrap();
            let sb = Schedule::new(Period::new(pb).unwrap(), ab).unwrap();
            let brute = (0..128u64).any(|s| sa.fires_at(s) && sb.fires_at(s));
            prop_assert_eq!(sa.conflicts_with(&sb), brute);
            Ok(())
        },
    );
}

/// The vanilla allocator always succeeds within capacity and yields a
/// conflict-free schedule.
#[test]
fn allocator_is_sound() {
    let g = gen::vec(gen::usize_range(0, 5), 4, 4);
    check("allocator_is_sound", &g, |counts| {
        let period_values = [4u32, 8, 16, 32];
        let mut periods = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                periods.push(Period::new(period_values[i]).unwrap());
            }
        }
        prop_assume!(!periods.is_empty());
        prop_assume!(utilization(&periods) <= 1.0);
        let offsets = allocate(&periods).unwrap();
        let schedules: Vec<Schedule> = periods
            .iter()
            .zip(&offsets)
            .map(|(&p, &a)| Schedule::new(p, a).unwrap())
            .collect();
        for i in 0..schedules.len() {
            for j in (i + 1)..schedules.len() {
                prop_assert!(!schedules[i].conflicts_with(&schedules[j]));
            }
        }
        Ok(())
    });
}

/// The tag state machine keeps its offset within the period no matter the
/// beacon sequence it experiences.
#[test]
fn tag_mac_offset_stays_in_range() {
    let g = gen::zip3(
        gen::u64_any(),
        gen::select(vec![2u32, 4, 8, 16, 32]),
        gen::vec(gen::u8_range(0, 16), 1, 99),
    );
    check(
        "tag_mac_offset_stays_in_range",
        &g,
        |(seed, period, beacons)| {
            let mut tag = TagMac::new(
                1,
                Period::new(*period).unwrap(),
                ProtocolConfig::default(),
                TagRng::new(*seed),
            );
            for &nib in beacons {
                let cmd = DlCmd::from_nibble(nib);
                let _ = tag.on_beacon(cmd);
                prop_assert!(tag.offset() < *period);
                prop_assert!(tag.nack_run() < 3);
            }
            Ok(())
        },
    );
}

/// A tag only ever reaches SETTLE through an ACK for a slot it transmitted
/// in.
#[test]
fn settle_requires_acked_transmission() {
    let g = gen::zip(gen::u64_any(), gen::vec(gen::boolean(), 1, 199));
    check(
        "settle_requires_acked_transmission",
        &g,
        |(seed, beacons)| {
            let mut tag = TagMac::new(
                2,
                Period::new(4).unwrap(),
                ProtocolConfig {
                    empty_gating: false,
                    ..ProtocolConfig::default()
                },
                TagRng::new(*seed),
            );
            let mut transmitted_last = false;
            for &ack in beacons {
                let was_settled = tag.state() == arachnet_core::mac::MacState::Settle;
                let cmd = if ack { DlCmd::ack() } else { DlCmd::nack() };
                let act = tag.on_beacon(cmd);
                let now_settled = tag.state() == arachnet_core::mac::MacState::Settle;
                if !was_settled && now_settled {
                    prop_assert!(transmitted_last && ack, "settled without ACKed TX");
                }
                transmitted_last = act.transmit;
            }
            Ok(())
        },
    );
}

/// Beacon serialization roundtrips for every command nibble.
#[test]
fn beacon_roundtrip() {
    check("beacon_roundtrip", &gen::u8_range(0, 16), |&nibble| {
        let b = DlBeacon::new(DlCmd::from_nibble(nibble));
        prop_assert_eq!(DlBeacon::from_bits(&b.to_bits()).unwrap(), b);
        Ok(())
    });
}

/// The PulseDecoder classification threshold is exactly between the
/// nominal symbols for any rate in range.
#[test]
fn pulse_decoder_threshold_correct() {
    check(
        "pulse_decoder_threshold_correct",
        &gen::f64_range(4.0, 200.0),
        |&ticks_per_raw| {
            let d = pie::PulseDecoder::new(ticks_per_raw);
            prop_assert_eq!(d.classify(ticks_per_raw), Some(false));
            prop_assert_eq!(d.classify(2.0 * ticks_per_raw), Some(true));
            prop_assert_eq!(d.classify(1.49 * ticks_per_raw), Some(false));
            prop_assert_eq!(d.classify(1.51 * ticks_per_raw), Some(true));
            Ok(())
        },
    );
}
