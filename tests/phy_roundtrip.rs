//! Integration: waveform-level PHY round trips across tags and rates.

use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::{DlBeacon, DlCmd, UlPacket};
use arachnet_reader::rx::{RxConfig, UplinkReceiver};
use arachnet_reader::tx::BeaconTransmitter;
use arachnet_sim::wavesim::WaveSim;
use arachnet_tag::demod::PieDemodulator;
use arachnet_tag::mcu::McuClock;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;

fn channel(noise: NoiseConfig, seed: u64) -> BiwChannel {
    BiwChannel::paper(ChannelConfig {
        noise,
        seed,
        ..ChannelConfig::default()
    })
}

fn uplink_wave(ch: &BiwChannel, tid: u8, pkt: &UlPacket, bps: f64) -> Vec<f64> {
    let mut enc = Fm0Encoder::new();
    let raw = enc.encode(pkt.to_bits().iter()).to_bools();
    let spb = (500_000.0f64 / bps).round() as usize;
    let mut states = vec![PztState::Absorptive; 8 * spb];
    states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
    states.extend(vec![PztState::Absorptive; 8 * spb]);
    let len = states.len();
    ch.uplink_waveform(&[(tid, &states)], len)
}

/// Every deployed tag's uplink decodes at the default rate with realistic
/// noise.
#[test]
fn every_tag_uplink_decodes_at_default_rate() {
    let ch = channel(NoiseConfig::default(), 21);
    let rx = UplinkReceiver::new(RxConfig::default());
    for tid in 1..=12u8 {
        let pkt = UlPacket::new(tid, 0x700 | u16::from(tid)).unwrap();
        let wave = uplink_wave(&ch, tid, &pkt, 375.0);
        let out = rx.process_slot(&wave);
        assert_eq!(out.packet, Some(pkt), "tag {tid} failed");
        assert!(!out.collision, "tag {tid} falsely flagged");
    }
}

/// The three evaluation tags decode at every Fig. 12 rate (quiet channel —
/// the loss statistics live in the wavesim trials).
#[test]
fn evaluation_tags_decode_at_all_rates() {
    let ch = channel(NoiseConfig::silent(), 22);
    for tid in [8u8, 4, 11] {
        for bps in [93.75, 187.5, 375.0, 750.0, 1_500.0, 3_000.0] {
            let pkt = UlPacket::new(tid, 0xABC).unwrap();
            let rx = UplinkReceiver::new(RxConfig {
                ul_bps: bps,
                ..RxConfig::default()
            });
            let wave = uplink_wave(&ch, tid, &pkt, bps);
            assert_eq!(
                rx.process_slot(&wave).packet,
                Some(pkt),
                "tag {tid} at {bps} bps"
            );
        }
    }
}

/// Downlink beacons decode at every tag with jitter, delay, and
/// envelope-response distortion at the default rate.
#[test]
fn every_tag_downlink_decodes_at_default_rate() {
    let sim = WaveSim::paper(23);
    for tid in 1..=12u8 {
        let r = sim.downlink_trial(tid, 250.0, 40);
        assert!(
            r.lost <= 1,
            "tag {tid}: {}/{} beacons lost at the default rate",
            r.lost,
            r.sent
        );
    }
}

/// The full command vocabulary survives the downlink: every CMD nibble
/// arrives intact.
#[test]
fn all_dl_commands_roundtrip_through_edges() {
    let mut tx = BeaconTransmitter::new(250.0, 31).without_jitter();
    for nibble in 0..16u8 {
        let beacon = DlBeacon::new(DlCmd::from_nibble(nibble));
        let edges = tx.edges(&beacon, 0.0);
        let mut demod = PieDemodulator::new(McuClock::ideal(), 250.0);
        let out = demod.feed_edges(&edges);
        assert_eq!(out.len(), 1, "nibble {nibble}");
        assert_eq!(out[0].beacon, beacon);
    }
}

/// Collision detection stays reliable across tag pairs.
#[test]
fn collisions_flagged_for_tag_pairs() {
    let ch = channel(NoiseConfig::silent(), 24);
    let rx = UplinkReceiver::new(RxConfig::default());
    let spb = (500_000.0f64 / 375.0).round() as usize;
    let mk = |tid: u8, payload: u16| {
        let pkt = UlPacket::new(tid, payload).unwrap();
        let mut enc = Fm0Encoder::new();
        let raw = enc.encode(pkt.to_bits().iter()).to_bools();
        let mut s = vec![PztState::Absorptive; 8 * spb];
        s.extend(BiwChannel::states_from_raw_bits(&raw, spb));
        s.extend(vec![PztState::Absorptive; 8 * spb]);
        s
    };
    for (a, b) in [(8u8, 7u8), (8, 5), (7, 6)] {
        let sa = mk(a, 0x155);
        let sb = mk(b, 0xEAA);
        let len = sa.len();
        let wave = ch.uplink_waveform(&[(a, &sa), (b, &sb)], len);
        let out = rx.process_slot(&wave);
        assert!(
            out.collision,
            "pair ({a},{b}) not flagged: {} clusters",
            out.clusters
        );
    }
}

/// SNR ladder: received SNR orders by path gain for all three evaluation
/// tags at the default rate, and every tag keeps a positive margin.
#[test]
fn snr_ladder_is_ordered_and_positive() {
    let sim = WaveSim::paper(25);
    let snr = |tid: u8| sim.uplink_trial(tid, 375.0, 1).snr_db;
    let (s8, s4, s11) = (snr(8), snr(4), snr(11));
    assert!(s8 > s4 && s4 > s11, "s8={s8:.1} s4={s4:.1} s11={s11:.1}");
    assert!(s11 > 3.0, "weakest link margin too small: {s11:.1} dB");
}
