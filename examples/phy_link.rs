//! The physical link, end to end: bits → vibration → bits.
//!
//! Walks one uplink packet and one downlink beacon through the full
//! waveform pipeline — FM0/PIE coding, the calibrated BiW acoustic
//! channel (spreading, damping, junction losses, resonance), the reader's
//! DSP chain (down-conversion, decimation, adaptive slicing, edge-domain
//! decoding, IQ collision detection) and the tag's interrupt-driven
//! demodulator — printing what each stage sees.
//!
//! Run: `cargo run --release --example phy_link`

use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::{DlBeacon, DlCmd, UlPacket};
use arachnet_reader::rx::{RxConfig, RxScratch, UplinkReceiver};
use arachnet_reader::tx::BeaconTransmitter;
use arachnet_sim::wavesim::WaveSim;
use arachnet_tag::demod::PieDemodulator;
use arachnet_tag::mcu::McuClock;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;

fn main() {
    let channel = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig {
            floor_sigma: 0.02,
            ..NoiseConfig::default()
        },
        ..ChannelConfig::default()
    });

    // --- Link budget -----------------------------------------------------
    println!("per-tag link budget (one-way gain / carrier voltage at tag):");
    for tid in [8u8, 7, 4, 11] {
        let site = channel.deployment().site(tid).unwrap();
        println!(
            "  tag {tid:2}: path {:.2} m, {} seam(s), {} perp — gain {:.3}, V_P {:.3} V, delay {:.0} us",
            site.path.length_m,
            site.path.seam_junctions,
            site.path.perp_junctions,
            site.path.gain(),
            channel.tag_carrier_voltage(tid).unwrap(),
            site.path.delay_s() * 1e6
        );
    }

    // --- Uplink: tag 11 (the hardest link) -------------------------------
    let pkt = UlPacket::new(11, 0xBEE).unwrap();
    let mut enc = Fm0Encoder::new();
    let raw = enc.encode(pkt.to_bits().iter()).to_bools();
    let spb = (500_000.0f64 / 375.0).round() as usize;
    let mut states = vec![PztState::Absorptive; 8 * spb];
    states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
    states.extend(vec![PztState::Absorptive; 8 * spb]);
    let len = states.len();
    let wave = channel.uplink_waveform(&[(11, &states)], len);

    let rx = UplinkReceiver::new(RxConfig::default());
    let mut scratch = RxScratch::default();
    let out = rx.process_slot_with(&wave, &mut scratch);
    let clusters = rx.iq_clusters(&mut scratch);
    let snr = rx.uplink_snr_db(&wave);
    println!("\nuplink (tag 11 → reader at 375 bps):");
    println!(
        "  {} raw FM0 bits over {:.0} ms, {} waveform samples",
        raw.len(),
        raw.len() as f64 / 375.0 * 1e3,
        wave.len()
    );
    println!("  decoded: {:?}", out.packet);
    println!("  IQ clusters: {clusters} (collision: {})", clusters > 2);
    println!("  PSD-band SNR: {snr:.1} dB");
    assert_eq!(out.packet, Some(pkt), "the weakest tag must decode cleanly");

    // --- Downlink: the same beacon at every tag --------------------------
    let mut tx = BeaconTransmitter::new(250.0, 5);
    let beacon = DlBeacon::new(DlCmd::ack().with_empty(true));
    let edges = tx.edges(&beacon, 0.0);
    println!("\ndownlink (reader beacon at 250 bps, with software jitter):");
    let sim = WaveSim::paper(5);
    for tid in [8u8, 4, 11] {
        let mut demod = PieDemodulator::new(McuClock::for_tag(5, tid), 250.0);
        // The wavesim transforms edges by path delay + envelope rise/fall.
        let dl = sim.downlink_trial(tid, 250.0, 50);
        let direct = demod.feed_edges(&edges);
        println!(
            "  tag {tid:2}: ideal-channel decode {}, lossy-channel {}/{} beacons ok",
            if direct.first().map(|d| d.beacon) == Some(beacon) {
                "ok"
            } else {
                "FAILED"
            },
            dl.sent - dl.lost,
            dl.sent
        );
    }

    // --- Collision: two tags at once -------------------------------------
    let p7 = UlPacket::new(7, 0x111).unwrap();
    let mut e7 = Fm0Encoder::new();
    let raw7 = e7.encode(p7.to_bits().iter()).to_bools();
    let mut s7 = vec![PztState::Absorptive; 8 * spb];
    s7.extend(BiwChannel::states_from_raw_bits(&raw7, spb));
    s7.extend(vec![PztState::Absorptive; 8 * spb]);
    let wave2 = channel.uplink_waveform(&[(11, &states), (7, &s7)], len);
    rx.process_slot_with(&wave2, &mut scratch);
    let clusters2 = rx.iq_clusters(&mut scratch);
    println!(
        "\ntwo concurrent tags: clusters = {clusters2}, collision flagged = {} (Sec. 5.3's IQ clustering)",
        clusters2 > 2
    );
    assert!(clusters2 > 2, "concurrent transmissions must be flagged");

    println!("\nphysical link verified end to end.");
}
