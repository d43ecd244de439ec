//! Hot-path microbenchmarks: codecs, DSP primitives and the slot-sim step
//! (Sec. 6.1 claims real-time operation at a 500 kHz sample rate). The RX
//! chain's per-slot costs are benched once, in `phy` (`rx/*`). Runs on the
//! in-tree harness; emits `BENCH_hot_paths.json`.

use bench::{black_box, Suite};

use arachnet_core::bits::BitBuf;
use arachnet_core::crc::crc8_bits;
use arachnet_core::fm0::{self, Fm0Encoder};
use arachnet_core::packet::UlPacket;
use arachnet_core::pie;
use arachnet_dsp::cluster::{cluster_iq, ClusterConfig};
use arachnet_dsp::cplx::Cplx;
use arachnet_dsp::fft::RealFft;
use arachnet_dsp::psd::welch_psd;
use arachnet_dsp::window::Window;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};

fn bench_codecs(s: &mut Suite) {
    let pkt = UlPacket::new(7, 0xABC).unwrap();
    let bits = pkt.to_bits();
    s.bench("codecs/ul_packet_encode", || {
        UlPacket::new(7, 0xABC).unwrap().to_bits()
    });
    s.bench("codecs/ul_packet_parse", || {
        UlPacket::from_bits(&bits).unwrap()
    });
    s.bench("codecs/fm0_encode_32b", || {
        let mut e = Fm0Encoder::new();
        e.encode(bits.iter())
    });
    let mut enc = Fm0Encoder::new();
    let raw = enc.encode(bits.iter());
    s.bench("codecs/fm0_decode_64b", || {
        fm0::decode_lenient(&raw).unwrap()
    });
    let beacon_bits = BitBuf::from_u32(0b1101001010, 10);
    s.bench("codecs/pie_encode_10b", || pie::encode(beacon_bits.iter()));
    let msg = BitBuf::from_u32(0xABCDE5, 24);
    s.bench("codecs/crc8_24b", || crc8_bits(msg.iter()));
}

fn bench_dsp(s: &mut Suite) {
    let signal: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.71).sin()).collect();
    let mut plan = RealFft::new(signal.len());
    let mut spectrum = Vec::new();
    s.bench("dsp/real_fft_8192", || {
        plan.process(&signal, &mut spectrum);
        spectrum[1]
    });
    s.bench("dsp/welch_psd_8192", || {
        welch_psd(&signal, 500e3, 1024, Window::Hann)
    });
    let mut seed = 1u64;
    let mut noise = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let iq: Vec<Cplx> = (0..1500)
        .map(|i| {
            let c = if i % 2 == 0 {
                Cplx::new(1.0, 0.0)
            } else {
                Cplx::new(0.2, 0.1)
            };
            c + Cplx::new(noise() * 0.05, noise() * 0.05)
        })
        .collect();
    s.bench("dsp/cluster_iq_1500", || {
        cluster_iq(&iq, ClusterConfig::default())
    });
}

fn bench_slotsim(s: &mut Suite) {
    let mut sim = SlotSim::new(SlotSimConfig::new(Pattern::c3(), 1));
    s.bench("slotsim/step_c3_12tags", move || black_box(sim.step()));
    s.bench("slotsim/converge_c1", || {
        arachnet_sim::slotsim::first_convergence_time(&Pattern::c1(), 9, 100_000, true)
    });
}

fn main() {
    let mut s = Suite::new("hot_paths");
    bench_codecs(&mut s);
    bench_dsp(&mut s);
    bench_slotsim(&mut s);
    s.finish();
}
