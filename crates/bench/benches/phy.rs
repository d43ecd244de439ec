//! PHY fast-path benchmarks: the waveform-level costs that dominate the
//! sample-rate co-simulations (`repro fig12a12b`/`fig13a`/`fig14b` and the
//! cosim integration tests). Three layers are pinned so a regression in
//! any of them is visible in isolation:
//!
//! * **channel propagation** — uplink waveform synthesis through
//!   `biw-channel` (carrier synthesis, per-tag path delay/gain, noise);
//! * **RX decode chain** — mix → decimate → PCA-slice → FM0 decode over
//!   one slot waveform, plus the PSD-based SNR metric;
//! * **full uplink trial** — one complete Fig. 12 packet trial
//!   (modulate → channel → decode), the unit the sweep engine fans out.
//!
//! Emits `BENCH_phy.json`. The acceptance number for the block-processing
//! fast path is `phy/full_uplink_trial` (see EXPERIMENTS.md).

use bench::{black_box, Suite};

use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::UlPacket;
use arachnet_reader::rx::{RxConfig, UplinkReceiver};
use arachnet_sim::cosim::CoSim;
use arachnet_sim::wavesim::WaveSim;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::NoiseConfig;
use biw_channel::pzt::PztState;

fn packet_states(pkt: &UlPacket, spb: usize, pad_bits: usize) -> Vec<PztState> {
    let mut enc = Fm0Encoder::new();
    let raw = enc.encode(pkt.to_bits().iter()).to_bools();
    let mut states = vec![PztState::Absorptive; pad_bits * spb];
    states.extend(BiwChannel::states_from_raw_bits(&raw, spb));
    states.extend(vec![PztState::Absorptive; pad_bits * spb]);
    states
}

fn bench_channel(s: &mut Suite) {
    let ch = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig::default(),
        seed: 1,
        ..ChannelConfig::default()
    });
    let pkt = UlPacket::new(8, 0x123).unwrap();
    let spb = (500_000.0f64 / 375.0).round() as usize;
    let states = packet_states(&pkt, spb, 4);
    let len = states.len();
    s.bench("channel/uplink_waveform_1tag", || {
        ch.uplink_waveform(&[(8, &states)], len)
    });
    let s2 = states.clone();
    s.bench("channel/uplink_waveform_2tags", || {
        ch.uplink_waveform(&[(8, &states), (7, &s2)], len)
    });
    s.bench("channel/uplink_waveform_idle_25k", || {
        ch.uplink_waveform(&[], 25_000)
    });
}

fn bench_rx(s: &mut Suite) {
    let ch = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig::default(),
        seed: 2,
        ..ChannelConfig::default()
    });
    let rx = UplinkReceiver::new(RxConfig::default());
    let pkt = UlPacket::new(8, 0x3A5).unwrap();
    let spb = (500_000.0f64 / 375.0).round() as usize;
    let states = packet_states(&pkt, spb, 4);
    let wave = ch.uplink_waveform(&[(8, &states)], states.len());
    s.bench("rx/process_slot_decode", || rx.process_slot(&wave));
    s.bench("rx/uplink_snr_db", || rx.uplink_snr_db(&wave));
    let idle = ch.uplink_waveform(&[], 25_000);
    s.bench("rx/process_slot_idle_25k", || rx.process_slot(&idle));
}

fn bench_trials(s: &mut Suite) {
    let sim = WaveSim::paper(1);
    // The acceptance pair for PR 3's observability work: `uplink_trial`
    // now runs through the instrumented path with a disabled recorder, so
    // this entry regressing against the committed BENCH_phy.json median
    // would mean recorder-off instrumentation is NOT free (verify.sh gates
    // it at < 2%). The `_recorded` twin measures the enabled-recorder cost.
    let static_trial = || {
        let r = sim.uplink_trial(8, 375.0, 1);
        black_box(r.lost)
    };
    s.bench("phy/full_uplink_trial", static_trial);
    s.bench("phy/full_uplink_trial_recorded", || {
        let mut rec = arachnet_obs::Recorder::enabled(1);
        let r = sim.uplink_trial_observed(8, 375.0, 1, &mut rec);
        black_box((r.lost, rec.seed()))
    });
    // Fleet twin of the acceptance entry: the same packet trial as seen by
    // reader 0 of a two-reader FDMA fleet (both cells synthesize, carriers
    // superpose, the interfering CW is estimated and subtracted). Not
    // gated — it pins the cost of the multi-reader path next to the
    // single-reader baseline so regressions are visible in review.
    let plan = arachnet_reader::fleet::FleetPlan::fdma(2).unwrap();
    let fleet = arachnet_sim::fleet::FleetWaveSim::paper(plan, 1);
    let fleet_rx = fleet.fleet_rx(0, 375.0);
    s.bench("phy/full_uplink_trial_two_readers", || {
        black_box(fleet.uplink_trial(&fleet_rx, 0, 8, 1).lost)
    });
    // The drifting trial over a single identity epoch must cost the same
    // as the static trial: epoch selection is one slice index, and every
    // per-epoch channel is prebuilt at construction.
    let tvc = biw_channel::timevarying::TimeVaryingChannel::paper(
        sim.channel().config().clone(),
        &[biw_channel::timevarying::ChannelDrift::identity()],
    );
    let drifting = || {
        let r =
            sim.uplink_trial_drifting(&tvc, 8, 375.0, 1, &mut arachnet_obs::Recorder::disabled());
        black_box(r[0].lost)
    };
    s.bench("phy/full_uplink_trial_timevarying", drifting);
    // The same two trials sampled in interleaved pairs, so host drift
    // cancels out of each ratio: verify.sh gates the median at <= 1.02.
    s.bench_paired("phy/timevarying_over_static", static_trial, drifting);
    s.bench("phy/downlink_trial_10_beacons", || {
        let r = sim.downlink_trial(8, 250.0, 10);
        black_box(r.lost)
    });
    s.bench("phy/cosim_slot", || {
        let p = arachnet_core::slot::Period::new(2).unwrap();
        let mut cs = CoSim::new(vec![(8, p), (7, p)], 3);
        cs.step()
    });
}

fn main() {
    let mut s = Suite::new("phy");
    bench_channel(&mut s);
    bench_rx(&mut s);
    bench_trials(&mut s);
    s.finish();
}
