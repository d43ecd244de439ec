//! Property-based tests over the tag firmware models (arachnet-testkit).

use arachnet_core::packet::{DlBeacon, DlCmd};
use arachnet_tag::demod::{ideal_beacon_edges, PieDemodulator};
use arachnet_tag::mcu::McuClock;
use arachnet_tag::modulator::Fm0Modulator;
use arachnet_testkit::gen;
use arachnet_testkit::{check, prop_assert, prop_assert_eq};

/// The demodulator never panics and never emits a *wrong* beacon for
/// arbitrary (garbage) edge streams — silence or glitch counts only.
#[test]
fn demod_survives_garbage() {
    let g = gen::vec(gen::zip(gen::f64_range(0.0, 10.0), gen::boolean()), 0, 199);
    check("demod_survives_garbage", &g, |edges| {
        let mut sorted = edges.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut d = PieDemodulator::new(McuClock::ideal(), 250.0);
        let decoded = d.feed_edges(&sorted);
        // Whatever decodes must at least be structurally valid (the type
        // guarantees it); mostly we assert: no panic, bounded output.
        prop_assert!(decoded.len() <= sorted.len() / 20 + 1);
        Ok(())
    });
}

/// A clean beacon decodes for every command and all legal chip tolerances
/// at the default rate.
#[test]
fn demod_decodes_all_beacons_under_tolerance() {
    let g = gen::zip(gen::u8_range(0, 16), gen::f64_range(-0.03, 0.03));
    check(
        "demod_decodes_all_beacons_under_tolerance",
        &g,
        |&(nibble, tol)| {
            let beacon = DlBeacon::new(DlCmd::from_nibble(nibble));
            let edges = ideal_beacon_edges(&beacon, 250.0, 0.0);
            let mut d = PieDemodulator::new(McuClock::with_tolerance(tol), 250.0);
            let out = d.feed_edges(&edges);
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!(out[0].beacon, beacon);
            Ok(())
        },
    );
}

/// The modulator timeline is contiguous, uniform, and scales inversely
/// with the actual clock frequency.
#[test]
fn modulator_timeline_invariants() {
    let g = gen::zip4(
        gen::u64_any().map(|v| v as u32),
        gen::usize_range(1, 32),
        gen::select(vec![4u32, 8, 16, 32, 64, 128]),
        gen::f64_range(-0.03, 0.03),
    );
    check(
        "modulator_timeline_invariants",
        &g,
        |&(value, width, divider, tol)| {
            let data =
                arachnet_core::bits::BitBuf::from_u32(value & ((1u64 << width) - 1) as u32, width);
            let m = Fm0Modulator::new(McuClock::with_tolerance(tol), divider);
            let (raw, tl) = m.modulate_bits(&data, 1.0);
            prop_assert_eq!(tl.len(), 2 * width);
            prop_assert_eq!(raw.len(), 2 * width);
            for w in tl.windows(2) {
                prop_assert!((w[1].start - (w[0].start + w[0].duration)).abs() < 1e-9);
            }
            let expect = f64::from(divider) / (12_000.0 * (1.0 + tol));
            prop_assert!((tl[0].duration - expect).abs() < 1e-9);
            Ok(())
        },
    );
}

/// Tick measurement is monotone in duration for any clock.
#[test]
fn tick_measurement_monotone() {
    let g = gen::zip3(
        gen::f64_range(0.0, 0.1),
        gen::f64_range(0.0, 0.1),
        gen::f64_range(-0.03, 0.03),
    );
    check("tick_measurement_monotone", &g, |&(d1, extra, tol)| {
        let c = McuClock::with_tolerance(tol);
        prop_assert!(c.measure_ticks(d1 + extra) >= c.measure_ticks(d1));
        Ok(())
    });
}
