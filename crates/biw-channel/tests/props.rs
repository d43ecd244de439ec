//! Property-based tests over the acoustic channel (arachnet-testkit).

use arachnet_testkit::gen;
use arachnet_testkit::{check, prop_assert};
use biw_channel::propagation::PathSpec;
use biw_channel::pzt::{Pzt, PztState};

/// Path gain decreases monotonically with distance and with every kind of
/// junction, and always lies in (0, 1] beyond the reference.
#[test]
fn gain_monotonicity() {
    let g = gen::zip3(
        gen::f64_range(0.3, 5.0),
        gen::u8_range(0, 4),
        gen::u8_range(0, 3),
    );
    check("gain_monotonicity", &g, |&(len, seams, perps)| {
        let p = PathSpec {
            length_m: len,
            seam_junctions: seams,
            perp_junctions: perps,
        };
        let further = PathSpec {
            length_m: len + 0.1,
            ..p
        };
        let seamier = PathSpec {
            seam_junctions: seams + 1,
            ..p
        };
        let cornier = PathSpec {
            perp_junctions: perps + 1,
            ..p
        };
        prop_assert!(p.gain() > 0.0 && p.gain() <= 1.0);
        prop_assert!(further.gain() < p.gain());
        prop_assert!(seamier.gain() < p.gain());
        prop_assert!(
            cornier.gain() < seamier.gain(),
            "perpendicular must cost more than a seam"
        );
        prop_assert!((p.round_trip_gain() - p.gain() * p.gain()).abs() < 1e-15);
        Ok(())
    });
}

/// Delay is linear in path length.
#[test]
fn delay_linearity() {
    let g = gen::zip(gen::f64_range(0.1, 5.0), gen::f64_range(1.0, 3.0));
    check("delay_linearity", &g, |&(len, k)| {
        let a = PathSpec {
            length_m: len,
            seam_junctions: 0,
            perp_junctions: 0,
        };
        let b = PathSpec {
            length_m: len * k,
            ..a
        };
        prop_assert!((b.delay_s() - k * a.delay_s()).abs() < 1e-15);
        Ok(())
    });
}

/// Reflection is linear and the reflective state always returns more than
/// the absorptive one.
#[test]
fn pzt_reflection_properties() {
    check(
        "pzt_reflection_properties",
        &gen::f64_range(0.0, 10.0),
        |&amp| {
            let p = Pzt::arachnet_tag();
            prop_assert!(
                p.reflect(amp, PztState::Reflective) >= p.reflect(amp, PztState::Absorptive)
            );
            prop_assert!(
                (p.reflect(2.0 * amp, PztState::Reflective)
                    - 2.0 * p.reflect(amp, PztState::Reflective))
                .abs()
                    < 1e-12
            );
            Ok(())
        },
    );
}
