//! Property-based tests over the DSP substrate (arachnet-testkit).

use arachnet_dsp::cplx::Cplx;
use arachnet_dsp::fft::{fft_in_place, ifft_in_place};
use arachnet_dsp::schmitt::Schmitt;
use arachnet_testkit::gen;
use arachnet_testkit::{check, prop_assert};

/// FFT followed by IFFT recovers the input for arbitrary complex data.
#[test]
fn fft_ifft_roundtrip() {
    let g = gen::zip(
        gen::vec(gen::f64_range(-100.0, 100.0), 64, 64),
        gen::vec(gen::f64_range(-100.0, 100.0), 64, 64),
    );
    check("fft_ifft_roundtrip", &g, |(res, ims)| {
        let orig: Vec<Cplx> = res.iter().zip(ims).map(|(&r, &i)| Cplx::new(r, i)).collect();
        let mut data = orig.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((a.re - b.re).abs() < 1e-8);
            prop_assert!((a.im - b.im).abs() < 1e-8);
        }
        Ok(())
    });
}

/// Schmitt output only changes when the input crosses the appropriate
/// threshold — never inside the dead band.
#[test]
fn schmitt_honors_hysteresis() {
    let g = gen::zip(
        gen::vec(gen::f64_range(-2.0, 2.0), 200, 200),
        gen::f64_range(0.05, 0.8),
    );
    check("schmitt_honors_hysteresis", &g, |(input, band)| {
        let (hi, lo) = (band / 2.0, -band / 2.0);
        let mut s = Schmitt::new(hi, lo);
        let mut state = false;
        for &x in input {
            let next = s.process(x);
            if next != state {
                if next {
                    prop_assert!(x > hi, "rose at {} (hi {})", x, hi);
                } else {
                    prop_assert!(x < lo, "fell at {} (lo {})", x, lo);
                }
            }
            state = next;
        }
        Ok(())
    });
}
