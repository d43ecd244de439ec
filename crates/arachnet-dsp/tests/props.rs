//! Property-based tests over the DSP substrate (arachnet-testkit).

use arachnet_dsp::cluster::{cluster_iq, Cluster, ClusterConfig};
use arachnet_dsp::cplx::Cplx;
use arachnet_dsp::fft::{fft_in_place, ifft_in_place};
use arachnet_dsp::schmitt::Schmitt;
use arachnet_testkit::gen::{self, Gen};
use arachnet_testkit::{check, prop_assert, prop_assert_eq};

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

/// The clustering oracle: k-means with every k seeded from scratch and
/// refined for exactly `iterations` Lloyd passes, the straightforward form
/// that `cluster_iq`'s shared seed pass and fixed-point exit must match bit
/// for bit.
mod oracle {
    use super::{Cluster, ClusterConfig, Cplx};

    struct KmeansRun {
        centers: Vec<Cplx>,
        pops: Vec<usize>,
        spread: f64,
    }

    fn kmeans(samples: &[Cplx], k: usize, iterations: usize) -> KmeansRun {
        let n = samples.len();
        let mean = samples.iter().fold(Cplx::ZERO, |a, &z| a + z) / n as f64;
        let mut centers: Vec<Cplx> = Vec::with_capacity(k);
        let first = samples
            .iter()
            .max_by(|a, b| (**a - mean).norm_sq().total_cmp(&(**b - mean).norm_sq()))
            .copied()
            .unwrap_or(mean);
        centers.push(first);
        while centers.len() < k {
            let far = samples
                .iter()
                .max_by(|a, b| {
                    let da = centers
                        .iter()
                        .map(|&c| (**a - c).norm_sq())
                        .fold(f64::MAX, f64::min);
                    let db = centers
                        .iter()
                        .map(|&c| (**b - c).norm_sq())
                        .fold(f64::MAX, f64::min);
                    da.total_cmp(&db)
                })
                .copied()
                .unwrap_or(mean);
            centers.push(far);
        }

        let mut assign = vec![0usize; n];
        for _ in 0..iterations {
            for (i, &z) in samples.iter().enumerate() {
                let mut best = 0;
                let mut bd = f64::MAX;
                for (c, &ctr) in centers.iter().enumerate() {
                    let d = (z - ctr).norm_sq();
                    if d < bd {
                        bd = d;
                        best = c;
                    }
                }
                assign[i] = best;
            }
            let mut sums = vec![Cplx::ZERO; k];
            let mut counts = vec![0usize; k];
            for (i, &z) in samples.iter().enumerate() {
                sums[assign[i]] += z;
                counts[assign[i]] += 1;
            }
            for c in 0..k {
                if counts[c] > 0 {
                    centers[c] = sums[c] / counts[c] as f64;
                }
            }
            let starve = (n / (20 * k)).max(1);
            let biggest = (0..k).max_by_key(|&c| counts[c]).expect("k >= 1");
            for c in 0..k {
                if counts[c] < starve && c != biggest {
                    let far = samples
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| assign[*i] == biggest)
                        .max_by(|a, b| {
                            let da = (*a.1 - centers[biggest]).norm_sq();
                            let db = (*b.1 - centers[biggest]).norm_sq();
                            da.total_cmp(&db)
                        })
                        .map(|(_, &z)| z);
                    if let Some(z) = far {
                        centers[c] = z;
                    }
                }
            }
        }

        let mut pops = vec![0usize; k];
        let mut sse = vec![0.0f64; k];
        for (i, &z) in samples.iter().enumerate() {
            pops[assign[i]] += 1;
            sse[assign[i]] += (z - centers[assign[i]]).norm_sq();
        }
        let mut spread_acc = 0.0;
        let mut live = 0;
        for c in 0..k {
            if pops[c] > 0 {
                spread_acc += (sse[c] / pops[c] as f64).sqrt();
                live += 1;
            }
        }
        let spread = if live > 0 {
            spread_acc / live as f64
        } else {
            0.0
        };
        KmeansRun {
            centers,
            pops,
            spread,
        }
    }

    pub fn cluster_iq(samples: &[Cplx], cfg: ClusterConfig) -> Vec<Cluster> {
        if samples.is_empty() {
            return Vec::new();
        }
        let n = samples.len();
        let mean = samples.iter().fold(Cplx::ZERO, |a, &z| a + z) / n as f64;
        let rms = (samples.iter().map(|&z| (z - mean).norm_sq()).sum::<f64>() / n as f64).sqrt();
        if rms < 1e-30 {
            return vec![Cluster {
                center: mean,
                population: n,
            }];
        }
        let min_pop = ((cfg.min_pop_frac * n as f64) as usize).max(1);
        for k in (2..=cfg.max_k.min(n)).rev() {
            let run = kmeans(samples, k, cfg.iterations);
            if run.pops.iter().any(|&p| p < min_pop) {
                continue;
            }
            let mut min_sep = f64::MAX;
            for i in 0..k {
                for j in (i + 1)..k {
                    min_sep = min_sep.min((run.centers[i] - run.centers[j]).abs());
                }
            }
            let separated = if run.spread <= f64::EPSILON {
                min_sep > 0.0
            } else {
                min_sep / run.spread >= cfg.separation_ratio
            };
            if separated {
                let mut out: Vec<Cluster> = run
                    .centers
                    .into_iter()
                    .zip(run.pops)
                    .map(|(center, population)| Cluster { center, population })
                    .collect();
                out.sort_by_key(|c| std::cmp::Reverse(c.population));
                return out;
            }
        }
        vec![Cluster {
            center: mean,
            population: n,
        }]
    }
}

/// Generated IQ slots: 1–6 blobs, mostly on a 1/8 grid, 1–1600 points (often
/// fewer than `max_k`), duplicated points, a few far fliers that starve a
/// cluster, and sometimes NaN / ±∞ samples like those a poisoned waveform
/// passes on. Some slots mirror half their points across a vertical grid
/// line and put the fliers on it; then the global mean, the fliers and a
/// symmetric cluster's mean all sit on the axis, and distinct points tie
/// in both the seed pass and the starved-cluster re-seed.
fn iq_slots() -> Gen<Vec<Cplx>> {
    Gen::new(move |rng| {
        let grid = rng.chance(0.75);
        let snap = |x: f64| if grid { (x * 8.0).round() / 8.0 } else { x };
        let n = if rng.chance(0.2) {
            1 + rng.below(8) as usize
        } else {
            1 + rng.below(1600) as usize
        };
        let blobs: Vec<(Cplx, f64)> = (0..1 + rng.below(6))
            .map(|_| {
                let center = Cplx::new(
                    snap(rng.unit_f64() * 8.0 - 4.0),
                    snap(rng.unit_f64() * 8.0 - 4.0),
                );
                let spread = [0.0, 0.125, 0.25, 0.5, 1.5][rng.below(5) as usize];
                (center, spread)
            })
            .collect();
        let dup_frac = [0.0, 0.1, 0.5][rng.below(3) as usize];
        let axis = rng.chance(0.5).then(|| snap(rng.unit_f64() * 8.0 - 4.0));
        let fliers = if axis.is_some() || rng.chance(0.4) {
            (1 + rng.below(3) as usize).min(n)
        } else {
            0
        };
        let free = match axis {
            Some(_) => (n - fliers) / 2,
            None => n - fliers,
        };
        let mut pts: Vec<Cplx> = Vec::with_capacity(n);
        while pts.len() < free {
            if !pts.is_empty() && rng.chance(dup_frac) {
                let z = pts[rng.below(pts.len() as u64) as usize];
                pts.push(z);
                continue;
            }
            let (c, s) = blobs[rng.below(blobs.len() as u64) as usize];
            let mut jitter = || snap((rng.unit_f64() * 2.0 - 1.0) * s);
            let z = c + Cplx::new(jitter(), jitter());
            pts.push(z);
        }
        if let Some(m) = axis {
            let mirror: Vec<Cplx> = pts
                .iter()
                .map(|z| Cplx::new(2.0 * m - z.re, z.im))
                .collect();
            pts.extend(mirror);
        }
        while pts.len() < n {
            let re = axis.unwrap_or_else(|| snap(rng.unit_f64() * 32.0 - 16.0));
            pts.push(Cplx::new(re, snap(rng.unit_f64() * 32.0 - 16.0)));
        }
        if rng.chance(0.25) {
            let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(n as u64) as usize;
                let bad = specials[rng.below(3) as usize];
                pts[i] = if rng.chance(0.5) {
                    Cplx::new(bad, pts[i].im)
                } else {
                    Cplx::new(pts[i].re, bad)
                };
            }
        }
        pts
    })
    .with_shrink(|v: &Vec<Cplx>| {
        let half = v.len() / 2;
        if half == 0 {
            return Vec::new();
        }
        vec![v[..half].to_vec(), v[half..].to_vec()]
    })
}

/// `cluster_iq` (one seed pass for every k, fixed-point exit from Lloyd)
/// returns exactly what per-k seeding and every Lloyd iteration return:
/// same cluster count, same populations, same center bits.
#[test]
fn cluster_iq_matches_the_per_k_oracle() {
    let g = gen::zip3(
        iq_slots(),
        gen::select(vec![4.0, 3.5]),
        gen::select(vec![12usize, 1, 0]),
    );
    check(
        "cluster_iq_matches_the_per_k_oracle",
        &g,
        |(pts, sep, iterations)| {
            let cfg = ClusterConfig {
                separation_ratio: *sep,
                iterations: *iterations,
                ..ClusterConfig::default()
            };
            let got = cluster_iq(pts, cfg);
            let want = oracle::cluster_iq(pts, cfg);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.population, w.population);
                prop_assert!(
                    g.center.re.to_bits() == w.center.re.to_bits()
                        && g.center.im.to_bits() == w.center.im.to_bits(),
                    "center {:?} vs oracle {:?}",
                    g.center,
                    w.center
                );
            }
            Ok(())
        },
    );
}
