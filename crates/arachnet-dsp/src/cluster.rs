//! IQ-domain cluster counting for collision detection (Sec. 5.3).
//!
//! With one backscatterer, the baseband IQ samples of a slot concentrate in
//! two clusters (reflective / absorptive states). With two concurrent
//! backscatterers, up to four clusters appear (the Cartesian product of
//! both tags' states). The reader exploits this: "If more than two clusters
//! are identified, we infer that a collision has occurred" — even when the
//! capture effect lets one packet decode cleanly.
//!
//! The estimator runs deterministic k-means (farthest-point seeding, Lloyd
//! refinement) for k = `max_k` down to 2 and returns the first k whose
//! centroids are *well separated* relative to their internal spread and
//! whose clusters all carry a non-trivial share of the samples; when no k
//! qualifies, the samples form one cluster at their mean. Well-separated
//! OOK states satisfy the criterion; splitting a single noise blob never
//! does, so the count is robust at both ends.
//!
//! Two shortcuts make the search cheaper, and neither changes a bit of its
//! result against seeding every k from scratch and running every Lloyd
//! iteration:
//!
//! * **One seed pass for every k.** Each farthest-point seed depends only
//!   on the seeds before it, so the first k seeds of the `max_k` sequence
//!   are exactly k's seeds. One pass keeps each sample's distance to its
//!   nearest seed so far, folded from `f64::MAX` with `f64::min` in seed
//!   order, and takes the next seed at its last maximum under
//!   `f64::total_cmp`, as `Iterator::max_by` picks it.
//! * **Fixed-point exit from Lloyd.** An iteration (assign, update,
//!   re-seed starved clusters) is a pure function of the centers it starts
//!   from. Once one leaves every center bit-identical, every later one
//!   would repeat it, so refinement stops there.

use crate::cplx::Cplx;

/// A detected IQ cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cluster {
    /// Centroid.
    pub center: Cplx,
    /// Member count.
    pub population: usize,
}

/// Configuration of the cluster counter.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Maximum cluster count considered (2 tags ⇒ ≤4 states; default 6
    /// leaves headroom for partial overlaps).
    pub max_k: usize,
    /// Required ratio of minimum centroid separation to mean within-cluster
    /// RMS for a k to be accepted.
    pub separation_ratio: f64,
    /// Minimum cluster population as a fraction of the sample count.
    pub min_pop_frac: f64,
    /// Upper bound on Lloyd iterations per k; refinement stops early at
    /// the first iteration that leaves every center bit-identical.
    pub iterations: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            max_k: 6,
            separation_ratio: 4.0,
            min_pop_frac: 0.02,
            iterations: 12,
        }
    }
}

/// Result of one k-means run.
struct KmeansRun {
    centers: Vec<Cplx>,
    pops: Vec<usize>,
    /// Mean within-cluster RMS distance.
    spread: f64,
}

/// The first `k` farthest-point seeds: the sample farthest from `mean`,
/// then each time the sample farthest from its nearest seed so far. Ties go
/// to the last sample, as `Iterator::max_by` breaks them.
fn farthest_point_seeds(samples: &[Cplx], mean: Cplx, k: usize) -> Vec<Cplx> {
    let farthest = |dist: &[f64]| {
        dist.iter()
            .zip(samples)
            .max_by(|a, b| a.0.total_cmp(b.0))
            .map_or(mean, |(_, &z)| z)
    };
    let mut nearest: Vec<f64> = samples.iter().map(|&z| (z - mean).norm_sq()).collect();
    let mut seeds = vec![farthest(&nearest)];
    nearest.fill(f64::MAX);
    while seeds.len() < k {
        let c = seeds[seeds.len() - 1];
        for (d, &z) in nearest.iter_mut().zip(samples) {
            *d = d.min((z - c).norm_sq());
        }
        seeds.push(farthest(&nearest));
    }
    seeds
}

/// Lloyd refinement from `seeds` (k = `seeds.len()`), for at most
/// `iterations` passes.
fn kmeans(samples: &[Cplx], seeds: &[Cplx], iterations: usize) -> KmeansRun {
    let (n, k) = (samples.len(), seeds.len());
    let mut centers = seeds.to_vec();
    let mut prev = centers.clone();
    let mut assign = vec![0usize; n];
    let mut sums = vec![Cplx::ZERO; k];
    let mut counts = vec![0usize; k];
    for _ in 0..iterations {
        prev.copy_from_slice(&centers);
        // Assignment.
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
        // Update.
        sums.fill(Cplx::ZERO);
        counts.fill(0);
        for (i, &z) in samples.iter().enumerate() {
            sums[assign[i]] += z;
            counts[assign[i]] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centers[c] = sums[c] / counts[c] as f64;
            }
        }
        // Starved-cluster re-seeding: a seed wasted on an outlier (e.g. a
        // symbol-transition ramp sample) captures almost nothing; move it
        // to the sample farthest from its centroid inside the most populous
        // cluster, which splits real structure instead. That sample is the
        // same for every starved cluster, so it is found once.
        let starve = (n / (20 * k)).max(1);
        let biggest = (0..k).max_by_key(|&c| counts[c]).expect("k >= 1");
        let starved = |c: usize| counts[c] < starve && c != biggest;
        if (0..k).any(starved) {
            let far = samples
                .iter()
                .zip(&assign)
                .filter(|&(_, &a)| a == biggest)
                .map(|(&z, _)| ((z - centers[biggest]).norm_sq(), z))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .map(|(_, z)| z);
            if let Some(z) = far {
                for c in (0..k).filter(|&c| starved(c)) {
                    centers[c] = z;
                }
            }
        }
        let fixed = centers
            .iter()
            .zip(&prev)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        if fixed {
            break;
        }
    }

    // Final statistics.
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

/// Clusters IQ samples and returns the significant clusters, ordered by
/// population (largest first).
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
    let max_k = cfg.max_k.min(n);
    let seeds = farthest_point_seeds(samples, mean, max_k);

    // Try k from max down; accept the first k whose clusters are all
    // populated and whose centroids are mutually well-separated.
    for k in (2..=max_k).rev() {
        let run = kmeans(samples, &seeds[..k], cfg.iterations);
        if run.pops.iter().any(|&p| p < min_pop) {
            continue;
        }
        let mut min_sep = f64::MAX;
        for i in 0..k {
            for j in (i + 1)..k {
                min_sep = min_sep.min((run.centers[i] - run.centers[j]).abs());
            }
        }
        // Perfectly tight clusters (noise-free simulations) have zero
        // spread; any positive separation is then decisive.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-1, 1].
    fn noise(seed: &mut u64) -> f64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        (*seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn blob(center: Cplx, spread: f64, count: usize, seed: &mut u64) -> Vec<Cplx> {
        (0..count)
            .map(|_| center + Cplx::new(noise(seed) * spread, noise(seed) * spread))
            .collect()
    }

    #[test]
    fn single_tag_two_states_two_clusters() {
        let mut seed = 1;
        let mut samples = blob(Cplx::new(1.0, 0.0), 0.05, 500, &mut seed);
        samples.extend(blob(Cplx::new(0.2, 0.0), 0.05, 500, &mut seed));
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert_eq!(clusters.len(), 2, "clusters: {clusters:?}");
    }

    #[test]
    fn two_tags_four_clusters_is_collision() {
        let mut seed = 2;
        let centers = [
            Cplx::new(0.0, 0.0),
            Cplx::new(1.0, 0.1),
            Cplx::new(0.1, 1.0),
            Cplx::new(1.1, 1.1),
        ];
        let mut samples = Vec::new();
        for c in centers {
            samples.extend(blob(c, 0.04, 300, &mut seed));
        }
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert_eq!(clusters.len(), 4, "clusters: {clusters:?}");
    }

    #[test]
    fn three_clusters_flag_collision() {
        // Two tags whose product states partially overlap still produce >2
        // clusters — must be flagged.
        let mut seed = 3;
        let mut samples = Vec::new();
        for c in [
            Cplx::new(0.0, 0.0),
            Cplx::new(1.0, 0.0),
            Cplx::new(0.5, 0.9),
        ] {
            samples.extend(blob(c, 0.04, 300, &mut seed));
        }
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert!(clusters.len() > 2, "clusters: {clusters:?}");
    }

    #[test]
    fn idle_channel_single_cluster() {
        let mut seed = 4;
        let samples = blob(Cplx::ZERO, 0.02, 1_000, &mut seed);
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert_eq!(clusters.len(), 1, "clusters: {clusters:?}");
    }

    #[test]
    fn outlier_samples_do_not_create_clusters() {
        let mut seed = 5;
        let mut samples = blob(Cplx::new(1.0, 0.0), 0.05, 500, &mut seed);
        samples.extend(blob(Cplx::new(0.0, 0.0), 0.05, 500, &mut seed));
        // A handful of fliers (below min_pop_frac).
        samples.push(Cplx::new(5.0, 5.0));
        samples.push(Cplx::new(-4.0, 2.0));
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert!(
            clusters.len() <= 2,
            "outliers created clusters: {clusters:?}"
        );
    }

    #[test]
    fn centroids_are_accurate() {
        let mut seed = 6;
        let mut samples = blob(Cplx::new(2.0, 1.0), 0.03, 400, &mut seed);
        samples.extend(blob(Cplx::new(-1.0, -0.5), 0.03, 600, &mut seed));
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert_eq!(clusters.len(), 2);
        // Largest first.
        assert!(clusters[0].population > clusters[1].population);
        assert!((clusters[0].center - Cplx::new(-1.0, -0.5)).abs() < 0.05);
        assert!((clusters[1].center - Cplx::new(2.0, 1.0)).abs() < 0.05);
    }

    #[test]
    fn unbalanced_populations_still_counted() {
        // A tag far from the reader backscatters weakly but its states are
        // still distinct: 10% / 90% split must still give 2 clusters.
        let mut seed = 7;
        let mut samples = blob(Cplx::new(0.0, 0.0), 0.03, 900, &mut seed);
        samples.extend(blob(Cplx::new(0.8, 0.0), 0.03, 100, &mut seed));
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert_eq!(clusters.len(), 2, "clusters: {clusters:?}");
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(cluster_iq(&[], ClusterConfig::default()).is_empty());
    }

    #[test]
    fn identical_samples_form_one_cluster() {
        let samples = vec![Cplx::new(0.7, -0.3); 100];
        let clusters = cluster_iq(&samples, ClusterConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].population, 100);
    }
}
