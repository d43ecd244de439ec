//! Property tests for the observability primitives (`arachnet-obs`).
//!
//! Three algebraic facts, checked here against randomized inputs via
//! `arachnet-testkit`:
//!
//! 1. histogram merge is interleaving-invariant — per-thread histograms
//!    folded together equal the single-stream histogram no matter how the
//!    samples were split across threads or in what order the shards merge
//!    (the wall-domain diagnostics rely on it);
//! 2. `quantile_bounds` genuinely brackets the true order statistic, and
//!    the bracket never spans more than one log2 bucket;
//! 3. counter merge in `MetricSet` is a plain sum, independent of how the
//!    increments were sharded.

use arachnet_obs::{Histo, MetricSet};
use arachnet_testkit::runner::check;
use arachnet_testkit::{gen, prop_assert, prop_assert_eq};

/// Samples spanning several buckets, including 0 and large values.
fn sample_gen() -> gen::Gen<Vec<(u64, u8)>> {
    // Each element is (sample, shard): shard ∈ 0..4 assigns the sample to
    // one of four simulated threads, encoding an arbitrary interleaving.
    let elem = gen::zip(gen::u64_range(0, 1 << 20), gen::u64_range(0, 4));
    gen::vec(elem.map(|(v, s)| (v, s as u8)), 0, 200)
}

#[test]
fn histo_merge_equals_single_stream_for_any_interleaving() {
    check("histo_merge_interleaving", &sample_gen(), |samples| {
        let mut single = Histo::new();
        let mut shards = [Histo::new(), Histo::new(), Histo::new(), Histo::new()];
        for &(v, s) in samples {
            single.record(v);
            shards[s as usize].record(v);
        }
        // Fold the shards in two different orders; both must equal the
        // single-stream histogram exactly (struct equality: every bucket,
        // count, sum, min and max).
        let mut fwd = Histo::new();
        for sh in &shards {
            fwd.merge(sh);
        }
        let mut rev = Histo::new();
        for sh in shards.iter().rev() {
            rev.merge(sh);
        }
        prop_assert_eq!(&fwd, &single);
        prop_assert_eq!(&rev, &single);
        Ok(())
    });
}

#[test]
fn quantile_bounds_bracket_the_true_order_statistic() {
    let cases = gen::zip(
        gen::vec(gen::u64_range(0, 1 << 24), 1, 150),
        gen::f64_range(0.0, 1.0),
    );
    check("quantile_bounds_bracket", &cases, |(samples, q)| {
        let mut h = Histo::new();
        for &v in samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        // The contract: the order statistic of rank ceil(q·n) (1-based,
        // clamped to [1, n]) lies inside the returned inclusive range.
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let truth = sorted[(rank - 1) as usize];
        let (lo, hi) = h.quantile_bounds(*q);
        prop_assert!(
            lo <= truth && truth <= hi,
            "rank-{rank} statistic {truth} outside [{lo}, {hi}] for q={q}"
        );
        // The bracket stays within one log2 bucket: hi < 2·max(lo, 1).
        prop_assert!(
            hi < 2 * lo.max(1) || (lo, hi) == (0, 0),
            "bracket [{lo}, {hi}] wider than one log2 bucket"
        );
        Ok(())
    });
}

#[test]
fn counter_merge_is_a_plain_sum_over_shards() {
    let inc = gen::zip(gen::u64_range(0, 3), gen::u64_range(0, 1000));
    let cases = gen::zip(
        gen::vec(inc.map(|(k, v)| (k as usize, v)), 0, 60),
        gen::u64_range(0, 4),
    );
    check("counter_merge_sum", &cases, |(incs, split)| {
        const NAMES: [&str; 3] = ["a.count", "b.count", "c.count"];
        // Apply every increment to one set, and the same increments sharded
        // at an arbitrary split point to two sets that are then merged.
        let mut whole = MetricSet::new();
        let mut left = MetricSet::new();
        let mut right = MetricSet::new();
        let cut = (*split as usize * incs.len()) / 3;
        for (i, &(k, v)) in incs.iter().enumerate() {
            whole.add_count(NAMES[k], v);
            if i < cut {
                left.add_count(NAMES[k], v);
            } else {
                right.add_count(NAMES[k], v);
            }
        }
        left.merge(&right);
        for name in NAMES {
            prop_assert_eq!(left.get_count(name), whole.get_count(name));
        }
        // The merged JSON is byte-identical too — the property the
        // METRICS_<id>.json export actually depends on.
        prop_assert_eq!(left.to_json(), whole.to_json());
        Ok(())
    });
}
