//! Property tests for the observability primitives (`arachnet-obs`),
//! checked against randomized inputs via `arachnet-testkit`: counter merge
//! in `MetricSet` is a plain sum, independent of how the increments were
//! sharded.

use arachnet_obs::MetricSet;
use arachnet_testkit::runner::check;
use arachnet_testkit::{gen, prop_assert_eq};

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
