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
//!
//! It also checks that `read_journal`, which reads files a crashed run may
//! have torn, returns `Ok` or `Err` on mutated journals and never panics.

use arachnet_obs::{read_journal, Heartbeat, Histo, MetricSet};
use arachnet_testkit::runner::{check, check_with, Config};
use arachnet_testkit::{gen, prop_assert, prop_assert_eq};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Heartbeats whose every field survives the JSON line exactly: counters
/// below 2^53, finite rates.
fn heartbeat_gen() -> gen::Gen<Heartbeat> {
    let counters = gen::vec(gen::u64_range(0, 1 << 53), 7, 7);
    let small = gen::zip(gen::u32_range(0, 64), gen::u32_range(1, 64));
    let rates = gen::vec(gen::f64_range(0.0, 1e6), 3, 3);
    let flags = gen::vec(gen::boolean(), 3, 3);
    gen::zip4(counters, small, rates, flags).map(|(c, (inflight, workers), r, f)| Heartbeat {
        t_ms: c[0],
        trials: c[1],
        completed: c[2],
        quarantined: c[3],
        restored: c[4],
        skipped: c[5],
        inflight,
        workers,
        stalled: c[6],
        tps: r[0],
        eta_secs: f[0].then_some(r[1]),
        budget_secs_left: f[1].then_some(r[2]),
        done: f[2],
    })
}

fn journal_bytes(beats: &[Heartbeat]) -> Vec<u8> {
    beats
        .iter()
        .flat_map(|b| format!("{}\n", b.to_json()).into_bytes())
        .collect()
}

/// A unique journal path under the system temp dir.
fn temp_journal() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "arachnet_journal_prop_{}_{n}.jsonl",
        std::process::id()
    ))
}

/// Journal `a` truncated (`kind` 0), with one bit flipped (1), with its
/// head spliced onto the tail of journal `b` (2), or with an invalid UTF-8
/// byte inserted (3); `at` picks the positions.
fn mutate(a: &[u8], b: &[u8], kind: u8, at: u64) -> Vec<u8> {
    let cut = (at % (a.len() as u64 + 1)) as usize;
    match kind {
        0 => a[..cut].to_vec(),
        1 if a.is_empty() => Vec::new(),
        1 => {
            let mut flipped = a.to_vec();
            flipped[cut.min(a.len() - 1)] ^= 1 << ((at >> 32) % 8);
            flipped
        }
        2 => {
            let tail = ((at >> 16) % (b.len() as u64 + 1)) as usize;
            [&a[..cut], &b[tail..]].concat()
        }
        _ => [&a[..cut], &[0xFF][..], &a[cut..]].concat(),
    }
}

/// A journal written line by line reads back as exactly its heartbeats.
#[test]
fn valid_journals_round_trip() {
    check(
        "journal_roundtrip",
        &gen::vec(heartbeat_gen(), 0, 6),
        |beats| {
            let path = temp_journal();
            std::fs::write(&path, journal_bytes(beats)).map_err(|e| e.to_string())?;
            let read = read_journal(&path);
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(read, Ok(beats.clone()));
            Ok(())
        },
    );
}

/// Truncated, bit-flipped, spliced and invalid-UTF-8 journals return `Ok`
/// or `Err` and never panic. A truncated journal is a torn one: it reads
/// back as the heartbeats whose lines survived whole.
#[test]
fn mutated_journals_never_panic_and_truncation_is_a_torn_tail() {
    let beats = || gen::vec(heartbeat_gen(), 0, 6);
    let g = gen::zip4(beats(), beats(), gen::u8_range(0, 4), gen::u64_any());
    let cfg = Config {
        cases: 500,
        ..Config::default()
    };
    check_with(&cfg, "journal_mutated", &g, |(a, b, kind, at)| {
        let bytes = mutate(&journal_bytes(a), &journal_bytes(b), *kind, *at);
        let path = temp_journal();
        std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
        let read = read_journal(&path);
        let _ = std::fs::remove_file(&path);
        if *kind == 0 {
            let whole = bytes.iter().filter(|&&c| c == b'\n').count();
            prop_assert_eq!(read, Ok(a[..whole].to_vec()));
        }
        Ok(())
    });
}
