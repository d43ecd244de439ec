//! Order statistics over raw samples (no histogram buckets).

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` % of the samples at or below it; 0 if empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Prints a set-up time summary: median, range and repetitions.
pub fn report_setup(times: &[f64]) {
    let (lo, hi) = times.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
        (lo.min(t), hi.max(t))
    });
    println!(
        "set-up: median {:.6} s over {} repetitions (min {lo:.6}, max {hi:.6})",
        median(times),
        times.len()
    );
}

/// Operation latency over the windows of a run (its rounds, or stretches
/// of one long phase): p50 of every operation pooled, which one slow
/// window barely moves; p95 and p99 per window with the median taken over
/// windows, since a pooled tail would track the slowest window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Operations over all windows.
    pub n: usize,
    /// Operations in the smallest window.
    pub per_window: usize,
    pub windows: usize,
}

impl Latency {
    pub fn of_windows(windows: &[Vec<f64>]) -> Self {
        let sorted = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s
        };
        let pooled = sorted(&windows.concat());
        let sorted_windows: Vec<Vec<f64>> = windows.iter().map(|w| sorted(w)).collect();
        let tail = |p: f64| {
            median(
                &sorted_windows
                    .iter()
                    .map(|w| percentile(w, p))
                    .collect::<Vec<_>>(),
            )
        };
        Latency {
            p50: percentile(&pooled, 50.0),
            p95: tail(95.0),
            p99: tail(99.0),
            n: pooled.len(),
            per_window: windows.iter().map(Vec::len).min().unwrap_or(0),
            windows: windows.len(),
        }
    }

    /// The percentiles with their sample counts, for the report.
    pub fn describe(&self, unit: &str) -> String {
        let k = beyond(self.per_window, 99.0);
        let warn = if k < 10 {
            " (fewer than 10 beyond p99)"
        } else {
            ""
        };
        format!(
            "p50 {:.4} {unit} over {} samples; p95 {:.4} {unit}, p99 {:.4} {unit}: median over {} windows of {} samples, {} beyond p95, {k} beyond p99{warn}",
            self.p50,
            self.n,
            self.p95,
            self.p99,
            self.windows,
            self.per_window,
            beyond(self.per_window, 95.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(v.len(), 99.0), 10);
        assert_eq!(percentile(&v, 50.0), 500.0);
        // Below 1000 samples fewer than ten lie beyond p99.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1100, 99.0), 11);
    }

    #[test]
    fn one_slow_window_moves_no_percentile_much() {
        let round = |scale: f64| {
            (1..=1000)
                .map(|i| scale * f64::from(i))
                .rev()
                .collect::<Vec<_>>()
        };
        let l = Latency::of_windows(&[round(1.0), round(3.0), round(1.0)]);
        // Pooled, the 1500th of 3000 samples is 643: near the fast rounds'
        // own median of 500, far below the slow round's 1500.
        assert_eq!(
            (l.p50, l.p95, l.p99, l.n, l.per_window, l.windows),
            (643.0, 950.0, 990.0, 3000, 1000, 3)
        );
        assert_eq!(beyond(l.per_window, 99.0), 10);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
