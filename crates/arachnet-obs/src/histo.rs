//! Fixed-bucket log2 histograms with quantile readout.

/// Number of buckets: one for zero plus one per power of two up to `u64::MAX`.
const BUCKETS: usize = 65;

/// A fixed-size log2 histogram over `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i - 1]`. Quantile readout returns the *upper bound* of the
/// bucket containing the requested rank, so any quantile is bracketed within
/// one power-of-two bucket of the true order statistic (the exact `min`/`max`
/// are tracked separately and clamp the reported bounds).
///
/// Histograms merge by bucket-wise addition: per-thread histograms folded in
/// any order equal the single-threaded histogram for any interleaving of the
/// same samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histo {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histo {
    fn default() -> Self {
        Self::new()
    }
}

impl Histo {
    /// A fresh empty histogram.
    pub const fn new() -> Self {
        Histo {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample.
    #[inline]
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive `[lo, hi]` value range of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else if i >= 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histo) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Inclusive `[lo, hi]` bracket for the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// The true order statistic of rank `ceil(q * count)` is guaranteed to
    /// lie inside the returned range. Returns `(0, 0)` for an empty
    /// histogram.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_range(i);
                return (lo.max(self.min()), hi.min(self.max));
            }
        }
        (self.min(), self.max)
    }

    /// Point estimate for the `q`-quantile: the upper bound of its bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// Median estimate (upper bucket bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (upper bucket bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histo::bucket(0), 0);
        assert_eq!(Histo::bucket(1), 1);
        assert_eq!(Histo::bucket(2), 2);
        assert_eq!(Histo::bucket(3), 2);
        assert_eq!(Histo::bucket(4), 3);
        assert_eq!(Histo::bucket(u64::MAX), 64);
    }

    #[test]
    fn quantiles_bracket_exact_values() {
        let mut h = Histo::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (lo, hi) = h.quantile_bounds(0.5);
        assert!(lo <= 500 && 500 <= hi, "p50 bracket {lo}..{hi}");
        let (lo, hi) = h.quantile_bounds(0.99);
        assert!(lo <= 990 && 990 <= hi, "p99 bracket {lo}..{hi}");
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = Histo::new();
        let mut b = Histo::new();
        let mut whole = Histo::new();
        for v in 0..100u64 {
            if v % 3 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
            whole.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histo::new();
        assert_eq!(h.quantile_bounds(0.5), (0, 0));
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
