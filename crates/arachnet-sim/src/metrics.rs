//! Statistics helpers for experiment summaries.
//!
//! The evaluation reports medians and spreads (box plots in Fig. 15), CDFs
//! (Fig. 14b), and trailing-window ratios (Fig. 16 — those live in
//! `arachnet_core::convergence`). These are the small, exact helpers that
//! turn raw trial vectors into the numbers the tables print.

/// Five-number summary of a sample (the box-plot numbers of Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNum {
    /// Minimum.
    pub min: f64,
    /// Lower quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile (75th percentile).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes a percentile (0–100) with linear interpolation. Panics on an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Five-number summary of an unsorted sample.
pub fn five_num(values: &[f64]) -> FiveNum {
    assert!(!values.is_empty());
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    FiveNum {
        min: s[0],
        q1: percentile(&s, 25.0),
        median: percentile(&s, 50.0),
        q3: percentile(&s, 75.0),
        max: s[s.len() - 1],
    }
}

/// An empirical CDF over a sample (Fig. 14b).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the CDF from a sample.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Quantile: the smallest sample value `v` with `P(X ≤ v) ≥ q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty());
        assert!((0.0..=1.0).contains(&q));
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }
}

/// Mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert!((percentile(&s, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn five_num_of_known_sample() {
        let f = five_num(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.max, 5.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.q3, 4.0);
    }

    #[test]
    fn single_value_summary() {
        let f = five_num(&[7.0]);
        assert_eq!(f.min, 7.0);
        assert_eq!(f.median, 7.0);
        assert_eq!(f.max, 7.0);
    }

    #[test]
    fn ecdf_basic_properties() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.at(0.5), 0.0);
        assert_eq!(e.at(2.0), 0.5);
        assert_eq!(e.at(10.0), 1.0);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn ecdf_quantile_matches_paper_usage() {
        // "99 % of Stage 2 delays under 281.9 ms" style query.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let e = Ecdf::new(&values);
        assert_eq!(e.quantile(0.99), 99.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0, 8.0, 5.0]);
        let f: Vec<f64> = (0..20)
            .map(|i| e.at(1.0 + 7.0 * f64::from(i) / 19.0))
            .collect();
        for w in f.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(f[19], 1.0);
    }

    #[test]
    fn mean_of_a_sample() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe_where_documented() {
        assert_eq!(mean(&[]), 0.0);
        assert!(Ecdf::new(&[]).is_empty());
        assert_eq!(Ecdf::new(&[]).at(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        percentile(&[], 50.0);
    }
}
