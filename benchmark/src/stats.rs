//! Latency samples and the percentile rule the benchmark reports under.
//!
//! A percentile is trusted only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p90 needs 100 samples and a median needs 20. The timed
//! loops run at least twenty cycles for that reason; a thinner sample is
//! still reported (the driver wants a number from every run) but flagged.

use std::time::Duration;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Whether a sample of `n` supports percentile `q` under the
/// ten-samples-beyond rule.
#[must_use]
pub fn supports(n: usize, q: f64) -> bool {
    // The epsilon keeps (1 - 0.9) * 100 from flooring to 9.
    let beyond = ((1.0 - q) * n as f64 + 1e-9).floor() as usize;
    beyond >= MIN_BEYOND
}

/// Median of an unsorted slice (mean of the middle pair for even counts),
/// used for repeated set-ups and lab repetitions where every value counts.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One operation class's latencies, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    nanos: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.nanos.push(elapsed.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nanos.is_empty()
    }

    /// Percentile `q` in nanoseconds. Callers that report it check
    /// [`supports`] and say so when the sample is too thin for the rule.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    #[must_use]
    pub fn percentile_ns_unchecked(&self, q: f64) -> f64 {
        let mut sorted: Vec<f64> = self.nanos.iter().map(|&n| n as f64).collect();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(Duration::from_nanos(i));
        }
        s
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile_sorted(&sorted, 0.5), 3.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(19, 0.5));
        assert!(supports(20, 0.5));
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(samples(100).percentile_ns_unchecked(0.9), 90.0);
        assert_eq!(samples(20).percentile_ns_unchecked(0.5), 11.0);
    }

    #[test]
    fn median_takes_the_middle_or_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
