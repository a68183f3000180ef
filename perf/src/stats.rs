//! The three reductions every reported number goes through: a median,
//! a nearest-rank percentile, and the median over epochs of a rate.
//! All take `f64` samples in the metric's own unit.

/// Median of `xs` (sorts in place). Even counts take the mean of the
/// two middle samples. Panics on an empty slice: a metric with no
/// samples is an invalid run, not a zero.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median over epochs of `ops / seconds`. One epoch that a neighbour
/// on the box slowed down moves the mean of the run but not this.
pub fn median_rate(epochs: &[(u64, f64)]) -> f64 {
    let mut rates: Vec<f64> = epochs.iter().map(|&(ops, s)| ops as f64 / s).collect();
    median(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.999), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[9.0], 0.99), 9.0);
    }

    #[test]
    fn median_rate_ignores_one_slow_epoch() {
        // Four epochs at 1000 ops/s and one that took ten times longer.
        let epochs = [(500, 0.5), (500, 0.5), (500, 5.0), (500, 0.5), (500, 0.5)];
        assert_eq!(median_rate(&epochs), 1000.0);
        let mean = 2500.0 / 7.0;
        assert!(mean < 400.0, "the mean would have reported {mean}");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_is_an_error_not_a_zero() {
        median(&mut []);
    }
}
