//! Latency statistics shared by every layer that reports percentiles or
//! wall times: the batch runner's summaries, the bench harness's tables
//! and `BENCH_*.json` rows, and the CLI's `serve` replay. One tested
//! implementation — nearest-rank on an ascending list plus the unit
//! conversions — instead of a copy per reporter.

use std::time::Duration;

/// Nearest-rank percentile of an ascending latency list: `q` in
/// `[0, 1]`, `q = 0.5` the median, `q = 0.99` the p99. Returns
/// [`Duration::ZERO`] for an empty list; `q` outside `[0, 1]` clamps to
/// the extreme elements.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `d` in microseconds, as the float the tables and JSON rows print.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `d` in milliseconds, as the float the tables and JSON rows print.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(list: &[u64]) -> Vec<Duration> {
        list.iter().map(|&v| Duration::from_micros(v)).collect()
    }

    #[test]
    fn empty_list_is_zero() {
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn single_element_is_every_percentile() {
        let l = us(&[7]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&l, q), Duration::from_micros(7));
        }
    }

    #[test]
    fn nearest_rank_picks_expected_elements() {
        let l = us(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(percentile(&l, 0.0), Duration::from_micros(10));
        // (10 - 1) * 0.5 = 4.5, rounds to index 5 (ties round up).
        assert_eq!(percentile(&l, 0.5), Duration::from_micros(60));
        assert_eq!(percentile(&l, 1.0), Duration::from_micros(100));
        // (10 - 1) * 0.99 = 8.91 → index 9.
        assert_eq!(percentile(&l, 0.99), Duration::from_micros(100));
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let l = us(&[1, 2, 3]);
        assert_eq!(percentile(&l, -1.0), Duration::from_micros(1));
        assert_eq!(percentile(&l, 2.0), Duration::from_micros(3));
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let l = us(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let mut sorted = l.clone();
        sorted.sort_unstable();
        let mut prev = Duration::ZERO;
        for i in 0..=100 {
            let p = percentile(&sorted, i as f64 / 100.0);
            assert!(p >= prev, "p{i} regressed");
            prev = p;
        }
    }

    #[test]
    fn unit_conversions() {
        let d = Duration::from_micros(1_500);
        assert!((micros(d) - 1_500.0).abs() < 1e-9);
        assert!((millis(d) - 1.5).abs() < 1e-12);
    }
}
