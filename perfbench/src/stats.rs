//! Statistics over raw samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile
//! of `n` sorted samples is the sample at rank `ceil(p/100 * n)`. It is
//! always one of the measured values, so it never exceeds the maximum,
//! and it is reported together with the sample count it came from.

/// One percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank `p`-th percentile (`p` in percent, 0..=100) of `samples`
/// in any order; `None` when empty. The rank is computed in integers, so
/// p90 of 100 samples is exactly the 90th.
pub fn percentile(samples: &[f64], p: usize) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p.min(100) * n).div_ceil(100);
    Some(Percentile {
        value: sorted[rank.clamp(1, n) - 1],
        samples: n,
    })
}

/// True when at least ten of `n` samples lie beyond the `p`-th
/// percentile, the least a tail percentile needs to mean anything.
pub fn tail_is_supported(n: usize, p: usize) -> bool {
    n - (p.min(100) * n).div_ceil(100) >= 10
}

/// Median (nearest rank) of a non-empty sample; 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50).map_or(0.0, |p| p.value)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_ten() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50).unwrap().value, 5.0);
        assert_eq!(percentile(&xs, 90).unwrap().value, 9.0);
        assert_eq!(percentile(&xs, 100).unwrap().value, 10.0);
        assert_eq!(percentile(&xs, 0).unwrap().value, 1.0);
        assert_eq!(percentile(&xs, 50).unwrap().samples, 10);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90).unwrap().value, 90.0);
        assert_eq!(percentile(&xs, 99).unwrap().value, 99.0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&xs, 50).unwrap().value, 5.0);
        assert_eq!(percentile(&xs, 90).unwrap().value, 9.0);
    }

    #[test]
    fn percentiles_are_samples_and_never_exceed_the_max() {
        let xs = [0.464, 0.2, 0.3, 0.31, 0.1];
        let max = xs.iter().copied().fold(f64::MIN, f64::max);
        for p in [1, 25, 50, 90, 99, 100, 150] {
            let q = percentile(&xs, p).unwrap().value;
            assert!(q <= max, "p{p} = {q} exceeds max {max}");
            assert!(xs.contains(&q), "p{p} = {q} is not a sample");
        }
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(percentile(&[4.2], 90).unwrap().value, 4.2);
        assert!(percentile(&[], 50).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!tail_is_supported(99, 90));
        assert!(tail_is_supported(100, 90));
        assert!(tail_is_supported(20, 50));
        assert!(!tail_is_supported(999, 99));
        assert!(tail_is_supported(1000, 99));
    }
}
