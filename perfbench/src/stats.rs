//! Order statistics for the benchmark's timing samples.

/// Nearest-rank `num/den` quantile of ascending `sorted`: the smallest
/// sample with at least `num/den` of the samples at or below it. `None`
/// for an empty sample.
pub fn quantile(sorted: &[f64], num: usize, den: usize) -> Option<f64> {
    let rank = rank(sorted.len(), num, den)?;
    Some(sorted[rank - 1])
}

/// How many samples lie strictly beyond the nearest-rank `num/den`
/// quantile of `n` samples. A percentile is reported only when this is
/// at least [`MIN_BEYOND`].
pub fn samples_beyond(n: usize, num: usize, den: usize) -> usize {
    rank(n, num, den).map_or(0, |r| n - r)
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, num: usize, den: usize) -> Option<usize> {
    if n == 0 || den == 0 || num > den {
        return None;
    }
    Some((n * num).div_ceil(den).max(1))
}

/// Sorts `values` and returns its nearest-rank `num/den` quantile.
pub fn sorted_quantile(values: &mut [f64], num: usize, den: usize) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    quantile(values, num, den)
}

/// Median (nearest-rank 1/2 quantile); `NaN` for no samples, which the
/// report refuses as a metric value.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sorted_quantile(&mut v, 1, 2).unwrap_or(f64::NAN)
}

/// Nanosecond durations as ascending microseconds.
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of nanosecond durations, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    quantile(&sorted_us(ns), 1, 2).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 1, 2), Some(50.0));
        assert_eq!(quantile(&v, 99, 100), Some(99.0));
        assert_eq!(quantile(&v, 9, 10), Some(90.0));
        assert_eq!(quantile(&v, 1, 1), Some(100.0));
        assert_eq!(quantile(&v, 0, 100), Some(1.0));
        assert_eq!(quantile(&[], 1, 2), None);
        assert_eq!(quantile(&[7.0], 99, 100), Some(7.0));
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(sorted_quantile(&mut odd, 1, 2), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn samples_beyond_sets_the_minimum_phase_size() {
        // p99 needs 1000 samples for ten beyond it, p90 needs 100.
        assert_eq!(samples_beyond(1000, 99, 100), 10);
        assert_eq!(samples_beyond(999, 99, 100), 9);
        assert_eq!(samples_beyond(100, 9, 10), 10);
        assert_eq!(samples_beyond(99, 9, 10), 9);
        assert_eq!(samples_beyond(0, 1, 2), 0);
        // The count agrees with the sample the quantile picks.
        for n in 1..300usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let q = quantile(&v, 99, 100).unwrap();
            let beyond = v.iter().filter(|&&x| x > q).count();
            assert_eq!(beyond, samples_beyond(n, 99, 100), "n = {n}");
        }
    }

    #[test]
    fn microsecond_helpers() {
        assert_eq!(sorted_us(&[3_000, 1_000]), vec![1.0, 3.0]);
        assert_eq!(median_us(&[5_000, 1_000, 9_000]), 5.0);
    }
}
