//! Exact-sample statistics. Every quantile the benchmark prints is
//! picked from the sorted per-op samples it took itself; nothing here
//! (or anywhere in the benchmark) reads an `ariadne_obs` histogram.

/// Fewest samples for which `op_p90_ms` is a measurement: ten samples
/// lie beyond the 90th percentile of a hundred.
pub const P90_MIN_SAMPLES: usize = 100;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` and picks quantile `q`; refuses (returns `None`)
/// below `min_samples`.
pub fn quantile(samples: &mut [u64], q: f64, min_samples: usize) -> Option<u64> {
    if samples.len() < min_samples.max(1) {
        return None;
    }
    samples.sort_unstable();
    quantile_sorted(samples, q)
}

/// Median of floats (mean of the two middle values for an even count).
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance rule compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.5, 1), Some(50));
        assert_eq!(quantile(&mut s, 0.9, 1), Some(90));
        assert_eq!(quantile(&mut s, 1.0, 1), Some(100));
        assert_eq!(quantile(&mut s, 0.0, 1), Some(1));
        let mut odd = vec![7, 3, 5];
        assert_eq!(quantile(&mut odd, 0.5, 1), Some(5));
    }

    #[test]
    fn p90_is_refused_below_a_hundred_samples() {
        let mut s: Vec<u64> = (0..99).collect();
        assert_eq!(quantile(&mut s, 0.9, P90_MIN_SAMPLES), None);
        s.push(99);
        assert_eq!(quantile(&mut s, 0.9, P90_MIN_SAMPLES), Some(89));
        assert_eq!(quantile(&mut [], 0.5, 0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&v), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
