//! Order statistics the harness reports: medians, the percentile rule,
//! quartile spread and the geometric mean.

/// How many samples must lie beyond a reported percentile (choosing-metrics
/// §1): a p99 is printed from 1000 samples or more, never from fewer.
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` (0..=1) of `samples` by the nearest-rank rule.
/// Sorts a copy; `None` on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// Nearest-rank quantile of an already sorted, non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, or 0.0 for an empty sample (a layer the workload bypasses).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Whether `samples` supports percentile `q`: at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supports(samples: usize, q: f64) -> bool {
    // The epsilon keeps (1 - 0.9) * 100 from rounding down to 9.
    ((1.0 - q) * samples as f64 + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest of p50/p90/p99/p999 that `samples` supports, as
/// `(quantile, value)`; `None` when not even the median has ten samples
/// beyond it.
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supports(samples.len(), q))
        .map(|q| (q, quantile(samples, q).expect("supported implies non-empty")))
}

/// Percentile `q` when supported, else 0.0 (reported as "under-sampled").
pub fn percentile_or_zero(samples: &[f64], q: f64) -> f64 {
    if supports(samples.len(), q) {
        quantile(samples, q).unwrap_or(0.0)
    } else {
        0.0
    }
}

/// The median per-second rate of events at `offsets` (seconds since the
/// window opened) over the whole seconds of a `window`-second window. On a
/// shared host a stalled second drags a mean down and a lucky one pulls it
/// up; the median second is the rate the system sustains. Needs a
/// stationary load: a workload whose state grows reports count / elapsed.
pub fn median_rate(offsets: &[f64], window: f64) -> f64 {
    let buckets = per_second_counts(offsets, window);
    if buckets.is_empty() {
        return if window > 0.0 { offsets.len() as f64 / window } else { 0.0 };
    }
    median(&buckets)
}

/// How many of the events at `offsets` fell into each whole second of a
/// `window`-second window (a trailing partial second is not a bucket).
pub fn per_second_counts(offsets: &[f64], window: f64) -> Vec<f64> {
    let mut buckets = vec![0.0; window.floor() as usize];
    for offset in offsets {
        if let Some(bucket) = buckets.get_mut(*offset as usize) {
            *bucket += 1.0;
        }
    }
    buckets
}

/// Geometric mean of the positive entries; 0.0 when there are none.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Quartiles by the exclusive method — the rule of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance driver uses.
/// Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let position = k * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median (the calibration
/// criterion); `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `p50(last decile) / p50(first decile)` of a series in arrival order —
/// how much an operation slows as state accumulates. 0.0 under 20 samples.
pub fn decile_growth(series: &[f64]) -> (f64, f64, f64) {
    if series.len() < 20 {
        return (0.0, 0.0, 0.0);
    }
    let decile = series.len() / 10;
    let first = median(&series[..decile]);
    let last = median(&series[series.len() - decile..]);
    let growth = if first > 0.0 { last / first } else { 0.0 };
    (first, last, growth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_percentile(&samples), Some((0.99, 990.0)));
        assert_eq!(highest_percentile(&samples[..150]), Some((0.9, 135.0)));
        assert_eq!(highest_percentile(&samples[..12]), None);
        assert_eq!(percentile_or_zero(&samples[..500], 0.99), 0.0);
        assert_eq!(percentile_or_zero(&samples, 0.99), 990.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 1.0), Some(5.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_rate_ignores_a_stalled_second() {
        // 100 events in each of seconds 0, 1, 3, 4; second 2 stalls at 10;
        // the partial sixth second is not a bucket.
        let mut offsets = Vec::new();
        for second in [0.0, 1.0, 3.0, 4.0] {
            offsets.extend((0..100).map(|i| second + f64::from(i) / 100.0));
        }
        offsets.extend((0..10).map(|i| 2.0 + f64::from(i) / 10.0));
        offsets.extend((0..30).map(|i| 5.0 + f64::from(i) / 100.0));
        assert_eq!(median_rate(&offsets, 5.4), 100.0);
        assert_eq!(median_rate(&[0.1, 0.2], 0.5), 4.0);
    }

    #[test]
    fn geometric_mean_skips_non_positive() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 8.0, 0.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&values).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, _, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn growth_compares_last_decile_with_first() {
        let series: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i)).collect();
        let (first, last, growth) = decile_growth(&series);
        assert_eq!((first, last), (5.0, 95.0));
        assert!((growth - 19.0).abs() < 1e-12);
        assert_eq!(decile_growth(&series[..10]), (0.0, 0.0, 0.0));
    }
}
