//! Seeded, deterministic change-point detection (E-Divisive mean).
//!
//! The algorithm follows the continuous-benchmarking loop of "Automated
//! System Performance Testing at MongoDB": recursively split the series
//! at the point maximizing the between-segment mean shift statistic
//!
//! ```text
//! q(k) = (k · (n-k)) / n · (mean(x[..k]) − mean(x[k..]))²
//! ```
//!
//! and accept the split only when a permutation test says a shift this
//! large is unlikely under the no-change hypothesis. All randomness comes
//! from a splitmix64 generator seeded from the caller's seed and the
//! segment bounds, so the same series + seed always yields the same
//! change points — a hard requirement for an endpoint that CI compares
//! run-over-run.

use chronos_util::SplitMix64;

/// Detection parameters. The defaults match the regression endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePointConfig {
    /// Permutations per significance test (the p-value resolution is
    /// `1 / (permutations + 1)`).
    pub permutations: u32,
    /// Accept a split when its p-value is `<=` this.
    pub significance: f64,
    /// Minimum rows on each side of a split.
    pub min_segment: usize,
    /// Seed for the permutation shuffles.
    pub seed: u64,
}

impl Default for ChangePointConfig {
    fn default() -> Self {
        ChangePointConfig { permutations: 199, significance: 0.05, min_segment: 5, seed: 42 }
    }
}

/// One detected change point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// Index of the first observation of the new regime.
    pub index: usize,
    /// Mean of the segment before the change.
    pub before_mean: f64,
    /// Mean of the segment after the change.
    pub after_mean: f64,
    /// Permutation-test p-value of the split.
    pub p_value: f64,
}

/// Seeded Fisher-Yates shuffle.
fn shuffle(values: &mut [f64], rng: &mut SplitMix64) {
    for i in (1..values.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        values.swap(i, j);
    }
}

/// The best split of `xs` under the mean-shift statistic, honoring
/// `min_segment`; returns `(split, q, before_mean, after_mean)`.
fn best_split(xs: &[f64], min_segment: usize) -> Option<(usize, f64, f64, f64)> {
    let n = xs.len();
    if n < min_segment * 2 {
        return None;
    }
    // One prefix-sum pass makes every candidate split O(1).
    let total: f64 = xs.iter().sum();
    let mut prefix = 0.0;
    let mut best: Option<(usize, f64, f64, f64)> = None;
    for (k, &x) in xs.iter().enumerate().take(n - min_segment) {
        prefix += x;
        let k = k + 1;
        if k < min_segment {
            continue;
        }
        let n1 = k as f64;
        let n2 = (n - k) as f64;
        let mean1 = prefix / n1;
        let mean2 = (total - prefix) / n2;
        let diff = mean1 - mean2;
        let q = (n1 * n2) / (n1 + n2) * diff * diff;
        if best.map(|(_, bq, _, _)| q > bq).unwrap_or(true) {
            best = Some((k, q, mean1, mean2));
        }
    }
    best
}

/// Recursive segmentation over `xs[lo..hi]`.
fn detect_segment(
    xs: &[f64],
    lo: usize,
    hi: usize,
    cfg: &ChangePointConfig,
    out: &mut Vec<ChangePoint>,
) {
    let segment = &xs[lo..hi];
    let Some((split, observed_q, before_mean, after_mean)) =
        best_split(segment, cfg.min_segment.max(1))
    else {
        return;
    };
    // Permutation test: how often does a shuffled segment produce a mean
    // shift at least this strong? Deterministic per (seed, lo, hi).
    let mut rng = SplitMix64::new(
        cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add((lo as u64) << 32 | hi as u64),
    );
    let mut shuffled = segment.to_vec();
    let mut at_least_as_strong = 0u32;
    for _ in 0..cfg.permutations {
        shuffle(&mut shuffled, &mut rng);
        if let Some((_, q, _, _)) = best_split(&shuffled, cfg.min_segment.max(1)) {
            if q >= observed_q {
                at_least_as_strong += 1;
            }
        }
    }
    let p_value = (at_least_as_strong as f64 + 1.0) / (cfg.permutations as f64 + 1.0);
    if p_value > cfg.significance {
        return;
    }
    out.push(ChangePoint { index: lo + split, before_mean, after_mean, p_value });
    detect_segment(xs, lo, lo + split, cfg, out);
    detect_segment(xs, lo + split, hi, cfg, out);
}

/// Detects change points in `series`, sorted by index. Deterministic for
/// a fixed `(series, cfg)`.
pub fn detect_change_points(series: &[f64], cfg: &ChangePointConfig) -> Vec<ChangePoint> {
    let mut out = Vec::new();
    detect_segment(series, 0, series.len(), cfg, &mut out);
    out.sort_by_key(|cp| cp.index);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic ±`amplitude` noise around `base`.
    fn noisy(base: f64, amplitude: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let unit = rng.next_u64() as f64 / u64::MAX as f64;
                base + (unit - 0.5) * 2.0 * amplitude
            })
            .collect()
    }

    #[test]
    fn flat_noisy_series_has_no_change_points() {
        let cfg = ChangePointConfig::default();
        for seed in [1u64, 7, 99] {
            let series = noisy(1000.0, 50.0, 50, seed);
            assert!(
                detect_change_points(&series, &cfg).is_empty(),
                "false positive on flat series (seed {seed})"
            );
        }
    }

    #[test]
    fn detects_a_2x_step() {
        let cfg = ChangePointConfig::default();
        let mut series = noisy(1000.0, 50.0, 25, 3);
        series.extend(noisy(2000.0, 50.0, 25, 4));
        let found = detect_change_points(&series, &cfg);
        assert_eq!(found.len(), 1, "{found:?}");
        let cp = found[0];
        assert!((24..=26).contains(&cp.index), "index {}", cp.index);
        assert!((cp.before_mean - 1000.0).abs() < 60.0);
        assert!((cp.after_mean - 2000.0).abs() < 60.0);
        assert!(cp.p_value <= cfg.significance);
    }

    #[test]
    fn detects_multiple_steps() {
        let cfg = ChangePointConfig::default();
        let mut series = noisy(100.0, 2.0, 20, 5);
        series.extend(noisy(200.0, 2.0, 20, 6));
        series.extend(noisy(50.0, 2.0, 20, 7));
        let found = detect_change_points(&series, &cfg);
        let indices: Vec<usize> = found.iter().map(|c| c.index).collect();
        assert!(indices.iter().any(|&i| (19..=21).contains(&i)), "{indices:?}");
        assert!(indices.iter().any(|&i| (39..=41).contains(&i)), "{indices:?}");
    }

    #[test]
    fn detection_is_deterministic_per_seed() {
        let mut series = noisy(1000.0, 80.0, 30, 11);
        series.extend(noisy(1500.0, 80.0, 30, 12));
        let cfg = ChangePointConfig::default();
        let a = detect_change_points(&series, &cfg);
        let b = detect_change_points(&series, &cfg);
        assert_eq!(a, b);
        // A different seed may move p-values but stays deterministic too.
        let cfg2 = ChangePointConfig { seed: 1234, ..cfg };
        assert_eq!(detect_change_points(&series, &cfg2), detect_change_points(&series, &cfg2));
    }

    #[test]
    fn short_series_are_left_alone() {
        let cfg = ChangePointConfig::default();
        assert!(detect_change_points(&[], &cfg).is_empty());
        assert!(detect_change_points(&[1.0, 100.0, 1.0], &cfg).is_empty());
        let nine = [1.0, 1.0, 1.0, 1.0, 100.0, 100.0, 100.0, 100.0, 100.0];
        // 9 < 2 * min_segment: no split is admissible.
        assert!(detect_change_points(&nine, &cfg).is_empty());
    }
}
