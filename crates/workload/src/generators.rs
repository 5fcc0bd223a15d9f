//! Request-distribution generators.
//!
//! Each generator produces values in `[0, n)` for a keyspace of size `n`
//! (possibly growing, for `latest`). The zipfian implementation follows the
//! rejection-free method of Gray et al. ("Quickly Generating Billion-Record
//! Synthetic Databases", SIGMOD '94), as used by the YCSB reference
//! implementation, including the same `ZIPFIAN_CONSTANT = 0.99`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The default zipfian skew used by YCSB.
pub const ZIPFIAN_CONSTANT: f64 = 0.99;

/// A source of keyspace indexes.
pub trait Generator: Send {
    /// Draws the next index in `[0, cardinality)`.
    fn next(&mut self, rng: &mut StdRng) -> u64;

    /// The current keyspace cardinality.
    fn cardinality(&self) -> u64;
}

/// Uniform over `[0, n)`.
#[derive(Debug, Clone)]
pub struct UniformGenerator {
    n: u64,
}

impl UniformGenerator {
    /// Creates a uniform generator over `[0, n)` (n ≥ 1).
    pub fn new(n: u64) -> Self {
        UniformGenerator { n: n.max(1) }
    }
}

impl Generator for UniformGenerator {
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.n)
    }

    fn cardinality(&self) -> u64 {
        self.n
    }
}

/// Zipfian over `[0, n)`: item 0 is the most popular.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    items: u64,
    theta: f64,
    zetan: f64,
    zeta2theta: f64,
    /// `1 + 0.5^theta`: draws with `u * zetan` below it pick item 1.
    second_item_bound: f64,
    alpha: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// Creates a zipfian generator with the default YCSB constant.
    pub fn new(items: u64) -> Self {
        Self::with_theta(items, ZIPFIAN_CONSTANT)
    }

    /// Creates a zipfian generator with an explicit skew `theta` in (0, 1).
    pub fn with_theta(items: u64, theta: f64) -> Self {
        let items = items.max(1);
        let zetan = Self::zeta(items, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        let second_item_bound = 1.0 + 0.5f64.powf(theta);
        ZipfianGenerator { items, theta, zetan, zeta2theta, second_item_bound, alpha, eta }
    }

    /// Harmonic-like normalization constant `zeta(n, theta)`.
    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Extends the keyspace (used by `latest` when records are inserted).
    /// Adds the new terms to the normalization in the order [`Self::zeta`]
    /// sums them, so a grown generator is bit-identical to a fresh one.
    pub fn grow_to(&mut self, items: u64) {
        if items <= self.items {
            return;
        }
        for i in (self.items + 1)..=items {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.items = items;
        self.eta = (1.0 - (2.0 / items as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2theta / self.zetan);
    }
}

impl Generator for ZipfianGenerator {
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.second_item_bound {
            return 1;
        }
        let idx = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.items - 1)
    }

    fn cardinality(&self) -> u64 {
        self.items
    }
}

/// FNV-1a 64-bit hash, used to scatter zipfian popularity over the keyspace.
pub fn fnv1a64(value: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = OFFSET;
    for shift in (0..64).step_by(8) {
        hash ^= (value >> shift) & 0xFF;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Zipfian with hashed item order, so the popular items are spread across
/// the keyspace instead of clustered at the low indexes (matches YCSB's
/// `ScrambledZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: ZipfianGenerator,
    items: u64,
}

impl ScrambledZipfian {
    /// Creates a scrambled zipfian over `[0, items)`.
    pub fn new(items: u64) -> Self {
        let items = items.max(1);
        ScrambledZipfian { inner: ZipfianGenerator::new(items), items }
    }
}

impl Generator for ScrambledZipfian {
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        let raw = self.inner.next(rng);
        fnv1a64(raw) % self.items
    }

    fn cardinality(&self) -> u64 {
        self.items
    }
}

/// Skews towards the most recently inserted records: index `frontier - 1`
/// is most popular (YCSB's `SkewedLatestGenerator`).
#[derive(Debug, Clone)]
pub struct LatestGenerator {
    zipf: ZipfianGenerator,
}

impl LatestGenerator {
    /// Creates a latest generator for an initial frontier of `items`.
    pub fn new(items: u64) -> Self {
        LatestGenerator { zipf: ZipfianGenerator::new(items.max(1)) }
    }

    /// Advances the insert frontier in place (O(new items)).
    pub fn grow_to(&mut self, items: u64) {
        self.zipf.grow_to(items);
    }
}

impl Generator for LatestGenerator {
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        let n = self.zipf.cardinality();
        let offset = self.zipf.next(rng);
        n - 1 - offset
    }

    fn cardinality(&self) -> u64 {
        self.zipf.cardinality()
    }
}

/// A hot set receiving a fixed fraction of requests.
#[derive(Debug, Clone)]
pub struct HotspotGenerator {
    n: u64,
    hot_items: u64,
    hot_opn_fraction: f64,
}

impl HotspotGenerator {
    /// `hot_set_fraction` of the keyspace receives `hot_opn_fraction` of
    /// operations.
    pub fn new(n: u64, hot_set_fraction: f64, hot_opn_fraction: f64) -> Self {
        let n = n.max(1);
        let hot_items = ((n as f64 * hot_set_fraction.clamp(0.0, 1.0)) as u64).max(1);
        HotspotGenerator { n, hot_items, hot_opn_fraction: hot_opn_fraction.clamp(0.0, 1.0) }
    }
}

impl Generator for HotspotGenerator {
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        if rng.gen::<f64>() < self.hot_opn_fraction {
            rng.gen_range(0..self.hot_items)
        } else if self.hot_items < self.n {
            rng.gen_range(self.hot_items..self.n)
        } else {
            rng.gen_range(0..self.n)
        }
    }

    fn cardinality(&self) -> u64 {
        self.n
    }
}

/// Exponentially distributed indexes (YCSB's `ExponentialGenerator`):
/// a fraction `percentile` of draws fall within `frac * n`.
#[derive(Debug, Clone)]
pub struct ExponentialGenerator {
    n: u64,
    gamma: f64,
}

impl ExponentialGenerator {
    /// YCSB defaults: 95% of draws in the most recent 10% of the keyspace.
    pub fn new(n: u64) -> Self {
        Self::with_shape(n, 0.95, 0.10)
    }

    /// Custom shape: `percentile` of draws within `frac * n`.
    pub fn with_shape(n: u64, percentile: f64, frac: f64) -> Self {
        let n = n.max(1);
        let gamma = -(1.0 - percentile).ln() / (n as f64 * frac);
        ExponentialGenerator { n, gamma }
    }
}

impl Generator for ExponentialGenerator {
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        loop {
            let u: f64 = rng.gen();
            let v = (-u.ln() / self.gamma) as u64;
            if v < self.n {
                return v;
            }
        }
    }

    fn cardinality(&self) -> u64 {
        self.n
    }
}

/// Round-robin over `[0, n)` — used for the load phase.
#[derive(Debug, Clone)]
pub struct SequentialGenerator {
    n: u64,
    next: u64,
}

impl SequentialGenerator {
    /// Creates a sequential generator starting at 0.
    pub fn new(n: u64) -> Self {
        SequentialGenerator { n: n.max(1), next: 0 }
    }
}

impl Generator for SequentialGenerator {
    fn next(&mut self, _rng: &mut StdRng) -> u64 {
        let v = self.next;
        self.next = (self.next + 1) % self.n;
        v
    }

    fn cardinality(&self) -> u64 {
        self.n
    }
}

/// Convenience: a seeded RNG for deterministic workload streams.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(gen: &mut dyn Generator, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        let mut counts = vec![0u64; gen.cardinality() as usize];
        for _ in 0..draws {
            let v = gen.next(&mut rng);
            counts[v as usize] += 1;
        }
        counts
    }

    #[test]
    fn uniform_covers_range() {
        let mut g = UniformGenerator::new(10);
        let counts = histogram(&mut g, 10_000, 1);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 800, "index {i} drawn only {c} times");
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let mut g = ZipfianGenerator::new(1000);
        let counts = histogram(&mut g, 100_000, 2);
        // Item 0 must be by far the most popular.
        assert!(counts[0] > counts[500] * 10, "0:{} 500:{}", counts[0], counts[500]);
        // YCSB zipfian(0.99): the top item gets roughly 1/zeta(n) of draws.
        let frac = counts[0] as f64 / 100_000.0;
        assert!(frac > 0.05 && frac < 0.25, "top-item fraction {frac}");
    }

    #[test]
    fn zipfian_single_item() {
        let mut g = ZipfianGenerator::new(1);
        let mut rng = seeded_rng(3);
        for _ in 0..100 {
            assert_eq!(g.next(&mut rng), 0);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_popularity() {
        let mut g = ScrambledZipfian::new(1000);
        let counts = histogram(&mut g, 100_000, 4);
        // The most popular item should NOT be index 0 with high probability
        // (FNV scatters it), and skew should persist.
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(max as f64 / 100_000.0 > 0.05, "still skewed");
        assert!(nonzero > 500, "most of the keyspace is still touched");
    }

    #[test]
    fn latest_prefers_frontier() {
        let mut g = LatestGenerator::new(1000);
        let counts = histogram(&mut g, 100_000, 5);
        assert!(counts[999] > counts[0] * 10, "frontier must dominate");
    }

    #[test]
    fn latest_grows() {
        let mut g = LatestGenerator::new(10);
        g.grow_to(20);
        let mut rng = seeded_rng(6);
        let mut saw_new = false;
        for _ in 0..1000 {
            if g.next(&mut rng) >= 10 {
                saw_new = true;
            }
        }
        assert!(saw_new, "grown keyspace must be reachable");
    }

    #[test]
    fn hotspot_concentrates() {
        let mut g = HotspotGenerator::new(1000, 0.1, 0.9);
        let counts = histogram(&mut g, 100_000, 7);
        let hot: u64 = counts[..100].iter().sum();
        let frac = hot as f64 / 100_000.0;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn exponential_is_front_loaded() {
        let mut g = ExponentialGenerator::new(1000);
        let counts = histogram(&mut g, 100_000, 8);
        let front: u64 = counts[..100].iter().sum();
        let frac = front as f64 / 100_000.0;
        assert!((frac - 0.95).abs() < 0.02, "front fraction {frac}");
    }

    #[test]
    fn sequential_round_robins() {
        let mut g = SequentialGenerator::new(3);
        let mut rng = seeded_rng(9);
        let seq: Vec<u64> = (0..7).map(|_| g.next(&mut rng)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn determinism_across_runs() {
        let draw = |seed| {
            let mut g = ZipfianGenerator::new(500);
            let mut rng = seeded_rng(seed);
            (0..100).map(|_| g.next(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn fnv_is_stable() {
        // Spot-check the hash is deterministic and spreads inputs.
        assert_eq!(fnv1a64(0), fnv1a64(0));
        assert_ne!(fnv1a64(0), fnv1a64(1));
        assert_ne!(fnv1a64(1), fnv1a64(2));
    }

    #[test]
    fn zipfian_grow_matches_fresh() {
        let mut grown = ZipfianGenerator::new(100);
        grown.grow_to(200);
        let fresh = ZipfianGenerator::new(200);
        assert_eq!(grown.zetan.to_bits(), fresh.zetan.to_bits());
        assert_eq!(grown.eta.to_bits(), fresh.eta.to_bits());
    }

    #[test]
    fn latest_grown_in_place_matches_a_rebuild() {
        // One insert at a time, the way a workload D stream advances.
        let mut grown = LatestGenerator::new(1000);
        for frontier in 1001..=1050 {
            grown.grow_to(frontier);
        }
        let mut rebuilt = LatestGenerator::new(1020);
        rebuilt.grow_to(1050);
        for other in [&rebuilt.zipf, &ZipfianGenerator::new(1050)] {
            assert_eq!(grown.zipf.zetan.to_bits(), other.zetan.to_bits());
            assert_eq!(grown.zipf.eta.to_bits(), other.eta.to_bits());
        }
        let (mut a, mut b) = (seeded_rng(11), seeded_rng(11));
        for _ in 0..1000 {
            assert_eq!(grown.next(&mut a), rebuilt.next(&mut b));
        }
    }
}
