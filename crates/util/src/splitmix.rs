//! The workspace's one seeded generator.
//!
//! Replay identity (the adaptive decision log, the change-point permutation
//! test, seeded test fixtures) depends on every user drawing the same
//! stream from the same seed, so the algorithm lives here once and its
//! first outputs are pinned by a test.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, identical on
/// every platform. Not for secrets.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next draw reduced into `0..bound` (plain modulo: the callers'
    /// bounds are tiny against 2^64). Panics when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_are_pinned() {
        // Reference vectors of the published algorithm.
        let mut zero = SplitMix64::new(0);
        assert_eq!(
            [zero.next_u64(), zero.next_u64(), zero.next_u64()],
            [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F],
        );
        let mut seeded = SplitMix64::new(1_234_567);
        assert_eq!(
            [seeded.next_u64(), seeded.next_u64(), seeded.next_u64()],
            [6_457_827_717_110_365_317, 3_203_168_211_198_807_973, 9_817_491_932_198_370_423],
        );
        // `next_below` is the same draw, reduced by plain modulo.
        assert_eq!(SplitMix64::new(0).next_below(1000), 0xE220_A839_7B1D_CDAF % 1000);
    }
}
