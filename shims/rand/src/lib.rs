//! Offline shim for the `rand` crate (0.8-compatible subset).
//!
//! Chronos builds in environments without a crates.io mirror, so the
//! external RNG crate is replaced by this self-contained implementation.
//! It provides exactly the surface the workspace uses: `rand::random`,
//! the [`Rng`] trait with `gen`/`gen_range`, [`SeedableRng::seed_from_u64`]
//! and [`rngs::StdRng`]. The generator is xoshiro256++ seeded via
//! splitmix64 — statistically solid for workload generation and tests,
//! and deterministic for a given seed (which the workload generators rely
//! on for reproducible benchmark runs).

use std::ops::{Range, RangeInclusive};

/// Core entropy source: 64 random bits per call.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from an `Rng` (the shim's stand-in
/// for rand's `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform bits into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types `gen_range` can sample.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high]` (inclusive).
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                // Rejection and modulo: a draw is kept when it falls in one
                // of the complete blocks of `span + 1` values below 2^64,
                // which is when its block's last value does not overflow.
                // One divide per draw, none once inlining makes the bound a
                // constant; the retry is rarely taken for small spans.
                let bound = span + 1;
                loop {
                    let v = rng.next_u64();
                    let offset = v % bound;
                    if v - offset <= u64::MAX - span {
                        return ((low as $wide).wrapping_add(offset as $wide)) as $t;
                    }
                }
            }
        }
    )*};
}

impl_sample_uniform_int! {
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
}

impl SampleUniform for f64 {
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        low + f64::sample(rng) * (high - low)
    }
}

/// Range argument to [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + HalfOpen> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, self.start, self.end.one_less())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Helper for half-open integer ranges (`low..high`).
pub trait HalfOpen {
    /// The predecessor of `self` (the inclusive upper bound of `..self`).
    fn one_less(self) -> Self;
}

macro_rules! impl_half_open {
    ($($t:ty),* $(,)?) => {$(
        impl HalfOpen for $t {
            #[inline]
            fn one_less(self) -> Self {
                self.checked_sub(1).expect("gen_range: empty range")
            }
        }
    )*};
}

impl_half_open!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing RNG trait (rand 0.8 subset).
pub trait Rng: RngCore {
    /// A uniformly random value of `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform draw from `range` (`low..high` or `low..=high`).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// RNGs constructible from a seed (rand 0.8 subset).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed via splitmix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            // All-zero state would be a fixed point; splitmix64 cannot
            // produce four zeros from any seed, but keep the guard explicit.
            if s == [0, 0, 0, 0] {
                s[0] = 1;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// A value drawn from a global, lazily seeded generator — `rand::random`.
pub fn random<T: Standard>() -> T {
    use std::cell::Cell;
    use std::time::{SystemTime, UNIX_EPOCH};

    thread_local! {
        static STATE: Cell<u64> = const { Cell::new(0) };
    }
    STATE.with(|state| {
        if state.get() == 0 {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED);
            // Mix in a per-thread address so threads seeded in the same
            // nanosecond diverge.
            let tid = &state as *const _ as u64;
            state.set(nanos ^ tid.rotate_left(32) | 1);
        }
        let mut s = state.get();
        // splitmix64 step shared with StdRng seeding.
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        state.set(s);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        struct One(u64);
        impl RngCore for One {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        T::sample(&mut One(z))
    })
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10i64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(0u64..=5);
            assert!(w <= 5);
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn gen_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn random_values_vary() {
        let a: u64 = random();
        let b: u64 = random();
        assert_ne!(a, b);
    }

    #[test]
    fn negative_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let v = rng.gen_range(-20i64..20);
            assert!((-20..20).contains(&v));
        }
    }
}
