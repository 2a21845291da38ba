//! Offline stand-in for [`rand`](https://docs.rs/rand) 0.8: the
//! `Rng`/`SeedableRng` traits and a deterministic `StdRng`
//! (xoshiro256** seeded via SplitMix64). Streams are stable across
//! runs and platforms — exactly what the seeded workloads here need —
//! but are NOT the streams real `rand` would produce, and nothing in
//! this shim is cryptographically secure.

#![forbid(unsafe_code)]

pub mod rngs {
    /// Deterministic xoshiro256** generator.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }

        pub(crate) fn next_raw(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

/// Construction from seeds, as in `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the standard way to seed xoshiro.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        rngs::StdRng::from_state([next(), next(), next(), next()])
    }
}

/// Types producible by [`Rng::gen`].
pub trait Standard: Sized {
    fn sample(rng: &mut rngs::StdRng) -> Self;
}

impl Standard for u64 {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_raw()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        (rng.next_raw() >> 32) as u32
    }
}

impl Standard for i64 {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_raw() as i64
    }
}

impl Standard for i32 {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        (rng.next_raw() >> 32) as i32
    }
}

impl Standard for usize {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_raw() as usize
    }
}

impl Standard for u8 {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        (rng.next_raw() >> 56) as u8
    }
}

impl Standard for bool {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        rng.next_raw() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut rngs::StdRng) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_range(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                // Multiply-shift bounded sampling; bias is < 2^-64 per
                // draw, irrelevant for workload generation.
                let r = rng.next_raw() as u128;
                let v = (r * span) >> 64;
                (low as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        low + f64::sample(rng) * (high - low)
    }
}

/// The subset of `rand::Rng` this workspace uses.
pub trait Rng {
    fn gen<T: Standard>(&mut self) -> T;
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T;
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for rngs::StdRng {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: i64 = r.gen_range(0..1_000_000_000);
            assert!((0..1_000_000_000).contains(&v));
            let u: usize = r.gen_range(3..17);
            assert!((3..17).contains(&u));
        }
    }
}
