//! Offline vendored subset of the [`rand`](https://docs.rs/rand) crate.
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the slice of the `rand` 0.8 API the workspace uses: a seedable
//! deterministic [`rngs::StdRng`] and the [`Rng`] extension methods
//! `gen`, `gen_bool`, and `gen_range`. The generator is xoshiro256++ seeded
//! via splitmix64 — high-quality and deterministic, though the exact stream
//! differs from upstream `StdRng` (nothing in-tree depends on the upstream
//! stream, only on determinism per seed).

#![warn(missing_docs)]

/// splitmix64's increment: 2^64 divided by the golden ratio, odd.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of splitmix64 from state `x`: `x + GOLDEN_GAMMA`, finalized.
///
/// The workspace's one definition of the mix. Successive outputs of a
/// splitmix64 stream are `splitmix64(s)`, `splitmix64(s + GOLDEN_GAMMA)`, …;
/// counter-indexed generators (per-entity seeds, botnet 5-tuples, SYN
/// cookies) call it on a hash of their index instead, and get i.i.d.-looking
/// values without keeping per-source state.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A type that can be seeded from integers.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Values producible uniformly at random by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one uniformly random value.
    fn sample(rng: &mut dyn RngCore) -> Self;
}

/// The core generator interface: a stream of random 64-bit words.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience extension methods, mirroring `rand::Rng`.
pub trait Rng: RngCore + Sized {
    /// Draws a uniformly random value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `0.0..=1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: std::ops::RangeBounds<T>,
    {
        T::sample_range(self, &range)
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Types supporting uniform range sampling for [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws uniformly from the bounds described by `range`.
    fn sample_range<R: std::ops::RangeBounds<Self>>(rng: &mut dyn RngCore, range: &R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: std::ops::RangeBounds<Self>>(
                rng: &mut dyn RngCore,
                range: &R,
            ) -> Self {
                use std::ops::Bound;
                let lo = match range.start_bound() {
                    Bound::Included(&v) => v as i128,
                    Bound::Excluded(&v) => v as i128 + 1,
                    Bound::Unbounded => <$t>::MIN as i128,
                };
                let hi = match range.end_bound() {
                    Bound::Included(&v) => v as i128 + 1,
                    Bound::Excluded(&v) => v as i128,
                    Bound::Unbounded => <$t>::MAX as i128 + 1,
                };
                assert!(lo < hi, "empty range");
                let span = (hi - lo) as u128;
                (lo + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: std::ops::RangeBounds<Self>>(rng: &mut dyn RngCore, range: &R) -> Self {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&v) | Bound::Excluded(&v) => v,
            Bound::Unbounded => 0.0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) | Bound::Excluded(&v) => v,
            Bound::Unbounded => 1.0,
        };
        assert!(lo < hi, "empty range");
        lo + (hi - lo) * unit_f64(rng.next_u64())
    }
}

fn unit_f64(word: u64) -> f64 {
    // 53 uniformly random mantissa bits in [0, 1).
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut dyn RngCore) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample(rng: &mut dyn RngCore) -> Self {
        unit_f64(rng.next_u64()) as f32
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng, GOLDEN_GAMMA};

    /// Deterministic xoshiro256++ generator seeded via splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // The first four outputs of the splitmix64 stream from `seed`.
            StdRng {
                state: [0, 1, 2, 3]
                    .map(|k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA)))),
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s2 = s2 ^ s0;
            let mut s3 = s3 ^ s1;
            let s1 = s1 ^ s2;
            let s0 = s0 ^ s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
            self.state = [s0, s1, s2, s3];
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{splitmix64, Rng, SeedableRng};

    #[test]
    fn splitmix64_spreads_adjacent_indices() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 8, "adjacent inputs decorrelate");
    }

    /// The published first outputs of splitmix64 from state 0, and the
    /// seeding they give: a change to either shifts every seeded stream.
    #[test]
    fn splitmix64_is_the_reference_mix() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(super::GOLDEN_GAMMA), 0x6e78_9e6a_a1b9_65f4);
        let mut a = StdRng::seed_from_u64(0);
        assert_eq!(a.gen::<u64>(), 0x5317_5d61_490b_23df);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v: u16 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let f: f64 = rng.gen_range(0.5..2.0);
            assert!((0.5..2.0).contains(&f));
        }
    }
}
