//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this repository has no access to a crates
//! registry, so the workspace vendors the *small* subset of the `rand`
//! 0.8 API it actually uses as a local crate: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] helpers `gen`,
//! `gen_range` and `gen_bool`.
//!
//! The generator is xoshiro256++ seeded through splitmix64 — a
//! well-studied, fast PRNG whose statistical quality is more than
//! adequate for the Monte-Carlo validation and workload synthesis done
//! here. Streams are **deterministic per seed** (the property every test
//! in this workspace relies on) but do *not* reproduce the upstream
//! `StdRng` (ChaCha12) byte streams.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.gen_range(0..10usize);
//! assert!(k < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 32/64-bit words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from an [`RngCore`] — the subset
/// of `rand`'s `Standard` distribution this workspace needs.
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 24) as u8
    }
}

impl Standard for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 16) as u16
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                (self.start as u128 + bounded(rng, span)) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                (start as u128 + bounded(rng, span)) as $t
            }
        }
    )*};
}

/// One 64-bit draw reduced modulo `span` (`1 ..= 2^64`); the modulo bias
/// is below 2^-64 per call — irrelevant here. A span that fits in 64 bits
/// takes a 64-bit remainder, which gives the same value as the 128-bit
/// one without its software division; only `2^64` (a full inclusive
/// `u64` range) needs 128 bits.
#[inline]
fn bounded<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    let draw = rng.next_u64();
    match u64::try_from(span) {
        Ok(span) => u128::from(draw % span),
        Err(_) => u128::from(draw) % span,
    }
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Buffers that [`Rng::fill`] can populate with random data.
pub trait Fill {
    /// Fills `self` from `rng`.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        let mut chunks = self.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = rng.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl Fill for [u64] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for word in self {
            *word = rng.next_u64();
        }
    }
}

/// The user-facing random-value helpers, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Fills `dest` with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }

    /// Draws `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::sample(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Seedable generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// seeded via splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_uniform_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn gen_range_covers_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
        for _ in 0..100 {
            let v = rng.gen_range(3..=5u64);
            assert!((3..=5).contains(&v));
        }
    }

    /// The integer draws are pinned: taking a 64-bit remainder where the
    /// span fits must not move any of them, and the full inclusive `u64`
    /// range keeps the 128-bit one.
    #[test]
    fn integer_range_draws_are_pinned() {
        let mut rng = StdRng::seed_from_u64(2019);
        let mut draws = |sample: &mut dyn FnMut(&mut StdRng) -> u64| -> [u64; 4] {
            [(); 4].map(|()| sample(&mut rng))
        };
        assert_eq!(draws(&mut |r| r.gen_range(0..10u64)), [4, 3, 1, 3]);
        assert_eq!(
            draws(&mut |r| r.gen_range(5..1_000_003u64)),
            [674971, 197674, 642182, 640335]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(0..u64::MAX)),
            [
                9395566515551586242,
                17038811544664011036,
                7553629298226914028,
                7591815280772877494
            ]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range((u64::MAX - 3)..u64::MAX)),
            [u64::MAX - 3, u64::MAX - 1, u64::MAX - 1, u64::MAX - 2]
        );
        assert_eq!(draws(&mut |r| r.gen_range(3..=5u64)), [4, 3, 5, 4]);
        assert_eq!(
            draws(&mut |r| r.gen_range(0..=(u64::MAX - 1))),
            [
                5146719164902826880,
                13291459234147259410,
                6568145322512953155,
                14314751229173515380
            ]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(0..=u64::MAX)),
            [
                11432118591513676954,
                5209086379287473111,
                8193451098728595988,
                562820008293100555
            ]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(1..=u64::MAX)),
            [
                18419779722708426337,
                5300991563892750750,
                5624392238943614608,
                7124349157127045798
            ]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(0..300_000usize) as u64),
            [6076, 262119, 93787, 277989]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(0..usize::MAX) as u64),
            [
                1639926090785134513,
                7315461977009242600,
                5921262734487576253,
                6094740443255526363
            ]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(0..=7999usize) as u64),
            [2072, 2957, 7525, 27]
        );
        assert_eq!(
            draws(&mut |r| r.gen_range(0..=usize::MAX) as u64),
            [
                1662833378818849497,
                16489591623453863824,
                17358241815674948326,
                11362600182720608038
            ]
        );
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw(rng: &mut (impl RngCore + ?Sized)) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(4);
        let x = draw(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }
}
