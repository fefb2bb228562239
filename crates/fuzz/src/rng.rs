//! Small in-tree pseudo-random number generator.
//!
//! The fuzzer only needs a fast, seedable, deterministic source of bits —
//! no cryptographic strength, no distribution machinery — so instead of an
//! external crate it uses SplitMix64 (Steele, Lea & Flood; the same
//! generator `java.util.SplittableRandom` and xoshiro seeding use). The
//! offline build environment cannot fetch `rand`, and determinism under a
//! seed is a documented fuzzer property, so the generator lives here where
//! its output can never change underneath us.

/// The SplitMix64 stream increment (the golden ratio).
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 generator. Copyable so runs can be forked deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Distinct seeds — including
    /// 0 and 1 — produce uncorrelated streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u32`.
    pub fn gen_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u8`.
    pub fn gen_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform `usize`.
    pub fn gen_usize(&mut self) -> usize {
        self.next_u64() as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let threshold = (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        self.next_u64() <= threshold
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Multiply-shift bounded sampling (Lemire); the slight modulo bias
        // of a 64-bit product over small spans is irrelevant for fuzzing.
        let hi64 = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        lo + hi64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range_usize_incl(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64 + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::seed_from_u64(0);
        let mut b = SplitMix64::seed_from_u64(1);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reference_vector() {
        // First outputs for seed 0 from the published SplitMix64 reference.
        let mut rng = SplitMix64::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.range_u32(3, 17);
            assert!((3..17).contains(&v));
            let w = rng.range_usize_incl(1, 8);
            assert!((1..=8).contains(&w));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.2)).count();
        assert!((1_500..2_500).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
    }
}
