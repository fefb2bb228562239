//! The content hash over machine and sanitizer state, and FNV-1a.
//!
//! [`fold`] runs four independent lanes. Each lane takes one
//! little-endian 8-byte word per 32-byte stripe with XXH64's round,
//! `lane = rotl(lane + word * P2, 31) * P1`, so the multiplies pipeline
//! instead of forming one dependent chain per byte. A ragged tail is
//! zero-padded into one last stripe. The lanes then fold, with the same
//! round, into the seed XOR the slice length, and XXH64's avalanche
//! mixes the result. Every step is a bijection of the value it updates,
//! so changing any one input word always changes the hash. Passing one
//! call's result as the next call's seed folds several slices in order.
//!
//! [`fnv1a`] is the byte-serial FNV-1a used for short identities:
//! programs, syscall descriptions, report signatures, firmware names.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn absorb(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = round(*lane, u64::from_le_bytes(word.try_into().expect("an 8-byte word")));
    }
}

/// Folds `bytes` into `hash`.
pub fn fold(hash: u64, bytes: &[u8]) -> u64 {
    let mut lanes = [hash, hash ^ P1, hash ^ P2, hash ^ P3];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        absorb(&mut lanes, stripe);
    }
    let mut last = [0u8; 32];
    last[..stripes.remainder().len()].copy_from_slice(stripes.remainder());
    absorb(&mut lanes, &last);
    let h = lanes.into_iter().fold(hash ^ bytes.len() as u64, round);
    let h = (h ^ (h >> 33)).wrapping_mul(P2);
    let h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// A page of whole stripes plus a 7-byte tail, which the zero-padded
    /// last stripe absorbs.
    const LEN: usize = 4096 + 7;

    fn buffer() -> Vec<u8> {
        (0..LEN as u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect()
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash_and_no_two_collide() {
        // Every bit: bit 63 of each stripe word and each tail byte included.
        let base = buffer();
        let original = fold(0, &base);
        let mut seen = HashSet::new();
        let mut flipped = base.clone();
        for bit in 0..LEN * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let hash = fold(0, &flipped);
            assert_ne!(hash, original, "flip of bit {bit} went unseen");
            assert!(seen.insert(hash), "flip of bit {bit} collides with another flip");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn swapping_two_words_changes_the_hash() {
        let base = buffer();
        for (a, b) in [(0, 8), (0, 4088), (1024, 2048), (4080, 4088)] {
            let mut swapped = base.clone();
            for i in 0..8 {
                swapped.swap(a + i, b + i);
            }
            assert_ne!(swapped, base);
            assert_ne!(fold(0, &swapped), fold(0, &base), "words at {a} and {b}");
        }
    }

    #[test]
    fn zero_buffers_of_every_length_hash_distinct() {
        let zeros = vec![0u8; 4160];
        let hashes: HashSet<u64> = (0..=zeros.len()).map(|len| fold(0, &zeros[..len])).collect();
        assert_eq!(hashes.len(), zeros.len() + 1);
    }

    #[test]
    fn fnv1a_matches_its_reference_values() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn folding_is_ordered() {
        let (a, b) = (buffer(), b"ready point".to_vec());
        assert_ne!(fold(fold(0, &a), &b), fold(fold(0, &b), &a));
    }
}
