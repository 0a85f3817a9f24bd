//! A small, fast, non-cryptographic hasher for the unique table and the
//! operation caches.
//!
//! The default `SipHash` used by `std::collections::HashMap` is noticeably
//! slow for the tiny fixed-size keys (a few `u32`s) that dominate BDD
//! manipulation.  This is a minimal FxHash-style multiplicative hasher; it is
//! not DoS-resistant, which is irrelevant for keys we generate ourselves.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for small integer keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.mix(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.mix(value as u64);
    }
}

/// `BuildHasher` for `FxHasher`, for use with `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A strong 64-bit finalizer (the murmur3/splitmix64 avalanche step).
///
/// Used by the manager's open-addressed unique table and direct-mapped
/// operation caches, where every bit of the index must depend on every bit of
/// the packed key — a plain multiplicative hash leaves the low bits (the only
/// ones a power-of-two table uses) too correlated with the node ids.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let mut map: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, i.wrapping_mul(7), i ^ 0xdead), i);
        }
        assert_eq!(map.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(map[&(i, i.wrapping_mul(7), i ^ 0xdead)], i);
        }
    }

    #[test]
    fn different_keys_hash_differently_in_practice() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let hash = |k: (u32, u32, u32)| bh.hash_one(k);
        assert_ne!(hash((1, 2, 3)), hash((3, 2, 1)));
        assert_ne!(hash((0, 0, 1)), hash((0, 1, 0)));
    }
}
