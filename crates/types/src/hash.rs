//! The one hasher of simulation state: a fixed seed, one multiply per
//! word.
//!
//! Simulation-state maps are keyed by small integers the simulator
//! mints itself (block addresses, access ids, SM indices), so SipHash's
//! protection against crafted keys buys nothing and costs most of a
//! lookup. A fixed seed also makes any iteration order that ever leaks
//! *reproducible*, which the per-process `RandomState` is not — the
//! `hash-iter` and `std-hasher` lint rules keep both out of
//! simulation state (DESIGN.md §15.4). Nothing may observe the order
//! regardless: snapshots write hash containers sorted (see
//! [`crate::snap`]).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` under [`FxHasher`]; construct with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` under [`FxHasher`]; construct with `default()`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiply-and-rotate word hasher (the rustc "Fx" construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// An odd constant with well-mixed bits (from rustc-hash).
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best ones and the table indexes
    /// with the low ones: a bank only ever sees blocks congruent to its
    /// index, whose low bits are constant before *and* after an odd
    /// multiply.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn same_key_same_hash_in_every_process() {
        // A pinned value: the seed is fixed, so this never moves.
        assert_eq!(hash_of(1u64), FxHasher::K.rotate_left(26));
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_ne!(hash_of(7u64), hash_of(8u64));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // Bank 3 of 8 sees blocks 3, 11, 19, …: 64 of them must not
        // share the 6 bits a 64-bucket table indexes with.
        let buckets: FxHashSet<u64> = (0..64u64).map(|i| hash_of(3 + 8 * i) & 63).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets used", buckets.len());
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(5, "five");
        m.insert(5 + (1 << 40), "far");
        assert_eq!(m.get(&5), Some(&"five"));
        assert_eq!(m.remove(&(5 + (1 << 40))), Some("far"));
        assert_eq!(m.len(), 1);
    }
}
