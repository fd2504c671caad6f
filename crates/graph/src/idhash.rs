//! A keyless hasher for dense integer ids.
//!
//! The walkers' memos are keyed by `u32` user and keyword ids the
//! platform assigns, and a warm walk step probes them several times.
//! std's default SipHash-1-3 is keyed per process to resist keys crafted
//! to collide, which these ids cannot be, and it costs more than the rest
//! of a memo probe. [`IdHasher`] is rustc's FxHasher scheme: each word is
//! folded in with a rotate, an xor and one multiply.
//!
//! Use [`IdMap`] / [`IdSet`] only for keys the program assigns. Maps
//! keyed by request text keep `RandomState`. Iteration order is fixed
//! per key set here, unlike std's, but code that needs an order must
//! still sort.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's FxHasher (from Firefox's hash).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Rotate, xor and multiply, one machine word at a time.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    /// Whole 8-byte words, then the tail one byte at a time. Id keys
    /// never take this path: they hash through the integer writes below.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`std::hash::BuildHasher`] of [`IdMap`] and [`IdSet`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by program-assigned ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of program-assigned ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        IdBuildHasher::default().hash_one(x)
    }

    #[test]
    fn one_word_is_one_multiply() {
        assert_eq!(hash_of(0u32), 0);
        assert_eq!(hash_of(1u32), SEED);
        assert_eq!(hash_of(7u64), 7u64.wrapping_mul(SEED));
        // A newtype id hashes as its field.
        #[derive(Hash)]
        struct Id(u32);
        assert_eq!(hash_of(Id(42)), hash_of(42u32));
    }

    #[test]
    fn byte_slices_fold_words_then_tail() {
        let mut h = IdHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 9]);
        let mut want = IdHasher::default();
        want.add(1);
        want.add(9);
        assert_eq!(h.finish(), want.finish());
    }

    #[test]
    fn dense_ids_spread_over_the_high_bits() {
        // hashbrown takes its 7-bit control tag from the top bits; dense
        // ids must not share one tag.
        let tags: HashSet<u64> = (0..1_000u32).map(|u| hash_of(u) >> 57).collect();
        assert!(tags.len() > 100, "{} distinct tags", tags.len());
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IdMap<u32, u32> = IdMap::default();
        let mut s: IdSet<u32> = IdSet::default();
        for u in 0..10_000u32 {
            m.insert(u, u * 2);
            s.insert(u * 3);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u32).all(|u| m[&u] == u * 2));
        assert!(s.contains(&9_999) && !s.contains(&10_000));
    }
}
