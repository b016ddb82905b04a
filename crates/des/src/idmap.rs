//! Fixed integer hashing for per-event maps keyed by ids.
//!
//! The simulator's hot maps (in-flight messages, packets, collectives,
//! cached routes) are keyed by small integers or tuples of them. The
//! standard library's SipHash is DoS-resistant but costs tens of ns per
//! lookup and seeds itself randomly per process. [`IdHasher`] is a
//! multiply-rotate hasher (the Fx family used inside rustc) with a fixed
//! seed: a few cycles per integer, and identical on every run.
//!
//! Iteration order of an [`IdMap`] is still unspecified, so the simulator
//! only uses these maps for point lookups — output never depends on the
//! order of a map's entries.
//!
//! # Example
//!
//! ```
//! use astra_des::IdMap;
//!
//! let mut inflight: IdMap<u64, &str> = IdMap::default();
//! inflight.insert(7, "message 7");
//! assert_eq!(inflight.remove(&7), Some("message 7"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash (a 64-bit odd constant derived from π).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed multiply-rotate hasher for integer keys and tuples of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
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

/// `BuildHasher` for [`IdHasher`]; stateless, so every map hashes alike.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn digest<T: Hash>(v: &T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_fixed_across_builders() {
        assert_eq!(digest(&42u64), digest(&42u64));
        assert_eq!(digest(&(3u64, 9usize)), digest(&(3u64, 9usize)));
        assert_ne!(digest(&(3u64, 9usize)), digest(&(9u64, 3usize)));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // The low bits pick the bucket: consecutive ids must not collide there.
        let low: IdSet<u64> = (0..1024u64).map(|i| digest(&i) & 0x3ff).collect();
        assert!(
            low.len() > 600,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    #[test]
    fn maps_and_sets_round_trip() {
        let mut m: IdMap<(u64, usize), u32> = IdMap::default();
        for i in 0..100u64 {
            m.insert((i, i as usize * 3), i as u32);
        }
        assert_eq!(m.get(&(42, 126)), Some(&42));
        let mut s: IdSet<u64> = IdSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.remove(&5));
    }
}
