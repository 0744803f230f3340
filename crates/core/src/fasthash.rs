//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The engine and scheduler key several hot maps by small integers (timer
//! ids, event sequence numbers, packed `(src, dst)` pairs), and the vote
//! tracker and the protocols key theirs by views and 64-bit digests. The
//! standard `RandomState`/SipHash combination is both slower than necessary
//! for integer keys and randomly seeded per map, so switching to this
//! multiplicative hasher removes per-lookup overhead *and* makes iteration
//! order a pure function of the inserted keys — one less source of
//! accidental nondeterminism, and no process-to-process difference in what
//! a lookup costs.
//!
//! Not DoS-resistant by design: every key hashed here is simulator-internal
//! and never attacker-controlled.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// A multiplicative `u64` hasher (Fibonacci hashing with an xor-shift
/// finalizer). Deterministic: no per-instance random state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

/// 2^64 / φ — the classic Fibonacci-hashing multiplier.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        // xor-shift finalizer so low bits (which HashMap uses for bucket
        // selection) depend on every input bit.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(GOLDEN);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` keyed by the deterministic [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed by the deterministic [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_integer_keys() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        let hash = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn nearby_keys_spread_in_low_bits() {
        // Bucket selection uses the low bits; sequential ids must not
        // collide there wholesale.
        let low = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish() & 0xFF
        };
        let distinct: std::collections::HashSet<u64> = (0..256).map(low).collect();
        assert!(
            distinct.len() > 128,
            "only {} distinct low bytes",
            distinct.len()
        );
    }

    #[test]
    fn write_bytes_matches_padded_words() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn set_alias_works() {
        let mut s: FastSet<u32> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }
}
