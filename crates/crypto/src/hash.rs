//! Deterministic hashing.
//!
//! A simulator does not need collision resistance against real-world
//! adversaries — only a deterministic, well-mixed digest so protocols can
//! refer to proposals by hash. We use the 64-bit FNV-1a function with an
//! additional avalanche finaliser (the `splitmix64` mixer), implemented from
//! scratch to keep the simulator dependency-free.

use core::fmt;

/// A 64-bit message digest.
///
/// # Examples
///
/// ```
/// use bft_sim_crypto::hash::Digest;
///
/// let a = Digest::of_bytes(b"block 1");
/// let b = Digest::of_bytes(b"block 2");
/// assert_ne!(a, b);
/// assert_eq!(a, Digest::of_bytes(b"block 1"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: what `k` zero bytes do to the state.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// `splitmix64` finaliser: full-avalanche mixing of a 64-bit word.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Digest {
    /// Hashes a byte string.
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Digest(mix(h))
    }

    /// Hashes a sequence of 64-bit words — the common case for protocol
    /// state (views, node ids, prior digests).
    ///
    /// The digest is [`of_bytes`](Digest::of_bytes) of the words'
    /// little-endian bytes, 8 per word. A byte of 0 only multiplies the
    /// state by the prime (xor with 0 is the identity), so the zero bytes
    /// above a word's highest non-zero one are one multiplication by a power
    /// of the prime: small words such as views and ids cost a byte or two.
    #[inline]
    pub fn of_words(words: &[u64]) -> Digest {
        let mut h = FNV_OFFSET;
        for &w in words {
            let bytes = 8 - w.leading_zeros() as usize / 8;
            for i in 0..bytes {
                h ^= (w >> (i * 8)) & 0xff;
                h = h.wrapping_mul(FNV_PRIME);
            }
            h = h.wrapping_mul(PRIME_POWERS[8 - bytes]);
        }
        Digest(mix(h))
    }

    /// The raw digest value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::LowerHex for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(Digest::of_bytes(b"abc"), Digest::of_bytes(b"abc"));
        assert_eq!(Digest::of_words(&[1, 2, 3]), Digest::of_words(&[1, 2, 3]));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Digest::of_bytes(b""), Digest::of_bytes(b"\0"));
        assert_ne!(Digest::of_words(&[1, 2]), Digest::of_words(&[2, 1]));
        assert_ne!(Digest::of_words(&[0]), Digest::of_words(&[0, 0]));
    }

    #[test]
    fn words_and_bytes_agree_on_layout() {
        // of_words hashes little-endian byte expansion; sanity-check one case.
        let w = Digest::of_words(&[0x0102_0304_0506_0708]);
        let b = Digest::of_bytes(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(w, b);
    }

    /// The byte loop [`Digest::of_words`] stood for before it skipped zero
    /// bytes.
    fn of_words_bytewise(words: &[u64]) -> Digest {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        Digest::of_bytes(&bytes)
    }

    /// Random word lists (0 to 6 words) whose words have every highest
    /// non-zero byte, 0 included, against the byte loop: 2^18 cases in
    /// debug builds, ten million in release (CI's counter gate step).
    #[test]
    fn word_skipping_matches_the_byte_loop() {
        let cases = if cfg!(debug_assertions) {
            1 << 18
        } else {
            10_000_000
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = mix(state);
            state
        };
        let mut words = [0u64; 6];
        for _ in 0..cases {
            let r = next();
            let len = (r % 7) as usize;
            for (i, w) in words[..len].iter_mut().enumerate() {
                // Keep the low 0 to 8 bytes of a fresh random word.
                let keep = (r >> (8 + 4 * i)) % 9;
                *w = next().checked_shr(64 - 8 * keep as u32).unwrap_or(0);
            }
            let words = &words[..len];
            assert_eq!(
                Digest::of_words(words),
                of_words_bytewise(words),
                "{words:x?}"
            );
        }
        for w in [0, 1, 0xff, 0x100, u64::MAX, 1 << 63, 0x00ff_0000_0000_0000] {
            assert_eq!(Digest::of_words(&[w]), of_words_bytewise(&[w]), "{w:x}");
        }
    }

    #[test]
    fn avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = Digest::of_words(&[0]).as_u64();
        let b = Digest::of_words(&[1]).as_u64();
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "weak avalanche: {flipped} bits"
        );
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let s = Digest::of_bytes(b"x").to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
