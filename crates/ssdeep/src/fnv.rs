//! The non-cryptographic chunk hash whose low six bits become signature
//! characters.
//!
//! SSDeep hashes each context-triggered chunk with a small FNV-style hash
//! (the original spamsum used exactly this 32-bit FNV-1 variant with a
//! custom offset basis). Only the low 6 bits of the final value are kept and
//! mapped through the base64 alphabet, so the hash does not need to be
//! cryptographically strong — it only needs to spread nearby inputs across
//! the 64 possible characters.
//!
//! Because only those six bits reach a signature, the generator does not
//! carry full 32-bit hashes. The low six bits of `h * FNV_PRIME ^ b` depend
//! only on the low six bits of `h`, of `FNV_PRIME` (19) and of `b`, which
//! is why libfuzzy's `fuzzy.c` replaces this hash with a 64×64 `sum_table`.
//! [`fuzzy_hash_bytes`](crate::fuzzy_hash_bytes) goes one step further: it
//! keeps the four chunk hashes of a walk as six-bit values in the 16-bit
//! lanes of one `u64`, and advances all four with one multiply by 19, one
//! xor and one mask per byte. [`PartialHash`] stays the full 32-bit form
//! and the reference for that reduction.

/// FNV-1 32-bit prime.
pub const FNV_PRIME: u32 = 0x0100_0193;
/// The offset basis used by spamsum/SSDeep (`HASH_INIT`).
pub const HASH_INIT: u32 = 0x2802_1967;

/// Incremental FNV-style chunk hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialHash(pub(crate) u32);

impl Default for PartialHash {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialHash {
    /// Start a fresh chunk hash.
    #[inline]
    pub fn new() -> Self {
        Self(HASH_INIT)
    }

    /// Mix one byte into the hash.
    #[inline]
    pub fn update(&mut self, byte: u8) {
        self.0 = self.0.wrapping_mul(FNV_PRIME) ^ u32::from(byte);
    }

    /// The current 32-bit value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.0
    }

    /// The low six bits, i.e. the index into the base64 alphabet.
    #[inline]
    pub fn b64_index(&self) -> usize {
        (self.0 & 0x3F) as usize
    }
}

/// Hash a whole slice in one call (convenience for tests and for hashing
/// short feature strings).
pub fn fnv_hash(data: &[u8]) -> u32 {
    let mut h = PartialHash::new();
    for &b in data {
        h.update(b);
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(fnv_hash(b""), HASH_INIT);
        assert_eq!(PartialHash::new().value(), HASH_INIT);
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        assert_eq!(fnv_hash(b"abc"), fnv_hash(b"abc"));
        assert_ne!(fnv_hash(b"abc"), fnv_hash(b"acb"));
    }

    #[test]
    fn single_byte_formula() {
        let mut h = PartialHash::new();
        h.update(0x61);
        assert_eq!(h.value(), HASH_INIT.wrapping_mul(FNV_PRIME) ^ 0x61);
    }

    #[test]
    fn b64_index_in_range() {
        for i in 0..=255u8 {
            let mut h = PartialHash::new();
            h.update(i);
            assert!(h.b64_index() < 64);
        }
    }

    #[test]
    fn different_inputs_spread_over_indices() {
        use std::collections::HashSet;
        let indices: HashSet<usize> = (0u32..4096)
            .map(|i| {
                let mut h = PartialHash::new();
                for b in i.to_le_bytes() {
                    h.update(b);
                }
                h.b64_index()
            })
            .collect();
        // All 64 buckets should be hit by 4096 distinct short inputs.
        assert_eq!(indices.len(), 64);
    }
}
