//! Block-size selection.
//!
//! SSDeep signatures are kept near [`SPAM_SUM_LENGTH`](crate::SPAM_SUM_LENGTH)
//! (64) characters regardless of input size by scaling the *block size*: a
//! chunk boundary is emitted when the rolling hash is congruent to
//! `blocksize - 1 (mod blocksize)`, so doubling the block size roughly halves
//! the number of chunks. The chosen block size is the largest `3 * 2^k` at
//! or below an estimate derived from the input length whose primary
//! signature still reaches half the target length (the fixed point of the
//! reference implementation, which starts small and doubles). Because every
//! candidate is `3 * 2^k`, the generator can chunk several levels in a
//! single walk over the input: it builds the signatures of the estimate and
//! the level below it together and picks between them, walking again only
//! when both come out short.

/// The smallest block size SSDeep will use.
pub const MIN_BLOCKSIZE: u64 = 3;

/// Maximum number of doublings supported (spamsum's `NUM_BLOCKHASHES` is 31).
pub const NUM_BLOCKHASHES: u32 = 31;

/// The signature length the block size aims for (64 characters).
pub const SPAM_SUM_LENGTH: usize = 64;

/// The block size for a given doubling index: `MIN_BLOCKSIZE << index`.
#[inline]
pub fn blocksize_at(index: u32) -> u64 {
    MIN_BLOCKSIZE << index.min(NUM_BLOCKHASHES)
}

/// The largest "interesting" block size for an input of `len` bytes: the
/// smallest `MIN_BLOCKSIZE * 2^i` such that `blocksize * SPAM_SUM_LENGTH >=
/// len`, i.e. the block size at which the expected signature length first
/// drops to at most 64 characters.
pub fn initial_blocksize(len: usize) -> u64 {
    blocksize_at(initial_level(len))
}

/// The doubling index of [`initial_blocksize`]: `initial_blocksize(len) ==
/// blocksize_at(initial_level(len))`.
pub(crate) fn initial_level(len: usize) -> u32 {
    let len = len as u64;
    let mut level = 0;
    while blocksize_at(level) * (SPAM_SUM_LENGTH as u64) < len && level < NUM_BLOCKHASHES {
        level += 1;
    }
    level
}

/// Whether two block sizes are close enough for their signatures to be
/// compared: SSDeep only compares signatures whose block sizes are equal or
/// differ by exactly a factor of two.
pub fn comparable(b1: u64, b2: u64) -> bool {
    // checked_mul: parsed hashes can carry block sizes near `u64::MAX`, and
    // a doubling that overflows can never equal the other block size.
    b1 == b2 || b2.checked_mul(2) == Some(b1) || b1.checked_mul(2) == Some(b2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocksize_at_doubles() {
        assert_eq!(blocksize_at(0), 3);
        assert_eq!(blocksize_at(1), 6);
        assert_eq!(blocksize_at(5), 96);
    }

    #[test]
    fn initial_blocksize_small_input_is_minimum() {
        assert_eq!(initial_blocksize(0), MIN_BLOCKSIZE);
        assert_eq!(initial_blocksize(100), MIN_BLOCKSIZE);
        assert_eq!(initial_blocksize(3 * 64), MIN_BLOCKSIZE);
    }

    #[test]
    fn initial_blocksize_grows_with_input() {
        assert_eq!(initial_blocksize(3 * 64 + 1), 6);
        let bs = initial_blocksize(1 << 20);
        assert!(bs * 64 >= 1 << 20);
        assert!(bs / 2 * 64 < 1 << 20);
    }

    #[test]
    fn initial_level_indexes_initial_blocksize() {
        for len in [0usize, 192, 193, 384, 385, 1 << 20, usize::MAX] {
            assert_eq!(blocksize_at(initial_level(len)), initial_blocksize(len));
        }
        assert_eq!(initial_level(usize::MAX), NUM_BLOCKHASHES);
    }

    #[test]
    fn initial_blocksize_monotone() {
        let mut prev = 0;
        for len in [0usize, 10, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
            let bs = initial_blocksize(len);
            assert!(bs >= prev);
            prev = bs;
        }
    }

    #[test]
    fn comparable_rule() {
        assert!(comparable(48, 48));
        assert!(comparable(48, 96));
        assert!(comparable(96, 48));
        assert!(!comparable(48, 192));
        assert!(!comparable(3, 12));
    }

    #[test]
    fn blocksize_never_overflows() {
        // Even a clamped huge index must not overflow u64.
        let bs = blocksize_at(NUM_BLOCKHASHES);
        assert_eq!(bs, MIN_BLOCKSIZE << NUM_BLOCKHASHES);
    }
}
