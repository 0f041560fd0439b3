//! Fuzzy-hash generation.
//!
//! A fuzzy hash (signature) has the textual form
//! `blocksize:signature1:signature2`, where `signature1` is built with chunk
//! boundaries triggered at `blocksize` and `signature2` at `2 * blocksize`.
//! Keeping the double-block-size signature allows two files whose chosen
//! block sizes differ by a factor of two to still be compared.

use crate::base64;
use crate::blocksize::{blocksize_at, comparable, initial_level};
use crate::error::ParseError;
use crate::fnv::{FNV_PRIME, HASH_INIT};
use crate::rolling_hash::{RollingHash, ROLLING_WINDOW};
use std::fmt;
use std::str::FromStr;

/// Target signature length (64 characters), as in spamsum/SSDeep.
pub const SPAM_SUM_LENGTH: usize = 64;

/// A context-triggered piecewise hash of one input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuzzyHash {
    block_size: u64,
    sig1: String,
    sig2: String,
}

impl FuzzyHash {
    /// Construct a fuzzy hash from raw parts (used by the parser and tests).
    pub fn from_parts(block_size: u64, sig1: String, sig2: String) -> Result<Self, ParseError> {
        if block_size == 0 {
            return Err(ParseError::InvalidBlockSize("0".to_string()));
        }
        for sig in [&sig1, &sig2] {
            if sig.len() > SPAM_SUM_LENGTH {
                return Err(ParseError::SignatureTooLong(sig.len()));
            }
            if let Some(c) = sig.chars().find(|&c| !base64::is_valid_char(c)) {
                return Err(ParseError::InvalidCharacter(c));
            }
        }
        Ok(Self {
            block_size,
            sig1,
            sig2,
        })
    }

    /// The block size the primary signature was generated with.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// The primary signature (chunked at `block_size`).
    pub fn signature(&self) -> &str {
        &self.sig1
    }

    /// The secondary signature (chunked at `2 * block_size`).
    pub fn signature_double(&self) -> &str {
        &self.sig2
    }

    /// Whether this hash can be meaningfully compared with `other` (equal
    /// block sizes or a factor-of-two difference).
    pub fn comparable_with(&self, other: &FuzzyHash) -> bool {
        comparable(self.block_size, other.block_size)
    }
}

impl fmt::Display for FuzzyHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.block_size, self.sig1, self.sig2)
    }
}

impl FromStr for FuzzyHash {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, ':');
        let bs = parts.next().ok_or(ParseError::MissingSeparator)?;
        let sig1 = parts.next().ok_or(ParseError::MissingSeparator)?;
        let sig2 = parts.next().ok_or(ParseError::MissingSeparator)?;
        let block_size: u64 = bs
            .parse()
            .map_err(|_| ParseError::InvalidBlockSize(bs.to_string()))?;
        FuzzyHash::from_parts(block_size, sig1.to_string(), sig2.to_string())
    }
}

/// The four chunk hashes of one walk — `sig1` and `sig2` at two adjacent
/// block-size levels — reduced to their low six bits, one per 16-bit lane
/// of a `u64`.
///
/// A signature character is the low six bits of a chunk's FNV hash, and the
/// low six bits of `h * FNV_PRIME ^ b` depend only on those of `h`, of
/// `FNV_PRIME` (19) and of `b`. So each lane keeps `h mod 64`; one multiply
/// by 19, an xor with the byte in every lane and a mask advance all four
/// (`63 * 19 < 2^16`, so no product carries into the next lane). This is
/// the reduction behind libfuzzy's 64×64 `sum_table`.
#[derive(Clone, Copy)]
struct ChunkLanes(u64);

impl ChunkLanes {
    /// A one in every lane.
    const ONES: u64 = 0x0001_0001_0001_0001;
    /// The six hash bits of every lane.
    const MASK: u64 = 0x3F * Self::ONES;
    /// `FNV_PRIME` reduced to the six bits a lane keeps.
    const PRIME: u64 = (FNV_PRIME & 0x3F) as u64;
    /// A fresh chunk hash, reduced.
    const INIT: u64 = (HASH_INIT & 0x3F) as u64;
    /// `SPLAT[b]` holds `b` in every lane; the two bits above a lane's six
    /// fall to the mask.
    const SPLAT: [u64; 256] = {
        let mut table = [0; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = b as u64 * Self::ONES;
            b += 1;
        }
        table
    };

    fn new() -> Self {
        Self(Self::INIT * Self::ONES)
    }

    /// Mix `byte` into all four chunk hashes.
    #[inline]
    fn update(&mut self, byte: u8) {
        self.0 = (self.0.wrapping_mul(Self::PRIME) ^ Self::SPLAT[usize::from(byte)]) & Self::MASK;
    }

    /// The base64 index of the chunk hash in `lane`.
    #[inline]
    fn b64_index(self, lane: u32) -> usize {
        ((self.0 >> (16 * lane)) & 0x3F) as usize
    }

    /// Start a fresh chunk hash in `lane`.
    #[inline]
    fn reset(&mut self, lane: u32) {
        self.0 = (self.0 & !(0x3F << (16 * lane))) | (Self::INIT << (16 * lane));
    }
}

/// A signature under construction: one base64 character per finished
/// chunk, at most `CAP`.
struct Sig<const CAP: usize> {
    chars: [u8; CAP],
    len: usize,
}

impl<const CAP: usize> Sig<CAP> {
    fn new() -> Self {
        Self {
            chars: [0; CAP],
            len: 0,
        }
    }

    fn push(&mut self, b64_index: usize) {
        self.chars[self.len] = base64::B64[b64_index];
        self.len += 1;
    }

    /// A chunk boundary: emit the chunk hashed so far in `lane` and start
    /// the next one — unless only the tail character's slot is left, in
    /// which case the chunk keeps growing to the end of the input.
    #[inline]
    fn boundary(&mut self, lanes: &mut ChunkLanes, lane: u32) {
        if self.len < CAP - 1 {
            self.push(lanes.b64_index(lane));
            lanes.reset(lane);
        }
    }

    fn into_string(self) -> String {
        self.chars[..self.len]
            .iter()
            .map(|&c| char::from(c))
            .collect()
    }
}

/// The two signatures of one block-size level.
struct LevelSigs {
    sig1: Sig<SPAM_SUM_LENGTH>,
    sig2: Sig<{ SPAM_SUM_LENGTH / 2 }>,
}

impl LevelSigs {
    fn new() -> Self {
        Self {
            sig1: Sig::new(),
            sig2: Sig::new(),
        }
    }

    fn into_hash(self, level: u32) -> FuzzyHash {
        FuzzyHash {
            block_size: blocksize_at(level),
            sig1: self.sig1.into_string(),
            sig2: self.sig2.into_string(),
        }
    }
}

/// The multiplicative inverse of 3 modulo `2^64`.
const INV3: u64 = 0xAAAA_AAAA_AAAA_AAAB;

/// The `limit` [`triggers`] compares against at `level`.
fn trigger_limit(level: u32) -> u64 {
    u64::MAX / blocksize_at(level)
}

/// Whether rolling value `r` ends a chunk at block size `bs = 3 * 2^level`,
/// i.e. `r % bs == bs - 1`, without a division.
///
/// That holds exactly when `m = r + 1` is a multiple of `bs`. For an odd
/// `d` with inverse `d'` modulo `2^64`, `m` is a multiple of `d * 2^k`
/// exactly when `m * d'` rotated right by `k` is at most `u64::MAX /
/// (d * 2^k)` (Granlund and Montgomery's divisibility test; *Hacker's
/// Delight* 10-17): a set bit among the low `k` lands in the top `k` bits
/// and exceeds the limit, and what remains is the odd-divisor test. With
/// `limit` from [`trigger_limit`] this is one multiply, one rotate and one
/// compare — a single condition the compiler cannot split into the two
/// data-dependent branches `m % 3 == 0 && m % 2^k == 0` would become.
#[inline]
fn triggers(r: u32, level: u32, limit: u64) -> bool {
    (u64::from(r) + 1).wrapping_mul(INV3).rotate_right(level) <= limit
}

/// Chunk `data` at block-size levels `low` and `low + 1` in one walk.
///
/// Every byte pays the cheapest boundary test, for `sig1` at `low`, which
/// fires about once per `3 * 2^low` bytes: a mask test that `r + 1` is a
/// multiple of `2^low` rules out all but one byte in `2^low` before
/// [`triggers`] checks the factor 3. Behind it, the count of `r`'s trailing
/// ones (the trailing zeros of `r + 1`) says which of the coarser triggers
/// — `sig2` at `low`, `sig1` at `low + 1`, `sig2` at `low + 1` — fire as
/// well.
fn walk_pair(data: &[u8], low: u32) -> [LevelSigs; 2] {
    // Lanes of the chunk hashes: sig1 and sig2 at `low`, then at `low + 1`.
    const LOW1: u32 = 0;
    const LOW2: u32 = 1;
    const HIGH1: u32 = 2;
    const HIGH2: u32 = 3;
    let mut roll = RollingHash::new();
    let mut lanes = ChunkLanes::new();
    let mut lower = LevelSigs::new();
    let mut upper = LevelSigs::new();
    let low_limit = trigger_limit(low);
    let low_mask = (1u32 << low) - 1;
    let mut step = |byte: u8, dropped: u8| {
        let r = roll.step(byte, dropped);
        lanes.update(byte);
        if r.wrapping_add(1) & low_mask == 0 && triggers(r, low, low_limit) {
            // A multiple of 3 rules out `r == u32::MAX`, so `r` has a zero
            // bit at or above `low` and the count stays within `low..32`.
            let above = r.trailing_ones() - low;
            lower.sig1.boundary(&mut lanes, LOW1);
            if above >= 1 {
                lower.sig2.boundary(&mut lanes, LOW2);
                upper.sig1.boundary(&mut lanes, HIGH1);
            }
            if above >= 2 {
                upper.sig2.boundary(&mut lanes, HIGH2);
            }
        }
    };
    // The byte leaving the rolling window comes from the input itself; it
    // is 0 until the window has filled.
    let head = data.len().min(ROLLING_WINDOW);
    for &byte in &data[..head] {
        step(byte, 0);
    }
    for (&byte, &dropped) in data[head..].iter().zip(data) {
        step(byte, dropped);
    }
    // Capture whatever is left in the final (possibly unterminated) chunk.
    if roll.value() != 0 || data.is_empty() {
        lower.sig1.push(lanes.b64_index(LOW1));
        lower.sig2.push(lanes.b64_index(LOW2));
        upper.sig1.push(lanes.b64_index(HIGH1));
        upper.sig2.push(lanes.b64_index(HIGH2));
    }
    [lower, upper]
}

/// Compute the fuzzy hash of a byte slice.
///
/// The block size is the largest `3 * 2^k` at or below the estimate from
/// [`initial_blocksize`] whose primary signature reaches half the target
/// length, or [`MIN_BLOCKSIZE`] when none does — the fixed point of the
/// reference implementation's halving loop, so small inputs still produce
/// informative signatures. One walk over the input chunks the estimate and
/// the level below it together, which is where the rule almost always
/// lands; only when both come out short does the next walk take the two
/// levels below those.
///
/// Per byte the walk updates the rolling hash, reading the byte that
/// leaves its window from `data` rather than from a ring buffer, and the
/// four chunk hashes behind the two levels' signatures. Only the low six
/// bits of a chunk hash ever reach a signature (libfuzzy's `sum_table`
/// rests on the same fact), so the four are kept as six-bit values in the
/// 16-bit lanes of one `u64` and one multiply, xor and mask advance them
/// all. A mask test on the rolling value rules out most bytes before the
/// full boundary test. The output is the same as chunking each block size
/// separately with 32-bit FNV hashes.
///
/// [`initial_blocksize`]: crate::blocksize::initial_blocksize
/// [`MIN_BLOCKSIZE`]: crate::blocksize::MIN_BLOCKSIZE
///
/// # Examples
///
/// ```
/// use ssdeep::fuzzy_hash_bytes;
/// let h = fuzzy_hash_bytes(b"hello fuzzy hashing world, this is a short input");
/// assert!(h.block_size() >= 3);
/// assert!(!h.signature().is_empty());
/// let text = h.to_string();
/// assert_eq!(text.matches(':').count(), 2);
/// ```
pub fn fuzzy_hash_bytes(data: &[u8]) -> FuzzyHash {
    let mut top = initial_level(data.len());
    loop {
        // At level 0 the pair's upper level lies above `top` and is unused.
        let low = top.saturating_sub(1);
        let [lower, upper] = walk_pair(data, low);
        if top > low && upper.sig1.len >= SPAM_SUM_LENGTH / 2 {
            return upper.into_hash(top);
        }
        if lower.sig1.len >= SPAM_SUM_LENGTH / 2 || low == 0 {
            return lower.into_hash(low);
        }
        top = low - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocksize::{MIN_BLOCKSIZE, NUM_BLOCKHASHES};

    fn patterned(len: usize, stride: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64 * u64::from(stride) + i as u64 / 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn triggers_is_the_modulo_test() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for level in 0..=NUM_BLOCKHASHES + 1 {
            let bs = MIN_BLOCKSIZE << level;
            let limit = trigger_limit(level);
            let near_multiples = (0..64u64).flat_map(|q| [q * bs, (q + 1) * bs - 1, q * bs + 1]);
            let edges = [0, 1, 2, u64::from(u32::MAX) - 1, u64::from(u32::MAX)];
            let random = (0..2_000).map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                x >> 32
            });
            for r in near_multiples.chain(edges).chain(random) {
                let Ok(r) = u32::try_from(r) else { continue };
                assert_eq!(
                    triggers(r, level, limit),
                    u64::from(r) % bs == bs - 1,
                    "r {r} level {level}"
                );
            }
        }
    }

    #[test]
    fn lane_update_is_the_low_six_bits_of_the_chunk_hash() {
        use crate::fnv::PartialHash;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut high_bits = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 32) as u32 & !0x3F
        };
        for state in 0..64u32 {
            for byte in 0..=255u8 {
                // A different reduced state in every lane, each the low six
                // bits of a chunk hash with random high bits.
                let hashes: [PartialHash; 4] = std::array::from_fn(|lane| {
                    PartialHash(((state + 17 * lane as u32) % 64) | high_bits())
                });
                let mut lanes = ChunkLanes(
                    hashes
                        .iter()
                        .enumerate()
                        .map(|(lane, h)| (h.b64_index() as u64) << (16 * lane))
                        .sum(),
                );
                lanes.update(byte);
                for (lane, mut hash) in hashes.into_iter().enumerate() {
                    hash.update(byte);
                    assert_eq!(
                        lanes.b64_index(lane as u32),
                        hash.b64_index(),
                        "state {state} byte {byte} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_reset_starts_one_chunk_hash_afresh() {
        use crate::fnv::PartialHash;
        let mut lanes = ChunkLanes::new();
        for byte in *b"context" {
            lanes.update(byte);
        }
        let before = lanes;
        for lane in 0..4 {
            let mut reset = before;
            reset.reset(lane);
            for other in 0..4 {
                let expected = if other == lane {
                    PartialHash::new().b64_index()
                } else {
                    before.b64_index(other)
                };
                assert_eq!(reset.b64_index(other), expected, "reset {lane}");
            }
        }
    }

    #[test]
    fn empty_input_has_minimal_hash() {
        let h = fuzzy_hash_bytes(b"");
        assert_eq!(h.block_size(), MIN_BLOCKSIZE);
        assert_eq!(h.signature().len(), 1);
        assert_eq!(h.signature_double().len(), 1);
    }

    #[test]
    fn deterministic() {
        let data = patterned(50_000, 13);
        assert_eq!(fuzzy_hash_bytes(&data), fuzzy_hash_bytes(&data));
    }

    #[test]
    fn signatures_respect_length_bounds() {
        for len in [0usize, 1, 10, 100, 1_000, 10_000, 200_000] {
            let h = fuzzy_hash_bytes(&patterned(len, 7));
            assert!(h.signature().len() <= SPAM_SUM_LENGTH, "len {len}");
            assert!(
                h.signature_double().len() <= SPAM_SUM_LENGTH / 2,
                "len {len}"
            );
        }
    }

    #[test]
    fn signature_chars_are_valid_base64() {
        let h = fuzzy_hash_bytes(&patterned(30_000, 31));
        assert!(crate::base64::is_valid_signature(h.signature()));
        assert!(crate::base64::is_valid_signature(h.signature_double()));
    }

    #[test]
    fn roundtrip_display_parse() {
        let h = fuzzy_hash_bytes(&patterned(12_345, 5));
        let text = h.to_string();
        let parsed: FuzzyHash = text.parse().unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "nocolons".parse::<FuzzyHash>(),
            Err(ParseError::MissingSeparator)
        ));
        assert!(matches!(
            "x:AB:CD".parse::<FuzzyHash>(),
            Err(ParseError::InvalidBlockSize(_))
        ));
        assert!(matches!(
            "0:AB:CD".parse::<FuzzyHash>(),
            Err(ParseError::InvalidBlockSize(_))
        ));
        assert!(matches!(
            "3:A B:CD".parse::<FuzzyHash>(),
            Err(ParseError::InvalidCharacter(' '))
        ));
        let long = "A".repeat(SPAM_SUM_LENGTH + 1);
        assert!(matches!(
            format!("3:{long}:CD").parse::<FuzzyHash>(),
            Err(ParseError::SignatureTooLong(_))
        ));
    }

    #[test]
    fn larger_inputs_get_larger_block_sizes() {
        let small = fuzzy_hash_bytes(&patterned(1_000, 3));
        let large = fuzzy_hash_bytes(&patterned(1_000_000, 3));
        assert!(large.block_size() > small.block_size());
    }

    #[test]
    fn comparable_with_factor_two() {
        let a = FuzzyHash::from_parts(48, "ABC".into(), "DE".into()).unwrap();
        let b = FuzzyHash::from_parts(96, "ABC".into(), "DE".into()).unwrap();
        let c = FuzzyHash::from_parts(192, "ABC".into(), "DE".into()).unwrap();
        assert!(a.comparable_with(&b));
        assert!(b.comparable_with(&c));
        assert!(!a.comparable_with(&c));
    }

    #[test]
    fn small_change_keeps_most_of_signature() {
        let a = patterned(60_000, 11);
        let mut b = a.clone();
        // Flip a handful of bytes in the middle.
        for byte in &mut b[30_000..30_016] {
            *byte ^= 0xFF;
        }
        let ha = fuzzy_hash_bytes(&a);
        let hb = fuzzy_hash_bytes(&b);
        assert_eq!(ha.block_size(), hb.block_size());
        // The signatures must share a long common prefix or suffix overall;
        // quantify via edit distance being far below the signature length.
        let d = crate::edit_distance::levenshtein(ha.signature(), hb.signature());
        assert!(
            d < ha.signature().len() / 2,
            "edit distance {d} too large for a 16-byte change (sig len {})",
            ha.signature().len()
        );
    }

    #[test]
    fn debug_repr_mentions_block_size() {
        let h = fuzzy_hash_bytes(&patterned(5_000, 9));
        let debug = format!("{h:?}");
        assert!(debug.contains(&h.block_size().to_string()));
    }
}
