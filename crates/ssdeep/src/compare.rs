//! Scoring the similarity of two fuzzy hashes on the 0–100 scale.
//!
//! Following SSDeep, two hashes are compared by:
//!
//! 1. Checking block-size compatibility (equal or factor-of-two).
//! 2. Collapsing runs of more than three identical characters in each
//!    signature (long runs carry almost no information and would otherwise
//!    inflate similarity).
//! 3. Requiring a common substring of at least
//!    [`MIN_COMMON_SUBSTRING`] characters — without one the score is 0,
//!    which suppresses coincidental low-level matches.
//! 4. Computing the weighted Damerau–Levenshtein distance
//!    ([`weighted_edit_distance`])
//!    between the matching-block-size signatures and scaling it to 0–100,
//!    where 100 means identical signatures.
//! 5. Capping the score for very small block sizes, where short inputs can
//!    produce spuriously confident matches.

use crate::blocksize::MIN_BLOCKSIZE;
use crate::edit_distance::weighted_edit_distance;
use crate::generate::{FuzzyHash, SPAM_SUM_LENGTH};
use std::borrow::Cow;

/// Minimum length of a common substring required for a non-zero score
/// (equal to the rolling-hash window length, as in SSDeep).
pub const MIN_COMMON_SUBSTRING: usize = 7;

/// Collapse runs of more than three identical characters down to three.
///
/// Sequences like `AAAAAAA` arise from large homogeneous regions (e.g.
/// zero-padding in executables) and carry little identity information.
///
/// Returns the input unchanged (borrowed, no allocation) when no run is
/// collapsed — the common case on the scoring hot path. Otherwise the
/// output is rebuilt char by char, so non-ASCII input round-trips intact.
pub fn eliminate_long_runs(sig: &str) -> Cow<'_, str> {
    let bytes = sig.as_bytes();
    if !bytes.windows(4).any(|w| w[1..].iter().all(|&b| b == w[0])) {
        return Cow::Borrowed(sig);
    }
    // Rebuild char by char. Only ASCII runs ever collapse: identical lead
    // bytes cannot be adjacent in valid UTF-8 (a lead is followed by
    // continuations), and a char carries at most three identical
    // continuation bytes, which the next char's lead terminates. So a
    // non-ASCII char never extends a run and is always kept whole.
    let mut out = String::with_capacity(bytes.len() - 1);
    let mut run_len = 0usize;
    let mut run_char = None;
    for c in sig.chars() {
        if c.is_ascii() && run_char == Some(c) {
            run_len += 1;
        } else {
            run_char = Some(c);
            run_len = 1;
        }
        if run_len <= 3 {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// Pack one [`MIN_COMMON_SUBSTRING`]-byte window into a `u64` key (base64
/// characters are 7-bit, so 7 bytes fit in 56 bits).
#[inline]
pub(crate) fn pack_window(window: &[u8]) -> u64 {
    let mut v = 0u64;
    for &byte in window {
        v = (v << 8) | u64::from(byte);
    }
    v
}

/// The sorted packed 7-byte window keys of `bytes` (empty when the input is
/// shorter than [`MIN_COMMON_SUBSTRING`]). Two strings share a common
/// substring of length [`MIN_COMMON_SUBSTRING`] iff their key sets intersect.
pub(crate) fn window_keys(bytes: &[u8]) -> Vec<u64> {
    if bytes.len() < MIN_COMMON_SUBSTRING {
        return Vec::new();
    }
    let mut keys: Vec<u64> = bytes
        .windows(MIN_COMMON_SUBSTRING)
        .map(pack_window)
        .collect();
    keys.sort_unstable();
    keys
}

/// Whether `a` and `b` share a common substring of length at least
/// [`MIN_COMMON_SUBSTRING`].
///
/// This check runs for every candidate pair in the similarity feature
/// matrix (millions of times per experiment), and most pairs fail it, so it
/// is the hot path of the whole classifier. Each 7-byte window fits in a
/// `u64` (base64 characters are 7-bit), so the windows of the shorter string
/// are packed and sorted once and the other string's windows are found by
/// binary search — far cheaper than the quadratic slice comparison.
///
/// Signatures produced by this crate are at most
/// [`SPAM_SUM_LENGTH`] characters, so their windows
/// fit a stack buffer; arbitrary caller-supplied strings of any length fall
/// back to a heap buffer instead of panicking.
pub fn has_common_substring(a: &str, b: &str) -> bool {
    let a = a.as_bytes();
    let b = b.as_bytes();
    if a.len() < MIN_COMMON_SUBSTRING || b.len() < MIN_COMMON_SUBSTRING {
        return false;
    }
    // Pack the shorter string's windows (at most 58 for real signatures) on
    // the stack; longer inputs spill to the heap.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let n = short.len() - MIN_COMMON_SUBSTRING + 1;
    let mut stack = [0u64; crate::generate::SPAM_SUM_LENGTH];
    let mut heap: Vec<u64> = Vec::new();
    let keys: &mut [u64] = if n <= stack.len() {
        &mut stack[..n]
    } else {
        heap.resize(n, 0);
        &mut heap
    };
    for (i, key) in keys.iter_mut().enumerate() {
        *key = pack_window(&short[i..i + MIN_COMMON_SUBSTRING]);
    }
    keys.sort_unstable();
    long.windows(MIN_COMMON_SUBSTRING)
        .any(|w| keys.binary_search(&pack_window(w)).is_ok())
}

/// Scale a weighted edit distance between two run-eliminated signatures of
/// lengths `len1` and `len2` onto the 0–100 similarity scale, applying the
/// small-block-size cap. Shared by [`score_strings`] and the precomputed
/// [`compare_prepared`](crate::prepared::compare_prepared) path so the two
/// stay byte-identical. Monotone non-increasing in `dist`, which is what
/// makes the [`max_distance_for_score`] inverse (and therefore score-budget
/// pruning) exact.
///
/// A weighted edit distance never exceeds `len1 + len2`, so `dist` is
/// clamped to that range; two empty signatures (which the scoring paths
/// reject before scaling) score 0.
pub fn scale_score(dist: u64, len1: u64, len2: u64, block_size: u64) -> u32 {
    let total = len1.saturating_add(len2);
    if total == 0 {
        return 0;
    }
    let dist = dist.min(total);
    // Scale the distance by the signature lengths onto 0..=100, mirroring
    // spamsum: first rescale to a "proportional" distance relative to
    // SPAM_SUM_LENGTH, then convert to a similarity. The multiplication
    // saturates only for absurd (> 2^57-byte) caller-supplied lengths,
    // where the score is 0 either way.
    let mut score = dist.saturating_mul(SPAM_SUM_LENGTH as u64) / total;
    score = (100 * score) / (SPAM_SUM_LENGTH as u64);
    let mut score = 100u64.saturating_sub(score);

    // For small block sizes, cap the score: short, low-entropy inputs can
    // otherwise look deceptively similar. The cap is only computed inside the
    // branch so a huge caller-supplied block size cannot overflow the
    // multiplication.
    if block_size < 99 * MIN_BLOCKSIZE {
        let cap = (block_size / MIN_BLOCKSIZE) * len1.min(len2);
        if score > cap {
            score = cap;
        }
    }
    score.min(100) as u32
}

/// The inverse of [`scale_score`]: the largest weighted edit distance that
/// still scales to a similarity of at least `min_score` for run-eliminated
/// signature lengths `len1`/`len2` under `block_size` — or `None` when no
/// distance can reach `min_score` (the small-block-size cap alone rules it
/// out, or `min_score > 100`).
///
/// This is what turns a *score* budget into a *distance* budget: a caller
/// that only cares about comparisons beating some running maximum `s` can
/// bound the edit-distance DP at `max_distance_for_score(s + 1, ..)` and
/// abandon the table the moment the bound is exceeded
/// ([`crate::fastdist::weighted_edit_distance_bounded`]), without ever
/// changing a reported score. `scale_score` is monotone non-increasing in
/// the distance, so the inverse is found by binary search over
/// `0..=len1+len2` (the range of possible weighted distances) with
/// `scale_score` itself as the oracle — exact by construction, immune to
/// the scaling's floor-division subtleties.
///
/// # Examples
///
/// ```
/// use ssdeep::compare::{max_distance_for_score, scale_score};
/// let budget = max_distance_for_score(80, 60, 60, 3072).unwrap();
/// assert!(scale_score(budget, 60, 60, 3072) >= 80);
/// assert!(scale_score(budget + 1, 60, 60, 3072) < 80);
/// // A tiny block size caps scores below 100: no distance reaches it.
/// assert_eq!(max_distance_for_score(100, 8, 8, 3), None);
/// ```
pub fn max_distance_for_score(
    min_score: u32,
    len1: u64,
    len2: u64,
    block_size: u64,
) -> Option<u64> {
    let max_dist = len1.saturating_add(len2);
    if min_score == 0 {
        // Every comparison scores at least 0.
        return Some(max_dist);
    }
    if min_score > 100 || scale_score(0, len1, len2, block_size) < min_score {
        return None;
    }
    let (mut lo, mut hi) = (0u64, max_dist);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if scale_score(mid, len1, len2, block_size) >= min_score {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// Score two signatures that were generated with the same block size.
///
/// Returns 0–100. `block_size` is used only for the small-block-size cap.
pub fn score_strings(s1: &str, s2: &str, block_size: u64) -> u32 {
    let s1 = eliminate_long_runs(s1);
    let s2 = eliminate_long_runs(s2);
    if s1.is_empty() || s2.is_empty() {
        return 0;
    }
    if !has_common_substring(&s1, &s2) {
        return 0;
    }
    let dist = weighted_edit_distance(&s1, &s2) as u64;
    scale_score(dist, s1.len() as u64, s2.len() as u64, block_size)
}

/// Compare two fuzzy hashes and return a similarity score in `0..=100`.
///
/// Returns 0 when the block sizes are not comparable (neither equal nor a
/// factor of two apart).
///
/// # Examples
///
/// ```
/// use ssdeep::{fuzzy_hash_bytes, compare};
/// let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
/// let same = compare(&fuzzy_hash_bytes(&data), &fuzzy_hash_bytes(&data));
/// assert_eq!(same, 100);
/// ```
pub fn compare(a: &FuzzyHash, b: &FuzzyHash) -> u32 {
    let b1 = a.block_size();
    let b2 = b.block_size();

    if b1 == b2 && a.signature() == b.signature() && a.signature_double() == b.signature_double() {
        // Identical hashes of non-trivial inputs are a perfect match; for
        // extremely short signatures fall through to the scoring (which caps
        // low-information matches).
        if a.signature().len() >= MIN_COMMON_SUBSTRING {
            return 100;
        }
    }

    if b1 == b2 {
        // The double-signature block size can overflow for adversarial
        // `from_parts` inputs near `u64::MAX`; saturating is score-identical
        // because any block size that large skips the small-block-size cap.
        let s1 = score_strings(a.signature(), b.signature(), b1);
        let s2 = score_strings(
            a.signature_double(),
            b.signature_double(),
            b1.saturating_mul(2),
        );
        s1.max(s2)
    } else if b2.checked_mul(2) == Some(b1) {
        // a's primary block size equals b's double block size.
        score_strings(a.signature(), b.signature_double(), b1)
    } else if b1.checked_mul(2) == Some(b2) {
        score_strings(a.signature_double(), b.signature(), b2)
    } else {
        0
    }
}

/// Convenience wrapper: parse two textual hashes and compare them.
///
/// Returns `None` if either string fails to parse.
pub fn compare_strings(a: &str, b: &str) -> Option<u32> {
    let ha: FuzzyHash = a.parse().ok()?;
    let hb: FuzzyHash = b.parse().ok()?;
    Some(compare(&ha, &hb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::fuzzy_hash_bytes;

    fn patterned(len: usize, stride: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i * stride + i / 11) % 249) as u8)
            .collect()
    }

    #[test]
    fn identical_inputs_score_100() {
        let d = patterned(80_000, 17);
        let h = fuzzy_hash_bytes(&d);
        assert_eq!(compare(&h, &h), 100);
    }

    #[test]
    fn unrelated_inputs_score_low() {
        let a = fuzzy_hash_bytes(&patterned(60_000, 17));
        let b = fuzzy_hash_bytes(&patterned(60_000, 101));
        assert!(compare(&a, &b) < 40, "got {}", compare(&a, &b));
    }

    #[test]
    fn similar_inputs_score_between() {
        // A realistic "new version" edit: one contiguous region changes while
        // the rest of the file stays identical. Scattering single-byte edits
        // into every chunk would (correctly) destroy CTPH similarity, so the
        // edit here is localized, as code changes in executables are.
        let base = patterned(100_000, 17);
        let mut variant = base.clone();
        for item in variant.iter_mut().skip(48_000).take(2_000) {
            *item ^= 0x5A;
        }
        let ha = fuzzy_hash_bytes(&base);
        let hb = fuzzy_hash_bytes(&variant);
        let s = compare(&ha, &hb);
        assert!(s > 40, "modified copy should still look similar, got {s}");
        assert!(s <= 100);
    }

    #[test]
    fn comparison_is_symmetric() {
        let a = fuzzy_hash_bytes(&patterned(70_000, 13));
        let b = fuzzy_hash_bytes(&patterned(70_000, 19));
        assert_eq!(compare(&a, &b), compare(&b, &a));
    }

    #[test]
    fn incompatible_block_sizes_score_zero() {
        let a = FuzzyHash::from_parts(3, "ABCDEFGHIJKL".into(), "ABCDEF".into()).unwrap();
        let b = FuzzyHash::from_parts(48, "ABCDEFGHIJKL".into(), "ABCDEF".into()).unwrap();
        assert_eq!(compare(&a, &b), 0);
    }

    #[test]
    fn eliminate_long_runs_collapses() {
        assert_eq!(eliminate_long_runs("AAAAAABBBCC"), "AAABBBCC");
        assert_eq!(eliminate_long_runs(""), "");
        assert_eq!(eliminate_long_runs("ABAB"), "ABAB");
        assert_eq!(eliminate_long_runs("AAAA"), "AAA");
    }

    #[test]
    fn common_substring_requirement() {
        assert!(has_common_substring("ABCDEFGHIJ", "xxxABCDEFGyyy"));
        assert!(!has_common_substring("ABCDEFG", "GFEDCBA"));
        assert!(!has_common_substring("short", "short"));
        // Exactly 7 shared characters is enough.
        assert!(has_common_substring("1234567", "1234567"));
    }

    #[test]
    fn score_strings_zero_without_common_substring() {
        assert_eq!(
            score_strings("ABCDEFGHIJKLMNOP", "qrstuvwxyz012345", 192),
            0
        );
    }

    #[test]
    fn score_strings_identical_is_high() {
        let sig = "QZXCVBNMASDFGHJKLPOIUYTREWQ";
        assert!(score_strings(sig, sig, 3072) >= 99);
    }

    #[test]
    fn small_blocksize_cap_applies() {
        // With block size == MIN_BLOCKSIZE the cap is min(len1, len2), so two
        // identical 8-char signatures cannot score above 8.
        let sig = "ABCDEFGH";
        let s = score_strings(sig, sig, MIN_BLOCKSIZE);
        assert!(s <= 8, "cap should limit score, got {s}");
    }

    #[test]
    fn factor_two_block_sizes_can_match() {
        // Build an input, hash it, then hash a doubled version: their block
        // sizes often differ by x2 but the comparison path must not panic and
        // must return a bounded score.
        let a = patterned(100_000, 7);
        let mut b = a.clone();
        b.extend_from_slice(&patterned(120_000, 7));
        let ha = fuzzy_hash_bytes(&a);
        let hb = fuzzy_hash_bytes(&b);
        let s = compare(&ha, &hb);
        assert!(s <= 100);
    }

    #[test]
    fn common_substring_accepts_oversized_inputs() {
        // Regression: strings longer than SPAM_SUM_LENGTH + 6 windows used to
        // index past a fixed stack array and panic. Both the shared-window
        // and the disjoint case must return correct answers instead.
        let long_a: String = (0..200)
            .map(|i| ((i * 7 + 3) % 26 + 65) as u8 as char)
            .collect();
        let mut long_b: String = (0..200)
            .map(|i| ((i * 11 + 5) % 26 + 97) as u8 as char)
            .collect();
        assert!(has_common_substring(&long_a, &long_a));
        assert!(!has_common_substring(&long_a, &long_b));
        // Splice a 7-char window of `a` into `b`: now they must match.
        long_b.replace_range(90..97, &long_a[40..47]);
        assert!(has_common_substring(&long_a, &long_b));
        assert!(has_common_substring(&long_b, &long_a));
        // Exactly one past the old stack capacity (71 bytes) on both sides.
        let a71: String = (0..71)
            .map(|i| ((i * 5 + 1) % 26 + 65) as u8 as char)
            .collect();
        assert!(has_common_substring(&a71, &a71));
    }

    #[test]
    fn score_strings_accepts_oversized_inputs() {
        let sig: String = (0..120)
            .map(|i| ((i * 13 + 2) % 26 + 65) as u8 as char)
            .collect();
        let s = score_strings(&sig, &sig, 3072);
        assert!(s >= 99, "identical long strings should score high, got {s}");
        let other: String = (0..120)
            .map(|i| ((i * 17 + 9) % 26 + 97) as u8 as char)
            .collect();
        assert_eq!(score_strings(&sig, &other, 3072), 0);
    }

    #[test]
    fn compare_near_max_block_size_does_not_overflow() {
        let sig = "ABCDEFGHIJKL".to_string();
        let max = FuzzyHash::from_parts(u64::MAX, sig.clone(), sig.clone()).unwrap();
        let half = FuzzyHash::from_parts(u64::MAX / 2 + 1, sig.clone(), sig.clone()).unwrap();
        let odd = FuzzyHash::from_parts(u64::MAX - 2, sig.clone(), sig.clone()).unwrap();

        // Identical huge-block-size hashes still compare as identical.
        assert_eq!(compare(&max, &max), 100);
        // (u64::MAX / 2 + 1) * 2 overflows; the pair is not comparable.
        assert_eq!(compare(&max, &half), 0);
        assert_eq!(compare(&half, &max), 0);
        assert_eq!(compare(&max, &odd), 0);

        // A genuine factor-of-two pair near the top of the range still works.
        let b1 = 1u64 << 62;
        let a = FuzzyHash::from_parts(b1, sig.clone(), sig.clone()).unwrap();
        let b = FuzzyHash::from_parts(b1 * 2, sig.clone(), sig).unwrap();
        assert!(compare(&a, &b) > 0);
        assert_eq!(compare(&a, &b), compare(&b, &a));
    }

    #[test]
    fn scale_score_handles_degenerate_public_inputs() {
        // Zero lengths (empty signatures) score 0 instead of dividing by
        // zero, a distance beyond len1 + len2 clamps (the weighted distance
        // never exceeds it), and absurd magnitudes saturate instead of
        // overflowing.
        assert_eq!(scale_score(0, 0, 0, 3), 0);
        assert_eq!(scale_score(7, 0, 0, u64::MAX), 0);
        assert_eq!(
            scale_score(u64::MAX, 32, 32, 3072),
            scale_score(64, 32, 32, 3072)
        );
        assert_eq!(scale_score(u64::MAX / 32, 1, 1, 3072), 0);
        assert_eq!(scale_score(0, u64::MAX, u64::MAX, 3072), 100);
        assert_eq!(max_distance_for_score(1, 0, 0, 3), None);
        assert_eq!(max_distance_for_score(0, 0, 0, 3), Some(0));
        assert!(max_distance_for_score(1, u64::MAX, u64::MAX, 3072).is_some());
    }

    #[test]
    fn compare_strings_parses_and_scores() {
        let d = patterned(50_000, 29);
        let h = fuzzy_hash_bytes(&d).to_string();
        assert_eq!(compare_strings(&h, &h), Some(100));
        assert_eq!(compare_strings("garbage", &h), None);
    }

    #[test]
    fn truncation_of_input_retains_similarity() {
        let a = patterned(200_000, 23);
        let b = &a[..150_000];
        let ha = fuzzy_hash_bytes(&a);
        let hb = fuzzy_hash_bytes(b);
        let s = compare(&ha, &hb);
        assert!(s > 0, "a 75% prefix should retain some similarity");
    }
}
