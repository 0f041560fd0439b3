//! Randomized (but fully deterministic) property tests for the fuzzy-hashing
//! engine. The build environment has no crates.io access, so instead of
//! `proptest` these tests drive the same properties with a seeded SplitMix64
//! generator over a fixed number of cases.

mod ctph_oracle;

use ssdeep::blocksize::{blocksize_at, MIN_BLOCKSIZE};
use ssdeep::rolling_hash::{RollingHash, ROLLING_WINDOW};
use ssdeep::{
    compare, compare_prepared, damerau_levenshtein, fuzzy_hash_bytes, levenshtein,
    weighted_edit_distance, FuzzyHash, PreparedHash, SPAM_SUM_LENGTH,
};

/// SplitMix64 — the deterministic case generator for these tests.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, low: usize, high: usize) -> usize {
        low + (self.next() as usize) % (high - low)
    }

    /// Random bytes with length in `low..high`.
    fn bytes(&mut self, low: usize, high: usize) -> Vec<u8> {
        let len = self.range(low, high);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Random base64-alphabet string with length in `0..=max_len`.
    fn b64_string(&mut self, max_len: usize) -> String {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let len = self.range(0, max_len + 1);
        (0..len)
            .map(|_| ALPHABET[self.range(0, ALPHABET.len())] as char)
            .collect()
    }
}

/// Assert the one-walk chunker matches the pre-rewrite oracle on `data`,
/// returning the oracle's pass count.
fn assert_matches_oracle(data: &[u8], what: &str) -> u32 {
    let (expected, passes) = ctph_oracle::fuzzy_hash_bytes_with_passes(data);
    assert_eq!(
        fuzzy_hash_bytes(data),
        expected,
        "{what} (len {})",
        data.len()
    );
    passes
}

/// The one-walk chunker is byte-identical to the oracle on random inputs of
/// random length.
#[test]
fn chunker_equals_oracle_on_random_inputs() {
    let mut g = Gen(11);
    for case in 0..96 {
        let data = g.bytes(0, 40_000);
        assert_matches_oracle(&data, &format!("random case {case}"));
    }
}

/// Lengths one either side of every `3 * 64 * 2^k`, where the initial
/// block-size estimate steps up a level, on random and on text-like bytes.
#[test]
fn chunker_equals_oracle_at_blocksize_boundaries() {
    let mut g = Gen(12);
    for k in 0..12 {
        let edge = blocksize_at(k) as usize * SPAM_SUM_LENGTH;
        for len in [edge - 1, edge, edge + 1] {
            let random: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
            assert_matches_oracle(&random, &format!("random, k {k}"));
            let text: Vec<u8> = (0..len).map(|_| b' ' + (g.next() % 95) as u8).collect();
            assert_matches_oracle(&text, &format!("text, k {k}"));
        }
    }
}

/// All-zero input keeps the rolling value at 0: no boundary ever triggers
/// and no tail character is appended, so every level comes out empty and
/// the block size falls all the way to the minimum.
#[test]
fn chunker_equals_oracle_on_all_zero_inputs() {
    for len in [0, 1, 7, 191, 192, 193, 4_000, 70_000] {
        let data = vec![0u8; len];
        assert_matches_oracle(&data, "all zero");
        let h = fuzzy_hash_bytes(&data);
        assert_eq!(h.block_size(), MIN_BLOCKSIZE, "len {len}");
        if len > 0 {
            assert_eq!(h.signature(), "", "len {len}");
        }
    }
}

/// Constant and short-period inputs give the rolling hash a handful of
/// values, so the primary signature stays short at the estimate and the
/// level below it, forcing the walks below the first pair. At least one
/// case must take more than two oracle passes, or the fallback went
/// untested.
#[test]
fn chunker_equals_oracle_on_constant_and_periodic_inputs() {
    let mut g = Gen(13);
    let mut deepest = 0;
    for period in 1..=24usize {
        for len in [500, 5_000, 60_000] {
            let pattern: Vec<u8> = (0..period).map(|_| g.next() as u8).collect();
            let data: Vec<u8> = pattern.iter().copied().cycle().take(len).collect();
            let passes = assert_matches_oracle(&data, &format!("period {period}"));
            deepest = deepest.max(passes);
        }
    }
    for byte in [1u8, 0x41, 0x90, 0xFF] {
        let passes = assert_matches_oracle(&vec![byte; 30_000], &format!("constant {byte:#x}"));
        deepest = deepest.max(passes);
    }
    assert!(deepest > 2, "no input reached the fallback walks");
}

/// The selection rule's edge: a primary signature of exactly half the
/// target length is long enough. Random bytes followed by zeros fire
/// boundaries only in the random prefix, so the prefix length steers the
/// primary signature to about 32 characters at the estimate (chosen in one
/// oracle pass) or at the level below it (two passes). Both must occur.
#[test]
fn chunker_equals_oracle_at_exactly_half_full_signatures() {
    let mut g = Gen(14);
    let mut exact_at = [0u32; 2];
    for case in 0..400u32 {
        let level = 2 + case % 5;
        let bs = blocksize_at(level) as usize;
        let below = case % 2;
        // About 31 boundaries plus the tail character at the target level.
        let center = 31 * (bs >> below);
        let prefix = g.range(center - bs, center + bs);
        let mut data: Vec<u8> = (0..prefix).map(|_| g.next() as u8).collect();
        data.resize(bs * SPAM_SUM_LENGTH, 0);
        let passes = assert_matches_oracle(&data, &format!("half full, case {case}"));
        if fuzzy_hash_bytes(&data).signature().len() == SPAM_SUM_LENGTH / 2 && passes <= 2 {
            exact_at[passes as usize - 1] += 1;
        }
    }
    assert!(exact_at.iter().all(|&n| n > 0), "{exact_at:?}");
}

/// Every length from 0 to 16, so inputs shorter than the rolling window and
/// boundaries inside its first seven bytes — where the byte leaving the
/// window is the implicit 0, not an input byte — are compared against the
/// oracle. At these lengths the block size is 3, so many random inputs of
/// each length trigger early; the test checks that some did.
#[test]
fn chunker_equals_oracle_on_inputs_up_to_sixteen_bytes() {
    let mut g = Gen(15);
    let mut early_triggers = 0;
    for len in 0..=16 {
        for case in 0..64 {
            let data: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
            assert_matches_oracle(&data, &format!("short case {case}"));
            let mut roll = RollingHash::new();
            early_triggers += data
                .iter()
                .take(ROLLING_WINDOW)
                .filter(|&&byte| roll.update(byte) % 3 == 2)
                .count();
        }
    }
    assert!(early_triggers > 0, "no boundary inside the first window");
}

/// Inputs where all four chunk hashes of a walk reach their signature cap
/// (63 and 31 boundaries) long before the end, so each keeps growing into
/// the tail character. A periodic input repeats its rolling value every
/// period; a pattern whose value at some phase is `-1` modulo the coarsest
/// trigger of the walk fires all four boundaries once per period.
#[test]
fn chunker_equals_oracle_when_every_lane_hits_its_cap() {
    let mut g = Gen(16);
    let mut capped = 0;
    for top in 1..=6u32 {
        let coarsest = 2 * blocksize_at(top);
        let len = blocksize_at(top) as usize * SPAM_SUM_LENGTH;
        for _ in 0..4_000 {
            let period = g.range(ROLLING_WINDOW, 17);
            let pattern: Vec<u8> = (0..period).map(|_| g.next() as u8).collect();
            let mut roll = RollingHash::new();
            // One period's rolling values, once the window holds only
            // pattern bytes.
            let fires = pattern
                .iter()
                .cycle()
                .take(period + ROLLING_WINDOW)
                .map(|&byte| u64::from(roll.update(byte)))
                .skip(ROLLING_WINDOW)
                .any(|r| r % coarsest == coarsest - 1);
            if !fires || len / period < 2 * SPAM_SUM_LENGTH {
                continue;
            }
            let data: Vec<u8> = pattern.iter().copied().cycle().take(len).collect();
            assert_matches_oracle(&data, &format!("capped, top {top}, period {period}"));
            let h = fuzzy_hash_bytes(&data);
            assert_eq!(h.block_size(), blocksize_at(top));
            assert_eq!(h.signature().len(), SPAM_SUM_LENGTH);
            assert_eq!(h.signature_double().len(), SPAM_SUM_LENGTH / 2);
            capped += 1;
            break;
        }
    }
    assert!(capped >= 4, "only {capped} capped inputs found");
}

/// Hashing is deterministic and the textual form round-trips.
#[test]
fn hash_roundtrips_through_text() {
    let mut g = Gen(1);
    for _ in 0..64 {
        let data = g.bytes(0, 20_000);
        let h = fuzzy_hash_bytes(&data);
        let text = h.to_string();
        let parsed: FuzzyHash = text.parse().expect("generated hash must parse");
        assert_eq!(parsed, h);
    }
}

/// Signature lengths never exceed the SSDeep bounds.
#[test]
fn signature_lengths_bounded() {
    let mut g = Gen(2);
    for _ in 0..64 {
        let data = g.bytes(0, 50_000);
        let h = fuzzy_hash_bytes(&data);
        assert!(h.signature().len() <= ssdeep::SPAM_SUM_LENGTH);
        assert!(h.signature_double().len() <= ssdeep::SPAM_SUM_LENGTH / 2);
        assert!(h.block_size() >= 3);
    }
}

/// Self-comparison of a non-trivial input is the maximum score and every
/// comparison stays within 0..=100.
#[test]
fn self_similarity_is_max() {
    let mut g = Gen(3);
    for _ in 0..64 {
        let data = g.bytes(2_000, 20_000);
        let h = fuzzy_hash_bytes(&data);
        let s = compare(&h, &h);
        assert!(s <= 100);
        // Inputs this long always produce signatures >= 7 chars unless the
        // data is pathologically uniform; allow the capped case.
        if h.signature().len() >= 7 {
            assert_eq!(s, 100);
        }
    }
}

/// Comparison is symmetric.
#[test]
fn comparison_symmetric() {
    let mut g = Gen(4);
    for _ in 0..64 {
        let a = g.bytes(0, 15_000);
        let b = g.bytes(0, 15_000);
        let ha = fuzzy_hash_bytes(&a);
        let hb = fuzzy_hash_bytes(&b);
        assert_eq!(compare(&ha, &hb), compare(&hb, &ha));
    }
}

/// Levenshtein axioms: identity, symmetry, bounded by max length, Damerau
/// never exceeds Levenshtein, weighted never below Levenshtein.
#[test]
fn edit_distance_axioms() {
    let mut g = Gen(5);
    for _ in 0..128 {
        let a = g.b64_string(48);
        let b = g.b64_string(48);
        let lev = levenshtein(&a, &b);
        let dl = damerau_levenshtein(&a, &b);
        let w = weighted_edit_distance(&a, &b);
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        assert!(lev <= a.len().max(b.len()));
        assert!(dl <= lev);
        assert!(w >= lev);
        assert!(w <= a.len() + b.len());
        assert_eq!(dl == 0, a == b);
    }
}

/// `compare_prepared` is score-identical to `compare` on random hash pairs:
/// real generated hashes (some sharing content so block sizes collide or
/// differ by a factor of two) and fabricated hashes with random signatures
/// and random — including tiny and enormous — block sizes.
#[test]
fn prepared_comparison_equals_plain_comparison() {
    let mut g = Gen(7);
    let mut hashes: Vec<FuzzyHash> = Vec::new();
    for _ in 0..24 {
        let base = g.bytes(500, 30_000);
        hashes.push(fuzzy_hash_bytes(&base));
        // A mutated copy: often the same or a neighboring block size.
        let mut variant = base.clone();
        let start = g.range(0, variant.len().max(2) - 1);
        let span = g.range(1, 1 + variant.len() / 8);
        for byte in variant.iter_mut().skip(start).take(span) {
            *byte ^= 0xA7;
        }
        hashes.push(fuzzy_hash_bytes(&variant));
    }
    for _ in 0..24 {
        let block_size = match g.range(0, 4) {
            0 => 3 << g.range(0, 8),
            1 => g.next().max(1),
            2 => u64::MAX - g.range(0, 3) as u64,
            _ => 3,
        };
        let sig1 = g.b64_string(64);
        let sig2 = g.b64_string(32);
        hashes.push(FuzzyHash::from_parts(block_size, sig1, sig2).expect("valid parts"));
    }

    let prepared: Vec<PreparedHash> = hashes.iter().map(PreparedHash::new).collect();
    for (ha, pa) in hashes.iter().zip(&prepared) {
        for (hb, pb) in hashes.iter().zip(&prepared) {
            assert_eq!(
                compare(ha, hb),
                compare_prepared(pa, pb),
                "prepared comparison diverged for {ha} vs {hb}"
            );
        }
    }
}

/// Appending a small suffix to a large input keeps the block size comparable
/// and the comparison bounded.
#[test]
fn append_small_suffix_bounded() {
    let mut g = Gen(6);
    for _ in 0..64 {
        let data = g.bytes(5_000, 30_000);
        let suffix = g.bytes(0, 64);
        let mut extended = data.clone();
        extended.extend_from_slice(&suffix);
        let ha = fuzzy_hash_bytes(&data);
        let hb = fuzzy_hash_bytes(&extended);
        let s = compare(&ha, &hb);
        assert!(s <= 100);
    }
}

/// The bounded kernel is byte-identical to the oracle DP for *every* limit:
/// random base64 signatures of lengths 0..=64 (run-eliminated signature
/// territory), exact below the limit, `AtLeast(limit + 1)` above it.
#[test]
fn bounded_distance_equals_oracle_for_every_limit() {
    use ssdeep::{weighted_edit_distance_bounded, BoundedDistance};
    let mut g = Gen(8);
    for _ in 0..96 {
        let a = g.b64_string(64);
        let b = g.b64_string(64);
        let oracle = weighted_edit_distance(&a, &b);
        for limit in 0..=(a.len() + b.len() + 1) {
            match weighted_edit_distance_bounded(&a, &b, limit) {
                BoundedDistance::Exact(d) => {
                    assert_eq!(d, oracle, "exact mismatch for {a:?} vs {b:?} at {limit}");
                    assert!(d <= limit);
                }
                BoundedDistance::AtLeast(floor) => {
                    assert_eq!(floor, limit + 1);
                    assert!(
                        oracle > limit,
                        "spurious rejection of {a:?} vs {b:?} at {limit}"
                    );
                }
            }
        }
    }
}

/// The bit-parallel Damerau distance is exact against the row DP, and is a
/// lower bound on the weighted distance (which is what licenses it as a
/// pre-DP rejection filter).
#[test]
fn bitparallel_damerau_is_exact_and_a_lower_bound() {
    use ssdeep::damerau_levenshtein_bitparallel;
    let mut g = Gen(9);
    for _ in 0..256 {
        let a = g.b64_string(64);
        let b = g.b64_string(64);
        let bp = damerau_levenshtein_bitparallel(&a, &b).expect("<=64-char strings fit one word");
        assert_eq!(bp, damerau_levenshtein(&a, &b), "{a:?} vs {b:?}");
        assert!(bp <= weighted_edit_distance(&a, &b), "{a:?} vs {b:?}");
    }
}

/// Transposition-heavy pairs: swapping adjacent characters is the case
/// where a naive one-row band cutoff would be unsound (a transposition can
/// hop a row), so hammer exactly that shape.
#[test]
fn bounded_distance_handles_transposition_heavy_pairs() {
    use ssdeep::{weighted_edit_distance_bounded, BoundedDistance};
    let mut g = Gen(10);
    for _ in 0..64 {
        let a = g.b64_string(64);
        let mut chars: Vec<char> = a.chars().collect();
        // Swap a random subset of disjoint adjacent pairs.
        let mut i = 0;
        while i + 1 < chars.len() {
            if g.range(0, 2) == 0 {
                chars.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        let b: String = chars.into_iter().collect();
        let oracle = weighted_edit_distance(&a, &b);
        for limit in [0, 1, oracle.saturating_sub(1), oracle, oracle + 1, 128] {
            match weighted_edit_distance_bounded(&a, &b, limit) {
                BoundedDistance::Exact(d) => assert_eq!(d, oracle),
                BoundedDistance::AtLeast(floor) => {
                    assert_eq!(floor, limit + 1);
                    assert!(oracle > limit);
                }
            }
        }
    }
}

/// Run-collapse edge cases: `eliminate_long_runs` borrows when nothing
/// collapses, collapses runs to three otherwise, and round-trips non-ASCII
/// input byte-correctly (the old byte-as-char loop corrupted it).
#[test]
fn eliminate_long_runs_properties() {
    use ssdeep::compare::eliminate_long_runs;
    let mut g = Gen(11);
    for _ in 0..256 {
        // Low-alphabet strings maximize run frequency.
        let len = g.range(0, 80);
        let s: String = (0..len)
            .map(|_| (b'A' + (g.next() % 3) as u8) as char)
            .collect();
        let out = eliminate_long_runs(&s);
        // No run longer than three survives…
        let bytes = out.as_bytes();
        for w in bytes.windows(4) {
            assert!(
                !(w[0] == w[1] && w[1] == w[2] && w[2] == w[3]),
                "run survived in {out:?} from {s:?}"
            );
        }
        // …the output is a subsequence of the input…
        let mut it = s.bytes();
        for b in bytes {
            assert!(it.any(|c| c == *b), "not a subsequence: {out:?} from {s:?}");
        }
        // …and borrowing happens exactly when nothing collapsed.
        match &out {
            std::borrow::Cow::Borrowed(_) => assert_eq!(out.as_ref(), s),
            std::borrow::Cow::Owned(o) => assert!(o.len() < s.len()),
        }
    }
    // Non-ASCII input survives byte-correctly (multi-byte chars cannot form
    // >3-byte runs, so nothing may be collapsed or corrupted here).
    for s in ["péché", "ÿÿÿÿ", "\u{3FFFF}\u{3FFFF}", "aàaàaà"] {
        assert_eq!(eliminate_long_runs(s), s, "non-ASCII corrupted");
    }
    // ASCII runs inside otherwise non-ASCII strings still collapse.
    assert_eq!(eliminate_long_runs("éAAAAAé"), "éAAAé");
}

/// The score-budget comparison is exact at or above its budget and never
/// overshoots below it, for every budget, on random prepared pairs.
#[test]
fn compare_prepared_min_respects_its_contract() {
    use ssdeep::compare_prepared_min;
    let mut g = Gen(12);
    let mut hashes: Vec<FuzzyHash> = Vec::new();
    for _ in 0..12 {
        let base = g.bytes(500, 20_000);
        hashes.push(fuzzy_hash_bytes(&base));
        let mut variant = base;
        let start = g.range(0, variant.len().max(2) - 1);
        for byte in variant.iter_mut().skip(start).take(200) {
            *byte ^= 0x3C;
        }
        hashes.push(fuzzy_hash_bytes(&variant));
    }
    for _ in 0..12 {
        let block_size = [3u64, 96, 3072, u64::MAX][g.range(0, 4)];
        let sig1 = g.b64_string(64);
        let sig2 = g.b64_string(32);
        hashes.push(FuzzyHash::from_parts(block_size, sig1, sig2).expect("valid parts"));
    }
    let prepared: Vec<PreparedHash> = hashes.iter().map(PreparedHash::new).collect();
    for pa in &prepared {
        for pb in &prepared {
            let exact = compare_prepared(pa, pb);
            for min_score in [0u32, 1, exact.saturating_sub(1), exact, exact + 1, 100, 101] {
                let got = compare_prepared_min(pa, pb, min_score);
                if exact >= min_score {
                    assert_eq!(got, exact, "budget {min_score} lost an exact score");
                } else {
                    assert!(got <= exact, "budget {min_score} overshot: {got} > {exact}");
                }
            }
        }
    }
}
