//! Printable-string extraction — the `strings(1)` equivalent.
//!
//! The paper's second fuzzy-hash feature is "the continuous printable
//! characters extracted using the strings command (embedded text)". GNU
//! `strings` prints every run of at least 4 printable characters (ASCII
//! 0x20–0x7E plus tab) found anywhere in the file. [`extract_strings`]
//! reproduces that definition and [`strings_blob`] joins the runs with
//! newlines into the byte stream that gets fuzzy-hashed.

/// Default minimum run length, matching `strings -n 4`.
pub const DEFAULT_MIN_LENGTH: usize = 4;

/// Whether `strings(1)` considers a byte printable (ASCII printable or tab).
#[inline]
pub fn is_printable(byte: u8) -> bool {
    (0x20..=0x7E).contains(&byte) || byte == b'\t'
}

/// Extract every run of at least `min_len` printable bytes from `data`,
/// in file order.
///
/// # Examples
///
/// ```
/// use binary::strings::extract_strings;
/// let data = b"\x00\x01Usage: solver <input>\x00\xffab\x00OpenMP\x00";
/// let runs = extract_strings(data, 4);
/// assert_eq!(runs, vec!["Usage: solver <input>".to_string(), "OpenMP".to_string()]);
/// ```
pub fn extract_strings(data: &[u8], min_len: usize) -> Vec<String> {
    let min_len = min_len.max(1);
    let mut out = Vec::new();
    let mut current = Vec::new();
    for &b in data {
        if is_printable(b) {
            current.push(b);
        } else {
            if current.len() >= min_len {
                out.push(String::from_utf8_lossy(&current).into_owned());
            }
            current.clear();
        }
    }
    if current.len() >= min_len {
        out.push(String::from_utf8_lossy(&current).into_owned());
    }
    out
}

/// The newline-joined byte stream of all printable runs — the input that the
/// `ssdeep-strings` feature hashes (equivalent to `strings binary | ssdeep`).
///
/// Byte-identical to joining [`extract_strings`] with newlines, without a
/// `String` per run: the scan classifies 64 bytes at a time into a
/// printability bitmask, finds where runs start and end with
/// `trailing_zeros`, and copies each run that is long enough straight into
/// the output (printable ASCII is already UTF-8).
pub fn strings_blob(data: &[u8], min_len: usize) -> Vec<u8> {
    let min_len = min_len.max(1);
    let mut out = Vec::new();
    // Start of the run in progress, if the previous byte was printable.
    let mut run_start = None;
    let mut emit = |start: usize, end: usize| {
        if end - start >= min_len {
            out.extend_from_slice(&data[start..end]);
            out.push(b'\n');
        }
    };
    for (index, block) in data.chunks(64).enumerate() {
        let base = index * 64;
        let mask = printable_mask(block);
        let mut pos = 0;
        loop {
            // Bits from `pos` on that end the current state: a
            // non-printable byte inside a run, a printable one outside.
            let rest = match run_start {
                Some(_) => !mask,
                None => mask,
            }
            .checked_shr(pos)
            .unwrap_or(0);
            if rest == 0 {
                break;
            }
            pos += rest.trailing_zeros();
            let at = base + pos as usize;
            match run_start.take() {
                Some(start) => emit(start, at),
                None => run_start = Some(at),
            }
        }
    }
    if let Some(start) = run_start {
        emit(start, data.len());
    }
    out
}

/// One bit per byte of `block` (at most 64 bytes), set where the byte is
/// [printable](is_printable). Bits past the end of a short block are clear.
fn printable_mask(block: &[u8]) -> u64 {
    let mut mask = 0;
    for (i, word) in block.chunks(8).enumerate() {
        let mut bytes = [0u8; 8];
        bytes[..word.len()].copy_from_slice(word);
        mask |= printable_bits(u64::from_le_bytes(bytes)) << (8 * i);
    }
    mask
}

/// SWAR form of [`is_printable`] over the eight bytes of `word`, packed into
/// the low eight bits (bit `i` for byte `i`). Zero bytes are not printable,
/// so padding a short word with zeros leaves its high bits clear.
#[inline]
fn printable_bits(word: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const fn splat(byte: u8) -> u64 {
        0x0101_0101_0101_0101 * byte as u64
    }
    // High bit of each byte set where that byte of `x` is non-zero; no
    // carry crosses a byte because `(x & LOW7) + LOW7 <= 0xFE`.
    let nonzero = |x: u64| (((x & LOW7) + LOW7) | x) & HIGH;
    let ascii = !word & HIGH;
    let low = word & LOW7;
    // `0x80 | b` minus `0x20` cannot borrow, and keeps the high bit exactly
    // when `b >= 0x20`.
    let at_least_space = ((low | HIGH) - splat(0x20)) & HIGH;
    let not_del = nonzero(low ^ splat(0x7F));
    let tab = !nonzero(low ^ splat(b'\t')) & HIGH;
    let flags = ascii & ((at_least_space & not_del) | tab);
    // Gather the eight high bits into one byte (bit `i` from byte `i`).
    ((flags >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printable_definition() {
        assert!(is_printable(b' '));
        assert!(is_printable(b'~'));
        assert!(is_printable(b'\t'));
        assert!(!is_printable(b'\n'));
        assert!(!is_printable(0x00));
        assert!(!is_printable(0x7F));
        assert!(!is_printable(0xFF));
    }

    #[test]
    fn short_runs_are_dropped() {
        let runs = extract_strings(b"ab\0abc\0abcd\0", 4);
        assert_eq!(runs, vec!["abcd".to_string()]);
    }

    #[test]
    fn custom_min_length() {
        let runs = extract_strings(b"ab\0abc\0abcd\0", 3);
        assert_eq!(runs, vec!["abc".to_string(), "abcd".to_string()]);
    }

    #[test]
    fn min_length_zero_treated_as_one() {
        let runs = extract_strings(b"a\0b", 0);
        assert_eq!(runs, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn run_at_end_of_data_is_kept() {
        let runs = extract_strings(b"\0\0final_run", 4);
        assert_eq!(runs, vec!["final_run".to_string()]);
    }

    #[test]
    fn empty_and_binary_only_input() {
        assert!(extract_strings(b"", 4).is_empty());
        assert!(extract_strings(&[0u8, 1, 2, 3, 255, 254], 4).is_empty());
    }

    #[test]
    fn blob_joins_with_newlines() {
        let blob = strings_blob(b"\0hello\0world of hpc\0", 4);
        assert_eq!(blob, b"hello\nworld of hpc\n");
    }

    #[test]
    fn blob_of_stringless_input_is_empty() {
        assert!(strings_blob(&[0u8; 64], 4).is_empty());
    }

    #[test]
    fn printable_bits_match_is_printable_for_every_byte() {
        for byte in 0..=255u8 {
            for lane in 0..8 {
                let word = u64::from(byte) << (8 * lane);
                let expected = u64::from(is_printable(byte)) << lane;
                assert_eq!(printable_bits(word), expected, "byte {byte:#x} lane {lane}");
            }
        }
        assert_eq!(
            printable_bits(u64::from_le_bytes(*b"ab\tc\x7f\x80 ~")),
            0b1100_1111
        );
    }

    #[test]
    fn order_is_preserved() {
        let runs = extract_strings(b"zzzz\0aaaa\0mmmm", 4);
        assert_eq!(runs, vec!["zzzz", "aaaa", "mmmm"]);
    }
}
