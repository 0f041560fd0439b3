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
/// printability bitmask and copies each run that is long enough straight
/// into the output (printable ASCII is already UTF-8).
///
/// In machine code, printable and non-printable bytes alternate every few
/// bytes, so stepping from one run edge to the next would cost a loop
/// iteration per short run. Instead a shift-AND over the mask (with the
/// previous block's mask carried in) marks every byte that ends
/// `min(min_len, 4)` printable bytes in a row, and the scan visits only
/// runs holding such a mark — the only runs that can reach `min_len`. A
/// marked run starts just past the last non-printable byte before its
/// mark, which the scan tracks across blocks, and ends at the next one.
pub fn strings_blob(data: &[u8], min_len: usize) -> Vec<u8> {
    let min_len = min_len.max(1);
    let window = min_len.min(4);
    let mut out = Vec::new();
    // Index just past the last non-printable byte of the blocks before.
    let mut run_from = 0;
    // Start of a marked run that has not ended yet.
    let mut open = None;
    let mut prev_mask = 0;
    let mut emit = |start: usize, end: usize| {
        if end - start >= min_len {
            out.extend_from_slice(&data[start..end]);
            out.push(b'\n');
        }
    };
    for (index, block) in data.chunks(64).enumerate() {
        let base = index * 64;
        let mask = printable_mask(block);
        // Bytes that end a run; past the end of a short last block every
        // bit is set, so a run reaching the end of `data` ends there.
        let stops = !mask;
        let marks = run_ends(mask, prev_mask, window);
        let mut pos = 0;
        loop {
            let start = match open.take() {
                Some(start) => start,
                None => {
                    let rest = marks.checked_shr(pos).unwrap_or(0);
                    if rest == 0 {
                        break;
                    }
                    pos += rest.trailing_zeros();
                    match stops & !(u64::MAX << pos) {
                        0 => run_from,
                        below => base + 64 - below.leading_zeros() as usize,
                    }
                }
            };
            let rest = stops.checked_shr(pos).unwrap_or(0);
            if rest == 0 {
                open = Some(start);
                break;
            }
            pos += rest.trailing_zeros();
            emit(start, base + pos as usize);
            pos += 1;
        }
        if stops != 0 {
            run_from = base + 64 - stops.leading_zeros() as usize;
        }
        prev_mask = mask;
    }
    if let Some(start) = open {
        emit(start, data.len());
    }
    out
}

/// The bits of `mask` that end `window` (1 to 4) set bits in a row,
/// counting the top bits of `prev`, the mask of the block before, as lying
/// just below bit 0.
#[inline]
fn run_ends(mask: u64, prev: u64, window: usize) -> u64 {
    let mut ends = mask;
    for shift in 1..window {
        ends &= (mask << shift) | (prev >> (64 - shift));
    }
    ends
}

/// One bit per byte of `block` (at most 64 bytes), set where the byte is
/// [printable](is_printable). Bits past the end of a short block are clear.
fn printable_mask(block: &[u8]) -> u64 {
    let mut mask = 0;
    let mut words = block.chunks_exact(8);
    let mut shift = 0;
    for word in &mut words {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(word);
        mask |= printable_bits(u64::from_le_bytes(bytes)) << shift;
        shift += 8;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut bytes = [0u8; 8];
        bytes[..tail.len()].copy_from_slice(tail);
        mask |= printable_bits(u64::from_le_bytes(bytes)) << shift;
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
    fn run_ends_marks_windows_across_the_block_edge() {
        let mask = 0b1110_0111u64;
        assert_eq!(run_ends(mask, 0, 1), mask);
        assert_eq!(run_ends(mask, 0, 2), 0b1100_0110);
        assert_eq!(run_ends(mask, 0, 3), 0b1000_0100);
        assert_eq!(run_ends(mask, 0, 4), 0);
        // Three printable bytes at the end of the previous block complete
        // a window of four at bit 0 and extend the run through bit 2.
        assert_eq!(run_ends(mask, 0b111 << 61, 4), 0b111);
        assert_eq!(run_ends(mask, 0b11 << 62, 4), 0b110);
    }

    #[test]
    fn order_is_preserved() {
        let runs = extract_strings(b"zzzz\0aaaa\0mmmm", 4);
        assert_eq!(runs, vec!["zzzz", "aaaa", "mmmm"]);
    }
}
