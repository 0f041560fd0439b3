//! Randomized (but fully deterministic) property tests for the ELF
//! build/parse round trip and the strings/symbols extractors. The build
//! environment has no crates.io access, so instead of `proptest` these tests
//! drive the same properties with a seeded SplitMix64 generator over a fixed
//! number of cases.

use binary::elf::{ElfBuilder, ElfFile};
use binary::strings::{extract_strings, is_printable, strings_blob};
use binary::symbols::{global_defined_symbols, symbols_blob};
use std::collections::HashSet;

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

    fn bytes(&mut self, low: usize, high: usize) -> Vec<u8> {
        let len = self.range(low, high);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// A plausible C-style identifier: `[a-zA-Z_][a-zA-Z0-9_]{0,30}`.
    fn identifier(&mut self) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
        let mut name = String::new();
        name.push(FIRST[self.range(0, FIRST.len())] as char);
        for _ in 0..self.range(0, 31) {
            name.push(REST[self.range(0, REST.len())] as char);
        }
        name
    }

    /// A set of `low..high` distinct identifiers.
    fn identifiers(&mut self, low: usize, high: usize) -> HashSet<String> {
        let target = self.range(low, high);
        let mut names = HashSet::new();
        while names.len() < target {
            names.insert(self.identifier());
        }
        names
    }
}

/// Whatever the builder produces, the parser accepts, and section contents
/// survive the round trip byte-for-byte.
#[test]
fn build_parse_roundtrip() {
    let mut g = Gen(10);
    for _ in 0..48 {
        let text = g.bytes(0, 4096);
        let rodata = g.bytes(0, 2048);
        let data = g.bytes(0, 512);
        let mut b = ElfBuilder::new();
        b.add_text_section(text.clone());
        b.add_rodata_section(rodata.clone());
        b.add_data_section(data.clone());
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).expect("built ELF must parse");
        assert_eq!(&elf.section_by_name(".text").unwrap().data, &text);
        assert_eq!(&elf.section_by_name(".rodata").unwrap().data, &rodata);
        assert_eq!(&elf.section_by_name(".data").unwrap().data, &data);
    }
}

/// Every global function added to the builder appears exactly once in the
/// nm-style global symbol list, and the list is sorted.
#[test]
fn symbols_survive_roundtrip() {
    let mut g = Gen(11);
    for _ in 0..48 {
        let names = g.identifiers(1, 40);
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 4096]);
        for (i, name) in names.iter().enumerate() {
            b.add_global_function(name, (i * 16) as u64, 16);
        }
        let elf = ElfFile::parse(&b.build()).unwrap();
        let syms = global_defined_symbols(&elf);
        assert_eq!(syms.len(), names.len());
        let listed: Vec<&str> = syms.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(&listed, &sorted);
        for name in &names {
            assert!(listed.contains(&name.as_str()));
        }
    }
}

/// The symbols blob is newline-joined and contains every name.
#[test]
fn symbols_blob_contains_all_names() {
    let mut g = Gen(12);
    for _ in 0..48 {
        let names = g.identifiers(0, 20);
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 1024]);
        for (i, name) in names.iter().enumerate() {
            b.add_global_function(name, (i * 8) as u64, 8);
        }
        let elf = ElfFile::parse(&b.build()).unwrap();
        let blob = String::from_utf8(symbols_blob(&elf)).unwrap();
        for name in &names {
            assert!(blob.lines().any(|l| l == name));
        }
        assert_eq!(blob.lines().count(), names.len());
    }
}

/// Every extracted string is printable, at least min_len long, and actually
/// present in the input.
#[test]
fn extracted_strings_are_printable_substrings() {
    let mut g = Gen(13);
    for _ in 0..48 {
        let data = g.bytes(0, 4096);
        let min_len = g.range(1, 8);
        let runs = extract_strings(&data, min_len);
        for run in &runs {
            assert!(run.len() >= min_len);
            assert!(run.bytes().all(is_printable));
            let needle = run.as_bytes();
            assert!(data.windows(needle.len()).any(|w| w == needle));
        }
    }
}

/// The strings blob decomposes back into exactly the extracted runs: the
/// bitmask scan in `strings_blob` is byte-identical to joining
/// `extract_strings` with newlines, for every minimum length the scan
/// treats differently (0 acts as 1; up to 4 the long-run marks alone decide
/// a run, above 4 they only prefilter; 64 is a whole mask block and 65 and
/// 200 need several). Inputs mix
/// uniform random bytes, 7-bit bytes (about three quarters printable),
/// printable text with sparse NULs (runs that span several 64-byte mask
/// blocks) and the bytes at the edges of the printable range, at lengths
/// around every block multiple; then runs placed across every block edge.
#[test]
fn blob_matches_runs() {
    let mut g = Gen(16);
    let check = |data: &[u8], what: &str| {
        for min_len in [0, 1, 2, 3, 4, 5, 8, 64, 65, 200] {
            let joined: Vec<u8> = extract_strings(data, min_len)
                .iter()
                .flat_map(|run| run.bytes().chain([b'\n']))
                .collect();
            assert_eq!(
                strings_blob(data, min_len),
                joined,
                "{what}, len {}, min_len {min_len}",
                data.len()
            );
        }
    };
    for case in 0..192 {
        let len = match case % 3 {
            0 => g.range(0, 1_000),
            _ => (64 * g.range(0, 12) + g.range(0, 3)).saturating_sub(1),
        };
        let data: Vec<u8> = (0..len)
            .map(|_| {
                let x = g.next();
                match case % 4 {
                    0 => x as u8,
                    1 => (x & 0x7F) as u8,
                    2 if x.is_multiple_of(97) => 0,
                    2 => b' ' + (x % 95) as u8,
                    _ => [b'\t', b'\n', 0x7E, 0x7F, 0x1F, 0x20, 0x80, b'a'][(x % 8) as usize],
                }
            })
            .collect();
        check(&data, &format!("case {case}"));
    }
    // Runs straddling every block edge with one to three printable bytes
    // before it, where a run's first mark depends on the previous block's
    // mask and its start lies in the block before the mark. The background
    // is non-printable, so every run is one placed here.
    for case in 0..96 {
        let blocks = g.range(2, 9);
        let mut data: Vec<u8> = (0..64 * blocks + g.range(0, 64))
            .map(|_| [0, 0x7F, 0x80, 0xFF, b'\n'][g.range(0, 5)])
            .collect();
        let before = 1 + case % 3;
        let mut edge = 64;
        while edge < data.len() {
            let start = edge - before;
            let run = match case % 4 {
                0 => g.range(before, before + 4),
                1 => g.range(before, before + 12),
                2 => g.range(60, 260),
                _ => g.range(before, 80),
            };
            let end = (start + run).min(data.len());
            for byte in &mut data[start..end] {
                *byte = b' ' + (g.next() % 95) as u8;
            }
            // The next run starts at least two background bytes later.
            edge = (edge + 64).max(end + 2 + before).next_multiple_of(64);
        }
        check(&data, &format!("straddling case {case}"));
    }
}

/// The symbols blob is the `global_defined_symbols` names joined with
/// newlines, byte for byte, with local and undefined symbols mixed in.
#[test]
fn symbols_blob_equals_global_defined_join() {
    let mut g = Gen(18);
    for _ in 0..48 {
        let names: Vec<String> = g.identifiers(0, 40).into_iter().collect();
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 1024]);
        b.add_data_section(vec![0; 256]);
        for (i, name) in names.iter().enumerate() {
            match g.range(0, 4) {
                0 => b.add_global_function(name, (i * 8) as u64 % 1024, 8),
                1 => b.add_global_object(name, (i * 4) as u64 % 256, 4),
                2 => b.add_local_function(name, (i * 8) as u64 % 1024, 8),
                _ => b.add_undefined_symbol(name),
            };
        }
        let elf = ElfFile::parse(&b.build()).unwrap();
        let expected: Vec<u8> = global_defined_symbols(&elf)
            .iter()
            .flat_map(|s| s.name.bytes().chain([b'\n']))
            .collect();
        assert_eq!(symbols_blob(&elf), expected);
    }
}

/// Parsing arbitrary bytes never panics: it returns Ok or a clean error.
#[test]
fn parser_never_panics() {
    let mut g = Gen(15);
    for _ in 0..48 {
        let data = g.bytes(0, 2048);
        let _ = ElfFile::parse(&data);
    }
    // A few adversarial prefixes of a valid ELF.
    let mut b = ElfBuilder::new();
    b.add_text_section(vec![0x90; 256]);
    let valid = b.build();
    for len in [0, 1, 4, 16, 52, 64, valid.len() / 2, valid.len() - 1] {
        let _ = ElfFile::parse(&valid[..len]);
    }
}
