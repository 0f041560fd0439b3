//! Feature-extraction oracle: `SampleFeatures::extract` must produce the
//! same three fuzzy hashes as the extraction did before the one-walk CTPH
//! chunker and the bitmask strings scan — byte-identical, on every sample
//! of a paper-shaped corpus. The oracle composes the features from the
//! pre-rewrite chunker (shared with the ssdeep property tests) and the
//! pre-rewrite `strings_blob`, which joined `extract_strings` runs.

#[path = "../../ssdeep/tests/ctph_oracle/mod.rs"]
mod ctph_oracle;

use binary::elf::ElfFile;
use binary::strings::extract_strings;
use binary::symbols::symbols_blob;
use corpus::{Catalog, CorpusBuilder};
use fhc::features::{SampleFeatures, STRINGS_MIN_LENGTH};
use hpcutil::{par_map_indexed, ParallelConfig};

/// `binary::strings::strings_blob` as it was: one `String` per run.
fn strings_blob(data: &[u8], min_len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for s in extract_strings(data, min_len) {
        out.extend_from_slice(s.as_bytes());
        out.push(b'\n');
    }
    out
}

/// `SampleFeatures::extract` with every hash from the oracle chunker.
fn oracle_features(bytes: &[u8]) -> SampleFeatures {
    let file = ctph_oracle::fuzzy_hash_bytes(bytes);
    let strings = ctph_oracle::fuzzy_hash_bytes(&strings_blob(bytes, STRINGS_MIN_LENGTH));
    let symbols = match ElfFile::parse(bytes) {
        Ok(elf) => {
            let blob = symbols_blob(&elf);
            if blob.is_empty() {
                None
            } else {
                Some(ctph_oracle::fuzzy_hash_bytes(&blob))
            }
        }
        Err(_) => None,
    };
    SampleFeatures {
        file,
        strings,
        symbols,
    }
}

#[test]
fn extract_equals_oracle_on_every_corpus_sample() {
    let corpus = CorpusBuilder::new(5).build(&Catalog::paper().scaled(0.05));
    let samples = corpus.samples();
    assert!(samples.len() > 300, "corpus too small: {}", samples.len());
    let mismatches: Vec<String> = par_map_indexed(
        samples.len(),
        ParallelConfig {
            threads: 2,
            chunk: 8,
        },
        |i| {
            let bytes = corpus.generate_bytes(&samples[i]);
            let extracted = SampleFeatures::extract(&bytes);
            (extracted != oracle_features(&bytes)).then(|| samples[i].install_path())
        },
    )
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "features differ for {mismatches:?}");
}

/// A section-header offset near `u64::MAX` is rejected by the ELF parser,
/// and extraction still hashes the file and strings views (byte-identical
/// to the oracle) with no symbols view.
#[test]
fn extract_survives_section_header_offset_near_u64_max() {
    let corpus = CorpusBuilder::new(5).build(&Catalog::paper().scaled(0.01));
    let mut bytes = corpus.generate_bytes(&corpus.samples()[0]);
    assert!(ElfFile::parse(&bytes).is_ok());
    for shoff in [u64::MAX - 63, u64::MAX] {
        bytes[40..48].copy_from_slice(&shoff.to_le_bytes());
        assert!(ElfFile::parse(&bytes).is_err(), "e_shoff {shoff:#x}");
        let features = SampleFeatures::extract(&bytes);
        assert_eq!(features.symbols, None);
        assert_eq!(features, oracle_features(&bytes));
    }
}
