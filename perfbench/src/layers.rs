//! The traced walk: one classification composed from each layer's public
//! function, in `SampleFeatures::extract` order, with every call timed from
//! outside. The composed [`Prediction`] must equal the library's own, so the
//! walk measures the real path rather than a lookalike.

use binary::elf::ElfFile;
use binary::strings::strings_blob;
use binary::symbols::symbols_blob;
use fhc::backend::SimilarityBackend;
use fhc::features::STRINGS_MIN_LENGTH;
use fhc::serving::{Prediction, TrainedClassifier};
use fhc::threshold::{apply_threshold, UNKNOWN_LABEL};
use fhc::{FhcError, PreparedSampleFeatures, SampleFeatures};
use mlcore::model::Model;
use ssdeep::blocksize::initial_blocksize;
use ssdeep::{fuzzy_hash_bytes, FuzzyHash};
use std::ops::AddAssign;
use std::time::Instant;

/// Busy seconds and counters of one traced walk (one sample, or a sum).
#[derive(Debug, Clone, Copy, Default)]
pub struct Trace {
    /// `ElfFile::parse`.
    pub elf_s: f64,
    /// `symbols_blob`.
    pub symbols_s: f64,
    /// `strings_blob`.
    pub strings_s: f64,
    /// CTPH of the raw file.
    pub ctph_file_s: f64,
    /// CTPH of the strings blob.
    pub ctph_strings_s: f64,
    /// CTPH of the symbols blob.
    pub ctph_symbols_s: f64,
    /// `PreparedSampleFeatures::prepare`.
    pub prepare_s: f64,
    /// The backend's similarity row.
    pub rows_s: f64,
    /// Forest vote plus threshold.
    pub forest_s: f64,
    /// Request frame encoding (the gateway path).
    pub wire_s: f64,
    /// Queries walked.
    pub queries: u64,
    /// Executable bytes walked.
    pub input_bytes: u64,
    /// Bytes of `strings_blob` output.
    pub strings_blob_bytes: u64,
    /// Inputs that did not parse as ELF.
    pub elf_failures: u64,
    /// Bytes fed to CTPH over all three views.
    pub ctph_bytes: u64,
    /// CTPH calls.
    pub ctph_calls: u64,
    /// Chunking passes over all CTPH calls.
    pub ctph_passes: u64,
}

impl AddAssign for Trace {
    fn add_assign(&mut self, o: Self) {
        self.elf_s += o.elf_s;
        self.symbols_s += o.symbols_s;
        self.strings_s += o.strings_s;
        self.ctph_file_s += o.ctph_file_s;
        self.ctph_strings_s += o.ctph_strings_s;
        self.ctph_symbols_s += o.ctph_symbols_s;
        self.prepare_s += o.prepare_s;
        self.rows_s += o.rows_s;
        self.forest_s += o.forest_s;
        self.wire_s += o.wire_s;
        self.queries += o.queries;
        self.input_bytes += o.input_bytes;
        self.strings_blob_bytes += o.strings_blob_bytes;
        self.elf_failures += o.elf_failures;
        self.ctph_bytes += o.ctph_bytes;
        self.ctph_calls += o.ctph_calls;
        self.ctph_passes += o.ctph_passes;
    }
}

impl Trace {
    /// Sum of every layer's busy seconds.
    pub fn busy_s(&self) -> f64 {
        self.elf_s
            + self.symbols_s
            + self.strings_s
            + self.ctph_s()
            + self.prepare_s
            + self.rows_s
            + self.forest_s
            + self.wire_s
    }

    /// Busy seconds of the three CTPH views.
    pub fn ctph_s(&self) -> f64 {
        self.ctph_file_s + self.ctph_strings_s + self.ctph_symbols_s
    }

    fn ctph(&mut self, data: &[u8]) -> (FuzzyHash, f64) {
        let t = Instant::now();
        let hash = fuzzy_hash_bytes(data);
        let s = t.elapsed().as_secs_f64();
        self.ctph_bytes += data.len() as u64;
        self.ctph_calls += 1;
        self.ctph_passes += passes_per_input(data.len(), hash.block_size());
        (hash, s)
    }
}

/// Chunking passes `fuzzy_hash_bytes` made over an input of `len` bytes
/// that ended at `final_block_size`: it starts at
/// `initial_blocksize(len)` and halves once per extra pass.
pub fn passes_per_input(len: usize, final_block_size: u64) -> u64 {
    let initial = initial_blocksize(len);
    debug_assert!(initial >= final_block_size && (initial / final_block_size).is_power_of_two());
    u64::from((initial / final_block_size).trailing_zeros()) + 1
}

/// Classify raw bytes layer by layer.
pub fn classify_bytes(
    classifier: &TrainedClassifier,
    bytes: &[u8],
) -> Result<(Prediction, Trace), FhcError> {
    let mut trace = Trace {
        input_bytes: bytes.len() as u64,
        ..Trace::default()
    };
    let (file, s) = trace.ctph(bytes);
    trace.ctph_file_s = s;

    let t = Instant::now();
    let blob = strings_blob(bytes, STRINGS_MIN_LENGTH);
    trace.strings_s = t.elapsed().as_secs_f64();
    trace.strings_blob_bytes = blob.len() as u64;
    let (strings, s) = trace.ctph(&blob);
    trace.ctph_strings_s = s;

    let t = Instant::now();
    let elf = ElfFile::parse(bytes);
    trace.elf_s = t.elapsed().as_secs_f64();
    let symbols = match elf {
        Ok(elf) => {
            let t = Instant::now();
            let blob = symbols_blob(&elf);
            trace.symbols_s = t.elapsed().as_secs_f64();
            if blob.is_empty() {
                None
            } else {
                let (hash, s) = trace.ctph(&blob);
                trace.ctph_symbols_s = s;
                Some(hash)
            }
        }
        Err(_) => {
            trace.elf_failures = 1;
            None
        }
    };
    let features = SampleFeatures {
        file,
        strings,
        symbols,
    };
    let (prediction, tail) = classify_features(classifier, &features)?;
    trace += tail;
    Ok((prediction, trace))
}

/// Classify extracted features: prepare, similarity row, forest vote.
pub fn classify_features(
    classifier: &TrainedClassifier,
    features: &SampleFeatures,
) -> Result<(Prediction, Trace), FhcError> {
    let mut trace = Trace::default();
    let t = Instant::now();
    let prepared = PreparedSampleFeatures::prepare(features);
    trace.prepare_s = t.elapsed().as_secs_f64();
    let (prediction, tail) = classify_prepared(classifier, &prepared)?;
    trace += tail;
    Ok((prediction, trace))
}

/// Classify a prepared query: similarity row, forest vote.
pub fn classify_prepared(
    classifier: &TrainedClassifier,
    prepared: &PreparedSampleFeatures,
) -> Result<(Prediction, Trace), FhcError> {
    let mut trace = Trace {
        queries: 1,
        ..Trace::default()
    };
    let t = Instant::now();
    let row = classifier.backend().try_feature_vector_prepared(prepared)?;
    trace.rows_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let prediction = vote(classifier, &row);
    trace.forest_s = t.elapsed().as_secs_f64();
    Ok((prediction, trace))
}

/// The forest vote and confidence threshold over one similarity row,
/// composed exactly as the serving path composes a [`Prediction`].
pub fn vote(classifier: &TrainedClassifier, row: &[f64]) -> Prediction {
    let proba = Model::predict_proba(classifier.forest(), row);
    let eval_label = apply_threshold(&proba, classifier.confidence_threshold());
    let confidence = proba.iter().cloned().fold(0.0f64, f64::max);
    let label = if eval_label == UNKNOWN_LABEL {
        "-1".to_string()
    } else {
        classifier.known_class_names()[eval_label - 1].clone()
    };
    Prediction {
        label,
        eval_label,
        confidence,
        proba,
    }
}

/// Candidate surfacing of a prepared query batch, counted without timing:
/// mean candidates per query in each active view, from the reference
/// set's candidate cache projected onto itself.
pub fn candidates_per_query(
    classifier: &TrainedClassifier,
    queries: &[PreparedSampleFeatures],
) -> Vec<f64> {
    let reference = classifier.reference();
    let cache = reference.candidate_cache(queries, classifier.serving_config().parallel());
    let mut totals = vec![0usize; reference.kinds().len()];
    for q in 0..queries.len() {
        let lists = reference.project_candidates(&cache, q, reference, |c, s| Some((c, s)));
        for (total, list) in totals.iter_mut().zip(lists) {
            *total += list.len();
        }
    }
    let n = queries.len().max(1) as f64;
    totals.into_iter().map(|t| t as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use ssdeep::blocksize::MIN_BLOCKSIZE;
    use ssdeep::rolling_hash::RollingHash;
    use ssdeep::SPAM_SUM_LENGTH;

    /// An independent replay of the halving loop in `ssdeep::generate`:
    /// count the primary signature's length at each block size from the
    /// initial estimate down, and stop where the generator stops.
    fn replay_halving(data: &[u8]) -> (u64, u64) {
        let sig1_len = |bs: u64| {
            let mut roll = RollingHash::new();
            let mut len = 0;
            for &byte in data {
                let r = u64::from(roll.update(byte));
                if r % bs == bs - 1 && len < SPAM_SUM_LENGTH - 1 {
                    len += 1;
                }
            }
            if roll.value() != 0 || data.is_empty() {
                len += 1;
            }
            len
        };
        let mut bs = initial_blocksize(data.len());
        let mut passes = 1;
        while sig1_len(bs) < SPAM_SUM_LENGTH / 2 && bs > MIN_BLOCKSIZE {
            bs /= 2;
            passes += 1;
        }
        (passes, bs)
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut out = vec![0u8; len];
        ChaCha8Rng::seed_from_u64(seed).fill_bytes(&mut out);
        out
    }

    #[test]
    fn passes_per_input_matches_the_generator_halving_loop() {
        let inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"short".to_vec(),
            vec![0u8; 100_000],
            pseudo_random(4_000, 1),
            pseudo_random(100_000, 2),
            pseudo_random(300_000, 3),
            b"abcdefgh".repeat(20_000),
        ];
        let mut saw_multi_pass = false;
        for data in &inputs {
            let hash = fuzzy_hash_bytes(data);
            let (passes, bs) = replay_halving(data);
            assert_eq!(hash.block_size(), bs, "len {}", data.len());
            assert_eq!(passes_per_input(data.len(), hash.block_size()), passes);
            saw_multi_pass |= passes > 1;
        }
        assert!(saw_multi_pass, "the inputs must exercise the halving loop");
        // All-zero input never triggers a boundary: halve down to the floor
        // from 3072 (the first 3 * 2^k with 64 * bs >= 100000): 11 passes.
        assert_eq!(passes_per_input(100_000, MIN_BLOCKSIZE), 11);
        assert_eq!(passes_per_input(0, MIN_BLOCKSIZE), 1);
    }

    #[test]
    fn traces_add_up() {
        let mut a = Trace {
            rows_s: 1.0,
            ctph_file_s: 2.0,
            queries: 1,
            ..Trace::default()
        };
        a += Trace {
            forest_s: 0.5,
            ctph_symbols_s: 0.25,
            queries: 2,
            ..Trace::default()
        };
        assert_eq!(a.busy_s(), 3.75);
        assert_eq!(a.ctph_s(), 2.25);
        assert_eq!(a.queries, 3);
    }
}
