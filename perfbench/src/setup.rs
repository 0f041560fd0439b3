//! Set-up shared by every workload: a seeded corpus, a classifier fitted
//! with the library-default [`PipelineConfig`], and an artifact round trip
//! so the benchmark serves the *reloaded* classifier, as a deployment
//! would. The held-out split — known-class test samples plus every sample
//! of the unknown classes — is what the workloads query.

use crate::report::Metrics;
use corpus::{Catalog, Corpus, CorpusBuilder};
use fhc::serving::{Prediction, TrainedClassifier};
use fhc::split::TwoPhaseSplit;
use fhc::threshold::{known_to_eval, UNKNOWN_LABEL};
use fhc::{FhcConfig, FuzzyHashClassifier, PipelineConfig};
use mlcore::report::ClassificationReport;
use std::time::Instant;

/// Scale of the paper's 92-class catalog the corpus is generated at.
pub const CORPUS_SCALE: f64 = 0.05;

/// Wall-clock split of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Corpus layout plus the held-out split's executable bytes.
    pub corpus_s: f64,
    /// Feature extraction over the corpus plus `fit_with_features`.
    pub fit_s: f64,
    /// Artifact `to_bytes` then `from_bytes`.
    pub load_s: f64,
}

/// Everything a workload starts from.
pub struct Fixture {
    /// The reloaded classifier (indexed backend, default serving pool).
    pub classifier: TrainedClassifier,
    /// Held-out executables as `(install path, bytes)`.
    pub held_out: Vec<(String, Vec<u8>)>,
    /// Evaluation-space truth of each held-out sample (`0` = unknown).
    pub truth: Vec<usize>,
    /// Where the set-up time went.
    pub times: SetupTimes,
    /// Macro F1 of the run's earlier set-ups (other corpora), which
    /// `macro_f1` averages with this one's.
    pub earlier_f1: Vec<f64>,
}

impl Fixture {
    /// Generate the corpus for `seed`, fit, and reload through the artifact
    /// codec.
    pub fn build(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let corpus = CorpusBuilder::new(seed).build(&Catalog::paper().scaled(CORPUS_SCALE));
        let mut times = SetupTimes {
            corpus_s: t.elapsed().as_secs_f64(),
            ..SetupTimes::default()
        };

        let t = Instant::now();
        let pipeline = FuzzyHashClassifier::with_config(FhcConfig::from(PipelineConfig::default()));
        let features = pipeline.extract_features(&corpus);
        let fit = pipeline
            .fit_with_features(&corpus, &features)
            .map_err(|e| format!("fit failed: {e}"))?;
        times.fit_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let classifier = TrainedClassifier::from_bytes(&fit.classifier.to_bytes())
            .map_err(|e| format!("artifact reload failed: {e}"))?;
        times.load_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let held_out: Vec<(String, Vec<u8>)> = fit
            .split
            .test
            .iter()
            .map(|&i| {
                let spec = &corpus.samples()[i];
                (spec.install_path(), corpus.generate_bytes(spec))
            })
            .collect();
        times.corpus_s += t.elapsed().as_secs_f64();
        let bytes: usize = held_out
            .iter()
            .map(|(_, b): &(String, Vec<u8>)| b.len())
            .sum();
        eprintln!(
            "perfbench: corpus seed {seed}: {} samples, held-out {} samples, {:.2} MB; {} hardware threads",
            corpus.n_samples(),
            held_out.len(),
            bytes as f64 / 1e6,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );

        Ok(Self {
            classifier,
            held_out,
            truth: held_out_truth(&corpus, &fit.split),
            times,
            earlier_f1: Vec::new(),
        })
    }

    /// Record `macro_f1`: the mean over the run's set-ups of the macro F1
    /// of each one's held-out split, this one's from `predicted` (the
    /// workload's own answers, checked against the oracle). One corpus
    /// holds one to three test samples per class, so a single split's F1
    /// swings with the seed; the mean over independent corpora is the
    /// paper's headline number at a steadier reading.
    pub fn record_macro_f1(&self, predicted: &[usize], m: &mut Metrics) {
        let mut f1 = self.earlier_f1.clone();
        f1.push(self.macro_f1(&self.truth, predicted));
        eprintln!("perfbench: macro F1 per set-up {f1:.4?}");
        m.set("macro_f1", f1.iter().sum::<f64>() / f1.len() as f64);
    }

    /// Macro F1 of the library's own predictions on the held-out split.
    pub fn library_macro_f1(&self) -> Result<f64, String> {
        let predicted: Vec<usize> = self
            .classifier
            .try_classify_batch(&self.held_out)
            .map_err(|e| format!("held-out classification failed: {e}"))?
            .into_iter()
            .map(|(_, p)| p.eval_label)
            .collect();
        Ok(self.macro_f1(&self.truth, &predicted))
    }

    /// Macro-averaged F1 of evaluation-space predictions against truth,
    /// over the unknown label plus every known class.
    pub fn macro_f1(&self, truth: &[usize], predicted: &[usize]) -> f64 {
        let mut names = vec!["-1".to_string()];
        names.extend(self.classifier.known_class_names().iter().cloned());
        ClassificationReport::compute(truth, predicted, &names)
            .macro_avg()
            .f1
    }
}

fn held_out_truth(corpus: &Corpus, split: &TwoPhaseSplit) -> Vec<usize> {
    let mut known_id = vec![None; corpus.n_classes()];
    for (id, &class) in split.known_classes.iter().enumerate() {
        known_id[class] = Some(id);
    }
    split
        .test
        .iter()
        .map(|&i| match known_id[corpus.samples()[i].class_index] {
            Some(id) => known_to_eval(id),
            None => UNKNOWN_LABEL,
        })
        .collect()
}

/// Whether two predictions are bit-identical: label, evaluation label, and
/// the bit patterns of the confidence and of every probability.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    a.label == b.label
        && a.eval_label == b.eval_label
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.proba.len() == b.proba.len()
        && a.proba
            .iter()
            .zip(&b.proba)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two similarity rows are bit-identical.
pub fn same_row(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
