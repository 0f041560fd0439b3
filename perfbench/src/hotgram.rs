//! `hotgram_prehashed`: the adversarial candidate probe. Every known class
//! gains a hand-built reference whose signature, in every view, holds one
//! shared 7-byte window (`HOTGRAM`); the queries are seeded near-misses of
//! those references carrying the same window. Every query therefore surfaces
//! every hand-built reference as a candidate, so the similarity index and
//! the `fastdist` kernel do nearly all the work and extraction does none.

use crate::harness::{self, Args, Ladder, Ring, TracedRun, TRACE_PASSES};
use crate::layers;
use crate::openloop::{run_virtual, WallClock};
use crate::report::Metrics;
use crate::setup::same_prediction;
use crate::Outcome;
use fhc::backend::BackendConfig;
use fhc::serving::{Prediction, TrainedClassifier};
use fhc::{PreparedSampleFeatures, SampleFeatures};
use hpcutil::par_map_indexed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Queries per closed-loop batch, and the most the in-process server picks
/// up at once.
pub const BATCH: usize = 32;

/// In-process prehashed checks: rates and p99 limit.
pub const LADDER: Ladder = Ladder {
    rates: [120.0, 200.0, 300.0],
    limit_ms: 150.0,
};

/// The shared window.
const HOT: &str = "HOTGRAM";
/// Near-miss queries per class.
const QUERIES_PER_CLASS: usize = 4;
/// Characters of each flank around the window.
const FLANK: usize = 10;
/// Characters replaced in each flank of a near-miss.
const MUTATIONS: usize = 1;
/// Block size of every hand-built hash.
const BLOCK_SIZE: u64 = 96;
const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// A signature character differing from both neighbours, so ssdeep's run
/// elimination never rewrites a flank.
fn char_between(rng: &mut ChaCha8Rng, left: Option<u8>, right: Option<u8>) -> u8 {
    loop {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        if Some(c) != left && Some(c) != right {
            return c;
        }
    }
}

fn flank(rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(FLANK);
    for _ in 0..FLANK {
        let c = char_between(rng, out.last().copied(), None);
        out.push(c);
    }
    out
}

/// `flank` with `MUTATIONS` positions replaced.
fn near_miss(rng: &mut ChaCha8Rng, flank: &[u8]) -> Vec<u8> {
    let mut out = flank.to_vec();
    for _ in 0..MUTATIONS {
        let i = rng.gen_range(0..out.len());
        let left = i.checked_sub(1).map(|j| out[j]);
        let right = out.get(i + 1).copied();
        out[i] = char_between(rng, left, right);
    }
    out
}

/// Features whose three views are the same hand-built hash:
/// `left HOT right` primary, `right HOT left` double.
fn hot_features(left: &[u8], right: &[u8]) -> Result<SampleFeatures, String> {
    let text = |a: &[u8], b: &[u8]| {
        format!(
            "{}{HOT}{}",
            String::from_utf8_lossy(a),
            String::from_utf8_lossy(b)
        )
    };
    let hash = ssdeep::FuzzyHash::from_parts(BLOCK_SIZE, text(left, right), text(right, left))
        .map_err(|e| format!("bad hand-built hash: {e:?}"))?;
    Ok(SampleFeatures {
        file: hash.clone(),
        strings: hash.clone(),
        symbols: Some(hash),
    })
}

/// A hot reference for every class of `classifier`, installed through
/// `ReferenceSet::add_samples` and `try_set_reference`, and the near-miss
/// queries, interleaved so every batch mixes classes.
fn evolve(classifier: &mut TrainedClassifier, seed: u64) -> Result<Vec<SampleFeatures>, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x486f_7447_7261_6d21);
    let mut reference = classifier.reference().clone();
    let mut queries = Vec::new();
    for class in 0..reference.n_classes() {
        let (left, right) = (flank(&mut rng), flank(&mut rng));
        let hot = PreparedSampleFeatures::prepare(&hot_features(&left, &right)?);
        reference
            .add_samples(class, vec![hot])
            .map_err(|e| format!("add_samples failed: {e}"))?;
        for _ in 0..QUERIES_PER_CLASS {
            let (l, r) = (near_miss(&mut rng, &left), near_miss(&mut rng, &right));
            queries.push(hot_features(&l, &r)?);
        }
    }
    classifier
        .try_set_reference(Arc::new(reference))
        .map_err(|e| format!("try_set_reference failed: {e}"))?;
    Ok(interleave(queries.len(), QUERIES_PER_CLASS)
        .into_iter()
        .map(|i| queries[i].clone())
        .collect())
}

/// `0, q, 2q, …, 1, q + 1, …`: query `k` of every class before query
/// `k + 1` of any.
fn interleave(n: usize, per_class: usize) -> Vec<usize> {
    (0..per_class)
        .flat_map(|k| (k..n).step_by(per_class))
        .collect()
}

/// Compare served predictions with the oracle's, from query `first` on.
fn check(
    oracle: &Ring<Prediction>,
    first: usize,
    got: &[Prediction],
    out: &mut Outcome,
) -> Vec<bool> {
    got.iter()
        .zip(oracle.window(first, got.len()))
        .map(|(got, want)| {
            let same = same_prediction(got, want);
            out.mismatches += u64::from(!same);
            same
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    harness::zero_per_layer(&mut m);
    let (fx, queries) = harness::fixture_setup(args.seed, &mut m, |fx| {
        evolve(&mut fx.classifier, args.seed)
    })?;
    let classifier = &fx.classifier;
    let scan = classifier.clone().with_backend(BackendConfig::Scan);
    let oracle = Ring::new(scan.classify_features_batch(&queries), BATCH);
    let queries = Ring::new(queries, BATCH);
    let mut out = Outcome::default();

    // Quality under the evolved reference set, untimed: the natural
    // held-out split through the same prehashed entry point, checked
    // against the oracle like every timed answer.
    let natural: Vec<SampleFeatures> = par_map_indexed(
        fx.held_out.len(),
        classifier.serving_config().parallel(),
        |i| SampleFeatures::extract(&fx.held_out[i].1),
    );
    let natural_oracle = Ring::new(scan.classify_features_batch(&natural), 1);
    let predictions = classifier.classify_features_batch(&natural);
    out.attempted += predictions.len() as u64;
    let right = check(&natural_oracle, 0, &predictions, &mut out);
    out.failed += right.iter().filter(|&&ok| !ok).count() as u64;
    let predicted: Vec<usize> = predictions.iter().map(|p| p.eval_label).collect();
    fx.record_macro_f1(&predicted, &mut m);

    let clock = WallClock::start();
    let (closed, runs) = harness::measure(
        args,
        &LADDER,
        &mut out,
        |k| classifier.classify_features_batch(queries.window(k * BATCH, BATCH)),
        |out: &mut Outcome, k, got| {
            out.attempted += BATCH as u64;
            out.failed += check(&oracle, k * BATCH, &got, out)
                .iter()
                .filter(|&&ok| !ok)
                .count() as u64;
            BATCH
        },
        |out: &mut Outcome, rate, due| {
            Ok(run_virtual(
                &clock,
                rate,
                due,
                BATCH,
                harness::CALLERS,
                |range| {
                    classifier.classify_features_batch(queries.window(range.start, range.len()))
                },
                |range, got| check(&oracle, range.start, &got, out),
            ))
        },
        crate::host::steal_meter(),
    )?;
    closed.record(&mut m)?;
    out.add_runs(&runs);
    LADDER.record(&runs, &mut m)?;

    if args.trace {
        let traced = traced_passes(classifier, queries.base(), oracle.base())?;
        traced.record(&mut m)?;
        let prepared: Vec<PreparedSampleFeatures> = queries
            .base()
            .iter()
            .map(PreparedSampleFeatures::prepare)
            .collect();
        crate::record_candidates(classifier, &prepared, &mut m)?;
    }
    out.metrics = m;
    Ok(out)
}

/// Walk the query batch layer by layer under the serving pool, alternating
/// with untraced `classify_features_batch` passes.
fn traced_passes(
    classifier: &TrainedClassifier,
    batch: &[SampleFeatures],
    oracle: &[Prediction],
) -> Result<TracedRun, String> {
    let parallel = classifier.serving_config().parallel();
    let mut run = TracedRun {
        threads: parallel.effective_threads(batch.len()),
        ..TracedRun::default()
    };
    for _ in 0..TRACE_PASSES {
        let t = Instant::now();
        let library = classifier.classify_features_batch(batch);
        run.untraced_wall_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let walked = par_map_indexed(batch.len(), parallel, |i| {
            layers::classify_features(classifier, &batch[i])
        });
        run.traced_wall_s.push(t.elapsed().as_secs_f64());
        for (i, result) in walked.into_iter().enumerate() {
            let (prediction, trace) = result.map_err(|e| format!("traced walk failed: {e}"))?;
            if !same_prediction(&prediction, &library[i])
                || !same_prediction(&prediction, &oracle[i])
            {
                return Err(format!(
                    "traced walk of query {i} diverged from classify_features_batch"
                ));
            }
            run.trace += trace;
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_visits_every_query_once_class_by_class() {
        assert_eq!(interleave(6, 2), vec![0, 2, 4, 1, 3, 5]);
        let mut all = interleave(12, 4);
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn hand_built_hashes_keep_the_window_and_never_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (l, r) = (flank(&mut rng), flank(&mut rng));
        let f = hot_features(&near_miss(&mut rng, &l), &r).unwrap();
        let sig = f.file.signature();
        assert!(sig.contains(HOT));
        assert_eq!(sig.len(), 2 * FLANK + HOT.len());
        assert!(sig
            .as_bytes()
            .windows(3)
            .all(|w| w[0] != w[1] || w[1] != w[2]));
    }
}
