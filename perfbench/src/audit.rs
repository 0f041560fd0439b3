//! `audit_bytes`: an offline audit classifying the held-out split from raw
//! executable bytes through `TrainedClassifier::try_classify_batch`.

use crate::harness::{self, Args, Ladder, Ring, TracedRun, TRACE_PASSES};
use crate::layers;
use crate::openloop::{run_virtual, WallClock};
use crate::report::Metrics;
use crate::setup::same_prediction;
use crate::Outcome;
use fhc::backend::BackendConfig;
use fhc::serving::{Prediction, TrainedClassifier};
use fhc::{FhcError, PreparedSampleFeatures, SampleFeatures};
use hpcutil::par_map_indexed;
use std::time::Instant;

/// Samples per closed-loop batch, and the most an in-process launch-check
/// server picks up at once.
pub const BATCH: usize = 16;

/// In-process launch checks: rates and p99 limit.
pub const LADDER: Ladder = Ladder {
    rates: [150.0, 200.0, 250.0],
    limit_ms: 80.0,
};

type Batch = Result<Vec<(String, Prediction)>, FhcError>;

/// Compare a served batch starting at request `first` with the oracle:
/// per request, the predicted evaluation label if it is bit-identical.
fn check(
    oracle: &Ring<Prediction>,
    first: usize,
    len: usize,
    batch: Batch,
    out: &mut Outcome,
) -> Vec<Option<usize>> {
    match batch {
        Ok(predictions) => predictions
            .iter()
            .zip(oracle.window(first, len))
            .map(|((_, got), want)| {
                let same = same_prediction(got, want);
                out.mismatches += u64::from(!same);
                same.then_some(got.eval_label)
            })
            .collect(),
        Err(e) => {
            eprintln!("perfbench: batch at request {first} failed: {e}");
            vec![None; len]
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    harness::zero_per_layer(&mut m);
    let fx = harness::fixture_setup(args.seed, &mut m, |_| Ok(()))?.0;

    // Correctness oracle, untimed: the same classifier over the unindexed
    // scan backend.
    let classifier = &fx.classifier;
    let scan = classifier.clone().with_backend(BackendConfig::Scan);
    let oracle: Vec<Prediction> = scan
        .try_classify_batch(&fx.held_out)
        .map_err(|e| format!("scan oracle failed: {e}"))?
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    let oracle = Ring::new(oracle, BATCH);
    let samples = Ring::new(fx.held_out.clone(), BATCH);
    let n = samples.len();

    // Per held-out sample, the first label it was served correctly with.
    type State = (Outcome, Vec<Option<usize>>);
    let mut state: State = (Outcome::default(), vec![None; n]);
    let clock = WallClock::start();
    let (closed, runs) = harness::measure(
        args,
        &LADDER,
        &mut state,
        |k| classifier.try_classify_batch(samples.window(k * BATCH, BATCH)),
        |(out, predicted): &mut State, k, batch| {
            let first = k * BATCH;
            out.attempted += BATCH as u64;
            for (j, r) in check(&oracle, first, BATCH, batch, out)
                .into_iter()
                .enumerate()
            {
                match r {
                    Some(label) => {
                        predicted[(first + j) % n].get_or_insert(label);
                    }
                    None => out.failed += 1,
                }
            }
            BATCH
        },
        |(out, _): &mut State, rate, due| {
            Ok(run_virtual(
                &clock,
                rate,
                due,
                BATCH,
                harness::CALLERS,
                |range| classifier.try_classify_batch(samples.window(range.start, range.len())),
                |range, batch| {
                    check(&oracle, range.start, range.len(), batch, out)
                        .into_iter()
                        .map(|r| r.is_some())
                        .collect()
                },
            ))
        },
        crate::host::steal_meter(),
    )?;
    let (mut out, predicted) = state;
    closed.record(&mut m)?;
    // The loop covers the split many times over; a sample never answered
    // correctly scores as a wrong "unknown".
    let predicted: Vec<usize> = predicted.into_iter().map(|p| p.unwrap_or(0)).collect();
    fx.record_macro_f1(&predicted, &mut m);
    out.add_runs(&runs);
    LADDER.record(&runs, &mut m)?;

    if args.trace {
        let traced = traced_passes(classifier, &fx.held_out, oracle.base())?;
        traced.record(&mut m)?;
        let queries: Vec<PreparedSampleFeatures> = fx
            .held_out
            .iter()
            .map(|(_, b)| PreparedSampleFeatures::prepare(&SampleFeatures::extract(b)))
            .collect();
        crate::record_candidates(classifier, &queries, &mut m)?;
    }
    out.metrics = m;
    Ok(out)
}

/// Walk the whole held-out batch layer by layer under the serving pool,
/// alternating with untraced `try_classify_batch` passes; every composed
/// prediction must equal the library's and the oracle's.
fn traced_passes(
    classifier: &TrainedClassifier,
    batch: &[(String, Vec<u8>)],
    oracle: &[Prediction],
) -> Result<TracedRun, String> {
    let parallel = classifier.serving_config().parallel();
    let mut run = TracedRun {
        threads: parallel.effective_threads(batch.len()),
        ..TracedRun::default()
    };
    for _ in 0..TRACE_PASSES {
        let t = Instant::now();
        let library = classifier
            .try_classify_batch(batch)
            .map_err(|e| format!("untraced pass failed: {e}"))?;
        run.untraced_wall_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let walked = par_map_indexed(batch.len(), parallel, |i| {
            layers::classify_bytes(classifier, &batch[i].1)
        });
        run.traced_wall_s.push(t.elapsed().as_secs_f64());
        for (i, result) in walked.into_iter().enumerate() {
            let (prediction, trace) = result.map_err(|e| format!("traced walk failed: {e}"))?;
            if !same_prediction(&prediction, &library[i].1)
                || !same_prediction(&prediction, &oracle[i])
            {
                return Err(format!(
                    "traced walk of sample {i} diverged from try_classify"
                ));
            }
            run.trace += trace;
        }
    }
    Ok(run)
}
