//! The Fuzzy Hash Classifier benchmark.
//!
//! ```text
//! perfbench --workload <audit_bytes|hotgram_prehashed|gateway_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, sets up (several times; `setup_s` is
//! the median), checks every timed output against an oracle, measures for
//! about `--seconds`, and prints one JSON result as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Progress and per-rate counts go to standard
//! error. `perfbench/METRICS.md` documents the workloads and metrics.

mod audit;
mod gateway;
mod harness;
mod host;
mod hotgram;
mod layers;
mod openloop;
mod report;
mod setup;
mod stats;

use fhc::backend::SimilarityBackend;
use fhc::serving::{ServingConfig, TrainedClassifier};
use fhc::{FeatureKind, PreparedSampleFeatures};
use harness::Args;
use report::Metrics;

/// What a workload hands back: operation counts and every metric.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations timed (samples or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Answers that differed from the oracle (also counted in `failed`).
    pub mismatches: u64,
    /// Every recorded metric.
    pub metrics: Metrics,
}

impl Outcome {
    /// Count an open-loop ladder's requests.
    pub fn add_runs(&mut self, runs: &[openloop::RateRun]) {
        for run in runs {
            self.attempted += run.attempted as u64;
            self.failed += run.failed as u64;
        }
    }
}

/// Record untimed candidate and row-density counts of a query batch.
pub fn record_candidates(
    classifier: &TrainedClassifier,
    queries: &[PreparedSampleFeatures],
    m: &mut Metrics,
) -> Result<(), String> {
    let per_kind = layers::candidates_per_query(classifier, queries);
    for (kind, count) in classifier.reference().kinds().iter().zip(per_kind) {
        let name = match kind {
            FeatureKind::File => "similarity.candidates_per_query.file",
            FeatureKind::Strings => "similarity.candidates_per_query.strings",
            FeatureKind::Symbols => "similarity.candidates_per_query.symbols",
        };
        m.set(name, count);
    }
    let mut nonzero = 0usize;
    for q in queries {
        let row = classifier
            .backend()
            .try_feature_vector_prepared(q)
            .map_err(|e| format!("row for candidate counts failed: {e}"))?;
        nonzero += row.iter().filter(|&&v| v != 0.0).count();
    }
    m.set(
        "similarity.nonzero_cells_per_query",
        nonzero as f64 / queries.len().max(1) as f64,
    );
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let workload = match args.workload.as_str() {
        "audit_bytes" => audit::run,
        "hotgram_prehashed" => hotgram::run,
        "gateway_stream" => gateway::run,
        other => return Err(format!("unknown workload {other}")),
    };
    // The host is probed on as many threads as the default serving pool runs.
    let pool_threads = ServingConfig::default()
        .parallel()
        .effective_threads(usize::MAX);
    let probe = host::Probe::start(pool_threads);
    let mut outcome = workload(&args)?;
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let m = &mut outcome.metrics;
    m.set(
        "failed_share",
        outcome.failed as f64 / outcome.attempted as f64,
    );
    m.set("peak_rss_mb", report::peak_rss_mb()?);
    probe.finish(m);
    eprintln!(
        "perfbench: {} seed {}: attempted {} failed {} (mismatched {})",
        args.workload, args.seed, outcome.attempted, outcome.failed, outcome.mismatches
    );
    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if args.trace {
        // The end-to-end figures of a traced run go to the log only.
        if let Ok(json) = m.to_json(report::END_TO_END) {
            eprintln!("perfbench: end-to-end {json}");
        }
    }
    let json = m.to_json(catalogue)?;
    if outcome.mismatches > 0 {
        eprintln!(
            "perfbench: {} answers differed from the oracle",
            outcome.mismatches
        );
    }
    Ok(report::result_line(
        outcome.mismatches == 0,
        outcome.attempted,
        outcome.failed,
        &json,
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
