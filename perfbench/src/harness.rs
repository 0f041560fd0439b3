//! What every workload shares: the run parameters, the closed batch loop,
//! the open-loop ladder, and how their samples become metrics.

use crate::layers::Trace;
use crate::openloop::{poisson_schedule, sla_rate, RateRun};
use crate::report::Metrics;
use crate::setup::Fixture;
use crate::stats::{mean, median, percentile, percentile_with_tail, samples_needed, MIN_BEYOND};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Share of `--seconds` spent in the closed batch loop; the open-loop
/// ladder shares the rest equally between its rates.
pub const CLOSED_SHARE: f64 = 0.5;
/// Concurrent callers of the in-process open loops.
pub const CALLERS: usize = 2;
/// Share of a rate's latency limit the generator's p99 lateness may
/// reach before that rate's run is invalid.
pub const LAG_SHARE: f64 = 0.5;
/// Attempts at an open-loop rate whose generator lagged, before the run
/// gives up.
pub const RATE_ATTEMPTS: usize = 5;
/// Rounds of a run. Each round runs a closed-loop segment and one segment
/// of every open-loop rung, so every metric samples the whole run at
/// short intervals: the host's speed drifts over seconds, and a figure
/// taken from one stretch of the run would follow that drift.
pub const ROUNDS: usize = 20;
/// Largest `|serving.unattributed_share|` the traced run accepts: the
/// per-layer busy times must add up to the traced wall time times the
/// pool's threads within this share.
pub const ADD_UP_TOLERANCE: f64 = 0.15;
/// Traced (and untraced) passes over the batch in a traced run.
pub const TRACE_PASSES: usize = 3;

/// Command-line parameters of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// A workload's open-loop ladder, frozen in `perfbench/METRICS.md`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Offered rates `r1 < r2 < r3`, requests per second.
    pub rates: [f64; 3],
    /// p99 latency limit of the service level, milliseconds.
    pub limit_ms: f64,
}

impl Ladder {
    /// Requests to schedule at `rate` in each of the [`ROUNDS`] rounds: its
    /// share of the budget, but in all never fewer than a p99 with ten
    /// samples beyond it needs.
    pub fn requests_per_round(&self, rate: f64, seconds: f64) -> usize {
        let share = seconds * (1.0 - CLOSED_SHARE) / self.rates.len() as f64;
        let total = ((rate * share) as usize).max(samples_needed(99.0, MIN_BEYOND));
        total.div_ceil(ROUNDS)
    }

    /// Record the ladder's end-to-end latencies, its service-level rate,
    /// and the generator's per-rate figures.
    pub fn record(&self, runs: &[RateRun], m: &mut Metrics) -> Result<(), String> {
        const P50: [&str; 3] = ["lat_p50_ms.r1", "lat_p50_ms.r2", "lat_p50_ms.r3"];
        const P90: [&str; 3] = ["lat_p90_ms.r1", "lat_p90_ms.r2", "lat_p90_ms.r3"];
        const P99: [&str; 3] = ["lat_p99_ms.r1", "lat_p99_ms.r2", "lat_p99_ms.r3"];
        const LAG: [&str; 3] = [
            "loadgen.lag_p99_ms.r1",
            "loadgen.lag_p99_ms.r2",
            "loadgen.lag_p99_ms.r3",
        ];
        const BACKLOG: [&str; 3] = [
            "loadgen.backlog_max.r1",
            "loadgen.backlog_max.r2",
            "loadgen.backlog_max.r3",
        ];
        const ATTEMPTED: [&str; 3] = [
            "loadgen.attempted.r1",
            "loadgen.attempted.r2",
            "loadgen.attempted.r3",
        ];
        const FAILED: [&str; 3] = [
            "loadgen.failed.r1",
            "loadgen.failed.r2",
            "loadgen.failed.r3",
        ];
        for (k, run) in runs.iter().enumerate() {
            m.set(P50[k], run.segment_latency(50.0)?);
            m.set(P90[k], run.latency(90.0)?);
            m.set(P99[k], run.latency(99.0)?);
            m.set(LAG[k], run.lag_p99_ms());
            m.set(BACKLOG[k], run.backlog_max() as f64);
            m.set(ATTEMPTED[k], run.attempted as f64);
            m.set(FAILED[k], run.failed as f64);
            eprintln!(
                "perfbench: r{} = {} qps: attempted {} succeeded {} failed {}, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, lag p99 {:.3} ms, backlog max {}{}",
                k + 1,
                run.rate,
                run.attempted,
                run.succeeded(),
                run.failed,
                run.segment_latency(50.0)?,
                run.latency(90.0)?,
                run.latency(99.0)?,
                run.lag_p99_ms(),
                run.backlog_max(),
                if run.backlog_grows() { " (growing)" } else { "" }
            );
        }
        m.set("sla_rate_qps", sla_rate(runs, self.limit_ms));
        Ok(())
    }
}

/// A query set cycled through in fixed-size windows: the first `span - 1`
/// items are repeated at the end, so every window of up to `span` items
/// that starts inside the set is one contiguous slice.
pub struct Ring<T> {
    items: Vec<T>,
    n: usize,
}

impl<T: Clone> Ring<T> {
    /// Wrap `items` (at least one) for windows of up to `span` items.
    pub fn new(mut items: Vec<T>, span: usize) -> Self {
        let n = items.len();
        assert!(n > 0, "a ring needs at least one item");
        let wrap: Vec<T> = items
            .iter()
            .cycle()
            .take(span.saturating_sub(1))
            .cloned()
            .collect();
        items.extend(wrap);
        Self { items, n }
    }

    /// Distinct items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The distinct items, in order.
    pub fn base(&self) -> &[T] {
        &self.items[..self.n]
    }

    /// Items `first..first + len` of the endless cycle (`len <= span`).
    pub fn window(&self, first: usize, len: usize) -> &[T] {
        let start = first % self.n;
        &self.items[start..start + len]
    }
}

/// One round's stretch of the closed batch loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Samples served.
    pub samples: usize,
    /// Summed wall time of the segment's batches, seconds.
    pub busy_s: f64,
    /// Median batch wall time, milliseconds.
    pub p50_ms: f64,
}

/// Samples of a closed batch loop.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Wall time of each batch, milliseconds.
    pub batch_ms: Vec<f64>,
    /// Each round's segment.
    pub segments: Vec<Segment>,
}

impl ClosedLoop {
    /// Samples per second over every segment: all samples served over all
    /// batch time, so each stretch of the run counts by its length.
    pub fn throughput(&self) -> f64 {
        let samples: usize = self.segments.iter().map(|s| s.samples).sum();
        let busy_s: f64 = self.segments.iter().map(|s| s.busy_s).sum();
        samples as f64 / busy_s
    }

    /// Record throughput, the per-batch median (the mean of the segments'
    /// medians, for the reason [`RateRun::segment_latency`] gives) and the
    /// per-batch p90 over every batch of the run.
    pub fn record(&self, m: &mut Metrics) -> Result<(), String> {
        m.set("throughput_sps", self.throughput());
        let p50: Vec<f64> = self.segments.iter().map(|s| s.p50_ms).collect();
        m.set("batch_p50_ms", mean(&p50));
        let p90 = percentile_with_tail(&self.batch_ms, 90.0)?;
        m.set("batch_p90_ms", p90.value);
        let throughputs: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.samples as f64 / s.busy_s)
            .collect();
        eprintln!(
            "perfbench: closed loop {} batches, segment throughputs {:.0?} (p90 over {} with {} beyond)",
            self.batch_ms.len(),
            throughputs,
            p90.n,
            p90.beyond
        );
        Ok(())
    }
}

/// Largest share of all CPU time the hypervisor may steal during a round
/// before the round's timings are discarded and the round is run again.
pub const STEAL_LIMIT: f64 = 0.04;
/// Rounds a run may discard for steal, at most 40% more rounds: the
/// hypervisor steals in bursts of seconds to about half a minute, and
/// later rounds count whatever the host did, so a run on a host that keeps
/// stealing still ends in time.
pub const MAX_DISCARDED: usize = 8;

/// The timed part of a run: [`ROUNDS`] rounds, each a closed-loop segment
/// followed by one segment of every rung of `ladder`, so every metric
/// samples the whole run rather than one stretch of it.
///
/// The closed loop serves batch `k` through `serve(k)` (timed) and then
/// `check(state, k, output)` (untimed, returning the samples served) until
/// the segment has run its share of `--seconds` and its share of the 100
/// batches a p90 with ten samples beyond it needs. A rung segment is
/// `offer(state, rate, due times)` on a seeded Poisson schedule; one whose
/// generator lagged is repeated, and a rung that never runs valid fails
/// the run.
///
/// `steal()` returns the share of all CPU time the hypervisor stole since
/// it was last called. A round it stole more than [`STEAL_LIMIT`] of
/// measured the host rather than the program: its timings are dropped
/// (its answers are still checked and counted) and the round runs again,
/// at most [`MAX_DISCARDED`] times per run.
pub fn measure<S, R>(
    args: &Args,
    ladder: &Ladder,
    state: &mut S,
    mut serve: impl FnMut(usize) -> R,
    mut check: impl FnMut(&mut S, usize, R) -> usize,
    mut offer: impl FnMut(&mut S, f64, &[f64]) -> Result<RateRun, String>,
    mut steal: impl FnMut() -> f64,
) -> Result<(ClosedLoop, Vec<RateRun>), String> {
    let min_batches = samples_needed(90.0, MIN_BEYOND).div_ceil(ROUNDS);
    let closed_s = args.seconds * CLOSED_SHARE / ROUNDS as f64;
    let mut closed = ClosedLoop::default();
    let mut runs: Vec<RateRun> = ladder
        .rates
        .iter()
        .map(|&rate| RateRun {
            rate,
            ..RateRun::default()
        })
        .collect();
    let (mut round, mut discarded, mut k) = (0, 0, 0);
    while round < ROUNDS {
        steal();
        let (mut samples, mut busy_s) = (0, 0.0);
        let mut batch_ms = Vec::new();
        let start = Instant::now();
        while batch_ms.len() < min_batches || start.elapsed().as_secs_f64() < closed_s {
            let t = Instant::now();
            let output = serve(k);
            let s = t.elapsed().as_secs_f64();
            busy_s += s;
            batch_ms.push(s * 1e3);
            samples += check(state, k, output);
            k += 1;
        }

        let mut rungs = Vec::with_capacity(ladder.rates.len());
        for (rung, &rate) in ladder.rates.iter().enumerate() {
            let due = poisson_schedule(
                rate,
                ladder.requests_per_round(rate, args.seconds),
                args.seed ^ ((0x5ced + round as u64) << (8 * rung)),
            );
            let mut attempt = 0;
            let segment = loop {
                attempt += 1;
                let segment = offer(state, rate, &due)?;
                if segment.valid(ladder.limit_ms, LAG_SHARE) {
                    break segment;
                }
                eprintln!(
                    "perfbench: rate {rate} qps round {round} invalid (generator lag p99 {:.3} ms > {:.3} ms), attempt {attempt}",
                    segment.lag_p99_ms(),
                    LAG_SHARE * ladder.limit_ms
                );
                if attempt == RATE_ATTEMPTS {
                    return Err(format!(
                        "rate {rate} qps: the generator could not keep its schedule"
                    ));
                }
            };
            rungs.push(segment);
        }

        let stolen = steal();
        if stolen > STEAL_LIMIT && discarded < MAX_DISCARDED {
            discarded += 1;
            eprintln!(
                "perfbench: round {round} discarded: the hypervisor stole {stolen:.3} of all CPU time (limit {STEAL_LIMIT}), {discarded} of {MAX_DISCARDED}"
            );
            // The answers were still checked; count them.
            for (run, segment) in runs.iter_mut().zip(rungs) {
                run.attempted += segment.attempted;
                run.failed += segment.failed;
            }
            continue;
        }
        closed.segments.push(Segment {
            samples,
            busy_s,
            p50_ms: percentile(&batch_ms, 50.0).value,
        });
        closed.batch_ms.extend(batch_ms);
        for (run, segment) in runs.iter_mut().zip(rungs) {
            run.absorb(segment);
        }
        round += 1;
    }
    Ok((closed, runs))
}

/// Corpus seed of set-up `rep` of a run with `seed`: every repetition
/// builds its own corpus, and no two runs share one.
pub fn setup_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(SETUP_REPS as u64)
        .wrapping_add(rep as u64)
}

/// Set up [`SETUP_REPS`] times — fixture, then the workload's own
/// `extra` step — and record the median set-up seconds and their split.
/// Each repetition is dropped before the next is built, so peak memory
/// reflects one set-up; the last one is returned, carrying (untimed) the
/// macro F1 of every earlier repetition's held-out split.
pub fn fixture_setup<T>(
    seed: u64,
    m: &mut Metrics,
    mut extra: impl FnMut(&mut Fixture) -> Result<T, String>,
) -> Result<(Fixture, T), String> {
    let (mut total, mut corpus, mut fit, mut load) = (vec![], vec![], vec![], vec![]);
    let mut earlier_f1 = Vec::new();
    let mut last: Option<(Fixture, T)> = None;
    for rep in 0..SETUP_REPS {
        // Score and drop the previous set-up before building the next.
        if let Some((fx, _)) = last.take() {
            earlier_f1.push(fx.library_macro_f1()?);
        }
        let t = Instant::now();
        let mut fx = Fixture::build(setup_seed(seed, rep))?;
        let x = extra(&mut fx)?;
        total.push(t.elapsed().as_secs_f64());
        corpus.push(fx.times.corpus_s);
        fit.push(fx.times.fit_s);
        load.push(fx.times.load_s);
        last = Some((fx, x));
    }
    m.set("setup_s", median(&total));
    m.set("corpus.generate_s", median(&corpus));
    m.set("pipeline.fit_s", median(&fit));
    m.set("artifact.load_s", median(&load));
    eprintln!("perfbench: set-up seconds {total:.3?}");
    let (mut fx, x) = last.ok_or_else(|| "no set-up ran".to_string())?;
    fx.earlier_f1 = earlier_f1;
    Ok((fx, x))
}

/// Timing of the traced passes against untraced passes over the same
/// batch.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// Layer busy times and counters summed over every traced pass.
    pub trace: Trace,
    /// Wall seconds of every traced pass.
    pub traced_wall_s: Vec<f64>,
    /// Wall seconds of every untraced pass.
    pub untraced_wall_s: Vec<f64>,
    /// Threads the batch ran on.
    pub threads: usize,
}

impl TracedRun {
    /// `1 - busy / (traced wall * threads)`.
    pub fn unattributed_share(&self) -> f64 {
        let wall: f64 = self.traced_wall_s.iter().sum();
        1.0 - self.trace.busy_s() / (wall * self.threads as f64)
    }

    /// Traced over untraced median wall time, minus one.
    pub fn overhead_share(&self) -> f64 {
        median(&self.traced_wall_s) / median(&self.untraced_wall_s) - 1.0
    }

    /// Record the per-layer metrics of the traced passes (busy times per
    /// pass) and check that they add up. Shard-network metrics are the
    /// gateway workload's to record.
    pub fn record(&self, m: &mut Metrics) -> Result<(), String> {
        let t = &self.trace;
        let passes = self.traced_wall_s.len().max(1) as f64;
        let per_pass_ms = |s: f64| s * 1e3 / passes;
        let per_query_us = |s: f64| {
            if t.queries == 0 {
                0.0
            } else {
                s * 1e6 / t.queries as f64
            }
        };
        m.set("binary.elf.busy_ms", per_pass_ms(t.elf_s));
        m.set("binary.elf.parse_failures", t.elf_failures as f64 / passes);
        m.set("binary.symbols.busy_ms", per_pass_ms(t.symbols_s));
        m.set("binary.strings.busy_ms", per_pass_ms(t.strings_s));
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.set(
            "binary.strings.blob_ratio",
            ratio(t.strings_blob_bytes, t.input_bytes),
        );
        m.set("ssdeep.ctph_file.busy_ms", per_pass_ms(t.ctph_file_s));
        m.set("ssdeep.ctph_strings.busy_ms", per_pass_ms(t.ctph_strings_s));
        m.set("ssdeep.ctph_symbols.busy_ms", per_pass_ms(t.ctph_symbols_s));
        let mb_per_s = if t.ctph_s() > 0.0 {
            t.ctph_bytes as f64 / 1e6 / t.ctph_s()
        } else {
            0.0
        };
        m.set("ssdeep.ctph.mb_per_s", mb_per_s);
        m.set(
            "ssdeep.ctph.passes_per_input",
            ratio(t.ctph_passes, t.ctph_calls),
        );
        m.set("ssdeep.prepare.busy_ms", per_pass_ms(t.prepare_s));
        m.set("similarity.rows.busy_ms", per_pass_ms(t.rows_s));
        m.set("similarity.rows.per_query_us", per_query_us(t.rows_s));
        m.set("forest.busy_ms", per_pass_ms(t.forest_s));
        m.set("forest.per_query_us", per_query_us(t.forest_s));
        let unattributed = self.unattributed_share();
        m.set("serving.unattributed_share", unattributed);
        m.set("trace.overhead_share", self.overhead_share());
        eprintln!(
            "perfbench: traced {} passes on {} threads: unattributed {:.4}, overhead {:.4}",
            self.traced_wall_s.len(),
            self.threads,
            unattributed,
            self.overhead_share()
        );
        if unattributed.abs() > ADD_UP_TOLERANCE {
            return Err(format!(
                "per-layer busy time does not add up: unattributed share {unattributed:.4} exceeds {ADD_UP_TOLERANCE}"
            ));
        }
        Ok(())
    }
}

/// Zero every per-layer metric a workload does not exercise. Call first;
/// the workload then overwrites what it measures.
pub fn zero_per_layer(m: &mut Metrics) {
    for (name, _) in crate::report::PER_LAYER {
        m.set(name, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_seeds_never_repeat_across_runs() {
        let mut seen: Vec<u64> = (1..=10)
            .flat_map(|seed| (0..SETUP_REPS).map(move |rep| setup_seed(seed, rep)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10 * SETUP_REPS);
    }

    #[test]
    fn ring_windows_wrap_around_contiguously() {
        let ring = Ring::new(vec![0, 1, 2, 3, 4], 3);
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.base(), &[0, 1, 2, 3, 4]);
        assert_eq!(ring.window(3, 3), &[3, 4, 0]);
        assert_eq!(ring.window(9, 3), &[4, 0, 1]);
        // Spans longer than the set cycle it more than once.
        let short = Ring::new(vec![7, 8], 5);
        assert_eq!(short.window(1, 5), &[8, 7, 8, 7, 8]);
    }

    fn args(seconds: f64) -> Args {
        Args {
            workload: "test".into(),
            seed: 3,
            seconds,
            trace: false,
        }
    }

    #[test]
    fn each_rate_gets_enough_requests_for_its_p99() {
        let ladder = Ladder {
            rates: [100.0, 200.0, 400.0],
            limit_ms: 10.0,
        };
        assert_eq!(ladder.requests_per_round(100.0, 1.0) * ROUNDS, 1000);
        // 60 s, 50% open, a third each: 10 s at 400/s over the rounds.
        assert_eq!(ladder.requests_per_round(400.0, 60.0) * ROUNDS, 4000);
    }

    #[test]
    fn rounds_interleave_the_closed_loop_with_every_rung() {
        let ladder = Ladder {
            rates: [1e5, 2e5, 3e5],
            limit_ms: 1e3,
        };
        let mut log: Vec<String> = Vec::new();
        let (closed, runs) = measure(
            &args(0.0),
            &ladder,
            &mut log,
            |k| k,
            |log: &mut Vec<String>, k, _| {
                if k % (100 / ROUNDS) == 0 {
                    log.push("closed".into());
                }
                4
            },
            |log: &mut Vec<String>, rate, due| {
                log.push(format!("{rate}"));
                Ok(RateRun {
                    rate,
                    attempted: due.len(),
                    latency_ms: vec![1.0; due.len()],
                    backlog: vec![1; 8],
                    ..RateRun::default()
                })
            },
            || 0.0,
        )
        .unwrap();
        // Each round: a closed segment of its share of the 100 batches,
        // then r1, r2, r3.
        let round = ["closed", "100000", "200000", "300000"];
        assert_eq!(log, round.repeat(ROUNDS));
        assert_eq!(closed.batch_ms.len(), 100);
        assert_eq!(closed.segments.len(), ROUNDS);
        assert!(closed
            .segments
            .iter()
            .all(|s| s.samples == 4 * 100 / ROUNDS));
        assert!(runs.iter().all(|r| r.attempted == 1000 && !r.grew));
        let mut m = Metrics::default();
        closed.record(&mut m).unwrap();
        ladder.record(&runs, &mut m).unwrap();
        assert_eq!(m.get("sla_rate_qps"), Some(3e5));
    }

    #[test]
    fn closed_loop_figures_weigh_every_segment() {
        let segment = |samples, busy_s, p50_ms| Segment {
            samples,
            busy_s,
            p50_ms,
        };
        // A segment that ran at half speed for a quarter of the batch time
        // pulls throughput and the median batch time part of the way, not
        // all or nothing.
        let closed = ClosedLoop {
            batch_ms: (1..=100).map(f64::from).collect(),
            segments: vec![
                segment(100, 1.0, 10.0),
                segment(100, 1.0, 10.0),
                segment(100, 2.0, 20.0),
                segment(100, 1.0, 10.0),
            ],
        };
        assert_eq!(closed.throughput(), 80.0);
        let mut m = Metrics::default();
        closed.record(&mut m).unwrap();
        assert_eq!(m.get("throughput_sps"), Some(80.0));
        assert_eq!(m.get("batch_p50_ms"), Some(12.5));
        // The p90 runs over every batch of the run.
        assert_eq!(m.get("batch_p90_ms"), Some(90.0));
    }

    #[test]
    fn rounds_the_hypervisor_stole_from_are_run_again_up_to_a_limit() {
        let ladder = Ladder {
            rates: [1e5, 2e5, 3e5],
            limit_ms: 1e3,
        };
        // Readings alternate round start, round end. The first
        // MAX_DISCARDED + 2 rounds are stolen from: all but the last two
        // are discarded, those two count, and every later round is calm.
        let stolen = MAX_DISCARDED + 2;
        let mut readings = (0..2 * stolen)
            .map(|i| if i % 2 == 1 { 0.5 } else { 0.0 })
            .collect::<Vec<f64>>()
            .into_iter();
        let mut batches = 0;
        let (closed, runs) = measure(
            &args(0.0),
            &ladder,
            &mut batches,
            |k| k,
            |batches: &mut usize, _, _| {
                *batches += 1;
                1
            },
            |_: &mut usize, rate, due| {
                Ok(RateRun {
                    rate,
                    attempted: due.len(),
                    failed: 1,
                    latency_ms: vec![1.0; due.len() - 1],
                    ..RateRun::default()
                })
            },
            || readings.next().unwrap_or(0.0),
        )
        .unwrap();
        // Timings: ROUNDS rounds. Answers checked and counted: the
        // discarded rounds' too.
        let extra = MAX_DISCARDED;
        assert_eq!(closed.segments.len(), ROUNDS);
        assert_eq!(closed.batch_ms.len(), 100);
        assert_eq!(batches, 100 + extra * 100 / ROUNDS);
        for run in &runs {
            assert_eq!(run.segments.len(), ROUNDS);
            assert_eq!(run.attempted, 1000 + extra * 1000 / ROUNDS);
            assert_eq!(run.failed, ROUNDS + extra);
            assert_eq!(run.latency_ms.len(), 1000 - ROUNDS);
        }
    }

    #[test]
    fn an_unsteady_generator_is_retried_then_refused() {
        let ladder = Ladder {
            rates: [1.0, 2.0, 3.0],
            limit_ms: 10.0,
        };
        let mut calls = 0;
        let err = measure(
            &args(0.0),
            &ladder,
            &mut calls,
            |k| k,
            |_, _, _| 1,
            |calls: &mut usize, rate, due| {
                *calls += 1;
                Ok(RateRun {
                    rate,
                    attempted: due.len(),
                    lag_ms: vec![8.0; due.len()],
                    ..RateRun::default()
                })
            },
            || 0.0,
        )
        .unwrap_err();
        assert!(err.contains("schedule"));
        assert_eq!(calls, RATE_ATTEMPTS);
    }

    #[test]
    fn add_up_check_uses_threads_and_wall() {
        let run = TracedRun {
            trace: Trace {
                rows_s: 1.8,
                ..Trace::default()
            },
            traced_wall_s: vec![1.0],
            untraced_wall_s: vec![0.9],
            threads: 2,
        };
        assert!((run.unattributed_share() - 0.1).abs() < 1e-12);
        assert!((run.overhead_share() - (1.0 / 0.9 - 1.0)).abs() < 1e-12);
        let mut m = Metrics::default();
        run.record(&mut m).unwrap();
        let sloppy = TracedRun {
            trace: Trace {
                rows_s: 1.0,
                ..Trace::default()
            },
            ..run
        };
        assert!(sloppy.record(&mut m).is_err());
    }
}
