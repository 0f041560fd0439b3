//! Open-loop load: requests fall due on a fixed schedule whether or not
//! earlier ones have been answered, and every latency is timed from the
//! request's **due** time. A server that falls behind therefore shows its
//! queueing delay in the latency instead of silently slowing the arrivals
//! (the coordinated-omission trap of closed-loop timing). Arrivals are
//! independent: a seeded Poisson process at the offered rate, so the
//! schedule never beats in step with a fixed service time.
//!
//! Two load generators share the bookkeeping in [`RateRun`]:
//! - [`run_virtual`] serves in-process: one server loop picks up every
//!   request that has fallen due (up to a batch cap) and serves them as one
//!   batch. Arrivals are virtual, so no generator thread competes with the
//!   server for the CPU.
//! - the gateway workload's writer/reader pair (in `gateway.rs`), which
//!   records the same fields from real socket traffic.

use crate::stats::{mean, percentile, percentile_with_tail};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonic clock in seconds, injectable so the generators are testable.
pub trait Clock {
    /// Seconds since the clock's origin.
    fn now(&self) -> f64;
    /// Block until [`Clock::now`] reaches `t`.
    fn sleep_until(&self, t: f64);
}

/// The wall clock.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        wait_until(|| self.now(), t);
    }
}

/// Last stretch before a due time that a generator spins (yielding the
/// CPU to any runnable thread) rather than sleeps: waking from a sleep
/// costs a virtual CPU a trip through the hypervisor, whose delay grows
/// when the host is busy and would land in every latency.
pub const SPIN_S: f64 = 0.002;

/// Block until `now()` reaches `t`: sleep to [`SPIN_S`] before it, then
/// spin.
pub fn wait_until(now: impl Fn() -> f64, t: f64) {
    let sleep = t - SPIN_S - now();
    if sleep > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(sleep));
    }
    while now() < t {
        std::thread::yield_now();
    }
}

/// Due times (seconds from the start of the rate's run) of `n` requests
/// arriving as a Poisson process at `rate` per second: exponential gaps,
/// the first request due at 0.
pub fn poisson_schedule(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            if i > 0 {
                // 1 - U is uniform in (0, 1], so the logarithm is finite.
                t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            }
            t
        })
        .collect()
}

/// Everything one open-loop rate produced.
#[derive(Debug, Clone, Default)]
pub struct RateRun {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: usize,
    /// Completion minus due time of every answered request, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Harness lateness, milliseconds: how long after its due time each
    /// request was sent (or, in process, picked up by an idle server).
    pub lag_ms: Vec<f64>,
    /// Requests due but not yet answered, sampled at each send (or
    /// in-process pickup) while requests are still arriving.
    pub backlog: Vec<usize>,
    /// Whether the backlog grew in a segment absorbed into this run.
    pub grew: bool,
    /// Answered requests of each segment absorbed into this run, in order
    /// (their latencies lie in `latency_ms` in the same order).
    pub segments: Vec<usize>,
}

impl RateRun {
    /// Requests that were answered correctly.
    pub fn succeeded(&self) -> usize {
        self.attempted - self.failed
    }

    /// p99 of the harness lateness (0 when nothing was late).
    pub fn lag_p99_ms(&self) -> f64 {
        if self.lag_ms.is_empty() {
            0.0
        } else {
            percentile(&self.lag_ms, 99.0).value
        }
    }

    /// Largest sampled backlog.
    pub fn backlog_max(&self) -> usize {
        self.backlog.iter().copied().max().unwrap_or(0)
    }

    /// Append another segment of the same rate: its answers and samples,
    /// and whether its backlog grew.
    pub fn absorb(&mut self, segment: RateRun) {
        self.grew |= segment.grew || segment.backlog_grows();
        self.segments.push(segment.latency_ms.len());
        self.attempted += segment.attempted;
        self.failed += segment.failed;
        self.latency_ms.extend(segment.latency_ms);
        self.lag_ms.extend(segment.lag_ms);
        self.backlog.extend(segment.backlog);
    }

    /// Whether the backlog grew over the run: the mean of the last quarter
    /// of the samples exceeds the first quarter's by more than
    /// `max(16, first quarter)` requests. A stable queue fluctuates around a
    /// level; an overloaded one climbs without bound.
    pub fn backlog_grows(&self) -> bool {
        let quarter = self.backlog.len() / 4;
        if quarter == 0 {
            return false;
        }
        let avg = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        let first = avg(&self.backlog[..quarter]);
        let last = avg(&self.backlog[self.backlog.len() - quarter..]);
        last - first > first.max(16.0)
    }

    /// Whether the generator kept its schedule: its p99 lateness stays
    /// within `lag_share` of the latency limit. An invalid run measured the
    /// harness, not the server, and its latencies are not reported.
    pub fn valid(&self, limit_ms: f64, lag_share: f64) -> bool {
        self.lag_p99_ms() <= lag_share * limit_ms
    }

    /// Latency percentile `p` as the mean over the absorbed segments (one
    /// per round, spread over the whole run) of each segment's percentile.
    /// Every stretch of the run weighs the same, so a host that slows for
    /// part of the run moves the figure in proportion to that part instead
    /// of flipping it, as a median over a mixture of slow and fast
    /// stretches does. Segments without an answer are skipped.
    pub fn segment_latency(&self, p: f64) -> Result<f64, String> {
        let mut per_segment = Vec::with_capacity(self.segments.len());
        let mut first = 0;
        for &len in &self.segments {
            let answers = &self.latency_ms[first..first + len];
            first += len;
            if !answers.is_empty() {
                per_segment.push(percentile(answers, p).value);
            }
        }
        if per_segment.is_empty() {
            return Err(format!("rate {} qps: no segment was answered", self.rate));
        }
        Ok(mean(&per_segment))
    }

    /// Latency percentile `p` over the whole run, requiring ten answered
    /// samples beyond it.
    pub fn latency(&self, p: f64) -> Result<f64, String> {
        percentile_with_tail(&self.latency_ms, p)
            .map(|s| s.value)
            .map_err(|e| format!("rate {} qps: {e}", self.rate))
    }

    /// Whether this rate meets the service level: every request answered
    /// correctly, p99 within `limit_ms`, and a backlog that does not grow.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.grew && self.latency(99.0).is_ok_and(|p| p <= limit_ms)
    }
}

/// The highest rate of a rising ladder at which the service level holds on
/// that rung and on every rung below it; `0.0` if even the lowest fails.
pub fn sla_rate(runs: &[RateRun], limit_ms: f64) -> f64 {
    let mut best = 0.0;
    for run in runs {
        if !run.meets(limit_ms) {
            break;
        }
        best = run.rate;
    }
    best
}

/// Serve requests falling due at `due` (seconds from the start, rising)
/// with `servers` concurrent callers. Each caller, when free, picks up
/// every request that has fallen due and nobody has taken (at most
/// `max_batch`) and hands their index range to `serve`; when none is due
/// it waits for the next due time ([`Clock::sleep_until`]). After the
/// run, `check` reports per request whether its output was correct,
/// outside any timing. `rate` labels the run.
pub fn run_virtual<C: Clock + Sync, R: Send>(
    clock: &C,
    rate: f64,
    due: &[f64],
    max_batch: usize,
    servers: usize,
    serve: impl Fn(Range<usize>) -> R + Sync,
    mut check: impl FnMut(Range<usize>, R) -> Vec<bool>,
) -> RateRun {
    let n = due.len();
    let start = clock.now();
    // The next request nobody has picked up, and the backlog and lag
    // samples, shared by the callers.
    let shared = Mutex::new((0usize, Vec::new(), Vec::new()));
    let served = Mutex::new(Vec::new());
    let caller = || loop {
        let mut state = shared.lock().expect("an open-loop caller panicked");
        let next = state.0;
        if next >= n {
            return;
        }
        let mut now = clock.now() - start;
        if due[next] > now {
            // Idle: wait for the next arrival without holding the lock.
            drop(state);
            clock.sleep_until(start + due[next]);
            state = shared.lock().expect("an open-loop caller panicked");
            if state.0 != next {
                continue; // another caller took it
            }
            now = clock.now() - start;
            // Oversleeping is harness lag.
            state.2.push((now - due[next]) * 1e3);
        }
        let mut end = next + 1;
        while end < n && end - next < max_batch && due[end] <= now {
            end += 1;
        }
        // Everything due by now is either picked up or still waiting;
        // sampled while requests are still arriving (after the last one
        // the queue can only drain).
        if now <= due[n - 1] {
            let arrived = due.partition_point(|&d| d <= now).max(end);
            state.1.push(arrived - next);
        }
        state.0 = end;
        drop(state);
        let output = serve(next..end);
        let done = clock.now() - start;
        served
            .lock()
            .expect("an open-loop caller panicked")
            .push((next..end, output, done));
    };
    std::thread::scope(|scope| {
        for _ in 1..servers {
            scope.spawn(caller);
        }
        caller();
    });
    let (_, backlog, lag_ms) = shared.into_inner().expect("an open-loop caller panicked");
    let mut served = served.into_inner().expect("an open-loop caller panicked");
    served.sort_by_key(|(range, _, _)| range.start);
    let mut run = RateRun {
        rate,
        attempted: n,
        lag_ms,
        backlog,
        ..RateRun::default()
    };
    for (range, output, done) in served {
        for (i, ok) in range.clone().zip(check(range, output)) {
            if ok {
                run.latency_ms.push((done - due[i]) * 1e3);
            } else {
                run.failed += 1;
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A clock that only moves when told to.
    struct FakeClock(AtomicU64);

    impl FakeClock {
        fn new() -> Self {
            Self(AtomicU64::new(0f64.to_bits()))
        }
        fn advance(&self, by: f64) {
            self.0.store((self.now() + by).to_bits(), Ordering::SeqCst);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            f64::from_bits(self.0.load(Ordering::SeqCst))
        }
        fn sleep_until(&self, t: f64) {
            if t > self.now() {
                self.0.store(t.to_bits(), Ordering::SeqCst);
            }
        }
    }

    fn uniform(rate: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / rate).collect()
    }

    fn run_with(rate: f64, n: usize, max_batch: usize, service: f64) -> RateRun {
        let clock = FakeClock::new();
        run_virtual(
            &clock,
            rate,
            &uniform(rate, n),
            max_batch,
            1,
            |_| clock.advance(service),
            |range, ()| vec![true; range.len()],
        )
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // 10 requests/s but each takes 0.25 s alone: request i waits behind
        // i earlier ones, so from its due time it sees 0.25*(i+1) - 0.1*i.
        // Timed from the moment it was sent it would always read 250 ms.
        let run = run_with(10.0, 4, 1, 0.25);
        let expected = [250.0, 400.0, 550.0, 700.0];
        for (got, want) in run.latency_ms.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_eq!(run.backlog, vec![1, 2]);
    }

    #[test]
    fn an_idle_server_waits_for_arrivals_and_coalesces_due_requests() {
        let run = run_with(100.0, 50, 8, 0.001);
        assert_eq!(run.latency_ms.len(), 50);
        // Light load: every request is served alone, 1 ms after it is due.
        assert!(run.latency_ms.iter().all(|&l| (l - 1.0).abs() < 1e-6));
        assert!(run.backlog_max() <= 1);
        assert!(!run.backlog_grows());
        // Overload with batching: 0.05 s per batch of up to 8 at 1000/s.
        let run = run_with(1000.0, 400, 8, 0.05);
        assert!(run.backlog_grows());
        assert_eq!(run.latency_ms.len(), 400);
    }

    #[test]
    fn concurrent_callers_serve_every_request_once() {
        let clock = WallClock::start();
        let due: Vec<f64> = (0..200).map(|i| i as f64 * 1e-4).collect();
        let taken: Vec<AtomicU64> = (0..200).map(|_| AtomicU64::new(0)).collect();
        let run = run_virtual(
            &clock,
            10_000.0,
            &due,
            4,
            2,
            |range| {
                for i in range.clone() {
                    taken[i].fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_micros(200));
                range.len()
            },
            |range, len| vec![range.len() == len; len],
        );
        assert!(taken.iter().all(|t| t.load(Ordering::SeqCst) == 1));
        assert_eq!(
            (run.attempted, run.failed, run.latency_ms.len()),
            (200, 0, 200)
        );
        assert!(run.latency_ms.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn failed_requests_are_counted_not_timed() {
        let clock = FakeClock::new();
        let run = run_virtual(
            &clock,
            100.0,
            &uniform(100.0, 10),
            1,
            1,
            |_| (),
            |range, ()| vec![range.start % 2 == 0],
        );
        assert_eq!((run.attempted, run.failed, run.succeeded()), (10, 5, 5));
        assert_eq!(run.latency_ms.len(), 5);
    }

    /// A run at `rate` absorbed from two segments of 500 answers each.
    fn synthetic(rate: f64, latency: f64, backlog: Vec<usize>) -> RateRun {
        let mut run = RateRun {
            rate,
            ..RateRun::default()
        };
        for backlog in [vec![1; 10], backlog] {
            run.absorb(RateRun {
                rate,
                attempted: 500,
                latency_ms: vec![latency; 500],
                lag_ms: vec![0.1; 500],
                backlog,
                ..RateRun::default()
            });
        }
        run
    }

    #[test]
    fn sla_rate_takes_the_highest_rung_that_holds_with_all_below() {
        let flat = vec![1; 100];
        let climbing: Vec<usize> = (0..100).collect();
        let ladder = [
            synthetic(50.0, 5.0, flat.clone()),
            synthetic(100.0, 8.0, flat.clone()),
            synthetic(160.0, 12.0, flat.clone()),
        ];
        assert_eq!(sla_rate(&ladder, 20.0), 160.0);
        assert_eq!(sla_rate(&ladder, 10.0), 100.0);
        assert_eq!(sla_rate(&ladder, 1.0), 0.0);
        // A growing backlog disqualifies a rung even when its p99 is fine,
        // and a failing middle rung caps the ladder below it.
        let growing = [
            synthetic(50.0, 5.0, flat.clone()),
            synthetic(100.0, 8.0, flat.clone()),
            synthetic(160.0, 9.0, climbing),
        ];
        assert_eq!(sla_rate(&growing, 20.0), 100.0);
        let mut broken_middle = ladder.clone();
        broken_middle[1].failed = 1;
        assert_eq!(sla_rate(&broken_middle, 20.0), 50.0);
        // Too few samples for a p99 never meets the service level.
        let mut short = ladder.clone();
        short[0].latency_ms.truncate(999);
        assert_eq!(sla_rate(&short, 20.0), 0.0);
    }

    #[test]
    fn poisson_schedules_are_seeded_rising_and_at_rate() {
        let a = poisson_schedule(500.0, 20_000, 7);
        assert_eq!(a, poisson_schedule(500.0, 20_000, 7));
        assert_ne!(a, poisson_schedule(500.0, 20_000, 8));
        assert_eq!(a[0], 0.0);
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        let mean_gap = a[a.len() - 1] / (a.len() - 1) as f64;
        assert!((mean_gap * 500.0 - 1.0).abs() < 0.03, "mean gap {mean_gap}");
        // Exponential gaps: about 1/e of them exceed the mean.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1.0 / 500.0).count();
        assert!((long as f64 / 20_000.0 - (-1.0f64).exp()).abs() < 0.02);
    }

    #[test]
    fn segment_latency_is_the_mean_of_segment_percentiles() {
        // Two segments of 500: the second one twice as slow throughout.
        let mut run = synthetic(100.0, 2.0, vec![1; 10]);
        assert_eq!(run.segments, vec![500, 500]);
        run.latency_ms[500..].fill(4.0);
        assert_eq!(run.segment_latency(50.0).unwrap(), 3.0);
        // A stall in part of a segment does not move its median.
        run.latency_ms[..100].fill(50.0);
        assert_eq!(run.segment_latency(50.0).unwrap(), 3.0);
        // The whole-run p99 sees the stall.
        assert_eq!(run.latency(99.0).unwrap(), 50.0);
        // Unanswered segments are skipped; none answered is an error.
        run.absorb(RateRun {
            rate: 100.0,
            attempted: 10,
            failed: 10,
            ..RateRun::default()
        });
        assert_eq!(run.segment_latency(50.0).unwrap(), 3.0);
        assert!(RateRun::default().segment_latency(50.0).is_err());
    }

    #[test]
    fn generator_lag_beyond_its_share_invalidates_a_rate() {
        let mut run = synthetic(50.0, 5.0, vec![1; 10]);
        assert!(run.valid(20.0, 0.1));
        run.lag_ms = vec![3.0; 1000];
        assert!(!run.valid(20.0, 0.1));
        assert_eq!(run.lag_p99_ms(), 3.0);
    }
}
