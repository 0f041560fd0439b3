//! The host a run measured on. Timings of two runs compare only when their
//! hosts ran alike, so every run records how busy the CPUs were with work
//! that was not the benchmark's, how much time the hypervisor stole, and
//! how fast two fixed kernels ran on the serving pool's threads: a
//! compute kernel (a rolling hash over a buffer that streams through the
//! caches) and a memory kernel (a dependent pointer chase through a table
//! larger than a last-level cache share), so a slower host shows apart from
//! a slower program.
//!
//! Before set-up the run waits, up to [`QUIET_WAIT_S`], for the CPUs to be
//! free of foreign work, so a process still winding down (a build, an
//! earlier run) does not land on the measurement.

use crate::report::Metrics;
use crate::stats::median;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Largest share of all CPU time foreign work may take for the host to
/// count as quiet: half of one CPU of two.
const QUIET_SHARE: f64 = 0.25;
/// How long a run waits for a quiet host before it starts anyway.
const QUIET_WAIT_S: f64 = 3.0;
/// Window over which quietness is sampled.
const QUIET_WINDOW: Duration = Duration::from_millis(300);
/// Bytes each thread's compute kernel hashes per timing.
const COMPUTE_BYTES: usize = 4 << 20;
/// Entries (4 bytes each, 16 MiB in all) of the pointer-chase table the
/// threads share.
const CHASE_ENTRIES: usize = 4 << 20;
/// Dependent loads per pointer-chase timing.
const CHASE_HOPS: usize = 1 << 20;
/// Timings of each kernel per thread and per probe.
const KERNEL_REPS: usize = 3;

/// CPU time counters, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Ticks {
    /// Every CPU's busy time: user, nice, system, irq and softirq.
    busy: u64,
    /// Time the hypervisor ran something else while a CPU wanted to run.
    steal: u64,
    /// Every CPU's time, all states.
    total: u64,
    /// This process's user plus system time.
    own: u64,
}

/// Parse the aggregate `cpu` line of `/proc/stat`.
fn parse_stat(stat: &str) -> Option<(u64, u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let field = |i: usize| f.get(i).copied().unwrap_or(0);
    let busy = field(0) + field(1) + field(2) + field(5) + field(6);
    let total = busy + field(3) + field(4) + field(7);
    Some((busy, field(7), total))
}

/// User plus system ticks of `/proc/self/stat` (fields 14 and 15; the
/// command name in field 2 may hold spaces, so count from its `)`).
fn parse_self_stat(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

fn ticks() -> Option<Ticks> {
    let (busy, steal, total) = parse_stat(&std::fs::read_to_string("/proc/stat").ok()?)?;
    let own = parse_self_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
    Some(Ticks {
        busy,
        steal,
        total,
        own,
    })
}

/// What the host did between two samples, as shares of all CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Load {
    /// Busy time that was not this process's.
    foreign: f64,
    /// Time stolen by the hypervisor.
    steal: f64,
}

fn load_between(a: Ticks, b: Ticks) -> Load {
    let total = b.total.saturating_sub(a.total).max(1) as f64;
    let busy = b.busy.saturating_sub(a.busy);
    let own = b.own.saturating_sub(a.own);
    Load {
        foreign: busy.saturating_sub(own) as f64 / total,
        steal: b.steal.saturating_sub(a.steal) as f64 / total,
    }
}

/// A meter returning the share of all CPU time the hypervisor stole since
/// its previous reading (since its creation, at the first); 0 where the
/// CPU counters cannot be read.
pub fn steal_meter() -> impl FnMut() -> f64 {
    let mut last = ticks();
    move || {
        let now = ticks();
        let share = match (last, now) {
            (Some(a), Some(b)) => load_between(a, b).steal,
            _ => 0.0,
        };
        last = now;
        share
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Milliseconds to roll a 7-byte window and an FNV hash over `data`.
fn compute_kernel(data: &[u8]) -> f64 {
    let t = Instant::now();
    let (mut roll, mut h, mut chunks) = (0u32, 0x811c_9dc5u32, 0u64);
    for i in 0..data.len() {
        let b = u32::from(data[i]);
        roll = roll
            .wrapping_add(b)
            .wrapping_sub(u32::from(data[i.saturating_sub(7)]));
        h = (h ^ b).wrapping_mul(0x0100_0193);
        if roll % 64 == 63 {
            chunks = chunks.wrapping_add(u64::from(h));
            h = 0x811c_9dc5;
        }
    }
    black_box(chunks);
    t.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds per dependent load through `next`, one cycle over the table.
fn chase_kernel(next: &[u32]) -> f64 {
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_HOPS {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e9 / CHASE_HOPS as f64
}

/// A table whose successor links form one cycle through every entry in a
/// scrambled order (Sattolo's shuffle).
fn chase_table(rng: &mut ChaCha8Rng, entries: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..entries as u32).collect();
    for i in (1..entries).rev() {
        order.swap(i, rng.gen_range(0..i));
    }
    let mut next = vec![0u32; entries];
    for w in 0..entries {
        next[order[w] as usize] = order[(w + 1) % entries];
    }
    next
}

/// Both kernels on `threads` threads at once; per-thread medians.
fn kernels(threads: usize) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x686f_7374);
    let mut data = vec![0u8; COMPUTE_BYTES];
    rng.fill_bytes(&mut data);
    let table = chase_table(&mut rng, CHASE_ENTRIES);
    let (mut compute, mut chase) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let c: Vec<f64> = (0..KERNEL_REPS).map(|_| compute_kernel(&data)).collect();
                    let p: Vec<f64> = (0..KERNEL_REPS).map(|_| chase_kernel(&table)).collect();
                    (c, p)
                })
            })
            .collect();
        for h in handles {
            if let Ok((c, p)) = h.join() {
                compute.extend(c);
                chase.extend(p);
            }
        }
    });
    (median(&compute), median(&chase))
}

/// The host's record over one run.
pub struct Probe {
    threads: usize,
    start: Option<Ticks>,
    compute_ms: Vec<f64>,
    chase_ns: Vec<f64>,
}

impl Probe {
    /// Wait for a quiet host, time the kernels on `threads` threads, and
    /// start counting CPU time.
    pub fn start(threads: usize) -> Self {
        let waited = Instant::now();
        loop {
            let before = ticks();
            std::thread::sleep(QUIET_WINDOW);
            let load = match (before, ticks()) {
                (Some(a), Some(b)) => load_between(a, b),
                _ => break, // no CPU counters: nothing to wait for
            };
            if load.foreign <= QUIET_SHARE {
                break;
            }
            if waited.elapsed().as_secs_f64() >= QUIET_WAIT_S {
                eprintln!(
                    "perfbench: host still busy after {QUIET_WAIT_S} s (foreign {:.2} of all CPU time); measuring anyway",
                    load.foreign
                );
                break;
            }
        }
        let waited_s = waited.elapsed().as_secs_f64();
        let (compute, chase) = kernels(threads);
        eprintln!(
            "perfbench: host at start: waited {waited_s:.1} s for quiet, load average {}, {threads} kernel threads: compute {compute:.3} ms, chase {chase:.2} ns",
            loadavg()
        );
        Self {
            threads,
            start: ticks(),
            compute_ms: vec![compute],
            chase_ns: vec![chase],
        }
    }

    /// Time the kernels again and record the host metrics of the run.
    pub fn finish(mut self, m: &mut Metrics) {
        let load = match (self.start, ticks()) {
            (Some(a), Some(b)) => load_between(a, b),
            _ => Load::default(),
        };
        let (compute, chase) = kernels(self.threads);
        self.compute_ms.push(compute);
        self.chase_ns.push(chase);
        eprintln!(
            "perfbench: host over the run: foreign {:.3}, steal {:.3} of all CPU time, load average {}; kernels at end: compute {compute:.3} ms, chase {chase:.2} ns",
            load.foreign,
            load.steal,
            loadavg()
        );
        m.set("host.foreign_cpu_share", load.foreign);
        m.set("host.steal_share", load.steal);
        m.set("host.compute_kernel_ms", median(&self.compute_ms));
        m.set("host.chase_kernel_ns", median(&self.chase_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_split_into_busy_steal_and_total() {
        let stat = "cpu  100 5 20 800 10 3 2 7 0 0\ncpu0 50 2 10 400 5 1 1 3 0 0\n";
        assert_eq!(parse_stat(stat), Some((130, 7, 947)));
        // A command name with spaces and a parenthesis does not shift fields.
        let own = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 17 4 0 0 20 0 3";
        assert_eq!(parse_self_stat(own), Some(21));
    }

    #[test]
    fn foreign_load_excludes_this_process() {
        let a = Ticks {
            busy: 100,
            steal: 0,
            total: 1000,
            own: 40,
        };
        let b = Ticks {
            busy: 250,
            steal: 10,
            total: 1200,
            own: 140,
        };
        let load = load_between(a, b);
        assert!((load.foreign - 0.25).abs() < 1e-12);
        assert!((load.steal - 0.05).abs() < 1e-12);
    }

    #[test]
    fn the_chase_table_is_one_cycle_through_every_entry() {
        let next = chase_table(&mut ChaCha8Rng::seed_from_u64(1), 1000);
        let mut seen = vec![false; next.len()];
        let mut at = 0;
        for _ in 0..next.len() {
            assert!(!seen[at]);
            seen[at] = true;
            at = next[at] as usize;
        }
        assert_eq!(at, 0);
        assert!(seen.iter().all(|&s| s));
    }
}
