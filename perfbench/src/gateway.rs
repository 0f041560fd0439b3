//! `gateway_stream`: job-launch checks arriving independently at a
//! batching gateway. The held-out split is prehashed at set-up; one client
//! connection talks to an in-process `Gateway` on loopback, which fronts
//! two `ShardWorker`s holding a round-robin class partition each.
//!
//! The client is a writer thread sending `wire::score_request_bytes`
//! frames on schedule and a reader thread matching replies, merging each
//! into a dense row, and applying the forest vote and threshold.

use crate::harness::{self, Args, Ladder, Ring, TracedRun, TRACE_PASSES};
use crate::layers::{self, Trace};
use crate::openloop::{wait_until, RateRun};
use crate::report::Metrics;
use crate::setup::{same_prediction, same_row};
use crate::stats::median;
use crate::Outcome;
use fhc::backend::round_robin_partition;
use fhc::serving::{Prediction, TrainedClassifier};
use fhc::shardnet::gateway::serve_client;
use fhc::shardnet::wire::{self, Frame};
use fhc::shardnet::{Endpoint, Gateway, GatewayOptions, ShardWorker};
use fhc::similarity::ReferenceSet;
use fhc::{PreparedSampleFeatures, SampleFeatures};
use hpcutil::par_map_indexed;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per closed-loop burst (pipelined on the one connection).
pub const BATCH: usize = 64;

/// Open-loop rates and p99 limit.
pub const LADDER: Ladder = Ladder {
    rates: [150.0, 250.0, 350.0],
    limit_ms: 80.0,
};

/// Shard workers behind the gateway.
const WORKERS: usize = 2;
/// How long the client waits for any one reply before giving the rest up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
const PEER: &str = "gateway";

/// Two shard workers and a gateway on loopback, each serving exactly one
/// connection, plus the client's connection to the gateway. Dropping the
/// stack closes the client connection, which winds down the gateway and
/// then the workers; every thread is joined.
struct Stack {
    client: TcpStream,
    threads: Vec<JoinHandle<()>>,
    n_columns: usize,
}

/// Accept one connection on `listener` and hand it to `serve`.
fn serve_one(
    listener: TcpListener,
    name: &str,
    serve: impl FnOnce(TcpStream, String) + Send + 'static,
) -> Result<JoinHandle<()>, String> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            if let Ok((stream, peer)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                serve(stream, peer.to_string());
            }
        })
        .map_err(|e| format!("cannot spawn {name}: {e}"))
}

fn loopback() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("loopback address: {e}"))?
        .to_string();
    Ok((listener, addr))
}

impl Stack {
    fn start(reference: Arc<ReferenceSet>) -> Result<Self, String> {
        let mut threads = Vec::new();
        let mut endpoints = Vec::new();
        for classes in round_robin_partition(reference.n_classes(), WORKERS) {
            let (listener, addr) = loopback()?;
            endpoints.push(Endpoint::Tcp(addr));
            let worker = ShardWorker::new(Arc::clone(&reference), classes)
                .map_err(|e| format!("shard worker: {e}"))?;
            threads.push(serve_one(listener, "bench-shard", move |stream, peer| {
                let _ = worker.serve_connection(stream, &peer);
            })?);
        }
        let n_columns = reference.n_columns();
        let fingerprint = reference.fingerprint();
        let gateway = Gateway::connect(reference, &endpoints, GatewayOptions::default())
            .map_err(|e| format!("gateway connect: {e}"))?;
        let (listener, addr) = loopback()?;
        threads.push(serve_one(
            listener,
            "bench-gateway",
            move |stream, peer| {
                if let Ok(reader) = stream.try_clone() {
                    let _ = serve_client(&gateway, reader, &stream, &peer);
                }
                let _ = stream.shutdown(Shutdown::Both);
            },
        )?);
        let client = TcpStream::connect(&addr).map_err(|e| format!("dial gateway: {e}"))?;
        client.set_nodelay(true).map_err(|e| e.to_string())?;
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let stack = Self {
            client,
            threads,
            n_columns,
        };
        match Frame::read_from(&mut &stack.client, PEER) {
            Ok(Frame::Hello(hello))
                if hello.fingerprint == fingerprint && hello.n_columns == n_columns =>
            {
                Ok(stack)
            }
            Ok(other) => Err(format!("unexpected gateway handshake {other:?}")),
            Err(e) => Err(format!("gateway handshake: {e}")),
        }
    }

    fn send(&self, id: u64, query: &PreparedSampleFeatures) -> Result<(), String> {
        wire::write_raw_frame(
            &mut &self.client,
            &wire::score_request_bytes(id, query),
            PEER,
        )
        .map_err(|e| format!("send: {e}"))
    }

    /// Read one reply: `Ok(Some((id, row)))` for a score, `Ok(None)` for a
    /// shed request, `Err` when the connection failed.
    fn receive(&self) -> Result<(u64, Option<Vec<f64>>), String> {
        match Frame::read_from(&mut &self.client, PEER) {
            Ok(Frame::ScoreResponse(response)) => {
                let mut row = vec![0.0; self.n_columns];
                for (column, score) in response.cells {
                    *row.get_mut(column as usize)
                        .ok_or("reply column out of range")? = score;
                }
                Ok((response.id, Some(row)))
            }
            Ok(Frame::Overload(overload)) => Ok((overload.id, None)),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = self.client.shutdown(Shutdown::Both);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One reply as the client saw it.
enum Reply {
    /// Scored: the merged row and the vote over it.
    Scored(Vec<f64>, Prediction),
    /// Shed by admission control.
    Shed,
    /// Lost with the connection.
    Lost,
}

/// Whether a scored reply to request `i` (cycling through the held-out
/// split) carries the in-process row.
fn matches(expected: &[Vec<f64>], i: usize, row: &[f64]) -> bool {
    same_row(row, &expected[i % expected.len()])
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    harness::zero_per_layer(&mut m);
    let (fx, (queries, stack)) = harness::fixture_setup(args.seed, &mut m, |fx| {
        let queries: Vec<PreparedSampleFeatures> = par_map_indexed(
            fx.held_out.len(),
            fx.classifier.serving_config().parallel(),
            |i| PreparedSampleFeatures::prepare(&SampleFeatures::extract(&fx.held_out[i].1)),
        );
        let stack = Stack::start(fx.classifier.reference_shared())?;
        Ok((queries, stack))
    })?;
    let classifier = &fx.classifier;
    // Correctness oracle, untimed: the in-process indexed rows.
    let expected = classifier
        .backend()
        .try_feature_rows_prepared(&queries)
        .map_err(|e| format!("in-process rows failed: {e}"))?;
    let queries = Ring::new(queries, BATCH);
    let n = queries.len();

    let mut state = Client {
        predicted: vec![None; n],
        next_id: 1 << 40,
        ..Client::default()
    };
    let (closed, runs) = harness::measure(
        args,
        &LADDER,
        &mut state,
        |k| {
            let first = k * BATCH;
            burst(
                &stack,
                classifier,
                queries.window(first, BATCH),
                first as u64,
            )
        },
        |c: &mut Client, k, replies| {
            let first = k * BATCH;
            c.out.attempted += BATCH as u64;
            for (j, reply) in replies.into_iter().enumerate() {
                match reply {
                    Reply::Scored(row, vote) if matches(&expected, first + j, &row) => {
                        c.predicted[(first + j) % n].get_or_insert(vote.eval_label);
                    }
                    Reply::Scored(..) => {
                        c.out.mismatches += 1;
                        c.out.failed += 1;
                    }
                    Reply::Shed => {
                        c.sheds += 1;
                        c.out.failed += 1;
                    }
                    Reply::Lost => c.out.failed += 1,
                }
            }
            BATCH
        },
        |c: &mut Client, rate, due| {
            let id = c.next_id;
            c.next_id += due.len() as u64;
            let stream = open_loop(&stack, classifier, &queries, &expected, rate, due, id)?;
            c.out.mismatches += stream.mismatches;
            c.sheds += stream.sheds;
            if rate == LADDER.rates[0] {
                c.rtt_r1_us.extend(stream.rtt_us);
            }
            Ok(stream.run)
        },
        crate::host::steal_meter(),
    )?;
    let Client {
        mut out,
        predicted,
        sheds,
        rtt_r1_us,
        ..
    } = state;
    closed.record(&mut m)?;
    let predicted: Vec<usize> = predicted.into_iter().map(|p| p.unwrap_or(0)).collect();
    fx.record_macro_f1(&predicted, &mut m);
    out.add_runs(&runs);
    LADDER.record(&runs, &mut m)?;
    m.set("shardnet.sheds", sheds as f64);

    if args.trace {
        let workers: Vec<ShardWorker> =
            round_robin_partition(classifier.reference().n_classes(), WORKERS)
                .into_iter()
                .map(|classes| ShardWorker::new(classifier.reference_shared(), classes))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("shard worker: {e}"))?;
        let traced = traced_passes(classifier, &workers, queries.base(), &expected)?;
        traced.record(&mut m)?;
        let per_query_us = |s: f64| s * 1e6 / traced.trace.queries.max(1) as f64;
        let encode_us = per_query_us(traced.trace.wire_s);
        let score_us = per_query_us(traced.trace.rows_s);
        let rtt_us = median(&rtt_r1_us);
        m.set("shardnet.wire.encode_us", encode_us);
        m.set("shardnet.worker.score_us", score_us);
        m.set("shardnet.rtt_p50_us.r1", rtt_us);
        m.set("shardnet.hop_us", rtt_us - score_us - encode_us);
        crate::record_candidates(classifier, queries.base(), &mut m)?;
    }
    out.metrics = m;
    drop(stack);
    Ok(out)
}

/// Send `batch` back to back, then read every reply and vote on it.
fn burst(
    stack: &Stack,
    classifier: &TrainedClassifier,
    batch: &[PreparedSampleFeatures],
    id: u64,
) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(batch.len());
    for (j, query) in batch.iter().enumerate() {
        if let Err(e) = stack.send(id + j as u64, query) {
            eprintln!("perfbench: {e}");
            return batch.iter().map(|_| Reply::Lost).collect();
        }
    }
    for j in 0..batch.len() {
        match stack.receive() {
            Ok((got, Some(row))) if got == id + j as u64 => {
                let vote = layers::vote(classifier, &row);
                replies.push(Reply::Scored(row, vote));
            }
            Ok((got, None)) if got == id + j as u64 => replies.push(Reply::Shed),
            other => {
                if let Err(e) = other {
                    eprintln!("perfbench: {e}");
                }
                replies.resize_with(batch.len(), || Reply::Lost);
                break;
            }
        }
    }
    replies
}

/// The client's tallies over a run.
#[derive(Default)]
struct Client {
    out: Outcome,
    /// Per held-out sample, the first label it was voted correctly with.
    predicted: Vec<Option<usize>>,
    sheds: u64,
    /// Request id of the next open-loop request; closed-loop bursts use
    /// ids below it.
    next_id: u64,
    /// Round trips at r1, send to reply, microseconds.
    rtt_r1_us: Vec<f64>,
}

/// What one open-loop rate produced beyond its [`RateRun`].
struct Stream {
    run: RateRun,
    rtt_us: Vec<f64>,
    sheds: u64,
    mismatches: u64,
}

/// Offer requests due at `due` (seconds from the start): the writer sends
/// each on its due time, the reader times each reply from the request's
/// due time. `rate` labels the run.
fn open_loop(
    stack: &Stack,
    classifier: &TrainedClassifier,
    queries: &Ring<PreparedSampleFeatures>,
    expected: &[Vec<f64>],
    rate: f64,
    due: &[f64],
    first_id: u64,
) -> Result<Stream, String> {
    let n = due.len();
    let sent_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let received = AtomicUsize::new(0);
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut lag_ms = Vec::with_capacity(n);
            let mut backlog = Vec::with_capacity(n);
            for i in 0..n {
                wait_until(now, due[i]);
                let t = now();
                lag_ms.push((t - due[i]) * 1e3);
                backlog.push(i + 1 - received.load(Ordering::SeqCst).min(i + 1));
                sent_at[i].store(t.to_bits(), Ordering::SeqCst);
                if let Err(e) = stack.send(first_id + i as u64, &queries.window(i, 1)[0]) {
                    eprintln!("perfbench: {e}");
                    break;
                }
            }
            (lag_ms, backlog)
        });
        let reader = scope.spawn(|| {
            let mut s = Stream {
                run: RateRun {
                    rate,
                    attempted: n,
                    ..RateRun::default()
                },
                rtt_us: Vec::with_capacity(n),
                sheds: 0,
                mismatches: 0,
            };
            let mut answered = 0;
            while answered < n {
                let (id, reply) = match stack.receive() {
                    Ok(reply) => reply,
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        break;
                    }
                };
                let t = now();
                answered += 1;
                received.store(answered, Ordering::SeqCst);
                let i = match id.checked_sub(first_id) {
                    Some(i) if (i as usize) < n => i as usize,
                    _ => {
                        eprintln!("perfbench: reply for unknown request {id}");
                        break;
                    }
                };
                match reply {
                    Some(row) => {
                        std::hint::black_box(layers::vote(classifier, &row));
                        if matches(expected, i, &row) {
                            s.run.latency_ms.push((t - due[i]) * 1e3);
                            s.rtt_us.push(
                                (t - f64::from_bits(sent_at[i].load(Ordering::SeqCst))) * 1e6,
                            );
                        } else {
                            s.mismatches += 1;
                        }
                    }
                    None => s.sheds += 1,
                }
            }
            s.run.failed = n - s.run.latency_ms.len();
            s
        });
        let (lag_ms, backlog) = writer
            .join()
            .map_err(|_| "writer thread panicked".to_string())?;
        let mut stream = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        stream.run.lag_ms = lag_ms;
        stream.run.backlog = backlog;
        Ok(stream)
    })
}

/// The gateway path composed in process under the serving pool: encode
/// the request frame, score each shard's partial row, merge, vote. Every
/// merged row must equal the in-process indexed row.
fn traced_passes(
    classifier: &TrainedClassifier,
    workers: &[ShardWorker],
    batch: &[PreparedSampleFeatures],
    expected: &[Vec<f64>],
) -> Result<TracedRun, String> {
    let parallel = classifier.serving_config().parallel();
    let n_columns = classifier.reference().n_columns();
    let compose = |i: usize, trace: Option<&mut Trace>| {
        let mut clock = trace.map(|t| (t, Instant::now()));
        let mut lap = |slot: fn(&mut Trace) -> &mut f64| {
            if let Some((t, last)) = clock.as_mut() {
                let now = Instant::now();
                *slot(t) += now.duration_since(*last).as_secs_f64();
                *last = now;
            }
        };
        std::hint::black_box(wire::score_request_bytes(i as u64, &batch[i]));
        lap(|t| &mut t.wire_s);
        let mut row = vec![0.0; n_columns];
        for worker in workers {
            for (column, score) in worker.partial_row(worker.classes(), &batch[i]) {
                row[column as usize] = score;
            }
        }
        lap(|t| &mut t.rows_s);
        let vote = layers::vote(classifier, &row);
        lap(|t| &mut t.forest_s);
        (row, vote)
    };
    let mut run = TracedRun {
        threads: parallel.effective_threads(batch.len()),
        ..TracedRun::default()
    };
    for _ in 0..TRACE_PASSES {
        let t = Instant::now();
        let plain = par_map_indexed(batch.len(), parallel, |i| compose(i, None));
        run.untraced_wall_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let walked = par_map_indexed(batch.len(), parallel, |i| {
            let mut trace = Trace {
                queries: 1,
                ..Trace::default()
            };
            let composed = compose(i, Some(&mut trace));
            (composed, trace)
        });
        run.traced_wall_s.push(t.elapsed().as_secs_f64());
        for (i, ((row, vote), trace)) in walked.into_iter().enumerate() {
            if !matches(expected, i, &row) || !same_prediction(&vote, &plain[i].1) {
                return Err(format!(
                    "composed gateway row of query {i} diverged from the in-process row"
                ));
            }
            run.trace += trace;
        }
    }
    Ok(run)
}
