//! `serve-oneshot`: a closed loop of one connection against an in-process
//! `Server` on `127.0.0.1:0`, sending the next canonical query only after
//! the previous one's `Done` arrived.
//!
//! The catalog holds several `synthetic`-style table pairs (anti-correlated,
//! N = 400, d = 2, σ = 0.5) derived from the seed, and the loop cycles
//! through them. Every wire result set is checked against an in-process
//! run of the same query on the server's engine, and that against JF-SL.

use crate::data::{canon, canon_wire, pareto_sql, register_pair, same_set, sub_seed, Canon};
use crate::layers::{pool_jobs, reconcile, report_pool, report_splits, run_query, trace_query};
use crate::metrics::{Metrics, Outcome, PER_LAYER};
use crate::stats::{median_by, ms, us, Progress, Samples};
use crate::{repeated_setup, RunSpec};
use progxe_query::{Catalog, Engine, QueryRunner};
use progxe_server::protocol::{read_server_frame, write_server_frame};
use progxe_server::{Client, Server, ServerConfig, ServerFrame, ServerHandle, WireTuple};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Size knobs of a one-shot serving run.
#[derive(Debug, Clone)]
pub struct OneshotParams {
    /// Rows per source per table pair.
    pub rows: usize,
    /// Table pairs in the catalog.
    pub pairs: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Test hook: alter one wire result before the correctness check.
    pub corrupt: bool,
}

impl OneshotParams {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            rows: 400,
            pairs: 32,
            setups: 9,
            corrupt: false,
        }
    }

    /// A size small enough for the package's tests.
    pub fn tiny() -> Self {
        Self {
            rows: 60,
            pairs: 2,
            setups: 2,
            corrupt: false,
        }
    }
}

const DIMS: usize = 2;
const SIGMA: f64 = 0.5;
/// Closed-loop connections, one client thread each. One, not two: with
/// two, the client, handler and pool threads outnumber a 2-vCPU host's
/// cores and the run-to-run spread of every latency doubled.
pub const CONNECTIONS: usize = 1;

fn catalog(params: &OneshotParams, seed: u64) -> Catalog {
    let mut cat = Catalog::new();
    for k in 0..params.pairs {
        let names = (format!("R{k}"), format!("T{k}"));
        let pair = (names.0.as_str(), names.1.as_str());
        register_pair(&mut cat, pair, params.rows, DIMS, SIGMA, sub_seed(seed, k));
    }
    cat
}

/// A started server plus the engine it serves with.
struct Setup {
    server: ServerHandle,
    engine: Engine,
}

impl Setup {
    /// Generates the catalog, starts the server, and warms it with one
    /// query per table pair over a throwaway connection.
    fn build(params: &OneshotParams, seed: u64, sqls: &[String]) -> Result<Self, String> {
        let engine = Engine::progxe_threads(2);
        let server = Server::start(
            QueryRunner::new(catalog(params, seed)),
            engine.clone(),
            ServerConfig {
                // The loop's connections, a traced run's sample connection,
                // and slots closed connections have not released yet.
                max_sessions: CONNECTIONS + 3,
            },
            "127.0.0.1:0",
        )
        .map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for sql in sqls {
            wire_query(&mut client, sql, false).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(Self { server, engine })
    }
}

/// One query's client-side record.
struct WireRun {
    progress: Progress,
    batch_ms: Vec<f64>,
    tuples: Vec<WireTuple>,
    accepted_ms: f64,
    /// `Done.elapsed_us`, in ms.
    server_ms: f64,
    /// Every frame received, when asked to capture.
    frames: Vec<ServerFrame>,
}

/// Sends `sql` and reads its stream up to `Done`, timestamping frames.
fn wire_query(client: &mut Client, sql: &str, capture: bool) -> Result<WireRun, String> {
    let started = Instant::now();
    client.send_query(sql).map_err(|e| e.to_string())?;
    let mut accepted_ms = None;
    let mut arrivals = Vec::new();
    let mut tuples = Vec::new();
    let mut frames = Vec::new();
    loop {
        let frame = client.next_server_frame().map_err(|e| e.to_string())?;
        let at = ms(started.elapsed());
        let record = capture.then(|| frame.clone());
        match frame {
            ServerFrame::Accepted { .. } if accepted_ms.is_none() => accepted_ms = Some(at),
            ServerFrame::Batch(batch) if accepted_ms.is_some() => {
                if !batch.proven_final {
                    return Err("a batch was not proven final".into());
                }
                if !batch.tuples.is_empty() {
                    arrivals.push((at, batch.tuples.len()));
                    tuples.extend(batch.tuples);
                }
            }
            ServerFrame::Done(done) if accepted_ms.is_some() => {
                frames.extend(record);
                if done.cancelled || done.results != tuples.len() as u64 {
                    return Err(format!(
                        "Done reports cancelled={} results={} after {} tuples",
                        done.cancelled,
                        done.results,
                        tuples.len()
                    ));
                }
                let progress = Progress::from_arrivals(&arrivals, at)
                    .ok_or("the query produced no results")?;
                return Ok(WireRun {
                    progress,
                    batch_ms: arrivals.iter().map(|a| a.0).collect(),
                    tuples,
                    accepted_ms: accepted_ms.unwrap_or(0.0),
                    server_ms: done.elapsed_us as f64 / 1e3,
                    frames,
                });
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
        frames.extend(record);
    }
}

/// Runs `serve-oneshot`.
pub fn run(params: &OneshotParams, spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let sqls: Vec<String> = (0..params.pairs).map(|k| pareto_sql(DIMS, k)).collect();
    let setup = match repeated_setup(params.setups, || Setup::build(params, spec.seed, &sqls)) {
        Ok((setup, seconds)) => {
            out.metrics.set("setup_s", seconds);
            setup
        }
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    // The in-process reference runs on the same engine over an identical
    // catalog (the server owns the first one).
    let runner = QueryRunner::new(catalog(params, spec.seed));
    if spec.trace {
        traced(params, spec, &setup, &runner, &sqls, &mut out);
    } else {
        timed(params, spec, &setup, &runner, &sqls, &mut out);
    }
    setup.server.shutdown();
    out
}

/// In-process result of every pair on the server's engine: the reference
/// every wire result set must equal. Computed after set-up, before the
/// measured loop.
fn in_process(
    engine: &Engine,
    runner: &QueryRunner,
    sqls: &[String],
) -> Result<Vec<Vec<Canon>>, String> {
    sqls.iter()
        .enumerate()
        .map(|(k, sql)| {
            run_query(runner, sql, engine)
                .map(|r| canon(&r.results))
                .map_err(|e| format!("in-process reference for pair {k}: {e}"))
        })
        .collect()
}

/// Checks the in-process references against plain JF-SL, after the
/// measured loop.
fn cross_check(
    runner: &QueryRunner,
    sqls: &[String],
    reference: &[Vec<Canon>],
) -> Result<(), String> {
    for (k, (sql, mine)) in sqls.iter().zip(reference).enumerate() {
        let jfsl = runner
            .run_collect(sql, &Engine::jfsl_sfs())
            .map_err(|e| format!("JF-SL on pair {k}: {e}"))?;
        same_set(
            &format!("in-process pair {k} vs JF-SL"),
            mine,
            &canon(&jfsl.results),
        )?;
    }
    Ok(())
}

/// The closed loop: end-to-end metrics, then the reference check.
fn timed(
    params: &OneshotParams,
    spec: &RunSpec,
    setup: &Setup,
    runner: &QueryRunner,
    sqls: &[String],
    out: &mut Outcome,
) {
    let reference = match in_process(&setup.engine, runner, sqls) {
        Ok(r) => r,
        Err(e) => return out.problem(e),
    };
    let addr = setup.server.addr();
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CONNECTIONS);
    // Per query: its pair and either its timings or what went wrong. Each
    // wire result set is compared as it arrives, so memory stays flat.
    // Timings are the query's start (s from its thread's loop start), its
    // profile and its batch arrivals.
    type Record = (usize, Result<(f64, Progress, Vec<f64>), String>);
    let collected: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let mut spans = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> Result<(Instant, Instant), String> {
                    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"));
                    barrier.wait();
                    let start = Instant::now();
                    let mut client = client?;
                    let deadline = start + spec.duration();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let k = i % sqls.len();
                        let at = start.elapsed().as_secs_f64();
                        let run = wire_query(&mut client, &sqls[k], false).and_then(|mut run| {
                            if params.corrupt && i == 0 {
                                crate::data::corrupt(&mut run.tuples[0].values);
                            }
                            same_set(
                                &format!("wire query {i} on pair {k}"),
                                &canon_wire(&run.tuples),
                                &reference[k],
                            )?;
                            Ok((at, run.progress, run.batch_ms))
                        });
                        mine.push((k, run));
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    let end = Instant::now();
                    collected
                        .lock()
                        .expect("no client thread panicked")
                        .extend(mine);
                    Ok((start, end))
                })
            })
            .collect();
        for w in workers {
            match w.join().expect("client thread") {
                Ok(span) => spans.push(span),
                Err(e) => out.fail(e),
            }
        }
    });
    let wall = match (
        spans.iter().map(|s| s.0).min(),
        spans.iter().map(|s| s.1).max(),
    ) {
        (Some(start), Some(end)) => end - start,
        _ => Duration::ZERO,
    };
    let mut samples = Samples::default();
    for (k, run) in collected.into_inner().expect("no client thread panicked") {
        out.attempted += 1;
        match run {
            Ok((at, progress, batch_ms)) => {
                samples.ops.push((at, progress));
                samples
                    .updates
                    .extend(batch_ms.into_iter().map(|l| (at, l)));
            }
            Err(e) => out.fail(format!("pair {k}: {e}")),
        }
    }
    samples.report(wall, &mut out.metrics);
    out.record_peak_rss();
    if let Err(e) = cross_check(runner, sqls, &reference) {
        out.problem(e);
    }
}

/// Client-side phase timings of one traced wire query.
struct Phases {
    connect: f64,
    to_accepted: f64,
    accepted_to_first: f64,
    first_to_done: f64,
    wire_gap: f64,
    overhead: f64,
}

/// The traced run: one connection at a time, each iteration sampling a
/// short-lived connect, one wire query with frame timestamps, its
/// in-process twin on the same engine, and the engine layer split.
fn traced(
    params: &OneshotParams,
    spec: &RunSpec,
    setup: &Setup,
    runner: &QueryRunner,
    sqls: &[String],
    out: &mut Outcome,
) {
    let reference = match in_process(&setup.engine, runner, sqls) {
        Ok(r) => r,
        Err(e) => return out.problem(e),
    };
    let addr = setup.server.addr();
    let inline = Engine::progxe_threads(1);
    let mut phases = Vec::new();
    let mut splits = Vec::new();
    let mut frames = Vec::new();
    let mut wire_results: Vec<(usize, Vec<Canon>)> = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("connect: {e}"));
            return;
        }
    };
    let jobs_before = pool_jobs();
    let mut pooled_queries = 0;
    let deadline = Instant::now() + spec.duration();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let k = i % sqls.len();
        i += 1;
        out.attempted += 1;
        let mut iteration = || -> Result<(Phases, crate::layers::Split, WireRun), String> {
            let connect = sample_connect(addr)?;
            let wire = wire_query(&mut client, &sqls[k], true)?;
            let twin = run_query(runner, &sqls[k], &setup.engine)?;
            let split = trace_query(runner, &sqls[k], &setup.engine, &inline)?;
            let p = &wire.progress;
            let phases = Phases {
                connect,
                to_accepted: wire.accepted_ms,
                accepted_to_first: p.first_ms - wire.accepted_ms,
                first_to_done: p.total_ms - p.first_ms,
                wire_gap: p.total_ms - wire.server_ms,
                overhead: p.total_ms - twin.progress.total_ms,
            };
            Ok((phases, split, wire))
        };
        match iteration() {
            Ok((ph, split, wire)) => {
                // The wire query, its twin, and the split's pooled session.
                pooled_queries += 3;
                wire_results.push((k, canon_wire(&wire.tuples)));
                wire_results.extend(split.results.iter().map(|r| (k, r.clone())));
                frames.extend(wire.frames);
                phases.push(ph);
                splits.push(split);
            }
            Err(e) => out.fail(format!("traced query {i} on pair {k}: {e}")),
        }
    }
    drop(client);
    if let Err(e) = reconcile(&splits) {
        out.problem(e);
    }
    let mut m = Metrics::default();
    report_splits(&splits, &mut m);
    report_pool(jobs_before, pooled_queries, &mut m);
    let med = |f: fn(&Phases) -> f64| median_by(&phases, f);
    m.set("server.connect_ms", med(|p| p.connect));
    m.set("server.query_to_accepted_ms", med(|p| p.to_accepted));
    m.set("server.accepted_to_first_ms", med(|p| p.accepted_to_first));
    m.set("server.first_to_done_ms", med(|p| p.first_to_done));
    m.set("server.wire_gap_ms", med(|p| p.wire_gap));
    m.set("server.overhead_ms", med(|p| p.overhead));
    if let Err(e) = report_frames(&frames, phases.len(), &mut m) {
        out.problem(e);
    }
    m.idle(
        PER_LAYER,
        &[
            "flex.",
            "server.push_overhead",
            "ingest.",
            "bench.generator_late",
        ],
    );
    out.metrics = m;

    if params.corrupt {
        if let Some(t) = wire_results.first_mut().and_then(|c| c.1.first_mut()) {
            t.2[0] ^= 1;
        }
    }
    for (k, got) in &wire_results {
        if let Err(e) = same_set(&format!("traced result on pair {k}"), got, &reference[*k]) {
            out.fail(e);
        }
    }
    if let Err(e) = cross_check(runner, sqls, &reference) {
        out.problem(e);
    }
}

/// Time from opening a fresh connection to the server's `Hello`, ms.
pub(crate) fn sample_connect(addr: SocketAddr) -> Result<f64, String> {
    let started = Instant::now();
    let client = Client::connect_v1(addr).map_err(|e| format!("connect sample: {e}"))?;
    let elapsed = ms(started.elapsed());
    drop(client);
    Ok(elapsed)
}

/// Frame costs: re-encodes and decodes `frames` (captured over
/// `operations` queries or subscriptions) with the protocol's own codec,
/// checking that each frame survives the round trip.
pub(crate) fn report_frames(
    frames: &[ServerFrame],
    operations: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    let started = Instant::now();
    for f in frames {
        write_server_frame(&mut bytes, f).map_err(|e| format!("encode: {e}"))?;
    }
    let encode = started.elapsed();
    let mut reader = bytes.as_slice();
    let started = Instant::now();
    let decoded: Vec<ServerFrame> = frames
        .iter()
        .map(|_| read_server_frame(&mut reader))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("decode: {e}"))?;
    let decode = started.elapsed();
    if decoded != frames {
        return Err("a captured frame did not survive an encode/decode round trip".into());
    }
    let n = frames.len().max(1) as f64;
    let ops = operations.max(1) as f64;
    m.set("protocol.bytes_per_query", bytes.len() as f64 / ops);
    m.set("protocol.frames_per_query", frames.len() as f64 / ops);
    m.set("protocol.encode_us_per_frame", us(encode) / n);
    m.set("protocol.decode_us_per_frame", us(decode) / n);
    Ok(())
}
