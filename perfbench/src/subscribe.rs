//! `serve-subscribe`: an open loop of standing subscriptions over one v2
//! connection, split into a writer (this thread) and a reader thread.
//!
//! The writer follows a schedule fixed before the run starts: one frame
//! per tick at a constant push rate, round-robin over a few subscription
//! slots. A slot opens a subscription, replays one of the run's
//! `synthetic::arrival_feed`s (attribute-sorted with watermarks) push by
//! push, and opens the next subscription when its feed is exhausted. The
//! schedule never waits for the server, so a server that falls behind
//! builds a backlog instead of receiving less load; every latency is timed
//! from the due time of the push that caused it, and a lagging generator
//! or a growing backlog fails the run instead of reporting a latency.
//!
//! Which push caused which `Update` comes from an in-process
//! `StreamingQuery` replay of the same feed, which also pins the wire
//! stream: each subscription's `Update`s must equal the replay's events.

use crate::data::{canon_wire, sub_seed};
use crate::layers::{pool_jobs, report_pool};
use crate::metrics::{Metrics, Outcome, PER_LAYER};
use crate::oneshot::{report_frames, sample_connect};
use crate::stats::{median, median_by, ms, quantile, us, Progress, Samples};
use crate::{repeated_setup, RunSpec};
use progxe_core::config::ProgXeConfig;
use progxe_core::ingest::{IngestPoll, IngestSession, StreamSpec};
use progxe_core::stats::ExecStats;
use progxe_query::plan::plan_streaming;
use progxe_query::{parse_query, Engine, QueryRunner};
use progxe_server::protocol::{BatchFrame, ClientFrame, PushFrame, ServerFrame};
use progxe_server::{synthetic, Client, Server, ServerConfig, ServerHandle, WireTuple};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Size and rate knobs of a subscription run.
#[derive(Debug, Clone)]
pub struct SubscribeParams {
    /// Rows per source in each feed.
    pub feed_rows: usize,
    /// Rows per push.
    pub batch: usize,
    /// Distinct feeds per run; subscriptions cycle through them.
    pub feeds: usize,
    /// Subscriptions open at once.
    pub slots: usize,
    /// Frames the generator sends per second.
    pub rate: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Test hook: alter one wire update before the correctness check.
    pub corrupt: bool,
}

impl SubscribeParams {
    /// The benchmark's size and rate.
    pub fn full() -> Self {
        Self {
            feed_rows: 200,
            batch: 25,
            feeds: 64,
            slots: 4,
            rate: 400.0,
            setups: 21,
            corrupt: false,
        }
    }

    /// A size small enough for the package's tests.
    pub fn tiny() -> Self {
        Self {
            feed_rows: 40,
            batch: 10,
            feeds: 2,
            slots: 2,
            rate: 100.0,
            setups: 2,
            corrupt: false,
        }
    }
}

const DIMS: usize = 2;
/// Feeds the set-up replays unpaced to warm the server.
const WARM_UP_FEEDS: usize = 8;
/// Generator lateness (p99, ms) past which the open loop counts as lagging.
pub const LATE_LIMIT_MS: f64 = 20.0;
/// Client threads: the writer (the calling thread) and the reader.
pub const CLIENT_THREADS: usize = 2;

/// One frame of the fixed send schedule.
struct Send {
    due: Duration,
    frame: ClientFrame,
}

/// One subscription of the schedule.
struct SubPlan {
    sub_id: u64,
    feed: usize,
    /// Index of its `Subscribe` in the schedule.
    subscribe: usize,
    /// Indices of its pushes in the schedule, in feed order.
    pushes: Vec<usize>,
}

/// Lays out the whole open loop before it starts: one frame per tick at
/// `rate`, slot `tick % slots`; no subscription starts after `window`.
/// Slot `s` opens its first subscription `s / slots` of a subscription's
/// length late, so the slots' closing pushes — which carry most of the
/// server's work — are spread evenly instead of arriving back to back.
fn schedule(
    params: &SubscribeParams,
    feeds: &[Vec<PushFrame>],
    sql: &str,
    window: Duration,
) -> (Vec<Send>, Vec<SubPlan>) {
    let tick = Duration::from_secs_f64(1.0 / params.rate);
    let rounds_per_sub = 1 + feeds.iter().map(Vec::len).max().unwrap_or(0);
    let first_round = |slot: usize| slot * rounds_per_sub / params.slots;
    let mut slots: Vec<Option<(usize, usize)>> = vec![None; params.slots];
    let mut sends = Vec::new();
    let mut subs: Vec<SubPlan> = Vec::new();
    for j in 0u32.. {
        let due = tick * j;
        let slot = j as usize % params.slots;
        let round = j as usize / params.slots;
        match slots[slot] {
            None if due < window && round >= first_round(slot) => {
                let sub_id = subs.len() as u64 + 1;
                subs.push(SubPlan {
                    sub_id,
                    feed: subs.len() % feeds.len(),
                    subscribe: sends.len(),
                    pushes: Vec::new(),
                });
                sends.push(Send {
                    due,
                    frame: ClientFrame::Subscribe {
                        sub_id,
                        sql: sql.to_string(),
                    },
                });
                slots[slot] = Some((subs.len() - 1, 0));
            }
            None if due >= window && slots.iter().all(Option::is_none) => break,
            None => {}
            Some((s, next)) => {
                let feed = &feeds[subs[s].feed];
                let mut frame = feed[next].clone();
                frame.sub_id = subs[s].sub_id;
                subs[s].pushes.push(sends.len());
                sends.push(Send {
                    due,
                    frame: ClientFrame::Push(frame),
                });
                slots[slot] = (next + 1 < feed.len()).then_some((s, next + 1));
            }
        }
    }
    (sends, subs)
}

/// A started server, its engine, and the run's feeds.
struct Setup {
    server: ServerHandle,
    engine: Engine,
    feeds: Vec<Vec<PushFrame>>,
}

impl Setup {
    /// Builds the streaming catalog and the feeds, starts the server, and
    /// warms it with unpaced subscriptions over the first few feeds.
    fn build(params: &SubscribeParams, seed: u64, sql: &str) -> Result<Self, String> {
        let feeds: Vec<Vec<PushFrame>> = (0..params.feeds)
            .map(|f| {
                synthetic::arrival_feed(0, params.feed_rows, DIMS, sub_seed(seed, f), params.batch)
            })
            .collect();
        let engine = Engine::progxe_threads(2);
        let server = Server::start(
            QueryRunner::new(synthetic::streaming_catalog(params.feed_rows, DIMS, seed)),
            engine.clone(),
            // Room for connections the server has not yet reaped; the
            // generator itself never holds more than one at a time.
            ServerConfig { max_sessions: 4 },
            "127.0.0.1:0",
        )
        .map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for feed in feeds.iter().take(WARM_UP_FEEDS) {
            client.subscribe(0, sql).map_err(|e| e.to_string())?;
            for frame in feed {
                client.push(frame).map_err(|e| e.to_string())?;
            }
            loop {
                match client.next_server_frame().map_err(|e| e.to_string())? {
                    ServerFrame::SubAccepted { .. } | ServerFrame::Update { .. } => {}
                    ServerFrame::SubDone { done, .. } if !done.cancelled => break,
                    other => return Err(format!("warm-up: unexpected frame {other:?}")),
                }
            }
        }
        Ok(Self {
            server,
            engine,
            feeds,
        })
    }
}

/// What the reader thread saw: every frame with its arrival time.
type Arrivals = Vec<(Duration, ServerFrame)>;

/// Runs the open loop: sends the schedule on time from this thread while
/// a reader thread drains the connection until every subscription's
/// `SubDone`. Returns the actual send times and the arrivals.
fn open_loop(
    addr: std::net::SocketAddr,
    sends: &[Send],
    subs: usize,
) -> Result<(Vec<Duration>, Arrivals), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let (mut writer, mut reader) = client.into_split();
    let origin = Instant::now();
    std::thread::scope(|s| {
        let read = s.spawn(move || -> Result<Arrivals, String> {
            let mut seen = Vec::new();
            let mut done = 0;
            while done < subs {
                let frame = reader
                    .next_server_frame()
                    .map_err(|e| format!("read after {} frames: {e}", seen.len()))?;
                done += usize::from(matches!(frame, ServerFrame::SubDone { .. }));
                seen.push((origin.elapsed(), frame));
            }
            Ok(seen)
        });
        let mut sent = Vec::with_capacity(sends.len());
        let mut failure = None;
        for send in sends {
            if let Some(wait) = send.due.checked_sub(origin.elapsed()) {
                std::thread::sleep(wait);
            }
            if let Err(e) = writer.send(&send.frame) {
                failure = Some(format!("send: {e}"));
                break;
            }
            sent.push(origin.elapsed());
        }
        let arrivals = read.join().expect("reader thread");
        match failure {
            Some(e) => Err(e),
            None => arrivals.map(|a| (sent, a)),
        }
    })
}

/// The in-process replay of one feed.
struct Replay {
    /// Every event, as the frame the server would send, with the index of
    /// the push after which it was polled.
    events: Vec<(usize, BatchFrame)>,
    /// Time from the start of each event's push to the poll returning it.
    latency: Vec<Duration>,
    /// Per push: `push` + `set_watermark` + `close`.
    push_time: Vec<Duration>,
    /// Per push: the `poll` loop until `NeedInput`.
    poll_time: Vec<Duration>,
    wall: Duration,
    stats: ExecStats,
}

/// Feeds `feed` into an in-process `StreamingQuery` on `engine` exactly as
/// the server's push handler does, polling after every push.
fn replay(
    runner: &QueryRunner,
    sql: &str,
    engine: &Engine,
    feed: &[PushFrame],
) -> Result<Replay, String> {
    let started = Instant::now();
    let mut query = runner
        .ingest_session(sql, engine)
        .map_err(|e| e.to_string())?;
    let mut r = Replay {
        events: Vec::new(),
        latency: Vec::new(),
        push_time: Vec::new(),
        poll_time: Vec::new(),
        wall: Duration::ZERO,
        stats: Default::default(),
    };
    let mut complete = false;
    for (p, frame) in feed.iter().enumerate() {
        let pushed = Instant::now();
        let rows: Vec<(&[f64], u32)> = frame
            .rows
            .iter()
            .map(|r| (r.attrs.as_slice(), r.key))
            .collect();
        if !rows.is_empty() {
            query.push(frame.source, &rows).map_err(|e| e.to_string())?;
        }
        if let Some(wm) = &frame.watermark {
            query
                .set_watermark(frame.source, wm)
                .map_err(|e| e.to_string())?;
        }
        if frame.close {
            query.close(frame.source);
        }
        let polled = Instant::now();
        r.push_time.push(polled - pushed);
        loop {
            match query.poll() {
                IngestPoll::Batch(event) => {
                    r.latency.push(pushed.elapsed());
                    r.events.push((p, wire_batch(&event)));
                }
                IngestPoll::NeedInput => break,
                IngestPoll::Complete => {
                    complete = true;
                    break;
                }
            }
        }
        r.poll_time.push(polled.elapsed());
    }
    r.stats = query.finish();
    r.wall = started.elapsed();
    if !complete || r.stats.cancelled {
        return Err("the replayed subscription did not complete".into());
    }
    Ok(r)
}

fn wire_batch(event: &progxe_core::session::ResultEvent) -> BatchFrame {
    BatchFrame {
        progress: event.progress_estimate,
        proven_final: event.proven_final,
        tuples: event
            .tuples
            .iter()
            .map(|t| WireTuple {
                r_idx: t.r_idx,
                t_idx: t.t_idx,
                values: t.values.clone(),
            })
            .collect(),
    }
}

/// Bit-for-bit equality of two batches.
fn same_batch(a: &BatchFrame, b: &BatchFrame) -> bool {
    let tuple_eq = |x: &WireTuple, y: &WireTuple| {
        x.r_idx == y.r_idx
            && x.t_idx == y.t_idx
            && x.values.len() == y.values.len()
            && x.values
                .iter()
                .zip(&y.values)
                .all(|(u, v)| u.to_bits() == v.to_bits())
    };
    a.progress.to_bits() == b.progress.to_bits()
        && a.proven_final == b.proven_final
        && a.tuples.len() == b.tuples.len()
        && a.tuples.iter().zip(&b.tuples).all(|(x, y)| tuple_eq(x, y))
}

/// One subscription's wire transcript.
#[derive(Default)]
struct Transcript {
    accepted: Option<Duration>,
    updates: Vec<(Duration, BatchFrame)>,
    done: Option<(Duration, progxe_server::DoneFrame)>,
    problem: Option<String>,
}

/// Splits the arrivals by subscription, flagging frames out of place.
fn transcripts(
    arrivals: Arrivals,
    frames: &mut Vec<ServerFrame>,
    capture: bool,
) -> BTreeMap<u64, Transcript> {
    let mut by_sub: BTreeMap<u64, Transcript> = BTreeMap::new();
    for (at, frame) in arrivals {
        if capture {
            frames.push(frame.clone());
        }
        match frame {
            ServerFrame::SubAccepted { sub_id, .. } => {
                by_sub.entry(sub_id).or_default().accepted = Some(at)
            }
            ServerFrame::Update { sub_id, batch } => {
                by_sub.entry(sub_id).or_default().updates.push((at, batch))
            }
            ServerFrame::SubDone { sub_id, done } => {
                by_sub.entry(sub_id).or_default().done = Some((at, done))
            }
            ServerFrame::SubError {
                sub_id,
                code,
                message,
            } => {
                by_sub.entry(sub_id).or_default().problem =
                    Some(format!("SubError {code:?}: {message}"));
            }
            other => {
                by_sub.entry(0).or_default().problem = Some(format!("unexpected frame {other:?}"));
            }
        }
    }
    by_sub
}

/// Runs `serve-subscribe`.
pub fn run(params: &SubscribeParams, spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let sql = synthetic::query_sql(DIMS);
    let setup = match repeated_setup(params.setups, || Setup::build(params, spec.seed, &sql)) {
        Ok((setup, seconds)) => {
            out.metrics.set("setup_s", seconds);
            setup
        }
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    measure(params, spec, &setup, &sql, &mut out);
    setup.server.shutdown();
    out
}

/// Per-subscription client-side phases (traced run only).
struct Phases {
    to_accepted: f64,
    accepted_to_first: f64,
    first_to_done: f64,
    wire_gap: f64,
}

/// Runs the open loop, checks it, and reports end-to-end or (traced)
/// per-layer metrics.
fn measure(params: &SubscribeParams, spec: &RunSpec, setup: &Setup, sql: &str, out: &mut Outcome) {
    let addr = setup.server.addr();
    let mut connects = Vec::new();
    for _ in 0..if spec.trace { 10 } else { 0 } {
        match sample_connect(addr) {
            Ok(c) => connects.push(c),
            Err(e) => out.problem(e),
        }
    }
    let jobs_before = pool_jobs();
    let (sends, subs) = schedule(params, &setup.feeds, sql, spec.duration());
    let (sent, arrivals) = match open_loop(addr, &sends, subs.len()) {
        Ok(r) => r,
        Err(e) => {
            out.attempted += subs.len() as u64;
            out.fail(format!("open loop: {e}"));
            return;
        }
    };
    let wall = arrivals.last().map_or(Duration::ZERO, |a| a.0);
    let late_ms: Vec<f64> = sent
        .iter()
        .zip(&sends)
        .map(|(s, p)| ms(s.saturating_sub(p.due)))
        .collect();
    let late_p99 = quantile(&late_ms, 0.99);
    if late_p99 > LATE_LIMIT_MS {
        out.problem(format!(
            "the generator ran late: p99 {late_p99:.2} ms > {LATE_LIMIT_MS} ms"
        ));
    }
    out.record_peak_rss();
    let mut frames = Vec::new();
    let mut by_sub = transcripts(arrivals, &mut frames, spec.trace);
    if let Some(stray) = by_sub.remove(&0) {
        out.problem(
            stray
                .problem
                .unwrap_or_else(|| "frames for sub_id 0".into()),
        );
    }
    let runner = QueryRunner::new(synthetic::streaming_catalog(
        params.feed_rows,
        DIMS,
        spec.seed,
    ));
    let (replays, inline_walls) = match replay_feeds(&runner, sql, &setup.engine, &setup.feeds) {
        Ok(r) => r,
        Err(e) => return out.problem(e),
    };
    if params.corrupt {
        if let Some(t) = by_sub
            .values_mut()
            .flat_map(|t| t.updates.iter_mut())
            .find_map(|u| u.1.tuples.first_mut())
        {
            crate::data::corrupt(&mut t.values);
        }
    }

    let mut samples = Samples::default();
    let mut phases = Vec::new();
    // (due time of the causing push, latency) of every non-empty update.
    let mut attributed: Vec<(Duration, f64)> = Vec::new();
    for sub in &subs {
        out.attempted += 1;
        let t = by_sub.remove(&sub.sub_id).unwrap_or_default();
        let r = &replays[sub.feed];
        if let Err(e) = check_sub(sub, &t, r) {
            out.fail(format!("subscription {}: {e}", sub.sub_id));
            continue;
        }
        let first_due = sends[sub.pushes[0]].due;
        let mut arrivals = Vec::new();
        for ((at, batch), (p, _)) in t.updates.iter().zip(&r.events) {
            if batch.tuples.is_empty() {
                continue;
            }
            let due = sends[sub.pushes[*p]].due;
            let latency = ms(at.saturating_sub(due));
            samples.updates.push((due.as_secs_f64(), latency));
            attributed.push((due, latency));
            arrivals.push((ms(at.saturating_sub(first_due)), batch.tuples.len()));
        }
        let (done_at, done) = t.done.expect("checked");
        let total = ms(done_at.saturating_sub(first_due));
        samples.ops.extend(
            Progress::from_arrivals(&arrivals, total).map(|p| (first_due.as_secs_f64(), p)),
        );
        let subscribed = sent[sub.subscribe];
        let accepted = t.accepted.expect("checked");
        let first = t
            .updates
            .iter()
            .find(|u| !u.1.tuples.is_empty())
            .map_or(done_at, |u| u.0);
        phases.push(Phases {
            to_accepted: ms(accepted.saturating_sub(subscribed)),
            accepted_to_first: ms(first.saturating_sub(accepted)),
            first_to_done: ms(done_at.saturating_sub(first)),
            wire_gap: ms(done_at.saturating_sub(subscribed)) - done.elapsed_us as f64 / 1e3,
        });
    }
    for (sub_id, _) in by_sub {
        out.problem(format!("frames for unscheduled subscription {sub_id}"));
    }
    if let Err(e) = backlog(&attributed, spec.duration()) {
        out.problem(e);
    }
    if !spec.trace {
        samples.report(wall, &mut out.metrics);
        return;
    }

    let mut m = Metrics::default();
    m.set("bench.generator_late_p99_ms", late_p99);
    m.set("server.connect_ms", median(&connects));
    let med = |f: fn(&Phases) -> f64| median_by(&phases, f);
    m.set("server.query_to_accepted_ms", med(|p| p.to_accepted));
    m.set("server.accepted_to_first_ms", med(|p| p.accepted_to_first));
    m.set("server.first_to_done_ms", med(|p| p.first_to_done));
    m.set("server.wire_gap_ms", med(|p| p.wire_gap));
    let replay_latency: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.events.iter().zip(&r.latency))
        .filter(|(e, _)| !e.1.tuples.is_empty())
        .map(|(_, l)| ms(*l))
        .collect();
    m.set(
        "server.push_overhead_ms",
        median(&samples.updates.iter().map(|u| u.1).collect::<Vec<_>>()) - median(&replay_latency),
    );
    if let Err(e) = report_frames(&frames, subs.len(), &mut m) {
        out.problem(e);
    }
    if let Err(e) = front_end(&runner, sql, &mut m) {
        out.problem(e);
    }
    report_replays(&replays, &inline_walls, &mut m);
    report_pool(jobs_before, subs.len() + replays.len(), &mut m);
    m.idle(
        PER_LAYER,
        &[
            "core.replay",
            "core.schedule",
            "core.tuple",
            "core.commit",
            "core.unattributed",
            "flex.",
            "server.overhead",
            "bench.trace_overhead",
            "bench.unattributed",
        ],
    );
    out.metrics = m;
}

/// Replays every feed on the server's engine (the reference each
/// subscription's stream must equal) and on the inline engine, which must
/// emit the same batches. Returns the pooled replays and the inline wall
/// times.
fn replay_feeds(
    runner: &QueryRunner,
    sql: &str,
    engine: &Engine,
    feeds: &[Vec<PushFrame>],
) -> Result<(Vec<Replay>, Vec<Duration>), String> {
    let inline = Engine::progxe_threads(1);
    let mut replays = Vec::new();
    let mut inline_walls = Vec::new();
    for (f, feed) in feeds.iter().enumerate() {
        let p =
            replay(runner, sql, engine, feed).map_err(|e| format!("replay of feed {f}: {e}"))?;
        let i = replay(runner, sql, &inline, feed)
            .map_err(|e| format!("inline replay of feed {f}: {e}"))?;
        // Only the tuple order inside a batch may differ between the two
        // backends (pool workers pre-filter locally).
        let same = p.events.len() == i.events.len()
            && p.events.iter().zip(&i.events).all(|(a, b)| {
                a.0 == b.0
                    && a.1.progress.to_bits() == b.1.progress.to_bits()
                    && canon_wire(&a.1.tuples) == canon_wire(&b.1.tuples)
            });
        if !same {
            return Err(format!("pooled and inline replays of feed {f} differ"));
        }
        replays.push(p);
        inline_walls.push(i.wall);
    }
    Ok((replays, inline_walls))
}

/// Ingest-layer timings, the streaming path's counters, and the runtime
/// ratios, from the in-process replays.
fn report_replays(replays: &[Replay], inline_walls: &[Duration], m: &mut Metrics) {
    let per_push = |f: fn(&Replay) -> &Vec<Duration>, unit: fn(Duration) -> f64| {
        median(
            &replays
                .iter()
                .flat_map(f)
                .map(|d| unit(*d))
                .collect::<Vec<_>>(),
        )
    };
    m.set("ingest.push_us", per_push(|r| &r.push_time, us));
    m.set("ingest.poll_ms", per_push(|r| &r.poll_time, ms));
    let pushes: usize = replays.iter().map(|r| r.push_time.len()).sum();
    let events: usize = replays.iter().map(|r| r.events.len()).sum();
    m.set(
        "ingest.updates_per_push",
        events as f64 / pushes.max(1) as f64,
    );
    let stat = |f: fn(&ExecStats) -> f64| median_by(replays, |r| f(&r.stats));
    m.set("core.join_matches", stat(|s| s.join_matches as f64));
    m.set(
        "core.prefilter_keep_ratio",
        stat(|s| (s.join_matches - s.tuples_prefiltered) as f64 / s.join_matches.max(1) as f64),
    );
    m.set(
        "core.dead_region_ratio",
        stat(|s| s.regions_discarded_dead as f64 / s.regions_created.max(1) as f64),
    );
    m.set("skyline.kernel_pairs", stat(|s| s.dominance_pairs as f64));
    m.set(
        "core.fdom_vertex_evals",
        stat(|s| s.fdom_vertex_evals as f64),
    );
    m.set(
        "runtime.worker_busy_ratio",
        stat(|s| s.tuple_time.as_secs_f64() / (2.0 * s.total_time.as_secs_f64()).max(1e-12)),
    );
    let inline = median(
        &inline_walls
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    );
    m.set(
        "runtime.pooled_over_inline",
        median_by(replays, |r| r.wall.as_secs_f64()) / inline.max(1e-12),
    );
}

/// Checks one subscription's transcript against its feed's replay.
fn check_sub(sub: &SubPlan, t: &Transcript, r: &Replay) -> Result<(), String> {
    if let Some(p) = &t.problem {
        return Err(p.clone());
    }
    let accepted = t.accepted.ok_or("no SubAccepted")?;
    let (done_at, done) = t.done.ok_or("no SubDone")?;
    if t.updates.first().is_some_and(|u| u.0 < accepted)
        || t.updates.last().is_some_and(|u| u.0 > done_at)
    {
        return Err("updates outside SubAccepted..SubDone".into());
    }
    let results: usize = t.updates.iter().map(|u| u.1.tuples.len()).sum();
    if done.cancelled || done.results != results as u64 {
        return Err(format!(
            "SubDone reports cancelled={} results={} after {results} tuples",
            done.cancelled, done.results
        ));
    }
    if t.updates.len() != r.events.len() {
        return Err(format!(
            "{} updates, the replay of feed {} has {}",
            t.updates.len(),
            sub.feed,
            r.events.len()
        ));
    }
    if let Some(k) = t
        .updates
        .iter()
        .zip(&r.events)
        .position(|(w, e)| !same_batch(&w.1, &e.1))
    {
        return Err(format!(
            "update {k} differs from the replay of feed {}",
            sub.feed
        ));
    }
    if results == 0 {
        return Err("the subscription produced no results".into());
    }
    Ok(())
}

/// Flags a backlog: updates caused by pushes due in the last quarter of
/// the window must not wait much longer than those of the first quarter.
fn backlog(attributed: &[(Duration, f64)], window: Duration) -> Result<(), String> {
    let quarter = |lo: f64, hi: f64| {
        let v: Vec<f64> = attributed
            .iter()
            .filter(|(due, _)| {
                (lo..hi).contains(&(due.as_secs_f64() / window.as_secs_f64().max(1e-9)))
            })
            .map(|a| a.1)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    match (quarter(0.0, 0.25), quarter(0.75, 1.0)) {
        (Some(first), Some(last)) if last > 2.0 * first + 5.0 => Err(format!(
            "the backlog grew: update latency p50 {first:.2} ms in the first quarter, {last:.2} ms in the last"
        )),
        _ => Ok(()),
    }
}

/// Times the front end of a subscription: parse, streaming plan, and
/// opening the ingest session (grids and look-ahead over declared bounds).
fn front_end(runner: &QueryRunner, sql: &str, m: &mut Metrics) -> Result<(), String> {
    let mut parse = Vec::new();
    let mut plan = Vec::new();
    let mut prepare = Vec::new();
    let mut regions = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let query = parse_query(sql).map_err(|e| e.to_string())?;
        parse.push(ms(t.elapsed()));
        let t = Instant::now();
        let planned = plan_streaming(&query, runner.catalog()).map_err(|e| e.to_string())?;
        plan.push(ms(t.elapsed()));
        let spec = |lo: &[f64], hi: &[f64]| {
            StreamSpec::new(lo.to_vec(), hi.to_vec()).map_err(|e| e.to_string())
        };
        let (r, t_) = (
            spec(&planned.r.lo, &planned.r.hi)?,
            spec(&planned.t.lo, &planned.t.hi)?,
        );
        let t = Instant::now();
        let session = IngestSession::open(&ProgXeConfig::default(), &planned.compiled.maps, r, t_)
            .map_err(|e| e.to_string())?;
        prepare.push(ms(t.elapsed()));
        regions.push(session.stats_snapshot().regions_created as f64);
    }
    m.set("query.parse_ms", median(&parse));
    m.set("query.plan_ms", median(&plan));
    m.set("core.prepare_ms", median(&prepare));
    m.set("core.regions_created", median(&regions));
    Ok(())
}
