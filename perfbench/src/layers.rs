//! The traced decomposition of one materialized query into its layers.
//!
//! Nothing here is instrumented inside the engine: every layer is timed
//! from outside, around calls into its public entry points — `parse_query`
//! and `plan` (query), `ProgXe::prepare` (core front end), and the region
//! loop replayed through `Committer::{pop_next, region_box_is_dead,
//! discard_dead, commit_batch, finalize}` and `RegionCtx::compute`. The
//! replay drives the batch path for every region, so its untraced twin is
//! an inline session with `prefilter_min_pairs = 0`; the gap between the
//! two is the tracing overhead.

use crate::data::{canon, Canon};
use crate::metrics::Metrics;
use crate::stats::{median_by, ms, Progress};
use progxe_core::config::ProgXeConfig;
use progxe_core::executor::ProgXe;
use progxe_core::session::CancellationToken;
use progxe_core::stats::{ExecStats, ResultTuple};
use progxe_obs::MetricsRegistry;
use progxe_query::plan::plan;
use progxe_query::{parse_query, Engine, PlannedQuery, QueryRunner};
use std::time::{Duration, Instant};

/// How far the replays' layer times may fall short of their wall time, as
/// a share of that wall time, before the split counts as unreconciled.
pub const RECONCILE_TOLERANCE: f64 = 0.02;

/// One query run through a session, timed from before parse to after
/// `finish`.
pub struct QueryRun {
    /// When results arrived.
    pub progress: Progress,
    /// Arrival time of every non-empty batch, ms from the start.
    pub batch_ms: Vec<f64>,
    /// Results in emission order (catalog row ids).
    pub results: Vec<ResultTuple>,
    /// The session's statistics.
    pub stats: ExecStats,
}

/// Parses, plans and runs `sql` on `engine`, pulling every batch.
pub fn run_query(runner: &QueryRunner, sql: &str, engine: &Engine) -> Result<QueryRun, String> {
    let started = Instant::now();
    let planned = runner.prepare(sql).map_err(|e| e.to_string())?;
    let mut session = runner
        .session(&planned, engine)
        .map_err(|e| e.to_string())?;
    let mut arrivals = Vec::new();
    let mut results = Vec::new();
    while let Some(event) = session.next_batch() {
        if event.tuples.is_empty() {
            continue;
        }
        if !event.proven_final {
            return Err("a batch was not proven final".into());
        }
        arrivals.push((ms(started.elapsed()), event.tuples.len()));
        results.extend(event.tuples);
    }
    let stats = session.finish();
    let total = ms(started.elapsed());
    if stats.cancelled {
        return Err("the session ended cancelled".into());
    }
    let progress =
        Progress::from_arrivals(&arrivals, total).ok_or("the query produced no results")?;
    Ok(QueryRun {
        progress,
        batch_ms: arrivals.iter().map(|a| a.0).collect(),
        results,
        stats,
    })
}

/// The layer split of one query.
#[derive(Debug, Default, Clone)]
pub struct Split {
    pub parse: Duration,
    pub plan: Duration,
    pub prepare: Duration,
    pub schedule: Duration,
    pub tuple: Duration,
    pub commit: Duration,
    /// Replay wall time: `prepare` start to `finalize` end.
    pub replay: Duration,
    pub regions_created: usize,
    pub join_matches: u64,
    /// Tuples that survived the local pre-filter and reached commit.
    pub to_commit: u64,
    pub regions_dead: usize,
    pub kernel_pairs: u64,
    pub fdom_vertex_evals: u64,
    /// The untraced twin: an inline session, `prefilter_min_pairs = 0`.
    pub twin: Duration,
    /// Pooled session on the workload's engine.
    pub pooled: Duration,
    /// Σ worker tuple time / (threads × wall) of the pooled session.
    pub worker_busy: f64,
    /// Inline session with the default configuration.
    pub inline: Duration,
    /// Result sets (catalog row ids) of the replay, the pooled and the
    /// inline session, for the reference check.
    pub results: Vec<Vec<Canon>>,
}

impl Split {
    /// Replay wall time the layer timers did not cover.
    pub fn unattributed(&self) -> Duration {
        self.replay
            .saturating_sub(self.prepare + self.schedule + self.tuple + self.commit)
    }
}

/// The replay configuration: the default engine with every region on the
/// batch path (compute + local pre-filter + commit).
fn replay_config() -> ProgXeConfig {
    ProgXeConfig::default().with_prefilter_min_pairs(0)
}

/// Replays the inline region loop of `planned` through the public
/// committer API, timing each layer. Returns the split (without the
/// session timings) and the emitted tuples in planned-source row ids.
fn replay(planned: &PlannedQuery) -> Result<(Split, Vec<ResultTuple>), String> {
    let exec = ProgXe::new(replay_config());
    let token = CancellationToken::new();
    let mut split = Split::default();
    let mut emitted = Vec::new();
    let started = Instant::now();
    let prep = exec
        .prepare(
            &planned.r.view(),
            &planned.t.view(),
            &planned.maps,
            token.clone(),
        )
        .map_err(|e| e.to_string())?;
    split.prepare = started.elapsed();
    let mut stats = prep.stats;
    let (Some(mut committer), Some(ctx)) = (prep.committer, prep.ctx) else {
        return Err("the query prepared to an empty run".into());
    };
    loop {
        let t = Instant::now();
        let Some(rid) = committer.pop_next(&mut stats) else {
            split.schedule += t.elapsed();
            break;
        };
        let dead = committer.region_box_is_dead(rid);
        split.schedule += t.elapsed();
        let event = if dead {
            let t = Instant::now();
            let event = committer.discard_dead(rid, &mut stats);
            split.commit += t.elapsed();
            event
        } else {
            let t = Instant::now();
            let batch = ctx.compute(rid, &token);
            split.tuple += t.elapsed();
            if !batch.completed {
                return Err(format!("region {rid} did not complete"));
            }
            split.join_matches += batch.stats.matches;
            split.to_commit += batch.ids.len() as u64;
            let t = Instant::now();
            let event = committer.commit_batch(batch, &mut stats);
            split.commit += t.elapsed();
            event
        };
        if let Some(event) = event {
            emitted.extend(event.tuples);
        }
    }
    let t = Instant::now();
    committer.finalize(&mut stats);
    split.commit += t.elapsed();
    split.replay = started.elapsed();
    if stats.cancelled {
        return Err("the replay left regions unresolved".into());
    }
    split.regions_created = stats.regions_created;
    split.regions_dead = stats.regions_discarded_dead;
    split.kernel_pairs = stats.dominance_pairs;
    split.fdom_vertex_evals = stats.fdom_vertex_evals;
    Ok((split, emitted))
}

/// Untraced twin of [`replay`]: the same configuration as a plain inline
/// session. Returns its wall time and emitted tuples.
fn twin(planned: &PlannedQuery) -> Result<(Duration, Vec<ResultTuple>), String> {
    let started = Instant::now();
    let session = ProgXe::new(replay_config())
        .session(&planned.r.view(), &planned.t.view(), &planned.maps)
        .map_err(|e| e.to_string())?;
    let out = session.collect();
    let elapsed = started.elapsed();
    if out.stats.cancelled {
        return Err("the twin session ended cancelled".into());
    }
    Ok((elapsed, out.results))
}

/// Maps planned-source row ids back to catalog row ids.
fn to_catalog(planned: &PlannedQuery, tuples: &mut [ResultTuple]) {
    for t in tuples {
        t.r_idx = planned.r_rows[t.r_idx as usize];
        t.t_idx = planned.t_rows[t.t_idx as usize];
    }
}

/// Traces one query: parse, plan, the replayed region loop and its twin,
/// then the pooled (`pooled`) and default inline (`inline`) sessions.
/// Fails when the replay's emitted set differs from its twin's.
pub fn trace_query(
    runner: &QueryRunner,
    sql: &str,
    pooled: &Engine,
    inline: &Engine,
) -> Result<Split, String> {
    let t = Instant::now();
    let query = parse_query(sql).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    let t = Instant::now();
    let planned = plan(&query, runner.catalog()).map_err(|e| e.to_string())?;
    let plan_time = t.elapsed();

    let (mut split, mut replayed) = replay(&planned)?;
    let (twin_time, twin_results) = twin(&planned)?;
    crate::data::same_set(
        "replayed region loop vs its untraced inline twin",
        &canon(&replayed),
        &canon(&twin_results),
    )?;
    to_catalog(&planned, &mut replayed);
    split.parse = parse;
    split.plan = plan_time;
    split.twin = twin_time;

    let threads = pooled.runtime().map_or(1, |r| r.threads());
    let started = Instant::now();
    let p = run_query(runner, sql, pooled)?;
    split.pooled = started.elapsed();
    split.worker_busy = p.stats.tuple_time.as_secs_f64()
        / (threads as f64 * p.stats.total_time.as_secs_f64()).max(1e-12);
    let started = Instant::now();
    let i = run_query(runner, sql, inline)?;
    split.inline = started.elapsed();
    split.results = vec![canon(&replayed), canon(&p.results), canon(&i.results)];
    Ok(split)
}

/// Writes the flexible-skyline query's core split (medians over
/// `splits`) as the `flex.*` metrics.
pub fn report_flex(splits: &[Split], m: &mut Metrics) {
    let med = |f: &dyn Fn(&Split) -> f64| median_by(splits, f);
    m.set("flex.prepare_ms", med(&|s| ms(s.prepare)));
    m.set("flex.replay_ms", med(&|s| ms(s.replay)));
    m.set("flex.tuple_ms", med(&|s| ms(s.tuple)));
    m.set("flex.commit_ms", med(&|s| ms(s.commit)));
    m.set("flex.kernel_pairs", med(&|s| s.kernel_pairs as f64));
    m.set(
        "flex.fdom_vertex_evals",
        med(&|s| s.fdom_vertex_evals as f64),
    );
}

/// Checks the reconciliation of a run's splits: summed over every traced
/// query, the layer times must cover the replays' wall time to within
/// [`RECONCILE_TOLERANCE`]. Summing keeps one preempted region of a
/// millisecond-long query from failing a run whose split is sound.
pub fn reconcile(splits: &[Split]) -> Result<(), String> {
    let gap: f64 = splits.iter().map(|s| s.unattributed().as_secs_f64()).sum();
    let wall: f64 = splits.iter().map(|s| s.replay.as_secs_f64()).sum();
    if gap > RECONCILE_TOLERANCE * wall {
        return Err(format!(
            "layer times leave {:.3} ms of {:.3} ms of replays unattributed (tolerance {}%)",
            gap * 1e3,
            wall * 1e3,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    Ok(())
}

/// Writes the query and core layer metrics (medians over `splits`) and
/// the runtime ratios into `m`.
pub fn report_splits(splits: &[Split], m: &mut Metrics) {
    let med = |f: &dyn Fn(&Split) -> f64| median_by(splits, f);
    m.set("query.parse_ms", med(&|s| ms(s.parse)));
    m.set("query.plan_ms", med(&|s| ms(s.plan)));
    m.set("core.prepare_ms", med(&|s| ms(s.prepare)));
    m.set("core.regions_created", med(&|s| s.regions_created as f64));
    m.set("core.replay_ms", med(&|s| ms(s.replay)));
    m.set("core.schedule_ms", med(&|s| ms(s.schedule)));
    m.set("core.tuple_ms", med(&|s| ms(s.tuple)));
    m.set("core.commit_ms", med(&|s| ms(s.commit)));
    m.set("core.unattributed_ms", med(&|s| ms(s.unattributed())));
    m.set("core.join_matches", med(&|s| s.join_matches as f64));
    m.set(
        "core.prefilter_keep_ratio",
        med(&|s| s.to_commit as f64 / s.join_matches.max(1) as f64),
    );
    m.set(
        "core.dead_region_ratio",
        med(&|s| s.regions_dead as f64 / s.regions_created.max(1) as f64),
    );
    m.set("skyline.kernel_pairs", med(&|s| s.kernel_pairs as f64));
    m.set(
        "core.fdom_vertex_evals",
        med(&|s| s.fdom_vertex_evals as f64),
    );
    m.set("runtime.worker_busy_ratio", med(&|s| s.worker_busy));
    m.set(
        "runtime.pooled_over_inline",
        med(&|s| s.pooled.as_secs_f64() / s.inline.as_secs_f64().max(1e-12)),
    );
    m.set(
        "bench.trace_overhead_pct",
        med(&|s| 100.0 * (s.replay.as_secs_f64() / s.twin.as_secs_f64().max(1e-12) - 1.0)),
    );
    m.set(
        "bench.unattributed_pct",
        med(&|s| 100.0 * s.unattributed().as_secs_f64() / s.replay.as_secs_f64().max(1e-12)),
    );
}

/// Jobs the shared worker pool has run in this process so far.
pub fn pool_jobs() -> u64 {
    MetricsRegistry::global().counter("pool.jobs")
}

/// Writes the pool's queue-wait and run-time medians (process-wide
/// registry histograms, µs) and jobs per query since `jobs_before` into
/// `m`.
pub fn report_pool(jobs_before: u64, queries: usize, m: &mut Metrics) {
    // A worker counts its job just after finishing it; let the last one land.
    std::thread::sleep(Duration::from_millis(20));
    let jobs = pool_jobs() - jobs_before;
    let registry = MetricsRegistry::global();
    let p50 = |name| registry.histogram(name).map_or(0, |h| h.quantile_us(0.5)) as f64;
    m.set("runtime.queue_wait_p50_us", p50("pool.queue_wait"));
    m.set("runtime.run_p50_us", p50("pool.run"));
    m.set(
        "runtime.jobs_per_query",
        jobs as f64 / queries.max(1) as f64,
    );
}
