//! The unified region driver: one schedule-pop → tuple-level phase →
//! ordered-commit loop for every run, batch or streaming, with or without
//! worker threads.
//!
//! Before this module existed the repo implemented the ProgXe region loop
//! twice — a sequential loop inside `executor.rs` and a parallel one in the
//! `progxe-runtime` crate — with divergent hot paths. [`RegionDriver`]
//! collapses them: the loop lives here exactly once, and every popped
//! region takes one of two paths, decided in one place by its join-pair
//! bound against [`ProgXeConfig::prefilter_min_pairs`](crate::config::ProgXeConfig):
//!
//! * **stream** (below the gate, and every streaming-ingestion region) —
//!   the committer thread joins the region straight into the cell store,
//!   skipping batch materialization;
//! * **batch** (at or above the gate) — [`RegionCtx::compute`] joins, maps
//!   and runs the bounded local skyline pre-filter. With a [`TaskSpawner`]
//!   (the `progxe-runtime` crate implements it for its shared thread pool)
//!   batches run on workers inside a bounded dispatch window; without one
//!   they run in place, one region per step.
//!
//! ```text
//!             ┌─ stream: join into the cell store on this thread ─┐
//! schedule ───┤                                                   ├─▶ commit
//!             └─ batch:  worker or in place ─▶ reorder buffer ────┘  in pop order
//! ```
//!
//! Both paths share [`Committer`] — the single-threaded owner of the cell
//! store, the region schedule, and Algorithm 2's blocker bookkeeping —
//! and commit strictly in pop order. All emission decisions flow through
//! it, which is what keeps progressive output safe (no false positives or
//! negatives) and deterministic no matter who computed the batches.

use crate::benefit;
use crate::cells::CellStore;
use crate::cost::CostModel;
use crate::elgraph::ElGraph;
use crate::executor::Prepared;
use crate::lookahead::Region;
use crate::progdetermine::{EmittedCell, ProgDetermine};
use crate::progorder::ProgOrderQueue;
use crate::session::{CancellationToken, ResultEvent, SessionStep};
use crate::stats::{ExecStats, ResultTuple};
use crate::tuple_level::{RegionBatch, RegionCtx};
use progxe_obs::{Point, Span, Trace};
use progxe_skyline::Order;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Cell-visit cap for ProgCount scans on oversized region boxes.
const PROG_COUNT_VISIT_CAP: u64 = 4_096;

/// Immutable context needed to (re)rank a region.
struct RankCtx<'c> {
    regions: &'c [Region],
    store: &'c CellStore,
    det: &'c ProgDetermine,
    sigma: f64,
    cost_model: &'c CostModel,
}

/// ProgOrder state: EL-graph, priority queue, and the lazy-rank machinery.
struct OrderedSchedule {
    graph: ElGraph,
    queue: ProgOrderQueue,
    rank_cache: Vec<f64>,
    dirty: Vec<bool>,
    requeue_budget: Vec<u8>,
}

impl OrderedSchedule {
    fn rank_of(&mut self, rid: u32, ctx: &RankCtx<'_>) -> f64 {
        let region = &ctx.regions[rid as usize];
        let b = benefit::benefit(region, ctx.store, ctx.det, ctx.sigma, PROG_COUNT_VISIT_CAP);
        let c = ctx
            .cost_model
            .region_cost(region, ctx.store.grid())
            .max(1.0);
        let rank = b / c;
        self.rank_cache[rid as usize] = rank;
        rank
    }
}

/// Region-ordering policy state, stepped one region at a time.
enum RegionSchedule {
    /// The paper's ProgOrder (Algorithm 1): rank = Benefit / Cost over
    /// EL-Graph roots, with lazy rank refresh.
    Ordered(OrderedSchedule),
    /// A precomputed order (Random or Fifo policies).
    Static { order: Vec<u32>, pos: usize },
}

/// Outcome of one schedule-pop attempt (see [`Committer::pop_gated`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped {
    /// The next region to work on, marked dispatched.
    Region(u32),
    /// The schedule's next region exists but its input is not ready yet
    /// (streaming ingestion only): nothing was popped, and the *same*
    /// region will be offered again once its cells seal. Stalling — rather
    /// than skipping to a ready region — is what keeps the commit sequence,
    /// and with it the emission order, independent of the arrival schedule.
    Stalled,
    /// Nothing is dispatchable: all regions are resolved or in flight.
    Exhausted,
}

impl RegionSchedule {
    /// Picks the next region to dispatch. `dispatched` marks regions handed
    /// out but not yet resolved — without a spawner it always equals the
    /// resolved set, but a driver with one keeps a window of them in
    /// flight. Returns [`Popped::Exhausted`] when nothing is dispatchable
    /// *right now* (either all regions are dispatched/resolved, or —
    /// ProgOrder with a root-free cyclic component — every pending region
    /// is in flight).
    ///
    /// `ready` is the streaming-ingestion readiness gate: when it rejects
    /// the region the schedule would hand out next, the pop *stalls* — the
    /// schedule state is left so the identical region is offered again on
    /// the next call. Order preservation under the gate is what makes
    /// streaming emission bit-identical to the all-at-once run.
    fn next_region(
        &mut self,
        ctx: &RankCtx<'_>,
        stats: &mut ExecStats,
        dispatched: &[bool],
        ready: Option<&dyn Fn(u32) -> bool>,
    ) -> Popped {
        let is_ready = |rid: u32| ready.is_none_or(|f| f(rid));
        match self {
            RegionSchedule::Static { order, pos } => {
                let Some(rid) = order.get(*pos).copied() else {
                    return Popped::Exhausted;
                };
                if !is_ready(rid) {
                    return Popped::Stalled;
                }
                *pos += 1;
                Popped::Region(rid)
            }
            RegionSchedule::Ordered(sched) => {
                if sched.graph.unresolved() == 0 {
                    return Popped::Exhausted;
                }
                loop {
                    match sched.queue.pop_entry() {
                        Some((rid, _))
                            if sched.graph.is_resolved(rid) || dispatched[rid as usize] =>
                        {
                            continue
                        }
                        Some((rid, entry_rank)) => {
                            // Benefit recomputation is the expensive part of
                            // ordering (a box scan per region). To keep the
                            // paper's "ordering overhead is negligible"
                            // property, ranks are refreshed *lazily*:
                            // affected regions are only marked dirty
                            // (Algorithm 1 line 13 in spirit), and the
                            // recompute happens when the region reaches the
                            // top of the queue — with a small re-queue
                            // budget per region so dense elimination graphs
                            // cannot trigger quadratic rescans.
                            let mut rank = entry_rank;
                            if sched.dirty[rid as usize] && sched.requeue_budget[rid as usize] > 0 {
                                sched.dirty[rid as usize] = false;
                                sched.requeue_budget[rid as usize] -= 1;
                                let fresh = sched.rank_of(rid, ctx);
                                if fresh < entry_rank * 0.999 {
                                    // Demoted: let a better region go first.
                                    sched.queue.push(rid, fresh);
                                    continue;
                                }
                                rank = fresh;
                            }
                            if !is_ready(rid) {
                                // Park the winner at its settled rank; the
                                // refresh bookkeeping above already ran, so
                                // re-offering it later is a pure re-pop.
                                sched.queue.update(rid, rank);
                                return Popped::Stalled;
                            }
                            return Popped::Region(rid);
                        }
                        None => {
                            let pending = sched.graph.pending();
                            // An empty queue with regions *in flight* is not
                            // the cyclic-component case — the real EL-roots
                            // are simply uncommitted. Hand out nothing and
                            // let the committer land a batch, which either
                            // pushes new roots or ends the run.
                            if pending.iter().any(|&rid| dispatched[rid as usize]) {
                                return Popped::Exhausted;
                            }
                            // Cyclic component with no root (DESIGN.md §5.2):
                            // pick the best pending region by cached rank —
                            // O(regions), no box scans.
                            let best = pending.into_iter().max_by(|&a, &b| {
                                sched.rank_cache[a as usize]
                                    .total_cmp(&sched.rank_cache[b as usize])
                                    .then_with(|| b.cmp(&a))
                            });
                            let Some(best) = best else {
                                return Popped::Exhausted;
                            };
                            if !is_ready(best) {
                                // The deterministic fallback choice stalls
                                // like any other pop: picking a different
                                // pending region instead would make the
                                // commit order arrival-dependent.
                                return Popped::Stalled;
                            }
                            stats.ordering_fallbacks += 1;
                            return Popped::Region(best);
                        }
                    }
                }
            }
        }
    }

    /// Records a resolution: new EL-graph roots enter the queue, regions
    /// whose benefit may have changed are marked dirty.
    fn on_resolved(&mut self, rid: u32, ctx: &RankCtx<'_>) {
        if let RegionSchedule::Ordered(sched) = self {
            let (new_roots, affected) = sched.graph.resolve(rid);
            for root in new_roots {
                let rank = sched.rank_of(root, ctx);
                sched.queue.push(root, rank);
            }
            for region in affected {
                if sched.queue.contains(region) {
                    sched.dirty[region as usize] = true;
                }
            }
        }
    }
}

/// How emitted `(r, t)` tuple ids map back to the caller's row ids.
///
/// The batch pipeline inserts *filtered-source* row ids into the cell
/// store and translates them through the push-through survivor tables on
/// emission; the streaming-ingestion pipeline inserts caller row ids
/// directly, so no table exists.
#[derive(Debug)]
pub(crate) enum RowIds {
    /// Emitted ids are already the caller's (streaming ingestion).
    Identity,
    /// Translate through filtered→original row tables (batch pipeline).
    Table {
        /// Original R row id per filtered row.
        r: Vec<u32>,
        /// Original T row id per filtered row.
        t: Vec<u32>,
    },
}

impl RowIds {
    #[inline]
    fn map_r(&self, i: u32) -> u32 {
        match self {
            RowIds::Identity => i,
            RowIds::Table { r, .. } => r[i as usize],
        }
    }

    #[inline]
    fn map_t(&self, i: u32) -> u32 {
        match self {
            RowIds::Identity => i,
            RowIds::Table { t, .. } => t[i as usize],
        }
    }
}

/// The single-threaded back half of the region loop: owns the cell store,
/// the region schedule, and Algorithm 2's blocker bookkeeping.
///
/// Every region goes through exactly one of three commit paths — all of
/// which resolve it and may release proven-final cells as a
/// [`ResultEvent`]:
///
/// * [`discard_dead`](Self::discard_dead) — the region box was already
///   fully dominated when it was popped; no tuple work at all;
/// * [`process_and_commit`](Self::process_and_commit) — streaming path
///   (regions below the pre-filter gate): the join inserts directly into
///   the cell store;
/// * [`commit_batch`](Self::commit_batch) — batch path: apply a
///   [`RegionBatch`], whether a pool worker computed it or the driver did
///   in place.
///
/// Drivers **must** commit batches in the order the regions were popped
/// from [`pop_next`](Self::pop_next); combined with the cancellation-token
/// discipline this makes emission deterministic regardless of worker
/// interleaving.
pub struct Committer {
    /// The query's live regions (shared with the compute side's context).
    regions: Arc<[Region]>,
    /// Emitted-id translation (push-through survivor tables, or identity).
    row_ids: RowIds,
    store: CellStore,
    det: ProgDetermine,
    orders: Vec<Order>,
    schedule: RegionSchedule,
    sigma: f64,
    cost_model: CostModel,
    /// Regions handed out by `pop_next` (superset of resolved).
    dispatched: Vec<bool>,
    resolved: usize,
    total_regions: usize,
    emitted_buf: Vec<EmittedCell>,
    started: Instant,
    /// The session's trace handle (disabled unless a recorder was wired in
    /// at prepare time). Commit-side events are recorded here; the driver
    /// and pool workers clone it for their own spans.
    trace: Trace,
}

/// Everything a pipeline front end (the executor's `prepare`, or the
/// streaming-ingestion setup) hands over to build a [`Committer`].
/// Crate-internal: external callers receive the committer ready-made inside
/// [`Prepared`].
pub(crate) struct CommitterParts {
    pub regions: Arc<[Region]>,
    pub out_dims: usize,
    pub row_ids: RowIds,
    pub store: CellStore,
    pub det: ProgDetermine,
    pub orders: Vec<Order>,
    pub sigma: f64,
    pub cost_model: CostModel,
    pub started: Instant,
    pub trace: Trace,
}

impl Committer {
    /// Assembles a committer over prepared pipeline state, building the
    /// region schedule for the configured ordering policy.
    pub(crate) fn new(parts: CommitterParts, ordering: crate::config::OrderingPolicy) -> Self {
        use crate::config::OrderingPolicy;
        let total_regions = parts.regions.len();
        let schedule = match ordering {
            OrderingPolicy::ProgOrder => {
                let mut ordered = OrderedSchedule {
                    graph: ElGraph::build(&parts.regions, parts.out_dims),
                    queue: ProgOrderQueue::new(total_regions),
                    rank_cache: vec![0.0; total_regions],
                    dirty: vec![false; total_regions],
                    requeue_budget: vec![3; total_regions],
                };
                let ctx = RankCtx {
                    regions: &parts.regions,
                    store: &parts.store,
                    det: &parts.det,
                    sigma: parts.sigma,
                    cost_model: &parts.cost_model,
                };
                for root in ordered.graph.roots() {
                    let rank = ordered.rank_of(root, &ctx);
                    ordered.queue.push(root, rank);
                }
                RegionSchedule::Ordered(ordered)
            }
            OrderingPolicy::Random { seed } => {
                let mut order: Vec<u32> = (0..total_regions as u32).collect();
                crate::executor::shuffle(&mut order, seed);
                RegionSchedule::Static { order, pos: 0 }
            }
            OrderingPolicy::Fifo => RegionSchedule::Static {
                order: (0..total_regions as u32).collect(),
                pos: 0,
            },
        };
        Self {
            regions: parts.regions,
            row_ids: parts.row_ids,
            store: parts.store,
            det: parts.det,
            orders: parts.orders,
            schedule,
            sigma: parts.sigma,
            cost_model: parts.cost_model,
            dispatched: vec![false; total_regions],
            resolved: 0,
            total_regions,
            emitted_buf: Vec::new(),
            started: parts.started,
            trace: parts.trace,
        }
    }

    /// The instant the pipeline started (zero point of event timestamps).
    pub fn started_at(&self) -> Instant {
        self.started
    }

    /// The session's trace handle (cheap to clone; disabled when no
    /// recorder was attached).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Regions not yet resolved.
    pub fn unresolved(&self) -> usize {
        self.total_regions - self.resolved
    }

    /// Upper bound on the region's join work: `n_R · n_T` of its partition
    /// pair. The driver gates the local-skyline pre-filter on this.
    /// Streaming-ingestion regions carry zero counts (sizes are unknowable
    /// before arrival), so they always take the streaming-insert path.
    pub fn pair_bound(&self, rid: u32) -> u64 {
        let region = &self.regions[rid as usize];
        u64::from(region.n_r) * u64::from(region.n_t)
    }

    /// Picks the next region to work on, marking it dispatched. `None`
    /// means nothing is dispatchable right now — which is final when
    /// nothing is in flight, but may become `Some` again after in-flight
    /// regions commit (new EL-graph roots appear).
    pub fn pop_next(&mut self, stats: &mut ExecStats) -> Option<u32> {
        match self.pop_gated(stats, None) {
            Popped::Region(rid) => Some(rid),
            Popped::Stalled | Popped::Exhausted => None,
        }
    }

    /// [`pop_next`](Self::pop_next) with a readiness gate: when `ready`
    /// rejects the region the schedule would hand out, the pop returns
    /// [`Popped::Stalled`] and the schedule is left positioned on that same
    /// region. The streaming-ingestion driver stalls until watermarks or a
    /// source close seal the region's input cells; order preservation under
    /// the gate keeps emission identical to the all-at-once run.
    pub fn pop_gated(
        &mut self,
        stats: &mut ExecStats,
        ready: Option<&dyn Fn(u32) -> bool>,
    ) -> Popped {
        let _span = self.trace.span(Span::RegionPop);
        let ctx = RankCtx {
            regions: &self.regions,
            store: &self.store,
            det: &self.det,
            sigma: self.sigma,
            cost_model: &self.cost_model,
        };
        let popped = self
            .schedule
            .next_region(&ctx, stats, &self.dispatched, ready);
        if let Popped::Region(rid) = popped {
            debug_assert!(!self.dispatched[rid as usize], "region {rid} popped twice");
            self.dispatched[rid as usize] = true;
        }
        if matches!(popped, Popped::Stalled) {
            self.trace.point(Point::Stall);
        }
        popped
    }

    /// Whether the region's whole output box is fully dominated by results
    /// committed so far (Algorithm 1, line 9) — its tuple work can be
    /// skipped entirely.
    pub fn region_box_is_dead(&self, rid: u32) -> bool {
        self.store
            .region_is_dead(&self.regions[rid as usize].cell_lo)
    }

    /// Resolves a dead region without tuple-level work.
    pub fn discard_dead(&mut self, rid: u32, stats: &mut ExecStats) -> Option<ResultEvent> {
        stats.regions_discarded_dead += 1;
        self.resolve(rid, stats)
    }

    /// Streaming path: joins the region through `run` (which inserts
    /// directly into the cell store), then resolves it. Returns `None` when
    /// the token fired mid-region — the insert set is partial, so the
    /// region is left *unresolved* (emitting from it could produce false
    /// positives) and the run counts as cancelled.
    ///
    /// `run` is the compute half supplied by the driver's work source —
    /// the [`RegionCtx`] streaming insert for the batch pipeline, the
    /// sealed-partition join for streaming ingestion — and must report
    /// `(counters, completed)` exactly like
    /// [`crate::tuple_level::process_region`].
    pub fn process_and_commit<F>(
        &mut self,
        rid: u32,
        stats: &mut ExecStats,
        run: F,
    ) -> Option<Option<ResultEvent>>
    where
        F: FnOnce(&mut CellStore) -> (crate::tuple_level::TupleLevelStats, bool),
    {
        let span = self.trace.span(Span::TuplePhase {
            region_id: u64::from(rid),
            pairs: self.pair_bound(rid),
        });
        let compute_started = Instant::now();
        let (tl, completed) = run(&mut self.store);
        let compute_elapsed = compute_started.elapsed();
        span.end();
        stats.tuple_time += compute_elapsed;
        stats.region_latency.record(compute_elapsed);
        stats.join_pairs_evaluated += tl.pairs_examined;
        stats.join_matches += tl.matches;
        if !completed {
            stats.cancelled = true;
            return None;
        }
        stats.regions_processed += 1;
        Some(self.resolve(rid, stats))
    }

    /// Batch path: applies one computed batch. The region box is re-checked
    /// against results committed in the meantime (a region dispatched early
    /// may be dead by the time its batch lands), then the surviving tuples
    /// go through the same cell-restricted dominance insert the streaming
    /// path uses, and the region resolves.
    ///
    /// # Panics
    /// Debug-asserts that the batch completed; committing a partial batch
    /// would break Principle 1.
    pub fn commit_batch(
        &mut self,
        batch: RegionBatch,
        stats: &mut ExecStats,
    ) -> Option<ResultEvent> {
        debug_assert!(batch.completed, "partial batches must not be committed");
        let span = self.trace.span(Span::Commit {
            region_id: u64::from(batch.rid),
        });
        let commit_started = Instant::now();
        stats.region_latency.record(batch.compute_time);
        stats.tuple_time += batch.compute_time;
        stats.join_pairs_evaluated += batch.stats.pairs_examined;
        stats.join_matches += batch.stats.matches;
        stats.dominance_tests += batch.stats.local_dominance_tests;
        // The local pre-filter runs entirely on the batched kernels.
        stats.dominance_pairs += batch.stats.local_dominance_tests;
        stats.fdom_vertex_evals += batch.stats.fdom_vertex_evals;
        stats.tuples_prefiltered += batch.stats.locally_pruned;
        if self.region_box_is_dead(batch.rid) {
            stats.regions_discarded_dead += 1;
        } else {
            stats.regions_processed += 1;
            for (i, &(r, t)) in batch.ids.iter().enumerate() {
                self.store.insert(r, t, batch.points.point(i));
            }
        }
        let event = self.resolve(batch.rid, stats);
        let commit_elapsed = commit_started.elapsed();
        span.end();
        stats.commit_time += commit_elapsed;
        stats.commit_latency.record(commit_elapsed);
        event
    }

    /// Resolves one dispatched region: blocker bookkeeping, schedule
    /// update, and conversion of released cells into a [`ResultEvent`].
    fn resolve(&mut self, rid: u32, stats: &mut ExecStats) -> Option<ResultEvent> {
        let region = &self.regions[rid as usize];
        self.det
            .resolve_region(region, &mut self.store, &mut self.emitted_buf);
        self.resolved += 1;
        let ctx = RankCtx {
            regions: &self.regions,
            store: &self.store,
            det: &self.det,
            sigma: self.sigma,
            cost_model: &self.cost_model,
        };
        self.schedule.on_resolved(rid, &ctx);
        self.trace.gauge(
            "progress_estimate",
            self.resolved as f64 / self.total_regions.max(1) as f64,
        );

        if self.emitted_buf.is_empty() {
            return None;
        }
        let mut tuples = Vec::new();
        for cell in self.emitted_buf.drain(..) {
            stats.cells_emitted += 1;
            self.trace.point(Point::Emit {
                cell: u64::from(cell.cell_idx),
                n: cell.ids.len() as u64,
                proven_final: true,
            });
            for (i, &(ri, ti)) in cell.ids.iter().enumerate() {
                let oriented = cell.points.point(i);
                let values = self
                    .orders
                    .iter()
                    .zip(oriented)
                    .map(|(o, &v)| o.orient(v))
                    .collect();
                tuples.push(ResultTuple {
                    r_idx: self.row_ids.map_r(ri),
                    t_idx: self.row_ids.map_t(ti),
                    values,
                });
            }
        }
        stats.results_emitted += tuples.len() as u64;
        self.trace.counter("results_emitted", tuples.len() as u64);
        Some(ResultEvent {
            tuples,
            proven_final: true,
            progress_estimate: self.resolved as f64 / self.total_regions.max(1) as f64,
            elapsed: self.started.elapsed(),
        })
    }

    /// Closes the region loop: merges cell-store counters into `stats` and
    /// flags an early stop when regions were left unresolved.
    pub fn finalize(self, stats: &mut ExecStats) {
        let unresolved = self.total_regions - self.resolved;
        if unresolved > 0 {
            stats.cancelled = true;
            stats.regions_skipped = unresolved;
        } else {
            // All regions resolved ⇒ every live cell must have been
            // released.
            debug_assert_eq!(
                self.det.live_cells(),
                0,
                "cells left blocked after all regions resolved"
            );
        }
        let cell_stats = self.store.stats();
        // `+=`: worker-local pre-filter tests were already accumulated.
        stats.dominance_tests += cell_stats.dominance_tests;
        stats.dominance_pairs += cell_stats.dominance_pairs;
        stats.fdom_vertex_evals += cell_stats.fdom_vertex_evals;
        stats.tuples_inserted = cell_stats.tuples_inserted;
        stats.tuples_rejected_dominated = cell_stats.tuples_rejected_dominated;
        stats.tuples_rejected_dead_cell = cell_stats.tuples_rejected_dead_cell;
        stats.tuples_evicted = cell_stats.tuples_evicted;
        stats.comparable_cells_visited = cell_stats.comparable_cells_visited;
        stats.comparable_cells_max = cell_stats.comparable_cells_max;
        stats.tuples_fdom_filtered = cell_stats.tuples_fdom_filtered;
    }
}

/// Typed rejection from [`TaskSpawner::spawn_task`]: the spawner has shut
/// down and the job was **not** (and never will be) run. The region driver
/// treats this as a cancellation signal for the whole session — the pinned
/// behavior when an engine runtime is shut down under a live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnError;

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("task spawner is shut down; job was not run")
    }
}

impl std::error::Error for SpawnError {}

/// Something that can run `'static` jobs on worker threads. The
/// `progxe-runtime` crate implements this for its shared thread pool and
/// for the engine runtime that spawns that pool lazily; keeping the trait
/// here lets [`RegionDriver`] stay pool-agnostic while the whole region
/// loop lives in one place.
pub trait TaskSpawner: Send + Sync + std::fmt::Debug {
    /// Worker count behind the spawner — sizes the dispatch window.
    fn threads(&self) -> usize;

    /// The spawner one session dispatches through, from its first job to
    /// its end. A session calls this only when it first hands a region to
    /// a worker (so a run that never does spawns nothing) and holds the
    /// result for the rest of its life: a lazily-spawning runtime returns
    /// its current pool here, which keeps that pool — and the jobs already
    /// queued on it — alive even if the runtime shuts it down meanwhile.
    fn pin(self: Arc<Self>) -> Arc<dyn TaskSpawner>;

    /// Enqueues a job for execution on some worker thread, or returns
    /// [`SpawnError`] if the spawner has shut down. `Ok` is a contract:
    /// an accepted job runs (and thus reports) exactly once.
    fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError>;
}

/// Reorder buffer between workers and the committer: a `Mutex`/`Condvar`
/// channel keyed by dispatch sequence number.
struct ResultQueue {
    slots: Mutex<BTreeMap<u64, RegionBatch>>,
    ready: Condvar,
}

impl ResultQueue {
    fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, seq: u64, batch: RegionBatch) {
        let mut slots = self.slots.lock().expect("result queue poisoned");
        slots.insert(seq, batch);
        drop(slots);
        self.ready.notify_all();
    }

    /// Blocks until the batch for `seq` arrives. Every dispatched job is
    /// guaranteed to push exactly one entry (a [`DeliveryGuard`] reports
    /// even on worker panic), so this cannot deadlock.
    fn wait_take(&self, seq: u64) -> RegionBatch {
        let mut slots = self.slots.lock().expect("result queue poisoned");
        loop {
            if let Some(batch) = slots.remove(&seq) {
                return batch;
            }
            slots = self.ready.wait(slots).expect("result queue poisoned");
        }
    }

    /// Takes the batch for `seq` only if it has already been delivered.
    /// Used by the cancelled-run scavenge, which must never block on the
    /// shared pool.
    fn try_take(&self, seq: u64) -> Option<RegionBatch> {
        self.slots
            .lock()
            .expect("result queue poisoned")
            .remove(&seq)
    }
}

/// Ensures a dispatched work unit always reports: if the job unwinds before
/// delivering, `Drop` pushes an aborted batch so the committer wakes up and
/// treats the run as failed instead of deadlocking.
struct DeliveryGuard {
    queue: Arc<ResultQueue>,
    seq: u64,
    rid: u32,
    dims: usize,
    delivered: bool,
}

impl DeliveryGuard {
    fn deliver(mut self, batch: RegionBatch) {
        self.delivered = true;
        self.queue.push(self.seq, batch);
    }
}

impl Drop for DeliveryGuard {
    fn drop(&mut self) {
        if !self.delivered {
            self.queue
                .push(self.seq, RegionBatch::aborted(self.rid, self.dims));
        }
    }
}

/// Where the driver's tuple-level compute comes from.
pub(crate) enum WorkSource {
    /// The batch pipeline: fully materialized filtered sources
    /// ([`RegionCtx`]). Regions at or above the pre-filter gate are
    /// computed as batches, on a worker when the driver has a spawner.
    Query(Arc<RegionCtx>),
    /// Streaming ingestion: sealed stream partitions behind the shared
    /// ingest state ([`crate::ingest::IngestCtx`]); regions gate on cell
    /// readiness and always stream into the cell store.
    Ingest(Arc<crate::ingest::IngestCtx>),
}

impl WorkSource {
    fn process_into(
        &self,
        rid: u32,
        store: &mut CellStore,
        token: &CancellationToken,
    ) -> (crate::tuple_level::TupleLevelStats, bool) {
        match self {
            WorkSource::Query(ctx) => ctx.process_into(rid, store, token),
            WorkSource::Ingest(ctx) => ctx.process_into(rid, store, token),
        }
    }
}

/// One popped region awaiting its commit, in pop order.
enum Slot {
    /// Streams into the cell store on the committer thread when it
    /// reaches the head of the queue.
    Stream(u32),
    /// A batch computed by a worker (or in place, without a spawner),
    /// delivered to the reorder buffer under this dispatch sequence number.
    Batch(u64),
}

/// Outcome of one [`RegionDriver::poll_next`] call.
#[derive(Debug)]
pub enum DriverPoll {
    /// A batch of proven-final results.
    Event(ResultEvent),
    /// Streaming ingestion only: the next scheduled region's input cells
    /// are not sealed yet — push more rows, advance a watermark, or close a
    /// source, then poll again.
    Stalled,
    /// The run is over (all regions resolved, or cancelled).
    Finished,
}

/// Internal outcome of one scheduling round.
enum Advance {
    /// Work happened (events may be queued); poll again.
    Progressed,
    /// Readiness-gated schedule is waiting for input (ingestion only).
    Stalled,
    /// Schedule exhausted or cancelled mid-region.
    Finished,
}

/// The one region-execution loop of the codebase, behind a
/// [`QuerySession`](crate::session::QuerySession) via [`SessionStep`] (batch
/// pipeline) or polled directly by an
/// [`IngestSession`](crate::ingest::IngestSession) (streaming pipeline).
///
/// Owns a [`Committer`] and advances the region loop, queueing a
/// [`ResultEvent`] whenever a resolution releases proven-final cells. Owns
/// no borrows: all query state was copied/`Arc`ed during
/// [`ProgXe::prepare`](crate::executor::ProgXe::prepare) (or the ingest
/// setup).
pub struct RegionDriver {
    start: Instant,
    token: CancellationToken,
    stats: ExecStats,
    committer: Option<Committer>,
    /// Runs batch regions on worker threads; `None` computes them in place.
    /// Replaced by its [`TaskSpawner::pin`]ned form on the first dispatch.
    spawner: Option<Arc<dyn TaskSpawner>>,
    work: Option<WorkSource>,
    /// Join-pair bound at which a region switches from streaming insert to
    /// batch compute + local skyline pre-filter.
    prefilter_min_pairs: u64,
    queue: Arc<ResultQueue>,
    /// Popped, not yet committed regions, oldest first.
    inflight: VecDeque<Slot>,
    next_seq: u64,
    /// Dispatch-window size: 1 without a spawner; `2 × threads` with one —
    /// enough to keep workers busy while the committer blocks on the oldest
    /// batch, small enough to bound batch memory and stay close to the
    /// schedule's intent.
    window: usize,
    ready: VecDeque<ResultEvent>,
    done: bool,
    /// Clone of the committer's trace handle, used for driver-side events
    /// (batch compute spans, cancellation).
    trace: Trace,
    /// Whether the `cancel` point was already recorded (once per session).
    cancel_noted: bool,
}

impl RegionDriver {
    /// Builds the driver over a prepared pipeline. Regions whose join-pair
    /// bound is below `prefilter_min_pairs` (from
    /// [`ProgXeConfig`](crate::config::ProgXeConfig)) stream into the cell
    /// store on the calling thread; the others are computed as batches with
    /// the local pre-filter — on `spawner`'s workers when there is one.
    pub fn new(
        prep: Prepared,
        token: CancellationToken,
        spawner: Option<Arc<dyn TaskSpawner>>,
        prefilter_min_pairs: usize,
    ) -> Self {
        let work = prep.ctx.map(WorkSource::Query);
        // `usize::MAX` is the documented "filter disabled" sentinel; map it
        // to `u64::MAX` explicitly so a 32-bit `usize::MAX` (2^32−1, which
        // real pair bounds can exceed) still disables the filter.
        let prefilter_min_pairs = if prefilter_min_pairs == usize::MAX {
            u64::MAX
        } else {
            prefilter_min_pairs as u64
        };
        Self::from_parts(
            prep.committer,
            work,
            prep.stats,
            prep.started,
            token,
            spawner,
            prefilter_min_pairs,
        )
    }

    /// Builds a readiness-gated driver for streaming ingestion: pops stall
    /// until the ingest state seals the scheduled region's input cells, and
    /// every region streams on the calling thread, one per step.
    pub(crate) fn for_ingest(
        committer: Committer,
        ctx: Arc<crate::ingest::IngestCtx>,
        stats: ExecStats,
        started: Instant,
        token: CancellationToken,
    ) -> Self {
        Self::from_parts(
            Some(committer),
            Some(WorkSource::Ingest(ctx)),
            stats,
            started,
            token,
            None,
            u64::MAX,
        )
    }

    fn from_parts(
        committer: Option<Committer>,
        work: Option<WorkSource>,
        stats: ExecStats,
        started: Instant,
        token: CancellationToken,
        spawner: Option<Arc<dyn TaskSpawner>>,
        prefilter_min_pairs: u64,
    ) -> Self {
        let window = spawner
            .as_ref()
            .map_or(1, |s| s.threads().saturating_mul(2).max(1));
        let done = committer.is_none();
        let trace = committer
            .as_ref()
            .map(|c| c.trace().clone())
            .unwrap_or_default();
        Self {
            start: started,
            token,
            stats,
            committer,
            spawner,
            work,
            prefilter_min_pairs,
            queue: Arc::new(ResultQueue::new()),
            inflight: VecDeque::new(),
            next_seq: 0,
            window,
            ready: VecDeque::new(),
            done,
            trace,
            cancel_noted: false,
        }
    }

    /// Pulls the next driver outcome: an event, a stall (gated runs only),
    /// or the end of the run. The streaming-ingestion session polls this
    /// directly; [`SessionStep::next_event`] wraps it for batch sessions.
    pub fn poll_next(&mut self) -> DriverPoll {
        loop {
            if self.token.is_cancelled() {
                if !self.cancel_noted {
                    self.cancel_noted = true;
                    self.trace.point(Point::Cancel);
                }
                return DriverPoll::Finished;
            }
            if let Some(event) = self.ready.pop_front() {
                return DriverPoll::Event(event);
            }
            if self.done {
                return DriverPoll::Finished;
            }
            match self.advance() {
                Advance::Progressed => continue,
                Advance::Stalled => return DriverPoll::Stalled,
                Advance::Finished => self.done = true,
            }
        }
    }

    /// One deterministic scheduling round: top the window up with popped
    /// regions, then — unless a dead-region discard already produced a
    /// deliverable event — commit the oldest one. A region below the
    /// pre-filter gate is queued to stream on this thread and ends the
    /// top-up, so with nothing in flight it runs at once; a region at or
    /// above it is computed as a batch, on a worker when there is a
    /// spawner. Commits follow pop order on every path, so the emitted
    /// sequence is a pure function of the query and its configuration.
    /// Gated (ingestion) runs stall when the scheduled region's input is
    /// not sealed yet.
    fn advance(&mut self) -> Advance {
        let Some(committer) = self.committer.as_mut() else {
            return Advance::Finished;
        };
        let work = self
            .work
            .as_ref()
            .expect("a committer implies a work source");
        let ready_gate: Option<Box<dyn Fn(u32) -> bool>> = match work {
            WorkSource::Ingest(ctx) => {
                let ctx = Arc::clone(ctx);
                Some(Box::new(move |rid| ctx.is_ready(rid)))
            }
            WorkSource::Query(_) => None,
        };
        let mut stalled = false;
        while self.inflight.len() < self.window {
            let rid = match committer.pop_gated(&mut self.stats, ready_gate.as_deref()) {
                Popped::Region(rid) => rid,
                Popped::Stalled => {
                    stalled = true;
                    break;
                }
                Popped::Exhausted => break,
            };
            if committer.region_box_is_dead(rid) {
                if let Some(event) = committer.discard_dead(rid, &mut self.stats) {
                    // Deliver the released cells before touching the next
                    // region; the next round resumes the top-up.
                    self.ready.push_back(event);
                    return Advance::Progressed;
                }
                continue;
            }
            let ctx = match work {
                WorkSource::Query(ctx) if committer.pair_bound(rid) >= self.prefilter_min_pairs => {
                    ctx
                }
                _ => {
                    self.inflight.push_back(Slot::Stream(rid));
                    break;
                }
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let ctx = Arc::clone(ctx);
            let token = self.token.clone();
            let queue = Arc::clone(&self.queue);
            let dims = ctx.maps().out_dims();
            let trace = self.trace.clone();
            let pairs = committer.pair_bound(rid);
            let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                let guard = DeliveryGuard {
                    queue,
                    seq,
                    rid,
                    dims,
                    delivered: false,
                };
                // Declared after the guard so an unwinding compute still
                // closes the span *before* the aborted batch is delivered
                // (drop order is reverse declaration).
                let span = trace.span(Span::TuplePhase {
                    region_id: u64::from(rid),
                    pairs,
                });
                let batch = ctx.compute(rid, &token);
                span.end();
                guard.deliver(batch);
            });
            let spawned = match self.spawner.take() {
                Some(spawner) => {
                    let spawner = spawner.pin();
                    let spawned = spawner.spawn_task(job);
                    self.spawner = Some(spawner);
                    spawned
                }
                None => {
                    job();
                    Ok(())
                }
            };
            if spawned.is_err() {
                // The spawner shut down under this live session (e.g.
                // `EngineRuntime::shutdown` closed the shared pool). The
                // rejected job never reports, so waiting on `seq` would
                // deadlock; instead the run cancels: fire the token so
                // earlier accepted jobs abort at their next check, and let
                // `finalize` scavenge whatever they already delivered. The
                // session surfaces this exactly like a user cancel —
                // `stats.cancelled`.
                progxe_obs::log::warn(
                    "task spawner shut down under a live session; cancelling the run",
                );
                self.token.cancel();
                self.stats.cancelled = true;
                return Advance::Finished;
            }
            self.inflight.push_back(Slot::Batch(seq));
        }
        if !self.ready.is_empty() {
            // Deliver discard-produced events before blocking on a worker.
            return Advance::Progressed;
        }
        let event = match self.inflight.pop_front() {
            None if stalled => return Advance::Stalled,
            None => return Advance::Finished,
            Some(Slot::Stream(rid)) if committer.region_box_is_dead(rid) => {
                // Batches committed since the pop may have killed it.
                committer.discard_dead(rid, &mut self.stats)
            }
            Some(Slot::Stream(rid)) => {
                let token = &self.token;
                match committer.process_and_commit(rid, &mut self.stats, |store| {
                    work.process_into(rid, store, token)
                }) {
                    Some(event) => event,
                    None => return Advance::Finished, // cancelled mid-region
                }
            }
            Some(Slot::Batch(seq)) => {
                let batch = self.queue.wait_take(seq);
                if !batch.completed {
                    // An incomplete batch has exactly two causes. If the
                    // shared token fired, this is an ordinary cancellation:
                    // the region stays unresolved and the run ends
                    // cancelled, never emitting from partial state.
                    // Otherwise the worker died (a panicking mapping
                    // function) and the DeliveryGuard reported for it —
                    // propagate, matching an in-place compute, instead of
                    // disguising a crash as a user-initiated cancel.
                    if !self.token.is_cancelled() {
                        panic!(
                            "progxe worker panicked while computing region {} \
                             (see stderr for the worker's panic message)",
                            batch.rid
                        );
                    }
                    Self::absorb_partial_batch(&mut self.stats, &batch);
                    self.stats.cancelled = true;
                    return Advance::Finished;
                }
                committer.commit_batch(batch, &mut self.stats)
            }
        };
        if let Some(event) = event {
            self.ready.push_back(event);
        }
        Advance::Progressed
    }

    /// Folds the work counters of a batch that will never be committed
    /// (token fired mid-region) into the run stats. The streaming path
    /// records its partial work the same way inside
    /// [`Committer::process_and_commit`]; skipping it here would
    /// under-report a cancelled run's actual cost.
    fn absorb_partial_batch(stats: &mut ExecStats, batch: &RegionBatch) {
        stats.tuple_time += batch.compute_time;
        stats.join_pairs_evaluated += batch.stats.pairs_examined;
        stats.join_matches += batch.stats.matches;
        // Today both filter counters are 0 on an incomplete batch (the
        // local filter only runs after a completed join); absorbed anyway
        // so the helper stays field-for-field consistent with commit_batch.
        stats.dominance_tests += batch.stats.local_dominance_tests;
        stats.dominance_pairs += batch.stats.local_dominance_tests;
        stats.fdom_vertex_evals += batch.stats.fdom_vertex_evals;
        stats.tuples_prefiltered += batch.stats.locally_pruned;
    }
}

impl SessionStep for RegionDriver {
    /// Pulls the next event, stepping the region loop as needed.
    fn next_event(&mut self) -> Option<ResultEvent> {
        match self.poll_next() {
            DriverPoll::Event(event) => Some(event),
            DriverPoll::Finished => None,
            DriverPoll::Stalled => {
                // Unreachable through QuerySession: only ingest drivers are
                // gated, and they are polled directly via `poll_next`.
                debug_assert!(false, "ungated driver stalled");
                None
            }
        }
    }

    fn stats_snapshot(&self) -> ExecStats {
        let mut stats = self.stats.clone();
        stats.total_time = self.start.elapsed();
        stats
    }

    /// Closes the session: fires the token for any in-flight workers
    /// (their regions are *skipped*, not awaited — abandoned queries must
    /// stop burning shared-pool CPU), merges cell-store counters into the
    /// stats, and flags an early stop (unresolved regions or undelivered
    /// events).
    fn finalize(mut self: Box<Self>) -> ExecStats {
        if !self.inflight.is_empty() {
            self.token.cancel();
        }
        // A `take(k)`-style early finish cancels the token and never polls
        // again, so the poll-loop observation point would miss it.
        if self.token.is_cancelled() && !self.cancel_noted {
            self.cancel_noted = true;
            self.trace.point(Point::Cancel);
        }
        let mut stats = std::mem::take(&mut self.stats);
        // Scavenge whatever in-flight batches have already been delivered:
        // their regions are skipped (never committed), but the work
        // happened and belongs in the cancelled run's counters. Strictly
        // non-blocking — a still-running worker's stats are forfeited
        // rather than stalling finish() behind the shared pool.
        for slot in self.inflight.drain(..) {
            if let Slot::Batch(seq) = slot {
                if let Some(batch) = self.queue.try_take(seq) {
                    Self::absorb_partial_batch(&mut stats, &batch);
                }
            }
        }
        if let Some(committer) = self.committer.take() {
            if !self.ready.is_empty() || committer.unresolved() > 0 {
                stats.cancelled = true;
            }
            committer.finalize(&mut stats);
        }
        stats.total_time = self.start.elapsed();
        stats
    }
}

impl Drop for RegionDriver {
    /// A session dropped without `finish()` must not leave pool workers
    /// computing doomed regions on a *shared* pool: fire the token so
    /// in-flight jobs exit at their next check. The jobs own all the state
    /// they touch (`Arc`s of context, token, and reorder buffer), so no
    /// join is needed.
    fn drop(&mut self) {
        if !self.inflight.is_empty() {
            self.token.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProgXeConfig;
    use crate::executor::ProgXe;
    use crate::mapping::MapSet;
    use crate::session::QuerySession;
    use crate::source::SourceData;
    use progxe_skyline::Preference;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_source(n: usize, dims: usize, keys: u32, seed: u64) -> SourceData {
        let mut s = SourceData::new(dims);
        let mut st = seed;
        let mut row = vec![0.0; dims];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = (lcg(&mut st) % 1000) as f64 / 10.0;
            }
            let k = (lcg(&mut st) % keys as u64) as u32;
            s.push(&row, k);
        }
        s
    }

    /// A minimal spawner: one OS thread per job. Exercises the pooled
    /// code path without depending on the runtime crate.
    #[derive(Debug)]
    struct ThreadPerTask;
    impl TaskSpawner for ThreadPerTask {
        fn threads(&self) -> usize {
            3
        }
        fn pin(self: Arc<Self>) -> Arc<dyn TaskSpawner> {
            self
        }
        fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError> {
            std::thread::spawn(job);
            Ok(())
        }
    }

    fn drive(
        config: &ProgXeConfig,
        r: &SourceData,
        t: &SourceData,
        maps: &MapSet,
        spawner: Option<Arc<dyn TaskSpawner>>,
    ) -> (Vec<(u32, u32)>, ExecStats) {
        let token = CancellationToken::new();
        let prep = ProgXe::new(config.clone())
            .prepare(&r.view(), &t.view(), maps, token.clone())
            .unwrap();
        let driver = RegionDriver::new(prep, token.clone(), spawner, config.prefilter_min_pairs);
        let mut session = QuerySession::stepped("test", token, Box::new(driver));
        let mut ids = Vec::new();
        while let Some(event) = session.next_batch() {
            assert!(event.proven_final);
            ids.extend(event.tuples.iter().map(|x| (x.r_idx, x.t_idx)));
        }
        let stats = session.finish();
        assert!(!stats.cancelled);
        ids.sort_unstable();
        (ids, stats)
    }

    #[test]
    fn inline_streaming_and_batch_paths_agree() {
        let r = random_source(200, 2, 6, 1);
        let t = random_source(200, 2, 6, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let streaming = ProgXeConfig::default().with_prefilter_min_pairs(usize::MAX);
        let batch = ProgXeConfig::default().with_prefilter_min_pairs(0);
        assert_eq!(
            drive(&streaming, &r, &t, &maps, None).0,
            drive(&batch, &r, &t, &maps, None).0,
        );
    }

    #[test]
    fn pooled_backend_matches_inline_through_any_spawner() {
        let r = random_source(180, 2, 5, 3);
        let t = random_source(180, 2, 5, 4);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        for gate in [0, 2_000, usize::MAX] {
            let config = ProgXeConfig::default().with_prefilter_min_pairs(gate);
            let (inline, _) = drive(&config, &r, &t, &maps, None);
            let (pooled, _) = drive(&config, &r, &t, &maps, Some(Arc::new(ThreadPerTask)));
            assert!(!inline.is_empty());
            assert_eq!(inline, pooled, "gate {gate}");
        }
    }

    #[test]
    fn inline_prefilter_prunes_and_counts() {
        // Anti-correlated-ish duplicates in one region: the batch path must
        // report pre-filter work in the stats.
        let r = random_source(300, 2, 2, 5);
        let t = random_source(300, 2, 2, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let config = ProgXeConfig::default().with_prefilter_min_pairs(0);
        let (_, stats) = drive(&config, &r, &t, &maps, None);
        assert!(
            stats.tuples_prefiltered > 0,
            "local pre-filter should prune on dense regions"
        );
    }
}
