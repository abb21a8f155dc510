//! The per-engine execution runtime: one lazily-spawned, long-lived
//! [`ThreadPool`] shared by every session of an engine.
//!
//! Per-query spawn/join latency is exactly what a high-QPS serving layer
//! cannot afford, so [`EngineRuntime`] fixes the lifecycle: the pool is
//! spawned when the first session hands a region to a worker, handed out
//! as an `Arc` to every subsequent session, and joined when the last owner
//! (normally the engine) drops it. A session that never dispatches — a
//! trivial run, or one whose regions all stay under the pre-filter gate —
//! never spawns it.
//!
//! Sharing is safe because the drivers' work units are self-contained:
//! each job owns `Arc`s of its query context, cancellation token, and
//! reorder buffer, so jobs of different sessions interleave freely on the
//! same workers. A session abandoned mid-run fires its token; its queued
//! jobs then exit at their first token check instead of burning shared
//! CPU. Worker threads survive panicking user code (the pool catches the
//! unwind), so one bad mapping function cannot degrade the pool for every
//! other query of the engine.

use crate::pool::{PoolClosed, ThreadPool};
use progxe_core::driver::{SpawnError, TaskSpawner};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// A long-lived, lazily-spawned [`ThreadPool`] shared across all sessions
/// of one engine. Cheap to construct: no threads exist until
/// [`handle`](Self::handle) is first called.
#[derive(Debug)]
pub struct EngineRuntime {
    /// Target worker count for the pool (clamped to ≥ 1).
    threads: usize,
    /// The shared pool, `None` until first use or after [`shutdown`](Self::shutdown).
    pool: Mutex<Option<Arc<ThreadPool>>>,
    /// How many times this runtime spawned a pool (1 after any number of
    /// sessions, unless `shutdown` forced a respawn).
    spawns: AtomicUsize,
}

impl EngineRuntime {
    /// A runtime that will lazily spawn a pool of `threads` workers
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            pool: Mutex::new(None),
            spawns: AtomicUsize::new(0),
        }
    }

    /// The worker count the pool has (or will have once spawned).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A shared handle to the pool, spawning it on first use. Sessions
    /// hold the returned `Arc` for their lifetime, so the pool stays alive
    /// while any session still runs even if the engine itself is dropped.
    pub fn handle(&self) -> Arc<ThreadPool> {
        let mut slot = self.pool.lock().expect("engine runtime poisoned");
        match slot.as_ref() {
            Some(pool) => Arc::clone(pool),
            None => {
                let pool = Arc::new(ThreadPool::new(self.threads));
                self.spawns.fetch_add(1, Ordering::Relaxed);
                *slot = Some(Arc::clone(&pool));
                pool
            }
        }
    }

    /// Times this runtime spawned a pool. Stays at 1 across any number of
    /// sessions — the whole point of the shared runtime.
    pub fn pools_spawned(&self) -> usize {
        self.spawns.load(Ordering::Relaxed)
    }

    /// Whether the pool is currently spawned.
    pub fn is_running(&self) -> bool {
        self.pool.lock().expect("engine runtime poisoned").is_some()
    }

    /// A non-owning watch on the spawned pool (`None` before first use or
    /// after [`shutdown`](Self::shutdown)). Lets callers observe shutdown
    /// without keeping the pool alive: once the runtime and every session
    /// drop their handles, `upgrade()` returns `None` — proof the workers
    /// were joined.
    pub fn pool_watch(&self) -> Option<Weak<ThreadPool>> {
        self.pool
            .lock()
            .expect("engine runtime poisoned")
            .as_ref()
            .map(Arc::downgrade)
    }

    /// Closes and releases the runtime's pool. The pool is closed first
    /// ([`ThreadPool::close`]), so a live session racing this call gets a
    /// typed [`SpawnError`] from its next dispatch and cancels cleanly
    /// (`ExecStats::cancelled`) instead of deadlocking its committer on a
    /// job that would never run; jobs accepted before the close still
    /// complete. Workers are joined as soon as the last session handle
    /// drops (immediately, when no session is running). The next
    /// [`handle`](Self::handle) call respawns a fresh pool. Dropping the
    /// runtime skips the close (sessions keep the pool usable via their
    /// own `Arc`s) — only an explicit `shutdown` revokes admission.
    pub fn shutdown(&self) {
        let taken = self.pool.lock().expect("engine runtime poisoned").take();
        if let Some(pool) = taken {
            pool.close();
        }
    }
}

/// The runtime as a session's spawner: [`pin`](TaskSpawner::pin) spawns
/// (or reuses) the pool on the session's first dispatch, and the session
/// keeps that pool for the rest of its life.
impl TaskSpawner for EngineRuntime {
    fn threads(&self) -> usize {
        self.threads
    }

    fn pin(self: Arc<Self>) -> Arc<dyn TaskSpawner> {
        self.handle()
    }

    fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError> {
        self.handle().spawn_task(job)
    }
}

impl TaskSpawner for ThreadPool {
    fn threads(&self) -> usize {
        ThreadPool::threads(self)
    }

    fn pin(self: Arc<Self>) -> Arc<dyn TaskSpawner> {
        self
    }

    fn spawn_task(&self, job: Box<dyn FnOnce() + Send + 'static>) -> Result<(), SpawnError> {
        self.execute(job).map_err(|PoolClosed| SpawnError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progxe_core::config::ProgXeConfig;
    use progxe_core::executor::ProgXe;
    use progxe_core::mapping::{GeneralMap, MapSet, MappingFunction};
    use progxe_core::session::{CancellationToken, ProgressiveEngine};
    use progxe_core::source::SourceData;
    use progxe_core::stats::ResultTuple;
    use progxe_skyline::Preference;
    use std::sync::mpsc;
    use std::time::Duration;

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

    fn sorted_ids(results: &[ResultTuple]) -> Vec<(u32, u32)> {
        let mut ids: Vec<(u32, u32)> = results.iter().map(|x| (x.r_idx, x.t_idx)).collect();
        ids.sort_unstable();
        ids
    }

    /// An engine on a fresh `threads`-worker runtime that sends every
    /// region to the pool (pre-filter gate 0), plus that runtime.
    fn pooled(threads: usize) -> (ProgXe, Arc<EngineRuntime>) {
        let runtime = Arc::new(EngineRuntime::new(threads));
        let engine = ProgXe::new(ProgXeConfig::default().with_prefilter_min_pairs(0))
            .with_spawner(Some(Arc::clone(&runtime) as Arc<dyn TaskSpawner>));
        (engine, runtime)
    }

    fn exploding_maps() -> MapSet {
        let exploding = GeneralMap::new(
            "exploding",
            |_r: &[f64], _t: &[f64]| panic!("user mapping function failed"),
            |r_lo: &[f64], r_hi: &[f64], t_lo: &[f64], t_hi: &[f64]| {
                (r_lo[0] + t_lo[0], r_hi[0] + t_hi[0])
            },
        );
        MapSet::new(
            vec![Box::new(exploding) as Box<dyn MappingFunction>],
            Preference::all_lowest(1),
        )
        .unwrap()
    }

    #[test]
    fn pooled_matches_sequential_results() {
        let r = random_source(300, 2, 6, 1);
        let t = random_source(300, 2, 6, 2);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let seq = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        let (engine, runtime) = pooled(4);
        let par = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert_eq!(sorted_ids(&seq.results), sorted_ids(&par.results));
        assert_eq!(par.stats.threads_used, 4);
        assert!(!par.stats.cancelled);
        assert_eq!(runtime.pools_spawned(), 1);
    }

    #[test]
    fn sessions_share_one_pool() {
        let r = random_source(200, 2, 5, 30);
        let t = random_source(200, 2, 5, 31);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, runtime) = pooled(3);
        assert_eq!(runtime.pools_spawned(), 0, "runtime is lazy");
        let a = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let b = engine
            .clone()
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        assert_eq!(sorted_ids(&a.results), sorted_ids(&b.results));
        assert_eq!(
            runtime.pools_spawned(),
            1,
            "both sessions must reuse the engine's pool"
        );
    }

    #[test]
    fn dropping_the_engine_shuts_the_pool_down() {
        let r = random_source(150, 2, 5, 40);
        let t = random_source(150, 2, 5, 41);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, runtime) = pooled(2);
        let _ = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        let watch = runtime.pool_watch().expect("pool spawned");
        drop(engine);
        drop(runtime);
        assert!(
            watch.upgrade().is_none(),
            "engine drop must join the shared pool's workers"
        );
    }

    #[test]
    fn take_k_cancels_pooled_workers() {
        let r = random_source(400, 2, 4, 5);
        let t = random_source(400, 2, 4, 6);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, _runtime) = pooled(4);
        let full = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(full.results.len() >= 3);
        let partial = engine.open(&r.view(), &t.view(), &maps).unwrap().take(2);
        assert_eq!(partial.results.len(), 2);
        assert_eq!(&full.results[..2], &partial.results[..]);
        assert!(partial.stats.cancelled);
        assert!(partial.stats.regions_skipped > 0);
    }

    #[test]
    fn finish_without_explicit_cancel_stops_inflight_workers() {
        let r = random_source(400, 2, 4, 20);
        let t = random_source(400, 2, 4, 21);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, _runtime) = pooled(4);
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        assert!(session.next_batch().is_some());
        // No cancel() call: finish() itself must skip the remaining work
        // (firing the token for in-flight workers) rather than await it.
        let stats = session.finish();
        assert!(stats.cancelled);
        assert!(stats.regions_skipped > 0);
    }

    #[test]
    fn pooled_works_across_orderings() {
        use progxe_core::config::OrderingPolicy;
        let r = random_source(200, 2, 5, 10);
        let t = random_source(200, 2, 5, 11);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let reference = ProgXe::new(ProgXeConfig::default())
            .run_collect(&r.view(), &t.view(), &maps)
            .unwrap();
        for ordering in [
            OrderingPolicy::ProgOrder,
            OrderingPolicy::Random { seed: 1 },
            OrderingPolicy::Fifo,
        ] {
            let runtime: Arc<dyn TaskSpawner> = Arc::new(EngineRuntime::new(3));
            let engine = ProgXe::new(
                ProgXeConfig::default()
                    .with_ordering(ordering)
                    .with_prefilter_min_pairs(0),
            )
            .with_spawner(Some(runtime));
            let out = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
            assert_eq!(
                sorted_ids(&reference.results),
                sorted_ids(&out.results),
                "{ordering:?}"
            );
        }
    }

    #[test]
    fn trivial_sessions_never_spawn_the_pool() {
        let r = random_source(100, 2, 5, 7);
        let t = random_source(100, 2, 5, 8);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, runtime) = pooled(2);
        let token = CancellationToken::new();
        token.cancel();
        let mut session = engine
            .session_with_token(&r.view(), &t.view(), &maps, token)
            .unwrap();
        assert!(session.next_batch().is_none());
        let stats = session.finish();
        assert!(stats.cancelled);
        assert_eq!(stats.regions_processed, 0);
        let out = engine
            .run_collect(&SourceData::new(2).view(), &t.view(), &maps)
            .unwrap();
        assert!(out.results.is_empty());
        assert!(!out.stats.cancelled);
        assert!(
            !runtime.is_running(),
            "a trivial session must not spawn the pool"
        );
    }

    #[test]
    #[should_panic(expected = "progxe worker panicked while computing region")]
    fn worker_panic_propagates_instead_of_masquerading_as_cancel() {
        let r = random_source(50, 1, 1, 12);
        let t = random_source(50, 1, 1, 13);
        let maps = exploding_maps();
        let (engine, _runtime) = pooled(2);
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        while session.next_batch().is_some() {}
    }

    #[test]
    fn pool_survives_a_query_with_panicking_maps() {
        let r = random_source(50, 1, 1, 14);
        let t = random_source(50, 1, 1, 15);
        let maps = exploding_maps();
        let (engine, runtime) = pooled(2);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
            while session.next_batch().is_some() {}
        }));
        assert!(failed.is_err(), "the failing query must propagate");
        // The *shared* pool must still serve healthy queries afterwards.
        let good = MapSet::pairwise_sum(1, Preference::all_lowest(1));
        let out = engine.run_collect(&r.view(), &t.view(), &good).unwrap();
        assert!(!out.stats.cancelled);
        assert_eq!(runtime.pools_spawned(), 1);
    }

    #[test]
    fn dropping_a_pooled_session_without_finish_fires_its_token() {
        // Regression: a dropped (not finished, not cancelled) session left
        // its token unfired unless the driver happened to have in-flight
        // dispatches — so pooled workers of an abandoned session could keep
        // burning shared CPU.
        let r = random_source(300, 2, 6, 41);
        let t = random_source(300, 2, 6, 42);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, _runtime) = pooled(3);
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        let token = session.cancel_token();
        assert!(session.next_batch().is_some(), "mid-stream, not unpulled");
        drop(session);
        assert!(token.is_cancelled(), "drop must fire the token");
    }

    #[test]
    fn shutdown_under_a_live_session_cancels_instead_of_deadlocking() {
        // Regression: `ThreadPool::execute` after shutdown used to enqueue
        // into queues no worker would ever drain again, so the committer
        // blocked forever in `wait_take` on a job that never ran. Pinned
        // behavior: the pool is *closed* by `EngineRuntime::shutdown`, the
        // session (which pinned that pool on its first dispatch) gets a
        // typed `SpawnError` from its next dispatch, and the run ends as a
        // clean cancellation — never a deadlock, never a silent drop.
        let r = random_source(400, 2, 8, 21);
        let t = random_source(400, 2, 8, 22);
        let maps = MapSet::pairwise_sum(2, Preference::all_lowest(2));
        let (engine, runtime) = pooled(2);
        let mut session = engine.open(&r.view(), &t.view(), &maps).unwrap();
        // Let the first dispatch window land so the session is genuinely
        // mid-flight, then rip the pool out from under it.
        assert!(session.next_batch().is_some(), "workload emits something");
        runtime.shutdown();
        while session.next_batch().is_some() {}
        let stats = session.finish();
        assert!(
            stats.cancelled,
            "a shutdown racing a live session must surface as a cancelled run"
        );
        // The runtime stays usable: the next session respawns a pool.
        let fresh = engine.run_collect(&r.view(), &t.view(), &maps).unwrap();
        assert!(!fresh.stats.cancelled);
        assert_eq!(runtime.pools_spawned(), 2);
    }

    #[test]
    fn pool_spawns_lazily_and_once() {
        let rt = EngineRuntime::new(2);
        assert!(!rt.is_running());
        assert_eq!(rt.pools_spawned(), 0);
        let a = rt.handle();
        let b = rt.handle();
        assert!(Arc::ptr_eq(&a, &b), "handles must share one pool");
        assert_eq!(rt.pools_spawned(), 1);
        assert!(rt.is_running());
        assert_eq!(a.threads(), 2);
    }

    #[test]
    fn dropping_runtime_and_handles_joins_the_pool() {
        let rt = EngineRuntime::new(1);
        let handle = rt.handle();
        let watch = rt.pool_watch().expect("spawned");
        let (tx, rx) = mpsc::channel();
        handle
            .spawn_task(Box::new(move || {
                let _ = tx.send(1);
            }))
            .expect("pool open");
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
        drop(handle);
        drop(rt);
        assert!(
            watch.upgrade().is_none(),
            "pool must shut down with its last owner"
        );
    }

    #[test]
    fn shutdown_allows_respawn() {
        let rt = EngineRuntime::new(1);
        let watch = {
            let _h = rt.handle();
            rt.pool_watch().expect("spawned")
        };
        rt.shutdown();
        assert!(!rt.is_running());
        assert!(watch.upgrade().is_none(), "no session ⇒ joined immediately");
        let _h = rt.handle();
        assert_eq!(rt.pools_spawned(), 2, "respawn after explicit shutdown");
    }

    #[test]
    fn zero_threads_clamps() {
        let rt = EngineRuntime::new(0);
        assert_eq!(rt.threads(), 1);
    }
}
