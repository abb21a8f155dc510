//! # progxe-runtime — shared worker threads for ProgXe
//!
//! The paper's output-space look-ahead (§III) decomposes a SkyMapJoin query
//! into output regions precisely so that tuple-level work is partitionable.
//! This crate supplies the threads for that, in two pieces:
//!
//! * [`pool`] — a dependency-free work-stealing thread pool (scoped to
//!   `std::thread`, `Mutex`, and `Condvar`) whose workers survive
//!   panicking user code;
//! * [`runtime`] — [`EngineRuntime`], the per-engine lifecycle: one
//!   lazily-spawned, long-lived pool shared by every session of an engine
//!   (and by every clone of it), so high-QPS serving pays thread
//!   spawn/join once per engine instead of once per query.
//!
//! Both implement the core's
//! [`TaskSpawner`](progxe_core::driver::TaskSpawner). Hand an
//! `Arc<EngineRuntime>` to
//! [`ProgXe::with_spawner`](progxe_core::executor::ProgXe::with_spawner)
//! and the core's one region loop
//! ([`RegionDriver`](progxe_core::driver::RegionDriver)) runs regions at
//! or above the pre-filter gate on the pool; smaller regions stream on the
//! session's thread. The division of labor keeps every progressive-output
//! guarantee intact:
//!
//! * workers only ever touch immutable, owned state
//!   ([`RegionCtx`](progxe_core::tuple_level::RegionCtx));
//! * the committer — the sole owner of the cell store and the blocker
//!   counts — applies batches strictly in the order regions were popped
//!   from the schedule, so emission is **deterministic** regardless of
//!   worker interleaving, and a cell still only emits once every region
//!   that could dominate it has committed (no false positives, no false
//!   negatives);
//! * cancellation tokens are checked inside each worker's probe loop, so
//!   `take(k)` and timeouts stop in-flight workers mid-region — and vacate
//!   the shared pool for other sessions' work.
//!
//! The query layer sizes the runtime from
//! [`ProgXeConfig::threads`](progxe_core::config::ProgXeConfig) (env
//! override: `PROGXE_THREADS`, via
//! [`ProgXeConfig::from_env`](progxe_core::config::ProgXeConfig::from_env)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod runtime;

pub use pool::{PoolClosed, ThreadPool};
pub use runtime::EngineRuntime;
