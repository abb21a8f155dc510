//! Shared helpers for the integration suites. Each test binary compiles
//! this module independently and uses a subset of it.
#![allow(dead_code)]

pub mod oracle;

use progxe::core::config::ProgXeConfig;
use progxe::core::driver::TaskSpawner;
use progxe::core::executor::ProgXe;
use progxe::runtime::EngineRuntime;
use std::sync::Arc;

/// `config`'s engine on a fresh `threads`-worker runtime — regions at or
/// above the config's pre-filter gate run on the pool — plus that runtime,
/// for pool-lifecycle assertions.
pub fn pooled(config: ProgXeConfig, threads: usize) -> (ProgXe, Arc<EngineRuntime>) {
    let runtime = Arc::new(EngineRuntime::new(threads));
    let engine = ProgXe::new(config.with_threads(threads))
        .with_spawner(Some(Arc::clone(&runtime) as Arc<dyn TaskSpawner>));
    (engine, runtime)
}
