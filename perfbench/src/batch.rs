//! `batch-pareto`: one in-process caller issuing the canonical Pareto
//! query back to back through `QueryRunner` on `Engine::progxe_threads(2)`.
//!
//! Each run cycles its queries over several anti-correlated datasets
//! (N rows per source, d = 3, σ = 0.1) derived from the seed, so every
//! dataset is queried several times. Interference from other tenants of a
//! shared host only ever adds time, and on a small VM it moved whole runs
//! by up to half their length; so each statistic of a dataset is the
//! fastest of its repeats ([`Best`]), and the metrics summarize those
//! per-dataset figures. Results are checked after the timed loop against
//! JF-SL+ on every dataset, and JF-SL+ itself against plain JF-SL on the
//! first one.
//!
//! The traced run also traces the flexible-skyline variant of each query
//! (`WITH WEIGHTS … CONSTRAIN …`) and reports it as the `flex.*` layer
//! metrics: the F-dominance layers do work on no other query, and a timed
//! flex workload of its own spread too widely from run to run on a
//! 2-thread host to serve as a yardstick.

use crate::data::{canon, pareto_sql, register_pair, same_set, sub_seed, Canon, FLEX_WEIGHTS};
use crate::layers::{
    pool_jobs, reconcile, report_flex, report_pool, report_splits, run_query, trace_query,
};
use crate::metrics::{Metrics, Outcome, PER_LAYER};
use crate::stats::{median, quantile, Progress};
use crate::{repeated_setup, RunSpec};
use progxe_core::stats::ResultTuple;
use progxe_query::{Catalog, Engine, QueryRunner};
use std::time::Instant;

/// Size knobs of a batch run.
#[derive(Debug, Clone)]
pub struct BatchParams {
    /// Rows per source per dataset.
    pub rows: usize,
    /// Datasets (table pairs) per run.
    pub datasets: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Test hook: alter one result before the correctness check.
    pub corrupt: bool,
}

impl BatchParams {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            rows: 10_000,
            datasets: 16,
            setups: 7,
            corrupt: false,
        }
    }

    /// A size small enough for the package's tests.
    pub fn tiny() -> Self {
        Self {
            rows: 300,
            datasets: 2,
            setups: 2,
            corrupt: false,
        }
    }
}

const DIMS: usize = 3;
const SIGMA: f64 = 0.1;
/// Rows per source of the small pair the set-up warms the engine with, so
/// `setup_s` does not hinge on one dataset's query cost.
const WARM_UP_ROWS: usize = 1_000;

/// The Pareto query over pair `k`, or its flexible-skyline variant.
fn sql(k: usize, flex: bool) -> String {
    let mut sql = pareto_sql(DIMS, k);
    if flex {
        sql.push_str(FLEX_WEIGHTS);
    }
    sql
}

/// Everything a run builds before it measures.
struct Setup {
    runner: QueryRunner,
    engine: Engine,
}

impl Setup {
    /// Generates the datasets plus a small warm-up pair (index
    /// `params.datasets`), builds the catalog and the engine, and warms the
    /// engine with one query on the small pair.
    fn build(params: &BatchParams, seed: u64) -> Result<Self, String> {
        let mut cat = Catalog::new();
        for k in 0..=params.datasets {
            let names = (format!("R{k}"), format!("T{k}"));
            let pair = (names.0.as_str(), names.1.as_str());
            let rows = if k < params.datasets {
                params.rows
            } else {
                WARM_UP_ROWS.min(params.rows)
            };
            register_pair(&mut cat, pair, rows, DIMS, SIGMA, sub_seed(seed, k));
        }
        let setup = Self {
            runner: QueryRunner::new(cat),
            engine: Engine::progxe_threads(2),
        };
        run_query(&setup.runner, &sql(params.datasets, false), &setup.engine)
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(setup)
    }
}

/// Runs `batch-pareto`.
pub fn run(params: &BatchParams, spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let sqls: Vec<String> = (0..params.datasets).map(|k| sql(k, false)).collect();
    let setup = match repeated_setup(params.setups, || Setup::build(params, spec.seed)) {
        Ok((setup, seconds)) => {
            out.metrics.set("setup_s", seconds);
            setup
        }
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    if spec.trace {
        traced(params, spec, &setup, &sqls, &mut out);
    } else {
        timed(params, spec, &setup, &sqls, &mut out);
    }
    out
}

/// The fastest figures one dataset reached over its repeats in a timed
/// loop, each statistic minimized on its own.
#[derive(Debug, Clone, Copy)]
struct Best {
    first: f64,
    half: f64,
    total: f64,
    /// Median arrival time of the query's non-empty batches.
    update: f64,
    /// p90 arrival time of the query's non-empty batches.
    update_p90: f64,
}

impl Best {
    fn of(p: &Progress, batch_ms: &[f64]) -> Self {
        Self {
            first: p.first_ms,
            half: p.half_ms,
            total: p.total_ms,
            update: median(batch_ms),
            update_p90: quantile(batch_ms, 0.9),
        }
    }

    fn min(self, o: Self) -> Self {
        Self {
            first: self.first.min(o.first),
            half: self.half.min(o.half),
            total: self.total.min(o.total),
            update: self.update.min(o.update),
            update_p90: self.update_p90.min(o.update_p90),
        }
    }

    /// Writes the end-to-end metrics from the per-dataset figures: medians
    /// (and p90s) over datasets. One caller issues the queries back to
    /// back, so `qps` is the inverse of the median query time.
    fn report(datasets: &[Best], m: &mut Metrics) {
        let col = |f: fn(&Best) -> f64| datasets.iter().map(f).collect::<Vec<_>>();
        let (first, total) = (col(|b| b.first), col(|b| b.total));
        m.set("first_result_ms", median(&first));
        m.set("first_result_p90_ms", quantile(&first, 0.9));
        m.set("half_results_ms", median(&col(|b| b.half)));
        m.set("total_ms", median(&total));
        m.set("total_p90_ms", quantile(&total, 0.9));
        m.set("qps", 1e3 / median(&total).max(1e-9));
        m.set("update_ms", median(&col(|b| b.update)));
        m.set("update_p90_ms", median(&col(|b| b.update_p90)));
    }
}

/// The untraced loop: end-to-end metrics, then the reference check.
fn timed(params: &BatchParams, spec: &RunSpec, setup: &Setup, sqls: &[String], out: &mut Outcome) {
    let mut best: Vec<Option<Best>> = vec![None; sqls.len()];
    let mut results: Vec<(usize, Vec<ResultTuple>)> = Vec::new();
    let deadline = Instant::now() + spec.duration();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let k = i % sqls.len();
        out.attempted += 1;
        match run_query(&setup.runner, &sqls[k], &setup.engine) {
            Ok(run) => {
                let this = Best::of(&run.progress, &run.batch_ms);
                best[k] = Some(best[k].map_or(this, |b| b.min(this)));
                results.push((k, run.results));
            }
            Err(e) => out.fail(format!("query {i} on dataset {k}: {e}")),
        }
        i += 1;
    }
    Best::report(
        &best.iter().flatten().copied().collect::<Vec<_>>(),
        &mut out.metrics,
    );
    out.record_peak_rss();

    if params.corrupt {
        if let Some(t) = results.first_mut().and_then(|r| r.1.first_mut()) {
            crate::data::corrupt(&mut t.values);
        }
    }
    let Some(reference) = references(setup, sqls, out) else {
        return;
    };
    for (i, (k, got)) in results.iter().enumerate() {
        if let Err(e) = same_set(
            &format!("query {i} on dataset {k}"),
            &canon(got),
            &reference[*k],
        ) {
            out.fail(e);
        }
    }
}

/// The traced loop: per-layer metrics of the Pareto query and its flex
/// variant, the reconciliation, then the reference check of every traced
/// result set.
fn traced(params: &BatchParams, spec: &RunSpec, setup: &Setup, sqls: &[String], out: &mut Outcome) {
    let flex_sqls: Vec<String> = (0..sqls.len()).map(|k| sql(k, true)).collect();
    let inline = Engine::progxe_threads(1);
    let (mut splits, mut flex_splits) = (Vec::new(), Vec::new());
    let mut checked: Vec<(bool, usize, Vec<Canon>)> = Vec::new();
    let jobs_before = pool_jobs();
    let deadline = Instant::now() + spec.duration();
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        let k = i % sqls.len();
        for (flex, sql, into) in [
            (false, &sqls[k], &mut splits),
            (true, &flex_sqls[k], &mut flex_splits),
        ] {
            out.attempted += 1;
            match trace_query(&setup.runner, sql, &setup.engine, &inline) {
                Ok(split) => {
                    checked.extend(split.results.iter().map(|r| (flex, k, r.clone())));
                    into.push(split);
                }
                Err(e) => out.fail(format!(
                    "traced query {i} (flex={flex}) on dataset {k}: {e}"
                )),
            }
        }
        i += 1;
    }
    let all: Vec<_> = splits.iter().chain(&flex_splits).cloned().collect();
    if let Err(e) = reconcile(&all) {
        out.problem(e);
    }
    let mut m = Metrics::default();
    report_splits(&splits, &mut m);
    report_flex(&flex_splits, &mut m);
    report_pool(jobs_before, all.len(), &mut m);
    m.idle(
        PER_LAYER,
        &["server.", "protocol.", "ingest.", "bench.generator_late"],
    );
    out.metrics = m;

    if params.corrupt {
        if let Some(t) = checked.first_mut().and_then(|c| c.2.first_mut()) {
            t.2[0] ^= 1;
        }
    }
    let references = [
        references(setup, sqls, out),
        references(setup, &flex_sqls, out),
    ];
    let [Some(pareto), Some(flex)] = references else {
        return;
    };
    for (is_flex, k, got) in &checked {
        let want = if *is_flex { &flex[*k] } else { &pareto[*k] };
        if let Err(e) = same_set(
            &format!("traced result (flex={is_flex}) on dataset {k}"),
            got,
            want,
        ) {
            out.fail(e);
        }
    }
}

/// The reference result of every dataset: JF-SL+ (push-through, then
/// join-first skyline-later) on each, cross-checked against plain JF-SL
/// on dataset 0. `None` (with the problem recorded) when a reference
/// engine fails or the two disagree.
fn references(setup: &Setup, sqls: &[String], out: &mut Outcome) -> Option<Vec<Vec<Canon>>> {
    let collect = |sql: &str, engine: &Engine| {
        setup
            .runner
            .run_collect(sql, engine)
            .map(|o| canon(&o.results))
            .map_err(|e| format!("reference engine {engine}: {e}"))
    };
    let mut all = Vec::new();
    for sql in sqls {
        match collect(sql, &Engine::jfsl_plus_sfs()) {
            Ok(r) => all.push(r),
            Err(e) => {
                out.problem(e);
                return None;
            }
        }
    }
    let cross = collect(&sqls[0], &Engine::jfsl_sfs())
        .and_then(|plain| same_set("JF-SL+ vs JF-SL on dataset 0", &all[0], &plain));
    if let Err(e) = cross {
        out.problem(e);
        return None;
    }
    Some(all)
}
