//! One function per paper figure/ablation and per engineering experiment:
//! generate the workload(s), run the algorithms, and render the measured
//! rows — each built once, as `progxe_obs::Report`s — as a console table
//! and a CSV file whose columns are the rows' keys. The perf experiments
//! (threads, ingest, fdom, kernels, obs, serving) also write
//! `BENCH_<name>.json`: a `host` object, the workload they ran, and the
//! same rows under the same keys.
//!
//! | Artifact | Function | Series |
//! |---|---|---|
//! | Fig. 10 a–c | [`fig10_prog`] | results vs time, 4 ProgXe variants × 3 distributions, σ=0.001 |
//! | Fig. 10 d–f | [`fig10_time`] | total time vs σ, 4 ProgXe variants × 3 distributions |
//! | Fig. 11 a–f | [`fig11`] | results vs time, ProgXe/ProgXe+/SSMJ, σ ∈ {0.01, 0.1} |
//! | Fig. 12 a–b | [`fig12`] | results vs time at d = 5, σ = 0.1 |
//! | Fig. 13 a–c | [`fig13`] | total time vs σ, ProgXe/ProgXe+/SSMJ |
//! | Sec. III-B bound | [`cellbound`] | comparable cells vs `k^d − (k−1)^d` |
//! | Sec. VI-B δ remark | [`ablate_delta`] | grid-granularity sensitivity |
//! | Sec. VI-B overhead claim | [`ablate_order`] | ProgOrder cost vs benefit |
//! | Sec. VII claim | [`ssmj_soundness`] | SSMJ batch-1 false positives |
//! | Figs. 11–12 at scale | [`scaling`] | first-output latency vs N |
//! | Parallel runtime | [`threads`] | total time vs worker threads, pre-filter on/off |
//! | Streaming ingestion | [`ingest`] | first-result latency vs arrival schedule and rate |
//! | Flexible skylines | [`fdom`] | result shrinkage + latency vs constraint tightness |
//! | Tracing | [`obs`] | wall time with the recorder off / null / ring (gated) |
//! | Columnar kernels | [`kernels`] | batched vs scalar dominance, kd-tree vs naive blockers (gated) |
//! | TCP serving | [`serving`] | QPS + first-result latency vs clients, push-to-update vs subscribers |

use crate::report::{hardware_threads, row, Record};
use crate::runners::{
    default_config_for, drain, run_algo, run_algo_with_timeout, AlgoKind, RunResult,
};
use progxe_core::config::OrderingPolicy;
use progxe_core::driver::TaskSpawner;
use progxe_core::executor::ProgXe;
use progxe_core::mapping::MapSet;
use progxe_core::session::ProgressiveEngine;
use progxe_core::sink::CountSink;
use progxe_core::source::SourceView;
use progxe_datagen::{Distribution, SmjWorkload, WorkloadSpec};
use progxe_obs::{Report, Value};
use progxe_runtime::EngineRuntime;
use progxe_skyline::Preference;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Shared experiment options (CLI overrides).
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Cardinality override (default figure-specific).
    pub n: Option<usize>,
    /// Dimensionality override.
    pub dims: Option<usize>,
    /// Selectivity override (single-σ experiments only).
    pub sigma: Option<f64>,
    /// Workload seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// Shrink sizes drastically (test/CI mode).
    pub quick: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            n: None,
            dims: None,
            sigma: None,
            seed: 0xC0FFEE,
            out: PathBuf::from("results"),
            quick: false,
        }
    }
}

impl ExpOptions {
    fn pick_n(&self, default: usize) -> usize {
        let n = self.n.unwrap_or(default);
        if self.quick {
            (n / 10).max(60)
        } else {
            n
        }
    }

    fn pick_dims(&self, default: usize) -> usize {
        self.dims.unwrap_or(default)
    }
}

fn workload(n: usize, dims: usize, dist: Distribution, sigma: f64, seed: u64) -> SmjWorkload {
    WorkloadSpec::new(n, dims, dist, sigma)
        .with_seed(seed)
        .generate()
}

/// The `workload` object of a BENCH file for a generated join workload.
fn workload_report(distribution: &str, n: usize, dims: usize, sigma: f64) -> Report {
    row([
        ("distribution", Value::Text(distribution.into())),
        ("n", Value::U64(n as u64)),
        ("dims", Value::U64(dims as u64)),
        ("sigma", Value::F64(sigma)),
    ])
}

fn text(s: &str) -> Value {
    Value::Text(s.into())
}

fn count(n: usize) -> Value {
    Value::U64(n as u64)
}

fn opt_ms(d: Option<Duration>) -> Value {
    d.map_or(Value::Absent, Value::DurationMs)
}

/// A measured millisecond count, encoded like every duration; absent when
/// it is not a valid duration (say, NaN for a run that never emitted).
fn ms(x: f64) -> Value {
    Duration::try_from_secs_f64(x / 1e3).map_or(Value::Absent, Value::DurationMs)
}

/// One row per result-bearing batch of `run`: the figure's plotted series.
fn progressiveness_rows(dist: Distribution, sigma: f64, run: &RunResult) -> Vec<Report> {
    run.records
        .iter()
        .map(|r| {
            row([
                ("distribution", text(dist.name())),
                ("sigma", Value::F64(sigma)),
                ("algo", text(run.algo)),
                ("elapsed_ms", Value::DurationMs(r.elapsed)),
                ("cumulative", Value::U64(r.cumulative)),
            ])
        })
        .collect()
}

/// One summary row of a progressiveness figure; `run` is `None` for an
/// algorithm that produced nothing within its budget.
fn summary_row(dist: Distribution, algo: &str, run: Option<&RunResult>) -> Report {
    let at = |fraction| run.and_then(|r| r.time_to_fraction(fraction));
    row([
        ("distribution", text(dist.name())),
        ("algo", text(algo)),
        ("results", Value::U64(run.map_or(0, |r| r.results))),
        ("first_ms", opt_ms(run.and_then(RunResult::first_result))),
        ("t25_ms", opt_ms(at(0.25))),
        ("t50_ms", opt_ms(at(0.5))),
        ("t75_ms", opt_ms(at(0.75))),
        ("total_ms", opt_ms(run.map(|r| r.total_time))),
    ])
}

/// Figure 10 a–c: progressiveness of the four ProgXe variations
/// (correlated / independent / anti-correlated; σ = 0.001; d = 4).
pub fn fig10_prog(opt: &ExpOptions) {
    let n = opt.pick_n(4000);
    let dims = opt.pick_dims(4);
    let sigma = opt.sigma.unwrap_or(0.001);
    println!(
        "== Figure 10 a–c: ProgXe variations, progressiveness (N={n}, d={dims}, sigma={sigma}) =="
    );
    let mut summary = Vec::new();
    let mut series = Vec::new();
    for dist in Distribution::ALL {
        let w = workload(n, dims, dist, sigma, opt.seed);
        for kind in AlgoKind::PROGXE_VARIATIONS {
            let run = run_algo(kind, &w);
            series.extend(progressiveness_rows(dist, sigma, &run));
            summary.push(summary_row(dist, run.algo, Some(&run)));
        }
    }
    Record::new("fig10_prog", summary).emit(opt);
    Record::new("fig10_prog_series", series).write_csv(opt);
}

/// Figure 10 d–f: total execution time of the four ProgXe variations over
/// the σ sweep.
pub fn fig10_time(opt: &ExpOptions) {
    sweep_sigma(
        "fig10_time",
        "Figure 10 d–f",
        &AlgoKind::PROGXE_VARIATIONS,
        opt,
    );
}

/// Figure 13 a–c: total execution time of ProgXe, ProgXe+ and SSMJ over the
/// σ sweep.
pub fn fig13(opt: &ExpOptions) {
    sweep_sigma("fig13_time", "Figure 13 a–c", &AlgoKind::VS_SSMJ, opt);
}

fn sweep_sigma(stem: &'static str, title: &str, algos: &[AlgoKind], opt: &ExpOptions) {
    let n = opt.pick_n(1000);
    let dims = opt.pick_dims(4);
    let sigmas: &[f64] = if opt.quick {
        &[0.001, 0.01]
    } else {
        &[0.0001, 0.001, 0.01, 0.1]
    };
    println!("== {title}: total time vs join selectivity (N={n}, d={dims}) ==");
    let mut rows = Vec::new();
    for dist in Distribution::ALL {
        for &sigma in sigmas {
            let w = workload(n, dims, dist, sigma, opt.seed);
            for &kind in algos {
                let run = run_algo(kind, &w);
                rows.push(row([
                    ("distribution", text(dist.name())),
                    ("sigma", Value::F64(sigma)),
                    ("algo", text(run.algo)),
                    ("total_ms", Value::DurationMs(run.total_time)),
                    ("results", Value::U64(run.results)),
                ]));
            }
        }
    }
    Record::new(stem, rows).emit(opt);
}

/// Figure 11 a–f: progressiveness of ProgXe, ProgXe+ and SSMJ at σ = 0.01
/// and σ = 0.1 (d = 4).
pub fn fig11(opt: &ExpOptions) {
    let dims = opt.pick_dims(4);
    println!("== Figure 11 a–f: ProgXe vs ProgXe+ vs SSMJ, progressiveness (d={dims}) ==");
    let mut series = Vec::new();
    let mut summary = Vec::new();
    for (sigma, default_n) in [(0.01, 4000), (0.1, 2000)] {
        let sigma = opt.sigma.unwrap_or(sigma);
        let n = opt.pick_n(default_n);
        println!("-- sigma = {sigma}, N = {n} --");
        for dist in Distribution::ALL {
            let w = workload(n, dims, dist, sigma, opt.seed);
            for kind in AlgoKind::VS_SSMJ {
                let run = run_algo(kind, &w);
                series.extend(progressiveness_rows(dist, sigma, &run));
                summary.push(summary_row(dist, run.algo, Some(&run)));
            }
        }
    }
    Record::new("fig11", summary).emit(opt);
    Record::new("fig11_series", series).write_csv(opt);
}

/// Figure 12 a–b: d = 5, σ = 0.1 — independent and anti-correlated (the
/// setting where SSMJ degenerates; the paper reports it failing entirely on
/// anti-correlated data).
pub fn fig12(opt: &ExpOptions) {
    let n = opt.pick_n(1500);
    let dims = opt.pick_dims(5);
    let sigma = opt.sigma.unwrap_or(0.1);
    let budget = Duration::from_secs(if opt.quick { 20 } else { 120 });
    println!("== Figure 12 a–b: higher dimension (N={n}, d={dims}, sigma={sigma}) ==");
    let mut series = Vec::new();
    let mut summary = Vec::new();
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        let w = workload(n, dims, dist, sigma, opt.seed);
        for kind in AlgoKind::VS_SSMJ {
            // SSMJ runs under a wall-clock budget: the paper's Figure 12.b
            // annotates "SSMJ did not return results even after several
            // hours" on anti-correlated data.
            let run = run_algo_with_timeout(kind, &w, budget);
            match &run {
                Some(run) => series.extend(progressiveness_rows(dist, sigma, run)),
                None => println!(
                    "  {} produced no results within {budget:?} on {} data \
                     (cf. the paper's Fig. 12.b annotation)",
                    kind.label(),
                    dist.name()
                ),
            }
            summary.push(summary_row(dist, kind.label(), run.as_ref()));
        }
    }
    Record::new("fig12", summary).emit(opt);
    Record::new("fig12_series", series).write_csv(opt);
}

/// Scaling trend: first-output latency and total time vs N on
/// anti-correlated data. This is the laptop-scale demonstration of why the
/// paper's 500K-tuple runs separate ProgXe from SSMJ by orders of
/// magnitude: SSMJ's first batch waits for its entire phase-1 join +
/// skyline (growing superlinearly with N), while ProgXe's first safe batch
/// arrives after one region's tuple-level work (near-constant).
pub fn scaling(opt: &ExpOptions) {
    let dims = opt.pick_dims(4);
    let sigma = opt.sigma.unwrap_or(0.01);
    let ns: &[usize] = if opt.quick {
        &[250, 500]
    } else {
        &[1000, 2000, 4000, 8000, 16000]
    };
    println!("== Scaling: first-output latency vs N (anti-correlated, d={dims}, sigma={sigma}) ==");
    let mut rows = Vec::new();
    for &n in ns {
        let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
        for kind in [AlgoKind::ProgXe, AlgoKind::Ssmj, AlgoKind::JfSl] {
            let run = run_algo(kind, &w);
            rows.push(row([
                ("n", count(n)),
                ("algo", text(run.algo)),
                ("results", Value::U64(run.results)),
                ("first_ms", opt_ms(run.first_result())),
                ("total_ms", Value::DurationMs(run.total_time)),
            ]));
        }
    }
    Record::new("scaling", rows).emit(opt);
}

/// Thread scaling: end-to-end time of the 10k anti-correlated workload
/// (the skyline-hostile case) against `ProgXeConfig::threads`. `threads=1`
/// runs every region on the session's thread; higher counts give the
/// engine a shared runtime of that many workers. Reports per-row
/// speedup over the inline baseline — the ROADMAP's "as fast as the
/// hardware allows" tracking number — and additionally measures the inline
/// local-skyline pre-filter against the pre-filter-free streaming
/// arrangement (mode `inline-nofilter`), the measurement behind
/// `ProgXeConfig::prefilter_min_pairs`. Writes `threads.csv` and
/// `BENCH_threads.json`.
pub fn threads(opt: &ExpOptions) {
    let n = opt.pick_n(10_000);
    // Defaults pick the tuple-phase-heavy corner (d = 3, σ = 0.1): enough
    // join matches per region that region fan-out, not the serial
    // look-ahead front end, dominates the wall clock.
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.1);
    let counts: &[usize] = if opt.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let hw = hardware_threads();
    println!(
        "== Thread scaling: total time vs threads \
         (anti-correlated, N={n}, d={dims}, sigma={sigma}; {hw} hardware threads) =="
    );
    let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
    let run_engine = |engine: ProgXe| {
        drain(
            engine.open(&r, &t, &maps).expect("valid configuration"),
            |_| {},
        )
    };

    let base_cfg = default_config_for(dims, sigma);
    // Discarded warm-up: first-touch allocation and CPU ramp must not be
    // charged to whichever measured arrangement happens to run first.
    let _ = run_engine(ProgXe::new(base_cfg.clone()));
    // Pre-filter measurement: the pre-filter-free streaming arrangement
    // (the old sequential hot path) against the Inline default below.
    let nofilter = base_cfg.clone().with_prefilter_min_pairs(usize::MAX);
    let mut runs = vec![("inline-nofilter", 1, run_engine(ProgXe::new(nofilter)))];
    for &threads in counts {
        let config = base_cfg.clone().with_threads(threads);
        let (mode, spawner) = if threads > 1 {
            let runtime: Arc<dyn TaskSpawner> = Arc::new(EngineRuntime::new(threads));
            ("pooled", Some(runtime))
        } else {
            ("inline", None)
        };
        let run = run_engine(ProgXe::new(config).with_spawner(spawner));
        runs.push((mode, threads, run));
    }

    // Speedups are relative to the inline (threads = 1, default
    // pre-filter gate) run.
    let baseline = runs
        .iter()
        .find(|(mode, ..)| *mode == "inline")
        .map(|(_, _, (_, stats))| stats.total_time)
        .expect("counts always include 1");
    let rows = runs
        .iter()
        .map(|(mode, threads, (first, stats))| {
            println!("   {mode}/threads={threads}: {stats}");
            let speedup = baseline.as_secs_f64() / stats.total_time.as_secs_f64().max(1e-9);
            row([
                ("mode", text(mode)),
                ("threads", count(*threads)),
                ("results", Value::U64(stats.results_emitted)),
                ("first_result_ms", opt_ms(*first)),
                ("wall_ms", Value::DurationMs(stats.total_time)),
                ("tuples_prefiltered", Value::U64(stats.tuples_prefiltered)),
                ("speedup_vs_inline", Value::F64(speedup)),
            ])
        })
        .collect();
    Record::new("threads", rows).emit_bench(
        opt,
        [
            (
                "workload",
                Value::Object(workload_report("anti-correlated", n, dims, sigma)),
            ),
            ("prefilter_min_pairs", count(base_cfg.prefilter_min_pairs)),
        ],
        "runs",
    );
    if hw < 4 {
        println!(
            "note: only {hw} hardware thread(s) available — speedups here are \
             host-bound; run on a multi-core machine for the real curve"
        );
    }
}

/// One measured streaming-ingestion run (see [`ingest`]).
pub struct IngestRun {
    /// Arrival-schedule family.
    pub schedule: &'static str,
    /// Simulated per-step arrival interval.
    pub interval_ms: f64,
    /// Simulated instant the last batch arrived.
    pub arrival_end_ms: f64,
    /// Simulated first-result instant of the streaming engine.
    pub first_result_ms: Option<f64>,
    /// Simulated first-result instant of the batch engine (full arrival +
    /// its measured time-to-first-result).
    pub batch_first_result_ms: f64,
    /// Wall-clock compute spent by the streaming session.
    pub compute_ms: f64,
    /// Results emitted.
    pub results: u64,
}

impl IngestRun {
    fn report(&self) -> Report {
        row([
            ("schedule", text(self.schedule)),
            ("interval_ms", ms(self.interval_ms)),
            ("arrival_end_ms", ms(self.arrival_end_ms)),
            (
                "first_result_ms",
                self.first_result_ms.map_or(Value::Absent, ms),
            ),
            ("batch_first_result_ms", ms(self.batch_first_result_ms)),
            ("compute_ms", ms(self.compute_ms)),
            ("results", Value::U64(self.results)),
        ])
    }
}

/// Streaming ingestion: first-result latency vs arrival rate.
///
/// Simulates two remote sources delivering an independent d=3 workload in
/// batches with a **virtual arrival clock** (batch `i` lands at
/// `(i+1)·interval`; measured compute wall-time is added on top — a
/// conservative model where compute never overlaps the next arrival).
/// Four arrival families from `progxe_datagen::arrival` are swept —
/// `uniform-shuffle`, `attr-sorted`, `bursty`, `trickle` — against the
/// batch engine, which by construction cannot start before the *last*
/// batch arrives. On watermarked sorted/trickle arrival the streaming
/// engine's first result lands well before full arrival; on the shuffled
/// schedule it degrades to the batch engine's latency (watermarks barely
/// move) — the two ends of the remote-source spectrum.
///
/// Writes `ingest.csv` and `BENCH_ingest.json`.
pub fn ingest(opt: &ExpOptions) {
    let (workload, runs) = ingest_measurements(opt);
    emit_runs(opt, "ingest", workload, &runs, IngestRun::report);
}

/// Emits one perf experiment's runs: table, `<stem>.csv` and
/// `BENCH_<stem>.json` with `workload` ahead of the runs.
fn emit_runs<R>(
    opt: &ExpOptions,
    stem: &'static str,
    workload: Report,
    runs: &[R],
    report: fn(&R) -> Report,
) {
    Record::new(stem, runs.iter().map(report).collect()).emit_bench(
        opt,
        [("workload", Value::Object(workload))],
        "runs",
    );
}

/// The measured core of [`ingest`]: the workload it ran and one run per
/// schedule × interval, separated so tests can assert on the numbers
/// (notably: trickle first-result strictly below the batch engine's)
/// without parsing JSON.
pub fn ingest_measurements(opt: &ExpOptions) -> (Report, Vec<IngestRun>) {
    use progxe_core::ingest::{IngestPoll, IngestSession, SourceId, StreamSpec};
    use progxe_datagen::ArrivalSpec;
    use std::time::Instant;

    let n = opt.pick_n(10_000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.1);
    println!("== Streaming ingestion: first-result latency vs arrival rate (independent, N={n}, d={dims}, sigma={sigma}) ==");
    let w = workload(n, dims, Distribution::Independent, sigma, opt.seed);
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let spec = || StreamSpec::new(vec![1.0; dims], vec![100.0; dims]).unwrap();
    let config = default_config_for(dims, sigma);

    // Batch-engine time-to-first-result, measured once: it cannot start
    // before the full input arrived, so its simulated first result is
    // `arrival_end + this`.
    let r_view = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t_view = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
    let session = ProgXe::new(config.clone())
        .open(&r_view, &t_view, &maps)
        .expect("valid config");
    let batch_first = drain(session, |_| {})
        .0
        .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
    let schedules: Vec<(&'static str, ArrivalSpec)> = vec![
        (
            "uniform-shuffle",
            ArrivalSpec::uniform_shuffle(opt.seed, (n / 16).max(1)),
        ),
        ("attr-sorted", ArrivalSpec::attr_sorted((n / 16).max(1))),
        (
            "bursty",
            ArrivalSpec::bursty(opt.seed, (n / 64).max(1), (n / 8).max(1)),
        ),
        ("trickle", ArrivalSpec::trickle((n / 128).max(1))),
    ];
    let intervals_ms: &[f64] = if opt.quick { &[5.0] } else { &[1.0, 5.0, 20.0] };

    let mut runs = Vec::new();
    for (name, sched_spec) in &schedules {
        let mut t_variant = sched_spec.clone();
        t_variant.seed = sched_spec.seed.wrapping_add(1);
        let r_sched = sched_spec.schedule(&w.r);
        let t_sched = t_variant.schedule(&w.t);
        let steps = r_sched.batches.len().max(t_sched.batches.len());
        for &interval in intervals_ms {
            let mut session =
                IngestSession::open(&config, &maps, spec(), spec()).expect("valid config");
            let mut compute = std::time::Duration::ZERO;
            let mut first: Option<f64> = None;
            let mut results = 0u64;
            let drain = |session: &mut IngestSession,
                         arrival_clock_ms: f64,
                         compute: &mut std::time::Duration,
                         first: &mut Option<f64>,
                         results: &mut u64| {
                let t0 = Instant::now();
                while let IngestPoll::Batch(event) = session.poll() {
                    if first.is_none() && !event.tuples.is_empty() {
                        *first =
                            Some(arrival_clock_ms + (*compute + t0.elapsed()).as_secs_f64() * 1e3);
                    }
                    *results += event.tuples.len() as u64;
                }
                *compute += t0.elapsed();
            };
            for i in 0..steps {
                let arrival_clock_ms = (i + 1) as f64 * interval;
                for (side, rel, sched) in
                    [(SourceId::R, &w.r, &r_sched), (SourceId::T, &w.t, &t_sched)]
                {
                    let Some(batch) = sched.batches.get(i) else {
                        continue;
                    };
                    let t0 = Instant::now();
                    let rows: Vec<(u32, &[f64], u32)> = batch
                        .rows
                        .iter()
                        .map(|&row| {
                            (
                                row,
                                rel.attrs_of(row as usize),
                                rel.join_key_of(row as usize),
                            )
                        })
                        .collect();
                    session.push_with_ids(side, &rows).expect("valid batch");
                    if let Some(wm) = &batch.watermark {
                        session.set_watermark(side, wm).expect("sound watermark");
                    }
                    compute += t0.elapsed();
                    drain(
                        &mut session,
                        arrival_clock_ms,
                        &mut compute,
                        &mut first,
                        &mut results,
                    );
                }
            }
            let arrival_end_ms = steps as f64 * interval;
            session.close(SourceId::R);
            session.close(SourceId::T);
            drain(
                &mut session,
                arrival_end_ms,
                &mut compute,
                &mut first,
                &mut results,
            );
            let stats = session.finish();
            assert!(!stats.cancelled);
            runs.push(IngestRun {
                schedule: name,
                interval_ms: interval,
                arrival_end_ms,
                first_result_ms: first,
                batch_first_result_ms: arrival_end_ms + batch_first,
                compute_ms: compute.as_secs_f64() * 1e3,
                results,
            });
        }
    }
    (workload_report("independent", n, dims, sigma), runs)
}

/// One measured flexible-skyline run (see [`fdom`]).
pub struct FdomRun {
    /// Workload distribution family.
    pub distribution: &'static str,
    /// Constraint tightness `t` of the weight band (0 = whole simplex ≡
    /// Pareto; → 1 pins equal weights). `None` marks the Pareto baseline.
    pub tightness: Option<f64>,
    /// Final result-set size.
    pub results: u64,
    /// Pareto skyline size of the same workload (the shrinkage baseline).
    pub pareto_results: u64,
    /// First proven-final result latency.
    pub first_result_ms: Option<f64>,
    /// End-to-end wall time.
    pub wall_ms: f64,
    /// Pareto-optimal tuples removed by the emission filter.
    pub fdom_filtered: u64,
}

impl FdomRun {
    fn report(&self) -> Report {
        let shrinkage = if self.pareto_results == 0 {
            1.0
        } else {
            self.results as f64 / self.pareto_results as f64
        };
        row([
            ("distribution", text(self.distribution)),
            (
                "tightness",
                self.tightness.map_or(Value::Absent, Value::F64),
            ),
            ("results", Value::U64(self.results)),
            ("pareto_results", Value::U64(self.pareto_results)),
            ("shrinkage", Value::F64(shrinkage)),
            ("fdom_filtered", Value::U64(self.fdom_filtered)),
            (
                "first_result_ms",
                self.first_result_ms.map_or(Value::Absent, ms),
            ),
            ("wall_ms", ms(self.wall_ms)),
        ])
    }
}

/// Flexible skylines: result-set shrinkage and first-result latency vs
/// weight-constraint tightness, across the three distributions.
///
/// For each distribution the ProgXe engine runs once under Pareto (the
/// rows with no tightness) and once per tightness step of the nested
/// `simplex_band` family (`progxe_datagen::weights`). As the band tightens
/// the admissible scoring weights shrink, more trade-off pairs become
/// F-dominated, and the answer interpolates from the full skyline toward a
/// top-1-style result — the shrinkage column. Writes `fdom.csv` and
/// `BENCH_fdom.json`.
pub fn fdom(opt: &ExpOptions) {
    let (workload, runs) = fdom_measurements(opt);
    emit_runs(opt, "fdom", workload, &runs, FdomRun::report);
}

/// The measured core of [`fdom`]: the workload it ran and its runs,
/// separated so tests can assert on the numbers (tightness 0 ≡ Pareto;
/// counts non-increasing along the nested sweep) without re-running the
/// sweep for the writer.
pub fn fdom_measurements(opt: &ExpOptions) -> (Report, Vec<FdomRun>) {
    use progxe_core::fdom::flexible_model;
    use progxe_datagen::simplex_band;

    let n = opt.pick_n(4_000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.01);
    let tightnesses: &[f64] = if opt.quick {
        &[0.0, 0.5, 0.9]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 0.9]
    };
    println!(
        "== Flexible skylines: shrinkage + first-result latency vs constraint tightness \
         (N={n}, d={dims}, sigma={sigma}) =="
    );
    let config = default_config_for(dims, sigma);
    let run_once = |maps: &MapSet, r: &SourceView<'_>, t: &SourceView<'_>| {
        let session = ProgXe::new(config.clone())
            .open(r, t, maps)
            .expect("valid configuration");
        drain(session, |_| {})
    };
    let to_ms = |d: Duration| d.as_secs_f64() * 1e3;

    let mut runs = Vec::new();
    for dist in Distribution::ALL {
        let w = workload(n, dims, dist, sigma, opt.seed);
        let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
        let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");
        let pareto_maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let (p_first, p_stats) = run_once(&pareto_maps, &r, &t);
        let pareto_results = p_stats.results_emitted;
        runs.push(FdomRun {
            distribution: dist.name(),
            tightness: None,
            results: pareto_results,
            pareto_results,
            first_result_ms: p_first.map(to_ms),
            wall_ms: to_ms(p_stats.total_time),
            fdom_filtered: 0,
        });
        for &tight in tightnesses {
            let model = flexible_model(dims, simplex_band(dims, tight)).expect("band is non-empty");
            let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims))
                .with_dominance(model)
                .expect("dims match");
            let (first, stats) = run_once(&maps, &r, &t);
            runs.push(FdomRun {
                distribution: dist.name(),
                tightness: Some(tight),
                results: stats.results_emitted,
                pareto_results,
                first_result_ms: first.map(to_ms),
                wall_ms: to_ms(stats.total_time),
                fdom_filtered: stats.tuples_fdom_filtered,
            });
        }
    }
    // The rows carry their distribution; the sweep covers all three.
    (workload_report("all", n, dims, sigma), runs)
}
/// One measured kernel-vs-scalar comparison (see [`kernels`]).
pub struct KernelRun {
    /// `"mask"` (batched dominated-mask vs per-row scalar loop) or
    /// `"blocker"` (kd-tree flexible blocker counts vs the retired
    /// `regions × cells` double loop).
    pub kind: &'static str,
    /// Value dimensions (mask rows) / polytope vertices (blocker rows).
    pub dims: usize,
    /// Batch rows (mask) / region count (blocker).
    pub n: usize,
    /// Query points (mask) / tracked cells (blocker).
    pub queries: usize,
    /// Best-of-repeats wall time of the scalar/naive side.
    pub scalar_ms: f64,
    /// Best-of-repeats wall time of the batched/indexed side.
    pub batched_ms: f64,
    /// `scalar_ms / batched_ms`.
    pub speedup: f64,
    /// Scalar throughput in million pair-tests per second.
    pub scalar_mpairs_s: f64,
    /// Batched throughput in million pair-tests per second.
    pub batched_mpairs_s: f64,
    /// Work the index actually did (blocker rows: tree node visits + leaf
    /// tests; mask rows: equals `naive_ops` — the mask has no early exit).
    pub index_ops: u64,
    /// Work the retired implementation would do (`n × queries`).
    pub naive_ops: u64,
}

impl KernelRun {
    fn report(&self) -> Report {
        row([
            ("kind", text(self.kind)),
            ("dims", count(self.dims)),
            ("n", count(self.n)),
            ("queries", count(self.queries)),
            ("scalar_ms", ms(self.scalar_ms)),
            ("batched_ms", ms(self.batched_ms)),
            ("speedup", Value::F64(self.speedup)),
            ("scalar_mpairs_s", Value::F64(self.scalar_mpairs_s)),
            ("batched_mpairs_s", Value::F64(self.batched_mpairs_s)),
            ("index_ops", Value::U64(self.index_ops)),
            ("naive_ops", Value::U64(self.naive_ops)),
        ])
    }
}

/// Columnar-kernel microbenchmarks: batched dominated-mask throughput vs
/// the one-pair-at-a-time scalar loop across dims × batch sizes
/// (anti-correlated data — the dominance-heavy worst case), and the
/// kd-tree flexible blocker index vs the retired `regions × cells` loop at
/// growing region counts. Both sides are verified to produce identical
/// answers before timing is reported. Writes `kernels.csv` and
/// `BENCH_kernels.json`; panics (failing CI) if the
/// batched kernel loses to scalar or the blocker index fails to do less
/// work than the naive loop.
pub fn kernels(opt: &ExpOptions) {
    let (workload, runs) = kernel_measurements(opt);
    assert_kernel_gates(&runs, opt.quick);
    emit_runs(opt, "kernels", workload, &runs, KernelRun::report);
}

/// The measured core of [`kernels`]: the mask sweep's workload and every
/// run, separated so tests can assert on the numbers without re-running
/// the sweep for the writer.
pub fn kernel_measurements(opt: &ExpOptions) -> (Report, Vec<KernelRun>) {
    use progxe_skyline::kernel;
    use std::time::Instant;

    let queries = 64usize;
    let repeats = 5usize;
    let dims_list: &[usize] = if opt.quick { &[2, 3, 8] } else { &[2, 3, 5, 8] };
    let sizes: &[usize] = if opt.quick {
        &[512, 4_096]
    } else {
        &[1_000, 10_000, 100_000]
    };
    println!("== Columnar dominance kernels: batched vs scalar (anti-correlated) ==");

    let mut runs = Vec::new();
    for &d in dims_list {
        for &n in sizes {
            // Anti-correlated points: the dominance-heavy regime where the
            // window stays large and every pair is genuinely tested.
            let w = workload(n + queries, d, Distribution::AntiCorrelated, 0.01, opt.seed);
            let batch = &w.r.attrs.raw()[..n * d];
            let qs = &w.t.attrs.raw()[..queries * d];
            let mut mask = vec![false; n];

            let mut scalar_hits = 0u64;
            let mut scalar_ms = f64::INFINITY;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let mut hits = 0u64;
                for q in qs.chunks_exact(d) {
                    for row in batch.chunks_exact(d) {
                        hits += u64::from(kernel::dominates_scalar(q, row));
                    }
                }
                scalar_ms = scalar_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                scalar_hits = hits;
            }

            let mut batched_hits = 0u64;
            let mut batched_ms = f64::INFINITY;
            let mut pairs = 0u64;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let mut hits = 0u64;
                for q in qs.chunks_exact(d) {
                    hits += kernel::dominated_mask(d, batch, q, &mut mask, &mut pairs) as u64;
                }
                batched_ms = batched_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                batched_hits = hits;
            }
            assert_eq!(
                scalar_hits, batched_hits,
                "d={d} n={n}: batched kernel diverged from scalar"
            );

            let total_pairs = (n * queries) as u64;
            runs.push(KernelRun {
                kind: "mask",
                dims: d,
                n,
                queries,
                scalar_ms,
                batched_ms,
                speedup: scalar_ms / batched_ms,
                scalar_mpairs_s: total_pairs as f64 / (scalar_ms * 1e3),
                batched_mpairs_s: total_pairs as f64 / (batched_ms * 1e3),
                index_ops: total_pairs,
                naive_ops: total_pairs,
            });
        }
    }

    runs.extend(blocker_measurements(opt));
    let workload = row([
        ("distribution", text("anti-correlated")),
        ("queries", count(queries)),
        ("repeats", count(repeats)),
    ]);
    (workload, runs)
}

/// Blocker-index half of [`kernel_measurements`]: kd-tree dominance counts
/// vs the retired naive double loop, identical counts verified per cell.
fn blocker_measurements(opt: &ExpOptions) -> Vec<KernelRun> {
    use progxe_core::cells::CellStore;
    use progxe_core::fdom::flexible_model;
    use progxe_core::lookahead::Region;
    use progxe_core::output_grid::OutputGrid;
    use progxe_core::progdetermine::ProgDetermine;
    use progxe_datagen::simplex_band;
    use std::time::Instant;

    let region_counts: &[usize] = if opt.quick {
        &[100, 400]
    } else {
        &[400, 1_600, 6_400]
    };
    let cells_per_dim: u16 = if opt.quick { 16 } else { 32 };
    println!("== Flexible blocker counting: kd-tree index vs naive double loop ==");

    let model = flexible_model(2, simplex_band(2, 0.5)).expect("band is non-empty");
    let fdom = model.as_flexible().expect("flexible by construction");
    let k = fdom.vertex_count();

    let mut runs = Vec::new();
    for &n_regions in region_counts {
        // Deterministic pseudo-random region boxes over a [0,64)² space.
        let mut x: u64 = opt.seed | 1;
        let mut next = |m: f64| -> f64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64 / (1u64 << 31) as f64) * m
        };
        let grid = OutputGrid::new(vec![0.0, 0.0], vec![64.0, 64.0], cells_per_dim);
        let mut regions = Vec::with_capacity(n_regions);
        for id in 0..n_regions as u32 {
            let lo = vec![next(60.0), next(60.0)];
            let hi = vec![lo[0] + next(4.0), lo[1] + next(4.0)];
            let (cell_lo, cell_hi) = grid.box_of(&lo, &hi);
            regions.push(Region {
                id,
                r_part: 0,
                t_part: 0,
                lo,
                hi,
                cell_lo,
                cell_hi,
                n_r: 1,
                n_t: 1,
                guaranteed: true,
            });
        }
        let mut store = CellStore::with_model(grid.clone(), model.clone());
        for r in &regions {
            for c in grid.iter_box(r.cell_lo, r.cell_hi) {
                store.track(c);
            }
        }
        let cells = store.len();

        // Indexed side: ProgDetermine::new projects everything and answers
        // each cell through the kd-tree.
        let t0 = Instant::now();
        let det = ProgDetermine::new(&store, &regions);
        let batched_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Naive side (the retired PR 5 implementation): same projections,
        // then the full regions × cells double loop.
        let t0 = Instant::now();
        let mut buf = Vec::with_capacity(k);
        let mut region_proj = Vec::with_capacity(n_regions * k);
        for r in &regions {
            fdom.project_into(&r.lo, &mut buf);
            region_proj.extend_from_slice(&buf);
        }
        let mut cell_proj = Vec::with_capacity(cells * k);
        let mut corner = Vec::new();
        for (_, cell) in store.iter() {
            grid.upper_corner_into(cell.coord(), &mut corner);
            fdom.project_into(&corner, &mut buf);
            cell_proj.extend_from_slice(&buf);
        }
        let mut naive = vec![0u32; cells];
        for r in 0..n_regions {
            let rp = &region_proj[r * k..(r + 1) * k];
            for (c, counter) in naive.iter_mut().enumerate() {
                let cp = &cell_proj[c * k..(c + 1) * k];
                if rp.iter().zip(cp).all(|(a, b)| a <= b) {
                    *counter += 1;
                }
            }
        }
        let scalar_ms = t0.elapsed().as_secs_f64() * 1e3;

        for (idx, _) in store.iter() {
            assert_eq!(
                det.blockers_of(idx),
                naive[idx as usize],
                "regions={n_regions}: kd-tree count diverged from naive on cell {idx}"
            );
        }

        let naive_ops = (n_regions * cells) as u64;
        runs.push(KernelRun {
            kind: "blocker",
            dims: k,
            n: n_regions,
            queries: cells,
            scalar_ms,
            batched_ms,
            speedup: scalar_ms / batched_ms,
            scalar_mpairs_s: naive_ops as f64 / (scalar_ms * 1e3),
            batched_mpairs_s: naive_ops as f64 / (batched_ms * 1e3),
            index_ops: det.flexible_blocker_ops(),
            naive_ops,
        });
    }
    runs
}

/// The CI gates behind `BENCH_kernels.json`: the batched mask kernel must
/// never lose to the scalar loop; on the full-size run the flagship
/// configuration (d=3, N=10k, anti-correlated) must win by ≥ 1.5×; and the
/// blocker index must do strictly less work than `regions × cells`.
///
/// Wall-clock gates are release-only: the batched win comes from
/// autovectorization, which debug builds don't perform, and the in-process
/// unit test runs in debug under full-suite core contention. The ops-based
/// blocker gate (and every differential equality check in the measurement
/// loops) stays on everywhere. CI enforces the timing gates via the release
/// `figures -- kernels --quick` step.
fn assert_kernel_gates(runs: &[KernelRun], quick: bool) {
    let timing = !cfg!(debug_assertions);
    for run in runs {
        match run.kind {
            "mask" => assert!(
                !timing || run.speedup >= 1.0,
                "batched kernel lost to scalar at d={} n={}: {:.2}x",
                run.dims,
                run.n,
                run.speedup
            ),
            "blocker" => assert!(
                run.index_ops < run.naive_ops,
                "blocker index did {} ops, naive bound is {}",
                run.index_ops,
                run.naive_ops
            ),
            other => unreachable!("unknown kernel run kind {other}"),
        }
    }
    if !quick {
        let flagship = runs
            .iter()
            .find(|r| r.kind == "mask" && r.dims == 3 && r.n == 10_000)
            .expect("full sweep includes d=3 N=10k");
        assert!(
            !timing || flagship.speedup >= 1.5,
            "flagship d=3 N=10k speedup {:.2}x below the 1.5x acceptance bar",
            flagship.speedup
        );
    }
}

/// One measured tracing-overhead run (see [`obs`]).
pub struct ObsRun {
    /// Recorder mode: `"off"` (no recorder attached), `"null"` (a
    /// [`progxe_obs::NullRecorder`] — attached but disabled), or `"ring"`
    /// (full event capture into a [`progxe_obs::RingRecorder`]).
    pub mode: &'static str,
    /// End-to-end wall time of the best (min-wall) repeat.
    pub wall_ms: f64,
    /// First proven-final result latency of that repeat.
    pub first_result_ms: Option<f64>,
    /// Final result count — identical across modes by Principle 1 (tracing
    /// must never change what is emitted).
    pub results: u64,
    /// Events recorded by the ring (0 for off/null).
    pub events: u64,
    /// Events dropped on ring overflow (0 for off/null).
    pub dropped: u64,
}

impl ObsRun {
    fn report(&self) -> Report {
        row([
            ("mode", text(self.mode)),
            ("wall_ms", ms(self.wall_ms)),
            (
                "first_result_ms",
                self.first_result_ms.map_or(Value::Absent, ms),
            ),
            ("results", Value::U64(self.results)),
            ("events", Value::U64(self.events)),
            ("dropped", Value::U64(self.dropped)),
        ])
    }
}

/// Ring capacity used by the `ring` leg — the recorder default, large
/// enough that the reference workload never overflows (asserted).
pub const OBS_RING_CAPACITY: usize = 64 * 1024;

/// The ring-vs-null overhead bound enforced by [`obs`]: full runs gate at
/// 3%; quick (CI smoke) runs use a generous 25% margin because their
/// millisecond-scale walls are noise-dominated on shared runners.
pub fn obs_overhead_gate(quick: bool) -> f64 {
    if quick {
        0.25
    } else {
        0.03
    }
}

/// Tracing overhead: wall time and first-result latency of the reference
/// progressive workload (anti-correlated, d = 3, σ = 0.1) with the
/// recorder off, attached-but-null, and fully recording into a bounded
/// ring. Writes `obs.csv` and `BENCH_obs.json`.
///
/// **Gate**: the `ring` leg's wall time must stay within
/// [`obs_overhead_gate`] of the `null` leg's — panics otherwise, so a
/// regression that makes tracing expensive fails the build instead of
/// silently taxing every traced session.
pub fn obs(opt: &ExpOptions) {
    let (workload, runs) = obs_measurements(opt);
    let gate = obs_overhead_gate(opt.quick);
    assert_obs_overhead(&runs, gate);
    emit_obs(opt, workload, &runs, gate);
}

/// Emits [`obs`]'s runs with an `overhead` object (the gate and the
/// ring-vs-null and null-vs-off wall-time ratios, in percent).
fn emit_obs(opt: &ExpOptions, workload: Report, runs: &[ObsRun], gate: f64) {
    let null = obs_wall(runs, "null");
    let pct = |over: f64, base: f64| Value::F64((over - base) / base * 100.0);
    let overhead = row([
        ("gate_pct", Value::F64(gate * 100.0)),
        ("ring_vs_null_pct", pct(obs_wall(runs, "ring"), null)),
        ("null_vs_off_pct", pct(null, obs_wall(runs, "off"))),
    ]);
    println!("tracing overhead: {}", overhead.to_json());
    Record::new("obs", runs.iter().map(ObsRun::report).collect()).emit_bench(
        opt,
        [
            ("workload", Value::Object(workload)),
            ("overhead", Value::Object(overhead)),
        ],
        "runs",
    );
}

fn obs_wall(runs: &[ObsRun], mode: &str) -> f64 {
    runs.iter()
        .find(|r| r.mode == mode)
        .map(|r| r.wall_ms)
        .expect("mode measured")
}

fn assert_obs_overhead(runs: &[ObsRun], gate: f64) {
    let null = obs_wall(runs, "null");
    let ring = obs_wall(runs, "ring");
    let overhead = (ring - null) / null;
    assert!(
        overhead <= gate,
        "ring-recorder overhead {:.1}% exceeds the {:.0}% gate \
         (null={null:.2}ms, ring={ring:.2}ms)",
        overhead * 100.0,
        gate * 100.0,
    );
}

/// The measured core of [`obs`]: the workload it ran and one run per
/// mode, separated so tests can assert on the numbers (modes agree on
/// results; the ring never drops) without re-running the sweep for the
/// writer.
pub fn obs_measurements(opt: &ExpOptions) -> (Report, Vec<ObsRun>) {
    use progxe_obs::{NullRecorder, Recorder, RingRecorder};

    let n = opt.pick_n(10_000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.1);
    let repeats = if opt.quick { 3 } else { 5 };
    println!(
        "== Tracing overhead: recorder off / null / ring \
         (anti-correlated, N={n}, d={dims}, sigma={sigma}, min of {repeats}) =="
    );
    let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let config = default_config_for(dims, sigma);
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).expect("parallel arrays");

    let run_once = |recorder: Option<Arc<dyn Recorder>>| {
        let session = ProgXe::new(config.clone())
            .with_recorder(recorder)
            .open(&r, &t, &maps)
            .expect("valid configuration");
        drain(session, |_| {})
    };

    // Warm-up, discarded: first-touch page faults and lazy allocations
    // must not land on whichever mode happens to run first.
    let _ = run_once(None);

    let mut runs = Vec::new();
    for mode in ["off", "null", "ring"] {
        let mut best: Option<ObsRun> = None;
        for _ in 0..repeats {
            let ring =
                (mode == "ring").then(|| Arc::new(RingRecorder::with_capacity(OBS_RING_CAPACITY)));
            let recorder: Option<Arc<dyn Recorder>> = match mode {
                "off" => None,
                "null" => Some(Arc::new(NullRecorder)),
                _ => ring.clone().map(|r| r as Arc<dyn Recorder>),
            };
            let (first, stats) = run_once(recorder);
            assert!(!stats.cancelled);
            let run = ObsRun {
                mode,
                wall_ms: stats.total_time.as_secs_f64() * 1e3,
                first_result_ms: first.map(|d| d.as_secs_f64() * 1e3),
                results: stats.results_emitted,
                events: ring.as_ref().map(|r| r.recorded()).unwrap_or(0),
                dropped: ring.as_ref().map(|r| r.dropped()).unwrap_or(0),
            };
            if best.as_ref().is_none_or(|b| run.wall_ms < b.wall_ms) {
                best = Some(run);
            }
        }
        runs.push(best.expect("repeats >= 1"));
    }
    let mut workload = workload_report("anti-correlated", n, dims, sigma);
    workload
        .push("ring_capacity", count(OBS_RING_CAPACITY))
        .push("repeats", count(repeats));
    (workload, runs)
}

/// Section III-B: the comparable-cell bound. For each new tuple, dominance
/// comparisons are confined to at most `k^d − (k−1)^d` of the `k^d` output
/// cells; this experiment reports the *measured* average candidate cells
/// per insertion against both bounds.
pub fn cellbound(opt: &ExpOptions) {
    let n = opt.pick_n(2000);
    let sigma = opt.sigma.unwrap_or(0.01);
    println!("== Section III-B: comparable-cell bound (N={n}, sigma={sigma}) ==");
    let mut rows = Vec::new();
    for dims in [2usize, 3, 4] {
        let w = workload(n, dims, Distribution::Independent, sigma, opt.seed);
        let config = default_config_for(dims, sigma);
        let k = config.output_cells_per_dim as u64;
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
        let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
        let mut sink = CountSink::default();
        let stats = ProgXe::new(config).run(&r, &t, &maps, &mut sink).unwrap();
        let attempts = stats.tuples_inserted + stats.tuples_rejected_dominated;
        let avg = if attempts == 0 {
            0.0
        } else {
            stats.comparable_cells_visited as f64 / attempts as f64
        };
        let naive = k.pow(dims as u32);
        rows.push(row([
            ("d", count(dims)),
            ("k", Value::U64(k)),
            ("naive_cells", Value::U64(naive)),
            ("bound", Value::U64(naive - (k - 1).pow(dims as u32))),
            ("measured_avg", Value::F64(avg)),
            ("measured_max", Value::U64(stats.comparable_cells_max)),
        ]));
    }
    Record::new("cellbound", rows).emit(opt);
}

/// Section VI-B's δ remark: sensitivity to grid granularity (input
/// partitions per dimension × output cells per dimension).
pub fn ablate_delta(opt: &ExpOptions) {
    let n = opt.pick_n(2000);
    let dims = opt.pick_dims(3);
    let sigma = opt.sigma.unwrap_or(0.01);
    println!("== Ablation: grid granularity δ (N={n}, d={dims}, sigma={sigma}) ==");
    let w = workload(n, dims, Distribution::AntiCorrelated, sigma, opt.seed);
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
    let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
    let mut rows = Vec::new();
    for p in [1usize, 2, 3, 4] {
        for k in [8usize, 16, 32] {
            let config = default_config_for(dims, sigma)
                .with_input_partitions(p)
                .with_output_cells(k);
            let mut sink = progxe_core::sink::ProgressSink::new();
            let stats = ProgXe::new(config).run(&r, &t, &maps, &mut sink).unwrap();
            let half = sink
                .records
                .iter()
                .find(|rec| rec.cumulative * 2 >= sink.total())
                .map(|rec| rec.elapsed);
            rows.push(row([
                ("p", count(p)),
                ("k", count(k)),
                ("regions", count(stats.regions_created)),
                ("cells", count(stats.cells_tracked)),
                ("total_ms", Value::DurationMs(stats.total_time)),
                ("t50_ms", opt_ms(half)),
            ]));
        }
    }
    Record::new("ablate_delta", rows).emit(opt);
}

/// Section VI-B's overhead claim: "the overhead incurred due to ordering is
/// insignificant but has good progressiveness benefits". Compares ProgOrder
/// against random and FIFO ordering on identical workloads.
pub fn ablate_order(opt: &ExpOptions) {
    let n = opt.pick_n(2500);
    let dims = opt.pick_dims(4);
    let sigma = opt.sigma.unwrap_or(0.001);
    println!("== Ablation: ordering policy (N={n}, d={dims}, sigma={sigma}) ==");
    let mut rows = Vec::new();
    for dist in Distribution::ALL {
        let w = workload(n, dims, dist, sigma, opt.seed);
        let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
        let r = SourceView::new(&w.r.attrs, &w.r.join_keys).unwrap();
        let t = SourceView::new(&w.t.attrs, &w.t.join_keys).unwrap();
        for (name, ordering) in [
            ("ProgOrder", OrderingPolicy::ProgOrder),
            ("Random", OrderingPolicy::Random { seed: 0x5EED }),
            ("FIFO", OrderingPolicy::Fifo),
        ] {
            let config = default_config_for(dims, sigma).with_ordering(ordering);
            let mut sink = progxe_core::sink::ProgressSink::new();
            let stats = ProgXe::new(config).run(&r, &t, &maps, &mut sink).unwrap();
            let run = RunResult {
                algo: name,
                results: sink.total(),
                records: sink.records,
                total_time: stats.total_time,
                false_positives: 0,
            };
            rows.push(row([
                ("distribution", text(dist.name())),
                ("policy", text(name)),
                ("results", Value::U64(run.results)),
                ("first_ms", opt_ms(run.first_result())),
                ("t50_ms", opt_ms(run.time_to_fraction(0.5))),
                ("total_ms", Value::DurationMs(run.total_time)),
            ]));
        }
    }
    Record::new("ablate_order", rows).emit(opt);
}

/// Section VII's claim, quantified: SSMJ's batch-1 results are not final
/// under mapping functions. Counts false positives across distributions
/// and dimensionalities.
pub fn ssmj_soundness(opt: &ExpOptions) {
    let n = opt.pick_n(1500);
    let sigma = opt.sigma.unwrap_or(0.01);
    println!("== SSMJ batch-1 soundness under maps (N={n}, sigma={sigma}) ==");
    let mut rows = Vec::new();
    for dist in Distribution::ALL {
        for dims in [2usize, 3, 4] {
            let w = workload(n, dims, dist, sigma, opt.seed);
            let run = run_algo(AlgoKind::Ssmj, &w);
            rows.push(row([
                ("distribution", text(dist.name())),
                ("d", count(dims)),
                (
                    "batch1",
                    Value::U64(run.records.first().map_or(0, |r| r.cumulative)),
                ),
                ("false_positives", Value::U64(run.false_positives)),
                ("final", Value::U64(run.results - run.false_positives)),
            ]));
        }
    }
    Record::new("ssmj_soundness", rows).emit(opt);
}
/// One measured serving load point (see [`serving`]).
pub struct ServingRun {
    /// Simulated concurrent clients, each running one query over its own
    /// TCP connection.
    pub clients: usize,
    /// Queries the server completed successfully.
    pub queries_ok: u64,
    /// Connections shed by admission control (0 when the cap fits the
    /// client count, as in this sweep).
    pub rejected: u64,
    /// Wall-clock duration of the whole load point.
    pub elapsed_ms: f64,
    /// Completed queries per second over the load point.
    pub qps: f64,
    /// Median client-measured time-to-first-result.
    pub first_p50_ms: f64,
    /// 99th-percentile client-measured time-to-first-result.
    pub first_p99_ms: f64,
}

impl ServingRun {
    fn report(&self) -> Report {
        row([
            ("clients", count(self.clients)),
            ("queries_ok", Value::U64(self.queries_ok)),
            ("rejected", Value::U64(self.rejected)),
            ("elapsed_ms", ms(self.elapsed_ms)),
            ("qps", Value::F64(self.qps)),
            ("first_result_p50_ms", ms(self.first_p50_ms)),
            ("first_result_p99_ms", ms(self.first_p99_ms)),
        ])
    }
}

/// Engine worker threads shared by every session of a serving load point.
const SERVING_ENGINE_THREADS: usize = 2;

/// Rows of the streaming catalog every subscription query runs over.
const SUBSCRIPTION_CATALOG_ROWS: usize = 60;

/// Serving load generator: spins up the TCP server from `crates/server`
/// over a synthetic anti-correlated catalog, then hits it with 100–1000
/// simulated clients (one OS thread + one connection each, one query per
/// client) and reports QPS plus client-observed p50/p99 time-to-first-
/// result. A second sweep measures protocol-v2 subscriptions: standing
/// streaming queries fed over the wire, reporting push-to-update latency
/// at 100+ concurrent subscribers. Writes `serving.csv`,
/// `serving_subscriptions.csv`, and `BENCH_serving.json` (one-shot
/// `points` and their `workload`, plus `subscriptions` and their
/// `subscription_workload`); CI runs the `--quick` points (100 clients,
/// 100 subscribers) as a smoke.
pub fn serving(opt: &ExpOptions) {
    emit_serving(
        opt,
        serving_measurements(opt),
        subscription_measurements(opt),
    );
}

/// Emits both serving sweeps, each as the workload it ran plus its runs.
fn emit_serving(
    opt: &ExpOptions,
    (workload, runs): (Report, Vec<ServingRun>),
    (sub_workload, subs): (Report, Vec<SubscriptionRun>),
) {
    let subs = Record::new(
        "serving_subscriptions",
        subs.iter().map(SubscriptionRun::report).collect(),
    );
    subs.emit(opt);
    Record::new("serving", runs.iter().map(ServingRun::report).collect()).emit_bench(
        opt,
        [
            ("workload", Value::Object(workload)),
            ("subscription_workload", Value::Object(sub_workload)),
            ("subscriptions", Value::List(subs.rows)),
        ],
        "points",
    );
}

/// The measured core of [`serving`] at the default sweep sizes: 100
/// clients in `--quick` mode, 100/250/500/1000 otherwise.
pub fn serving_measurements(opt: &ExpOptions) -> (Report, Vec<ServingRun>) {
    let sweep: &[usize] = if opt.quick {
        &[100]
    } else {
        &[100, 250, 500, 1000]
    };
    let rows = opt.pick_n(800); // --quick shrinks this to 80 via pick_n
    let dims = opt.pick_dims(2);
    serving_sweep(opt, sweep, rows, dims)
}

/// The measured subscription core of [`serving`]: 100 subscribers in
/// `--quick` mode, 100/250 otherwise, each pushing `pick_n(200)` rows per
/// source in 25-row batches.
pub fn subscription_measurements(opt: &ExpOptions) -> (Report, Vec<SubscriptionRun>) {
    let sweep: &[usize] = if opt.quick { &[100] } else { &[100, 250] };
    let rows = opt.pick_n(200);
    let dims = opt.pick_dims(2);
    subscription_sweep(opt, sweep, rows, dims, 25)
}

/// Runs one load point per entry in `sweep` against a fresh server (port
/// 0, session cap = client count, `SERVING_ENGINE_THREADS` engine
/// workers shared by every session) and returns the workload it ran with
/// the runs. Split from [`serving_measurements`] so tests can drive a tiny
/// sweep without the 100-client default. Panics — failing CI — on any
/// connection, query, or cancellation anomaly.
pub fn serving_sweep(
    opt: &ExpOptions,
    sweep: &[usize],
    rows: usize,
    dims: usize,
) -> (Report, Vec<ServingRun>) {
    use progxe_query::{Engine, QueryRunner};
    use progxe_server::{synthetic, Server, ServerConfig};
    use std::time::Instant;

    println!(
        "== Serving: QPS + first-result latency vs concurrent clients \
         (anti-correlated, N={rows}, d={dims}, seed={}) ==",
        opt.seed
    );
    let sql = std::sync::Arc::new(synthetic::query_sql(dims));
    let mut out = Vec::new();
    for &clients in sweep {
        let runner = QueryRunner::new(synthetic::catalog(rows, dims, opt.seed));
        let handle = Server::start(
            runner,
            Engine::progxe_threads(SERVING_ENGINE_THREADS),
            ServerConfig {
                max_sessions: clients,
            },
            "127.0.0.1:0",
        )
        .expect("bind port 0");
        let addr = handle.addr();

        let started = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let sql = std::sync::Arc::clone(&sql);
                std::thread::spawn(move || {
                    let mut client =
                        progxe_server::Client::connect(addr).expect("admitted under the cap");
                    let outcome = client.run_query(&sql).expect("query frame exchange");
                    assert!(
                        outcome.error.is_none(),
                        "server error under load: {:?}",
                        outcome.error
                    );
                    let done = outcome.done.expect("terminal Done frame");
                    assert!(
                        !done.cancelled,
                        "no client disconnected, yet a run cancelled"
                    );
                    outcome
                        .first_result
                        .expect("anti-correlated workloads always emit results")
                })
            })
            .collect();
        let mut firsts_ms: Vec<f64> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread").as_secs_f64() * 1e3)
            .collect();
        let elapsed = started.elapsed();
        firsts_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

        let metrics = handle.metrics();
        let queries_ok = metrics.queries_ok();
        let rejected = metrics.rejected();
        assert_eq!(
            metrics.queries_cancelled(),
            0,
            "load generator never cancels"
        );
        handle.shutdown();
        assert_eq!(queries_ok, clients as u64, "every client's query completes");

        let run = ServingRun {
            clients,
            queries_ok,
            rejected,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            qps: queries_ok as f64 / elapsed.as_secs_f64(),
            first_p50_ms: percentile(&firsts_ms, 0.50),
            first_p99_ms: percentile(&firsts_ms, 0.99),
        };
        println!(
            "{clients:>5} clients: {:.0} qps, first result p50 {:.1}ms / p99 {:.1}ms \
             ({:.0}ms wall)",
            run.qps, run.first_p50_ms, run.first_p99_ms, run.elapsed_ms
        );
        out.push(run);
    }
    let workload = row([
        ("distribution", text("anti-correlated")),
        ("n", count(rows)),
        ("dims", count(dims)),
        ("engine_threads", count(SERVING_ENGINE_THREADS)),
    ]);
    (workload, out)
}

/// One measured subscription load point (see [`serving`]).
pub struct SubscriptionRun {
    /// Concurrent subscribers, each holding one standing streaming query
    /// over its own TCP connection and pushing its own arrival feed.
    pub subscribers: usize,
    /// Push frames sent across all subscribers.
    pub pushes: u64,
    /// `Update` frames received across all subscribers.
    pub updates: u64,
    /// Result tuples received across all subscribers.
    pub results: u64,
    /// Wall-clock duration of the whole load point.
    pub elapsed_ms: f64,
    /// Median push-to-update latency: time from writing a `Push` frame to
    /// receiving an `Update` it unlocked.
    pub update_p50_ms: f64,
    /// 99th-percentile push-to-update latency.
    pub update_p99_ms: f64,
}

impl SubscriptionRun {
    fn report(&self) -> Report {
        row([
            ("subscribers", count(self.subscribers)),
            ("pushes", Value::U64(self.pushes)),
            ("updates", Value::U64(self.updates)),
            ("results", Value::U64(self.results)),
            ("elapsed_ms", ms(self.elapsed_ms)),
            ("push_to_update_p50_ms", ms(self.update_p50_ms)),
            ("push_to_update_p99_ms", ms(self.update_p99_ms)),
        ])
    }
}

/// Runs one subscription load point per entry in `sweep`: every
/// subscriber connects v2, opens a standing query, and replays a
/// seed-distinct [`progxe_server::synthetic::arrival_feed`] of `rows` rows per source in
/// `batch`-row pushes, draining `Update`s on a second thread (the
/// [`progxe_server::Client::into_split`] shape), and returns the workload
/// it ran with the runs. Push-to-update latency attributes each update to
/// the most recent push on its connection. Panics — failing CI — on any
/// connection, frame, or cancellation anomaly.
pub fn subscription_sweep(
    opt: &ExpOptions,
    sweep: &[usize],
    rows: usize,
    dims: usize,
    batch: usize,
) -> (Report, Vec<SubscriptionRun>) {
    use progxe_query::{Engine, QueryRunner};
    use progxe_server::{synthetic, Client, Server, ServerConfig, ServerFrame};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    println!(
        "== Serving: push-to-update latency vs concurrent subscribers \
         (anti-correlated feeds, {rows} rows/source, d={dims}, batch={batch}, seed={}) ==",
        opt.seed
    );
    let sql = Arc::new(synthetic::query_sql(dims));
    let mut out = Vec::new();
    for &subscribers in sweep {
        let runner = QueryRunner::new(synthetic::streaming_catalog(
            SUBSCRIPTION_CATALOG_ROWS,
            dims,
            opt.seed,
        ));
        let handle = Server::start(
            runner,
            Engine::progxe_threads(SERVING_ENGINE_THREADS),
            ServerConfig {
                max_sessions: subscribers,
            },
            "127.0.0.1:0",
        )
        .expect("bind port 0");
        let addr = handle.addr();

        let started = Instant::now();
        let seed = opt.seed;
        let workers: Vec<_> = (0..subscribers)
            .map(|i| {
                let sql = Arc::clone(&sql);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("admitted under the cap");
                    client.subscribe(0, &sql).expect("subscribe");
                    match client.next_server_frame().expect("frame") {
                        ServerFrame::SubAccepted { .. } => {}
                        other => panic!("expected SubAccepted, got {other:?}"),
                    }
                    let feed = synthetic::arrival_feed(0, rows, dims, seed ^ (i as u64 + 1), batch);
                    let (mut writer, mut reader) = client.into_split();

                    // Reader thread drains until SubDone, attributing each
                    // update to the most recent push (nanos since `origin`,
                    // published through the atomic just before the write).
                    let origin = Instant::now();
                    let last_push = Arc::new(AtomicU64::new(0));
                    let observed = Arc::clone(&last_push);
                    let drain = std::thread::spawn(move || {
                        let mut latencies_ms = Vec::new();
                        let mut updates = 0u64;
                        let mut results = 0u64;
                        loop {
                            match reader.next_server_frame().expect("frame") {
                                ServerFrame::Update { batch, .. } => {
                                    let now = origin.elapsed().as_nanos() as u64;
                                    let sent = observed.load(Ordering::Acquire);
                                    latencies_ms.push(now.saturating_sub(sent) as f64 / 1e6);
                                    updates += 1;
                                    results += batch.tuples.len() as u64;
                                }
                                ServerFrame::SubDone { done, .. } => {
                                    assert!(!done.cancelled, "fully fed subs complete");
                                    return (latencies_ms, updates, results);
                                }
                                other => panic!("expected Update or SubDone, got {other:?}"),
                            }
                        }
                    });
                    let pushes = feed.len() as u64;
                    for frame in &feed {
                        last_push.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
                        writer
                            .send(&progxe_server::ClientFrame::Push(frame.clone()))
                            .expect("push");
                    }
                    let (latencies_ms, updates, results) = drain.join().expect("reader thread");
                    (pushes, latencies_ms, updates, results)
                })
            })
            .collect();
        let mut pushes = 0u64;
        let mut updates = 0u64;
        let mut results = 0u64;
        let mut latencies_ms: Vec<f64> = Vec::new();
        for worker in workers {
            let (p, l, u, r) = worker.join().expect("subscriber thread");
            pushes += p;
            updates += u;
            results += r;
            latencies_ms.extend(l);
        }
        let elapsed = started.elapsed();
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

        let metrics = handle.metrics();
        assert_eq!(
            metrics.queries_ok(),
            subscribers as u64,
            "every subscription ran to completion"
        );
        assert_eq!(
            metrics.queries_cancelled(),
            0,
            "the load generator never cancels"
        );
        handle.shutdown();
        assert!(
            !latencies_ms.is_empty(),
            "anti-correlated feeds emit updates"
        );

        let run = SubscriptionRun {
            subscribers,
            pushes,
            updates,
            results,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            update_p50_ms: percentile(&latencies_ms, 0.50),
            update_p99_ms: percentile(&latencies_ms, 0.99),
        };
        println!(
            "{subscribers:>5} subscribers: {} pushes -> {} updates ({} results), \
             push-to-update p50 {:.1}ms / p99 {:.1}ms ({:.0}ms wall)",
            run.pushes,
            run.updates,
            run.results,
            run.update_p50_ms,
            run.update_p99_ms,
            run.elapsed_ms
        );
        out.push(run);
    }
    let workload = row([
        ("distribution", text("anti-correlated")),
        ("catalog_n", count(SUBSCRIPTION_CATALOG_ROWS)),
        ("rows_per_source", count(rows)),
        ("batch", count(batch)),
        ("dims", count(dims)),
        ("engine_threads", count(SERVING_ENGINE_THREADS)),
    ]);
    (workload, out)
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(dir: &str) -> ExpOptions {
        ExpOptions {
            quick: true,
            out: std::env::temp_dir().join(dir),
            ..ExpOptions::default()
        }
    }

    /// Reads `BENCH_<stem>.json`, checking it leads with the `host` object
    /// and carries every key in `keys`.
    fn read_bench(opt: &ExpOptions, stem: &str, keys: &[&str]) -> String {
        let json = std::fs::read_to_string(opt.out.join(format!("BENCH_{stem}.json"))).unwrap();
        let host = format!(
            "{{\"host\": {{\"hardware_threads\": {}, ",
            hardware_threads()
        );
        assert!(
            json.starts_with(&host),
            "BENCH_{stem}.json lacks host: {json}"
        );
        assert!(json.contains("\"quick\": true, \"seed\": "), "{json}");
        for key in keys {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "BENCH_{stem}.json missing {key}: {json}"
            );
        }
        json
    }

    #[test]
    fn fig10_prog_quick_writes_csv() {
        let opt = quick_opts("progxe-fig10");
        fig10_prog(&opt);
        assert!(opt.out.join("fig10_prog_series.csv").exists());
    }

    #[test]
    fn fig12_quick_runs() {
        let opt = quick_opts("progxe-fig12");
        fig12(&opt);
        assert!(opt.out.join("fig12_series.csv").exists());
    }

    #[test]
    fn ssmj_soundness_quick_runs() {
        let opt = quick_opts("progxe-ssmj");
        ssmj_soundness(&opt);
        assert!(opt.out.join("ssmj_soundness.csv").exists());
    }

    #[test]
    fn cellbound_quick_runs() {
        let opt = quick_opts("progxe-cellbound");
        cellbound(&opt);
        assert!(opt.out.join("cellbound.csv").exists());
    }

    #[test]
    fn serving_sweep_small_point_yields_sane_latencies_and_artifacts() {
        let opt = quick_opts("progxe-serving");
        // Tiny sweep (4 clients, 120-row tables) so the debug-mode test
        // stays fast; the CI smoke runs the real 100-client point via
        // `figures serving --quick` in release mode.
        let (workload, runs) = serving_sweep(&opt, &[4], 120, 2);
        assert_eq!(workload.get("n"), Some(&Value::U64(120)));
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.queries_ok, 4);
        assert_eq!(run.rejected, 0);
        assert!(run.qps > 0.0);
        assert!(
            run.first_p99_ms >= run.first_p50_ms,
            "p99 {} must dominate p50 {}",
            run.first_p99_ms,
            run.first_p50_ms
        );
        // Tiny subscription point for the same reason (8 subscribers, 60
        // rows/source); the CI smoke runs 100 via `figures serving --quick`.
        let (sub_workload, sub_runs) = subscription_sweep(&opt, &[8], 60, 2, 20);
        assert_eq!(sub_runs.len(), 1);
        let sub = &sub_runs[0];
        assert_eq!(sub.subscribers, 8);
        assert!(sub.updates > 0, "feeds must unlock updates");
        assert!(sub.results > 0, "anti-correlated feeds emit results");
        assert!(
            sub.update_p99_ms >= sub.update_p50_ms,
            "p99 {} must dominate p50 {}",
            sub.update_p99_ms,
            sub.update_p50_ms
        );
        emit_serving(&opt, (workload, runs), (sub_workload, sub_runs));
        assert!(opt.out.join("serving.csv").exists());
        assert!(opt.out.join("serving_subscriptions.csv").exists());
        let json = read_bench(
            &opt,
            "serving",
            &[
                "clients",
                "qps",
                "first_result_p50_ms",
                "first_result_p99_ms",
                "points",
                "subscriptions",
                "subscribers",
                "push_to_update_p50_ms",
                "push_to_update_p99_ms",
            ],
        );
        // The file describes the sweeps that ran, not the CLI defaults.
        assert!(
            json.contains("\"workload\": {\"distribution\": \"anti-correlated\", \"n\": 120,"),
            "{json}"
        );
        assert!(
            json.contains("\"rows_per_source\": 60, \"batch\": 20,"),
            "{json}"
        );
    }

    #[test]
    fn ingest_quick_trickle_beats_the_batch_engine() {
        let opt = quick_opts("progxe-ingest");
        // The acceptance criterion behind `BENCH_ingest.json`: on the
        // trickle workload (sorted small batches + watermarks) the
        // streaming engine's first result must land strictly before the
        // batch engine's, which cannot start until the last batch arrived.
        // Asserted on the measurements; the writer then runs on the same
        // runs (no second sweep).
        let (workload, runs) = ingest_measurements(&opt);
        let mut trickle_seen = 0;
        for run in &runs {
            assert!(run.results > 0, "{} emitted nothing", run.schedule);
            if run.schedule == "trickle" {
                trickle_seen += 1;
                let first = run
                    .first_result_ms
                    .expect("trickle run must produce results");
                assert!(
                    first < run.batch_first_result_ms,
                    "streaming first {first:.3}ms not below batch {:.3}ms",
                    run.batch_first_result_ms
                );
                assert!(
                    first < run.arrival_end_ms,
                    "trickle first result should precede full arrival"
                );
            }
        }
        assert!(trickle_seen >= 1, "the trickle leg must run");

        emit_runs(&opt, "ingest", workload, &runs, IngestRun::report);
        let json = read_bench(
            &opt,
            "ingest",
            &[
                "workload",
                "schedule",
                "interval_ms",
                "first_result_ms",
                "batch_first_result_ms",
                "trickle",
                "uniform-shuffle",
            ],
        );
        // One field list: the CSV header is the JSON rows' keys, in order.
        let csv = std::fs::read_to_string(opt.out.join("ingest.csv")).unwrap();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let first_row = json.split("\"runs\": [{").nth(1).unwrap();
        let first_row = first_row.split('}').next().unwrap();
        let keys: Vec<&str> = first_row
            .split(", ")
            .map(|field| field.split(':').next().unwrap().trim_matches('"'))
            .collect();
        assert_eq!(header, keys);
    }

    #[test]
    fn kernels_quick_passes_gates_and_writes_json() {
        let opt = quick_opts("progxe-kernels");
        let (workload, runs) = kernel_measurements(&opt);
        assert_kernel_gates(&runs, true);
        assert!(runs.iter().any(|r| r.kind == "mask"), "mask sweep missing");
        assert!(
            runs.iter().any(|r| r.kind == "blocker"),
            "blocker sweep missing"
        );
        emit_runs(&opt, "kernels", workload, &runs, KernelRun::report);
        assert!(opt.out.join("kernels.csv").exists());
        read_bench(
            &opt,
            "kernels",
            &[
                "kind",
                "speedup",
                "batched_mpairs_s",
                "index_ops",
                "naive_ops",
                "mask",
                "blocker",
            ],
        );
    }

    #[test]
    fn fdom_quick_shrinks_monotonically_and_writes_json() {
        let opt = quick_opts("progxe-fdom");
        let (workload, runs) = fdom_measurements(&opt);
        for dist in Distribution::ALL {
            let of_dist: Vec<&FdomRun> = runs
                .iter()
                .filter(|r| r.distribution == dist.name())
                .collect();
            let pareto = of_dist
                .iter()
                .find(|r| r.tightness.is_none())
                .expect("pareto baseline present");
            assert!(pareto.results > 0, "{dist:?}: empty baseline");
            // t = 0 is the whole simplex: identical to Pareto.
            let loose = of_dist
                .iter()
                .find(|r| r.tightness == Some(0.0))
                .expect("t=0 leg present");
            assert_eq!(
                loose.results, pareto.results,
                "{dist:?}: unconstrained family must equal Pareto"
            );
            assert_eq!(loose.fdom_filtered, 0, "{dist:?}: nothing to filter at t=0");
            // Nested families: results non-increasing along the sweep.
            let mut last = u64::MAX;
            for run in of_dist.iter().filter(|r| r.tightness.is_some()) {
                assert!(
                    run.results <= last,
                    "{dist:?}: tightening grew the answer ({} > {last})",
                    run.results
                );
                assert!(run.results <= run.pareto_results);
                last = run.results;
            }
            // The tightest leg must demonstrably shrink the answer.
            assert!(
                last < pareto.results,
                "{dist:?}: tightest band never shrank the skyline"
            );
        }

        emit_runs(&opt, "fdom", workload, &runs, FdomRun::report);
        assert!(opt.out.join("fdom.csv").exists());
        read_bench(
            &opt,
            "fdom",
            &[
                "workload",
                "tightness",
                "results",
                "shrinkage",
                "fdom_filtered",
                "first_result_ms",
                "wall_ms",
            ],
        );
    }

    #[test]
    fn obs_quick_measures_all_modes_and_writes_json() {
        let opt = quick_opts("progxe-obs");
        let (workload, runs) = obs_measurements(&opt);
        assert_eq!(runs.len(), 3);
        let results: Vec<u64> = runs.iter().map(|r| r.results).collect();
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "tracing must not change what is emitted: {results:?}"
        );
        let ring = runs.iter().find(|r| r.mode == "ring").unwrap();
        assert!(ring.results > 0);
        assert!(ring.events > 0, "ring leg captured nothing");
        assert_eq!(ring.dropped, 0, "reference workload must fit the ring");
        for off_mode in ["off", "null"] {
            let run = runs.iter().find(|r| r.mode == off_mode).unwrap();
            assert_eq!(run.events, 0, "{off_mode} leg must not record");
        }

        // The writer runs on the same measurements (no second sweep). The
        // overhead gate itself is exercised by `figures -- obs` in CI; at
        // smoke-test scale (parallel test threads, ~ms walls) the ratio is
        // pure noise, so it is not asserted here.
        emit_obs(&opt, workload, &runs, obs_overhead_gate(true));
        assert!(opt.out.join("obs.csv").exists());
        read_bench(
            &opt,
            "obs",
            &[
                "workload",
                "ring_capacity",
                "overhead",
                "gate_pct",
                "ring_vs_null_pct",
                "mode",
                "wall_ms",
                "first_result_ms",
                "events",
                "dropped",
                "off",
                "null",
                "ring",
            ],
        );
    }

    #[test]
    fn threads_quick_writes_machine_readable_json() {
        let opt = quick_opts("progxe-threads");
        threads(&opt);
        assert!(opt.out.join("threads.csv").exists());
        // Sanity over the contract the CI artifact consumers rely on.
        read_bench(
            &opt,
            "threads",
            &[
                "workload",
                "threads",
                "wall_ms",
                "first_result_ms",
                "prefilter_min_pairs",
                "inline-nofilter",
                "pooled",
            ],
        );
    }
}
