//! Uniform runners: one call = one algorithm over one workload, returning
//! the progressiveness series and summary counters.
//!
//! Every algorithm is driven through the workspace-wide
//! [`ProgressiveEngine`] interface: [`AlgoKind::build`] instantiates the
//! engine, and [`run_algo`] pulls its [`QuerySession`] to completion
//! through [`drain`], turning the event stream into the
//! `(elapsed, cumulative)` series the paper's figures plot.

use progxe_baselines::{JfSlEngine, SajEngine, SkyAlgo, SsmjEngine};
use progxe_core::config::{OrderingPolicy, ProgXeConfig};
use progxe_core::executor::ProgXe;
use progxe_core::mapping::MapSet;
use progxe_core::session::{CancellationToken, ProgressiveEngine, QuerySession, ResultEvent};
use progxe_core::source::SourceView;
use progxe_core::stats::{ExecStats, ProgressRecord};
use progxe_datagen::SmjWorkload;
use progxe_skyline::Preference;
use std::str::FromStr;
use std::time::Duration;

/// The algorithms under comparison, matching the paper's legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// ProgXe — ordering on, push-through off.
    ProgXe,
    /// ProgXe+ — ordering on, push-through on.
    ProgXePlus,
    /// ProgXe (No-Order) — random region order.
    ProgXeNoOrder,
    /// ProgXe+ (No-Order).
    ProgXePlusNoOrder,
    /// SSMJ (two-batch baseline).
    Ssmj,
    /// JF-SL (blocking baseline).
    JfSl,
    /// JF-SL+ (blocking + push-through).
    JfSlPlus,
    /// SAJ (Fagin-style threshold baseline).
    Saj,
}

impl AlgoKind {
    /// Legend label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::ProgXe => "ProgXe",
            AlgoKind::ProgXePlus => "ProgXe+",
            AlgoKind::ProgXeNoOrder => "ProgXe (No-Order)",
            AlgoKind::ProgXePlusNoOrder => "ProgXe+ (No-Order)",
            AlgoKind::Ssmj => "SSMJ",
            AlgoKind::JfSl => "JF-SL",
            AlgoKind::JfSlPlus => "JF-SL+",
            AlgoKind::Saj => "SAJ",
        }
    }

    /// The four ProgXe variations of Figure 10.
    pub const PROGXE_VARIATIONS: [AlgoKind; 4] = [
        AlgoKind::ProgXe,
        AlgoKind::ProgXePlus,
        AlgoKind::ProgXeNoOrder,
        AlgoKind::ProgXePlusNoOrder,
    ];

    /// The head-to-head set of Figures 11–13.
    pub const VS_SSMJ: [AlgoKind; 3] = [AlgoKind::ProgXe, AlgoKind::ProgXePlus, AlgoKind::Ssmj];

    /// Instantiates the engine this legend entry denotes; `dims` and
    /// `sigma` parameterize the ProgXe grid configuration.
    pub fn build(self, dims: usize, sigma: f64) -> Box<dyn ProgressiveEngine> {
        match self {
            AlgoKind::ProgXe
            | AlgoKind::ProgXePlus
            | AlgoKind::ProgXeNoOrder
            | AlgoKind::ProgXePlusNoOrder => {
                let push = matches!(self, AlgoKind::ProgXePlus | AlgoKind::ProgXePlusNoOrder);
                let ordered = matches!(self, AlgoKind::ProgXe | AlgoKind::ProgXePlus);
                let mut config = default_config_for(dims, sigma).with_push_through(push);
                if !ordered {
                    config = config.with_ordering(OrderingPolicy::Random { seed: 0x5EED });
                }
                Box::new(ProgXe::new(config))
            }
            AlgoKind::Ssmj => Box::new(SsmjEngine::new(SkyAlgo::Sfs)),
            AlgoKind::JfSl => Box::new(JfSlEngine::new(SkyAlgo::Sfs)),
            AlgoKind::JfSlPlus => Box::new(JfSlEngine::plus(SkyAlgo::Sfs)),
            AlgoKind::Saj => Box::new(SajEngine::new(SkyAlgo::Sfs)),
        }
    }
}

impl FromStr for AlgoKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "progxe" => Ok(AlgoKind::ProgXe),
            "progxe+" | "progxe-plus" => Ok(AlgoKind::ProgXePlus),
            "progxe-noorder" => Ok(AlgoKind::ProgXeNoOrder),
            "progxe+-noorder" | "progxe-plus-noorder" => Ok(AlgoKind::ProgXePlusNoOrder),
            "ssmj" => Ok(AlgoKind::Ssmj),
            "jfsl" | "jf-sl" => Ok(AlgoKind::JfSl),
            "jfsl+" | "jf-sl+" => Ok(AlgoKind::JfSlPlus),
            "saj" => Ok(AlgoKind::Saj),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// One run's measurements.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm label.
    pub algo: &'static str,
    /// `(elapsed, cumulative results)` per result-bearing batch.
    pub records: Vec<ProgressRecord>,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Total results reported (for SSMJ this may exceed the true skyline by
    /// its batch-1 false positives).
    pub results: u64,
    /// SSMJ batch-1 false positives (0 elsewhere).
    pub false_positives: u64,
}

impl RunResult {
    /// Time at which `fraction` (0..=1) of the results had been reported.
    pub fn time_to_fraction(&self, fraction: f64) -> Option<Duration> {
        let target = (self.results as f64 * fraction).ceil() as u64;
        self.records
            .iter()
            .find(|r| r.cumulative >= target.max(1))
            .map(|r| r.elapsed)
    }

    /// Time of the first reported result.
    pub fn first_result(&self) -> Option<Duration> {
        self.records.first().map(|r| r.elapsed)
    }
}

/// Grid granularity suited to the output dimensionality (keeps region
/// counts and tracked-cell counts in the "abstraction ≪ data" regime the
/// paper assumes).
pub fn default_config_for(dims: usize, sigma: f64) -> ProgXeConfig {
    let (input_p, output_k) = match dims {
        0 | 1 => (8, 64),
        2 => (6, 48),
        3 => (3, 24),
        4 => (2, 12),
        _ => (2, 8),
    };
    ProgXeConfig::default()
        .with_input_partitions(input_p)
        .with_output_cells(output_k)
        .with_selectivity_hint(sigma)
}

/// Pulls `session` to completion, handing every result-bearing batch to
/// `on_batch` (progress-only batches are skipped). Returns the first such
/// batch's `elapsed` — the time to first result — and the final stats.
pub fn drain(
    mut session: QuerySession<'_>,
    mut on_batch: impl FnMut(&ResultEvent),
) -> (Option<Duration>, ExecStats) {
    let mut first = None;
    while let Some(event) = session.next_batch() {
        if !event.is_progress_only() {
            first.get_or_insert(event.elapsed);
            on_batch(&event);
        }
    }
    (first, session.finish())
}

/// Runs one algorithm over a generated workload; `dims` output dimensions
/// with the paper's pairwise-sum mapping, all minimized.
pub fn run_algo(kind: AlgoKind, workload: &SmjWorkload) -> RunResult {
    run_algo_observed(kind, workload, |_| {})
}

/// [`run_algo`] with a hook receiving the session's [`CancellationToken`]
/// right after the session opens, so a supervisor can stop the run.
fn run_algo_observed(
    kind: AlgoKind,
    workload: &SmjWorkload,
    on_open: impl FnOnce(CancellationToken),
) -> RunResult {
    let dims = workload.spec.dims;
    let sigma = workload.spec.selectivity;
    let maps = MapSet::pairwise_sum(dims, Preference::all_lowest(dims));
    let r = SourceView::new(&workload.r.attrs, &workload.r.join_keys).expect("parallel arrays");
    let t = SourceView::new(&workload.t.attrs, &workload.t.join_keys).expect("parallel arrays");

    let engine = kind.build(dims, sigma);
    let session = engine.open(&r, &t, &maps).expect("valid configuration");
    on_open(session.cancel_token());
    let mut records = Vec::new();
    let mut cumulative = 0u64;
    let (_, stats) = drain(session, |event| {
        cumulative += event.tuples.len() as u64;
        records.push(ProgressRecord {
            elapsed: event.elapsed,
            cumulative,
        });
    });

    RunResult {
        algo: kind.label(),
        records,
        total_time: stats.total_time,
        results: cumulative,
        false_positives: stats.results_retracted,
    }
}

/// Runs an algorithm with a wall-clock budget. Returns `None` when the run
/// did not finish in time — mirroring the paper's Figure 12.b annotation
/// "SSMJ did not return results (even after several hours)". On timeout the
/// worker's session is cancelled: ProgXe stops at its next region boundary,
/// the blocking baselines at their next batch boundary, instead of running
/// the whole query to completion in the background.
pub fn run_algo_with_timeout(
    kind: AlgoKind,
    workload: &SmjWorkload,
    budget: Duration,
) -> Option<RunResult> {
    let (tx, rx) = std::sync::mpsc::channel();
    let (token_tx, token_rx) = std::sync::mpsc::channel();
    let w = workload.clone();
    std::thread::Builder::new()
        .name(format!("bench-{}", kind.label()))
        .spawn(move || {
            let result = run_algo_observed(kind, &w, |token| {
                let _ = token_tx.send(token);
            });
            let _ = tx.send(result);
        })
        .expect("spawn bench worker");
    match rx.recv_timeout(budget) {
        Ok(result) => Some(result),
        Err(_) => {
            if let Ok(token) = token_rx.try_recv() {
                token.cancel();
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progxe_datagen::{Distribution, WorkloadSpec};

    #[test]
    fn timeout_runner_completes_fast_runs() {
        let workload = WorkloadSpec::new(100, 2, Distribution::Independent, 0.05).generate();
        let run = run_algo_with_timeout(AlgoKind::JfSl, &workload, Duration::from_secs(30));
        assert!(run.is_some());
    }

    #[test]
    fn parse_algo_names() {
        assert_eq!("progxe".parse::<AlgoKind>(), Ok(AlgoKind::ProgXe));
        assert_eq!("PROGXE+".parse::<AlgoKind>(), Ok(AlgoKind::ProgXePlus));
        assert_eq!("ssmj".parse::<AlgoKind>(), Ok(AlgoKind::Ssmj));
        assert!("nope".parse::<AlgoKind>().is_err());
    }

    #[test]
    fn all_algorithms_agree_on_result_count() {
        let workload = WorkloadSpec::new(300, 2, Distribution::Independent, 0.02).generate();
        let reference = run_algo(AlgoKind::JfSl, &workload).results;
        assert!(reference > 0);
        for kind in [
            AlgoKind::ProgXe,
            AlgoKind::ProgXePlus,
            AlgoKind::ProgXeNoOrder,
            AlgoKind::JfSlPlus,
            AlgoKind::Saj,
        ] {
            let run = run_algo(kind, &workload);
            assert_eq!(run.results, reference, "{} diverged", run.algo);
        }
        // SSMJ may over-report by its batch-1 false positives.
        let run = run_algo(AlgoKind::Ssmj, &workload);
        assert_eq!(run.results - run.false_positives, reference);
    }

    #[test]
    fn progxe_reports_before_the_end() {
        let workload = WorkloadSpec::new(500, 2, Distribution::AntiCorrelated, 0.02).generate();
        let run = run_algo(AlgoKind::ProgXe, &workload);
        assert!(run.records.len() > 1, "expected multiple batches");
        let first = run.first_result().unwrap();
        assert!(
            first < run.total_time,
            "first result must precede completion"
        );
    }

    #[test]
    fn time_to_fraction_is_monotone() {
        let workload = WorkloadSpec::new(400, 2, Distribution::Independent, 0.02).generate();
        let run = run_algo(AlgoKind::ProgXe, &workload);
        let q25 = run.time_to_fraction(0.25).unwrap();
        let q50 = run.time_to_fraction(0.5).unwrap();
        let q100 = run.time_to_fraction(1.0).unwrap();
        assert!(q25 <= q50 && q50 <= q100);
    }
}
