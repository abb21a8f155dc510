//! The repository benchmark: a single-process load generator for the three
//! named workloads, with a separate traced run that splits each workload's
//! time into the engine's layers.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

pub mod batch;
pub mod data;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod oneshot;
pub mod stats;
pub mod subscribe;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::time::{Duration, Instant};

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["batch-pareto", "serve-oneshot", "serve-subscribe"];

/// One invocation: which workload, on which inputs, for how long, traced
/// or not.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunSpec {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// How long the measured loop runs.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Builds a workload's set-up `times` times, dropping each before building
/// the next (a server shuts down when dropped), and returns the last one
/// with the median build time in seconds: `setup_s`.
pub(crate) fn repeated_setup<S>(
    times: usize,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(build()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up ran"),
        stats::median(&seconds),
    ))
}

/// Size of a run: the benchmark's own, or one small enough for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Client threads the load generator runs at once: the closed loop's one
/// per connection, or the open loop's writer and reader.
pub const CLIENT_THREADS: usize = if oneshot::CONNECTIONS > subscribe::CLIENT_THREADS {
    oneshot::CONNECTIONS
} else {
    subscribe::CLIENT_THREADS
};

/// Connections the load generator holds open at once (the open loop uses
/// one; a traced one-shot run holds its loop's plus a short-lived sample).
pub const CONNECTIONS: usize = oneshot::CONNECTIONS + 1;

/// Runs `spec` at `scale`, optionally corrupting one result so the
/// correctness check must catch it, and checks that the run reported its
/// whole metric table.
pub fn run(spec: &RunSpec, scale: Scale, corrupt: bool) -> Outcome {
    let tiny = scale == Scale::Tiny;
    let mut out = match spec.workload.as_str() {
        "batch-pareto" => {
            let mut p = if tiny {
                batch::BatchParams::tiny()
            } else {
                batch::BatchParams::full()
            };
            p.corrupt = corrupt;
            batch::run(&p, spec)
        }
        "serve-oneshot" => {
            let mut p = if tiny {
                oneshot::OneshotParams::tiny()
            } else {
                oneshot::OneshotParams::full()
            };
            p.corrupt = corrupt;
            oneshot::run(&p, spec)
        }
        "serve-subscribe" => {
            let mut p = if tiny {
                subscribe::SubscribeParams::tiny()
            } else {
                subscribe::SubscribeParams::full()
            };
            p.corrupt = corrupt;
            subscribe::run(&p, spec)
        }
        other => {
            let mut out = Outcome::default();
            out.problem(format!("unknown workload {other}"));
            return out;
        }
    };
    if let Err(e) = out.metrics.complete(table(spec)) {
        out.problem(e);
    }
    out
}

/// The metric table a run of `spec` reports.
pub fn table(spec: &RunSpec) -> &'static [metrics::MetricSpec] {
    if spec.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
