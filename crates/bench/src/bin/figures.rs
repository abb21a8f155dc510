//! CLI entry point regenerating the paper's figures.
//!
//! ```text
//! figures <experiment|all> [--n N] [--dims D] [--sigma S] [--seed S]
//!                          [--out DIR] [--quick]
//! ```
//!
//! Run without arguments for the experiment list.
//!
//! Run in release mode: `cargo run --release -p progxe-bench --bin figures -- all`.

use progxe_bench::figures::{
    ablate_delta, ablate_order, cellbound, fdom, fig10_prog, fig10_time, fig11, fig12, fig13,
    ingest, kernels, obs, scaling, serving, ssmj_soundness, threads, ExpOptions,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// CLI name, entry point, usage line.
type Experiment = (&'static str, fn(&ExpOptions), &'static str);

/// Every experiment, in `all` order.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("fig10-prog", fig10_prog, "Figure 10 a-c  progressiveness of the ProgXe variations"),
    ("fig10-time", fig10_time, "Figure 10 d-f  total time vs join selectivity (variations)"),
    ("fig11", fig11, "Figure 11 a-f  ProgXe / ProgXe+ / SSMJ progressiveness"),
    ("fig12", fig12, "Figure 12 a-b  d = 5 progressiveness (SSMJ degenerates)"),
    ("fig13", fig13, "Figure 13 a-c  total time vs selectivity vs SSMJ"),
    ("cellbound", cellbound, "Section III-B  comparable-cell bound, measured"),
    ("ablate-delta", ablate_delta, "Section VI-B   grid-granularity sensitivity"),
    ("ablate-order", ablate_order, "Section VI-B   ordering-policy cost/benefit"),
    ("ssmj-soundness", ssmj_soundness, "Section VII    SSMJ batch-1 false positives"),
    ("scaling", scaling, "first-output latency growth vs N (vs SSMJ, JF-SL)"),
    ("threads", threads, "end-to-end speedup vs ProgXeConfig::threads (parallel runtime)"),
    ("ingest", ingest, "streaming ingestion: first-result latency vs arrival rate"),
    ("fdom", fdom, "flexible skylines: shrinkage + latency vs constraint tightness"),
    ("obs", obs, "tracing overhead: recorder off / null / ring (gated)"),
    ("kernels", kernels, "columnar dominance kernels: batched vs scalar, blocker index vs naive (gated)"),
    ("serving", serving, "TCP serving layer: QPS + first-result latency vs concurrent clients"),
];

const OPTIONS: &str = "options:
  --n N         override source cardinality
  --dims D      override output dimensionality
  --sigma S     override join selectivity (single-sigma experiments)
  --seed S      workload seed (default 0xC0FFEE)
  --out DIR     CSV output directory (default ./results)
  --quick       shrink workloads ~10x (smoke-test mode)";

fn usage() -> String {
    let mut text = String::from("usage: figures <experiment|all> [options]\n\nexperiments:\n");
    for (name, _, help) in EXPERIMENTS {
        text.push_str(&format!("  {name:<15} {help}\n"));
    }
    text + "  all             everything above\n\n" + OPTIONS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut opt = ExpOptions::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match flag {
            "--n" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.n = Some(v),
                None => return bad_flag(flag),
            },
            "--dims" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.dims = Some(v),
                None => return bad_flag(flag),
            },
            "--sigma" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.sigma = Some(v),
                None => return bad_flag(flag),
            },
            "--seed" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opt.seed = v,
                None => return bad_flag(flag),
            },
            "--out" => match value(&mut i) {
                Some(v) => opt.out = PathBuf::from(v),
                None => return bad_flag(flag),
            },
            "--quick" => opt.quick = true,
            other => {
                eprintln!("unknown option {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if exp == "all" {
        for (_, run, _) in EXPERIMENTS {
            println!();
            run(&opt);
        }
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|(name, ..)| name == exp) {
        Some((_, run, _)) => {
            run(&opt);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown experiment {exp:?}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn bad_flag(flag: &str) -> ExitCode {
    eprintln!("flag {flag} needs a valid value\n{}", usage());
    ExitCode::FAILURE
}
