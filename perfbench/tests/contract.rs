//! The benchmark's own tests: `BENCHMARK.json` names exactly the metrics
//! the program reports, a tiny pass of every workload reports all of them
//! with their units and passes its correctness checks, and a deliberately
//! corrupted result is caught.

mod common;

use common::{parse, Json};
use perfbench::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use perfbench::{run, table, RunSpec, Scale, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn named(list: &Json) -> Vec<(String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn specs(table: &[MetricSpec]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

fn spec(workload: &str, trace: bool) -> RunSpec {
    RunSpec {
        workload: workload.into(),
        seed: 7,
        seconds: 0.3,
        trace,
    }
}

#[test]
fn benchmark_json_lists_the_programs_workloads_and_metrics() {
    let b = benchmark_json();
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(named(b.get("end_to_end")), specs(END_TO_END));
    assert_eq!(named(b.get("per_layer")), specs(PER_LAYER));
    let bounds: Vec<(String, f64)> = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("bound").num()))
        .collect();
    let setup = bounds.iter().find(|b| b.0 == "setup_s").expect("setup_s").1;
    assert!(
        bounds
            .iter()
            .all(|b| b.1 > 0.0 && b.1 <= setup && b.1 <= 0.25),
        "{bounds:?}"
    );
    let command: Vec<&str> = b.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"perfbench/Cargo.toml"), "{command:?}");
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    let b = benchmark_json();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let s = spec(workload, trace);
            let out = run(&s, Scale::Tiny, false);
            assert!(
                out.correct(),
                "{workload} trace={trace}: {:?}",
                out.problems
            );
            let line = parse(&out.result_line(table(&s)));
            let keys: Vec<&String> = line.obj().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), &Json::Bool(true));
            assert!(line.get("attempted").num() >= 1.0);
            let want = named(b.get(if trace { "per_layer" } else { "end_to_end" }));
            let metrics = line.get("metrics").obj();
            assert_eq!(metrics.len(), want.len(), "{workload} trace={trace}");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                assert_eq!(m.get("unit").str(), unit, "{workload} {name}");
                assert!(m.get("value").num().is_finite());
                if !trace {
                    assert!(m.get("value").num() > 0.0, "{workload} {name} is 0");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_result_fails_the_correctness_check() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(&spec(workload, trace), Scale::Tiny, true);
            assert!(
                !out.correct(),
                "{workload} trace={trace} missed a corrupted result"
            );
            assert!(out.failed >= 1, "{workload}: {:?}", out.problems);
        }
    }
}

#[test]
fn malformed_invocations_are_refused() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert!(RunSpec::parse(&args(
        "--workload batch-pareto --seed 1 --seconds 2 --trace 0"
    ))
    .is_ok());
    for bad in [
        "--workload nope --seed 1 --seconds 2 --trace 0",
        "--workload batch-pareto --seed x --seconds 2 --trace 0",
        "--workload batch-pareto --seed 1 --seconds 0 --trace 0",
        "--workload batch-pareto --seed 1 --seconds 2 --trace 2",
        "--workload batch-pareto --seed 1 --seconds 2",
        "--workload batch-pareto --seed 1 --seconds 2 --trace 0 --extra 1",
    ] {
        assert!(RunSpec::parse(&args(bad)).is_err(), "{bad}");
    }
}
