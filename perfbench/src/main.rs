//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host record, a human-readable metric table and, as the last
//! line of standard output, the JSON result. Exits 0 only when every
//! correctness check passed.

use perfbench::metrics::{json_number, json_string};
use perfbench::{host, run, table, RunSpec, Scale, CLIENT_THREADS, CONNECTIONS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match RunSpec::parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let threads = host::hardware_threads();
    if CLIENT_THREADS > threads || CONNECTIONS > threads {
        eprintln!(
            "perfbench: the load generator needs {CLIENT_THREADS} client threads and \
             {CONNECTIONS} connections, but this host has {threads} hardware threads"
        );
        return ExitCode::from(2);
    }
    println!(
        "{{\"host\": {{\"hardware_threads\": {threads}, \"profile\": {}, \"git_rev\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"client_threads\": {CLIENT_THREADS}, \"connections\": {CONNECTIONS}, \"push_rate_per_s\": {}}}",
        json_string(host::build_profile()),
        json_string(&host::git_rev()),
        json_string(&spec.workload),
        spec.seed,
        json_number(spec.seconds),
        spec.trace,
        json_number(if spec.workload == "serve-subscribe" {
            perfbench::subscribe::SubscribeParams::full().rate
        } else {
            0.0
        }),
    );
    let out = run(&spec, Scale::Full, false);
    for (name, value, unit) in out.metrics.rows(table(&spec)) {
        eprintln!("{name:>32} {value:>14.4} {unit}");
    }
    eprintln!(
        "{:>32} {:>14.4} ({} of {} operations)",
        "error_rate",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    for p in &out.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", out.result_line(table(&spec)));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
