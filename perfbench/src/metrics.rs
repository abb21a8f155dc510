//! Metric names and units, and the result line the benchmark prints.
//!
//! The two tables below are the single source of truth for what a run
//! reports; `BENCHMARK.json` lists the same names and units, and the
//! package's tests pin the two together. An untraced run reports every
//! [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric.

use std::collections::BTreeMap;

/// One reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, e.g. `first_result_ms`.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// What a user of the engine sees, measured with tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("first_result_ms", "ms"),
    m("first_result_p90_ms", "ms"),
    m("half_results_ms", "ms"),
    m("total_ms", "ms"),
    m("total_p90_ms", "ms"),
    m("qps", "1/s"),
    m("update_ms", "ms"),
    m("update_p90_ms", "ms"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer split, measured by a separate traced run that times calls
/// into each layer's public functions from the benchmark's own code.
pub const PER_LAYER: &[MetricSpec] = &[
    m("query.parse_ms", "ms"),
    m("query.plan_ms", "ms"),
    m("core.prepare_ms", "ms"),
    m("core.regions_created", "count"),
    m("core.replay_ms", "ms"),
    m("core.schedule_ms", "ms"),
    m("core.tuple_ms", "ms"),
    m("core.commit_ms", "ms"),
    m("core.unattributed_ms", "ms"),
    m("core.join_matches", "count"),
    m("core.prefilter_keep_ratio", "ratio"),
    m("core.dead_region_ratio", "ratio"),
    m("skyline.kernel_pairs", "count"),
    m("core.fdom_vertex_evals", "count"),
    m("flex.prepare_ms", "ms"),
    m("flex.replay_ms", "ms"),
    m("flex.tuple_ms", "ms"),
    m("flex.commit_ms", "ms"),
    m("flex.kernel_pairs", "count"),
    m("flex.fdom_vertex_evals", "count"),
    m("runtime.jobs_per_query", "count"),
    m("runtime.queue_wait_p50_us", "us"),
    m("runtime.run_p50_us", "us"),
    m("runtime.worker_busy_ratio", "ratio"),
    m("runtime.pooled_over_inline", "ratio"),
    m("server.connect_ms", "ms"),
    m("server.query_to_accepted_ms", "ms"),
    m("server.accepted_to_first_ms", "ms"),
    m("server.first_to_done_ms", "ms"),
    m("server.wire_gap_ms", "ms"),
    m("server.overhead_ms", "ms"),
    m("server.push_overhead_ms", "ms"),
    m("protocol.bytes_per_query", "bytes"),
    m("protocol.frames_per_query", "count"),
    m("protocol.encode_us_per_frame", "us"),
    m("protocol.decode_us_per_frame", "us"),
    m("ingest.push_us", "us"),
    m("ingest.poll_ms", "ms"),
    m("ingest.updates_per_push", "count"),
    m("bench.generator_late_p99_ms", "ms"),
    m("bench.trace_overhead_pct", "%"),
    m("bench.unattributed_pct", "%"),
];

/// The metrics of one run, keyed by name. Every name must come from one of
/// the two tables; [`Metrics::complete`] checks that a run filled its
/// whole table.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// If `name` is in neither table — a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec_of(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.insert(spec.name, value);
    }

    /// Records 0 for every metric of `table` whose name starts with one of
    /// `prefixes`: the layer does no work on this workload.
    pub fn idle(&mut self, table: &[MetricSpec], prefixes: &[&str]) {
        for spec in table {
            if prefixes.iter().any(|p| spec.name.starts_with(p)) {
                self.values.insert(spec.name, 0.0);
            }
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Checks that exactly the metrics of `table` were recorded, each a
    /// finite number.
    pub fn complete(&self, table: &[MetricSpec]) -> Result<(), String> {
        for spec in table {
            match self.values.get(spec.name) {
                None => return Err(format!("metric {} was not measured", spec.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite ({v})", spec.name))
                }
                Some(_) => {}
            }
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|s| s.name == **k))
        {
            return Err(format!("metric {extra} does not belong to this table"));
        }
        Ok(())
    }

    /// `(name, value, unit)` in table order, for the metrics of `table`.
    pub fn rows(&self, table: &[MetricSpec]) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .filter_map(|s| self.get(s.name).map(|v| (s.name, v, s.unit)))
            .collect()
    }
}

fn spec_of(name: &str) -> Option<MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .copied()
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (queries, subscriptions, checked replays) attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// What went wrong, one line each; empty on a clean run.
    pub problems: Vec<String>,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a problem that is not tied to one counted operation (a
    /// failed reconciliation, a lagging generator): the run is incorrect.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.problems.push(what.into());
    }

    /// Records the process's peak RSS as `peak_rss_mb`; call before any
    /// reference is computed so only the workload's own memory counts.
    pub fn record_peak_rss(&mut self) {
        match crate::host::peak_rss_mib() {
            Some(mib) => self.metrics.set("peak_rss_mb", mib),
            None => self.problem("peak RSS is unreadable on this host"),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and the
    /// metrics of `table` with their units.
    pub fn result_line(&self, table: &[MetricSpec]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .rows(table)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
/// Non-finite values cannot be JSON; [`Metrics::complete`] rejects them
/// before a result is printed, and they render as 0 here only so the line
/// stays parseable.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON string literal (quotes and backslashes escaped).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.len() <= 16);
            assert!(all[i + 1..].iter().all(|o| o.name != s.name), "{}", s.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.5);
        let line = o.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn complete_flags_missing_and_foreign_metrics() {
        let mut m = Metrics::default();
        m.idle(PER_LAYER, &[""]);
        assert!(m.complete(PER_LAYER).is_ok());
        assert!(m.complete(END_TO_END).is_err());
        m.set("setup_s", 1.0);
        assert!(m.complete(PER_LAYER).is_err());
    }
}
