//! Output plumbing: every experiment builds its rows once, as
//! [`Report`]s, and [`Record`] renders them as an aligned console table, a
//! CSV file and — for the perf experiments — a `BENCH_<stem>.json`
//! document, all through `progxe_obs`'s one value encoding.

use crate::figures::ExpOptions;
use progxe_obs::{Report, Value};
use std::fs;
use std::path::PathBuf;

/// Builds an untitled report from `(name, value)` pairs, in order.
pub(crate) fn row<const N: usize>(fields: [(&str, Value); N]) -> Report {
    let mut report = Report::new("");
    for (name, value) in fields {
        report.push(name, value);
    }
    report
}

/// Hardware threads available to this process.
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `host` object every BENCH file leads with.
fn host(opt: &ExpOptions) -> Report {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    row([
        ("hardware_threads", Value::U64(hardware_threads() as u64)),
        ("profile", Value::Text(profile.into())),
        ("quick", Value::Bool(opt.quick)),
        ("seed", Value::U64(opt.seed)),
    ])
}

/// A CSV cell: the JSON encoding, with text unquoted and absent values
/// left empty.
fn csv_cell(value: &Value) -> String {
    match value {
        Value::Text(s) => s.clone(),
        Value::Absent => String::new(),
        other => other.to_json(),
    }
}

/// One table of an experiment's output: a row list whose keys are the
/// table's columns, the CSV header and the BENCH rows' JSON keys.
pub(crate) struct Record {
    stem: &'static str,
    /// The rows; every row carries the same keys in the same order.
    pub(crate) rows: Vec<Report>,
}

impl Record {
    /// A record written to `<stem>.csv` (and `BENCH_<stem>.json`).
    pub(crate) fn new(stem: &'static str, rows: Vec<Report>) -> Self {
        Record { stem, rows }
    }

    /// The column names: the first row's keys, checked against every row.
    fn header(&self) -> Vec<&str> {
        let header: Vec<&str> = self.rows.first().map_or(Vec::new(), |r| {
            r.fields().iter().map(|(k, _)| k.as_str()).collect()
        });
        for row in &self.rows {
            assert!(
                row.fields().iter().map(|(k, _)| k).eq(&header),
                "{}: every row must carry the same keys",
                self.stem
            );
        }
        header
    }

    fn cells(&self, cell: fn(&Value) -> String) -> Vec<Vec<String>> {
        let cells = |r: &Report| r.fields().iter().map(|(_, v)| cell(v)).collect();
        self.rows.iter().map(cells).collect()
    }

    /// The rows as an aligned text table.
    fn table(&self) -> String {
        let mut lines = vec![self.header().into_iter().map(String::from).collect()];
        lines.extend(self.cells(|v| v.to_string()));
        let mut widths = vec![0; lines[0].len()];
        for line in &lines {
            for (width, cell) in widths.iter_mut().zip(line) {
                *width = (*width).max(cell.chars().count());
            }
        }
        let mut rendered: Vec<String> = lines
            .iter()
            .map(|cells| {
                let padded: Vec<String> = cells
                    .iter()
                    .zip(&widths)
                    .map(|(cell, &w)| format!("{cell:<w$}"))
                    .collect();
                padded.join("  ").trim_end().to_string()
            })
            .collect();
        let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        rendered.insert(1, "-".repeat(rule));
        rendered.join("\n") + "\n"
    }

    /// Writes `<out>/<stem>.csv`: the keys as the header, one line per row.
    pub(crate) fn write_csv(&self, opt: &ExpOptions) {
        let mut csv = self.header().join(",") + "\n";
        for row in self.cells(csv_cell) {
            csv.push_str(&(row.join(",") + "\n"));
        }
        let path = write(opt, &format!("{}.csv", self.stem), &csv);
        println!("rows written to {}", path.display());
    }

    /// Prints the table and writes the CSV.
    pub(crate) fn emit(&self, opt: &ExpOptions) {
        println!("{}", self.table());
        self.write_csv(opt);
    }

    /// [`emit`](Self::emit), then writes `<out>/BENCH_<stem>.json`: the
    /// `host` object, `fields`, and the rows as a list under `key`.
    pub(crate) fn emit_bench<'a>(
        self,
        opt: &ExpOptions,
        fields: impl IntoIterator<Item = (&'a str, Value)>,
        key: &str,
    ) {
        self.emit(opt);
        let mut doc = row([("host", Value::Object(host(opt)))]);
        for (name, value) in fields {
            doc.push(name, value);
        }
        doc.push(key, Value::List(self.rows));
        let path = write(opt, &format!("BENCH_{}.json", self.stem), &doc.to_json());
        println!("json written to {}", path.display());
    }
}

/// Writes `contents` to `<out>/<name>`, creating the directory; panics on
/// I/O errors (an experiment that cannot record its output has failed).
fn write(opt: &ExpOptions, name: &str, contents: &str) -> PathBuf {
    fs::create_dir_all(&opt.out).expect("create the output directory");
    let path = opt.out.join(name);
    fs::write(&path, contents).expect("write the output file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record() -> Record {
        Record::new(
            "test",
            vec![
                row([
                    ("algo", Value::Text("ProgXe".into())),
                    ("first_ms", Value::DurationMs(Duration::from_micros(1500))),
                ]),
                row([
                    ("algo", Value::Text("SSMJ".into())),
                    ("first_ms", Value::Absent),
                ]),
            ],
        )
    }

    #[test]
    fn table_renders_aligned() {
        let table = record().table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "algo    first_ms");
        assert_eq!(lines[2], "ProgXe  1.5ms");
        assert_eq!(lines[3], "SSMJ    -");
    }

    #[test]
    #[should_panic(expected = "same keys")]
    fn rows_must_share_keys() {
        let mut record = record();
        record
            .rows
            .push(row([("algo", Value::Text("JF-SL".into()))]));
        record.table();
    }

    #[test]
    fn csv_and_bench_json_share_keys_and_units() {
        let opt = ExpOptions {
            out: std::env::temp_dir().join("progxe-bench-report-test"),
            ..ExpOptions::default()
        };
        record().emit_bench(&opt, [("workload", Value::Object(Report::new("")))], "runs");
        let csv = fs::read_to_string(opt.out.join("test.csv")).unwrap();
        assert_eq!(csv, "algo,first_ms\nProgXe,1.500\nSSMJ,\n");
        let json = fs::read_to_string(opt.out.join("BENCH_test.json")).unwrap();
        assert!(
            json.starts_with("{\"host\": {\"hardware_threads\": "),
            "{json}"
        );
        assert!(json.ends_with(
            "\"workload\": {}, \"runs\": [{\"algo\": \"ProgXe\", \"first_ms\": 1.500}, \
             {\"algo\": \"SSMJ\", \"first_ms\": null}]}"
        ));
    }
}
