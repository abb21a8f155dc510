//! The shared report shape: an insertion-ordered list of named values with
//! one JSON encoding and one human `Display`. Both the process-wide
//! registry snapshot and the core crate's `ExecStats` view render through
//! this type, as do the bench harness's tables, CSVs and `BENCH_*.json`
//! files, so every exported surface agrees on formatting.

use crate::hist::Histogram;
use std::fmt;
use std::time::Duration;

/// One reportable value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer counter.
    U64(u64),
    /// A floating-point measure (rates, estimates).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// Free text (engine names, modes).
    Text(String),
    /// A duration, exported as fractional milliseconds.
    DurationMs(Duration),
    /// A latency histogram (exported as its summary object). Boxed: the
    /// bucket array would otherwise dominate every `Value`'s size.
    Hist(Box<Histogram>),
    /// A nested report, exported as a JSON object.
    Object(Report),
    /// A list of reports, exported as a JSON array of objects.
    List(Vec<Report>),
    /// No value (a run that never produced one): JSON `null`, shown as `-`.
    Absent,
}

impl Value {
    /// Convenience constructor boxing a histogram.
    pub fn hist(h: Histogram) -> Self {
        Value::Hist(Box::new(h))
    }

    /// The value's JSON encoding.
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(n) => n.to_string(),
            Value::F64(x) if x.is_finite() => format!("{x}"),
            Value::F64(_) | Value::Absent => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Text(s) => format!("\"{}\"", escape(s)),
            Value::DurationMs(d) => format!("{:.3}", d.as_secs_f64() * 1e3),
            Value::Hist(h) => h.to_json(),
            Value::Object(r) => r.to_json(),
            Value::List(rs) => {
                let items: Vec<String> = rs.iter().map(Report::to_json).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(n) => write!(f, "{n}"),
            Value::F64(x) => write!(f, "{x:.4}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::DurationMs(d) => write!(f, "{d:.1?}"),
            Value::Hist(h) => write!(f, "{h}"),
            Value::Absent => write!(f, "-"),
            Value::Object(_) | Value::List(_) => write!(f, "{}", self.to_json()),
        }
    }
}

/// A titled, ordered collection of named values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Report heading (`Display` prints it; JSON ignores it).
    pub title: String,
    fields: Vec<(String, Value)>,
}

/// Minimal JSON string escaper — enough for the static names and engine
/// labels this crate emits (control characters, quotes, backslashes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// An empty report with the given title.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a field, preserving insertion order.
    pub fn push(&mut self, name: impl Into<String>, value: Value) -> &mut Self {
        self.fields.push((name.into(), value));
        self
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Looks up a field by name (first match).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Encodes the fields as one JSON object.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(name, value)| format!("\"{}\": {}", escape(name), value.to_json()))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        for (name, value) in &self.fields {
            writeln!(f, "  {name}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_display_agree_on_fields() {
        let mut hist = Histogram::new();
        hist.record_us(100);
        let mut report = Report::new("test report");
        report
            .push("runs", Value::U64(3))
            .push("rate", Value::F64(0.5))
            .push("cancelled", Value::Bool(false))
            .push("engine", Value::Text("progxe".into()))
            .push("wall", Value::DurationMs(Duration::from_millis(1500)))
            .push("latency", Value::hist(hist));
        let json = report.to_json();
        assert!(json.contains("\"runs\": 3"), "{json}");
        assert!(json.contains("\"rate\": 0.5"), "{json}");
        assert!(json.contains("\"cancelled\": false"), "{json}");
        assert!(json.contains("\"engine\": \"progxe\""), "{json}");
        assert!(json.contains("\"wall\": 1500.000"), "{json}");
        assert!(json.contains("\"latency\": {\"count\":1"), "{json}");
        let text = report.to_string();
        assert!(text.starts_with("test report\n"));
        assert!(text.contains("  engine: progxe"));
        assert_eq!(report.get("runs"), Some(&Value::U64(3)));
        assert_eq!(report.get("missing"), None);
    }

    #[test]
    fn json_escapes_strings() {
        let mut report = Report::new("");
        report.push("s", Value::Text("a\"b\\c\nd".into()));
        assert_eq!(report.to_json(), "{\"s\": \"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn nested_lists_and_absent_values_render() {
        let mut row = Report::new("");
        row.push("first_ms", Value::Absent).push("n", Value::U64(2));
        let mut report = Report::new("");
        report
            .push("host", Value::Object(row.clone()))
            .push("runs", Value::List(vec![row.clone(), row]));
        let inner = "{\"first_ms\": null, \"n\": 2}";
        assert_eq!(
            report.to_json(),
            format!("{{\"host\": {inner}, \"runs\": [{inner}, {inner}]}}")
        );
        assert_eq!(Value::Absent.to_string(), "-");
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let mut report = Report::new("");
        report.push("x", Value::F64(f64::NAN));
        assert_eq!(report.to_json(), "{\"x\": null}");
    }
}
