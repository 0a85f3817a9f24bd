//! The one JSON writer and the one baseline comparer behind every
//! `tables -- <report> --json [--baseline <path>]`.
//!
//! A [`Report`] is a flat list of named values plus an optional `rows`
//! array of flat objects.  [`Report::to_json`] writes one top-level field
//! per line and one row per line, so [`baseline_value`] can read a
//! committed baseline back without a JSON parser (the workspace has no
//! serde).  A [`Check`] bounds one top-level field, either absolutely or
//! as a multiple of the baseline's value of the same field, and [`gate`]
//! applies a report's checks.

/// One value of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number, rounded to six decimals; a non-finite one is `null`.
    Num(f64),
    /// A string: the crate's own ASCII names and status cells.
    Text(String),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Self {
        Value::Num(v.unwrap_or(f64::NAN))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Num(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// Named values in writing order.
pub type Fields = Vec<(&'static str, Value)>;

/// A benchmark report as written to `BENCH_<name>.json`.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Top-level fields.
    pub fields: Fields,
    /// The `rows` array, left out of the JSON when empty.
    pub rows: Vec<Fields>,
}

impl Report {
    /// The top-level number `name`, if the report has one.
    fn get(&self, name: &str) -> Option<f64> {
        self.fields.iter().find_map(|(field, value)| match value {
            Value::Num(v) if *field == name => Some(*v),
            _ => None,
        })
    }

    /// The report as JSON: one top-level field per line, one row per line.
    pub fn to_json(&self) -> String {
        let mut lines: Vec<String> = self
            .fields
            .iter()
            .map(|(name, value)| format!("  \"{name}\": {}", json_value(value)))
            .collect();
        if !self.rows.is_empty() {
            let rows: Vec<String> = self
                .rows
                .iter()
                .map(|row| {
                    let fields: Vec<String> = row
                        .iter()
                        .map(|(name, value)| format!("\"{name}\": {}", json_value(value)))
                        .collect();
                    format!("    {{{}}}", fields.join(", "))
                })
                .collect();
            lines.push(format!("  \"rows\": [\n{}\n  ]", rows.join(",\n")));
        }
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

fn json_value(value: &Value) -> String {
    match value {
        Value::Num(v) if !v.is_finite() => "null".to_string(),
        Value::Num(v) if v.fract() == 0.0 => format!("{v}"),
        Value::Num(v) => format!("{}", (v * 1e6).round() / 1e6),
        // Debug quoting matches JSON's for the ASCII names written here.
        Value::Text(s) => format!("{s:?}"),
    }
}

/// The top-level number `name` of a report written by [`Report::to_json`].
pub fn baseline_value(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    text.lines().find_map(|line| {
        let rest = line.trim_start().strip_prefix(&key)?;
        rest.trim().trim_end_matches(',').parse().ok()
    })
}

/// How a [`Check`] bounds its field.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
    /// The value must be at least this multiple of the baseline's.
    AtLeastBaseline(f64),
    /// The value must be at most this multiple of the baseline's.
    AtMostBaseline(f64),
}

/// One gate condition on a top-level report field.
#[derive(Debug, Clone, Copy)]
pub struct Check(pub &'static str, pub Bound);

/// Applies `checks` to `report`, reading relative bounds from the committed
/// `baseline` text.  Returns one line per check, as `Err` when any fails.
/// A missing or non-finite value fails its check.
pub fn gate(report: &Report, baseline: &str, checks: &[Check]) -> Result<String, String> {
    let mut text = String::new();
    let mut passed = true;
    for &Check(field, bound) in checks {
        let value = report.get(field).unwrap_or(f64::NAN);
        let reference = || baseline_value(baseline, field).unwrap_or(f64::NAN);
        let (ok, limit) = match bound {
            Bound::AtLeast(min) => (value >= min, format!(">= {min}")),
            Bound::AtMost(max) => (value <= max, format!("<= {max}")),
            Bound::AtLeastBaseline(factor) => {
                let min = factor * reference();
                (value >= min, format!(">= {min:.3} ({factor} x baseline)"))
            }
            Bound::AtMostBaseline(factor) => {
                let max = factor * reference();
                (value <= max, format!("<= {max:.3} ({factor} x baseline)"))
            }
        };
        passed &= ok;
        let verdict = if ok { "ok    " } else { "FAILED" };
        text.push_str(&format!(
            "  {verdict} {field} = {value:.3}, needs {limit}\n"
        ));
    }
    if passed {
        Ok(text)
    } else {
        Err(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            fields: vec![
                ("speedup", 12.5.into()),
                ("count", 48usize.into()),
                ("missing", None.into()),
            ],
            rows: vec![vec![
                ("name", "ghz(16)".into()),
                ("seconds", 0.1234567.into()),
            ]],
        }
    }

    #[test]
    fn written_reports_read_back_and_gate_against_themselves() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\n  \"speedup\": 12.5,\n  \"count\": 48,\n  \"missing\": null,\n  \"rows\": [\n    \
             {\"name\": \"ghz(16)\", \"seconds\": 0.123457}\n  ]\n}\n"
        );
        assert_eq!(baseline_value(&json, "speedup"), Some(12.5));
        assert_eq!(baseline_value(&json, "count"), Some(48.0));
        assert_eq!(baseline_value(&json, "missing"), None);
        // Row fields are not top-level fields.
        assert_eq!(baseline_value(&json, "seconds"), None);

        let within = [
            Check("speedup", Bound::AtLeastBaseline(0.2)),
            Check("count", Bound::AtLeast(48.0)),
            Check("count", Bound::AtMost(48.0)),
        ];
        assert!(gate(&sample(), &json, &within).is_ok());
        for failing in [
            Check("speedup", Bound::AtMostBaseline(0.5)),
            Check("count", Bound::AtLeast(49.0)),
            Check("missing", Bound::AtMost(1.0)),
            Check("absent", Bound::AtLeast(0.0)),
        ] {
            let verdict = gate(&sample(), &json, &[within[0], failing]);
            assert!(verdict.is_err(), "{failing:?} must fail");
        }
    }

    #[test]
    fn the_committed_baselines_are_readable() {
        let memory = include_str!("../../../baselines/BENCH_memory_t1.json");
        assert_eq!(
            baseline_value(memory, "geomean_bytes_per_node"),
            Some(72.463)
        );
        for serve in [
            include_str!("../../../baselines/BENCH_serve_t1.json"),
            include_str!("../../../baselines/BENCH_serve_t4.json"),
        ] {
            assert!(baseline_value(serve, "warm_speedup").is_some_and(|v| v > 1.0));
        }
    }
}
