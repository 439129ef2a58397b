//! Statistics helpers and the benchmark's report.

use std::fmt::Write as _;

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Largest value (NaN when empty).
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was formed (sample count, statistic).
    pub note: String,
}

/// One correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one invocation prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Context lines (environment, run shape), printed first.
    pub context: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Whether every check held.
    pub correct: bool,
    /// Site-rounds scheduled.
    pub attempted: u64,
    /// Site-rounds dropped or lost to a failed run.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records a check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    /// Settles `correct`: every check held and every metric is finite.
    pub fn finish(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        self.check(format!("every metric is finite {bad:?}"), bad.is_empty());
        self.correct = self.checks.iter().all(|c| c.ok);
    }

    /// The metrics object of the result line.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// The result line alone.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// Human-readable lines, then the result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.context {
            let _ = writeln!(out, "# {c}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<44} {:>14.6} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<4} {}",
                if c.ok { "ok" } else { "FAIL" },
                c.what
            );
        }
        let _ = writeln!(out, "{}", self.result_json());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("run_s", 1.25, "s", "");
        r.attempted = 8;
        r.finish();
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
