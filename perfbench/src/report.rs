//! Metrics, the run's outcome, and the result line.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// No metrics yet.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_owned(), value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// One `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (n, v, u) in &self.0 {
            let _ = writeln!(out, "metric {n} {} {u}", json_num(*v));
        }
        out
    }
}

/// A number as JSON: all its digits, `null` when not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// What a run attempted, what failed, and every problem found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compiles or requests).
    pub attempted: usize,
    /// Operations that failed: errors, limit hits, refused or non-200
    /// requests, failed output checks.
    pub failed: usize,
    /// Output checks that failed or counters that changed; any makes
    /// the result incorrect.
    pub problems: Vec<String>,
    /// Expected events worth printing, such as a limit hit on a cell
    /// outside the fixed list.
    pub notes: Vec<String>,
    /// How far past the per-compile limit each limit hit returned, ms.
    pub limit_overshoot_ms: Vec<f64>,
    /// Passes over the workload's inputs.
    pub passes: usize,
    /// The run's exact counters, compared across runs of one seed.
    pub counters: String,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, line: String) {
        eprintln!("FAIL {line}");
        self.problems.push(line);
    }

    /// Records an expected event.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line.
    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::new();
        m.put("latency_ms", 1.203_456_789, "ms");
        m.put("latency_ms", 1.25, "ms");
        m.put("x", f64::NAN, "s");
        let out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        assert_eq!(
            out.result_line(&m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert_eq!(m.non_finite(), vec!["x"]);
    }
}
