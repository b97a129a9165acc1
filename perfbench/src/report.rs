//! What one run reports: operation tallies, named metrics with their
//! units and sample counts, and provenance.

use crate::util::{json_num, json_str};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests sent plus end-state checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few failure messages, for diagnosis.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` pairs describing the run's inputs and host.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn provenance(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }

    /// Counts one failed operation (an error, a refusal, or a wrong
    /// answer); the attempt itself is counted by the caller.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Counts one attempted check, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The single result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (every metric; a non-finite value is left out and
    /// makes the run incorrect).
    pub fn result_line(&self) -> String {
        let mut correct = self.correct();
        let mut parts = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                correct = false;
                continue;
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }

    /// The full result file: every metric with its sample count, the
    /// provenance, and the first failures.
    pub fn result_file(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples
                )
            })
            .collect();
        let provenance: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("    {}: {}", json_str(k), v))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},\n  \"provenance\": {{\n{}\n  }},\n  \"metrics\": {{\n{}\n  }},\n  \"failures\": [{}]\n}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            json_num(self.failed as f64 / self.attempted.max(1) as f64),
            provenance.join(",\n"),
            metrics.join(",\n"),
            failures.join(", ")
        )
    }
}
