//! Correctness bookkeeping and the printed result of one run.

use std::fmt::Write as _;

/// Outcomes of every correctness check a run made.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that passed.
    pub passed: u64,
    /// Failures the repository already documents as open defects. They
    /// count against `success_share` but do not mark the run incorrect.
    pub known: Vec<String>,
    /// Every other failure.
    pub unexpected: Vec<String>,
}

impl Checks {
    /// Records one checked operation. `known_defect` marks a failure the
    /// repository documents as an open defect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String, known_defect: bool) {
        self.attempted += 1;
        if ok {
            self.passed += 1;
        } else if known_defect {
            self.known.push(what());
        } else {
            self.unexpected.push(what());
        }
    }

    /// Operations that passed their check ÷ operations checked.
    pub fn success_share(&self) -> f64 {
        self.passed as f64 / self.attempted.max(1) as f64
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.passed += other.passed;
        self.known.extend(other.known);
        self.unexpected.extend(other.unexpected);
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// For a high percentile: samples lying beyond it.
    pub beyond: Option<usize>,
}

/// Metrics of one pass, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            beyond: None,
        });
    }

    /// Adds the p99 of `values` (ms) as `<stem>_p99_ms` where at least ten
    /// samples lie beyond it.
    pub fn add_p99(&mut self, stem: &str, values: &[f64]) {
        let (p99, beyond) = crate::stats::percentile(values, 0.99);
        if beyond >= 10 {
            self.0.push(Metric {
                name: format!("{stem}_p99_ms"),
                value: p99,
                unit: "ms",
                samples: values.len(),
                beyond: Some(beyond),
            });
        }
    }
}

/// Everything one run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub checks: Checks,
    pub end_to_end: Metrics,
    /// Printed with the end-to-end metrics but not part of the result
    /// line: figures too noisy on a shared host to gate on (p99s).
    pub printed: Metrics,
    pub per_layer: Metrics,
}

impl Report {
    /// Human-readable lines: every metric by name with unit and sample
    /// count, and the correctness verdict.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {} seed {}", self.workload, self.seed);
        let section = |out: &mut String, title: &str, metrics: &Metrics| {
            let _ = writeln!(out, "-- {title}");
            for m in &metrics.0 {
                let _ = write!(
                    out,
                    "{:<32} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
                if let Some(beyond) = m.beyond {
                    let _ = write!(out, " beyond={beyond}");
                }
                out.push('\n');
            }
        };
        section(&mut out, "end-to-end", &self.end_to_end);
        if !self.printed.0.is_empty() {
            section(&mut out, "printed, not gated", &self.printed);
        }
        if traced {
            section(&mut out, "per-layer (traced run)", &self.per_layer);
        }
        let c = &self.checks;
        let _ = writeln!(
            out,
            "checks: {} attempted, {} passed, {} known-defect failures, {} unexpected failures",
            c.attempted,
            c.passed,
            c.known.len(),
            c.unexpected.len()
        );
        for k in &c.known {
            let _ = writeln!(out, "  known defect: {k}");
        }
        for u in c.unexpected.iter().take(20) {
            let _ = writeln!(out, "  FAILED: {u}");
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        out
    }

    /// True when no check failed other than the documented open defects.
    pub fn correct(&self) -> bool {
        self.checks.unexpected.is_empty()
    }

    /// The one-line JSON result: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.unexpected.len(),
            body.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut report = Report::default();
        report.checks.check(true, String::new, false);
        report.checks.check(false, || "x".into(), true);
        report.end_to_end.add("setup_s", 1.25, "s", 3);
        let json = report.json(false);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(report.checks.success_share(), 0.5);
    }
}
