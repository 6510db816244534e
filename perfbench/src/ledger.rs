//! The result of one benchmark run: named metrics with units, and the
//! operation accounting (attempted, failed, and why).

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice: every caller measures at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Metrics and operation accounting of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Failed checks of the run as a whole (not of one operation).
    pub check_failures: Vec<String>,
}

impl Ledger {
    /// Record a metric.
    ///
    /// # Panics
    /// On an illegal or repeated name — a bug in this benchmark.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one attempted operation, failed with `Err(reason)`.
    pub fn operation(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    /// Record the outcome of a check of the run as a whole: a failure
    /// makes the run incorrect without failing an operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.check_failures.push(e);
        }
    }

    /// The recorded metrics, in recording order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// The run is correct if no operation failed, no check tripped and
    /// every metric is finite.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.check_failures.is_empty()
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` carries (`null` if not finite,
/// which also makes the run incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_grammar() {
        assert!(valid_name("sim.engine.ns_per_event.hc_faa.knl.n64"));
        assert!(valid_name(
            "core.validate.mape_pct.lock-ticket.knl.handoffs-ticket"
        ));
        assert!(valid_name("0ok"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/inside"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn json_line_carries_accounting_and_full_precision() {
        let mut l = Ledger::default();
        l.metric("wall_s", 1.234_567_890_123, "s");
        l.operation(Ok(()));
        l.operation(Err("boom".into()));
        assert_eq!(
            l.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
        let mut ok = Ledger::default();
        ok.operation(Ok(()));
        ok.check(Err("counter drift".into()));
        assert!(!ok.correct());
        assert!(ok.failures.is_empty());
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_is_a_bug() {
        let mut l = Ledger::default();
        l.metric("a", 1.0, "s");
        l.metric("a", 2.0, "s");
    }
}
