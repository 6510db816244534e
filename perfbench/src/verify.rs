//! `verify`: the CI verification passes, a different user of the
//! engine — the protocol model checker for all three protocols, every
//! schedcheck scenario, and `conform --quick`, whose engine runs carry
//! the conformance recorder.

use crate::ledger::{median, Ledger};
use crate::reference::Reference;
use crate::spans::{Span, SpanId, Tracer};
use crate::Bench;
use bounce_bench::conform::{self, ConformArgs, COVERAGE_FILE};
use bounce_sim::protocol::protocol_for;
use bounce_sim::{counters, CoherenceKind};
use bounce_verify::exec::{scenarios, ExploreOpts};
use bounce_verify::model::check_all_cores;
use std::path::PathBuf;

/// The exact work of one repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyRep {
    states: u64,
    executions: u64,
    conform_events: u64,
    rows_covered: u64,
}

/// Set-up: the scenario registry.
pub struct VerifyState {
    entries: Vec<scenarios::Entry>,
}

/// The `verify` workload.
pub struct Verify {
    /// The committed `CONFORM_COVERAGE.json`.
    baseline: String,
    /// Where conform writes (inside the benchmark's own directory).
    conform_out: PathBuf,
}

impl Verify {
    /// The workload, reading the committed coverage baseline from the
    /// repository root `root` and writing under `out`.
    pub fn new(root: &std::path::Path, out: PathBuf) -> Result<Self, String> {
        let path = root.join("results").join(COVERAGE_FILE);
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(Verify {
            baseline,
            conform_out: out.join("conform"),
        })
    }
}

/// Transition-table rows listed in a coverage JSON file: the quoted
/// strings inside its per-protocol arrays.
pub fn rows_in_coverage(json: &str) -> u64 {
    json.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('"') && !l.contains("\": "))
        .count() as u64
}

impl Bench for Verify {
    type State = VerifyState;
    type Rep = VerifyRep;

    fn setup(&self, tracer: &Tracer, parent: SpanId) -> VerifyState {
        let (entries, _) = tracer.time("setup:scenarios", parent, |_| scenarios::all());
        VerifyState { entries }
    }

    fn rep(
        &mut self,
        state: VerifyState,
        tracer: &Tracer,
        parent: SpanId,
        ledger: &mut Ledger,
        reference: &mut Reference,
    ) -> (VerifyRep, Vec<f64>) {
        let mut rep = VerifyRep::default();
        let mut steps = Vec::new();
        // Each repetition's conform run gates against, and rewrites, a
        // fresh copy of the committed coverage baseline.
        let coverage = self.conform_out.join(COVERAGE_FILE);
        if let Err(e) = std::fs::create_dir_all(&self.conform_out)
            .and_then(|()| std::fs::write(&coverage, &self.baseline))
        {
            ledger.check(Err(format!("seeding {}: {e}", coverage.display())));
        }
        for kind in CoherenceKind::ALL {
            let (result, secs) =
                tracer.time(&format!("verify.model:{}", kind.label()), parent, |_| {
                    check_all_cores(protocol_for(kind))
                });
            steps.push(secs);
            ledger.operation(match result {
                Ok(reports) => {
                    let states: u64 = reports.iter().map(|r| r.states as u64).sum();
                    rep.states += states;
                    reference
                        .gate(&[(format!("verify.modelcheck.states.{}", kind.label()), states)])
                        .map_err(|e| format!("modelcheck {}: {e}", kind.label()))
                }
                Err(v) => Err(format!("modelcheck {}: {v}", kind.label())),
            });
        }
        let opts = ExploreOpts::default();
        for entry in &state.entries {
            let (report, secs) =
                tracer.time(&format!("verify.schedcheck:{}", entry.name), parent, |_| {
                    (entry.run)(&opts)
                });
            steps.push(secs);
            rep.executions += report.executions;
            ledger.operation(if let Some(v) = &report.violation {
                Err(format!("schedcheck {}: {v:?}", entry.name))
            } else if report.capped {
                Err(format!("schedcheck {}: exploration capped", entry.name))
            } else {
                reference
                    .gate(&[(
                        format!("verify.schedcheck.executions.{}", entry.name),
                        report.executions,
                    )])
                    .map_err(|e| format!("schedcheck {}: {e}", entry.name))
            });
        }
        let args = ConformArgs {
            quick: true,
            out: self.conform_out.clone(),
            ..ConformArgs::default()
        };
        let events0 = counters::total_events();
        let (result, secs) = tracer.time("verify.conform", parent, |_| conform::run(&args));
        steps.push(secs);
        rep.conform_events = counters::total_events() - events0;
        let written = std::fs::read_to_string(&coverage);
        ledger.operation(
            result
                .and_then(|()| {
                    let written = written.map_err(|e| format!("reading conform coverage: {e}"))?;
                    rep.rows_covered = rows_in_coverage(&written);
                    reference.gate(&[
                        ("verify.conform.events".to_string(), rep.conform_events),
                        ("verify.conform.rows_covered".to_string(), rep.rows_covered),
                    ])
                })
                .map_err(|e| format!("conform: {e}")),
        );
        (rep, steps)
    }

    fn layers(&self, reps: &[VerifyRep], spans: &[Span], _tracer: &Tracer, ledger: &mut Ledger) {
        let rep = reps.last().expect("at least one traced repetition");
        // Σ of a layer's spans under each repetition root, median over
        // repetitions.
        let per_rep = |pred: &dyn Fn(&Span) -> bool| -> f64 {
            let roots: Vec<SpanId> = spans
                .iter()
                .filter(|s| s.name == "bench.rep:verify")
                .map(|s| s.id)
                .collect();
            let sums: Vec<f64> = roots
                .iter()
                .map(|&r| {
                    spans
                        .iter()
                        .filter(|s| s.parent == r && pred(s))
                        .map(|s| s.secs())
                        .sum()
                })
                .collect();
            median(&sums)
        };
        ledger.metric("verify.modelcheck.states", rep.states as f64, "count");
        ledger.metric(
            "verify.modelcheck.s",
            per_rep(&|s| s.layer() == "verify.model"),
            "s",
        );
        ledger.metric(
            "verify.schedcheck.executions",
            rep.executions as f64,
            "count",
        );
        ledger.metric(
            "verify.schedcheck.s",
            per_rep(&|s| s.layer() == "verify.schedcheck"),
            "s",
        );
        ledger.metric(
            "verify.schedcheck.ticket_3_s",
            per_rep(&|s| s.name == "verify.schedcheck:ticket_3"),
            "s",
        );
        ledger.metric("verify.conform.events", rep.conform_events as f64, "count");
        ledger.metric(
            "verify.conform.rows_covered",
            rep.rows_covered as f64,
            "count",
        );
        ledger.metric(
            "verify.conform.s",
            per_rep(&|s| s.name == "verify.conform"),
            "s",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_rows_are_the_array_strings() {
        let json = "{\n  \"quick\": true,\n  \"fabric\": \"severe\",\n  \"protocols\": {\n    \"mesi\": [\n      \"read_install()\",\n      \"nack_retry(GetS)\"\n    ],\n    \"mesif\": [\n      \"read_install()\"\n    ]\n  }\n}\n";
        assert_eq!(rows_in_coverage(json), 3);
    }
}
