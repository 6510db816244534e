//! `campaign`: the full adaptive evaluation — every experiment table
//! under `ExpCtx::full()` through the experiment pool with two jobs —
//! plus the model probes that ride along with it: a fixed prediction
//! batch and the quick model-vs-simulator validation.

use crate::ledger::{median, Ledger};
use crate::reference::{fnv1a, Reference};
use crate::spans::{pool_busy_frac, Span, SpanId, Tracer};
use crate::Bench;
use bounce_core::{BouncingModel, Predictor, Scenario};
use bounce_harness::experiments::{
    experiment_specs, registered_workloads, run_guarded, ExpCtx, ExpResult, ExpThunk, Machine,
};
use bounce_harness::modeltime;
use bounce_harness::parallel::par_run_jobs;
use bounce_harness::report::Table;
use bounce_harness::validation::{campaign_validation, ValidationReport};
use bounce_sim::counters;
use bounce_topo::{MachineTopology, Placement, PlacementOrder};
use std::hint::black_box;
use std::path::Path;

/// Experiment-pool jobs: the host has two vCPUs.
pub const JOBS: usize = 2;

/// The long poles of the full campaign, reported one by one.
const LONG_POLES: [&str; 4] = ["fig1-knl", "fig6-knl", "fig1-e5", "fig6-e5"];

/// The exact work counters of one campaign repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignRep {
    events: u64,
    runs: u64,
    early: u64,
    cycles_simulated: u64,
    predictions: u64,
    model_secs: f64,
}

impl CampaignRep {
    fn work(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.events,
            self.runs,
            self.early,
            self.cycles_simulated,
            self.predictions,
        )
    }
}

/// Set-up: both topology presets with their models, and the specs.
pub struct CampaignState {
    specs: Vec<(String, ExpThunk)>,
    /// Built to time the `topo` layer's construction as set-up; the
    /// experiments build their own copies inside their thunks.
    _machines: Vec<(MachineTopology, BouncingModel)>,
}

/// The `campaign` workload.
#[derive(Default)]
pub struct Campaign {
    first: Option<CampaignRep>,
}

/// Title and headers of a table, digested, and its row count.
pub fn table_counters(id: &str, t: &Table) -> Vec<(String, u64)> {
    let shape = format!("{}\n{}", t.title, t.headers.join("\t"));
    vec![
        (format!("campaign.{id}.shape_fnv"), fnv1a(shape.as_bytes())),
        (format!("campaign.{id}.rows"), t.rows.len() as u64),
    ]
}

/// A table fails if a numeric cell is not finite (labels are fine).
pub fn finite_cells(t: &Table) -> Result<(), String> {
    for row in &t.rows {
        for cell in row {
            if cell.trim().parse::<f64>().is_ok_and(|v| !v.is_finite()) {
                return Err(format!("non-finite cell {cell:?} in row {row:?}"));
            }
        }
    }
    Ok(())
}

fn check_table(id: &str, result: &ExpResult, reference: &mut Reference) -> Result<(), String> {
    let t = result.as_ref().map_err(|e| e.to_string())?;
    if t.headers.is_empty() || t.rows.is_empty() {
        return Err(format!("{id}: empty table"));
    }
    if let Some(r) = t.rows.iter().find(|r| r.len() != t.headers.len()) {
        return Err(format!("{id}: row {r:?} does not match the headers"));
    }
    finite_cells(t).map_err(|e| format!("{id}: {e}"))?;
    reference
        .gate(&table_counters(id, t))
        .map_err(|e| format!("{id}: {e}"))
}

impl Bench for Campaign {
    type State = CampaignState;
    type Rep = CampaignRep;

    fn setup(&self, tracer: &Tracer, parent: SpanId) -> CampaignState {
        let machines = Machine::ALL
            .iter()
            .map(|m| {
                tracer
                    .time(&format!("setup:topo.{}", m.label()), parent, |_| {
                        (m.topo(), m.model())
                    })
                    .0
            })
            .collect();
        let (specs, _) = tracer.time("setup:experiment_specs", parent, |_| {
            experiment_specs(ExpCtx::full())
        });
        CampaignState {
            specs,
            _machines: machines,
        }
    }

    fn rep(
        &mut self,
        state: CampaignState,
        tracer: &Tracer,
        parent: SpanId,
        ledger: &mut Ledger,
        reference: &mut Reference,
    ) -> (CampaignRep, Vec<f64>) {
        let specs = &state.specs;
        let (events0, tally0, model0) = (
            counters::total_events(),
            counters::run_tally(),
            modeltime::snapshot(),
        );
        let (results, wall) = tracer.time("harness.parallel", parent, |pool| {
            par_run_jobs(specs.len(), JOBS, |i| {
                let (id, thunk) = &specs[i];
                tracer
                    .time(&format!("harness.experiments:{id}"), pool, |_| {
                        run_guarded(id, thunk)
                    })
                    .0
            })
        });
        let (tally, model) = (counters::run_tally(), modeltime::snapshot());
        for ((id, _), result) in specs.iter().zip(&results) {
            ledger.operation(check_table(id, result, reference));
        }
        let rep = CampaignRep {
            events: counters::total_events() - events0,
            runs: tally.runs - tally0.runs,
            early: tally.early - tally0.early,
            cycles_simulated: tally.cycles_simulated - tally0.cycles_simulated,
            predictions: model.calls - model0.calls,
            model_secs: model.seconds - model0.seconds,
        };
        // Early stopping is a pure function of each point's event
        // stream, so the work counters repeat exactly.
        match self.first {
            Some(f) if f.work() != rep.work() => ledger.check(Err(format!(
                "campaign work counters differ between repetitions: {:?} vs {:?}",
                f.work(),
                rep.work()
            ))),
            Some(_) => {}
            None => self.first = Some(rep),
        }
        (rep, vec![wall])
    }

    fn layers(&self, reps: &[CampaignRep], spans: &[Span], tracer: &Tracer, ledger: &mut Ledger) {
        let pools: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "harness.parallel")
            .collect();
        let experiments_of =
            |pool: &Span| -> Vec<&Span> { spans.iter().filter(|s| s.parent == pool.id).collect() };
        let mut busy = Vec::new();
        let mut critical = Vec::new();
        let mut mevents = Vec::new();
        for (pool, rep) in pools.iter().zip(reps) {
            let exps = experiments_of(pool);
            let secs: Vec<f64> = exps.iter().map(|s| s.secs()).collect();
            busy.push(pool_busy_frac(&secs, JOBS, pool.secs()));
            critical.push(secs.iter().copied().fold(0.0, f64::max));
            mevents.push(rep.events as f64 / secs.iter().sum::<f64>() / 1e6);
        }
        ledger.metric("harness.pool_busy_frac", median(&busy), "ratio");
        ledger.metric("harness.critical_path_s", median(&critical), "s");
        for id in LONG_POLES {
            let name = format!("harness.experiments:{id}");
            let secs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.secs())
                .collect();
            ledger.metric(&format!("harness.experiment_s.{id}"), median(&secs), "s");
        }
        let rep = reps.last().expect("at least one traced repetition");
        ledger.metric("core.converge.early_stop_runs", rep.early as f64, "count");
        ledger.metric(
            "core.converge.cycles_simulated",
            rep.cycles_simulated as f64,
            "cycles",
        );
        ledger.metric("sim.counters.runs", rep.runs as f64, "count");
        ledger.metric("sim.counters.events", rep.events as f64, "count");
        ledger.metric(
            "sim.engine.campaign_mevents_per_s",
            median(&mevents),
            "Mevents/s",
        );
        ledger.metric(
            "harness.modeltime.predictions",
            rep.predictions as f64,
            "count",
        );
        let model_secs: Vec<f64> = reps.iter().map(|r| r.model_secs).collect();
        ledger.metric("harness.modeltime.s", median(&model_secs), "s");
        let (ns, _) = tracer.time("core.predict", 0, |_| predict_ns_per_prediction());
        ledger.metric("core.predict.ns_per_prediction", ns, "ns");
    }
}

/// Every scenario the registered workloads map to, at every thread
/// count of the full sweeps, on both machines.
pub fn prediction_set() -> Vec<(BouncingModel, Vec<Scenario>)> {
    Machine::ALL
        .iter()
        .map(|m| {
            let topo = m.topo();
            let order = PlacementOrder::new(Placement::Packed, &topo);
            let scenarios = registered_workloads()
                .iter()
                .flat_map(|w| {
                    m.sweep_ns(false)
                        .into_iter()
                        .filter_map(|n| w.scenario(order.threads_of(n)))
                        .collect::<Vec<_>>()
                })
                .collect();
            (m.model(), scenarios)
        })
        .collect()
}

const PREDICT_ROUNDS: usize = 10;

/// Host nanoseconds per `Predictor::predict` over [`prediction_set`].
pub fn predict_ns_per_prediction() -> f64 {
    let set = prediction_set();
    let t0 = std::time::Instant::now();
    let mut count = 0usize;
    for _ in 0..PREDICT_ROUNDS {
        for (model, scenarios) in &set {
            for s in scenarios {
                black_box(model.predict(black_box(s)));
                count += 1;
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / count as f64
}

/// Run the quick model-vs-simulator validation, write its JSON to
/// `out`, and check its entry count against the reference. A failure is
/// recorded in `ledger` and yields `None`.
pub fn validation(
    tracer: &Tracer,
    out: &Path,
    ledger: &mut Ledger,
    reference: &mut Reference,
) -> Option<ValidationReport> {
    let (result, _) = tracer.time("core.validate", 0, |_| campaign_validation(ExpCtx::quick()));
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            ledger.check(Err(format!("validation: {e}")));
            return None;
        }
    };
    ledger.check(
        std::fs::write(out.join("VALIDATION.json"), report.to_json())
            .map_err(|e| format!("writing VALIDATION.json: {e}")),
    );
    ledger.check(
        reference
            .gate(&[("validate.entries".to_string(), report.entries.len() as u64)])
            .map_err(|e| format!("validation: {e}")),
    );
    Some(report)
}

/// Mean MAPE over the validation entries, percent.
pub fn mean_mape_pct(report: &ValidationReport) -> f64 {
    report.entries.iter().map(|e| e.mape_pct).sum::<f64>() / report.entries.len() as f64
}

/// One metric per validation entry.
pub fn validation_layers(report: &ValidationReport, ledger: &mut Ledger) {
    for e in &report.entries {
        ledger.metric(
            &format!(
                "core.validate.mape_pct.{}.{}.{}",
                e.experiment, e.machine, e.metric
            ),
            e.mape_pct,
            "%",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_checks_flag_shape_and_non_finite_cells() {
        let mut t = Table::new("T", &["n", "mops"]);
        t.push(vec!["1".into(), "2.5".into()]);
        let mut reference = Reference::default();
        for (k, v) in table_counters("x", &t) {
            reference.insert(k, v);
        }
        assert!(check_table("x", &Ok(t.clone()), &mut reference).is_ok());
        let mut more = t.clone();
        more.push(vec!["2".into(), "3.0".into()]);
        assert!(check_table("x", &Ok(more), &mut reference)
            .unwrap_err()
            .contains("campaign.x.rows"));
        let mut renamed = t.clone();
        renamed.headers[1] = "gops".into();
        assert!(check_table("x", &Ok(renamed), &mut reference)
            .unwrap_err()
            .contains("shape_fnv"));
        let mut nan = t;
        nan.rows[0][1] = "NaN".into();
        assert!(check_table("x", &Ok(nan), &mut reference)
            .unwrap_err()
            .contains("non-finite"));
    }

    #[test]
    fn prediction_set_covers_both_machines() {
        let set = prediction_set();
        assert_eq!(set.len(), 2);
        assert!(set.iter().all(|(_, s)| s.len() > 20));
    }
}
