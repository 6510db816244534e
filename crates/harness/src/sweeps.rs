//! Generic sweep helpers: run a workload across thread counts (or any
//! variants) and tabulate the standard metric set. The experiment
//! registry specialises these; downstream users get them directly.

use crate::json::{self, Json};
use crate::measurement::Measurement;
use crate::parallel::par_map;
use crate::report::{fmt_f64, Table};
use crate::simrun::{sim_measure, try_sim_measure, SimRunConfig};
use bounce_sim::SimError;
use bounce_topo::MachineTopology;
use bounce_workloads::Workload;

/// Run `workload` for every thread count in `ns` on the simulated
/// machine. Points run on the parallel executor; results come back in
/// sweep order (see [`crate::parallel`]).
///
/// # Panics
/// Panics if any point trips the forward-progress watchdog; use
/// [`try_sweep_threads`] for structured errors.
pub fn sweep_threads(
    topo: &MachineTopology,
    workload: &Workload,
    ns: &[usize],
    cfg: &SimRunConfig,
) -> Vec<Measurement> {
    par_map(ns, |&n| sim_measure(topo, workload, n, cfg))
}

/// [`sweep_threads`] surfacing the first watchdog diagnosis instead of
/// panicking. Every point still runs (points are independent); on error
/// the lowest-index failing point's `SimError` is returned.
pub fn try_sweep_threads(
    topo: &MachineTopology,
    workload: &Workload,
    ns: &[usize],
    cfg: &SimRunConfig,
) -> Result<Vec<Measurement>, SimError> {
    par_map(ns, |&n| try_sim_measure(topo, workload, n, cfg))
        .into_iter()
        .collect()
}

/// Run every workload variant at a fixed thread count, in parallel.
///
/// # Panics
/// Panics if any point trips the forward-progress watchdog; use
/// [`try_sweep_workloads`] for structured errors.
pub fn sweep_workloads(
    topo: &MachineTopology,
    workloads: &[Workload],
    n: usize,
    cfg: &SimRunConfig,
) -> Vec<Measurement> {
    par_map(workloads, |w| sim_measure(topo, w, n, cfg))
}

/// [`sweep_workloads`] surfacing the first watchdog diagnosis instead of
/// panicking.
pub fn try_sweep_workloads(
    topo: &MachineTopology,
    workloads: &[Workload],
    n: usize,
    cfg: &SimRunConfig,
) -> Result<Vec<Measurement>, SimError> {
    par_map(workloads, |w| try_sim_measure(topo, w, n, cfg))
        .into_iter()
        .collect()
}

/// Tabulate measurements with the full standard metric set.
pub fn measurements_table(title: &str, measurements: &[Measurement]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "workload",
            "n",
            "throughput_mops",
            "goodput_mops",
            "fail_rate",
            "mean_lat_cycles",
            "p99_lat_cycles",
            "jain",
            "energy_nj_per_op",
        ],
    );
    for m in measurements {
        t.push(vec![
            m.workload.clone(),
            m.n.to_string(),
            fmt_f64(m.throughput_ops_per_sec / 1e6),
            fmt_f64(m.goodput_ops_per_sec / 1e6),
            fmt_f64(m.failure_rate),
            fmt_f64(m.mean_latency_cycles),
            fmt_f64(m.p99_latency_cycles),
            fmt_f64(m.jain),
            m.energy_per_op_nj
                .map(fmt_f64)
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    t
}

/// Serialize measurements as deterministic JSON — the machine-readable
/// twin of [`measurements_table`]. Carries the full standard metric
/// set, including the first-class p50/p99 latency percentiles the
/// engine now reports directly ([`bounce_sim::SimReport`]), so
/// downstream tooling consumes them from here instead of re-deriving
/// percentiles from per-thread histograms or parsing TSV. Rendering is
/// byte-deterministic: field order is fixed and floats go through the
/// same [`fmt_f64`] as the tables.
pub fn measurements_json(id: &str, measurements: &[Measurement]) -> String {
    let num = |v: f64| Json::num(v, fmt_f64);
    let point = |m: &Measurement| {
        let energy = m.energy_per_op_nj.map_or(Json::Null, num);
        Json::obj([
            ("workload", Json::Str(m.workload.clone())),
            ("machine", Json::Str(m.machine.clone())),
            ("backend", Json::Str(m.backend.label().to_string())),
            ("n", Json::Num(m.n.to_string())),
            ("throughput_mops", num(m.throughput_ops_per_sec / 1e6)),
            ("goodput_mops", num(m.goodput_ops_per_sec / 1e6)),
            ("fail_rate", num(m.failure_rate)),
            ("mean_lat_cycles", num(m.mean_latency_cycles)),
            ("p50_lat_cycles", num(m.p50_latency_cycles)),
            ("p99_lat_cycles", num(m.p99_latency_cycles)),
            ("jain", num(m.jain)),
            ("energy_nj_per_op", energy),
        ])
    };
    let points = Json::Arr(measurements.iter().map(point).collect());
    let doc = Json::obj([("id", Json::Str(id.into())), ("points", points)]);
    json::render(&doc, 2)
}

/// Pair measurements with model predictions into validation rows (the
/// Fig 7 workflow as a reusable step).
pub fn compare_throughput(
    measurements: &[Measurement],
    predictions: &[f64],
) -> Vec<bounce_core::ValidationRow> {
    assert_eq!(
        measurements.len(),
        predictions.len(),
        "measurement/prediction length mismatch"
    );
    measurements
        .iter()
        .zip(predictions)
        .map(|(m, &p)| bounce_core::ValidationRow {
            n: m.n,
            predicted: p,
            measured: m.throughput_ops_per_sec,
        })
        .collect()
}

/// Tabulate validation rows with a MAPE footer.
pub fn comparison_table(title: &str, rows: &[bounce_core::ValidationRow]) -> Table {
    let mut t = Table::new(title, &["n", "measured", "predicted", "err_pct"]);
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            fmt_f64(r.measured),
            fmt_f64(r.predicted),
            fmt_f64(r.ape_pct()),
        ]);
    }
    t.push(vec![
        "MAPE".into(),
        String::new(),
        String::new(),
        fmt_f64(bounce_core::mape(rows)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_atomics::Primitive;
    use bounce_topo::presets;

    fn quick(topo: &MachineTopology) -> SimRunConfig {
        let mut c = SimRunConfig::for_machine(topo);
        c.duration_cycles = 200_000;
        c
    }

    #[test]
    fn thread_sweep_produces_one_measurement_per_n() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let ms = sweep_threads(&topo, &w, &[1, 2, 4], &cfg);
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].n, 1);
        assert_eq!(ms[2].n, 4);
    }

    #[test]
    fn workload_sweep_covers_battery() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let battery = Workload::standard_battery();
        let ms = sweep_workloads(&topo, &battery[..4], 2, &cfg);
        assert_eq!(ms.len(), 4);
        let labels: std::collections::HashSet<_> = ms.iter().map(|m| m.workload.clone()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn comparison_roundtrip() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let ms = sweep_threads(&topo, &w, &[2, 4], &cfg);
        let preds: Vec<f64> = ms.iter().map(|m| m.throughput_ops_per_sec * 1.1).collect();
        let rows = compare_throughput(&ms, &preds);
        assert_eq!(rows.len(), 2);
        let t = comparison_table("demo", &rows);
        assert_eq!(t.rows.len(), 3, "2 rows + MAPE footer");
        let mape_cell: f64 = t.rows[2][3].parse().unwrap();
        assert!((mape_cell - 10.0).abs() < 0.5, "10% deliberate error");
    }

    #[test]
    #[should_panic]
    fn comparison_rejects_length_mismatch() {
        let rows: Vec<Measurement> = Vec::new();
        let _ = compare_throughput(&rows, &[1.0]);
    }

    #[test]
    fn json_carries_latency_percentiles_and_is_deterministic() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let ms = sweep_threads(&topo, &w, &[2, 4], &cfg);
        let json = measurements_json("hc-faa", &ms);
        assert!(json.contains("\"p50_lat_cycles\":"), "{json}");
        assert!(json.contains("\"p99_lat_cycles\":"), "{json}");
        assert!(json.contains("\"id\": \"hc-faa\""), "{json}");
        // Two points, comma-separated, no trailing comma.
        assert_eq!(json.matches("\"workload\"").count(), 2);
        assert!(!json.contains("},\n  ]"), "trailing comma: {json}");
        // Deterministic rendering: same measurements, same bytes.
        assert_eq!(json, measurements_json("hc-faa", &ms));
    }

    #[test]
    fn json_writes_non_finite_measurements_as_null() {
        let topo = presets::tiny_test_machine();
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        let mut ms = sweep_threads(&topo, &w, &[2], &quick(&topo));
        ms[0].failure_rate = f64::NAN;
        ms[0].jain = f64::INFINITY;
        let json = measurements_json("hc-faa", &ms);
        assert!(json.contains("\"fail_rate\": null"), "{json}");
        assert!(json.contains("\"jain\": null"), "{json}");
        assert!(crate::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn table_has_full_metric_set() {
        let topo = presets::tiny_test_machine();
        let cfg = quick(&topo);
        let ms = sweep_threads(
            &topo,
            &Workload::CasRetryLoop {
                window: 20,
                work: 0,
            },
            &[2],
            &cfg,
        );
        let t = measurements_table("demo", &ms);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.headers.len(), 9);
        // The fail-rate cell parses and is a probability.
        let f: f64 = t.rows[0][4].parse().unwrap();
        assert!((0.0..=1.0).contains(&f));
    }
}
