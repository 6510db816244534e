//! `engine-steady`: fixed-length engine runs, serial, no harness.
//!
//! Eight points, each `Engine::new` + `add_thread` (set-up) and then
//! `run()` (measured), on one host thread with no adaptive run-length
//! control. Almost all of the time is in `sim.engine`, `sim.equeue` and
//! `sim.directory`, so an arbitration, sharer-set or event-queue change
//! shows here, while a scheduler or convergence change must not.

use crate::ledger::{median, Ledger};
use crate::reference::{fnv1a, Reference};
use crate::spans::{Span, SpanId, Tracer};
use crate::Bench;
use bounce_atomics::Primitive;
use bounce_harness::experiments::Machine;
use bounce_sim::{ArbitrationPolicy, CalendarQueue, Engine, HomePolicy, SimConfig, SimReport};
use bounce_topo::Placement;
use bounce_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// One engine configuration.
pub struct Point {
    /// Metric-name suffix, `<workload>.<machine>.n<threads>`.
    pub name: &'static str,
    machine: Machine,
    n: usize,
    workload: Workload,
    arbitration: ArbitrationPolicy,
    /// Direct-mapped L1 (one way), as experiment e13 runs `ReadScan`.
    direct_mapped: bool,
    /// Whether the run reads `SimParams::seed` (Random arbitration).
    pub seeded: bool,
    /// Simulated cycles, sized so each point takes about 0.2 s of host
    /// time and no point dominates the workload's wall time.
    cycles: u64,
}

/// The eight points, in run order.
pub fn points() -> Vec<Point> {
    let faa = Primitive::Faa;
    let hc = |name, machine, n, cycles| Point {
        name,
        machine,
        n,
        workload: Workload::HighContention { prim: faa },
        arbitration: ArbitrationPolicy::Fifo,
        direct_mapped: false,
        seeded: false,
        cycles,
    };
    vec![
        // HC FAA under FIFO with a fixed home: the engine's reference
        // setting, at low and high thread counts on both presets.
        hc("hc_faa.e5.n8", Machine::E5, 8, 20_000_000),
        hc("hc_faa.e5.n64", Machine::E5, 64, 30_000_000),
        hc("hc_faa.knl.n8", Machine::Knl, 8, 25_000_000),
        hc("hc_faa.knl.n64", Machine::Knl, 64, 25_000_000),
        // The same under Random arbitration: the one seeded point.
        Point {
            arbitration: ArbitrationPolicy::Random,
            seeded: true,
            ..hc("hc_faa_random.knl.n64", Machine::Knl, 64, 25_000_000)
        },
        // CAS retry loop: wasted attempts grow with contention.
        Point {
            workload: Workload::CasRetryLoop {
                window: 30,
                work: 0,
            },
            ..hc("cas_loop.knl.n64", Machine::Knl, 64, 12_000_000)
        },
        // Every read is a directory transaction; the writer invalidates
        // many sharers.
        Point {
            workload: Workload::ReadScan {
                writers: 1,
                writer_work: 2000,
            },
            direct_mapped: true,
            ..hc("readscan.e5.n64", Machine::E5, 64, 2_000_000)
        },
        // Private lines: the L1-hit fast path; the directory sees one
        // transaction per thread.
        Point {
            workload: Workload::LowContention { prim: faa, work: 0 },
            ..hc("lc_faa.knl.n64", Machine::Knl, 64, 1_000_000)
        },
    ]
}

/// Build the engine of `p` with its thread programs.
pub fn build(p: &Point, seed: u64) -> Engine {
    let topo = p.machine.topo();
    let mut params = p.machine.sim_params();
    params.arbitration = p.arbitration;
    params.home_policy = HomePolicy::Fixed(0);
    params.seed = seed;
    if p.direct_mapped {
        params.l1_ways = 1;
    }
    let mut eng = Engine::new(&topo, SimConfig::new(params, p.cycles));
    let hw = Placement::Packed.assign(&topo, p.n);
    for (h, prog) in hw.into_iter().zip(p.workload.sim_programs(p.n)) {
        eng.add_thread(h, prog);
    }
    eng
}

/// The exact counters of one run, keyed `engine-steady.<point>.<counter>`.
pub fn counters(point: &str, r: &SimReport) -> Vec<(String, u64)> {
    let mut per_thread = Vec::new();
    for t in &r.threads {
        for v in [
            t.hw_thread as u64,
            t.ops,
            t.successes,
            t.failures,
            t.cond_attempts,
            t.cond_successes,
        ] {
            per_thread.extend_from_slice(&v.to_le_bytes());
        }
    }
    let key = |c: &str| format!("engine-steady.{point}.{c}");
    let mut v = vec![
        (key("events"), r.events),
        (key("dir_transactions"), r.dir_transactions),
        (key("invalidations"), r.invalidations),
        (key("threads"), r.threads.len() as u64),
        (key("threads_fnv"), fnv1a(&per_thread)),
    ];
    for (d, &x) in r.transfers_by_domain.iter().enumerate() {
        v.push((key(&format!("transfers.d{d}")), x));
    }
    v
}

/// What one point's run left for the per-layer metrics.
pub struct PointRun {
    secs: f64,
    events: u64,
    dir_transactions: u64,
    queue_depth_mean: f64,
    cond_attempts: u64,
    cond_successes: u64,
}

/// The `engine-steady` workload.
pub struct EngineSteady {
    points: Vec<Point>,
    seed: u64,
    check_reference: bool,
    /// Counters of the first repetition, which every later one must
    /// repeat exactly.
    first: Vec<Option<Vec<(String, u64)>>>,
}

impl EngineSteady {
    /// The workload at `seed`; the seeded point is compared with the
    /// reference only at `default_seed` (the others read no seed).
    pub fn new(seed: u64, default_seed: u64) -> Self {
        let points = points();
        let first = points.iter().map(|_| None).collect();
        EngineSteady {
            points,
            seed,
            check_reference: seed == default_seed,
            first,
        }
    }
}

impl Bench for EngineSteady {
    type State = Vec<Engine>;
    type Rep = Vec<Option<PointRun>>;

    fn setup(&self, tracer: &Tracer, parent: SpanId) -> Vec<Engine> {
        self.points
            .iter()
            .map(|p| {
                tracer
                    .time(&format!("setup:engine.{}", p.name), parent, |_| {
                        build(p, self.seed)
                    })
                    .0
            })
            .collect()
    }

    fn rep(
        &mut self,
        engines: Vec<Engine>,
        tracer: &Tracer,
        parent: SpanId,
        ledger: &mut Ledger,
        reference: &mut Reference,
    ) -> (Self::Rep, Vec<f64>) {
        let mut steps = Vec::new();
        let mut runs = Vec::new();
        for (i, (p, mut eng)) in self.points.iter().zip(engines).enumerate() {
            let (result, secs) = tracer.time(&format!("sim.engine:{}", p.name), parent, |_| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.try_run()))
            });
            steps.push(secs);
            let report = match result {
                Ok(Ok(r)) => r,
                Ok(Err(e)) => {
                    ledger.operation(Err(format!("{}: {e}", p.name)));
                    runs.push(None);
                    continue;
                }
                Err(_) => {
                    ledger.operation(Err(format!("{}: panicked", p.name)));
                    runs.push(None);
                    continue;
                }
            };
            let c = counters(p.name, &report);
            let mut outcome = Ok(());
            if self.check_reference || !p.seeded {
                outcome = reference.gate(&c).map_err(|e| format!("{}: {e}", p.name));
            }
            match &self.first[i] {
                Some(f) if *f != c => {
                    outcome = Err(format!("{}: counters differ between repetitions", p.name))
                }
                Some(_) => {}
                None => self.first[i] = Some(c),
            }
            ledger.operation(outcome);
            runs.push(Some(PointRun {
                secs,
                events: report.events,
                dir_transactions: report.dir_transactions,
                queue_depth_mean: report.queue_depth.mean(),
                cond_attempts: report.total_cond_attempts(),
                cond_successes: report.total_cond_successes(),
            }));
        }
        (runs, steps)
    }

    fn layers(&self, reps: &[Self::Rep], _spans: &[Span], tracer: &Tracer, ledger: &mut Ledger) {
        let mut ns_per_event = Vec::new();
        for (i, p) in self.points.iter().enumerate() {
            let runs: Vec<&PointRun> = reps.iter().filter_map(|r| r[i].as_ref()).collect();
            let Some(last) = runs.last() else {
                ns_per_event.push(f64::NAN);
                continue;
            };
            let ns = median(
                &runs
                    .iter()
                    .map(|r| r.secs * 1e9 / r.events as f64)
                    .collect::<Vec<_>>(),
            );
            ns_per_event.push(ns);
            let m = |c: &str| format!("sim.engine.{c}.{}", p.name);
            ledger.metric(&m("ns_per_event"), ns, "ns");
            ledger.metric(&m("events"), last.events as f64, "count");
            ledger.metric(
                &format!("sim.directory.transactions.{}", p.name),
                last.dir_transactions as f64,
                "count",
            );
            ledger.metric(
                &format!("sim.directory.queue_depth_mean.{}", p.name),
                last.queue_depth_mean,
                "requests",
            );
            if p.name == "cas_loop.knl.n64" {
                ledger.metric(
                    &m("cas_success_ratio"),
                    last.cond_successes as f64 / last.cond_attempts as f64,
                    "ratio",
                );
            }
        }
        let ns_of =
            |name: &str| ns_per_event[self.points.iter().position(|p| p.name == name).unwrap()];
        for m in ["e5", "knl"] {
            ledger.metric(
                &format!("sim.engine.scaling.{m}"),
                ns_of(&format!("hc_faa.{m}.n64")) / ns_of(&format!("hc_faa.{m}.n8")),
                "ratio",
            );
        }
        let (ns, _) = tracer.time("sim.equeue", 0, |_| equeue_hold_ns_per_op());
        ledger.metric("sim.equeue.hold_ns_per_op", ns, "ns");
    }
}

/// In-flight event population for the queue probe: roughly the events
/// outstanding in a 64-thread contended run.
const HOLD_K: usize = 64;

/// Schedule-ahead offsets, cycles, cycled through by the hold loop: L1
/// and local ops, directory service, on-socket and cross-socket
/// transfers, and a rare far wakeup beyond the calendar wheel.
const HOLD_OFFSETS: [u64; 16] = [
    25, 40, 25, 300, 40, 25, 400, 25, 40, 300, 25, 40, 25, 400, 300, 2000,
];

const HOLD_OPS: usize = 2_000_000;

/// Host nanoseconds per hold operation (one pop and one push) on a
/// `CalendarQueue` kept at `HOLD_K` events.
pub fn equeue_hold_ns_per_op() -> f64 {
    let mut q = CalendarQueue::new();
    for i in 0..HOLD_K {
        q.push(i as u64, i as u32);
    }
    let t0 = Instant::now();
    for op in 0..HOLD_OPS {
        let (t, v) = q.pop().expect("the hold loop keeps HOLD_K events queued");
        q.push(t + HOLD_OFFSETS[op % HOLD_OFFSETS.len()], black_box(v));
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(&q);
    secs * 1e9 / HOLD_OPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::valid_name;
    use bounce_sim::SimParams;
    use bounce_topo::presets;

    fn tiny_report() -> SimReport {
        let topo = presets::tiny_test_machine();
        let mut eng = Engine::new(&topo, SimConfig::new(SimParams::for_machine(&topo), 20_000));
        let w = Workload::HighContention {
            prim: Primitive::Faa,
        };
        for (h, prog) in Placement::Packed
            .assign(&topo, 2)
            .into_iter()
            .zip(w.sim_programs(2))
        {
            eng.add_thread(h, prog);
        }
        eng.run()
    }

    #[test]
    fn reference_check_flags_a_perturbed_per_thread_counter() {
        let report = tiny_report();
        let good = counters("tiny", &report);
        let mut reference = Reference::default();
        for (k, v) in &good {
            reference.insert(k.clone(), *v);
        }
        assert!(reference.gate(&good).is_ok());
        let mut perturbed = report.clone();
        perturbed.threads[1].failures += 1;
        let e = reference.gate(&counters("tiny", &perturbed)).unwrap_err();
        assert!(e.contains("engine-steady.tiny.threads_fnv"), "{e}");
        let mut perturbed = report;
        perturbed.transfers_by_domain[0] += 1;
        let e = reference.gate(&counters("tiny", &perturbed)).unwrap_err();
        assert!(e.contains("engine-steady.tiny.transfers.d0"), "{e}");
    }

    #[test]
    fn point_metric_names_are_legal_and_unique() {
        let report = tiny_report();
        let mut names: Vec<String> = Vec::new();
        for p in &points() {
            for c in ["ns_per_event", "events", "cas_success_ratio"] {
                names.push(format!("sim.engine.{c}.{}", p.name));
            }
            names.push(format!("sim.directory.queue_depth_mean.{}", p.name));
            names.push(format!("sim.directory.transactions.{}", p.name));
            names.extend(counters(p.name, &report).into_iter().map(|(k, _)| k));
        }
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
