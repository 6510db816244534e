//! Conformance-pass (pass 5) integration tests: live engine traces
//! replayed through the verified model.
//!
//! Four guarantees beyond the `repro conform` campaign itself:
//!
//! * **totality** — over randomly generated quick-campaign-style
//!   scenarios, every concrete snapshot the engine records has an
//!   abstract image and every step refines the model (a property test,
//!   so the abstraction function is exercised far off the happy path);
//! * **tamper evidence** — the replayer *rejects* hand-corrupted
//!   traces: a forged directory record, a deleted event, and a
//!   relabeled event must all surface as refinement violations, or the
//!   pass could never catch a real recorder bypass;
//! * **inertness** — attaching the recorder does not perturb the
//!   simulation: reports and memory are identical with and without it,
//!   on a fault-free machine and under a NACKing fabric;
//! * **completeness** — the recorder sees every ownership transfer: the
//!   bounces derived from its events match the engine's own per-domain
//!   transfer counts.

use bounce_atomics::Primitive;
use bounce_sim::conform::{ConformKind, ConformRecorder};
use bounce_sim::program::builders;
use bounce_sim::protocol::protocol_for;
use bounce_sim::{
    CoherenceKind, Engine, FabricFaultConfig, HomePolicy, Program, RunLength, SimConfig, SimParams,
    SimReport, WordAddr,
};
use bounce_topo::{presets, Domain, MachineTopology, Placement};
use bounce_verify::conform::{replay_recorder, ConformError};
use proptest::prelude::*;

/// Run `programs` (one per core, abstract order) on the tiny test
/// machine under `proto`, returning the report and the captured trace.
fn run_traced(
    proto: CoherenceKind,
    programs: Vec<Program>,
    duration: u64,
    record: bool,
) -> (SimReport, Option<ConformRecorder>, Vec<u64>) {
    let topo = presets::tiny_test_machine();
    let mut params = SimParams::for_machine(&topo);
    params.protocol = proto;
    run_on(&topo, params, programs, duration, record)
}

/// Run `programs` (one per core, abstract order) on `topo` for a fixed
/// `duration`, returning the report, the captured trace and the first
/// word of lines 0..4.
fn run_on(
    topo: &MachineTopology,
    mut params: SimParams,
    programs: Vec<Program>,
    duration: u64,
    record: bool,
) -> (SimReport, Option<ConformRecorder>, Vec<u64>) {
    params.run_length = RunLength::Fixed { cycles: 0 };
    let cfg = SimConfig::new(params, duration);
    let n = programs.len();
    let mut eng = Engine::new(topo, cfg);
    for (i, p) in programs.into_iter().enumerate() {
        eng.add_thread(topo.cores[i].threads[0], p);
    }
    if record {
        eng.set_conform_recorder(ConformRecorder::new((0..n as u32).collect()));
    }
    let report = eng.try_run().expect("simulation completes");
    let words = (0..4u64).map(|k| eng.word(WordAddr::of_line(k))).collect();
    (report, eng.take_conform_recorder(), words)
}

fn program_for(choice: u8, work: u64) -> Program {
    let a = WordAddr::of_line(0);
    match choice % 4 {
        0 => builders::op_loop(Primitive::Faa, a, work),
        1 => builders::op_loop(Primitive::Load, a, work),
        2 => builders::op_loop(Primitive::Swap, a, work),
        _ => builders::cas_increment_loop(a, 10, work),
    }
}

fn proto_for(choice: u8) -> CoherenceKind {
    CoherenceKind::ALL[choice as usize % CoherenceKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Property: the abstraction function is total over every state a
    /// random quick-campaign-style run reaches, and every recorded step
    /// refines the verified model — for any protocol, thread count in
    /// the model's range, and primitive mix.
    #[test]
    fn random_scenarios_refine_the_model(
        proto_choice in 0u8..3,
        n in 2usize..=4,
        choices in proptest::collection::vec(0u8..4, 4),
        works in proptest::collection::vec(5u64..60, 4),
    ) {
        let proto = proto_for(proto_choice);
        let programs: Vec<Program> = (0..n)
            .map(|i| program_for(choices[i], works[i]))
            .collect();
        let (_, rec, _) = run_traced(proto, programs, 15_000, true);
        let rec = rec.expect("recorder attached");
        let outcome = replay_recorder(protocol_for(proto), &rec);
        prop_assert!(
            outcome.is_ok(),
            "{proto} n={n}: {}",
            outcome.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }
}

/// A real contended trace to corrupt: two FAA threads and a reader.
fn captured_trace(proto: CoherenceKind) -> ConformRecorder {
    let a = WordAddr::of_line(0);
    let programs = vec![
        builders::op_loop(Primitive::Faa, a, 30),
        builders::op_loop(Primitive::Faa, a, 45),
        builders::op_loop(Primitive::Load, a, 25),
    ];
    let (_, rec, _) = run_traced(proto, programs, 10_000, true);
    let rec = rec.expect("recorder attached");
    assert!(rec.events.len() > 20, "trace is non-trivial");
    rec
}

fn assert_rejected(rec: &ConformRecorder, what: &str) {
    match replay_recorder(protocol_for(CoherenceKind::Mesif), rec) {
        Err(ConformError::Refinement(v)) => {
            assert!(!v.message.is_empty(), "violation carries a message");
        }
        Err(ConformError::Config(m)) => panic!("{what}: rejected as config error: {m}"),
        Ok(_) => panic!("{what}: forged trace replayed clean"),
    }
}

#[test]
fn forged_directory_record_is_rejected() {
    let mut rec = captured_trace(CoherenceKind::Mesif);
    // Forge the directory owner of some mid-trace post-snapshot: the
    // very next event's pre-state can no longer match the frontier.
    let mid = rec.events.len() / 2;
    let forged = rec.events[mid].post.owner.map_or(Some(1), |_| None);
    rec.events[mid].post.owner = forged;
    assert_rejected(&rec, "forged owner");
}

#[test]
fn deleted_event_is_rejected() {
    let mut rec = captured_trace(CoherenceKind::Mesif);
    // Drop a mid-trace event that changes observable state (a service
    // start or completion) — the stream then skips a transition, which
    // is exactly what a recorder bypass would look like.
    let mid = rec
        .events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                ConformKind::ServiceStart { .. } | ConformKind::ServiceDone { .. }
            ) && e.pre != e.post
        })
        .expect("a state-changing event exists");
    rec.events.remove(mid);
    assert_rejected(&rec, "deleted event");
}

#[test]
fn relabeled_event_is_rejected() {
    let mut rec = captured_trace(CoherenceKind::Mesif);
    // Flip a completed read into a completed write: the label exists in
    // the model, but no GetM was queued or serviced for that core.
    let mid = rec
        .events
        .iter()
        .position(|e| matches!(e.kind, ConformKind::ServiceDone { excl: false }))
        .expect("a completed read exists");
    rec.events[mid].kind = ConformKind::ServiceDone { excl: true };
    assert_rejected(&rec, "relabeled event");
}

#[test]
fn wrong_protocol_replay_is_rejected() {
    // A MOESI trace demotes M -> Owned on a read; MESIF's relation
    // cannot produce that state, so cross-protocol replay must fail —
    // the check is protocol-sensitive, not a rubber stamp.
    let rec = captured_trace(CoherenceKind::Moesi);
    assert!(
        rec.events
            .iter()
            .any(|e| matches!(e.kind, ConformKind::ServiceStart { excl: false })),
        "trace exercises a read while owned"
    );
    match replay_recorder(protocol_for(CoherenceKind::Mesif), &rec) {
        Err(ConformError::Refinement(_)) => {}
        other => panic!("MOESI trace under MESIF: {other:?}"),
    }
}

#[test]
fn config_errors_are_reported() {
    let rec = ConformRecorder::new(vec![0]);
    assert!(matches!(
        replay_recorder(protocol_for(CoherenceKind::Mesi), &rec),
        Err(ConformError::Config(_))
    ));
    let rec = ConformRecorder::new(vec![0, 1, 1]);
    assert!(matches!(
        replay_recorder(protocol_for(CoherenceKind::Mesi), &rec),
        Err(ConformError::Config(_))
    ));
}

#[test]
fn recorder_is_inert() {
    // The same scenario with and without the recorder attached must
    // produce the same simulation: identical report and memory. The
    // recorder only reads engine state; a detached one costs a `None`
    // branch per hook. Two inputs: the fault-free tiny machine, and
    // `repro conform`'s `nack-storm` setup (Xeon E5 under the `severe`
    // fabric preset), which drives the Queue-then-NACK hooks of
    // `fabric_admit`.
    let a = WordAddr::of_line(0);
    let mk = |work: [u64; 3]| {
        vec![
            builders::op_loop(Primitive::Faa, a, work[0]),
            builders::cas_increment_loop(a, 10, work[1]),
            builders::op_loop(Primitive::Load, a, work[2]),
        ]
    };
    let tiny = presets::tiny_test_machine();
    let e5 = presets::xeon_e5_2695_v4();
    let mut severe = SimParams::for_machine(&e5);
    severe.fabric = FabricFaultConfig::from_label("severe").expect("known preset");
    let fault_free = (&tiny, SimParams::for_machine(&tiny), [20, 35, 15], 20_000);
    for (topo, params, work, duration) in [fault_free, (&e5, severe, [25, 20, 15], 30_000)] {
        let name = format!("{} fabric {}", topo.name, params.fabric.label());
        let faulted = params.fabric != FabricFaultConfig::none();
        let (with, rec, words_with) = run_on(topo, params.clone(), mk(work), duration, true);
        let (without, none, words_without) = run_on(topo, params, mk(work), duration, false);
        let rec = rec.expect("recorder attached");
        assert!(!rec.events.is_empty() && none.is_none(), "{name}");
        let nacks = rec
            .events
            .iter()
            .any(|e| matches!(e.kind, ConformKind::Nack { .. }));
        assert_eq!(nacks, faulted, "{name}: NACKs exactly under faults");
        assert_eq!(words_with, words_without, "{name}: memory identical");
        assert_eq!(
            format!("{with:?}"),
            format!("{without:?}"),
            "{name}: reports identical"
        );
    }
}

#[test]
fn recorder_sees_every_bounce() {
    // The `trace_bounces` example's setup: four FAA threads scattered
    // over a dual-socket machine, one home directory.
    let topo = presets::dual_socket_small();
    let mut params = SimParams::e5();
    params.home_policy = HomePolicy::Fixed(0);
    let mut eng = Engine::new(&topo, SimConfig::new(params, 40_000));
    let line = WordAddr::of_line(0x4000);
    let hws = Placement::Scattered.assign(&topo, 4);
    for &hw in &hws {
        eng.add_thread(hw, builders::op_loop(Primitive::Faa, line, 0));
    }
    let tracked = hws.iter().map(|&hw| topo.core_of(hw).id.0 as u32).collect();
    eng.set_conform_recorder(ConformRecorder::new(tracked));
    let report = eng.run();
    let rec = eng.take_conform_recorder().expect("recorder attached");
    // Count per domain as `depart_line` does, which bumps
    // `transfers_by_domain` on every ownership transfer.
    let mut bounces = [0u64; 5];
    for ev in &rec.events {
        if let Some(from) = ev.bounce_from() {
            let d = topo.comm_domain(
                topo.cores[from as usize].threads[0],
                topo.cores[ev.core as usize].threads[0],
            );
            bounces[d.index()] += 1;
        }
    }
    assert!(report.total_transfers() > 100, "the run bounces the line");
    assert!(
        bounces[Domain::CrossSocket.index()] > 0,
        "scattered threads cross sockets"
    );
    assert_eq!(bounces, report.transfers_by_domain);
}
