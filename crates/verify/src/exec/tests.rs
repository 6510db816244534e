//! schedcheck self-tests.
//!
//! Two layers:
//!
//! * **Clean passes** — every registered scenario must explore its full
//!   state space with zero violations. These are the checks CI relies
//!   on; a regression in any structure's ordering protocol fails here.
//! * **Mutation sweeps** — the checker checking itself: for each
//!   scenario we re-run the exploration once per discovered mutation
//!   site (a parallel-phase op whose source ordering is stronger than
//!   `Relaxed`), weakened to `Relaxed`. Every site outside the
//!   scenario's curated benign list MUST produce a violation (if the
//!   checker cannot see the bug a weakened ordering introduces, its
//!   clean passes are vacuous), and every benign site must stay
//!   silent, with the argument for *why* it is benign recorded next to
//!   the entry.
//!
//! Both layers pin their counts — executions and events, caught and
//! discovered sites — so a change to how executions are driven cannot
//! silently change the explored tree.

use super::scenarios;
use super::{explore, ExploreOpts, Mutation, OpKind, Recorder, Report, Scenario, ShadowU64};
use bounce_atomics::cell::{Cell64, Ordering};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

fn run(name: &str, mutation: Option<Mutation>) -> Report {
    let entry = scenarios::find(name).unwrap_or_else(|| panic!("unknown scenario {name}"));
    let opts = ExploreOpts {
        mutation,
        ..ExploreOpts::default()
    };
    (entry.run)(&opts)
}

fn assert_clean(name: &str) -> Report {
    let report = run(name, None);
    assert!(
        report.violation.is_none(),
        "{name}: unexpected violation:\n{}",
        super::render_report(&report)
    );
    assert!(
        !report.capped,
        "{name}: exploration capped — raise max_execs"
    );
    report
}

/// Clean pass with the explored tree pinned: the execution and event
/// counts change only if the scenario, DPOR or the memory model does.
fn assert_explores(name: &str, executions: u64, events: u64) {
    let report = assert_clean(name);
    assert_eq!(
        (report.executions, report.events),
        (executions, events),
        "{name}: (executions, events) moved"
    );
}

// --- Clean passes ---------------------------------------------------------

#[test]
fn counter_shared_2_clean() {
    assert_explores("counter_shared_2", 2, 4);
}

#[test]
fn counter_striped_3_clean() {
    assert_explores("counter_striped_3", 2, 6);
}

#[test]
fn counter_combining_2_clean() {
    assert_explores("counter_combining_2", 17, 156);
}

#[test]
fn stack_2_clean() {
    assert_explores("stack_2", 133, 1830);
}

#[test]
fn queue_2_clean() {
    assert_explores("queue_2", 528, 8862);
}

#[test]
fn ticket_2_clean() {
    assert_explores("ticket_2", 18, 237);
}

#[test]
fn ticket_3_clean() {
    assert_explores("ticket_3", 11388, 251660);
}

#[test]
fn tas_2_clean() {
    assert_explores("tas_2", 6, 52);
}

#[test]
fn ttas_2_clean() {
    assert_explores("ttas_2", 102, 1284);
}

#[test]
fn clh_2_clean() {
    assert_explores("clh_2", 16, 178);
}

#[test]
fn mcs_2_clean() {
    assert_explores("mcs_2", 422, 6604);
}

#[test]
fn seqlock_rw_clean() {
    assert_explores("seqlock_rw", 528, 8500);
}

// --- Mutation sweeps ------------------------------------------------------

/// Sweep every discovered mutation site of `name` under the benign-list
/// contract of [`scenarios::Entry::sweep`], and pin how many sites it
/// has and how many of them the checker catches.
fn sweep(name: &str, caught: usize, sites: usize) {
    let entry = scenarios::find(name).unwrap_or_else(|| panic!("unknown scenario {name}"));
    let clean = assert_clean(name);
    let sweep = entry
        .sweep(&clean)
        .unwrap_or_else(|breaches| panic!("{name}: {}", breaches.join("\n")));
    assert_eq!(
        (sweep.caught.len(), clean.sites.len()),
        (caught, sites),
        "{name}: (caught, sites) moved"
    );
}

// Why-benign arguments live next to the registry entries in
// `scenarios::all`.

#[test]
fn counter_shared_2_mutations_caught() {
    sweep("counter_shared_2", 0, 0);
}

#[test]
fn counter_striped_3_mutations_caught() {
    sweep("counter_striped_3", 0, 0);
}

#[test]
fn ticket_2_mutations_caught() {
    // Every non-Relaxed site in the ticket lock protocol is load-
    // bearing for mutual exclusion in this scenario: the Acquire spin
    // on `serving` and the Release publish of the next ticket both
    // order the critical sections' tracked accesses.
    sweep("ticket_2", 2, 2);
}

#[test]
fn ticket_3_mutations_caught() {
    sweep("ticket_3", 2, 2);
}

#[test]
fn tas_2_mutations_caught() {
    sweep("tas_2", 2, 2);
}

#[test]
fn ttas_2_mutations_caught() {
    sweep("ttas_2", 2, 2);
}

#[test]
fn clh_2_mutations_caught() {
    sweep("clh_2", 4, 6);
}

#[test]
fn mcs_2_mutations_caught() {
    sweep("mcs_2", 5, 9);
}

#[test]
fn seqlock_rw_mutations_caught() {
    sweep("seqlock_rw", 6, 8);
}

#[test]
fn stack_2_mutations_caught() {
    sweep("stack_2", 2, 2);
}

#[test]
fn queue_2_mutations_caught() {
    sweep("queue_2", 1, 10);
}

#[test]
fn counter_combining_2_mutations_caught() {
    sweep("counter_combining_2", 0, 6);
}

// --- Counterexample quality ----------------------------------------------

#[test]
fn mutated_ticket_counterexample_names_the_mutation() {
    // Weaken the Acquire spin on `serving` (site discovery tells us its
    // id) and check the printed interleaving marks the weakened op.
    let clean = assert_clean("ticket_2");
    let load_site = clean
        .sites
        .iter()
        .find(|(_, k)| *k == OpKind::Load)
        .copied()
        .expect("ticket lock has an Acquire load site");
    let report = run(
        "ticket_2",
        Some(Mutation {
            loc: load_site.0,
            kind: load_site.1,
        }),
    );
    let v = report.violation.expect("weakened ticket lock must fail");
    assert!(
        v.trace.iter().any(|l| l.contains("mutated->Relaxed")),
        "counterexample must mark the weakened op:\n{}",
        v.trace.join("\n")
    );
}

// --- Worker threads ------------------------------------------------------

/// The OS threads that ran `reuse_scenario`'s worker bodies.
static WORKER_THREADS: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

/// Two racing read-increment-write workers: several executions, so the
/// worker threads are observed across more than one.
fn reuse_scenario() -> Scenario<ShadowU64> {
    fn body(c: &ShadowU64, _r: &Recorder) {
        WORKER_THREADS.lock().unwrap().push(thread::current().id());
        let v = c.load(Ordering::Relaxed);
        c.store(v + 1, Ordering::Relaxed);
    }
    Scenario {
        name: "reuse",
        setup: || ShadowU64::new(0),
        workers: vec![body, body],
        spec: None,
        finale: None,
    }
}

/// A worker that panics when it reads the other worker's store, which
/// only some interleavings produce.
fn panic_scenario() -> Scenario<ShadowU64> {
    fn writer(c: &ShadowU64, _r: &Recorder) {
        c.store(1, Ordering::Relaxed);
    }
    fn reader(c: &ShadowU64, _r: &Recorder) {
        if c.load(Ordering::Relaxed) == 1 {
            panic!("reader saw the store");
        }
    }
    Scenario {
        name: "panics",
        setup: || ShadowU64::new(0),
        workers: vec![writer, reader],
        spec: None,
        finale: None,
    }
}

#[test]
fn worker_threads_live_for_the_whole_exploration() {
    WORKER_THREADS.lock().unwrap().clear();
    let report = explore(&reuse_scenario(), &ExploreOpts::default());
    assert!(report.is_clean());
    assert!(
        report.executions > 1,
        "the scenario must need several executions"
    );
    let threads: HashSet<ThreadId> = WORKER_THREADS.lock().unwrap().iter().copied().collect();
    assert_eq!(
        threads.len(),
        2,
        "{} executions ran on {} worker threads",
        report.executions,
        threads.len()
    );
}

#[test]
fn workers_survive_a_panicking_execution() {
    let report = explore(&panic_scenario(), &ExploreOpts::default());
    let v = report
        .violation
        .expect("some interleaving makes the reader panic");
    assert_eq!(v.kind, "panic");
    assert!(v.desc.contains("reader saw the store"), "{}", v.desc);
    // No worker is left parked: the next exploration runs to the end.
    assert_explores("ticket_2", 18, 237);
}
