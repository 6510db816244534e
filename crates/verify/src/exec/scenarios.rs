//! The scenario registry: one entry per checked structure, each a
//! small 2–3 thread workload over the *real* `bounce-atomics` type
//! instantiated on the [`super::Shadow`] substrate.
//!
//! Scenarios are deliberately tiny (1–2 operations per worker): the
//! checker explores **every** inequivalent interleaving and every
//! legal stale read, so the state space — not the iteration count —
//! provides the coverage. Each scenario is chosen so that weakening
//! any load-bearing `Acquire`/`Release` in the structure produces a
//! detectable violation here (see `exec::tests` for the exact
//! expectations, including the provably benign sites).

use super::{
    explore, ExploreOpts, LocId, Mutation, OpKind, Recorder, Report, Scenario, Shadow, SpecOp,
    SpecRet, SpecState, TrackedCell,
};
use bounce_atomics::counter::{CombiningCounter, ConcurrentCounter, SharedCounter, StripedCounter};
use bounce_atomics::locks::{ClhLock, McsLock, RawLock, TasLock, TicketLock, TtasLock};
use bounce_atomics::queue::MsQueue;
use bounce_atomics::stack::TreiberStack;
use bounce_atomics::SeqLock;
use std::collections::BTreeSet;

/// One runnable scenario in the registry.
pub struct Entry {
    /// Scenario name (stable CLI identifier).
    pub name: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Run the scenario under the given options.
    pub run: fn(&ExploreOpts) -> Report,
    /// Mutation sites (`"t{tid}#{idx}"`, op kind) whose weakening to
    /// `Relaxed` is expected to go **undetected**, with the argument
    /// for why recorded next to each list below. Every other site must
    /// produce a violation when weakened; [`Entry::sweep`] enforces
    /// both directions.
    pub benign: &'static [(&'static str, OpKind)],
}

/// A mutation sweep that kept the benign-list contract.
#[derive(Debug)]
pub struct Sweep {
    /// Sites whose weakening to `Relaxed` the checker caught.
    pub caught: Vec<(LocId, OpKind)>,
    /// Sites whose weakening went undetected: exactly the benign list.
    pub silent: Vec<(LocId, OpKind)>,
}

impl Entry {
    /// Mutation sweep: re-explore the scenario once per site of its
    /// clean report `clean`, with that site weakened to `Relaxed`.
    ///
    /// The contract, shared by the self-tests and `schedcheck
    /// --mutate`: every silent site is in the benign list, every
    /// benign entry is a silent site (no stale list), no mutated
    /// exploration is capped, and the scenario is not vacuous — some
    /// weakening is caught, unless the list declares *every* site
    /// benign (the structure's in-model correctness is carried by RMW
    /// atomicity alone). Returns the breaches when it is not kept.
    pub fn sweep(&self, clean: &Report) -> Result<Sweep, Vec<String>> {
        let mut sweep = Sweep {
            caught: Vec::new(),
            silent: Vec::new(),
        };
        let mut breaches = Vec::new();
        for &(loc, kind) in &clean.sites {
            let report = (self.run)(&ExploreOpts {
                mutation: Some(Mutation { loc, kind }),
                ..ExploreOpts::default()
            });
            if report.violation.is_some() {
                sweep.caught.push((loc, kind));
            } else if report.capped {
                breaches.push(format!("mutate {loc} {kind:?}: CAPPED (inconclusive)"));
            } else {
                sweep.silent.push((loc, kind));
            }
        }
        let silent: BTreeSet<(String, OpKind)> = sweep
            .silent
            .iter()
            .map(|&(l, k)| (l.to_string(), k))
            .collect();
        let benign: BTreeSet<(String, OpKind)> = self
            .benign
            .iter()
            .map(|&(l, k)| (l.to_string(), k))
            .collect();
        for (loc, kind) in silent.difference(&benign) {
            breaches.push(format!(
                "weakening {loc} {kind:?} went undetected and is not in the curated benign list"
            ));
        }
        for (loc, kind) in benign.difference(&silent) {
            breaches.push(format!("stale benign entry ({loc}, {kind:?})"));
        }
        if sweep.caught.is_empty() && self.benign.len() != clean.sites.len() {
            breaches.push("no weakened ordering was detected — scenario is vacuous".to_string());
        }
        if breaches.is_empty() {
            Ok(sweep)
        } else {
            Err(breaches)
        }
    }
}

/// Every registered scenario, in reporting order.
pub fn all() -> Vec<Entry> {
    vec![
        Entry {
            name: "counter_shared_2",
            threads: 2,
            run: counter_shared_2,
            benign: &[],
        },
        Entry {
            name: "counter_striped_3",
            threads: 3,
            run: counter_striped_3,
            benign: &[],
        },
        // Every site is benign in-model: the combining counter keeps
        // all of its state in atomic cells, so lost-update freedom
        // rides on RMW atomicity (slot fetch_add, drain swap, value
        // fetch_add) and combiner mutual exclusion on swap atomicity.
        // The lock's Acquire/Release pair orders no non-atomic data
        // here — under happens-before linearizability an
        // unsynchronised reader may legitimately linearize its read
        // before a concurrent add. An all-benign list is the explicit
        // "atomicity-carried" declaration the sweep harness accepts.
        Entry {
            name: "counter_combining_2",
            threads: 2,
            run: counter_combining_2,
            benign: &[
                ("t0#0", OpKind::Store),
                ("t0#0", OpKind::Rmw),
                ("t0#1", OpKind::Rmw),
                ("t0#2", OpKind::Rmw),
                ("t0#3", OpKind::Load),
                ("t0#3", OpKind::Rmw),
            ],
        },
        Entry {
            name: "stack_2",
            threads: 2,
            run: stack_2,
            benign: &[],
        },
        // The one MS-queue ordering the model can see through cell
        // values alone is the AcqRel tail CAS (t0#2 Rmw): weakened, a
        // dequeuer can miss the link its *own* program-order-earlier
        // enqueue chained onto and return None — non-linearizable.
        // The rest is benign in-model: next-pointer CAS/Load (t0#0,
        // tN#0) and head CAS/Load (t0#1) publish node *allocations*
        // (value field, next-cell init) — pointer publication the
        // checker does not model, while link integrity is carried by
        // CAS atomicity; a stale tail Load (t0#2 Load) is re-validated
        // by the CAS/retry loop.
        Entry {
            name: "queue_2",
            threads: 2,
            run: queue_2,
            benign: &[
                ("t0#0", OpKind::Load),
                ("t0#0", OpKind::Rmw),
                ("t0#1", OpKind::Load),
                ("t0#1", OpKind::Rmw),
                ("t0#2", OpKind::Load),
                ("t1#0", OpKind::Load),
                ("t1#0", OpKind::Rmw),
                ("t2#0", OpKind::Load),
                ("t2#0", OpKind::Rmw),
            ],
        },
        Entry {
            name: "ticket_2",
            threads: 2,
            run: ticket_2,
            benign: &[],
        },
        Entry {
            name: "ticket_3",
            threads: 3,
            run: ticket_3,
            benign: &[],
        },
        Entry {
            name: "tas_2",
            threads: 2,
            run: tas_2,
            benign: &[],
        },
        Entry {
            name: "ttas_2",
            threads: 2,
            run: ttas_2,
            benign: &[],
        },
        // * t0#0 Load — the Acquire spin on the *dummy* node's flag:
        //   its `false` is seeded at construction, which the spawn
        //   edge already orders before every worker; there is no
        //   release store for the first acquirer to synchronise with.
        // * t0#1 Rmw — the AcqRel tail swap: its release half
        //   publishes the fresh node's *allocation* (pointer
        //   publication, unmodeled). The locked-flag handoff
        //   (worker-node sites) is load-bearing and is caught.
        Entry {
            name: "clh_2",
            threads: 2,
            run: clh_2,
            benign: &[("t0#0", OpKind::Load), ("t0#1", OpKind::Rmw)],
        },
        // The per-node `next` cells (tN#0): the Release store linking
        // a waiter and the unlock's Acquire load of it publish the
        // waiter's node *allocation* (pointer publication, unmodeled).
        // Mutual exclusion flows through the AcqRel tail swap and the
        // locked-flag handoff (tN#1), all of which are caught.
        Entry {
            name: "mcs_2",
            threads: 2,
            run: mcs_2,
            benign: &[
                ("t1#0", OpKind::Load),
                ("t1#0", OpKind::Store),
                ("t2#0", OpKind::Load),
                ("t2#0", OpKind::Store),
            ],
        },
        // t0#1 (writer lock) Rmw/Store: with a single writer in the
        // scenario the writer lock orders nothing a reader observes;
        // torn-snapshot prevention flows through the seq counter's
        // AcqRel RMWs and the data cells' Release stores / Acquire
        // loads, which are all caught.
        Entry {
            name: "seqlock_rw",
            threads: 2,
            run: seqlock_rw,
            benign: &[("t0#1", OpKind::Rmw), ("t0#1", OpKind::Store)],
        },
    ]
}

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<Entry> {
    all().into_iter().find(|e| e.name == name)
}

// ---------------------------------------------------------------------------
// Counters

fn counter_shared_2(opts: &ExploreOpts) -> Report {
    fn add(c: &SharedCounter<Shadow>, _r: &Recorder) {
        c.add(0, 1);
    }
    explore(
        &Scenario {
            name: "counter_shared_2",
            setup: SharedCounter::<Shadow>::new_in,
            workers: vec![add, add],
            spec: None,
            finale: Some(|c: &SharedCounter<Shadow>| {
                let v = c.read();
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("lost update: counter reads {v}, want 2"))
                }
            }),
        },
        opts,
    )
}

fn counter_striped_3(opts: &ExploreOpts) -> Report {
    // Three adders over two stripes: tids 0 and 2 contend on stripe 0.
    fn add0(c: &StripedCounter<Shadow>, _r: &Recorder) {
        c.add(0, 1);
    }
    fn add1(c: &StripedCounter<Shadow>, _r: &Recorder) {
        c.add(1, 1);
    }
    fn add2(c: &StripedCounter<Shadow>, _r: &Recorder) {
        c.add(2, 1);
    }
    explore(
        &Scenario {
            name: "counter_striped_3",
            setup: || StripedCounter::<Shadow>::new_in(2),
            workers: vec![add0, add1, add2],
            spec: None,
            finale: Some(|c: &StripedCounter<Shadow>| {
                let v = c.read();
                if v == 3 {
                    Ok(())
                } else {
                    Err(format!("lost update: counter reads {v}, want 3"))
                }
            }),
        },
        opts,
    )
}

fn counter_combining_2(opts: &ExploreOpts) -> Report {
    // One adder, one reader: `read()` combines first, so a reader that
    // returns before a *completed* add is a linearizability violation —
    // which is exactly what weakening the combiner-lock release lets
    // through.
    fn add(c: &CombiningCounter<Shadow>, r: &Recorder) {
        r.op(SpecOp::Add(1), || {
            c.add(0, 1);
            SpecRet::Unit
        });
    }
    fn read(c: &CombiningCounter<Shadow>, r: &Recorder) {
        r.op(SpecOp::ReadCtr, || SpecRet::Val(c.read()));
    }
    explore(
        &Scenario {
            name: "counter_combining_2",
            setup: || CombiningCounter::<Shadow>::new_in(2),
            workers: vec![add, read],
            spec: Some(SpecState::Counter(0)),
            finale: Some(|c: &CombiningCounter<Shadow>| {
                let v = c.read();
                if v == 1 {
                    Ok(())
                } else {
                    Err(format!("lost update: counter reads {v}, want 1"))
                }
            }),
        },
        opts,
    )
}

// ---------------------------------------------------------------------------
// Treiber stack / Michael–Scott queue

fn stack_2(opts: &ExploreOpts) -> Report {
    fn push1(s: &TreiberStack<u64, Shadow>, r: &Recorder) {
        r.op(SpecOp::Push(1), || {
            s.push(1);
            SpecRet::Unit
        });
    }
    fn push2_pop(s: &TreiberStack<u64, Shadow>, r: &Recorder) {
        r.op(SpecOp::Push(2), || {
            s.push(2);
            SpecRet::Unit
        });
        r.op(SpecOp::Pop, || SpecRet::Opt(s.pop().map(|(v, _)| v)));
    }
    explore(
        &Scenario {
            name: "stack_2",
            setup: TreiberStack::<u64, Shadow>::new_in,
            workers: vec![push1, push2_pop],
            spec: Some(SpecState::Stack(Vec::new())),
            finale: Some(|s: &TreiberStack<u64, Shadow>| {
                // Exactly one of {1, 2} is still on the stack (one of
                // the two pushed values was popped by the worker).
                let mut rest = Vec::new();
                while let Some((v, _)) = s.pop() {
                    rest.push(v);
                }
                if rest.len() == 1 && (rest[0] == 1 || rest[0] == 2) {
                    Ok(())
                } else {
                    Err(format!(
                        "stack rest {rest:?}, want exactly one of [1] / [2]"
                    ))
                }
            }),
        },
        opts,
    )
}

fn queue_2(opts: &ExploreOpts) -> Report {
    fn enq1(q: &MsQueue<u64, Shadow>, r: &Recorder) {
        r.op(SpecOp::Enq(1), || {
            q.enqueue(1);
            SpecRet::Unit
        });
    }
    fn enq2_deq(q: &MsQueue<u64, Shadow>, r: &Recorder) {
        r.op(SpecOp::Enq(2), || {
            q.enqueue(2);
            SpecRet::Unit
        });
        r.op(SpecOp::Deq, || SpecRet::Opt(q.dequeue().map(|(v, _)| v)));
    }
    explore(
        &Scenario {
            name: "queue_2",
            setup: MsQueue::<u64, Shadow>::new_in,
            workers: vec![enq1, enq2_deq],
            spec: Some(SpecState::Queue(Default::default())),
            finale: Some(|q: &MsQueue<u64, Shadow>| {
                let mut rest = Vec::new();
                while let Some((v, _)) = q.dequeue() {
                    rest.push(v);
                }
                if rest.len() == 1 && (rest[0] == 1 || rest[0] == 2) {
                    Ok(())
                } else {
                    Err(format!(
                        "queue rest {rest:?}, want exactly one of [1] / [2]"
                    ))
                }
            }),
        },
        opts,
    )
}

// ---------------------------------------------------------------------------
// Locks: every worker runs one critical section over a tracked
// (non-atomic, race-checked) cell. A weakened lock ordering shows up as
// a data race on the cell or a lost increment in the finale.

macro_rules! lock_scenario {
    ($fname:ident, $name:literal, $lock:ty, $workers:expr) => {
        fn $fname(opts: &ExploreOpts) -> Report {
            type S = ($lock, TrackedCell<u64>);
            fn crit(s: &S, _r: &Recorder) {
                let token = s.0.lock();
                let v = s.1.get();
                s.1.set(v + 1);
                s.0.unlock(token);
            }
            let n: usize = $workers;
            explore(
                &Scenario {
                    name: $name,
                    setup: || (<$lock>::new_in(), TrackedCell::new(0u64)),
                    workers: vec![crit; n],
                    spec: None,
                    finale: Some(|s: &S| {
                        let v = s.1.get();
                        let n = $workers as u64;
                        if v == n {
                            Ok(())
                        } else {
                            Err(format!("critical sections lost updates: {v}, want {n}"))
                        }
                    }),
                },
                opts,
            )
        }
    };
}

lock_scenario!(ticket_2, "ticket_2", TicketLock<Shadow>, 2);
lock_scenario!(ticket_3, "ticket_3", TicketLock<Shadow>, 3);
lock_scenario!(tas_2, "tas_2", TasLock<Shadow>, 2);
lock_scenario!(ttas_2, "ttas_2", TtasLock<Shadow>, 2);
lock_scenario!(clh_2, "clh_2", ClhLock<Shadow>, 2);
lock_scenario!(mcs_2, "mcs_2", McsLock<Shadow>, 2);

// ---------------------------------------------------------------------------
// Seqlock: one writer, one optimistic reader. The reader's snapshot
// must never be torn (both words move together in the spec).

fn seqlock_rw(opts: &ExploreOpts) -> Report {
    fn writer(s: &SeqLock<2, Shadow>, r: &Recorder) {
        r.op(SpecOp::SlAdd(1), || {
            s.write(|d| {
                d[0] = d[0].wrapping_add(1);
                d[1] = d[1].wrapping_add(1);
            });
            SpecRet::Unit
        });
    }
    fn reader(s: &SeqLock<2, Shadow>, r: &Recorder) {
        r.op(SpecOp::SlRead, || SpecRet::Snap(s.read().0));
    }
    explore(
        &Scenario {
            name: "seqlock_rw",
            setup: || SeqLock::<2, Shadow>::new_in([0, 0]),
            workers: vec![writer, reader],
            spec: Some(SpecState::Seq([0, 0])),
            finale: Some(|s: &SeqLock<2, Shadow>| {
                let seq = s.sequence();
                let (v, _) = s.read();
                if seq == 2 && v == [1, 1] {
                    Ok(())
                } else {
                    Err(format!(
                        "final state seq={seq} data={v:?}, want seq=2 data=[1, 1]"
                    ))
                }
            }),
        },
        opts,
    )
}
