//! The cooperative scheduler: one OS thread per logical thread, but a
//! single **baton** (the `current` field) serialises them completely —
//! at any instant exactly one thread is between its "dispatched" and
//! its next yield point, so scenario user code is physically data-race
//! free and every context switch happens at an operation boundary,
//! exactly where the checker chose it.
//!
//! Each logical thread parks on its own condition variable (`cvs[t]`;
//! the controller uses `cvs[0]`), so handing the baton over wakes only
//! the thread it goes to. When the scheduler hands it straight back to
//! the thread that offered it — DPOR's default, the lowest enabled
//! thread, does so on most ops — nobody is woken at all. Only a
//! violation wakes every thread, so that each can unwind.
//!
//! Yield points are: the start of every shadow atomic op, every
//! tracked-cell access, every `spin_hint()`, and thread exit. Code
//! *between* ops rides with the preceding op (loom's convention): the
//! thread keeps the baton through it.
//!
//! Spin loops are made finite with two rules evaluated at
//! `spin_hint()` against the thread's **last load**:
//! * if another thread has appended a newer store to that location,
//!   bump the spinner's coherence floor past the value it read (a
//!   fairness assumption: real spinners eventually see newer values)
//!   and keep it runnable;
//! * otherwise the thread **blocks** until some other thread changes
//!   the location's latest value. If every live thread ends up blocked
//!   the execution is reported as a deadlock/livelock — which is how
//!   lost-wakeup orderings show up as counterexamples.

use super::clock::{VClock, MAX_THREADS};
use super::dpor::{self, Choice};
use super::linearize::OpRecord;
use super::membuf::{LocId, MemState, Mutation, OpKind, TrackedState};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Panic payload thrown at yield points once a violation is recorded;
/// worker wrappers catch it and unwind cleanly.
pub struct AbortExec;

/// Execution phase. Controller-phase ops (setup, finale, structure
/// drop) run directly on the calling thread with no choice points: the
/// controller is the only logical thread then, and after joining all
/// worker clocks every store is happens-before visible, so loads are
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Single-threaded setup/finale on the controller (tid 0).
    Controller,
    /// Workers are live; every op is a scheduling point.
    Parallel,
}

/// Scheduling state of one logical thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Slot not used by this scenario.
    Unused,
    /// May be dispatched.
    Runnable,
    /// Spinning on `loc`; wakes when its latest value changes.
    Blocked(LocId),
    /// Body returned (or aborted).
    Finished,
}

/// One operation in the execution trace — the unit DPOR reasons about
/// and the line a counterexample prints.
#[derive(Debug, Clone)]
pub struct Event {
    /// Acting thread.
    pub tid: usize,
    /// Location touched.
    pub loc: LocId,
    /// Whether the op writes (RMWs count as writes).
    pub is_write: bool,
    /// The thread's clock after the op (includes acquire joins).
    pub vc: VClock,
    /// Index into the choice path of the `Thread` choice that
    /// dispatched this op, if that dispatch was a real choice.
    pub choice: Option<usize>,
    /// Human-readable rendering.
    pub label: String,
}

/// A property violation, with the interleaving that produced it.
#[derive(Debug, Clone)]
pub struct SchedViolation {
    /// Kind tag: `data-race`, `deadlock`, `panic`, `non-linearizable`,
    /// `assertion`, `step-budget`.
    pub kind: &'static str,
    /// What went wrong.
    pub desc: String,
    /// The counterexample interleaving (one line per event).
    pub trace: Vec<String>,
}

/// Shared state of one execution.
pub struct ExecState {
    /// The store-history memory model.
    pub mem: MemState,
    /// Per-thread vector clocks.
    pub clocks: [VClock; MAX_THREADS],
    /// Per-thread scheduling status.
    pub status: [ThreadStatus; MAX_THREADS],
    /// Thread holding the baton.
    pub current: usize,
    /// True when `current` was dispatched but has not yet executed the
    /// op it was dispatched for.
    pub pending: bool,
    /// Choice index of the pending dispatch (for `Event::choice`).
    pub pending_choice: Option<usize>,
    /// Logical threads in use (controller + workers).
    pub nthreads: usize,
    /// Current phase.
    pub phase: Phase,
    /// The DFS choice path (replay prefix + fresh extension).
    pub path: Vec<Choice>,
    /// Next path entry to consult.
    pub depth: usize,
    /// Trace of this execution.
    pub events: Vec<Event>,
    /// Per-thread (location, store index) of the most recent load/RMW —
    /// what `spin_hint` reasons about.
    pub last_load: [Option<(LocId, usize)>; MAX_THREADS],
    /// Per-thread shadow-location creation ordinals.
    pub loc_ctr: [u32; MAX_THREADS],
    /// Race-detector state for tracked (non-atomic) cells.
    pub tracked: BTreeMap<LocId, TrackedState>,
    /// First violation, if any.
    pub violation: Option<SchedViolation>,
    /// Global step counter (ops + history stamps).
    pub steps: u64,
    /// Abort the execution if `steps` exceeds this.
    pub max_steps: u64,
    /// Active ordering-weakening mutation, if any.
    pub mutation: Option<Mutation>,
    /// Discovered mutation sites: parallel-phase ops whose source
    /// ordering was stronger than `Relaxed`.
    pub sites: BTreeSet<(LocId, OpKind)>,
    /// Linearizability history recorded by `Recorder`.
    pub history: Vec<OpRecord>,
}

/// The mutex every logical thread synchronises on, with one wake-up
/// per logical thread.
pub struct ExecShared {
    /// The state.
    pub st: Mutex<ExecState>,
    /// Baton/wake signalling: thread `t` waits only on `cvs[t]`, all
    /// under `st`.
    pub cvs: [Condvar; MAX_THREADS],
}

fn lock_err(e: std::sync::PoisonError<MutexGuard<'_, ExecState>>) -> MutexGuard<'_, ExecState> {
    // A worker can only panic outside the lock (ops drop the guard
    // before any panic), so poisoning indicates a checker bug in the
    // controller; recover so remaining threads can unwind.
    e.into_inner()
}

impl ExecShared {
    /// Fresh execution state for `nthreads` logical threads replaying
    /// the given choice-path prefix.
    pub fn new(
        nthreads: usize,
        path: Vec<Choice>,
        mutation: Option<Mutation>,
        max_steps: u64,
    ) -> Self {
        assert!(nthreads <= MAX_THREADS, "scenario exceeds MAX_THREADS");
        let mut status = [ThreadStatus::Unused; MAX_THREADS];
        status[0] = ThreadStatus::Runnable;
        ExecShared {
            st: Mutex::new(ExecState {
                mem: MemState::default(),
                clocks: [VClock::ZERO; MAX_THREADS],
                status,
                current: 0,
                pending: false,
                pending_choice: None,
                nthreads,
                phase: Phase::Controller,
                path,
                depth: 0,
                events: Vec::new(),
                last_load: [None; MAX_THREADS],
                loc_ctr: [0; MAX_THREADS],
                tracked: BTreeMap::new(),
                violation: None,
                steps: 0,
                max_steps,
                mutation,
                sites: BTreeSet::new(),
                history: Vec::new(),
            }),
            cvs: [const { Condvar::new() }; MAX_THREADS],
        }
    }

    /// Lock the state (recovering from poisoning via `lock_err`).
    pub fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.st.lock().unwrap_or_else(lock_err)
    }

    /// Record a violation (first one wins) with the current trace.
    pub fn set_violation(&self, st: &mut ExecState, kind: &'static str, desc: String) {
        if st.violation.is_some() {
            return;
        }
        let mut trace: Vec<String> = st
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| format!("{:3}. {}", i + 1, e.label))
            .collect();
        trace.push(format!("  => {kind}: {desc}"));
        st.violation = Some(SchedViolation { kind, desc, trace });
        self.wake_all();
    }

    /// Wake every logical thread, so each sees the violation and unwinds.
    fn wake_all(&self) {
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    /// Unwind the calling thread out of the execution.
    fn abort(&self, guard: MutexGuard<'_, ExecState>) -> ! {
        self.wake_all();
        drop(guard);
        std::panic::panic_any(AbortExec);
    }

    /// Pick the next thread to dispatch and wake it, unless the baton
    /// stays with `from`, the thread offering it. Called only while
    /// holding the baton (or by the controller's initial dispatch / a
    /// finishing worker).
    pub fn pass_baton(&self, st: &mut ExecState, from: usize) {
        self.pick_next(st);
        if st.current != from {
            self.cvs[st.current].notify_one();
        }
    }

    /// Pick the next thread to dispatch. Detects deadlock when every
    /// live worker is blocked.
    fn pick_next(&self, st: &mut ExecState) {
        let enabled: Vec<usize> = (1..st.nthreads)
            .filter(|&t| st.status[t] == ThreadStatus::Runnable)
            .collect();
        st.pending_choice = None;
        if enabled.is_empty() {
            let blocked: Vec<String> = (1..st.nthreads)
                .filter_map(|t| match st.status[t] {
                    ThreadStatus::Blocked(loc) => Some(format!("t{t} spinning on {loc}")),
                    _ => None,
                })
                .collect();
            if !blocked.is_empty() {
                self.set_violation(
                    st,
                    "deadlock",
                    format!("all live threads are spin-blocked: {}", blocked.join(", ")),
                );
            }
            // All finished (or deadlocked): hand control back to the
            // controller, which watches the finished statuses.
            st.current = 0;
            st.pending = false;
            return;
        }
        let (chosen, choice_idx) = dpor::choose_thread(&mut st.path, &mut st.depth, &enabled);
        st.current = chosen;
        st.pending = true;
        st.pending_choice = choice_idx;
    }

    /// Common prologue of every parallel-phase op: yield the baton if
    /// we are lingering with it, then wait to be dispatched. Returns
    /// with the guard held and the dispatch consumed. Must not be
    /// called in controller phase.
    fn gate(&self, tid: usize) -> (MutexGuard<'_, ExecState>, Option<usize>) {
        let mut st = self.lock();
        debug_assert_eq!(st.phase, Phase::Parallel);
        if st.violation.is_some() {
            self.abort(st);
        }
        if st.current == tid && !st.pending {
            // We kept the baton through our user code; offer it up.
            self.pass_baton(&mut st, tid);
        }
        loop {
            if st.violation.is_some() {
                self.abort(st);
            }
            if st.current == tid && st.pending {
                break;
            }
            st = self.cvs[tid].wait(st).unwrap_or_else(lock_err);
        }
        st.pending = false;
        let choice = st.pending_choice.take();
        st.steps += 1;
        if st.steps > st.max_steps {
            let max = st.max_steps;
            self.set_violation(
                &mut st,
                "step-budget",
                format!("execution exceeded {max} steps — unbounded loop in scenario or checker"),
            );
            self.abort(st);
        }
        (st, choice)
    }

    /// Wake every thread spin-blocked on `loc` (its value changed).
    fn wake_spinners(st: &mut ExecState, loc: LocId) {
        for t in 1..st.nthreads {
            if st.status[t] == ThreadStatus::Blocked(loc) {
                st.status[t] = ThreadStatus::Runnable;
            }
        }
    }

    /// Resolve the effective ordering under the active mutation, and
    /// record the site when the source ordering is mutation-eligible.
    fn effective_ord(
        st: &mut ExecState,
        loc: LocId,
        kind: OpKind,
        ord: Ordering,
    ) -> (Ordering, bool) {
        if ord != Ordering::Relaxed {
            st.sites.insert((loc, kind));
        }
        if st.mutation == Some(Mutation { loc, kind }) {
            (Ordering::Relaxed, true)
        } else {
            (ord, false)
        }
    }

    /// Append a trace event. `vc` must be the acting thread's clock
    /// *before* any acquire join the op performs (program-order tick
    /// only): DPOR compares event clocks to decide whether a
    /// conflicting pair could be reordered, and the pair's own
    /// reads-from edge must not count as an ordering — otherwise two
    /// RMWs on one location always look happens-before-ordered and
    /// their modification-order reversal is never explored.
    fn push_event(
        st: &mut ExecState,
        tid: usize,
        loc: LocId,
        is_write: bool,
        vc: VClock,
        choice: Option<usize>,
        label: String,
    ) {
        st.events.push(Event {
            tid,
            loc,
            is_write,
            vc,
            choice,
            label,
        });
    }

    /// Register a new shadow location created by `tid`, seeding its
    /// history with `init` at the creator's current clock.
    pub fn create_loc(&self, tid: usize, init: u64) -> LocId {
        let mut st = self.lock();
        let loc = LocId {
            tid,
            idx: st.loc_ctr[tid],
        };
        st.loc_ctr[tid] += 1;
        let vc = st.clocks[tid];
        st.mem.new_loc(loc, init, tid, &vc);
        loc
    }

    /// Register a tracked (non-atomic, race-checked) location.
    pub fn create_tracked(&self, tid: usize) -> LocId {
        let mut st = self.lock();
        let loc = LocId {
            tid,
            idx: st.loc_ctr[tid],
        };
        st.loc_ctr[tid] += 1;
        st.tracked.insert(loc, TrackedState::default());
        loc
    }

    /// Shadow atomic load.
    pub fn shadow_load(&self, tid: usize, loc: LocId, ord: Ordering) -> u64 {
        if self.controller_fast_path(tid) {
            let mut st = self.lock();
            let idx = st.mem.newest(loc);
            let mut vc = st.clocks[tid];
            let v = st.mem.apply_load(loc, idx, tid, ord, &mut vc);
            st.clocks[tid] = vc;
            st.last_load[tid] = Some((loc, idx));
            return v;
        }
        let (mut st, choice) = self.gate(tid);
        let (eff, mutated) = Self::effective_ord(&mut st, loc, OpKind::Load, ord);
        let vc0 = st.clocks[tid];
        let elig = st.mem.eligible(loc, tid, &vc0, eff);
        let pos = if elig.len() >= 2 {
            let s = &mut *st;
            dpor::choose_load(&mut s.path, &mut s.depth, elig.len())
        } else {
            0
        };
        let idx = elig[pos];
        st.clocks[tid].tick(tid);
        let evc = st.clocks[tid];
        let mut vc = evc;
        let v = st.mem.apply_load(loc, idx, tid, eff, &mut vc);
        st.clocks[tid] = vc;
        st.last_load[tid] = Some((loc, idx));
        let newest = st.mem.newest(loc);
        let label = format!(
            "t{tid} load  {loc} -> {v} ({}{}, store {idx}/{newest})",
            ord_name(ord),
            if mutated { " mutated->Relaxed" } else { "" },
        );
        Self::push_event(&mut st, tid, loc, false, evc, choice, label);
        v
    }

    /// Shadow atomic store.
    pub fn shadow_store(&self, tid: usize, loc: LocId, val: u64, ord: Ordering) {
        if self.controller_fast_path(tid) {
            let mut st = self.lock();
            st.clocks[tid].tick(tid);
            let vc = st.clocks[tid];
            st.mem.apply_store(loc, val, tid, ord, &vc);
            return;
        }
        let (mut st, choice) = self.gate(tid);
        let (eff, mutated) = Self::effective_ord(&mut st, loc, OpKind::Store, ord);
        st.clocks[tid].tick(tid);
        let vc = st.clocks[tid];
        let changed = st.mem.apply_store(loc, val, tid, eff, &vc);
        if changed {
            Self::wake_spinners(&mut st, loc);
        }
        let label = format!(
            "t{tid} store {loc} <- {val} ({}{})",
            ord_name(ord),
            if mutated { " mutated->Relaxed" } else { "" },
        );
        Self::push_event(&mut st, tid, loc, true, vc, choice, label);
    }

    /// Shadow atomic read-modify-write (swap/fetch_add/fetch_or).
    /// Always reads the modification-order tail (atomicity). Returns
    /// the previous value.
    pub fn shadow_rmw(
        &self,
        tid: usize,
        loc: LocId,
        ord: Ordering,
        name: &str,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        if self.controller_fast_path(tid) {
            let mut st = self.lock();
            st.clocks[tid].tick(tid);
            let mut vc = st.clocks[tid];
            let (old, idx, _) = st.mem.apply_rmw(loc, tid, ord, &mut vc, f);
            st.clocks[tid] = vc;
            st.last_load[tid] = Some((loc, idx));
            return old;
        }
        let (mut st, choice) = self.gate(tid);
        let (eff, mutated) = Self::effective_ord(&mut st, loc, OpKind::Rmw, ord);
        st.clocks[tid].tick(tid);
        let evc = st.clocks[tid];
        let mut vc = evc;
        let (old, idx, changed) = st.mem.apply_rmw(loc, tid, eff, &mut vc, f);
        st.clocks[tid] = vc;
        st.last_load[tid] = Some((loc, idx));
        if changed {
            Self::wake_spinners(&mut st, loc);
        }
        let new = {
            let h = st.mem.hist_ref(loc);
            h.stores[h.stores.len() - 1].val
        };
        let label = format!(
            "t{tid} {name:5} {loc} {old} -> {new} ({}{})",
            ord_name(ord),
            if mutated { " mutated->Relaxed" } else { "" },
        );
        Self::push_event(&mut st, tid, loc, true, evc, choice, label);
        old
    }

    /// Shadow strong compare-exchange. Success is an RMW on the tail;
    /// failure reads the tail (coherence-latest) with the failure
    /// ordering — a deliberate strengthening (no stale-failure
    /// branches) documented in DESIGN.md.
    pub fn shadow_cas(
        &self,
        tid: usize,
        loc: LocId,
        current: u64,
        new: u64,
        succ: Ordering,
        fail: Ordering,
    ) -> Result<u64, u64> {
        if self.controller_fast_path(tid) {
            let mut st = self.lock();
            let idx = st.mem.newest(loc);
            let tail = st.mem.hist_ref(loc).stores[idx].val;
            st.clocks[tid].tick(tid);
            let mut vc = st.clocks[tid];
            let r = if tail == current {
                let (old, i, _) = st.mem.apply_rmw(loc, tid, succ, &mut vc, |_| new);
                st.last_load[tid] = Some((loc, i));
                Ok(old)
            } else {
                let v = st.mem.apply_load(loc, idx, tid, fail, &mut vc);
                st.last_load[tid] = Some((loc, idx));
                Err(v)
            };
            st.clocks[tid] = vc;
            return r;
        }
        let (mut st, choice) = self.gate(tid);
        // One mutation site covers both outcomes: a source-level
        // `compare_exchange(.., succ, fail)` weakened to Relaxed.
        let (eff_succ, mutated) = Self::effective_ord(&mut st, loc, OpKind::Rmw, succ);
        let eff_fail = if mutated { Ordering::Relaxed } else { fail };
        let idx = st.mem.newest(loc);
        let tail = st.mem.hist_ref(loc).stores[idx].val;
        st.clocks[tid].tick(tid);
        let evc = st.clocks[tid];
        let mut vc = evc;
        let mnote = if mutated { " mutated->Relaxed" } else { "" };
        if tail == current {
            let (old, i, changed) = st.mem.apply_rmw(loc, tid, eff_succ, &mut vc, |_| new);
            st.clocks[tid] = vc;
            st.last_load[tid] = Some((loc, i));
            if changed {
                Self::wake_spinners(&mut st, loc);
            }
            let label = format!(
                "t{tid} cas   {loc} {current} -> {new} ok ({}{mnote})",
                ord_name(succ)
            );
            Self::push_event(&mut st, tid, loc, true, evc, choice, label);
            Ok(old)
        } else {
            let v = st.mem.apply_load(loc, idx, tid, eff_fail, &mut vc);
            st.clocks[tid] = vc;
            st.last_load[tid] = Some((loc, idx));
            let label = format!(
                "t{tid} cas   {loc} want {current} saw {v} fail ({}{mnote})",
                ord_name(fail)
            );
            Self::push_event(&mut st, tid, loc, false, evc, choice, label);
            Err(v)
        }
    }

    /// Race-checked read of a tracked non-atomic location.
    pub fn tracked_read(&self, tid: usize, loc: LocId) {
        if self.controller_fast_path(tid) {
            let mut st = self.lock();
            let vc = st.clocks[tid];
            let _ = st
                .tracked
                .get_mut(&loc)
                .expect("unregistered tracked loc")
                .on_read(tid, &vc);
            return;
        }
        let (mut st, choice) = self.gate(tid);
        st.clocks[tid].tick(tid);
        let vc = st.clocks[tid];
        let res = st
            .tracked
            .get_mut(&loc)
            .expect("unregistered tracked loc")
            .on_read(tid, &vc);
        let label = format!("t{tid} read  {loc} (non-atomic)");
        Self::push_event(&mut st, tid, loc, false, vc, choice, label);
        if let Err(race) = res {
            self.set_violation(
                &mut st,
                "data-race",
                format!(
                    "{} on {loc} between t{} and t{}",
                    race.what, race.threads.0, race.threads.1
                ),
            );
            self.abort(st);
        }
    }

    /// Race-checked write of a tracked non-atomic location.
    pub fn tracked_write(&self, tid: usize, loc: LocId) {
        if self.controller_fast_path(tid) {
            let mut st = self.lock();
            let vc = st.clocks[tid];
            let _ = st
                .tracked
                .get_mut(&loc)
                .expect("unregistered tracked loc")
                .on_write(tid, &vc);
            return;
        }
        let (mut st, choice) = self.gate(tid);
        st.clocks[tid].tick(tid);
        let vc = st.clocks[tid];
        let res = st
            .tracked
            .get_mut(&loc)
            .expect("unregistered tracked loc")
            .on_write(tid, &vc);
        let label = format!("t{tid} write {loc} (non-atomic)");
        Self::push_event(&mut st, tid, loc, true, vc, choice, label);
        if let Err(race) = res {
            self.set_violation(
                &mut st,
                "data-race",
                format!(
                    "{} on {loc} between t{} and t{}",
                    race.what, race.threads.0, race.threads.1
                ),
            );
            self.abort(st);
        }
    }

    /// `spin_hint` from the scenario: apply the fairness bump or block
    /// until the spun-on location's value changes.
    pub fn spin_hint_op(&self, tid: usize) {
        let mut st = self.lock();
        if st.phase == Phase::Controller {
            return;
        }
        if st.violation.is_some() {
            self.abort(st);
        }
        debug_assert!(
            st.current == tid && !st.pending,
            "spin_hint without the baton"
        );
        let Some((loc, idx)) = st.last_load[tid] else {
            return; // nothing read yet: plain pause, next op yields
        };
        let newer_foreign = {
            let h = st.mem.hist_ref(loc);
            h.stores.iter().skip(idx + 1).any(|s| s.writer != tid)
        };
        if newer_foreign {
            // Fairness: a real spinner eventually observes newer
            // values; force the next read past what we last saw.
            let h = st.mem.hist_mut(loc);
            h.seen[tid] = h.seen[tid].max(idx + 1);
            return;
        }
        st.status[tid] = ThreadStatus::Blocked(loc);
        self.pass_baton(&mut st, tid);
        loop {
            if st.violation.is_some() {
                self.abort(st);
            }
            if st.status[tid] == ThreadStatus::Runnable && st.current == tid && st.pending {
                break; // dispatch left pending for the next op
            }
            st = self.cvs[tid].wait(st).unwrap_or_else(lock_err);
        }
    }

    /// History-record mark: a display stamp plus the thread's current
    /// clock. The clock is the correctness-bearing half — a thread's
    /// clock only changes at its own gated ops, so reading it between
    /// ops is deterministic regardless of when the OS runs this
    /// thread. The scalar stamp is a display-only interval hint (its
    /// exact value can race with other threads' gated steps).
    pub fn op_mark(&self, tid: usize) -> (u64, VClock) {
        let mut st = self.lock();
        st.steps += 1;
        (st.steps, st.clocks[tid])
    }

    /// Append a completed operation to the linearizability history.
    pub fn push_record(&self, rec: OpRecord) {
        self.lock().history.push(rec);
    }

    /// Worker epilogue: mark finished, release the baton if held, and
    /// tell the controller.
    pub fn finish_worker(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        if let Some(msg) = panic_msg {
            self.set_violation(&mut st, "panic", format!("t{tid} panicked: {msg}"));
        }
        st.status[tid] = ThreadStatus::Finished;
        if st.phase == Phase::Parallel && st.current == tid && st.violation.is_none() {
            self.pass_baton(&mut st, tid);
        }
        self.cvs[0].notify_one();
    }

    /// Controller: block until every worker has finished, then join
    /// their clocks and return to controller phase.
    pub fn wait_workers(&self) {
        let mut st = self.lock();
        loop {
            let done = (1..st.nthreads).all(|t| st.status[t] == ThreadStatus::Finished);
            if done {
                break;
            }
            st = self.cvs[0].wait(st).unwrap_or_else(lock_err);
        }
        for t in 1..st.nthreads {
            let c = st.clocks[t];
            st.clocks[0].join(&c);
        }
        st.clocks[0].tick(0);
        st.phase = Phase::Controller;
    }

    /// Whether the calling op should take the deterministic
    /// controller-phase path.
    fn controller_fast_path(&self, tid: usize) -> bool {
        let st = self.lock();
        let ctl = st.phase == Phase::Controller;
        debug_assert!(!ctl || tid == 0, "worker op in controller phase");
        ctl
    }
}

fn ord_name(ord: Ordering) -> &'static str {
    match ord {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "?",
    }
}
