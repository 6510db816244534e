//! `schedcheck` — an exhaustive interleaving + memory-ordering model
//! checker for the real `bounce-atomics` structures (pass 4 of the
//! static verification layer).
//!
//! The structures are generic over `bounce_atomics::cell::CellModel`;
//! this module provides the [`Shadow`] substrate, whose cells route
//! every load/store/RMW through a cooperative scheduler
//! ([`sched`]) and a C11 store-history memory model ([`membuf`]).
//! A loom-style stateless DFS with dynamic partial-order reduction
//! ([`dpor`]) then explores **every** inequivalent interleaving and
//! every legal stale-read of 2–3 thread scenarios, checking:
//!
//! * data-race freedom of lock-guarded plain data ([`TrackedCell`],
//!   FastTrack-style vector clocks);
//! * linearizability of recorded operation histories against tiny
//!   sequential specs ([`linearize`], [`specs`]);
//! * absence of deadlock/livelock (a spin loop nobody will ever
//!   release);
//! * scenario-specific finale assertions.
//!
//! [`explore`] runs each worker body on one OS thread for the whole
//! exploration and sends it one job per execution; the scheduler's
//! baton admits one thread at a time and wakes only the thread it
//! dispatches.
//!
//! Mutation mode re-runs a scenario with one `(location, op-kind)`
//! site weakened to `Relaxed` ([`membuf::Mutation`]) — the checker
//! must then produce a counterexample for every load-bearing ordering,
//! which is `schedcheck`'s self-test that it can actually see the bugs
//! it claims to rule out.

pub mod clock;
pub mod dpor;
pub mod linearize;
pub mod membuf;
pub mod sched;
pub mod specs;

#[cfg(test)]
mod tests;

pub mod scenarios;

use bounce_atomics::cell::{Cell64, CellBool, CellModel, CellPtr, Ordering};
use std::cell::RefCell;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, Once};

pub use linearize::OpRecord;
pub use membuf::{LocId, Mutation, OpKind};
pub use sched::{ExecShared, SchedViolation};
pub use specs::{SpecOp, SpecRet, SpecState};

// ---------------------------------------------------------------------------
// Thread-local execution context

thread_local! {
    static CTX: RefCell<Option<(Arc<ExecShared>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (Arc<ExecShared>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("shadow cell used outside a schedcheck execution")
    })
}

struct CtxGuard;

impl CtxGuard {
    fn install(shared: Arc<ExecShared>, tid: usize) -> CtxGuard {
        CTX.with(|c| {
            let prev = c.borrow_mut().replace((shared, tid));
            assert!(prev.is_none(), "nested schedcheck executions on one thread");
        });
        CtxGuard
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.borrow_mut().take());
    }
}

// ---------------------------------------------------------------------------
// The Shadow cell substrate

/// The model checker's [`CellModel`]: structures instantiated with
/// `C = Shadow` run unchanged, but every atomic op becomes a
/// scheduling point resolved against the store-history memory model.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shadow;

impl CellModel for Shadow {
    type U64 = ShadowU64;
    type Bool = ShadowBool;
    type Ptr<T> = ShadowPtr<T>;

    fn spin_hint() {
        let (sh, tid) = ctx();
        sh.spin_hint_op(tid);
    }
}

/// Shadow 64-bit cell: an id into the execution's store histories.
pub struct ShadowU64 {
    loc: LocId,
}

impl fmt::Debug for ShadowU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShadowU64({})", self.loc)
    }
}

impl Cell64 for ShadowU64 {
    fn new(v: u64) -> Self {
        let (sh, tid) = ctx();
        ShadowU64 {
            loc: sh.create_loc(tid, v),
        }
    }
    fn load(&self, ord: Ordering) -> u64 {
        let (sh, tid) = ctx();
        sh.shadow_load(tid, self.loc, ord)
    }
    fn store(&self, v: u64, ord: Ordering) {
        let (sh, tid) = ctx();
        sh.shadow_store(tid, self.loc, v, ord)
    }
    fn swap(&self, v: u64, ord: Ordering) -> u64 {
        let (sh, tid) = ctx();
        sh.shadow_rmw(tid, self.loc, ord, "swap", |_| v)
    }
    fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        let (sh, tid) = ctx();
        sh.shadow_rmw(tid, self.loc, ord, "faa", |old| old.wrapping_add(v))
    }
    fn fetch_or(&self, v: u64, ord: Ordering) -> u64 {
        let (sh, tid) = ctx();
        sh.shadow_rmw(tid, self.loc, ord, "or", |old| old | v)
    }
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let (sh, tid) = ctx();
        sh.shadow_cas(tid, self.loc, current, new, success, failure)
    }
}

/// Shadow boolean cell (stored as 0/1 in a 64-bit history).
pub struct ShadowBool {
    loc: LocId,
}

impl fmt::Debug for ShadowBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShadowBool({})", self.loc)
    }
}

impl CellBool for ShadowBool {
    fn new(v: bool) -> Self {
        let (sh, tid) = ctx();
        ShadowBool {
            loc: sh.create_loc(tid, v as u64),
        }
    }
    fn load(&self, ord: Ordering) -> bool {
        let (sh, tid) = ctx();
        sh.shadow_load(tid, self.loc, ord) != 0
    }
    fn store(&self, v: bool, ord: Ordering) {
        let (sh, tid) = ctx();
        sh.shadow_store(tid, self.loc, v as u64, ord)
    }
}

/// Shadow pointer cell (addresses stored as 64-bit values; replayed
/// control flow never depends on the numeric address, only on
/// null-ness and equality of pointers the execution itself produced).
pub struct ShadowPtr<T> {
    loc: LocId,
    _marker: PhantomData<fn(*mut T) -> *mut T>,
}

impl<T> fmt::Debug for ShadowPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShadowPtr({})", self.loc)
    }
}

impl<T> CellPtr<T> for ShadowPtr<T> {
    fn new(p: *mut T) -> Self {
        let (sh, tid) = ctx();
        ShadowPtr {
            loc: sh.create_loc(tid, p as usize as u64),
            _marker: PhantomData,
        }
    }
    fn load(&self, ord: Ordering) -> *mut T {
        let (sh, tid) = ctx();
        sh.shadow_load(tid, self.loc, ord) as usize as *mut T
    }
    fn store(&self, p: *mut T, ord: Ordering) {
        let (sh, tid) = ctx();
        sh.shadow_store(tid, self.loc, p as usize as u64, ord)
    }
    fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
        let (sh, tid) = ctx();
        sh.shadow_rmw(tid, self.loc, ord, "swap", |_| p as usize as u64) as usize as *mut T
    }
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        let (sh, tid) = ctx();
        sh.shadow_cas(
            tid,
            self.loc,
            current as usize as u64,
            new as usize as u64,
            success,
            failure,
        )
        .map(|v| v as usize as *mut T)
        .map_err(|v| v as usize as *mut T)
    }
}

// SAFETY: shadow cells hold only a copyable location id; all state
// lives behind the execution's mutex.
unsafe impl Send for ShadowU64 {}
unsafe impl Sync for ShadowU64 {}
unsafe impl Send for ShadowBool {}
unsafe impl Sync for ShadowBool {}
unsafe impl<T> Send for ShadowPtr<T> {}
unsafe impl<T> Sync for ShadowPtr<T> {}

// ---------------------------------------------------------------------------
// Tracked (non-atomic) data and history recording

/// A plain, non-atomic location for scenario critical-section data.
/// Accesses are scheduling points checked for data races with
/// FastTrack-style vector clocks — this is how a broken lock shows up:
/// two critical sections overlap and their plain accesses race.
///
/// The underlying value is physically protected by the execution's
/// global mutex baton, so a *detected* race never becomes real UB.
pub struct TrackedCell<T> {
    loc: LocId,
    inner: UnsafeCell<T>,
}

// SAFETY: accesses are serialised by the execution's baton; the race
// detector reports (and aborts on) any logically-unsynchronised pair.
unsafe impl<T: Send> Send for TrackedCell<T> {}
unsafe impl<T: Send> Sync for TrackedCell<T> {}

impl<T: Copy> TrackedCell<T> {
    /// New tracked location holding `v`.
    pub fn new(v: T) -> Self {
        let (sh, tid) = ctx();
        TrackedCell {
            loc: sh.create_tracked(tid),
            inner: UnsafeCell::new(v),
        }
    }

    /// Race-checked read.
    pub fn get(&self) -> T {
        let (sh, tid) = ctx();
        sh.tracked_read(tid, self.loc);
        // SAFETY: the baton serialises all accesses physically.
        unsafe { *self.inner.get() }
    }

    /// Race-checked write.
    pub fn set(&self, v: T) {
        let (sh, tid) = ctx();
        sh.tracked_write(tid, self.loc);
        // SAFETY: as in `get`.
        unsafe { *self.inner.get() = v }
    }
}

/// Records abstract operations for the linearizability check. Worker
/// bodies wrap each structure operation:
/// `rec.op(SpecOp::Pop, || SpecRet::Opt(stack.pop().map(|(v, _)| v)))`.
pub struct Recorder {
    _priv: (),
}

impl Recorder {
    /// Run `f`, recording it as `op` with invoke/response marks taken
    /// around it. The marks carry the thread's vector clock — the
    /// happens-before interval the linearizability check orders by.
    pub fn op(&self, op: SpecOp, f: impl FnOnce() -> SpecRet) {
        let (sh, tid) = ctx();
        let (invoke, invoke_vc) = sh.op_mark(tid);
        let ret = f();
        let (response, response_vc) = sh.op_mark(tid);
        sh.push_record(OpRecord {
            tid,
            op,
            ret,
            invoke,
            response,
            invoke_vc,
            response_vc,
        });
    }
}

// ---------------------------------------------------------------------------
// Scenarios and the exploration driver

/// Post-join assertion on the final structure state.
pub type FinaleFn<S> = fn(&S) -> Result<(), String>;

/// A checkable scenario: a structure, 1–4 worker bodies, an optional
/// sequential spec for the recorded history, and an optional finale
/// assertion evaluated after all workers joined.
pub struct Scenario<S: Send + Sync> {
    /// Display name.
    pub name: &'static str,
    /// Builds the structure (runs on the controller, pre-spawn).
    pub setup: fn() -> S,
    /// Worker bodies; worker `i` runs as tid `i + 1`.
    pub workers: Vec<fn(&S, &Recorder)>,
    /// Initial spec state; `Some` enables the linearizability check.
    pub spec: Option<SpecState>,
    /// Post-join assertion on the final structure state.
    pub finale: Option<FinaleFn<S>>,
}

/// Exploration options.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Ordering-weakening mutation to apply, if any.
    pub mutation: Option<Mutation>,
    /// Hard cap on executions (guards against a search-space bug).
    pub max_execs: u64,
    /// Hard cap on steps per execution (guards against livelock the
    /// spin model failed to bound).
    pub max_steps: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            mutation: None,
            max_execs: 2_000_000,
            max_steps: 20_000,
        }
    }
}

/// The outcome of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scenario name.
    pub scenario: &'static str,
    /// Executions explored.
    pub executions: u64,
    /// Total events across all executions.
    pub events: u64,
    /// True if `max_execs` stopped the search before exhaustion —
    /// a capped run proves nothing and is treated as a failure.
    pub capped: bool,
    /// First violation found, if any.
    pub violation: Option<SchedViolation>,
    /// Mutation sites discovered (parallel-phase ops with a
    /// stronger-than-Relaxed source ordering).
    pub sites: Vec<(LocId, OpKind)>,
}

impl Report {
    /// A clean, exhaustive, violation-free result.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && !self.capped
    }
}

/// Serialises explorations: the wall-clock cost of an exploration
/// makes concurrent explorations (e.g. from parallel `cargo test`
/// threads) undesirable.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Once per process, chain a filter in front of the current panic hook
/// that suppresses panic output from worker threads (aborts and
/// injected-bug panics are expected and captured). Every other panic —
/// controller-side ones are checker bugs and must stay loud, and any
/// panic outside an exploration — reaches the previous hook.
fn install_panic_filter() {
    static FILTER: Once = Once::new();
    FILTER.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let in_worker = CTX.with(|c| matches!(*c.borrow(), Some((_, tid)) if tid != 0));
            if !in_worker || std::env::var_os("SCHEDCHECK_LOUD").is_some() {
                prev(info);
            }
        }));
    });
}

/// Exhaustively explore `scenario` and report.
///
/// Each worker body runs on one OS thread for the whole exploration,
/// and every execution sends each of them its job. Dropping the senders
/// when the search ends lets the workers return, and the scope joins
/// them.
pub fn explore<S: Send + Sync>(scenario: &Scenario<S>, opts: &ExploreOpts) -> Report {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_panic_filter();
    let mut report = Report {
        scenario: scenario.name,
        executions: 0,
        events: 0,
        capped: false,
        violation: None,
        sites: Vec::new(),
    };
    let mut path: Vec<dpor::Choice> = Vec::new();
    let mut sites = std::collections::BTreeSet::new();
    std::thread::scope(|scope| {
        let jobs: Vec<mpsc::Sender<Job<S>>> = scenario
            .workers
            .iter()
            .enumerate()
            .map(|(i, &body)| {
                let (tx, rx) = mpsc::channel();
                scope.spawn(move || run_worker(i + 1, body, rx));
                tx
            })
            .collect();
        loop {
            report.executions += 1;
            let out = run_once(scenario, opts, &jobs, std::mem::take(&mut path));
            path = out.path;
            report.events += out.events.len() as u64;
            sites.extend(out.sites);
            if let Some(v) = out.violation {
                report.violation = Some(v);
                break;
            }
            if report.executions >= opts.max_execs {
                report.capped = true;
                break;
            }
            if !dpor::advance(&mut path, &out.events) {
                break;
            }
        }
    });
    report.sites = sites.into_iter().collect();
    report
}

/// One execution's work for a worker thread.
struct Job<S> {
    shared: Arc<ExecShared>,
    s: Arc<S>,
}

/// A worker thread: run `body` as logical thread `tid` once per job,
/// until the controller drops the sender.
fn run_worker<S>(tid: usize, body: fn(&S, &Recorder), jobs: mpsc::Receiver<Job<S>>) {
    for Job { shared, s } in jobs {
        let ctx = CtxGuard::install(Arc::clone(&shared), tid);
        let rec = Recorder { _priv: () };
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&s, &rec)));
        let msg = match result {
            Ok(()) => None,
            Err(p) if p.is::<sched::AbortExec>() => None,
            Err(p) => Some(panic_message(&*p)),
        };
        // The controller unwraps and drops the structure once every
        // worker has finished, so release this clone first.
        drop(s);
        drop(ctx);
        shared.finish_worker(tid, msg);
    }
}

struct ExecOutcome {
    events: Vec<sched::Event>,
    violation: Option<SchedViolation>,
    path: Vec<dpor::Choice>,
    sites: Vec<(LocId, OpKind)>,
}

fn run_once<S: Send + Sync>(
    scenario: &Scenario<S>,
    opts: &ExploreOpts,
    jobs: &[mpsc::Sender<Job<S>>],
    path: Vec<dpor::Choice>,
) -> ExecOutcome {
    let nworkers = jobs.len();
    let shared = Arc::new(ExecShared::new(
        nworkers + 1,
        path,
        opts.mutation,
        opts.max_steps,
    ));
    let _ctx = CtxGuard::install(Arc::clone(&shared), 0);

    // Setup runs on the controller: deterministic, no choice points.
    let s = Arc::new((scenario.setup)());

    {
        let mut st = shared.lock();
        let base = st.clocks[0];
        for t in 1..=nworkers {
            st.clocks[t] = base;
            st.clocks[t].tick(t); // spawn edge: setup happens-before workers
            st.status[t] = sched::ThreadStatus::Runnable;
        }
        st.clocks[0].tick(0);
        st.phase = sched::Phase::Parallel;
    }

    for job in jobs {
        job.send(Job {
            shared: Arc::clone(&shared),
            s: Arc::clone(&s),
        })
        .expect("schedcheck worker thread exited before the exploration ended");
    }
    // Initial dispatch, then wait for the parallel phase to end.
    shared.pass_baton(&mut shared.lock(), 0);
    shared.wait_workers();

    // Post-parallel checks run on the controller.
    let no_violation = shared.lock().violation.is_none();
    if no_violation {
        if let Some(spec0) = &scenario.spec {
            let history = shared.lock().history.clone();
            if let Err(e) = linearize::check(&history, spec0.clone()) {
                let mut st = shared.lock();
                let mut desc = e;
                desc.push_str("\n  history:\n");
                desc.push_str(&linearize::render_history(&history).join("\n"));
                shared.set_violation(&mut st, "non-linearizable", desc);
            }
        }
    }
    let no_violation = shared.lock().violation.is_none();
    if no_violation {
        if let Some(finale) = scenario.finale {
            if let Err(e) = finale(&s) {
                let mut st = shared.lock();
                shared.set_violation(&mut st, "assertion", e);
            }
        }
    }

    // Drop the structure while the execution context is still live:
    // Drop impls perform (deterministic, controller-phase) shadow ops.
    // After a violation, workers aborted mid-protocol and the structure
    // is in an arbitrary intermediate state — its Drop may (rightly)
    // assert or walk half-built links, so leak it instead. One leak per
    // counterexample; the search stops at the first one.
    let Ok(s) = Arc::try_unwrap(s) else {
        panic!("schedcheck bug: a worker still holds the structure after finishing");
    };
    if shared.lock().violation.is_some() {
        std::mem::forget(s);
    } else {
        drop(s);
    }

    let mut st = shared.lock();
    ExecOutcome {
        events: std::mem::take(&mut st.events),
        violation: st.violation.clone(),
        path: std::mem::take(&mut st.path),
        sites: std::mem::take(&mut st.sites).into_iter().collect(),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Render a report for CLI output: one summary line, plus the full
/// counterexample trace when there is a violation.
pub fn render_report(r: &Report) -> String {
    let mut out = String::new();
    let status = if let Some(v) = &r.violation {
        format!("VIOLATION ({})", v.kind)
    } else if r.capped {
        "CAPPED (inconclusive)".to_string()
    } else {
        "ok".to_string()
    };
    out.push_str(&format!(
        "{:<16} {:>8} executions {:>9} events  {status}\n",
        r.scenario, r.executions, r.events
    ));
    if let Some(v) = &r.violation {
        out.push_str(&format!("  {}: {}\n", v.kind, v.desc));
        out.push_str("  counterexample interleaving:\n");
        for line in &v.trace {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}
