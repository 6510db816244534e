//! In-memory span recorder: the benchmark's own tracing.
//!
//! Spans are recorded around calls into the program's public API, never
//! inside it. A span has a name, a start, an end, the span that caused
//! it and the host thread it ran on. The recorder keeps every span in
//! memory and writes them out once, when the benchmark ends; the
//! per-layer numbers and self times are derived from them afterwards.
//!
//! Span names are `<layer>` or `<layer>:<detail>` (for example
//! `harness.experiments:fig1-knl`); the layer is the part before `:`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` is "no span" (the root, or any
/// span taken while tracing is off).
pub type SpanId = u64;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique, nonzero.
    pub id: SpanId,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// `<layer>` or `<layer>:<detail>`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Small per-process host-thread number.
    pub thread: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer: the name up to the first `:`.
    pub fn layer(&self) -> &str {
        self.name.split(':').next().unwrap_or(&self.name)
    }
}

/// Times calls and, when enabled, records each as a [`Span`].
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    next_id: AtomicU64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NO: Cell<u64> = const { Cell::new(0) };
}

fn thread_no() -> u64 {
    THREAD_NO.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records spans only if `enabled`; it always times.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
            next_id: AtomicU64::new(1),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Run `f` and return its result with the elapsed host seconds. When
    /// tracing, record it as a span named `name` under `parent`; `f`
    /// receives the new span's id to parent its own nested spans.
    pub fn time<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> (R, f64) {
        let Some(spans) = &self.spans else {
            let t0 = Instant::now();
            let r = f(0);
            return (r, t0.elapsed().as_secs_f64());
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let r = f(id);
        let end = self.epoch.elapsed();
        spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            thread: thread_no(),
        });
        (r, (end - start).as_secs_f64())
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = match &self.spans {
            Some(s) => s.lock().expect("span buffer poisoned").clone(),
            None => Vec::new(),
        };
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, seconds: its duration minus the part of its
/// interval that its child spans cover (children running in parallel
/// count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e9)
        })
        .collect()
}

/// Self time summed per layer, seconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer().to_string()).or_default() += selfs[&s.id];
    }
    out
}

/// Share of a pool's capacity that its tasks kept busy:
/// Σ task seconds / (jobs × pool wall seconds).
pub fn pool_busy_frac(task_secs: &[f64], jobs: usize, wall_secs: f64) -> f64 {
    task_secs.iter().sum::<f64>() / (jobs as f64 * wall_secs)
}

/// Render spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"thread\": {}}}{}\n",
            sp.id,
            sp.parent,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.thread,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    s.push_str("]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 ns; two workers: 10..60 and 40..90 overlap, so
        // together they cover 10..90 = 80 ns. A grandchild 20..30 sits
        // under the first child only.
        let spans = vec![
            span(1, 0, "harness.parallel", 0, 100),
            span(2, 1, "harness.experiments:a", 10, 60),
            span(3, 1, "harness.experiments:b", 40, 90),
            span(4, 2, "sim.engine:x", 20, 30),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 20e-9).abs() < 1e-15);
        assert!((st[&2] - 40e-9).abs() < 1e-15);
        assert!((st[&3] - 50e-9).abs() < 1e-15);
        assert!((st[&4] - 10e-9).abs() < 1e-15);
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["harness.experiments"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn serial_self_times_partition_the_root() {
        let spans = vec![
            span(1, 0, "bench.rep", 0, 100),
            span(2, 1, "verify.model:mesi", 5, 30),
            span(3, 1, "verify.schedcheck:tas_2", 30, 95),
        ];
        let total: f64 = self_times(&spans).values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, 0, "a", 50, 100), span(2, 1, "b", 0, 75)];
        assert!((self_times(&spans)[&1] - 25e-9).abs() < 1e-15);
    }

    #[test]
    fn pool_busy_frac_is_task_time_over_capacity() {
        // Two jobs, 10 s of wall: 15 s of task time fills 75% of the
        // 20 s of capacity.
        assert!((pool_busy_frac(&[4.0, 6.0, 5.0], 2, 10.0) - 0.75).abs() < 1e-12);
        assert!((pool_busy_frac(&[10.0], 1, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nested_spans_only_when_enabled() {
        let t = Tracer::new(true);
        let (v, secs) = t.time("outer", 0, |id| t.time("inner:x", id, |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner:x").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.layer(), "inner");
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        let (v, _) = off.time("outer", 0, |id| {
            assert_eq!(id, 0);
            3
        });
        assert_eq!(v, 3);
        assert!(off.spans().is_empty());
    }
}
