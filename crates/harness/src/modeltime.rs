//! Model-evaluation accounting: every analytic prediction in the
//! harness goes through [`predict_timed`], which charges its wall-clock
//! cost to a process-wide counter. `repro --timings` reads the
//! [`snapshot`] to report model-evaluation time separately from
//! simulation time — the model is supposed to be ~free next to the
//! simulator, and this is the number that proves it.

use bounce_core::{Prediction, Predictor, Scenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NANOS: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Evaluate `model` on `scenario`, charging the elapsed wall-clock time
/// to the process-wide model-time counter.
///
/// This is the single prediction entry point for the experiment
/// registry and the validation campaign: routing every call through it
/// keeps the `--timings` split honest.
pub fn predict_timed(model: &impl Predictor, scenario: &Scenario) -> Prediction {
    let t0 = Instant::now();
    let p = model.predict(scenario);
    NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    p
}

/// Accumulated model-evaluation cost since process start (or the last
/// [`reset`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelTime {
    /// Number of predictions evaluated.
    pub calls: u64,
    /// Total wall-clock seconds spent inside `Predictor::predict`.
    pub seconds: f64,
}

/// Read the counters without disturbing them.
pub fn snapshot() -> ModelTime {
    ModelTime {
        calls: CALLS.load(Ordering::Relaxed),
        seconds: NANOS.load(Ordering::Relaxed) as f64 / 1e9,
    }
}

/// Zero the counters (tests and per-phase accounting).
pub fn reset() {
    NANOS.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_atomics::Primitive;
    use bounce_core::{BouncingModel, ModelParams, Scenario};
    use bounce_topo::{presets, Placement};

    #[test]
    fn timed_prediction_matches_untimed_and_counts() {
        let topo = presets::tiny_test_machine();
        let model = BouncingModel::new(topo.clone(), ModelParams::tiny_default());
        let threads = Placement::Packed.assign(&topo, 4);
        let s = Scenario::high_contention(&threads, Primitive::Faa);
        let before = snapshot();
        let timed = predict_timed(&model, &s);
        let after = snapshot();
        assert_eq!(timed, model.predict(&s), "timing must not perturb values");
        assert_eq!(after.calls, before.calls + 1);
        assert!(after.seconds >= before.seconds);
    }
}
