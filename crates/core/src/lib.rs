//! The paper's primary contribution: a simple analytic model of atomic
//! primitive performance "centered around the bouncing of cache lines
//! between threads that execute atomic primitives on these shared cache
//! lines" (Hoseini, Atalar, Tsigas — ICPP 2019).
//!
//! # The model in one paragraph
//!
//! Under **high contention** (every thread applies an atomic to the same
//! line) operations serialise on exclusive-ownership transfers of that
//! line. One completed operation costs one transfer, whose latency
//! depends only on *where* the previous and next owner sit — the same
//! core (SMT), the same tile, the same socket, or across sockets. With
//! `E[t]` the placement-weighted mean transfer cost:
//!
//! * throughput `X(N) ≈ 1 / E[t]`  (flat in N — adding threads does not
//!   add throughput, it only changes the transfer mixture),
//! * per-op latency `L(N) ≈ N · E[t]`  (a requester waits behind the
//!   other N−1 requesters),
//! * energy/op `≈ N · P_static / X + e_dyn`  (waiting cores burn power —
//!   linear in N),
//! * a CAS retry loop additionally fails whenever another thread's
//!   success lands inside its read-to-CAS window, wasting transfers.
//!
//! Under **low contention** (each thread owns its own line) every op is
//! a cache hit costing the primitive's uncontended latency `c_p`, so
//! throughput is `N / c_p` — embarrassingly linear.
//!
//! # Crate layout
//!
//! * [`params`] — the model's parameter set Θ (per-primitive issue costs
//!   + four transfer costs) with defaults for the two paper machines;
//! * [`mixture`] — the placement → transfer-domain mixture computation;
//! * [`scenario`] — the scenario IR ([`Scenario`]), the unified
//!   [`Prediction`] and the [`Predictor`] trait — the one entry point
//!   everything downstream routes predictions through;
//! * [`predict`] — the closed-form predictions
//!   ([`BouncingModel`], the canonical `Predictor`);
//! * [`fairness`] — the arbitration abstraction predicting Jain's index;
//! * [`fit`] — parameter fitting (Nelder–Mead simplex) from measured
//!   sweeps;
//! * [`validate`] — prediction-vs-measurement error metrics (MAPE);
//! * [`sensitivity`] — parameter elasticities (how robust the
//!   predictions are to errors in Θ);
//! * [`stats`] — the small statistics toolbox used throughout;
//! * [`converge`] — batch-means convergence detection (MSER warmup
//!   truncation + CI half-width), driving the simulator's adaptive
//!   run-length control.

#![warn(missing_docs)]

pub mod converge;
pub mod fairness;
pub mod fit;
pub mod mixture;
pub mod params;
pub mod predict;
pub mod scenario;
pub mod sensitivity;
pub mod stats;
pub mod validate;

pub use fit::{fit_transfer_costs, FitReport, NelderMead, ScenarioObservation};
pub use mixture::domain_mixture;
pub use params::{ModelParams, TransferCosts};
pub use predict::{BouncingModel, Regime};
pub use scenario::{LockHandoffs, Prediction, PredictionDetail, Predictor, Scenario};
pub use validate::{mape, max_ape, validated_rows, ValidationMetric, ValidationRow};
