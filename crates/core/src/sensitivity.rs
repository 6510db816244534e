//! Sensitivity analysis of the model: how much does each parameter of Θ
//! move each prediction?
//!
//! A model that is "simple to be used in practice" should also be
//! *robust in practice*: a ±20% error in a fitted transfer cost should
//! not swing the prediction wildly. This module quantifies that with
//! normalised elasticities
//!
//! ```text
//! S(θ) = (∂X/X) / (∂θ/θ)  ≈  [X(θ·(1+h)) − X(θ·(1−h))] / (2h·X(θ))
//! ```
//!
//! — `S = −1` means "throughput is inversely proportional to this
//! parameter" (what one expects of the dominant transfer cost), `S ≈ 0`
//! means the parameter barely matters for this configuration.

use crate::params::ModelParams;
use crate::predict::BouncingModel;
use crate::scenario::{Predictor, Scenario};
use bounce_atomics::Primitive;
use bounce_topo::HwThreadId;

/// The tunable parameters sensitivity sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// Issue cost of the probed primitive.
    Issue,
    /// SMT-sibling transfer cost.
    TSmt,
    /// Same-tile transfer cost.
    TTile,
    /// Same-socket transfer cost.
    TSocket,
    /// Cross-socket transfer cost.
    TCross,
}

impl Param {
    /// All parameters.
    pub const ALL: [Param; 5] = [
        Param::Issue,
        Param::TSmt,
        Param::TTile,
        Param::TSocket,
        Param::TCross,
    ];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Param::Issue => "c_p",
            Param::TSmt => "t_smt",
            Param::TTile => "t_tile",
            Param::TSocket => "t_socket",
            Param::TCross => "t_cross",
        }
    }

    fn scaled(&self, base: &ModelParams, prim: Primitive, factor: f64) -> ModelParams {
        let mut p = base.clone();
        match self {
            Param::Issue => {
                let idx = Primitive::ALL.iter().position(|x| *x == prim).unwrap();
                p.issue_cycles[idx] *= factor;
            }
            Param::TSmt => p.transfer.smt *= factor,
            Param::TTile => p.transfer.tile *= factor,
            Param::TSocket => p.transfer.socket *= factor,
            Param::TCross => p.transfer.cross *= factor,
        }
        // Perturbation may dent the monotone ladder; repair minimally so
        // the perturbed model still validates (the repair itself damps
        // sensitivity at ladder boundaries, which is the true behaviour:
        // the ladder *is* a constraint of the model).
        let t = &mut p.transfer;
        t.tile = t.tile.max(t.smt);
        t.socket = t.socket.max(t.tile);
        t.cross = t.cross.max(t.socket);
        p
    }
}

/// One sensitivity row: parameter and its elasticity for each output.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Perturbed parameter.
    pub param: Param,
    /// Elasticity of HC throughput.
    pub throughput: f64,
    /// Elasticity of HC latency.
    pub latency: f64,
    /// Elasticity of HC energy/op.
    pub energy: f64,
}

/// Central-difference elasticities of the HC predictions at a given
/// configuration, using relative step `h` (e.g. 0.05).
pub fn hc_sensitivities(
    model: &BouncingModel,
    threads: &[HwThreadId],
    prim: Primitive,
    h: f64,
) -> Vec<Sensitivity> {
    assert!(h > 0.0 && h < 0.5, "relative step h out of (0, 0.5)");
    let scenario = Scenario::high_contention(threads, prim);
    let base = model.predict(&scenario);
    Param::ALL
        .iter()
        .map(|&param| {
            let up = BouncingModel::new(
                model.topo().clone(),
                param.scaled(model.params(), prim, 1.0 + h),
            )
            .predict(&scenario);
            let down = BouncingModel::new(
                model.topo().clone(),
                param.scaled(model.params(), prim, 1.0 - h),
            )
            .predict(&scenario);
            let elast = |hi: f64, lo: f64, b: f64| {
                if b == 0.0 {
                    0.0
                } else {
                    (hi - lo) / (2.0 * h * b)
                }
            };
            Sensitivity {
                param,
                throughput: elast(
                    up.throughput_ops_per_sec,
                    down.throughput_ops_per_sec,
                    base.throughput_ops_per_sec,
                ),
                latency: elast(up.latency_cycles, down.latency_cycles, base.latency_cycles),
                energy: elast(
                    up.energy_per_op_nj,
                    down.energy_per_op_nj,
                    base.energy_per_op_nj,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounce_topo::{presets, Placement};

    fn model() -> BouncingModel {
        BouncingModel::new(presets::xeon_e5_2695_v4(), ModelParams::e5_default())
    }

    fn sens_of(rows: &[Sensitivity], p: Param) -> &Sensitivity {
        rows.iter().find(|s| s.param == p).unwrap()
    }

    #[test]
    fn within_socket_throughput_driven_by_t_socket() {
        let m = model();
        let threads = Placement::Packed.assign(m.topo(), 16); // socket 0 only
        let rows = hc_sensitivities(&m, &threads, Primitive::Faa, 0.05);
        let s_sock = sens_of(&rows, Param::TSocket);
        // Dominant mixture component: elasticity near −1.
        assert!(
            s_sock.throughput < -0.8,
            "t_socket elasticity {:.2}",
            s_sock.throughput
        );
        // Cross-socket cost is irrelevant within one socket.
        let s_cross = sens_of(&rows, Param::TCross);
        assert!(
            s_cross.throughput.abs() < 0.05,
            "t_cross elasticity {:.2}",
            s_cross.throughput
        );
        // Issue cost doesn't move saturated HC throughput.
        let s_issue = sens_of(&rows, Param::Issue);
        assert!(s_issue.throughput.abs() < 0.05);
    }

    #[test]
    fn cross_socket_config_shifts_sensitivity() {
        let m = model();
        let threads = Placement::Packed.assign(m.topo(), 36); // both sockets
        let rows = hc_sensitivities(&m, &threads, Primitive::Faa, 0.05);
        let s_cross = sens_of(&rows, Param::TCross).throughput;
        let s_sock = sens_of(&rows, Param::TSocket).throughput;
        assert!(
            s_cross < s_sock,
            "cross dominates once both sockets contend: {s_cross:.2} vs {s_sock:.2}"
        );
    }

    #[test]
    fn latency_and_throughput_elasticities_mirror() {
        // L = N·E[t] + c_p and X = 1/E[t]: a transfer cost's latency
        // elasticity is ≈ −(its throughput elasticity), up to the c_p
        // additive term.
        let m = model();
        let threads = Placement::Packed.assign(m.topo(), 16);
        let rows = hc_sensitivities(&m, &threads, Primitive::Faa, 0.05);
        let s = sens_of(&rows, Param::TSocket);
        assert!(
            (s.latency + s.throughput).abs() < 0.1,
            "mirrored elasticities: L {:.2}, X {:.2}",
            s.latency,
            s.throughput
        );
    }

    #[test]
    fn energy_tracks_latency_direction() {
        let m = model();
        let threads = Placement::Packed.assign(m.topo(), 16);
        let rows = hc_sensitivities(&m, &threads, Primitive::Faa, 0.05);
        let s = sens_of(&rows, Param::TSocket);
        assert!(
            s.energy > 0.0,
            "dearer transfers cost energy: {:.2}",
            s.energy
        );
    }

    #[test]
    #[should_panic]
    fn rejects_bad_step() {
        let m = model();
        let threads = Placement::Packed.assign(m.topo(), 4);
        let _ = hc_sensitivities(&m, &threads, Primitive::Faa, 0.9);
    }
}
