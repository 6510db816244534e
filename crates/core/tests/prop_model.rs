//! Property tests on the model: mixtures are distributions, predictions
//! respect the obvious monotonicities, the optimiser handles arbitrary
//! convex quadratics, and statistics utilities honour their bounds.

use bounce_atomics::Primitive;
use bounce_core::fairness::{predict_jain, ArbitrationKind};
use bounce_core::mixture::{domain_mixture, expected_transfer_cycles};
use bounce_core::stats;
use bounce_core::{BouncingModel, ModelParams, NelderMead, Predictor, Scenario};
use bounce_topo::{presets, Placement};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The domain mixture is a probability distribution for any n ≥ 2
    /// and any placement prefix.
    #[test]
    fn mixture_is_distribution(n in 2usize..72, packed in any::<bool>()) {
        let topo = presets::xeon_e5_2695_v4();
        let p = if packed { Placement::Packed } else { Placement::Scattered };
        let threads = p.assign(&topo, n);
        let mix = domain_mixture(&topo, &threads);
        let sum: f64 = mix.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(mix.iter().all(|&m| (0.0..=1.0).contains(&m)));
        prop_assert_eq!(mix[0], 0.0, "no self transfers");
    }

    /// E[t] is bounded by the min and max per-domain cost.
    #[test]
    fn expected_transfer_bounded(n in 2usize..72) {
        let topo = presets::xeon_e5_2695_v4();
        let params = ModelParams::e5_default();
        let threads = Placement::Packed.assign(&topo, n);
        let mix = domain_mixture(&topo, &threads);
        let costs = params.transfer.as_array();
        let e = expected_transfer_cycles(&mix, &costs);
        prop_assert!(e >= params.transfer.smt - 1e-9);
        prop_assert!(e <= params.transfer.cross + 1e-9);
    }

    /// HC latency grows with n; HC throughput never grows past the
    /// single-thread point and stays positive.
    #[test]
    fn hc_monotonicities(n in 2usize..71) {
        let topo = presets::xeon_e5_2695_v4();
        let model = BouncingModel::new(topo.clone(), ModelParams::e5_default());
        let order = Placement::Packed.full_order(&topo);
        let a = model.predict(&Scenario::high_contention(&order[..n], Primitive::Faa));
        let b = model.predict(&Scenario::high_contention(&order[..n + 1], Primitive::Faa));
        prop_assert!(b.latency_cycles > a.latency_cycles);
        prop_assert!(a.throughput_ops_per_sec > 0.0);
        let single = model.predict(&Scenario::high_contention(&order[..1], Primitive::Faa));
        prop_assert!(a.throughput_ops_per_sec <= single.throughput_ops_per_sec);
        // Energy per op increases with contention.
        prop_assert!(b.energy_per_op_nj > a.energy_per_op_nj);
    }

    /// LC throughput is exactly linear and latency constant in n.
    #[test]
    fn lc_linearity(n in 1usize..288, work in 0.0f64..1000.0) {
        let topo = presets::xeon_phi_7290();
        let model = BouncingModel::new(topo, ModelParams::knl_default());
        let one = model.predict(&Scenario::low_contention(1, Primitive::Cas, work));
        let many = model.predict(&Scenario::low_contention(n, Primitive::Cas, work));
        prop_assert!((many.throughput_ops_per_sec / one.throughput_ops_per_sec - n as f64).abs() < 1e-6);
        prop_assert_eq!(many.latency_cycles, one.latency_cycles);
    }

    /// The CAS-loop success rate is a probability, decreasing in window
    /// size.
    #[test]
    fn cas_loop_probability(n in 2usize..72, w1 in 0.0f64..200.0, extra in 1.0f64..500.0) {
        let topo = presets::xeon_e5_2695_v4();
        let model = BouncingModel::new(topo.clone(), ModelParams::e5_default());
        let order = Placement::Packed.full_order(&topo);
        let s1 = model.predict(&Scenario::cas_loop(&order[..n], w1)).success_rate().unwrap();
        let s2 = model.predict(&Scenario::cas_loop(&order[..n], w1 + extra)).success_rate().unwrap();
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!(s2 <= s1 + 1e-9, "wider window can't succeed more");
    }

    /// Nelder–Mead finds the minimum of arbitrary axis-aligned convex
    /// quadratics in 2-4 dimensions.
    #[test]
    fn nelder_mead_quadratics(
        center in proptest::collection::vec(-50.0f64..50.0, 2..5),
        scale in proptest::collection::vec(0.1f64..10.0, 2..5),
    ) {
        let dim = center.len().min(scale.len());
        let c = center[..dim].to_vec();
        let s = scale[..dim].to_vec();
        let nm = NelderMead { max_iters: 5000, ..NelderMead::default() };
        let f = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&c)
                .zip(&s)
                .map(|((xi, ci), si)| si * (xi - ci) * (xi - ci))
                .sum()
        };
        let (x, fx, _) = nm.minimize(f, &vec![0.0; dim], 1.0);
        prop_assert!(fx < 1e-4, "fx={fx}");
        for (xi, ci) in x.iter().zip(&c) {
            prop_assert!((xi - ci).abs() < 0.1, "x={x:?} c={c:?}");
        }
    }

    /// Jain predictions are valid fairness indices for any contender
    /// set.
    #[test]
    fn jain_prediction_bounds(n in 1usize..72, scattered in any::<bool>()) {
        let topo = presets::xeon_e5_2695_v4();
        let p = if scattered { Placement::Scattered } else { Placement::Packed };
        let threads = p.assign(&topo, n);
        for kind in [ArbitrationKind::Fifo, ArbitrationKind::Random, ArbitrationKind::NearestFirst] {
            let j = predict_jain(&topo, &threads, kind);
            prop_assert!(j > 0.0 && j <= 1.0 + 1e-9, "{j}");
        }
    }

    /// Percentiles lie within [min, max] and are monotone in p.
    #[test]
    fn percentile_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let lo = p1.min(p2);
        let hi = p1.max(p2);
        let a = stats::percentile(&xs, lo);
        let b = stats::percentile(&xs, hi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
        prop_assert!(a <= b + 1e-9);
    }

    /// Jain's index of any non-negative sample is in (0, 1] and equals
    /// 1 for constant samples.
    #[test]
    fn jain_index_bounds(xs in proptest::collection::vec(0.0f64..1e6, 1..50), c in 0.1f64..1e6) {
        let j = stats::jain(&xs);
        prop_assert!(j > 0.0 && j <= 1.0 + 1e-9);
        let constant = vec![c; xs.len()];
        prop_assert!((stats::jain(&constant) - 1.0).abs() < 1e-9);
    }
}
