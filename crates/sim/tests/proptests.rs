//! Property-based tests on the simulator's core invariants.

use proptest::prelude::*;
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use rankmap_sim::{
    AnalyticalEngine, CompiledWorkload, ContentionParams, EventEngine, Mapping, Workload,
};

fn small_pool() -> Vec<ModelId> {
    vec![
        ModelId::AlexNet,
        ModelId::SqueezeNetV2,
        ModelId::MobileNet,
        ModelId::ResNet12,
        ModelId::GoogleNet,
    ]
}

prop_compose! {
    /// A workload of 1..=3 models from the small pool plus a random
    /// assignment vector for it.
    fn workload_and_mapping()(
        picks in prop::collection::vec(0usize..5, 1..=3),
        assign_seed in any::<u64>(),
    ) -> (Workload, Mapping) {
        let pool = small_pool();
        let ids: Vec<ModelId> = picks.iter().map(|&i| pool[i]).collect();
        let w = Workload::from_ids(ids);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(assign_seed);
        let m = Mapping::random(&w, 3, &mut rng);
        (w, m)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random mapping fuses into stages that exactly cover the units
    /// in order, with no empty stage.
    #[test]
    fn stages_partition_units((w, m) in workload_and_mapping()) {
        for d in 0..w.len() {
            let stages = m.stages(d);
            prop_assert!(!stages.is_empty());
            prop_assert_eq!(stages[0].unit_range.start, 0);
            prop_assert_eq!(
                stages.last().unwrap().unit_range.end,
                w.models()[d].unit_count()
            );
            for pair in stages.windows(2) {
                prop_assert_eq!(pair[0].unit_range.end, pair[1].unit_range.start);
                prop_assert!(!pair[0].unit_range.is_empty());
                // Adjacent stages sit on different components, otherwise
                // they would have fused.
                prop_assert_ne!(pair[0].component, pair[1].component);
            }
        }
    }

    /// The analytical engine produces finite, non-negative rates and never
    /// over-commits a component.
    #[test]
    fn analytical_rates_feasible((w, m) in workload_and_mapping()) {
        let platform = Platform::orange_pi_5();
        let engine = AnalyticalEngine::new(&platform);
        let compiled =
            CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        let r = engine.evaluate(&w, &m);
        for &x in &r.per_dnn {
            prop_assert!(x.is_finite() && x >= 0.0);
        }
        for stages in compiled.stages_by_component() {
            let util: f64 = stages
                .iter()
                .map(|&(d, k)| r.per_dnn[d] * compiled.stages[d][k].inflated_seconds)
                .sum();
            prop_assert!(util <= 1.06, "component over-committed: {}", util);
        }
    }

    /// Inflation never makes a stage faster than its isolated cost.
    #[test]
    fn inflation_is_at_least_one((w, m) in workload_and_mapping()) {
        let platform = Platform::orange_pi_5();
        let compiled =
            CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        for dnn in &compiled.stages {
            for s in dnn {
                prop_assert!(s.inflated_seconds >= s.base_seconds * 0.999);
            }
        }
    }

    /// The event engine is deterministic and bounded by (a small multiple
    /// of) the analytical estimate.
    #[test]
    fn event_engine_sane((w, m) in workload_and_mapping()) {
        let platform = Platform::orange_pi_5();
        let engine = EventEngine::quick(&platform);
        let a = engine.evaluate(&w, &m);
        let b = engine.evaluate(&w, &m);
        prop_assert_eq!(&a, &b);
        for &x in &a.per_dnn {
            prop_assert!(x.is_finite() && (0.0..500.0).contains(&x));
        }
    }

    /// Flat encoding round-trips.
    #[test]
    fn flat_roundtrip((w, m) in workload_and_mapping()) {
        let flat = m.to_flat();
        prop_assert_eq!(Mapping::from_flat(&w, &flat), m);
    }
}

#[test]
fn uniform_gpu_is_single_stage_always() {
    let pool = small_pool();
    for &id in &pool {
        let w = Workload::from_ids([id]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        assert_eq!(m.stages(0).len(), 1);
    }
}
