//! Cross-crate integration tests: the paper's headline properties checked
//! end to end on the simulated board.

use rankmap::baselines::{BaselineGpu, Mosaic, Odmdef, OmniBoost};
use rankmap::core::manager::{ManagerConfig, RankMapManager};
use rankmap::core::metrics;
use rankmap::core::runtime::WorkloadMapper;
use rankmap::prelude::*;

fn quick_manager_cfg() -> ManagerConfig {
    ManagerConfig { mcts_iterations: 600, ..Default::default() }
}

#[test]
fn rankmap_beats_baseline_on_average_throughput() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let manager = RankMapManager::new(&platform, &oracle, quick_manager_cfg());
    let board = EventEngine::quick(&platform);
    let workload = Workload::from_ids([
        ModelId::SqueezeNetV2,
        ModelId::ResNet50,
        ModelId::MobileNet,
        ModelId::AlexNet,
    ]);
    let plan = manager.map(&workload, &PriorityMode::Dynamic);
    let ours = board.evaluate(&workload, &plan.mapping).average();
    let base = board
        .evaluate(&workload, &Mapping::uniform(&workload, ComponentId::new(0)))
        .average();
    assert!(ours > base * 1.5, "RankMapD should clearly beat all-GPU: {ours} vs {base}");
}

#[test]
fn rankmap_never_starves_what_it_qualifies() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let manager = RankMapManager::new(&platform, &oracle, quick_manager_cfg());
    let board = EventEngine::quick(&platform);
    let workload = Workload::from_ids([
        ModelId::GoogleNet,
        ModelId::MobileNetV2,
        ModelId::SqueezeNet,
    ]);
    let plan = manager.map(&workload, &PriorityMode::Dynamic);
    assert!(plan.qualified(), "a 3-DNN mix must have qualifying mappings");
    let ideals: Vec<f64> = workload
        .models()
        .iter()
        .map(|m| board.ideal_rate(m.id(), ComponentId::new(0)))
        .collect();
    let pots = board.evaluate(&workload, &plan.mapping).potentials(&ideals);
    assert_eq!(
        metrics::starved_count(&pots),
        0,
        "RankMap must not starve any DNN: {pots:?}"
    );
}

#[test]
fn priority_shifts_move_potential() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let manager = RankMapManager::new(&platform, &oracle, quick_manager_cfg());
    let board = EventEngine::quick(&platform);
    let workload = Workload::from_ids([ModelId::InceptionV3, ModelId::ResNet50, ModelId::Vgg16]);
    let ideals: Vec<f64> = workload
        .models()
        .iter()
        .map(|m| board.ideal_rate(m.id(), ComponentId::new(0)))
        .collect();
    // pots[c][d]: DNN d's potential when DNN c is critical.
    let pots: Vec<Vec<f64>> = (0..3)
        .map(|critical| {
            let plan = manager.map(&workload, &PriorityMode::critical(3, critical));
            board.evaluate(&workload, &plan.mapping).potentials(&ideals)
        })
        .collect();
    // Making a DNN critical must move potential toward it: its potential
    // when it is critical is at least the mean of its potential when
    // another DNN is critical.
    for d in 0..3 {
        let own = pots[d][d];
        let others = (0..3).filter(|&c| c != d).map(|c| pots[c][d]).sum::<f64>() / 2.0;
        assert!(own > STARVATION_POTENTIAL, "critical DNN {d} must not starve: {pots:?}");
        assert!(
            own >= others,
            "DNN {d}: potential {own} when critical, mean {others} when another DNN is: {pots:?}"
        );
    }
}

#[test]
fn all_managers_produce_valid_mappings() {
    let platform = Platform::orange_pi_5();
    let pool = vec![
        ModelId::AlexNet,
        ModelId::MobileNet,
        ModelId::ResNet50,
        ModelId::SqueezeNetV2,
    ];
    let workload = Workload::from_ids(pool.iter().copied());
    let oracle = AnalyticalOracle::new(&platform);
    let mut mappers: Vec<Box<dyn WorkloadMapper>> = vec![
        Box::new(BaselineGpu::new(&platform)),
        Box::new(Mosaic::new(&platform, &pool)),
        Box::new(Odmdef::new(&platform, &pool, 40, 3)),
        Box::new(OmniBoost::new(&platform, &oracle, 200, 0)),
    ];
    for mapper in &mut mappers {
        let m = mapper.remap(&workload);
        assert!(
            m.validate(&workload, platform.component_count()).is_ok(),
            "{} produced an invalid mapping",
            mapper.name()
        );
    }
}

#[test]
fn learned_pipeline_end_to_end_smoke() {
    // A miniature version of the full learned path: tiny dataset, tiny
    // training, then a search with the learned oracle.
    use rankmap::core::dataset::{self, DatasetConfig};
    use rankmap::core::oracle::LearnedOracle;
    use rankmap::estimator::{
        EmbeddingTable, Estimator, EstimatorConfig, QTensorSpec, Trainer, TrainerConfig, VqVae,
        VqVaeConfig,
    };

    let platform = Platform::orange_pi_5();
    let pool = vec![ModelId::AlexNet, ModelId::SqueezeNetV2, ModelId::MobileNet];
    let labelled = dataset::generate(
        &platform,
        &DatasetConfig { samples: 24, max_dnns: 3, pool: pool.clone(), seed: 5 },
    );
    let mut vqvae = VqVae::new(VqVaeConfig::default(), 5);
    let built: Vec<_> = pool.iter().map(|id| id.build()).collect();
    rankmap::estimator::vqvae::train_on_pool(&mut vqvae, &built, 4);
    let spec = QTensorSpec::default();
    let mut table = EmbeddingTable::build(&mut vqvae, &built);
    let samples = dataset::to_samples(&labelled, &mut vqvae, &mut table, &spec);
    let mut est = Estimator::new(EstimatorConfig::quick(), 5);
    Trainer::new(TrainerConfig { epochs: 2, ..Default::default() })
        .train(&mut est, &samples, &[]);
    let ideals = dataset::ideal_rates(&platform, &pool);
    let oracle = LearnedOracle::new(
        vqvae,
        table,
        est,
        Box::new(move |id| ideals.get(&id).copied().unwrap_or(1.0)),
    );
    let manager = RankMapManager::new(
        &platform,
        &oracle,
        ManagerConfig { mcts_iterations: 150, ..Default::default() },
    );
    let workload = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
    let plan = manager.map(&workload, &PriorityMode::Dynamic);
    assert!(plan.mapping.validate(&workload, 3).is_ok());
}

#[test]
fn analytical_and_event_agree_on_baseline_collapse() {
    let platform = Platform::orange_pi_5();
    let workload = Workload::from_ids([
        ModelId::SqueezeNetV2,
        ModelId::InceptionV4,
        ModelId::ResNet50,
        ModelId::Vgg16,
    ]);
    let uniform = Mapping::uniform(&workload, ComponentId::new(0));
    let a = AnalyticalEngine::new(&platform).evaluate(&workload, &uniform).average();
    let e = EventEngine::quick(&platform).evaluate(&workload, &uniform).average();
    // Both engines agree the GPU pileup is bad (≤ a few inf/s on average).
    assert!(a < 3.0, "analytical baseline too optimistic: {a}");
    assert!(e < 3.0, "event baseline too optimistic: {e}");
}
