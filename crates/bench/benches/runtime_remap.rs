//! Runtime remap benchmark: the event→remap path of the serving runtime.
//!
//! Three latency arms land in `BENCH_runtime.json` at the workspace root:
//!
//! * `cold_map_4dnn` — a from-scratch `RankMapManager::map` of the 4-DNN
//!   post-arrival workload at the full search budget (what the seed's
//!   `DynamicRuntime` paid at *every* event).
//! * `warm_remap_arrival` — `remap_from` the 3-DNN incumbent plan when
//!   the fourth DNN arrives: warm-started search at the warm budget. The
//!   acceptance bar is ≥ 3× faster than the cold map.
//! * `plan_cache_hit_4dnn` — `map_cached` on a workload set the manager
//!   has seen before: no search at all.
//!
//! After the latency arms, the run replays a generated churny scenario
//! through the incremental migration-aware runtime and through the
//! migration-oblivious cold baseline, and prints both timeline-average
//! potentials — the incremental path must not lose quality.
//!
//! `RANKMAP_BENCH_SMOKE=1` shrinks sample counts and the scenario so CI
//! can keep this bench compiling *and running* without paying full
//! measurement time, and writes no `BENCH_runtime.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use rankmap_core::manager::{ManagerConfig, RankMapManager};
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_core::priority::PriorityMode;
use rankmap_core::runtime::{
    timeline_average_potential, DynamicRuntime, RankMapMapper, WorkloadMapper,
};
use rankmap_core::scenario::{generate, MixProfile, ScenarioConfig};
use rankmap_models::ModelId;
use rankmap_platform::Platform;
use rankmap_sim::{Mapping, Workload};

const COLD_BUDGET: usize = 1_500;
const WARM_BUDGET: usize = 300;

fn smoke() -> bool {
    std::env::var_os("RANKMAP_BENCH_SMOKE").is_some()
}

fn incumbent_mix() -> Workload {
    Workload::from_ids([ModelId::AlexNet, ModelId::MobileNetV2, ModelId::SqueezeNetV2])
}

fn arrival_mix() -> Workload {
    Workload::from_ids([
        ModelId::AlexNet,
        ModelId::MobileNetV2,
        ModelId::SqueezeNetV2,
        ModelId::ResNet50,
    ])
}

/// RankMap re-mapping from scratch at every event — the seed's behaviour,
/// used as the quality baseline for the scenario comparison.
struct ColdRankMap<'p> {
    manager: RankMapManager<'p, AnalyticalOracle<'p>>,
}

impl WorkloadMapper for ColdRankMap<'_> {
    fn name(&self) -> String {
        "RankMapD-cold".into()
    }
    fn remap(&mut self, workload: &Workload) -> Mapping {
        self.manager.map(workload, &PriorityMode::Dynamic).mapping
    }
}

fn bench_runtime_remap(c: &mut Criterion) {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let config = ManagerConfig {
        mcts_iterations: COLD_BUDGET,
        warm_iterations: WARM_BUDGET,
        ..Default::default()
    };
    let mgr = RankMapManager::new(&platform, &oracle, config);
    let w3 = incumbent_mix();
    let w4 = arrival_mix();
    // Warm the measured ideal-rate cache so every arm pays search only.
    let plan3 = mgr.map(&w3, &PriorityMode::Dynamic);
    let _ = mgr.map_cached(&w4, &PriorityMode::Dynamic);

    let mut group = c.benchmark_group("runtime_remap");
    if smoke() {
        group.sample_size(3);
        group.measurement_time(std::time::Duration::from_millis(500));
    } else {
        group.sample_size(10);
    }
    group.bench_function("cold_map_4dnn", |b| {
        b.iter(|| mgr.map(&w4, &PriorityMode::Dynamic))
    });
    group.bench_function("warm_remap_arrival", |b| {
        b.iter(|| mgr.remap_from(&plan3, &w3, &w4, &PriorityMode::Dynamic))
    });
    group.bench_function("plan_cache_hit_4dnn", |b| {
        b.iter(|| mgr.map_cached(&w4, &PriorityMode::Dynamic))
    });
    group.finish();

    let results = c.results();
    let median = |needle: &str| {
        results
            .iter()
            .find(|r| r.id.ends_with(needle))
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };
    let cold = median("cold_map_4dnn");
    let warm = median("warm_remap_arrival");
    let hit = median("plan_cache_hit_4dnn");
    println!(
        "remap latency: cold {:.2} ms, warm {:.2} ms ({:.1}x), cache hit {:.3} ms ({:.0}x)",
        cold / 1e6,
        warm / 1e6,
        cold / warm,
        hit / 1e6,
        cold / hit.max(1.0)
    );

    // Quality check: the incremental migration-aware runtime against the
    // cold migration-oblivious baseline on one churny scenario.
    let cfg = ScenarioConfig {
        horizon: 900.0,
        arrival_rate: 1.0 / 45.0,
        mean_lifetime: 240.0,
        max_concurrent: 4,
        pool: vec![
            ModelId::AlexNet,
            ModelId::MobileNetV2,
            ModelId::SqueezeNetV2,
            ModelId::ResNet50,
            ModelId::GoogleNet,
        ],
        mix: MixProfile::Mixed,
        priority_churn_rate: 1.0 / 200.0,
        seed: 11,
    };
    let events = generate(&cfg);
    let scenario_budget = if smoke() { 120 } else { 400 };
    let scenario_config = ManagerConfig {
        mcts_iterations: scenario_budget,
        warm_iterations: scenario_budget / 2,
        ..Default::default()
    };
    let incremental = {
        let mgr = RankMapManager::new(&platform, &oracle, scenario_config);
        let mut mapper = RankMapMapper::new(mgr, PriorityMode::Dynamic, "RankMapD");
        let rt = DynamicRuntime::new(&platform, 30.0);
        timeline_average_potential(&rt.run(&events, &mut mapper, cfg.horizon))
    };
    let cold_baseline = {
        let mgr = RankMapManager::new(&platform, &oracle, scenario_config);
        let mut mapper = ColdRankMap { manager: mgr };
        let rt = DynamicRuntime::new(&platform, 30.0).with_migration_awareness(false);
        timeline_average_potential(&rt.run(&events, &mut mapper, cfg.horizon))
    };
    println!(
        "timeline-average potential over {} events: incremental+aware {:.4}, cold+oblivious {:.4} ({})",
        events.len(),
        incremental,
        cold_baseline,
        if incremental >= cold_baseline { "no quality loss" } else { "REGRESSION" }
    );
}

fn config() -> Criterion {
    let config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_millis(500));
    if smoke() {
        config
    } else {
        config.json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json"))
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_runtime_remap
}
criterion_main!(benches);
