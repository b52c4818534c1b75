//! Oracle hot-path benchmark: mapping-search latency with the learned
//! oracle (paper-structured estimator), batched (`K ∈ {1, 8, 32}`)
//! against the seed's sequential baseline, at the default 1,500-iteration
//! budget.
//!
//! The baseline arm reconstructs the seed implementation faithfully: a
//! lock-guarded estimator queried one mapping at a time through the legacy
//! `Estimator::predict` (`&mut`, training-path forward with its allocation
//! traffic), driven by `Mcts::search_sequential` with per-step state
//! clones and no caching. The batched arms run the same decision problem
//! through the shipped hot path: `LearnedOracle` (`&self` inference,
//! stacked decoder matmuls), virtual-loss rounds, transposition cache.
//! A `manager_plan_default` arm measures the public
//! `RankMapManager::map` entry point end to end, and an
//! `analytical_manager_map` arm runs the same entry point over the
//! `AnalyticalOracle` (the contention solver the fleet scores with).
//!
//! Results land in `BENCH_oracle.json` at the workspace root (ns per call;
//! divide by the 1,500-evaluation budget for ns/eval) so future PRs have a
//! perf trajectory. The run also prints best-reward parity over 5 seeds:
//! the batched search must stay within noise of the sequential one.

use criterion::{criterion_group, criterion_main, Criterion};
use rankmap_core::manager::{ManagerConfig, RankMapManager};
use rankmap_core::oracle::{AnalyticalOracle, LearnedOracle, ThroughputOracle};
use rankmap_core::priority::PriorityMode;
use rankmap_core::reward::{RewardSpec, StarvationThreshold, DISQUALIFIED};
use rankmap_estimator::{
    EmbeddingTable, Estimator, EstimatorConfig, QTensorSpec, VqVae, VqVaeConfig,
};
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use rankmap_search::{DecisionProblem, Mcts, MctsConfig};
use rankmap_sim::{Mapping, Workload};
use std::sync::Mutex;

const BUDGET: usize = 1_500;
const IDEAL: f64 = 25.0;

fn mix() -> Workload {
    Workload::from_ids([
        ModelId::AlexNet,
        ModelId::MobileNetV2,
        ModelId::ResNet50,
        ModelId::SqueezeNetV2,
    ])
}

/// The seed's learned oracle, resurrected for the baseline arm: interior
/// mutability around the legacy `&mut` estimator forward, one mapping per
/// query, embeddings re-ensured on every call.
struct SeedLearnedOracle {
    vqvae: Mutex<VqVae>,
    embeddings: Mutex<EmbeddingTable>,
    estimator: Mutex<Estimator>,
    spec: QTensorSpec,
}

impl SeedLearnedOracle {
    fn new(vqvae: VqVae, embeddings: EmbeddingTable, estimator: Estimator) -> Self {
        let spec = estimator.config().spec;
        Self {
            vqvae: Mutex::new(vqvae),
            embeddings: Mutex::new(embeddings),
            estimator: Mutex::new(estimator),
            spec,
        }
    }
}

impl ThroughputOracle for SeedLearnedOracle {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        let mut emb = self.embeddings.lock().unwrap();
        let mut vq = self.vqvae.lock().unwrap();
        for m in workload.models() {
            emb.ensure(&mut vq, m);
        }
        let q = emb.q_tensor(&self.spec, workload, mapping);
        let preds = self.estimator.lock().unwrap().predict(&q);
        (0..workload.len()).map(|i| (preds[i].max(0.0) as f64) * IDEAL).collect()
    }

    fn name(&self) -> &'static str {
        "learned-seed"
    }
}

/// The mapping decision problem both arms share (fixed ideal rates so the
/// two searches optimize the identical objective). The batched methods are
/// only reachable from `Mcts::search`; `search_sequential` exercises the
/// seed behavior.
struct BenchMappingProblem<'a, O: ThroughputOracle> {
    workload: &'a Workload,
    oracle: &'a O,
    spec: &'a RewardSpec,
    components: usize,
    total_units: usize,
}

impl<O: ThroughputOracle> BenchMappingProblem<'_, O> {
    fn reward_of(&self, throughputs: &[f64]) -> f64 {
        let r = self.spec.reward(throughputs);
        if r == DISQUALIFIED {
            -1.0e6 + self.spec.fallback_score(throughputs)
        } else {
            r
        }
    }
}

impl<O: ThroughputOracle> DecisionProblem for BenchMappingProblem<'_, O> {
    type State = Vec<ComponentId>;

    fn root(&self) -> Self::State {
        Vec::new()
    }

    fn action_count(&self, state: &Self::State) -> usize {
        if state.len() >= self.total_units {
            0
        } else {
            self.components
        }
    }

    fn apply(&self, state: &Self::State, a: usize) -> Self::State {
        let mut s = state.clone();
        s.push(ComponentId::new(a));
        s
    }

    fn apply_in_place(&self, state: &mut Self::State, a: usize) {
        state.push(ComponentId::new(a));
    }

    fn evaluate(&self, state: &Self::State) -> f64 {
        let mapping = Mapping::from_flat(self.workload, state);
        self.reward_of(&self.oracle.predict(self.workload, &mapping))
    }

    fn evaluate_batch(&self, states: &[Self::State]) -> Vec<f64> {
        let mappings: Vec<Mapping> =
            states.iter().map(|s| Mapping::from_flat(self.workload, s)).collect();
        self.oracle
            .predict_batch(self.workload, &mappings)
            .iter()
            .map(|t| self.reward_of(t))
            .collect()
    }

    fn transposition_key(&self, state: &Self::State) -> Option<u64> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in state {
            h ^= c.index() as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Some(h)
    }
}

struct Setup {
    platform: Platform,
    seed_oracle: SeedLearnedOracle,
    fast_oracle: LearnedOracle,
    spec: RewardSpec,
}

fn setup() -> Setup {
    let platform = Platform::orange_pi_5();
    let w = mix();
    let mut vqvae = VqVae::new(VqVaeConfig::default(), 0);
    let table = EmbeddingTable::build(&mut vqvae, w.models());
    let estimator = Estimator::new(EstimatorConfig::paper(), 0);
    let seed_oracle = SeedLearnedOracle::new(
        VqVae::new(VqVaeConfig::default(), 0),
        table.clone(),
        Estimator::new(EstimatorConfig::paper(), 0),
    );
    let fast_oracle = LearnedOracle::new(vqvae, table, estimator, Box::new(|_| IDEAL));
    // Untrained estimators predict near-zero throughput everywhere; a
    // permissive threshold keeps every mapping qualified so the parity
    // check below compares real rewards instead of fallback scores.
    let spec = RewardSpec::new(
        PriorityMode::Dynamic.vector(&w),
        StarvationThreshold::Absolute(-1.0),
        vec![IDEAL; w.len()],
    );
    Setup { platform, seed_oracle, fast_oracle, spec }
}

/// One full mapping search. `batch == None` runs the seed-faithful
/// sequential loop over the seed oracle; `batch == Some(k)` runs the
/// shipped batched path over the fast oracle.
fn plan(s: &Setup, w: &Workload, batch: Option<usize>, seed: u64) -> f64 {
    let cfg = MctsConfig {
        iterations: BUDGET,
        seed,
        batch: batch.unwrap_or(1),
        ..Default::default()
    };
    match batch {
        None => {
            let problem = BenchMappingProblem {
                workload: w,
                oracle: &s.seed_oracle,
                spec: &s.spec,
                components: s.platform.component_count(),
                total_units: w.total_units(),
            };
            Mcts::new(cfg).search_sequential(&problem).best_reward
        }
        Some(_) => {
            let problem = BenchMappingProblem {
                workload: w,
                oracle: &s.fast_oracle,
                spec: &s.spec,
                components: s.platform.component_count(),
                total_units: w.total_units(),
            };
            Mcts::new(cfg).search(&problem).best_reward
        }
    }
}

fn bench_oracle_hotpath(c: &mut Criterion) {
    let s = setup();
    let w = mix();

    let mut group = c.benchmark_group("plan_1500");
    group.sample_size(10);
    group.bench_function("sequential_baseline", |b| b.iter(|| plan(&s, &w, None, 1)));
    for k in [1usize, 8, 32] {
        group.bench_function(&format!("batched_k{k}"), |b| {
            b.iter(|| plan(&s, &w, Some(k), 1))
        });
    }
    // The public entry point, end to end (measured ideal rates are cached
    // in the manager after the first call).
    let mgr = RankMapManager::new(
        &s.platform,
        &s.fast_oracle,
        ManagerConfig { mcts_iterations: BUDGET, ..Default::default() },
    );
    let _ = mgr.map(&w, &PriorityMode::Dynamic);
    group.bench_function("manager_plan_default", |b| {
        b.iter(|| mgr.map(&w, &PriorityMode::Dynamic))
    });
    // The same entry point over the analytical contention solver: its
    // per-mapping cost is what every fleet probe and remap pays.
    let analytical = AnalyticalOracle::new(&s.platform);
    let analytical_mgr = RankMapManager::new(
        &s.platform,
        &analytical,
        ManagerConfig { mcts_iterations: BUDGET, ..Default::default() },
    );
    let _ = analytical_mgr.map(&w, &PriorityMode::Dynamic);
    group.bench_function("analytical_manager_map", |b| {
        b.iter(|| analytical_mgr.map(&w, &PriorityMode::Dynamic))
    });
    group.finish();

    // Reward parity across seeds: the batched search must stay within
    // noise of the sequential trajectory.
    let mut seq = Vec::new();
    let mut bat = Vec::new();
    for seed in 0..5u64 {
        seq.push(plan(&s, &w, None, seed));
        bat.push(plan(&s, &w, Some(8), seed));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "reward parity over 5 seeds: sequential mean {:.4} {:?}, batched(K=8) mean {:.4} {:?}",
        mean(&seq),
        seq,
        mean(&bat),
        bat
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_millis(500))
        .json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_oracle.json"));
    targets = bench_oracle_hotpath
}
criterion_main!(benches);
