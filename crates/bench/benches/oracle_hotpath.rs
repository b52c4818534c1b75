//! Oracle hot-path benchmark: mapping-search latency with the learned
//! oracle (paper-structured estimator), batched at `K ∈ {1, 8, 32}`, at
//! the default 1,500-iteration budget.
//!
//! The batched arms run one decision problem through the shipped hot
//! path: `LearnedOracle` (`&self` inference, stacked decoder matmuls),
//! virtual-loss rounds, transposition cache. (`K = 1` reproduces the
//! classic one-rollout loop exactly; `rankmap-search`'s tests hold it to
//! that loop.) A `manager_plan_default` arm measures the public
//! `RankMapManager::map` entry point end to end, and an
//! `analytical_manager_map` arm runs the same entry point over the
//! `AnalyticalOracle` (the contention solver the fleet scores with). An
//! `oracle/analytical_fresh_mixes` arm scores a batch of mappings of a mix
//! the oracle has never seen on every call, so the cost of pricing new
//! models shows next to the solves.
//!
//! Results land in `BENCH_oracle.json` at the workspace root (ns per call;
//! divide by the 1,500-evaluation budget for ns/eval) so future PRs have a
//! perf trajectory.
//!
//! `RANKMAP_BENCH_SMOKE=1` takes few samples and writes no JSON, so CI
//! can keep this bench compiling *and running*.

use criterion::{criterion_group, criterion_main, Criterion};
use rankmap_core::manager::{ManagerConfig, RankMapManager};
use rankmap_core::oracle::{AnalyticalOracle, LearnedOracle, ThroughputOracle};
use rankmap_core::priority::PriorityMode;
use rankmap_core::reward::{RewardSpec, StarvationThreshold, DISQUALIFIED};
use rankmap_estimator::{EmbeddingTable, Estimator, EstimatorConfig, VqVae, VqVaeConfig};
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use rankmap_search::{DecisionProblem, Mcts, MctsConfig};
use rankmap_sim::{Mapping, Workload};
use std::cell::Cell;

const BUDGET: usize = 1_500;
const IDEAL: f64 = 25.0;
/// Mappings scored per fresh mix in the `analytical_fresh_mixes` arm.
const FRESH_MIX_MAPPINGS: usize = 8;

fn smoke() -> bool {
    std::env::var_os("RANKMAP_BENCH_SMOKE").is_some()
}

fn mix() -> Workload {
    Workload::from_ids([
        ModelId::AlexNet,
        ModelId::MobileNetV2,
        ModelId::ResNet50,
        ModelId::SqueezeNetV2,
    ])
}

/// The mapping decision problem every search arm shares (fixed ideal
/// rates, so every arm optimizes the identical objective).
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
    fast_oracle: LearnedOracle,
    spec: RewardSpec,
}

fn setup() -> Setup {
    let platform = Platform::orange_pi_5();
    let w = mix();
    let mut vqvae = VqVae::new(VqVaeConfig::default(), 0);
    let table = EmbeddingTable::build(&mut vqvae, w.models());
    let estimator = Estimator::new(EstimatorConfig::paper(), 0);
    let fast_oracle = LearnedOracle::new(vqvae, table, estimator, Box::new(|_| IDEAL));
    // Untrained estimators predict near-zero throughput everywhere; a
    // permissive threshold keeps every mapping qualified, so the searches
    // compare real rewards instead of fallback scores.
    let spec = RewardSpec::new(
        PriorityMode::Dynamic.vector(&w),
        StarvationThreshold::Absolute(-1.0),
        vec![IDEAL; w.len()],
    );
    Setup { platform, fast_oracle, spec }
}

/// One full batched mapping search over the fast oracle.
fn plan(s: &Setup, w: &Workload, batch: usize, seed: u64) -> f64 {
    let cfg = MctsConfig { iterations: BUDGET, seed, batch, ..Default::default() };
    let problem = BenchMappingProblem {
        workload: w,
        oracle: &s.fast_oracle,
        spec: &s.spec,
        components: s.platform.component_count(),
        total_units: w.total_units(),
    };
    Mcts::new(cfg).search(&problem).best_reward
}

fn bench_oracle_hotpath(c: &mut Criterion) {
    let s = setup();
    let w = mix();

    let mut group = c.benchmark_group("plan_1500");
    if smoke() {
        group.sample_size(3);
        group.measurement_time(std::time::Duration::from_millis(500));
    }
    for k in [1usize, 8, 32] {
        group.bench_function(&format!("batched_k{k}"), |b| {
            b.iter(|| plan(&s, &w, k, 1))
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

    // A mix the oracle has not seen on every call: the i-th call maps
    // the i-th 4-DNN sequence over the zoo (distinct for 24^4 calls).
    let mut group = c.benchmark_group("oracle");
    if smoke() {
        group.sample_size(3);
        group.measurement_time(std::time::Duration::from_millis(500));
    }
    let all = ModelId::all();
    let fresh = AnalyticalOracle::new(&s.platform);
    let calls = Cell::new(0usize);
    group.bench_function("analytical_fresh_mixes", |b| {
        b.iter(|| {
            let i = calls.get();
            calls.set(i + 1);
            let w = Workload::from_ids((0..4).map(|k| all[i / 24usize.pow(k) % 24]));
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i as u64);
            let mappings: Vec<Mapping> = (0..FRESH_MIX_MAPPINGS)
                .map(|_| Mapping::random(&w, s.platform.component_count(), &mut rng))
                .collect();
            fresh.predict_batch(&w, &mappings)
        })
    });
    group.finish();
}

fn config() -> Criterion {
    let config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_millis(500));
    if smoke() {
        config
    } else {
        config.json_output(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_oracle.json"))
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_oracle_hotpath
}
criterion_main!(benches);
