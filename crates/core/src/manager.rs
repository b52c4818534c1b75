//! The RankMap manager: MCTS over the mapping space with an oracle in the
//! loop (§IV-E), plus the incremental entry points the dynamic runtime
//! uses — warm-started remaps ([`RankMapManager::remap_with_hints`]) and a
//! plan cache ([`RankMapManager::map_cached`], see `docs/runtime.md`).

use crate::oracle::ThroughputOracle;
use crate::plan_cache::PlanCache;
use crate::priority::PriorityMode;
use crate::reward::{RewardSpec, StarvationThreshold, DISQUALIFIED};
use rankmap_platform::{ComponentId, Platform};
use rankmap_search::{DecisionProblem, Mcts, MctsConfig, WarmStart};
use rankmap_sim::{EventEngine, Mapping, Workload};

/// Manager configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// MCTS iteration budget.
    pub mcts_iterations: usize,
    /// UCT exploration constant.
    pub exploration: f64,
    /// Starvation threshold.
    pub threshold: StarvationThreshold,
    /// Search seed.
    pub seed: u64,
    /// Rollouts per batched oracle round (`K`). `1` reproduces the
    /// sequential search exactly; the default keeps the oracle fed with
    /// stacked batches (see `docs/performance.md`).
    pub batch: usize,
    /// Iteration budget for warm-started remaps
    /// ([`RankMapManager::remap_with_hints`]): the search only has to
    /// re-decide the event's delta, so it runs on a fraction of the cold
    /// budget.
    pub warm_iterations: usize,
    /// Probability that a warm rollout keeps a hinted unit on its
    /// incumbent component (the [`WarmStart::bias`]).
    pub warm_bias: f64,
    /// LRU bound of the plan cache (`usize::MAX` = unbounded; must be
    /// positive — [`RankMapManager::new`] panics on 0, matching
    /// [`PlanCache::with_capacity`]). A serving box sees a bounded
    /// universe of recurring workload sets; a fleet shard gets a budget
    /// so a hostile arrival mix cannot grow the cache without limit.
    pub plan_cache_capacity: usize,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            mcts_iterations: 1_500,
            exploration: 1.3,
            threshold: StarvationThreshold::default(),
            seed: 0,
            batch: 8,
            warm_iterations: 300,
            warm_bias: 0.9,
            plan_cache_capacity: usize::MAX,
        }
    }
}

/// Outcome of a mapping search.
#[derive(Debug, Clone)]
pub struct MappingPlan {
    /// The chosen mapping `M*`.
    pub mapping: Mapping,
    /// The oracle's per-DNN throughput prediction for it.
    pub predicted: Vec<f64>,
    /// Its reward (finite ⇔ it clears the starvation threshold).
    pub reward: f64,
    /// Number of oracle evaluations spent.
    pub evaluations: usize,
}

impl MappingPlan {
    /// Whether the plan satisfies the starvation threshold.
    pub fn qualified(&self) -> bool {
        self.reward.is_finite()
    }
}

/// The priority-aware multi-DNN manager.
///
/// `Send` by construction (asserted in tests): the interior caches sit
/// behind `Mutex`es and the oracle reference is `Send + Sync` by the
/// trait's contract, so a fleet shard owning a manager can move to a
/// worker thread between event barriers.
pub struct RankMapManager<'p, O: ThroughputOracle> {
    platform: &'p Platform,
    oracle: &'p O,
    config: ManagerConfig,
    /// Measured isolated ideal rates, memoized per model: a full
    /// event-simulator run per model otherwise recurs on every `map` call.
    ideal_cache: std::sync::Mutex<std::collections::HashMap<rankmap_models::ModelId, f64>>,
    /// Finished plans keyed by canonical workload signature — recurring
    /// workload sets skip the search entirely via [`RankMapManager::map_cached`].
    plan_cache: std::sync::Mutex<PlanCache>,
}

/// The mapping decision problem: one component choice per schedulable unit
/// (DNN-major order), rewarded through the oracle + reward spec.
struct MappingProblem<'a, O: ThroughputOracle> {
    workload: &'a Workload,
    oracle: &'a O,
    spec: &'a RewardSpec,
    components: usize,
    total_units: usize,
}

impl<O: ThroughputOracle> MappingProblem<'_, O> {
    /// Folds oracle throughputs into the search reward.
    fn reward_of(&self, throughputs: &[f64]) -> f64 {
        let r = self.spec.reward(throughputs);
        if r == DISQUALIFIED {
            // Shift fallback scores far below any qualified reward so the
            // search keeps a best-effort answer when nothing qualifies,
            // while the tree still prefers qualified regions.
            -1.0e6 + self.spec.fallback_score(throughputs)
        } else {
            r
        }
    }
}

impl<O: ThroughputOracle> DecisionProblem for MappingProblem<'_, O> {
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
        let throughputs = self.oracle.predict(self.workload, &mapping);
        self.reward_of(&throughputs)
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
        // FNV-1a over the flat component vector: terminal mappings that
        // random rollouts revisit are answered from the cache for free.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in state {
            h ^= c.index() as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Some(h)
    }
}

impl<'p, O: ThroughputOracle> RankMapManager<'p, O> {
    /// Creates a manager over a platform and oracle.
    ///
    /// # Panics
    ///
    /// Panics if `config.plan_cache_capacity == 0` — a typo'd zero would
    /// otherwise silently degrade every recurring workload set to a warm
    /// search (consistent with [`PlanCache::with_capacity`]).
    pub fn new(platform: &'p Platform, oracle: &'p O, config: ManagerConfig) -> Self {
        assert!(
            config.plan_cache_capacity > 0,
            "plan_cache_capacity must be positive (usize::MAX = unbounded)"
        );
        Self {
            platform,
            oracle,
            config,
            ideal_cache: std::sync::Mutex::new(std::collections::HashMap::new()),
            plan_cache: std::sync::Mutex::new(
                PlanCache::with_capacity(config.plan_cache_capacity)
                    .for_platform(platform.signature()),
            ),
        }
    }

    /// The manager's configuration.
    pub fn config(&self) -> ManagerConfig {
        self.config
    }

    /// The platform this manager maps onto.
    pub fn platform(&self) -> &'p Platform {
        self.platform
    }

    /// The throughput oracle the search consults.
    pub fn oracle(&self) -> &'p O {
        self.oracle
    }

    /// Measures per-DNN ideal rates (isolated on the GPU, or the fastest
    /// component when no GPU exists), memoized across `map` calls.
    pub fn ideal_rates(&self, workload: &Workload) -> Vec<f64> {
        let gpu = self
            .platform
            .id_of_kind(rankmap_platform::ComponentKind::Gpu)
            .unwrap_or(ComponentId::new(0));
        let mut cache = self.ideal_cache.lock().expect("ideal-rate cache poisoned");
        workload
            .models()
            .iter()
            .map(|m| {
                *cache.entry(m.id()).or_insert_with(|| {
                    EventEngine::quick(self.platform).ideal_rate(m.id(), gpu)
                })
            })
            .collect()
    }

    /// Searches for the best mapping of `workload` under `priorities`
    /// (`M* = argmax O(M)ᵀ·p subject to O(M)ᵢ > th`).
    pub fn map(&self, workload: &Workload, priorities: &PriorityMode) -> MappingPlan {
        self.search_plan(workload, priorities, self.config.mcts_iterations, None)
    }

    /// Like [`RankMapManager::map`], but answered from the plan cache when
    /// this workload set (canonicalized: sorted model IDs + priority
    /// vector + threshold) has been mapped before — in any submission
    /// order. Cache hits cost zero oracle evaluations and return the
    /// cached plan unchanged (`evaluations == 0` marks them).
    pub fn map_cached(&self, workload: &Workload, priorities: &PriorityMode) -> MappingPlan {
        let p = priorities.vector(workload);
        {
            let mut cache = self.plan_cache.lock().expect("plan cache poisoned");
            if let Some(plan) = cache.get(workload, &p, self.config.threshold) {
                return plan;
            }
        }
        let plan = self.map(workload, priorities);
        self.plan_cache
            .lock()
            .expect("plan cache poisoned")
            .insert(workload, &p, self.config.threshold, &plan);
        plan
    }

    /// Hit/miss counters of the plan cache — observability for the runtime.
    pub fn plan_cache_stats(&self) -> rankmap_telemetry::MemoStats {
        self.plan_cache.lock().expect("plan cache poisoned").stats()
    }

    /// Snapshots the plan cache to JSON (see [`PlanCache::to_json`]) so a
    /// restarted manager — or a whole fleet — boots serving yesterday's
    /// plans.
    pub fn export_plan_cache(&self) -> String {
        self.plan_cache.lock().expect("plan cache poisoned").to_json()
    }

    /// Replaces the plan cache with a [`RankMapManager::export_plan_cache`]
    /// snapshot, re-bounded to this manager's configured capacity. A
    /// snapshot recorded on a different board type
    /// ([`rankmap_platform::Platform::signature`] mismatch), or one
    /// referencing components this platform does not have (corrupted, or
    /// an untagged legacy snapshot from a bigger board), is rejected here
    /// with a clear error rather than panicking — or silently serving
    /// another board's plans — on its first cache hit mid-serving.
    /// Returns the number of plans serving after the load.
    pub fn import_plan_cache(&self, json: &str) -> Result<usize, crate::json::JsonError> {
        let loaded = PlanCache::from_json(json)?;
        loaded.validate_platform(&self.platform.signature())?;
        loaded.validate_components(self.platform.component_count())?;
        Ok(self.install_plan_cache(loaded))
    }

    /// Replaces the plan cache with an already-parsed (and, by the
    /// caller, validated) cache, re-bounded to this manager's configured
    /// capacity — the fan-out half of [`RankMapManager::import_plan_cache`]
    /// for callers installing one snapshot into many managers. Returns
    /// the number of plans serving after the bound.
    pub fn install_plan_cache(&self, loaded: PlanCache) -> usize {
        // config.plan_cache_capacity > 0 is guaranteed by the
        // constructor's assert. Plans served (and exported) from here on
        // belong to this manager's platform, so the installed cache is
        // re-tagged — an untagged legacy snapshot becomes tagged at its
        // first home.
        let mut loaded = loaded.for_platform(self.platform.signature());
        loaded.set_capacity(self.config.plan_cache_capacity);
        let mut cache = self.plan_cache.lock().expect("plan cache poisoned");
        *cache = loaded;
        cache.len()
    }

    /// Cache-only lookup: the cached plan for this workload set (in the
    /// caller's submission order), or `None` without searching. The
    /// serving runtime consults this before paying for a warm search.
    pub fn cached_plan(
        &self,
        workload: &Workload,
        priorities: &PriorityMode,
    ) -> Option<MappingPlan> {
        let p = priorities.vector(workload);
        self.plan_cache
            .lock()
            .expect("plan cache poisoned")
            .get(workload, &p, self.config.threshold)
    }

    /// Warm-started remap: searches for a mapping of `workload` seeded by
    /// per-DNN incumbent placements. `hints[d]` is DNN `d`'s placement in
    /// the incumbent mapping (`None` for a fresh arrival, which the search
    /// decides from scratch). Runs on [`ManagerConfig::warm_iterations`] —
    /// a fraction of the cold budget — because only the event's delta has
    /// to be re-decided; when every DNN is hinted, the returned reward is
    /// never below the incumbent plan's (the incumbent completion is the
    /// first state evaluated).
    ///
    /// # Panics
    ///
    /// Panics if `hints.len() != workload.len()`.
    pub fn remap_with_hints(
        &self,
        workload: &Workload,
        priorities: &PriorityMode,
        hints: &[Option<Vec<ComponentId>>],
    ) -> MappingPlan {
        assert_eq!(hints.len(), workload.len(), "one hint entry per DNN");
        let mut guide: Vec<Option<usize>> = Vec::with_capacity(workload.total_units());
        for (model, hint) in workload.models().iter().zip(hints) {
            match hint {
                Some(assign) if assign.len() == model.unit_count() => {
                    guide.extend(assign.iter().map(|c| Some(c.index())));
                }
                // Length-mismatched hints are stale — treat as fresh.
                _ => guide.extend(std::iter::repeat_n(None, model.unit_count())),
            }
        }
        let warm = WarmStart { guide, bias: self.config.warm_bias };
        let plan =
            self.search_plan(workload, priorities, self.config.warm_iterations, Some(&warm));
        // Feed the cache so a recurring workload set skips even the warm
        // search next time (first plan wins: a cold plan is never displaced).
        self.plan_cache.lock().expect("plan cache poisoned").insert_if_absent(
            workload,
            &priorities.vector(workload),
            self.config.threshold,
            &plan,
        );
        plan
    }

    /// Warm-started remap from a previous plan of a *different* workload:
    /// DNNs surviving from `prev_workload` (matched greedily by model ID,
    /// in submission order) inherit their incumbent placements as hints;
    /// arrivals are re-decided from scratch. This is the
    /// arrival/departure fast path of the dynamic runtime.
    pub fn remap_from(
        &self,
        previous: &MappingPlan,
        prev_workload: &Workload,
        workload: &Workload,
        priorities: &PriorityMode,
    ) -> MappingPlan {
        let mut used = vec![false; prev_workload.len()];
        let hints: Vec<Option<Vec<ComponentId>>> = workload
            .models()
            .iter()
            .map(|m| {
                let matched = (0..prev_workload.len())
                    .find(|&i| !used[i] && prev_workload.models()[i].id() == m.id())?;
                used[matched] = true;
                Some(previous.mapping.assignment(matched).to_vec())
            })
            .collect();
        self.remap_with_hints(workload, priorities, &hints)
    }

    /// The shared search core behind `map` and `remap_with_hints`.
    fn search_plan(
        &self,
        workload: &Workload,
        priorities: &PriorityMode,
        iterations: usize,
        warm: Option<&WarmStart>,
    ) -> MappingPlan {
        let p = priorities.vector(workload);
        let ideals = self.ideal_rates(workload);
        let spec = RewardSpec::new(p, self.config.threshold, ideals);
        let problem = MappingProblem {
            workload,
            oracle: self.oracle,
            spec: &spec,
            components: self.platform.component_count(),
            total_units: workload.total_units(),
        };
        let mcts = Mcts::new(MctsConfig {
            iterations,
            exploration: self.config.exploration,
            seed: self.config.seed,
            batch: self.config.batch,
            ..Default::default()
        });
        let result = match warm {
            Some(w) => mcts.search_warm(&problem, w),
            None => mcts.search(&problem),
        };
        let mapping = Mapping::from_flat(workload, &result.best_state);
        let predicted = self.oracle.predict(workload, &mapping);
        let reward = spec.reward(&predicted);
        MappingPlan { mapping, predicted, reward, evaluations: result.evaluations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::AnalyticalOracle;
    use rankmap_models::ModelId;
    use rankmap_sim::AnalyticalEngine;

    fn quick_config() -> ManagerConfig {
        ManagerConfig { mcts_iterations: 300, ..Default::default() }
    }

    #[test]
    fn manager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RankMapManager<'static, AnalyticalOracle<'static>>>();
    }

    #[test]
    fn produces_valid_mapping() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNetV2]);
        let plan = mgr.map(&w, &PriorityMode::Dynamic);
        assert!(plan.mapping.validate(&w, 3).is_ok());
        assert_eq!(plan.predicted.len(), 2);
        assert!(plan.evaluations > 0);
    }

    #[test]
    fn beats_all_gpu_baseline() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::ResNet50,
            ModelId::MobileNet,
        ]);
        let plan = mgr.map(&w, &PriorityMode::Dynamic);
        let engine = AnalyticalEngine::new(&platform);
        let baseline = engine
            .evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0)))
            .average();
        let found = engine.evaluate(&w, &plan.mapping).average();
        assert!(
            found > baseline,
            "search should beat the GPU pileup: {found} vs {baseline}"
        );
    }

    #[test]
    fn static_priority_lifts_critical_dnn() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(
            &platform,
            &oracle,
            ManagerConfig { mcts_iterations: 600, seed: 5, ..Default::default() },
        );
        let w = Workload::from_ids([
            ModelId::InceptionV4,
            ModelId::SqueezeNetV2,
            ModelId::MobileNet,
            ModelId::ResNet50,
        ]);
        let ideals = mgr.ideal_rates(&w);
        // Prioritize the demanding Inception-V4.
        let plan_hi = mgr.map(&w, &PriorityMode::critical(4, 0));
        // Prioritize SqueezeNet instead.
        let plan_lo = mgr.map(&w, &PriorityMode::critical(4, 1));
        let engine = AnalyticalEngine::new(&platform);
        let p_hi = engine.evaluate(&w, &plan_hi.mapping).potentials(&ideals)[0];
        let p_lo = engine.evaluate(&w, &plan_lo.mapping).potentials(&ideals)[0];
        assert!(
            p_hi >= p_lo,
            "raising Inception's rank should not lower its potential: {p_hi} vs {p_lo}"
        );
    }

    #[test]
    fn qualified_plans_have_no_starvation() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNetV2, ModelId::GoogleNet]);
        let plan = mgr.map(&w, &PriorityMode::Dynamic);
        if plan.qualified() {
            let ideals = mgr.ideal_rates(&w);
            for (t, i) in plan.predicted.iter().zip(&ideals) {
                assert!(t / i > 0.04, "qualified plan must clear the floor: {t}/{i}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::ShuffleNet]);
        let a = mgr.map(&w, &PriorityMode::Dynamic);
        let b = mgr.map(&w, &PriorityMode::Dynamic);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn warm_remap_unchanged_workload_never_regresses() {
        // The satellite guarantee: a warm-started search over an unchanged
        // workload must reproduce at least the incumbent plan's reward,
        // across seeds — even at a fraction of the cold budget.
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNetV2, ModelId::MobileNet]);
        for seed in 0..4u64 {
            let mgr = RankMapManager::new(
                &platform,
                &oracle,
                ManagerConfig { mcts_iterations: 400, warm_iterations: 80, seed, ..Default::default() },
            );
            let cold = mgr.map(&w, &PriorityMode::Dynamic);
            let hints: Vec<Option<Vec<ComponentId>>> =
                cold.mapping.per_dnn().iter().map(|v| Some(v.clone())).collect();
            let warm = mgr.remap_with_hints(&w, &PriorityMode::Dynamic, &hints);
            assert!(
                warm.reward >= cold.reward - 1e-9,
                "seed {seed}: warm remap regressed: {} < {}",
                warm.reward,
                cold.reward
            );
            assert!(warm.evaluations <= 80, "warm remap must respect the warm budget");
        }
    }

    #[test]
    fn warm_remap_handles_arrival_hints() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(
            &platform,
            &oracle,
            ManagerConfig { mcts_iterations: 300, warm_iterations: 120, ..Default::default() },
        );
        let w3 = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNetV2, ModelId::MobileNet]);
        let plan3 = mgr.map(&w3, &PriorityMode::Dynamic);
        let w4 = Workload::from_ids([
            ModelId::AlexNet,
            ModelId::SqueezeNetV2,
            ModelId::MobileNet,
            ModelId::ResNet50,
        ]);
        let warm = mgr.remap_from(&plan3, &w3, &w4, &PriorityMode::Dynamic);
        assert!(warm.mapping.validate(&w4, 3).is_ok());
        assert_eq!(warm.predicted.len(), 4);
    }

    #[test]
    fn remap_from_matches_surviving_models_after_departure() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(
            &platform,
            &oracle,
            ManagerConfig { mcts_iterations: 200, warm_iterations: 60, ..Default::default() },
        );
        let w3 = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50, ModelId::MobileNet]);
        let plan3 = mgr.map(&w3, &PriorityMode::Dynamic);
        // ResNet departs; survivors keep their identity.
        let w2 = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let warm = mgr.remap_from(&plan3, &w3, &w2, &PriorityMode::Dynamic);
        assert!(warm.mapping.validate(&w2, 3).is_ok());
    }

    #[test]
    fn plan_cache_hit_is_bit_identical_and_free() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::GoogleNet]);
        let first = mgr.map_cached(&w, &PriorityMode::Dynamic);
        assert!(first.evaluations > 0, "first call must search");
        let second = mgr.map_cached(&w, &PriorityMode::Dynamic);
        assert_eq!(second.mapping, first.mapping);
        assert_eq!(second.predicted, first.predicted);
        assert_eq!(second.reward.to_bits(), first.reward.to_bits());
        assert_eq!(second.evaluations, 0, "hits skip the search entirely");
        assert_eq!(
            mgr.plan_cache_stats(),
            rankmap_telemetry::MemoStats { hits: 1, misses: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "plan_cache_capacity")]
    fn zero_plan_cache_capacity_is_rejected_loudly() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let _ = RankMapManager::new(
            &platform,
            &oracle,
            ManagerConfig { plan_cache_capacity: 0, ..Default::default() },
        );
    }

    #[test]
    fn plan_cache_survives_a_restart_via_json() {
        // The fleet boot path: yesterday's exported plans serve today's
        // first requests without a single search.
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let plan = mgr.map_cached(&w, &PriorityMode::Dynamic);
        let snapshot = mgr.export_plan_cache();

        let rebooted = RankMapManager::new(
            &platform,
            &oracle,
            ManagerConfig { plan_cache_capacity: 64, ..quick_config() },
        );
        let served = rebooted.import_plan_cache(&snapshot).expect("snapshot loads");
        assert_eq!(served, 1);
        let hit = rebooted.map_cached(&w, &PriorityMode::Dynamic);
        assert_eq!(hit.evaluations, 0, "the booted cache must answer without searching");
        assert_eq!(hit.mapping, plan.mapping);
        assert_eq!(hit.reward.to_bits(), plan.reward.to_bits());
    }

    #[test]
    fn exported_plan_caches_refuse_to_cross_board_types() {
        // An Orange Pi snapshot must not boot a Jetson-class shard: the
        // numbers inside were priced on a different board, and shape
        // checks alone cannot catch a same-component-count mismatch.
        let orange = Platform::orange_pi_5();
        let jetson = Platform::jetson_orin_nx();
        let oracle = AnalyticalOracle::new(&orange);
        let mgr = RankMapManager::new(&orange, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet]);
        let _ = mgr.map_cached(&w, &PriorityMode::Dynamic);
        let snapshot = mgr.export_plan_cache();

        let jetson_oracle = AnalyticalOracle::new(&jetson);
        let other = RankMapManager::new(&jetson, &jetson_oracle, quick_config());
        let err = other.import_plan_cache(&snapshot).unwrap_err();
        assert!(
            err.to_string().contains("never cross board types"),
            "cross-platform import must fail loudly: {err}"
        );
        // Same board type still boots fine.
        let twin = RankMapManager::new(&orange, &oracle, quick_config());
        assert_eq!(twin.import_plan_cache(&snapshot).expect("same platform loads"), 1);
    }

    #[test]
    fn plan_cache_hits_across_submission_orders() {
        let platform = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&platform);
        let mgr = RankMapManager::new(&platform, &oracle, quick_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::GoogleNet, ModelId::MobileNet]);
        let plan = mgr.map_cached(&w, &PriorityMode::Dynamic);
        let w_perm = Workload::from_ids([ModelId::MobileNet, ModelId::AlexNet, ModelId::GoogleNet]);
        let hit = mgr.map_cached(&w_perm, &PriorityMode::Dynamic);
        assert_eq!(hit.evaluations, 0, "permuted set must hit the canonical key");
        // Each model keeps its cached placement.
        assert_eq!(hit.mapping.assignment(0), plan.mapping.assignment(2));
        assert_eq!(hit.mapping.assignment(1), plan.mapping.assignment(0));
        assert_eq!(hit.mapping.assignment(2), plan.mapping.assignment(1));
    }
}
