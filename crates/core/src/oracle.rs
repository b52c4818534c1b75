//! Throughput oracles: what the search consults to score a mapping.

use rankmap_estimator::{CompiledStem, EmbeddingTable, Estimator, QTensorSpec, VqVae};
use rankmap_models::ModelId;
use rankmap_platform::Platform;
use rankmap_sim::{
    AnalyticalEngine, EventEngine, GenerationalMap, Mapping, PriceTable, Workload, WorkloadCosts,
};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Ideal-rate lookup used to convert potential throughput back to inf/s.
pub type IdealFn = Box<dyn Fn(rankmap_models::ModelId) -> f64 + Send + Sync>;

/// Predicts per-DNN throughput (inferences/second) for a candidate mapping.
///
/// The paper's RankMap uses the trained multi-task CNN
/// ([`LearnedOracle`]); [`AnalyticalOracle`] swaps in the closed-form
/// contention model (an ablation), and [`BoardOracle`] queries the
/// discrete-event simulator directly (ground truth — what the paper's GA
/// baseline does on the real board, slowly).
///
/// All oracles are `Send + Sync`: one instance serves any number of
/// search threads concurrently (the batched MCTS fans a round of rollouts
/// across the thread pool), and a `&Oracle` can ride inside per-shard
/// state that the fleet executor hands to worker threads between event
/// barriers.
pub trait ThroughputOracle: Send + Sync {
    /// Predicted throughput of every DNN in `workload` under `mapping`.
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64>;

    /// Predicted throughputs for a whole batch of mappings — the search
    /// hot path. The default maps [`ThroughputOracle::predict`];
    /// implementations override it to amortize per-query work (stacked
    /// estimator matmuls, shared model pricing, thread-pool
    /// fan-out).
    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        mappings.iter().map(|m| self.predict(workload, m)).collect()
    }

    /// Predicted throughputs for a whole *group* of `(workload, candidate
    /// mappings)` queries — the fleet placement hot path, where one
    /// arrival is scored against every shard of a platform at once.
    /// `out[q][m][d]` is DNN `d`'s predicted throughput under mapping `m`
    /// of query `q`. The default answers each query through
    /// [`ThroughputOracle::predict_batch`]; implementations override it
    /// to fuse the whole group into one evaluation pass (shared workload
    /// pricing, one thread-pool fan-out instead of one per query).
    fn predict_grouped(&self, queries: &[(&Workload, &[Mapping])]) -> Vec<Vec<Vec<f64>>> {
        queries.iter().map(|(w, ms)| self.predict_batch(w, ms)).collect()
    }

    /// Human-readable oracle name (for run-time reports).
    fn name(&self) -> &'static str;
}

/// Shared fused-group implementation for the simulator-backed oracles:
/// look every query's models up in the price table once, then fan the
/// flattened `(query, mapping)` pairs across one parallel pass instead of
/// one dispatch per query.
fn grouped_via_flat_pairs<E>(
    platform: &Platform,
    prices: &PriceTable,
    queries: &[(&Workload, &[Mapping])],
    evaluate: E,
) -> Vec<Vec<Vec<f64>>>
where
    E: Fn(&WorkloadCosts, &Workload, &Mapping) -> Vec<f64> + Sync,
{
    let costs: Vec<_> = queries.iter().map(|(w, _)| prices.costs(platform, w)).collect();
    let flat: Vec<(usize, &Mapping)> = queries
        .iter()
        .enumerate()
        .flat_map(|(q, (_, ms))| ms.iter().map(move |m| (q, m)))
        .collect();
    let mut per_pair = rayon::iter::par_map_slice(&flat, &|&(q, m)| {
        evaluate(&costs[q], queries[q].0, m)
    })
    .into_iter();
    queries
        .iter()
        .map(|(_, ms)| (0..ms.len()).map(|_| per_pair.next().expect("one result per pair")).collect())
        .collect()
}

/// Oracle backed by the analytical contention solver.
///
/// Holds a [`PriceTable`], so each model is priced once for the oracle's
/// platform and no query walks the roofline.
#[derive(Debug)]
pub struct AnalyticalOracle<'p> {
    platform: &'p Platform,
    engine: AnalyticalEngine<'p>,
    prices: PriceTable,
}

impl<'p> AnalyticalOracle<'p> {
    /// Creates the oracle over a platform.
    pub fn new(platform: &'p Platform) -> Self {
        Self { platform, engine: AnalyticalEngine::new(platform), prices: PriceTable::new() }
    }
}

impl ThroughputOracle for AnalyticalOracle<'_> {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        let costs = self.prices.costs(self.platform, workload);
        self.engine.evaluate_with(&costs, workload, mapping).per_dnn
    }

    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        let costs = self.prices.costs(self.platform, workload);
        rayon::iter::par_map_slice(mappings, &|m| {
            self.engine.evaluate_with(&costs, workload, m).per_dnn
        })
    }

    fn predict_grouped(&self, queries: &[(&Workload, &[Mapping])]) -> Vec<Vec<Vec<f64>>> {
        grouped_via_flat_pairs(self.platform, &self.prices, queries, |costs, w, m| {
            self.engine.evaluate_with(costs, w, m).per_dnn
        })
    }

    fn name(&self) -> &'static str {
        "analytical"
    }
}

/// Oracle that runs the discrete-event simulator for every query — exact
/// but orders of magnitude slower; this is what "evaluating on the board"
/// costs the GA baseline. Models are still priced once (a [`PriceTable`])
/// so only the event loop itself is paid per query.
#[derive(Debug)]
pub struct BoardOracle<'p> {
    platform: &'p Platform,
    engine: EventEngine<'p>,
    prices: PriceTable,
}

impl<'p> BoardOracle<'p> {
    /// Creates the oracle over a platform (quick simulation window).
    pub fn new(platform: &'p Platform) -> Self {
        Self { platform, engine: EventEngine::quick(platform), prices: PriceTable::new() }
    }

    /// Uses a custom engine (e.g. longer windows).
    pub fn with_engine(platform: &'p Platform, engine: EventEngine<'p>) -> Self {
        Self { platform, engine, prices: PriceTable::new() }
    }
}

impl ThroughputOracle for BoardOracle<'_> {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        let costs = self.prices.costs(self.platform, workload);
        self.engine.evaluate_with(&costs, workload, mapping).per_dnn
    }

    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        let costs = self.prices.costs(self.platform, workload);
        rayon::iter::par_map_slice(mappings, &|m| {
            self.engine.evaluate_with(&costs, workload, m).per_dnn
        })
    }

    fn predict_grouped(&self, queries: &[(&Workload, &[Mapping])]) -> Vec<Vec<Vec<f64>>> {
        grouped_via_flat_pairs(self.platform, &self.prices, queries, |costs, w, m| {
            self.engine.evaluate_with(costs, w, m).per_dnn
        })
    }

    fn name(&self) -> &'static str {
        "board"
    }
}

/// Compiled stems a [`LearnedOracle`] keeps at most. One stem measured
/// 283 KB of heap with the paper estimator and 119 KB with the quick one
/// (mean over random 1–4-DNN mixes, 541 KB at most), so a full cache
/// holds about 9 MB. Eviction is generational ([`GenerationalMap`]): a
/// mix in use stays compiled, and an evicted one is compiled again, to
/// the same stem.
pub const STEM_CACHE_BOUND: usize = 32;

/// Oracle backed by the trained VQ-VAE + multi-task estimator: the paper's
/// configuration. Predicts potential throughput per slot and scales by the
/// per-model ideal rates.
///
/// Thread-safe by construction: the VQ-VAE and estimator are frozen and
/// queried through `&self` (no `RefCell`, no locks on the hot path); only
/// the lazily grown embedding table sits behind a `RwLock`, and steady
/// state takes the read side exclusively. Batched queries run the
/// estimator's decoder heads as one stacked matmul per stream and fan the
/// shared backbone across the thread pool.
pub struct LearnedOracle {
    vqvae: VqVae,
    embeddings: RwLock<EmbeddingTable>,
    estimator: Estimator,
    spec: QTensorSpec,
    /// Per-mix compiled stems (see [`Estimator::compile_stem`]), at most
    /// [`STEM_CACHE_BOUND`]: queries skip both `Q` assembly and the stem
    /// convolution.
    stems: Mutex<GenerationalMap<Box<[ModelId]>, Arc<CompiledStem>>>,
    /// Ideal (isolated-on-GPU) rates per model id, resolved lazily.
    ideal_fn: IdealFn,
}

impl LearnedOracle {
    /// Assembles the oracle from trained parts and an ideal-rate lookup.
    pub fn new(
        vqvae: VqVae,
        embeddings: EmbeddingTable,
        estimator: Estimator,
        ideal_fn: IdealFn,
    ) -> Self {
        let spec = estimator.config().spec;
        Self {
            vqvae,
            embeddings: RwLock::new(embeddings),
            estimator,
            spec,
            stems: Mutex::new(GenerationalMap::new(STEM_CACHE_BOUND)),
            ideal_fn,
        }
    }

    /// The estimator's input geometry.
    pub fn spec(&self) -> QTensorSpec {
        self.spec
    }

    /// Makes sure every model of `workload` has frozen unit embeddings,
    /// taking the write lock only when something is actually missing.
    fn ensure_embeddings(&self, workload: &Workload) {
        let complete = self
            .embeddings
            .read()
            .expect("embedding table poisoned")
            .contains_all(workload.models());
        if !complete {
            let mut table = self.embeddings.write().expect("embedding table poisoned");
            for m in workload.models() {
                table.ensure_frozen(&self.vqvae, m);
            }
        }
    }

    /// The compiled stem for `workload`, built on first sight of the mix
    /// (or again after its eviction).
    fn compiled_stem(&self, workload: &Workload) -> Arc<CompiledStem> {
        let key: Box<[ModelId]> = workload.models().iter().map(|m| m.id()).collect();
        if let Some(stem) = self.lock_stems().get(&key) {
            return stem;
        }
        // Compiled outside the lock: a racing miss only compiles the same
        // mix twice.
        let stem = {
            let table = self.embeddings.read().expect("embedding table poisoned");
            Arc::new(self.estimator.compile_stem(&table, workload))
        };
        self.lock_stems().insert(key, Arc::clone(&stem));
        stem
    }

    fn lock_stems(&self) -> MutexGuard<'_, GenerationalMap<Box<[ModelId]>, Arc<CompiledStem>>> {
        self.stems.lock().expect("stem cache poisoned")
    }

    /// Converts per-slot potentials to per-DNN inf/s.
    fn scale_by_ideals(&self, workload: &Workload, preds: &[f32]) -> Vec<f64> {
        workload
            .models()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let ideal = (self.ideal_fn)(m.id());
                (preds[i].max(0.0) as f64) * ideal
            })
            .collect()
    }
}

impl ThroughputOracle for LearnedOracle {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        self.ensure_embeddings(workload);
        let stem = self.compiled_stem(workload);
        let preds = self
            .estimator
            .infer_slots_from_stem(stem.stem_output(mapping), workload.len());
        self.scale_by_ideals(workload, &preds)
    }

    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        self.ensure_embeddings(workload);
        let stem = self.compiled_stem(workload);
        let stem_outs: Vec<_> = mappings.iter().map(|m| stem.stem_output(m)).collect();
        let preds = self.estimator.infer_batch_slots_from_stem(stem_outs, workload.len());
        preds.iter().map(|p| self.scale_by_ideals(workload, p)).collect()
    }

    fn name(&self) -> &'static str {
        "learned"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_estimator::{EstimatorConfig, VqVaeConfig};
    use rankmap_models::ModelId;
    use rankmap_platform::ComponentId;
    use rankmap_sim::EventEngine;

    #[test]
    fn analytical_oracle_positive() {
        let p = Platform::orange_pi_5();
        let o = AnalyticalOracle::new(&p);
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        let t = o.predict(&w, &m);
        assert_eq!(t.len(), 1);
        assert!(t[0] > 0.0);
        assert_eq!(o.name(), "analytical");
    }

    #[test]
    fn board_oracle_matches_event_engine() {
        let p = Platform::orange_pi_5();
        let o = BoardOracle::new(&p);
        let w = Workload::from_ids([ModelId::SqueezeNetV2]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        let direct = EventEngine::quick(&p).evaluate(&w, &m).per_dnn;
        assert_eq!(o.predict(&w, &m), direct);
    }

    #[test]
    fn learned_oracle_scales_by_ideal() {
        let mut vq = VqVae::new(VqVaeConfig::default(), 0);
        let w = Workload::from_ids([ModelId::AlexNet]);
        let emb = EmbeddingTable::build(&mut vq, w.models());
        let est = Estimator::new(EstimatorConfig::quick(), 0);
        let oracle = LearnedOracle::new(vq, emb, est, Box::new(|_| 40.0));
        let m = Mapping::uniform(&w, ComponentId::new(0));
        let t = oracle.predict(&w, &m);
        assert_eq!(t.len(), 1);
        assert!(t[0] >= 0.0, "negative predictions must be clamped");
    }

    #[test]
    fn learned_oracle_builds_missing_embeddings_lazily() {
        let vq = VqVae::new(VqVaeConfig::default(), 1);
        let est = Estimator::new(EstimatorConfig::quick(), 1);
        // Empty table: every model is missing at first query.
        let oracle =
            LearnedOracle::new(vq, EmbeddingTable::default(), est, Box::new(|_| 10.0));
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let m = Mapping::uniform(&w, ComponentId::new(1));
        let t = oracle.predict(&w, &m);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn stem_cache_stays_bounded_and_recompiles_evicted_mixes_exactly() {
        let vq = VqVae::new(VqVaeConfig::default(), 2);
        let est = Estimator::new(EstimatorConfig::quick(), 2);
        let oracle =
            LearnedOracle::new(vq, EmbeddingTable::default(), est, Box::new(|_| 10.0));
        let all = ModelId::all();
        let first = Workload::from_ids([all[0], all[1]]);
        let mappings: Vec<Mapping> =
            (0..3).map(|c| Mapping::uniform(&first, ComponentId::new(c))).collect();
        let bits = |preds: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            preds.iter().map(|p| p.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let before = bits(oracle.predict_batch(&first, &mappings));
        for i in 0..2 * STEM_CACHE_BOUND + 1 {
            let w = Workload::from_ids([all[i % 24], all[(i / 24 + 2) % 24]]);
            oracle.predict(&w, &Mapping::uniform(&w, ComponentId::new(i % 3)));
            assert!(oracle.lock_stems().len() <= STEM_CACHE_BOUND, "the cache must stay bounded");
        }
        let key: Box<[ModelId]> = [all[0], all[1]].into();
        assert!(oracle.lock_stems().get(&key).is_none(), "the first mix was evicted");
        assert_eq!(
            bits(oracle.predict_batch(&first, &mappings)),
            before,
            "an evicted stem compiles again to the same predictions"
        );
    }

    #[test]
    fn grouped_prediction_matches_per_query_batches() {
        // The fused fleet-scoring path must be bit-identical to the serial
        // per-shard path: grouping is an execution strategy, not a model.
        let p = Platform::orange_pi_5();
        let o = AnalyticalOracle::new(&p);
        let w1 = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
        let w2 = Workload::from_ids([ModelId::MobileNet]);
        let ms1: Vec<Mapping> =
            (0..3).map(|c| Mapping::uniform(&w1, ComponentId::new(c))).collect();
        let ms2: Vec<Mapping> =
            (0..3).map(|c| Mapping::uniform(&w2, ComponentId::new(c))).collect();
        let queries: Vec<(&Workload, &[Mapping])> = vec![(&w1, &ms1), (&w2, &ms2), (&w1, &ms1)];
        let grouped = o.predict_grouped(&queries);
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0], o.predict_batch(&w1, &ms1));
        assert_eq!(grouped[1], o.predict_batch(&w2, &ms2));
        assert_eq!(grouped[0], grouped[2], "identical queries answer identically");
    }

    #[test]
    fn oracles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalyticalOracle<'static>>();
        assert_send_sync::<BoardOracle<'static>>();
        assert_send_sync::<LearnedOracle>();
    }
}
