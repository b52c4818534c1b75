//! Shared contention model: compiling a mapped workload into stages and
//! inflating stage times for co-location effects.

use crate::cost::CostModel;
use crate::generational::GenerationalMap;
use crate::workload::{Mapping, Workload};
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex};

/// Tunables of the contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionParams {
    /// Cache-sensitivity strength: how much a fully cache-resident-hostile
    /// co-runner inflates a fully cache-sensitive stage.
    pub theta: f64,
    /// Super-linearity of thrash: the cache term is raised to this power.
    /// Real boards fall off a cliff when one more heavyweight joins an
    /// already-saturated component (the paper's baseline collapses from
    /// P ≈ 0.08 at 3 DNNs to P ≈ 0.005 at 4–5); `kappa > 1` reproduces
    /// that knee.
    pub kappa: f64,
    /// Per-extra-co-located-stage scheduling overhead (context switches,
    /// command-queue churn).
    pub alpha: f64,
}

impl Default for ContentionParams {
    fn default() -> Self {
        Self { theta: 1.1, kappa: 1.25, alpha: 0.02 }
    }
}

/// One pipeline stage after compilation: isolated time, placement, and the
/// data needed by both engines.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStage {
    /// Component executing the stage.
    pub component: ComponentId,
    /// Isolated execution seconds (roofline).
    pub base_seconds: f64,
    /// Execution seconds after co-location inflation.
    pub inflated_seconds: f64,
    /// Working set in bytes (weights + peak activations).
    pub working_set: f64,
    /// Seconds to ship this stage's output to the next stage (0 when the
    /// next stage shares the component, or for the last stage).
    pub transfer_out_seconds: f64,
    /// Number of kernel launches per frame (one per layer). Components
    /// interleave co-located stages at kernel granularity, so many-kernel
    /// stages pay proportionally more queueing.
    pub kernel_count: usize,
    /// Whether the hosting component time-shares preemptively (CPU clusters
    /// under the OS scheduler) or only at kernel boundaries (GPU/NPU command
    /// queues). Preemptive sharing degrades gracefully; non-preemptive
    /// sharing makes a saturated component catastrophic for everyone.
    pub preemptive: bool,
}

impl CompiledStage {
    /// Mean kernel duration under contention — the round-robin interleaving
    /// quantum of this stage.
    pub fn mean_kernel_seconds(&self) -> f64 {
        self.inflated_seconds / self.kernel_count.max(1) as f64
    }
}

/// A workload+mapping compiled into per-DNN stage lists with inflated
/// times. Both the analytical and event engines consume this.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkload {
    /// `stages[d]` is DNN `d`'s pipeline.
    pub stages: Vec<Vec<CompiledStage>>,
    /// Number of platform components.
    pub component_count: usize,
}

impl CompiledWorkload {
    /// Compiles a mapping: fuse stages, price them in isolation, then apply
    /// the cache-sensitivity inflation described in the crate docs.
    ///
    /// One-shot path: prices only the stages the mapping actually uses.
    /// Callers that evaluate many mappings of the *same* workload (every
    /// oracle in the search loop) should build a [`WorkloadCosts`] table
    /// once — or use a [`CompileCache`] — and call
    /// [`WorkloadCosts::compile`] per mapping instead; the results are
    /// bit-identical (asserted in tests).
    ///
    /// # Panics
    ///
    /// Panics if the mapping does not validate against the workload and
    /// platform (callers validate at API boundaries).
    pub fn compile(
        platform: &Platform,
        workload: &Workload,
        mapping: &Mapping,
        params: ContentionParams,
    ) -> Self {
        mapping
            .validate(workload, platform.component_count())
            .expect("mapping must be valid for this workload/platform");
        let cost = CostModel::new(platform);
        let mut stages: Vec<Vec<CompiledStage>> = Vec::with_capacity(workload.len());
        for (d, model) in workload.models().iter().enumerate() {
            let specs = mapping.stages(d);
            let mut list = Vec::with_capacity(specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let base = cost.stage_seconds(model, spec.unit_range.clone(), spec.component);
                let ws = cost.stage_working_set(model, spec.unit_range.clone());
                let transfer = if i + 1 < specs.len() {
                    let bytes =
                        model.units()[spec.unit_range.end - 1].output_shape().bytes() as f64;
                    cost.transfer_seconds(bytes, spec.component, specs[i + 1].component)
                } else {
                    0.0
                };
                let kernels: usize = model.units()[spec.unit_range.clone()]
                    .iter()
                    .map(|u| u.kernel_count())
                    .sum();
                let preemptive = !matches!(
                    platform.component(spec.component).kind(),
                    rankmap_platform::ComponentKind::Gpu | rankmap_platform::ComponentKind::Npu
                );
                list.push(CompiledStage {
                    component: spec.component,
                    base_seconds: base,
                    inflated_seconds: base, // filled in below
                    working_set: ws,
                    transfer_out_seconds: transfer,
                    kernel_count: kernels,
                    preemptive,
                });
            }
            stages.push(list);
        }
        let cache_bytes: Vec<f64> = (0..platform.component_count())
            .map(|c| platform.cache_bytes(ComponentId::new(c)))
            .collect();
        let mut compiled = Self { stages, component_count: platform.component_count() };
        compiled.apply_inflation(&cache_bytes, params);
        compiled
    }

    /// Cache-sensitivity inflation. For a stage `s` of DNN `d` on
    /// component `p` (with `soft(x) = x / (x + cache_p)` ∈ [0, 1)):
    ///
    /// ```text
    /// footprint(d,p) = soft(Σ_{stages of d on p} ws)
    /// pressure(p)    = Σ_d footprint(d, p)                     < N
    /// sens(s)        = soft(ws(s))
    /// inflate(s)     = (1 + θ·sens(s)·(pressure(p) − footprint(d,p)))^κ
    ///                  + α·(n_p − 1)
    /// ```
    ///
    /// Pressure is accumulated per *DNN*, not per stage, so partitioning a
    /// network more finely does not magically multiply its cache footprint;
    /// only genuinely distinct co-runners thrash each other. Heavy stages
    /// (large working set) both create pressure and are sensitive to it,
    /// and `κ > 1` makes co-locating several heavyweights super-linearly
    /// bad — the phenomenon that lets greedy managers starve
    /// Inception-class models on the real board.
    fn apply_inflation(&mut self, cache_bytes: &[f64], params: ContentionParams) {
        let n = self.component_count;
        let d_count = self.stages.len();
        let soft = |ws: f64, cache: f64| ws / (ws + cache);
        // footprint[d * n + p]: per-DNN working set on component p, summed
        // and then softened in place.
        let mut footprint = vec![0.0f64; d_count * n];
        let mut counts = vec![0usize; n];
        for (d, dnn) in self.stages.iter().enumerate() {
            for s in dnn {
                footprint[d * n + s.component.index()] += s.working_set;
                counts[s.component.index()] += 1;
            }
        }
        for row in footprint.chunks_exact_mut(n.max(1)) {
            for (p, fp) in row.iter_mut().enumerate() {
                *fp = soft(*fp, cache_bytes[p]);
            }
        }
        let pressure: Vec<f64> =
            (0..n).map(|p| (0..d_count).map(|d| footprint[d * n + p]).sum()).collect();
        for (d, dnn) in self.stages.iter_mut().enumerate() {
            for s in dnn.iter_mut() {
                let p = s.component.index();
                let sens = soft(s.working_set, cache_bytes[p]);
                let others = (pressure[p] - footprint[d * n + p]).max(0.0);
                let co = counts[p].saturating_sub(1) as f64;
                let inflate =
                    (1.0 + params.theta * sens * others).powf(params.kappa) + params.alpha * co;
                s.inflated_seconds = s.base_seconds * inflate;
            }
        }
    }

    /// Number of DNNs.
    pub fn dnn_count(&self) -> usize {
        self.stages.len()
    }

    /// Isolated pipeline rate bound per DNN (using inflated times):
    /// `1 / max(stage, transfer)` along the pipeline.
    pub fn pipeline_bound(&self, dnn: usize) -> f64 {
        let mut bottleneck: f64 = 0.0;
        for s in &self.stages[dnn] {
            bottleneck = bottleneck.max(s.inflated_seconds).max(s.transfer_out_seconds);
        }
        if bottleneck <= 0.0 {
            0.0
        } else {
            1.0 / bottleneck
        }
    }

    /// Stages grouped per component: `(dnn, stage_idx)` pairs.
    pub fn stages_by_component(&self) -> Vec<Vec<(usize, usize)>> {
        let mut by_comp = vec![Vec::new(); self.component_count];
        for (d, dnn) in self.stages.iter().enumerate() {
            for (k, s) in dnn.iter().enumerate() {
                by_comp[s.component.index()].push((d, k));
            }
        }
        by_comp
    }
}

/// Pre-priced workload: every unit's isolated cost on every component,
/// computed once per workload instead of once per oracle query.
///
/// Compiling a mapping only needs per-stage *sums* of per-unit values; the
/// per-unit values themselves (a roofline walk over every layer) never
/// change while the workload is fixed, yet the seed implementation
/// recomputed them on every `CompiledWorkload::compile` — thousands of
/// times per search. This table hoists that work out of the hot loop:
/// [`WorkloadCosts::compile`] is a cheap range-sum pass that produces a
/// `CompiledWorkload` bit-identical to the direct path.
#[derive(Debug, Clone)]
pub struct WorkloadCosts {
    platform: Platform,
    /// `unit_seconds[d][c][u]`: isolated seconds of unit `u` of DNN `d`
    /// on component `c`.
    unit_seconds: Vec<Vec<Vec<f64>>>,
    /// `unit_weight_bytes[d][u]`.
    unit_weight_bytes: Vec<Vec<u64>>,
    /// `unit_peak_activation[d][u]`.
    unit_peak_activation: Vec<Vec<u64>>,
    /// `unit_kernels[d][u]`.
    unit_kernels: Vec<Vec<usize>>,
    /// `unit_out_bytes[d][u]`: bytes crossing a stage boundary after `u`.
    unit_out_bytes: Vec<Vec<f64>>,
    /// Per-component preemptive flag.
    preemptive: Vec<bool>,
    /// Per-component cache capacity (bytes).
    cache_bytes: Vec<f64>,
}

impl WorkloadCosts {
    /// Prices every unit of `workload` on every component of `platform`.
    pub fn new(platform: &Platform, workload: &Workload) -> Self {
        let cost = CostModel::new(platform);
        let comps = platform.component_count();
        let mut unit_seconds = Vec::with_capacity(workload.len());
        let mut unit_weight_bytes = Vec::with_capacity(workload.len());
        let mut unit_peak_activation = Vec::with_capacity(workload.len());
        let mut unit_kernels = Vec::with_capacity(workload.len());
        let mut unit_out_bytes = Vec::with_capacity(workload.len());
        for model in workload.models() {
            let units = model.units();
            unit_seconds.push(
                (0..comps)
                    .map(|c| {
                        let cid = ComponentId::new(c);
                        units.iter().map(|u| cost.unit_seconds(u, cid)).collect()
                    })
                    .collect(),
            );
            unit_weight_bytes.push(units.iter().map(|u| u.weight_bytes()).collect());
            unit_peak_activation
                .push(units.iter().map(|u| u.peak_activation_bytes()).collect());
            unit_kernels.push(units.iter().map(|u| u.kernel_count()).collect());
            unit_out_bytes
                .push(units.iter().map(|u| u.output_shape().bytes() as f64).collect());
        }
        let preemptive = (0..comps)
            .map(|c| {
                !matches!(
                    platform.component(ComponentId::new(c)).kind(),
                    rankmap_platform::ComponentKind::Gpu | rankmap_platform::ComponentKind::Npu
                )
            })
            .collect();
        let cache_bytes =
            (0..comps).map(|c| platform.cache_bytes(ComponentId::new(c))).collect();
        Self {
            platform: platform.clone(),
            unit_seconds,
            unit_weight_bytes,
            unit_peak_activation,
            unit_kernels,
            unit_out_bytes,
            preemptive,
            cache_bytes,
        }
    }

    /// Compiles one mapping of the priced workload — the hot-loop
    /// equivalent of [`CompiledWorkload::compile`].
    ///
    /// # Panics
    ///
    /// Panics if the mapping does not validate against the workload and
    /// platform.
    pub fn compile(
        &self,
        workload: &Workload,
        mapping: &Mapping,
        params: ContentionParams,
    ) -> CompiledWorkload {
        mapping
            .validate(workload, self.platform.component_count())
            .expect("mapping must be valid for this workload/platform");
        let cost = CostModel::new(&self.platform);
        let mut stages: Vec<Vec<CompiledStage>> = Vec::with_capacity(self.unit_seconds.len());
        for d in 0..self.unit_seconds.len() {
            // Walk the maximal same-component runs of the assignment
            // directly (the stages `Mapping::stages` would list).
            let assign = mapping.assignment(d);
            let runs = 1 + assign.windows(2).filter(|pair| pair[0] != pair[1]).count();
            let mut list = Vec::with_capacity(runs);
            let mut start = 0;
            for end in 1..=assign.len() {
                let component = assign[start];
                if end < assign.len() && assign[end] == component {
                    continue;
                }
                let c = component.index();
                let range = start..end;
                let base: f64 = self.unit_seconds[d][c][range.clone()].iter().sum();
                let weights: u64 = self.unit_weight_bytes[d][range.clone()].iter().sum();
                let peak_act = self.unit_peak_activation[d][range.clone()]
                    .iter()
                    .max()
                    .copied()
                    .unwrap_or(0);
                let transfer = if end < assign.len() {
                    cost.transfer_seconds(self.unit_out_bytes[d][end - 1], component, assign[end])
                } else {
                    0.0
                };
                let kernels: usize = self.unit_kernels[d][range].iter().sum();
                list.push(CompiledStage {
                    component,
                    base_seconds: base,
                    inflated_seconds: base, // filled in below
                    working_set: (weights + peak_act) as f64,
                    transfer_out_seconds: transfer,
                    kernel_count: kernels,
                    preemptive: self.preemptive[c],
                });
                start = end;
            }
            stages.push(list);
        }
        let mut compiled = CompiledWorkload {
            stages,
            component_count: self.platform.component_count(),
        };
        compiled.apply_inflation(&self.cache_bytes, params);
        compiled
    }
}

/// Model mixes a [`CompileCache`] keeps priced at most. One entry
/// measured 3.7 KB of heap on the Orange Pi 5 preset and 4.2 KB on the
/// Jetson Orin NX (mean over random 1–4-DNN mixes, key and table
/// included), so a full cache holds about 4 MB.
pub const COMPILE_CACHE_BOUND: usize = 1_024;

/// Memoized [`WorkloadCosts`] keyed by model mix: the oracle-facing cache
/// that stops `BoardOracle`/`AnalyticalOracle` re-pricing the workload on
/// every query. Thread-safe; clones share nothing (each oracle owns one).
///
/// At most [`COMPILE_CACHE_BOUND`] mixes are kept, evicted generationally
/// ([`GenerationalMap`]), so a mix in use stays priced. Costs are a pure
/// function of the mix, so an eviction only costs a re-pricing. Lookups
/// hash the model ids straight from the workload, without building a
/// key.
///
/// A cache binds to the first platform it prices for — mixing platforms
/// in one cache would silently serve stale costs, so it panics instead.
#[derive(Debug)]
pub struct CompileCache {
    inner: Mutex<CostsMap>,
    bound_platform: std::sync::OnceLock<Platform>,
}

type CostsMap =
    GenerationalMap<Box<[ModelId]>, Arc<WorkloadCosts>, BuildHasherDefault<IdHasher>>;

impl Default for CompileCache {
    fn default() -> Self {
        Self {
            inner: Mutex::new(GenerationalMap::new(COMPILE_CACHE_BOUND)),
            bound_platform: std::sync::OnceLock::new(),
        }
    }
}

/// A multiply-rotate hasher for the model-id keys: they are short,
/// internal and not attacker-chosen, so SipHash's strength buys nothing.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Calls `f` with the workload's model ids in order, from a stack buffer
/// when the workload is small enough.
fn with_ids<R>(workload: &Workload, f: impl FnOnce(&[ModelId]) -> R) -> R {
    const INLINE: usize = 16;
    let models = workload.models();
    if models.len() > INLINE {
        return f(&models.iter().map(|m| m.id()).collect::<Vec<_>>());
    }
    let mut ids = [ModelId::AlexNet; INLINE];
    for (slot, m) in ids.iter_mut().zip(models) {
        *slot = m.id();
    }
    f(&ids[..models.len()])
}

impl CompileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The priced costs for `workload`, computing them on first sight of
    /// this model mix (or again after its eviction).
    ///
    /// # Panics
    ///
    /// Panics if called with a different platform than the first call.
    pub fn costs(&self, platform: &Platform, workload: &Workload) -> Arc<WorkloadCosts> {
        let bound = self.bound_platform.get_or_init(|| platform.clone());
        assert_eq!(
            bound, platform,
            "CompileCache is bound to one platform; use a separate cache per platform"
        );
        if let Some(costs) = with_ids(workload, |ids| self.lock().get(ids)) {
            return costs;
        }
        // Priced outside the lock: a racing miss only prices the same mix
        // twice.
        let costs = Arc::new(WorkloadCosts::new(platform, workload));
        let key: Box<[ModelId]> = workload.models().iter().map(|m| m.id()).collect();
        self.lock().insert(key, Arc::clone(&costs));
        costs
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CostsMap> {
        self.inner.lock().expect("compile cache poisoned")
    }

    /// Number of model mixes priced and still held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_models::ModelId;
    use rankmap_platform::Platform;

    fn compile_uniform(ids: &[ModelId]) -> CompiledWorkload {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids(ids.iter().copied());
        let m = Mapping::uniform(&w, ComponentId::new(0));
        CompiledWorkload::compile(&p, &w, &m, ContentionParams::default())
    }

    #[test]
    fn single_dnn_alone_not_inflated() {
        let c = compile_uniform(&[ModelId::AlexNet]);
        let s = &c.stages[0][0];
        assert!((s.inflated_seconds - s.base_seconds).abs() / s.base_seconds < 1e-9);
    }

    #[test]
    fn co_location_inflates() {
        let alone = compile_uniform(&[ModelId::ResNet50]);
        let shared = compile_uniform(&[ModelId::ResNet50, ModelId::Vgg16, ModelId::InceptionV4]);
        let t_alone = alone.stages[0][0].inflated_seconds;
        let t_shared = shared.stages[0][0].inflated_seconds;
        assert!(
            t_shared > t_alone * 1.5,
            "heavy co-location should inflate ResNet-50 noticeably: {t_alone} -> {t_shared}"
        );
    }

    #[test]
    fn heavy_stages_suffer_more_than_light() {
        let shared = compile_uniform(&[ModelId::InceptionV4, ModelId::SqueezeNetV2]);
        let heavy = &shared.stages[0][0];
        let light = &shared.stages[1][0];
        let heavy_ratio = heavy.inflated_seconds / heavy.base_seconds;
        let light_ratio = light.inflated_seconds / light.base_seconds;
        assert!(
            heavy_ratio >= light_ratio,
            "cache-sensitive (heavy) stage must inflate at least as much: {heavy_ratio} vs {light_ratio}"
        );
    }

    #[test]
    fn pipeline_bound_positive() {
        let c = compile_uniform(&[ModelId::MobileNet]);
        assert!(c.pipeline_bound(0) > 0.0);
    }

    #[test]
    fn stages_by_component_partition() {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNetV2]);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let m = Mapping::random(&w, 3, &mut rng);
        let c = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
        let by_comp = c.stages_by_component();
        let total: usize = by_comp.iter().map(Vec::len).sum();
        let expect: usize = (0..w.len()).map(|d| m.stages(d).len()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn cached_compile_is_bit_identical() {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([
            ModelId::AlexNet,
            ModelId::MobileNetV2,
            ModelId::ResNet50,
        ]);
        let costs = WorkloadCosts::new(&p, &w);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(77);
        for _ in 0..20 {
            let m = Mapping::random(&w, 3, &mut rng);
            let direct = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
            let cached = costs.compile(&w, &m, ContentionParams::default());
            assert_eq!(direct, cached, "cost-table compile must match the direct path");
        }
    }

    #[test]
    fn compile_cache_memoizes_by_mix() {
        let p = Platform::orange_pi_5();
        let cache = CompileCache::new();
        let w1 = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let w2 = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let w3 = Workload::from_ids([ModelId::MobileNet, ModelId::AlexNet]);
        let a = cache.costs(&p, &w1);
        let b = cache.costs(&p, &w2);
        assert!(Arc::ptr_eq(&a, &b), "same mix must hit the cache");
        let _ = cache.costs(&p, &w3);
        assert_eq!(cache.len(), 2, "order matters: a different mix is a new entry");
    }

    #[test]
    fn compile_cache_stays_bounded_and_keeps_a_mix_in_use() {
        let p = Platform::orange_pi_5();
        let cache = CompileCache::new();
        let all = ModelId::all();
        let hot = Workload::from_ids([ModelId::AlexNet; 20]);
        let first = cache.costs(&p, &hot);
        for i in 0..2 * COMPILE_CACHE_BOUND {
            let w = Workload::from_ids([all[i % 24], all[i / 24 % 24], all[i / 576 % 24]]);
            let _ = cache.costs(&p, &w);
            assert!(cache.len() <= COMPILE_CACHE_BOUND, "the cache must stay bounded");
            if i % 256 == 0 {
                assert!(Arc::ptr_eq(&cache.costs(&p, &hot), &first), "a mix in use stays priced");
            }
        }
        // An evicted mix is priced again, to the same costs.
        let w = Workload::from_ids([all[0], all[0], all[0]]);
        let m = Mapping::uniform(&w, ComponentId::new(1));
        let params = ContentionParams::default();
        assert_eq!(
            cache.costs(&p, &w).compile(&w, &m, params),
            CompiledWorkload::compile(&p, &w, &m, params)
        );
    }

    #[test]
    fn inflation_bounded() {
        // Even a pathological all-on-LITTLE pile-up keeps inflation finite
        // and below ~1 + θ·max_pressure + α·n.
        let p = Platform::orange_pi_5();
        let ids = [
            ModelId::Vgg16,
            ModelId::Vgg19,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::DenseNet121,
        ];
        let w = Workload::from_ids(ids);
        let m = Mapping::uniform(&w, ComponentId::new(2));
        let c = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
        for dnn in &c.stages {
            for s in dnn {
                let ratio = s.inflated_seconds / s.base_seconds;
                assert!((1.0..80.0).contains(&ratio), "inflation ratio {ratio} out of bounds");
            }
        }
    }
}
