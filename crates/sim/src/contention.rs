//! Shared contention model: compiling a mapped workload into stages and
//! inflating stage times for co-location effects.
//!
//! Every compile runs through one function, `StageTable::compile`: it
//! walks each DNN's same-component runs, prices them and inflates them
//! into one flat table grouped by component. The analytical solver reads
//! that table as it is; [`CompiledWorkload`], what the event engine runs,
//! regroups it per DNN. Prices come either straight from the roofline
//! [`CostModel`] (one-shot compiles) or from per-model tables priced once
//! ([`WorkloadCosts`], shared per platform through a [`PriceTable`]).

use crate::cost::CostModel;
use crate::workload::{Mapping, Workload};
use rankmap_models::{DnnModel, ModelId};
use rankmap_platform::{ComponentId, ComponentKind, Platform};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
/// times: what the event engine runs.
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
    /// Callers that evaluate many mappings of the *same* models (every
    /// oracle in the search loop) should price them once, with a
    /// [`PriceTable`] or [`WorkloadCosts::new`], and call
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
        StageTable::compiled(&Direct::new(platform, workload), workload, mapping, params)
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

/// What a compile reads of the platform besides unit costs.
#[derive(Debug)]
struct PlatformFacts {
    /// Per-component cache capacity (bytes).
    cache_bytes: Vec<f64>,
    /// Per-component preemptive flag: CPU clusters time-share
    /// preemptively, GPU/NPU command queues only at kernel boundaries.
    preemptive: Vec<bool>,
}

impl PlatformFacts {
    fn new(platform: &Platform) -> Self {
        let comps = 0..platform.component_count();
        Self {
            cache_bytes: comps.clone().map(|c| platform.cache_bytes(ComponentId::new(c))).collect(),
            preemptive: comps.map(|c| is_preemptive(platform, c)).collect(),
        }
    }
}

fn is_preemptive(platform: &Platform, c: usize) -> bool {
    !matches!(
        platform.component(ComponentId::new(c)).kind(),
        ComponentKind::Gpu | ComponentKind::Npu
    )
}

/// Where a compile reads each stage's isolated costs from.
pub(crate) trait StagePrices {
    /// Number of platform components.
    fn component_count(&self) -> usize;

    /// Cache capacity of a component, bytes.
    fn cache_bytes(&self, c: usize) -> f64;

    /// Whether a component time-shares preemptively: CPU clusters do,
    /// GPU/NPU command queues switch only at kernel boundaries.
    fn preemptive(&self, c: usize) -> bool;

    /// Isolated seconds, working-set bytes (weights plus peak activation)
    /// and kernel launches of units `range` of DNN `d` on `component`.
    fn stage(&self, d: usize, component: ComponentId, range: Range<usize>) -> (f64, f64, usize);

    /// Seconds to ship the output of unit `u` of DNN `d` to another
    /// component.
    fn transfer(&self, d: usize, u: usize) -> f64;
}

/// One-shot prices: each stage priced with the roofline model on demand.
pub(crate) struct Direct<'a> {
    cost: CostModel<'a>,
    models: &'a [DnnModel],
}

impl<'a> Direct<'a> {
    pub(crate) fn new(platform: &'a Platform, workload: &'a Workload) -> Self {
        Self { cost: CostModel::new(platform), models: workload.models() }
    }
}

impl StagePrices for Direct<'_> {
    fn component_count(&self) -> usize {
        self.cost.platform().component_count()
    }

    fn cache_bytes(&self, c: usize) -> f64 {
        self.cost.platform().cache_bytes(ComponentId::new(c))
    }

    fn preemptive(&self, c: usize) -> bool {
        is_preemptive(self.cost.platform(), c)
    }

    fn stage(&self, d: usize, component: ComponentId, range: Range<usize>) -> (f64, f64, usize) {
        let model = &self.models[d];
        let kernels = model.units()[range.clone()].iter().map(|u| u.kernel_count()).sum();
        (
            self.cost.stage_seconds(model, range.clone(), component),
            self.cost.stage_working_set(model, range),
            kernels,
        )
    }

    fn transfer(&self, d: usize, u: usize) -> f64 {
        let bytes = self.models[d].units()[u].output_shape().bytes() as f64;
        self.cost.platform().transfer_link().transfer_seconds(bytes)
    }
}

/// One model's units priced on every component of a platform: all a
/// compile reads of the model, so compiling a mapping costs range sums
/// instead of a roofline walk over every layer.
#[derive(Debug)]
struct ModelPrices {
    units: usize,
    /// `seconds[c * units + u]`: isolated seconds of unit `u` on component
    /// `c`.
    seconds: Box<[f64]>,
    weight_bytes: Box<[u64]>,
    peak_activation: Box<[u64]>,
    kernels: Box<[usize]>,
    /// `transfer[u]`: seconds to ship unit `u`'s output to another
    /// component.
    transfer: Box<[f64]>,
}

impl ModelPrices {
    fn new(platform: &Platform, model: &DnnModel) -> Self {
        let cost = CostModel::new(platform);
        let units = model.units();
        let link = platform.transfer_link();
        Self {
            units: units.len(),
            seconds: (0..platform.component_count())
                .flat_map(|c| units.iter().map(move |u| (u, ComponentId::new(c))))
                .map(|(u, c)| cost.unit_seconds(u, c))
                .collect(),
            weight_bytes: units.iter().map(|u| u.weight_bytes()).collect(),
            peak_activation: units.iter().map(|u| u.peak_activation_bytes()).collect(),
            kernels: units.iter().map(|u| u.kernel_count()).collect(),
            transfer: units
                .iter()
                .map(|u| link.transfer_seconds(u.output_shape().bytes() as f64))
                .collect(),
        }
    }
}

/// Pre-priced workload: every unit's isolated cost on every component,
/// one shared per-model price entry per DNN, so compiling a mapping is a
/// cheap range-sum pass bit-identical to the one-shot
/// [`CompiledWorkload::compile`].
///
/// Built fresh by [`WorkloadCosts::new`], or from the entries a
/// [`PriceTable`] already holds (nothing priced twice).
#[derive(Debug, Clone)]
pub struct WorkloadCosts {
    facts: Arc<PlatformFacts>,
    models: Vec<Arc<ModelPrices>>,
}

impl WorkloadCosts {
    /// Prices every unit of `workload` on every component of `platform`.
    pub fn new(platform: &Platform, workload: &Workload) -> Self {
        Self {
            facts: Arc::new(PlatformFacts::new(platform)),
            models: workload
                .models()
                .iter()
                .map(|m| Arc::new(ModelPrices::new(platform, m)))
                .collect(),
        }
    }

    /// Compiles one mapping of the priced workload into per-DNN stage
    /// lists — the hot-loop equivalent of [`CompiledWorkload::compile`],
    /// for the event engine. (The analytical solver compiles straight
    /// into its own table instead, see
    /// [`crate::AnalyticalEngine::evaluate_with`].)
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
        StageTable::compiled(self, workload, mapping, params)
    }
}

impl StagePrices for WorkloadCosts {
    fn component_count(&self) -> usize {
        self.facts.cache_bytes.len()
    }

    fn cache_bytes(&self, c: usize) -> f64 {
        self.facts.cache_bytes[c]
    }

    fn preemptive(&self, c: usize) -> bool {
        self.facts.preemptive[c]
    }

    fn stage(&self, d: usize, component: ComponentId, range: Range<usize>) -> (f64, f64, usize) {
        let m = &self.models[d];
        let row = component.index() * m.units;
        let base: f64 = m.seconds[row + range.start..row + range.end].iter().sum();
        let weights: u64 = m.weight_bytes[range.clone()].iter().sum();
        let peak_act = m.peak_activation[range.clone()].iter().max().copied().unwrap_or(0);
        let kernels: usize = m.kernels[range].iter().sum();
        (base, (weights + peak_act) as f64, kernels)
    }

    fn transfer(&self, d: usize, u: usize) -> f64 {
        self.models[d].transfer[u]
    }
}

/// Every model the oracle meets, priced once for one platform: the
/// oracle-facing table that stops `AnalyticalOracle`/`BoardOracle`
/// re-pricing a workload on every query. Thread-safe; each oracle owns
/// one.
///
/// It holds at most one entry per registry model ([`ModelId`]), priced
/// on first use, never up front, and shared through an `Arc` by every
/// [`WorkloadCosts`] that names the model, so a mix not seen before costs
/// no roofline walk and nothing mix-sized is kept. Entries are keyed by
/// id: a workload must be built from registry models
/// ([`Workload::from_ids`]).
///
/// A table binds to the first platform it prices for — mixing platforms
/// in one table would silently serve stale costs, so it panics instead.
#[derive(Debug, Default)]
pub struct PriceTable {
    bound: OnceLock<BoundTable>,
}

#[derive(Debug)]
struct BoundTable {
    platform: Platform,
    facts: Arc<PlatformFacts>,
    /// `models[id as usize]`.
    models: Box<[OnceLock<Arc<ModelPrices>>]>,
}

impl PriceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The priced costs of `workload`, pricing each model on its first
    /// sight.
    ///
    /// # Panics
    ///
    /// Panics if called with a different platform than the first call.
    pub fn costs(&self, platform: &Platform, workload: &Workload) -> WorkloadCosts {
        let bound = self.bound.get_or_init(|| BoundTable {
            platform: platform.clone(),
            facts: Arc::new(PlatformFacts::new(platform)),
            models: ModelId::all().iter().map(|_| OnceLock::new()).collect(),
        });
        assert_eq!(
            &bound.platform, platform,
            "PriceTable is bound to one platform; use a separate table per platform"
        );
        let models = workload
            .models()
            .iter()
            .map(|m| {
                let entry = bound.models[m.id() as usize]
                    .get_or_init(|| Arc::new(ModelPrices::new(platform, m)));
                Arc::clone(entry)
            })
            .collect();
        WorkloadCosts { facts: Arc::clone(&bound.facts), models }
    }

    /// Number of models priced.
    pub fn len(&self) -> usize {
        self.bound.get().map_or(0, |b| b.models.iter().filter(|m| m.get().is_some()).count())
    }

    /// Whether nothing has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A compiled mapping as one flat struct-of-arrays table: its stages
/// grouped by component, in [`CompiledWorkload::stages_by_component`]
/// order (component, then DNN, then pipeline position). Reused across
/// compiles, so a warm table allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct StageTable {
    /// Component `c`'s stages are rows `groups[c]..groups[c + 1]`.
    pub(crate) groups: Vec<usize>,
    /// Owning DNN of each row.
    pub(crate) dnn: Vec<usize>,
    /// Inflated execution seconds of each row.
    pub(crate) seconds: Vec<f64>,
    /// Sharing weight of each row, already clamped to `1e-12`: 1 on a
    /// preemptive component (equal time shares per stage), the mean
    /// kernel duration in ms on a non-preemptive queue (whole kernels
    /// served round-robin).
    pub(crate) weight: Vec<f64>,
    /// Per DNN, the isolated pipeline rate bound
    /// ([`CompiledWorkload::pipeline_bound`]).
    pub(crate) bounds: Vec<f64>,
    base: Vec<f64>,
    working_set: Vec<f64>,
    transfer: Vec<f64>,
    kernels: Vec<usize>,
    /// The stages in pipeline order, each with its row.
    runs: Vec<Run>,
    /// Next free row per component while pricing.
    cursor: Vec<usize>,
    /// Per `(dnn, component)`, softened working set (`d * n + c`).
    footprint: Vec<f64>,
    /// Per component, the summed footprints.
    pressure: Vec<f64>,
}

/// One stage in pipeline order: a maximal same-component run of units.
#[derive(Debug, Clone, Copy)]
struct Run {
    dnn: usize,
    component: usize,
    start: usize,
    end: usize,
    row: usize,
}

impl StageTable {
    /// Compiles `mapping` of `workload` from `prices`: fuse each DNN's
    /// same-component runs into stages, price them, then apply the
    /// cache-sensitivity inflation. For a stage `s` of DNN `d` on
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
    ///
    /// # Panics
    ///
    /// Panics if the mapping does not validate against the workload and
    /// platform.
    pub(crate) fn compile(
        &mut self,
        prices: &impl StagePrices,
        workload: &Workload,
        mapping: &Mapping,
        params: ContentionParams,
    ) {
        let n = prices.component_count();
        mapping
            .validate(workload, n)
            .expect("mapping must be valid for this workload/platform");
        let d_count = workload.len();
        // Walk each DNN's maximal same-component runs (the stages
        // `Mapping::stages` would list), counting stages per component.
        self.runs.clear();
        self.groups.clear();
        self.groups.resize(n + 1, 0);
        for d in 0..d_count {
            let assign = mapping.assignment(d);
            let mut start = 0;
            for end in 1..=assign.len() {
                if end < assign.len() && assign[end] == assign[start] {
                    continue;
                }
                let component = assign[start].index();
                self.runs.push(Run { dnn: d, component, start, end, row: 0 });
                self.groups[component + 1] += 1;
                start = end;
            }
        }
        for c in 0..n {
            self.groups[c + 1] += self.groups[c];
        }
        let rows = self.groups[n];
        self.dnn.resize(rows, 0);
        self.seconds.resize(rows, 0.0);
        self.weight.resize(rows, 0.0);
        self.base.resize(rows, 0.0);
        self.working_set.resize(rows, 0.0);
        self.transfer.resize(rows, 0.0);
        self.kernels.resize(rows, 0);
        // Price each stage into its component's next row, summing each
        // DNN's working set per component in pipeline order.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.groups[..n]);
        self.footprint.clear();
        self.footprint.resize(d_count * n, 0.0);
        for run in &mut self.runs {
            let i = self.cursor[run.component];
            self.cursor[run.component] += 1;
            run.row = i;
            let (base, ws, kernels) =
                prices.stage(run.dnn, ComponentId::new(run.component), run.start..run.end);
            self.transfer[i] = if run.end < mapping.assignment(run.dnn).len() {
                prices.transfer(run.dnn, run.end - 1)
            } else {
                0.0
            };
            self.dnn[i] = run.dnn;
            self.base[i] = base;
            self.working_set[i] = ws;
            self.kernels[i] = kernels;
            self.footprint[run.dnn * n + run.component] += ws;
        }
        let soft = |ws: f64, cache: f64| ws / (ws + cache);
        for row in self.footprint.chunks_exact_mut(n.max(1)) {
            for (p, fp) in row.iter_mut().enumerate() {
                *fp = soft(*fp, prices.cache_bytes(p));
            }
        }
        self.pressure.clear();
        self.pressure
            .extend((0..n).map(|p| (0..d_count).map(|d| self.footprint[d * n + p]).sum::<f64>()));
        // Inflate every row; `bounds` holds each DNN's bottleneck until
        // the end.
        self.bounds.clear();
        self.bounds.resize(d_count, 0.0);
        for c in 0..n {
            let group = self.groups[c]..self.groups[c + 1];
            let co = group.len().saturating_sub(1) as f64;
            let (cache, preemptive) = (prices.cache_bytes(c), prices.preemptive(c));
            for i in group {
                let d = self.dnn[i];
                let sens = soft(self.working_set[i], cache);
                let others = (self.pressure[c] - self.footprint[d * n + c]).max(0.0);
                // A stage without co-runner pressure skips `powf`:
                // exactly, as 1^κ = 1.
                let thrash = 1.0 + params.theta * sens * others;
                let thrash = if thrash == 1.0 { 1.0 } else { thrash.powf(params.kappa) };
                let seconds = self.base[i] * (thrash + params.alpha * co);
                self.seconds[i] = seconds;
                let weight = if preemptive {
                    1.0
                } else {
                    seconds / self.kernels[i].max(1) as f64 * 1e3
                };
                self.weight[i] = weight.max(1e-12);
                self.bounds[d] = self.bounds[d].max(seconds).max(self.transfer[i]);
            }
        }
        for bound in &mut self.bounds {
            *bound = if *bound <= 0.0 { 0.0 } else { 1.0 / *bound };
        }
    }

    /// Compiles on this thread's table, then regroups the table per DNN.
    fn compiled(
        prices: &impl StagePrices,
        workload: &Workload,
        mapping: &Mapping,
        params: ContentionParams,
    ) -> CompiledWorkload {
        Self::with_local(|table| {
            table.compile(prices, workload, mapping, params);
            table.to_compiled(prices)
        })
    }

    /// Runs `f` on this thread's reusable table.
    pub(crate) fn with_local<R>(f: impl FnOnce(&mut StageTable) -> R) -> R {
        thread_local! {
            static TABLE: RefCell<StageTable> = RefCell::new(StageTable::default());
        }
        TABLE.with(|table| f(&mut table.borrow_mut()))
    }

    /// The compiled table regrouped per DNN.
    fn to_compiled(&self, prices: &impl StagePrices) -> CompiledWorkload {
        let mut stages: Vec<Vec<CompiledStage>> = vec![Vec::new(); self.bounds.len()];
        for run in &self.runs {
            let i = run.row;
            stages[run.dnn].push(CompiledStage {
                component: ComponentId::new(run.component),
                base_seconds: self.base[i],
                inflated_seconds: self.seconds[i],
                working_set: self.working_set[i],
                transfer_out_seconds: self.transfer[i],
                kernel_count: self.kernels[i],
                preemptive: prices.preemptive(run.component),
            });
        }
        CompiledWorkload { stages, component_count: prices.component_count() }
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

    /// The entries `costs` shares for `w`, by DNN.
    fn entries(table: &PriceTable, p: &Platform, w: &Workload) -> Vec<Arc<ModelPrices>> {
        table.costs(p, w).models
    }

    #[test]
    fn a_new_mix_of_models_already_seen_prices_nothing() {
        let p = Platform::orange_pi_5();
        let table = PriceTable::new();
        assert!(table.is_empty(), "nothing is priced before first use");
        let first = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let first = entries(&table, &p, &first);
        assert_eq!(table.len(), 2);
        let again = Workload::from_ids([ModelId::MobileNet, ModelId::AlexNet]);
        let again = entries(&table, &p, &again);
        assert_eq!(table.len(), 2, "a new order of the same models is no new entry");
        assert!(Arc::ptr_eq(&again[0], &first[1]) && Arc::ptr_eq(&again[1], &first[0]));
    }

    #[test]
    fn a_model_repeated_in_a_mix_shares_one_entry() {
        let p = Platform::orange_pi_5();
        let table = PriceTable::new();
        let shared = entries(&table, &p, &Workload::from_ids([ModelId::ResNet50; 3]));
        assert_eq!(table.len(), 1);
        assert!(Arc::ptr_eq(&shared[0], &shared[1]) && Arc::ptr_eq(&shared[1], &shared[2]));
    }

    #[test]
    fn price_table_holds_at_most_one_entry_per_registry_model() {
        let p = Platform::jetson_orin_nx();
        let table = PriceTable::new();
        let all = ModelId::all();
        let params = ContentionParams::default();
        for i in 0..2 * all.len() * all.len() {
            let w = Workload::from_ids([all[i % 24], all[i / 24 % 24], all[(i * 7) % 24]]);
            let costs = table.costs(&p, &w);
            assert!(table.len() <= all.len(), "the table must stay bounded by the registry");
            if i % 97 == 0 {
                let m = Mapping::uniform(&w, ComponentId::new(i % p.component_count()));
                assert_eq!(
                    costs.compile(&w, &m, params),
                    CompiledWorkload::compile(&p, &w, &m, params),
                    "shared prices compile exactly like the one-shot path"
                );
            }
        }
        assert_eq!(table.len(), all.len());
    }

    #[test]
    #[should_panic(expected = "bound to one platform")]
    fn price_table_refuses_a_second_platform() {
        let table = PriceTable::new();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let _ = table.costs(&Platform::orange_pi_5(), &w);
        let _ = table.costs(&Platform::jetson_orin_nx(), &w);
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
