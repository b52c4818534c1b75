//! Fixed-point contention solver with kernel-granularity fair sharing.

use crate::contention::{ContentionParams, Direct, StagePrices, StageTable, WorkloadCosts};
use crate::report::ThroughputReport;
use crate::workload::{Mapping, Workload};
use rankmap_platform::Platform;
use std::cell::RefCell;

/// Analytical multi-DNN throughput model.
///
/// Each component is a unit-capacity server shared by the pipeline stages
/// mapped to it. Sharing is **kernel-granularity round-robin** — an OpenCL
/// command queue interleaves kernels from co-resident stages — which in
/// fluid terms is weighted fair sharing with weight equal to the stage's
/// *mean kernel duration*: when everyone is backlogged, a stage with `k`
/// kernels of mean duration `m` completes a frame every `k · Σ_j m_j`
/// seconds. This is what makes a saturated GPU catastrophic for every
/// co-resident DNN (many small kernels each wait a full round), matching
/// the paper's observation that 91% of random partitioned mappings beat
/// the all-on-GPU baseline.
///
/// The solver iterates: rates → per-component weighted max–min allocations
/// → per-DNN bottleneck rates, with geometric damping, until fixed point.
///
/// Orders of magnitude faster than the [`crate::EventEngine`], at the cost
/// of ignoring queueing transients; agreement between the two is checked in
/// tests.
#[derive(Debug, Clone)]
pub struct AnalyticalEngine<'p> {
    platform: &'p Platform,
    params: ContentionParams,
    iterations: usize,
}

/// A thread's reusable solver buffers (the compile table is the thread's
/// [`StageTable`]): once warm, a query allocates only the rates it
/// returns.
#[derive(Default)]
struct Scratch {
    demands: Vec<f64>,
    alloc: Vec<f64>,
    unsat: Vec<usize>,
    limit: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl<'p> AnalyticalEngine<'p> {
    /// Creates a solver with default contention parameters.
    pub fn new(platform: &'p Platform) -> Self {
        Self { platform, params: ContentionParams::default(), iterations: 160 }
    }

    /// Overrides the contention parameters.
    #[must_use]
    pub fn with_params(mut self, params: ContentionParams) -> Self {
        self.params = params;
        self
    }

    /// Evaluates a mapping, returning per-DNN steady-state throughput.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is invalid for this workload/platform.
    pub fn evaluate(&self, workload: &Workload, mapping: &Mapping) -> ThroughputReport {
        self.compile_and_solve(&Direct::new(self.platform, workload), workload, mapping)
    }

    /// Evaluates a mapping against pre-priced workload costs (the hot-loop
    /// path: no per-query roofline walk). Produces exactly what
    /// [`AnalyticalEngine::evaluate`] would.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is invalid for this workload/platform.
    pub fn evaluate_with(
        &self,
        costs: &WorkloadCosts,
        workload: &Workload,
        mapping: &Mapping,
    ) -> ThroughputReport {
        self.compile_and_solve(costs, workload, mapping)
    }

    /// Compiles the mapping straight into this thread's flat stage table
    /// (grouped by component, each row carrying its DNN, inflated time and
    /// clamped sharing weight), then solves it. The fixed-point iterations
    /// only recompute demands and run the weighted max–min allocation in
    /// place.
    fn compile_and_solve(
        &self,
        prices: &impl StagePrices,
        workload: &Workload,
        mapping: &Mapping,
    ) -> ThroughputReport {
        StageTable::with_local(|table| {
            table.compile(prices, workload, mapping, self.params);
            SCRATCH.with(|scratch| self.solve(table, &mut scratch.borrow_mut()))
        })
    }

    /// The fixed point of a compiled table.
    fn solve(&self, table: &StageTable, scratch: &mut Scratch) -> ThroughputReport {
        let Scratch { demands, alloc, unsat, limit } = scratch;
        let n = table.bounds.len();
        let total = table.dnn.len();
        demands.resize(total, 0.0);
        alloc.resize(total, 0.0);
        limit.resize(n, f64::INFINITY);
        // Start at the (inflated) isolated pipeline bound.
        let bounds = &table.bounds;
        let mut x: Vec<f64> = bounds.clone();
        for _ in 0..self.iterations {
            limit.fill(f64::INFINITY);
            for group in table.groups.windows(2) {
                let range = group[0]..group[1];
                for i in range.clone() {
                    demands[i] = x[table.dnn[i]] * table.seconds[i];
                }
                fair_share_in_place(
                    &demands[range.clone()],
                    &table.weight[range.clone()],
                    1.0,
                    &mut alloc[range.clone()],
                    unsat,
                );
                for i in range {
                    let t = table.seconds[i];
                    if t > 0.0 {
                        let d = table.dnn[i];
                        limit[d] = limit[d].min(alloc[i] / t);
                    }
                }
            }
            let mut max_delta = 0.0f64;
            for d in 0..n {
                let target = limit[d].min(bounds[d]).max(1e-9);
                let next = (x[d] * target).sqrt(); // geometric damping
                max_delta = max_delta.max((next - x[d]).abs() / x[d].max(1e-12));
                x[d] = next;
            }
            if max_delta < 1e-6 {
                break;
            }
        }
        ThroughputReport::new(x)
    }
}

/// Weighted max–min fair allocation of `capacity` across `demands`: every
/// demand is either fully satisfied or capped at a level proportional to
/// its weight; leftover capacity from small demands is redistributed.
///
/// With equal weights this reduces to classic max–min fairness. Weight here
/// is the mean kernel duration: coarse-kernel stages hold the server longer
/// per round, exactly like a non-preemptive round-robin queue. Weights are
/// clamped to at least `1e-12`.
pub fn weighted_max_min_fair(demands: &[f64], weights: &[f64], capacity: f64) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len(), "demands/weights length mismatch");
    let clamped: Vec<f64> = weights.iter().map(|w| w.max(1e-12)).collect();
    let mut alloc = vec![0.0; demands.len()];
    fair_share_in_place(demands, &clamped, capacity, &mut alloc, &mut Vec::new());
    alloc
}

/// [`weighted_max_min_fair`] over pre-clamped `weights`, writing every
/// entry of `alloc` and using `unsat` as scratch for the indices still
/// unsatisfied. Each round sums the unsatisfied weights in index order,
/// then satisfies (and subtracts from the remaining capacity, in index
/// order) every demand at or below its share of the fair level.
fn fair_share_in_place(
    demands: &[f64],
    weights: &[f64],
    capacity: f64,
    alloc: &mut [f64],
    unsat: &mut Vec<usize>,
) {
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        alloc.copy_from_slice(demands);
        return;
    }
    let mut remaining = capacity;
    unsat.clear();
    unsat.extend(0..demands.len());
    loop {
        let weight_sum: f64 = unsat.iter().map(|&i| weights[i]).sum();
        // Fair level λ such that each unsatisfied i would get λ·w_i.
        let level = remaining / weight_sum;
        let before = unsat.len();
        let mut kept = 0;
        for j in 0..before {
            let i = unsat[j];
            if demands[i] <= level * weights[i] {
                alloc[i] = demands[i];
                remaining -= demands[i];
            } else {
                unsat[kept] = i;
                kept += 1;
            }
        }
        if kept == before {
            for &i in unsat.iter() {
                alloc[i] = level * weights[i];
            }
            return;
        }
        unsat.truncate(kept);
        if unsat.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::CompiledWorkload;
    use rankmap_models::ModelId;
    use rankmap_platform::ComponentId;

    #[test]
    fn fair_under_capacity_satisfies_all() {
        let a = weighted_max_min_fair(&[0.2, 0.3], &[1.0, 1.0], 1.0);
        assert_eq!(a, vec![0.2, 0.3]);
    }

    #[test]
    fn fair_over_capacity_caps_equally_for_equal_weights() {
        let a = weighted_max_min_fair(&[0.9, 0.9], &[1.0, 1.0], 1.0);
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fair_redistributes_leftover() {
        let a = weighted_max_min_fair(&[0.1, 0.9, 0.9], &[1.0, 1.0, 1.0], 1.0);
        assert!((a[0] - 0.1).abs() < 1e-12);
        assert!((a[1] - 0.45).abs() < 1e-12);
        assert!((a[2] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn fair_conserves_capacity() {
        let a = weighted_max_min_fair(&[0.5, 0.7, 0.2, 1.4], &[1.0, 2.0, 0.5, 4.0], 1.0);
        let sum: f64 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "over-capacity case should use all capacity");
    }

    #[test]
    fn fair_redistributes_over_several_rounds() {
        // Round 1 (level 0.25) satisfies only the 0.05 demand; round 2
        // (level 0.95/3) then satisfies the 0.3 one; round 3 splits the
        // rest of the capacity between the two large demands.
        let a = weighted_max_min_fair(&[0.05, 0.3, 0.9, 0.9], &[1.0; 4], 1.0);
        assert_eq!(a[0], 0.05);
        assert_eq!(a[1], 0.3);
        assert!((a[2] - 0.325).abs() < 1e-12);
        assert!((a[3] - 0.325).abs() < 1e-12);
    }

    #[test]
    fn heavier_kernels_get_bigger_share() {
        let a = weighted_max_min_fair(&[1.0, 1.0], &[3.0, 1.0], 1.0);
        assert!((a[0] - 0.75).abs() < 1e-12);
        assert!((a[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_dnn_hits_pipeline_bound() {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        let eng = AnalyticalEngine::new(&p);
        let r = eng.evaluate(&w, &m);
        let compiled = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
        let bound = compiled.pipeline_bound(0);
        assert!(
            (r.per_dnn[0] - bound).abs() / bound < 0.02,
            "alone, the solver should sit at the pipeline bound"
        );
    }

    #[test]
    fn adding_dnns_never_helps_existing_ones() {
        let p = Platform::orange_pi_5();
        let eng = AnalyticalEngine::new(&p);
        let w1 = Workload::from_ids([ModelId::ResNet50]);
        let m1 = Mapping::uniform(&w1, ComponentId::new(0));
        let alone = eng.evaluate(&w1, &m1).per_dnn[0];
        let w2 = Workload::from_ids([ModelId::ResNet50, ModelId::Vgg16]);
        let m2 = Mapping::uniform(&w2, ComponentId::new(0));
        let shared = eng.evaluate(&w2, &m2).per_dnn[0];
        assert!(shared < alone, "co-running VGG-16 must cost ResNet-50 throughput");
    }

    #[test]
    fn utilization_conserved_per_component() {
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::MobileNet,
            ModelId::SqueezeNetV2,
        ]);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for _ in 0..10 {
            let m = Mapping::random(&w, 3, &mut rng);
            let compiled = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
            let r = AnalyticalEngine::new(&p).evaluate(&w, &m);
            for stages in compiled.stages_by_component() {
                let util: f64 = stages
                    .iter()
                    .map(|&(d, k)| r.per_dnn[d] * compiled.stages[d][k].inflated_seconds)
                    .sum();
                assert!(util <= 1.05, "component over-committed: {util}");
            }
        }
    }

    #[test]
    fn gpu_pileup_collapses_everyone() {
        // Kernel-granularity sharing: even the light DNN is dragged down by
        // heavyweights' kernels on a saturated GPU.
        let p = Platform::orange_pi_5();
        let eng = AnalyticalEngine::new(&p);
        let alone = {
            let w = Workload::from_ids([ModelId::SqueezeNetV2]);
            eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).per_dnn[0]
        };
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
        ]);
        let shared =
            eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).per_dnn[0];
        assert!(
            shared < alone * 0.15,
            "SqueezeNet should collapse in a 4-DNN GPU pileup: {shared} vs {alone}"
        );
    }

    #[test]
    fn spreading_beats_gpu_pileup_for_4dnns() {
        // The motivation experiment's core claim: distributing a 4-DNN
        // workload usually beats all-on-GPU.
        let p = Platform::orange_pi_5();
        let eng = AnalyticalEngine::new(&p);
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
        ]);
        let baseline = eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).average();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let better = (0..60)
            .filter(|_| {
                let m = Mapping::random(&w, 3, &mut rng);
                eng.evaluate(&w, &m).average() > baseline
            })
            .count();
        assert!(
            better > 45,
            "most random mappings should beat the all-GPU baseline, got {better}/60"
        );
    }
}
