//! Bit-identity of the hot analytical path against straightforward
//! reference implementations.
//!
//! `AnalyticalEngine::solve` flattens the stages once per query and runs
//! its max–min allocation in place; `WorkloadCosts::compile` walks
//! same-component runs from a pre-priced table. Both must reproduce, bit
//! for bit, the simple formulation kept here: a solver that regroups the
//! stages and allocates fresh vectors on every fixed-point iteration, and
//! a compile that fuses stages with `Mapping::stages` and prices them with
//! the roofline `CostModel`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, ComponentKind, Platform};
use rankmap_sim::{
    AnalyticalEngine, CompiledStage, CompiledWorkload, ContentionParams, CostModel, Mapping,
    ThroughputReport, Workload, WorkloadCosts,
};

/// Fixed-point iterations of `AnalyticalEngine::new`.
const ITERATIONS: usize = 160;

/// Reference fixed-point solver: per iteration, regroup stages per
/// component, build demand and weight vectors, allocate.
fn reference_solve(compiled: &CompiledWorkload) -> ThroughputReport {
    let n = compiled.dnn_count();
    let by_comp = compiled.stages_by_component();
    let bounds: Vec<f64> = (0..n).map(|d| compiled.pipeline_bound(d)).collect();
    let mut x: Vec<f64> = bounds.clone();
    for _ in 0..ITERATIONS {
        let mut limit = vec![f64::INFINITY; n];
        for stages in &by_comp {
            if stages.is_empty() {
                continue;
            }
            let demands: Vec<f64> = stages
                .iter()
                .map(|&(d, k)| x[d] * compiled.stages[d][k].inflated_seconds)
                .collect();
            let weights: Vec<f64> = stages
                .iter()
                .map(|&(d, k)| {
                    let s = &compiled.stages[d][k];
                    if s.preemptive {
                        1.0
                    } else {
                        s.mean_kernel_seconds() * 1e3
                    }
                })
                .collect();
            let alloc = reference_max_min_fair(&demands, &weights, 1.0);
            for (i, &(d, k)) in stages.iter().enumerate() {
                let t = compiled.stages[d][k].inflated_seconds;
                if t > 0.0 {
                    limit[d] = limit[d].min(alloc[i] / t);
                }
            }
        }
        let mut max_delta = 0.0f64;
        for d in 0..n {
            let target = limit[d].min(bounds[d]).max(1e-9);
            let next = (x[d] * target).sqrt();
            max_delta = max_delta.max((next - x[d]).abs() / x[d].max(1e-12));
            x[d] = next;
        }
        if max_delta < 1e-6 {
            break;
        }
    }
    ThroughputReport::new(x)
}

/// Reference weighted max–min fairness: partition the unsatisfied set into
/// fresh vectors every round.
fn reference_max_min_fair(demands: &[f64], weights: &[f64], capacity: f64) -> Vec<f64> {
    let n = demands.len();
    let mut alloc = vec![0.0; n];
    if n == 0 {
        return alloc;
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        alloc.copy_from_slice(demands);
        return alloc;
    }
    let mut remaining = capacity;
    let mut unsat: Vec<usize> = (0..n).collect();
    loop {
        let weight_sum: f64 = unsat.iter().map(|&i| weights[i].max(1e-12)).sum();
        let level = remaining / weight_sum;
        let (sat, still): (Vec<usize>, Vec<usize>) = unsat
            .iter()
            .partition(|&&i| demands[i] <= level * weights[i].max(1e-12));
        if sat.is_empty() {
            for &i in &still {
                alloc[i] = level * weights[i].max(1e-12);
            }
            break;
        }
        for &i in &sat {
            alloc[i] = demands[i];
            remaining -= demands[i];
        }
        unsat = still;
        if unsat.is_empty() {
            break;
        }
    }
    alloc
}

/// Reference compile: fuse with `Mapping::stages`, price each stage with
/// the roofline model, inflate with nested per-DNN footprint rows.
fn reference_compile(
    platform: &Platform,
    workload: &Workload,
    mapping: &Mapping,
    params: ContentionParams,
) -> CompiledWorkload {
    let cost = CostModel::new(platform);
    let mut stages: Vec<Vec<CompiledStage>> = Vec::new();
    for (d, model) in workload.models().iter().enumerate() {
        let specs = mapping.stages(d);
        let mut list = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let base = cost.stage_seconds(model, spec.unit_range.clone(), spec.component);
            let ws = cost.stage_working_set(model, spec.unit_range.clone());
            let transfer = if i + 1 < specs.len() {
                let bytes = model.units()[spec.unit_range.end - 1].output_shape().bytes() as f64;
                cost.transfer_seconds(bytes, spec.component, specs[i + 1].component)
            } else {
                0.0
            };
            let kernels: usize =
                model.units()[spec.unit_range.clone()].iter().map(|u| u.kernel_count()).sum();
            let preemptive = !matches!(
                platform.component(spec.component).kind(),
                ComponentKind::Gpu | ComponentKind::Npu
            );
            list.push(CompiledStage {
                component: spec.component,
                base_seconds: base,
                inflated_seconds: base,
                working_set: ws,
                transfer_out_seconds: transfer,
                kernel_count: kernels,
                preemptive,
            });
        }
        stages.push(list);
    }
    let n = platform.component_count();
    let cache: Vec<f64> = (0..n).map(|c| platform.cache_bytes(ComponentId::new(c))).collect();
    let soft = |ws: f64, cache: f64| ws / (ws + cache);
    let mut raw_fp = vec![vec![0.0f64; n]; stages.len()];
    let mut counts = vec![0usize; n];
    for (d, dnn) in stages.iter().enumerate() {
        for s in dnn {
            raw_fp[d][s.component.index()] += s.working_set;
            counts[s.component.index()] += 1;
        }
    }
    let footprint: Vec<Vec<f64>> = raw_fp
        .iter()
        .map(|row| row.iter().enumerate().map(|(p, &ws)| soft(ws, cache[p])).collect())
        .collect();
    let pressure: Vec<f64> = (0..n).map(|p| footprint.iter().map(|row| row[p]).sum()).collect();
    for (d, dnn) in stages.iter_mut().enumerate() {
        for s in dnn.iter_mut() {
            let p = s.component.index();
            let sens = soft(s.working_set, cache[p]);
            let others = (pressure[p] - footprint[d][p]).max(0.0);
            let co = counts[p].saturating_sub(1) as f64;
            let inflate =
                (1.0 + params.theta * sens * others).powf(params.kappa) + params.alpha * co;
            s.inflated_seconds = s.base_seconds * inflate;
        }
    }
    CompiledWorkload { stages, component_count: n }
}

/// Per-DNN-contiguous mapping: each DNN is cut into 1–3 contiguous
/// segments, each placed on one random component (the shape search
/// results take), as opposed to `Mapping::random`'s per-unit noise.
fn contiguous_mapping(workload: &Workload, components: usize, rng: &mut StdRng) -> Mapping {
    let per_dnn = workload
        .models()
        .iter()
        .map(|m| {
            let units = m.unit_count();
            let mut cuts: Vec<usize> =
                (0..rng.gen_range(0..3)).map(|_| rng.gen_range(1..units)).collect();
            cuts.push(units);
            cuts.sort_unstable();
            let mut assign = Vec::with_capacity(units);
            for &cut in &cuts {
                let c = ComponentId::new(rng.gen_range(0..components));
                assign.resize(cut.max(assign.len()), c);
            }
            assign
        })
        .collect();
    Mapping::new(per_dnn)
}

prop_compose! {
    /// A preset, 1–5 DNNs drawn from the whole zoo (repeats allowed), and
    /// a unit-random or per-DNN-contiguous mapping of them.
    fn case()(
        jetson in any::<bool>(),
        picks in prop::collection::vec(0usize..24, 1..=5),
        contiguous in any::<bool>(),
        seed in any::<u64>(),
    ) -> (Platform, Workload, Mapping) {
        let platform = if jetson { Platform::jetson_orin_nx() } else { Platform::orange_pi_5() };
        let all = ModelId::all();
        let w = Workload::from_ids(picks.iter().map(|&i| all[i]));
        let mut rng = StdRng::seed_from_u64(seed);
        let components = platform.component_count();
        let m = if contiguous {
            contiguous_mapping(&w, components, &mut rng)
        } else {
            Mapping::random(&w, components, &mut rng)
        };
        (platform, w, m)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both compile paths equal the reference compile, and the solver's
    /// rates equal the reference solver's in every bit.
    #[test]
    fn solve_and_compile_match_reference((platform, w, m) in case()) {
        let params = ContentionParams::default();
        let reference = reference_compile(&platform, &w, &m, params);
        let direct = CompiledWorkload::compile(&platform, &w, &m, params);
        let cached = WorkloadCosts::new(&platform, &w).compile(&w, &m, params);
        prop_assert_eq!(&direct, &reference);
        prop_assert_eq!(&cached, &direct);

        let got = AnalyticalEngine::new(&platform).solve(&cached);
        let want = reference_solve(&reference);
        prop_assert_eq!(got.per_dnn.len(), want.per_dnn.len());
        for (d, (g, r)) in got.per_dnn.iter().zip(&want.per_dnn).enumerate() {
            prop_assert_eq!(g.to_bits(), r.to_bits(), "dnn {}: {} vs {}", d, g, r);
        }
    }
}

#[test]
fn contiguous_mappings_are_valid_and_fuse_to_at_most_three_stages() {
    let p = Platform::jetson_orin_nx();
    let w = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50, ModelId::YoloV3]);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..50 {
        let m = contiguous_mapping(&w, p.component_count(), &mut rng);
        assert!(m.validate(&w, p.component_count()).is_ok());
        for d in 0..w.len() {
            assert!(m.stages(d).len() <= 3);
        }
    }
}
