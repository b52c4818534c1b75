//! Bit-identity of the hot simulator paths against straightforward
//! reference implementations.
//!
//! `AnalyticalEngine` compiles each mapping straight into a flat
//! per-component stage table (one walk, one scatter) and runs its
//! max–min allocation in place, only on components over capacity;
//! `WorkloadCosts::compile` walks same-component runs from per-model
//! price tables; `AnalyticalOracle` shares those tables across mixes
//! through a `PriceTable`; `EventEngine::run` is a flat struct-of-arrays
//! event loop with packed heap keys. All of them must reproduce, bit for
//! bit, the simple formulations kept here: a solver that regroups the
//! stages and allocates fresh vectors on every fixed-point iteration, a
//! compile that fuses stages with `Mapping::stages` and prices them with
//! the roofline `CostModel`, and the nested-vector event loop the board
//! simulator started as. The
//! reference loop simulates every event to the horizon, so every case,
//! single- and multi-DNN, also pins the flat loop's steady-state skip
//! (whole periods counted, not simulated) to exact rates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rankmap_core::oracle::{AnalyticalOracle, ThroughputOracle};
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, ComponentKind, Platform};
use rankmap_sim::{
    AnalyticalEngine, CompiledStage, CompiledWorkload, ContentionParams, CostModel, EventConfig,
    EventEngine, Mapping, ThroughputReport, Workload, WorkloadCosts,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// Reference event simulation: the nested per-DNN vectors, per-component
/// `VecDeque` round-robin queues and five-field heap events of the
/// original board simulator, with the board's slot rule: a stage's
/// downstream slot is released when the next stage takes the frame.
fn reference_simulate(compiled: &CompiledWorkload, cfg: EventConfig) -> ThroughputReport {
    EventSim::new(compiled, cfg).run()
}

/// Internal mutable simulation state (split out so the event loop can use
/// methods instead of borrow-heavy macros).
struct EventSim<'c> {
    compiled: &'c CompiledWorkload,
    cfg: EventConfig,
    horizon: u64,
    warmup: u64,
    /// Frames waiting at each stage input (stage 0 is an infinite source).
    avail: Vec<Vec<usize>>,
    /// Reserved downstream-queue slots per stage.
    reserved: Vec<Vec<usize>>,
    /// Whether the stage is in a component's round-robin queue.
    queued: Vec<Vec<bool>>,
    /// Chunks completed of the frame currently in service (0 = idle).
    progress: Vec<Vec<usize>>,
    /// Chunk plan per stage: (chunk_count, chunk_ns).
    chunks: Vec<Vec<(usize, u64)>>,
    rr: Vec<VecDeque<(usize, usize)>>,
    busy: Vec<bool>,
    heap: BinaryHeap<Reverse<HeapEvent>>,
    seq: u64,
    completions: Vec<u64>,
}

/// `(time_ns, sequence, dnn, stage, kind)` — ordered by time then FIFO.
type HeapEvent = (u64, u64, usize, usize, u8);

const EV_CHUNK_DONE: u8 = 0;
const EV_FRAME_ARRIVED: u8 = 1;

fn to_ns(s: f64) -> u64 {
    (s * 1e9).round().max(0.0) as u64
}

impl<'c> EventSim<'c> {
    fn new(compiled: &'c CompiledWorkload, cfg: EventConfig) -> Self {
        let shape: Vec<usize> = compiled.stages.iter().map(Vec::len).collect();
        let zeros = |init: usize| -> Vec<Vec<usize>> {
            shape.iter().map(|&n| vec![init; n]).collect()
        };
        let chunks = compiled
            .stages
            .iter()
            .map(|stages| {
                stages
                    .iter()
                    .map(|s| {
                        // CPU stages are sliced by the scheduler quantum;
                        // GPU stages only yield at kernel boundaries.
                        let n = if s.preemptive {
                            (s.inflated_seconds / cfg.cpu_quantum_seconds).ceil().max(1.0)
                                as usize
                        } else {
                            s.kernel_count.clamp(1, cfg.max_chunks_per_stage)
                        };
                        let dur = to_ns(s.inflated_seconds / n as f64).max(1);
                        (n, dur)
                    })
                    .collect()
            })
            .collect();
        Self {
            compiled,
            cfg,
            horizon: to_ns(cfg.sim_seconds),
            warmup: to_ns(cfg.warmup_seconds),
            avail: zeros(0),
            reserved: zeros(0),
            queued: compiled.stages.iter().map(|s| vec![false; s.len()]).collect(),
            progress: zeros(0),
            chunks,
            rr: vec![VecDeque::new(); compiled.component_count],
            busy: vec![false; compiled.component_count],
            heap: BinaryHeap::new(),
            seq: 0,
            completions: vec![0; compiled.dnn_count()],
        }
    }

    fn can_accept_frame(&self, d: usize, k: usize) -> bool {
        let last = self.compiled.stages[d].len() - 1;
        let has_input = k == 0 || self.avail[d][k] > 0;
        let has_space = k == last || self.reserved[d][k] < self.cfg.queue_capacity;
        has_input && has_space
    }

    /// Runnable: mid-frame (always) or able to start a fresh frame.
    fn runnable(&self, d: usize, k: usize) -> bool {
        self.progress[d][k] > 0 || self.can_accept_frame(d, k)
    }

    fn push_event(&mut self, t: u64, d: usize, k: usize, kind: u8) {
        self.seq += 1;
        self.heap.push(Reverse((t, self.seq, d, k, kind)));
    }

    /// Enqueues a stage in its component's RR queue if runnable and absent.
    fn wake(&mut self, d: usize, k: usize, now: u64) {
        if !self.queued[d][k] && self.runnable(d, k) {
            let comp = self.compiled.stages[d][k].component.index();
            self.rr[comp].push_back((d, k));
            self.queued[d][k] = true;
            self.dispatch(comp, now);
        }
    }

    /// If the component is idle, starts the next runnable stage's chunk.
    fn dispatch(&mut self, comp: usize, now: u64) {
        if self.busy[comp] {
            return;
        }
        while let Some((d, k)) = self.rr[comp].pop_front() {
            self.queued[d][k] = false;
            let fresh = self.progress[d][k] == 0;
            if fresh {
                // Start a fresh frame if inputs/space allow.
                if !self.can_accept_frame(d, k) {
                    continue;
                }
                if k < self.compiled.stages[d].len() - 1 {
                    self.reserved[d][k] += 1;
                }
            }
            self.busy[comp] = true;
            let (_, dur) = self.chunks[d][k];
            self.push_event(now + dur, d, k, EV_CHUNK_DONE);
            if fresh && k > 0 {
                // Taking the frame frees the upstream stage's queue slot.
                self.avail[d][k] -= 1;
                self.reserved[d][k - 1] -= 1;
                self.wake(d, k - 1, now);
            }
            return;
        }
    }

    fn on_chunk_done(&mut self, t: u64, d: usize, k: usize) {
        let comp = self.compiled.stages[d][k].component.index();
        self.busy[comp] = false;
        self.progress[d][k] += 1;
        let (n_chunks, _) = self.chunks[d][k];
        if self.progress[d][k] >= n_chunks {
            // Frame complete.
            self.progress[d][k] = 0;
            let last = self.compiled.stages[d].len() - 1;
            if k == last {
                if t > self.warmup {
                    self.completions[d] += 1;
                }
            } else {
                let transfer = self.compiled.stages[d][k].transfer_out_seconds;
                if transfer > 0.0 {
                    self.push_event(t + to_ns(transfer).max(1), d, k + 1, EV_FRAME_ARRIVED);
                } else {
                    self.avail[d][k + 1] += 1;
                    self.wake(d, k + 1, t);
                }
            }
        }
        // Back of the queue (round-robin) if there is more to do.
        self.wake(d, k, t);
        self.dispatch(comp, t);
    }

    fn on_frame_arrived(&mut self, t: u64, d: usize, k: usize) {
        self.avail[d][k] += 1;
        self.wake(d, k, t);
    }

    fn run(mut self) -> ThroughputReport {
        for d in 0..self.compiled.dnn_count() {
            self.wake(d, 0, 0);
        }
        while let Some(Reverse((t, _s, d, k, kind))) = self.heap.pop() {
            if t > self.horizon {
                break;
            }
            match kind {
                EV_CHUNK_DONE => self.on_chunk_done(t, d, k),
                _ => self.on_frame_arrived(t, d, k),
            }
        }
        let window = (self.cfg.sim_seconds - self.cfg.warmup_seconds).max(1e-9);
        ThroughputReport::new(
            self.completions.iter().map(|&c| c as f64 / window).collect(),
        )
    }
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

/// The reference rates of `mapping`, as bit patterns.
fn reference_bits(platform: &Platform, w: &Workload, m: &Mapping) -> Vec<u64> {
    let compiled = reference_compile(platform, w, m, ContentionParams::default());
    bits(&reference_solve(&compiled).per_dnn)
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both compile paths equal the reference compile; the solver's rates,
    /// one-shot and pre-priced, and the analytical oracle's (its single,
    /// batched and grouped queries) equal the reference solver's in
    /// every bit.
    #[test]
    fn solve_and_compile_match_reference(
        (platform, w, m) in case(),
        other_contiguous in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let params = ContentionParams::default();
        let reference = reference_compile(&platform, &w, &m, params);
        let direct = CompiledWorkload::compile(&platform, &w, &m, params);
        let costs = WorkloadCosts::new(&platform, &w);
        let cached = costs.compile(&w, &m, params);
        prop_assert_eq!(&direct, &reference);
        prop_assert_eq!(&cached, &direct);

        let want = bits(&reference_solve(&reference).per_dnn);
        let engine = AnalyticalEngine::new(&platform);
        prop_assert_eq!(&bits(&engine.evaluate(&w, &m).per_dnn), &want);
        prop_assert_eq!(&bits(&engine.evaluate_with(&costs, &w, &m).per_dnn), &want);

        // The oracle over one shared price table: a second mapping of the
        // same mix, the first model twice on the same components (a
        // repeated model, one shared price entry) and the first model
        // alone (no co-runner pressure anywhere: `powf` skipped).
        let mut rng = StdRng::seed_from_u64(seed);
        let components = platform.component_count();
        let other = if other_contiguous {
            contiguous_mapping(&w, components, &mut rng)
        } else {
            Mapping::random(&w, components, &mut rng)
        };
        let first = w.models()[0].id();
        let twice = Workload::from_ids([first, first]);
        let twice_m = Mapping::new(vec![m.assignment(0).to_vec(); 2]);
        let alone = Workload::from_ids([first]);
        let alone_m = Mapping::new(vec![m.assignment(0).to_vec()]);
        let oracle = AnalyticalOracle::new(&platform);
        let both = [m.clone(), other.clone()];
        let want_both = vec![want.clone(), reference_bits(&platform, &w, &other)];
        prop_assert_eq!(&bits(&oracle.predict(&w, &m)), &want);
        let batch: Vec<Vec<u64>> =
            oracle.predict_batch(&w, &both).iter().map(|r| bits(r)).collect();
        prop_assert_eq!(&batch, &want_both);
        let twice_ms = [twice_m.clone()];
        let alone_ms = [alone_m.clone()];
        let queries: Vec<(&Workload, &[Mapping])> =
            vec![(&w, &both), (&twice, &twice_ms), (&alone, &alone_ms)];
        let grouped: Vec<Vec<Vec<u64>>> = oracle
            .predict_grouped(&queries)
            .iter()
            .map(|q| q.iter().map(|r| bits(r)).collect())
            .collect();
        let want_grouped = vec![
            want_both,
            vec![reference_bits(&platform, &twice, &twice_m)],
            vec![reference_bits(&platform, &alone, &alone_m)],
        ];
        prop_assert_eq!(grouped, want_grouped);
    }
}

/// Heavy zoo models: piled onto one component, their demands run over
/// its capacity.
const HEAVY: [ModelId; 8] = [
    ModelId::Vgg16,
    ModelId::Vgg19,
    ModelId::InceptionV4,
    ModelId::InceptionResnetV2,
    ModelId::ResNet50,
    ModelId::DenseNet169,
    ModelId::ResNext50,
    ModelId::YoloV3,
];

prop_compose! {
    /// 3–5 heavy models piled onto one component: the GPU or a CPU
    /// cluster of either preset, or the Jetson's DLA. Each DNN runs there
    /// whole, or moves a head of its units to another component. A DNN
    /// whose head bounds its rate demands less of the pile than its fair
    /// share, so the water-filling satisfies it and runs another round for
    /// the rest.
    fn pile_up()(
        jetson in any::<bool>(),
        target in 0usize..4,
        picks in prop::collection::vec(0..HEAVY.len(), 3..=5),
        seed in any::<u64>(),
    ) -> (Platform, Workload, Mapping) {
        let platform = if jetson { Platform::jetson_orin_nx() } else { Platform::orange_pi_5() };
        let w = Workload::from_ids(picks.iter().map(|&i| HEAVY[i]));
        let components = platform.component_count();
        let target = target % components;
        let mut rng = StdRng::seed_from_u64(seed);
        let per_dnn = w
            .models()
            .iter()
            .map(|model| {
                let units = model.unit_count();
                let head = if rng.gen_bool(0.5) { rng.gen_range(1..units) } else { 0 };
                let other = (target + rng.gen_range(1..components)) % components;
                (0..units)
                    .map(|u| ComponentId::new(if u < head { other } else { target }))
                    .collect()
            })
            .collect();
        (platform, w, Mapping::new(per_dnn))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Over-capacity groups, water-filled over several rounds, solve to
    /// the reference solver's rates in every bit. Some cases also leave a
    /// DNN's bottleneck head alone on a GPU or DLA queue, where its demand
    /// is exactly the capacity: that group must take the within-capacity
    /// path, as water-filling it rounds the demand. (At 1,024 cases the
    /// arm meets such a case; it fails if the capacity test is `<`.)
    #[test]
    fn pile_ups_match_reference((platform, w, m) in pile_up()) {
        let want = reference_bits(&platform, &w, &m);
        let engine = AnalyticalEngine::new(&platform);
        prop_assert_eq!(&bits(&engine.evaluate(&w, &m).per_dnn), &want);
        let costs = WorkloadCosts::new(&platform, &w);
        prop_assert_eq!(&bits(&engine.evaluate_with(&costs, &w, &m).per_dnn), &want);
        prop_assert_eq!(&bits(&AnalyticalOracle::new(&platform).predict(&w, &m)), &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat event loop's rates equal the reference simulation's in
    /// every bit, under the short and the paper-scale window.
    #[test]
    fn event_loop_matches_reference((platform, w, m) in case(), paper_window in any::<bool>()) {
        let cfg = if paper_window { EventConfig::default() } else { EventConfig::quick() };
        let compiled = CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        let got = EventEngine::new(&platform).with_config(cfg).run(&compiled);
        let want = reference_simulate(&compiled, cfg);
        prop_assert_eq!(got.per_dnn.len(), want.per_dnn.len());
        for (d, (g, r)) in got.per_dnn.iter().zip(&want.per_dnn).enumerate() {
            prop_assert_eq!(g.to_bits(), r.to_bits(), "dnn {}: {} vs {}", d, g, r);
        }
    }
}

prop_compose! {
    /// One DNN from the whole zoo on either preset, on one component, cut
    /// into 1–3 contiguous stages, or unit-random: the workloads whose
    /// steady state the flat loop skips.
    fn single()(
        jetson in any::<bool>(),
        pick in 0usize..24,
        shape in 0u8..3,
        seed in any::<u64>(),
    ) -> (Platform, Workload, Mapping) {
        let platform = if jetson { Platform::jetson_orin_nx() } else { Platform::orange_pi_5() };
        let w = Workload::from_ids([ModelId::all()[pick]]);
        let mut rng = StdRng::seed_from_u64(seed);
        let components = platform.component_count();
        let m = match shape {
            0 => Mapping::uniform(&w, ComponentId::new(rng.gen_range(0..components))),
            1 => contiguous_mapping(&w, components, &mut rng),
            _ => Mapping::random(&w, components, &mut rng),
        };
        (platform, w, m)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-DNN rates, steady-state skip included, equal the reference
    /// simulation's in every bit, under the short and the paper-scale
    /// window.
    #[test]
    fn single_dnn_event_loop_matches_reference(
        (platform, w, m) in single(),
        paper_window in any::<bool>(),
    ) {
        let cfg = if paper_window { EventConfig::default() } else { EventConfig::quick() };
        let compiled = CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        let got = EventEngine::new(&platform).with_config(cfg).run(&compiled);
        let want = reference_simulate(&compiled, cfg);
        prop_assert_eq!(got.per_dnn[0].to_bits(), want.per_dnn[0].to_bits(),
            "{} vs {}", got.per_dnn[0], want.per_dnn[0]);
    }
}

prop_compose! {
    /// A hand-built compiled workload of up to `max_dnns` DNNs whose stage
    /// and transfer times are whole milliseconds: events land on the same
    /// nanosecond all the time, so the tie order (insertion order) decides
    /// the outcome.
    fn tied(max_dnns: usize)(seed in any::<u64>()) -> CompiledWorkload {
        let mut rng = StdRng::seed_from_u64(seed);
        let components = rng.gen_range(2..=3usize);
        let stages = (0..rng.gen_range(1..=max_dnns))
            .map(|_| {
                (0..rng.gen_range(1..=4usize))
                    .map(|_| {
                        let seconds = rng.gen_range(1..=3u32) as f64 * 1e-3;
                        CompiledStage {
                            component: ComponentId::new(rng.gen_range(0..components)),
                            base_seconds: seconds,
                            inflated_seconds: seconds,
                            working_set: 0.0,
                            transfer_out_seconds: rng.gen_range(0..=2u32) as f64 * 1e-3,
                            kernel_count: rng.gen_range(1..=4usize),
                            preemptive: rng.gen_bool(0.5),
                        }
                    })
                    .collect()
            })
            .collect();
        CompiledWorkload { stages, component_count: components }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under constant collisions the flat loop still pops events in the
    /// reference's order: by time, then by insertion.
    #[test]
    fn event_loop_matches_reference_under_ties(compiled in tied(5)) {
        let cfg = EventConfig { cpu_quantum_seconds: 1e-3, ..EventConfig::quick() };
        let platform = Platform::orange_pi_5();
        let got = EventEngine::new(&platform).with_config(cfg).run(&compiled);
        let want = reference_simulate(&compiled, cfg);
        let bits = |r: &ThroughputReport| r.per_dnn.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "{:?} vs {:?}", got, want);
    }

    /// One tie-heavy DNN under both windows: its state recurs within a
    /// few frames, so most of each run is skipped, and the skip must land
    /// on the reference's tie order and warm-up boundary exactly.
    #[test]
    fn single_dnn_event_loop_matches_reference_under_ties(
        compiled in tied(1),
        paper_window in any::<bool>(),
    ) {
        let window = if paper_window { EventConfig::default() } else { EventConfig::quick() };
        let cfg = EventConfig { cpu_quantum_seconds: 1e-3, ..window };
        let platform = Platform::orange_pi_5();
        let got = EventEngine::new(&platform).with_config(cfg).run(&compiled);
        let want = reference_simulate(&compiled, cfg);
        prop_assert_eq!(got.per_dnn[0].to_bits(), want.per_dnn[0].to_bits(),
            "{:?} vs {:?}", got, want);
    }
}

/// Two whole-millisecond pipelines whose counters and queues recur
/// before their frames in flight do: the pending events' offsets are
/// what tells those states apart, so a skip keyed on counters and rings
/// alone counts the wrong period.
#[test]
fn single_dnn_skip_keys_on_the_events_in_flight() {
    let stage = |component: usize, ms: u32, transfer_ms: u32, kernels: usize, preemptive: bool| {
        CompiledStage {
            component: ComponentId::new(component),
            base_seconds: f64::from(ms) * 1e-3,
            inflated_seconds: f64::from(ms) * 1e-3,
            working_set: 0.0,
            transfer_out_seconds: f64::from(transfer_ms) * 1e-3,
            kernel_count: kernels,
            preemptive,
        }
    };
    let cases = [
        CompiledWorkload {
            stages: vec![vec![stage(0, 1, 2, 2, true), stage(1, 1, 0, 2, false)]],
            component_count: 2,
        },
        CompiledWorkload {
            stages: vec![vec![stage(1, 1, 2, 2, true), stage(1, 1, 1, 4, false)]],
            component_count: 3,
        },
    ];
    let platform = Platform::orange_pi_5();
    for compiled in &cases {
        for window in [EventConfig::quick(), EventConfig::default()] {
            let cfg = EventConfig { cpu_quantum_seconds: 1e-3, ..window };
            let got = EventEngine::new(&platform).with_config(cfg).run(compiled);
            let want = reference_simulate(compiled, cfg);
            assert_eq!(got.per_dnn[0].to_bits(), want.per_dnn[0].to_bits(), "{got:?} vs {want:?}");
        }
    }
}

/// Two single-stage whole-millisecond DNNs on two components both finish
/// a frame on every millisecond, DNN 0 first. A warm-up that ends on the
/// sample where the repeat is found leaves DNN 1's completion at that very
/// nanosecond pending, and the reference does not count it: a skip taken
/// there must count nothing, and find the repeat again past the boundary.
#[test]
fn skip_found_on_the_warm_up_boundary_counts_nothing_at_it() {
    let stage = |component: usize| CompiledStage {
        component: ComponentId::new(component),
        base_seconds: 1e-3,
        inflated_seconds: 1e-3,
        working_set: 0.0,
        transfer_out_seconds: 0.0,
        kernel_count: 1,
        preemptive: false,
    };
    let compiled =
        CompiledWorkload { stages: vec![vec![stage(0)], vec![stage(1)]], component_count: 2 };
    let platform = Platform::orange_pi_5();
    for warmup_ms in 1..=8 {
        let cfg = EventConfig {
            sim_seconds: 1.0,
            warmup_seconds: f64::from(warmup_ms) * 1e-3,
            ..EventConfig::quick()
        };
        let got = EventEngine::new(&platform).with_config(cfg).run(&compiled);
        let want = reference_simulate(&compiled, cfg);
        let bits = |r: &ThroughputReport| r.per_dnn.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "warm-up {warmup_ms} ms: {got:?} vs {want:?}");
    }
}

/// Every unit on a different component from its neighbour: each fused
/// stage is one unit, and every hop pays a cross-component transfer, so
/// frame-arrival events interleave with chunk completions throughout.
#[test]
fn event_loop_matches_reference_under_heavy_transfers() {
    let ids = [ModelId::Vgg16, ModelId::ResNet50, ModelId::InceptionV4, ModelId::MobileNet];
    for platform in [Platform::orange_pi_5(), Platform::jetson_orin_nx()] {
        let components = platform.component_count();
        let w = Workload::from_ids(ids);
        let m = Mapping::new(
            w.models()
                .iter()
                .enumerate()
                .map(|(d, model)| {
                    (0..model.unit_count())
                        .map(|u| ComponentId::new((u + d) % components))
                        .collect()
                })
                .collect(),
        );
        let compiled = CompiledWorkload::compile(&platform, &w, &m, ContentionParams::default());
        let hops: usize = compiled
            .stages
            .iter()
            .flatten()
            .filter(|s| s.transfer_out_seconds > 0.0)
            .count();
        assert!(hops >= 60, "the mapping must force cross-component hops, got {hops}");
        for cfg in [EventConfig::quick(), EventConfig::default()] {
            let got = EventEngine::new(&platform).with_config(cfg).run(&compiled);
            let want = reference_simulate(&compiled, cfg);
            let bits = |r: &ThroughputReport| r.per_dnn.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{got:?} vs {want:?}");
            assert!(got.per_dnn.iter().any(|&x| x > 0.0), "the board must serve something");
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
