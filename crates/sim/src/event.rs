//! Discrete-event pipeline simulator — the reproduction's "board".

use crate::contention::{CompiledWorkload, ContentionParams};
use crate::report::ThroughputReport;
use crate::workload::{Mapping, Workload};
use rankmap_platform::Platform;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation window configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Virtual seconds to simulate.
    pub sim_seconds: f64,
    /// Leading portion discarded before counting completions.
    pub warmup_seconds: f64,
    /// Capacity of each inter-stage queue (backpressure depth).
    pub queue_capacity: usize,
    /// Kernel launches are batched into at most this many dispatches per
    /// stage per frame on non-preemptive components: interleaving fidelity
    /// vs event count. `usize::MAX` simulates every kernel individually.
    pub max_chunks_per_stage: usize,
    /// Preemption quantum of the OS scheduler on CPU components, seconds.
    pub cpu_quantum_seconds: f64,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            sim_seconds: 30.0,
            warmup_seconds: 5.0,
            queue_capacity: 2,
            max_chunks_per_stage: 24,
            cpu_quantum_seconds: 0.015,
        }
    }
}

impl EventConfig {
    /// Shorter window for tests and dataset generation.
    pub fn quick() -> Self {
        Self {
            sim_seconds: 12.0,
            warmup_seconds: 2.0,
            queue_capacity: 2,
            max_chunks_per_stage: 12,
            cpu_quantum_seconds: 0.02,
        }
    }
}

/// Discrete-event simulator of a mapped multi-DNN workload.
///
/// Mechanics:
/// * every component runs its assigned stages in **non-preemptive
///   round-robin at kernel granularity**: one dispatch executes a chunk of
///   the stage's kernels, then the stage goes to the back of the queue —
///   exactly how co-resident DNNs interleave on an OpenCL command queue.
///   A stage with many kernels therefore waits for its co-runners once per
///   chunk, which is what starves everyone on a saturated GPU;
/// * adjacent stages are connected by **bounded queues**
///   ([`EventConfig::queue_capacity`]); a stage only accepts a frame when it
///   holds an input and has reserved a downstream slot, and the slot is
///   released only when the next stage *takes* the frame (starts serving
///   it), so frames in flight plus frames waiting at a stage input never
///   exceed the capacity and backpressure propagates like in the ARM-CL
///   pipeline runtime;
/// * stage service times are the contention-inflated costs from
///   [`CompiledWorkload`]; cross-component hops pay the transfer delay.
///
/// Throughput per DNN = frames leaving its last stage after warm-up,
/// divided by the measurement window.
#[derive(Debug, Clone)]
pub struct EventEngine<'p> {
    platform: &'p Platform,
    params: ContentionParams,
    config: EventConfig,
}

impl<'p> EventEngine<'p> {
    /// Creates an engine with the default (paper-scale) window.
    pub fn new(platform: &'p Platform) -> Self {
        Self { platform, params: ContentionParams::default(), config: EventConfig::default() }
    }

    /// Creates an engine with the short window used by tests/dataset labelling.
    pub fn quick(platform: &'p Platform) -> Self {
        Self::new(platform).with_config(EventConfig::quick())
    }

    /// Overrides the window configuration.
    #[must_use]
    pub fn with_config(mut self, config: EventConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the contention parameters.
    #[must_use]
    pub fn with_params(mut self, params: ContentionParams) -> Self {
        self.params = params;
        self
    }

    /// The platform this engine simulates.
    pub fn platform(&self) -> &'p Platform {
        self.platform
    }

    /// Measured ideal throughput of a model alone on the given component
    /// (the paper's `t_ideal` when `component` is the GPU).
    pub fn ideal_rate(
        &self,
        id: rankmap_models::ModelId,
        component: rankmap_platform::ComponentId,
    ) -> f64 {
        let w = Workload::from_ids([id]);
        let m = Mapping::uniform(&w, component);
        self.evaluate(&w, &m).per_dnn[0]
    }

    /// Runs the simulation, returning per-DNN throughput.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is invalid for this workload/platform.
    pub fn evaluate(&self, workload: &Workload, mapping: &Mapping) -> ThroughputReport {
        let compiled = CompiledWorkload::compile(self.platform, workload, mapping, self.params);
        self.run(&compiled)
    }

    /// Runs the simulation against pre-priced workload costs (the hot-loop
    /// path: no per-query roofline walk). Produces exactly what
    /// [`EventEngine::evaluate`] would.
    pub fn evaluate_with(
        &self,
        costs: &crate::contention::WorkloadCosts,
        workload: &Workload,
        mapping: &Mapping,
    ) -> ThroughputReport {
        self.run(&costs.compile(workload, mapping, self.params))
    }

    /// Runs an already compiled workload.
    pub fn run(&self, compiled: &CompiledWorkload) -> ThroughputReport {
        EventSim::new(compiled, self.config).run()
    }
}

/// The simulation state, flattened into struct-of-arrays form.
///
/// Every (DNN, stage) pair gets one global stage id, a DNN's stages being
/// consecutive ids, and every per-stage quantity is one array indexed by
/// it. Chunk plans and transfer delays are priced in nanoseconds once, up
/// front. Each component's round-robin queue is a ring in one shared
/// buffer (a stage sits in at most one queue, at most once). Every pending
/// event is one packed `u128` key, `time << 64 | seq << 24 | stage << 1 |
/// kind`, so events pop by time, then in insertion order: chunk
/// completions wait in one slot per component, frame arrivals in a heap.
///
/// Every simulation also skips its steady state exactly (see [`Cycle`]):
/// the loop is a deterministic integer-nanosecond state machine, so once
/// its whole state recurs, the future repeats with the same period and
/// whole periods can be counted instead of simulated.
struct EventSim {
    horizon: u64,
    warmup: u64,
    /// Measurement window, seconds (the divisor of every rate).
    window: f64,
    capacity: u32,
    /// Component index of each stage.
    comp: Vec<u32>,
    /// Whether the stage is its DNN's first (an infinite frame source).
    first: Vec<bool>,
    /// Whether the stage is its DNN's last (frames leave the pipeline).
    last: Vec<bool>,
    /// Chunks per frame.
    chunks: Vec<u32>,
    /// Nanoseconds per chunk.
    chunk_ns: Vec<u64>,
    /// Nanoseconds to ship a frame to the next stage; 0 hands it over at
    /// once (same component, or the last stage).
    transfer_ns: Vec<u64>,
    /// Frames waiting at each stage input.
    avail: Vec<u32>,
    /// Reserved downstream-queue slots per stage.
    reserved: Vec<u32>,
    /// Chunks completed of the frame currently in service (0 = idle).
    progress: Vec<u32>,
    /// Whether the stage is in its component's round-robin queue.
    queued: Vec<bool>,
    /// Frames completed after warm-up (counted at last stages only).
    done: Vec<u32>,
    /// Round-robin rings: component `c` owns
    /// `ring[ring_base[c]..ring_base[c] + ring_cap[c]]`.
    ring: Vec<u32>,
    ring_base: Vec<u32>,
    ring_cap: Vec<u32>,
    ring_head: Vec<u32>,
    ring_len: Vec<u32>,
    /// Packed key of each component's in-flight chunk completion
    /// (`IDLE` when the component is idle). A component runs one chunk
    /// at a time, so chunk completions never need the heap.
    running: Vec<u128>,
    /// Pending frame arrivals (cross-component transfers).
    heap: BinaryHeap<Reverse<u128>>,
    seq: u64,
    /// Last stage id of each DNN, in DNN order.
    last_of: Vec<u32>,
    /// DNN index of each stage.
    dnn: Vec<u32>,
}

/// Key of an idle component's (absent) chunk completion.
const IDLE: u128 = u128::MAX;

const EV_CHUNK_DONE: u64 = 0;
const EV_FRAME_ARRIVED: u64 = 1;

/// Bits of a heap key's low word below the sequence number: the stage id
/// and the event kind.
const SEQ_SHIFT: u32 = 24;
const STAGE_MASK: u64 = (1 << (SEQ_SHIFT - 1)) - 1;

fn to_ns(s: f64) -> u64 {
    (s * 1e9).round().max(0.0) as u64
}

impl EventSim {
    fn new(compiled: &CompiledWorkload, cfg: EventConfig) -> Self {
        let total: usize = compiled.stages.iter().map(Vec::len).sum();
        assert!(total as u64 <= STAGE_MASK, "too many stages for the event engine");
        let mut sim = Self {
            horizon: to_ns(cfg.sim_seconds),
            warmup: to_ns(cfg.warmup_seconds),
            window: (cfg.sim_seconds - cfg.warmup_seconds).max(1e-9),
            capacity: u32::try_from(cfg.queue_capacity).unwrap_or(u32::MAX),
            comp: Vec::with_capacity(total),
            first: Vec::with_capacity(total),
            last: Vec::with_capacity(total),
            chunks: Vec::with_capacity(total),
            chunk_ns: Vec::with_capacity(total),
            transfer_ns: Vec::with_capacity(total),
            avail: vec![0; total],
            reserved: vec![0; total],
            progress: vec![0; total],
            queued: vec![false; total],
            done: vec![0; total],
            ring: vec![0; total],
            ring_base: Vec::with_capacity(compiled.component_count),
            ring_cap: vec![0; compiled.component_count],
            ring_head: vec![0; compiled.component_count],
            ring_len: vec![0; compiled.component_count],
            running: vec![IDLE; compiled.component_count],
            heap: BinaryHeap::new(),
            seq: 0,
            last_of: Vec::with_capacity(compiled.dnn_count()),
            dnn: Vec::with_capacity(total),
        };
        for (d, stages) in compiled.stages.iter().enumerate() {
            for (k, s) in stages.iter().enumerate() {
                // CPU stages are sliced by the scheduler quantum; GPU
                // stages only yield at kernel boundaries.
                let n = if s.preemptive {
                    (s.inflated_seconds / cfg.cpu_quantum_seconds).ceil().max(1.0) as usize
                } else {
                    s.kernel_count.clamp(1, cfg.max_chunks_per_stage)
                };
                let last = k + 1 == stages.len();
                let transfer = s.transfer_out_seconds;
                sim.comp.push(s.component.index() as u32);
                sim.dnn.push(d as u32);
                sim.first.push(k == 0);
                sim.last.push(last);
                sim.chunks.push(u32::try_from(n).unwrap_or(u32::MAX));
                sim.chunk_ns.push(to_ns(s.inflated_seconds / n as f64).max(1));
                sim.transfer_ns.push(if !last && transfer > 0.0 {
                    to_ns(transfer).max(1)
                } else {
                    0
                });
                sim.ring_cap[s.component.index()] += 1;
                if last {
                    sim.last_of.push(sim.comp.len() as u32 - 1);
                }
            }
        }
        let mut base = 0;
        for &cap in &sim.ring_cap {
            sim.ring_base.push(base);
            base += cap;
        }
        sim
    }

    fn can_accept_frame(&self, s: usize) -> bool {
        (self.first[s] || self.avail[s] > 0)
            && (self.last[s] || self.reserved[s] < self.capacity)
    }

    /// Runnable: mid-frame (always) or able to start a fresh frame.
    fn runnable(&self, s: usize) -> bool {
        self.progress[s] > 0 || self.can_accept_frame(s)
    }

    /// The packed key of a new event: ordered by time, then by creation.
    fn event_key(&mut self, t: u64, s: usize, kind: u64) -> u128 {
        self.seq += 1;
        debug_assert!(self.seq < 1 << (64 - SEQ_SHIFT), "event sequence overflow");
        let low = (self.seq << SEQ_SHIFT) | ((s as u64) << 1) | kind;
        (u128::from(t) << 64) | u128::from(low)
    }

    fn ring_push(&mut self, c: usize, s: usize) {
        let (cap, len) = (self.ring_cap[c], self.ring_len[c]);
        debug_assert!(len < cap, "a stage is queued at most once");
        let mut slot = self.ring_head[c] + len;
        if slot >= cap {
            slot -= cap;
        }
        self.ring[(self.ring_base[c] + slot) as usize] = s as u32;
        self.ring_len[c] = len + 1;
    }

    fn ring_pop(&mut self, c: usize) -> Option<usize> {
        if self.ring_len[c] == 0 {
            return None;
        }
        let head = self.ring_head[c];
        let s = self.ring[(self.ring_base[c] + head) as usize] as usize;
        self.ring_head[c] = if head + 1 == self.ring_cap[c] { 0 } else { head + 1 };
        self.ring_len[c] -= 1;
        Some(s)
    }

    /// Enqueues a stage in its component's RR queue if runnable and absent.
    fn wake(&mut self, s: usize, now: u64) {
        if !self.queued[s] && self.runnable(s) {
            let c = self.comp[s] as usize;
            self.ring_push(c, s);
            self.queued[s] = true;
            self.dispatch(c, now);
        }
    }

    /// If the component is idle, starts the next runnable stage's chunk.
    fn dispatch(&mut self, c: usize, now: u64) {
        if self.running[c] != IDLE {
            return;
        }
        while let Some(s) = self.ring_pop(c) {
            self.queued[s] = false;
            let fresh = self.progress[s] == 0;
            if fresh {
                // Start a fresh frame if inputs/space allow.
                if !self.can_accept_frame(s) {
                    continue;
                }
                if !self.last[s] {
                    self.reserved[s] += 1;
                }
            }
            self.running[c] = self.event_key(now + self.chunk_ns[s], s, EV_CHUNK_DONE);
            if fresh && !self.first[s] {
                // Taking the frame frees its slot in the upstream stage's
                // queue; that stage may have been blocked on it.
                self.avail[s] -= 1;
                self.reserved[s - 1] -= 1;
                self.wake(s - 1, now);
            }
            return;
        }
    }

    // Both loops inline the event handlers, as the one loop did.
    #[inline(always)]
    fn on_chunk_done(&mut self, t: u64, s: usize) {
        let c = self.comp[s] as usize;
        self.running[c] = IDLE;
        self.progress[s] += 1;
        if self.progress[s] >= self.chunks[s] {
            // Frame complete.
            self.progress[s] = 0;
            if self.last[s] {
                if t > self.warmup {
                    self.done[s] += 1;
                }
            } else if self.transfer_ns[s] > 0 {
                let key = self.event_key(t + self.transfer_ns[s], s + 1, EV_FRAME_ARRIVED);
                self.heap.push(Reverse(key));
            } else {
                self.frame_arrived(s + 1);
                self.wake(s + 1, t);
            }
        }
        // Back of the queue (round-robin) if there is more to do.
        self.wake(s, t);
        self.dispatch(c, t);
    }

    #[inline(always)]
    fn on_frame_arrived(&mut self, t: u64, s: usize) {
        self.frame_arrived(s);
        self.wake(s, t);
    }

    /// A frame joins stage `s`'s input queue. Its upstream slot stays
    /// reserved until `s` takes the frame (see [`EventSim::dispatch`]).
    #[inline(always)]
    fn frame_arrived(&mut self, s: usize) {
        self.avail[s] += 1;
        #[cfg(test)]
        tests::QUEUE_HIGH_WATER.with(|h| h.set(h.get().max(self.avail[s])));
    }

    /// Runs to the horizon, skipping the steady state once it recurs.
    fn run(self) -> ThroughputReport {
        let cycle = Cycle::new(self.last_of.len());
        self.run_loop(Some(cycle))
    }

    /// The event loop. With a [`Cycle`] it samples the state at DNN 0's
    /// frame completions and skips whole periods once the state repeats;
    /// without one (or once the skip is taken) it simulates every event.
    fn run_loop(mut self, mut cycle: Option<Cycle>) -> ThroughputReport {
        let mut s = 0;
        for d in 0..self.last_of.len() {
            self.wake(s, 0);
            s = self.last_of[d] as usize + 1;
        }
        loop {
            // The earliest pending event: the first chunk to finish, or
            // the first frame to arrive, whichever comes first.
            // `on_chunk_done` marks the component idle again.
            let chunk = self.running.iter().copied().min().unwrap_or(IDLE);
            let key = match self.heap.peek() {
                Some(&Reverse(arrival)) if arrival < chunk => {
                    self.heap.pop();
                    arrival
                }
                _ if chunk != IDLE => chunk,
                _ => break,
            };
            let t = (key >> 64) as u64;
            if t > self.horizon {
                break;
            }
            let low = key as u64;
            let s = ((low >> 1) & STAGE_MASK) as usize;
            if low & 1 == EV_CHUNK_DONE {
                self.on_chunk_done(t, s);
                // A finished frame resets its stage's progress to 0.
                if self.last[s] && self.progress[s] == 0 {
                    if let Some(c) = &mut cycle {
                        let d = self.dnn[s] as usize;
                        c.frames[d] += 1;
                        if d == 0 && !self.sample(c, t) {
                            cycle = None;
                        }
                    }
                }
            } else {
                self.on_frame_arrived(t, s);
            }
        }
        ThroughputReport::new(
            self.last_of.iter().map(|&s| f64::from(self.done[s as usize]) / self.window).collect(),
        )
    }

    /// Records the state after a completion of DNN 0's frame at `t` and,
    /// on an exact repeat, skips whole periods. Returns `false` once the
    /// skip to the horizon is taken and there is nothing left to detect.
    fn sample(&mut self, c: &mut Cycle, t: u64) -> bool {
        self.snapshot(t, &mut c.current, &mut c.keys);
        c.lam += 1;
        if c.current == c.tortoise {
            let period = t - c.t0;
            if t <= self.warmup {
                // Nothing up to the warm-up boundary counts (and another
                // DNN's completion may still be pending at `t` itself):
                // land just short of it, then find the repeat again past
                // it. The state repeats every `lam <= power` samples, so
                // the tortoise (whose contents equal the state here)
                // stays.
                let k = (self.warmup - t) / period;
                self.shift(k * period);
                c.t0 = t + k * period;
                c.frames0.copy_from_slice(&c.frames);
                c.lam = 0;
                return true;
            }
            // Every completion from here on counts: jump every whole
            // period that ends by the horizon, add each DNN's frames of
            // those periods, then simulate the tail.
            let k = (self.horizon - t) / period;
            self.shift(k * period);
            for (d, &last) in self.last_of.iter().enumerate() {
                let per_period = c.frames[d] - c.frames0[d];
                let skipped = u32::try_from(k * per_period).expect("frame count overflow");
                self.done[last as usize] += skipped;
            }
            return false;
        }
        if c.lam >= c.power {
            std::mem::swap(&mut c.tortoise, &mut c.current);
            c.t0 = t;
            c.frames0.copy_from_slice(&c.frames);
            c.power = 2 * c.lam;
            c.lam = 0;
        }
        true
    }

    /// The full simulation state at time `t`, relative to `t`: every
    /// per-stage counter, each ring's contents read from its head, then
    /// every pending event's time offset, stage and kind in `(time, seq)`
    /// order. Equal snapshots at two times mean equal futures, shifted.
    fn snapshot(&self, t: u64, out: &mut Vec<u64>, keys: &mut Vec<u128>) {
        out.clear();
        for s in 0..self.comp.len() {
            out.push(u64::from(self.avail[s]) << 32 | u64::from(self.reserved[s]));
            out.push(u64::from(self.progress[s]) << 1 | u64::from(self.queued[s]));
        }
        for c in 0..self.ring_len.len() {
            let (base, cap, head, len) =
                (self.ring_base[c], self.ring_cap[c], self.ring_head[c], self.ring_len[c]);
            out.push(u64::from(len));
            for i in 0..len {
                let slot = if head + i >= cap { head + i - cap } else { head + i };
                out.push(u64::from(self.ring[(base + slot) as usize]));
            }
        }
        keys.clear();
        keys.extend(self.running.iter().copied().filter(|&k| k != IDLE));
        keys.extend(self.heap.iter().map(|&Reverse(k)| k));
        keys.sort_unstable();
        for &key in keys.iter() {
            out.push((key >> 64) as u64 - t);
            out.push(key as u64 & ((1 << SEQ_SHIFT) - 1));
        }
    }

    /// Moves every pending event `dt` nanoseconds later. Sequence numbers
    /// stay, so ties still break in creation order.
    fn shift(&mut self, dt: u64) {
        if dt == 0 {
            return;
        }
        #[cfg(test)]
        tests::SKIPPED_NS.with(|n| n.set(n.get() + dt));
        let d = u128::from(dt) << 64;
        for key in &mut self.running {
            if *key != IDLE {
                *key += d;
            }
        }
        let mut heap = std::mem::take(&mut self.heap).into_vec();
        for Reverse(key) in &mut heap {
            *key += d;
        }
        self.heap = BinaryHeap::from(heap);
    }
}

/// Brent's cycle detection over [`EventSim`] snapshots taken at each
/// frame completion of DNN 0. The snapshot holds the whole state, every
/// DNN's included, so a repeat is exact whichever completions are sampled.
/// `lam` counts samples since the tortoise; the tortoise moves to the
/// current snapshot when `lam` reaches `power` (at once on the first
/// sample), and `power` doubles. A repeat is a period of `t - t0`
/// nanoseconds in which DNN `d` completes `frames[d] - frames0[d]` frames.
struct Cycle {
    tortoise: Vec<u64>,
    current: Vec<u64>,
    /// Scratch for sorting the pending events.
    keys: Vec<u128>,
    /// Frames each DNN has completed so far, warm-up included.
    frames: Vec<u64>,
    /// Time and per-DNN frame counts of the tortoise sample.
    t0: u64,
    frames0: Vec<u64>,
    power: u64,
    lam: u64,
}

impl Cycle {
    fn new(dnns: usize) -> Self {
        Cycle {
            tortoise: Vec::new(),
            current: Vec::new(),
            keys: Vec::new(),
            frames: vec![0; dnns],
            t0: 0,
            frames0: vec![0; dnns],
            power: 0,
            lam: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::AnalyticalEngine;
    use rankmap_models::ModelId;
    use rankmap_platform::ComponentId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    thread_local! {
        /// Simulated nanoseconds the steady-state skip jumped over on
        /// this test's thread.
        pub(super) static SKIPPED_NS: Cell<u64> = const { Cell::new(0) };
        /// The most frames ever waiting at one stage input on this test's
        /// thread.
        pub(super) static QUEUE_HIGH_WATER: Cell<u32> = const { Cell::new(0) };
    }

    /// The loop's report, and how much of the window it skipped: `run`'s
    /// loop, or with `skip` off every event simulated.
    fn simulate(
        p: &Platform,
        w: &Workload,
        m: &Mapping,
        cfg: EventConfig,
        skip: bool,
    ) -> (ThroughputReport, u64) {
        let compiled = CompiledWorkload::compile(p, w, m, ContentionParams::default());
        SKIPPED_NS.with(|n| n.set(0));
        let sim = EventSim::new(&compiled, cfg);
        let cycle = skip.then(|| Cycle::new(w.len()));
        let report = sim.run_loop(cycle);
        (report, SKIPPED_NS.with(Cell::get))
    }

    /// Asserts that `run` skips more than `min_share` of the window and
    /// still reports the full loop's rates bit for bit.
    fn assert_skips_exactly(p: &Platform, w: &Workload, m: &Mapping, min_share: f64) {
        let ids: Vec<ModelId> = w.models().iter().map(|m| m.id()).collect();
        for cfg in [EventConfig::quick(), EventConfig::default()] {
            let (skipping, skipped) = simulate(p, w, m, cfg, true);
            let (full, none) = simulate(p, w, m, cfg, false);
            assert_eq!(none, 0);
            let bits = |r: &ThroughputReport| r.per_dnn.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&skipping), bits(&full), "{ids:?}");
            assert!(full.per_dnn.iter().all(|&x| x > 0.0), "{ids:?}: every DNN is served");
            let share = skipped as f64 / to_ns(cfg.sim_seconds) as f64;
            assert!(share > min_share, "{ids:?}: only {share:.3} of the window skipped");
        }
    }

    #[test]
    fn steady_state_skip_covers_most_of_a_single_dnn_window() {
        let p = Platform::orange_pi_5();
        for (id, c) in [(ModelId::AlexNet, 0), (ModelId::ResNet50, 1), (ModelId::MobileNet, 2)] {
            let w = Workload::from_ids([id]);
            assert_skips_exactly(&p, &w, &Mapping::uniform(&w, ComponentId::new(c)), 0.8);
        }
    }

    #[test]
    fn recurring_two_dnn_mix_skips_most_of_its_window_exactly() {
        let p = Platform::orange_pi_5();
        // Both on the big cores, then AlexNet split into a GPU head and a
        // big-core tail next to EfficientNet-B1 on the GPU: the split's
        // bounded queue lets the joint state recur too.
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::EfficientNetB0]);
        assert_skips_exactly(&p, &w, &Mapping::uniform(&w, ComponentId::new(1)), 0.5);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::EfficientNetB1]);
        let units = w.models()[0].unit_count();
        let mut alexnet = vec![ComponentId::new(0); units];
        alexnet[units / 2..].fill(ComponentId::new(1));
        let efficientnet = vec![ComponentId::new(0); w.models()[1].unit_count()];
        assert_skips_exactly(&p, &w, &Mapping::new(vec![alexnet, efficientnet]), 0.5);
    }

    #[test]
    fn single_dnn_rate_close_to_pipeline_bound() {
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        let r = eng.evaluate(&w, &m);
        let compiled = CompiledWorkload::compile(&p, &w, &m, ContentionParams::default());
        let bound = compiled.pipeline_bound(0);
        let ratio = r.per_dnn[0] / bound;
        assert!(
            (0.8..=1.05).contains(&ratio),
            "event rate should approach the pipeline bound: {ratio}"
        );
    }

    #[test]
    fn paper_t_ideal_calibration_on_event_engine() {
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let gpu = ComponentId::new(0);
        let alexnet = eng.ideal_rate(ModelId::AlexNet, gpu);
        let squeezenet = eng.ideal_rate(ModelId::SqueezeNet, gpu);
        let resnet = eng.ideal_rate(ModelId::ResNet50, gpu);
        let inception = eng.ideal_rate(ModelId::InceptionResnetV1, gpu);
        assert!(squeezenet > alexnet, "SqueezeNet must out-rate AlexNet");
        assert!(alexnet > resnet, "AlexNet must out-rate ResNet-50");
        assert!(resnet > inception, "ResNet-50 must out-rate Inception-ResNet-V1");
        assert!(inception > 1.0, "Inception-ResNet-V1 should still progress alone");
    }

    #[test]
    fn gpu_pileup_collapses_light_dnn_too() {
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let alone = eng.ideal_rate(ModelId::SqueezeNetV2, ComponentId::new(0));
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
        ]);
        let r = eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0)));
        assert!(
            r.per_dnn[0] < alone * 0.2,
            "kernel interleaving should drag SqueezeNet down: {} vs {alone}",
            r.per_dnn[0]
        );
    }

    #[test]
    fn oversubscription_starves_heavy_dnn() {
        // Five models all on the LITTLE cluster: the heavy ones should drop
        // below the starvation potential.
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let w = Workload::from_ids([
            ModelId::InceptionV4,
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::DenseNet169,
            ModelId::Vgg16,
        ]);
        let r = eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(2)));
        let gpu = ComponentId::new(0);
        let ideals: Vec<f64> =
            w.models().iter().map(|m| eng.ideal_rate(m.id(), gpu)).collect();
        let pots = r.potentials(&ideals);
        assert!(
            pots.iter().any(|&p| p < crate::STARVATION_POTENTIAL),
            "an all-LITTLE pileup must starve someone: {pots:?}"
        );
    }

    #[test]
    fn event_and_analytical_agree_on_ranking() {
        let p = Platform::orange_pi_5();
        let ev = EventEngine::quick(&p);
        let an = AnalyticalEngine::new(&p);
        let w = Workload::from_ids([ModelId::ResNet50, ModelId::MobileNet, ModelId::SqueezeNetV2]);
        let mut rng = StdRng::seed_from_u64(17);
        let mut pairs = Vec::new();
        for _ in 0..8 {
            let m = Mapping::random(&w, 3, &mut rng);
            pairs.push((ev.evaluate(&w, &m).average(), an.evaluate(&w, &m).average()));
        }
        let mut concordant = 0;
        let mut total = 0;
        for i in 0..pairs.len() {
            for j in i + 1..pairs.len() {
                total += 1;
                if (pairs[i].0 - pairs[j].0) * (pairs[i].1 - pairs[j].1) >= 0.0 {
                    concordant += 1;
                }
            }
        }
        assert!(
            concordant as f64 / total as f64 > 0.6,
            "engines should mostly agree on mapping order: {concordant}/{total}"
        );
    }

    /// The most frames that waited at one stage input while `eng`
    /// simulated `m`.
    fn queue_high_water(eng: &EventEngine<'_>, w: &Workload, m: &Mapping) -> u32 {
        QUEUE_HIGH_WATER.with(|h| h.set(0));
        let r = eng.evaluate(w, m);
        assert!(r.per_dnn.iter().all(|x| x.is_finite()), "{r:?}");
        QUEUE_HIGH_WATER.with(Cell::get)
    }

    #[test]
    fn backpressure_limits_queues() {
        // A pathologically unbalanced pipeline: VGG-16's first half on the
        // GPU feeds its second half on the LITTLE cluster, and frames pile
        // up in front of the slow tail until the GPU stage blocks on its
        // slots.
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let capacity = EventConfig::quick().queue_capacity as u32;
        let w = Workload::from_ids([ModelId::Vgg16]);
        let mut assign = vec![ComponentId::new(0); 16];
        assign[8..].fill(ComponentId::new(2));
        let high = queue_high_water(&eng, &w, &Mapping::new(vec![assign]));
        assert_eq!(high, capacity, "the tail's queue fills, and no further");

        // Random multi-DNN mappings on both presets.
        let mut rng = StdRng::seed_from_u64(23);
        for p in [Platform::orange_pi_5(), Platform::jetson_orin_nx()] {
            let eng = EventEngine::quick(&p);
            for n in 2..=4 {
                let ids = [ModelId::ResNet50, ModelId::MobileNet, ModelId::Vgg16, ModelId::AlexNet];
                let w = Workload::from_ids(ids[..n].iter().copied());
                for _ in 0..5 {
                    let m = Mapping::random(&w, p.component_count(), &mut rng);
                    let high = queue_high_water(&eng, &w, &m);
                    assert!(high <= capacity, "{high} frames queued at capacity {capacity}");
                }
            }
        }
    }

    #[test]
    fn determinism() {
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mapping::random(&w, 3, &mut rng);
        let a = eng.evaluate(&w, &m);
        let b = eng.evaluate(&w, &m);
        assert_eq!(a, b, "the event engine must be deterministic");
    }

    #[test]
    fn spreading_beats_baseline_on_event_engine() {
        let p = Platform::orange_pi_5();
        let eng = EventEngine::quick(&p);
        let w = Workload::from_ids([
            ModelId::SqueezeNetV2,
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
        ]);
        let baseline = eng.evaluate(&w, &Mapping::uniform(&w, ComponentId::new(0))).average();
        let mut rng = StdRng::seed_from_u64(9);
        let better = (0..20)
            .filter(|_| {
                let m = Mapping::random(&w, 3, &mut rng);
                eng.evaluate(&w, &m).average() > baseline
            })
            .count();
        assert!(
            better >= 15,
            "most random mappings should beat the all-GPU baseline, got {better}/20"
        );
    }
}
