//! The shared determinism-conformance harness.
//!
//! Every fleet bit-identity suite — `parallel.rs` (thread widths),
//! `indexed.rs` (index vs full scan), `chaos.rs` (fault schedules),
//! `telemetry.rs` (observation on/off) — asks the same question: does some execution strategy
//! reproduce its reference run **byte for byte** across a
//! seeds × loads × faults matrix? This module owns the three shared
//! pieces so the suites state only their strategy:
//!
//! * [`Scenario`] — the matrix builder: seed × arrival process
//!   (Poisson/OnOff/Diurnal) × optional fault layer × optional
//!   Zipf-skewed popularity, with per-suite rate overrides.
//! * [`assert_identical`] — the outcome bit-compare: structural equality
//!   plus `to_bits` comparison of every float payload (placement deltas,
//!   timeline potentials/throughputs, migration and evacuation stalls —
//!   `==` treats `0.0` and `-0.0` as equal; bit patterns do not).
//! * [`assert_replay_identical`] — the trace-replay check: record the
//!   stream, round-trip it through JSONL (asserting the parse is exact
//!   and that fault traffic upgrades the header to format v3), then
//!   re-execute under the suite's candidate fleet and bit-compare.
//! * [`SpinOracle`] — a slow oracle that makes the thread pool fork. The
//!   `rayon` shim forks only after `rayon::FORK_AFTER` of serial work,
//!   which the small conformance fleets never reach with a real oracle,
//!   so without it the suites would test only the serial fan-outs.

// Each suite uses the subset of the harness its matrix needs; the unused
// remainder is expected, not suspicious.
#![allow(dead_code)]

use rankmap_core::manager::ManagerConfig;
use rankmap_core::oracle::{AnalyticalOracle, ThroughputOracle};
use rankmap_fleet::{
    generate, ArrivalProcess, FaultSpec, FleetEvent, FleetOutcome, FleetRuntime, LoadSpec,
    Popularity, Trace, TraceMeta,
};
use rankmap_platform::Platform;
use rankmap_sim::{Mapping, Workload};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The small per-shard search budget every conformance suite runs with —
/// enough MCTS to make real decisions, small enough for a 64-seed
/// property matrix.
pub fn quick_manager() -> ManagerConfig {
    ManagerConfig { mcts_iterations: 40, warm_iterations: 20, ..Default::default() }
}

/// The conformance fault layer's common shape: per-shard exponential
/// outages (MTBF 150 s, MTTR 40 s) plus throttle episodes. Suites tweak
/// correlation, throttle duration, or the seed via struct update.
pub fn base_faults(shards: usize) -> FaultSpec {
    FaultSpec {
        shards,
        mtbf: 150.0,
        mttr: 40.0,
        throttle_rate: 1.0 / 120.0,
        ..Default::default()
    }
}

/// One cell of the conformance matrix: a seeded load scenario. The
/// defaults reproduce the rates the original `parallel.rs`/`telemetry.rs`
/// scaffolding used; `rates` lets a suite offer heavier traffic.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    /// Arrival process selector: 0 = Poisson, 1 = bursty OnOff,
    /// 2 = Diurnal.
    pub process_idx: usize,
    pub poisson_rate: f64,
    pub burst_rate: f64,
    pub diurnal_rate: f64,
    pub faults: Option<FaultSpec>,
    pub zipf: bool,
}

impl Scenario {
    pub fn new(seed: u64, process_idx: usize) -> Self {
        Self {
            seed,
            process_idx,
            poisson_rate: 1.0 / 18.0,
            burst_rate: 0.2,
            diurnal_rate: 1.0 / 15.0,
            faults: None,
            zipf: false,
        }
    }

    /// Overrides the per-process arrival rates (Poisson rate, OnOff
    /// burst rate, Diurnal mean rate).
    pub fn rates(mut self, poisson: f64, burst: f64, diurnal: f64) -> Self {
        self.poisson_rate = poisson;
        self.burst_rate = burst;
        self.diurnal_rate = diurnal;
        self
    }

    /// Adds a fault layer (see [`base_faults`]).
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Skews model popularity (Zipf exponent 1.0) instead of uniform.
    pub fn zipf(mut self, zipf: bool) -> Self {
        self.zipf = zipf;
        self
    }

    /// The scenario's arrival process.
    pub fn process(&self) -> ArrivalProcess {
        match self.process_idx {
            0 => ArrivalProcess::Poisson { rate: self.poisson_rate },
            1 => ArrivalProcess::OnOff {
                burst_rate: self.burst_rate,
                idle_rate: 0.01,
                mean_burst: 30.0,
                mean_idle: 60.0,
            },
            _ => ArrivalProcess::Diurnal {
                mean_rate: self.diurnal_rate,
                amplitude: 0.8,
                period: 120.0,
            },
        }
    }

    /// The full load spec: a 240 s horizon, 90 s mean residency, and
    /// priority churn every ~80 s (the churn exercises the widest
    /// barrier — every shard re-maps on a `SetPriorities` event).
    pub fn load(&self) -> LoadSpec {
        LoadSpec {
            horizon: 240.0,
            process: self.process(),
            mean_lifetime: 90.0,
            priority_churn_rate: 1.0 / 80.0,
            seed: self.seed,
            faults: self.faults.clone(),
            popularity: if self.zipf {
                Popularity::Zipf { exponent: 1.0 }
            } else {
                Popularity::Uniform
            },
            ..Default::default()
        }
    }
}

/// The outcome bit-compare every conformance suite shares: structural
/// equality of placements/metrics/timelines, then a belt-and-braces
/// `to_bits` comparison of every float payload (`==` treats `0.0` and
/// `-0.0` as equal; bit patterns do not).
pub fn assert_identical(reference: &FleetOutcome, candidate: &FleetOutcome, label: &str) {
    assert_eq!(candidate.placements, reference.placements, "{label}: placement log diverged");
    assert_eq!(candidate.metrics, reference.metrics, "{label}: metrics diverged");
    assert_eq!(candidate.timelines, reference.timelines, "{label}: timelines diverged");
    for (a, b) in reference.timelines.iter().flatten().zip(candidate.timelines.iter().flatten())
    {
        for (x, y) in a.potentials.iter().zip(&b.potentials) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: potential bits diverged");
        }
        for (x, y) in a.throughputs.iter().zip(&b.throughputs) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: throughput bits diverged");
        }
        assert_eq!(
            a.migration_stall.to_bits(),
            b.migration_stall.to_bits(),
            "{label}: stall bits diverged"
        );
    }
    for (a, b) in reference.placements.iter().zip(&candidate.placements) {
        assert_eq!(
            a.predicted_delta.to_bits(),
            b.predicted_delta.to_bits(),
            "{label}: predicted-delta bits diverged"
        );
    }
    assert_eq!(
        reference.metrics.evacuation_stall_seconds.to_bits(),
        candidate.metrics.evacuation_stall_seconds.to_bits(),
        "{label}: evacuation stall bits diverged"
    );
}

/// The trace-replay check: records `spec`'s stream, round-trips it
/// through JSONL (the parse must be exact, and fault traffic must be
/// recorded as a version-3 trace), replays it on the suite's candidate
/// `fleet`, and bit-compares against `reference`.
pub fn assert_replay_identical<O: ThroughputOracle>(
    spec: &LoadSpec,
    shards: usize,
    label: &str,
    reference: &FleetOutcome,
    fleet: FleetRuntime<'_, O>,
) {
    let events = generate(spec);
    let faulted = events.iter().any(|e| {
        matches!(
            e,
            FleetEvent::ShardDown { .. }
                | FleetEvent::ShardUp { .. }
                | FleetEvent::ShardThrottle { .. }
        )
    });
    let trace = Trace::new(TraceMeta::new(shards, spec.horizon, spec.seed, label), events);
    let jsonl = trace.to_jsonl();
    if faulted {
        assert!(
            jsonl.lines().next().unwrap().contains("\"rankmap_fleet_trace\":3"),
            "{label}: a faulted stream must be recorded as a version-3 trace"
        );
    }
    let parsed = Trace::from_jsonl(&jsonl).expect("trace parses");
    assert_eq!(&parsed, &trace, "{label}: events must survive JSONL exactly");
    let replayed = fleet.execute_trace(&parsed);
    assert_identical(reference, &replayed, label);
}

/// A test double that answers exactly like [`AnalyticalOracle`] but
/// busy-waits a quarter of `rayon::FORK_AFTER` per mapping it scores, so
/// a batch or group of five or more mappings runs long enough for the
/// `rayon` shim to fork. It routes its batch and grouped calls through
/// `par_map_slice`, as the real oracles do, and records every thread
/// that scored a mapping.
pub struct SpinOracle<'p> {
    inner: AnalyticalOracle<'p>,
    threads: Mutex<HashSet<ThreadId>>,
}

impl<'p> SpinOracle<'p> {
    pub fn new(platform: &'p Platform) -> Self {
        Self { inner: AnalyticalOracle::new(platform), threads: Mutex::new(HashSet::new()) }
    }

    fn threads(&self) -> std::sync::MutexGuard<'_, HashSet<ThreadId>> {
        self.threads.lock().expect("no scoring thread panics while holding the set")
    }

    /// How many distinct threads have scored a mapping so far.
    pub fn threads_seen(&self) -> usize {
        self.threads().len()
    }
}

impl ThroughputOracle for SpinOracle<'_> {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        let started = Instant::now();
        while started.elapsed() < rayon::FORK_AFTER / 4 {
            std::hint::spin_loop();
        }
        self.threads().insert(std::thread::current().id());
        self.inner.predict(workload, mapping)
    }

    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        rayon::iter::par_map_slice(mappings, &|m| self.predict(workload, m))
    }

    fn predict_grouped(&self, queries: &[(&Workload, &[Mapping])]) -> Vec<Vec<Vec<f64>>> {
        let flat: Vec<(&Workload, &Mapping)> =
            queries.iter().flat_map(|&(w, ms)| ms.iter().map(move |m| (w, m))).collect();
        let mut scored =
            rayon::iter::par_map_slice(&flat, &|&(w, m)| self.predict(w, m)).into_iter();
        queries.iter().map(|(_, ms)| scored.by_ref().take(ms.len()).collect()).collect()
    }

    fn name(&self) -> &'static str {
        "spin"
    }
}
