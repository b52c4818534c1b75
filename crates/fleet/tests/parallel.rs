//! Determinism of the shard-parallel executor: `Parallelism::Threads(n)`
//! must produce placements, metrics, and per-shard timelines
//! **bit-identical** to `Parallelism::Sequential` — across seeds, load
//! shapes, and thread counts (including widths far above the shard
//! count) — and recorded traces must replay bit-for-bit *under the
//! parallel executor*.
//!
//! This is the load-bearing guarantee of the executor refactor: threading
//! is an execution strategy, never a policy. Work between event barriers
//! is partitioned by shard and merged in canonical shard order, so no
//! floating-point operation ever changes its association order (see
//! `rankmap_fleet::executor`'s determinism argument). The scenario
//! matrix, outcome bit-compare, and trace-replay check live in the
//! shared conformance harness (`tests/common/mod.rs`).

mod common;

use common::{
    assert_identical, assert_replay_identical, base_faults, quick_manager, Scenario, SpinOracle,
};
use proptest::prelude::*;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    generate, FaultSpec, FleetConfig, FleetEvent, FleetOutcome, FleetRuntime, FleetSpec,
    LoadSpec, Parallelism, RequestId, ShardSpec, TelemetrySpec,
};
use rankmap_models::ModelId;
use rankmap_platform::Platform;

fn config(parallelism: Parallelism) -> FleetConfig {
    FleetConfig {
        manager: quick_manager(),
        max_per_shard: 3,
        // Rebalance eagerly so migrations (the two-shard apply) are part
        // of what the property covers.
        rebalance_threshold: 0.6,
        rebalance_margin: 0.02,
        parallelism,
        ..Default::default()
    }
}

fn load(seed: u64, process_idx: usize) -> LoadSpec {
    Scenario::new(seed, process_idx).load()
}

fn run(platform: &Platform, spec: &LoadSpec, parallelism: Parallelism) -> FleetOutcome {
    let oracle = AnalyticalOracle::new(platform);
    let events = generate(spec);
    FleetRuntime::homogeneous(platform, &oracle, 3, config(parallelism))
        .execute(&events, spec.horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline property: every thread count — serial, matching the
    /// shard count, and far oversubscribing it — reproduces the
    /// `Sequential` run byte for byte, across seeds and load shapes,
    /// and the recorded trace replays bit-for-bit under the parallel
    /// executor.
    #[test]
    fn threads_reproduce_sequential_bit_for_bit(
        seed in 0u64..64,
        process_idx in 0usize..3,
    ) {
        let platform = Platform::orange_pi_5();
        let spec = load(seed, process_idx);
        let reference = run(&platform, &spec, Parallelism::Sequential);
        // A run worth comparing: the stream admitted something.
        prop_assert!(reference.metrics.offered > 0);
        for n in [1usize, 2, 4, 8] {
            let threaded = run(&platform, &spec, Parallelism::Threads(n));
            assert_identical(&reference, &threaded, &format!("Threads({n}) seed {seed}"));
        }
        // Trace replay under the parallel executor: record the stream,
        // parse it back, and run it Threads(4) — still bit-identical.
        let oracle = AnalyticalOracle::new(&platform);
        assert_replay_identical(
            &spec,
            3,
            &format!("parallel-replay seed {seed}"),
            &reference,
            FleetRuntime::homogeneous(&platform, &oracle, 3, config(Parallelism::Threads(4))),
        );
    }
}

/// The mixed-fleet variant: two platform groups (two grouped-scoring
/// domains, two oracles) under the threaded executor still reproduce a
/// `Sequential` run exactly.
#[test]
fn mixed_fleet_threads_match_sequential() {
    let orange = Platform::orange_pi_5();
    let jetson = Platform::jetson_orin_nx();
    let orange_oracle = AnalyticalOracle::new(&orange);
    let jetson_oracle = AnalyticalOracle::new(&jetson);
    let spec = load(11, 1);
    let events = generate(&spec);
    let fleet = |parallelism| {
        FleetRuntime::new(
            &FleetSpec::new(vec![
                ShardSpec::new(&orange, &orange_oracle, 2),
                ShardSpec::new(&jetson, &jetson_oracle, 2),
            ]),
            FleetConfig { parallelism, ..config(parallelism) },
        )
    };
    let reference = fleet(Parallelism::Sequential).execute(&events, spec.horizon);
    assert!(reference.metrics.offered > 0);
    for n in [2usize, 4, 8] {
        let threaded = fleet(Parallelism::Threads(n)).execute(&events, spec.horizon);
        assert_identical(&reference, &threaded, &format!("mixed Threads({n})"));
    }
}

/// The reference placement paths (a probe and a `predict_batch` call per
/// shard, a full health scan) are thread-invariant too, and the single
/// path reproduces them at every width.
#[test]
fn non_fused_scoring_is_thread_invariant() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let spec = load(3, 0);
    let events = generate(&spec);
    let run = |reference: bool, parallelism| {
        let fleet = FleetRuntime::homogeneous(&platform, &oracle, 3, config(parallelism));
        let fleet = if reference { fleet.with_reference_placement() } else { fleet };
        fleet.execute(&events, spec.horizon)
    };
    let reference = run(true, Parallelism::Sequential);
    assert_identical(&reference, &run(true, Parallelism::Threads(4)), "reference Threads(4)");
    assert_identical(&reference, &run(false, Parallelism::Threads(4)), "single path Threads(4)");
}

/// The forked arm: with an oracle slow enough that its batch and grouped
/// calls cross `rayon::FORK_AFTER`, those fan-outs really split across
/// threads, and `Threads(2)` must still reproduce `Sequential` bit for
/// bit — across all three arrival processes, the last with the fault
/// layer on. (The shard fans of a 3-shard fleet rarely reach the
/// threshold; the oracle's fans, nested inside them under `Threads(2)`,
/// do.)
#[test]
fn forked_fan_outs_match_sequential() {
    let platform = Platform::orange_pi_5();
    for process_idx in 0..3 {
        let mut scenario = Scenario::new(5, process_idx);
        if process_idx == 2 {
            scenario = scenario.faults(FaultSpec { seed: 0x5EED, ..base_faults(3) });
        }
        let spec = scenario.load();
        let events = generate(&spec);
        let run = |parallelism| {
            let oracle = SpinOracle::new(&platform);
            let outcome = FleetRuntime::homogeneous(&platform, &oracle, 3, config(parallelism))
                .execute(&events, spec.horizon);
            (outcome, oracle.threads_seen())
        };
        let (reference, sequential_threads) = run(Parallelism::Sequential);
        assert!(reference.metrics.offered > 0);
        let (forked, threaded_threads) = run(Parallelism::Threads(2));
        // The oracle's fans fork whenever the global pool is wider than
        // one thread (`RAYON_NUM_THREADS=1` keeps them serial).
        if rayon::current_num_threads() > 1 {
            assert!(sequential_threads > 1, "process {process_idx}: Sequential never forked");
            assert!(threaded_threads > 1, "process {process_idx}: Threads(2) never forked");
        }
        assert_identical(&reference, &forked, &format!("forked Threads(2) process {process_idx}"));
    }
}

/// The retry-before-event tie rule: a backoff retry that lands at
/// exactly the timestamp of a stream event fires first (it was offered
/// strictly earlier), and every executor width reproduces that
/// interleaving bit for bit.
#[test]
fn retry_at_an_equal_timestamp_orders_before_the_event() {
    // One single-slot shard: A occupies it, B rejects and schedules a
    // retry at exactly t=10 — the same instant A departs. The retry
    // fires first (B's slot request predates the departure), still finds
    // the shard full (A departs only at the event *after* the retry),
    // and finalizes as rejected; A's departure then frees the slot; C
    // admits.
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let arrive = |at, id, model| FleetEvent::Arrive { at, request: RequestId::new(id), model };
    let events = [
        arrive(0.0, 0, ModelId::ResNet50),
        arrive(1.0, 1, ModelId::MobileNet),
        FleetEvent::Depart { at: 10.0, request: RequestId::new(0) },
        arrive(11.0, 2, ModelId::AlexNet),
    ];
    let config = |parallelism| FleetConfig {
        manager: quick_manager(),
        max_per_shard: 1,
        admission_floor: 0.0,
        retry_limit: 1,
        retry_backoff: 9.0,
        telemetry: TelemetrySpec::on(),
        parallelism,
        ..Default::default()
    };
    let run = |parallelism| {
        FleetRuntime::homogeneous(&platform, &oracle, 1, config(parallelism))
            .execute(&events, 100.0)
    };
    let reference = run(Parallelism::Sequential);
    assert_eq!(reference.metrics.retries, 1, "{:?}", reference.metrics);
    assert_eq!(
        reference.metrics.admitted, 2,
        "B's equal-time retry must fire before A's departure frees the slot: {:?}",
        reference.metrics
    );
    assert_eq!(reference.metrics.rejected, 1, "{:?}", reference.metrics);
    for n in [1usize, 2, 4] {
        let threaded = run(Parallelism::Threads(n));
        assert_identical(&reference, &threaded, &format!("retry tie Threads({n})"));
    }
}
