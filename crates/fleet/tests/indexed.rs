//! Bit-identity of the single placement path against the reference
//! full scans. Placement asks one question per distinct shard state and
//! folds it with each shard's own throttle, answers repeated questions
//! from the cross-event score memo before building any probe, asks the
//! rest through one grouped oracle call per platform group, and reads
//! fleet health from the O(log S) index. The reference (`with_reference_placement`)
//! scores every shard by its own probe and `predict_batch` call and scans
//! every shard's health. The two must agree **byte for byte** —
//! placements, metrics, and per-shard timelines — across seeds, every
//! arrival process (including Zipf-skewed popularity), homogeneous and
//! mixed fleets, thread counts, memo bounds, throttles and outages, and
//! static priority vectors.
//!
//! This is the load-bearing guarantee of the index and the memo: like
//! the executor's threading, they are execution strategies, never
//! policies. A memo key (state without throttle, arrival, priority
//! tag) pins every fold term but the derate, so shards in one state
//! share one question, and the health BTree's first
//! element *is* the scan's `min_by(total_cmp)` answer (see
//! `rankmap_fleet::index`). The scenario matrix, bit-compare, and replay
//! check come from the shared conformance harness (`tests/common/mod.rs`).

mod common;

use common::{assert_identical, assert_replay_identical, base_faults, quick_manager, Scenario};
use proptest::prelude::*;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_core::priority::PriorityMode;
use rankmap_fleet::{
    generate, FaultSpec, FleetConfig, FleetEvent, FleetOutcome, FleetRuntime, FleetSpec,
    LoadSpec, Parallelism, ShardSpec,
};
use rankmap_platform::Platform;

const SHARDS: usize = 4;
const MAX_PER_SHARD: usize = 3;
/// The default score-memo bound.
const MEMO: usize = 8_192;

fn config(parallelism: Parallelism) -> FleetConfig {
    FleetConfig {
        manager: quick_manager(),
        max_per_shard: MAX_PER_SHARD,
        // Exercise every index consumer: rebalancing (health reads),
        // the overload guard, and retries.
        rebalance_threshold: 0.55,
        rebalance_margin: 0.02,
        overload_guard: 0.15,
        retry_limit: 1,
        parallelism,
        ..Default::default()
    }
}

fn load(seed: u64, process_idx: usize, faults: bool, zipf: bool) -> LoadSpec {
    let mut scenario =
        Scenario::new(seed, process_idx).rates(1.0 / 16.0, 0.25, 1.0 / 14.0).zipf(zipf);
    if faults {
        scenario = scenario.faults(FaultSpec { correlation: 0.4, ..base_faults(SHARDS) });
    }
    scenario.load()
}

/// `spec`'s events, plus (with `statics`) one `SetPriorities` of a
/// static vector of every length a trial can have (1 to
/// `MAX_PER_SHARD`): the only traffic under which a probe's weights come
/// from a static vector, so the memo's priority tag is exercised.
fn events(spec: &LoadSpec, statics: bool) -> Vec<FleetEvent> {
    let mut events = generate(spec);
    if statics {
        for len in 1..=MAX_PER_SHARD {
            let at = spec.horizon * len as f64 / (MAX_PER_SHARD + 1) as f64;
            let mode = PriorityMode::critical(len, spec.seed as usize % len);
            let i = events.partition_point(|e| e.at() <= at);
            events.insert(i, FleetEvent::SetPriorities { at, mode });
        }
    }
    events
}

/// Runs `events` on the single path (or the reference), with the score
/// memo bounded at `memo` entries.
fn run(
    spec: &LoadSpec,
    events: &[FleetEvent],
    reference: bool,
    parallelism: Parallelism,
    memo: usize,
) -> FleetOutcome {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let config = FleetConfig { probe_memo_capacity: memo, ..config(parallelism) };
    let fleet = FleetRuntime::homogeneous(&platform, &oracle, SHARDS, config);
    let fleet = if reference { fleet.with_reference_placement() } else { fleet };
    fleet.execute(events, spec.horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: the single path and the reference agree
    /// byte for byte across seeds, load shapes (uniform and Zipf-skewed),
    /// fault layers with throttles, static priority vectors, executor
    /// widths and a one-entry memo — and the recorded trace replays
    /// bit-for-bit on the single path.
    #[test]
    fn indexed_reproduces_full_scan_bit_for_bit(
        seed in 0u64..64,
        process_idx in 0usize..3,
        faults in any::<bool>(),
        zipf in any::<bool>(),
        statics in any::<bool>(),
    ) {
        let spec = load(seed, process_idx, faults, zipf);
        let events = events(&spec, statics);
        let reference = run(&spec, &events, true, Parallelism::Sequential, MEMO);
        prop_assert!(reference.metrics.offered > 0);
        for (reference_path, parallelism, memo) in [
            (false, Parallelism::Sequential, MEMO),
            (false, Parallelism::Threads(4), MEMO),
            (false, Parallelism::Sequential, 1),
            (true, Parallelism::Threads(4), MEMO),
        ] {
            let candidate = run(&spec, &events, reference_path, parallelism, memo);
            assert_identical(
                &reference,
                &candidate,
                &format!("reference={reference_path} {parallelism:?} memo {memo} seed {seed}"),
            );
        }
        // Trace replay on the single path stays exact (the generated
        // stream only: the trace records `spec`'s events).
        if !statics {
            let platform = Platform::orange_pi_5();
            let oracle = AnalyticalOracle::new(&platform);
            assert_replay_identical(
                &spec,
                SHARDS,
                &format!("indexed-replay seed {seed}"),
                &reference,
                FleetRuntime::homogeneous(&platform, &oracle, SHARDS, config(Parallelism::Threads(2))),
            );
        }
    }
}

/// The mixed-fleet variant: two platform groups never share a question
/// (the group is part of the state key and the memo key) —
/// the single path across heterogeneous boards still matches the
/// reference exactly.
#[test]
fn mixed_fleet_indexed_matches_scan() {
    let orange = Platform::orange_pi_5();
    let jetson = Platform::jetson_orin_nx();
    let orange_oracle = AnalyticalOracle::new(&orange);
    let jetson_oracle = AnalyticalOracle::new(&jetson);
    let spec = load(11, 1, true, true);
    let events = events(&spec, true);
    let fleet = |reference: bool, parallelism| {
        let fleet = FleetRuntime::new(
            &FleetSpec::new(vec![
                ShardSpec::new(&orange, &orange_oracle, 2),
                ShardSpec::new(&jetson, &jetson_oracle, 2),
            ]),
            config(parallelism),
        );
        let fleet = if reference { fleet.with_reference_placement() } else { fleet };
        fleet.execute(&events, spec.horizon)
    };
    let reference = fleet(true, Parallelism::Sequential);
    assert!(reference.metrics.offered > 0);
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let candidate = fleet(false, parallelism);
        assert_identical(&reference, &candidate, &format!("mixed {parallelism:?}"));
    }
}

/// With a one-entry memo the single path re-asks almost every question,
/// like the serial reference scorer it replaced: every probe it builds
/// must still fold, group and broadcast to the reference's exact scores.
#[test]
fn non_fused_indexed_matches_scan() {
    let spec = load(5, 0, false, false);
    let events = events(&spec, false);
    assert_identical(
        &run(&spec, &events, true, Parallelism::Sequential, MEMO),
        &run(&spec, &events, false, Parallelism::Sequential, 1),
        "one-entry memo",
    );
}
