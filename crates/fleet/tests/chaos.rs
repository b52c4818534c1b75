//! Chaos properties: instance accounting, executor determinism, and trace
//! replay under injected faults.
//!
//! Three load-bearing guarantees of the fault-tolerance layer, checked
//! across seeds × load shapes × fault schedules (the matrix, bit-compare,
//! and replay check come from the shared conformance harness in
//! `tests/common/mod.rs`):
//!
//! 1. **Accounting.** Every admitted instance ends in exactly one
//!    terminal state — departed, still live (evacuated instances stay
//!    live on their new shard), or shed — and every offered request is
//!    either admitted or rejected. No instance is lost or duplicated by
//!    an evacuation, a retry, or an overload-guard shed.
//! 2. **Determinism.** `Parallelism::Threads(n)` reproduces a
//!    `Sequential` run bit-for-bit under chaos: fault handling,
//!    evacuation triage, and retries all run at event barriers, so the
//!    thread count is still an execution strategy, never a policy.
//! 3. **Replay.** A chaos run records to a version-3 trace that parses
//!    back and replays bit-identically under both executors.

mod common;

use common::{assert_identical, assert_replay_identical, base_faults, quick_manager, Scenario};
use proptest::prelude::*;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    generate, FaultSpec, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, Parallelism,
};
use rankmap_platform::Platform;

const SHARDS: usize = 3;

fn config(parallelism: Parallelism) -> FleetConfig {
    FleetConfig {
        manager: quick_manager(),
        max_per_shard: 3,
        rebalance_threshold: 0.6,
        rebalance_margin: 0.02,
        // Exercise the whole robustness surface: evacuation, bounded
        // retry, and the overload guard.
        retry_limit: 2,
        retry_backoff: 15.0,
        overload_guard: 0.05,
        parallelism,
        ..Default::default()
    }
}

fn chaotic_load(seed: u64, process_idx: usize, fault_seed: u64) -> LoadSpec {
    // An aggressive fault layer: outages every ~150 s per shard plus
    // correlated joins and throttle episodes, so most runs see real
    // failures inside the horizon.
    Scenario::new(seed, process_idx)
        .rates(1.0 / 12.0, 0.2, 1.0 / 10.0)
        .faults(FaultSpec {
            correlation: 0.3,
            mean_throttle: 50.0,
            seed: fault_seed,
            ..base_faults(SHARDS)
        })
        .load()
}

fn run(platform: &Platform, spec: &LoadSpec, parallelism: Parallelism) -> FleetOutcome {
    let oracle = AnalyticalOracle::new(platform);
    let events = generate(spec);
    FleetRuntime::homogeneous(platform, &oracle, SHARDS, config(parallelism))
        .execute(&events, spec.horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Accounting + determinism + replay, one chaos run at a time.
    #[test]
    fn chaos_preserves_accounting_and_determinism(
        seed in 0u64..64,
        process_idx in 0usize..3,
        fault_seed in 0u64..64,
    ) {
        let platform = Platform::orange_pi_5();
        let spec = chaotic_load(seed, process_idx, fault_seed);
        let reference = run(&platform, &spec, Parallelism::Sequential);

        // A run worth checking: load was offered and at least one fault
        // landed (the fault layer is aggressive enough that this holds
        // for every seed in the strategy ranges).
        prop_assert!(reference.metrics.offered > 0);
        prop_assert!(
            reference.metrics.failures_injected + reference.metrics.throttle_events > 0,
            "fault layer produced no faults inside the horizon"
        );

        // 1. Accounting: nothing lost, nothing duplicated.
        let m = &reference.metrics;
        prop_assert!(
            m.accounting_balances(),
            "admitted {} != departed {} + live {} + shed {} (offered {}, rejected {})",
            m.admitted, m.departed, m.live_at_end, m.shed, m.offered, m.rejected
        );
        prop_assert!(m.evacuated <= m.tier_triaged.iter().sum::<u64>());
        for tier in 0..3 {
            prop_assert!(m.tier_evacuated[tier] <= m.tier_triaged[tier]);
        }

        // 2. Determinism: threads reproduce a `Sequential` run.
        for n in [2usize, 4] {
            let threaded = run(&platform, &spec, Parallelism::Threads(n));
            assert_identical(&reference, &threaded, &format!("Threads({n}) seed {seed}"));
        }

        // 3. Replay: the chaos stream survives a v3 trace round-trip and
        // replays bit-identically under the parallel executor.
        let oracle = AnalyticalOracle::new(&platform);
        assert_replay_identical(
            &spec,
            SHARDS,
            &format!("chaos-replay seed {seed}"),
            &reference,
            FleetRuntime::homogeneous(&platform, &oracle, SHARDS, config(Parallelism::Threads(4))),
        );
    }
}

/// Priority-aware triage in one deterministic run: under a full outage
/// of a loaded shard, the high tier's availability is at least the low
/// tier's, and evacuations show up both in the tier ledger and as real
/// migration stalls on the destination timelines.
#[test]
fn evacuation_favors_high_priority_tiers() {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    // Fill a 2-shard fleet, then take shard 0 down mid-run.
    let models = [
        rankmap_models::ModelId::InceptionV4,
        rankmap_models::ModelId::ResNet50,
        rankmap_models::ModelId::Vgg16,
        rankmap_models::ModelId::AlexNet,
        rankmap_models::ModelId::MobileNet,
    ];
    let mut events: Vec<rankmap_fleet::FleetEvent> = models
        .iter()
        .enumerate()
        .map(|(k, &m)| rankmap_fleet::FleetEvent::Arrive {
            at: k as f64,
            request: rankmap_fleet::RequestId::new(k as u64),
            model: m,
        })
        .collect();
    events.push(rankmap_fleet::FleetEvent::ShardDown { at: 50.0, shard: 0 });
    let outcome = FleetRuntime::homogeneous(
        &platform,
        &oracle,
        2,
        FleetConfig {
            manager: quick_manager(),
            // The survivor has room and no floor: every victim of the
            // outage can be absorbed, so evacuation must happen.
            max_per_shard: 8,
            admission_floor: 0.0,
            ..Default::default()
        },
    )
    .execute(&events, 200.0);
    let m = &outcome.metrics;
    assert_eq!(m.failures_injected, 1);
    assert!(m.tier_triaged.iter().sum::<u64>() > 0, "the outage hit live instances: {m:?}");
    assert!(m.accounting_balances(), "{m:?}");
    assert!(m.evacuated > 0, "with survivor headroom the victims must evacuate: {m:?}");
    let avail = m.tier_availability();
    assert!(
        avail[0] >= avail[2],
        "high tier must not fare worse than low: {avail:?} ({m:?})"
    );
    assert!(
        m.evacuation_stall_seconds > 0.0,
        "an evacuation is a real migration and must charge a stall"
    );
}
