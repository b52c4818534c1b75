//! Telemetry lives strictly off the decision path: with it enabled or
//! disabled, every deterministic output of a fleet run — the placement
//! log, `FleetMetrics`, and every per-shard timeline — must be
//! **bit-identical**, across seeds × load shapes × fault schedules ×
//! executors (`Sequential` and `Threads(n)`). This is the companion
//! property to `tests/parallel.rs`: threading is an
//! execution strategy, telemetry is an observation strategy, and neither
//! may be a policy. The scenario matrix and bit-compare come from the
//! shared conformance harness (`tests/common/mod.rs`).
//!
//! The suite also sanity-checks the snapshot itself: counters that must
//! agree with the deterministic metrics, flight-recorder causality,
//! per-shard ring series, and byte-stable exports on replay.

mod common;

use common::{assert_identical, base_faults, quick_manager, Scenario};
use proptest::prelude::*;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    generate, FaultSpec, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, Parallelism,
    TelemetrySpec,
};
use rankmap_platform::Platform;

const DEPART_APPLY_ENTERED: &str = "fleet_stage_entered_total{stage=\"depart_apply\"}";
const REBALANCE_MIGRATE_ENTERED: &str =
    "fleet_stage_entered_total{stage=\"rebalance_migrate\"}";

fn config(parallelism: Parallelism, telemetry: TelemetrySpec) -> FleetConfig {
    FleetConfig {
        manager: quick_manager(),
        max_per_shard: 3,
        // Eager rebalancing and the overload guard keep every
        // instrumented path (migrations, sheds, health scans) in play.
        rebalance_threshold: 0.6,
        rebalance_margin: 0.02,
        overload_guard: 0.2,
        retry_limit: 1,
        parallelism,
        telemetry,
        ..Default::default()
    }
}

fn load(seed: u64, process_idx: usize, faults: bool) -> LoadSpec {
    let mut scenario = Scenario::new(seed, process_idx);
    if faults {
        scenario = scenario.faults(FaultSpec { seed: seed ^ 0x5EED, ..base_faults(3) });
    }
    scenario.load()
}

fn run(spec: &LoadSpec, parallelism: Parallelism, telemetry: TelemetrySpec) -> FleetOutcome {
    let platform = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&platform);
    let events = generate(spec);
    FleetRuntime::homogeneous(&platform, &oracle, 3, config(parallelism, telemetry))
        .execute(&events, spec.horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline property: telemetry on (even with wall-clock stage
    /// timing) never changes a decision — bit-identical placements,
    /// metrics, and timelines versus the telemetry-off reference, under
    /// the sequential and threaded executors, with and without fault
    /// injection.
    #[test]
    fn telemetry_never_changes_a_decision(
        seed in 0u64..64,
        process_idx in 0usize..3,
        faults in any::<bool>(),
    ) {
        let spec = load(seed, process_idx, faults);
        let reference = run(&spec, Parallelism::Sequential, TelemetrySpec::default());
        prop_assert!(reference.metrics.offered > 0);
        prop_assert!(reference.telemetry.is_none(), "disabled telemetry must cost nothing");
        for (label, parallelism, telemetry) in [
            ("seq+on", Parallelism::Sequential, TelemetrySpec::on()),
            ("seq+wall", Parallelism::Sequential, TelemetrySpec::on().with_wall_clock()),
            ("thr4+on", Parallelism::Threads(4), TelemetrySpec::on()),
            ("thr4+off", Parallelism::Threads(4), TelemetrySpec::default()),
        ] {
            let candidate = run(&spec, parallelism, telemetry);
            assert_identical(&reference, &candidate, &format!("{label} seed {seed}"));
            prop_assert_eq!(candidate.telemetry.is_some(), telemetry.enabled);
            if let Some(snap) = &candidate.telemetry {
                // Every departure enters the `depart_apply` span exactly
                // once, and with wall timing on each entry lands one
                // sample in its histogram.
                let departs = snap.registry.counter(DEPART_APPLY_ENTERED);
                prop_assert_eq!(departs, candidate.metrics.departed, "{} seed {}", label, seed);
                // Every rebalance migration's apply pair is one
                // `rebalance_migrate` span, under every executor.
                let migrations = snap.registry.counter(REBALANCE_MIGRATE_ENTERED);
                prop_assert_eq!(migrations, candidate.metrics.migrations, "{} seed {}", label, seed);
                if telemetry.wall_clock {
                    let timed = snap
                        .registry
                        .histogram("stage_wall_seconds{stage=\"depart_apply\"}")
                        .map_or(0, |h| h.count());
                    prop_assert_eq!(timed, departs, "{} seed {}", label, seed);
                }
            }
        }
    }
}

/// The snapshot's deterministic counters must agree with the run's own
/// `FleetMetrics`, and the registry/flight exports must be byte-stable
/// across a replay of the same stream.
#[test]
fn snapshot_counters_agree_with_metrics_and_exports_replay_byte_stable() {
    let spec = load(7, 0, true);
    let outcome = run(&spec, Parallelism::Threads(2), TelemetrySpec::on());
    let snap = outcome.telemetry.as_ref().expect("telemetry enabled");
    let m = &outcome.metrics;
    let c = |k: &str| snap.registry.counter(k);
    assert_eq!(c("fleet_admitted_total"), m.admitted);
    assert_eq!(c("fleet_rejected_total"), m.rejected);
    assert_eq!(c("fleet_migrations_total"), m.migrations);
    assert_eq!(c("fleet_departed_total"), m.departed);
    assert_eq!(c("fleet_evacuated_total"), m.evacuated);
    assert_eq!(c("fleet_shed_total"), m.shed);
    assert_eq!(c("fleet_deferred_total"), m.retries);
    // Stage entry counters: at least one probe-build barrier per offered
    // arrival, and the apply stage entered once per admission.
    assert!(c("fleet_stage_entered_total{stage=\"probe_build\"}") >= m.offered);
    assert_eq!(c("fleet_stage_entered_total{stage=\"apply\"}"), m.admitted);
    // ... and the departure span once per normal departure.
    assert_eq!(c(DEPART_APPLY_ENTERED), m.departed);
    // ... and the migration span once per rebalance migration.
    assert_eq!(c(REBALANCE_MIGRATE_ENTERED), m.migrations);
    // Wall timing stayed off: deterministic registry only.
    assert!(
        snap.registry
            .histograms()
            .all(|(k, _)| !k.starts_with("stage_wall_seconds")),
        "wall histograms must be gated behind wall_clock"
    );
    // Cache overlays are present (the run exercised probes and mapping).
    assert!(
        c("fleet_probe_memo_hits_total") + c("fleet_probe_memo_misses_total") > 0,
        "probe memo counters missing from the overlay"
    );
    assert!(
        c("fleet_plan_cache_hits_total") + c("fleet_plan_cache_misses_total") > 0,
        "plan cache counters missing from the overlay"
    );
    // Byte-stable exports: an identical replay renders identical text
    // for every deterministic family. The `*_wall_seconds` overlays are
    // the declared wall-clock exception and get filtered out.
    let deterministic = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.contains("wall_seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let replay = run(&spec, Parallelism::Sequential, TelemetrySpec::on());
    let replay_snap = replay.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(
        deterministic(&snap.to_prometheus()),
        deterministic(&replay_snap.to_prometheus()),
        "Prometheus export must be byte-stable across replays"
    );
    assert_eq!(
        deterministic(&snap.to_jsonl()),
        deterministic(&replay_snap.to_jsonl())
    );
    assert_eq!(
        snap.flight_jsonl(),
        replay_snap.flight_jsonl(),
        "flight-recorder export must be byte-stable across replays"
    );
}

/// Flight-recorder causality: every `evacuate`/`shed` record of an
/// outage links back (via `cause`) to a retained `shard_down` record.
#[test]
fn flight_records_link_outcomes_to_their_cause() {
    let spec = load(13, 1, true);
    let outcome = run(&spec, Parallelism::Sequential, TelemetrySpec::on());
    let snap = outcome.telemetry.as_ref().expect("telemetry enabled");
    let downs: Vec<u64> = snap
        .recorder
        .records()
        .filter(|r| r.kind == "shard_down")
        .map(|r| r.seq)
        .collect();
    assert!(
        outcome.metrics.failures_injected == 0 || !downs.is_empty(),
        "injected failures must surface as shard_down records"
    );
    let mut linked = 0;
    for r in snap.recorder.records() {
        if matches!(r.kind, "evacuate" | "shed") {
            let cause = r.cause.expect("evacuation outcomes must carry a cause");
            assert!(downs.contains(&cause), "cause must be a shard_down record");
            let origin = snap.recorder.find(cause).expect("cause retained");
            assert_eq!(origin.kind, "shard_down");
            assert!(origin.at <= r.at, "causes precede consequences");
            linked += 1;
        }
    }
    if snap.recorder.dropped() == 0 {
        let evac_records =
            snap.recorder.records().filter(|r| r.kind == "evacuate").count() as u64;
        assert_eq!(
            evac_records, outcome.metrics.evacuated,
            "one evacuate record per evacuation"
        );
    }
    assert!(
        outcome.metrics.evacuated == 0 || linked > 0,
        "an evacuating run must produce linked records"
    );
}

/// Per-shard ring series: sampled on the simulation clock, bounded by
/// the configured capacity, and time-monotone.
#[test]
fn shard_series_are_sim_clock_sampled_and_bounded() {
    let spec = load(3, 2, false);
    let telemetry = TelemetrySpec { series_capacity: 4, ..TelemetrySpec::on() };
    let outcome = run(&spec, Parallelism::Sequential, telemetry);
    let snap = outcome.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(snap.series.len(), 3, "one series per shard");
    assert!(
        snap.series.iter().any(|s| !s.is_empty()),
        "a 240s run at sample_dt=30 must sample"
    );
    for series in &snap.series {
        assert!(series.len() <= 4, "ring capacity must bound retention");
        for pair in series.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "sample times must be monotone");
        }
        for (at, sample) in series {
            assert!((0.0..spec.horizon).contains(at), "sampled on the sim clock");
            assert!(sample.derate > 0.0 && sample.derate <= 1.0);
        }
    }
}
