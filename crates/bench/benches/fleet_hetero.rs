//! Heterogeneous-fleet benchmark: a mixed Orange-Pi/Jetson fleet under
//! one load, reported into the `fleet_hetero` section of
//! `BENCH_fleet.json` at the workspace root.
//!
//! One Poisson load (seeded, deterministic) is offered to an 8-shard
//! fleet of 4 Orange Pi 5 boards and 4 Jetson-class boards. The run
//! answers two questions and records the total wall-clock placement
//! time:
//!
//! * **Does normalization share the load?** Per-platform admissions and
//!   timeline potentials are recorded; under normalized (fraction of each
//!   board's own ideal) routing the slower boards keep winning arrivals
//!   instead of being starved by the Jetsons' raw throughput.
//! * **Does a mixed-fleet trace replay bit-for-bit?** The run is recorded
//!   to a version-2 JSONL trace (platform mix in the header), parsed
//!   back, and replayed on a freshly built mixed fleet.
//!
//! `RANKMAP_BENCH_SMOKE=1` shrinks the horizon and search budgets so CI
//! can keep this bench compiling *and running*.

use rankmap_core::json::{obj, Json};
use rankmap_core::manager::ManagerConfig;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    generate, FleetConfig, FleetRuntime, FleetSpec, LoadSpec, ShardSpec, Trace, TraceMeta,
};
use rankmap_platform::Platform;

fn smoke() -> bool {
    std::env::var_os("RANKMAP_BENCH_SMOKE").is_some()
}

fn load_spec() -> LoadSpec {
    LoadSpec {
        horizon: if smoke() { 300.0 } else { 900.0 },
        process: rankmap_fleet::ArrivalProcess::Poisson { rate: 1.0 / 10.0 },
        mean_lifetime: 200.0,
        seed: 11,
        ..Default::default()
    }
}

fn fleet_config() -> FleetConfig {
    let budget = if smoke() { 60 } else { 150 };
    FleetConfig {
        manager: ManagerConfig {
            mcts_iterations: budget,
            warm_iterations: budget / 2,
            plan_cache_capacity: 512,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn mixed_spec<'p>(
    orange: &'p Platform,
    jetson: &'p Platform,
    orange_oracle: &'p AnalyticalOracle<'p>,
    jetson_oracle: &'p AnalyticalOracle<'p>,
) -> FleetSpec<'p, AnalyticalOracle<'p>> {
    FleetSpec::new(vec![
        ShardSpec::new(orange, orange_oracle, 4),
        ShardSpec::new(jetson, jetson_oracle, 4),
    ])
}

/// Sums a per-shard metric over the shards of one platform.
fn by_platform<T: Copy, R: std::iter::Sum<T>>(
    platforms: &[String],
    values: &[T],
    name: &str,
) -> R {
    platforms
        .iter()
        .zip(values)
        .filter(|(p, _)| p.as_str() == name)
        .map(|(_, &v)| v)
        .sum()
}

fn main() {
    let orange = Platform::orange_pi_5();
    let jetson = Platform::jetson_orin_nx();
    let orange_oracle = AnalyticalOracle::new(&orange);
    let jetson_oracle = AnalyticalOracle::new(&jetson);
    let spec = load_spec();
    let events = generate(&spec);
    println!(
        "fleet_hetero: 4x orange-pi-5 + 4x jetson-orin-nx, Poisson {:.3}/s, horizon {:.0}s ({} mode)",
        spec.process.mean_rate(),
        spec.horizon,
        if smoke() { "smoke" } else { "full" }
    );

    let outcome = FleetRuntime::new(
        &mixed_spec(&orange, &jetson, &orange_oracle, &jetson_oracle),
        fleet_config(),
    )
    .execute(&events, spec.horizon);
    let placement_us = outcome.placement_latency.total.as_secs_f64() * 1e6;
    println!(
        "  placement scoring over {} decisions: {placement_us:.0}us",
        outcome.placement_latency.samples
    );

    let m = &outcome.metrics;
    let orange_admitted: u64 =
        by_platform(&m.per_shard_platform, &m.per_shard_admitted, orange.name());
    let jetson_admitted: u64 =
        by_platform(&m.per_shard_platform, &m.per_shard_admitted, jetson.name());
    let orange_potential: f64 =
        by_platform(&m.per_shard_platform, &m.per_shard_potential, orange.name());
    let jetson_potential: f64 =
        by_platform(&m.per_shard_platform, &m.per_shard_potential, jetson.name());
    println!(
        "  admitted {}/{} ({} rejected, {} migrations): orange {} / jetson {}",
        m.admitted, m.offered, m.rejected, m.migrations, orange_admitted, jetson_admitted
    );
    println!(
        "  aggregate {:.1} pot·s; mean shard potential orange {:.3} / jetson {:.3}",
        m.aggregate_potential_seconds,
        orange_potential / 4.0,
        jetson_potential / 4.0,
    );

    // Trace record/replay determinism on the mixed fleet: the version-2
    // trace pins the platform mix and the replay must agree bit-for-bit.
    let recorder = FleetRuntime::new(
        &mixed_spec(&orange, &jetson, &orange_oracle, &jetson_oracle),
        fleet_config(),
    );
    let trace = Trace::new(
        TraceMeta::new(recorder.shard_count(), spec.horizon, spec.seed, "hetero-bench")
            .with_platforms(recorder.platform_names().to_vec()),
        events.clone(),
    );
    let replayed = recorder
        .execute_trace(&Trace::from_jsonl(&trace.to_jsonl()).expect("trace parses"));
    let replay_identical = replayed.metrics == outcome.metrics
        && replayed.placements == outcome.placements
        && replayed.timelines == outcome.timelines;
    println!(
        "  mixed-fleet trace replay: {}",
        if replay_identical { "bit-identical" } else { "DIVERGED" }
    );

    let report = obj([
        ("smoke", Json::Bool(smoke())),
        (
            "host_threads",
            Json::Num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64),
        ),
        (
            "fleet",
            obj([
                ("orange_pi_5_shards", Json::Num(4.0)),
                ("jetson_orin_nx_shards", Json::Num(4.0)),
            ]),
        ),
        (
            "offered_load",
            obj([
                ("process", Json::Str("poisson".into())),
                ("rate_per_s", Json::Num(spec.process.mean_rate())),
                ("mean_lifetime_s", Json::Num(spec.mean_lifetime)),
                ("horizon_s", Json::Num(spec.horizon)),
                ("seed", Json::Num(spec.seed as f64)),
            ]),
        ),
        (
            "mixed_fleet",
            obj([
                ("offered", Json::Num(m.offered as f64)),
                ("admitted", Json::Num(m.admitted as f64)),
                ("rejected", Json::Num(m.rejected as f64)),
                ("migrations", Json::Num(m.migrations as f64)),
                ("aggregate_potential_seconds", Json::Num(m.aggregate_potential_seconds)),
                ("orange_admitted", Json::Num(orange_admitted as f64)),
                ("jetson_admitted", Json::Num(jetson_admitted as f64)),
                ("orange_mean_shard_potential", Json::Num(orange_potential / 4.0)),
                ("jetson_mean_shard_potential", Json::Num(jetson_potential / 4.0)),
            ]),
        ),
        (
            "placement_8_shards",
            obj([
                ("decisions", Json::Num(outcome.placement_latency.samples as f64)),
                ("total_us", Json::Num(placement_us)),
            ]),
        ),
        ("trace_replay_bit_identical", Json::Bool(replay_identical)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    rankmap_bench::merge_bench_report(path, "fleet_hetero", report);
    println!("wrote the fleet_hetero section of {path}");
}
