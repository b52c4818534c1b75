//! Fleet scaling benchmark: aggregate serving capacity vs shard count at
//! a fixed offered load, written to `BENCH_fleet.json` at the workspace
//! root.
//!
//! One Poisson load (seeded, deterministic) is offered to fleets of 1, 2,
//! 4, and 8 emulated boards. The steady-state live set (~17 concurrent
//! DNNs at full settings) over-commits a single 5-slot board roughly 3×,
//! so the 1-shard fleet rejects most arrivals while 8 shards absorb the
//! same stream at high per-DNN potential — the scaling figure is
//! **aggregate potential-seconds** (Σ potential·span over every shard's
//! timeline). The acceptance bar: the 8-shard aggregate ≥ 4× the 1-shard
//! aggregate.
//!
//! The run also:
//! * records the 2-shard run to a JSONL trace, replays it, and reports
//!   whether metrics came back bit-identical;
//! * reports wall-clock placement-decision latency (p50/p99) per fleet
//!   size.
//!
//! `RANKMAP_BENCH_SMOKE=1` shrinks the horizon and search budgets so CI
//! can keep this bench compiling *and running*.

use rankmap_core::json::{obj, Json};
use rankmap_core::manager::ManagerConfig;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    generate, ArrivalProcess, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, Trace,
    TraceMeta,
};
use rankmap_platform::Platform;

fn smoke() -> bool {
    std::env::var_os("RANKMAP_BENCH_SMOKE").is_some()
}

fn load_spec() -> LoadSpec {
    LoadSpec {
        horizon: if smoke() { 300.0 } else { 900.0 },
        process: ArrivalProcess::Poisson { rate: 1.0 / 12.0 },
        mean_lifetime: 200.0,
        seed: 7,
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

fn run(platform: &Platform, shards: usize) -> FleetOutcome {
    let oracle = AnalyticalOracle::new(platform);
    let spec = load_spec();
    let events = generate(&spec);
    FleetRuntime::homogeneous(platform, &oracle, shards, fleet_config())
        .execute(&events, spec.horizon)
}

fn main() {
    let platform = Platform::orange_pi_5();
    let spec = load_spec();
    println!(
        "fleet_scale: Poisson {:.3}/s, lifetime {:.0}s, horizon {:.0}s ({} mode)",
        spec.process.mean_rate(),
        spec.mean_lifetime,
        spec.horizon,
        if smoke() { "smoke" } else { "full" }
    );

    // Scaling sweep: the same offered load against growing fleets.
    let mut rows = Vec::new();
    let mut aggregates = std::collections::BTreeMap::new();
    let mut recorded_2shard = None;
    for shards in [1usize, 2, 4, 8] {
        let outcome = run(&platform, shards);
        let m = &outcome.metrics;
        let mean_potential =
            m.per_shard_potential.iter().sum::<f64>() / m.per_shard_potential.len() as f64;
        println!(
            "  {shards} shard(s): {}/{} admitted, {} migrations, aggregate {:.1} pot·s, \
             mean shard potential {:.3}, placement p50 {:?} p99 {:?}",
            m.admitted,
            m.offered,
            m.migrations,
            m.aggregate_potential_seconds,
            mean_potential,
            outcome.placement_latency.p50,
            outcome.placement_latency.p99,
        );
        aggregates.insert(shards, m.aggregate_potential_seconds);
        rows.push(obj([
            ("shards", Json::Num(shards as f64)),
            ("offered", Json::Num(m.offered as f64)),
            ("admitted", Json::Num(m.admitted as f64)),
            ("rejected", Json::Num(m.rejected as f64)),
            ("migrations", Json::Num(m.migrations as f64)),
            ("aggregate_potential_seconds", Json::Num(m.aggregate_potential_seconds)),
            ("mean_shard_potential", Json::Num(mean_potential)),
            (
                "placement_p50_us",
                Json::Num(outcome.placement_latency.p50.as_secs_f64() * 1e6),
            ),
            (
                "placement_p99_us",
                Json::Num(outcome.placement_latency.p99.as_secs_f64() * 1e6),
            ),
        ]));
        if shards == 2 {
            recorded_2shard = Some(outcome);
        }
    }
    // Guard the ratio: a config that admits nothing at 1 shard would
    // otherwise put a non-finite number in the report (serialized null).
    let scaling =
        if aggregates[&1] > 0.0 { aggregates[&8] / aggregates[&1] } else { 0.0 };
    println!(
        "  8-shard aggregate = {scaling:.2}x the 1-shard aggregate ({})",
        if scaling >= 4.0 { "meets the >=4x bar" } else { "BELOW the 4x bar" }
    );

    // Trace record/replay determinism on the 2-shard fleet (the recorded
    // side is the sweep's 2-shard outcome — same deterministic run).
    let oracle = AnalyticalOracle::new(&platform);
    let events = generate(&spec);
    let recorded = recorded_2shard.expect("the sweep covers 2 shards");
    let trace = Trace::new(TraceMeta::new(2, spec.horizon, spec.seed, "bench"), events);
    let replayed = FleetRuntime::homogeneous(&platform, &oracle, 2, fleet_config())
        .execute_trace(&Trace::from_jsonl(&trace.to_jsonl()).expect("trace parses"));
    let replay_identical = replayed.metrics == recorded.metrics
        && replayed.placements == recorded.placements
        && replayed.timelines == recorded.timelines;
    println!(
        "  trace replay: {}",
        if replay_identical { "bit-identical" } else { "DIVERGED" }
    );

    let report = obj([
        ("smoke", Json::Bool(smoke())),
        (
            "host_threads",
            Json::Num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64),
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
        ("scaling", Json::Arr(rows)),
        ("aggregate_8_shards_over_1_shard", Json::Num(scaling)),
        ("trace_replay_bit_identical", Json::Bool(replay_identical)),
    ]);
    // BENCH_fleet.json is shared with the fleet_hetero bench: each bench
    // owns one top-level section and preserves the other's on re-runs.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    rankmap_bench::merge_bench_report(path, "fleet_scale", report);
    println!("wrote the fleet_scale section of {path}");
}
