//! Million-instance scale tier: 128–512 shards driven by the streaming
//! load generator, written to `BENCH_fleet.json` at the workspace root.
//!
//! The full run offers ≥10⁵ instance lifetimes (Zipf-skewed popularity
//! plus flash-crowd and correlated-tenant overlays) to a 128-shard fleet
//! through [`LoadStream`] + `execute_stream` — the event vector is never
//! materialized — at **fixed offered load**, and records events/sec and
//! placement-decision latency p50/p99. A 256- and 512-shard sweep
//! extends the scale story. (Placement's bit-identity to a full probe
//! scan is property-tested in `crates/fleet/tests/indexed.rs`; the scan
//! is a test reference, not a bench arm.)
//!
//! `RANKMAP_BENCH_SMOKE=1` shrinks the horizon (and skips the wide
//! sweep) so CI keeps this tier compiling *and running*.

use rankmap_core::json::{obj, Json};
use rankmap_core::manager::ManagerConfig;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    FlashSpec, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, LoadStream, Popularity,
    TenantSpec,
};
use rankmap_platform::Platform;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("RANKMAP_BENCH_SMOKE").is_some()
}

/// Fixed offered load for every fleet size: ~5 arrivals/s over a long
/// horizon (≥10⁵ lifetimes in full mode), short lifetimes so the live
/// set stays a fleet-sized working set rather than an ever-growing one.
fn load_spec() -> LoadSpec {
    let horizon = if smoke() { 400.0 } else { 22_000.0 };
    LoadSpec {
        horizon,
        process: rankmap_fleet::ArrivalProcess::Poisson { rate: 5.0 },
        mean_lifetime: 40.0,
        priority_churn_rate: 1.0 / 4_000.0,
        seed: 23,
        popularity: Popularity::Zipf { exponent: 1.05 },
        flash: Some(FlashSpec {
            rate: 1.0 / 2_500.0,
            mean_duration: 90.0,
            boost_rate: 2.0,
            mean_lifetime: 25.0,
            seed: 5,
        }),
        tenants: Some(TenantSpec {
            tenants: 6,
            mean_idle: 3_000.0,
            mean_burst: 60.0,
            rate: 1.0,
            correlation: 0.3,
            skew: 0.7,
            mean_lifetime: 30.0,
            seed: 11,
        }),
        ..Default::default()
    }
}

/// Deliberately small search budgets: at this tier the system under
/// test is the placement layer (one question per shard state, the score
/// memo, health reads), not the per-board mapper.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        manager: ManagerConfig {
            mcts_iterations: 16,
            warm_iterations: 8,
            plan_cache_capacity: 512,
            ..Default::default()
        },
        max_per_shard: 3,
        // Long horizon: sample the serving timelines coarsely so the
        // recorded state stays small while the event stream does not.
        sample_dt: 250.0,
        ..Default::default()
    }
}

struct Run {
    outcome: FleetOutcome,
    events: usize,
    wall_s: f64,
    events_per_s: f64,
}

fn run(platform: &Platform, shards: usize) -> Run {
    let oracle = AnalyticalOracle::new(platform);
    let spec = load_spec();
    // Event count for the throughput figure (a generation-only pass;
    // the stream is cheap, the fleet is not).
    let events = LoadStream::new(&spec).count();
    let fleet = FleetRuntime::homogeneous(platform, &oracle, shards, fleet_config());
    let start = Instant::now();
    let outcome = fleet.execute_stream(LoadStream::new(&spec), spec.horizon);
    let wall_s = start.elapsed().as_secs_f64();
    Run { outcome, events, wall_s, events_per_s: events as f64 / wall_s }
}

fn row(shards: usize, r: &Run) -> Json {
    let m = &r.outcome.metrics;
    obj([
        ("shards", Json::Num(shards as f64)),
        ("events", Json::Num(r.events as f64)),
        ("offered", Json::Num(m.offered as f64)),
        ("admitted", Json::Num(m.admitted as f64)),
        ("rejected", Json::Num(m.rejected as f64)),
        ("migrations", Json::Num(m.migrations as f64)),
        ("aggregate_potential_seconds", Json::Num(m.aggregate_potential_seconds)),
        ("wall_s", Json::Num(r.wall_s)),
        ("events_per_s", Json::Num(r.events_per_s)),
        (
            "placement_p50_us",
            Json::Num(r.outcome.placement_latency.p50.as_secs_f64() * 1e6),
        ),
        (
            "placement_p99_us",
            Json::Num(r.outcome.placement_latency.p99.as_secs_f64() * 1e6),
        ),
    ])
}

fn print_run(label: &str, r: &Run) {
    let m = &r.outcome.metrics;
    println!(
        "  {label}: {} events ({} offered, {} admitted, {} migrations) in {:.1}s — \
         {:.0} events/s, placement p50 {:?} p99 {:?}",
        r.events,
        m.offered,
        m.admitted,
        m.migrations,
        r.wall_s,
        r.events_per_s,
        r.outcome.placement_latency.p50,
        r.outcome.placement_latency.p99,
    );
}

fn main() {
    let platform = Platform::orange_pi_5();
    let spec = load_spec();
    println!(
        "fleet_massive: Zipf+flash+tenant load at {:.1}/s base rate over {:.0}s ({} mode)",
        spec.process.mean_rate(),
        spec.horizon,
        if smoke() { "smoke" } else { "full" }
    );

    let massive = run(&platform, 128);
    print_run("128 shards", &massive);
    let mut rows = vec![row(128, &massive)];

    // The wide sweep.
    if !smoke() {
        for shards in [256usize, 512] {
            let r = run(&platform, shards);
            print_run(&format!("{shards} shards"), &r);
            rows.push(row(shards, &r));
        }
        // Acceptance: the full run offers >=1e5 instance lifetimes to
        // >=128 shards.
        assert!(
            massive.outcome.metrics.offered >= 100_000,
            "full run must offer >=1e5 instance lifetimes, got {}",
            massive.outcome.metrics.offered
        );
    }

    let report = obj([
        ("smoke", Json::Bool(smoke())),
        (
            "host_threads",
            Json::Num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64),
        ),
        (
            "offered_load",
            obj([
                ("process", Json::Str("poisson+zipf+flash+tenants".into())),
                ("base_rate_per_s", Json::Num(spec.process.mean_rate())),
                ("mean_lifetime_s", Json::Num(spec.mean_lifetime)),
                ("horizon_s", Json::Num(spec.horizon)),
                ("seed", Json::Num(spec.seed as f64)),
            ]),
        ),
        ("runs", Json::Arr(rows)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    rankmap_bench::merge_bench_report(path, "fleet_massive", report);
    println!("wrote the fleet_massive section of {path}");
}
