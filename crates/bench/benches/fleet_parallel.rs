//! Shard-parallel executor benchmark: wall-clock of the fleet event loop
//! under `Parallelism::Sequential` vs `Parallelism::Threads(n)`, written
//! to the `fleet_parallel` section of `BENCH_fleet.json`.
//!
//! One seeded Poisson load is offered to an 8-shard fleet and executed
//! once per parallelism mode. Every run must produce **bit-identical**
//! placements, metrics, and timelines (the executor's determinism
//! contract — the bench double-checks what `crates/fleet/tests/parallel.rs`
//! property-tests); only the wall-clock may differ. The recorded speedup
//! is therefore purely an execution-strategy figure:
//!
//! * `threads = host cores` is the production default. On a single-core
//!   container it degrades to the serial schedule (spawning zero
//!   threads), so the ratio is ~1.0× there by construction — the
//!   multi-core speedup is host-dependent and must be (re-)measured on
//!   real hardware, like the oracle hot-path's rayon fan-out.
//! * An oversubscribed width (`threads = 4` on a 1-core host) is also
//!   recorded, pinning the overhead of real thread spawns per event
//!   barrier.
//!
//! `RANKMAP_BENCH_SMOKE=1` shrinks the horizon and search budgets so CI
//! can keep this bench compiling *and running*.

use rankmap_core::json::{obj, Json};
use rankmap_core::manager::ManagerConfig;
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_fleet::{
    generate, ArrivalProcess, FleetConfig, FleetOutcome, FleetRuntime, LoadSpec, Parallelism,
};
use rankmap_platform::Platform;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("RANKMAP_BENCH_SMOKE").is_some()
}

fn load_spec() -> LoadSpec {
    LoadSpec {
        horizon: if smoke() { 300.0 } else { 900.0 },
        process: ArrivalProcess::Poisson { rate: 1.0 / 12.0 },
        mean_lifetime: 200.0,
        priority_churn_rate: 1.0 / 250.0,
        seed: 7,
        ..Default::default()
    }
}

fn fleet_config(parallelism: Parallelism) -> FleetConfig {
    let budget = if smoke() { 60 } else { 150 };
    FleetConfig {
        manager: ManagerConfig {
            mcts_iterations: budget,
            warm_iterations: budget / 2,
            plan_cache_capacity: 512,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    }
}

fn run(platform: &Platform, parallelism: Parallelism) -> (FleetOutcome, f64) {
    let oracle = AnalyticalOracle::new(platform);
    let spec = load_spec();
    let events = generate(&spec);
    let fleet = FleetRuntime::homogeneous(platform, &oracle, 8, fleet_config(parallelism));
    let started = Instant::now();
    let outcome = fleet.execute(&events, spec.horizon);
    (outcome, started.elapsed().as_secs_f64())
}

fn identical(a: &FleetOutcome, b: &FleetOutcome) -> bool {
    a.metrics == b.metrics && a.placements == b.placements && a.timelines == b.timelines
}

fn main() {
    let platform = Platform::orange_pi_5();
    let spec = load_spec();
    let host_threads = rayon::current_num_threads();
    println!(
        "fleet_parallel: 8 shards, Poisson {:.3}/s, horizon {:.0}s, host cores {} ({} mode)",
        spec.process.mean_rate(),
        spec.horizon,
        host_threads,
        if smoke() { "smoke" } else { "full" }
    );

    let (reference, sequential_s) = run(&platform, Parallelism::Sequential);
    println!(
        "  sequential: {:.2}s wall, {}/{} admitted, {} migrations",
        sequential_s, reference.metrics.admitted, reference.metrics.offered,
        reference.metrics.migrations
    );

    // The production default first (threads = host cores), then a fixed
    // ladder so runs on different hosts stay comparable.
    let mut widths = vec![host_threads];
    for n in [2usize, 4, 8] {
        if !widths.contains(&n) {
            widths.push(n);
        }
    }
    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut default_speedup = None;
    for &n in &widths {
        let (outcome, wall_s) = run(&platform, Parallelism::Threads(n));
        let same = identical(&reference, &outcome);
        all_identical &= same;
        let speedup = sequential_s / wall_s;
        if n == host_threads {
            default_speedup = Some(speedup);
        }
        println!(
            "  threads({n}): {:.2}s wall, {:.3}x sequential, outcome {}",
            wall_s,
            speedup,
            if same { "bit-identical" } else { "DIVERGED" }
        );
        rows.push(obj([
            ("threads", Json::Num(n as f64)),
            ("wall_s", Json::Num(wall_s)),
            ("speedup_vs_sequential", Json::Num(speedup)),
            ("bit_identical", Json::Bool(same)),
        ]));
    }

    let report = obj([
        ("smoke", Json::Bool(smoke())),
        ("shards", Json::Num(8.0)),
        ("host_threads", Json::Num(host_threads as f64)),
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
        ("sequential_wall_s", Json::Num(sequential_s)),
        ("threads", Json::Arr(rows)),
        (
            "default_speedup_vs_sequential",
            default_speedup.map_or(Json::Null, Json::Num),
        ),
        ("all_outcomes_bit_identical", Json::Bool(all_identical)),
        (
            "note",
            Json::Str(
                "threads = host cores is the production default; multi-core speedup is \
                 host-dependent (a 1-core container degrades to the serial schedule, \
                 ratio ~1.0x). Oversubscribed widths pin the per-barrier spawn overhead."
                    .into(),
            ),
        ),
    ]);
    // BENCH_fleet.json is shared with the other fleet benches: each bench
    // owns one top-level section and preserves the others' on re-runs.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    rankmap_bench::merge_bench_report(path, "fleet_parallel", report);
    println!("wrote the fleet_parallel section of {path}");
    // Fail the run (after recording the evidence) if any width diverged:
    // the CI smoke step leans on this to catch determinism regressions.
    assert!(
        all_identical,
        "parallel execution diverged from the Sequential run — see {path}"
    );
}
