//! The benchmark's three fleet workloads: each one's load, fleet shape
//! and manager settings. `--seed` becomes the load seed; everything else
//! is fixed here, so the same seed always replays the same event log.

use rankmap_core::manager::ManagerConfig;
use rankmap_fleet::{
    ArrivalProcess, FaultSpec, FleetConfig, LoadSpec, Parallelism, Popularity, TelemetrySpec,
};
use rankmap_platform::Platform;

/// The record of each workload's seeds, host and layer predictions.
const RECORD: &str = include_str!("../WORKLOADS.json");

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot caches on a wide fleet: mixes recur across shards, so
    /// placement is most of the cost and search is little.
    Zipf128,
    /// Cold search on a mixed-board fleet: mixes rarely recur, so MCTS
    /// rollout scoring dominates, split over two platform groups.
    HeteroCold,
    /// Outages, throttles and retries: bulk re-placement through the
    /// same placement and apply layers.
    Chaos16,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Zipf128, Workload::HeteroCold, Workload::Chaos16];

    /// The workload named on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Zipf128 => "zipf_128",
            Workload::HeteroCold => "hetero_cold",
            Workload::Chaos16 => "chaos_16",
        }
    }

    /// The load seed used when `--seed` is not given, as
    /// `WORKLOADS.json` records it.
    pub fn default_seed(self) -> u64 {
        rankmap_core::json::parse(RECORD)
            .ok()
            .and_then(|r| {
                r.get("workloads")?
                    .get(self.name())?
                    .get("default_seed")?
                    .as_u64()
            })
            .expect("WORKLOADS.json records every workload's default_seed")
    }

    /// The fleet's boards: one `(platform, shard count)` per group.
    pub fn groups(self) -> Vec<(Platform, usize)> {
        match self {
            Workload::Zipf128 => vec![(Platform::orange_pi_5(), 128)],
            Workload::HeteroCold => {
                vec![
                    (Platform::orange_pi_5(), 4),
                    (Platform::jetson_orin_nx(), 4),
                ]
            }
            Workload::Chaos16 => vec![(Platform::orange_pi_5(), 16)],
        }
    }

    /// The seeded event log: arrivals, departures, priority churn and,
    /// on `chaos_16`, the fault layer `LoadStream` merges in.
    pub fn load(self, seed: u64) -> LoadSpec {
        match self {
            Workload::Zipf128 => LoadSpec {
                horizon: 480.0,
                process: ArrivalProcess::Poisson { rate: 5.0 },
                mean_lifetime: 40.0,
                priority_churn_rate: 1.0 / 1_500.0,
                popularity: Popularity::Zipf { exponent: 1.05 },
                seed,
                ..Default::default()
            },
            Workload::HeteroCold => LoadSpec {
                horizon: 2_400.0,
                process: ArrivalProcess::Poisson { rate: 1.0 / 4.0 },
                mean_lifetime: 150.0,
                seed,
                ..Default::default()
            },
            Workload::Chaos16 => LoadSpec {
                horizon: 7_200.0,
                process: ArrivalProcess::Poisson { rate: 1.0 / 5.0 },
                mean_lifetime: 300.0,
                priority_churn_rate: 1.0 / 250.0,
                seed,
                faults: Some(FaultSpec {
                    shards: 16,
                    mtbf: 3_000.0,
                    mttr: 200.0,
                    correlation: 0.25,
                    throttle_rate: 1.0 / 1_200.0,
                    seed: 3,
                    ..Default::default()
                }),
                ..Default::default()
            },
        }
    }

    /// The fleet configuration. Every workload runs the library's
    /// default executor, `Parallelism::default()`.
    pub fn config(self, telemetry: TelemetrySpec) -> FleetConfig {
        let base = FleetConfig {
            parallelism: Parallelism::default(),
            telemetry,
            ..Default::default()
        };
        match self {
            Workload::Zipf128 => FleetConfig {
                manager: ManagerConfig {
                    mcts_iterations: 16,
                    warm_iterations: 8,
                    plan_cache_capacity: 512,
                    ..Default::default()
                },
                max_per_shard: 3,
                sample_dt: 250.0,
                ..base
            },
            Workload::HeteroCold => FleetConfig {
                manager: ManagerConfig {
                    plan_cache_capacity: 512,
                    ..Default::default()
                },
                ..base
            },
            Workload::Chaos16 => FleetConfig {
                manager: ManagerConfig {
                    mcts_iterations: 150,
                    warm_iterations: 75,
                    plan_cache_capacity: 512,
                    ..Default::default()
                },
                retry_limit: 2,
                retry_backoff: 20.0,
                ..base
            },
        }
    }
}
