//! Fleet serving layer for the RankMap reproduction: multi-device
//! sharding — across *heterogeneous* board types — priority-aware
//! admission, and a trace-driven load generator.
//!
//! The paper maps multi-DNN workloads onto *one* heterogeneous board;
//! the ROADMAP's north star is a production-scale system serving heavy
//! traffic. This crate is the bridge (see `docs/fleet.md` and
//! `docs/heterogeneous.md`):
//!
//! * [`FleetRuntime`] owns N device shards — each its own `Platform` +
//!   [`RankMapManager`](rankmap_core::manager::RankMapManager) (with its
//!   own plan cache) + step-wise
//!   [`RuntimeSession`](rankmap_core::runtime::RuntimeSession) — and
//!   interleaves them on one global clock. A [`FleetSpec`] composes the
//!   fleet from [`ShardSpec`] groups, so a mixed Orange-Pi/Jetson fleet
//!   is as natural as a homogeneous one.
//! * The **admission/placement layer** routes each arriving DNN instance
//!   by *normalized* potential delta — fraction of each shard's own
//!   board ideal, so dissimilar boards compete on equal terms — scored
//!   through one fused
//!   [`ThroughputOracle::predict_grouped`](rankmap_core::oracle::ThroughputOracle::predict_grouped)
//!   call per platform group. It rejects arrivals that would be starved
//!   everywhere and rebalances a shard whose potential collapses.
//! * The **load generator** ([`load`]) offers Poisson, bursty on/off, and
//!   diurnal arrival processes, and [`trace`] records/replays runs as
//!   JSONL — including the fleet's platform mix (format version 2) — so
//!   any run is reproducible bit-for-bit from a trace file.
//! * The **shard-parallel executor** ([`executor`]) advances all shards
//!   concurrently: [`FleetConfig::parallelism`] selects
//!   [`Parallelism::Threads`]`(n)` (per-shard work fans across `n`
//!   threads between global event barriers; the default sizes to the
//!   host's cores) or [`Parallelism::Sequential`] (the same code on the
//!   calling thread) — both produce bit-identical placements, timelines, metrics, and trace
//!   replays (property-tested in `tests/parallel.rs`).
//!
//! # Quickstart (homogeneous)
//!
//! ```no_run
//! use rankmap_core::oracle::AnalyticalOracle;
//! use rankmap_fleet::{generate, FleetConfig, FleetRuntime, LoadSpec};
//! use rankmap_platform::Platform;
//!
//! let platform = Platform::orange_pi_5();
//! let oracle = AnalyticalOracle::new(&platform);
//! let fleet = FleetRuntime::homogeneous(&platform, &oracle, 4, FleetConfig::default());
//! let spec = LoadSpec::default();
//! let events = generate(&spec);
//! let outcome = fleet.execute(&events, spec.horizon);
//! println!(
//!     "admitted {}/{} — aggregate potential {:.1} pot·s",
//!     outcome.metrics.admitted, outcome.metrics.offered,
//!     outcome.metrics.aggregate_potential_seconds
//! );
//! ```
//!
//! # A heterogeneous fleet
//!
//! ```no_run
//! use rankmap_core::oracle::AnalyticalOracle;
//! use rankmap_fleet::{generate, FleetConfig, FleetRuntime, FleetSpec, LoadSpec, ShardSpec};
//! use rankmap_platform::Platform;
//!
//! let orange = Platform::orange_pi_5();
//! let jetson = Platform::jetson_orin_nx();
//! let orange_oracle = AnalyticalOracle::new(&orange);
//! let jetson_oracle = AnalyticalOracle::new(&jetson);
//! let spec = FleetSpec::new(vec![
//!     ShardSpec::new(&orange, &orange_oracle, 2),
//!     ShardSpec::new(&jetson, &jetson_oracle, 2),
//! ]);
//! let fleet = FleetRuntime::new(&spec, FleetConfig::default());
//! let load = LoadSpec::default();
//! let outcome = fleet.execute(&generate(&load), load.horizon);
//! for (platform, admitted) in outcome
//!     .metrics
//!     .per_shard_platform
//!     .iter()
//!     .zip(&outcome.metrics.per_shard_admitted)
//! {
//!     println!("{platform}: {admitted} admitted");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
mod faults;
mod index;
pub mod load;
pub mod metrics;
mod placement;
mod rebalance;
/// The reference placement paths the conformance suites compare
/// against. They live with the test support they serve and are compiled
/// into the crate only for its own tests (the `reference` feature).
#[cfg(any(test, feature = "reference"))]
#[path = "../tests/support/reference.rs"]
mod reference;
pub mod runtime;
mod shard;
pub mod spec;
pub mod telemetry;
pub mod trace;

pub use executor::{FleetConfig, FleetConfigError, Parallelism};
pub use load::{
    generate, ArrivalProcess, FaultSpec, FlashSpec, FleetEvent, LoadSpec, LoadStream,
    Popularity, RequestId, TenantSpec,
};
pub use metrics::{FleetMetrics, LatencyStats, PlacementOutcome, PlacementRecord};
pub use rankmap_telemetry::MemoStats;
pub use runtime::{FleetOutcome, FleetRuntime};
pub use spec::{FleetSpec, FleetSpecError, ShardSpec};
pub use telemetry::{ShardSample, TelemetrySnapshot, TelemetrySpec};
pub use trace::{Trace, TraceError, TraceMeta, TraceWriter};
