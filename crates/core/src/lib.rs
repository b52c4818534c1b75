//! RankMap: a priority-aware multi-DNN manager for heterogeneous embedded
//! devices (DATE 2025 reproduction).
//!
//! This crate glues the substrates together into the system the paper
//! describes:
//!
//! * **Priorities** (§IV-B): static ranks supplied by the user
//!   (RankMap-S) or dynamic ranks derived from each DNN's computational
//!   profile (RankMap-D) — [`priority`].
//! * **Reward** (§IV-E, Fig. 4): priority-weighted throughput with a
//!   starvation threshold that disqualifies any mapping predicted to
//!   throttle a DNN — [`reward`].
//! * **Throughput oracles**: the trained multi-task estimator
//!   ([`oracle::LearnedOracle`]) or the analytical contention model
//!   ([`oracle::AnalyticalOracle`], an ablation the paper's framework
//!   would call a "profiling-free" variant).
//! * **The manager** ([`manager::RankMapManager`]): Monte-Carlo Tree
//!   Search over the unit-to-component assignment space with the oracle as
//!   simulation feedback.
//! * **Dataset & training** ([`dataset`], [`train`]): the §V protocol —
//!   random workloads labelled on the (simulated) board, 90/10 split,
//!   VQ-VAE + estimator training with channel-shuffle augmentation.
//! * **Dynamic runtime** ([`runtime`]): DNN arrivals/departures and
//!   priority changes over time, re-mapping at every event (Fig. 8/10),
//!   on a simulated board whose reports are memoized ([`board`]).
//! * **Metrics** ([`metrics`]): normalized throughput `T`, potential `P`,
//!   Pearson correlation, starvation counts.
//!
//! # Quickstart
//!
//! ```no_run
//! use rankmap_core::prelude::*;
//!
//! let platform = Platform::orange_pi_5();
//! let workload = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
//! let oracle = AnalyticalOracle::new(&platform);
//! let manager = RankMapManager::new(&platform, &oracle, ManagerConfig::default());
//! let plan = manager.map(&workload, &PriorityMode::Dynamic);
//! println!("{}", plan.mapping);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod dataset;
pub mod json;
pub mod manager;
pub mod metrics;
pub mod oracle;
pub mod plan_cache;
pub mod priority;
pub mod reward;
pub mod runtime;
pub mod scenario;
pub mod train;

/// One-stop imports for examples and downstream binaries.
pub mod prelude {
    pub use crate::manager::{ManagerConfig, MappingPlan, RankMapManager};
    pub use crate::metrics;
    pub use crate::oracle::{AnalyticalOracle, LearnedOracle, ThroughputOracle};
    pub use crate::plan_cache::PlanCache;
    pub use crate::priority::PriorityMode;
    pub use crate::reward::{RewardSpec, StarvationThreshold};
    pub use crate::runtime::{
        timeline_average_potential, DynamicEvent, DynamicRuntime, InstanceId,
        RankMapMapper, RuntimeSession, TimelinePoint, WorkloadMapper,
    };
    pub use crate::scenario::{MixProfile, ScenarioConfig};
    pub use crate::train::{Fidelity, TrainedArtifacts};
    pub use rankmap_models::ModelId;
    pub use rankmap_platform::{ComponentId, ComponentKind, Platform};
    pub use rankmap_sim::{
        AnalyticalEngine, EventEngine, Mapping, MigrationCost, MigrationModel,
        ThroughputReport, Workload, STARVATION_POTENTIAL,
    };
}
