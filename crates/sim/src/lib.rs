//! Execution simulator for multi-DNN pipelines on heterogeneous platforms.
//!
//! This crate is the reproduction's substitute for the Orange Pi 5 board:
//! every experiment that the paper runs *on hardware*, this repository runs
//! against the engines here.
//!
//! Two engines share one cost model:
//!
//! * [`AnalyticalEngine`] — a fixed-point, proportional-share contention
//!   solver. Fast (microseconds), used for quick estimates, tests, and the
//!   "oracle estimator" ablation.
//! * [`EventEngine`] — a discrete-event simulator with non-preemptive
//!   round-robin sharing per component, bounded inter-stage queues
//!   (backpressure: a stage's downstream slot frees only when the next
//!   stage takes the frame), and inter-component transfer delays. Once
//!   its whole state recurs it counts the remaining whole periods instead
//!   of simulating them, with exactly the rates the full run reports.
//!   This is "the board": it labels the estimator's training set and
//!   scores every final mapping in the experiment harness.
//!
//! The cost model is a roofline per layer (`max(compute, memory) +
//! dispatch overhead`) with a utilization ramp that penalizes small kernels
//! on wide components (GPUs), plus a cache-sensitivity contention model:
//! co-located stages inflate each other's time, and big-working-set stages
//! suffer more — which is what lets over-greedy mappings starve heavy DNNs,
//! just like on the real board.
//!
//! # Example
//!
//! ```
//! use rankmap_platform::Platform;
//! use rankmap_models::ModelId;
//! use rankmap_sim::{EventEngine, Mapping, Workload};
//!
//! let platform = Platform::orange_pi_5();
//! let workload = Workload::from_ids([ModelId::SqueezeNetV2, ModelId::ResNet50]);
//! let mapping = Mapping::uniform(&workload, rankmap_platform::ComponentId::new(0));
//! let engine = EventEngine::quick(&platform);
//! let report = engine.evaluate(&workload, &mapping);
//! assert_eq!(report.per_dnn.len(), 2);
//! assert!(report.per_dnn.iter().all(|&t| t > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytical;
pub mod contention;
pub mod cost;
pub mod event;
pub mod generational;
pub mod migration;
pub mod report;
pub mod workload;

pub use analytical::AnalyticalEngine;
pub use contention::{
    CompiledStage, CompiledWorkload, ContentionParams, PriceTable, WorkloadCosts,
};
pub use cost::CostModel;
pub use event::{EventConfig, EventEngine};
pub use generational::GenerationalMap;
pub use migration::{MigrationCost, MigrationModel, STEM_REBUILD_PER_UNIT};
pub use report::ThroughputReport;
pub use workload::{Mapping, MappingError, StageSpec, Workload};

/// A DNN is *starved* when its potential throughput `P = t_current/t_ideal`
/// falls below this fraction. The paper plots starved DNNs as the `P = 0`
/// histogram bin; on our simulated board throughput never reaches exactly
/// zero, so "indistinguishable from zero" is defined as 2%.
pub const STARVATION_POTENTIAL: f64 = 0.02;

#[cfg(test)]
mod thread_safety {
    use super::*;

    #[test]
    fn engines_and_state_are_send_and_sync() {
        // The serving stack moves per-shard engines to worker threads
        // between event barriers (see rankmap-fleet): every engine and
        // every piece of workload state must be Send, and the shared
        // pieces (price tables, workloads behind Arc) Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalyticalEngine<'static>>();
        assert_send_sync::<EventEngine<'static>>();
        assert_send_sync::<MigrationModel<'static>>();
        assert_send_sync::<PriceTable>();
        assert_send_sync::<Workload>();
        assert_send_sync::<Mapping>();
        assert_send_sync::<ThroughputReport>();
    }
}
