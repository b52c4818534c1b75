//! The fleet runtime: N device shards — possibly of *different* board
//! types — behind one priority-aware admission/placement layer.
//!
//! Each [`FleetRuntime`] shard is a full single-board serving stack — its
//! own `Platform`, a
//! [`RankMapManager`](rankmap_core::manager::RankMapManager) (with its
//! own plan cache), and a
//! step-wise `RuntimeSession` — interleaved on one global clock. The
//! fleet's composition comes from a [`FleetSpec`]: ordered groups of
//! identical shards, each group with its own platform
//! profile and [`ThroughputOracle`] (a mixed Orange-Pi/Jetson fleet is
//! two groups).
//!
//! An arriving DNN instance is routed by **normalized potential delta**:
//! for every shard with capacity, the placement layer builds one
//! candidate mapping per component (survivors keep their incumbent
//! placements, the arrival is tried on each component), scores the
//! candidates through the shard group's oracle, and folds per-DNN
//! throughputs into priority-weighted *potentials* — each DNN's
//! throughput divided by **that shard's own measured ideal rate** for the
//! model. Normalization is what makes the comparison meaningful across
//! dissimilar boards: a Jetson-class shard's raw inf/s would otherwise
//! dominate every delta and starve slower boards of low-priority work
//! they could serve fine (see `docs/heterogeneous.md`). The arrival is
//! admitted onto the shard whose best candidate improves its
//! fraction-of-board-ideal score the most; arrivals whose best predicted
//! potential everywhere falls below the admission floor — or that find
//! every shard at capacity — are **rejected** (spill), and a shard whose
//! mean predicted potential collapses sheds its lowest-priority instance
//! to a healthier shard (**rebalancing**, one migration per event,
//! charged at the destination board's own transfer link).
//!
//! Placement scoring runs one path: each distinct shard state is asked
//! once, its answer looked up in a bounded cross-event score memo before
//! any probe is built, every shard in that state folds the answer with
//! its own throttle, and the remaining questions of a platform group are
//! answered by one [`ThroughputOracle::predict_grouped`] call. It makes
//! decisions bit-identical to scoring every shard by its own
//! `predict_batch` call (property-tested against that reference in
//! `tests/indexed.rs`).
//!
//! Execution itself is **shard-parallel**: the executor
//! ([`crate::executor`]) fans per-shard work — probe building,
//! priority-rotation remaps, the rebalancer's health scan, the final
//! timeline close — across worker threads between global event barriers
//! ([`crate::Parallelism::Threads`]). Results merge in canonical shard
//! order, so the outcome is bit-identical to
//! [`crate::Parallelism::Sequential`] at any width (see the executor
//! docs for the determinism argument, and `crates/fleet/tests/parallel.rs`
//! for the property tests).
//!
//! The fleet also survives **board failures** (see [`crate::FaultSpec`]
//! and `docs/fleet.md`): a `ShardDown` event triages the failing shard's
//! live instances by priority and evacuates them onto survivors through
//! the same normalized-potential placement path — highest priority
//! first, each move charged the destination's real migration stall —
//! shedding only what no survivor can absorb. A `ShardThrottle` derates
//! a shard's served throughput and its placement bids by a factor
//! without changing any mapping decision (uniform scaling leaves
//! potential ratios intact), and rejected arrivals can retry with
//! deterministic exponential backoff ([`FleetConfig::retry_limit`]).
//! Everything — fault injection, evacuation, retries — replays
//! bit-for-bit from a version-3 trace at any [`crate::Parallelism`].
//!
//! The candidate batch only *routes*; the shard's own mapper still runs
//! its warm-started search (plan cache and all) once the instance lands,
//! so per-shard mapping quality is exactly the PR 2 serving runtime's.

use crate::executor::{FleetConfig, FleetConfigError, FleetExecutor};
use crate::load::FleetEvent;
use crate::metrics::{FleetMetrics, LatencyStats, PlacementRecord};
use crate::spec::FleetSpec;
use crate::telemetry::TelemetrySnapshot;
use crate::trace::Trace;
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::runtime::TimelinePoint;
use rankmap_models::ModelId;
use rankmap_platform::Platform;
use rankmap_telemetry::MemoStats;

/// Everything a fleet run produces.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Deterministic aggregate metrics (trace replay reproduces them
    /// bit-for-bit).
    pub metrics: FleetMetrics,
    /// The admission/placement decision log, in offered order.
    pub placements: Vec<PlacementRecord>,
    /// Per-shard serving timelines.
    pub timelines: Vec<Vec<TimelinePoint>>,
    /// Wall-clock latency of the placement decision (not part of the
    /// deterministic metrics).
    pub placement_latency: LatencyStats,
    /// Wall-clock latency of handling each shard failure — triage plus
    /// every evacuation probe and re-place of that outage. Like
    /// `placement_latency`, deliberately outside the deterministic
    /// [`FleetMetrics`] (the *simulated* evacuation cost is
    /// [`FleetMetrics::evacuation_stall_seconds`]).
    pub evacuation_latency: LatencyStats,
    /// Everything the run's telemetry collected — registry, flight
    /// recorder, per-shard time series (see
    /// [`crate::telemetry::TelemetrySnapshot`]). `None` when
    /// [`FleetConfig::telemetry`] was disabled. Enabled or disabled, the
    /// deterministic fields above are bit-identical.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Hit/miss counters of the board report memos at the end of the run,
    /// summed over platform groups (see
    /// [`FleetRuntime::board_memo_stats`]). Like the latency fields,
    /// outside the deterministic [`FleetMetrics`]: under a parallel
    /// executor two shards of one group can miss the same report at the
    /// same time, so the split between hits and misses may differ from a
    /// `Sequential` run even though every report is identical.
    pub board_memo: MemoStats,
}

/// A fleet of emulated boards behind one admission/placement layer.
///
/// This is the public facade over the shard-parallel [`FleetExecutor`]:
/// construction, plan-cache warming, probe-score observability, and the
/// execute/replay entry points.
pub struct FleetRuntime<'p, O: ThroughputOracle> {
    pub(crate) executor: FleetExecutor<'p, O>,
}

impl<'p, O: ThroughputOracle> FleetRuntime<'p, O> {
    /// Builds a fleet from a [`FleetSpec`]: each group contributes
    /// `count` shards on its own platform, sharing one board record per
    /// group — per-model ideal rates measured once, and one report memo
    /// (see [`FleetRuntime::board_memo_stats`]).
    ///
    /// # Example
    ///
    /// A two-board mixed fleet serving two arrivals (tiny search budgets
    /// keep this runnable as a doctest):
    ///
    /// ```
    /// use rankmap_core::manager::ManagerConfig;
    /// use rankmap_core::oracle::AnalyticalOracle;
    /// use rankmap_fleet::{FleetConfig, FleetEvent, FleetRuntime, FleetSpec, RequestId, ShardSpec};
    /// use rankmap_models::ModelId;
    /// use rankmap_platform::Platform;
    ///
    /// let orange = Platform::orange_pi_5();
    /// let jetson = Platform::jetson_orin_nx();
    /// let orange_oracle = AnalyticalOracle::new(&orange);
    /// let jetson_oracle = AnalyticalOracle::new(&jetson);
    /// let spec = FleetSpec::new(vec![
    ///     ShardSpec::new(&orange, &orange_oracle, 1),
    ///     ShardSpec::new(&jetson, &jetson_oracle, 1),
    /// ]);
    /// let config = FleetConfig {
    ///     manager: ManagerConfig { mcts_iterations: 40, warm_iterations: 20, ..Default::default() },
    ///     ..Default::default()
    /// };
    /// let fleet = FleetRuntime::new(&spec, config);
    /// assert_eq!(fleet.platform_names(), ["orange-pi-5", "jetson-orin-nx"]);
    /// let events = vec![
    ///     FleetEvent::Arrive { at: 0.0, request: RequestId::new(0), model: ModelId::AlexNet },
    ///     FleetEvent::Arrive { at: 10.0, request: RequestId::new(1), model: ModelId::ResNet50 },
    /// ];
    /// let outcome = fleet.execute(&events, 60.0);
    /// assert_eq!(outcome.metrics.admitted, 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics with `invalid fleet config: {err}` when
    /// [`FleetConfig::validate`] rejects the configuration (e.g. a zero
    /// `probe_memo_capacity`); use [`FleetRuntime::try_new`] for the
    /// `Result` surface.
    pub fn new(spec: &FleetSpec<'p, O>, config: FleetConfig) -> Self {
        match Self::try_new(spec, config) {
            Ok(fleet) => fleet,
            Err(err) => panic!("invalid fleet config: {err}"),
        }
    }

    /// [`FleetRuntime::new`] with configuration errors surfaced as a
    /// [`FleetConfigError`] instead of a panic — the counterpart of
    /// [`FleetSpec::try_new`](crate::FleetSpec::try_new) for the
    /// executor-level knobs.
    ///
    /// # Errors
    ///
    /// Whatever [`FleetConfig::validate`] rejects: a zero
    /// `probe_memo_capacity`, a zero `manager.plan_cache_capacity`, or a
    /// non-positive `sample_dt` — each of which shard construction would
    /// otherwise panic on.
    pub fn try_new(
        spec: &FleetSpec<'p, O>,
        config: FleetConfig,
    ) -> Result<Self, FleetConfigError> {
        config.validate()?;
        Ok(Self { executor: FleetExecutor::new(spec, config) })
    }

    /// Builds a homogeneous fleet: `shards` copies of the same platform
    /// served by one shared oracle (shorthand for
    /// [`FleetSpec::homogeneous`] + [`FleetRuntime::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn homogeneous(
        platform: &'p Platform,
        oracle: &'p O,
        shards: usize,
        config: FleetConfig,
    ) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        Self::new(&FleetSpec::homogeneous(platform, oracle, shards), config)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.executor.shards.len()
    }

    /// Per-shard platform names, in shard order — the fleet mix a trace
    /// records and replay verifies.
    pub fn platform_names(&self) -> &[String] {
        &self.executor.platforms
    }

    /// Hit/miss counters of placement's cross-event score memo —
    /// observability for tests and benches (the memo is bounded by
    /// [`FleetConfig::probe_memo_capacity`]; a hit scores a shard without
    /// building a probe or asking the oracle, bit-identically to
    /// recomputing it). Counters tally distinct questions per event:
    /// shards sharing one question count once, so the hit ratio reflects
    /// actual oracle-call savings.
    pub fn probe_memo_stats(&self) -> rankmap_telemetry::MemoStats {
        self.executor.score_memo.stats()
    }

    /// Hit/miss counters of the board report memos, summed over platform
    /// groups. Every shard's session evaluates its adopted mapping — and
    /// the migration decision's incumbent and candidate — on the board
    /// simulator through its group's memo, keyed exactly by the models in
    /// order and the run-length-encoded mapping, and bounded by
    /// [`rankmap_core::board::REPORT_MEMO_BOUND`] entries per group. A hit
    /// is bit-identical to simulating again. The counters depend on the
    /// executor (concurrent shards can miss the same key together), so
    /// they are observability only and stay out of the telemetry
    /// registry. A finished run's totals ride on
    /// [`FleetOutcome::board_memo`].
    pub fn board_memo_stats(&self) -> MemoStats {
        self.executor.board_memo_stats()
    }

    /// A point-in-time telemetry snapshot — the registry with score-memo
    /// and plan-cache totals overlaid, the flight recorder's retained
    /// window, and the per-shard time series collected so far. `None`
    /// when [`FleetConfig::telemetry`] is disabled. A finished run's
    /// snapshot rides on [`FleetOutcome::telemetry`] instead.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.executor.telemetry.snapshot(
            &self.executor.score_memo,
            &self.executor.shards,
            None,
            None,
        )
    }

    /// Boots shard plan caches from a
    /// [`RankMapManager::export_plan_cache`](rankmap_core::manager::RankMapManager::export_plan_cache)
    /// snapshot ("serve yesterday's
    /// plans"). The snapshot is parsed once, then installed onto every
    /// shard whose board it was recorded for: a platform-tagged snapshot
    /// only warms shards with the matching
    /// [`Platform::signature`], and an untagged (legacy) snapshot only
    /// shards it shape-validates against — on a mixed fleet the other
    /// shards simply boot cold. Returns the number of plans serving per
    /// warmed shard.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot does not parse, or if *no* shard of the
    /// fleet can accept it (wrong board type everywhere).
    pub fn warm_plan_caches(
        &self,
        json: &str,
    ) -> Result<usize, rankmap_core::json::JsonError> {
        let loaded = rankmap_core::plan_cache::PlanCache::from_json(json)?;
        let mut served = None;
        let mut last_err = None;
        for shard in &self.executor.shards {
            let compatible = loaded
                .validate_platform(&shard.platform.signature())
                .and_then(|()| loaded.validate_components(shard.platform.component_count()));
            match compatible {
                Ok(()) => {
                    served = Some(shard.mapper.manager().install_plan_cache(loaded.clone()));
                }
                Err(e) => last_err = Some(e),
            }
        }
        match served {
            Some(n) => Ok(n),
            None => Err(last_err.unwrap_or_else(|| {
                rankmap_core::json::JsonError::semantic("the fleet has no shards")
            })),
        }
    }

    /// Scores placing `model` on every shard: `scores[s]` is the shard's
    /// `(normalized potential delta, arrival potential)` — the router's
    /// decision inputs — or `None` for shards down or at capacity.
    /// Potentials are fractions of each shard's *own* board ideal, so the
    /// numbers are comparable across a mixed fleet.
    ///
    /// Shards in equal states are scored once. A question — a shard state
    /// without its throttle, the arriving model and the priority tag — is
    /// asked once per event, answered from the score memo when it was
    /// asked before (a shard whose state has not changed since the same
    /// model last arrived builds nothing), and the remaining questions of
    /// a platform group go to one [`ThroughputOracle::predict_grouped`]
    /// call. Scores are bit-identical at any [`crate::Parallelism`].
    ///
    /// Takes `&mut self`: scoring refreshes the per-shard memos (shards are owned `Send` state — no interior
    /// mutability).
    pub fn probe_scores(&mut self, model: ModelId) -> Vec<Option<(f64, f64)>> {
        self.executor.probe_scores(model)
    }

    /// Runs a sorted fleet event stream to `horizon`, consuming the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `events` is not sorted by time or reaches outside
    /// `[0, horizon)` — e.g. a stream generated for a longer horizon than
    /// the one passed here.
    pub fn execute(self, events: &[FleetEvent], horizon: f64) -> FleetOutcome {
        self.executor.run(events, horizon)
    }

    /// [`FleetRuntime::execute`] over a pull-based event source — the
    /// million-instance entry point. Paired with
    /// [`crate::load::LoadStream`], the event vector is never
    /// materialized: events are pulled, validated, and applied one at a
    /// time, so peak memory is bounded by the fleet state rather than
    /// the run length.
    ///
    /// # Panics
    ///
    /// As [`FleetRuntime::execute`], with validation performed as events
    /// are pulled rather than up front.
    pub fn execute_stream<I>(self, events: I, horizon: f64) -> FleetOutcome
    where
        I: IntoIterator<Item = FleetEvent>,
    {
        self.executor.run_stream(events, horizon)
    }

    /// Replays a recorded trace (see [`Trace`]): the trace's shard count
    /// — and, for version-2 traces, its per-shard platform mix — must
    /// match this fleet's.
    ///
    /// # Panics
    ///
    /// Panics if `trace.meta.shards != self.shard_count()`, or if the
    /// trace declares a platform mix that differs from this fleet's
    /// [`FleetRuntime::platform_names`].
    pub fn execute_trace(self, trace: &Trace) -> FleetOutcome {
        assert_eq!(
            trace.meta.shards,
            self.shard_count(),
            "trace was recorded for a different fleet size"
        );
        if !trace.meta.platforms.is_empty() {
            assert_eq!(
                trace.meta.platforms,
                self.executor.platforms,
                "trace was recorded on a different fleet platform mix"
            );
        }
        self.execute(&trace.events, trace.meta.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::RequestId;
    use crate::metrics::PlacementOutcome;
    use crate::spec::ShardSpec;
    use rankmap_core::manager::{ManagerConfig, RankMapManager};
    use rankmap_core::oracle::AnalyticalOracle;
    use rankmap_core::priority::PriorityMode;
    use rankmap_sim::Workload;

    fn quick_config() -> FleetConfig {
        FleetConfig {
            manager: ManagerConfig { mcts_iterations: 80, warm_iterations: 40, ..Default::default() },
            ..Default::default()
        }
    }

    fn arrive(at: f64, k: u64, model: ModelId) -> FleetEvent {
        FleetEvent::Arrive { at, request: RequestId::new(k), model }
    }

    /// `try_new` rejects `config` with a typed error, and `new` panics
    /// with that error's message; returns the error.
    fn rejected(config: FleetConfig) -> FleetConfigError {
        let p = Platform::orange_pi_5();
        let o = AnalyticalOracle::new(&p);
        let spec = FleetSpec::homogeneous(&p, &o, 2);
        let err = FleetRuntime::try_new(&spec, config.clone()).err().expect("config rejected");
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FleetRuntime::new(&spec, config)
        }))
        .err()
        .expect("new panics on a rejected config");
        let message = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(*message, format!("invalid fleet config: {err}"));
        err
    }

    #[test]
    fn zero_probe_memo_capacity_is_a_config_error() {
        let err = rejected(FleetConfig { probe_memo_capacity: 0, ..FleetConfig::default() });
        assert_eq!(err, FleetConfigError::ZeroProbeMemoCapacity);
        assert!(err.to_string().contains("probe_memo_capacity"), "{err}");
    }

    #[test]
    fn zero_plan_cache_capacity_is_a_config_error() {
        let config = FleetConfig {
            manager: ManagerConfig { plan_cache_capacity: 0, ..Default::default() },
            ..FleetConfig::default()
        };
        let err = rejected(config);
        assert_eq!(err, FleetConfigError::ZeroPlanCacheCapacity);
        assert!(err.to_string().contains("plan_cache_capacity"), "{err}");
    }

    #[test]
    fn non_positive_sample_dt_is_a_config_error() {
        for sample_dt in [0.0, -30.0] {
            let err = rejected(FleetConfig { sample_dt, ..FleetConfig::default() });
            assert_eq!(err, FleetConfigError::NonPositiveSampleDt { sample_dt });
            assert!(err.to_string().contains("sample_dt"), "{err}");
        }
        let err = rejected(FleetConfig { sample_dt: f64::NAN, ..FleetConfig::default() });
        assert!(
            matches!(err, FleetConfigError::NonPositiveSampleDt { sample_dt } if sample_dt.is_nan()),
            "{err:?}"
        );
        assert!(FleetConfig::default().validate().is_ok());
    }

    #[test]
    fn fleet_runtime_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FleetRuntime<'static, AnalyticalOracle<'static>>>();
    }

    #[test]
    fn fleets_never_share_a_board_memo() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let config =
            FleetConfig { parallelism: crate::Parallelism::Sequential, ..quick_config() };
        let a = FleetRuntime::homogeneous(&p, &oracle, 2, config.clone());
        let b = FleetRuntime::homogeneous(&p, &oracle, 2, config);
        let board = |fleet: &FleetRuntime<'_, _>, s: usize| {
            std::sync::Arc::as_ptr(fleet.executor.shards[s].session.board()) as usize
        };
        assert_eq!(board(&a, 0), board(&a, 1), "one board per platform group");
        assert_ne!(board(&a, 0), board(&b, 0));
        assert_eq!(a.board_memo_stats(), MemoStats::new());
        let events = vec![
            arrive(0.0, 0, ModelId::InceptionV4),
            arrive(1.0, 1, ModelId::ResNet50),
            arrive(2.0, 2, ModelId::AlexNet),
            arrive(3.0, 3, ModelId::ResNet50),
        ];
        let first = a.execute(&events, 100.0);
        let second = b.execute(&events, 100.0);
        assert!(first.board_memo.misses > 0);
        assert_eq!(
            second.board_memo, first.board_memo,
            "a second fleet starts with a cold memo of its own"
        );
        assert_eq!(second.metrics, first.metrics);
    }

    #[test]
    fn arrivals_spread_across_idle_shards() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let fleet = FleetRuntime::homogeneous(&p, &oracle, 2, quick_config());
        let events = vec![
            arrive(0.0, 0, ModelId::InceptionV4),
            arrive(10.0, 1, ModelId::ResNet50),
        ];
        let outcome = fleet.execute(&events, 100.0);
        assert_eq!(outcome.metrics.admitted, 2);
        assert_eq!(outcome.metrics.rejected, 0);
        // Collect only admissions — no panic on other outcomes; the
        // admitted/rejected counters above already pin the totals.
        let shards: Vec<usize> = outcome
            .placements
            .iter()
            .filter_map(|r| match r.outcome {
                PlacementOutcome::Admitted { shard } => Some(shard),
                _ => None,
            })
            .collect();
        assert_eq!(shards.len(), 2);
        assert_ne!(shards[0], shards[1], "the second heavy DNN must take the idle shard");
    }

    #[test]
    fn overcommitted_fleet_spills_and_rejects() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let config = FleetConfig { max_per_shard: 2, ..quick_config() };
        let fleet = FleetRuntime::homogeneous(&p, &oracle, 1, config);
        let events: Vec<FleetEvent> = (0..3)
            .map(|k| arrive(k as f64, k, ModelId::ResNet50))
            .collect();
        let outcome = fleet.execute(&events, 100.0);
        assert_eq!(outcome.metrics.admitted, 2, "capacity admits two");
        assert_eq!(outcome.metrics.rejected, 1, "the third spills nowhere and is rejected");
        assert_eq!(outcome.placements[2].outcome, PlacementOutcome::Rejected);
    }

    #[test]
    fn admission_floor_rejects_predicted_starvation() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        // A floor so high that sharing a board at all is unacceptable.
        let config = FleetConfig { admission_floor: 0.95, ..quick_config() };
        let fleet = FleetRuntime::homogeneous(&p, &oracle, 1, config);
        let events = vec![
            arrive(0.0, 0, ModelId::InceptionV4),
            arrive(1.0, 1, ModelId::InceptionV4),
        ];
        let outcome = fleet.execute(&events, 100.0);
        assert_eq!(outcome.metrics.admitted, 1);
        assert_eq!(
            outcome.metrics.rejected, 1,
            "an arrival predicted below the floor must be rejected even with capacity"
        );
    }

    #[test]
    fn collapsed_shard_sheds_load_to_an_idle_one() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let config = FleetConfig {
            max_per_shard: 3,
            // Trigger aggressively so the crowded shard must shed.
            rebalance_threshold: 0.95,
            rebalance_margin: 0.01,
            admission_floor: 0.01,
            ..quick_config()
        };
        let fleet = FleetRuntime::homogeneous(&p, &oracle, 2, config);
        // Fill both shards with heavyweights, then empty shard 1 by
        // departing everything placed on it: shard 0 is left crowded next
        // to an idle board.
        let heavies = [
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::InceptionResnetV1,
            ModelId::DenseNet121,
            ModelId::GoogleNet,
        ];
        let mut events: Vec<FleetEvent> = heavies
            .iter()
            .enumerate()
            .map(|(k, &m)| arrive(k as f64, k as u64, m))
            .collect();
        // Probe run to learn the placement, then depart one shard's load.
        let probe = FleetRuntime::homogeneous(
            &p,
            &oracle,
            2,
            FleetConfig { rebalance_threshold: 0.0, ..quick_config() },
        );
        let placements = probe.execute(&events, 10.0).placements;
        for record in &placements {
            if record.outcome == (PlacementOutcome::Admitted { shard: 1 }) {
                events.push(FleetEvent::Depart { at: 10.0, request: record.request });
            }
        }
        let outcome = fleet.execute(&events, 300.0);
        assert!(
            outcome.metrics.migrations >= 1,
            "the crowded shard must shed an instance to the idle one: {:?}",
            outcome.metrics
        );
        // A cross-shard move is not free: the receiving board pays the
        // weight restage + stem rebuild as a visible stall point.
        assert!(
            outcome
                .timelines
                .iter()
                .flatten()
                .any(|pt| pt.time >= 10.0 && pt.migration_stall > 0.0),
            "the migration's transfer stall must surface on a timeline"
        );
    }

    #[test]
    fn warm_plan_caches_boot_every_shard() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        // Yesterday: one board mapped a workload set.
        let mgr = RankMapManager::new(
            &p,
            &oracle,
            ManagerConfig { mcts_iterations: 80, ..Default::default() },
        );
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let _ = mgr.map_cached(&w, &PriorityMode::Dynamic);
        let snapshot = mgr.export_plan_cache();
        // Today: the fleet boots serving it.
        let fleet = FleetRuntime::homogeneous(&p, &oracle, 3, quick_config());
        let served = fleet.warm_plan_caches(&snapshot).expect("snapshot loads");
        assert_eq!(served, 1);
    }

    #[test]
    fn warm_plan_caches_skip_mismatched_boards_on_a_mixed_fleet() {
        let orange = Platform::orange_pi_5();
        let jetson = Platform::jetson_orin_nx();
        let orange_oracle = AnalyticalOracle::new(&orange);
        let jetson_oracle = AnalyticalOracle::new(&jetson);
        // Yesterday's plans were recorded on an Orange Pi.
        let mgr = RankMapManager::new(
            &orange,
            &orange_oracle,
            ManagerConfig { mcts_iterations: 80, ..Default::default() },
        );
        let w = Workload::from_ids([ModelId::AlexNet]);
        let _ = mgr.map_cached(&w, &PriorityMode::Dynamic);
        let snapshot = mgr.export_plan_cache();
        // A mixed fleet warms only its Orange Pi shards with them.
        let spec = FleetSpec::new(vec![
            ShardSpec::new(&orange, &orange_oracle, 1),
            ShardSpec::new(&jetson, &jetson_oracle, 1),
        ]);
        let fleet = FleetRuntime::new(&spec, quick_config());
        assert_eq!(fleet.warm_plan_caches(&snapshot).expect("orange shards warm"), 1);
        // A Jetson-only fleet refuses the snapshot outright.
        let jetson_fleet = FleetRuntime::homogeneous(&jetson, &jetson_oracle, 2, quick_config());
        let err = jetson_fleet.warm_plan_caches(&snapshot).unwrap_err();
        assert!(
            err.to_string().contains("never cross board types"),
            "a wrong-board snapshot must fail loudly: {err}"
        );
    }

    #[test]
    fn fused_and_serial_scoring_make_identical_decisions() {
        // Memoized, grouped scoring is an execution strategy, not a
        // policy: a mixed fleet must admit, place, reject, and rebalance
        // exactly as the reference that scores every shard by its own
        // `predict_batch` call.
        let orange = Platform::orange_pi_5();
        let jetson = Platform::jetson_orin_nx();
        let orange_oracle = AnalyticalOracle::new(&orange);
        let jetson_oracle = AnalyticalOracle::new(&jetson);
        let spec = || {
            FleetSpec::new(vec![
                ShardSpec::new(&orange, &orange_oracle, 2),
                ShardSpec::new(&jetson, &jetson_oracle, 2),
            ])
        };
        let events: Vec<FleetEvent> = [
            ModelId::ResNet50,
            ModelId::AlexNet,
            ModelId::InceptionV4,
            ModelId::MobileNet,
            ModelId::Vgg16,
            ModelId::SqueezeNetV2,
        ]
        .iter()
        .enumerate()
        .map(|(k, &m)| arrive(k as f64 * 5.0, k as u64, m))
        .collect();
        let fused = FleetRuntime::new(&spec(), quick_config()).execute(&events, 120.0);
        let serial = FleetRuntime::new(&spec(), quick_config())
            .with_reference_placement()
            .execute(&events, 120.0);
        assert_eq!(fused.placements, serial.placements);
        assert_eq!(fused.metrics, serial.metrics);
        assert_eq!(fused.timelines, serial.timelines);
    }

    #[test]
    fn tiny_probe_memo_changes_no_decision() {
        // The bound is a memory knob, not a policy: a memo that can
        // hold a single answer (evicting on every insert) must produce
        // the exact outcome of the default bound — eviction only costs a
        // recomputation, because entries are pure.
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let events: Vec<FleetEvent> = [
            ModelId::ResNet50,
            ModelId::AlexNet,
            ModelId::ResNet50,
            ModelId::AlexNet,
            ModelId::MobileNet,
        ]
        .iter()
        .enumerate()
        .map(|(k, &m)| arrive(k as f64 * 4.0, k as u64, m))
        .collect();
        let roomy = FleetRuntime::homogeneous(&p, &oracle, 3, quick_config())
            .execute(&events, 120.0);
        let starved = FleetRuntime::homogeneous(
            &p,
            &oracle,
            3,
            FleetConfig { probe_memo_capacity: 1, ..quick_config() },
        )
        .execute(&events, 120.0);
        assert_eq!(roomy.placements, starved.placements);
        assert_eq!(roomy.metrics, starved.metrics);
        assert_eq!(roomy.timelines, starved.timelines);
    }

    #[test]
    fn repeated_probes_hit_the_cross_event_memo() {
        // Two identical arrivals against an unchanged shard ask the
        // identical oracle question: the second must be answered from the
        // memo (and the answer is bit-identical by the purity of the
        // fingerprint, which tiny_probe_memo_changes_no_decision checks
        // end to end).
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let mut fleet = FleetRuntime::homogeneous(&p, &oracle, 2, quick_config());
        let first = fleet.probe_scores(ModelId::AlexNet);
        let hits_after_first = fleet.probe_memo_stats().hits;
        let second = fleet.probe_scores(ModelId::AlexNet);
        let hits_after_second = fleet.probe_memo_stats().hits;
        assert_eq!(first, second, "an unchanged fleet scores identically");
        assert!(
            hits_after_second > hits_after_first,
            "the repeat probe must be served from the memo: {hits_after_first} → {hits_after_second}"
        );
    }

    #[test]
    fn fast_board_does_not_monopolize_normalized_routing() {
        // The heterogeneity point: under normalized scoring an idle
        // Orange Pi outbids a busy Jetson for a model it can serve near
        // its own ideal — raw-throughput scoring would never route there.
        let orange = Platform::orange_pi_5();
        let jetson = Platform::jetson_orin_nx();
        let orange_oracle = AnalyticalOracle::new(&orange);
        let jetson_oracle = AnalyticalOracle::new(&jetson);
        let spec = FleetSpec::new(vec![
            ShardSpec::new(&orange, &orange_oracle, 1),
            ShardSpec::new(&jetson, &jetson_oracle, 1),
        ]);
        let fleet = FleetRuntime::new(&spec, quick_config());
        let events: Vec<FleetEvent> = [
            ModelId::InceptionV4,
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::AlexNet,
        ]
        .iter()
        .enumerate()
        .map(|(k, &m)| arrive(k as f64, k as u64, m))
        .collect();
        let outcome = fleet.execute(&events, 100.0);
        assert_eq!(outcome.metrics.admitted, 4);
        let oranges = outcome.metrics.per_shard_admitted[0];
        assert!(
            oranges >= 1,
            "the slower board must win some arrivals under normalized routing: {:?}",
            outcome.metrics.per_shard_admitted
        );
        assert_eq!(
            outcome.metrics.per_shard_platform,
            vec!["orange-pi-5".to_string(), "jetson-orin-nx".to_string()]
        );
    }
}
