//! The deterministic shard-parallel fleet executor.
//!
//! [`FleetExecutor`] owns the shards and drives the event loop under
//! global event barriers: the sorted event stream is processed one event
//! at a time, and *within* each event every piece of per-shard work —
//! placement probes, `SetPriorities` remaps, the rebalancer's health
//! scan, the source/destination applies of a migration, the final
//! timeline close — fans out across up to `n` worker threads
//! ([`Parallelism::Threads`]) and joins before the next event starts.
//!
//! No two threads ever touch the same shard: work is partitioned *by
//! shard* (`&mut Shard` per worker), the shards are owned `Send` state,
//! and results are merged back in canonical shard order.
//!
//! **Determinism argument.** Every per-shard computation is a pure
//! function of that shard's state (sessions, mappers and oracles are
//! deterministic given their seeds), the merge order is the canonical
//! shard index — never completion order — and cross-shard decisions
//! (admission, rebalance victim/destination) are taken serially from the
//! merged score vector. No floating-point sum ever changes its
//! association order, so [`Parallelism::Threads`] with *any* `n`
//! produces placements, timelines, metrics, and trace replays
//! **bit-identical** to [`Parallelism::Sequential`] (property-tested in
//! `crates/fleet/tests/parallel.rs`).

use crate::index::HealthIndex;
use crate::load::{FleetEvent, RequestId};
use crate::metrics::{FleetMetrics, LatencyStats, PlacementOutcome, PlacementRecord};
use crate::placement::{ScoreMemo, PROBE_MEMO_BOUND};
use crate::runtime::FleetOutcome;
use crate::shard::Shard;
use crate::spec::FleetSpec;
use crate::telemetry::{stage, FleetTelemetry, TelemetrySpec};
use rankmap_core::board::SharedBoard;
use rankmap_core::dataset::ideal_rates;
use rankmap_core::manager::{ManagerConfig, RankMapManager};
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::priority::PriorityMode;
use rankmap_core::runtime::{
    timeline_average_potential, DynamicEvent, DynamicRuntime, InstanceId,
    RankMapMapper, TimelinePoint,
};
use rankmap_models::ModelId;
use rankmap_telemetry::{Histogram, MemoStats};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// How shard work is executed.
///
/// Both modes run the *same* decision logic over the shards in canonical
/// order, and `Threads(n)` is bit-identical to [`Parallelism::Sequential`]
/// by construction (and by property test); the choice only decides
/// whether per-shard work items are spread across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Advance every shard in turn on the calling thread: the same code
    /// path as `Threads(1)`. (The placement references the conformance
    /// suites compare against live in `tests/support/reference.rs`.)
    Sequential,
    /// Fan per-shard work across up to `n` worker threads between global
    /// event barriers (`Threads(1)` is the serial schedule on the
    /// executor's code path; `n` is not clamped to the host's core count,
    /// so an oversubscribed width still exercises real concurrency).
    Threads(usize),
}

impl Parallelism {
    /// The fan-out width this mode permits.
    pub(crate) fn width(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// One worker thread per host core — the production default. On a
/// single-core host this degrades to the serial schedule with zero spawn
/// overhead.
impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::Threads(rayon::current_num_threads())
    }
}

/// Fleet-wide configuration (per-shard manager settings included).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Timeline sampling interval of every shard session (seconds).
    /// Must be positive ([`FleetConfigError::NonPositiveSampleDt`]).
    pub sample_dt: f64,
    /// Per-shard manager configuration (search budgets, plan-cache
    /// capacity, ...). The plan-cache capacity must be positive
    /// ([`FleetConfigError::ZeroPlanCacheCapacity`]).
    pub manager: ManagerConfig,
    /// Hard per-shard concurrency cap — the admission backstop.
    pub max_per_shard: usize,
    /// Minimum predicted potential (fraction of the *hosting shard's*
    /// ideal rate) an arrival must reach on its best candidate shard to
    /// be admitted; below it the request is rejected.
    pub admission_floor: f64,
    /// A shard whose mean predicted potential falls below this value is a
    /// rebalance candidate.
    pub rebalance_threshold: f64,
    /// Required predicted improvement of the source shard's mean
    /// potential for a rebalance migration to fire.
    pub rebalance_margin: f64,
    /// How shard work is executed (see [`Parallelism`]). Every width is
    /// bit-identical to [`Parallelism::Sequential`].
    pub parallelism: Parallelism,
    /// Bound on placement's cross-event score memo (entries across all
    /// platform groups; each entry is a few `f64`s per candidate
    /// mapping). Eviction is generational: the oldest half goes whole,
    /// and an entry hit since it was inserted moves to the young half,
    /// so the hottest questions stay memoized even under adversarial
    /// arrival mixes. A bound of 1 keeps only the newest entry. Must be
    /// positive
    /// ([`FleetConfigError::ZeroProbeMemoCapacity`]), matching the plan
    /// cache's contract.
    pub probe_memo_capacity: usize,
    /// On a [`FleetEvent::ShardDown`], re-place the failing shard's live
    /// instances onto survivors in priority order (highest first),
    /// charging each move the destination board's full-restage migration
    /// cost; instances no survivor can absorb are shed. `false` sheds
    /// everything — the `fleet_chaos` bench's no-evacuation baseline.
    pub evacuate: bool,
    /// Rejected arrivals retry up to this many times before the
    /// rejection is final (`0` = the pre-retry behaviour: one attempt).
    /// Retries are deterministic: attempt `k` (0-based) re-enters
    /// admission `retry_backoff · 2^k` seconds after its rejection, and
    /// a retry that would land at or past the horizon is finalized as a
    /// rejection immediately.
    pub retry_limit: u32,
    /// Base backoff delay (seconds) of the first retry; doubles per
    /// attempt.
    pub retry_backoff: f64,
    /// Fleet-wide overload guard: after each event, if the worst loaded
    /// shard's mean predicted potential falls below this threshold, its
    /// lowest-priority instance is shed outright — dropping low-priority
    /// work *before* high-priority potential collapses. `0.0` (the
    /// default) disables the guard.
    pub overload_guard: f64,
    /// Observability configuration (see [`TelemetrySpec`]). Disabled by
    /// default; enabled or disabled, all placements, timelines, and
    /// [`FleetMetrics`] are bit-identical — telemetry lives strictly off
    /// the decision path (property-tested in `tests/telemetry.rs`).
    pub telemetry: TelemetrySpec,
}

/// Why a fleet configuration was rejected at construction — caught
/// there, with the offending field named (the `FleetSpecError` pattern),
/// instead of a panic deep inside shard construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetConfigError {
    /// [`FleetConfig::probe_memo_capacity`] is 0: a zero-capacity memo
    /// would evict every answer it stores.
    ZeroProbeMemoCapacity,
    /// `manager.plan_cache_capacity` is 0: every shard's plan cache
    /// would evict every plan it stores (`usize::MAX` is unbounded).
    ZeroPlanCacheCapacity,
    /// [`FleetConfig::sample_dt`] is zero, negative or NaN: shard
    /// timelines could never advance.
    NonPositiveSampleDt {
        /// The rejected sampling interval.
        sample_dt: f64,
    },
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::ZeroProbeMemoCapacity => {
                write!(f, "probe_memo_capacity must be positive")
            }
            FleetConfigError::ZeroPlanCacheCapacity => write!(
                f,
                "manager.plan_cache_capacity must be positive (usize::MAX = unbounded)"
            ),
            FleetConfigError::NonPositiveSampleDt { sample_dt } => {
                write!(f, "sample_dt must be positive, got {sample_dt}")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

impl FleetConfig {
    /// Checks the fields shard construction would otherwise panic on.
    /// Fleet construction runs this and panics on `Err`
    /// ([`crate::FleetRuntime::try_new`] surfaces the `Result` instead).
    ///
    /// # Errors
    ///
    /// The first rejected field, in the order
    /// [`FleetConfigError::ZeroProbeMemoCapacity`],
    /// [`FleetConfigError::ZeroPlanCacheCapacity`],
    /// [`FleetConfigError::NonPositiveSampleDt`].
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.probe_memo_capacity == 0 {
            return Err(FleetConfigError::ZeroProbeMemoCapacity);
        }
        if self.manager.plan_cache_capacity == 0 {
            return Err(FleetConfigError::ZeroPlanCacheCapacity);
        }
        if self.sample_dt.is_nan() || self.sample_dt <= 0.0 {
            return Err(FleetConfigError::NonPositiveSampleDt { sample_dt: self.sample_dt });
        }
        Ok(())
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            sample_dt: 30.0,
            manager: ManagerConfig {
                mcts_iterations: 400,
                warm_iterations: 150,
                ..Default::default()
            },
            max_per_shard: 5,
            admission_floor: 0.05,
            rebalance_threshold: 0.3,
            rebalance_margin: 0.05,
            parallelism: Parallelism::default(),
            probe_memo_capacity: PROBE_MEMO_BOUND,
            evacuate: true,
            retry_limit: 0,
            retry_backoff: 30.0,
            overload_guard: 0.0,
            telemetry: TelemetrySpec::default(),
        }
    }
}

/// Where an offered request currently stands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Disposition {
    /// Finally rejected: admission said no and no retries remain (or the
    /// requester departed while waiting to retry).
    Rejected,
    /// Rejected for now, with a backoff retry scheduled.
    Retrying,
    /// Live on a shard.
    Active { shard: usize, instance: InstanceId },
    /// Admitted earlier, then dropped by a shard failure or the overload
    /// guard.
    Shed,
}

/// One scheduled admission retry, ordered by `(at, request)` — the
/// request id breaks timestamp ties deterministically.
struct RetryEntry {
    at: f64,
    request: RequestId,
    model: ModelId,
    /// 1-based index of this retry attempt.
    attempt: u32,
}

/// Every piece of mutable bookkeeping one [`FleetExecutor::run`] carries
/// between events — split out so the fault-handling paths
/// (`crate::faults`) can update the same tallies the main loop does.
pub(crate) struct RunState {
    pub(crate) requests: HashMap<RequestId, Disposition>,
    /// The request behind each live `(shard, instance)` — the reverse of
    /// every [`Disposition::Active`] in `requests`, kept in step by
    /// [`RunState::activate`] and [`RunState::take_owner`].
    owners: HashMap<(usize, InstanceId), RequestId>,
    pub(crate) placements: Vec<PlacementRecord>,
    /// Wall-clock placement-decision latencies, fed incrementally into a
    /// log-bucketed histogram — O(distinct buckets) memory instead of the
    /// old `Vec<Duration>`'s O(offered load) at the `fleet_massive` tier.
    pub(crate) latencies: Histogram,
    /// Wall-clock shard-failure handling latencies (same representation).
    pub(crate) evac_latencies: Histogram,
    pending_retries: Vec<RetryEntry>,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) migrations: u64,
    pub(crate) retries: u64,
    pub(crate) retry_admitted: u64,
    pub(crate) departed: u64,
    pub(crate) failures_injected: u64,
    pub(crate) throttle_events: u64,
    pub(crate) evacuated: u64,
    pub(crate) shed: u64,
    pub(crate) evacuation_stall_seconds: f64,
    pub(crate) tier_triaged: [u64; 3],
    pub(crate) tier_evacuated: [u64; 3],
    pub(crate) per_shard_admitted: Vec<u64>,
}

impl RunState {
    fn new(shards: usize) -> Self {
        Self {
            requests: HashMap::new(),
            owners: HashMap::new(),
            placements: Vec::new(),
            latencies: Histogram::new(),
            evac_latencies: Histogram::new(),
            pending_retries: Vec::new(),
            admitted: 0,
            rejected: 0,
            migrations: 0,
            retries: 0,
            retry_admitted: 0,
            departed: 0,
            failures_injected: 0,
            throttle_events: 0,
            evacuated: 0,
            shed: 0,
            evacuation_stall_seconds: 0.0,
            tier_triaged: [0; 3],
            tier_evacuated: [0; 3],
            per_shard_admitted: vec![0; shards],
        }
    }

    /// Marks `request` live as `instance` on `shard`.
    pub(crate) fn activate(&mut self, request: RequestId, shard: usize, instance: InstanceId) {
        self.requests.insert(request, Disposition::Active { shard, instance });
        self.owners.insert((shard, instance), request);
    }

    /// The request owning `(shard, instance)`, if any, which stops owning
    /// it: every caller is about to move or drop the instance, and sets
    /// the request's new disposition itself.
    pub(crate) fn take_owner(&mut self, shard: usize, instance: InstanceId) -> Option<RequestId> {
        self.owners.remove(&(shard, instance))
    }

    /// Index of the earliest pending retry (ties broken by request id).
    fn next_retry(&self) -> Option<usize> {
        self.pending_retries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.at.total_cmp(&b.1.at).then(a.1.request.cmp(&b.1.request)))
            .map(|(i, _)| i)
    }
}

/// The engine behind [`crate::FleetRuntime`]: owns the shards, the score
/// memo, the health index, and the event loop that advances all shards
/// between global event barriers (see the module docs for the barrier
/// model and determinism argument).
pub struct FleetExecutor<'p, O: ThroughputOracle> {
    pub(crate) config: FleetConfig,
    /// Per-group oracle, indexed by `Shard::group`.
    pub(crate) group_oracles: Vec<&'p O>,
    /// Per-shard platform names, in shard order (the trace's fleet mix).
    pub(crate) platforms: Vec<String>,
    /// Placement's cross-event memo of throttle-free score terms, bounded
    /// by [`FleetConfig::probe_memo_capacity`]. A key fully determines
    /// its terms, so entries are pure and never stale.
    pub(crate) score_memo: ScoreMemo,
    /// The incremental health order behind [`FleetExecutor::worst_loaded`]
    /// (see `crate::index`).
    pub(crate) health: HealthIndex,
    /// Score placements and read health by the reference full scans
    /// instead (see `crate::reference`).
    #[cfg(any(test, feature = "reference"))]
    pub(crate) reference_placement: bool,
    /// The observability collector behind [`FleetConfig::telemetry`] —
    /// strictly off the decision path (inert when disabled).
    pub(crate) telemetry: FleetTelemetry,
    /// One shared board per platform group: the group's ideal rates and
    /// the report memo all of its shards' sessions evaluate through.
    pub(crate) boards: Vec<Arc<SharedBoard<'p>>>,
    pub(crate) shards: Vec<Shard<'p, O>>,
}

/// Runs `f` over every shard with exclusive access, across at most the
/// parallelism's width of threads (forking only under the `rayon` shim's
/// fork rule), and returns the results in canonical shard order
/// regardless of completion order. The free function (rather than a
/// method) lets callers that have already split the executor's fields
/// borrow only the shard slice.
pub(crate) fn for_each_shard<'p, O, R, F>(
    parallelism: Parallelism,
    shards: &mut [Shard<'p, O>],
    f: F,
) -> Vec<R>
where
    O: ThroughputOracle,
    R: Send,
    F: Fn(usize, &mut Shard<'p, O>) -> R + Sync,
{
    rayon::iter::par_map_slice_mut(shards, parallelism.width(), &f)
}

impl<'p, O: ThroughputOracle> FleetExecutor<'p, O> {
    /// Builds the executor from a [`FleetSpec`] and a configuration
    /// [`FleetConfig::validate`] accepted (see
    /// [`crate::FleetRuntime::try_new`], the one caller).
    pub(crate) fn new(spec: &FleetSpec<'p, O>, config: FleetConfig) -> Self {
        let mut shards = Vec::with_capacity(spec.shard_count());
        let mut group_oracles = Vec::with_capacity(spec.groups().len());
        let mut boards = Vec::with_capacity(spec.groups().len());
        for (g, group) in spec.groups().iter().enumerate() {
            group_oracles.push(group.oracle);
            let runtime = DynamicRuntime::new(group.platform, config.sample_dt);
            // One record per group: the ideal rates and the report memo
            // every shard of the group shares.
            let board = runtime.board(ideal_rates(group.platform, &ModelId::all()));
            for _ in 0..group.count {
                let i = shards.len();
                shards.push(Shard::new(
                    group.platform,
                    group.oracle,
                    g,
                    RankMapMapper::new(
                        RankMapManager::new(group.platform, group.oracle, config.manager),
                        PriorityMode::Dynamic,
                        format!("shard-{i}"),
                    ),
                    runtime.session_on(Arc::clone(&board)),
                ));
            }
            boards.push(board);
        }
        Self {
            score_memo: ScoreMemo::new(config.probe_memo_capacity),
            group_oracles,
            platforms: spec.platform_names(),
            health: HealthIndex::new(shards.len()),
            #[cfg(any(test, feature = "reference"))]
            reference_placement: false,
            telemetry: FleetTelemetry::new(config.telemetry, shards.len(), config.sample_dt),
            boards,
            config,
            shards,
        }
    }

    /// Report-memo counters summed over the platform groups' boards.
    pub(crate) fn board_memo_stats(&self) -> MemoStats {
        self.boards.iter().fold(MemoStats::new(), |sum, board| {
            let s = board.memo_stats();
            MemoStats { hits: sum.hits + s.hits, misses: sum.misses + s.misses }
        })
    }

    /// The worst loaded shard `(index, mean predicted potential)` among
    /// shards with something to shed (up, ≥ 2 live instances) — the
    /// rebalancer's and overload guard's shared health question, read
    /// from the health index's front in O(log S): the `min_by(total_cmp)`
    /// answer, first-minimal on ties.
    pub(crate) fn worst_loaded(&mut self) -> Option<(usize, f64)> {
        #[cfg(any(test, feature = "reference"))]
        if self.reference_placement {
            return self.reference_worst_loaded();
        }
        let timer = self.telemetry.stage(stage::REBALANCE_SCAN);
        let refile = self.telemetry.stage(stage::INDEX_REFILE);
        let refiled = self.health.refresh(&mut self.shards);
        self.telemetry.finish(refile);
        self.telemetry.count("fleet_index_refiled_total", refiled as u64);
        let worst = self.health.worst();
        self.telemetry.finish(timer);
        worst
    }

    /// Runs `f` over every shard at the current barrier (see
    /// [`for_each_shard`]).
    pub(crate) fn for_each_shard<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Shard<'p, O>) -> R + Sync,
    {
        for_each_shard(self.config.parallelism, &mut self.shards, f)
    }

    /// One admission attempt for `request` at time `t` — a fresh arrival
    /// (`attempt == 0`) or a scheduled retry. A rejection with retries
    /// remaining re-enqueues the request with doubled backoff; one whose
    /// retry would land at or past the horizon is finalized immediately
    /// (the retry budget is bounded *and* the run always terminates).
    fn admission_attempt(
        &mut self,
        t: f64,
        request: RequestId,
        model: ModelId,
        attempt: u32,
        horizon: f64,
        state: &mut RunState,
    ) {
        let started = Instant::now();
        let decision = self.place(model);
        state.latencies.record(started.elapsed().as_secs_f64());
        match decision {
            Some((s, delta)) => {
                let timer = self.telemetry.stage(stage::APPLY);
                let instance = self.shards[s].apply(t, &[DynamicEvent::arrive(t, model)])[0];
                self.telemetry.finish(timer);
                state.activate(request, s, instance);
                state.admitted += 1;
                if attempt > 0 {
                    state.retry_admitted += 1;
                }
                state.per_shard_admitted[s] += 1;
                self.telemetry.count("fleet_admitted_total", 1);
                if self.telemetry.enabled() {
                    self.telemetry.record(
                        t,
                        "admit",
                        None,
                        vec![
                            ("request", request.ordinal().to_string()),
                            ("model", format!("{model:?}")),
                            ("shard", s.to_string()),
                            ("delta", format!("{delta:.6}")),
                        ],
                    );
                }
                state.placements.push(PlacementRecord {
                    request,
                    at: t,
                    outcome: PlacementOutcome::Admitted { shard: s },
                    predicted_delta: delta,
                });
            }
            None => {
                let retry_at = t + self.config.retry_backoff * f64::powi(2.0, attempt as i32);
                if attempt < self.config.retry_limit && retry_at < horizon {
                    state.pending_retries.push(RetryEntry {
                        at: retry_at,
                        request,
                        model,
                        attempt: attempt + 1,
                    });
                    state.requests.insert(request, Disposition::Retrying);
                    state.retries += 1;
                    self.telemetry.count("fleet_deferred_total", 1);
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "defer",
                            None,
                            vec![
                                ("request", request.ordinal().to_string()),
                                ("retry_at", format!("{retry_at:.3}")),
                            ],
                        );
                    }
                    state.placements.push(PlacementRecord {
                        request,
                        at: t,
                        outcome: PlacementOutcome::Deferred,
                        predicted_delta: 0.0,
                    });
                } else {
                    state.requests.insert(request, Disposition::Rejected);
                    state.rejected += 1;
                    self.telemetry.count("fleet_rejected_total", 1);
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "reject",
                            None,
                            vec![("request", request.ordinal().to_string())],
                        );
                    }
                    state.placements.push(PlacementRecord {
                        request,
                        at: t,
                        outcome: PlacementOutcome::Rejected,
                        predicted_delta: 0.0,
                    });
                }
            }
        }
    }

    /// Handles one stream event at its timestamp `t`.
    fn handle_event(&mut self, event: &FleetEvent, horizon: f64, state: &mut RunState) {
        let t = event.at();
        match event {
            FleetEvent::Arrive { request, model, .. } => {
                self.admission_attempt(t, *request, *model, 0, horizon, state);
            }
            FleetEvent::Depart { request, .. } => {
                match state.requests.get(request).copied() {
                    Some(Disposition::Active { shard, instance }) => {
                        state.requests.remove(request);
                        state.take_owner(shard, instance);
                        state.departed += 1;
                        self.telemetry.count("fleet_departed_total", 1);
                        let timer = self.telemetry.stage(stage::DEPART_APPLY);
                        self.shards[shard].apply(t, &[DynamicEvent::depart(t, instance)]);
                        self.telemetry.finish(timer);
                    }
                    Some(Disposition::Retrying) => {
                        // The requester gave up while waiting on a
                        // backoff retry: the pending attempt is canceled
                        // (its queue entry is skipped when it fires) and
                        // the rejection becomes final.
                        state.requests.insert(*request, Disposition::Rejected);
                        state.rejected += 1;
                    }
                    // Rejected, shed, or unknown: nothing serving to stop.
                    _ => {}
                }
            }
            FleetEvent::SetPriorities { mode, .. } => {
                // A priority rotation re-maps *every* shard — the
                // widest barrier of the event loop, fanned across the
                // worker pool.
                let timer = self.telemetry.stage(stage::REMAP);
                let ev = [DynamicEvent::SetPriorities { at: t, mode: mode.clone() }];
                for_each_shard(self.config.parallelism, &mut self.shards, |_, shard| {
                    shard.apply(t, &ev);
                });
                self.telemetry.finish(timer);
                self.telemetry.record(t, "set_priorities", None, Vec::new());
            }
            FleetEvent::ShardDown { shard, .. } => {
                if !self.shards[*shard].is_down() {
                    state.failures_injected += 1;
                    let cause = if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "shard_down",
                            None,
                            vec![("shard", shard.to_string())],
                        )
                    } else {
                        None
                    };
                    let timer = self.telemetry.stage(stage::EVACUATION);
                    let started = Instant::now();
                    self.fail_shard(t, *shard, state, cause);
                    state.evac_latencies.record(started.elapsed().as_secs_f64());
                    self.telemetry.finish(timer);
                }
            }
            FleetEvent::ShardUp { shard, .. } => {
                if self.shards[*shard].is_down() {
                    self.shards[*shard].revive(t);
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "shard_up",
                            None,
                            vec![("shard", shard.to_string())],
                        );
                    }
                }
            }
            FleetEvent::ShardThrottle { shard, factor, .. } => {
                let target = &mut self.shards[*shard];
                // Throttles on a down shard are moot — repair restores
                // nominal speed — and re-asserting the current factor is
                // an idempotent no-op.
                if !target.is_down() && target.throttle() != *factor {
                    target.set_throttle(t, *factor);
                    state.throttle_events += 1;
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "throttle",
                            None,
                            vec![
                                ("shard", shard.to_string()),
                                ("factor", format!("{factor:.3}")),
                            ],
                        );
                    }
                }
            }
        }
    }

    /// The per-event check barrier: rebalance, then the overload guard
    /// on the post-rebalance fleet, then the sampling hook (which only
    /// reads memoized pure shard state, so enabled-vs-disabled telemetry
    /// runs stay bit-identical). Runs after every stream event and every
    /// retry.
    pub(crate) fn after_event(&mut self, t: f64, state: &mut RunState) {
        if let Some((src, dst)) = self.maybe_rebalance(t, state) {
            state.migrations += 1;
            state.per_shard_admitted[dst] += 1;
            self.telemetry.count("fleet_migrations_total", 1);
            if self.telemetry.enabled() {
                self.telemetry.record(
                    t,
                    "rebalance",
                    None,
                    vec![("from", src.to_string()), ("to", dst.to_string())],
                );
            }
        }
        self.overload_guard(t, state);
        self.telemetry.maybe_sample(t, &mut self.shards, &state.per_shard_admitted);
    }

    /// Runs a sorted fleet event stream to `horizon`, consuming the
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics if `events` is not sorted by time, reaches outside
    /// `[0, horizon)`, or names a shard index beyond the fleet.
    pub(crate) fn run(self, events: &[FleetEvent], horizon: f64) -> FleetOutcome {
        self.run_stream(events.iter().cloned(), horizon)
    }

    /// [`FleetExecutor::run`] over a pull-based event source — the
    /// million-instance entry point: paired with
    /// [`crate::load::LoadStream`], the full event vector is never
    /// materialized. Validation (sortedness, horizon bounds, shard
    /// indices) happens incrementally as events are pulled, with the same
    /// panic messages as the slice path.
    pub(crate) fn run_stream<I>(mut self, events: I, horizon: f64) -> FleetOutcome
    where
        I: IntoIterator<Item = FleetEvent>,
    {
        let mut events = events.into_iter();
        // The next stream event, pulled (and validated) once the previous
        // one has been handled.
        let mut next: Option<FleetEvent> = None;
        let mut last_at = f64::NEG_INFINITY;
        let mut state = RunState::new(self.shards.len());
        let mut offered = 0u64;
        // Stream events and scheduled retries merge into one ordered
        // walk; at equal timestamps the retry goes first (it was offered
        // strictly earlier). Every action is followed by the rebalance
        // and overload-guard barriers, exactly like a stream event.
        loop {
            if next.is_none() {
                next = events.next();
                if let Some(event) = &next {
                    assert!(event.at() >= last_at, "fleet events must be sorted by time");
                    assert!(
                        (0.0..horizon).contains(&event.at()),
                        "fleet events must lie within [0, horizon)"
                    );
                    if let FleetEvent::ShardDown { shard, .. }
                    | FleetEvent::ShardUp { shard, .. }
                    | FleetEvent::ShardThrottle { shard, .. } = event
                    {
                        assert!(
                            *shard < self.shards.len(),
                            "fault events must name shards within the fleet"
                        );
                    }
                    last_at = event.at();
                }
            }
            let retry = state.next_retry();
            let take_retry = match (retry, &next) {
                (Some(i), Some(e)) => state.pending_retries[i].at <= e.at(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let t;
            if take_retry {
                let entry = state.pending_retries.swap_remove(retry.expect("checked"));
                // A Depart while waiting canceled this attempt.
                if !matches!(state.requests.get(&entry.request), Some(Disposition::Retrying))
                {
                    continue;
                }
                t = entry.at;
                self.admission_attempt(
                    entry.at,
                    entry.request,
                    entry.model,
                    entry.attempt,
                    horizon,
                    &mut state,
                );
            } else {
                let event = next.take().expect("checked above");
                if matches!(event, FleetEvent::Arrive { .. }) {
                    offered += 1;
                }
                t = event.at();
                self.handle_event(&event, horizon, &mut state);
            }
            // Departures free capacity and arrivals shift contention —
            // both are rebalance opportunities; overload sheds run after,
            // on the post-rebalance fleet, and the sampling hook runs
            // last.
            self.after_event(t, &mut state);
        }
        // The closing barrier: every shard's last open segment is closed
        // (and its timeline samples emitted) concurrently, then collected
        // in shard order.
        let live_at_end = state
            .requests
            .values()
            .filter(|d| matches!(d, Disposition::Active { .. }))
            .count() as u64;
        let board_memo = self.board_memo_stats();
        let Self { config, platforms, mut shards, score_memo, telemetry, .. } = self;
        for_each_shard(config.parallelism, &mut shards, |_, shard| {
            shard.session.finish(horizon);
        });
        // Snapshot before the shards are consumed into timelines: the
        // overlay pulls absolute totals from the score memo and every
        // shard's plan cache, and folds in the wall-latency histograms
        // the run measured unconditionally.
        let telemetry_snapshot = telemetry.snapshot(
            &score_memo,
            &shards,
            Some(&state.latencies),
            Some(&state.evac_latencies),
        );
        let timelines: Vec<Vec<TimelinePoint>> =
            shards.into_iter().map(|shard| shard.session.into_timeline()).collect();
        let per_shard_potential: Vec<f64> =
            timelines.iter().map(|tl| timeline_average_potential(tl)).collect();
        let aggregate_potential_seconds: f64 = timelines
            .iter()
            .flat_map(|tl| tl.iter())
            .map(|pt| pt.potentials.iter().sum::<f64>() * pt.span)
            .sum();
        debug_assert_eq!(offered, state.admitted + state.rejected, "every offer resolves");
        FleetOutcome {
            metrics: FleetMetrics {
                shards: per_shard_potential.len(),
                offered,
                admitted: state.admitted,
                rejected: state.rejected,
                migrations: state.migrations,
                per_shard_potential,
                per_shard_admitted: state.per_shard_admitted,
                per_shard_platform: platforms,
                aggregate_potential_seconds,
                failures_injected: state.failures_injected,
                throttle_events: state.throttle_events,
                evacuated: state.evacuated,
                shed: state.shed,
                retries: state.retries,
                retry_admitted: state.retry_admitted,
                evacuation_stall_seconds: state.evacuation_stall_seconds,
                departed: state.departed,
                live_at_end,
                tier_triaged: state.tier_triaged,
                tier_evacuated: state.tier_evacuated,
            },
            placements: state.placements,
            timelines,
            placement_latency: LatencyStats::from_histogram(&state.latencies),
            evacuation_latency: LatencyStats::from_histogram(&state.evac_latencies),
            telemetry: telemetry_snapshot,
            board_memo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_core::oracle::AnalyticalOracle;

    #[test]
    fn executor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FleetExecutor<'static, AnalyticalOracle<'static>>>();
    }

    #[test]
    fn parallelism_width_floors_at_one() {
        assert_eq!(Parallelism::Sequential.width(), 1);
        assert_eq!(Parallelism::Threads(0).width(), 1);
        assert_eq!(Parallelism::Threads(6).width(), 6);
    }
}
