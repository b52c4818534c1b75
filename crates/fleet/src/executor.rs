//! The deterministic shard-parallel fleet executor.
//!
//! [`FleetExecutor`] owns the shards and drives the event loop. Two
//! concurrency models share one decision path:
//!
//! * **Global event barriers** ([`Parallelism::Threads`]): the sorted
//!   event stream is processed one event at a time, and *within* each
//!   event every piece of per-shard work — placement probes,
//!   `SetPriorities` remaps, the rebalancer's health scan, the
//!   source/destination applies of a migration, the final timeline
//!   close — fans out across up to `n` worker threads and joins before
//!   the next event starts.
//! * **The epoch log** ([`Parallelism::Async`]): the executor pulls a
//!   *window* of up to `max_epoch_lag + 1` events of the shared ordered
//!   log ahead of the apply cursor and speculatively scores every
//!   buffered arrival against the current — soon to be slightly stale —
//!   shard snapshots in one parallel fan, each probe stamped with its
//!   shard's epoch counter and placement class key (see
//!   `crate::speculate`). Applies still proceed in strict log order;
//!   at apply time each speculative probe is validated per shard (epoch
//!   unchanged → reuse; lag within the bound and class key equal →
//!   revalidate and reuse; otherwise re-probe fresh), so one slow
//!   shard's remap no longer stalls the probe work of every event
//!   behind it at a per-event barrier.
//! * **Apply lanes** (`Async { apply_lanes: true, .. }`): the epoch
//!   log's remaining serial stage — the apply cursor itself — splits
//!   into per-shard lanes (see `crate::lanes`). A commutativity analysis
//!   over the pulled window partitions log entries: an event whose state
//!   mutation touches exactly one shard (a validated admission whose
//!   winner is pinned, a departure, a thermal derate) *prepares* its
//!   apply on that shard's lane concurrently with other lanes, while
//!   cross-shard events (admission fan-outs, `SetPriorities`,
//!   `ShardDown` evacuations, window refills) are fences that drain the
//!   batch. A serial commit walk then retires every prepared apply in
//!   strict log order — validated by the same shard-epoch stamps the
//!   speculation layer uses, and re-applied directly if an intervening
//!   cross-shard decision (rebalance, overload shed) invalidated the
//!   capture — so out-of-order execution never reorders a decision.
//!   `apply_lanes: false` keeps the serial cursor as the bit-identity
//!   oracle.
//!
//! In all modes no two threads ever touch the same shard: work is
//! partitioned *by shard* (`&mut Shard` per worker), the shards are
//! owned `Send` state, and results are merged back in canonical shard
//! order.
//!
//! **Determinism argument.** Every per-shard computation is a pure
//! function of that shard's state (sessions, mappers and oracles are
//! deterministic given their seeds), the merge order is the canonical
//! shard index — never completion order — and cross-shard decisions
//! (admission, rebalance victim/destination) are taken serially from the
//! merged score vector exactly as the sequential reference does. A
//! reused speculative probe is bit-identical to a fresh build — the
//! epoch/class-key validation proves its snapshot is (still, or again)
//! the live shard state, and `build_probe` is a pure function of that
//! state. A lane-prepared apply is pure until its commit (the shard is
//! left untouched; every mutation is captured), commits retire in log
//! order, and a capture whose shard-epoch stamp went stale is discarded
//! for a direct apply at its log position — so the lane scheduler
//! changes *when work is computed*, never *what is decided*. No
//! floating-point sum ever changes its association order, so
//! [`Parallelism::Threads`] with *any* `n` and [`Parallelism::Async`]
//! with *any* worker count, lag bound, and `apply_lanes` setting produce
//! placements, timelines, metrics, and trace replays **bit-identical**
//! to [`Parallelism::Sequential`] (property-tested in
//! `crates/fleet/tests/parallel.rs` and `crates/fleet/tests/async_exec.rs`).

use crate::index::PlacementIndex;
use crate::lanes::{LaneBatch, LaneKind};
use crate::load::{FleetEvent, RequestId};
use crate::metrics::{FleetMetrics, LatencyStats, PlacementOutcome, PlacementRecord};
use crate::placement::{ProbeMemo, PROBE_MEMO_BOUND};
use crate::runtime::FleetOutcome;
use crate::shard::{Shard, ShardPrepared};
use crate::spec::FleetSpec;
use crate::speculate::{SpecEntry, SpeculationCache};
use crate::telemetry::{stage, FleetTelemetry, TelemetrySpec};
use rankmap_core::board::SharedBoard;
use rankmap_core::dataset::ideal_rates;
use rankmap_core::manager::{ManagerConfig, RankMapManager};
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::priority::PriorityMode;
use rankmap_core::runtime::{
    timeline_average_potential, DynamicEvent, DynamicRuntime, GainObjective, InstanceId,
    RankMapMapper, TimelinePoint,
};
use rankmap_models::ModelId;
use rankmap_telemetry::{Histogram, MemoStats};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Upper bound on the epoch log's lookahead window (events buffered and
/// speculatively scored ahead of the apply cursor), bounding speculation
/// memory at any lag bound. Configuring
/// [`Parallelism::Async`]`::max_epoch_lag` above it is rejected at fleet
/// construction with [`FleetConfigError::MaxEpochLagBeyondLookahead`]: a
/// probe filed by a window of at most `LOOKAHEAD_BOUND + 1` events can
/// never lag further than the window itself, so the excess bound would
/// silently buy nothing.
pub const LOOKAHEAD_BOUND: u64 = 256;

/// How shard work is executed.
///
/// Every mode runs the *same* decision logic over the shards in canonical
/// order and is bit-identical to [`Parallelism::Sequential`] by
/// construction (and by property test); the choice only decides whether
/// per-shard work items are spread across worker threads — and, for
/// [`Parallelism::Async`], whether probe work may run ahead of the apply
/// cursor instead of waiting at a per-event barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Advance every shard in turn on the calling thread — the reference
    /// implementation and the determinism oracle the other modes are
    /// measured against.
    Sequential,
    /// Fan per-shard work across up to `n` worker threads between global
    /// event barriers (`Threads(1)` is the serial schedule on the
    /// executor's code path; `n` is not clamped to the host's core count,
    /// so an oversubscribed width still exercises real concurrency).
    Threads(usize),
    /// Barrier-free epoch-log execution: up to `max_epoch_lag + 1`
    /// events are pulled ahead of the apply cursor and their arrivals
    /// speculatively probe-scored against current shard snapshots across
    /// `workers` threads; each speculative probe is validated at apply
    /// time against the shard's epoch counter and placement class key,
    /// and re-probed fresh on staleness beyond
    /// [`FleetConfig::max_epoch_lag`] or a failed validation (see
    /// `crate::speculate`). `Async { workers, max_epoch_lag: 0, .. }`
    /// degenerates to the per-event barrier schedule of
    /// `Threads(workers)`.
    Async {
        /// Fan-out width of every per-shard barrier and speculation fan.
        workers: usize,
        /// Staleness bound: how many shard epochs a speculative probe may
        /// lag the live state and still be revalidated (by class key)
        /// instead of unconditionally rebuilt. Fleet construction rejects
        /// values above [`LOOKAHEAD_BOUND`] (see
        /// [`FleetConfigError::MaxEpochLagBeyondLookahead`]).
        max_epoch_lag: u64,
        /// Also retire applies through the out-of-order lane scheduler:
        /// single-shard applies *prepare* concurrently on per-shard lanes
        /// and a serial walk commits them in log order, with cross-shard
        /// events acting as fences (see `crate::lanes` and the module
        /// docs' determinism argument). `false` keeps PR 9's serial apply
        /// cursor — the bit-identity oracle the lane scheduler is
        /// property-tested against.
        apply_lanes: bool,
    },
}

impl Parallelism {
    /// The fan-out width this mode permits.
    pub(crate) fn width(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Async { workers, .. } => workers.max(1),
        }
    }

    /// How many events the executor pulls ahead of the apply cursor —
    /// the epoch log's speculation window. 0 under the barrier modes.
    pub(crate) fn lookahead(self) -> u64 {
        match self {
            Parallelism::Async { max_epoch_lag, .. } => max_epoch_lag.min(LOOKAHEAD_BOUND),
            _ => 0,
        }
    }

    /// The staleness bound of apply-time validation (see
    /// [`Parallelism::Async`]); 0 under the barrier modes.
    pub fn max_epoch_lag(self) -> u64 {
        match self {
            Parallelism::Async { max_epoch_lag, .. } => max_epoch_lag,
            _ => 0,
        }
    }

    /// Whether this mode speculates ahead of the apply cursor.
    pub(crate) fn is_async(self) -> bool {
        matches!(self, Parallelism::Async { .. })
    }

    /// Whether applies retire through the out-of-order lane scheduler
    /// (see `crate::lanes`); only [`Parallelism::Async`] can opt in.
    pub(crate) fn lanes(self) -> bool {
        matches!(self, Parallelism::Async { apply_lanes: true, .. })
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
    pub sample_dt: f64,
    /// Per-shard manager configuration (search budgets, plan-cache
    /// capacity, ...).
    pub manager: ManagerConfig,
    /// Hard per-shard concurrency cap — the admission backstop.
    pub max_per_shard: usize,
    /// Minimum predicted potential (fraction of the *hosting shard's*
    /// ideal rate) an arrival must reach on its best candidate shard to
    /// be admitted; below it the request is rejected.
    pub admission_floor: f64,
    /// Expected residency window handed to shard sessions as the remap
    /// decision's integration horizon (seconds).
    pub decision_window: f64,
    /// A shard whose mean predicted potential falls below this value is a
    /// rebalance candidate.
    pub rebalance_threshold: f64,
    /// Required predicted improvement of the source shard's mean
    /// potential for a rebalance migration to fire.
    pub rebalance_margin: f64,
    /// Remap-gain objective of every shard runtime.
    pub objective: GainObjective,
    /// Migration awareness of every shard runtime.
    pub migration_aware: bool,
    /// Whether placement probes are answered through one fused
    /// [`ThroughputOracle::predict_grouped`] call per platform group
    /// (with duplicate probes deduplicated) instead of one
    /// `predict_batch` call per shard. Decisions are bit-identical either
    /// way; `false` keeps the serial path for A/B benchmarking.
    pub fused_scoring: bool,
    /// How shard work is executed (see [`Parallelism`]).
    /// [`Parallelism::Sequential`] is the reference implementation;
    /// `Threads(n)` and `Async { workers, max_epoch_lag }` are
    /// bit-identical to it for any width and lag bound.
    pub parallelism: Parallelism,
    /// Bound on the fused scorer's cross-event probe memo (entries
    /// across all platform groups; each entry is one probe's candidate
    /// predictions — a few hundred bytes). Eviction is generational: the
    /// oldest half goes whole, and an answer hit since it was inserted
    /// moves to the young half, so the hottest probes stay memoized even
    /// under adversarial arrival mixes.
    ///
    /// # Panics
    ///
    /// Fleet construction panics if set to 0 (matching the plan cache's
    /// contract).
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
    /// Route admission probes and health scans through the incremental
    /// shard-state index (see `crate::index`): probes are built once per
    /// *distinct shard state* and broadcast to equal-state shards, and
    /// the rebalancer/overload-guard's worst-shard read is O(log S)
    /// instead of one oracle prediction per shard per event. Decisions
    /// are bit-identical either way (property-tested); `false` keeps the
    /// full O(shards) scan as the identity oracle and A/B baseline.
    pub indexed_placement: bool,
    /// Observability configuration (see [`TelemetrySpec`]). Disabled by
    /// default; enabled or disabled, all placements, timelines, and
    /// [`FleetMetrics`] are bit-identical — telemetry lives strictly off
    /// the decision path (property-tested in `tests/telemetry.rs`).
    pub telemetry: TelemetrySpec,
}

/// Why a fleet configuration was rejected at construction — caught
/// there, with the offending knob named (the `FleetSpecError` pattern),
/// instead of a silent cap changing behavior deep in the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// [`Parallelism::Async`]'s `max_epoch_lag` exceeds
    /// [`LOOKAHEAD_BOUND`]. The executor buffers at most
    /// `LOOKAHEAD_BOUND + 1` events ahead of the apply cursor, and a
    /// speculative probe only exists within the window that filed it —
    /// so the excess staleness budget could never be exercised. An
    /// unbounded-lag intent is expressed as
    /// `max_epoch_lag: LOOKAHEAD_BOUND` (validation at the clamp is
    /// bit-identical to any larger bound); anything above it is rejected
    /// loudly rather than capped silently.
    MaxEpochLagBeyondLookahead {
        /// The rejected staleness bound.
        max_epoch_lag: u64,
    },
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::MaxEpochLagBeyondLookahead { max_epoch_lag } => write!(
                f,
                "max_epoch_lag {max_epoch_lag} exceeds the lookahead clamp \
                 {LOOKAHEAD_BOUND}: the epoch log buffers at most \
                 {LOOKAHEAD_BOUND} + 1 events, so the extra staleness budget \
                 can never be exercised — configure a lag within the clamp"
            ),
        }
    }
}

impl std::error::Error for FleetConfigError {}

impl FleetConfig {
    /// The configured staleness bound of the epoch-log executor: how many
    /// shard epochs a speculative probe may lag the live state before it
    /// is unconditionally rebuilt at apply time (0 under the barrier
    /// modes, where nothing is ever scored ahead of an apply). Set via
    /// [`Parallelism::Async`] on [`FleetConfig::parallelism`].
    pub fn max_epoch_lag(&self) -> u64 {
        self.parallelism.max_epoch_lag()
    }

    /// Checks knob interplay that cannot be expressed in the types.
    /// Fleet construction runs this and panics on `Err`
    /// ([`crate::FleetRuntime::try_new`] surfaces the `Result` instead).
    ///
    /// # Errors
    ///
    /// [`FleetConfigError::MaxEpochLagBeyondLookahead`] when
    /// [`Parallelism::Async`]'s `max_epoch_lag` exceeds
    /// [`LOOKAHEAD_BOUND`].
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if let Parallelism::Async { max_epoch_lag, .. } = self.parallelism {
            if max_epoch_lag > LOOKAHEAD_BOUND {
                return Err(FleetConfigError::MaxEpochLagBeyondLookahead { max_epoch_lag });
            }
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
            decision_window: 60.0,
            rebalance_threshold: 0.3,
            rebalance_margin: 0.05,
            objective: GainObjective::default(),
            migration_aware: true,
            fused_scoring: true,
            parallelism: Parallelism::default(),
            probe_memo_capacity: PROBE_MEMO_BOUND,
            evacuate: true,
            retry_limit: 0,
            retry_backoff: 30.0,
            overload_guard: 0.0,
            indexed_placement: true,
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

    /// Index of the earliest pending retry (ties broken by request id).
    fn next_retry(&self) -> Option<usize> {
        self.pending_retries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.at.total_cmp(&b.1.at).then(a.1.request.cmp(&b.1.request)))
            .map(|(i, _)| i)
    }
}

/// The engine behind [`crate::FleetRuntime`]: owns the shards, the fused
/// scorer's probe memo, and the event loop that advances all shards
/// between global event barriers (see the module docs for the barrier
/// model and determinism argument).
pub struct FleetExecutor<'p, O: ThroughputOracle> {
    pub(crate) config: FleetConfig,
    /// Per-group oracle, indexed by `Shard::group`.
    pub(crate) group_oracles: Vec<&'p O>,
    /// Per-shard platform names, in shard order (the trace's fleet mix).
    pub(crate) platforms: Vec<String>,
    /// The fused scorer's cross-event memo: per-group oracle answers
    /// keyed by probe fingerprint, bounded by
    /// [`FleetConfig::probe_memo_capacity`]. A fingerprint fully
    /// determines the question (trial set, survivor placements, weights),
    /// so entries are pure and never stale.
    pub(crate) probe_memo: ProbeMemo,
    /// The incremental shard-state index behind
    /// [`FleetConfig::indexed_placement`] (unused when the flag is off).
    pub(crate) index: PlacementIndex,
    /// The observability collector behind [`FleetConfig::telemetry`] —
    /// strictly off the decision path (inert when disabled).
    pub(crate) telemetry: FleetTelemetry,
    /// Speculative probes of the epoch log's current lookahead window
    /// (empty under the barrier modes — see `crate::speculate`).
    pub(crate) spec: SpeculationCache,
    /// Last observed apply-time staleness per shard (epochs), fed to the
    /// telemetry sampler's `fleet_shard_epoch_lag` gauge — observability
    /// only, never read by a decision.
    pub(crate) epoch_lags: Vec<u64>,
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
    /// Builds the executor from a [`FleetSpec`] (see
    /// [`crate::FleetRuntime::new`] for the public entry point).
    ///
    /// # Panics
    ///
    /// Panics when [`FleetConfig::validate`] rejects the configuration
    /// (use [`crate::FleetRuntime::try_new`] for the `Result` surface).
    pub(crate) fn new(spec: &FleetSpec<'p, O>, config: FleetConfig) -> Self {
        if let Err(err) = config.validate() {
            panic!("invalid fleet config: {err}");
        }
        let mut shards = Vec::with_capacity(spec.shard_count());
        let mut group_oracles = Vec::with_capacity(spec.groups().len());
        let mut boards = Vec::with_capacity(spec.groups().len());
        for (g, group) in spec.groups().iter().enumerate() {
            group_oracles.push(group.oracle);
            let runtime = DynamicRuntime::new(group.platform, config.sample_dt)
                .with_gain_objective(config.objective)
                .with_migration_awareness(config.migration_aware);
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
            probe_memo: ProbeMemo::new(group_oracles.len(), config.probe_memo_capacity),
            group_oracles,
            platforms: spec.platform_names(),
            index: PlacementIndex::new(shards.len()),
            telemetry: FleetTelemetry::new(config.telemetry, shards.len(), config.sample_dt),
            spec: SpeculationCache::default(),
            epoch_lags: vec![0; shards.len()],
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
    /// rebalancer's and overload guard's shared health question. Indexed
    /// mode reads the health order's front in O(log S); scan mode runs
    /// the original parallel prediction fan-out. Both return the
    /// `min_by(total_cmp)` answer, first-minimal on ties.
    pub(crate) fn worst_loaded(&mut self) -> Option<(usize, f64)> {
        let timer = self.telemetry.stage(stage::REBALANCE_SCAN);
        let worst = if self.config.indexed_placement {
            let refile = self.telemetry.stage(stage::INDEX_REFILE);
            let refiled = self.index.refresh(&mut self.shards);
            self.telemetry.finish(refile);
            self.telemetry.count("fleet_index_refiled_total", refiled as u64);
            self.index.worst()
        } else {
            let means: Vec<Option<f64>> = self.for_each_shard(|_, shard| {
                if !shard.is_down() && shard.live_len() >= 2 {
                    shard.mean_potential()
                } else {
                    None
                }
            });
            means
                .into_iter()
                .enumerate()
                .filter_map(|(s, mean)| mean.map(|m| (s, m)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
        };
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

    /// The epoch log's speculation fan: scores every arrival of the
    /// freshly pulled lookahead window against the current shard
    /// snapshots in one parallel pass, stamping each probe with its
    /// shard's epoch and placement class key for apply-time validation
    /// (see `crate::speculate`). Under indexed placement only the
    /// current class representatives build probes — the same shards the
    /// apply-time fan would consult; a representative that changes class
    /// before its entry is consumed simply falls back to a fresh build.
    ///
    /// Speculation only touches pure, invalidation-tracked shard memos
    /// (trial workloads, current-state snapshots) — never an epoch — so
    /// it is decision-neutral by construction.
    fn speculate(&mut self, jobs: &[(RequestId, ModelId)]) {
        let max_per_shard = self.config.max_per_shard;
        let rep_mask: Option<Vec<bool>> = if self.config.indexed_placement {
            let refile = self.telemetry.stage(stage::INDEX_REFILE);
            let refiled = self.index.refresh(&mut self.shards);
            self.telemetry.finish(refile);
            self.telemetry.count("fleet_index_refiled_total", refiled as u64);
            Some(self.index.representative_mask(None))
        } else {
            None
        };
        let timer = self.telemetry.stage(stage::SPECULATE);
        // Shard-major fan: each worker stamps its shard's snapshot
        // identity once and builds one probe per buffered arrival.
        let per_shard: Vec<Vec<Option<SpecEntry>>> =
            for_each_shard(self.config.parallelism, &mut self.shards, |s, shard| {
                if rep_mask.as_ref().is_some_and(|mask| !mask[s]) {
                    return jobs.iter().map(|_| None).collect();
                }
                let epoch = shard.epoch();
                let class_key = shard.placement_class_key();
                jobs.iter()
                    .map(|&(_, model)| {
                        Some(SpecEntry {
                            probe: shard.build_probe(s, model, max_per_shard),
                            epoch,
                            class_key: class_key.clone(),
                        })
                    })
                    .collect()
            });
        self.telemetry.finish(timer);
        // Transpose to request-major and file into the cache.
        let mut per_job: Vec<Vec<Option<SpecEntry>>> =
            jobs.iter().map(|_| Vec::with_capacity(per_shard.len())).collect();
        for shard_entries in per_shard {
            for (j, entry) in shard_entries.into_iter().enumerate() {
                per_job[j].push(entry);
            }
        }
        for (&(request, _), entries) in jobs.iter().zip(per_job) {
            self.spec.insert(request, entries);
        }
        self.telemetry.count("fleet_spec_batches_total", 1);
        self.telemetry.count("fleet_spec_probes_total", jobs.len() as u64);
    }

    /// One admission attempt for `request` at time `t` — a fresh arrival
    /// (`attempt == 0`) or a scheduled retry. A rejection with retries
    /// remaining re-enqueues the request with doubled backoff; one whose
    /// retry would land at or past the horizon is finalized immediately
    /// (the retry budget is bounded *and* the run always terminates).
    #[allow(clippy::too_many_arguments)]
    fn admission_attempt(
        &mut self,
        t: f64,
        request: RequestId,
        model: ModelId,
        attempt: u32,
        horizon: f64,
        lanes: &mut LaneBatch,
        state: &mut RunState,
    ) {
        let window = self.config.decision_window;
        let started = Instant::now();
        // The epoch log may have scored this arrival ahead of the apply
        // cursor; the entries are consumed exactly once (retries re-probe
        // fresh) and validated per shard inside the scoring fan.
        let speculated = self.spec.take(&request);
        let decision = self.place(model, speculated);
        state.latencies.record(started.elapsed().as_secs_f64());
        match decision {
            Some((s, delta)) => {
                let instance = if lanes.enabled() {
                    // Admission is a lane fence, so the batch is drained:
                    // the winner's apply opens a fresh batch at position
                    // 0, no earlier commit can touch shard `s` first, and
                    // the instance id pinned here is exactly the one the
                    // commit will assign (debug-asserted in the walk).
                    debug_assert!(
                        lanes.is_empty(),
                        "admission pins identities against a drained lane batch"
                    );
                    let pinned = self.shards[s].next_instance_id();
                    lanes.push_admit(t, request, model, s);
                    pinned
                } else {
                    let timer = self.telemetry.stage(stage::APPLY);
                    let assigned =
                        self.shards[s].apply(t, &[DynamicEvent::arrive(t, model)], window);
                    self.telemetry.finish(timer);
                    assigned[0]
                };
                state
                    .requests
                    .insert(request, Disposition::Active { shard: s, instance });
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
                if lanes.enabled() {
                    // Nothing to retire on a lane: this position's
                    // deferred checks run now (the batch is drained —
                    // admission is a fence — so the checkpoint is inline).
                    self.lane_checkpoint(t, lanes, state);
                }
            }
        }
    }

    /// Handles one stream event at its timestamp `t`.
    ///
    /// With apply lanes on, this is where the commutativity analysis
    /// runs: single-shard events (a pinned admission, a departure, a
    /// derate) enqueue a lane op instead of applying eagerly — at most
    /// one pending op per shard, a second drains the batch first — while
    /// cross-shard events (admission fan-outs, `SetPriorities`,
    /// `ShardDown`/`ShardUp`) fence: drain, handle inline, resequence.
    /// Every log position either retires one lane op (whose commit runs
    /// the position's deferred checks) or runs its checks inline/via a
    /// checkpoint — never both, never neither.
    fn handle_event(
        &mut self,
        event: &FleetEvent,
        horizon: f64,
        lanes: &mut LaneBatch,
        state: &mut RunState,
    ) {
        let t = event.at();
        let window = self.config.decision_window;
        match event {
            FleetEvent::Arrive { request, model, .. } => {
                if lanes.enabled() {
                    // Admission is a fence: its probe fan must score the
                    // same committed shard state the sequential cursor
                    // would see, and its winner's identity pin needs an
                    // empty batch.
                    self.flush_lanes(lanes, state);
                }
                self.admission_attempt(t, *request, *model, 0, horizon, lanes, state);
            }
            FleetEvent::Depart { request, .. } => {
                if lanes.enabled() {
                    if let Some(Disposition::Active { shard, .. }) =
                        state.requests.get(request).copied()
                    {
                        // One pending apply per shard lane: a second op
                        // on a busy shard drains the batch first (the
                        // re-read below then sees the committed state).
                        if lanes.busy(shard) {
                            self.flush_lanes(lanes, state);
                        }
                    }
                    match state.requests.get(request).copied() {
                        Some(Disposition::Active { shard, instance }) => {
                            // Single-shard, commutative with other lanes:
                            // bookkeeping and the apply both retire at
                            // this position's commit, which re-reads the
                            // disposition in case an intervening check
                            // migrated or shed the instance.
                            lanes.push_depart(t, *request, shard, instance);
                        }
                        Some(Disposition::Retrying) => {
                            // No shard state changes (checks never read
                            // `Retrying` entries), so the cancellation is
                            // safe inline; the position's checks ride a
                            // checkpoint.
                            state.requests.insert(*request, Disposition::Rejected);
                            state.rejected += 1;
                            self.lane_checkpoint(t, lanes, state);
                        }
                        _ => self.lane_checkpoint(t, lanes, state),
                    }
                    return;
                }
                match state.requests.get(request).copied() {
                    Some(Disposition::Active { shard, instance }) => {
                        state.requests.remove(request);
                        state.departed += 1;
                        self.telemetry.count("fleet_departed_total", 1);
                        let timer = self.telemetry.stage(stage::DEPART_APPLY);
                        self.shards[shard].apply(
                            t,
                            &[DynamicEvent::depart(t, instance)],
                            window,
                        );
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
                if lanes.enabled() {
                    // A fleet-wide broadcast is the canonical lane fence.
                    self.flush_lanes(lanes, state);
                }
                // A priority rotation re-maps *every* shard — the
                // widest barrier of the event loop, fanned across the
                // worker pool. It also invalidates every speculative
                // probe: the priority mode is a `build_probe` input the
                // placement class key deliberately omits (it never
                // differs between shards), so apply-time validation
                // cannot see a mode change — the flush makes sure no
                // pre-rotation probe survives to be validated at all.
                let dropped = self.spec.flush();
                self.telemetry.count("fleet_spec_probes_wasted_total", dropped);
                let timer = self.telemetry.stage(stage::REMAP);
                let ev = [DynamicEvent::SetPriorities { at: t, mode: mode.clone() }];
                for_each_shard(self.config.parallelism, &mut self.shards, |_, shard| {
                    shard.apply(t, &ev, window);
                });
                self.telemetry.finish(timer);
                self.telemetry.record(t, "set_priorities", None, Vec::new());
                if lanes.enabled() {
                    // The batch is empty post-fence, so this runs the
                    // position's checks inline.
                    self.lane_checkpoint(t, lanes, state);
                }
            }
            FleetEvent::ShardDown { shard, .. } => {
                if lanes.enabled() {
                    // Evacuation re-places the victim's instances across
                    // the *whole* fleet — a cross-shard fence.
                    self.flush_lanes(lanes, state);
                }
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
                if lanes.enabled() {
                    self.lane_checkpoint(t, lanes, state);
                }
            }
            FleetEvent::ShardUp { shard, .. } => {
                if lanes.enabled() {
                    // Revival bumps the shard's epoch and re-opens it to
                    // placement — resequence so later admissions see it.
                    self.flush_lanes(lanes, state);
                }
                if self.shards[*shard].is_down() {
                    self.shards[*shard].revive(t, window);
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "shard_up",
                            None,
                            vec![("shard", shard.to_string())],
                        );
                    }
                }
                if lanes.enabled() {
                    self.lane_checkpoint(t, lanes, state);
                }
            }
            FleetEvent::ShardThrottle { shard, factor, .. } => {
                if lanes.enabled() {
                    // One pending apply per shard lane (see `Depart`).
                    if lanes.busy(*shard) {
                        self.flush_lanes(lanes, state);
                    }
                    let target = &self.shards[*shard];
                    if !target.is_down() && target.throttle() != *factor {
                        // A derate is single-shard: the speed change and
                        // its segment close commute with other lanes. The
                        // flight record and counter stay at the cursor —
                        // telemetry order is not part of the bit-identity
                        // contract, and recording here keeps the record
                        // aligned with the log position.
                        lanes.push_throttle(t, *shard, *factor);
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
                    } else {
                        self.lane_checkpoint(t, lanes, state);
                    }
                    return;
                }
                let target = &mut self.shards[*shard];
                // Throttles on a down shard are moot — repair restores
                // nominal speed — and re-asserting the current factor is
                // an idempotent no-op.
                if !target.is_down() && target.throttle() != *factor {
                    target.set_throttle(t, *factor, window);
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

    /// The per-position check barrier: rebalance, then the overload
    /// guard on the post-rebalance fleet, then the sampling hook (which
    /// only reads memoized pure shard state, so enabled-vs-disabled
    /// telemetry runs stay bit-identical). The serial cursor runs this
    /// after every event; the lane scheduler runs it after every
    /// position of a batch walk (see [`FleetExecutor::flush_lanes`]).
    pub(crate) fn after_event(&mut self, t: f64, state: &mut RunState) {
        if let Some((src, dst)) = self.maybe_rebalance(t, &mut state.requests) {
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
        self.telemetry.maybe_sample(
            t,
            &mut self.shards,
            &state.per_shard_admitted,
            &self.epoch_lags,
        );
    }

    /// Accounts for a log position that owns no shard work under the
    /// lane scheduler: against an empty batch its checks run inline
    /// (nothing to order after); otherwise a checkpoint op holds its
    /// place so the checks run at the right position of the batch walk.
    fn lane_checkpoint(&mut self, t: f64, lanes: &mut LaneBatch, state: &mut RunState) {
        if lanes.is_empty() {
            self.after_event(t, state);
        } else {
            lanes.push_checkpoint(t);
        }
    }

    /// Drains the lane batch at a fence: out-of-order *prepare*,
    /// in-order *commit* (see the `crate::lanes` module docs for the
    /// full protocol and determinism argument).
    ///
    /// Every pending op's apply work runs concurrently as a pure
    /// epoch-stamped preparation, one worker per occupied lane; then a
    /// serial walk retires the ops in log order, running each position's
    /// deferred checks right after it commits. A stale stamp at commit
    /// (an earlier position's check mutated the shard) discards the
    /// preparation and applies the event directly — correctness never
    /// depends on the speculation winning.
    fn flush_lanes(&mut self, lanes: &mut LaneBatch, state: &mut RunState) {
        if lanes.is_empty() {
            return;
        }
        let ops = lanes.take();
        let window = self.config.decision_window;
        let lane_ops = ops.iter().filter(|op| op.shard().is_some()).count();
        self.telemetry.count("fleet_lane_batches_total", 1);
        self.telemetry.count("fleet_lane_ops_total", lane_ops as u64);
        self.telemetry.gauge("fleet_lane_occupancy", lane_ops as f64);
        // Out-of-order prepare: one worker per occupied lane, each
        // running its op's apply as a pure computation on its own shard.
        let mut op_of_shard: Vec<Option<usize>> = vec![None; self.shards.len()];
        for (i, op) in ops.iter().enumerate() {
            if let Some(s) = op.shard() {
                debug_assert!(op_of_shard[s].is_none(), "one pending op per shard lane");
                op_of_shard[s] = Some(i);
            }
        }
        let timer = self.telemetry.stage(stage::APPLY_PREPARE);
        let mut pairs: Vec<(&mut Shard<'p, O>, usize)> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter_map(|(s, shard)| op_of_shard[s].map(|i| (shard, i)))
            .collect();
        let ops_ref = &ops;
        let prepare = move |_k: usize, pair: &mut (&mut Shard<'p, O>, usize)| {
            let (shard, i) = pair;
            let op = &ops_ref[*i];
            let prepared = match &op.kind {
                LaneKind::Admit { model, .. } => {
                    shard.prepare(op.t, &[DynamicEvent::arrive(op.t, *model)], window, None)
                }
                LaneKind::Depart { instance, .. } => {
                    shard.prepare(op.t, &[DynamicEvent::depart(op.t, *instance)], window, None)
                }
                LaneKind::Throttle { factor, .. } => shard.prepare(op.t, &[], window, Some(*factor)),
                LaneKind::Checkpoint => unreachable!("checkpoints own no shard lane"),
            };
            (*i, prepared)
        };
        let prepared_list: Vec<(usize, ShardPrepared)> =
            rayon::iter::par_map_slice_mut(&mut pairs, self.config.parallelism.width(), &prepare);
        drop(pairs);
        self.telemetry.finish(timer);
        let mut prepared_of: Vec<Option<ShardPrepared>> = ops.iter().map(|_| None).collect();
        for (i, p) in prepared_list {
            prepared_of[i] = Some(p);
        }
        // In-order commit: retire the ops in log order, running each
        // position's deferred checks right after it. A check that fires
        // bumps its victims' epochs, so any later preparation on those
        // shards fails its stamp check below and re-applies directly.
        let mut discards = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let t = op.t;
            match &op.kind {
                LaneKind::Checkpoint => {}
                LaneKind::Admit { request, model, shard } => {
                    let p = prepared_of[i].take().expect("every shard op prepared");
                    let timer = self.telemetry.stage(stage::APPLY_COMMIT);
                    let assigned = if p.epoch_stamp() == self.shards[*shard].epoch() {
                        self.shards[*shard].commit(p)
                    } else {
                        // Defensive only: admission fences, so its op is
                        // always position 0 — nothing can intervene.
                        discards += 1;
                        self.shards[*shard].discard(p);
                        self.shards[*shard].apply(t, &[DynamicEvent::arrive(t, *model)], window)
                    };
                    self.telemetry.finish(timer);
                    let id = assigned[0];
                    if let Some(Disposition::Active { instance, .. }) =
                        state.requests.get_mut(request)
                    {
                        debug_assert_eq!(
                            *instance, id,
                            "the instance identity pinned at admission must hold"
                        );
                        *instance = id;
                    }
                }
                LaneKind::Depart { request, shard, instance } => {
                    let p = prepared_of[i].take().expect("every shard op prepared");
                    match state.requests.get(request).copied() {
                        Some(Disposition::Active { shard: s2, instance: i2 }) => {
                            state.requests.remove(request);
                            state.departed += 1;
                            self.telemetry.count("fleet_departed_total", 1);
                            let timer = self.telemetry.stage(stage::APPLY_COMMIT);
                            if s2 == *shard
                                && i2 == *instance
                                && p.epoch_stamp() == self.shards[s2].epoch()
                            {
                                self.shards[s2].commit(p);
                            } else {
                                // An earlier position's check migrated
                                // the instance (new shard/identity) or
                                // touched the shard: the preparation is
                                // stale — depart the live placement.
                                discards += 1;
                                self.shards[*shard].discard(p);
                                self.shards[s2].apply(
                                    t,
                                    &[DynamicEvent::depart(t, i2)],
                                    window,
                                );
                            }
                            self.telemetry.finish(timer);
                        }
                        Some(Disposition::Retrying) => {
                            // Defensive (mirrors the cursor path): no
                            // check turns `Active` into `Retrying`.
                            state.requests.insert(*request, Disposition::Rejected);
                            state.rejected += 1;
                            discards += 1;
                            self.shards[*shard].discard(p);
                        }
                        // Shed in between: nothing serving to stop.
                        _ => {
                            discards += 1;
                            self.shards[*shard].discard(p);
                        }
                    }
                }
                LaneKind::Throttle { shard, factor } => {
                    let p = prepared_of[i].take().expect("every shard op prepared");
                    let timer = self.telemetry.stage(stage::APPLY_COMMIT);
                    if p.epoch_stamp() == self.shards[*shard].epoch() {
                        self.shards[*shard].commit(p);
                    } else {
                        discards += 1;
                        self.shards[*shard].discard(p);
                        self.shards[*shard].set_throttle(t, *factor, window);
                    }
                    self.telemetry.finish(timer);
                }
            }
            // The position's deferred checks, exactly where the serial
            // cursor would run them.
            self.after_event(t, state);
        }
        self.telemetry.count("fleet_lane_discards_total", discards);
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
        // The epoch log's lookahead window: barrier modes keep it at one
        // event (pull one, apply one — the classic loop); `Async` pulls
        // up to `max_epoch_lag + 1` events and speculatively scores the
        // batch's arrivals in one parallel fan before any of them apply.
        let window_len = self.config.parallelism.lookahead() as usize + 1;
        let mut buffer: VecDeque<FleetEvent> = VecDeque::with_capacity(window_len);
        let mut last_at = f64::NEG_INFINITY;
        let mut state = RunState::new(self.shards.len());
        let mut lanes = LaneBatch::new(self.config.parallelism.lanes(), self.shards.len());
        let mut offered = 0u64;
        // Stream events and scheduled retries merge into one ordered
        // walk; at equal timestamps the retry goes first (it was offered
        // strictly earlier). Every action is followed by the rebalance
        // and overload-guard barriers, exactly like a stream event.
        loop {
            if buffer.is_empty() {
                // The window refill is a lane fence: pending applies and
                // their deferred checks must retire before the next
                // speculation fan stamps shard epochs.
                self.flush_lanes(&mut lanes, &mut state);
                // Refill the window. Validation (sortedness, horizon
                // bounds, shard indices) happens as events are pulled,
                // with the same panic messages as before the epoch log.
                while buffer.len() < window_len {
                    let Some(event) = events.next() else { break };
                    assert!(event.at() >= last_at, "fleet events must be sorted by time");
                    assert!(
                        (0.0..horizon).contains(&event.at()),
                        "fleet events must lie within [0, horizon)"
                    );
                    if let FleetEvent::ShardDown { shard, .. }
                    | FleetEvent::ShardUp { shard, .. }
                    | FleetEvent::ShardThrottle { shard, .. } = &event
                    {
                        assert!(
                            *shard < self.shards.len(),
                            "fault events must name shards within the fleet"
                        );
                    }
                    last_at = event.at();
                    buffer.push_back(event);
                }
                if self.config.parallelism.is_async() && !buffer.is_empty() {
                    let jobs: Vec<(RequestId, ModelId)> = buffer
                        .iter()
                        .filter_map(|event| match event {
                            FleetEvent::Arrive { request, model, .. } => {
                                Some((*request, *model))
                            }
                            _ => None,
                        })
                        .collect();
                    if !jobs.is_empty() {
                        self.speculate(&jobs);
                    }
                }
            }
            let retry = state.next_retry();
            let take_retry = match (retry, buffer.front()) {
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
                // A retry is an admission — a lane fence like any other
                // arrival (its probe fan must see committed state).
                self.flush_lanes(&mut lanes, &mut state);
                self.admission_attempt(
                    entry.at,
                    entry.request,
                    entry.model,
                    entry.attempt,
                    horizon,
                    &mut lanes,
                    &mut state,
                );
            } else {
                let event = buffer.pop_front().expect("checked non-empty above");
                if matches!(event, FleetEvent::Arrive { .. }) {
                    offered += 1;
                }
                t = event.at();
                self.handle_event(&event, horizon, &mut lanes, &mut state);
            }
            // Departures free capacity and arrivals shift contention —
            // both are rebalance opportunities; overload sheds run after,
            // on the post-rebalance fleet, and the sampling hook runs
            // last. With apply lanes on, each log position's checks ride
            // the lane walk instead (see `flush_lanes`): they run right
            // after that position's op retires, in log order — never here.
            if !lanes.enabled() {
                self.after_event(t, &mut state);
            }
        }
        // Retire whatever the final window left pending before the
        // closing barrier freezes shard state.
        self.flush_lanes(&mut lanes, &mut state);
        // The closing barrier: every shard's last open segment is closed
        // (and its timeline samples emitted) concurrently, then collected
        // in shard order.
        let live_at_end = state
            .requests
            .values()
            .filter(|d| matches!(d, Disposition::Active { .. }))
            .count() as u64;
        let board_memo = self.board_memo_stats();
        let Self { config, platforms, mut shards, probe_memo, telemetry, .. } = self;
        for_each_shard(config.parallelism, &mut shards, |_, shard| {
            shard.session.finish(horizon);
        });
        // Snapshot before the shards are consumed into timelines: the
        // overlay pulls absolute totals from the probe memo and every
        // shard's plan cache, and folds in the wall-latency histograms
        // the run measured unconditionally.
        let telemetry_snapshot = telemetry.snapshot(
            &probe_memo,
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

    fn asynch(workers: usize, max_epoch_lag: u64, apply_lanes: bool) -> Parallelism {
        Parallelism::Async { workers, max_epoch_lag, apply_lanes }
    }

    #[test]
    fn parallelism_width_floors_at_one() {
        assert_eq!(Parallelism::Sequential.width(), 1);
        assert_eq!(Parallelism::Threads(0).width(), 1);
        assert_eq!(Parallelism::Threads(6).width(), 6);
        assert_eq!(asynch(0, 4, false).width(), 1);
        assert_eq!(asynch(3, 4, true).width(), 3);
    }

    #[test]
    fn lookahead_is_async_only_and_bounded() {
        assert_eq!(Parallelism::Sequential.lookahead(), 0);
        assert_eq!(Parallelism::Threads(8).lookahead(), 0);
        assert_eq!(asynch(2, 5, false).lookahead(), 5);
        // The ceiling itself is configurable (and the largest bound that
        // passes validation — see below); the window honors it exactly.
        let at_bound = asynch(2, LOOKAHEAD_BOUND, false);
        assert_eq!(at_bound.lookahead(), LOOKAHEAD_BOUND);
        assert_eq!(at_bound.max_epoch_lag(), LOOKAHEAD_BOUND);
    }

    #[test]
    fn lanes_require_async_opt_in() {
        assert!(!Parallelism::Sequential.lanes());
        assert!(!Parallelism::Threads(4).lanes());
        assert!(!asynch(4, 3, false).lanes());
        assert!(asynch(4, 3, true).lanes());
    }

    #[test]
    fn config_exposes_the_lag_bound() {
        assert_eq!(FleetConfig::default().max_epoch_lag(), 0);
        let config = FleetConfig {
            parallelism: asynch(4, 7, false),
            ..Default::default()
        };
        assert_eq!(config.max_epoch_lag(), 7);
    }

    #[test]
    fn validate_pins_the_lag_ceiling_and_its_message() {
        // The largest admissible bound passes…
        let ok = FleetConfig {
            parallelism: asynch(4, LOOKAHEAD_BOUND, true),
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        // …one past it is rejected with a named, actionable error: a lag
        // bound the bounded lookahead window can never realize would
        // silently behave like `LOOKAHEAD_BOUND`, so it fails loudly.
        let config = FleetConfig {
            parallelism: asynch(4, LOOKAHEAD_BOUND + 1, false),
            ..Default::default()
        };
        let err = config.validate().unwrap_err();
        assert_eq!(
            err,
            FleetConfigError::MaxEpochLagBeyondLookahead { max_epoch_lag: LOOKAHEAD_BOUND + 1 }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("257") && msg.contains("256"),
            "the error must name both the offending lag and the ceiling: {msg}"
        );
        // Barrier modes carry no lag bound; nothing to reject.
        assert!(FleetConfig::default().validate().is_ok());
    }
}
