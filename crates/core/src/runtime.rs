//! Dynamic-workload runtime: arrivals, departures, and priority changes
//! over time (Figs. 8 and 10), re-mapped *incrementally* at every event.
//!
//! This is the serving loop described in `docs/runtime.md`:
//!
//! * Running DNNs are tracked by stable [`InstanceId`]s assigned in
//!   arrival order, so departures name an instance instead of a fragile
//!   list index.
//! * At every event the mapper produces a candidate mapping through
//!   [`WorkloadMapper::remap_incremental`], which hands it the incumbent
//!   per-instance placements — RankMap warm-starts its search from them
//!   and answers recurring workload sets from the plan cache.
//! * The runtime then makes a migration-aware **remap decision**: adopting
//!   the candidate stalls every moved unit for its weight-transfer time
//!   plus the estimator's compiled-stem rebuild (see
//!   [`rankmap_sim::MigrationModel`]), so the incumbent mapping is kept
//!   whenever the candidate's predicted gain does not pay for the move
//!   within the time left until the next event. Both sides are scored by
//!   an estimator, never on the board: a device cannot measure a mapping
//!   it has not deployed. The mapper's own estimator answers
//!   ([`WorkloadMapper::predict`]; RankMap's throughput oracle), or the
//!   board's analytical estimate for mappers without one. Only the
//!   adopted mapping is simulated. The gain integrates each DNN's
//!   *potential* weighted by its priority (the paper's reward).
//! * [`SetPriorities`](DynamicEvent::SetPriorities) events are routed into
//!   the mapper via [`WorkloadMapper::set_priorities`], so Fig. 10 rank
//!   rotations take effect.
//!
//! Migration stalls are surfaced on the timeline: a remap that moves
//! weights emits a [`TimelinePoint`] at the event time with zero
//! throughput and `migration_stall > 0`, and steady-state samples resume
//! after the stall window.
//!
//! Everything above is also available **step-wise** through
//! [`RuntimeSession`]: a fleet manager that interleaves many device
//! shards on one global clock drives each shard's session with
//! [`RuntimeSession::advance_to`] / [`RuntimeSession::apply`] /
//! [`RuntimeSession::finish`] instead of handing the whole event stream
//! to [`DynamicRuntime::run`] (which is now a thin wrapper over a
//! session).

use crate::board::SharedBoard;
use crate::dataset::ideal_rates;
use crate::manager::RankMapManager;
use crate::oracle::ThroughputOracle;
use crate::priority::PriorityMode;
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use rankmap_sim::{EventEngine, Mapping, MigrationModel, Workload};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Stable identity of one running DNN instance, assigned at arrival.
///
/// The `k`-th [`DynamicEvent::Arrive`] of a scenario (in event order)
/// creates instance `InstanceId::new(k)`, `k` starting at 0. Scenario
/// generators rely on this contract to emit valid departures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(u64);

impl InstanceId {
    /// Creates an instance id (the `k`-th arrival of a scenario).
    pub fn new(ordinal: u64) -> Self {
        Self(ordinal)
    }

    /// The arrival ordinal.
    pub fn ordinal(self) -> u64 {
        self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A scheduled change to the running workload.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicEvent {
    /// A new DNN is submitted at `at` seconds. The runtime assigns it the
    /// next [`InstanceId`] in arrival order.
    Arrive {
        /// Arrival time (seconds).
        at: f64,
        /// The arriving model.
        model: ModelId,
    },
    /// The running DNN with the given stable id leaves. Unknown or
    /// already-departed ids are ignored.
    Depart {
        /// Departure time (seconds).
        at: f64,
        /// Stable id assigned at arrival.
        instance: InstanceId,
    },
    /// The user changes priorities (Fig. 10's rank rotation). Routed into
    /// the mapper via [`WorkloadMapper::set_priorities`].
    SetPriorities {
        /// Time of the change (seconds).
        at: f64,
        /// The new priority mode.
        mode: PriorityMode,
    },
}

impl DynamicEvent {
    /// The event's timestamp.
    pub fn at(&self) -> f64 {
        match self {
            DynamicEvent::Arrive { at, .. }
            | DynamicEvent::Depart { at, .. }
            | DynamicEvent::SetPriorities { at, .. } => *at,
        }
    }

    /// An arrival at `at` seconds.
    pub fn arrive(at: f64, model: ModelId) -> Self {
        DynamicEvent::Arrive { at, model }
    }

    /// A departure of a stable instance at `at` seconds.
    pub fn depart(at: f64, instance: InstanceId) -> Self {
        DynamicEvent::Depart { at, instance }
    }
}

/// Anything that can produce a mapping for a workload — RankMap variants
/// and every baseline implement this so the dynamic runtime and the figure
/// harness can treat them uniformly.
pub trait WorkloadMapper {
    /// Display name (column label in the figures).
    fn name(&self) -> String;

    /// Produces a mapping for the workload from scratch.
    fn remap(&mut self, workload: &Workload) -> Mapping;

    /// Produces a mapping given the incumbent placements: `incumbent[d]`
    /// is DNN `d`'s current unit assignment, or `None` for a fresh
    /// arrival. Incremental managers warm-start from it; the default
    /// ignores it and maps cold.
    fn remap_incremental(
        &mut self,
        workload: &Workload,
        _incumbent: &[Option<Vec<ComponentId>>],
    ) -> Mapping {
        self.remap(workload)
    }

    /// Applies a user priority change. Priority-insensitive managers (the
    /// baselines) ignore it.
    fn set_priorities(&mut self, _mode: &PriorityMode) {}

    /// The resolved priority vector this mapper currently optimizes for,
    /// or `None` for rank-insensitive mappers (the runtime falls back to
    /// uniform weights). The migration-aware remap decision weighs each
    /// DNN's potential by it.
    fn priorities(&self, _workload: &Workload) -> Option<Vec<f64>> {
        None
    }

    /// The mapper's own estimate of each DNN's throughput under
    /// `mapping`, or `None` for mappers without an estimator (the session
    /// then uses its board's analytical estimate). The migration-aware
    /// remap decision scores the incumbent and the candidate with it.
    fn predict(&self, _workload: &Workload, _mapping: &Mapping) -> Option<Vec<f64>> {
        None
    }
}

/// RankMap as a [`WorkloadMapper`] with a mutable priority mode.
pub struct RankMapMapper<'p, O: ThroughputOracle> {
    manager: RankMapManager<'p, O>,
    mode: PriorityMode,
    label: String,
}

impl<'p, O: ThroughputOracle> RankMapMapper<'p, O> {
    /// Wraps a manager with a priority mode.
    pub fn new(manager: RankMapManager<'p, O>, mode: PriorityMode, label: impl Into<String>) -> Self {
        Self { manager, mode, label: label.into() }
    }

    /// Replaces the priority mode (Fig. 10's user rank changes).
    pub fn set_mode(&mut self, mode: PriorityMode) {
        self.mode = mode;
    }

    /// The current priority mode.
    pub fn mode(&self) -> &PriorityMode {
        &self.mode
    }

    /// The wrapped manager (e.g. for plan-cache observability).
    pub fn manager(&self) -> &RankMapManager<'p, O> {
        &self.manager
    }

    /// Static priority vectors are pinned to a specific workload size;
    /// fall back to dynamic ranks while the size disagrees (e.g. during a
    /// Fig. 8 arrival ramp).
    fn effective_mode(&self, workload: &Workload) -> PriorityMode {
        match &self.mode {
            PriorityMode::Static(p) if p.len() != workload.len() => PriorityMode::Dynamic,
            m => m.clone(),
        }
    }
}

impl<O: ThroughputOracle> WorkloadMapper for RankMapMapper<'_, O> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn remap(&mut self, workload: &Workload) -> Mapping {
        let mode = self.effective_mode(workload);
        self.manager.map_cached(workload, &mode).mapping
    }

    fn remap_incremental(
        &mut self,
        workload: &Workload,
        incumbent: &[Option<Vec<ComponentId>>],
    ) -> Mapping {
        let mode = self.effective_mode(workload);
        if incumbent.iter().all(Option::is_none) {
            // Nothing to warm-start from — cold map, served by the plan
            // cache when this workload set has been seen before.
            self.manager.map_cached(workload, &mode).mapping
        } else if let Some(plan) = self.manager.cached_plan(workload, &mode) {
            // A recurring workload set (e.g. a transient DNN departed and
            // re-arrived): skip even the warm search. Whether adopting the
            // cached plan pays for its migrations is the runtime's call.
            plan.mapping
        } else {
            self.manager.remap_with_hints(workload, &mode, incumbent).mapping
        }
    }

    fn set_priorities(&mut self, mode: &PriorityMode) {
        self.mode = mode.clone();
    }

    fn priorities(&self, workload: &Workload) -> Option<Vec<f64>> {
        Some(self.effective_mode(workload).vector(workload))
    }

    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Option<Vec<f64>> {
        Some(self.manager.oracle().predict(workload, mapping))
    }
}

/// One timeline sample: the state of every running DNN at `time`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Sample time in seconds.
    pub time: f64,
    /// Models running at this time (arrival order).
    pub models: Vec<ModelId>,
    /// Stable ids of the running instances (parallel to `models`).
    pub instances: Vec<InstanceId>,
    /// Potential throughput of each running DNN.
    pub potentials: Vec<f64>,
    /// Raw throughput (inf/s) of each running DNN.
    pub throughputs: Vec<f64>,
    /// Seconds of migration stall charged at this point. Non-zero only on
    /// the dedicated stall point a remap emits at its event time (where
    /// `potentials`/`throughputs` are zero: the board is moving weights).
    pub migration_stall: f64,
    /// Seconds of timeline this point represents: the stall duration for
    /// stall points, up to one sample interval (clipped at the next event)
    /// for steady-state points. Time-weighted aggregates use this so a
    /// millisecond stall is not counted like a full sample window.
    pub span: f64,
    /// Whether this point begins a newly adopted mapping.
    pub remapped: bool,
}

/// Time-weighted average per-DNN potential over a timeline: each point's
/// mean potential contributes proportionally to the seconds it represents
/// ([`TimelinePoint::span`]), so a migration stall (zero potential) costs
/// exactly the time the weight transfer takes — no more, no less.
pub fn timeline_average_potential(timeline: &[TimelinePoint]) -> f64 {
    let mut weighted = 0.0;
    let mut total_span = 0.0;
    for p in timeline {
        if p.potentials.is_empty() {
            continue;
        }
        let mean = p.potentials.iter().sum::<f64>() / p.potentials.len() as f64;
        weighted += mean * p.span;
        total_span += p.span;
    }
    if total_span <= 0.0 {
        0.0
    } else {
        weighted / total_span
    }
}

/// The measured ideal rate of `model` from an ideals map, floored at
/// 1e-9 so potential divisions stay finite.
///
/// # Panics
///
/// Panics if the map has no entry for `model`: a partial ideals map
/// would otherwise silently inflate potentials by ~10⁹×. Callers of
/// [`DynamicRuntime::session_with_ideals`] must cover every model that
/// may arrive.
pub fn ideal_rate_of(ideals: &HashMap<ModelId, f64>, model: ModelId) -> f64 {
    ideals
        .get(&model)
        .copied()
        .unwrap_or_else(|| {
            panic!(
                "no ideal rate for {}; the ideals map must cover every model that may arrive",
                model.name()
            )
        })
        .max(1e-9)
}

/// Priority-weighted potential of a throughput report:
/// `Σ wᵢ · thrᵢ / idealᵢ` over the workload's DNNs (ideals looked up per
/// model via [`ideal_rate_of`]). One formula shared by the session's
/// remap-gain objective and the fleet placement scorer, so routing and
/// adoption can never drift apart.
pub fn weighted_potential(
    ideals: &HashMap<ModelId, f64>,
    workload: &Workload,
    per_dnn: &[f64],
    weights: &[f64],
) -> f64 {
    per_dnn
        .iter()
        .zip(workload.models())
        .zip(weights)
        .map(|((&thr, m), &w)| w * thr / ideal_rate_of(ideals, m.id()))
        .sum()
}

/// The mapper's resolved priority vector, or uniform weights for
/// rank-insensitive mappers (the baselines).
pub fn priorities_or_uniform(mapper: &dyn WorkloadMapper, workload: &Workload) -> Vec<f64> {
    mapper
        .priorities(workload)
        .unwrap_or_else(|| vec![1.0 / workload.len().max(1) as f64; workload.len()])
}

/// Executes a dynamic scenario against a mapper, measuring steady-state
/// behaviour between events on the board simulator.
pub struct DynamicRuntime<'p> {
    platform: &'p Platform,
    sample_dt: f64,
    migration_aware: bool,
    stem_rebuild: Option<f64>,
}

impl<'p> DynamicRuntime<'p> {
    /// Creates a migration-aware runtime sampling the timeline every
    /// `sample_dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `sample_dt <= 0`.
    pub fn new(platform: &'p Platform, sample_dt: f64) -> Self {
        assert!(sample_dt > 0.0, "sample_dt must be positive");
        Self {
            platform,
            sample_dt,
            migration_aware: true,
            stem_rebuild: None,
        }
    }

    /// Toggles the migration-aware remap decision. When off, every
    /// candidate mapping is adopted unconditionally (the pre-refactor
    /// behaviour) — but migration stalls are still *charged* on the
    /// timeline, because the board pays them either way.
    pub fn with_migration_awareness(mut self, on: bool) -> Self {
        self.migration_aware = on;
        self
    }

    /// Overrides the estimator warm-up charge of the migration model
    /// (seconds per schedulable unit of a re-placed DNN; `0.0` restores
    /// the weight-only stall — see [`MigrationModel::with_stem_rebuild`]).
    pub fn with_stem_rebuild(mut self, seconds_per_unit: f64) -> Self {
        self.stem_rebuild = Some(seconds_per_unit);
        self
    }

    /// Opens a step-wise session, measuring per-model ideal rates for the
    /// whole registry (memoize with
    /// [`DynamicRuntime::session_with_ideals`] when driving many sessions
    /// over the same platform).
    pub fn session(&self) -> RuntimeSession<'p> {
        let all_ids: Vec<ModelId> = ModelId::all();
        self.session_with_ideals(ideal_rates(self.platform, &all_ids))
    }

    /// Opens a step-wise session with precomputed ideal rates (one entry
    /// per model that may arrive), on a board of its own: its report memo
    /// is shared with no other session.
    pub fn session_with_ideals(&self, ideals: HashMap<ModelId, f64>) -> RuntimeSession<'p> {
        self.session_on(self.board(ideals))
    }

    /// The board this runtime's sessions simulate, with precomputed ideal
    /// rates and an empty report memo (see [`SharedBoard`]). A fleet of
    /// shards on identical boards builds one and opens every shard's
    /// session on it with [`DynamicRuntime::session_on`], so the rates are
    /// stored once and every shard reuses every other's simulations.
    pub fn board(&self, ideals: HashMap<ModelId, f64>) -> Arc<SharedBoard<'p>> {
        Arc::new(SharedBoard::new(EventEngine::quick(self.platform), ideals))
    }

    /// Opens a step-wise session on a shared board.
    ///
    /// # Panics
    ///
    /// Panics if the board simulates a different platform than this
    /// runtime's (its memoized reports would answer for the wrong board).
    pub fn session_on(&self, board: Arc<SharedBoard<'p>>) -> RuntimeSession<'p> {
        assert!(
            std::ptr::eq(board.platform(), self.platform),
            "a shared board serves only sessions on its own platform"
        );
        let mut migration = MigrationModel::new(self.platform);
        if let Some(per_unit) = self.stem_rebuild {
            migration = migration.with_stem_rebuild(per_unit);
        }
        RuntimeSession {
            board,
            migration,
            sample_dt: self.sample_dt,
            migration_aware: self.migration_aware,
            derate: 1.0,
            clock: 0.0,
            instances: Vec::new(),
            placements: HashMap::new(),
            next_ordinal: 0,
            segment: None,
            pending_stall: 0.0,
            timeline: Vec::new(),
        }
    }

    /// Runs `events` (sorted by time) until `horizon` seconds, re-mapping
    /// at every event and recording the per-DNN potential throughput.
    pub fn run(
        &self,
        events: &[DynamicEvent],
        mapper: &mut dyn WorkloadMapper,
        horizon: f64,
    ) -> Vec<TimelinePoint> {
        let mut session = self.session();
        let mut boundaries: Vec<f64> = events.iter().map(DynamicEvent::at).collect();
        boundaries.push(horizon);
        let mut idx = 0usize;
        let mut t = 0.0;
        while t < horizon {
            let start = idx;
            while idx < events.len() && events[idx].at() <= t + 1e-9 {
                idx += 1;
            }
            let next_boundary = boundaries
                .iter()
                .copied()
                .filter(|&b| b > t + 1e-9)
                .fold(horizon, f64::min);
            session.advance_to(t);
            session.apply(&events[start..idx], next_boundary - t, mapper);
            t = next_boundary;
        }
        session.finish(horizon);
        session.into_timeline()
    }
}

/// The running segment between two remap points: adopted mapping state
/// whose timeline samples are emitted once the segment's end is known.
#[derive(Debug, Clone)]
struct Segment {
    start: f64,
    stall: f64,
    remapped: bool,
    models: Vec<ModelId>,
    instances: Vec<InstanceId>,
    potentials: Vec<f64>,
    throughputs: Vec<f64>,
}

/// Step-wise serving state over one device (shard): the mutable half of
/// [`DynamicRuntime::run`], factored out so a fleet can interleave many
/// shards on one global clock.
///
/// A session is owned state plus an `Arc` of its [`SharedBoard`] (which
/// is `Send + Sync`), and therefore `Send` (asserted in tests): the
/// shard-parallel fleet executor moves `&mut` sessions onto worker threads
/// between event barriers.
///
/// Protocol: [`RuntimeSession::advance_to`] moves the clock forward,
/// [`RuntimeSession::apply`] applies a batch of same-time events at the
/// current clock and re-maps, [`RuntimeSession::finish`] closes the last
/// segment at the horizon. Timeline samples for a segment are emitted
/// when the segment *ends* (the next `apply`/`finish` names its end
/// time), so the output of `run` is reproduced exactly.
pub struct RuntimeSession<'p> {
    /// The simulated board, its ideal rates and report memo — shared with
    /// every session opened on the same [`SharedBoard`].
    board: Arc<SharedBoard<'p>>,
    migration: MigrationModel<'p>,
    sample_dt: f64,
    migration_aware: bool,
    /// Thermal-derate factor in `(0, 1]`: the fraction of the board's
    /// nominal speed currently served. `Platform::scaled` keeps potential
    /// (throughput / ideal) invariant, so a uniformly throttled board's
    /// mapping decisions are bit-identical to the nominal board's — the
    /// throttle surfaces purely as this factor on served throughput and
    /// recorded potential (see [`RuntimeSession::set_derate`]).
    derate: f64,
    clock: f64,
    instances: Vec<(InstanceId, ModelId)>,
    placements: HashMap<InstanceId, Vec<ComponentId>>,
    next_ordinal: u64,
    segment: Option<Segment>,
    /// Stall seconds charged but not yet served because the charging
    /// segment ended first (e.g. two events at the same timestamp);
    /// carried into the next segment so stalls are conserved.
    pending_stall: f64,
    timeline: Vec<TimelinePoint>,
}

impl<'p> RuntimeSession<'p> {
    /// The board this session simulates (shared with every session
    /// opened on it).
    pub fn board(&self) -> &Arc<SharedBoard<'p>> {
        &self.board
    }

    /// The session clock (seconds; last `advance_to`/`finish` target).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Currently running instances, in arrival order.
    pub fn live(&self) -> &[(InstanceId, ModelId)] {
        &self.instances
    }

    /// The adopted placement of a running instance, if any.
    pub fn placement(&self, id: InstanceId) -> Option<&[ComponentId]> {
        self.placements.get(&id).map(Vec::as_slice)
    }

    /// The measured ideal rate of a model (isolated on the fastest
    /// component), as used for potential normalization.
    ///
    /// # Panics
    ///
    /// Panics if the session's ideals map does not cover `model` (see
    /// [`ideal_rate_of`]) — a 0.0 fallback would silently turn the next
    /// potential division into infinity.
    pub fn ideal_rate(&self, model: ModelId) -> f64 {
        ideal_rate_of(self.board.ideals(), model)
    }

    /// Timeline points emitted so far (closed segments only).
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// The current thermal-derate factor (`1.0` = nominal speed).
    pub fn derate(&self) -> f64 {
        self.derate
    }

    /// Sets the thermal-derate factor: the fraction of nominal board
    /// speed served from here on (`1.0` restores full speed). Under
    /// `Platform::scaled`'s invariance — a uniformly scaled board's
    /// throughputs and ideal rates scale together, so potential and every
    /// mapping decision are unchanged — a throttle is exactly a factor on
    /// *served* throughput, which is how the next segment records it. The
    /// caller re-applies (an empty event batch) at the throttle time so a
    /// new segment opens under the new factor; the open segment is not
    /// rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn set_derate(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "derate factor must be in (0, 1]"
        );
        self.derate = factor;
    }

    /// Consumes the session, returning the timeline. Call
    /// [`RuntimeSession::finish`] first — an open segment's samples are
    /// only emitted once its end is known.
    pub fn into_timeline(self) -> Vec<TimelinePoint> {
        self.timeline
    }

    /// Moves the clock to `t` without applying events. The open segment
    /// keeps running; its samples are emitted when it closes.
    ///
    /// # Panics
    ///
    /// Panics if `t` is behind the clock.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.clock - 1e-9, "session clock cannot move backwards");
        self.clock = self.clock.max(t);
    }

    /// Applies a batch of events at the current clock, asks the mapper for
    /// a candidate mapping, makes the migration-aware remap decision with
    /// `window_hint` seconds of expected residency (callers that know the
    /// exact time to the next event — like [`DynamicRuntime::run`] — pass
    /// it; a fleet passes its expected inter-event gap), and opens a new
    /// segment. Returns the [`InstanceId`]s assigned to the batch's
    /// arrivals, in order.
    pub fn apply(
        &mut self,
        events: &[DynamicEvent],
        window_hint: f64,
        mapper: &mut dyn WorkloadMapper,
    ) -> Vec<InstanceId> {
        self.close_segment();
        let mut assigned = Vec::new();
        for event in events {
            match event {
                DynamicEvent::Arrive { model, .. } => {
                    let id = InstanceId::new(self.next_ordinal);
                    self.next_ordinal += 1;
                    self.instances.push((id, *model));
                    assigned.push(id);
                }
                DynamicEvent::Depart { instance, .. } => {
                    if let Some(pos) =
                        self.instances.iter().position(|(id, _)| id == instance)
                    {
                        self.instances.remove(pos);
                        self.placements.remove(instance);
                    }
                }
                DynamicEvent::SetPriorities { mode, .. } => mapper.set_priorities(mode),
            }
        }
        if self.instances.is_empty() {
            // An idle board has nothing to stall.
            self.pending_stall = 0.0;
            return assigned;
        }
        let workload = Workload::from_ids(self.instances.iter().map(|(_, m)| *m));
        let incumbent: Vec<Option<Vec<ComponentId>>> = self
            .instances
            .iter()
            .map(|(id, _)| self.placements.get(id).cloned())
            .collect();
        let candidate = mapper.remap_incremental(&workload, &incumbent);
        let (mapping, mut stall) =
            self.decide(&workload, &incumbent, candidate, window_hint, mapper);
        // A carried stall originates from a remap/migration in the
        // previous (too-short) segment — its stall point must still be
        // marked as one.
        let carried = std::mem::take(&mut self.pending_stall);
        stall += carried;
        let remapped = carried > 0.0
            || incumbent
                .iter()
                .enumerate()
                .any(|(d, inc)| inc.as_deref() != Some(mapping.assignment(d)));
        for (d, (id, _)) in self.instances.iter().enumerate() {
            self.placements.insert(*id, mapping.assignment(d).to_vec());
        }
        // The board runs only the adopted mapping, through its memo.
        let report = self.board.evaluate(&workload, &mapping);
        // A throttled board serves `derate ×` the nominal rates; at 1.0
        // the multiplication is exact and the timeline is bit-identical
        // to the pre-derate code path.
        let potentials: Vec<f64> = report
            .per_dnn
            .iter()
            .zip(&self.instances)
            .map(|(&thr, (_, m))| self.derate * thr / ideal_rate_of(self.board.ideals(), *m))
            .collect();
        let throughputs: Vec<f64> =
            report.per_dnn.iter().map(|&thr| self.derate * thr).collect();
        self.segment = Some(Segment {
            start: self.clock,
            stall,
            remapped,
            models: self.instances.iter().map(|(_, m)| *m).collect(),
            instances: self.instances.iter().map(|(id, _)| *id).collect(),
            potentials,
            throughputs,
        });
        assigned
    }

    /// Adds an externally-incurred stall (seconds) to the segment opened
    /// by the last [`RuntimeSession::apply`] — e.g. a fleet charging the
    /// weight transfer of a cross-shard migration onto the receiving
    /// board. No-op while no workload is running. Stall the segment
    /// cannot serve before it ends (e.g. another event lands at the same
    /// timestamp) carries into the next segment — charged stalls are
    /// conserved while the board stays busy.
    pub fn charge_stall(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "a stall cannot be negative");
        if let Some(seg) = &mut self.segment {
            seg.stall += seconds;
            seg.remapped = true;
        }
    }

    /// Closes the session at `horizon`: emits the open segment's samples
    /// up to it.
    pub fn finish(&mut self, horizon: f64) {
        self.advance_to(horizon);
        self.close_segment();
    }

    /// Emits the open segment's timeline points, now that the clock marks
    /// its end.
    fn close_segment(&mut self) {
        let Some(seg) = self.segment.take() else { return };
        let end = self.clock;
        // The stall this segment actually served; the remainder carries
        // into the next segment so a charge is never silently dropped
        // (and the emitted `migration_stall` is time that truly elapsed).
        let served = seg.stall.min((end - seg.start).max(0.0));
        self.pending_stall += seg.stall - served;
        let mut first = true;
        // A remap that moves weights stalls the pipelines: emit the stall
        // point, then resume steady-state samples after it.
        if served > 0.0 {
            self.timeline.push(TimelinePoint {
                time: seg.start,
                models: seg.models.clone(),
                instances: seg.instances.clone(),
                potentials: vec![0.0; seg.models.len()],
                throughputs: vec![0.0; seg.models.len()],
                migration_stall: served,
                span: served,
                remapped: seg.remapped,
            });
            first = false;
        }
        // Steady state held until the segment's end: emit sampled points.
        let mut s = seg.start + served;
        while s < end - 1e-9 {
            self.timeline.push(TimelinePoint {
                time: s,
                models: seg.models.clone(),
                instances: seg.instances.clone(),
                potentials: seg.potentials.clone(),
                throughputs: seg.throughputs.clone(),
                migration_stall: 0.0,
                span: (end - s).min(self.sample_dt),
                remapped: seg.remapped && first,
            });
            first = false;
            s += self.sample_dt;
        }
    }

    /// The migration-aware remap decision: keep the incumbent mapping when
    /// the candidate's predicted gain does not pay for the stall its
    /// weight moves and stem rebuilds cost within the expected residency
    /// window. Both sides are scored by the mapper's estimator, or the
    /// board's analytical estimate when it has none; nothing is simulated
    /// here. Returns the adopted mapping and the stall (seconds) it
    /// charges.
    fn decide(
        &self,
        workload: &Workload,
        incumbent: &[Option<Vec<ComponentId>>],
        candidate: Mapping,
        window: f64,
        mapper: &dyn WorkloadMapper,
    ) -> (Mapping, f64) {
        let cost = self.migration.cost(workload, incumbent, &candidate);
        if cost.is_free() {
            return (candidate, 0.0);
        }
        if !self.migration_aware {
            // Oblivious mode: adopt unconditionally, still pay the stall.
            return (candidate, cost.stall_seconds);
        }
        let full_incumbent: Option<Vec<Vec<ComponentId>>> =
            incumbent.iter().cloned().collect::<Option<Vec<_>>>();
        let Some(per_dnn) = full_incumbent else {
            // A fresh arrival forces a remap; survivors' moves still stall.
            return (candidate, cost.stall_seconds);
        };
        let incumbent_mapping = Mapping::new(per_dnn);
        // The integration clips the stall to the window (a longer stall
        // cannot silence more than the window); the *charge* returned is
        // the full cost — the session carries any remainder forward.
        let blocked = cost.stall_seconds.min(window);
        let weights = priorities_or_uniform(mapper, workload);
        // Integrated gain over the window: switching trades `blocked`
        // seconds of silence for the candidate's (hopefully higher)
        // priority-weighted potential.
        let score = |mapping: &Mapping| {
            let per_dnn = mapper
                .predict(workload, mapping)
                .unwrap_or_else(|| self.board.estimate(workload, mapping));
            weighted_potential(self.board.ideals(), workload, &per_dnn, &weights)
        };
        let inc_score = score(&incumbent_mapping);
        let cand_score = score(&candidate);
        if cand_score * (window - blocked) > inc_score * window {
            (candidate, cost.stall_seconds)
        } else {
            (incumbent_mapping, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ManagerConfig;
    use crate::oracle::AnalyticalOracle;
    use rankmap_sim::AnalyticalEngine;

    struct GpuOnly;

    impl WorkloadMapper for GpuOnly {
        fn name(&self) -> String {
            "all-gpu".into()
        }
        fn remap(&mut self, workload: &Workload) -> Mapping {
            Mapping::uniform(workload, rankmap_platform::ComponentId::new(0))
        }
    }

    fn arrivals() -> Vec<DynamicEvent> {
        vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::arrive(100.0, ModelId::SqueezeNetV2),
            DynamicEvent::arrive(200.0, ModelId::ResNet50),
        ]
    }

    #[test]
    fn serving_state_is_send() {
        // The fleet executor's contract: sessions, mappers, and events can
        // move to worker threads. This fails to compile if interior
        // non-Send state (Rc, RefCell over !Send contents, raw pointers)
        // creeps into the serving path.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<RuntimeSession<'static>>();
        assert_send::<RankMapMapper<'static, AnalyticalOracle<'static>>>();
        assert_send::<DynamicEvent>();
        assert_sync::<DynamicEvent>();
    }

    #[test]
    fn timeline_grows_with_arrivals() {
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let mut mapper = GpuOnly;
        let tl = rt.run(&arrivals(), &mut mapper, 300.0);
        assert!(!tl.is_empty());
        assert_eq!(tl.first().unwrap().models.len(), 1);
        assert_eq!(tl.last().unwrap().models.len(), 3);
        // Times strictly increase.
        for w in tl.windows(2) {
            assert!(w[1].time > w[0].time);
        }
    }

    #[test]
    fn first_dnn_alone_runs_near_ideal() {
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 100.0);
        let mut mapper = GpuOnly;
        let tl = rt.run(&arrivals(), &mut mapper, 100.0);
        let first = &tl[0];
        assert!(
            first.potentials[0] > 0.9,
            "a lone DNN on the GPU should run near ideal: {}",
            first.potentials[0]
        );
    }

    #[test]
    fn departures_by_stable_id_shrink_workload() {
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let mut events = arrivals();
        // AlexNet was the first arrival: instance #0, wherever it sits.
        events.push(DynamicEvent::depart(250.0, InstanceId::new(0)));
        let mut mapper = GpuOnly;
        let tl = rt.run(&events, &mut mapper, 300.0);
        let last = tl.last().unwrap();
        assert_eq!(last.models.len(), 2);
        assert_eq!(last.models[0], ModelId::SqueezeNetV2);
        assert_eq!(last.instances, vec![InstanceId::new(1), InstanceId::new(2)]);
    }

    #[test]
    fn unknown_instance_departure_is_ignored() {
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let mut events = arrivals();
        events.push(DynamicEvent::depart(250.0, InstanceId::new(99)));
        let mut mapper = GpuOnly;
        let tl = rt.run(&events, &mut mapper, 300.0);
        assert_eq!(tl.last().unwrap().models.len(), 3);
    }

    #[test]
    fn set_priorities_reaches_the_mapper() {
        // The Fig.-10 regression: SetPriorities events must update the
        // mapper's mode, not vanish into a no-op match arm.
        struct Probe {
            modes: Vec<PriorityMode>,
        }
        impl WorkloadMapper for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn remap(&mut self, workload: &Workload) -> Mapping {
                Mapping::uniform(workload, rankmap_platform::ComponentId::new(0))
            }
            fn set_priorities(&mut self, mode: &PriorityMode) {
                self.modes.push(mode.clone());
            }
        }
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::arrive(0.0, ModelId::SqueezeNetV2),
            DynamicEvent::SetPriorities { at: 100.0, mode: PriorityMode::critical(2, 1) },
            DynamicEvent::SetPriorities { at: 200.0, mode: PriorityMode::Dynamic },
        ];
        let mut probe = Probe { modes: Vec::new() };
        let _ = rt.run(&events, &mut probe, 300.0);
        assert_eq!(
            probe.modes,
            vec![PriorityMode::critical(2, 1), PriorityMode::Dynamic],
            "every SetPriorities event must reach the mapper, in order"
        );
    }

    #[test]
    fn rankmap_mapper_applies_priority_changes() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let mgr = RankMapManager::new(
            &p,
            &oracle,
            ManagerConfig { mcts_iterations: 100, warm_iterations: 40, ..Default::default() },
        );
        let mut mapper = RankMapMapper::new(mgr, PriorityMode::Dynamic, "RankMapS");
        let rt = DynamicRuntime::new(&p, 100.0);
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::arrive(0.0, ModelId::SqueezeNetV2),
            DynamicEvent::SetPriorities { at: 150.0, mode: PriorityMode::critical(2, 0) },
        ];
        let _ = rt.run(&events, &mut mapper, 300.0);
        assert_eq!(
            mapper.mode(),
            &PriorityMode::critical(2, 0),
            "the rank rotation must land in the RankMap mapper"
        );
    }

    #[test]
    fn stall_points_mark_migrations() {
        // A mapper that moves everything between two components at every
        // call forces migrations; the oblivious runtime must charge them.
        struct Flipper(usize);
        impl WorkloadMapper for Flipper {
            fn name(&self) -> String {
                "flipper".into()
            }
            fn remap(&mut self, workload: &Workload) -> Mapping {
                self.0 += 1;
                Mapping::uniform(workload, rankmap_platform::ComponentId::new(self.0 % 2))
            }
        }
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0).with_migration_awareness(false);
        let mut mapper = Flipper(0);
        let tl = rt.run(&arrivals(), &mut mapper, 300.0);
        let stalls: Vec<&TimelinePoint> =
            tl.iter().filter(|pt| pt.migration_stall > 0.0).collect();
        assert!(!stalls.is_empty(), "forced moves must surface as stall points");
        for s in &stalls {
            assert!(s.potentials.iter().all(|&x| x == 0.0), "stall points are silent");
            assert!(s.remapped);
        }
    }

    #[test]
    fn migration_awareness_rejects_unpaying_flips() {
        // The same flipper under the aware runtime: after the first
        // placement, flipping every component is all cost and no gain, so
        // the incumbent must be kept (no stall points after warm-up).
        struct Flipper(usize);
        impl WorkloadMapper for Flipper {
            fn name(&self) -> String {
                "flipper".into()
            }
            fn remap(&mut self, workload: &Workload) -> Mapping {
                self.0 += 1;
                Mapping::uniform(workload, rankmap_platform::ComponentId::new(self.0 % 2))
            }
        }
        let p = Platform::dual_cpu();
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::SetPriorities { at: 100.0, mode: PriorityMode::Dynamic },
            DynamicEvent::SetPriorities { at: 200.0, mode: PriorityMode::Dynamic },
        ];
        let aware = DynamicRuntime::new(&p, 50.0);
        let mut mapper = Flipper(0);
        let tl = aware.run(&events, &mut mapper, 300.0);
        // dual_cpu is symmetric: the flip can never pay for itself.
        assert!(
            tl.iter().skip(1).all(|pt| pt.migration_stall == 0.0),
            "aware runtime must keep the incumbent on symmetric components"
        );
    }

    /// A mapper that proposes scripted mappings in turn (the last one
    /// repeats) and predicts throughput from a table that need not agree
    /// with the board.
    struct Forecaster {
        plan: Vec<Mapping>,
        calls: usize,
        forecast: Vec<(Mapping, Vec<f64>)>,
    }

    impl WorkloadMapper for Forecaster {
        fn name(&self) -> String {
            "forecaster".into()
        }
        fn remap(&mut self, _workload: &Workload) -> Mapping {
            let m = self.plan[self.calls.min(self.plan.len() - 1)].clone();
            self.calls += 1;
            m
        }
        fn predict(&self, _workload: &Workload, mapping: &Mapping) -> Option<Vec<f64>> {
            self.forecast.iter().find(|(m, _)| m == mapping).map(|(_, thr)| thr.clone())
        }
    }

    #[test]
    fn an_estimator_that_disagrees_with_the_board_still_rejects_unpaying_flips() {
        // The flipper of `migration_awareness_rejects_unpaying_flips`, now
        // with an estimator that is far off the board (100× its rates) but
        // symmetric: a flip is still all cost and no predicted gain.
        let p = Platform::dual_cpu();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let on = |c: usize| Mapping::uniform(&w, ComponentId::new(c));
        let board = EventEngine::quick(&p).evaluate(&w, &on(0)).per_dnn[0];
        let mut mapper = Forecaster {
            plan: (0..8).map(|k| on(k % 2)).collect(),
            calls: 0,
            forecast: vec![(on(0), vec![100.0 * board]), (on(1), vec![100.0 * board])],
        };
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::SetPriorities { at: 100.0, mode: PriorityMode::Dynamic },
            DynamicEvent::SetPriorities { at: 200.0, mode: PriorityMode::Dynamic },
        ];
        let tl = DynamicRuntime::new(&p, 50.0).run(&events, &mut mapper, 300.0);
        assert!(mapper.calls >= 3, "every event asked the mapper");
        assert!(
            tl.iter().skip(1).all(|pt| pt.migration_stall == 0.0),
            "a flip the estimator scores even must not be adopted"
        );
    }

    #[test]
    fn the_decision_follows_the_estimator_both_ways() {
        // AlexNet alone on the Orange Pi: the board runs it faster on the
        // GPU than on the little cluster. An estimator that claims the
        // opposite must win the decision both ways: adopt the move to the
        // little cluster, and refuse the move to the GPU.
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let (gpu, little) = (
            Mapping::uniform(&w, ComponentId::new(0)),
            Mapping::uniform(&w, ComponentId::new(2)),
        );
        let engine = EventEngine::quick(&p);
        assert!(
            engine.evaluate(&w, &gpu).average() > engine.evaluate(&w, &little).average(),
            "the board must favour the GPU for this check to mean anything"
        );
        let inverted = vec![(gpu.clone(), vec![1.0]), (little.clone(), vec![1_000.0])];
        let t1 = 1.0;
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::SetPriorities { at: t1, mode: PriorityMode::Dynamic },
        ];
        let moved_at_t1 = |from: &Mapping, to: &Mapping, forecast: Vec<(Mapping, Vec<f64>)>| {
            let mut mapper =
                Forecaster { plan: vec![from.clone(), to.clone()], calls: 0, forecast };
            let tl = DynamicRuntime::new(&p, 1_000.0).run(&events, &mut mapper, 1_000.0);
            tl.iter().any(|pt| pt.migration_stall > 0.0 && (pt.time - t1).abs() < 1e-9)
        };
        assert!(moved_at_t1(&gpu, &little, inverted.clone()), "adopts what the estimator favours");
        assert!(!moved_at_t1(&little, &gpu, inverted), "keeps what the estimator favours");
        // Without a forecast the board's analytical estimate decides, and
        // it agrees with the board: the same two scripts go the other way.
        assert!(!moved_at_t1(&gpu, &little, Vec::new()));
        assert!(moved_at_t1(&little, &gpu, Vec::new()));
    }

    #[test]
    fn a_departure_costs_at_most_one_board_simulation() {
        // Three DNNs on the GPU; when one departs, the mapper proposes
        // moving the survivors to the big cluster, so the paid migration
        // decision runs. It is scored by estimators: only the adopted
        // mapping may reach the board (one memo miss), whichever way the
        // decision goes.
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let ideals = ideal_rates(&p, &[ModelId::AlexNet, ModelId::ResNet50, ModelId::MobileNet]);
        let arrive = [
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::arrive(0.0, ModelId::ResNet50),
            DynamicEvent::arrive(0.0, ModelId::MobileNet),
        ];
        let all = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50, ModelId::MobileNet]);
        let survivors = Workload::from_ids([ModelId::ResNet50, ModelId::MobileNet]);
        let (kept, moved) = (
            Mapping::uniform(&survivors, ComponentId::new(0)),
            Mapping::uniform(&survivors, ComponentId::new(1)),
        );
        let favour_move = vec![(kept, vec![1.0, 1.0]), (moved.clone(), vec![1e3, 1e3])];
        let mut adopted = Vec::new();
        for (forecast, window) in
            [(favour_move.clone(), 1_000.0), (Vec::new(), 1_000.0), (favour_move, 1e-3)]
        {
            let mut session = rt.session_with_ideals(ideals.clone());
            let mut mapper = Forecaster {
                plan: vec![Mapping::uniform(&all, ComponentId::new(0)), moved.clone()],
                calls: 0,
                forecast,
            };
            session.apply(&arrive, 10.0, &mut mapper);
            let before = session.board().memo_stats();
            session.advance_to(10.0);
            session.apply(&[DynamicEvent::depart(10.0, InstanceId::new(0))], window, &mut mapper);
            let after = session.board().memo_stats();
            assert_eq!(after.misses - before.misses, 1, "window {window}");
            assert_eq!(after.hits, before.hits);
            adopted.push(session.placement(InstanceId::new(1)) == Some(moved.assignment(0)));
        }
        assert_eq!(adopted, [true, false, false], "the decision went both ways");
        // The same through RankMap, whose oracle scores the decision.
        let oracle = AnalyticalOracle::new(&p);
        let mgr = RankMapManager::new(
            &p,
            &oracle,
            ManagerConfig { mcts_iterations: 100, warm_iterations: 40, ..Default::default() },
        );
        let mut mapper = RankMapMapper::new(mgr, PriorityMode::Dynamic, "RankMapD");
        let mut session = rt.session_with_ideals(ideals);
        session.apply(&arrive, 10.0, &mut mapper);
        let before = session.board().memo_stats();
        session.advance_to(10.0);
        session.apply(&[DynamicEvent::depart(10.0, InstanceId::new(1))], 100.0, &mut mapper);
        assert!(session.board().memo_stats().misses - before.misses <= 1);
    }

    #[test]
    fn stepwise_session_reproduces_run_exactly() {
        // The fleet contract: driving a session boundary-by-boundary must
        // produce the identical timeline `run` produces.
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let mut events = arrivals();
        events.push(DynamicEvent::depart(250.0, InstanceId::new(0)));
        let horizon = 300.0;
        let mut mapper_a = GpuOnly;
        let reference = rt.run(&events, &mut mapper_a, horizon);

        let mut mapper_b = GpuOnly;
        let mut session = rt.session();
        let mut idx = 0;
        let times: Vec<f64> = events.iter().map(DynamicEvent::at).collect();
        while idx < events.len() {
            let t = times[idx];
            let end = idx + events[idx..].iter().take_while(|e| e.at() <= t + 1e-9).count();
            let next = times.get(end).copied().unwrap_or(horizon);
            session.advance_to(t);
            session.apply(&events[idx..end], next - t, &mut mapper_b);
            idx = end;
        }
        session.finish(horizon);
        assert_eq!(session.into_timeline(), reference);
    }

    #[test]
    fn sessions_share_a_board_only_when_opened_on_it() {
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let ideals = ideal_rates(&p, &[ModelId::AlexNet, ModelId::ResNet50]);
        let own_a = rt.session_with_ideals(ideals.clone());
        let own_b = rt.session_with_ideals(ideals.clone());
        assert!(!Arc::ptr_eq(own_a.board(), own_b.board()), "standalone sessions memoize alone");

        let board = rt.board(ideals);
        let mut a = rt.session_on(Arc::clone(&board));
        let mut b = rt.session_on(Arc::clone(&board));
        let events = [
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::arrive(0.0, ModelId::ResNet50),
        ];
        a.apply(&events, 10.0, &mut GpuOnly);
        let after_a = board.memo_stats();
        assert_eq!(after_a, rankmap_telemetry::MemoStats { hits: 0, misses: 1 });
        b.apply(&events, 10.0, &mut GpuOnly);
        assert_eq!(
            board.memo_stats(),
            rankmap_telemetry::MemoStats { hits: 1, misses: 1 },
            "the second session reuses the first one's simulation"
        );
        a.finish(10.0);
        b.finish(10.0);
        assert_eq!(a.into_timeline(), b.into_timeline());
    }

    #[test]
    #[should_panic(expected = "its own platform")]
    fn a_board_refuses_sessions_on_another_platform() {
        let p = Platform::orange_pi_5();
        let q = Platform::orange_pi_5();
        let board = DynamicRuntime::new(&p, 50.0).board(HashMap::new());
        let _ = DynamicRuntime::new(&q, 50.0).session_on(board);
    }

    #[test]
    fn session_reports_assigned_instance_ids_and_live_set() {
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let mut session = rt.session();
        let mut mapper = GpuOnly;
        let a = session.apply(
            &[
                DynamicEvent::arrive(0.0, ModelId::AlexNet),
                DynamicEvent::arrive(0.0, ModelId::SqueezeNetV2),
            ],
            100.0,
            &mut mapper,
        );
        assert_eq!(a, vec![InstanceId::new(0), InstanceId::new(1)]);
        assert_eq!(session.live().len(), 2);
        assert!(session.placement(InstanceId::new(0)).is_some());
        session.advance_to(100.0);
        let b = session.apply(
            &[DynamicEvent::depart(100.0, InstanceId::new(0))],
            100.0,
            &mut mapper,
        );
        assert!(b.is_empty());
        assert_eq!(session.live(), &[(InstanceId::new(1), ModelId::SqueezeNetV2)]);
        assert!(session.placement(InstanceId::new(0)).is_none());
        session.finish(200.0);
        assert!(!session.timeline().is_empty());
    }

    #[test]
    fn charged_stall_survives_a_same_time_event() {
        // charge_stall on a segment that another event closes at the
        // identical timestamp must carry into the next segment — a
        // cross-shard transfer cannot vanish from the timeline.
        let p = Platform::orange_pi_5();
        let rt = DynamicRuntime::new(&p, 50.0);
        let mut session = rt.session();
        let mut mapper = GpuOnly;
        session.apply(&[DynamicEvent::arrive(0.0, ModelId::AlexNet)], 100.0, &mut mapper);
        session.charge_stall(0.25);
        session.apply(&[DynamicEvent::arrive(0.0, ModelId::SqueezeNetV2)], 100.0, &mut mapper);
        session.finish(100.0);
        let total: f64 = session.timeline().iter().map(|pt| pt.migration_stall).sum();
        assert!(
            (total - 0.25).abs() < 1e-9,
            "charged stall must be conserved across segments: {total}"
        );
        assert!(
            session
                .timeline()
                .iter()
                .filter(|pt| pt.migration_stall > 0.0)
                .all(|pt| pt.remapped),
            "a carried stall point still marks the migration that caused it"
        );
    }

    #[test]
    fn stem_rebuild_charge_flips_a_borderline_remap_decision() {
        // The ROADMAP item: charging the estimator's compiled-stem rebuild
        // (not just weight re-staging) must tighten the remap decision.
        // Construct the borderline window analytically: a move that pays
        // for its weight transfer but not for weights + stem rebuild.
        struct Script(usize);
        impl WorkloadMapper for Script {
            fn name(&self) -> String {
                "script".into()
            }
            fn remap(&mut self, workload: &Workload) -> Mapping {
                self.0 += 1;
                if self.0 == 1 {
                    // Start on the little cluster...
                    Mapping::uniform(workload, ComponentId::new(2))
                } else {
                    // ...then insist on moving to the GPU.
                    Mapping::uniform(workload, ComponentId::new(0))
                }
            }
        }
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([ModelId::AlexNet]);
        // The script has no estimator, so the decision scores both sides
        // with the board's analytical estimate.
        let estimate = AnalyticalEngine::new(&p);
        let little = Mapping::uniform(&w, ComponentId::new(2));
        let gpu = Mapping::uniform(&w, ComponentId::new(0));
        let inc = estimate.evaluate(&w, &little).average();
        let cand = estimate.evaluate(&w, &gpu).average();
        assert!(cand > inc, "the GPU must beat the little cluster for AlexNet");
        let weight_only = MigrationModel::new(&p)
            .with_stem_rebuild(0.0)
            .cost_between(&w, &little, &gpu)
            .stall_seconds;
        let full = MigrationModel::new(&p).cost_between(&w, &little, &gpu).stall_seconds;
        assert!(full > weight_only);
        // Adopt iff cand·(W − stall) > inc·W  ⟺  W > stall·cand/(cand−inc):
        // pick W between the two break-even points so only the stem charge
        // flips the decision.
        let w_lo = weight_only * cand / (cand - inc);
        let w_hi = full * cand / (cand - inc);
        let window = 0.5 * (w_lo + w_hi);
        let t1 = 1.0;
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::SetPriorities { at: t1, mode: PriorityMode::Dynamic },
            DynamicEvent::SetPriorities { at: t1 + window, mode: PriorityMode::Dynamic },
        ];
        let horizon = t1 + 2.0 * window;
        let stalled_at_t1 = |rt: DynamicRuntime<'_>| {
            let tl = rt.run(&events, &mut Script(0), horizon);
            tl.iter().any(|pt| pt.migration_stall > 0.0 && (pt.time - t1).abs() < 1e-9)
        };
        assert!(
            stalled_at_t1(DynamicRuntime::new(&p, 1_000.0).with_stem_rebuild(0.0)),
            "under the weight-only model the move pays for itself and is adopted"
        );
        assert!(
            !stalled_at_t1(DynamicRuntime::new(&p, 1_000.0)),
            "charging the stem rebuild must flip the borderline decision to keep"
        );
    }

    #[test]
    fn priority_weighted_gain_objective_follows_the_critical_dnn() {
        // Two DNNs; a candidate that helps the critical DNN at the expense
        // of raw average throughput. The priority-weighted potential gain
        // must adopt it.
        struct Script {
            calls: usize,
            first: Mapping,
            second: Mapping,
            mode: PriorityMode,
        }
        impl WorkloadMapper for Script {
            fn name(&self) -> String {
                "script".into()
            }
            fn remap(&mut self, _workload: &Workload) -> Mapping {
                self.calls += 1;
                if self.calls == 1 { self.first.clone() } else { self.second.clone() }
            }
            fn set_priorities(&mut self, mode: &PriorityMode) {
                self.mode = mode.clone();
            }
            fn priorities(&self, workload: &Workload) -> Option<Vec<f64>> {
                Some(self.mode.vector(workload))
            }
        }
        let p = Platform::orange_pi_5();
        let w = Workload::from_ids([ModelId::InceptionV4, ModelId::SqueezeNetV2]);
        // What the decision scores a script's mappings with.
        let estimate = AnalyticalEngine::new(&p);
        // Incumbent: SqueezeNet owns the GPU, heavy Inception sits on the
        // big cluster — a raw-average throughput monster. Candidate: swap
        // them (Inception to the GPU, SqueezeNet to the little cluster) —
        // the critical Inception reaches full potential, the system's raw
        // average drops.
        let incumbent = Mapping::new(vec![
            vec![ComponentId::new(1); w.models()[0].unit_count()],
            vec![ComponentId::new(0); w.models()[1].unit_count()],
        ]);
        let candidate = Mapping::new(vec![
            vec![ComponentId::new(0); w.models()[0].unit_count()],
            vec![ComponentId::new(2); w.models()[1].unit_count()],
        ]);
        let inc_r = estimate.evaluate(&w, &incumbent);
        let cand_r = estimate.evaluate(&w, &candidate);
        assert!(
            cand_r.average() < inc_r.average(),
            "the candidate must lose on raw average for this test to bite: {} vs {}",
            cand_r.average(),
            inc_r.average()
        );
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::InceptionV4),
            DynamicEvent::arrive(0.0, ModelId::SqueezeNetV2),
            // A long window so any stall is irrelevant to the comparison.
            DynamicEvent::SetPriorities { at: 100.0, mode: PriorityMode::critical(2, 0) },
        ];
        let script = || Script {
            calls: 0,
            first: incumbent.clone(),
            second: candidate.clone(),
            mode: PriorityMode::critical(2, 0),
        };
        let tl = DynamicRuntime::new(&p, 5_000.0).run(&events, &mut script(), 10_000.0);
        assert!(
            tl.iter().any(|pt| pt.time >= 100.0 && pt.migration_stall > 0.0),
            "the potential objective must pay the stall to lift the critical DNN"
        );
    }

    #[test]
    fn recurring_workload_set_hits_the_plan_cache_in_the_serving_path() {
        // {AlexNet, SqueezeNet} runs, SqueezeNet departs, then re-arrives:
        // the second {AlexNet, SqueezeNet} segment must be answered from
        // the plan cache (the warm remap of the first segment fed it).
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let mgr = RankMapManager::new(
            &p,
            &oracle,
            ManagerConfig { mcts_iterations: 100, warm_iterations: 40, ..Default::default() },
        );
        let mut mapper = RankMapMapper::new(mgr, PriorityMode::Dynamic, "RankMapD");
        let rt = DynamicRuntime::new(&p, 50.0);
        let events = vec![
            DynamicEvent::arrive(0.0, ModelId::AlexNet),
            DynamicEvent::arrive(100.0, ModelId::SqueezeNetV2),
            DynamicEvent::depart(200.0, InstanceId::new(1)),
            DynamicEvent::arrive(300.0, ModelId::SqueezeNetV2),
        ];
        let _ = rt.run(&events, &mut mapper, 400.0);
        let stats = mapper.manager().plan_cache_stats();
        assert!(
            stats.hits >= 1,
            "the re-arrived workload set must be served from the plan cache"
        );
    }

    #[test]
    fn rankmap_mapper_integrates() {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let mgr = RankMapManager::new(
            &p,
            &oracle,
            ManagerConfig { mcts_iterations: 150, ..Default::default() },
        );
        let mut mapper = RankMapMapper::new(mgr, PriorityMode::Dynamic, "RankMapD");
        let rt = DynamicRuntime::new(&p, 100.0);
        let tl = rt.run(&arrivals(), &mut mapper, 300.0);
        assert_eq!(mapper.name(), "RankMapD");
        assert!(!tl.is_empty());
        // No DNN should be starved by RankMap in this light scenario
        // (stall points are the board moving weights, not starvation).
        for point in tl.iter().filter(|pt| pt.migration_stall == 0.0) {
            for &pot in &point.potentials {
                assert!(pot > rankmap_sim::STARVATION_POTENTIAL, "starved at {pot}");
            }
        }
    }
}
