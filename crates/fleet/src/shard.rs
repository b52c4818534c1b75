//! One device shard: its board profile, mapper, step-wise serving
//! session, and the per-shard memos the placement layer leans on.
//!
//! A [`Shard`] is deliberately **owned, `Send` state** — no `Rc`, no
//! `RefCell` — so the executor can hand `&mut Shard` to a worker thread
//! between event barriers (see `crate::executor`). Every per-shard memo is
//! a plain field mutated through `&mut self`: a shard is only ever touched
//! by one thread at a time, and the type system now proves it. The one
//! shared piece is the platform group's board (ideal rates and the board
//! report memo), reached through the session behind an `Arc` and locked
//! only for a memo lookup or insert.

use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::priority::PriorityMode;
use rankmap_core::runtime::{
    weighted_potential, DynamicEvent, InstanceId, RankMapMapper, RuntimeSession,
};
use rankmap_models::ModelId;
use rankmap_platform::{ComponentId, Platform};
use rankmap_sim::{Mapping, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// Expected residency window handed to every shard session as the remap
/// decision's integration horizon (seconds).
const DECISION_WINDOW: f64 = 60.0;

/// A shard's current (workload, incumbent mapping) pair, shared out of
/// the memo without rebuilding the workload or cloning the mapping.
pub(crate) type ShardState = Arc<(Workload, Mapping)>;

/// One device shard: its board, mapper (manager + priority mode), and
/// step-wise serving session.
pub(crate) struct Shard<'p, O: ThroughputOracle> {
    /// The shard's own board profile.
    pub(crate) platform: &'p Platform,
    /// The oracle scoring this shard's placements (shared by its group).
    pub(crate) oracle: &'p O,
    /// Index of the shard's [`crate::FleetSpec`] group — the fused
    /// scorer's batching domain.
    pub(crate) group: usize,
    pub(crate) mapper: RankMapMapper<'p, O>,
    pub(crate) session: RuntimeSession<'p>,
    /// Memoized oracle prediction of the current (workload, incumbent)
    /// pair. Placement probes run for *every* offered event against
    /// *every* shard, but a shard's incumbent only changes when its own
    /// `apply` runs — so the prediction is cached here and invalidated on
    /// apply.
    incumbent_prediction: Option<Vec<f64>>,
    /// Memoized current (workload, incumbent mapping) pair — probes of
    /// every offered event read it, so it is assembled once per `apply`.
    /// `None` = not computed yet; `Some(None)` = computed, shard idle.
    /// Invalidated on apply.
    current_state: Option<Option<ShardState>>,
    /// Memoized [`Shard::state_key`] of the up shard, read by placement
    /// on every offered event. Invalidated on apply.
    state_key: Option<Arc<[u8]>>,
    /// Whether the shard is currently failed. A down shard builds no
    /// probes (it cannot take arrivals), reports no health, and serves
    /// nothing — its live set was evacuated or shed when it went down.
    down: bool,
    /// Served fraction of nominal speed in `(0, 1]` (thermal throttle).
    /// `Platform::scaled` keeps potential invariant under uniform
    /// scaling, so the throttle surfaces as a pure multiplicative derate
    /// on served throughput and on every placement/health score — score
    /// memo entries (throttle-free fold terms) stay valid across throttle
    /// changes.
    throttle: f64,
    /// Bumped on every state mutation (`apply`, `mark_down`) — the
    /// staleness signal `crate::index::HealthIndex` watches, so a
    /// refresh only recomputes shards an event actually touched.
    /// Mutation funnels through `apply` (revive and set_throttle call
    /// it), leaving `mark_down` as the only other bump site.
    epoch: u64,
}

impl<'p, O: ThroughputOracle> Shard<'p, O> {
    /// Assembles a shard with cold memos.
    pub(crate) fn new(
        platform: &'p Platform,
        oracle: &'p O,
        group: usize,
        mapper: RankMapMapper<'p, O>,
        session: RuntimeSession<'p>,
    ) -> Self {
        Self {
            platform,
            oracle,
            group,
            mapper,
            session,
            incumbent_prediction: None,
            current_state: None,
            state_key: None,
            down: false,
            throttle: 1.0,
            epoch: 0,
        }
    }

    /// Per-model ideal rates measured on this shard's board type — the
    /// normalization denominators of every potential this shard reports.
    /// Held once per platform group, on the group's shared board.
    pub(crate) fn ideals(&self) -> &HashMap<ModelId, f64> {
        self.session.board().ideals()
    }

    /// Monotone mutation counter (see the `epoch` field).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn live_len(&self) -> usize {
        self.session.live().len()
    }

    /// Whether the shard is currently failed.
    pub(crate) fn is_down(&self) -> bool {
        self.down
    }

    /// The shard's current served fraction of nominal speed.
    pub(crate) fn throttle(&self) -> f64 {
        self.throttle
    }

    /// Marks the shard failed. The caller (the executor's `ShardDown`
    /// handling) evacuates or sheds the live set *before* this — a down
    /// shard must be empty.
    pub(crate) fn mark_down(&mut self) {
        debug_assert!(self.live_len() == 0, "a shard goes down only after evacuation");
        self.down = true;
        self.epoch += 1;
    }

    /// Repairs the shard: it rejoins empty, at nominal speed (a repaired
    /// board boots with thermals reset, so any pre-failure throttle is
    /// cleared).
    pub(crate) fn revive(&mut self, at: f64) {
        self.down = false;
        self.throttle = 1.0;
        self.session.set_derate(1.0);
        self.apply(at, &[]);
    }

    /// Applies a thermal throttle: subsequent served throughput, recorded
    /// potential, and placement/health scores all scale by `factor`. An
    /// empty apply closes the running segment so the derate takes effect
    /// exactly at `at`.
    pub(crate) fn set_throttle(&mut self, at: f64, factor: f64) {
        self.throttle = factor;
        self.session.set_derate(factor);
        self.apply(at, &[]);
    }

    /// Current workload + incumbent mapping in live order, memoized until
    /// the next `apply` (`None` when idle).
    pub(crate) fn current(&mut self) -> Option<ShardState> {
        if self.current_state.is_none() {
            self.current_state = Some(if self.session.live().is_empty() {
                None
            } else {
                let workload =
                    Workload::from_ids(self.session.live().iter().map(|(_, m)| *m));
                let per_dnn: Vec<Vec<ComponentId>> = self
                    .session
                    .live()
                    .iter()
                    .map(|(id, _)| {
                        self.session.placement(*id).expect("live instance placed").to_vec()
                    })
                    .collect();
                Some(Arc::new((workload, Mapping::new(per_dnn))))
            });
        }
        self.current_state.as_ref().expect("just computed").clone()
    }

    /// The probe trial workload for an arriving `model`: live set first,
    /// arrival appended.
    pub(crate) fn trial(&self, model: ModelId) -> Workload {
        Workload::from_ids(
            self.session.live().iter().map(|(_, m)| *m).chain(std::iter::once(model)),
        )
    }

    /// The priority tag of a probe's weights: empty under dynamic ranks,
    /// the static vector's bits when it applies to the trial workload
    /// (live set + arrival) — the `RankMapMapper::effective_mode` rule, so
    /// the tag, the live models and the arrival pin the trial's weights.
    pub(crate) fn priority_tag(&self) -> Vec<u64> {
        match self.mapper.mode() {
            PriorityMode::Static(p) if p.len() == self.live_len() + 1 => {
                p.iter().map(|w| w.to_bits()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The oracle's per-DNN prediction for the current incumbent,
    /// memoized until the next `apply`.
    pub(crate) fn predict_incumbent(
        &mut self,
        workload: &Workload,
        incumbent: &Mapping,
    ) -> Vec<f64> {
        self.incumbent_prediction
            .get_or_insert_with(|| self.oracle.predict(workload, incumbent))
            .clone()
    }

    /// Unweighted mean potential of a predicted report under this shard's
    /// own ideals, derated by the current throttle — the collapse signal
    /// the rebalancer and the overload guard watch (and re-check on the
    /// survivor set). At nominal speed the `× 1.0` is exact, so
    /// throttle-free runs are bit-identical to the pre-throttle code.
    pub(crate) fn uniform_mean_potential(&self, workload: &Workload, per_dnn: &[f64]) -> f64 {
        let uniform = vec![1.0; workload.len()];
        self.throttle * weighted_potential(self.ideals(), workload, per_dnn, &uniform)
            / workload.len() as f64
    }

    /// Mean predicted potential of this shard's current workload under its
    /// incumbent mapping (`None` when idle).
    pub(crate) fn mean_potential(&mut self) -> Option<f64> {
        let state = self.current()?;
        let per_dnn = self.predict_incumbent(&state.0, &state.1);
        Some(self.uniform_mean_potential(&state.0, &per_dnn))
    }

    /// Applies a batch of same-time events on this shard's session,
    /// invalidating the per-shard memos first (the live set is about to
    /// change).
    pub(crate) fn apply(&mut self, at: f64, events: &[DynamicEvent]) -> Vec<InstanceId> {
        self.incumbent_prediction = None;
        self.current_state = None;
        self.state_key = None;
        self.epoch += 1;
        self.session.advance_to(at);
        self.session.apply(events, DECISION_WINDOW, &mut self.mapper)
    }

    /// Byte key of the shard's state apart from its throttle: platform
    /// group, live model ids in live order, and per-instance placements,
    /// memoized until the next `apply`. With the arrival model and
    /// [`Shard::priority_tag`] it pins every input of `build_probe` except
    /// the throttle — the score memo's key — and placement asks one
    /// question per distinct key. `None` while down: a down shard is
    /// unprobeable. The mapper's priority mode is deliberately absent:
    /// the executor changes it only by a fleet-wide `SetPriorities`, so it
    /// never differs between shards.
    pub(crate) fn state_key(&mut self) -> Option<Arc<[u8]>> {
        if self.is_down() {
            return None;
        }
        if let Some(key) = &self.state_key {
            return Some(Arc::clone(key));
        }
        let mut key = Vec::with_capacity(4 + self.live_len() * 8);
        key.extend_from_slice(&(self.group as u32).to_le_bytes());
        if let Some(state) = self.current() {
            for m in state.0.models() {
                key.push(m.id() as u8);
            }
            for assign in state.1.per_dnn() {
                key.push(0xFF);
                key.extend(assign.iter().map(|c| c.index() as u8));
            }
        }
        let key: Arc<[u8]> = key.into();
        self.state_key = Some(Arc::clone(&key));
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_core::oracle::AnalyticalOracle;

    /// The tentpole's structural guarantee: a shard can be handed to a
    /// worker thread. This fails to compile if `Rc`/`RefCell` (or any
    /// other non-`Send` state) creeps back in.
    #[test]
    fn shards_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Shard<'static, AnalyticalOracle<'static>>>();
        assert_send::<ShardState>();
    }
}
