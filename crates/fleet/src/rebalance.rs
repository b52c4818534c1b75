//! Cross-shard rebalancing: a shard whose predicted potential collapses
//! sheds its lowest-priority instance to a healthier shard.
//!
//! The health scan (one oracle prediction per loaded shard) and the
//! destination probes fan across the executor's worker pool; victim
//! selection and the destination argmax run serially at the barrier over
//! the merged, shard-ordered results — so the migration chosen under
//! [`crate::Parallelism::Threads`] is bit-identical to a
//! [`crate::Parallelism::Sequential`] run's. The source's departure and
//! then the destination's arrival are applied serially.

use crate::executor::{FleetExecutor, RunState};
use crate::telemetry::stage;
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::runtime::{priorities_or_uniform, DynamicEvent};
use rankmap_sim::{Mapping, MigrationModel, Workload};

impl<O: ThroughputOracle> FleetExecutor<'_, O> {
    /// One rebalance attempt at time `t`: if some shard's mean predicted
    /// potential collapsed below the threshold, move its lowest-priority
    /// instance to the shard that takes it best — provided the move
    /// clears the admission floor at the destination and improves the
    /// source by the configured margin. Because every quantity involved
    /// is a fraction of the owning board's ideal, a collapsed Jetson can
    /// shed onto an Orange Pi (and vice versa) on equal terms. Returns
    /// the migration performed.
    pub(crate) fn maybe_rebalance(
        &mut self,
        t: f64,
        state: &mut RunState,
    ) -> Option<(usize, usize)> {
        // Health question: the worst collapsed shard with something to
        // shed — an O(log S) index read, or (in scan mode) a parallel
        // prediction fan-out resolved serially in shard order.
        let (src, src_mean) = self.worst_loaded()?;
        if src_mean >= self.config.rebalance_threshold {
            return None;
        }
        // Victim: the live instance with the smallest priority weight.
        let shard_state = self.shards[src].current()?;
        let (workload, incumbent) = (&shard_state.0, &shard_state.1);
        let weights = priorities_or_uniform(&self.shards[src].mapper, workload);
        let victim_idx = weights
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)?;
        let (victim_id, victim_model) = self.shards[src].session.live()[victim_idx];
        // Does shedding the victim actually heal the source?
        let keep = |d: usize| d != victim_idx;
        let survivors = Workload::from_ids(
            workload
                .models()
                .iter()
                .enumerate()
                .filter(|&(d, _)| keep(d))
                .map(|(_, m)| m.id()),
        );
        let survivor_mapping = Mapping::new(
            incumbent
                .per_dnn()
                .iter()
                .enumerate()
                .filter(|&(d, _)| keep(d))
                .map(|(_, assign)| assign.clone())
                .collect(),
        );
        let healed = self.shards[src].uniform_mean_potential(
            &survivors,
            &self.shards[src].oracle.predict(&survivors, &survivor_mapping),
        );
        if healed < src_mean + self.config.rebalance_margin {
            return None;
        }
        // Best destination (capacity + floor), excluding the source. The
        // destination's own predicted loss must not exceed the source's
        // predicted healing (heuristically comparing the weighted delta
        // against the uniform mean gain — both normalized
        // fraction-of-ideal scale, so the comparison holds across board
        // types), so a move that hurts the fleet more than it heals the
        // source never fires and migrations cannot thrash between loaded
        // shards.
        let healing = healed - src_mean;
        let floor = self.config.admission_floor;
        let dst = self
            .probe_scores_excluding(victim_model, Some(src))
            .into_iter()
            .enumerate()
            .filter_map(|(s, score)| {
                score.and_then(|(delta, arrival_pot)| {
                    (arrival_pot >= floor && delta >= -healing).then_some((s, delta))
                })
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)?;
        // Execute: depart from the source, then arrive at the destination,
        // under every executor. The receiving board is not free — charge
        // it (at least) the full on-board restage of the victim's weights
        // plus its stem rebuild, over *its own* transfer link, so
        // rebalancing cannot ping-pong instances at no modeled cost.
        let timer = self.telemetry.stage(stage::REBALANCE_MIGRATE);
        self.shards[src].apply(t, &[DynamicEvent::depart(t, victim_id)]);
        let assigned = self.shards[dst].apply(t, &[DynamicEvent::arrive(t, victim_model)]);
        self.telemetry.finish(timer);
        let new_id = assigned[0];
        let victim_workload = Workload::from_ids([victim_model]);
        let transfer = MigrationModel::new(self.shards[dst].platform)
            .full_restage(&victim_workload)
            .stall_seconds;
        self.shards[dst].session.charge_stall(transfer);
        if let Some(owner) = state.take_owner(src, victim_id) {
            state.activate(owner, dst, new_id);
        }
        Some((src, dst))
    }
}
