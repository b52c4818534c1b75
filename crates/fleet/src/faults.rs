//! Failure handling: priority-aware evacuation of a failing shard and
//! the fleet-wide overload guard.
//!
//! Both paths run at the executor's event barrier and reuse the
//! placement layer's normalized-potential scoring, so every decision is
//! a pure function of shard state and bit-identical between
//! [`crate::Parallelism::Sequential`] and [`crate::Parallelism::Threads`]
//! (probe building fans across the worker pool; triage order, the
//! per-victim destination argmax, and the guard's victim selection run
//! serially over shard-ordered results).
//!
//! **Evacuation triage.** When a shard goes down its live set is ranked
//! by priority weight (descending, instance order breaking ties), split
//! into terciles — the availability tiers `[high, mid, low]` reported by
//! [`crate::FleetMetrics::tier_triaged`] — and re-placed one victim at a
//! time: highest priority first, onto the surviving shard with the best
//! normalized potential delta that clears the admission floor. Each move
//! is charged the destination board's full-restage migration cost as a
//! visible stall ([`rankmap_sim::MigrationModel`]); victims no survivor
//! can absorb are shed. Because high-priority instances pick destinations
//! first, survivor capacity runs out on the *low* tiers — the RankMap
//! promise (high priority keeps its throughput) extended to board loss.
//!
//! The overload guard runs after every event, right after the
//! rebalancer, on the post-rebalance fleet (`FleetExecutor::after_event`).

use crate::executor::{Disposition, FleetExecutor, RunState};
use crate::metrics::{PlacementOutcome, PlacementRecord};
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::runtime::{priorities_or_uniform, DynamicEvent};
use rankmap_sim::{MigrationModel, Workload};

impl<O: ThroughputOracle> FleetExecutor<'_, O> {
    /// Takes shard `src` down at time `t`: closes its serving timeline,
    /// triages its live set by priority, and — under
    /// [`crate::FleetConfig::evacuate`] — re-places victims onto
    /// survivors in priority order, shedding what no survivor absorbs
    /// (with evacuation off, everything is shed: the chaos bench's
    /// baseline).
    ///
    /// `cause` is the flight-recorder sequence number of the triggering
    /// `shard_down` record (when telemetry is on): every `evacuate`/
    /// `shed` record of this outage links back to it, so a post-mortem
    /// can walk the event → decision → outcome chain.
    pub(crate) fn fail_shard(
        &mut self,
        t: f64,
        src: usize,
        state: &mut RunState,
        cause: Option<u64>,
    ) {
        let live: Vec<_> = self.shards[src].session.live().to_vec();
        // Triage before anything moves: priority weights on the failing
        // shard's own workload, ranked descending (ties by instance
        // order, so the order is deterministic).
        let mut order: Vec<usize> = (0..live.len()).collect();
        if let Some(shard_state) = self.shards[src].current() {
            let weights = priorities_or_uniform(&self.shards[src].mapper, &shard_state.0);
            order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        }
        // The board is gone: all live instances leave in one batch (the
        // timeline records zero service from here) and the shard stops
        // taking probes.
        if !live.is_empty() {
            let departs: Vec<DynamicEvent> =
                live.iter().map(|&(id, _)| DynamicEvent::depart(t, id)).collect();
            self.shards[src].apply(t, &departs);
        }
        self.shards[src].mark_down();
        // Re-place highest priority first: earlier victims see the most
        // survivor headroom, so capacity exhausts on the low tiers.
        for (rank, &idx) in order.iter().enumerate() {
            let (victim_id, victim_model) = live[idx];
            let tier = (3 * rank / live.len().max(1)).min(2);
            state.tier_triaged[tier] += 1;
            let owner = state.take_owner(src, victim_id);
            let floor = self.config.admission_floor;
            let destination = if self.config.evacuate {
                // The down flag excludes `src` (and every other down
                // shard) from the probe fan-out.
                self.probe_scores(victim_model)
                    .into_iter()
                    .enumerate()
                    .filter_map(|(s, score)| {
                        score.and_then(|(delta, pot)| {
                            (pot >= floor).then_some((s, delta))
                        })
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            } else {
                None
            };
            match destination {
                Some((dst, delta)) => {
                    let assigned =
                        self.shards[dst].apply(t, &[DynamicEvent::arrive(t, victim_model)]);
                    // An evacuation is a real migration: the receiving
                    // board pays the victim's full weight restage + stem
                    // rebuild over its own transfer link.
                    let transfer = MigrationModel::new(self.shards[dst].platform)
                        .full_restage(&Workload::from_ids([victim_model]))
                        .stall_seconds;
                    self.shards[dst].session.charge_stall(transfer);
                    state.evacuation_stall_seconds += transfer;
                    state.evacuated += 1;
                    state.tier_evacuated[tier] += 1;
                    state.per_shard_admitted[dst] += 1;
                    self.telemetry.count("fleet_evacuated_total", 1);
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "evacuate",
                            cause,
                            vec![
                                ("model", format!("{victim_model:?}")),
                                ("from", src.to_string()),
                                ("to", dst.to_string()),
                                ("tier", tier.to_string()),
                            ],
                        );
                    }
                    if let Some(request) = owner {
                        state.activate(request, dst, assigned[0]);
                        state.placements.push(PlacementRecord {
                            request,
                            at: t,
                            outcome: PlacementOutcome::Evacuated { from: src, to: dst },
                            predicted_delta: delta,
                        });
                    }
                }
                None => {
                    state.shed += 1;
                    self.telemetry.count("fleet_shed_total", 1);
                    if self.telemetry.enabled() {
                        self.telemetry.record(
                            t,
                            "shed",
                            cause,
                            vec![
                                ("model", format!("{victim_model:?}")),
                                ("from", src.to_string()),
                                ("tier", tier.to_string()),
                            ],
                        );
                    }
                    if let Some(request) = owner {
                        state.requests.insert(request, Disposition::Shed);
                        state.placements.push(PlacementRecord {
                            request,
                            at: t,
                            outcome: PlacementOutcome::Shed { from: src },
                            predicted_delta: 0.0,
                        });
                    }
                }
            }
        }
    }

    /// The fleet-wide overload guard: if the worst loaded shard's mean
    /// predicted potential fell below
    /// [`crate::FleetConfig::overload_guard`], shed its lowest-priority
    /// instance outright — low-priority work is dropped *before*
    /// high-priority potential collapses. At most one shed per event
    /// barrier (like the rebalancer), so the guard degrades gradually
    /// rather than mass-evicting on a transient dip. No-op at the
    /// default threshold of `0.0`.
    pub(crate) fn overload_guard(&mut self, t: f64, state: &mut RunState) {
        let guard = self.config.overload_guard;
        if guard <= 0.0 {
            return;
        }
        // The rebalancer's health question, shared via `worst_loaded`
        // (indexed O(log S) read or the parallel scan). Down shards are
        // empty and report no health either way.
        let Some((src, mean)) = self.worst_loaded() else {
            return;
        };
        if mean >= guard {
            return;
        }
        let Some(shard_state) = self.shards[src].current() else { return };
        let weights = priorities_or_uniform(&self.shards[src].mapper, &shard_state.0);
        let Some(victim_idx) = weights
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
        else {
            return;
        };
        let (victim_id, _) = self.shards[src].session.live()[victim_idx];
        let owner = state.take_owner(src, victim_id);
        self.shards[src].apply(t, &[DynamicEvent::depart(t, victim_id)]);
        state.shed += 1;
        self.telemetry.count("fleet_shed_total", 1);
        if self.telemetry.enabled() {
            self.telemetry.record(
                t,
                "overload_shed",
                None,
                vec![("shard", src.to_string()), ("mean", format!("{mean:.6}"))],
            );
        }
        if let Some(request) = owner {
            state.requests.insert(request, Disposition::Shed);
            state.placements.push(PlacementRecord {
                request,
                at: t,
                outcome: PlacementOutcome::Shed { from: src },
                predicted_delta: 0.0,
            });
        }
    }
}
