//! Placement scoring: the cross-event score memo, probes, and the
//! admission decision.
//!
//! An arriving DNN is scored once per distinct shard state
//! ([`Shard::state_key`]) in the fleet: every shard in that state folds
//! the same throttle-free terms with its own derate. The first shard in
//! each state looks the question up in the [`ScoreMemo`]: the shard's
//! state, the arriving model and the priority tag pin the throttle-free
//! terms of the fold, so a hit is folded without building anything. Only
//! the missing questions build a probe (trial workload, one candidate per
//! component, incumbent score) — per-shard work that fans across the
//! executor's worker pool — and are answered by one
//! [`ThroughputOracle::predict_grouped`] call per platform group. Memo
//! lookups, inserts, folds and the cross-shard argmax stay serial in
//! canonical shard order, so decisions are bit-identical at any thread
//! count.

use crate::executor::FleetExecutor;
use crate::shard::Shard;
use crate::telemetry::stage;
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::runtime::{ideal_rate_of, priorities_or_uniform, weighted_potential};
use rankmap_models::ModelId;
use rankmap_platform::ComponentId;
use rankmap_sim::{GenerationalMap, Mapping, Workload};
use rankmap_telemetry::MemoStats;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Default upper bound on memoized score terms across all platform
/// groups (each entry is a handful of `f64`s per candidate).
pub(crate) const PROBE_MEMO_BOUND: usize = 8_192;

/// The score memo's key: the shard's state without its throttle
/// ([`Shard::state_key`]: group, live models, placements), the arriving
/// model, and the priority tag ([`Shard::priority_tag`]). Together they
/// pin the trial workload, its candidates, its weights, the incumbent and
/// the group's ideals — every input of the fold except the derate.
type ScoreKey = (Arc<[u8]>, ModelId, Vec<u64>);

/// The throttle-free terms of one probe's fold. A throttle scales every
/// term of the delta and the arrival's potential by the same derate, so
/// shards that differ only in throttle share one entry.
#[derive(Debug, PartialEq)]
pub(crate) struct ScoreTerms {
    /// Per candidate mapping: `(weighted potential, the arrival's raw
    /// predicted rate)`.
    candidates: Vec<(f64, f64)>,
    /// The incumbent's weighted potential under the trial's weight
    /// prefix (0 when idle).
    before: f64,
    /// The arrival model's ideal rate on the group's board.
    arrival_ideal: f64,
}

impl ScoreTerms {
    /// Folds the terms into a shard score at served fraction `derate`:
    /// `(best normalized-potential delta, arrival's predicted potential
    /// under the best candidate)`. Both sides of the delta and the
    /// arrival's potential scale by the derate (a throttled board serves
    /// every candidate proportionally slower), so throttled shards bid
    /// lower and the admission floor judges the *served* potential.
    pub(crate) fn fold(&self, derate: f64, admission_floor: f64) -> Option<(f64, f64)> {
        // Prefer the best-scoring candidate that clears the admission
        // floor; only when *no* component placement clears it does the
        // shard report a below-floor arrival (and get skipped by
        // `place`). Judging the floor on the single best-total candidate
        // would reject arrivals a slightly-lower-scoring component could
        // serve fine.
        let mut best_any: Option<(f64, f64)> = None;
        let mut best_clearing: Option<(f64, f64)> = None;
        for &(potential, arrival_rate) in &self.candidates {
            let arrival_pot = derate * arrival_rate / self.arrival_ideal;
            let score = derate * potential;
            if best_any.is_none_or(|(b, _)| score > b) {
                best_any = Some((score, arrival_pot));
            }
            if arrival_pot >= admission_floor
                && best_clearing.is_none_or(|(b, _)| score > b)
            {
                best_clearing = Some((score, arrival_pot));
            }
        }
        let before = derate * self.before;
        best_clearing
            .or(best_any)
            .map(|(score, arrival_pot)| (score - before, arrival_pot))
    }
}

/// The cross-event memo of [`ScoreTerms`], bounded across all platform
/// groups by [`crate::FleetConfig::probe_memo_capacity`] with generational
/// eviction ([`GenerationalMap`]). Entries are pure — a key fully
/// determines its terms — so eviction can only cost a recomputation,
/// never change a decision.
pub(crate) struct ScoreMemo {
    map: GenerationalMap<ScoreKey, Arc<ScoreTerms>>,
    hits: u64,
    misses: u64,
}

impl ScoreMemo {
    /// An empty memo holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity memo would evict every
    /// insert — consistent with `PlanCache::with_capacity`).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "probe_memo_capacity must be positive");
        Self { map: GenerationalMap::new(capacity), hits: 0, misses: 0 }
    }

    /// The memoized terms under `key`, counting a hit or a miss.
    fn get(&mut self, key: &ScoreKey) -> Option<Arc<ScoreTerms>> {
        let terms = self.map.get(key);
        if terms.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        terms
    }

    /// Memoizes `terms` under `key`.
    fn insert(&mut self, key: ScoreKey, terms: Arc<ScoreTerms>) {
        self.map.insert(key, terms);
    }

    /// Memoized entries across all groups.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Hit/miss counters since construction. Placement consults the memo
    /// once per distinct shard state per call, so these count oracle
    /// questions saved/asked — not per-shard lookups.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats { hits: self.hits, misses: self.misses }
    }
}

/// One prepared placement probe: everything needed to ask the oracle
/// about one shard for one arrival and turn the answer into
/// [`ScoreTerms`].
pub(crate) struct Probe {
    pub(crate) shard: usize,
    pub(crate) group: usize,
    pub(crate) trial: Workload,
    pub(crate) candidates: Vec<Mapping>,
    weights: Vec<f64>,
    /// The incumbent's weighted potential (0 when idle), not derated.
    pub(crate) before: f64,
    /// The arrival model's ideal rate on this shard's board.
    pub(crate) arrival_ideal: f64,
}

impl Probe {
    /// The oracle's per-candidate predictions reduced to the fold's
    /// throttle-free terms.
    pub(crate) fn terms(
        &self,
        ideals: &HashMap<ModelId, f64>,
        predictions: &[Vec<f64>],
    ) -> ScoreTerms {
        ScoreTerms {
            candidates: predictions
                .iter()
                .map(|per_dnn| {
                    (
                        self.candidate_potential(ideals, per_dnn),
                        per_dnn.last().copied().unwrap_or(0.0),
                    )
                })
                .collect(),
            before: self.before,
            arrival_ideal: self.arrival_ideal,
        }
    }

    /// One candidate's weighted potential, not derated.
    pub(crate) fn candidate_potential(
        &self,
        ideals: &HashMap<ModelId, f64>,
        per_dnn: &[f64],
    ) -> f64 {
        weighted_potential(ideals, &self.trial, per_dnn, &self.weights)
    }
}

impl<O: ThroughputOracle> Shard<'_, O> {
    /// Prepares the placement probe of this shard (index `s`) for an
    /// arriving `model`: trial workload, per-component candidates,
    /// weights, and the shard's baseline score. The caller has checked
    /// that the shard is up and has capacity. This is the per-shard half
    /// of scoring — the expensive workload construction — and runs on the
    /// executor's worker pool.
    pub(crate) fn build_probe(&mut self, s: usize, model: ModelId) -> Probe {
        let arrival_ideal = ideal_rate_of(self.ideals(), model);
        // Trial workload: survivors first (keeping their incumbent
        // placements), the arrival appended, tried on every component.
        let trial = self.trial(model);
        // One weight basis for both sides of the delta: the trial
        // workload's resolved vector, its survivor prefix applied to the
        // "before" score. Scoring "before" under the n-DNN vector would
        // let a Static→Dynamic fallback (effective_mode on the n+1
        // workload) masquerade as a placement gain.
        let weights = priorities_or_uniform(&self.mapper, &trial);
        let (before, survivors) = match self.current() {
            None => (0.0, Vec::new()),
            Some(state) => {
                let (workload, incumbent) = (&state.0, &state.1);
                let per_dnn = self.predict_incumbent(workload, incumbent);
                let score = weighted_potential(
                    self.ideals(),
                    workload,
                    &per_dnn,
                    &weights[..workload.len()],
                );
                (score, incumbent.per_dnn().to_vec())
            }
        };
        let arrival_units = trial.models().last().expect("arrival present").unit_count();
        let candidates: Vec<Mapping> = (0..self.platform.component_count())
            .map(|c| {
                let mut per_dnn = survivors.clone();
                per_dnn.push(vec![ComponentId::new(c); arrival_units]);
                Mapping::new(per_dnn)
            })
            .collect();
        Probe { shard: s, group: self.group, trial, candidates, weights, before, arrival_ideal }
    }
}

impl<'p, O: ThroughputOracle> FleetExecutor<'p, O> {
    /// Scores placing `model` on every shard: `scores[s]` is the shard's
    /// `(normalized potential delta, arrival potential)` — the router's
    /// decision inputs — or `None` for shards down or at capacity.
    /// Potentials are fractions of each shard's *own* board ideal, so the
    /// numbers are comparable across a mixed fleet.
    pub(crate) fn probe_scores(&mut self, model: ModelId) -> Vec<Option<(f64, f64)>> {
        self.probe_scores_excluding(model, None)
    }

    /// [`FleetExecutor::probe_scores`] with an optional shard left out
    /// entirely (no memo lookup, no probe, no oracle question) — the
    /// rebalancer scores a victim's destinations this way so the source
    /// shard never costs an evaluation it is about to discard.
    ///
    /// Every up, non-excluded shard with capacity takes the slot of its
    /// state key, opened by the first shard in that state. Inside one
    /// call the arrival model and the fleet-wide priority mode are fixed,
    /// so the state bytes alone decide the question, and the memo is
    /// consulted once per distinct state. The opener of each missing
    /// state builds a probe on the worker pool; each group's missing
    /// questions go to one grouped oracle call, and their terms are
    /// memoized. Each shard then folds its slot's terms with its own
    /// throttle, serially in canonical shard order.
    pub(crate) fn probe_scores_excluding(
        &mut self,
        model: ModelId,
        exclude: Option<usize>,
    ) -> Vec<Option<(f64, f64)>> {
        #[cfg(any(test, feature = "reference"))]
        if self.reference_placement {
            return self.reference_probe_scores(model, exclude);
        }
        let max_per_shard = self.config.max_per_shard;
        let floor = self.config.admission_floor;
        let lookup = self.telemetry.stage(stage::FUSED_SCORING);
        let shards = self.shards.len();
        // `slot_of[s]`: shard `s`'s entry in `answers`; shards in one
        // state share one slot and one memo lookup.
        let mut slot_of: Vec<Option<usize>> = vec![None; shards];
        let mut answers: Vec<Option<Arc<ScoreTerms>>> = Vec::new();
        let mut slots: HashMap<Arc<[u8]>, usize> = HashMap::new();
        // Missing keys in first-asker order: (asker, slot, key).
        let mut missing: Vec<(usize, usize, ScoreKey)> = Vec::new();
        let mut shared = 0u64;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if Some(s) == exclude || shard.live_len() >= max_per_shard {
                continue;
            }
            let Some(state) = shard.state_key() else { continue };
            let slot = match slots.entry(state) {
                Entry::Occupied(e) => {
                    shared += 1;
                    *e.get()
                }
                Entry::Vacant(e) => {
                    let key = (Arc::clone(e.key()), model, shard.priority_tag());
                    let terms = self.score_memo.get(&key);
                    if terms.is_none() {
                        missing.push((s, answers.len(), key));
                    }
                    answers.push(terms);
                    *e.insert(answers.len() - 1)
                }
            };
            slot_of[s] = Some(slot);
        }
        self.telemetry.finish(lookup);
        self.telemetry.count("fleet_index_broadcast_total", shared);
        let build = self.telemetry.stage(stage::PROBE_BUILD);
        let mut probes: Vec<Option<Probe>> = Vec::new();
        if !missing.is_empty() {
            let mut asks = vec![false; shards];
            for &(s, _, _) in &missing {
                asks[s] = true;
            }
            probes = self.for_each_shard(|s, shard| asks[s].then(|| shard.build_probe(s, model)));
        }
        self.telemetry.finish(build);
        self.telemetry.count("fleet_probes_built_total", missing.len() as u64);
        let scoring = self.telemetry.resume(stage::FUSED_SCORING);
        for g in 0..self.group_oracles.len() {
            let asked: Vec<(&Probe, usize, &ScoreKey)> = missing
                .iter()
                .map(|(s, slot, key)| (probes[*s].as_ref().expect("built"), *slot, key))
                .filter(|(probe, _, _)| probe.group == g)
                .collect();
            if asked.is_empty() {
                continue;
            }
            let queries: Vec<(&Workload, &[Mapping])> =
                asked.iter().map(|(p, _, _)| (&p.trial, p.candidates.as_slice())).collect();
            let predictions = self.group_oracles[g].predict_grouped(&queries);
            for ((probe, slot, key), answer) in asked.into_iter().zip(&predictions) {
                let terms = Arc::new(probe.terms(self.shards[probe.shard].ideals(), answer));
                self.score_memo.insert(key.clone(), Arc::clone(&terms));
                answers[slot] = Some(terms);
            }
        }
        let scores = slot_of
            .iter()
            .zip(&self.shards)
            .map(|(slot, shard)| {
                let terms = answers[(*slot)?].as_ref().expect("every slot answered");
                terms.fold(shard.throttle(), floor)
            })
            .collect();
        self.telemetry.finish(scoring);
        scores
    }

    /// The admission/placement decision: the shard with the best
    /// normalized potential delta whose arrival potential clears the
    /// floor, or `None` (reject).
    pub(crate) fn place(&mut self, model: ModelId) -> Option<(usize, f64)> {
        let floor = self.config.admission_floor;
        let mut best: Option<(usize, f64)> = None;
        for (s, score) in self.probe_scores(model).into_iter().enumerate() {
            let Some((delta, arrival_pot)) = score else { continue };
            if arrival_pot < floor {
                continue;
            }
            if best.is_none_or(|(_, b)| delta > b) {
                best = Some((s, delta));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key of platform group `group` for state byte `state`.
    fn key(group: u8, state: u8) -> ScoreKey {
        (Arc::from([group, state]), ModelId::AlexNet, Vec::new())
    }

    fn terms(v: f64) -> Arc<ScoreTerms> {
        Arc::new(ScoreTerms { candidates: vec![(v, v)], before: 0.0, arrival_ideal: 1.0 })
    }

    #[test]
    fn memo_evicts_least_recently_used_first() {
        let mut memo = ScoreMemo::new(2);
        memo.insert(key(0, 0), terms(0.0));
        memo.insert(key(0, 1), terms(1.0));
        // Touch key 0 so it moves back to the young generation...
        assert_eq!(memo.get(&key(0, 0)), Some(terms(0.0)));
        // ...and inserting key 2 must drop key 1 with the old one, not 0.
        memo.insert(key(0, 2), terms(2.0));
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&key(0, 0)).is_some(), "recently used survives");
        assert!(memo.get(&key(0, 2)).is_some(), "new entry present");
        assert!(memo.get(&key(0, 1)).is_none(), "the untouched entry was evicted");
    }

    #[test]
    fn memo_bound_spans_all_groups() {
        // The capacity bounds the *total* across groups: the oldest entry
        // goes, whichever group holds it.
        let mut memo = ScoreMemo::new(2);
        memo.insert(key(0, 0), terms(0.0));
        memo.insert(key(1, 1), terms(1.0));
        memo.insert(key(1, 2), terms(2.0));
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&key(0, 0)).is_none(), "group 0's entry was the oldest");
        assert!(memo.get(&key(1, 1)).is_some());
        assert!(memo.get(&key(1, 2)).is_some());
    }

    #[test]
    fn memo_hits_refresh_recency_and_count() {
        let mut memo = ScoreMemo::new(8);
        memo.insert(key(0, 9), terms(9.0));
        assert_eq!(memo.stats(), MemoStats::new());
        assert!(memo.get(&key(0, 9)).is_some());
        assert!(memo.get(&key(0, 8)).is_none());
        assert_eq!(memo.stats(), MemoStats { hits: 1, misses: 1 });
    }

    #[test]
    fn memo_stays_bounded_and_keeps_answers_in_use() {
        for capacity in [1, 3, 64] {
            let mut memo = ScoreMemo::new(capacity);
            memo.insert(key(0, 0), terms(0.0));
            for i in 1..10 * capacity as u32 {
                let state: Arc<[u8]> = Arc::from(i.to_le_bytes());
                memo.insert((state, ModelId::AlexNet, Vec::new()), terms(f64::from(i)));
                assert!(memo.len() <= capacity, "{} entries past {capacity}", memo.len());
                if capacity > 1 {
                    assert_eq!(memo.get(&key(0, 0)), Some(terms(0.0)), "an entry in use survives");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probe_memo_capacity")]
    fn zero_capacity_memo_is_rejected_loudly() {
        let _ = ScoreMemo::new(0);
    }
}
