//! Placement scoring: probes, the fused cross-event probe memo, and the
//! admission decision.
//!
//! An arriving DNN is scored against every shard with capacity. Under
//! [`crate::FleetConfig::fused_scoring`] the probes are grouped per
//! platform, deduplicated — within the event (two idle Orange Pis ask the
//! identical question) *and* across events via [`ProbeMemo`] — and the
//! remaining unique questions answered by one
//! [`ThroughputOracle::predict_grouped`] call per oracle. Probe
//! *building* (workload layer-graph construction, the expensive part) is
//! per-shard work and fans across the executor's worker pool between
//! barriers; folding and the cross-shard argmax stay serial in canonical
//! shard order so decisions are bit-identical at any thread count.

use crate::executor::FleetExecutor;
use crate::shard::Shard;
use crate::telemetry::stage;
use rankmap_core::oracle::ThroughputOracle;
use rankmap_core::runtime::{ideal_rate_of, priorities_or_uniform, weighted_potential};
use rankmap_models::ModelId;
use rankmap_platform::ComponentId;
use rankmap_sim::{Mapping, Workload};
use rankmap_telemetry::MemoStats;
use std::collections::HashMap;
use std::sync::Arc;

/// Default upper bound on memoized probe answers across all platform
/// groups (each entry is one probe's candidate predictions — a few
/// hundred bytes).
pub(crate) const PROBE_MEMO_BOUND: usize = 8_192;

/// The fused scorer's cross-event memo of oracle answers: one map per
/// platform group, keyed by probe fingerprint, bounded across all groups
/// with O(1) amortized generational eviction (the board report memo's
/// scheme). Inserts go to the young generation; once the young maps of
/// all groups hold half the capacity, each group's young map becomes its
/// old one, dropping the previous old generation whole. A hit in the old
/// generation moves the entry back to the young one, so an answer in use
/// survives. Entries are pure — a fingerprint fully determines the
/// oracle's answer — so eviction can only cost a recomputation, never
/// change a decision.
pub(crate) struct ProbeMemo {
    young: Vec<HashMap<Vec<u8>, Vec<Vec<f64>>>>,
    old: Vec<HashMap<Vec<u8>, Vec<Vec<f64>>>>,
    /// Total-entry bound across all groups.
    capacity: usize,
    /// Entries in the young maps, across all groups.
    young_len: usize,
    hits: u64,
    misses: u64,
}

impl ProbeMemo {
    /// An empty memo for `groups` platform groups holding at most
    /// `capacity` answers in total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity memo would evict every
    /// insert — consistent with `PlanCache::with_capacity`).
    pub(crate) fn new(groups: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "probe_memo_capacity must be positive");
        Self {
            young: (0..groups).map(|_| HashMap::new()).collect(),
            old: (0..groups).map(|_| HashMap::new()).collect(),
            capacity,
            young_len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The memoized predictions for a probe fingerprint in group `g`,
    /// moving an old-generation entry back to the young one on a hit.
    pub(crate) fn get(&mut self, g: usize, key: &[u8]) -> Option<Vec<Vec<f64>>> {
        if let Some(predictions) = self.young[g].get(key) {
            self.hits += 1;
            return Some(predictions.clone());
        }
        match self.old[g].remove_entry(key) {
            Some((key, predictions)) => {
                self.hits += 1;
                self.insert(g, key, predictions.clone());
                Some(predictions)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes a probe answer, turning the generations over first when
    /// the young ones are full.
    pub(crate) fn insert(&mut self, g: usize, key: Vec<u8>, predictions: Vec<Vec<f64>>) {
        // Each generation holds half the capacity; a capacity of one keeps
        // no old generation.
        if self.young_len >= (self.capacity / 2).max(1) {
            for (young, old) in self.young.iter_mut().zip(&mut self.old) {
                *old = if self.capacity > 1 { std::mem::take(young) } else { HashMap::new() };
                young.clear();
            }
            self.young_len = 0;
        }
        if self.young[g].insert(key, predictions).is_none() {
            self.young_len += 1;
        }
    }

    /// Total memoized answers across all groups.
    pub(crate) fn len(&self) -> usize {
        self.young_len + self.old.iter().map(HashMap::len).sum::<usize>()
    }

    /// Hit/miss counters since construction. The fused scorer consults
    /// the memo once per unique fingerprint per event, so these count
    /// oracle questions saved/asked — not per-shard lookups.
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats { hits: self.hits, misses: self.misses }
    }
}

/// One prepared placement probe: everything needed to score one shard for
/// one arrival, minus the oracle's answers.
pub(crate) struct Probe {
    pub(crate) shard: usize,
    pub(crate) group: usize,
    pub(crate) trial: Arc<Workload>,
    pub(crate) candidates: Vec<Mapping>,
    weights: Vec<f64>,
    /// The shard's current weighted potential (0 when idle), already
    /// derated — the baseline the delta is measured against.
    before: f64,
    /// The arrival model's ideal rate on this shard's board.
    arrival_ideal: f64,
    /// The shard's served fraction of nominal speed at probe time. Both
    /// sides of the delta and the arrival's potential scale by it (a
    /// throttled board serves every candidate proportionally slower), so
    /// throttled shards bid lower and the admission floor judges the
    /// *served* potential. Deliberately not part of the dedup `key`: the
    /// memo caches raw oracle predictions, which are throttle-invariant.
    derate: f64,
    /// Dedup fingerprint: two probes of the same group with equal keys
    /// are the identical oracle question (same trial set, same survivor
    /// placements, same weights) and share one evaluation under fused
    /// scoring.
    pub(crate) key: Vec<u8>,
}

impl Probe {
    /// Folds the oracle's candidate predictions into a shard score:
    /// `(best normalized-potential delta, arrival's predicted potential
    /// under the best candidate)`.
    pub(crate) fn fold(
        &self,
        ideals: &HashMap<ModelId, f64>,
        admission_floor: f64,
        predictions: &[Vec<f64>],
    ) -> Option<(f64, f64)> {
        // Prefer the best-scoring candidate that clears the admission
        // floor; only when *no* component placement clears it does the
        // shard report a below-floor arrival (and get skipped by
        // `place`). Judging the floor on the single best-total candidate
        // would reject arrivals a slightly-lower-scoring component could
        // serve fine.
        let mut best_any: Option<(f64, f64)> = None;
        let mut best_clearing: Option<(f64, f64)> = None;
        for per_dnn in predictions {
            let arrival_pot =
                self.derate * per_dnn.last().copied().unwrap_or(0.0) / self.arrival_ideal;
            let score =
                self.derate * weighted_potential(ideals, &self.trial, per_dnn, &self.weights);
            if best_any.is_none_or(|(b, _)| score > b) {
                best_any = Some((score, arrival_pot));
            }
            if arrival_pot >= admission_floor
                && best_clearing.is_none_or(|(b, _)| score > b)
            {
                best_clearing = Some((score, arrival_pot));
            }
        }
        best_clearing
            .or(best_any)
            .map(|(score, arrival_pot)| (score - self.before, arrival_pot))
    }
}

impl<O: ThroughputOracle> Shard<'_, O> {
    /// Prepares the placement probe of this shard (index `s`) for an
    /// arriving `model`: trial workload, per-component candidates,
    /// weights, and the shard's baseline score. `None` if the shard is at
    /// capacity. This is the per-shard half of scoring — the expensive
    /// workload construction — and runs on the executor's worker pool.
    pub(crate) fn build_probe(
        &mut self,
        s: usize,
        model: ModelId,
        max_per_shard: usize,
    ) -> Option<Probe> {
        if self.is_down() || self.live_len() >= max_per_shard {
            return None;
        }
        let derate = self.throttle();
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
                let per_dnn = self.predict_incumbent(&state.0, &state.1);
                let (workload, incumbent) = (&state.0, &state.1);
                // Derated like the candidates in `fold`, so the delta
                // compares served scores on both sides.
                let score = derate
                    * weighted_potential(
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
        // Fingerprint the oracle question for fused dedup: model ids,
        // survivor placements, and the weight vector pin the answer.
        let mut key = Vec::with_capacity(trial.len() * 9 + survivors.len() * 8);
        for m in trial.models() {
            key.push(m.id() as u8);
        }
        for assign in &survivors {
            key.push(0xFF);
            key.extend(assign.iter().map(|c| c.index() as u8));
        }
        for w in &weights {
            key.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        Some(Probe {
            shard: s,
            group: self.group,
            trial,
            candidates,
            weights,
            before,
            arrival_ideal,
            derate,
            key,
        })
    }
}

impl<'p, O: ThroughputOracle> FleetExecutor<'p, O> {
    /// Scores placing `model` on every shard: `scores[s]` is the shard's
    /// `(normalized potential delta, arrival potential)` — the router's
    /// decision inputs — or `None` for shards at capacity. Potentials are
    /// fractions of each shard's *own* board ideal, so the numbers are
    /// comparable across a mixed fleet.
    pub(crate) fn probe_scores(&mut self, model: ModelId) -> Vec<Option<(f64, f64)>> {
        self.probe_scores_excluding(model, None)
    }

    /// [`FleetExecutor::probe_scores`] with an optional shard left out
    /// entirely (no probe built, no oracle question) — the rebalancer
    /// scores a victim's destinations this way so the source shard never
    /// costs an evaluation it is about to discard.
    ///
    /// Probe building fans across the worker pool (one worker per shard);
    /// memo lookups, the grouped oracle calls, and folding run serially
    /// at the barrier, in canonical shard order, so fused/serial and
    /// sequential/threaded execution all produce bit-identical scores.
    pub(crate) fn probe_scores_excluding(
        &mut self,
        model: ModelId,
        exclude: Option<usize>,
    ) -> Vec<Option<(f64, f64)>> {
        let max_per_shard = self.config.max_per_shard;
        let floor = self.config.admission_floor;
        // Indexed mode probes one representative per shard-state class
        // and broadcasts its score to the rest of the class afterwards
        // (equal-state shards fold to bit-identical scores — see
        // `crate::index`). `None` = full fan-out.
        let rep_mask: Option<Vec<bool>> = if self.config.indexed_placement {
            let refile = self.telemetry.stage(stage::INDEX_REFILE);
            let refiled = self.index.refresh(&mut self.shards);
            self.telemetry.finish(refile);
            self.telemetry.count("fleet_index_refiled_total", refiled as u64);
            Some(self.index.representative_mask(exclude))
        } else {
            None
        };
        let build = self.telemetry.stage(stage::PROBE_BUILD);
        let probes: Vec<Option<Probe>> = self.for_each_shard(|s, shard| {
            if Some(s) == exclude || rep_mask.as_ref().is_some_and(|mask| !mask[s]) {
                None
            } else {
                shard.build_probe(s, model, max_per_shard)
            }
        });
        self.telemetry.finish(build);
        self.telemetry
            .count("fleet_probes_built_total", probes.iter().flatten().count() as u64);
        let scoring = self.telemetry.stage(stage::FUSED_SCORING);
        let mut scores: Vec<Option<(f64, f64)>> = vec![None; self.shards.len()];
        if !self.config.fused_scoring {
            // Serial reference: one predict_batch round-trip per shard.
            for probe in probes.iter().flatten() {
                let shard = &self.shards[probe.shard];
                let predictions =
                    shard.oracle.predict_batch(&probe.trial, &probe.candidates);
                scores[probe.shard] = probe.fold(shard.ideals(), floor, &predictions);
            }
            self.telemetry.finish(scoring);
            if rep_mask.is_some() {
                let copied = self.index.broadcast(exclude, &mut scores);
                self.telemetry.count("fleet_index_broadcast_total", copied as u64);
            }
            return scores;
        }
        for g in 0..self.group_oracles.len() {
            // Deduplicate this group's probes against the cross-event
            // memo and against each other: every distinct oracle question
            // is asked exactly once.
            let members: Vec<&Probe> =
                probes.iter().flatten().filter(|p| p.group == g).collect();
            if members.is_empty() {
                continue;
            }
            let mut unique: Vec<&Probe> = Vec::new();
            let mut answer_of: HashMap<&[u8], Result<Vec<Vec<f64>>, usize>> = HashMap::new();
            // Answer per member: Ok(memoized predictions) or Err(slot
            // into the unique list awaiting this event's grouped call).
            // The memo is consulted once per *unique* fingerprint, so its
            // hit/miss counters report oracle questions saved/asked — not
            // one miss per shard sharing a deduplicated question.
            let memo = &mut self.probe_memo;
            let pending: Vec<Result<Vec<Vec<f64>>, usize>> = members
                .iter()
                .map(|probe| {
                    answer_of
                        .entry(probe.key.as_slice())
                        .or_insert_with(|| match memo.get(g, &probe.key) {
                            Some(hit) => Ok(hit),
                            None => {
                                unique.push(probe);
                                Err(unique.len() - 1)
                            }
                        })
                        .clone()
                })
                .collect();
            let queries: Vec<(&Workload, &[Mapping])> = unique
                .iter()
                .map(|p| (p.trial.as_ref(), p.candidates.as_slice()))
                .collect();
            let predictions = self.group_oracles[g].predict_grouped(&queries);
            for (probe, answer) in unique.iter().zip(&predictions) {
                self.probe_memo.insert(g, probe.key.clone(), answer.clone());
            }
            for (probe, answer) in members.iter().zip(&pending) {
                let predictions = match answer {
                    Ok(memoized) => memoized,
                    Err(slot) => &predictions[*slot],
                };
                scores[probe.shard] =
                    probe.fold(self.shards[probe.shard].ideals(), floor, predictions);
            }
        }
        self.telemetry.finish(scoring);
        if rep_mask.is_some() {
            let copied = self.index.broadcast(exclude, &mut scores);
            self.telemetry.count("fleet_index_broadcast_total", copied as u64);
        }
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

    fn answer(v: f64) -> Vec<Vec<f64>> {
        vec![vec![v]]
    }

    #[test]
    fn memo_evicts_least_recently_used_first() {
        let mut memo = ProbeMemo::new(1, 2);
        memo.insert(0, vec![0], answer(0.0));
        memo.insert(0, vec![1], answer(1.0));
        // Touch key 0 so it moves back to the young generation...
        assert_eq!(memo.get(0, &[0]), Some(answer(0.0)));
        // ...and inserting key 2 must drop key 1 with the old one, not 0.
        memo.insert(0, vec![2], answer(2.0));
        assert_eq!(memo.len(), 2);
        assert!(memo.get(0, &[0]).is_some(), "recently used survives");
        assert!(memo.get(0, &[2]).is_some(), "new entry present");
        assert!(memo.get(0, &[1]).is_none(), "the untouched entry was evicted");
    }

    #[test]
    fn memo_bound_spans_all_groups() {
        // The capacity bounds the *total* across groups, and the
        // generations turn over for all groups at once: the oldest entry
        // goes, whichever group holds it.
        let mut memo = ProbeMemo::new(2, 2);
        memo.insert(0, vec![0], answer(0.0));
        memo.insert(1, vec![1], answer(1.0));
        memo.insert(1, vec![2], answer(2.0));
        assert_eq!(memo.len(), 2);
        assert!(memo.get(0, &[0]).is_none(), "group 0's entry was the oldest");
        assert!(memo.get(1, &[1]).is_some());
        assert!(memo.get(1, &[2]).is_some());
    }

    #[test]
    fn memo_hits_refresh_recency_and_count() {
        let mut memo = ProbeMemo::new(1, 8);
        memo.insert(0, vec![9], answer(9.0));
        assert_eq!(memo.stats(), MemoStats::new());
        assert!(memo.get(0, &[9]).is_some());
        assert!(memo.get(0, &[8]).is_none());
        assert_eq!(memo.stats(), MemoStats { hits: 1, misses: 1 });
    }

    #[test]
    fn memo_stays_bounded_and_keeps_answers_in_use() {
        for capacity in [1, 3, 64] {
            let mut memo = ProbeMemo::new(2, capacity);
            memo.insert(0, vec![0], answer(0.0));
            for i in 1..10 * capacity as u32 {
                memo.insert((i % 2) as usize, i.to_le_bytes().to_vec(), answer(f64::from(i)));
                assert!(memo.len() <= capacity, "{} entries past {capacity}", memo.len());
                if capacity > 1 {
                    assert_eq!(memo.get(0, &[0]), Some(answer(0.0)), "an answer in use survives");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probe_memo_capacity")]
    fn zero_capacity_memo_is_rejected_loudly() {
        let _ = ProbeMemo::new(1, 0);
    }
}
