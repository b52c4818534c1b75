//! The incremental shard-state index: sublinear admission probing and an
//! O(log S) health read, bit-identical to the full scans kept as
//! references for the conformance suites.
//!
//! Two structures, both maintained lazily from per-shard epoch counters
//! (every [`Shard::apply`] and every `mark_down` bumps the epoch, so a
//! refresh only recomputes the handful of shards an event actually
//! touched):
//!
//! - **Placement classes.** Every *up* shard is filed under its class
//!   key, [`Shard::state_key`] plus the throttle bits, which pins all
//!   inputs of `build_probe`: platform group, throttle, live model ids in
//!   live order, and per-instance placements. Two shards with equal keys
//!   fold to bit-identical `(delta, arrival_pot)` scores — so placement
//!   scores one **class representative** (the lowest member index,
//!   honoring the caller's exclusion) and broadcasts its score to the
//!   rest of the class. In a large fleet most shards are idle or carry
//!   one of a few popular live sets, so placement work scales with the
//!   number of *distinct shard states*, not the shard count. Class keys
//!   never include the mapper's priority mode: the executor only ever
//!   changes mode through a fleet-wide `SetPriorities` broadcast, so the
//!   mode is uniform across shards by construction.
//! - **Health order.** Shards eligible for the rebalancer/overload-guard
//!   question (up, ≥ 2 live instances) are kept in a `BTreeSet` ordered by
//!   `(mean_potential as order-preserving bits, shard index)`; its first
//!   element *is* the `min_by(total_cmp)` answer of a full scan —
//!   including the first-minimal tie-break on shard index — read in
//!   O(log S) instead of one oracle prediction per shard per event.
//!
//! Downstream argmax/argmin selection code is unchanged, so every
//! tie-break (first-max admission, last-max rebalance destination) is
//! preserved automatically; `crates/fleet/tests/indexed.rs` property-tests
//! decision bit-identity against the full-scan reference.

use crate::shard::Shard;
use rankmap_core::oracle::ThroughputOracle;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A placement class: the shard's state key and its throttle bits.
type ClassKey = (Arc<[u8]>, u64);

/// Maps an `f64` to bits whose unsigned order equals `f64::total_cmp`
/// order (sign-folded IEEE trick: negatives reverse, positives shift
/// above them — `-0.0` still sorts before `+0.0`).
fn ordered_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The incremental index: placement equivalence classes + health order.
/// See the module docs for the design and the bit-identity argument.
pub(crate) struct PlacementIndex {
    /// Class key → member shards, ordered (deterministic iteration).
    classes: BTreeMap<ClassKey, BTreeSet<usize>>,
    /// Per-shard current class key (`None` = down, unfiled).
    shard_key: Vec<Option<ClassKey>>,
    /// `(ordered_bits(mean), shard)` for every health-eligible shard;
    /// the first element is the worst loaded shard.
    health: BTreeSet<(u64, usize)>,
    /// Per-shard health entry backing `health` (`bits` for removal, the
    /// raw mean for callers).
    health_val: Vec<Option<(u64, f64)>>,
    /// Last shard epoch folded into the index (`None` = never seen).
    seen_epoch: Vec<Option<u64>>,
}

impl PlacementIndex {
    /// An empty index over `shards` shards; the first `refresh` files
    /// everything.
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            classes: BTreeMap::new(),
            shard_key: vec![None; shards],
            health: BTreeSet::new(),
            health_val: vec![None; shards],
            seen_epoch: vec![None; shards],
        }
    }

    /// Folds every shard whose epoch moved since the last refresh back
    /// into both structures. Runs serially at the event barrier — the
    /// sweep is a cheap integer compare per untouched shard, and an event
    /// only ever touches a handful of shards. Returns how many shards
    /// were refiled (telemetry's `fleet_index_refiled_total`; the count
    /// plays no part in any decision).
    pub(crate) fn refresh<O: ThroughputOracle>(
        &mut self,
        shards: &mut [Shard<'_, O>],
    ) -> usize {
        let mut refiled = 0;
        for (s, shard) in shards.iter_mut().enumerate() {
            if self.seen_epoch[s] == Some(shard.epoch()) {
                continue;
            }
            refiled += 1;
            self.seen_epoch[s] = Some(shard.epoch());
            let new_key = shard.state_key().map(|k| (k, shard.throttle().to_bits()));
            if new_key != self.shard_key[s] {
                if let Some(old) = self.shard_key[s].take() {
                    if let Some(members) = self.classes.get_mut(&old) {
                        members.remove(&s);
                        if members.is_empty() {
                            self.classes.remove(&old);
                        }
                    }
                }
                if let Some(key) = &new_key {
                    self.classes.entry(key.clone()).or_default().insert(s);
                }
                self.shard_key[s] = new_key;
            }
            let eligible = !shard.is_down() && shard.live_len() >= 2;
            let entry = eligible
                .then(|| shard.mean_potential())
                .flatten()
                .map(|v| (ordered_bits(v), v));
            if entry.map(|(b, _)| b) != self.health_val[s].map(|(b, _)| b) {
                if let Some((old_bits, _)) = self.health_val[s] {
                    self.health.remove(&(old_bits, s));
                }
                if let Some((bits, _)) = entry {
                    self.health.insert((bits, s));
                }
            }
            self.health_val[s] = entry;
        }
        refiled
    }

    /// The state key shard `s` was last filed under (`None` = down).
    pub(crate) fn state_key(&self, s: usize) -> Option<&Arc<[u8]>> {
        self.shard_key[s].as_ref().map(|(state, _)| state)
    }

    /// `mask[s]` iff shard `s` is its class's representative — the lowest
    /// member index not named by `exclude`. A class whose only member is
    /// excluded fields no probe (exactly the full scan's behavior: the
    /// excluded shard is skipped, and no other shard shares its state).
    pub(crate) fn representative_mask(&self, exclude: Option<usize>) -> Vec<bool> {
        let mut mask = vec![false; self.shard_key.len()];
        for members in self.classes.values() {
            if let Some(&rep) = members.iter().find(|&&m| Some(m) != exclude) {
                mask[rep] = true;
            }
        }
        mask
    }

    /// Copies each representative's score onto the rest of its class
    /// (skipping `exclude`). `None` broadcasts too: a capacity-full
    /// representative speaks for its equally-full classmates. Returns
    /// how many scores were copied — probe evaluations the class
    /// structure saved (telemetry only; no decision reads it).
    pub(crate) fn broadcast(
        &self,
        exclude: Option<usize>,
        scores: &mut [Option<(f64, f64)>],
    ) -> usize {
        let mut copied = 0;
        for members in self.classes.values() {
            let mut live = members.iter().filter(|&&m| Some(m) != exclude);
            let Some(&rep) = live.next() else { continue };
            let score = scores[rep];
            for &m in live {
                scores[m] = score;
                copied += 1;
            }
        }
        copied
    }

    /// The worst loaded shard `(index, mean potential)` — the health
    /// scan's `min_by(total_cmp)` answer (first-minimal on ties), read
    /// from the order's front.
    pub(crate) fn worst(&self) -> Option<(usize, f64)> {
        let &(bits, s) = self.health.iter().next()?;
        let (stored, mean) = self.health_val[s].expect("health entry backed by health_val");
        debug_assert_eq!(stored, bits);
        Some((s, mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_bits_matches_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0e-300,
            0.3,
            1.0,
            f64::INFINITY,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    ordered_bits(a).cmp(&ordered_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        assert!(ordered_bits(-0.0) < ordered_bits(0.0));
    }
}
