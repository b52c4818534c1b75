//! The incremental health index: the rebalancer's and overload guard's
//! "worst loaded shard" question read in O(log S), bit-identical to the
//! full scan kept as a reference for the conformance suites.
//!
//! Shards eligible for the question (up, ≥ 2 live instances) are kept in
//! a `BTreeSet` ordered by `(mean_potential as order-preserving bits,
//! shard index)`; its first element *is* the `min_by(total_cmp)` answer
//! of a full scan — including the first-minimal tie-break on shard index
//! — read instead of one oracle prediction per shard per event. The
//! order is maintained lazily from per-shard epoch counters (every
//! [`Shard::apply`] and every `mark_down` bumps the epoch), so a refresh
//! only recomputes the handful of shards an event actually touched.
//! `crates/fleet/tests/indexed.rs` property-tests decision bit-identity
//! against the full-scan reference.

use crate::shard::Shard;
use rankmap_core::oracle::ThroughputOracle;
use std::collections::BTreeSet;

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

/// The incremental health order. See the module docs for the design and
/// the bit-identity argument.
pub(crate) struct HealthIndex {
    /// `(ordered_bits(mean), shard)` for every health-eligible shard;
    /// the first element is the worst loaded shard.
    health: BTreeSet<(u64, usize)>,
    /// Per-shard health entry backing `health` (`bits` for removal, the
    /// raw mean for callers).
    health_val: Vec<Option<(u64, f64)>>,
    /// Last shard epoch folded into the index (`None` = never seen).
    seen_epoch: Vec<Option<u64>>,
}

impl HealthIndex {
    /// An empty index over `shards` shards; the first `refresh` files
    /// everything.
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            health: BTreeSet::new(),
            health_val: vec![None; shards],
            seen_epoch: vec![None; shards],
        }
    }

    /// Folds every shard whose epoch moved since the last refresh back
    /// into the order. Runs serially at the event barrier — the
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
