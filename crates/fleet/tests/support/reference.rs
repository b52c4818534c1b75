//! Reference placement paths for the bit-identity suites: every shard is
//! scored by its own probe, one `predict_batch` call and a direct fold,
//! and the worst-loaded shard is found by a full scan. The production
//! path — one question per shard state, the score memo, grouped oracle
//! calls and the health index — must reproduce these byte for byte
//! (`tests/indexed.rs`, `tests/parallel.rs`, and the unit tests below).
//!
//! This file is test support with access to crate internals: `lib.rs`
//! compiles it into the crate as the `reference` module, only for the
//! crate's own tests (the `reference` feature, which the crate's test
//! targets turn on through a dev-dependency on the crate itself).

use crate::executor::FleetExecutor;
use crate::FleetRuntime;
use rankmap_core::oracle::ThroughputOracle;
use rankmap_models::ModelId;

impl<O: ThroughputOracle> FleetRuntime<'_, O> {
    /// Switches this fleet to the reference placement paths: a probe and
    /// a `predict_batch` call per shard, and a full health scan. For
    /// bit-identity tests only; decisions are identical, only slower.
    #[doc(hidden)]
    pub fn with_reference_placement(mut self) -> Self {
        self.executor.reference_placement = true;
        self
    }
}

impl<O: ThroughputOracle> FleetExecutor<'_, O> {
    /// Every shard's score from its own probe: the serial scorer.
    pub(crate) fn reference_probe_scores(
        &mut self,
        model: ModelId,
        exclude: Option<usize>,
    ) -> Vec<Option<(f64, f64)>> {
        let max_per_shard = self.config.max_per_shard;
        let floor = self.config.admission_floor;
        let probes = self.for_each_shard(|s, shard| {
            (Some(s) != exclude && !shard.is_down() && shard.live_len() < max_per_shard)
                .then(|| shard.build_probe(s, model))
        });
        probes
            .iter()
            .zip(&self.shards)
            .map(|(probe, shard)| {
                let probe = probe.as_ref()?;
                let derate = shard.throttle();
                let predictions = shard.oracle.predict_batch(&probe.trial, &probe.candidates);
                let before = derate * probe.before;
                let mut best_any: Option<(f64, f64)> = None;
                let mut best_clearing: Option<(f64, f64)> = None;
                for per_dnn in &predictions {
                    let arrival_pot =
                        derate * per_dnn.last().copied().unwrap_or(0.0) / probe.arrival_ideal;
                    let score = derate * probe.candidate_potential(shard.ideals(), per_dnn);
                    if best_any.is_none_or(|(b, _)| score > b) {
                        best_any = Some((score, arrival_pot));
                    }
                    if arrival_pot >= floor && best_clearing.is_none_or(|(b, _)| score > b) {
                        best_clearing = Some((score, arrival_pot));
                    }
                }
                best_clearing.or(best_any).map(|(score, pot)| (score - before, pot))
            })
            .collect()
    }

    /// The worst loaded shard by a full scan of every shard's mean
    /// potential (first-minimal on ties).
    pub(crate) fn reference_worst_loaded(&mut self) -> Option<(usize, f64)> {
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
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::FleetExecutor;
    use crate::{FleetConfig, FleetSpec, MemoStats, Parallelism, TelemetrySpec};
    use rankmap_core::manager::ManagerConfig;
    use rankmap_core::oracle::AnalyticalOracle;
    use rankmap_core::priority::PriorityMode;
    use rankmap_core::runtime::DynamicEvent;
    use rankmap_models::ModelId;
    use rankmap_platform::Platform;

    fn sequential() -> FleetConfig {
        FleetConfig {
            manager: ManagerConfig {
                mcts_iterations: 40,
                warm_iterations: 20,
                ..Default::default()
            },
            parallelism: Parallelism::Sequential,
            ..Default::default()
        }
    }

    fn bits(scores: &[Option<(f64, f64)>]) -> Vec<Option<(u64, u64)>> {
        scores.iter().map(|s| s.map(|(d, p)| (d.to_bits(), p.to_bits()))).collect()
    }

    #[test]
    fn throttled_memo_hit_folds_to_the_fresh_probes_bits() {
        // Four shards in one state at four throttles, and a fifth in a
        // state of its own. Every shard in the shared state folds the
        // terms one probe produced (and, on the second call, a memo hit)
        // with its own derate, and must match a probe built and folded
        // for it directly, bit for bit.
        let p = Platform::orange_pi_5();
        let o = AnalyticalOracle::new(&p);
        let spec = FleetSpec::homogeneous(&p, &o, 5);
        let config = FleetConfig { telemetry: TelemetrySpec::on(), ..sequential() };
        let mut fleet = FleetExecutor::new(&spec, config);
        for (s, shard) in fleet.shards.iter_mut().enumerate() {
            let model = if s == 4 { ModelId::MobileNetV2 } else { ModelId::ResNet50 };
            shard.apply(0.0, &[DynamicEvent::arrive(0.0, model)]);
        }
        for (s, throttle) in [(1, 0.6), (2, 0.8), (3, 0.9)] {
            fleet.shards[s].set_throttle(1.0, throttle);
        }
        let shared = fleet.shards[0].state_key();
        assert!((1..4).all(|s| fleet.shards[s].state_key() == shared));
        assert_ne!(fleet.shards[4].state_key(), shared);
        let counter = |fleet: &FleetExecutor<'_, _>, key| {
            let snapshot = fleet.telemetry.snapshot(&fleet.score_memo, &fleet.shards, None, None);
            snapshot.expect("telemetry is on").registry.counter(key)
        };

        // The unique state's shard is excluded: its state costs no memo
        // lookup, and the shared state builds exactly one probe.
        let fresh = fleet.reference_probe_scores(ModelId::AlexNet, Some(4));
        for a in 0..4 {
            for b in a + 1..4 {
                assert_ne!(fresh[a], fresh[b], "the throttle must move the score");
            }
        }
        let first = fleet.probe_scores_excluding(ModelId::AlexNet, Some(4));
        assert_eq!(fleet.score_memo.stats(), MemoStats { hits: 0, misses: 1 });
        assert_eq!(counter(&fleet, "fleet_probes_built_total"), 1);
        assert_eq!(counter(&fleet, "fleet_index_broadcast_total"), 3);
        assert_eq!(first[4], None);
        assert_eq!(bits(&first), bits(&fresh));

        // A shared-state shard is excluded: the next shard in that state
        // answers from the memo; only the unique state is a new question.
        let fresh = fleet.reference_probe_scores(ModelId::AlexNet, Some(0));
        let second = fleet.probe_scores_excluding(ModelId::AlexNet, Some(0));
        assert_eq!(fleet.score_memo.stats(), MemoStats { hits: 1, misses: 2 });
        assert_eq!(counter(&fleet, "fleet_probes_built_total"), 2);
        assert_eq!(counter(&fleet, "fleet_index_broadcast_total"), 5);
        assert_eq!(second[0], None);
        assert_eq!(bits(&second), bits(&fresh));
    }

    #[test]
    fn a_static_vector_for_the_trial_is_a_new_question() {
        // The priority tag is part of the key exactly when the static
        // vector applies to the trial (live set + arrival): then the
        // weights change and the question is new; a vector of another
        // length falls back to dynamic ranks and hits the dynamic entry.
        let p = Platform::orange_pi_5();
        let o = AnalyticalOracle::new(&p);
        let spec = FleetSpec::homogeneous(&p, &o, 1);
        let mut fleet = FleetExecutor::new(&spec, sequential());
        fleet.shards[0].apply(0.0, &[DynamicEvent::arrive(0.0, ModelId::ResNet50)]);
        let expect = |fleet: &mut FleetExecutor<'_, _>, mode, stats| {
            fleet.shards[0].mapper.set_mode(mode);
            let fresh = fleet.reference_probe_scores(ModelId::AlexNet, None);
            let scores = fleet.probe_scores(ModelId::AlexNet);
            assert_eq!(bits(&scores), bits(&fresh));
            assert_eq!(fleet.score_memo.stats(), stats);
            scores
        };
        let dynamic = expect(&mut fleet, PriorityMode::Dynamic, MemoStats { hits: 0, misses: 1 });
        let stat =
            expect(&mut fleet, PriorityMode::critical(2, 1), MemoStats { hits: 0, misses: 2 });
        assert_ne!(dynamic, stat, "the static vector must move the score");
        expect(&mut fleet, PriorityMode::critical(3, 1), MemoStats { hits: 1, misses: 2 });
    }
}
