//! The simulated board a group of serving sessions shares: one event
//! engine, the per-model ideal rates measured on it, and a bounded memo
//! of the engine's throughput reports. The board also carries the
//! analytical estimate of the same platform, which scores migration
//! decisions for mappers that bring no estimator of their own.
//!
//! [`EventEngine::evaluate`] is a pure function of the platform, the
//! engine's window and contention parameters, the workload's models in
//! order, and the mapping. Every session opened on a [`SharedBoard`]
//! evaluates through the same engine, so a report computed for one of
//! them answers the same question for all of them. A fleet of identical
//! boards asks the same questions over and over (Zipf-popular mixes
//! recur across shards and over time), and each answer is a
//! 12-virtual-second discrete-event simulation.
//!
//! The memo key is exact: the model ids in workload order, then each
//! DNN's assignment run-length encoded. It is neither a hash-only
//! fingerprint nor canonicalized under DNN permutation, because the
//! simulator's tie order depends on DNN order. A thermal derate is
//! applied by the session after evaluation and is not part of the key.
//! The memo lives exactly as long as its board: a fleet builds one board
//! per platform group, and a standalone session gets its own.

use rankmap_models::ModelId;
use rankmap_platform::Platform;
use rankmap_sim::{
    AnalyticalEngine, EventEngine, GenerationalMap, Mapping, ThroughputReport, Workload,
};
use rankmap_telemetry::MemoStats;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Reports a [`SharedBoard`] memoizes at most. An entry is a key of a few
/// dozen 16-bit words plus one rate per DNN, about 200 bytes with the
/// table's own share, so a full memo holds under a megabyte. Eviction
/// is generational and O(1) amortized (see `docs/runtime.md`).
pub const REPORT_MEMO_BOUND: usize = 4_096;

/// One board type as a group of sessions sees it: the engine that
/// simulates it, the ideal rates that normalize its potentials, and the
/// memo of its reports (see the module docs). Built by
/// [`crate::runtime::DynamicRuntime::board`] and shared behind an `Arc`;
/// it is `Send + Sync`.
pub struct SharedBoard<'p> {
    engine: EventEngine<'p>,
    estimate: AnalyticalEngine<'p>,
    ideals: HashMap<ModelId, f64>,
    memo: ReportMemo,
}

impl<'p> SharedBoard<'p> {
    /// A board simulated by `engine`, with `ideals` measured on it (one
    /// entry per model that may arrive) and an empty report memo.
    pub(crate) fn new(engine: EventEngine<'p>, ideals: HashMap<ModelId, f64>) -> Self {
        let estimate = AnalyticalEngine::new(engine.platform());
        Self { engine, estimate, ideals, memo: ReportMemo::default() }
    }

    /// The platform the board simulates.
    pub(crate) fn platform(&self) -> &'p Platform {
        self.engine.platform()
    }

    /// Per-model ideal rates measured on this board.
    pub fn ideals(&self) -> &HashMap<ModelId, f64> {
        &self.ideals
    }

    /// Hit/miss counters of the report memo since construction. Sessions
    /// on different threads can miss the same key at the same time (both
    /// simulate, both count a miss), so the split depends on scheduling;
    /// the reports themselves never do.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// The analytical contention model's per-DNN throughput for `mapping`:
    /// a closed-form estimate of what the board would measure, without
    /// simulating.
    pub(crate) fn estimate(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        self.estimate.evaluate(workload, mapping).per_dnn
    }

    /// [`EventEngine::evaluate`], answered from the memo when this board
    /// has simulated the same question before. The workload must be built
    /// from registry models ([`Workload::from_ids`]): the key names models
    /// by id.
    pub(crate) fn evaluate(&self, workload: &Workload, mapping: &Mapping) -> ThroughputReport {
        let Some(key) = memo_key(workload, mapping) else {
            return self.engine.evaluate(workload, mapping);
        };
        if let Some(report) = self.memo.get(&key) {
            return report;
        }
        // The lock is not held here: a racing miss on the same key only
        // simulates the same pure function twice.
        let report = self.engine.evaluate(workload, mapping);
        self.memo.insert(key, report.clone());
        report
    }
}

/// The exact memo key: per DNN, its model id, its run count, then each
/// run of its assignment as `(component, length)`. `None` (evaluate
/// without the memo) when a number does not fit a key word, which no
/// registry model on a real board comes near.
fn memo_key(workload: &Workload, mapping: &Mapping) -> Option<Box<[u16]>> {
    let word = |n: usize| u16::try_from(n).ok();
    let mut key = Vec::with_capacity(8 * workload.len());
    for (d, model) in workload.models().iter().enumerate() {
        key.push(model.id() as u16);
        let count_at = key.len();
        key.push(0);
        let mut runs = 0;
        for run in mapping.assignment(d).chunk_by(|a, b| a == b) {
            key.push(word(run[0].index())?);
            key.push(word(run.len())?);
            runs += 1;
        }
        key[count_at] = word(runs)?;
    }
    Some(key.into_boxed_slice())
}

/// A bounded, thread-safe memo of throughput reports with O(1) amortized
/// generational eviction ([`GenerationalMap`]), so a report in use
/// survives. The mutex is held for a lookup or an insert, never during a
/// simulation.
struct ReportMemo {
    inner: Mutex<Reports>,
}

struct Reports {
    map: GenerationalMap<Box<[u16]>, ThroughputReport>,
    hits: u64,
    misses: u64,
}

impl Default for ReportMemo {
    fn default() -> Self {
        let map = GenerationalMap::new(REPORT_MEMO_BOUND);
        Self { inner: Mutex::new(Reports { map, hits: 0, misses: 0 }) }
    }
}

impl ReportMemo {
    fn lock(&self) -> std::sync::MutexGuard<'_, Reports> {
        // Every critical section leaves the maps consistent, so a panic
        // elsewhere cannot have poisoned anything that matters.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &[u16]) -> Option<ThroughputReport> {
        let mut g = self.lock();
        let report = g.map.get(key);
        if report.is_some() {
            g.hits += 1;
        } else {
            g.misses += 1;
        }
        report
    }

    fn insert(&self, key: Box<[u16]>, report: ThroughputReport) {
        self.lock().map.insert(key, report);
    }

    fn stats(&self) -> MemoStats {
        let g = self.lock();
        MemoStats { hits: g.hits, misses: g.misses }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rankmap_platform::ComponentId;

    fn board(p: &Platform) -> SharedBoard<'_> {
        SharedBoard::new(EventEngine::quick(p), HashMap::new())
    }

    fn bits(r: &ThroughputReport) -> Vec<u64> {
        r.per_dnn.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shared_board_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedBoard<'static>>();
    }

    #[test]
    fn a_hit_returns_the_bits_of_a_fresh_evaluation() {
        let p = Platform::orange_pi_5();
        let b = board(&p);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
        let m = Mapping::random(&w, p.component_count(), &mut StdRng::seed_from_u64(5));
        let fresh = EventEngine::quick(&p).evaluate(&w, &m);
        let miss = b.evaluate(&w, &m);
        let hit = b.evaluate(&w, &m);
        assert_eq!(bits(&miss), bits(&fresh));
        assert_eq!(bits(&hit), bits(&fresh));
        assert_eq!(b.memo_stats(), MemoStats { hits: 1, misses: 1 });
    }

    #[test]
    fn permuted_models_and_other_assignments_are_distinct_entries() {
        let p = Platform::orange_pi_5();
        let b = board(&p);
        let gpu = ComponentId::new(0);
        let ab = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
        let ba = Workload::from_ids([ModelId::ResNet50, ModelId::AlexNet]);
        b.evaluate(&ab, &Mapping::uniform(&ab, gpu));
        b.evaluate(&ba, &Mapping::uniform(&ba, gpu));
        b.evaluate(&ab, &Mapping::uniform(&ab, ComponentId::new(1)));
        // One unit moved: same runs count, different run lengths.
        let mut moved: Vec<Vec<ComponentId>> =
            (0..ab.len()).map(|d| Mapping::uniform(&ab, gpu).assignment(d).to_vec()).collect();
        let last = moved[0].len() - 1;
        moved[0][last] = ComponentId::new(1);
        b.evaluate(&ab, &Mapping::new(moved));
        assert_eq!(b.memo_stats(), MemoStats { hits: 0, misses: 4 });
        assert_eq!(b.memo.len(), 4);
    }

    #[test]
    fn keys_are_exact_run_length_encodings() {
        let w = Workload::from_ids([ModelId::AlexNet]);
        let units = w.models()[0].unit_count() as u16;
        let (c0, c2) = (ComponentId::new(0), ComponentId::new(2));
        let mut assign = vec![c0; units as usize];
        assign[1] = c2;
        assign[2] = c2;
        let key = memo_key(&w, &Mapping::new(vec![assign])).expect("fits");
        assert_eq!(&*key, &[ModelId::AlexNet as u16, 3, 0, 1, 2, 2, 0, units - 3]);
    }

    #[test]
    fn eviction_at_the_bound_keeps_results_bit_identical() {
        // Overfill the memo with synthetic entries, then check real
        // questions still come back exact whether they were evicted or
        // not.
        let p = Platform::orange_pi_5();
        let b = board(&p);
        let w = Workload::from_ids([ModelId::SqueezeNet, ModelId::MobileNet]);
        let mut rng = StdRng::seed_from_u64(11);
        let mappings: Vec<Mapping> =
            (0..3).map(|_| Mapping::random(&w, p.component_count(), &mut rng)).collect();
        let fresh: Vec<Vec<u64>> =
            mappings.iter().map(|m| bits(&EventEngine::quick(&p).evaluate(&w, m))).collect();
        for m in &mappings {
            b.evaluate(&w, m);
        }
        for i in 0..3 * REPORT_MEMO_BOUND as u16 {
            b.memo.insert(vec![u16::MAX, i].into_boxed_slice(), ThroughputReport::new(vec![0.0]));
            assert!(b.memo.len() <= REPORT_MEMO_BOUND, "the memo must stay bounded");
        }
        for (m, want) in mappings.iter().zip(&fresh) {
            assert_eq!(&bits(&b.evaluate(&w, m)), want, "an evicted report recomputes exactly");
        }
        let stats = b.memo_stats();
        assert_eq!(stats.misses, 6, "evicted entries are simulated again: {stats:?}");
        // Re-asked right away, they are hits again.
        for (m, want) in mappings.iter().zip(&fresh) {
            assert_eq!(&bits(&b.evaluate(&w, m)), want);
        }
        assert_eq!(b.memo_stats().hits, 3);
    }

    #[test]
    fn an_entry_in_use_survives_generation_turns() {
        let p = Platform::orange_pi_5();
        let b = board(&p);
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::uniform(&w, ComponentId::new(0));
        b.evaluate(&w, &m);
        for i in 0..4 * REPORT_MEMO_BOUND as u16 {
            b.memo.insert(vec![u16::MAX, i].into_boxed_slice(), ThroughputReport::new(vec![0.0]));
            if i % 1_000 == 0 {
                b.evaluate(&w, &m);
            }
        }
        assert_eq!(b.memo_stats().misses, 1, "a report asked for regularly is never evicted");
    }
}
