//! Plan cache: recurring workload sets skip the mapping search entirely.
//!
//! Serving runtimes see the same workload sets over and over — the same
//! app constellation after a restart, the same mix after a transient DNN
//! departs and re-arrives. The cache keys finished [`MappingPlan`]s by a
//! **canonical workload signature**: the multiset of model IDs (sorted),
//! the resolved priority vector in that canonical order, and the
//! starvation threshold. Because the key is canonical, a hit works for
//! *any submission order* of the same workload set: the cached plan is
//! stored in canonical order and permuted back to the caller's order on
//! the way out.
//!
//! Same-order hits are bit-identical to the plan that was inserted
//! (checked in tests): the canonical permutation round-trips exactly and
//! the payload is cloned, never recomputed.
//!
//! The cache is bounded: [`PlanCache::with_capacity`] sets an LRU limit
//! (both hits and inserts refresh recency; the least-recently-used plan
//! is evicted first), and [`PlanCache::to_json`] /
//! [`PlanCache::from_json`] snapshot it so a fleet boots serving
//! yesterday's plans. Floating-point payloads are persisted as raw IEEE
//! bit patterns, so a loaded plan is bit-identical to the plan that was
//! saved — including `-inf` rewards of disqualified fallback plans.

use crate::json::{self, Json};
use crate::manager::MappingPlan;
use crate::reward::StarvationThreshold;
use rankmap_platform::ComponentId;
use rankmap_sim::{Mapping, Workload};
use rankmap_telemetry::MemoStats;
use std::collections::HashMap;

/// Canonical identity of a (workload set, priorities, threshold) request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadSignature(Vec<u8>);

impl WorkloadSignature {
    /// Builds the signature for a workload under a resolved priority
    /// vector and threshold. `perm` must be the canonical permutation from
    /// [`canonical_order`].
    fn new(
        workload: &Workload,
        priorities: &[f64],
        threshold: StarvationThreshold,
        perm: &[usize],
    ) -> Self {
        let mut bytes = Vec::with_capacity(perm.len() * 9 + 9);
        for &i in perm {
            bytes.push(workload.models()[i].id() as u8);
            bytes.extend_from_slice(&priorities[i].to_bits().to_le_bytes());
        }
        match threshold {
            StarvationThreshold::Absolute(v) => {
                bytes.push(0);
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            StarvationThreshold::FractionOfIdeal(v) => {
                bytes.push(1);
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        WorkloadSignature(bytes)
    }

    fn to_hex(&self) -> String {
        let mut s = String::with_capacity(self.0.len() * 2);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    fn from_hex(hex: &str) -> Option<Self> {
        // Byte-offset slicing below requires ASCII (a multi-byte char
        // would split mid-character and panic, not error).
        if !hex.is_ascii() || !hex.len().is_multiple_of(2) {
            return None;
        }
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
            .collect::<Option<Vec<u8>>>()
            .map(WorkloadSignature)
    }
}

/// Canonical DNN order for a workload: indices sorted by (model ID,
/// priority bits), stably. Duplicated models with distinct priorities sort
/// deterministically, so permuting a workload never changes its signature.
pub fn canonical_order(workload: &Workload, priorities: &[f64]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..workload.len()).collect();
    perm.sort_by_key(|&i| (workload.models()[i].id(), priorities[i].to_bits()));
    perm
}

/// A cached plan, stored in canonical DNN order.
#[derive(Debug, Clone)]
struct CachedPlan {
    per_dnn_canonical: Vec<Vec<ComponentId>>,
    predicted_canonical: Vec<f64>,
    reward: f64,
    /// Logical timestamp of the last hit or insert (LRU recency).
    last_used: u64,
}

/// Maps canonical workload signatures to finished plans, with an LRU
/// capacity bound and JSON persistence. `Clone` lets one validated
/// snapshot fan out to many managers (a fleet boot) without re-parsing.
#[derive(Debug, Clone)]
pub struct PlanCache {
    plans: HashMap<WorkloadSignature, CachedPlan>,
    /// LRU bound; `usize::MAX` means unbounded.
    capacity: usize,
    /// Logical clock driving `last_used`.
    tick: u64,
    hits: u64,
    misses: u64,
    /// The [`rankmap_platform::Platform::signature`] this cache's plans
    /// were produced on (`None` for an untagged, platform-agnostic cache,
    /// e.g. a legacy snapshot). Embedded in snapshots so a plan recorded
    /// on one board type can never be imported onto another.
    platform: Option<String>,
}

/// An empty, unbounded cache (same as [`PlanCache::new`] — a derived
/// default would start at capacity 0 and evict every insert).
impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self {
            plans: HashMap::new(),
            capacity: usize::MAX,
            tick: 0,
            hits: 0,
            misses: 0,
            platform: None,
        }
    }

    /// Tags this cache with the platform signature its plans are produced
    /// on (see [`rankmap_platform::Platform::signature`]). The tag rides
    /// along in [`PlanCache::to_json`] snapshots, and
    /// [`PlanCache::validate_platform`] refuses to install a tagged
    /// snapshot onto a different board type.
    #[must_use]
    pub fn for_platform(mut self, signature: impl Into<String>) -> Self {
        self.platform = Some(signature.into());
        self
    }

    /// The platform signature this cache is tagged with, if any.
    pub fn platform(&self) -> Option<&str> {
        self.platform.as_deref()
    }

    /// Creates an empty cache that holds at most `capacity` plans,
    /// evicting the least-recently-used one past that.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot hold any plan");
        Self { capacity, ..Self::new() }
    }

    /// The LRU bound (`usize::MAX` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the LRU bound, evicting least-recently-used plans if the
    /// cache currently exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "a zero-capacity cache cannot hold any plan");
        self.capacity = capacity;
        self.evict_to_capacity();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Hit/miss counters since construction (not persisted).
    pub fn stats(&self) -> MemoStats {
        MemoStats { hits: self.hits, misses: self.misses }
    }

    /// The highest component index referenced by any cached plan (`None`
    /// when empty) — lets a loader bounds-check a snapshot against its
    /// platform before a stale plan panics at serving time.
    pub fn max_component_index(&self) -> Option<usize> {
        self.plans
            .values()
            .flat_map(|plan| plan.per_dnn_canonical.iter().flatten())
            .map(|c| c.index())
            .max()
    }

    /// Rejects the cache if any plan references a component the target
    /// platform does not have (a snapshot recorded on a bigger board, or
    /// corrupted). Every snapshot loader shares this check so no boot
    /// path can drift into accepting what another rejects.
    pub fn validate_components(&self, component_count: usize) -> Result<(), json::JsonError> {
        match self.max_component_index() {
            Some(max) if max >= component_count => Err(json::JsonError::semantic(format!(
                "snapshot references component {max} but the platform has {component_count}"
            ))),
            _ => Ok(()),
        }
    }

    /// Rejects the cache if it is tagged with a different platform
    /// signature than `signature` — a plan priced on one board type must
    /// never serve another, even when the component counts happen to line
    /// up (shape validation alone cannot tell an Orange Pi from a
    /// speed-binned clone). Untagged caches (legacy snapshots) pass and
    /// fall back to shape-based validation only.
    pub fn validate_platform(&self, signature: &str) -> Result<(), json::JsonError> {
        match self.platform.as_deref() {
            Some(tagged) if tagged != signature => Err(json::JsonError::semantic(format!(
                "plan-cache snapshot was recorded on platform '{tagged}' and cannot be \
                 imported onto '{signature}': cached plans never cross board types"
            ))),
            _ => Ok(()),
        }
    }

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn evict_to_capacity(&mut self) {
        while self.plans.len() > self.capacity {
            let Some(oldest) = self
                .plans
                .iter()
                .min_by_key(|(_, plan)| plan.last_used)
                .map(|(sig, _)| sig.clone())
            else {
                return;
            };
            self.plans.remove(&oldest);
        }
    }

    /// Looks up a plan for `workload` under a resolved priority vector and
    /// threshold, permuting the cached canonical plan back to the
    /// request's submission order. Counts a hit or a miss; a hit refreshes
    /// the entry's LRU recency.
    pub fn get(
        &mut self,
        workload: &Workload,
        priorities: &[f64],
        threshold: StarvationThreshold,
    ) -> Option<MappingPlan> {
        let perm = canonical_order(workload, priorities);
        let sig = WorkloadSignature::new(workload, priorities, threshold, &perm);
        let now = self.touch();
        let Some(cached) = self.plans.get_mut(&sig) else {
            self.misses += 1;
            return None;
        };
        cached.last_used = now;
        self.hits += 1;
        let n = workload.len();
        let mut per_dnn = vec![Vec::new(); n];
        let mut predicted = vec![0.0; n];
        for (c, &orig) in perm.iter().enumerate() {
            per_dnn[orig] = cached.per_dnn_canonical[c].clone();
            predicted[orig] = cached.predicted_canonical[c];
        }
        Some(MappingPlan {
            mapping: Mapping::new(per_dnn),
            predicted,
            reward: cached.reward,
            evaluations: 0,
        })
    }

    /// Inserts a finished plan under the workload's canonical signature,
    /// evicting the least-recently-used plan if the cache is full.
    pub fn insert(
        &mut self,
        workload: &Workload,
        priorities: &[f64],
        threshold: StarvationThreshold,
        plan: &MappingPlan,
    ) {
        let perm = canonical_order(workload, priorities);
        let sig = WorkloadSignature::new(workload, priorities, threshold, &perm);
        let now = self.touch();
        let cached = CachedPlan {
            per_dnn_canonical: perm
                .iter()
                .map(|&i| plan.mapping.assignment(i).to_vec())
                .collect(),
            predicted_canonical: perm.iter().map(|&i| plan.predicted[i]).collect(),
            reward: plan.reward,
            last_used: now,
        };
        self.plans.insert(sig, cached);
        self.evict_to_capacity();
    }

    /// Inserts only when the signature is not yet cached — first plan
    /// wins, so a reduced-budget warm plan never displaces a cold one.
    pub fn insert_if_absent(
        &mut self,
        workload: &Workload,
        priorities: &[f64],
        threshold: StarvationThreshold,
        plan: &MappingPlan,
    ) {
        let perm = canonical_order(workload, priorities);
        let sig = WorkloadSignature::new(workload, priorities, threshold, &perm);
        if self.plans.contains_key(&sig) {
            return;
        }
        self.insert(workload, priorities, threshold, plan);
    }

    /// Serializes the cache to JSON. Entries are written least-recently
    /// used first, so loading replays them in recency order and a
    /// subsequently bounded cache evicts the same plans the original
    /// would have. Floats are stored as hex IEEE-754 bit patterns
    /// (bit-identical round trip, `-inf`-safe); hit/miss counters are not
    /// persisted.
    pub fn to_json(&self) -> String {
        let mut entries: Vec<(&WorkloadSignature, &CachedPlan)> = self.plans.iter().collect();
        entries.sort_by_key(|(_, plan)| plan.last_used);
        let entries: Vec<Json> = entries
            .into_iter()
            .map(|(sig, plan)| {
                json::obj([
                    ("sig", Json::Str(sig.to_hex())),
                    (
                        "per_dnn",
                        Json::Arr(
                            plan.per_dnn_canonical
                                .iter()
                                .map(|assign| {
                                    Json::Arr(
                                        assign
                                            .iter()
                                            .map(|c| Json::Num(c.index() as f64))
                                            .collect(),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "predicted_bits",
                        Json::Arr(
                            plan.predicted_canonical
                                .iter()
                                .map(|v| Json::Str(format!("{:016x}", v.to_bits())))
                                .collect(),
                        ),
                    ),
                    ("reward_bits", Json::Str(format!("{:016x}", plan.reward.to_bits()))),
                ])
            })
            .collect();
        let capacity = if self.capacity == usize::MAX {
            Json::Null
        } else {
            Json::Num(self.capacity as f64)
        };
        let platform = match &self.platform {
            Some(sig) => Json::Str(sig.clone()),
            None => Json::Null,
        };
        json::obj([
            ("plan_cache_version", Json::Num(1.0)),
            ("platform", platform),
            ("capacity", capacity),
            ("entries", Json::Arr(entries)),
        ])
        .to_string()
    }

    /// Restores a cache from a [`PlanCache::to_json`] snapshot. The
    /// loaded cache starts with fresh hit/miss counters and the snapshot's
    /// capacity (unbounded if the snapshot was).
    pub fn from_json(text: &str) -> Result<Self, json::JsonError> {
        let bad = |message: &str| json::JsonError { message: message.to_string(), offset: 0 };
        let root = json::parse(text)?;
        match root.get("plan_cache_version").and_then(Json::as_u64) {
            Some(1) => {}
            _ => return Err(bad("missing or unsupported plan_cache_version")),
        }
        let mut cache = match root.get("capacity") {
            Some(Json::Null) | None => PlanCache::new(),
            Some(v) => {
                let capacity = v
                    .as_u64()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| bad("capacity must be a positive integer"))?;
                PlanCache::with_capacity(capacity as usize)
            }
        };
        cache.platform = match root.get("platform") {
            Some(Json::Str(sig)) => Some(sig.clone()),
            Some(Json::Null) | None => None,
            Some(_) => return Err(bad("platform must be a signature string or null")),
        };
        let entries = root
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing entries array"))?;
        let registry = rankmap_models::ModelId::all();
        for entry in entries {
            let sig = entry
                .get("sig")
                .and_then(Json::as_str)
                .and_then(WorkloadSignature::from_hex)
                .ok_or_else(|| bad("entry missing valid sig"))?;
            let per_dnn: Vec<Vec<ComponentId>> = entry
                .get("per_dnn")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("entry missing per_dnn"))?
                .iter()
                .map(|assign| {
                    assign.as_arr().and_then(|units| {
                        units
                            .iter()
                            .map(|u| u.as_u64().map(|u| ComponentId::new(u as usize)))
                            .collect::<Option<Vec<ComponentId>>>()
                    })
                })
                .collect::<Option<_>>()
                .ok_or_else(|| bad("per_dnn must be an array of index arrays"))?;
            let predicted: Vec<f64> = entry
                .get("predicted_bits")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("entry missing predicted_bits"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                        .map(f64::from_bits)
                })
                .collect::<Option<_>>()
                .ok_or_else(|| bad("predicted_bits must be hex f64 bit patterns"))?;
            if predicted.len() != per_dnn.len() {
                return Err(bad("predicted_bits/per_dnn length mismatch"));
            }
            // Validate the payload's shape against the signature it will
            // be served under: sig layout is n·(model byte + priority f64)
            // + threshold tag + f64, canonical order. A mismatched row
            // count or unit count would otherwise panic at the first
            // cache hit, mid-serving.
            let n = sig
                .0
                .len()
                .checked_sub(9)
                .filter(|rest| rest.is_multiple_of(9))
                .map(|rest| rest / 9)
                .ok_or_else(|| bad("sig length is not a valid workload signature"))?;
            if per_dnn.len() != n {
                return Err(bad("per_dnn row count does not match the sig's workload"));
            }
            for (group, assign) in per_dnn.iter().enumerate() {
                let idx = sig.0[group * 9] as usize;
                if idx >= registry.len() {
                    return Err(bad("sig names a model outside the registry"));
                }
                if assign.len() != registry[idx].build().unit_count() {
                    return Err(bad("assignment length does not match the model's unit count"));
                }
            }
            let reward = entry
                .get("reward_bits")
                .and_then(Json::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(f64::from_bits)
                .ok_or_else(|| bad("entry missing valid reward_bits"))?;
            let now = cache.touch();
            cache.plans.insert(
                sig,
                CachedPlan {
                    per_dnn_canonical: per_dnn,
                    predicted_canonical: predicted,
                    reward,
                    last_used: now,
                },
            );
            cache.evict_to_capacity();
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmap_models::ModelId;

    fn fake_plan(workload: &Workload, base: usize) -> MappingPlan {
        let per_dnn: Vec<Vec<ComponentId>> = workload
            .models()
            .iter()
            .enumerate()
            .map(|(d, m)| vec![ComponentId::new((base + d) % 3); m.unit_count()])
            .collect();
        MappingPlan {
            mapping: Mapping::new(per_dnn),
            predicted: (0..workload.len()).map(|d| 10.0 + d as f64).collect(),
            reward: 1.25,
            evaluations: 42,
        }
    }

    #[test]
    fn same_order_hit_is_bit_identical() {
        let w = Workload::from_ids([ModelId::ResNet50, ModelId::AlexNet, ModelId::MobileNet]);
        let p = vec![0.5, 0.3, 0.2];
        let th = StarvationThreshold::default();
        let mut cache = PlanCache::new();
        let plan = fake_plan(&w, 0);
        cache.insert(&w, &p, th, &plan);
        let hit = cache.get(&w, &p, th).expect("hit");
        assert_eq!(hit.mapping, plan.mapping);
        assert_eq!(hit.predicted, plan.predicted);
        assert_eq!(hit.reward.to_bits(), plan.reward.to_bits());
        assert_eq!(hit.evaluations, 0, "cache hits spend no oracle evaluations");
        assert_eq!(cache.stats(), MemoStats { hits: 1, misses: 0 });
    }

    #[test]
    fn permuted_workload_hits_and_permutes_back() {
        let ids = [ModelId::ResNet50, ModelId::AlexNet, ModelId::MobileNet];
        let w = Workload::from_ids(ids);
        let p = vec![0.5, 0.3, 0.2];
        let th = StarvationThreshold::default();
        let mut cache = PlanCache::new();
        let plan = fake_plan(&w, 1);
        cache.insert(&w, &p, th, &plan);
        // Same set, submitted in a different order with matching priorities.
        let w2 = Workload::from_ids([ids[2], ids[0], ids[1]]);
        let p2 = vec![0.2, 0.5, 0.3];
        let hit = cache.get(&w2, &p2, th).expect("permuted hit");
        for d in 0..3 {
            // Each model keeps the assignment and prediction it was cached with.
            let orig = match d {
                0 => 2, // w2[0] = MobileNet = w[2]
                1 => 0,
                _ => 1,
            };
            assert_eq!(hit.mapping.assignment(d), plan.mapping.assignment(orig));
            assert_eq!(hit.predicted[d], plan.predicted[orig]);
        }
        assert_eq!(hit.reward, plan.reward);
    }

    #[test]
    fn different_priorities_or_threshold_miss() {
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::ResNet50]);
        let th = StarvationThreshold::default();
        let mut cache = PlanCache::new();
        cache.insert(&w, &[0.5, 0.5], th, &fake_plan(&w, 0));
        assert!(cache.get(&w, &[0.7, 0.3], th).is_none());
        assert!(cache
            .get(&w, &[0.5, 0.5], StarvationThreshold::Absolute(3.0))
            .is_none());
        assert!(cache.get(&w, &[0.5, 0.5], th).is_some());
    }

    #[test]
    fn duplicate_models_with_distinct_priorities_stay_consistent() {
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::AlexNet]);
        let th = StarvationThreshold::default();
        let mut cache = PlanCache::new();
        let plan = fake_plan(&w, 0);
        cache.insert(&w, &[0.8, 0.2], th, &plan);
        // Swapped submission order with swapped priorities: the canonical
        // order sorts by priority bits, so the hit must follow priorities.
        let hit = cache.get(&w, &[0.2, 0.8], th).expect("hit");
        assert_eq!(hit.mapping.assignment(0), plan.mapping.assignment(1));
        assert_eq!(hit.mapping.assignment(1), plan.mapping.assignment(0));
    }

    /// Distinct single-model workloads for capacity tests.
    fn singles() -> Vec<Workload> {
        [ModelId::AlexNet, ModelId::ResNet50, ModelId::MobileNet, ModelId::GoogleNet]
            .into_iter()
            .map(|id| Workload::from_ids([id]))
            .collect()
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let th = StarvationThreshold::default();
        let ws = singles();
        let mut cache = PlanCache::with_capacity(2);
        cache.insert(&ws[0], &[1.0], th, &fake_plan(&ws[0], 0));
        cache.insert(&ws[1], &[1.0], th, &fake_plan(&ws[1], 0));
        // Touch workload 0 so workload 1 becomes the LRU entry...
        assert!(cache.get(&ws[0], &[1.0], th).is_some());
        // ...and inserting workload 2 must evict workload 1, not 0.
        cache.insert(&ws[2], &[1.0], th, &fake_plan(&ws[2], 0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ws[0], &[1.0], th).is_some(), "recently used survives");
        assert!(cache.get(&ws[2], &[1.0], th).is_some(), "new entry present");
        assert!(cache.get(&ws[1], &[1.0], th).is_none(), "LRU entry evicted");
    }

    #[test]
    fn shrinking_capacity_evicts_in_lru_order() {
        let th = StarvationThreshold::default();
        let ws = singles();
        let mut cache = PlanCache::new();
        for w in &ws {
            cache.insert(w, &[1.0], th, &fake_plan(w, 0));
        }
        // Refresh 0 and 1; 2 and 3 are now the oldest.
        assert!(cache.get(&ws[0], &[1.0], th).is_some());
        assert!(cache.get(&ws[1], &[1.0], th).is_some());
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ws[2], &[1.0], th).is_none());
        assert!(cache.get(&ws[3], &[1.0], th).is_none());
        assert!(cache.get(&ws[0], &[1.0], th).is_some());
        assert!(cache.get(&ws[1], &[1.0], th).is_some());
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        let th = StarvationThreshold::default();
        let w = Workload::from_ids([ModelId::ResNet50, ModelId::AlexNet]);
        let mut cache = PlanCache::with_capacity(8);
        let mut plan = fake_plan(&w, 1);
        plan.predicted = vec![0.1 + 0.2, 1.0 / 3.0]; // awkward floats
        plan.reward = f64::NEG_INFINITY; // a disqualified fallback plan
        cache.insert(&w, &[0.6, 0.4], th, &plan);
        let snapshot = cache.to_json();
        let mut restored = PlanCache::from_json(&snapshot).expect("load");
        assert_eq!(restored.capacity(), 8);
        assert_eq!(restored.len(), 1);
        let hit = restored.get(&w, &[0.6, 0.4], th).expect("hit after boot");
        assert_eq!(hit.mapping, plan.mapping);
        for (a, b) in hit.predicted.iter().zip(&plan.predicted) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(hit.reward.to_bits(), plan.reward.to_bits());
    }

    #[test]
    fn json_roundtrip_preserves_lru_recency_order() {
        let th = StarvationThreshold::default();
        let ws = singles();
        let mut cache = PlanCache::new();
        for w in &ws {
            cache.insert(w, &[1.0], th, &fake_plan(w, 0));
        }
        // Make workload 0 the most recent before snapshotting.
        assert!(cache.get(&ws[0], &[1.0], th).is_some());
        let mut restored = PlanCache::from_json(&cache.to_json()).expect("load");
        restored.set_capacity(2);
        assert!(restored.get(&ws[0], &[1.0], th).is_some(), "MRU survives the bound");
        assert!(restored.get(&ws[3], &[1.0], th).is_some(), "second-MRU survives");
        assert!(restored.get(&ws[1], &[1.0], th).is_none());
        assert!(restored.get(&ws[2], &[1.0], th).is_none());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(PlanCache::from_json("not json").is_err());
        assert!(PlanCache::from_json("{}").is_err());
        assert!(
            PlanCache::from_json(r#"{"plan_cache_version":2,"entries":[]}"#).is_err(),
            "unknown versions must not load silently"
        );
        // Non-integer unit assignments must reject the snapshot, not be
        // silently dropped (which would shorten an assignment vector).
        let corrupt = r#"{"plan_cache_version":1,"capacity":null,"entries":[
            {"sig":"00","per_dnn":[[0,1.5,2]],
             "predicted_bits":["3ff0000000000000"],
             "reward_bits":"3ff0000000000000"}]}"#;
        assert!(PlanCache::from_json(corrupt).is_err());
        // A zero capacity must error, not trip with_capacity's assert.
        assert!(
            PlanCache::from_json(r#"{"plan_cache_version":1,"capacity":0,"entries":[]}"#)
                .is_err()
        );
        // Non-ASCII "hex" signatures must be rejected, not split
        // mid-character.
        let euro_sig = "{\"plan_cache_version\":1,\"capacity\":null,\"entries\":[\
            {\"sig\":\"€0\",\"per_dnn\":[[0]],\
             \"predicted_bits\":[\"3ff0000000000000\"],\
             \"reward_bits\":\"3ff0000000000000\"}]}";
        assert!(PlanCache::from_json(euro_sig).is_err());
    }

    #[test]
    fn snapshot_payload_must_match_its_signature_shape() {
        let th = StarvationThreshold::default();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let mut cache = PlanCache::new();
        cache.insert(&w, &[0.5, 0.5], th, &fake_plan(&w, 0));
        let snapshot = cache.to_json();
        // Drop one per_dnn row (and its prediction) but keep the 2-DNN
        // sig: the load must reject the entry instead of serving a plan
        // that panics on its first hit.
        let root = crate::json::parse(&snapshot).unwrap();
        let entry = &root.get("entries").unwrap().as_arr().unwrap()[0];
        let sig = entry.get("sig").unwrap().as_str().unwrap();
        let truncated = format!(
            r#"{{"plan_cache_version":1,"capacity":null,"entries":[
                {{"sig":"{sig}","per_dnn":[[0]],
                  "predicted_bits":["3ff0000000000000"],
                  "reward_bits":"3ff0000000000000"}}]}}"#
        );
        assert!(PlanCache::from_json(&truncated).is_err());
        // An assignment row of the wrong unit count is rejected too.
        let wrong_units = format!(
            r#"{{"plan_cache_version":1,"capacity":null,"entries":[
                {{"sig":"{sig}","per_dnn":[[0],[1]],
                  "predicted_bits":["3ff0000000000000","3ff0000000000000"],
                  "reward_bits":"3ff0000000000000"}}]}}"#
        );
        assert!(PlanCache::from_json(&wrong_units).is_err());
    }

    #[test]
    fn platform_tag_survives_snapshots_and_blocks_cross_board_imports() {
        use rankmap_platform::Platform;
        let orange = Platform::orange_pi_5().signature();
        let jetson = Platform::jetson_orin_nx().signature();
        let th = StarvationThreshold::default();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let mut cache = PlanCache::new().for_platform(orange.clone());
        cache.insert(&w, &[1.0], th, &fake_plan(&w, 0));
        let snapshot = cache.to_json();
        let restored = PlanCache::from_json(&snapshot).expect("load");
        assert_eq!(restored.platform(), Some(orange.as_str()));
        assert!(restored.validate_platform(&orange).is_ok());
        let err = restored.validate_platform(&jetson).unwrap_err();
        assert!(
            err.to_string().contains("never cross board types"),
            "mismatch must be a clear error: {err}"
        );
        // Untagged legacy snapshots remain importable anywhere.
        let legacy = PlanCache::from_json(&PlanCache::new().to_json()).expect("load");
        assert_eq!(legacy.platform(), None);
        assert!(legacy.validate_platform(&jetson).is_ok());
    }

    #[test]
    fn default_is_the_unbounded_cache() {
        // A derived Default would start at capacity 0 and evict every
        // insert — Default must behave like new().
        let th = StarvationThreshold::default();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let mut cache = PlanCache::default();
        cache.insert(&w, &[1.0], th, &fake_plan(&w, 0));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&w, &[1.0], th).is_some());
    }
}
