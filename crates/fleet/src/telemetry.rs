//! Fleet instrumentation over [`rankmap_telemetry`]: the config knob,
//! the executor-owned collector, and the public snapshot.
//!
//! **Telemetry lives strictly off the decision path.** Every hook in the
//! executor/placement/rebalance/fault code only *reads* state the
//! decision logic already computed (or memoized pure state like
//! `Shard::mean_potential`, which is invalidated on apply and identical
//! whether or not a sampler read it earlier), and writes into structures
//! nothing on the decision path ever reads. A run with telemetry enabled
//! is therefore bit-identical — placements, timelines, `FleetMetrics`,
//! trace replays — to the same run with it disabled, at any
//! [`crate::Parallelism`] (property-tested in `tests/telemetry.rs`).
//!
//! Two metric families with different determinism contracts:
//!
//! * **Sim-clock metrics** (stage entry counters, event counters,
//!   per-shard gauges and ring series sampled at the executor's
//!   `sample_dt` cadence, the flight recorder) are pure functions of the
//!   event stream and replay deterministically.
//! * **Wall-clock stage histograms** are gated behind
//!   [`TelemetrySpec::wall_clock`] and live in a separate
//!   `stage_wall_seconds{stage=...}` family, so deterministic consumers
//!   simply never look at them. (The placement/evacuation wall latency
//!   of [`crate::FleetOutcome`] is measured unconditionally, exactly as
//!   before telemetry existed.)

use crate::placement::ScoreMemo;
use crate::shard::Shard;
use rankmap_core::oracle::ThroughputOracle;
use rankmap_telemetry::{
    registry::labeled, FlightRecorder, Histogram, Registry, StageTimer,
};

/// Stage labels of the executor's per-barrier spans — the closed set the
/// `fleet_stage_entered_total` counters and (gated) wall histograms key
/// on.
pub mod stage {
    /// Probe construction for the score memo's misses, fanned across
    /// shards.
    pub const PROBE_BUILD: &str = "probe_build";
    /// Score-memo lookups, the grouped oracle calls, and the fold.
    pub const FUSED_SCORING: &str = "fused_scoring";
    /// Applying an admitted arrival to its shard (admissions only).
    pub const APPLY: &str = "apply";
    /// Applying a departure to its shard.
    pub const DEPART_APPLY: &str = "depart_apply";
    /// Fleet-wide `SetPriorities` remap barrier.
    pub const REMAP: &str = "remap";
    /// The rebalancer/overload-guard health question.
    pub const REBALANCE_SCAN: &str = "rebalance_scan";
    /// A rebalance migration's two applies: the source's departure and
    /// the destination's arrival (its probes have their own spans).
    pub const REBALANCE_MIGRATE: &str = "rebalance_migrate";
    /// Shard-failure triage + evacuation.
    pub const EVACUATION: &str = "evacuation";
    /// Incremental index refile sweep.
    pub const INDEX_REFILE: &str = "index_refile";
}

/// The fully static counter key of a stage — a `match` rather than
/// `labeled()` so hot-path stage entries never allocate.
fn entered_key(stage_name: &'static str) -> &'static str {
    match stage_name {
        stage::PROBE_BUILD => "fleet_stage_entered_total{stage=\"probe_build\"}",
        stage::FUSED_SCORING => "fleet_stage_entered_total{stage=\"fused_scoring\"}",
        stage::APPLY => "fleet_stage_entered_total{stage=\"apply\"}",
        stage::DEPART_APPLY => "fleet_stage_entered_total{stage=\"depart_apply\"}",
        stage::REMAP => "fleet_stage_entered_total{stage=\"remap\"}",
        stage::REBALANCE_SCAN => "fleet_stage_entered_total{stage=\"rebalance_scan\"}",
        stage::REBALANCE_MIGRATE => "fleet_stage_entered_total{stage=\"rebalance_migrate\"}",
        stage::EVACUATION => "fleet_stage_entered_total{stage=\"evacuation\"}",
        stage::INDEX_REFILE => "fleet_stage_entered_total{stage=\"index_refile\"}",
        _ => "fleet_stage_entered_total{stage=\"other\"}",
    }
}

/// Telemetry configuration on [`crate::FleetConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySpec {
    /// Master switch. Off (the default) makes every hook an early-return
    /// branch, so un-instrumented runs keep their baseline cost and
    /// [`crate::FleetOutcome::telemetry`] is `None`.
    pub enabled: bool,
    /// Also time stages on the wall clock (into the non-deterministic
    /// `stage_wall_seconds` histogram family). Off by default so an
    /// enabled-telemetry run still exports byte-identical text on
    /// replay.
    pub wall_clock: bool,
    /// Points retained per shard's time-series ring (sampled every
    /// `sample_dt` of simulation time).
    pub series_capacity: usize,
    /// Records retained by the flight recorder's ring.
    pub recorder_capacity: usize,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self {
            enabled: false,
            wall_clock: false,
            series_capacity: 240,
            recorder_capacity: 4096,
        }
    }
}

impl TelemetrySpec {
    /// Deterministic telemetry on (sim-clock metrics, series, flight
    /// recorder), wall-clock timing still off.
    pub fn on() -> Self {
        Self { enabled: true, ..Self::default() }
    }

    /// Adds wall-clock stage timing (the one non-deterministic family).
    pub fn with_wall_clock(mut self) -> Self {
        self.wall_clock = true;
        self
    }
}

/// One sampled point of a shard's time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSample {
    /// Live instances on the shard.
    pub live: usize,
    /// Mean predicted normalized potential (memoized pure read; `None`
    /// when idle or down).
    pub mean_potential: Option<f64>,
    /// Served fraction of nominal speed (1.0 = unthrottled).
    pub derate: f64,
    /// The shard's state epoch (bumps on every apply/down).
    pub epoch: u64,
    /// Whether the shard is down.
    pub down: bool,
    /// Requests admitted onto the shard so far (rebalance arrivals and
    /// evacuations included).
    pub admitted: u64,
}

/// The executor-owned collector: registry + flight recorder + per-shard
/// rings, all behind the `enabled` early-return.
pub(crate) struct FleetTelemetry {
    spec: TelemetrySpec,
    registry: Registry,
    recorder: FlightRecorder,
    series: Vec<rankmap_telemetry::RingSeries<ShardSample>>,
    sample_dt: f64,
    next_sample: f64,
}

impl FleetTelemetry {
    pub(crate) fn new(spec: TelemetrySpec, shards: usize, sample_dt: f64) -> Self {
        let series = if spec.enabled {
            (0..shards)
                .map(|_| rankmap_telemetry::RingSeries::new(spec.series_capacity))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            registry: Registry::new(),
            recorder: FlightRecorder::new(if spec.enabled { spec.recorder_capacity } else { 0 }),
            series,
            sample_dt,
            next_sample: 0.0,
            spec,
        }
    }

    /// Whether any hook should spend effort building payloads.
    pub(crate) fn enabled(&self) -> bool {
        self.spec.enabled
    }

    /// Enters a stage: bumps its deterministic entry counter and starts
    /// a wall timer (a no-op unless `wall_clock` is on). Resolve with
    /// [`FleetTelemetry::finish`].
    pub(crate) fn stage(&mut self, name: &'static str) -> StageTimer {
        if self.spec.enabled {
            self.registry.counter_add(entered_key(name), 1);
        }
        StageTimer::start(self.spec.enabled && self.spec.wall_clock, name)
    }

    /// Times a further span of a stage already entered at this barrier,
    /// without counting another entry.
    pub(crate) fn resume(&self, name: &'static str) -> StageTimer {
        StageTimer::start(self.spec.enabled && self.spec.wall_clock, name)
    }

    /// Resolves a stage timer into the wall histogram family.
    pub(crate) fn finish(&mut self, timer: StageTimer) {
        timer.finish(&mut self.registry);
    }

    /// Adds `n` to a (static-keyed) counter.
    pub(crate) fn count(&mut self, key: &'static str, n: u64) {
        if self.spec.enabled && n > 0 {
            self.registry.counter_add(key, n);
        }
    }

    /// Appends a flight record; `Some(seq)` is usable as a later
    /// record's `cause`. Callers with non-trivial field payloads should
    /// guard construction with [`FleetTelemetry::enabled`].
    pub(crate) fn record(
        &mut self,
        at: f64,
        kind: &'static str,
        cause: Option<u64>,
        fields: Vec<(&'static str, String)>,
    ) -> Option<u64> {
        if !self.spec.enabled {
            return None;
        }
        Some(self.recorder.record(at, kind, cause, fields))
    }

    /// Samples every shard's gauges and ring series if the sim clock
    /// crossed the sampling cadence. Reads only memoized pure shard
    /// state, so decisions are unaffected by whether sampling ran.
    pub(crate) fn maybe_sample<O: ThroughputOracle>(
        &mut self,
        t: f64,
        shards: &mut [Shard<'_, O>],
        per_shard_admitted: &[u64],
    ) {
        if !self.spec.enabled || t < self.next_sample {
            return;
        }
        self.next_sample = t + self.sample_dt;
        self.registry.gauge_set("fleet_sim_time_seconds", t);
        for (s, shard) in shards.iter_mut().enumerate() {
            let down = shard.is_down();
            let sample = ShardSample {
                live: shard.live_len(),
                mean_potential: if down { None } else { shard.mean_potential() },
                derate: shard.throttle(),
                epoch: shard.epoch(),
                down,
                admitted: per_shard_admitted[s],
            };
            let id = s.to_string();
            let shard_label: &[(&str, &str)] = &[("shard", &id)];
            self.registry
                .gauge_set(&labeled("fleet_shard_live", shard_label), sample.live as f64);
            if let Some(mean) = sample.mean_potential {
                self.registry
                    .gauge_set(&labeled("fleet_shard_mean_potential", shard_label), mean);
            }
            self.registry
                .gauge_set(&labeled("fleet_shard_derate", shard_label), sample.derate);
            self.registry
                .gauge_set(&labeled("fleet_shard_epoch", shard_label), sample.epoch as f64);
            self.registry.gauge_set(
                &labeled("fleet_shard_admitted", shard_label),
                sample.admitted as f64,
            );
            self.series[s].push(t, sample);
        }
    }

    /// Builds the public snapshot: the registry (cloned), with absolute
    /// totals overlaid from the structures that own them — the probe
    /// memo, every shard's plan cache, and the wall-latency histograms
    /// the run measured unconditionally.
    pub(crate) fn snapshot<O: ThroughputOracle>(
        &self,
        score_memo: &ScoreMemo,
        shards: &[Shard<'_, O>],
        placement_wall: Option<&Histogram>,
        evacuation_wall: Option<&Histogram>,
    ) -> Option<TelemetrySnapshot> {
        if !self.spec.enabled {
            return None;
        }
        let mut registry = self.registry.clone();
        let memo = score_memo.stats();
        registry.counter_set("fleet_probe_memo_hits_total", memo.hits);
        registry.counter_set("fleet_probe_memo_misses_total", memo.misses);
        registry.gauge_set("fleet_probe_memo_entries", score_memo.len() as f64);
        let mut plan = rankmap_telemetry::MemoStats::new();
        for shard in shards {
            let s = shard.mapper.manager().plan_cache_stats();
            plan.hits += s.hits;
            plan.misses += s.misses;
        }
        registry.counter_set("fleet_plan_cache_hits_total", plan.hits);
        registry.counter_set("fleet_plan_cache_misses_total", plan.misses);
        if let Some(h) = placement_wall {
            registry.histogram_mut("fleet_placement_wall_seconds").merge(h);
        }
        if let Some(h) = evacuation_wall {
            registry.histogram_mut("fleet_evacuation_wall_seconds").merge(h);
        }
        Some(TelemetrySnapshot {
            registry,
            recorder: self.recorder.clone(),
            series: self.series.iter().map(|r| r.iter().cloned().collect()).collect(),
        })
    }
}

/// A point-in-time view of everything the fleet's telemetry collected.
///
/// Produced by [`crate::FleetRuntime::telemetry`] mid-setup and carried
/// on [`crate::FleetOutcome::telemetry`] after a run (`None` when
/// telemetry was disabled).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Counters, gauges, and histograms — export with
    /// [`Registry::to_prometheus`] / [`Registry::to_jsonl`].
    pub registry: Registry,
    /// The flight recorder's retained window (`recorder.to_jsonl()` for
    /// the JSONL export; `dropped()` reports truncation honestly).
    pub recorder: FlightRecorder,
    /// Per-shard sampled time series, oldest point first.
    pub series: Vec<Vec<(f64, ShardSample)>>,
}

impl TelemetrySnapshot {
    /// The registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        self.registry.to_prometheus()
    }

    /// Registry metrics as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        self.registry.to_jsonl()
    }

    /// The flight recorder's retained records as JSON Lines.
    pub fn flight_jsonl(&self) -> String {
        self.recorder.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_off_and_builders_compose() {
        let spec = TelemetrySpec::default();
        assert!(!spec.enabled && !spec.wall_clock);
        let on = TelemetrySpec::on();
        assert!(on.enabled && !on.wall_clock);
        assert!(TelemetrySpec::on().with_wall_clock().wall_clock);
    }

    #[test]
    fn every_stage_key_is_static_and_distinct() {
        let stages = [
            stage::PROBE_BUILD,
            stage::FUSED_SCORING,
            stage::APPLY,
            stage::DEPART_APPLY,
            stage::REMAP,
            stage::REBALANCE_SCAN,
            stage::REBALANCE_MIGRATE,
            stage::EVACUATION,
            stage::INDEX_REFILE,
        ];
        let keys: std::collections::BTreeSet<&str> =
            stages.iter().map(|s| entered_key(s)).collect();
        assert_eq!(keys.len(), stages.len(), "stage keys must not collide");
        for key in keys {
            assert!(key.starts_with("fleet_stage_entered_total{stage=\""));
        }
    }

    #[test]
    fn disabled_collector_is_inert() {
        let mut t = FleetTelemetry::new(TelemetrySpec::default(), 2, 30.0);
        assert!(!t.enabled());
        let timer = t.stage(stage::APPLY);
        t.finish(timer);
        t.count("fleet_admitted_total", 3);
        assert_eq!(t.record(0.0, "admit", None, vec![]), None);
        assert_eq!(t.registry, Registry::new());
        assert!(t.recorder.is_empty());
        assert!(t.series.is_empty());
    }

    #[test]
    fn enabled_collector_counts_stages_and_records() {
        let mut t = FleetTelemetry::new(TelemetrySpec::on(), 1, 30.0);
        let timer = t.stage(stage::PROBE_BUILD);
        t.finish(timer);
        let timer = t.stage(stage::PROBE_BUILD);
        t.finish(timer);
        assert_eq!(t.registry.counter(entered_key(stage::PROBE_BUILD)), 2);
        // wall_clock off: no wall histogram despite the finished timers.
        assert!(t
            .registry
            .histogram("stage_wall_seconds{stage=\"probe_build\"}")
            .is_none());
        let seq = t.record(1.0, "admit", None, vec![("shard", "0".into())]);
        assert_eq!(seq, Some(0));
    }
}
