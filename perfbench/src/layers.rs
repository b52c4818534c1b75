//! The traced run's per-layer table. Wall time and counts come from the
//! fleet's own telemetry (`stage_wall_seconds` sums, the registry's
//! counters); oracle time comes from the benchmark's timing wrapper.

use crate::timed_oracle::{totals, Method, Span};
use rankmap_fleet::TelemetrySnapshot;

/// The stages whose spans do not nest inside another stage's span, so
/// their sum is the spanned share of wall time. `index_refile` is left
/// out: it runs inside `rebalance_scan`, which follows every event, so
/// the refile on the next placement path mostly finds nothing dirty;
/// counting it here would count the scan's refile twice. (`evacuation`
/// re-places victims through the probe path, so on `chaos_16` the probe
/// spans inside it are counted twice and `executor.unattributed_s` is a
/// lower bound there.)
const TOP_LEVEL_STAGES: [&str; 6] = [
    "probe_build",
    "fused_scoring",
    "apply",
    "remap",
    "rebalance_scan",
    "evacuation",
];

/// Busy seconds of a stage: the sum of its `stage_wall_seconds`
/// histogram (bucket midpoints, within about 3% of the exact sum).
fn stage_s(t: &TelemetrySnapshot, stage: &str) -> f64 {
    t.registry
        .histogram(&format!("stage_wall_seconds{{stage=\"{stage}\"}}"))
        .map_or(0.0, |h| h.approx_sum())
}

/// Times a stage was entered.
fn stage_n(t: &TelemetrySnapshot, stage: &str) -> f64 {
    t.registry
        .counter(&format!("fleet_stage_entered_total{{stage=\"{stage}\"}}")) as f64
}

fn counter(t: &TelemetrySnapshot, key: &str) -> f64 {
    t.registry.counter(key) as f64
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// What one traced run measured, beyond its telemetry snapshot.
pub struct TracedRun<'a> {
    /// The fleet's telemetry, wall-clock stage spans on.
    pub telemetry: &'a TelemetrySnapshot,
    /// The oracle wrapper's spans.
    pub spans: &'a [Span],
    /// Wall seconds of `execute_stream`.
    pub wall_s: f64,
    /// Events pulled from the load stream.
    pub events: u64,
    /// Median wall placement latency of the untraced runs, microseconds.
    pub placement_p50_us: f64,
    /// 90th-percentile wall placement latency of the untraced runs
    /// (median over the runs), microseconds.
    pub placement_p90_us: f64,
    /// Median wall evacuation latency of the untraced runs, microseconds.
    pub evacuation_p50_us: f64,
    /// Median wall seconds of the untraced runs, for the overhead ratio.
    pub untraced_wall_s: f64,
    /// Median events per wall second of the untraced runs.
    pub untraced_events_per_s: f64,
}

/// One per-layer metric: name, unit and value.
pub struct Layer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` states it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Every per-layer metric of one traced run, in print order.
pub fn measure(run: &TracedRun) -> Vec<Layer> {
    let t = run.telemetry;
    let memo_hits = counter(t, "fleet_probe_memo_hits_total");
    let memo_misses = counter(t, "fleet_probe_memo_misses_total");
    let plan_hits = counter(t, "fleet_plan_cache_hits_total");
    let plan_misses = counter(t, "fleet_plan_cache_misses_total");
    let batch = totals(run.spans, Method::Batch);
    let grouped = totals(run.spans, Method::Grouped);
    let predict = totals(run.spans, Method::Predict);
    let spanned: f64 = TOP_LEVEL_STAGES.iter().map(|s| stage_s(t, s)).sum();
    [
        ("placement.decision_p50_us", "us", run.placement_p50_us),
        ("placement.decision_p90_us", "us", run.placement_p90_us),
        ("placement.probe_build_s", "s", stage_s(t, "probe_build")),
        (
            "placement.fused_scoring_s",
            "s",
            stage_s(t, "fused_scoring"),
        ),
        (
            "placement.probes_built",
            "count",
            counter(t, "fleet_probes_built_total"),
        ),
        ("placement.probe_memo_hits", "count", memo_hits),
        ("placement.probe_memo_misses", "count", memo_misses),
        (
            "placement.probe_memo_hit_ratio",
            "ratio",
            ratio(memo_hits, memo_misses),
        ),
        ("index.refile_s", "s", stage_s(t, "index_refile")),
        (
            "index.refiled",
            "count",
            counter(t, "fleet_index_refiled_total"),
        ),
        (
            "index.broadcast",
            "count",
            counter(t, "fleet_index_broadcast_total"),
        ),
        ("shard.apply_s", "s", stage_s(t, "apply")),
        ("shard.apply_n", "count", stage_n(t, "apply")),
        ("shard.remap_s", "s", stage_s(t, "remap")),
        ("shard.remap_n", "count", stage_n(t, "remap")),
        ("plan_cache.hits", "count", plan_hits),
        ("plan_cache.misses", "count", plan_misses),
        (
            "plan_cache.hit_ratio",
            "ratio",
            ratio(plan_hits, plan_misses),
        ),
        ("oracle.batch_calls", "count", batch.calls as f64),
        ("oracle.batch_mappings", "count", batch.mappings as f64),
        ("oracle.batch_s", "s", batch.busy_s),
        ("oracle.grouped_calls", "count", grouped.calls as f64),
        ("oracle.grouped_mappings", "count", grouped.mappings as f64),
        ("oracle.grouped_s", "s", grouped.busy_s),
        ("oracle.predict_calls", "count", predict.calls as f64),
        ("oracle.predict_s", "s", predict.busy_s),
        ("rebalance.scan_s", "s", stage_s(t, "rebalance_scan")),
        (
            "rebalance.migrations",
            "count",
            counter(t, "fleet_migrations_total"),
        ),
        ("faults.evacuation_s", "s", stage_s(t, "evacuation")),
        ("faults.evacuation_p50_us", "us", run.evacuation_p50_us),
        (
            "faults.evacuated",
            "count",
            counter(t, "fleet_evacuated_total"),
        ),
        ("faults.shed", "count", counter(t, "fleet_shed_total")),
        (
            "faults.retries",
            "count",
            counter(t, "fleet_deferred_total"),
        ),
        ("executor.events", "count", run.events as f64),
        ("executor.events_per_s", "1/s", run.untraced_events_per_s),
        ("executor.wall_s", "s", run.wall_s),
        ("executor.unattributed_s", "s", run.wall_s - spanned),
        (
            "telemetry.overhead_ratio",
            "ratio",
            run.wall_s / run.untraced_wall_s,
        ),
    ]
    .into_iter()
    .map(|(name, unit, value)| Layer { name, unit, value })
    .collect()
}
