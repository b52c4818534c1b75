//! A deterministic metrics registry: named counters, gauges, and
//! histograms with byte-stable text exporters.
//!
//! Metric names follow the Prometheus convention (`snake_case`, unit
//! suffix); labels are encoded into the key itself as
//! `name{key="value"}` so the registry stays one flat `BTreeMap` per
//! metric kind. `BTreeMap` (not `HashMap`) is deliberate: iteration
//! order — and hence every exporter's output — is a pure function of
//! the recorded facts, never of hash seeds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::Histogram;

/// Named counters, gauges, and histograms.
///
/// Counters are monotone `u64` sums; gauges are last-write-wins `f64`
/// readings; histograms are [`Histogram`]s. All three merge exactly
/// (counters add, gauges keep the merged-in reading only where the
/// target has none, histograms bucket-merge), so per-shard registries
/// can fold into a fleet registry without order sensitivity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Builds a labeled metric key, `name{k1="v1",k2="v2"}`.
///
/// Label values are embedded verbatim; callers pass simple identifiers
/// (shard ids, tier names), not free text.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{v}\"");
    }
    key.push('}');
    key
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key` (creating it at zero).
    pub fn counter_add(&mut self, key: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            *c += n;
        } else {
            self.counters.insert(key.to_string(), n);
        }
    }

    /// Sets counter `key` to an externally tracked absolute value.
    ///
    /// Used at snapshot time to overlay totals that live in their own
    /// structures (score memo, plan caches) without double counting.
    pub fn counter_set(&mut self, key: &str, value: u64) {
        self.counters.insert(key.to_string(), value);
    }

    /// Current value of counter `key` (zero when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets gauge `key` to `value` (last write wins).
    pub fn gauge_set(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Current value of gauge `key`.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Records `value` into histogram `key` (creating it empty).
    pub fn histogram_record(&mut self, key: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(key) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(key.to_string(), h);
        }
    }

    /// The histogram at `key`, if any value was ever recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Mutable access to histogram `key`, created empty on first use —
    /// for call sites that batch records or merge externally built
    /// histograms in.
    pub fn histogram_mut(&mut self, key: &str) -> &mut Histogram {
        if !self.histograms.contains_key(key) {
            self.histograms.insert(key.to_string(), Histogram::new());
        }
        self.histograms.get_mut(key).unwrap()
    }

    /// Folds `other` into `self`: counters add, histograms bucket-merge,
    /// and gauges copy over only where `self` has no reading (so a
    /// fleet-level overlay is not clobbered by stale per-shard values).
    pub fn merge(&mut self, other: &Registry) {
        for (k, &n) in &other.counters {
            self.counter_add(k, n);
        }
        for (k, &v) in &other.gauges {
            self.gauges.entry(k.clone()).or_insert(v);
        }
        for (k, h) in &other.histograms {
            self.histogram_mut(k).merge(h);
        }
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Renders the registry in Prometheus text exposition format.
    ///
    /// Counters and gauges render as single samples; histograms render
    /// summary-style — `_count`, `_sum`, and `quantile`-labeled p50/p90/
    /// p99 samples (the quantile label is injected before any existing
    /// label set's closing brace). Output is byte-stable: keys iterate
    /// in `BTreeMap` order and floats format via Rust's shortest-round-
    /// trip `Display`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, h) in &self.histograms {
            let (base, labels) = split_key(k);
            let _ = writeln!(out, "{}_count{labels} {}", base, h.count());
            let _ = writeln!(out, "{}_sum{labels} {}", base, h.approx_sum());
            for (p, q) in [(50u32, "0.5"), (90, "0.9"), (99, "0.99")] {
                if let Some(v) = h.percentile(p) {
                    let with_q = inject_label(base, labels, "quantile", q);
                    let _ = writeln!(out, "{with_q} {v}");
                }
            }
        }
        out
    }

    /// Renders the registry as JSON Lines: one `{"kind":...,"name":...}`
    /// object per metric, in key order. Histogram lines carry count,
    /// min/max, approximate sum, and p50/p90/p99.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{v}}}",
                json_str(k)
            );
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{}}}",
                json_str(k),
                json_num(*v)
            );
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"min\":{},\"max\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json_str(k),
                h.count(),
                json_opt(h.min()),
                json_opt(h.max()),
                json_num(h.approx_sum()),
                json_opt(h.percentile(50)),
                json_opt(h.percentile(90)),
                json_opt(h.percentile(99)),
            );
        }
        out
    }
}

/// Splits `name{labels}` into (`name`, `{labels}`); the label part is
/// empty for bare names.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], &key[i..]),
        None => (key, ""),
    }
}

/// Appends `extra="value"` to a metric's label set, creating one if the
/// key had none.
fn inject_label(base: &str, labels: &str, extra: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{base}{{{extra}=\"{value}\"}}")
    } else {
        // `labels` is `{...}`; splice before the closing brace.
        let inner = &labels[1..labels.len() - 1];
        format!("{base}{{{inner},{extra}=\"{value}\"}}")
    }
}

/// JSON string literal (metric keys only contain printable ASCII plus
/// `"` from label syntax, so escaping quotes and backslashes suffices).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number rendering: non-finite floats become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map(json_num).unwrap_or_else(|| "null".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_keys_render_prometheus_style() {
        assert_eq!(labeled("fleet_admitted_total", &[]), "fleet_admitted_total");
        assert_eq!(
            labeled("shard_live_instances", &[("shard", "3"), ("tier", "hi")]),
            "shard_live_instances{shard=\"3\",tier=\"hi\"}"
        );
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut r = Registry::new();
        r.counter_add("a_total", 2);
        r.counter_add("a_total", 3);
        assert_eq!(r.counter("a_total"), 5);
        assert_eq!(r.counter("missing_total"), 0);
        r.counter_set("a_total", 7);
        assert_eq!(r.counter("a_total"), 7);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
        r.histogram_record("h_seconds", 0.25);
        assert_eq!(r.histogram("h_seconds").unwrap().count(), 1);
    }

    #[test]
    fn merge_adds_counters_and_buckets_and_keeps_own_gauges() {
        let mut a = Registry::new();
        a.counter_add("c_total", 1);
        a.gauge_set("g", 10.0);
        a.histogram_record("h", 1.0);
        let mut b = Registry::new();
        b.counter_add("c_total", 2);
        b.gauge_set("g", 99.0); // must NOT clobber a's reading
        b.gauge_set("only_b", 5.0);
        b.histogram_record("h", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c_total"), 3);
        assert_eq!(a.gauge("g"), Some(10.0));
        assert_eq!(a.gauge("only_b"), Some(5.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn prometheus_export_is_stable_and_labeled() {
        let mut r = Registry::new();
        r.counter_add("b_total", 1);
        r.counter_add("a_total", 1);
        for v in [1.0, 2.0, 4.0] {
            r.histogram_record("lat_seconds{stage=\"apply\"}", v);
        }
        let text = r.to_prometheus();
        // BTreeMap order: a before b, regardless of insertion order.
        let a = text.find("a_total 1").unwrap();
        let b = text.find("b_total 1").unwrap();
        assert!(a < b);
        assert!(text.contains("lat_seconds_count{stage=\"apply\"} 3"));
        assert!(text.contains("lat_seconds{stage=\"apply\",quantile=\"0.5\"}"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, r.to_prometheus());
    }

    #[test]
    fn jsonl_export_emits_one_object_per_metric() {
        let mut r = Registry::new();
        r.counter_add("c_total", 4);
        r.gauge_set("g", 0.5);
        r.histogram_record("h", 3.0);
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"counter\""));
        assert!(lines[1].contains("\"kind\":\"gauge\""));
        assert!(lines[2].contains("\"kind\":\"histogram\""));
        assert!(lines[2].contains("\"p50\":"));
        // Every line parses as a JSON object shape (quick sanity check:
        // balanced braces, starts/ends correctly).
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
