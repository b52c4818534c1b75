//! A `ThroughputOracle` that times every call into the wrapped
//! `AnalyticalOracle` from outside the library. Each method delegates
//! to the same method of the inner oracle (never to the trait defaults,
//! which would change the code path `AnalyticalOracle` overrides), so
//! the wrapper changes timing only, not answers. Used in the traced run
//! only.

use rankmap_core::oracle::{AnalyticalOracle, ThroughputOracle};
use rankmap_sim::{Mapping, Workload};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which trait method a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `predict`: one mapping.
    Predict,
    /// `predict_batch`: MCTS rollout scoring, the search layer's cost.
    Batch,
    /// `predict_grouped`: fused placement scoring.
    Grouped,
}

impl Method {
    /// The name written to the span file and used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Method::Predict => "predict",
            Method::Batch => "batch",
            Method::Grouped => "grouped",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The method called.
    pub method: Method,
    /// Start, in seconds since the wrapper's epoch.
    pub start: f64,
    /// End, in seconds since the wrapper's epoch.
    pub end: f64,
    /// The calling thread (a small per-process index).
    pub thread: u64,
    /// Mappings the call scored.
    pub mappings: usize,
}

/// Calls, mappings scored and busy seconds of one method.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodTotals {
    /// Calls made.
    pub calls: u64,
    /// Mappings scored over all calls.
    pub mappings: u64,
    /// Summed call durations; calls on different threads may overlap.
    pub busy_s: f64,
}

/// Sums the spans of one method.
pub fn totals(spans: &[Span], method: Method) -> MethodTotals {
    spans
        .iter()
        .filter(|s| s.method == method)
        .fold(MethodTotals::default(), |acc, s| MethodTotals {
            calls: acc.calls + 1,
            mappings: acc.mappings + s.mappings as u64,
            busy_s: acc.busy_s + (s.end - s.start),
        })
}

/// Writes spans as JSON Lines, one call per line.
pub fn write_spans(mut out: impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"method\":\"{}\",\"start_s\":{},\"end_s\":{},\"thread\":{},\"mappings\":{}}}",
            s.method.name(),
            s.start,
            s.end,
            s.thread,
            s.mappings
        )?;
    }
    out.flush()
}

/// A small dense id for the calling thread, stable for its lifetime.
fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// The timing wrapper.
pub struct TimedOracle<'p> {
    inner: AnalyticalOracle<'p>,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl<'p> TimedOracle<'p> {
    /// Wraps `inner`; span times are taken relative to `epoch`.
    pub fn new(inner: AnalyticalOracle<'p>, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a thread panicked while recording an oracle span")
    }

    fn timed<R>(&self, method: Method, mappings: usize, call: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = call();
        let end = self.epoch.elapsed().as_secs_f64();
        let span = Span {
            method,
            start,
            end,
            thread: thread_index(),
            mappings,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording an oracle span")
            .push(span);
        out
    }
}

impl ThroughputOracle for TimedOracle<'_> {
    fn predict(&self, workload: &Workload, mapping: &Mapping) -> Vec<f64> {
        self.timed(Method::Predict, 1, || self.inner.predict(workload, mapping))
    }

    fn predict_batch(&self, workload: &Workload, mappings: &[Mapping]) -> Vec<Vec<f64>> {
        self.timed(Method::Batch, mappings.len(), || {
            self.inner.predict_batch(workload, mappings)
        })
    }

    fn predict_grouped(&self, queries: &[(&Workload, &[Mapping])]) -> Vec<Vec<Vec<f64>>> {
        let mappings = queries.iter().map(|(_, ms)| ms.len()).sum();
        self.timed(Method::Grouped, mappings, || {
            self.inner.predict_grouped(queries)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
