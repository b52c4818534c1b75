//! Deterministic, sim-clock-first observability for the RankMap fleet.
//!
//! The crate is built around one invariant: **instrumentation must never
//! change a decision**. Everything here is designed so that a run with
//! telemetry enabled is bit-identical to one with it disabled:
//!
//! * Metrics that feed back into assertions or exports are derived from
//!   the *simulation* clock and integer counts — never from wall time.
//!   Wall-clock stage timing exists but is config-gated ([`span`]), so
//!   deterministic replays simply leave it off.
//! * The [`histogram::Histogram`] buckets by IEEE-754 bit prefix (no
//!   libm) and stores only exactly-mergeable state, so percentiles are
//!   identical across `Threads(n)` merge orders.
//! * The [`registry::Registry`] iterates `BTreeMap`s, so exports are
//!   byte-stable for a given set of recorded facts.
//!
//! Modules:
//!
//! * [`histogram`] — log-bucketed histogram, exact merge, deterministic
//!   p50/p90/p99.
//! * [`registry`] — named counters/gauges/histograms with Prometheus and
//!   JSONL text exporters.
//! * [`series`] — bounded per-shard time series sampled on the sim clock.
//! * [`recorder`] — bounded structured-event flight recorder with
//!   event → decision → outcome causality links.
//! * [`span`] — gated wall-clock stage timers.

pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod series;
pub mod span;

pub use histogram::Histogram;
pub use recorder::{FlightRecord, FlightRecorder};
pub use registry::Registry;
pub use series::RingSeries;
pub use span::StageTimer;

/// Hit/miss counters of a memo or cache, as a named pair instead of a
/// positional `(u64, u64)` tuple.
///
/// Shared by core's plan cache, the fleet's score memo, and the
/// telemetry registry overlay, so all cache-style stats speak one type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to compute (and usually insert) fresh.
    pub misses: u64,
}

impl MemoStats {
    /// A fresh all-zero stat pair.
    pub const fn new() -> Self {
        Self { hits: 0, misses: 0 }
    }

    /// Total lookups observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit, `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::MemoStats;

    #[test]
    fn memo_stats_rates() {
        let empty = MemoStats::new();
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.hit_rate(), 0.0);
        let s = MemoStats { hits: 3, misses: 1 };
        assert_eq!(s.total(), 4);
        assert_eq!(s.hit_rate(), 0.75);
    }
}
