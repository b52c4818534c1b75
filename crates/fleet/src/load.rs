//! Trace-driven load generation for a fleet of device shards.
//!
//! [`LoadStream`] turns a [`LoadSpec`] into a sorted, deterministic
//! stream of [`FleetEvent`]s: arrivals drawn from a configurable
//! [`ArrivalProcess`] (Poisson, bursty on/off, or diurnal), exponential
//! lifetimes, and optional fleet-wide priority churn — the same
//! primitives as the per-board scenario engine
//! (`rankmap_core::scenario`), lifted to fleet scale. The `k`-th arrival
//! of a stream owns [`RequestId::new`]`(k)`, so departures always name a
//! request that arrived earlier; streams are reproducible bit-for-bit
//! from the seed, which is what makes trace record/replay
//! ([`crate::trace`]) exact.
//!
//! On top of the base process sit three optional layers, each drawing
//! from its **own** seed so enabling one never perturbs the others:
//! [`Popularity::Zipf`] model skew, [`FlashSpec`] flash crowds, and
//! [`TenantSpec`] correlated multi-tenant bursts.
//!
//! The stream is pull-based: it holds only O(live instances + burst
//! episodes) state regardless of horizon length, so million-instance
//! horizons never materialize. [`generate`] collects it into a `Vec`
//! for callers that want the whole log at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rankmap_core::priority::PriorityMode;
use rankmap_core::scenario::{exponential, mix_pool, MixProfile};
use rankmap_models::ModelId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Fleet-level identity of one submitted DNN instance, assigned in
/// arrival order across the whole fleet (the `k`-th
/// [`FleetEvent::Arrive`] owns ordinal `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id (the `k`-th fleet arrival).
    pub fn new(ordinal: u64) -> Self {
        Self(ordinal)
    }

    /// The fleet-wide arrival ordinal.
    pub fn ordinal(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One fleet-level event: what the load generator offers the fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A DNN instance is submitted to the fleet. Whether it is admitted —
    /// and onto which shard — is the placement layer's decision.
    Arrive {
        /// Arrival time (seconds).
        at: f64,
        /// Fleet-wide id (the `k`-th arrival of the stream).
        request: RequestId,
        /// The arriving model.
        model: ModelId,
    },
    /// The instance submitted as `request` leaves. Departures of rejected
    /// or unknown requests are ignored by the fleet.
    Depart {
        /// Departure time (seconds).
        at: f64,
        /// The departing request.
        request: RequestId,
    },
    /// A fleet-wide priority change, broadcast to every shard's mapper.
    /// Static vectors apply on shards whose live count matches and fall
    /// back to dynamic ranks elsewhere (the mapper's documented
    /// behaviour).
    SetPriorities {
        /// Time of the change (seconds).
        at: f64,
        /// The new priority mode.
        mode: PriorityMode,
    },
    /// The shard fails: its live instances are triaged by priority and
    /// evacuated onto survivors (or shed) by the executor. Idempotent —
    /// a `ShardDown` on an already-down shard is a no-op.
    ShardDown {
        /// Failure time (seconds).
        at: f64,
        /// The failing shard's index.
        shard: usize,
    },
    /// The shard is repaired: it rejoins the fleet empty, at nominal
    /// speed. Idempotent on an already-up shard.
    ShardUp {
        /// Repair time (seconds).
        at: f64,
        /// The repaired shard's index.
        shard: usize,
    },
    /// The shard's served speed changes to `factor ×` nominal (thermal
    /// throttling, DVFS brown-out); `factor == 1.0` restores full speed.
    /// Under `Platform::scaled`'s potential invariance this derates the
    /// shard's served throughput and placement scores without changing
    /// any mapping decision (see `docs/fleet.md`).
    ShardThrottle {
        /// Throttle time (seconds).
        at: f64,
        /// The throttled shard's index.
        shard: usize,
        /// Served fraction of nominal speed, in `(0, 1]`.
        factor: f64,
    },
}

impl FleetEvent {
    /// The event's timestamp.
    pub fn at(&self) -> f64 {
        match self {
            FleetEvent::Arrive { at, .. }
            | FleetEvent::Depart { at, .. }
            | FleetEvent::SetPriorities { at, .. }
            | FleetEvent::ShardDown { at, .. }
            | FleetEvent::ShardUp { at, .. }
            | FleetEvent::ShardThrottle { at, .. } => *at,
        }
    }
}

/// The arrival process offered to the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant `rate` (per second).
    Poisson {
        /// Expected arrivals per second.
        rate: f64,
    },
    /// Bursty on/off (Markov-modulated Poisson): exponentially-distributed
    /// bursts at `burst_rate` alternate with idle periods at `idle_rate`
    /// (0 for silent idles). The berserker-style "hammer then sleep"
    /// shape.
    OnOff {
        /// Arrival rate inside a burst (per second).
        burst_rate: f64,
        /// Arrival rate between bursts (per second; may be 0).
        idle_rate: f64,
        /// Mean burst duration (seconds).
        mean_burst: f64,
        /// Mean idle duration (seconds).
        mean_idle: f64,
    },
    /// A day-night cycle: a Poisson process whose rate follows
    /// `mean_rate · (1 + amplitude · sin(2πt/period))`, sampled by
    /// thinning. `amplitude` in `[0, 1]`.
    Diurnal {
        /// Time-averaged arrivals per second.
        mean_rate: f64,
        /// Relative swing around the mean (`0` = constant, `1` = the
        /// trough is silent).
        amplitude: f64,
        /// Cycle length in seconds.
        period: f64,
    },
}

impl ArrivalProcess {
    /// The time-averaged offered arrival rate (per second) — what "fixed
    /// offered load" means when scaling shard counts in the bench.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOff { burst_rate, idle_rate, mean_burst, mean_idle } => {
                (burst_rate * mean_burst + idle_rate * mean_idle) / (mean_burst + mean_idle)
            }
            ArrivalProcess::Diurnal { mean_rate, .. } => mean_rate,
        }
    }
}

/// The base arrival times in `[0, horizon)`, drawn one at a time, in
/// order, from the process's own RNG.
struct TimeWalk {
    rng: StdRng,
    horizon: f64,
    done: bool,
    state: WalkState,
}

enum WalkState {
    Poisson {
        rate: f64,
        t: f64,
    },
    OnOff {
        burst_rate: f64,
        idle_rate: f64,
        mean_burst: f64,
        mean_idle: f64,
        t: f64,
        bursting: bool,
        /// An open phase mid-arrival-walk: `(phase_end, cursor, rate)`.
        phase: Option<(f64, f64, f64)>,
    },
    Diurnal {
        mean_rate: f64,
        amplitude: f64,
        period: f64,
        peak: f64,
        t: f64,
    },
}

impl TimeWalk {
    /// Starts the walk. Panics on invalid process parameters, the one
    /// place they are checked.
    fn new(process: ArrivalProcess, horizon: f64, rng: StdRng) -> Self {
        let state = match process {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                WalkState::Poisson { rate, t: 0.0 }
            }
            ArrivalProcess::OnOff { burst_rate, idle_rate, mean_burst, mean_idle } => {
                assert!(burst_rate > 0.0, "burst rate must be positive");
                assert!(idle_rate >= 0.0, "idle rate cannot be negative");
                assert!(
                    mean_burst > 0.0 && mean_idle > 0.0,
                    "phase durations must be positive"
                );
                WalkState::OnOff {
                    burst_rate,
                    idle_rate,
                    mean_burst,
                    mean_idle,
                    t: 0.0,
                    bursting: true,
                    phase: None,
                }
            }
            ArrivalProcess::Diurnal { mean_rate, amplitude, period } => {
                assert!(mean_rate > 0.0, "mean rate must be positive");
                assert!((0.0..=1.0).contains(&amplitude), "amplitude must be in [0, 1]");
                assert!(period > 0.0, "period must be positive");
                WalkState::Diurnal {
                    mean_rate,
                    amplitude,
                    period,
                    peak: mean_rate * (1.0 + amplitude),
                    t: 0.0,
                }
            }
        };
        Self { rng, horizon, done: false, state }
    }

    /// The RNG after the walk completed, positioned past every time
    /// draw. Used by `LoadStream`'s construction to place the
    /// per-arrival and churn RNG clones.
    fn into_rng(self) -> StdRng {
        debug_assert!(self.done, "drain the walk before taking its RNG");
        self.rng
    }
}

impl Iterator for TimeWalk {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        let horizon = self.horizon;
        match &mut self.state {
            WalkState::Poisson { rate, t } => {
                *t += exponential(&mut self.rng, *rate);
                if *t >= horizon {
                    self.done = true;
                    return None;
                }
                Some(*t)
            }
            WalkState::OnOff {
                burst_rate,
                idle_rate,
                mean_burst,
                mean_idle,
                t,
                bursting,
                phase,
            } => {
                loop {
                    if let Some((phase_end, cursor, rate)) = *phase {
                        let next = cursor + exponential(&mut self.rng, rate);
                        if next >= phase_end.min(horizon) {
                            *phase = None;
                            *t = phase_end;
                            *bursting = !*bursting;
                        } else {
                            *phase = Some((phase_end, next, rate));
                            return Some(next);
                        }
                    } else {
                        if *t >= horizon {
                            self.done = true;
                            return None;
                        }
                        let mean = if *bursting { *mean_burst } else { *mean_idle };
                        let phase_end = *t + exponential(&mut self.rng, 1.0 / mean);
                        let rate = if *bursting { *burst_rate } else { *idle_rate };
                        if rate > 0.0 {
                            *phase = Some((phase_end, *t, rate));
                        } else {
                            *t = phase_end;
                            *bursting = !*bursting;
                        }
                    }
                }
            }
            WalkState::Diurnal { mean_rate, amplitude, period, peak, t } => loop {
                *t += exponential(&mut self.rng, *peak);
                if *t >= horizon {
                    self.done = true;
                    return None;
                }
                let rate = *mean_rate
                    * (1.0 + *amplitude * (2.0 * std::f64::consts::PI * *t / *period).sin());
                if self.rng.gen_range(0.0..1.0) < rate / *peak {
                    return Some(*t);
                }
            },
        }
    }
}

/// How arrivals pick a model from the (mix-filtered) pool.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Popularity {
    /// Every pool model equally likely — the original behaviour (and the
    /// default), drawn with the identical RNG call, so pre-existing specs
    /// produce byte-identical streams.
    #[default]
    Uniform,
    /// Zipf-distributed popularity by pool rank: model `i` (0-based) is
    /// drawn with weight `1 / (i+1)^exponent`. `exponent = 0` degenerates
    /// to uniform weights (via one float draw instead of one integer
    /// draw); ~0.8–1.2 matches the head-heavy skew of real serving
    /// traffic, which is what concentrates shard states and lets the
    /// placement index collapse probes.
    Zipf {
        /// The skew exponent `s ≥ 0`.
        exponent: f64,
    },
}

/// Draws models from a pool under a [`Popularity`] law. Owned (the pool
/// is a handful of ids) so `LoadStream` can carry one without borrows.
struct ModelSampler {
    pool: Vec<ModelId>,
    /// Cumulative normalized Zipf weights; `None` = uniform.
    cdf: Option<Vec<f64>>,
}

impl ModelSampler {
    fn new(pool: &[ModelId], popularity: Popularity) -> Self {
        let cdf = match popularity {
            Popularity::Uniform => None,
            Popularity::Zipf { exponent } => {
                assert!(
                    exponent.is_finite() && exponent >= 0.0,
                    "Zipf exponent must be finite and non-negative"
                );
                let weights: Vec<f64> = (0..pool.len())
                    .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                Some(
                    weights
                        .iter()
                        .map(|w| {
                            acc += w / total;
                            acc
                        })
                        .collect(),
                )
            }
        };
        Self { pool: pool.to_vec(), cdf }
    }

    /// One model draw — exactly one RNG call either way (uniform keeps
    /// the original integer `gen_range`; Zipf inverts the CDF on one
    /// float draw).
    fn draw(&self, rng: &mut StdRng) -> ModelId {
        match &self.cdf {
            None => self.pool[rng.gen_range(0..self.pool.len())],
            Some(cdf) => {
                let u = rng.gen_range(0.0..1.0);
                let idx = cdf.partition_point(|&c| c <= u).min(self.pool.len() - 1);
                self.pool[idx]
            }
        }
    }
}

/// Flash crowds: a seeded Poisson process of viral episodes, each pouring
/// extra arrivals of **one** model onto the fleet for an exponential
/// duration. Carries its own seed (the [`FaultSpec`] discipline), so
/// layering flash crowds onto a spec never perturbs the base arrivals.
#[derive(Debug, Clone)]
pub struct FlashSpec {
    /// Poisson rate of flash-crowd episodes (per second).
    pub rate: f64,
    /// Mean episode duration (seconds, exponential).
    pub mean_duration: f64,
    /// Extra arrivals per second while an episode runs.
    pub boost_rate: f64,
    /// Mean lifetime of flash arrivals (seconds, exponential); `0` lets
    /// them run out the stream.
    pub mean_lifetime: f64,
    /// The flash layer's own RNG seed.
    pub seed: u64,
}

impl Default for FlashSpec {
    fn default() -> Self {
        Self {
            rate: 1.0 / 600.0,
            mean_duration: 60.0,
            boost_rate: 1.0,
            mean_lifetime: 30.0,
            seed: 0,
        }
    }
}

/// Correlated multi-tenant bursts: each tenant alternates idle/burst
/// phases (exponential), and every burst start pulls each *other* tenant
/// into a simultaneous burst with probability `correlation` — the
/// [`FaultSpec`] rack-failure pattern applied to demand instead of
/// supply. A bursting tenant submits its favored model with probability
/// `skew` and otherwise draws from the spec's [`Popularity`] law. Own
/// seed; never perturbs the base arrivals.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Number of tenants (favored models rotate through the pool).
    pub tenants: usize,
    /// Mean idle time between a tenant's bursts (seconds, exponential).
    pub mean_idle: f64,
    /// Mean burst duration (seconds, exponential).
    pub mean_burst: f64,
    /// Arrivals per second from one bursting tenant.
    pub rate: f64,
    /// Probability each other tenant joins a burst at the same instant,
    /// in `[0, 1]`.
    pub correlation: f64,
    /// Probability a burst arrival is the tenant's favored model (the
    /// rest draw from the popularity law), in `[0, 1]`.
    pub skew: f64,
    /// Mean lifetime of burst arrivals (seconds, exponential); `0` lets
    /// them run out the stream.
    pub mean_lifetime: f64,
    /// The tenant layer's own RNG seed.
    pub seed: u64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self {
            tenants: 4,
            mean_idle: 300.0,
            mean_burst: 45.0,
            rate: 0.5,
            correlation: 0.25,
            skew: 0.7,
            mean_lifetime: 60.0,
            seed: 0,
        }
    }
}

/// SplitMix64-style derivation of one episode's RNG seed from its
/// layer seed and episode index. Giving each episode its **own** seeded
/// RNG makes its draw values independent of how the stream's heap
/// merge interleaves it with other episodes.
fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a burst arrival's model draw looks like.
#[derive(Debug, Clone, Copy)]
enum BurstModel {
    /// Every arrival is the episode's viral model.
    Fixed(ModelId),
    /// Favored with probability `skew`, else a popularity draw.
    Tenant { favored: ModelId, skew: f64 },
}

/// One overlay burst episode — a descriptor, not its arrivals (episodes
/// are materialized, arrivals are expanded lazily per episode).
#[derive(Debug, Clone)]
struct BurstEpisode {
    start: f64,
    end: f64,
    /// Arrivals per second while the episode runs.
    rate: f64,
    /// The episode's own RNG seed (see [`derive_stream_seed`]).
    seed: u64,
    model: BurstModel,
    mean_lifetime: f64,
    /// Merge rank of the owning layer (base 0, flash 1, tenants 2).
    layer: u8,
    /// Canonical episode index within the layer (the tie-break after
    /// time and layer).
    idx: u64,
}

/// One overlay arrival, fully drawn: where it sorts, what it runs, and
/// when it leaves (`None` = runs out the stream).
#[derive(Debug, Clone, Copy)]
struct OverlayArrival {
    at: f64,
    layer: u8,
    ep: u64,
    model: ModelId,
    leave: Option<f64>,
}

/// Lazily expands one episode's arrivals from its own seeded RNG.
struct EpisodeCursor {
    ep: BurstEpisode,
    rng: StdRng,
    t: f64,
}

impl EpisodeCursor {
    fn new(ep: BurstEpisode) -> Self {
        let rng = StdRng::seed_from_u64(ep.seed);
        let t = ep.start;
        Self { ep, rng, t }
    }

    /// The episode's next arrival, or `None` when it runs out.
    fn next_arrival(&mut self, horizon: f64, sampler: &ModelSampler) -> Option<OverlayArrival> {
        self.t += exponential(&mut self.rng, self.ep.rate);
        if self.t >= self.ep.end.min(horizon) {
            return None;
        }
        let model = match self.ep.model {
            BurstModel::Fixed(m) => m,
            BurstModel::Tenant { favored, skew } => {
                if self.rng.gen_range(0.0..1.0) < skew {
                    favored
                } else {
                    sampler.draw(&mut self.rng)
                }
            }
        };
        let leave = (self.ep.mean_lifetime > 0.0)
            .then(|| self.t + exponential(&mut self.rng, 1.0 / self.ep.mean_lifetime))
            .filter(|&leave| leave < horizon);
        Some(OverlayArrival { at: self.t, layer: self.ep.layer, ep: self.ep.idx, model, leave })
    }
}

impl FlashSpec {
    fn validate(&self) {
        assert!(self.rate > 0.0, "flash episode rate must be positive");
        assert!(self.mean_duration > 0.0, "flash duration must be positive");
        assert!(self.boost_rate > 0.0, "flash boost rate must be positive");
        assert!(self.mean_lifetime >= 0.0, "flash lifetime cannot be negative");
    }

    /// Expands the layer into episode descriptors (serial: one crowd at a
    /// time): starts are a Poisson renewal walk, each episode's viral
    /// model is drawn uniformly from the pool by the layer RNG, and its
    /// arrivals come from a per-episode derived seed.
    fn episodes(&self, horizon: f64, pool: &[ModelId]) -> Vec<BurstEpisode> {
        self.validate();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut episodes = Vec::new();
        let mut t = 0.0;
        loop {
            t += exponential(&mut rng, self.rate);
            if t >= horizon {
                break;
            }
            let end = t + exponential(&mut rng, 1.0 / self.mean_duration);
            let model = pool[rng.gen_range(0..pool.len())];
            let idx = episodes.len() as u64;
            episodes.push(BurstEpisode {
                start: t,
                end,
                rate: self.boost_rate,
                seed: derive_stream_seed(self.seed, idx),
                model: BurstModel::Fixed(model),
                mean_lifetime: self.mean_lifetime,
                layer: 1,
                idx,
            });
            t = end;
        }
        episodes
    }
}

impl TenantSpec {
    fn validate(&self) {
        assert!(self.tenants > 0, "tenant layer needs at least one tenant");
        assert!(
            self.mean_idle > 0.0 && self.mean_burst > 0.0,
            "tenant phase durations must be positive"
        );
        assert!(self.rate > 0.0, "tenant burst rate must be positive");
        assert!(
            (0.0..=1.0).contains(&self.correlation),
            "tenant correlation must be in [0, 1]"
        );
        assert!((0.0..=1.0).contains(&self.skew), "tenant skew must be in [0, 1]");
        assert!(self.mean_lifetime >= 0.0, "tenant lifetime cannot be negative");
    }

    /// Expands the layer into episode descriptors: per-tenant idle/burst
    /// renewal walks, then correlated joins visited in `(start, tenant)`
    /// order (the [`FaultSpec`] pattern), canonically ordered by
    /// `(start, tenant, end)` so episode indices — and with them the
    /// derived per-episode seeds — are a pure function of the spec.
    fn episodes(&self, horizon: f64, pool: &[ModelId]) -> Vec<BurstEpisode> {
        self.validate();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut raw: Vec<(f64, f64, usize)> = Vec::new();
        for tenant in 0..self.tenants {
            let mut t = 0.0;
            loop {
                t += exponential(&mut rng, 1.0 / self.mean_idle);
                if t >= horizon {
                    break;
                }
                let end = t + exponential(&mut rng, 1.0 / self.mean_burst);
                raw.push((t, end, tenant));
                t = end;
            }
        }
        if self.correlation > 0.0 {
            let mut base = raw.clone();
            base.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            for (start, _, source) in base {
                for joined in 0..self.tenants {
                    if joined == source {
                        continue;
                    }
                    if rng.gen_range(0.0..1.0) < self.correlation {
                        let end = start + exponential(&mut rng, 1.0 / self.mean_burst);
                        raw.push((start, end, joined));
                    }
                }
            }
        }
        raw.sort_by(|a, b| {
            a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)).then(a.1.total_cmp(&b.1))
        });
        raw.into_iter()
            .enumerate()
            .map(|(k, (start, end, tenant))| BurstEpisode {
                start,
                end,
                rate: self.rate,
                seed: derive_stream_seed(self.seed, k as u64),
                model: BurstModel::Tenant {
                    favored: pool[tenant % pool.len()],
                    skew: self.skew,
                },
                mean_lifetime: self.mean_lifetime,
                layer: 2,
                idx: k as u64,
            })
            .collect()
    }
}

/// Deterministic fault-injection configuration: a seeded renewal process
/// of shard outages (exponential MTBF/MTTR, optionally correlated across
/// shards) plus a seeded stream of thermal-throttle episodes per shard.
///
/// The spec carries its **own seed**, drawn from its own RNG stream, so
/// layering faults into a [`LoadSpec`] never perturbs the arrival
/// process — the faulted and fault-free runs see the identical offered
/// load, which is what makes evacuation-on/off A/B comparisons (the
/// `fleet_chaos` bench) exact.
///
/// Per-shard outage intervals are merged before events are emitted, so
/// the generated stream strictly alternates
/// [`FleetEvent::ShardDown`]/[`FleetEvent::ShardUp`] per shard.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Number of shards faults are generated for (indices `0..shards`).
    pub shards: usize,
    /// Mean time between failures per shard (seconds, exponential);
    /// `0.0` disables outages.
    pub mtbf: f64,
    /// Mean time to repair (seconds, exponential).
    pub mttr: f64,
    /// Probability that each *other* shard joins an outage at the same
    /// instant (correlated rack/power failures), in `[0, 1]`.
    pub correlation: f64,
    /// Poisson rate of throttle episodes per shard (per second); `0.0`
    /// disables throttling.
    pub throttle_rate: f64,
    /// Throttle factors are drawn uniformly from this `(min, max)` range
    /// of served-speed fractions, each in `(0, 1]`.
    pub throttle_range: (f64, f64),
    /// Mean throttle-episode duration (seconds, exponential); the episode
    /// ends with a restoring `factor = 1.0` event.
    pub mean_throttle: f64,
    /// The fault stream's own RNG seed (independent of the load seed).
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            shards: 1,
            mtbf: 900.0,
            mttr: 120.0,
            correlation: 0.0,
            throttle_rate: 0.0,
            throttle_range: (0.4, 0.9),
            mean_throttle: 180.0,
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// Expands the spec into a sorted fault-event stream over
    /// `[0, horizon)`.
    ///
    /// Guarantees: per shard, `ShardDown`/`ShardUp` strictly alternate
    /// (overlapping draws — including correlated joins — are merged into
    /// one outage); an outage running past the horizon emits no
    /// `ShardUp`; throttle episodes never overlap on one shard and each
    /// in-horizon episode end restores `factor = 1.0`. The stream is a
    /// pure function of the spec and horizon.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, a rate/duration is negative, the
    /// correlation is outside `[0, 1]`, or the throttle range is not
    /// within `(0, 1]` with `min <= max`.
    pub fn generate(&self, horizon: f64) -> Vec<FleetEvent> {
        assert!(self.shards > 0, "fault spec needs at least one shard");
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(
            self.mtbf >= 0.0 && self.mttr >= 0.0 && self.mean_throttle >= 0.0,
            "fault timescales cannot be negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.correlation),
            "outage correlation must be in [0, 1]"
        );
        let (lo, hi) = self.throttle_range;
        assert!(
            0.0 < lo && lo <= hi && hi <= 1.0,
            "throttle factors must satisfy 0 < min <= max <= 1"
        );
        assert!(self.throttle_rate >= 0.0, "throttle rate cannot be negative");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::new();

        // Base outages: one alternating up/down renewal walk per shard,
        // generated shard by shard from the single spec RNG (a fixed
        // draw order, so the stream is deterministic).
        let mut outages: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.shards];
        if self.mtbf > 0.0 && self.mttr > 0.0 {
            for intervals in outages.iter_mut() {
                let mut t = 0.0;
                loop {
                    t += exponential(&mut rng, 1.0 / self.mtbf);
                    if t >= horizon {
                        break;
                    }
                    let end = t + exponential(&mut rng, 1.0 / self.mttr);
                    intervals.push((t, end));
                    t = end;
                }
            }
            // Correlated joins: every base failure, visited in (time,
            // source-shard) order, pulls each other shard into the outage
            // with probability `correlation` — its repair drawn
            // independently, so a rack event fans out but un-fans
            // raggedly, like real recoveries.
            if self.correlation > 0.0 {
                let mut base: Vec<(f64, usize)> = outages
                    .iter()
                    .enumerate()
                    .flat_map(|(s, iv)| iv.iter().map(move |&(start, _)| (start, s)))
                    .collect();
                base.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for (start, source) in base {
                    for (joined, shard_outages) in outages.iter_mut().enumerate() {
                        if joined == source {
                            continue;
                        }
                        if rng.gen_range(0.0..1.0) < self.correlation {
                            let end = start + exponential(&mut rng, 1.0 / self.mttr);
                            shard_outages.push((start, end));
                        }
                    }
                }
            }
        }
        for (s, intervals) in outages.iter_mut().enumerate() {
            // Merge overlapping draws so the emitted stream strictly
            // alternates Down/Up per shard.
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut merged: Vec<(f64, f64)> = Vec::new();
            for &(start, end) in intervals.iter() {
                match merged.last_mut() {
                    Some(last) if start <= last.1 => last.1 = last.1.max(end),
                    _ => merged.push((start, end)),
                }
            }
            for (start, end) in merged {
                events.push(FleetEvent::ShardDown { at: start, shard: s });
                if end < horizon {
                    events.push(FleetEvent::ShardUp { at: end, shard: s });
                }
            }
        }

        // Throttle episodes: per shard, non-overlapping by construction
        // (the walk resumes at each episode's end).
        if self.throttle_rate > 0.0 && self.mean_throttle > 0.0 {
            for s in 0..self.shards {
                let mut t = 0.0;
                loop {
                    t += exponential(&mut rng, self.throttle_rate);
                    if t >= horizon {
                        break;
                    }
                    let factor =
                        if lo == hi { lo } else { rng.gen_range(lo..hi) };
                    let end = t + exponential(&mut rng, 1.0 / self.mean_throttle);
                    events.push(FleetEvent::ShardThrottle { at: t, shard: s, factor });
                    if end < horizon {
                        events.push(FleetEvent::ShardThrottle {
                            at: end,
                            shard: s,
                            factor: 1.0,
                        });
                    }
                    t = end;
                }
            }
        }
        events.sort_by(|a, b| a.at().total_cmp(&b.at()));
        events
    }
}

/// Load-generation configuration.
///
/// # Example
///
/// A bursty stream is fully determined by its spec — same seed, same
/// events, which is what makes trace replay exact:
///
/// ```
/// use rankmap_fleet::{generate, ArrivalProcess, FleetEvent, LoadSpec};
///
/// let spec = LoadSpec {
///     horizon: 300.0,
///     process: ArrivalProcess::OnOff {
///         burst_rate: 0.5,
///         idle_rate: 0.0,
///         mean_burst: 20.0,
///         mean_idle: 60.0,
///     },
///     seed: 7,
///     ..Default::default()
/// };
/// let events = generate(&spec);
/// assert_eq!(events, generate(&spec), "generation is deterministic");
/// assert!(events.iter().all(|e| (0.0..spec.horizon).contains(&e.at())));
/// assert!(events.iter().any(|e| matches!(e, FleetEvent::Arrive { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Stream length in seconds.
    pub horizon: f64,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Mean DNN lifetime in seconds (exponential); departures past the
    /// horizon are dropped (the instance runs out the stream).
    pub mean_lifetime: f64,
    /// Model pool arrivals draw from (filtered by `mix`).
    pub pool: Vec<ModelId>,
    /// Heavy/light filter over the pool.
    pub mix: MixProfile,
    /// Poisson rate of fleet-wide priority churn (events per second);
    /// each rotates the critical rank among the offered-live count or
    /// reverts to dynamic ranks.
    pub priority_churn_rate: f64,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
    /// Optional fault layer: shard outages and throttle episodes
    /// generated from the fault spec's *own* seed and merged into the
    /// stream. `None` (the default) offers the identical fault-free
    /// stream as before — layering faults never perturbs the arrivals.
    pub faults: Option<FaultSpec>,
    /// How arrivals pick a model from the pool. The default
    /// ([`Popularity::Uniform`]) reproduces the original draws exactly;
    /// [`Popularity::Zipf`] skews toward the head of the pool.
    pub popularity: Popularity,
    /// Optional flash-crowd layer (own seed — never perturbs the base
    /// arrivals or the fault layer).
    pub flash: Option<FlashSpec>,
    /// Optional correlated multi-tenant burst layer (own seed — never
    /// perturbs the base arrivals, the flash layer, or the fault layer).
    pub tenants: Option<TenantSpec>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            horizon: 600.0,
            process: ArrivalProcess::Poisson { rate: 1.0 / 30.0 },
            mean_lifetime: 240.0,
            pool: ModelId::paper_pool(),
            mix: MixProfile::Mixed,
            priority_churn_rate: 0.0,
            seed: 0,
            faults: None,
            popularity: Popularity::Uniform,
            flash: None,
            tenants: None,
        }
    }
}

/// Collects the whole [`LoadStream`] for a [`LoadSpec`] into a `Vec`.
///
/// Guarantees: event times are non-decreasing and within `[0, horizon)`;
/// every departure names a request that arrived strictly earlier and
/// departs exactly once; request ids are dense in arrival order.
///
/// # Panics
///
/// Same contract as [`LoadStream::new`]: panics if the (mix-filtered)
/// pool is empty, `horizon <= 0`, or any layer's parameters are invalid.
pub fn generate(spec: &LoadSpec) -> Vec<FleetEvent> {
    LoadStream::new(spec).collect()
}

/// The load generator: an iterator over a [`LoadSpec`]'s sorted event
/// stream that never materializes it.
///
/// At bench scale (10⁵–10⁶ instance lifetimes) a vector of every
/// arrival, departure and churn event would dominate a run's footprint,
/// so the stream draws lazily. Its RNG draw order is fixed, and every
/// recorded trace and benchmark event log depends on it: all base
/// arrival times first, then each base arrival's model and lifetime in
/// arrival order, then the churn times. The stream keeps that order
/// while drawing on demand:
///
/// * **Arrival times** walk the process incrementally (the internal
///   `TimeWalk`).
/// * **Per-arrival draws** (model, lifetime) come from a second RNG
///   clone, positioned past every time draw by draining one time walk
///   at construction.
/// * **Churn draws** come from a third clone positioned past the
///   per-arrival draws the same way.
/// * **Overlay arrivals** expand per episode from derived seeds and
///   merge through a heap keyed `(time, layer, episode)`.
/// * **Departures** wait in a min-heap keyed `(time, request ordinal)` —
///   O(live instances), the stream's only load-proportional state.
///
/// Equal timestamps order by kind (arrive < depart < churn < fault),
/// then by order within the kind. Fault events and overlay episode
/// *descriptors* are materialized up front — both are sparse (outages
/// and bursts, not arrivals) — so peak buffered event state is
/// independent of how many instances the horizon offers
/// ([`LoadStream::peak_buffered`] measures it, and the bounded-buffer
/// test asserts it). The golden pins in `tests/load_stream.rs` hold the
/// stream to the exact events it has always produced.
///
/// # Example
///
/// A long horizon streams in buffered state that tracks the live
/// instances, not the offered load:
///
/// ```
/// use rankmap_fleet::{ArrivalProcess, FleetEvent, LoadSpec, LoadStream};
///
/// let spec = LoadSpec {
///     horizon: 10_000.0,
///     process: ArrivalProcess::Poisson { rate: 0.5 },
///     mean_lifetime: 20.0,
///     ..Default::default()
/// };
/// let mut stream = LoadStream::new(&spec);
/// let arrivals = stream.by_ref().filter(|e| matches!(e, FleetEvent::Arrive { .. })).count();
/// assert!(arrivals > 4_000);
/// assert!(stream.peak_buffered() < 100, "about rate × lifetime = 10 live instances");
/// ```
pub struct LoadStream {
    horizon: f64,
    mean_lifetime: f64,
    sampler: ModelSampler,
    /// Lazy base arrival-time walk plus its lookahead.
    walk: TimeWalk,
    base_next: Option<f64>,
    /// Positioned past all time draws: model + lifetime per base arrival.
    marks_rng: StdRng,
    /// Overlay episode cursors and their pending arrivals, merged via
    /// a min-heap of `(time bits, layer, episode, slot)`.
    cursors: Vec<EpisodeCursor>,
    pending: Vec<Option<OverlayArrival>>,
    overlay_heap: BinaryHeap<Reverse<(u64, u8, u64, usize)>>,
    /// In-horizon departures awaiting emission: `(time bits, ordinal)`.
    departures: BinaryHeap<Reverse<(u64, u64)>>,
    /// Positioned past all per-arrival draws; a zero rate disables churn.
    churn_rng: StdRng,
    churn_rate: f64,
    churn_t: f64,
    churn_next: Option<f64>,
    rotation: usize,
    arrivals_emitted: u64,
    departures_emitted: u64,
    /// Materialized fault layer (sparse) and its cursor.
    faults: Vec<FleetEvent>,
    fault_cursor: usize,
    peak_buffered: usize,
}

impl LoadStream {
    /// Builds the stream for a spec. Construction drains one time walk
    /// (cheap, allocation-free) to position the per-arrival and churn
    /// RNG clones.
    ///
    /// # Panics
    ///
    /// Panics if the (mix-filtered) pool is empty, `horizon <= 0`, or
    /// any layer's parameters are invalid.
    pub fn new(spec: &LoadSpec) -> Self {
        assert!(spec.horizon > 0.0, "horizon must be positive");
        let pool = mix_pool(&spec.pool, spec.mix);
        assert!(!pool.is_empty(), "load pool must not be empty");
        let sampler = ModelSampler::new(&pool, spec.popularity);

        // Position the per-arrival RNG: drain one walk to count arrivals
        // and land exactly past the time draws.
        let mut probe = TimeWalk::new(spec.process, spec.horizon, StdRng::seed_from_u64(spec.seed));
        let arrival_count = probe.by_ref().count();
        let marks_rng = probe.into_rng();

        // Position the churn RNG past the per-arrival draws (one model
        // draw, plus one lifetime draw when lifetimes are finite).
        let mut churn_rng = marks_rng.clone();
        for _ in 0..arrival_count {
            sampler.draw(&mut churn_rng);
            if spec.mean_lifetime > 0.0 {
                exponential(&mut churn_rng, 1.0 / spec.mean_lifetime);
            }
        }

        // The live walk the iterator consumes, plus its lookahead.
        let mut walk = TimeWalk::new(spec.process, spec.horizon, StdRng::seed_from_u64(spec.seed));
        let base_next = walk.next();

        // Overlay cursors: episode descriptors are materialized (sparse),
        // their arrivals expand lazily through the heap.
        let mut cursors = Vec::new();
        for episodes in [
            spec.flash.as_ref().map(|f| f.episodes(spec.horizon, &pool)),
            spec.tenants.as_ref().map(|t| t.episodes(spec.horizon, &pool)),
        ]
        .into_iter()
        .flatten()
        {
            cursors.extend(episodes.into_iter().map(EpisodeCursor::new));
        }
        let mut pending = Vec::with_capacity(cursors.len());
        let mut overlay_heap = BinaryHeap::with_capacity(cursors.len());
        for (slot, cursor) in cursors.iter_mut().enumerate() {
            let arrival = cursor.next_arrival(spec.horizon, &sampler);
            if let Some(a) = &arrival {
                overlay_heap.push(Reverse((a.at.to_bits(), a.layer, a.ep, slot)));
            }
            pending.push(arrival);
        }

        let faults = spec
            .faults
            .as_ref()
            .map(|f| f.generate(spec.horizon))
            .unwrap_or_default();

        let mut stream = Self {
            horizon: spec.horizon,
            mean_lifetime: spec.mean_lifetime,
            sampler,
            walk,
            base_next,
            marks_rng,
            cursors,
            pending,
            overlay_heap,
            departures: BinaryHeap::new(),
            churn_rng,
            churn_rate: spec.priority_churn_rate,
            churn_t: 0.0,
            churn_next: None,
            rotation: 0,
            arrivals_emitted: 0,
            departures_emitted: 0,
            faults,
            fault_cursor: 0,
            peak_buffered: 0,
        };
        if stream.churn_rate > 0.0 {
            stream.advance_churn();
        }
        stream
    }

    /// High-water mark of buffered *load-proportional* state: pending
    /// departures plus queued overlay arrivals. Bounded by live
    /// instances (plus one arrival per active burst episode), not by
    /// horizon length — the bounded-buffer test pins this.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    fn advance_churn(&mut self) {
        self.churn_t += exponential(&mut self.churn_rng, self.churn_rate);
        self.churn_next = (self.churn_t < self.horizon).then_some(self.churn_t);
    }

    /// The next merged arrival's sort key `(time bits, layer, episode)`.
    /// All stream times are positive finite, so raw f64 bits order
    /// exactly like the floats.
    fn peek_arrival(&self) -> Option<(u64, u8, u64)> {
        let base = self.base_next.map(|t| (t.to_bits(), 0u8, 0u64));
        let overlay = self
            .overlay_heap
            .peek()
            .map(|Reverse((bits, layer, ep, _))| (*bits, *layer, *ep));
        match (base, overlay) {
            (Some(b), Some(o)) => Some(b.min(o)),
            (key, None) | (None, key) => key,
        }
    }

    /// Emits the next merged arrival (base beats overlays on time ties —
    /// layer 0 sorts first).
    fn emit_arrival(&mut self) -> FleetEvent {
        let take_base = match (self.base_next, self.overlay_heap.peek()) {
            (Some(t), Some(Reverse((bits, _, _, _)))) => t.to_bits() <= *bits,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let (at, model, leave) = if take_base {
            let at = self.base_next.take().expect("base arrival pending");
            let model = self.sampler.draw(&mut self.marks_rng);
            let leave = (self.mean_lifetime > 0.0)
                .then(|| at + exponential(&mut self.marks_rng, 1.0 / self.mean_lifetime))
                .filter(|&leave| leave < self.horizon);
            self.base_next = self.walk.next();
            (at, model, leave)
        } else {
            let Reverse((_, _, _, slot)) = self.overlay_heap.pop().expect("overlay pending");
            let arrival = self.pending[slot].take().expect("cursor pending");
            let next = self.cursors[slot].next_arrival(self.horizon, &self.sampler);
            if let Some(a) = &next {
                self.overlay_heap.push(Reverse((a.at.to_bits(), a.layer, a.ep, slot)));
            }
            self.pending[slot] = next;
            (arrival.at, arrival.model, arrival.leave)
        };
        let request = RequestId::new(self.arrivals_emitted);
        self.arrivals_emitted += 1;
        if let Some(leave) = leave {
            self.departures.push(Reverse((leave.to_bits(), request.ordinal())));
        }
        self.peak_buffered =
            self.peak_buffered.max(self.departures.len() + self.overlay_heap.len());
        FleetEvent::Arrive { at, request, model }
    }
}

impl Iterator for LoadStream {
    type Item = FleetEvent;

    fn next(&mut self) -> Option<FleetEvent> {
        // Candidates from the four sources, each tagged with its kind
        // rank, which orders equal timestamps: arrivals, then
        // departures, churn, faults.
        let arrival = self.peek_arrival().map(|(bits, _, _)| (bits, 0u8));
        let depart = self.departures.peek().map(|Reverse((bits, _))| (*bits, 1u8));
        let churn = self.churn_next.map(|t| (t.to_bits(), 2u8));
        let fault = self.faults.get(self.fault_cursor).map(|e| (e.at().to_bits(), 3u8));
        let (_, kind) = [arrival, depart, churn, fault].into_iter().flatten().min()?;
        Some(match kind {
            0 => self.emit_arrival(),
            1 => {
                let Reverse((bits, ordinal)) = self.departures.pop().expect("departure pending");
                self.departures_emitted += 1;
                FleetEvent::Depart { at: f64::from_bits(bits), request: RequestId::new(ordinal) }
            }
            2 => {
                let at = self.churn_next.take().expect("churn pending");
                // Arrivals and departures at or before `at` have all been
                // emitted (kind ranks 0, 1 < 2), so the emission counters
                // are the live count at `at`.
                let live = (self.arrivals_emitted - self.departures_emitted) as usize;
                let mode = if live == 0 || self.rotation % (live + 1) == live {
                    PriorityMode::Dynamic
                } else {
                    PriorityMode::critical(live, self.rotation % live)
                };
                self.rotation += 1;
                self.advance_churn();
                FleetEvent::SetPriorities { at, mode }
            }
            _ => {
                let event = self.faults[self.fault_cursor].clone();
                self.fault_cursor += 1;
                event
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals_of(events: &[FleetEvent]) -> Vec<f64> {
        events
            .iter()
            .filter_map(|e| match e {
                FleetEvent::Arrive { at, .. } => Some(*at),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = LoadSpec {
            process: ArrivalProcess::OnOff {
                burst_rate: 0.5,
                idle_rate: 0.0,
                mean_burst: 30.0,
                mean_idle: 60.0,
            },
            priority_churn_rate: 1.0 / 120.0,
            ..Default::default()
        };
        assert_eq!(generate(&spec), generate(&spec));
        let other = LoadSpec { seed: 1, ..spec.clone() };
        assert_ne!(generate(&other), generate(&spec));
    }

    #[test]
    fn events_sorted_and_departures_valid() {
        for process in [
            ArrivalProcess::Poisson { rate: 0.1 },
            ArrivalProcess::OnOff {
                burst_rate: 0.8,
                idle_rate: 0.02,
                mean_burst: 20.0,
                mean_idle: 90.0,
            },
            ArrivalProcess::Diurnal { mean_rate: 0.1, amplitude: 0.8, period: 300.0 },
        ] {
            let spec = LoadSpec { process, seed: 7, ..Default::default() };
            let events = generate(&spec);
            let mut last = 0.0f64;
            let mut arrived = 0u64;
            let mut departed = std::collections::HashSet::new();
            for e in &events {
                assert!(e.at() >= last, "sorted");
                assert!((0.0..spec.horizon).contains(&e.at()));
                last = e.at();
                match e {
                    FleetEvent::Arrive { request, .. } => {
                        assert_eq!(request.ordinal(), arrived, "dense arrival ids");
                        arrived += 1;
                    }
                    FleetEvent::Depart { request, .. } => {
                        assert!(request.ordinal() < arrived, "departs after arrival");
                        assert!(departed.insert(*request), "departs once");
                    }
                    _ => {}
                }
            }
            assert!(arrived > 0, "the stream must offer load");
        }
    }

    #[test]
    fn bursty_load_clusters_arrivals() {
        // Same mean rate, bursty vs Poisson: the on/off stream must have a
        // far higher variance of inter-arrival gaps.
        let horizon = 20_000.0;
        let poisson = LoadSpec {
            horizon,
            process: ArrivalProcess::Poisson { rate: 0.05 },
            mean_lifetime: 0.0,
            seed: 3,
            ..Default::default()
        };
        let bursty = LoadSpec {
            horizon,
            // burst 0.245/s for 50s, idle 0.0025/s for 190s → ~0.053/s mean.
            process: ArrivalProcess::OnOff {
                burst_rate: 0.245,
                idle_rate: 0.0025,
                mean_burst: 50.0,
                mean_idle: 190.0,
            },
            mean_lifetime: 0.0,
            seed: 3,
            ..Default::default()
        };
        let cv2 = |events: &[FleetEvent]| {
            let times = arrivals_of(events);
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var =
                gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let p = cv2(&generate(&poisson));
        let b = cv2(&generate(&bursty));
        assert!(
            b > 2.0 * p,
            "bursty arrivals must be overdispersed vs Poisson: CV² {b:.2} vs {p:.2}"
        );
    }

    #[test]
    fn diurnal_peak_outdraws_trough() {
        let period = 1_000.0;
        let spec = LoadSpec {
            horizon: 50_000.0,
            process: ArrivalProcess::Diurnal { mean_rate: 0.05, amplitude: 0.9, period },
            mean_lifetime: 0.0,
            seed: 5,
            ..Default::default()
        };
        let times = arrivals_of(&generate(&spec));
        // First half of each cycle is the crest of the sine, second the
        // trough.
        let (peak, trough): (Vec<&f64>, Vec<&f64>) =
            times.iter().partition(|&&t| (t % period) < period / 2.0);
        assert!(
            peak.len() as f64 > 2.0 * trough.len() as f64,
            "the crest must dominate: {} vs {}",
            peak.len(),
            trough.len()
        );
    }

    #[test]
    fn fault_layer_never_perturbs_the_arrival_stream() {
        // The A/B foundation of the chaos bench: the faulted stream's
        // non-fault events are byte-identical to the fault-free stream.
        let clean = LoadSpec { seed: 9, ..Default::default() };
        let faulted = LoadSpec {
            faults: Some(FaultSpec {
                shards: 4,
                mtbf: 150.0,
                mttr: 60.0,
                correlation: 0.3,
                throttle_rate: 1.0 / 120.0,
                ..Default::default()
            }),
            ..clean.clone()
        };
        let strip = |events: Vec<FleetEvent>| -> Vec<FleetEvent> {
            events
                .into_iter()
                .filter(|e| {
                    !matches!(
                        e,
                        FleetEvent::ShardDown { .. }
                            | FleetEvent::ShardUp { .. }
                            | FleetEvent::ShardThrottle { .. }
                    )
                })
                .collect()
        };
        assert_eq!(strip(generate(&faulted)), generate(&clean));
        assert_ne!(generate(&faulted), generate(&clean), "faults actually fired");
    }

    #[test]
    fn outages_alternate_down_up_per_shard() {
        let spec = FaultSpec {
            shards: 6,
            mtbf: 80.0,
            mttr: 40.0,
            correlation: 0.5,
            ..Default::default()
        };
        let horizon = 2_000.0;
        let events = spec.generate(horizon);
        assert_eq!(events, spec.generate(horizon), "fault generation is deterministic");
        let mut down = vec![false; spec.shards];
        let mut last = 0.0f64;
        let mut outages = 0;
        for e in &events {
            assert!(e.at() >= last, "sorted");
            assert!((0.0..horizon).contains(&e.at()));
            last = e.at();
            match *e {
                FleetEvent::ShardDown { shard, .. } => {
                    assert!(!down[shard], "down events strictly alternate with up");
                    down[shard] = true;
                    outages += 1;
                }
                FleetEvent::ShardUp { shard, .. } => {
                    assert!(down[shard], "up only after down");
                    down[shard] = false;
                }
                _ => panic!("outage-only spec emitted {e:?}"),
            }
        }
        assert!(outages > spec.shards, "the walk must produce repeated outages");
    }

    #[test]
    fn correlation_couples_outage_starts() {
        let base = FaultSpec { shards: 8, mtbf: 300.0, mttr: 30.0, ..Default::default() };
        let starts = |correlation: f64| -> Vec<f64> {
            let spec = FaultSpec { correlation, ..base.clone() };
            spec.generate(5_000.0)
                .iter()
                .filter_map(|e| match e {
                    FleetEvent::ShardDown { at, .. } => Some(*at),
                    _ => None,
                })
                .collect()
        };
        // Count multi-shard outages: down events sharing one timestamp.
        let shared = |starts: &[f64]| {
            starts.windows(2).filter(|w| w[0] == w[1]).count()
        };
        let independent = starts(0.0);
        let correlated = starts(0.8);
        assert_eq!(shared(&independent), 0, "independent outages never share an instant");
        assert!(
            shared(&correlated) > 3,
            "correlated outages must pull other shards down at the same instant"
        );
    }

    #[test]
    fn throttle_episodes_bound_factors_and_restore() {
        let spec = FaultSpec {
            shards: 3,
            mtbf: 0.0, // outages off: throttles only
            throttle_rate: 1.0 / 100.0,
            throttle_range: (0.5, 0.8),
            mean_throttle: 60.0,
            ..Default::default()
        };
        let events = spec.generate(4_000.0);
        let mut throttled = vec![false; spec.shards];
        let mut episodes = 0;
        for e in &events {
            let FleetEvent::ShardThrottle { shard, factor, .. } = *e else {
                panic!("throttle-only spec emitted {e:?}");
            };
            if factor == 1.0 {
                assert!(throttled[shard], "a restore must close an open episode");
                throttled[shard] = false;
            } else {
                assert!((0.5..0.8).contains(&factor), "factor within the range: {factor}");
                assert!(!throttled[shard], "episodes never overlap on one shard");
                throttled[shard] = true;
                episodes += 1;
            }
        }
        assert!(episodes >= 3, "the walk must produce real episodes: {episodes}");
    }

    #[test]
    fn equal_timestamps_order_by_kind() {
        // No spec ties two kinds (their times are independent continuous
        // draws), so the rank is pinned on a stream whose pending
        // arrival, departure, churn and fault are set to one instant.
        let spec = LoadSpec { priority_churn_rate: 0.1, ..Default::default() };
        let mut stream = LoadStream::new(&spec);
        let at = 1e-9;
        stream.base_next = Some(at);
        stream.departures.push(Reverse((at.to_bits(), 0)));
        (stream.churn_t, stream.churn_next) = (at, Some(at));
        stream.faults = vec![FleetEvent::ShardDown { at, shard: 0 }];
        let kinds: Vec<&str> = stream
            .take(4)
            .inspect(|e| assert_eq!(e.at(), at, "{e:?}"))
            .map(|e| match e {
                FleetEvent::Arrive { .. } => "arrive",
                FleetEvent::Depart { .. } => "depart",
                FleetEvent::SetPriorities { .. } => "churn",
                _ => "fault",
            })
            .collect();
        assert_eq!(kinds, ["arrive", "depart", "churn", "fault"]);
    }

    #[test]
    fn mean_rate_matches_offered_load() {
        let p = ArrivalProcess::OnOff {
            burst_rate: 0.5,
            idle_rate: 0.1,
            mean_burst: 10.0,
            mean_idle: 30.0,
        };
        assert!((p.mean_rate() - (0.5 * 10.0 + 0.1 * 30.0) / 40.0).abs() < 1e-12);
        assert_eq!(ArrivalProcess::Poisson { rate: 0.2 }.mean_rate(), 0.2);
    }
}
