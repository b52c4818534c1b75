//! `perfbench`: the repository's fleet benchmark.
//!
//! One command runs one named workload — a seeded event log replayed
//! through `FleetRuntime::execute_stream` as fast as the control plane
//! handles it, on the library's default executor — repeatedly for
//! `--seconds`, checks every run's output, and prints end-to-end metrics
//! (`--trace 0`) or the traced per-layer table (`--trace 1`). The last
//! line of standard output is one JSON object:
//! `{"attempted", "correct", "failed", "metrics": {name: {value, unit}}}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf_128 --seed 29 --seconds 30 --trace 0
//! ```

mod cpu;
mod heap;
mod layers;
mod timed_oracle;
mod workload;

use rankmap_core::json::{obj, Json};
use rankmap_core::oracle::{AnalyticalOracle, ThroughputOracle};
use rankmap_fleet::{
    FleetConfig, FleetEvent, FleetMetrics, FleetOutcome, FleetRuntime, FleetSpec, LatencyStats,
    LoadSpec, LoadStream, Parallelism, RequestId, ShardSpec, TelemetrySnapshot, TelemetrySpec,
};
use rankmap_platform::Platform;
use std::collections::{BTreeMap, HashSet};
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed_oracle::{Span, TimedOracle};
use workload::Workload;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str = "usage: perfbench --workload <zipf_128|hetero_cold|chaos_16> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups are timed one at a time between the warm-up replay's events:
/// the next is due once the replay has used this many times the last
/// set-up's CPU time, so set-ups take about a tenth of the warm-up and
/// are spread across all of it.
///
/// `setup_s` is the fastest of them. A set-up is the same work every
/// time, and on a shared host other work on the core only ever adds to
/// its CPU time: in steps up to 1.7 times its cost, changing every tenth
/// of a second or so, in a mix that drifts over minutes. The median of a
/// run's set-ups followed that mix, moving by a third between
/// invocations; the fastest of a few hundred, spread over seconds, is
/// almost always one the host did not slow.
const SETUP_PACE: f64 = 9.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 30.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// What one replay of the event log produced.
struct Run {
    /// Wall seconds of `execute_stream`.
    wall_s: f64,
    /// CPU seconds the process spent in `execute_stream`, all threads.
    cpu_s: f64,
    events: u64,
    arrivals: u64,
    digest: u64,
    /// Why the run's output is wrong, if it is.
    fault: Option<String>,
    metrics: FleetMetrics,
    placement: LatencyStats,
    evacuation: LatencyStats,
    telemetry: Option<TelemetrySnapshot>,
}

/// Builds the fleet over already-built oracles, and the load stream.
fn build<'a, O: ThroughputOracle>(
    groups: &'a [(Platform, usize)],
    oracles: &'a [O],
    load: &LoadSpec,
    config: FleetConfig,
) -> (FleetRuntime<'a, O>, LoadStream) {
    let spec = FleetSpec::new(
        groups
            .iter()
            .zip(oracles)
            .map(|((p, n), o)| ShardSpec::new(p, o, *n))
            .collect(),
    );
    (FleetRuntime::new(&spec, config), LoadStream::new(load))
}

/// Times set-ups (the oracles, the fleet and the load stream, built and
/// dropped) between a replay's events, paced by [`SETUP_PACE`].
struct SetupSampler<'a> {
    groups: &'a [(Platform, usize)],
    load: LoadSpec,
    config: FleetConfig,
    /// Process CPU seconds at which the next set-up is due.
    due: f64,
    /// CPU seconds of each set-up timed so far.
    samples: Vec<f64>,
}

impl<'a> SetupSampler<'a> {
    fn new(workload: Workload, groups: &'a [(Platform, usize)], seed: u64) -> Self {
        SetupSampler {
            groups,
            load: workload.load(seed),
            config: workload.config(TelemetrySpec::default()),
            due: 0.0,
            samples: Vec::new(),
        }
    }

    /// Times one set-up if one is due. Heap counting is off meanwhile, so
    /// neither the set-up's memory, gone again when it returns, nor the
    /// list of timings counts as heap the fleet holds.
    fn between_events(&mut self) {
        let start = cpu::process_seconds();
        if start < self.due {
            return;
        }
        heap::paused(|| {
            let oracles: Vec<AnalyticalOracle> = self
                .groups
                .iter()
                .map(|(platform, _)| AnalyticalOracle::new(platform))
                .collect();
            drop(build(
                self.groups,
                &oracles,
                &self.load,
                self.config.clone(),
            ));
            let end = cpu::process_seconds();
            self.samples.push(end - start);
            self.due = end + SETUP_PACE * (end - start);
        });
    }
}

/// Builds the oracles, the fleet and the load stream, replays the stream
/// (timing `execute_stream`, and calling `between` before each event is
/// handed over), checks the outcome, and hands the oracles back so a
/// timing wrapper can give up its spans.
fn replay<'p, O: ThroughputOracle>(
    workload: Workload,
    groups: &'p [(Platform, usize)],
    seed: u64,
    telemetry: TelemetrySpec,
    oracle: impl Fn(&'p Platform) -> O,
    mut between: impl FnMut(),
) -> (Run, Vec<O>) {
    let load = workload.load(seed);
    let oracles: Vec<O> = groups
        .iter()
        .map(|(platform, _)| oracle(platform))
        .collect();
    let (fleet, stream) = build(groups, &oracles, &load, workload.config(telemetry));

    let (mut events, mut arrivals) = (0u64, Vec::new());
    let stream = stream.inspect(|event| {
        heap::between_events();
        between();
        events += 1;
        if let FleetEvent::Arrive { request, .. } = event {
            arrivals.push(*request);
        }
    });
    let (start, cpu_start) = (Instant::now(), cpu::process_seconds());
    let outcome = fleet.execute_stream(stream, load.horizon);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu::process_seconds() - cpu_start;

    let run = Run {
        wall_s,
        cpu_s,
        events,
        arrivals: arrivals.len() as u64,
        digest: digest(&outcome),
        fault: check(&outcome, &arrivals),
        metrics: outcome.metrics,
        placement: outcome.placement_latency,
        evacuation: outcome.evacuation_latency,
        telemetry: outcome.telemetry,
    };
    (run, oracles)
}

/// The per-run correctness check: instance accounting balances, and
/// every offered arrival got a placement record.
fn check(outcome: &FleetOutcome, arrivals: &[RequestId]) -> Option<String> {
    let m = &outcome.metrics;
    if !m.accounting_balances() {
        return Some(format!(
            "accounting does not balance: offered {} admitted {} rejected {} departed {} \
             live {} shed {}",
            m.offered, m.admitted, m.rejected, m.departed, m.live_at_end, m.shed
        ));
    }
    if m.offered != arrivals.len() as u64 {
        return Some(format!(
            "{} arrivals offered, metrics count {}",
            arrivals.len(),
            m.offered
        ));
    }
    let placed: HashSet<RequestId> = outcome.placements.iter().map(|p| p.request).collect();
    arrivals
        .iter()
        .find(|r| !placed.contains(r))
        .map(|r| format!("arrival {} has no placement record", r.ordinal()))
}

/// FNV-1a over formatted text, so a digest needs no copy of it.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// A digest of the run's decisions: metrics, placements and timelines.
/// `Debug` prints every float in shortest round-trip form, so equal
/// digests mean bit-identical outcomes (up to hash collisions).
fn digest(outcome: &FleetOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(
        h,
        "{:?}{:?}{:?}",
        outcome.metrics, outcome.placements, outcome.timelines
    )
    .expect("hashing never fails");
    h.0
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A metric as the result line states it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: BTreeMap<String, Json> = metrics
        .iter()
        .map(|m| {
            let entry = obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// The end-to-end metrics: medians over the timed runs, the fastest
/// set-up, and the heap the warm-up replay held.
fn end_to_end(runs: &[Run], setups: &[f64], heap: &heap::Growth) -> Vec<Metric> {
    let of = |f: &dyn Fn(&Run) -> f64| median(runs.iter().map(f).collect());
    let m = &runs[0].metrics;
    let failed_frac = (m.rejected + m.shed) as f64 / m.offered as f64;
    let placement = runs[0].placement.samples;
    println!(
        "  events_per_cpu_s over {} runs, {:.1} events per wall second; \
         setup_s the fastest of {} set-ups, whose median is {:.3} ms",
        runs.len(),
        of(&|r| r.events as f64 / r.wall_s),
        setups.len(),
        median(setups.to_vec()) * 1e3
    );
    println!(
        "  failed_frac {failed_frac:.6} ratio: {} rejected + {} shed of {} offered",
        m.rejected, m.shed, m.offered
    );
    println!(
        "  placement_p50_us {:.1} us, p90 {:.1} us, p99 {:.1} us: {placement} samples per run, \
         {} beyond p99{}",
        of(&|r| us(r.placement.p50)),
        of(&|r| us(r.placement.p90)),
        of(&|r| us(r.placement.p99)),
        placement / 100,
        if placement >= 1000 {
            ""
        } else {
            " (under 10: p99 is not supported)"
        }
    );
    println!(
        "  evacuation_p50_us {:.1} us: {} samples per run",
        of(&|r| us(r.evacuation.p50)),
        runs[0].evacuation.samples
    );
    let metrics = vec![
        Metric {
            name: "events_per_cpu_s",
            unit: "1/cpu_s",
            value: of(&|r| r.events as f64 / r.cpu_s),
        },
        Metric {
            name: "potential_s",
            unit: "pot_s",
            value: m.aggregate_potential_seconds,
        },
        Metric {
            name: "served_frac",
            unit: "ratio",
            value: 1.0 - failed_frac,
        },
        Metric {
            name: "high_tier_availability",
            unit: "ratio",
            value: m.tier_availability()[0],
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setups.iter().copied().fold(f64::INFINITY, f64::min),
        },
        Metric {
            name: "held_heap_mb",
            unit: "MB",
            value: heap.held as f64 / 1e6,
        },
    ];
    for m in &metrics {
        println!("    {:24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    metrics
}

/// The per-layer metrics, as medians over the traced runs.
fn per_layer(
    workload: Workload,
    seed: u64,
    untraced: &[Run],
    traced: &[(Run, Vec<Span>)],
) -> Vec<Metric> {
    let of = |f: &dyn Fn(&Run) -> f64| median(untraced.iter().map(f).collect());
    let untraced_wall_s = of(&|r| r.wall_s);
    let untraced_events_per_s = of(&|r| r.events as f64 / r.wall_s);
    let placement_p50_us = of(&|r| us(r.placement.p50));
    let placement_p90_us = of(&|r| us(r.placement.p90));
    let evacuation_p50_us = of(&|r| us(r.evacuation.p50));
    let tables: Vec<Vec<layers::Layer>> = traced
        .iter()
        .map(|(run, spans)| {
            layers::measure(&layers::TracedRun {
                telemetry: run
                    .telemetry
                    .as_ref()
                    .expect("traced runs have telemetry on"),
                spans,
                wall_s: run.wall_s,
                events: run.events,
                placement_p50_us,
                placement_p90_us,
                evacuation_p50_us,
                untraced_wall_s,
                untraced_events_per_s,
            })
        })
        .collect();
    let metrics: Vec<Metric> = (0..tables[0].len())
        .map(|i| Metric {
            name: tables[0][i].name,
            unit: tables[0][i].unit,
            value: median(tables.iter().map(|t| t[i].value).collect()),
        })
        .collect();

    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let wall = value("executor.wall_s");
    println!("  per-layer table ({} traced runs, medians):", traced.len());
    for m in &metrics {
        let note = if m.unit == "s" {
            format!("  {:5.1}% of wall", 100.0 * m.value / wall)
        } else if m.name == "placement.probe_memo_hit_ratio" {
            let (h, x) = (
                value("placement.probe_memo_hits"),
                value("placement.probe_memo_misses"),
            );
            format!("  {h} hits of {} lookups", h + x)
        } else if m.name == "plan_cache.hit_ratio" {
            let (h, x) = (value("plan_cache.hits"), value("plan_cache.misses"));
            format!("  {h} hits of {} lookups", h + x)
        } else if m.name == "telemetry.overhead_ratio" {
            format!("  {wall:.3} s traced over {untraced_wall_s:.3} s untraced")
        } else {
            String::new()
        };
        println!("    {:32} {:>14.6} {:5}{note}", m.name, m.value, m.unit);
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let (_, spans) = traced.last().expect("at least one traced run");
    match std::fs::create_dir_all(&dir)
        .and_then(|_| File::create(&path))
        .and_then(|f| timed_oracle::write_spans(BufWriter::new(f), spans))
    {
        Ok(()) => println!("  wrote {} oracle spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let groups = workload.groups();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {}: seed {}, {} s, trace {}, executor {:?}, host_threads {host_threads}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        Parallelism::default(),
    );

    // An untimed warm-up replay comes first: the only one that counts
    // heap bytes, so the timed runs use the allocator uncounted, and the
    // only one that times set-ups between its events. Timed untraced runs
    // then fill the whole budget, or half of it when traced runs follow;
    // a run starts only if one more as long as the last still ends within
    // the budget, and at least one of each kind runs.
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let clock = Instant::now();
    let plain_replay = |between: &mut dyn FnMut()| {
        replay(
            workload,
            &groups,
            args.seed,
            TelemetrySpec::default(),
            AnalyticalOracle::new,
            between,
        )
        .0
    };
    let mut setups = SetupSampler::new(workload, &groups, args.seed);
    let (warm_up, heap_growth) = heap::count(|| plain_replay(&mut || setups.between_events()));
    println!(
        "  warm-up: {:.1} events/s with {} set-ups between events, \
         heap held between events {:.2} MB, peak {:.2} MB",
        warm_up.events as f64 / warm_up.wall_s,
        setups.samples.len(),
        heap_growth.held as f64 / 1e6,
        heap_growth.peak as f64 / 1e6
    );
    let mut last = clock.elapsed();
    let mut untraced = Vec::new();
    while untraced.is_empty() || clock.elapsed() + last <= untraced_budget {
        let started = clock.elapsed();
        let run = plain_replay(&mut || {});
        println!(
            "  run {}: {:.1} events/s, {:.1} events/cpu_s",
            untraced.len(),
            run.events as f64 / run.wall_s,
            run.events as f64 / run.cpu_s
        );
        untraced.push(run);
        last = clock.elapsed() - started;
    }
    let mut traced = Vec::new();
    while args.trace && (traced.is_empty() || clock.elapsed() + last <= budget) {
        let started = clock.elapsed();
        let epoch = Instant::now();
        let telemetry = TelemetrySpec::on().with_wall_clock();
        let (run, oracles) = replay(
            workload,
            &groups,
            args.seed,
            telemetry,
            |p| TimedOracle::new(AnalyticalOracle::new(p), epoch),
            || {},
        );
        let spans: Vec<Span> = oracles
            .into_iter()
            .flat_map(TimedOracle::into_spans)
            .collect();
        traced.push((run, spans));
        last = clock.elapsed() - started;
    }

    // Every run of one workload and seed must reach the same decisions,
    // traced or not.
    let reference = warm_up.digest;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let every_run = std::iter::once(&warm_up)
        .chain(&untraced)
        .chain(traced.iter().map(|(run, _)| run));
    for run in every_run {
        attempted += run.arrivals;
        let fault = run.fault.clone().or_else(|| {
            (run.digest != reference).then(|| {
                format!(
                    "outcome digest {:016x} differs from {reference:016x}",
                    run.digest
                )
            })
        });
        if let Some(fault) = fault {
            eprintln!("perfbench: incorrect run: {fault}");
            correct = false;
            failed += run.arrivals;
        }
    }
    println!(
        "  1 warm-up + {} timed + {} traced runs of {} events, outcome digest {reference:016x}",
        untraced.len(),
        traced.len(),
        warm_up.events
    );

    let metrics = if args.trace {
        per_layer(workload, args.seed, &untraced, &traced)
    } else {
        end_to_end(&untraced, &setups.samples, &heap_growth)
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
