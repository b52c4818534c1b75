//! Golden pins for the load generator, plus its bounded-buffer property.
//!
//! `generate` collects [`LoadStream`], so the two cannot disagree; what
//! the suite pins is the stream itself. The digests below were recorded
//! from the original eager generator (a separate implementation that drew
//! all arrival times, then every arrival's model and lifetime, then the
//! churn, and sorted the lot) over the *full* domains of the two spec
//! families below: 256 seeds × 3 processes × churn × faults × immortal,
//! and 128 seeds × 3 processes × Zipf × flash × tenants. Each digest is
//! FNV-1a over the events' `Debug` text (which prints every float
//! exactly), folded over the seeds in order, one per non-seed
//! combination. A stream that changes one draw, one tie-break or one
//! float bit on any of the 9,216 specs fails the pins.

use rankmap_fleet::{
    generate, ArrivalProcess, FaultSpec, FlashSpec, FleetEvent, LoadSpec, LoadStream,
    Popularity, TenantSpec,
};
use std::fmt::{self, Write};

fn process(idx: usize) -> ArrivalProcess {
    match idx {
        0 => ArrivalProcess::Poisson { rate: 1.0 / 12.0 },
        1 => ArrivalProcess::OnOff {
            burst_rate: 0.4,
            idle_rate: 0.02,
            mean_burst: 25.0,
            mean_idle: 70.0,
        },
        _ => ArrivalProcess::Diurnal { mean_rate: 1.0 / 10.0, amplitude: 0.9, period: 150.0 },
    }
}

/// The base family: every arrival process, with and without churn,
/// faults and finite lifetimes.
fn base_spec(seed: u64, process_idx: usize, churn: bool, faults: bool, immortal: bool) -> LoadSpec {
    LoadSpec {
        horizon: 400.0,
        process: process(process_idx),
        mean_lifetime: if immortal { 0.0 } else { 60.0 },
        priority_churn_rate: if churn { 1.0 / 40.0 } else { 0.0 },
        seed,
        faults: faults.then(|| FaultSpec {
            shards: 4,
            mtbf: 300.0,
            mttr: 60.0,
            correlation: 0.3,
            throttle_rate: 1.0 / 200.0,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// The overlay family: Zipf popularity, flash crowds and correlated
/// tenant bursts on top of churning base arrivals.
fn overlay_spec(seed: u64, process_idx: usize, zipf: bool, flash: bool, tenants: bool) -> LoadSpec {
    LoadSpec {
        horizon: 400.0,
        process: process(process_idx),
        mean_lifetime: 45.0,
        priority_churn_rate: 1.0 / 60.0,
        seed,
        popularity: if zipf { Popularity::Zipf { exponent: 1.1 } } else { Popularity::Uniform },
        flash: flash.then(|| FlashSpec {
            rate: 1.0 / 120.0,
            mean_duration: 30.0,
            boost_rate: 0.8,
            mean_lifetime: 20.0,
            seed: seed.wrapping_add(17),
        }),
        tenants: tenants.then(|| TenantSpec {
            tenants: 3,
            mean_idle: 90.0,
            mean_burst: 25.0,
            rate: 0.4,
            correlation: 0.5,
            skew: 0.7,
            mean_lifetime: 30.0,
            seed: seed.wrapping_add(41),
        }),
        ..Default::default()
    }
}

/// 64-bit FNV-1a, fed through `fmt::Write` so events hash without a
/// string allocation each.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// One digest over a combination's seeds: each seed's streamed events,
/// in order, behind a seed marker.
fn digest(seeds: u64, spec_of: impl Fn(u64) -> LoadSpec) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for seed in 0..seeds {
        writeln!(h, "seed {seed}").unwrap();
        for event in LoadStream::new(&spec_of(seed)) {
            writeln!(h, "{event:?}").unwrap();
        }
    }
    h.0
}

/// Checks a golden table against the stream. The table's keys must be
/// the full cartesian product, in `(process, a, b, c)` order.
fn check_goldens(
    family: &str,
    seeds: u64,
    goldens: &[(usize, bool, bool, bool, u64)],
    spec_of: impl Fn(u64, usize, bool, bool, bool) -> LoadSpec,
) {
    let domain: Vec<(usize, bool, bool, bool)> =
        (0..24).map(|k| (k / 8, k & 4 != 0, k & 2 != 0, k & 1 != 0)).collect();
    let keys: Vec<_> = goldens.iter().map(|&(p, a, b, c, _)| (p, a, b, c)).collect();
    assert_eq!(keys, domain, "{family}: the golden table must cover the full domain in order");
    let mismatches: Vec<String> = goldens
        .iter()
        .filter_map(|&(p, a, b, c, golden)| {
            let actual = digest(seeds, |seed| spec_of(seed, p, a, b, c));
            (actual != golden).then(|| {
                format!("({p}, {a}, {b}, {c}): golden {golden:#018x}, stream {actual:#018x}")
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{family}: {} of {} combinations diverged from the recorded stream:\n{}",
        mismatches.len(),
        goldens.len(),
        mismatches.join("\n")
    );
}

/// `(process, churn, faults, immortal, digest over seeds 0..256)`.
const BASE_GOLDENS: [(usize, bool, bool, bool, u64); 24] = [
    (0, false, false, false, 0x3f3e_0aa2_fdf3_cfd6),
    (0, false, false, true, 0xb8cd_7867_0072_1ebe),
    (0, false, true, false, 0xc100_760f_1463_ea0c),
    (0, false, true, true, 0x6cc4_ce29_d190_4494),
    (0, true, false, false, 0x5303_cb19_05d3_d989),
    (0, true, false, true, 0x6526_7eda_6988_5044),
    (0, true, true, false, 0x9569_250c_9afb_df81),
    (0, true, true, true, 0x5bc5_db04_4bee_7f20),
    (1, false, false, false, 0x7b5e_f1be_44c9_8ede),
    (1, false, false, true, 0x35c1_d32b_cf9b_cd9e),
    (1, false, true, false, 0xed40_1aef_8598_df94),
    (1, false, true, true, 0x1134_9214_8592_9dce),
    (1, true, false, false, 0xc16c_1a54_51f9_2d61),
    (1, true, false, true, 0xd0af_4068_0730_6ed1),
    (1, true, true, false, 0x5f36_ab74_fe4d_aa05),
    (1, true, true, true, 0x3f55_552c_c3f2_c9ef),
    (2, false, false, false, 0x4d33_86d8_ecdb_739a),
    (2, false, false, true, 0xdd6b_86e2_a231_d50b),
    (2, false, true, false, 0x80c7_33a2_e5f6_bb6c),
    (2, false, true, true, 0x307c_d820_d121_3c47),
    (2, true, false, false, 0xb68a_92d3_8790_5233),
    (2, true, false, true, 0x991d_edce_8d38_477c),
    (2, true, true, false, 0x3daa_e758_91f4_9cb1),
    (2, true, true, true, 0xccd9_74c1_566e_fc6c),
];

/// `(process, zipf, flash, tenants, digest over seeds 0..128)`.
const OVERLAY_GOLDENS: [(usize, bool, bool, bool, u64); 24] = [
    (0, false, false, false, 0x3f1a_0dc7_a634_3676),
    (0, false, false, true, 0x8bf2_053e_6ca9_ec4a),
    (0, false, true, false, 0x28fb_0419_324a_aefe),
    (0, false, true, true, 0x2931_6328_4b07_d752),
    (0, true, false, false, 0x1678_bba5_85e8_707d),
    (0, true, false, true, 0x9eb9_8cc3_f34f_d21f),
    (0, true, true, false, 0xd486_c161_9f7f_a73f),
    (0, true, true, true, 0x1f30_593e_05dd_0ab3),
    (1, false, false, false, 0xfd0d_47d8_a676_8df7),
    (1, false, false, true, 0x1e5b_fdf4_feac_3368),
    (1, false, true, false, 0x802a_4221_f302_095b),
    (1, false, true, true, 0x163b_dc62_d704_e3dd),
    (1, true, false, false, 0x4ffd_53be_63e4_232b),
    (1, true, false, true, 0xb51f_b5a0_cbab_15ea),
    (1, true, true, false, 0x23e3_3912_6bda_24ad),
    (1, true, true, true, 0x5b0b_7e70_4ec7_4a89),
    (2, false, false, false, 0x96e5_b78f_2b9a_35bd),
    (2, false, false, true, 0x3462_af8f_8810_3091),
    (2, false, true, false, 0x788c_77c6_fe32_0126),
    (2, false, true, true, 0xf6c2_dc2e_77b5_0127),
    (2, true, false, false, 0xa4cb_408b_7fcd_7fb5),
    (2, true, false, true, 0x592b_596d_2e80_8ddb),
    (2, true, true, false, 0xbd90_b6bf_ef03_7ac0),
    (2, true, true, true, 0xfc63_b1f0_819d_cee1),
];

/// Every base spec shape streams exactly as it was recorded.
#[test]
fn stream_matches_eager_goldens_for_existing_specs() {
    check_goldens("base", 256, &BASE_GOLDENS, base_spec);
}

/// The overlay layers (Zipf popularity, flash crowds, tenant bursts)
/// stream exactly as they were recorded.
#[test]
fn stream_matches_eager_goldens_with_overlay_layers() {
    check_goldens("overlay", 128, &OVERLAY_GOLDENS, overlay_spec);
}

// Invalid arrival processes panic with the same message from either
// entry point (one copy of the process asserts, in the time walk).

fn spec_with(process: ArrivalProcess) -> LoadSpec {
    LoadSpec { process, ..Default::default() }
}

#[test]
#[should_panic(expected = "Poisson rate must be positive")]
fn generate_rejects_a_zero_poisson_rate() {
    generate(&spec_with(ArrivalProcess::Poisson { rate: 0.0 }));
}

#[test]
#[should_panic(expected = "Poisson rate must be positive")]
fn stream_rejects_a_zero_poisson_rate() {
    LoadStream::new(&spec_with(ArrivalProcess::Poisson { rate: 0.0 }));
}

#[test]
#[should_panic(expected = "phase durations must be positive")]
fn generate_rejects_a_zero_on_off_phase() {
    generate(&spec_with(ArrivalProcess::OnOff {
        burst_rate: 0.5,
        idle_rate: 0.0,
        mean_burst: 0.0,
        mean_idle: 60.0,
    }));
}

#[test]
#[should_panic(expected = "phase durations must be positive")]
fn stream_rejects_a_zero_on_off_phase() {
    LoadStream::new(&spec_with(ArrivalProcess::OnOff {
        burst_rate: 0.5,
        idle_rate: 0.0,
        mean_burst: 0.0,
        mean_idle: 60.0,
    }));
}

#[test]
#[should_panic(expected = "amplitude must be in [0, 1]")]
fn generate_rejects_a_diurnal_amplitude_above_one() {
    generate(&spec_with(ArrivalProcess::Diurnal {
        mean_rate: 0.1,
        amplitude: 1.5,
        period: 300.0,
    }));
}

#[test]
#[should_panic(expected = "amplitude must be in [0, 1]")]
fn stream_rejects_a_diurnal_amplitude_above_one() {
    LoadStream::new(&spec_with(ArrivalProcess::Diurnal {
        mean_rate: 0.1,
        amplitude: 1.5,
        period: 300.0,
    }));
}

/// Enabling an overlay layer never perturbs the base arrival stream —
/// the same guarantee the fault layer makes, extended to demand shaping.
#[test]
fn overlays_never_perturb_the_base_stream() {
    let plain = LoadSpec { horizon: 500.0, seed: 9, ..Default::default() };
    let layered = LoadSpec {
        flash: Some(FlashSpec::default()),
        tenants: Some(TenantSpec::default()),
        ..plain.clone()
    };
    let plain_times: Vec<u64> = generate(&plain)
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Arrive { at, .. } => Some(at.to_bits()),
            _ => None,
        })
        .collect();
    let layered_times: Vec<u64> = generate(&layered)
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Arrive { at, .. } => Some(at.to_bits()),
            _ => None,
        })
        .collect();
    // Every base arrival time survives, in order, within the layered
    // stream (the overlay only adds arrivals).
    let mut cursor = layered_times.iter();
    for t in &plain_times {
        assert!(
            cursor.any(|lt| lt == t),
            "base arrival missing from layered stream"
        );
    }
    assert!(layered_times.len() > plain_times.len(), "overlays added arrivals");
}

/// The bounded-buffer property: peak buffered state is O(live
/// instances), independent of horizon length. Quadrupling the horizon
/// multiplies total arrivals ~4× but must leave the stream's high-water
/// mark essentially flat — and orders of magnitude below the event
/// count `generate` would have materialized.
#[test]
fn peak_buffered_state_is_independent_of_horizon() {
    let spec = |horizon: f64| LoadSpec {
        horizon,
        process: ArrivalProcess::Poisson { rate: 0.5 },
        mean_lifetime: 20.0,
        priority_churn_rate: 1.0 / 50.0,
        seed: 3,
        ..Default::default()
    };
    let peak_of = |spec: &LoadSpec| {
        let mut stream = LoadStream::new(spec);
        let mut events = 0usize;
        while stream.next().is_some() {
            events += 1;
        }
        (stream.peak_buffered(), events)
    };
    let (peak_short, events_short) = peak_of(&spec(2_000.0));
    let (peak_long, events_long) = peak_of(&spec(8_000.0));
    assert!(events_long > 3 * events_short, "long horizon offers ~4x the events");
    // The high-water mark tracks live instances (rate x lifetime = 10
    // expected), not the horizon: allow exponential-tail slack but no
    // growth proportional to the 4x event count.
    assert!(
        peak_long <= 2 * peak_short.max(20),
        "peak buffered state grew with horizon: {peak_short} -> {peak_long}"
    );
    assert!(
        peak_long * 10 < events_long,
        "peak buffered state ({peak_long}) is not o(total events {events_long})"
    );
}
