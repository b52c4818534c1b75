//! No-panic ingestion: everything the workspace reads from a file a user
//! hands it must reject bad input with a typed error, never a panic.
//!
//! Three readers take outside text: the JSON parser underneath every
//! persistence format (`rankmap_core::json::parse`), the plan-cache
//! snapshot loader (`RankMapManager::import_plan_cache`), and the fleet
//! trace reader (`Trace::from_jsonl`). Each gets arbitrary bytes and
//! corrupted copies of a valid document: random byte writes, deletions,
//! duplicated spans, truncations, and inserted JSON tokens (brackets,
//! quotes, escapes, lone surrogates, huge or negative numbers, invalid
//! UTF-8). A corrupted document may still parse — the property is that
//! the reader returns, and that pure noise never parses.

mod common;

use common::{base_faults, Scenario};
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::{Rng, RngCore, SeedableRng};
use rankmap_core::json;
use rankmap_core::manager::{ManagerConfig, RankMapManager};
use rankmap_core::oracle::AnalyticalOracle;
use rankmap_core::priority::PriorityMode;
use rankmap_fleet::{generate, FaultSpec, Trace, TraceMeta};
use rankmap_models::ModelId;
use rankmap_platform::Platform;
use rankmap_sim::Workload;
use std::sync::OnceLock;

/// Fragments worth splicing into JSON: structure, escapes, lone
/// surrogates, numbers past every integer type and `f64`, and bytes that
/// are not UTF-8 on their own.
const TOKENS: &[&[u8]] = &[
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b"\\",
    b":",
    b",",
    b"-",
    b"0",
    b"-1",
    b"1e999",
    b"-0.0",
    b"1.5e-400",
    b"18446744073709551616",
    b"9007199254740993",
    b"null",
    b"true",
    b"\\u",
    b"\\ud800",
    b"\\udc00",
    b"\\u0000",
    b"\n",
    b"\xff",
    b"\xc3",
    b"\xf0\x9f",
];

/// Applies `edits` random edits to `doc`.
fn mutate(doc: &[u8], edits: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..edits {
        let at = rng.gen_range(0..out.len() + 1);
        let span = (at + rng.gen_range(1..40usize)).min(out.len());
        match rng.gen_range(0..10u32) {
            0..=2 if at < out.len() => out[at] = rng.next_u64() as u8,
            3 | 4 => {
                out.drain(at..span);
            }
            5 => {
                let piece = out[at..span].to_vec();
                out.splice(at..at, piece);
            }
            6 => out.truncate(at),
            _ => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                out.splice(at..at, token.iter().copied());
            }
        }
    }
    out
}

/// A version-3 trace of a faulted, priority-churning three-shard run.
fn valid_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let load = Scenario::new(5, 1)
            .faults(FaultSpec { throttle_rate: 1.0 / 60.0, ..base_faults(3) })
            .load();
        let meta = TraceMeta::new(3, load.horizon, load.seed, "ingestion")
            .with_platforms(vec!["orange-pi-5".to_string(); 3]);
        let jsonl = Trace::new(meta, generate(&load)).to_jsonl();
        assert!(jsonl.lines().count() > 20, "the trace must carry events");
        jsonl
    })
}

fn quick_manager_config() -> ManagerConfig {
    ManagerConfig { mcts_iterations: 16, warm_iterations: 8, ..Default::default() }
}

/// A plan-cache snapshot holding a few mapped workload sets.
fn valid_plan_cache() -> &'static str {
    static CACHE: OnceLock<String> = OnceLock::new();
    CACHE.get_or_init(|| {
        let p = Platform::orange_pi_5();
        let oracle = AnalyticalOracle::new(&p);
        let manager = RankMapManager::new(&p, &oracle, quick_manager_config());
        for ids in [
            vec![ModelId::AlexNet],
            vec![ModelId::ResNet50, ModelId::SqueezeNet],
            vec![ModelId::MobileNet, ModelId::Vgg16, ModelId::AlexNet],
        ] {
            manager.map_cached(&Workload::from_ids(ids), &PriorityMode::Dynamic);
        }
        let json = manager.export_plan_cache();
        assert!(manager.import_plan_cache(&json).expect("a snapshot re-imports") > 0);
        json
    })
}

/// Imports `text` into a fresh manager (the loader validates against the
/// manager's platform, so a fresh one sees every check).
fn import(text: &str) -> Result<usize, json::JsonError> {
    let p = Platform::orange_pi_5();
    let oracle = AnalyticalOracle::new(&p);
    RankMapManager::new(&p, &oracle, quick_manager_config()).import_plan_cache(text)
}

prop_compose! {
    /// Up to 2 KiB of arbitrary bytes, read the way a file is: lossily.
    fn noise()(bytes in prop::collection::vec(any::<u8>(), 0..2048)) -> String {
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

prop_compose! {
    /// 1–6 edits of `doc`, read lossily.
    fn corrupted(doc: &'static str)(edits in 1usize..=6, seed in any::<u64>()) -> String {
        let bytes = mutate(doc.as_bytes(), edits, &mut StdRng::seed_from_u64(seed));
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn json_parse_never_panics_on_noise(text in noise()) {
        let _ = json::parse(&text);
    }

    #[test]
    fn json_parse_never_panics_on_corrupted_documents(
        text in corrupted(valid_plan_cache()),
    ) {
        if let Ok(value) = json::parse(&text) {
            // What parses re-serializes to something that parses again.
            prop_assert!(json::parse(&value.to_string()).is_ok());
        }
    }

    #[test]
    fn trace_reader_rejects_noise(text in noise()) {
        prop_assert!(Trace::from_jsonl(&text).is_err(), "noise parsed as a trace: {:?}", text);
    }

    #[test]
    fn trace_reader_never_panics_on_corrupted_traces(text in corrupted(valid_trace())) {
        let _ = Trace::from_jsonl(&text);
    }
}

proptest! {
    // Every import builds a manager: fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_cache_import_rejects_noise(text in noise()) {
        prop_assert!(import(&text).is_err(), "noise imported as a plan cache: {:?}", text);
    }

    #[test]
    fn plan_cache_import_never_panics_on_corrupted_snapshots(
        text in corrupted(valid_plan_cache()),
    ) {
        let _ = import(&text);
    }
}

/// Deep nesting is the one input a recursive-descent parser can crash on
/// without any edit being "wrong": it must come back as an error well
/// before the stack runs out.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(100_000);
        assert!(json::parse(&text).is_err());
        assert!(Trace::from_jsonl(&text).is_err());
        assert!(import(&text).is_err());
    }
}

#[test]
fn the_mutator_corrupts_valid_documents() {
    let doc = valid_trace();
    let mut rng = StdRng::seed_from_u64(1);
    let rejected = (0..200)
        .filter(|_| {
            let text = String::from_utf8_lossy(&mutate(doc.as_bytes(), 3, &mut rng)).into_owned();
            Trace::from_jsonl(&text).is_err()
        })
        .count();
    assert!(rejected > 100, "most 3-edit corruptions must be rejected, got {rejected}/200");
    assert!(Trace::from_jsonl(doc).is_ok());
    assert!(import(valid_plan_cache()).is_ok());
}

/// A `\u` escape takes exactly four hex digits: a sign is not a digit,
/// even where an integer parser would accept one.
#[test]
fn unicode_escapes_take_four_hex_digits() {
    assert_eq!(json::parse(r#""\u0041""#).unwrap(), json::parse(r#""A""#).unwrap());
    assert_eq!(json::parse(r#""\u00E9""#).unwrap(), json::parse("\"\u{e9}\"").unwrap());
    for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#, r#""\u00g1""#] {
        assert!(json::parse(bad).is_err(), "{bad} must be rejected");
    }
}
