//! Golden-trace validation: every protocol's decision trace for a pinned
//! configuration is committed under `tests/golden/`; a fresh simulation of
//! the same configuration must decide exactly what it records. This guards
//! against silent behavioural regressions in the engine or the protocols —
//! the repository's analogue of the paper's validation against BFTSim
//! traces (§III-D).
//!
//! The committed files are *not* byte pins: `Validator::check_against_trace`
//! compares decided values only, and a fresh run reproduces just three of
//! the nine files byte for byte (add-v1..v3); the other six differ in event
//! times and node order, from engine changes that kept every decision. The
//! byte pins for this configuration are the `"<protocol>/golden#trace"` rows
//! of `tests/golden/fingerprints.json` (`tests/golden_fingerprints.rs`),
//! taken at `TraceLevel::Messages`.
//!
//! To regenerate after an *intentional* behaviour change:
//! `BFT_SIM_BLESS=1 cargo test --test golden_traces`. The pinned run keeps
//! `TraceLevel::Events`, as the committed files do (their `View` and
//! `Custom` events would be dropped at the default level).

use bft_sim_core::json::Json;
use bft_simulator::prelude::*;

fn golden_path(kind: ProtocolKind) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_n7_seed5.json", kind.name()))
}

fn run_pinned(kind: ProtocolKind) -> RunResult {
    let cfg = kind.configure(
        RunConfig::new(7)
            .with_seed(5)
            .with_lambda_ms(1000.0)
            .with_time_cap(SimDuration::from_secs(900.0))
            .with_trace(TraceLevel::Events),
    );
    let factory = kind.factory(&cfg, 23);
    SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory)
        .build()
        .unwrap()
        .run()
}

fn load_golden(path: &std::path::Path) -> Trace {
    let text = std::fs::read_to_string(path).unwrap();
    Trace::from_json(&Json::parse(&text).unwrap()).unwrap()
}

#[test]
fn decisions_match_committed_golden_traces() {
    let bless = std::env::var("BFT_SIM_BLESS").is_ok();
    for kind in ProtocolKind::extended() {
        let result = run_pinned(kind);
        assert!(result.is_clean(), "{kind}: {:?}", result.safety_violation);
        let path = golden_path(kind);
        if bless || !path.exists() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, result.trace.to_json().dump_pretty()).unwrap();
            eprintln!("blessed {}", path.display());
            continue;
        }
        let golden = load_golden(&path);
        assert!(
            golden.decisions().count() > 0,
            "{kind}: golden trace has no decisions"
        );
        Validator::check_against_trace(&result, &golden)
            .unwrap_or_else(|e| panic!("{kind}: diverged from golden trace: {e}"));
    }
}

/// Loading a committed trace and writing it back gives the file's bytes:
/// the stored form loses nothing the JSON form holds.
#[test]
fn golden_traces_reserialise_byte_for_byte() {
    for kind in ProtocolKind::extended() {
        let path = golden_path(kind);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            load_golden(&path).to_json().dump_pretty(),
            text,
            "{}",
            path.display()
        );
    }
}

#[test]
fn tampered_golden_traces_are_rejected() {
    let kind = ProtocolKind::Pbft;
    let result = run_pinned(kind);
    let path = golden_path(kind);
    if !path.exists() {
        return; // first run blesses in the other test
    }
    // Forge the golden trace by appending a bogus decision to its JSON.
    let golden = load_golden(&path);
    let mut json = golden.to_json();
    let Json::Obj(pairs) = &mut json else {
        panic!("trace JSON is an object");
    };
    let Some(Json::Arr(events)) = pairs
        .iter_mut()
        .find(|(k, _)| k == "events")
        .map(|(_, v)| v)
    else {
        panic!("trace JSON has an events array");
    };
    events.push(Json::obj([
        ("time", Json::from(1_000u64)),
        ("node", Json::from(0u32)),
        (
            "kind",
            Json::obj([(
                "Decided",
                Json::obj([
                    ("slot", Json::from(999u64)),
                    ("value", Json::from(0xBADu64)),
                ]),
            )]),
        ),
    ]));
    let forged = Trace::from_json(&json).unwrap();
    assert!(Validator::check_against_trace(&result, &forged).is_err());
}
