//! The headline determinism guarantee of the parallel sweep layer:
//! `bft-sim fuzz --seeds 64 --threads 4` must produce a JSON report
//! byte-identical to `--threads 1`.
//!
//! The test drives the same code path the binary does — `fuzz_many` with the
//! spec's options, then [`bft_sim_cli::fuzz_report_json`] — and compares the
//! serialised bytes directly, so any divergence in run counts, event totals,
//! outcome ordering or repro content fails loudly.

use bft_sim_cli::{fuzz_report_json, FuzzSpec};
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{fuzz_many, FuzzOptions};

fn sweep_json(spec: &FuzzSpec, threads: usize) -> String {
    let opts = FuzzOptions {
        protocols: ProtocolKind::extended().to_vec(),
        intensity_permille: spec.intensity_permille,
        max_actions: spec.max_actions,
        inject_bug: false,
        threads,
        observability: spec.observability,
        n_override: spec.n_override,
        fault_preset: spec.fault_preset,
        ..FuzzOptions::default()
    };
    let report = fuzz_many(spec.seeds.0..spec.seeds.1, &opts).expect("sweep builds");
    // Derive the repro paths the CLI would write, purely from the report, so
    // the comparison covers them without touching the filesystem.
    let repro_paths: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "repros/repro-seed{}-{}.json",
                o.scenario_seed, o.repro.oracle
            )
        })
        .collect();
    fuzz_report_json(spec, &report, &repro_paths).dump_pretty()
}

#[test]
fn fuzz_json_is_byte_identical_across_thread_counts() {
    let spec = FuzzSpec {
        seeds: (0, 64),
        ..FuzzSpec::default()
    };
    let serial = sweep_json(&spec, 1);
    let parallel = sweep_json(&spec, 4);
    assert_eq!(
        serial, parallel,
        "--threads 4 must serialise byte-identically to --threads 1"
    );
    // Sanity: the report actually covered the sweep.
    let parsed = bft_sim_core::json::Json::parse(&serial).expect("report is valid JSON");
    assert_eq!(
        parsed.get("runs").and_then(|r| r.as_u64()),
        Some(64),
        "all 64 seeds must have run"
    );
    assert!(parsed.get("events_processed").and_then(|e| e.as_u64()) > Some(0));
    assert!(parsed.get("skipped_cancelled_timers").is_some());
    assert!(parsed.get("skipped_excluded_nodes").is_some());
}

#[test]
fn observed_fuzz_json_is_byte_identical_across_thread_counts() {
    // Aggregation happens in seed order in the collector, so the
    // observability block must not depend on which worker ran which seed.
    let spec = FuzzSpec {
        seeds: (0, 16),
        observability: true,
        ..FuzzSpec::default()
    };
    let serial = sweep_json(&spec, 1);
    let parallel = sweep_json(&spec, 4);
    assert_eq!(
        serial, parallel,
        "--obs --threads 4 must serialise byte-identically to --obs --threads 1"
    );
    let parsed = bft_sim_core::json::Json::parse(&serial).expect("report is valid JSON");
    assert!(
        parsed.get("observability").is_some(),
        "--obs adds an observability block"
    );
}

#[test]
fn chaos_fuzz_json_is_byte_identical_across_thread_counts() {
    // The fault catalog must not reintroduce thread dependence: a
    // chaos-preset sweep — fault injection in every non-benign run, its
    // violations shrunk — serialises byte-identically at any worker count.
    let spec = FuzzSpec {
        seeds: (7, 7 + 48),
        fault_preset: bft_sim_core::buggify::FaultPreset::Chaos,
        ..FuzzSpec::default()
    };
    let serial = sweep_json(&spec, 1);
    let parallel = sweep_json(&spec, 4);
    assert_eq!(
        serial, parallel,
        "--preset chaos --threads 4 must match --threads 1"
    );
    let parsed = bft_sim_core::json::Json::parse(&serial).expect("report is valid JSON");
    assert_eq!(
        parsed.get("fault_preset").and_then(|p| p.as_str()),
        Some("chaos")
    );
    assert_eq!(parsed.get("runs").and_then(|r| r.as_u64()), Some(48));
}
