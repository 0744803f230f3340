//! Attack scenarios: run the paper's three attacks (§III-C) and observe
//! their effect — a partition against LibraBFT and HotStuff+NS, the static
//! fail-stop attack against ADD+ v1/v2, and the rushing adaptive attack
//! against ADD+ v2/v3.
//!
//! Each run is a `ScenarioSpec`; `spec.to_json()` writes it as a file that
//! `bft-sim trace` opens.
//!
//! ```text
//! cargo run --release --example attack_scenarios
//! ```

use bft_simulator::experiments::paper_spec;
use bft_simulator::prelude::*;

/// The paper's default run of `kind` at n = 16, seed 7, with a 900 s cap.
fn spec(kind: ProtocolKind) -> ScenarioSpec {
    ScenarioSpec {
        seed: 7,
        time_cap_secs: 900,
        ..paper_spec(kind, 16)
    }
}

/// A run's latency per decision; a run the cap cut short shows its lower
/// bound.
fn latency(spec: &ScenarioSpec, result: &RunResult) -> String {
    match result.latency_sample(spec.target_decisions) {
        (secs, false) => format!("{secs:.2} s"),
        (secs, true) => format!(">= {secs:.2} s (capped)"),
    }
}

/// Runs `spec` to its first decision and prints the time it took.
fn show(title: &str, spec: ScenarioSpec) {
    let spec = ScenarioSpec {
        target_decisions: 1,
        ..spec
    };
    let result = spec.simulate(TraceLevel::Decisions).expect("spec builds");
    assert!(
        result.safety_violation.is_none(),
        "{:?}",
        result.safety_violation
    );
    println!("{title:<55} {:>24}", latency(&spec, &result));
}

fn main() {
    println!("--- network partition, halves, resolves at t = 20 s ---");
    let partitioned = |kind| ScenarioSpec {
        partition: Some(PartitionSpec {
            start_ms: 0,
            end_ms: 20_000,
            drop: true,
        }),
        ..spec(kind)
    };
    show(
        "librabft under partition (TC resync)",
        partitioned(ProtocolKind::LibraBft),
    );
    show(
        "hotstuff-ns under partition (naive synchronizer)",
        partitioned(ProtocolKind::HotStuffNs),
    );
    println!();

    println!("--- static fail-stop of the first f leaders (Fig. 8 left) ---");
    let attacked = |kind, attack| ScenarioSpec {
        attack: Some(attack),
        ..spec(kind)
    };
    show(
        "add-v1 static attack (public leader schedule)",
        attacked(ProtocolKind::AddV1, AttackSpec::AddStatic { k: 7 }),
    );
    show(
        "add-v2 static attack (VRF leaders, immune)",
        attacked(ProtocolKind::AddV2, AttackSpec::AddStatic { k: 7 }),
    );
    println!();

    println!("--- rushing adaptive leader corruption (Fig. 8 right) ---");
    show(
        "add-v2 adaptive attack (leader revealed, corrupted)",
        attacked(ProtocolKind::AddV2, AttackSpec::AddAdaptive),
    );
    show(
        "add-v3 adaptive attack (prepare round, immune)",
        attacked(ProtocolKind::AddV3, AttackSpec::AddAdaptive),
    );
    println!();

    println!("--- fail-stop sweep against librabft (Fig. 7 flavour) ---");
    for k in [0, 2, 4] {
        let spec = ScenarioSpec {
            delay: DelaySpec::Normal {
                mean_micros: 1_000_000,
                std_micros: 300_000,
            },
            ..attacked(ProtocolKind::LibraBft, AttackSpec::FailStopLast { k })
        };
        let result = spec.simulate(TraceLevel::Decisions).expect("spec builds");
        println!(
            "librabft with {k} crashed nodes: {} per decision",
            latency(&spec, &result)
        );
    }
}
