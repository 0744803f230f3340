//! Property tests for the buggify fault catalog, across every protocol in
//! the registry: a fault kind is applied iff its preset enables it.
//!
//! The per-kind counts of a run's fault log ([`FaultStats::of`]) make the
//! property checkable directly — `calm` must never fire anything, `moderate` must fire only
//! timing faults (skew, duplicates, reorders), and `chaos` must, in
//! aggregate, exercise all five kinds including targeted drops and torn
//! writes. Every run here is a deterministic function of its spec, so these
//! are exact assertions, not statistical ones.

use bft_sim_core::buggify::{FaultKind, FaultPreset, FaultStats};
use bft_sim_core::ids::NodeId;
use bft_sim_core::perturb::Action;
use bft_sim_core::trace::{TraceKind, TraceLevel};
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{PartitionSpec, RunMode, ScenarioSpec, Script};

/// One representative value per fault kind, for querying
/// [`FaultPreset::enables`] (the payload is irrelevant to enablement).
fn all_kinds() -> [FaultKind; 5] {
    [
        FaultKind::TimerSkew {
            factor_permille: 1_000,
        },
        FaultKind::DuplicateDelivery { extra_micros: 0 },
        FaultKind::ReorderDelay { extra_micros: 0 },
        FaultKind::TargetedDrop {
            dst: NodeId::new(0),
        },
        FaultKind::TornWrite { keep: 0 },
    ]
}

fn run_with_preset(kind: ProtocolKind, preset: FaultPreset, fault_seed: u64) -> FaultStats {
    let spec = ScenarioSpec {
        fault_preset: preset,
        fault_seed,
        ..ScenarioSpec::baseline(kind)
    };
    let run = spec.run(RunMode::Generate).expect("baseline run");
    for action in &run.script.faults {
        assert!(
            preset.enables(action.kind),
            "{kind:?}: {preset:?} applied a kind it does not enable: {:?}",
            action.kind
        );
    }
    FaultStats::of(&run.script.faults)
}

#[test]
fn calm_never_fires_on_any_protocol() {
    for kind in ProtocolKind::extended() {
        // The fault seed must be inert under calm — calm is the absence of
        // the injector, not an injector that rolls and always misses.
        let stats = run_with_preset(kind, FaultPreset::Calm, 0xDEAD_BEEF);
        assert_eq!(stats, FaultStats::default(), "{kind:?} fired under calm");
    }
}

#[test]
fn moderate_fires_timing_faults_and_nothing_else() {
    let mut aggregate = FaultStats::default();
    for kind in ProtocolKind::extended() {
        for fault_seed in [3, 11, 42] {
            let stats = run_with_preset(kind, FaultPreset::Moderate, fault_seed);
            assert_eq!(
                stats.targeted_drops, 0,
                "{kind:?}: moderate must never drop"
            );
            assert_eq!(
                stats.torn_writes, 0,
                "{kind:?}: moderate must never tear writes"
            );
            aggregate.timer_skews += stats.timer_skews;
            aggregate.duplicates += stats.duplicates;
            aggregate.reorders += stats.reorders;
        }
    }
    assert!(
        aggregate.timer_skews > 0,
        "no timer skew fired: {aggregate:?}"
    );
    assert!(
        aggregate.duplicates > 0,
        "no duplicate fired: {aggregate:?}"
    );
    assert!(aggregate.reorders > 0, "no reorder fired: {aggregate:?}");
}

#[test]
fn chaos_exercises_every_fault_kind_in_aggregate() {
    let mut aggregate = FaultStats::default();
    for kind in ProtocolKind::extended() {
        for fault_seed in [3, 11, 42] {
            let stats = run_with_preset(kind, FaultPreset::Chaos, fault_seed);
            aggregate.timer_skews += stats.timer_skews;
            aggregate.duplicates += stats.duplicates;
            aggregate.reorders += stats.reorders;
            aggregate.targeted_drops += stats.targeted_drops;
            aggregate.torn_writes += stats.torn_writes;
        }
    }
    assert!(aggregate.timer_skews > 0, "{aggregate:?}");
    assert!(aggregate.duplicates > 0, "{aggregate:?}");
    assert!(aggregate.reorders > 0, "{aggregate:?}");
    assert!(aggregate.targeted_drops > 0, "{aggregate:?}");
    assert!(aggregate.torn_writes > 0, "{aggregate:?}");
}

#[test]
fn preset_enablement_matches_the_documented_matrix() {
    for fault in all_kinds() {
        assert!(!FaultPreset::Calm.enables(fault), "calm enables {fault:?}");
        assert!(FaultPreset::Chaos.enables(fault), "chaos misses {fault:?}");
    }
    for fault in all_kinds() {
        let timing = !matches!(
            fault,
            FaultKind::TargetedDrop { .. } | FaultKind::TornWrite { .. }
        );
        assert_eq!(
            FaultPreset::Moderate.enables(fault),
            timing,
            "moderate enablement wrong for {fault:?}"
        );
    }
}

#[test]
fn a_duplicate_follows_its_original_across_a_drop_partition() {
    // The halves are cut for the whole run and every wire site duplicates
    // its message: a copy of a dropped message must be dropped with it.
    let spec = ScenarioSpec {
        partition: Some(PartitionSpec {
            start_ms: 0,
            end_ms: 60_000,
            drop: true,
        }),
        time_cap_secs: 30,
        ..ScenarioSpec::baseline(ProtocolKind::Pbft)
    };
    let script = Script {
        actions: Vec::new(),
        faults: (0..4_000)
            .map(|index| Action {
                index,
                kind: FaultKind::DuplicateDelivery {
                    extra_micros: 1_000,
                },
            })
            .collect(),
    };
    let run = spec
        .run_observed(RunMode::Scripted(&script), TraceLevel::Messages)
        .expect("partitioned run");
    assert!(FaultStats::of(&run.script.faults).duplicates > 0);
    let side = |node: NodeId| node.index() < spec.n / 2;
    let crossed: Vec<_> = run
        .result
        .trace
        .events()
        .filter(
            |e| matches!(&e.kind, TraceKind::Delivered { src, .. } if side(*src) != side(e.node)),
        )
        .collect();
    assert!(crossed.is_empty(), "delivered across the cut: {crossed:?}");
}
