//! Failing-case minimisation.
//!
//! Given a scenario whose run violated an oracle, [`shrink`] searches for a
//! smaller scenario that still violates the *same* oracle, probing with
//! scripted re-runs (every probe is a full deterministic simulation):
//!
//! 1. drop the decision target to 1 (shorter runs);
//! 2. drop the partition window;
//! 3. delta-debug the adversary action list (remove chunks, then singles);
//! 4. delta-debug the fault-catalog action list the same way;
//! 5. shrink `n` down through the generator's scales;
//! 6. re-run the minimised scenario once for the violation detail.
//!
//! No run of a shrink records a delivery schedule: the minimised script,
//! which every kept step re-verified, is the repro's one way to reproduce.

use bft_sim_core::buggify::FaultPreset;

use crate::repro::Repro;
use crate::scenario::{CheckedRun, RunMode, ScenarioSpec, Script};

/// The scales [`shrink`] tries, smallest first.
const SCALES_ASCENDING: [usize; 3] = [4, 7, 10];

/// Probes whether `spec` + `script` still violate `oracle`; returns the run
/// when it does.
fn still_fails(spec: &ScenarioSpec, script: &Script, oracle: &str) -> Option<CheckedRun> {
    spec.run(RunMode::Scripted(script))
        .ok()
        .filter(|run| run.violates(oracle))
}

/// Minimises a failing scenario to a [`Repro`]. `failing` must be the
/// outcome of `spec.run(RunMode::Generate)`; the first violation's oracle is
/// what every probe must preserve.
pub(crate) fn shrink(spec: &ScenarioSpec, failing: &CheckedRun) -> Repro {
    let oracle = failing
        .violations
        .first()
        .expect("shrink needs a violating run")
        .oracle;
    let mut spec = spec.clone();
    let mut script = failing.script.clone();

    // Every probe replays the fault log as a *script*, so the generated
    // preset/seed pair is no longer what reproduces the faults — the
    // explicit action list is. Normalise the spec accordingly: the minted
    // repro carries `fault_actions`, not a generator preset.
    spec.fault_preset = FaultPreset::Calm;
    spec.fault_seed = 0;

    // The generated run and its scripted replay must agree before any
    // minimisation is meaningful; if they somehow don't, ship the original
    // scenario un-shrunk rather than a broken reproducer.
    if still_fails(&spec, &script, oracle).is_none() {
        let v = &failing.violations[0];
        return Repro {
            spec,
            script,
            oracle: v.oracle.to_string(),
            detail: v.detail.clone(),
            last_events: Vec::new(),
        };
    }

    // 1. A single decision is enough for any safety violation on slot 0 and
    //    most others; vastly shortens every later probe.
    if spec.target_decisions > 1 {
        let candidate = ScenarioSpec {
            target_decisions: 1,
            ..spec.clone()
        };
        if still_fails(&candidate, &script, oracle).is_some() {
            spec = candidate;
        }
    }

    // 2. Partitions rarely cause the violation they accompany.
    if spec.partition.is_some() {
        let candidate = ScenarioSpec {
            partition: None,
            ..spec.clone()
        };
        if still_fails(&candidate, &script, oracle).is_some() {
            spec = candidate;
        }
    }

    // 2b. The net block likewise: first try dropping the whole block (back
    //     to the legacy delay-only network), then just its churn schedule —
    //     a repro without topology noise is far easier to read.
    if spec.net.is_some() {
        let candidate = ScenarioSpec {
            net: None,
            ..spec.clone()
        };
        if still_fails(&candidate, &script, oracle).is_some() {
            spec = candidate;
        }
    }
    if let Some(net) = spec.net.filter(|net| net.churn.is_some()) {
        let candidate = ScenarioSpec {
            net: Some(crate::scenario::NetSpec { churn: None, ..net }),
            ..spec.clone()
        };
        if still_fails(&candidate, &script, oracle).is_some() {
            spec = candidate;
        }
    }

    // 3. Delta-debug the adversary action list.
    script.actions = ddmin(script.actions.clone(), |actions| {
        let probe = Script {
            actions: actions.to_vec(),
            ..script.clone()
        };
        still_fails(&spec, &probe, oracle).is_some()
    });

    // 4. Delta-debug the fault-catalog action list the same way: faults that
    //    do not contribute to the violation are dropped, the rest kept
    //    verbatim so the repro stays replayable.
    script.faults = ddmin(script.faults.clone(), |faults| {
        let probe = Script {
            faults: faults.to_vec(),
            ..script.clone()
        };
        still_fails(&spec, &probe, oracle).is_some()
    });

    // 5. Fewer nodes.
    fewer_nodes(&mut spec, &mut script, |candidate, script| {
        still_fails(candidate, script, oracle).is_some()
    });

    // 6. Re-run the minimised scenario once more for the violation detail.
    let fin = still_fails(&spec, &script, oracle)
        .expect("minimised scenario must still fail: every kept step was re-verified");
    let v = fin
        .violations
        .iter()
        .find(|v| v.oracle == oracle)
        .expect("still_fails guarantees the oracle fired");
    Repro {
        spec,
        script,
        oracle: v.oracle.to_string(),
        detail: v.detail.clone(),
        last_events: Vec::new(),
    }
}

/// Shrink step 5: the smallest scale below `spec.n` at which `fails`
/// holds, skipping a scale that lacks a node the script replays to. A
/// targeted drop aimed at a node the candidate lacks never fires there, so
/// the candidate is probed, and kept, without it: the run is the same, and
/// the repro carries no fault that does not happen.
fn fewer_nodes(
    spec: &mut ScenarioSpec,
    script: &mut Script,
    mut fails: impl FnMut(&ScenarioSpec, &Script) -> bool,
) {
    for n in SCALES_ASCENDING {
        if n >= spec.n {
            break;
        }
        let stripped = script.without_drops_beyond(n);
        if stripped.check_nodes(n).is_err() {
            continue;
        }
        let candidate = ScenarioSpec { n, ..spec.clone() };
        if fails(&candidate, &stripped) {
            *spec = candidate;
            *script = stripped;
            break;
        }
    }
}

/// One pass of ddmin-style chunk removal: repeatedly try deleting chunks of
/// halving size, keeping any deletion that preserves the violation (as
/// reported by `keeps_failing` on the candidate list).
fn ddmin<T: Clone>(mut items: Vec<T>, mut keeps_failing: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut chunk = items.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < items.len() {
            let end = (i + chunk).min(items.len());
            let mut candidate = items.clone();
            candidate.drain(i..end);
            if keeps_failing(&candidate) {
                items = candidate;
                removed_any = true;
                // Re-test at the same index: the next chunk slid into place.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                return items;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
        if items.is_empty() {
            return items;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Step 5 strips the drops a smaller scale lacks the victim of, probes
    /// and keeps the stripped script, and still skips a scale that lacks a
    /// replay's destination.
    #[test]
    fn fewer_nodes_strips_drops_aimed_past_the_candidate() {
        use bft_sim_attacks::{FuzzAction, FuzzActionKind};
        use bft_sim_core::buggify::{FaultAction, FaultKind};
        use bft_sim_core::ids::NodeId;
        use bft_sim_protocols::registry::ProtocolKind;

        let drop = |index, dst| FaultAction {
            index,
            kind: FaultKind::TargetedDrop {
                dst: NodeId::new(dst),
            },
        };
        let skew = FaultAction {
            index: 3,
            kind: FaultKind::TimerSkew {
                factor_permille: 2_000,
            },
        };
        let ten = ScenarioSpec {
            n: 10,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let faults = vec![drop(0, 2), drop(1, 8), skew, drop(2, 5)];

        let mut spec = ten.clone();
        let mut script = Script {
            actions: Vec::new(),
            faults: faults.clone(),
        };
        let mut probed = Vec::new();
        fewer_nodes(&mut spec, &mut script, |candidate, script| {
            script.check_nodes(candidate.n).expect("probed script fits");
            probed.push((candidate.n, script.faults.len()));
            true
        });
        assert_eq!(spec.n, 4);
        assert_eq!(script.faults, vec![drop(0, 2), skew]);
        assert_eq!(probed, vec![(4, 2)]);

        // A replay to node 5 rules out n = 4; n = 7 keeps the drop at 5.
        let mut spec = ten.clone();
        let mut script = Script {
            actions: vec![FuzzAction {
                index: 0,
                kind: FuzzActionKind::Replay {
                    dst: NodeId::new(5),
                    delay_micros: 1_000,
                },
            }],
            faults,
        };
        fewer_nodes(&mut spec, &mut script, |_, _| true);
        assert_eq!(spec.n, 7);
        assert_eq!(script.faults, vec![drop(0, 2), skew, drop(2, 5)]);

        // A scale that does not fail leaves spec and script alone.
        let (mut spec, mut kept) = (ten.clone(), script.clone());
        fewer_nodes(&mut spec, &mut kept, |_, _| false);
        assert_eq!((spec.n, kept), (10, script));
    }
}

#[cfg(all(test, feature = "testbug"))]
mod testbug_tests {
    use super::*;
    use crate::scenario::{PartitionSpec, RunMode, ScenarioSpec};
    use bft_sim_core::buggify::{FaultAction, FaultKind};
    use bft_sim_protocols::registry::ProtocolKind;

    #[test]
    fn shrink_preserves_fault_actions_the_violation_depends_on() {
        // A *late* forged certificate (600 ms, long after the honest ~300 ms
        // decision) is harmless on its own: PBFT's slot guard discards
        // commits for an already-decided slot. It becomes a violation only
        // when targeted fault-catalog drops stall the victim past the forge
        // — so the shrinker must keep (a minimised subset of) those drops.
        let spec = ScenarioSpec {
            inject_bug: true,
            bug_delay_micros: 600_000,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let victim = crate::testbug::QuorumForgeAdversary::victim(spec.n);

        // Without faults the late forge must be inert.
        let clean = spec.run(RunMode::Scripted(&Script::default())).unwrap();
        assert!(
            !clean.violates("agreement"),
            "late forge fired without faults: {:?}",
            clean.violations
        );

        // Blanket-drop every victim-bound wire transmission early in the
        // run; only the ones that actually hit the victim are applied (and
        // logged), which is the fault script the shrinker starts from.
        let blanket = Script {
            faults: (0..2_000)
                .map(|index| FaultAction {
                    index,
                    kind: FaultKind::TargetedDrop { dst: victim },
                })
                .collect(),
            ..Script::default()
        };
        let failing = spec.run(RunMode::Scripted(&blanket)).unwrap();
        assert!(
            failing.violates("agreement"),
            "stalled victim must decide the forged digest: {:?}",
            failing.violations
        );
        assert!(!failing.script.faults.is_empty());

        let repro = shrink(&spec, &failing);
        assert_eq!(repro.oracle, "agreement");
        assert!(
            !repro.script.faults.is_empty(),
            "the violation depends on the drops; ddmin must not discard them all"
        );
        assert!(
            repro.script.faults.len() < failing.script.faults.len(),
            "ddmin must remove at least the post-forge drops: kept {:?}",
            repro.script.faults
        );
        assert!(repro
            .script
            .faults
            .iter()
            .all(|f| matches!(f.kind, FaultKind::TargetedDrop { dst } if dst == victim)));

        // The minimised repro reproduces.
        let v = repro.check().unwrap();
        assert_eq!(v.oracle, "agreement");

        // And it survives the disk round trip with its fault script intact.
        let text = repro.to_json().dump_pretty();
        assert!(text.contains("fault_actions"), "{text}");
        let back = Repro::from_json(&bft_sim_core::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, repro);
    }

    #[test]
    fn shrink_minimises_a_seeded_violation() {
        // Start deliberately oversized: 16 nodes, a partition, and a busy
        // fuzzer, on top of the seeded bug that actually causes the
        // violation.
        let spec = ScenarioSpec {
            n: 16,
            intensity_permille: 300,
            max_actions: 24,
            partition: Some(PartitionSpec {
                start_ms: 500,
                end_ms: 3_000,
                drop: false,
            }),
            inject_bug: true,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let failing = spec.run(RunMode::Generate).unwrap();
        assert!(failing.violates("agreement"), "{:?}", failing.violations);

        let repro = shrink(&spec, &failing);
        assert_eq!(repro.oracle, "agreement");
        assert_eq!(repro.spec.n, 4, "scale must shrink to the minimum");
        assert!(repro.spec.partition.is_none(), "partition must be dropped");
        assert!(
            repro.script.actions.is_empty(),
            "fuzz actions are irrelevant to the seeded bug: {:?}",
            repro.script.actions
        );
        assert!(repro.spec.inject_bug);

        // The shrunk repro still reproduces the exact oracle.
        let v = repro.check().unwrap();
        assert_eq!(v.oracle, "agreement");
    }
}
