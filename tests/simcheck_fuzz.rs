//! Acceptance tests for the schedule-exploration fuzzer: a deterministic
//! sweep over every protocol stays clean, and the intentionally seeded
//! safety bug (the `testbug` feature, enabled for this test build via the
//! facade's dev-dependency) is caught by the agreement oracle, shrunk to a
//! minimal scenario, and replayable from its serialised repro file.

use bft_sim_core::json::Json;
use bft_simulator::simcheck::{fuzz_many, run_unit, FuzzOptions, Repro, RunMode, ScenarioSpec};

#[test]
fn fuzzing_every_protocol_is_clean_and_deterministic() {
    let opts = FuzzOptions::default(); // all nine protocols, default budget
    let first = fuzz_many(0..16, &opts).unwrap();
    assert_eq!(first.runs, 16);
    assert!(
        first.clean(),
        "honest protocols fuzzed within their fault model must stay correct: {:?}",
        first
            .outcomes
            .iter()
            .map(|o| (o.scenario_seed, &o.violations))
            .collect::<Vec<_>>()
    );
    let second = fuzz_many(0..16, &opts).unwrap();
    assert_eq!(
        first.events_processed, second.events_processed,
        "a fuzz sweep must be bit-for-bit reproducible"
    );
}

#[test]
fn scenario_specs_round_trip_through_json() {
    let opts = FuzzOptions::default();
    for seed in 0..8 {
        let spec = ScenarioSpec::generate(
            seed,
            &opts.protocols,
            opts.intensity_permille,
            opts.max_actions,
            false,
            opts.fault_preset,
        );
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec, "seed {seed}");
    }
}

#[test]
fn fuzz_seeds_and_campaign_units_are_one_job() {
    // An observed fuzz seed and a campaign unit of the same scenario must
    // report the same violations and mint the same repro, last events and
    // all.
    let opts = FuzzOptions {
        inject_bug: true,
        observability: true,
        ..FuzzOptions::default()
    };
    let seed = 1;
    let report = fuzz_many(seed..seed + 1, &opts).unwrap();
    let outcome = &report.outcomes[0];
    let spec = ScenarioSpec::generate(
        seed,
        &opts.protocols,
        opts.intensity_permille,
        opts.max_actions,
        opts.inject_bug,
        opts.fault_preset,
    );
    let unit = run_unit(&spec, Default::default()).unwrap();
    assert_eq!(unit.violations, outcome.violations);
    let repro = unit
        .repro
        .expect("the seeded bug must fire in the unit too");
    assert!(!repro.last_events.is_empty());
    assert_eq!(
        repro.to_json().dump_pretty(),
        outcome.repro.to_json().dump_pretty()
    );
}

#[test]
fn seeded_safety_bug_is_caught_shrunk_and_replayable_from_disk() {
    let opts = FuzzOptions {
        inject_bug: true,
        ..FuzzOptions::default()
    };
    let report = fuzz_many(0..2, &opts).unwrap();
    assert_eq!(
        report.outcomes.len(),
        2,
        "every seeded-bug scenario must violate agreement"
    );
    for outcome in &report.outcomes {
        assert_eq!(outcome.repro.oracle, "agreement");
        // Shrinking must reach the floor: the smallest system, one decision,
        // no partition, and no residual adversary script — the bug needs
        // only its own forged commits.
        assert_eq!(outcome.repro.spec.n, 4);
        assert_eq!(outcome.repro.spec.target_decisions, 1);
        assert!(outcome.repro.spec.partition.is_none());
        assert!(outcome.repro.script.actions.is_empty());

        // The full disk round trip a regression-test workflow relies on:
        // serialise, reparse, re-check.
        let path = std::env::temp_dir().join(format!(
            "bft_sim_acceptance_repro_{}.json",
            outcome.scenario_seed
        ));
        std::fs::write(&path, outcome.repro.to_json().dump_pretty()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let reloaded = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(reloaded, outcome.repro);
        let violation = reloaded.check().expect("repro must still reproduce");
        assert_eq!(violation.oracle, "agreement");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn replayed_schedules_reproduce_fuzzed_runs_exactly() {
    // For a scenario the fuzzer generated, the recorded delivery schedule
    // alone must replay to identical decisions: the validator path (the
    // paper's §III-A6 replay) over fuzzed specs. Replay mode skips the
    // adversary, so only runs without injected replays qualify.
    use bft_simulator::attacks::FuzzActionKind;
    let opts = FuzzOptions::default();
    let mut replayed_some = false;
    for seed in 0..12u64 {
        let spec = ScenarioSpec::generate(
            seed,
            &opts.protocols,
            opts.intensity_permille,
            opts.max_actions,
            false,
            opts.fault_preset,
        );
        let (original, schedule) = spec.run_recorded(RunMode::Generate).unwrap();
        if original
            .script
            .actions
            .iter()
            .any(|a| matches!(a.kind, FuzzActionKind::Replay { .. }))
        {
            continue; // injected duplicates are not part of the schedule
        }
        let replayed = spec.run(RunMode::Replay(&schedule)).unwrap();
        assert_eq!(
            original.result.decided, replayed.result.decided,
            "seed {seed}: schedule replay diverged"
        );
        replayed_some = true;
    }
    assert!(replayed_some, "no replay-eligible scenario in the sweep");
}

/// Algorand under a held half/half partition, six duplicate deliveries
/// and one node's cert-vote broadcast held for 5 s, with no faulty node.
/// While a buggify copy did not follow its original's fate, the six copies
/// crossed the held partition early, and n6 decided the period-1 value
/// while the rest decided a period-2 one. Now each copy is held with its
/// original and arrives after the heal, and the run stays safe: this test
/// guards that rule. Found by a chaos coverage search (run 143), whose
/// shrunk repro tore n6's cert-vote broadcast; this one holds it instead.
/// Whether Algorand can still fork without the leak (cert-votes after a ⊥
/// next-vote in one period) is open: see EXPERIMENTS.md, "Coverage-guided
/// chaos search".
#[test]
fn algorand_stays_safe_when_a_cert_vote_outlives_a_bot_next_vote_quorum() {
    let text = include_str!("repros/algorand-cert-vote-after-bot-next-vote.json");
    let repro = Repro::from_json(&Json::parse(text).unwrap()).unwrap();
    assert!(!repro.script.actions.is_empty() && !repro.script.faults.is_empty());
    let run = repro.spec.run(RunMode::Scripted(&repro.script)).unwrap();
    assert!(run.violations.is_empty(), "{:?}", run.violations);
}

/// Algorand forks with no faulty node and no adversary action: the shrunk
/// repro of `fuzz --preset chaos --protocols algorand --seeds 308..309`,
/// n = 4, a half/half partition held from 716 to 5 476 ms, two reorder
/// delays and one torn write. Each half soft-votes the period-1 leader value
/// v at 2 s but sees only its own two votes, so at 4 s every node next-votes
/// ⊥. At the heal the held votes arrive together: n0, n1 and n3 complete a
/// soft quorum for v and cert-vote it although each already next-voted ⊥,
/// and the ⊥ next-votes complete a quorum that moves every node to period 2
/// with no lock. n3 collects the three cert-votes and decides v; the torn
/// write loses n3's own cert-vote broadcast, so n0 and n1 never do, and
/// they decide period 2's leader value with n2. `tally_soft` cert-votes on
/// any soft quorum of the current period; Algorand Agreement cert-votes
/// only in its certifying step, before its next-votes. Fixing that moves
/// Algorand's figure rows, so the fix is its own change.
#[test]
#[ignore = "Algorand cert-votes after next-voting ⊥ in one period and forks; see CHANGES.md"]
fn algorand_stays_safe_when_a_soft_quorum_completes_after_a_bot_next_vote() {
    let text = include_str!("repros/algorand-cert-vote-after-bot-next-vote-chaos308.json");
    let repro = Repro::from_json(&Json::parse(text).unwrap()).unwrap();
    assert!(repro.script.actions.is_empty() && !repro.script.faults.is_empty());
    let run = repro.spec.run(RunMode::Scripted(&repro.script)).unwrap();
    assert!(run.violations.is_empty(), "{:?}", run.violations);
}
