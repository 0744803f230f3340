//! Acceptance experiments for the coverage-guided fuzzer: corpus-driven
//! search must beat blind random sampling on the two axes that matter —
//! breadth (distinct behavior fingerprints at a fixed budget) and depth
//! (how fast a rare latent bug is discovered).
//!
//! The full-budget experiments mirror EXPERIMENTS.md ("Coverage-guided
//! chaos search") and are `#[ignore]`d — minutes of wall clock; run them
//! with `cargo test --release --test coverage_acceptance -- --ignored`.
//! The un-ignored tests are bounded versions of the same claims so the
//! ordinary suite still guards the mechanism.

use bft_sim_core::buggify::FaultPreset;
use bft_sim_protocols::registry::ProtocolKind;
use bft_simulator::simcheck::{fuzz_coverage, FuzzOptions};

/// The acceptance configuration: PBFT at n = 16 under the chaos preset.
fn pbft16_chaos() -> FuzzOptions {
    FuzzOptions {
        protocols: vec![ProtocolKind::Pbft],
        n_override: Some(16),
        net_override: None,
        fault_preset: FaultPreset::Chaos,
        threads: 0,
        ..FuzzOptions::default()
    }
}

#[test]
#[ignore = "full 2x5k-run acceptance experiment (~minutes); see EXPERIMENTS.md"]
fn corpus_triples_blind_coverage_at_5k_runs() {
    let opts = pbft16_chaos();
    let blind = fuzz_coverage(0, 5_000, false, &opts).unwrap();
    let corpus = fuzz_coverage(0, 5_000, true, &opts).unwrap();
    let b = blind.coverage.as_ref().unwrap();
    let c = corpus.coverage.as_ref().unwrap();
    eprintln!(
        "blind: {} distinct, curve {:?}\ncorpus: {} distinct ({} mutated), curve {:?}",
        b.distinct_fingerprints, b.curve, c.distinct_fingerprints, c.mutated_runs, c.curve
    );
    assert!(
        c.distinct_fingerprints >= 3 * b.distinct_fingerprints,
        "corpus search must reach at least 3x blind coverage: corpus {} vs blind {}",
        c.distinct_fingerprints,
        b.distinct_fingerprints
    );
}

#[test]
fn corpus_outgrows_blind_on_a_bounded_budget() {
    // The bounded version of the breadth claim: same configuration, a
    // budget small enough for the ordinary suite to run in seconds. Both
    // searches are deterministic per master seed; under master seed 1 the
    // corpus search has mutated 13 of its first 48 runs and found 27
    // distinct behaviors against blind sampling's 19.
    let opts = pbft16_chaos();
    let blind = fuzz_coverage(1, 48, false, &opts).unwrap();
    let corpus = fuzz_coverage(1, 48, true, &opts).unwrap();
    let b = blind.coverage.as_ref().unwrap();
    let c = corpus.coverage.as_ref().unwrap();
    assert_eq!(b.mutated_runs, 0, "blind mode must never mutate");
    assert!(c.mutated_runs > 0, "corpus mode must mutate");
    assert!(
        c.distinct_fingerprints > b.distinct_fingerprints,
        "corpus {} must outgrow blind {} at budget 48",
        c.distinct_fingerprints,
        b.distinct_fingerprints
    );
}

/// Runs-to-discovery of the latent seeded bug (`FuzzOptions::latent_bug`:
/// the forged-commit quorum armed only when a scenario's drawn knobs hit
/// PBFT, n >= 10, normal delays, and a drop partition — a conjunction blind
/// search hits about once per hundred draws). `None` = not found in budget.
fn runs_to_find(master_seed: u64, budget: u64, corpus_mode: bool) -> Option<u64> {
    let opts = FuzzOptions {
        protocols: vec![ProtocolKind::Pbft],
        fault_preset: FaultPreset::Chaos,
        latent_bug: true,
        threads: 0,
        ..FuzzOptions::default()
    };
    let report = fuzz_coverage(master_seed, budget, corpus_mode, &opts).unwrap();
    report.coverage.as_ref().unwrap().first_violation_run
}

#[test]
#[ignore = "latent-bug discovery benchmark (~minutes); see EXPERIMENTS.md"]
fn corpus_finds_the_latent_bug_in_fewer_runs_than_blind_median() {
    const BUDGET: u64 = 600;
    let masters = [1u64, 2, 3, 4, 5, 6, 7];
    let blind: Vec<Option<u64>> = masters
        .iter()
        .map(|&m| runs_to_find(m, BUDGET, false))
        .collect();
    let corpus: Vec<Option<u64>> = masters
        .iter()
        .map(|&m| runs_to_find(m, BUDGET, true))
        .collect();
    eprintln!("blind runs-to-find:  {blind:?}\ncorpus runs-to-find: {corpus:?}");
    // Not-found counts as the full budget — the conservative reading.
    let mut blind_runs: Vec<u64> = blind.iter().map(|r| r.unwrap_or(BUDGET)).collect();
    blind_runs.sort_unstable();
    let blind_median = blind_runs[blind_runs.len() / 2];
    let corpus_runs: Vec<u64> = corpus.iter().map(|r| r.unwrap_or(BUDGET)).collect();
    let corpus_median = {
        let mut sorted = corpus_runs.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    };
    assert!(
        corpus_median < blind_median,
        "corpus median {corpus_median} must beat blind median {blind_median}"
    );
}

#[test]
fn latent_bug_is_discoverable_and_instrumented() {
    // Bounded sanity for the benchmark's machinery: the latent window is
    // reachable at all, the discovery run index is recorded, and the found
    // violation is the seeded agreement bug with a shrunk repro attached.
    let opts = FuzzOptions {
        protocols: vec![ProtocolKind::Pbft],
        fault_preset: FaultPreset::Chaos,
        latent_bug: true,
        threads: 0,
        ..FuzzOptions::default()
    };
    // Master seed 8 first draws the latent window at run 54 (the search is
    // deterministic per master seed), so a budget of 64 covers it.
    let report = fuzz_coverage(8, 64, true, &opts).unwrap();
    let cov = report.coverage.unwrap();
    let first = cov
        .first_violation_run
        .expect("latent window never hit in 64 corpus runs — benchmark is vacuous");
    assert!((1..=64).contains(&first));
    assert!(
        !report.outcomes.is_empty(),
        "a recorded first_violation_run needs a matching outcome"
    );
    for outcome in &report.outcomes {
        assert_eq!(outcome.repro.oracle, "agreement");
    }
}
