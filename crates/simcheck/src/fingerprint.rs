//! Behavior fingerprints: a checked, instrumented run reduced to one
//! coarse structural hash ([`run_fingerprint`]).

use std::hash::Hasher;

use bft_sim_core::fasthash::FastHasher;
use bft_sim_core::obs::Histogram;

use crate::scenario::CheckedRun;

/// Reduces one oracle-checked, *instrumented* run to its behavior
/// fingerprint.
///
/// The fingerprint deliberately quantizes everything continuous (floor-log₂
/// buckets), aggregates per-node quantities across the whole run, and
/// ignores the concrete decided *values* (which vary with every seed), so
/// that runs differing only in jitter, per-node noise, or in which random
/// value won collide, while structural novelty separates: the sorted
/// decision-count multiset, per-phase flow magnitude and density, how many
/// views the run visited, the overall delivery volume and latency octave,
/// the decision cadence octave, timeouts, and violated oracles.
///
/// `tests/golden_fingerprints.rs` pins one per protocol and fault preset,
/// so a change to what a run does shows there as a changed row.
pub fn run_fingerprint(run: &CheckedRun) -> u64 {
    /// Floor-log₂ bucket (0 for 0, else `floor(log2(v)) + 1`).
    fn bucket(v: u64) -> u64 {
        64 - v.leading_zeros() as u64
    }
    /// The count of per-node histograms and their count-weighted grand
    /// mean, truncated to µs (0 when empty): per-node means are noise.
    fn totals(hists: &[Histogram]) -> (u64, u64) {
        let count: u64 = hists.iter().map(|n| n.count()).sum();
        let sum: f64 = hists
            .iter()
            .map(|n| n.mean_micros() * n.count() as f64)
            .sum();
        (
            count,
            if count == 0 {
                0
            } else {
                (sum / count as f64) as u64
            },
        )
    }
    let mut h = FastHasher::default();
    h.write_u64(run.result.timed_out as u64);
    // The decision-count multiset: which progress profile the run reached,
    // not which node reached it.
    h.write_u64(run.result.decided.len() as u64);
    let mut counts: Vec<u64> = run.result.decided.iter().map(|d| d.len() as u64).collect();
    counts.sort_unstable();
    for c in counts {
        h.write_u64(c);
    }
    if let Some(obs) = &run.result.observability {
        // Per-phase flow shape: magnitude and edge-density octaves.
        h.write_u64(obs.flows.len() as u64);
        for f in &obs.flows {
            h.write(f.phase.as_bytes());
            h.write_u64(bucket(f.total()));
            h.write_u64(bucket(f.nonzero_cells() as u64));
        }
        // View-timeline size: how far view synchronisation wandered.
        h.write_u64(obs.views.len() as u64);
        h.write_u64(bucket(obs.views.iter().map(|v| v.entries).sum()));
        // Run-wide delivery volume and latency octave, and the decision
        // cadence octave.
        let (deliveries, latency) = totals(&obs.delivery_latency);
        h.write_u64(bucket(deliveries));
        h.write_u64(bucket(latency));
        h.write_u64(bucket(totals(&obs.decision_interval).1));
    }
    h.write_u64(run.violations.len() as u64);
    for v in &run.violations {
        h.write(v.oracle.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{RunMode, ScenarioSpec};
    use bft_sim_core::trace::TraceLevel;
    use bft_sim_protocols::registry::ProtocolKind;

    #[test]
    fn fingerprints_separate_structure_not_noise() {
        let base = ScenarioSpec::baseline(ProtocolKind::Pbft);
        let observed = |spec: &ScenarioSpec| {
            spec.run_observed(RunMode::Generate, TraceLevel::Decisions)
                .unwrap()
        };
        let a = observed(&base);
        let b = observed(&base);
        assert_eq!(
            run_fingerprint(&a),
            run_fingerprint(&b),
            "identical runs must collide"
        );
        let other = ScenarioSpec {
            target_decisions: 3,
            ..base.clone()
        };
        let c = observed(&other);
        assert_ne!(
            run_fingerprint(&a),
            run_fingerprint(&c),
            "structurally different runs must separate"
        );
    }
}
