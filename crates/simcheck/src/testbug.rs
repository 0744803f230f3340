//! The intentionally seeded safety bug (`--features testbug`).
//!
//! [`QuorumForgeAdversary`] exploits the simulator's *trust-model* signature
//! scheme — [`bft_sim_crypto::sign`] will happily sign on behalf of any
//! node — to forge a full commit certificate for a bogus digest and feed it
//! to one victim at simulation start. The victim decides the bogus value
//! within ~1 ms, long before any honest commit quorum can form, so every
//! run produces an agreement violation on slot 0. Its only purpose is to
//! prove, end to end, that the fuzzer's agreement oracle catches a real
//! safety violation and that the shrinker and repro runner preserve it.

use bft_sim_core::adversary::{Adversary, AdversaryApi};
use bft_sim_core::ids::NodeId;
use bft_sim_core::time::SimDuration;
use bft_sim_crypto::{sign, Digest};
use bft_sim_protocols::common::vote_digest;
use bft_sim_protocols::pbft::{PbftMsg, PHASE_COMMIT};

/// The digest the forged certificate commits. Any constant works as long as
/// it is non-zero (so the validity oracle isn't the one to fire first) and
/// never collides with a genesis-derived proposal digest.
pub(crate) const BOGUS_WORD: u64 = 0xBAD_C0DE;

/// Forges a 2f+1-strong PBFT commit certificate for a bogus digest and
/// injects it into node `n - 1` at a configurable delay (~1 ms by default).
/// See the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuorumForgeAdversary {
    delay_micros: u64,
}

impl Default for QuorumForgeAdversary {
    fn default() -> Self {
        Self::new()
    }
}

impl QuorumForgeAdversary {
    /// Creates the adversary with the classic ~1 ms rush.
    pub(crate) fn new() -> Self {
        Self::with_delay_micros(1_000)
    }

    /// Creates the adversary with the forged certificate landing at
    /// `delay_micros`. A late forge is only dangerous while the victim has
    /// not yet decided slot 0 legitimately — PBFT's `slot` guard discards
    /// stale commits — which makes the violation dependent on whatever
    /// stalls the victim (e.g. targeted fault-catalog drops).
    pub(crate) fn with_delay_micros(delay_micros: u64) -> Self {
        QuorumForgeAdversary { delay_micros }
    }

    /// The digest the victim is tricked into deciding.
    pub(crate) fn bogus_digest() -> Digest {
        Digest::of_words(&[BOGUS_WORD])
    }

    /// The node that receives the forged certificate.
    pub(crate) fn victim(n: usize) -> NodeId {
        NodeId::new(n as u32 - 1)
    }
}

impl Adversary for QuorumForgeAdversary {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        let n = api.n();
        let quorum = 2 * api.f() + 1;
        let victim = Self::victim(n);
        let bogus = Self::bogus_digest();
        for i in 0..quorum {
            let signer = NodeId::new(i as u32);
            let sig = sign(signer, vote_digest(PHASE_COMMIT, 0, 0, bogus));
            api.inject(
                signer,
                victim,
                SimDuration::from_micros(self.delay_micros + i as u64),
                PbftMsg::Commit {
                    view: 0,
                    slot: 0,
                    digest: bogus,
                    sig,
                },
            );
        }
    }

    fn name(&self) -> &'static str {
        "quorum-forge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{RunMode, ScenarioSpec};
    use bft_sim_protocols::registry::ProtocolKind;

    #[test]
    fn forged_quorum_trips_the_agreement_oracle() {
        let spec = ScenarioSpec {
            inject_bug: true,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        let run = spec.run(RunMode::Generate).unwrap();
        assert!(
            run.violates("agreement"),
            "violations: {:?}",
            run.violations
        );
        let v = run
            .violations
            .iter()
            .find(|v| v.oracle == "agreement")
            .unwrap();
        assert!(
            v.detail.contains("n3"),
            "detail must name the victim: {}",
            v.detail
        );
        // The victim decided the forged digest, rushed in at ~1 ms.
        let bogus = QuorumForgeAdversary::bogus_digest().as_u64();
        let victim = &run.result.decided[3];
        assert_eq!(victim.first().map(|(_, v)| v.as_u64()), Some(bogus));
    }

    #[test]
    fn the_bug_reproduces_at_every_scale() {
        for n in [4, 7, 16] {
            let spec = ScenarioSpec {
                n,
                inject_bug: true,
                ..ScenarioSpec::baseline(ProtocolKind::Pbft)
            };
            let run = spec.run(RunMode::Generate).unwrap();
            assert!(run.violates("agreement"), "n = {n}: {:?}", run.violations);
        }
    }
}
