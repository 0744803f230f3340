//! Machinery shared by the protocol implementations.

use bft_sim_core::ids::NodeId;
use bft_sim_crypto::hash::Digest;

/// Parameters shared by all protocol constructors.
///
/// `n` and `f` are also available from the [`Context`], but protocols need
/// them at construction time (e.g. to size vote trackers), and the shared
/// `genesis_seed` keys the simulated VRFs and common coins — it plays the
/// role of the common reference string a deployment would set up.
///
/// [`Context`]: bft_sim_core::context::Context
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolParams {
    /// Total number of nodes.
    pub(crate) n: usize,
    /// Fault budget.
    pub(crate) f: usize,
    /// Shared randomness seed (VRF key material / common coin).
    pub(crate) genesis_seed: u64,
}

impl ProtocolParams {
    /// Creates parameters for `n` nodes tolerating `f` faults.
    pub fn new(n: usize, f: usize, genesis_seed: u64) -> Self {
        ProtocolParams { n, f, genesis_seed }
    }

    /// The Byzantine quorum `2f + 1` used by partially-synchronous
    /// protocols (with `n = 3f + 1` this equals `n - f`).
    pub(crate) fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// The honest supermajority `n - f` used by synchronous protocols.
    pub(crate) fn honest_quorum(&self) -> usize {
        self.n - self.f
    }

    /// `f + 1`: at least one honest node in any such set.
    pub(crate) fn one_honest(&self) -> usize {
        self.f + 1
    }
}

/// Round-robin leader for a view: `view mod n`.
pub(crate) fn round_robin_leader(view: u64, n: usize) -> NodeId {
    NodeId::new((view % n as u64) as u32)
}

/// The digest of the block/proposal a leader creates for `(view, slot)`.
///
/// The simulator does not model application payloads; a proposal is fully
/// identified by its digest, and distinct `(view, slot)` pairs yield
/// distinct digests so that equivocation and view changes are observable.
pub(crate) fn proposal_digest(view: u64, slot: u64) -> Digest {
    Digest::of_words(&[0x50524f50_4f53414c, view, slot]) // "PROPOSAL"
}

/// Domain-separated digest for a vote of `phase` on `digest` at
/// `(view, slot)` — what a node actually signs.
pub fn vote_digest(phase: u8, view: u64, slot: u64, digest: Digest) -> Digest {
    Digest::of_words(&[0x564f5445, phase as u64, view, slot, digest.as_u64()]) // "VOTE"
}

/// One replica's memo of the last [`vote_digest`] of one vote phase, keyed
/// by all four inputs. A quorum's votes on one candidate arrive one after
/// another, and a replica signs the candidate it then counts; each would
/// otherwise hash the same inputs again. One entry per phase, held by the
/// replica, so phases and replicas never evict each other's entry.
#[derive(Debug)]
pub(crate) struct VoteDigestMemo {
    inputs: (u8, u64, u64, Digest),
    signed: Digest,
}

impl Default for VoteDigestMemo {
    /// A memo holding the digest of all-zero inputs: a true entry, so no
    /// `Option` widens the memo of every replica.
    fn default() -> Self {
        let inputs = (0, 0, 0, Digest::default());
        VoteDigestMemo {
            inputs,
            signed: vote_digest(inputs.0, inputs.1, inputs.2, inputs.3),
        }
    }
}

impl VoteDigestMemo {
    /// `vote_digest(phase, view, slot, digest)`, hashed only when the inputs
    /// differ from the previous call's.
    pub(crate) fn digest(&mut self, phase: u8, view: u64, slot: u64, digest: Digest) -> Digest {
        let inputs = (phase, view, slot, digest);
        if inputs != self.inputs {
            self.inputs = inputs;
            self.signed = vote_digest(phase, view, slot, digest);
        }
        self.signed
    }
}

/// A deterministic common coin for round `r`, keyed by the genesis seed —
/// models a perfect shared-coin setup (e.g. threshold signatures over `r`).
pub(crate) fn common_coin(genesis_seed: u64, round: u64) -> bool {
    Digest::of_words(&[0x434f494e, genesis_seed, round]).as_u64() & 1 == 1 // "COIN"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorums_for_classic_sizes() {
        let p = ProtocolParams::new(4, 1, 0);
        assert_eq!(p.quorum(), 3);
        assert_eq!(p.honest_quorum(), 3);
        assert_eq!(p.one_honest(), 2);
        let p = ProtocolParams::new(16, 5, 0);
        assert_eq!(p.quorum(), 11);
        assert_eq!(p.honest_quorum(), 11);
        // Synchronous setting: f < n/2.
        let p = ProtocolParams::new(16, 7, 0);
        assert_eq!(p.honest_quorum(), 9);
    }

    #[test]
    fn round_robin_cycles() {
        assert_eq!(round_robin_leader(0, 4), NodeId::new(0));
        assert_eq!(round_robin_leader(3, 4), NodeId::new(3));
        assert_eq!(round_robin_leader(4, 4), NodeId::new(0));
        assert_eq!(round_robin_leader(7, 4), NodeId::new(3));
    }

    #[test]
    fn proposal_digests_are_distinct() {
        assert_ne!(proposal_digest(0, 0), proposal_digest(0, 1));
        assert_ne!(proposal_digest(0, 0), proposal_digest(1, 0));
        assert_eq!(proposal_digest(2, 3), proposal_digest(2, 3));
    }

    #[test]
    fn vote_digests_separate_phases() {
        let d = proposal_digest(0, 0);
        assert_ne!(vote_digest(1, 0, 0, d), vote_digest(2, 0, 0, d));
    }

    #[test]
    fn the_memo_answers_what_vote_digest_does() {
        let mut memo = VoteDigestMemo::default();
        let d = proposal_digest(3, 1);
        let calls = [
            (0, 0, 0, Digest::default()),
            (1, 3, 1, d),
            (1, 3, 1, d),
            (2, 3, 1, d),
            (2, 3, 1, d),
            (2, 4, 1, d),
            (2, 4, 2, d),
            (2, 4, 2, Digest::default()),
            (1, 3, 1, d),
        ];
        for (phase, view, slot, digest) in calls {
            assert_eq!(
                memo.digest(phase, view, slot, digest),
                vote_digest(phase, view, slot, digest)
            );
        }
    }

    #[test]
    fn coin_is_deterministic_and_mixed() {
        assert_eq!(common_coin(7, 3), common_coin(7, 3));
        let heads = (0..1000).filter(|&r| common_coin(7, r)).count();
        assert!((350..650).contains(&heads), "biased coin: {heads}/1000");
    }
}
