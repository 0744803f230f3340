//! Simulated verifiable random function (VRF).
//!
//! ADD+ v2/v3 elect leaders by VRF: each node evaluates a private random
//! function on the current iteration, broadcasts `(value, proof)`, and the
//! node with the lowest value wins. The adversary cannot *predict* the
//! winner before values are revealed — but a *rushing* adversary can observe
//! the revealed values in flight and corrupt the winner (§III-C), which is
//! exactly the attack our attacker module mounts.
//!
//! Our simulated VRF is the deterministic hash of `(run seed, node, input)`:
//! unpredictable to protocol logic (which never hashes other nodes' inputs
//! preemptively, by convention), uniformly distributed, and verifiable.

use bft_sim_core::ids::NodeId;

use crate::hash::Digest;

const VRF_DOMAIN: u64 = 0x5652_465f_4556_414c; // "VRF_EVAL"

/// A VRF output: the pseudorandom value plus its proof of correct
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VrfOutput {
    node: NodeId,
    input: u64,
    value: u64,
    proof: u64,
}

impl VrfOutput {
    /// The evaluating node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The input the VRF was evaluated on (e.g. an iteration number).
    pub fn input(&self) -> u64 {
        self.input
    }

    /// The pseudorandom value. Leader election picks the minimum.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Verifies the proof against the claimed `(node, input, value)` triple
    /// for the VRF keyed with `seed`.
    pub fn verify(&self, seed: u64) -> bool {
        let expect = evaluate(seed, self.node, self.input);
        expect.value == self.value && expect.proof == self.proof
    }
}

/// Evaluates node `node`'s VRF on `input`, keyed by the run `seed`.
///
/// # Examples
///
/// ```
/// use bft_sim_core::ids::NodeId;
/// use bft_sim_crypto::vrf::evaluate;
///
/// let out = evaluate(42, NodeId::new(3), 7);
/// assert!(out.verify(42));
/// assert!(!out.verify(43));
/// ```
pub fn evaluate(seed: u64, node: NodeId, input: u64) -> VrfOutput {
    let value = Digest::of_words(&[VRF_DOMAIN, seed, node.as_u32() as u64, input]).as_u64();
    let proof = Digest::of_words(&[
        VRF_DOMAIN ^ 0xffff,
        seed,
        node.as_u32() as u64,
        input,
        value,
    ])
    .as_u64();
    VrfOutput {
        node,
        input,
        value,
        proof,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_verifiable() {
        let a = evaluate(1, NodeId::new(0), 5);
        let b = evaluate(1, NodeId::new(0), 5);
        assert_eq!(a, b);
        assert!(a.verify(1));
    }

    #[test]
    fn distinct_nodes_and_inputs_differ() {
        let a = evaluate(1, NodeId::new(0), 5);
        let b = evaluate(1, NodeId::new(1), 5);
        let c = evaluate(1, NodeId::new(0), 6);
        assert_ne!(a.value(), b.value());
        assert_ne!(a.value(), c.value());
    }

    #[test]
    fn forged_value_fails_verification() {
        let mut out = evaluate(1, NodeId::new(0), 5);
        out.value ^= 1;
        assert!(!out.verify(1));
    }

    #[test]
    fn values_are_roughly_uniform() {
        // Split the u64 range in half; ~half the values should land in each.
        let n = 2000;
        let low = (0..n)
            .filter(|&i| evaluate(7, NodeId::new(i), 0).value() < u64::MAX / 2)
            .count();
        assert!((800..1200).contains(&low), "biased VRF: {low}/{n}");
    }
}
