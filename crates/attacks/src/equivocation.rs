//! Equivocation attack (Twins-style, cf. the paper's related work §V).
//!
//! The adversary corrupts the first PBFT leader and *injects* two
//! conflicting pre-prepares for the same `(view, slot)` — one value to the
//! lower half of the nodes, another to the upper half. A correct PBFT
//! must not let both values reach a `2f + 1` prepare quorum, so safety is
//! preserved and liveness recovers through a view change. This exercises
//! the attacker module's message-insertion capability (§III-A5): the
//! corrupted node's behaviour is fully expressed by forging its messages.

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::time::SimDuration;
use bft_sim_crypto::hash::Digest;
use bft_sim_protocols::pbft::PbftMsg;

/// Makes the view-0 PBFT leader equivocate on its first proposal.
#[derive(Debug, Clone, Default)]
pub struct EquivocationAttack;

impl EquivocationAttack {
    /// Creates the attack.
    pub fn new() -> Self {
        EquivocationAttack
    }
}

impl Adversary for EquivocationAttack {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        // Corrupt the first leader before it can act honestly...
        let leader = NodeId::new(0);
        if !api.corrupt(leader) {
            return;
        }
        // ...and speak in its name: conflicting proposals to each half.
        let n = api.n();
        let value_a = Digest::of_bytes(b"equivocation-a");
        let value_b = Digest::of_bytes(b"equivocation-b");
        for i in 1..n as u32 {
            let value = if (i as usize) < n / 2 {
                value_a
            } else {
                value_b
            };
            api.inject(
                leader,
                NodeId::new(i),
                SimDuration::from_millis(100.0),
                PbftMsg::PrePrepare {
                    view: 0,
                    slot: 0,
                    digest: value,
                },
            );
        }
    }

    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        // Silence everything the corrupted leader actually tries to send.
        if api.is_corrupted(msg.src()) {
            return Fate::Drop;
        }
        Fate::Deliver(proposed)
    }

    fn name(&self) -> &'static str {
        "equivocation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_protocols::registry::ProtocolKind;

    #[test]
    fn pbft_survives_an_equivocating_leader() {
        let cfg = ProtocolKind::Pbft.configure(
            RunConfig::new(7)
                .with_seed(3)
                .with_lambda_ms(500.0)
                .with_time_cap(SimDuration::from_secs(120.0)),
        );
        let factory = ProtocolKind::Pbft.factory(&cfg, 9);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(EquivocationAttack::new())
            .protocols(factory)
            .build()
            .unwrap()
            .run();
        // Safety must hold; neither equivocated value may split the nodes.
        assert!(r.safety_violation.is_none(), "{:?}", r.safety_violation);
        // Liveness recovers through the view change.
        assert!(!r.timed_out, "PBFT never recovered from the equivocation");
        assert_eq!(r.decisions_completed(), 1);
        assert!(r.adversary_messages > 0, "injections must be counted");
        // The corrupted node's sequence is empty — it never decides.
        assert!(r.decided[0].is_empty());
    }

    #[test]
    fn split_prepares_cannot_both_reach_quorum() {
        // With n = 4 (f = 1, quorum 3) and a 2/1 split of honest nodes,
        // at most one value can gather a prepare quorum.
        let cfg = ProtocolKind::Pbft.configure(
            RunConfig::new(4)
                .with_seed(5)
                .with_lambda_ms(500.0)
                .with_time_cap(SimDuration::from_secs(60.0)),
        );
        let factory = ProtocolKind::Pbft.factory(&cfg, 9);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(EquivocationAttack::new())
            .protocols(factory)
            .build()
            .unwrap()
            .run();
        assert!(r.safety_violation.is_none(), "{:?}", r.safety_violation);
        // All honest deciders agreed on a single value.
        let decided: std::collections::HashSet<u64> = r
            .decided
            .iter()
            .skip(1) // node 0 is corrupted
            .filter_map(|seq| seq.first().map(|&(_, v)| v.as_u64()))
            .collect();
        assert!(decided.len() <= 1, "conflicting decisions: {decided:?}");
    }
}
