//! Synchrony-violation attack on Sync HotStuff.
//!
//! The paper cites Momose's force-locking attack on Sync HotStuff [27] as
//! the kind of sophisticated attack strategy earlier simulators cannot
//! express. This attack is in the same family: it demonstrates that the
//! protocol's **2Δ commit rule is exactly as strong as the synchrony
//! assumption behind it**.
//!
//! The global attacker corrupts the leader and injects two conflicting
//! proposals, one to each half of the replicas. It then *delays all
//! cross-half traffic beyond the 2Δ commit window* — a synchrony violation,
//! since honest-to-honest messages are supposed to arrive within Δ. Each
//! half consequently sees a perfectly consistent world until its commit
//! timers fire, commits its own value — and the simulator's safety checker
//! reports the conflicting decisions. Run the same attack with the
//! violation disabled and the equivocation evidence arrives in time: no
//! commit happens in the poisoned view and safety holds.

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::time::SimDuration;
use bft_sim_crypto::hash::Digest;
use bft_sim_protocols::sync_hotstuff::ShsMsg;

/// Equivocate through the corrupted leader and (optionally) hold
/// cross-half traffic beyond the 2Δ commit window.
#[derive(Debug, Clone)]
pub struct SyncViolationAttack {
    /// Extra delay added to cross-half messages. Anything larger than the
    /// victims' 2Δ commit window breaks synchrony; `None` mounts only the
    /// equivocation (which the protocol survives).
    cross_delay: Option<SimDuration>,
}

impl SyncViolationAttack {
    /// Full attack: equivocate and delay cross-half traffic by `cross_delay`.
    pub fn new(cross_delay: SimDuration) -> Self {
        SyncViolationAttack {
            cross_delay: Some(cross_delay),
        }
    }

    fn half_of(node: NodeId, n: usize) -> bool {
        (node.index()) < n / 2
    }
}

impl Adversary for SyncViolationAttack {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        // Corrupt the view-1 leader (node 1) and speak in its name.
        let leader = NodeId::new(1);
        if !api.corrupt(leader) {
            return;
        }
        let value_a = Digest::of_bytes(b"sync-violation-a");
        let value_b = Digest::of_bytes(b"sync-violation-b");
        let n = api.n();
        for i in 0..n as u32 {
            let dst = NodeId::new(i);
            if dst == leader {
                continue;
            }
            let digest = if Self::half_of(dst, n) {
                value_a
            } else {
                value_b
            };
            api.inject(
                leader,
                dst,
                SimDuration::from_millis(50.0),
                ShsMsg::Propose {
                    view: 1,
                    height: 1,
                    digest,
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
        // Silence whatever the corrupted leader tries to send itself.
        if api.is_corrupted(msg.src()) {
            return Fate::Drop;
        }
        // Hold cross-half traffic beyond the commit window (the synchrony
        // violation) so neither half learns of the other's world in time.
        if let Some(extra) = self.cross_delay {
            let n = api.n();
            if Self::half_of(msg.src(), n) != Self::half_of(msg.dst(), n) {
                return Fate::Deliver(proposed + extra);
            }
        }
        Fate::Deliver(proposed)
    }

    fn name(&self) -> &'static str {
        "sync-violation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_protocols::registry::ProtocolKind;

    fn run(attack: SyncViolationAttack) -> bft_sim_core::metrics::RunResult {
        let cfg = ProtocolKind::SyncHotStuff.configure(
            RunConfig::new(5)
                .with_seed(2)
                .with_lambda_ms(500.0)
                .with_time_cap(SimDuration::from_secs(60.0)),
        );
        let factory = ProtocolKind::SyncHotStuff.factory(&cfg, 3);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(attack)
            .protocols(factory)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn breaking_synchrony_breaks_the_two_delta_commit_rule() {
        // Cross-half traffic held for 5 s ≫ 2Δ = 1 s: both halves commit
        // their own value and the simulator reports the safety violation.
        let r = run(SyncViolationAttack::new(SimDuration::from_millis(5000.0)));
        assert!(
            r.safety_violation.is_some(),
            "expected conflicting commits once synchrony is violated"
        );
    }

    #[test]
    fn within_synchrony_the_equivocation_is_harmless() {
        // Same equivocation, but every message arrives within Δ: the
        // conflicting evidence reaches both halves inside their 2Δ windows,
        // nobody commits the poisoned view, and the blame quorum replaces
        // the leader.
        let r = run(SyncViolationAttack { cross_delay: None });
        assert!(r.safety_violation.is_none(), "{:?}", r.safety_violation);
        assert!(!r.timed_out, "the view change must restore liveness");
        assert_eq!(r.decisions_completed(), 1);
    }
}
