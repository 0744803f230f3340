//! Targeted-delay ("slow primary") attack.
//!
//! The classic performance-degradation attack that motivated *BFT protocols
//! under fire* (the BFTSim paper) and Aardvark: a Byzantine-ish network
//! position delays every message **from** a targeted node — typically the
//! current primary — by just under the amount that would trigger a view
//! change. Consensus stays live, the victim protocol never recovers by
//! replacing its leader, and latency quietly multiplies.
//!
//! Because the simulator's global attacker assigns every message's delay,
//! this attack is a three-line `attack` callback (§III-A5).

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::time::SimDuration;

/// Delays every message sent by `target` by `extra`.
#[derive(Debug, Clone)]
pub struct SlowPrimary {
    target: NodeId,
    extra: SimDuration,
}

impl SlowPrimary {
    /// Creates the attack against `target`, adding `extra` delay to each of
    /// its outgoing messages.
    pub fn new(target: NodeId, extra: SimDuration) -> Self {
        SlowPrimary { target, extra }
    }
}

impl Adversary for SlowPrimary {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        _api: &mut AdversaryApi<'_>,
    ) -> Fate {
        if msg.src() == self.target {
            Fate::Deliver(proposed + self.extra)
        } else {
            Fate::Deliver(proposed)
        }
    }

    fn name(&self) -> &'static str {
        "slow-primary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::adversary::NullAdversary;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::trace::TraceLevel;
    use bft_sim_protocols::registry::ProtocolKind;

    fn run_pbft<A: Adversary + 'static>(adv: A) -> bft_sim_core::metrics::RunResult {
        let cfg = ProtocolKind::Pbft.configure(
            RunConfig::new(4)
                .with_seed(2)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(60.0))
                .with_trace(TraceLevel::Events),
        );
        let factory = ProtocolKind::Pbft.factory(&cfg, 9);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(adv)
            .protocols(factory)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn slowing_the_primary_degrades_latency_without_a_view_change() {
        let baseline = run_pbft(NullAdversary::new());
        // Keep the added delay safely under the 1000 ms timeout so the
        // primary is never suspected.
        let attacked = run_pbft(SlowPrimary::new(
            NodeId::new(0), // view-0 primary
            SimDuration::from_millis(600.0),
        ));
        assert!(baseline.is_clean() && attacked.is_clean());
        assert!(
            attacked.latency().unwrap() > baseline.latency().unwrap(),
            "the attack must cost latency"
        );
        // The protocol never changed views: the slowdown flew under the
        // timeout radar (that is the point of the attack).
        assert!(attacked.trace.custom("view-change").is_empty());
    }

    #[test]
    fn slowing_a_follower_barely_matters() {
        let baseline = run_pbft(NullAdversary::new());
        let attacked = run_pbft(SlowPrimary::new(
            NodeId::new(3), // not the primary
            SimDuration::from_millis(600.0),
        ));
        assert!(attacked.is_clean());
        // Quorums of 2f + 1 = 3 of 4 can exclude one slow follower
        // entirely in the prepare phase; a modest commit-phase delay can
        // remain, but nothing close to the full per-phase delay.
        let slack = attacked.latency().unwrap().as_millis_f64()
            - baseline.latency().unwrap().as_millis_f64();
        assert!(
            slack <= 650.0,
            "follower delay should not stack phases: {slack}"
        );
    }
}
