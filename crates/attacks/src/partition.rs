//! Network partition attack (§III-C, after Algorand's attack model).
//!
//! All messages pass through the attacker module, so a partition is a set of
//! between-node packet-filter rules: while the partition is active, the
//! attacker drops (or delays until resolution) every message that crosses a
//! subnet boundary. The plan itself is shared with the network-level variant
//! in `bft_sim_net::partition`.

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::message::Message;
use bft_sim_core::time::{SimDuration, SimTime};
use bft_sim_net::partition::{CrossTraffic, PartitionPlan};

/// Drops or delays cross-subnet traffic during the partition window.
///
/// # Examples
///
/// ```
/// use bft_sim_attacks::PartitionAttack;
/// use bft_sim_net::partition::{CrossTraffic, PartitionPlan};
/// use bft_sim_core::time::SimTime;
///
/// // Split 16 nodes in half from t = 0 to t = 20 s, dropping cross traffic.
/// let plan = PartitionPlan::halves(
///     16,
///     SimTime::ZERO,
///     SimTime::from_millis(20_000),
///     CrossTraffic::Drop,
/// );
/// let attack = PartitionAttack::new(plan);
/// assert!(attack.plan().is_active(SimTime::from_millis(5_000)));
/// ```
#[derive(Debug, Clone)]
pub struct PartitionAttack {
    plan: PartitionPlan,
}

impl PartitionAttack {
    /// Creates the attack from a partition plan.
    pub fn new(plan: PartitionPlan) -> Self {
        PartitionAttack { plan }
    }

    /// The half/half split between `start_ms` and `end_ms`, as a scenario
    /// file, a repro or `--attack partition:S:E` spells it: `drop` discards
    /// cross traffic, otherwise it is held until the partition resolves.
    ///
    /// # Errors
    ///
    /// The window is inverted ([`PartitionAttack::check_window`]).
    pub fn halves(n: usize, start_ms: u64, end_ms: u64, drop: bool) -> Result<Self, String> {
        Self::check_window(start_ms, end_ms)?;
        let cross = if drop {
            CrossTraffic::Drop
        } else {
            CrossTraffic::HoldUntilResolve
        };
        let (start, end) = (SimTime::from_millis(start_ms), SimTime::from_millis(end_ms));
        Ok(Self::new(PartitionPlan::halves(n, start, end, cross)))
    }

    /// The one statement of the rule for a window read from outside the
    /// program: a partition cannot resolve before it starts.
    ///
    /// # Errors
    ///
    /// `end_ms < start_ms`.
    pub fn check_window(start_ms: u64, end_ms: u64) -> Result<(), String> {
        if end_ms < start_ms {
            return Err(format!(
                "partition resolves at {end_ms} ms, before it starts at {start_ms} ms"
            ));
        }
        Ok(())
    }

    /// The underlying plan.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }
}

impl Adversary for PartitionAttack {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        if !self.plan.severs(msg.src(), msg.dst(), api.now()) {
            return Fate::Deliver(proposed);
        }
        match self.plan.cross_traffic() {
            CrossTraffic::Drop => Fate::Drop,
            CrossTraffic::HoldUntilResolve => {
                Fate::Deliver((self.plan.end() - api.now()) + proposed)
            }
        }
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::ids::NodeId;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_protocols::registry::ProtocolKind;

    fn partition_run(
        kind: ProtocolKind,
        cross: CrossTraffic,
        end_ms: u64,
        cap_s: f64,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = kind.configure(
            RunConfig::new(8)
                .with_seed(3)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(cap_s)),
        );
        let plan = PartitionPlan::halves(8, SimTime::ZERO, SimTime::from_millis(end_ms), cross);
        let factory = kind.factory(&cfg, 7);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(PartitionAttack::new(plan))
            .protocols(factory)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn pbft_cannot_decide_during_partition_and_recovers_after() {
        let r = partition_run(ProtocolKind::Pbft, CrossTraffic::Drop, 10_000, 300.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        let latency = r.latency().unwrap().as_secs_f64();
        assert!(latency >= 10.0, "decided during the partition: {latency}");
        assert!(latency < 60.0, "recovery too slow: {latency}");
    }

    #[test]
    fn librabft_recovers_within_seconds_of_resolution() {
        let r = partition_run(ProtocolKind::LibraBft, CrossTraffic::Drop, 10_000, 300.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        let latency = r.latency().unwrap().as_secs_f64();
        assert!(latency >= 10.0);
        assert!(latency < 25.0, "LibraBFT must resync fast: {latency}");
    }

    #[test]
    fn algorand_is_partition_resilient() {
        let r = partition_run(ProtocolKind::Algorand, CrossTraffic::Drop, 10_000, 600.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
    }

    #[test]
    fn held_messages_arrive_after_resolution() {
        let r = partition_run(
            ProtocolKind::Pbft,
            CrossTraffic::HoldUntilResolve,
            5_000,
            300.0,
        );
        assert!(r.is_clean());
        assert_eq!(r.dropped_messages, 0, "hold mode never drops");
    }

    #[test]
    fn an_inverted_window_is_an_error_not_a_panic() {
        let err = PartitionAttack::halves(4, 10, 5, true).unwrap_err();
        assert!(err.contains("before it starts"), "{err}");
        let attack = PartitionAttack::halves(4, 5, 5, false).unwrap();
        assert!(!attack.plan().is_active(SimTime::from_millis(5)));
    }

    #[test]
    fn same_subnet_traffic_is_untouched() {
        let plan = PartitionPlan::halves(
            4,
            SimTime::ZERO,
            SimTime::from_millis(1000),
            CrossTraffic::Drop,
        );
        let attack = PartitionAttack::new(plan);
        // Node 0 and 1 share a subnet: message must pass.
        let msg = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::from_millis(500),
            bft_sim_core::payload::boxed(1u8),
        );
        // Build a minimal api through a real simulation is overkill; use the
        // plan directly.
        assert!(!attack.plan().severs(msg.src(), msg.dst(), msg.sent_at()));
        assert!(attack
            .plan()
            .severs(NodeId::new(0), NodeId::new(2), SimTime::from_millis(500)));
    }
}
