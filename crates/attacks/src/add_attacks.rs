//! The two leader-targeting attacks on the ADD+ family (§III-C, Fig. 8).

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::time::SimDuration;
use bft_sim_protocols::add::machine::AddMsg;

/// **Static attack on ADD+ v1** (Fig. 8, left).
///
/// ADD+ v1's leader sequence is deterministic (round-robin), so a *static*
/// attacker — one that must pick its victims before the protocol starts —
/// simply fail-stops the first `f` leaders. Every one of the first `f`
/// iterations then has a crashed leader and is wasted, delaying termination
/// by `f` iterations. Against ADD+ v2 the same attack is useless: the VRF
/// winner is always among the live nodes.
#[derive(Debug, Clone)]
pub struct AddStaticAttack {
    victims: usize,
}

impl AddStaticAttack {
    /// Fail-stops the first `victims` round-robin leaders (≤ f enforced by
    /// the engine's corruption budget).
    pub fn new(victims: usize) -> Self {
        AddStaticAttack { victims }
    }
}

impl Adversary for AddStaticAttack {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        for i in 0..self.victims.min(api.n()) {
            if !api.crash(NodeId::new(i as u32)) {
                break; // fault budget exhausted
            }
        }
    }

    fn name(&self) -> &'static str {
        "add-static"
    }
}

/// **Rushing adaptive attack on ADD+ v2/v3** (Fig. 8, right).
///
/// The attacker sits on the wire (every message passes through it before
/// delivery, so it is *rushing* by construction) and corrupts nodes *during*
/// execution (*adaptive*). The strategy: the moment the VRF election winner
/// identifies itself by sending its `Propose`, corrupt it — the engine then
/// silences the node — and drop the proposal in flight so no honest node
/// ever hears it. Each corruption wastes one iteration of ADD+ v2 until the
/// budget `f` is exhausted (so v2 terminates only after ~`f` iterations),
/// whereas ADD+ v3 commits from its prepare certificates and sails through.
#[derive(Debug, Clone, Default)]
pub struct AddAdaptiveRushingAttack;

impl AddAdaptiveRushingAttack {
    /// Creates the attack.
    pub fn new() -> Self {
        AddAdaptiveRushingAttack
    }
}

impl Adversary for AddAdaptiveRushingAttack {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        // Silence everything a corrupted node already had in flight.
        if api.is_corrupted(msg.src()) {
            return Fate::Drop;
        }
        if let Some(AddMsg::Propose { .. }) = msg.downcast_ref::<AddMsg>() {
            // The elected leader just revealed itself: corrupt it now (if
            // the budget allows) and suppress the proposal.
            if api.corrupt(msg.src()) {
                return Fate::Drop;
            }
        }
        Fate::Deliver(proposed)
    }

    fn name(&self) -> &'static str {
        "add-adaptive-rushing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::adversary::NullAdversary;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_protocols::registry::ProtocolKind;

    fn run_add<A: Adversary + 'static>(
        kind: ProtocolKind,
        n: usize,
        adversary: A,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = kind.configure(
            RunConfig::new(n)
                .with_seed(4)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(600.0)),
        );
        let factory = kind.factory(&cfg, 31);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(250.0)))
            .adversary(adversary)
            .protocols(factory)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn static_attack_delays_v1_by_f_iterations() {
        let n = 8; // f = 3 for the synchronous family
        let baseline = run_add(ProtocolKind::AddV1, n, NullAdversary::new());
        let attacked = run_add(ProtocolKind::AddV1, n, AddStaticAttack::new(3));
        assert!(baseline.is_clean() && attacked.is_clean());
        // Baseline: iteration 0 succeeds. Attack: iterations 0..3 wasted.
        let base_iters = 1.0;
        let ratio =
            attacked.latency().unwrap().as_secs_f64() / baseline.latency().unwrap().as_secs_f64();
        assert!(
            ratio >= (3.0 + base_iters) / base_iters - 0.01,
            "static attack too weak: ratio {ratio}"
        );
    }

    #[test]
    fn static_attack_is_useless_against_v2() {
        let n = 8;
        let baseline = run_add(ProtocolKind::AddV2, n, NullAdversary::new());
        let attacked = run_add(ProtocolKind::AddV2, n, AddStaticAttack::new(3));
        assert!(baseline.is_clean() && attacked.is_clean());
        assert_eq!(
            baseline.latency().unwrap(),
            attacked.latency().unwrap(),
            "VRF leaders are always live: v2 unaffected by static crashes"
        );
    }

    #[test]
    fn adaptive_attack_stalls_v2_for_f_iterations() {
        let n = 8;
        let baseline = run_add(ProtocolKind::AddV2, n, NullAdversary::new());
        let attacked = run_add(ProtocolKind::AddV2, n, AddAdaptiveRushingAttack::new());
        assert!(
            baseline.is_clean() && attacked.is_clean(),
            "{:?}",
            attacked.safety_violation
        );
        let ratio =
            attacked.latency().unwrap().as_secs_f64() / baseline.latency().unwrap().as_secs_f64();
        assert!(
            ratio >= 3.5,
            "adaptive attack too weak on v2: ratio {ratio}"
        );
    }

    #[test]
    fn adaptive_attack_barely_touches_v3() {
        let n = 8;
        let baseline = run_add(ProtocolKind::AddV3, n, NullAdversary::new());
        let attacked = run_add(ProtocolKind::AddV3, n, AddAdaptiveRushingAttack::new());
        assert!(
            baseline.is_clean() && attacked.is_clean(),
            "{:?}",
            attacked.safety_violation
        );
        assert_eq!(
            baseline.latency().unwrap(),
            attacked.latency().unwrap(),
            "v3 commits from prepare certificates; silencing the leader is moot"
        );
    }
}
