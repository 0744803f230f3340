//! ADD+ BA v3: adaptive security via a prepare round.
//!
//! v3 fixes v2's rushing-adaptive weakness by committing the iteration's
//! candidate value *before* the VRF reveal: every node broadcasts a
//! `prepare` for the (deterministic) highest-grade candidate, and an
//! `n − f` prepare certificate lets honest nodes commit **without the
//! leader's proposal**. By the time the adversary learns who won the
//! election, silencing the winner changes nothing — expected-constant
//! iterations even under the rushing adaptive attacker (Fig. 8, right).

#[cfg(test)]
mod tests {
    use crate::add::machine::{factory, AddVariant};
    use crate::common::ProtocolParams;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;

    #[test]
    fn decides_in_first_iteration_without_faults() {
        let cfg = RunConfig::new(4)
            .with_seed(3)
            .with_f(1)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 21);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .protocols(factory(params, AddVariant::V3))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // One iteration = 5 rounds of Δ = 500 ms.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 2500.0);
    }

    #[test]
    fn commits_without_the_leader_thanks_to_prepare_certificates() {
        use crate::add::machine::AddMsg;
        use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
        use bft_sim_core::message::Message;
        // Drop every proposal: v3 must still decide via prepare
        // certificates (v2 in the same situation would never terminate).
        struct DropAllProposals;
        impl Adversary for DropAllProposals {
            fn attack(
                &mut self,
                msg: &mut Message,
                proposed: SimDuration,
                _api: &mut AdversaryApi<'_>,
            ) -> Fate {
                if let Some(AddMsg::Propose { .. }) = msg.downcast_ref::<AddMsg>() {
                    Fate::Drop
                } else {
                    Fate::Deliver(proposed)
                }
            }
        }
        let cfg = RunConfig::new(4)
            .with_seed(3)
            .with_f(1)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 21);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(DropAllProposals)
            .protocols(factory(params, AddVariant::V3))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1, "v3 decides from prepares alone");
        assert_eq!(r.latency().unwrap().as_millis_f64(), 2500.0);
    }
}
