//! ADD+ BA v1: the basic synchronous protocol with **deterministic
//! round-robin leaders**.
//!
//! Because the leader schedule is public, a *static* attacker can fail-stop
//! exactly the first `f` leaders before the run starts, wasting the first
//! `f` iterations — the linear-in-`f` latency of Fig. 8 (left). See
//! [`crate::add::machine`] for the shared round machine.

#[cfg(test)]
mod tests {
    use crate::add::machine::{factory, AddVariant};
    use crate::common::ProtocolParams;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::ids::NodeId;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;

    #[test]
    fn decides_in_the_first_iteration_without_faults() {
        let cfg = RunConfig::new(4)
            .with_seed(3)
            .with_f(1)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 21);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .protocols(factory(params, AddVariant::V1))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // One iteration = 3 rounds of Δ = 500 ms; decision lands at the
        // boundary closing the commit round.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 1500.0);
    }

    #[test]
    fn latency_is_lambda_paced_not_network_paced() {
        let mk = |lambda: f64| {
            let cfg = RunConfig::new(4)
                .with_seed(3)
                .with_f(1)
                .with_lambda_ms(lambda)
                .with_time_cap(SimDuration::from_secs(120.0));
            let params = ProtocolParams::new(cfg.n, cfg.f, 21);
            SimulationBuilder::new(cfg)
                .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
                .protocols(factory(params, AddVariant::V1))
                .build()
                .unwrap()
                .run()
        };
        let a = mk(1000.0);
        let b = mk(2000.0);
        assert_eq!(
            b.latency().unwrap().as_micros(),
            2 * a.latency().unwrap().as_micros(),
            "synchronous protocol: latency scales with λ (Fig. 4)"
        );
    }

    #[test]
    fn crashed_round_robin_leader_wastes_an_iteration() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashFirstLeader;
        impl Adversary for CrashFirstLeader {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                assert!(api.crash(NodeId::new(0))); // leader of iteration 0
            }
        }
        let cfg = RunConfig::new(5)
            .with_seed(3)
            .with_f(2)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 21);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(CrashFirstLeader)
            .protocols(factory(params, AddVariant::V1))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // Iteration 0 wasted, decide at the end of iteration 1: 6 rounds.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 3000.0);
    }
}
