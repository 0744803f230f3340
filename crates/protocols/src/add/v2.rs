//! ADD+ BA v2: VRF-randomised leader election.
//!
//! Each iteration inserts a *reveal* round in which every node broadcasts a
//! verifiable-random credential; the lowest verified value leads. A static
//! attacker can no longer profit from fail-stopping nodes in advance — a
//! crashed node simply never reveals, so the elected leader is always live
//! (the flat v2 line in Fig. 8, left). The remaining weakness is the
//! *rushing adaptive* attacker, which reads reveals in flight and corrupts
//! each winner until its budget is spent (Fig. 8, right); that is fixed by
//! [v3](crate::add::v3).

#[cfg(test)]
mod tests {
    use crate::add::machine::{factory, AddVariant};
    use crate::common::ProtocolParams;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::ids::NodeId;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;

    fn run_with<A: bft_sim_core::adversary::Adversary + 'static>(
        n: usize,
        f: usize,
        adversary: A,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = RunConfig::new(n)
            .with_seed(3)
            .with_f(f)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(300.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 21);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(adversary)
            .protocols(factory(params, AddVariant::V2))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn decides_in_first_iteration_without_faults() {
        let r = run_with(4, 1, bft_sim_core::adversary::NullAdversary::new());
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // One iteration = 4 rounds of Δ = 500 ms.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 2000.0);
    }

    #[test]
    fn static_crashes_cannot_target_the_vrf_leader() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        // Crash f nodes up-front: the VRF winner is always among the live
        // nodes (crashed nodes never reveal), so v2 still decides in the
        // first iteration — the paper's Fig. 8 (left) flat line.
        struct CrashF;
        impl Adversary for CrashF {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                for i in 0..api.f() as u32 {
                    assert!(api.crash(NodeId::new(i)));
                }
            }
        }
        let r = run_with(9, 4, CrashF);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        assert_eq!(
            r.latency().unwrap().as_millis_f64(),
            2000.0,
            "static attack must not delay v2"
        );
    }

    #[test]
    fn all_nodes_decide_identically() {
        let r = run_with(7, 3, bft_sim_core::adversary::NullAdversary::new());
        assert!(r.is_clean());
        let v = r.decided[0][0].1;
        for seq in &r.decided {
            assert_eq!(seq.first().map(|&(_, v)| v), Some(v));
        }
    }
}
