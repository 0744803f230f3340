//! Consensus matrix: every protocol must reach consensus safely across
//! every network model, several system sizes, and adverse-but-tolerable
//! fault loads.

use bft_simulator::prelude::*;

fn run_with_network<N: NetworkModel + 'static>(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    network: N,
) -> RunResult {
    let cfg = kind.configure(
        RunConfig::new(n)
            .with_seed(seed)
            .with_lambda_ms(1000.0)
            .with_time_cap(SimDuration::from_secs(900.0)),
    );
    let factory = kind.factory(&cfg, 11);
    SimulationBuilder::new(cfg)
        .network(network)
        .protocols(factory)
        .build()
        .unwrap()
        .run()
}

fn assert_clean(kind: ProtocolKind, r: &RunResult, what: &str) {
    assert!(
        r.safety_violation.is_none(),
        "{kind} {what}: safety violated: {:?}",
        r.safety_violation
    );
    assert!(!r.timed_out, "{kind} {what}: liveness failure");
    assert!(r.decisions_completed() >= kind.measured_decisions());
}

#[test]
fn all_protocols_on_constant_network() {
    for kind in ProtocolKind::extended() {
        let r = run_with_network(
            kind,
            16,
            1,
            ConstantNetwork::new(SimDuration::from_millis(100.0)),
        );
        assert_clean(kind, &r, "constant");
    }
}

#[test]
fn all_protocols_on_sampled_normal_network() {
    for kind in ProtocolKind::extended() {
        let r = run_with_network(kind, 16, 2, SampledNetwork::new(Dist::normal(250.0, 50.0)));
        assert_clean(kind, &r, "N(250,50)");
    }
}

#[test]
fn all_protocols_on_bounded_network() {
    for kind in ProtocolKind::all() {
        let r = run_with_network(
            kind,
            16,
            3,
            BoundedNetwork::new(Dist::normal(400.0, 200.0), 900.0),
        );
        assert_clean(kind, &r, "bounded");
    }
}

#[test]
fn all_protocols_on_exponential_delays() {
    // Heavy-tailed delays; λ still dominates the mean, so even the
    // synchronous protocols remain within their operating envelope often
    // enough to finish.
    for kind in ProtocolKind::all() {
        let r = run_with_network(kind, 16, 4, SampledNetwork::new(Dist::exponential(200.0)));
        assert_clean(kind, &r, "exponential");
    }
}

#[test]
fn partially_synchronous_protocols_cross_gst() {
    // Chaos before GST at 5 s, stable afterwards: PBFT, HotStuff+NS and
    // LibraBFT must all decide after stabilisation.
    for kind in [
        ProtocolKind::Pbft,
        ProtocolKind::HotStuffNs,
        ProtocolKind::LibraBft,
        ProtocolKind::Tendermint,
    ] {
        let net = GstNetwork::new(
            Dist::uniform(500.0, 6000.0),
            Dist::normal(250.0, 50.0),
            5_000.0,
            1_000.0,
        );
        let r = run_with_network(kind, 16, 5, net);
        assert_clean(kind, &r, "gst");
    }
}

#[test]
fn heterogeneous_link_matrix() {
    // Two fast LANs joined by one slow WAN pair of links.
    for kind in [
        ProtocolKind::Pbft,
        ProtocolKind::LibraBft,
        ProtocolKind::AsyncBa,
    ] {
        let mut net = LinkMatrixNetwork::uniform(8, Dist::normal(50.0, 10.0));
        for a in 0..4u32 {
            for b in 4..8u32 {
                net.set_bidi(NodeId::new(a), NodeId::new(b), Dist::normal(400.0, 80.0));
            }
        }
        let r = run_with_network(kind, 8, 6, net);
        assert_clean(kind, &r, "link-matrix");
    }
}

#[test]
fn classic_and_blockchain_system_sizes() {
    // The sizes the paper calls out: classic (4, 7, 10) and blockchain-era
    // (64). 64 nodes exercises the scalability path without slowing CI.
    for &n in &[4usize, 7, 10, 64] {
        for kind in [
            ProtocolKind::Pbft,
            ProtocolKind::HotStuffNs,
            ProtocolKind::LibraBft,
        ] {
            let r = run_with_network(
                kind,
                n,
                7,
                ConstantNetwork::new(SimDuration::from_millis(100.0)),
            );
            assert_clean(kind, &r, &format!("n={n}"));
        }
    }
}

#[test]
fn decisions_are_identical_across_honest_nodes() {
    for kind in ProtocolKind::extended() {
        let r = run_with_network(kind, 16, 8, SampledNetwork::new(Dist::normal(250.0, 50.0)));
        let reference = &r.decided[0];
        for (i, seq) in r.decided.iter().enumerate() {
            let common = reference.len().min(seq.len());
            for s in 0..common {
                assert_eq!(
                    reference[s].1, seq[s].1,
                    "{kind}: node {i} disagrees at slot {s}"
                );
            }
        }
    }
}

#[test]
fn fault_budget_of_crashes_is_tolerated_by_every_protocol() {
    use bft_simulator::experiments::paper_spec;
    for kind in ProtocolKind::extended() {
        // Crash the full tolerated budget for the protocol's f.
        let f = kind.default_f(16);
        let crashes = match kind.network_assumption() {
            // The synchronous family tolerates f < n/2 crashes, but the
            // engine counts them against the same budget.
            NetworkAssumption::Synchronous => f.min(5),
            _ => f,
        };
        let spec = ScenarioSpec {
            seed: 9,
            attack: Some(AttackSpec::FailStopLast { k: crashes }),
            time_cap_secs: 900,
            ..paper_spec(kind, 16)
        };
        let r = spec.simulate(TraceLevel::Decisions).unwrap();
        assert!(
            r.safety_violation.is_none() && !r.timed_out,
            "{kind} with {crashes} crashes: violation={:?} timed_out={}",
            r.safety_violation,
            r.timed_out
        );
    }
}

/// PBFT at n = 16, seed 1, 10 decisions, λ = 1000 ms, with every send and
/// delivery traced and observability on.
fn pbft_n16(network: impl NetworkModel + 'static) -> RunResult {
    let kind = ProtocolKind::Pbft;
    let cfg = kind
        .configure(
            RunConfig::new(16)
                .with_seed(1)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(3600.0))
                .with_trace(TraceLevel::Messages),
        )
        .with_target_decisions(10);
    let factory = kind.factory(&cfg, 7);
    let result = SimulationBuilder::new(cfg)
        .network(network)
        .observability(ObsConfig::default())
        .protocols(factory)
        .build()
        .unwrap()
        .run();
    assert_clean(kind, &result, "at n = 16");
    result
}

/// A full mesh of n = 16 with delays N(250, 50) and `bandwidth` bytes per
/// second per link.
fn mesh(bandwidth: Option<u64>) -> BandwidthNetwork {
    let topology = LinkTopology::full_mesh(16, Dist::normal(250.0, 50.0), bandwidth);
    BandwidthNetwork::new(topology.unwrap())
}

/// Count-weighted mean delivery latency (µs) over every node.
fn mean_delivery_micros(r: &RunResult) -> f64 {
    let obs = r.observability.as_ref().unwrap();
    let (sum, count) = obs
        .delivery_latency
        .iter()
        .fold((0, 0), |(s, c), h| (s + h.sum_micros(), c + h.count()));
    sum as f64 / count as f64
}

#[test]
fn unlimited_links_are_the_sampled_network_and_narrow_links_queue() {
    // (a) Unlimited bandwidth on a full mesh draws the same delays in the
    // same order: the whole result is equal, so the fingerprint, every
    // send and delivery in the trace, and the observability block too.
    let unlimited = pbft_n16(mesh(None));
    let sampled = pbft_n16(SampledNetwork::new(Dist::normal(250.0, 50.0)));
    assert_eq!(unlimited, sampled);

    // (b) At 2 000 B/s a PBFT broadcast waits for the link: the same events,
    // but 165 messages queue and end-to-end delivery stretches by 11.6 %.
    let contended = pbft_n16(mesh(Some(2_000)));
    assert_eq!(contended.events_processed, 4_905);
    assert_eq!(unlimited.events_processed, 4_905);
    let waits = &contended.observability.as_ref().unwrap().link_queue_delay;
    assert_eq!(waits.count(), 165);
    assert_eq!(waits.mean_micros(), 28_000.0);
    let round3 = |x: f64| (x * 1e3).round() / 1e3;
    assert_eq!(round3(mean_delivery_micros(&contended)), 278_110.793);
    assert_eq!(round3(mean_delivery_micros(&unlimited)), 249_254.524);
}
