//! Direct drives: a layer's public function called in a tight loop with a
//! fixed input stream, outside any simulation.

use std::hint::black_box;
use std::time::Instant;

use bft_sim_benchmark::workloads::FuzzPlan;
use bft_sim_core::dist::Dist;
use bft_sim_core::ids::NodeId;
use bft_sim_core::network::{NetworkModel, SampledNetwork};
use bft_sim_core::time::SimTime;
use bft_sim_net::churn::{ChurnPlan, ChurnedNetwork};
use bft_sim_net::topology::{BandwidthNetwork, LinkTopology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NODES: usize = 16;
const CALLS: u64 = 1_000_000;

/// Nanoseconds per `decide` call over a fixed (src, dst, now, bytes) stream:
/// sends sweep the node pairs while simulated time advances 50 µs per call
/// (50 simulated seconds in all, so bandwidth queues fill and drain and the
/// churn windows open and close).
fn decide_ns_per_call(mut model: impl NetworkModel) -> f64 {
    let mut rng = SmallRng::seed_from_u64(42);
    let n = NODES as u64;
    let start = Instant::now();
    for i in 0..CALLS {
        let src = i % n;
        let dst = (src + 1 + (i / n) % (n - 1)) % n;
        black_box(model.decide(
            NodeId::new(src as u32),
            NodeId::new(dst as u32),
            SimTime::from_micros(i * 50),
            256,
            &mut rng,
        ));
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

/// `decide` cost of the delay-only model, the bandwidth/topology model the
/// fuzz workload pins, and the same under churn: (sampled, bandwidth, churned).
pub fn net_decide_ns_per_call(plan: &FuzzPlan) -> (f64, f64, f64) {
    let delay = Dist::normal(250.0, 50.0);
    let topology = || {
        // The fuzz workload's preset: ring_gradient, capped links, topology seed 0.
        assert_eq!(plan.topology, "ring_gradient");
        LinkTopology::ring_gradient(NODES, 250.0, Some(plan.bandwidth), 0)
            .expect("a 16-node ring is a valid topology")
    };
    let (seed, crashes, min_ms, max_ms) = plan.churn;
    let churn = ChurnPlan::staggered(NODES, seed, crashes as usize, min_ms, max_ms, 50_000)
        .expect("the fuzz workload's churn block is valid");
    (
        decide_ns_per_call(SampledNetwork::new(delay)),
        decide_ns_per_call(BandwidthNetwork::new(topology())),
        decide_ns_per_call(ChurnedNetwork::new(
            BandwidthNetwork::new(topology()),
            churn,
        )),
    )
}
