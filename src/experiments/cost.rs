//! Computation-cost and throughput estimation.
//!
//! The paper's simulator does not model computation and therefore cannot
//! measure throughput, but §III-A3 sketches the fix: "estimate the
//! computation time through calculating the number of computationally
//! expensive operations, such as cryptography operations". This module
//! implements that sketch: per-node message counts (one signature per send,
//! one verification per delivery) are priced with a [`CostModel`], giving
//! each node's CPU time, the system's critical-path utilisation, and an
//! estimated sustainable throughput.

use bft_sim_core::ids::NodeId;
use bft_sim_core::metrics::RunResult;

/// Microsecond prices for the two dominant cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of producing one signature (µs).
    pub(crate) sign_us: f64,
    /// Cost of verifying one signature (µs).
    pub(crate) verify_us: f64,
}

impl CostModel {
    /// Ed25519 on commodity hardware: ~50 µs sign, ~150 µs verify.
    pub fn ed25519() -> Self {
        CostModel {
            sign_us: 50.0,
            verify_us: 150.0,
        }
    }

    /// RSA-2048: slow signing (~1.5 ms), fast verification (~50 µs).
    pub fn rsa2048() -> Self {
        CostModel {
            sign_us: 1500.0,
            verify_us: 50.0,
        }
    }

    /// Symmetric MACs (as classic PBFT used): ~1 µs each way.
    pub fn mac() -> Self {
        CostModel {
            sign_us: 1.0,
            verify_us: 1.0,
        }
    }

    /// Estimates the computation profile of a finished run.
    pub fn estimate(&self, result: &RunResult) -> CostEstimate {
        let per_node_us: Vec<f64> = result
            .sent_per_node
            .iter()
            .zip(&result.delivered_per_node)
            .map(|(&sent, &delivered)| {
                sent as f64 * self.sign_us + delivered as f64 * self.verify_us
            })
            .collect();
        let (busiest, &busiest_us) = per_node_us
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap_or((0, &0.0));
        let wall_us = result.end_time.as_micros() as f64;
        let utilisation = if wall_us > 0.0 {
            busiest_us / wall_us
        } else {
            0.0
        };
        let decisions = result.decisions_completed();
        let decisions_per_sec = if result.end_time.as_secs_f64() > 0.0 {
            decisions as f64 / result.end_time.as_secs_f64()
        } else {
            0.0
        };
        // The busiest node's CPU is the throughput bottleneck: the observed
        // rate can be scaled until that node saturates.
        let max_decisions_per_sec = if utilisation > 0.0 {
            decisions_per_sec / utilisation
        } else {
            f64::INFINITY
        };
        CostEstimate {
            per_node_us,
            busiest_node: NodeId::new(busiest as u32),
            busiest_node_us: busiest_us,
            cpu_utilisation: utilisation,
            decisions_per_sec,
            max_decisions_per_sec,
        }
    }
}

/// The computation profile of one run under a [`CostModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Estimated CPU microseconds per node.
    pub(crate) per_node_us: Vec<f64>,
    /// The node doing the most cryptographic work (usually the leader).
    pub(crate) busiest_node: NodeId,
    /// Its CPU time (µs).
    pub(crate) busiest_node_us: f64,
    /// Fraction of wall-clock the busiest node spent on crypto (> 1 means
    /// the modelled hardware could not keep up with the simulated rate).
    pub(crate) cpu_utilisation: f64,
    /// Decisions per simulated second actually observed.
    pub(crate) decisions_per_sec: f64,
    /// Estimated sustainable decisions per second before the busiest node
    /// saturates.
    pub max_decisions_per_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::paper_spec;
    use bft_sim_core::trace::TraceLevel;
    use bft_sim_protocols::registry::ProtocolKind;
    use bft_sim_simcheck::ScenarioSpec;

    /// The paper's default run of `kind` at `n` nodes, seed 4.
    fn run(kind: ProtocolKind, n: usize) -> RunResult {
        let spec = ScenarioSpec {
            seed: 4,
            ..paper_spec(kind, n)
        };
        spec.simulate(TraceLevel::Decisions).unwrap()
    }

    #[test]
    fn leaders_do_more_work_than_followers_in_pbft() {
        let result = run(ProtocolKind::Pbft, 7);
        let est = CostModel::ed25519().estimate(&result);
        assert_eq!(est.per_node_us.len(), 7);
        assert!(est.busiest_node_us > 0.0);
        assert!(est.cpu_utilisation > 0.0);
        assert!(est.max_decisions_per_sec > 0.0);
    }

    #[test]
    fn linear_hotstuff_is_cheaper_per_node_than_quadratic_pbft() {
        let pbft = run(ProtocolKind::Pbft, 16);
        let hs = run(ProtocolKind::HotStuffNs, 16);
        let model = CostModel::ed25519();
        let pbft_follower_avg: f64 = model.estimate(&pbft).per_node_us.iter().sum::<f64>()
            / 16.0
            / pbft.decisions_completed() as f64;
        let hs_follower_avg: f64 = model.estimate(&hs).per_node_us.iter().sum::<f64>()
            / 16.0
            / hs.decisions_completed() as f64;
        assert!(
            hs_follower_avg < pbft_follower_avg / 4.0,
            "hotstuff {hs_follower_avg:.1} vs pbft {pbft_follower_avg:.1} µs/node/decision"
        );
    }

    #[test]
    fn cost_models_order_sensibly() {
        let result = run(ProtocolKind::Pbft, 4);
        let mac = CostModel::mac().estimate(&result);
        let ed = CostModel::ed25519().estimate(&result);
        assert!(mac.busiest_node_us < ed.busiest_node_us);
        assert!(mac.max_decisions_per_sec > ed.max_decisions_per_sec);
    }
}
