//! # bft-sim-net
//!
//! Network models for the BFT simulator: bounded (synchronous /
//! partially-synchronous), GST-based partially-synchronous, link-level
//! topologies with bandwidth/FIFO queueing, and node churn — the network
//! module of §III-A4, factored into its own crate. A partition is not a
//! network model: it is the attacker's packet filter (§III-C),
//! `bft_sim_attacks::PartitionAttack`.
//!
//! ```
//! use bft_sim_net::models::BoundedNetwork;
//! use bft_sim_core::dist::Dist;
//!
//! // The paper's partially-synchronous default: N(250, 50), bounded.
//! let net = BoundedNetwork::new(Dist::normal(250.0, 50.0), 2000.0);
//! assert_eq!(net.bound().as_millis_f64(), 2000.0);
//! ```

pub mod churn;
pub mod models;
pub mod topology;
