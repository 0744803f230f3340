//! # bft-simulator
//!
//! An efficient and flexible discrete-event simulator for Byzantine
//! fault-tolerant protocols — a Rust reproduction of the DSN 2022 paper
//! *"An Efficient and Flexible Simulator for Byzantine Fault-Tolerant
//! Protocols"* (Wang, Chao, Wu, Hsiao).
//!
//! This facade crate re-exports the whole workspace and hosts the
//! [`experiments`] module, which regenerates every table and figure of the
//! paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use bft_simulator::prelude::*;
//!
//! // Simulate PBFT with 16 nodes on the paper's default network N(250, 50).
//! let cfg = ProtocolKind::Pbft.configure(
//!     RunConfig::new(16).with_seed(1).with_lambda_ms(1000.0),
//! );
//! let factory = ProtocolKind::Pbft.factory(&cfg, 42);
//! let result = SimulationBuilder::new(cfg)
//!     .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
//!     .protocols(factory)
//!     .build()
//!     .expect("valid config")
//!     .run();
//! assert!(result.is_clean());
//! println!("latency: {:?}", result.latency());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | `bft-sim-core` | event queue, controller, protocol/adversary interfaces, metrics, validator |
//! | `bft-sim-net` | network models: bounded, GST, link-level topologies with bandwidth queueing, churn |
//! | `bft-sim-crypto` | simulated hashing, signatures, VRFs, quorum certificates |
//! | `bft-sim-protocols` | the eight BFT protocols of Table I, plus Tendermint |
//! | `bft-sim-attacks` | fail-stop, partition, ADD+ static & rushing-adaptive attacks |
//! | `bft-sim-simcheck` | deterministic fuzzing harness, correctness oracles, failing-case shrinking |

pub use bft_sim_attacks as attacks;
pub use bft_sim_core as sim_core;
pub use bft_sim_crypto as crypto;
pub use bft_sim_net as net;
pub use bft_sim_protocols as protocols;
pub use bft_sim_simcheck as simcheck;

pub mod experiments;

/// Everything most users need, in one import.
pub mod prelude {
    pub use bft_sim_attacks::{
        AddAdaptiveRushingAttack, AddStaticAttack, CrossTraffic, EquivocationAttack, FailStop,
        PartitionAttack, SlowPrimary,
    };
    pub use bft_sim_core::network::{ConstantNetwork, SampledNetwork};
    pub use bft_sim_core::prelude::*;
    pub use bft_sim_net::churn::{ChurnPlan, ChurnedNetwork};
    pub use bft_sim_net::models::{BoundedNetwork, GstNetwork};
    pub use bft_sim_net::topology::{BandwidthNetwork, LinkProfile, LinkTopology};
    pub use bft_sim_protocols::registry::{NetworkAssumption, ProtocolKind};
    pub use bft_sim_protocols::ProtocolParams;
    pub use bft_sim_simcheck::{AttackSpec, DelaySpec, PartitionSpec, ScenarioSpec};
}
