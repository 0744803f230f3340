//! # bft-sim-baseline
//!
//! A deliberately **packet-level** BFT simulator that stands in for BFTSim
//! (Singh et al., NSDI '08) in the paper's Fig. 2 speed/scale comparison.
//!
//! BFTSim runs BFT protocols over the ns-2 network simulator: every message
//! becomes MTU-sized packets, every packet is processed at the physical and
//! link layers, cryptographic operations consume modelled CPU time, and the
//! `n²` connection state makes memory grow quadratically — it ran out of
//! memory beyond 32 nodes on the paper's machine. BFTSim itself (P2 + ns-2)
//! is not runnable here, so this crate implements a simulator with the same
//! *cost structure*:
//!
//! * one event per packet **hop** (sender NIC → switch → receiver NIC),
//!   with per-hop frame checksumming, instead of one event per message;
//! * MTU fragmentation and reassembly;
//! * serialised per-node CPU time for signature verification;
//! * an explicit `n²` memory model that reports out-of-memory above the
//!   budget (default: exactly beyond 32 nodes).
//!
//! It hosts the *same* protocol implementations as the event-level engine
//! (via [`bft_sim_core::exec`]), so decisions can be cross-validated
//! between the two simulators — our analogue of the paper's BFTSim trace
//! validation (§III-D).
//!
//! ```
//! use bft_sim_baseline::{BaselineConfig, BaselineSim};
//! use bft_sim_protocols::{ProtocolKind, ProtocolParams};
//!
//! let cfg = BaselineConfig::new(4).with_seed(7);
//! let params = ProtocolParams::new(cfg.n, cfg.f, 7);
//! let sim = BaselineSim::new(cfg, bft_sim_protocols::pbft::factory(params)).unwrap();
//! let result = sim.run().unwrap();
//! assert_eq!(result.decisions_completed(), 1);
//! ```

pub(crate) mod config;
pub(crate) mod sim;

pub use config::BaselineConfig;
pub use sim::{BaselineError, BaselineResult, BaselineSim};
