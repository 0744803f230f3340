//! # bft-sim-protocols
//!
//! The eight representative BFT protocols evaluated in the paper (Table I),
//! implemented against the `bft-sim-core` consensus-module interface:
//!
//! | Protocol | Network model | Module |
//! |---|---|---|
//! | ADD+ BA v1 | Synchronous | [`add::v1`] |
//! | ADD+ BA v2 (VRF) | Synchronous | [`add::v2`] |
//! | ADD+ BA v3 (prepare round) | Synchronous | [`add::v3`] |
//! | Algorand Agreement | Synchronous | [`algorand`] |
//! | Async BA (Bracha-style) | Asynchronous | [`async_ba`] |
//! | PBFT | Partially synchronous | [`pbft`] |
//! | HotStuff+NS | Partially synchronous | [`hotstuff`] |
//! | LibraBFT | Partially synchronous | [`librabft`] |
//!
//! [`registry::ProtocolKind`] enumerates all eight and builds engine-ready
//! factories, which is what the CLI, benchmarks and experiments use.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod add;
pub mod algorand;
pub mod async_ba;
pub mod chain;
pub mod common;
pub mod hotstuff;
pub mod librabft;
pub mod pbft;
pub mod registry;
pub mod sync_hotstuff;
pub mod tendermint;

pub use common::ProtocolParams;
pub use registry::ProtocolKind;
