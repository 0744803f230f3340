//! # bft-sim-protocols
//!
//! The eight representative BFT protocols evaluated in the paper (Table I),
//! implemented against the `bft-sim-core` consensus-module interface:
//!
//! | Protocol | Network model | Module |
//! |---|---|---|
//! | ADD+ BA v1 | Synchronous | `add::v1` |
//! | ADD+ BA v2 (VRF) | Synchronous | `add::v2` |
//! | ADD+ BA v3 (prepare round) | Synchronous | `add::v3` |
//! | Algorand Agreement | Synchronous | `algorand` |
//! | Async BA (Bracha-style) | Asynchronous | `async_ba` |
//! | PBFT | Partially synchronous | [`pbft`] |
//! | HotStuff+NS | Partially synchronous | `hotstuff` |
//! | LibraBFT | Partially synchronous | `librabft` |
//!
//! Tendermint (`tendermint`, partially synchronous) is the one extension.
//! [`registry::ProtocolKind`] enumerates all nine and builds engine-ready
//! factories, which is what the CLI, benchmarks and experiments use.

pub mod add;
pub(crate) mod algorand;
pub(crate) mod async_ba;
pub(crate) mod chain;
pub mod common;
pub(crate) mod hotstuff;
pub(crate) mod librabft;
pub mod pbft;
pub mod registry;
pub(crate) mod tendermint;

pub use common::ProtocolParams;
