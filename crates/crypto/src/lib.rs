//! # bft-sim-crypto
//!
//! Simulated cryptographic primitives for the BFT simulator: deterministic
//! hashing, signatures, verifiable random functions and quorum certificates.
//!
//! These primitives model the *information content* of cryptography — who
//! signed what, which VRF value a node drew — without its computational cost,
//! matching the paper's simulator, which does not model computation time
//! (§III-A3). Protocol implementations read naturally (sign / verify /
//! aggregate), attacks can observe and forge exactly where a real adversary
//! with the corresponding corruptions could, and everything stays
//! deterministic under the run seed.
//!
//! ```
//! use bft_sim_core::ids::NodeId;
//! use bft_sim_crypto::{hash::Digest, signature::sign, quorum::VoteTracker};
//!
//! let block = Digest::of_bytes(b"genesis");
//! let mut votes = VoteTracker::new(3);
//! let qc = (0..3).find_map(|i| votes.add(0, block, sign(NodeId::new(i), block)));
//! assert!(qc.is_some());
//! ```

pub mod hash;
pub mod quorum;
pub mod signature;
pub mod vrf;

pub use hash::Digest;
pub use signature::sign;
