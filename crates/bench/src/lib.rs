//! # bft-sim-bench
//!
//! Deterministic performance counters: one seeded workload run and what it
//! counts ([`baseline`]), and the allocation counter behind its allocations
//! per broadcast ([`alloc_counter`]). `tests/footprint.rs` pins every counter
//! for PBFT and HotStuff+NS at n = 16 to 1024; it is the only counter gate.

pub mod alloc_counter;
pub mod baseline;
