//! Shared by the `bench` and `tracer` binaries: what the workloads are
//! ([`workloads`]) and how results are summarised and reported ([`harness`]).
//! Neither module touches the engine's traits.

pub mod harness;
pub mod workloads;
