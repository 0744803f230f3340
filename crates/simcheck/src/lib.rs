//! # bft-sim-simcheck
//!
//! A deterministic schedule-exploration fuzzer for the BFT simulator, with
//! first-class correctness oracles and failing-case shrinking:
//!
//! - `scenario` — seeded scenario generation ([`ScenarioSpec::generate`])
//!   and oracle-checked execution ([`ScenarioSpec::run`]) in generate /
//!   scripted / schedule-replay modes;
//! - `fuzz` — the sweep driver ([`fuzz_many`]): one scenario per seed,
//!   every violation shrunk to a reproducer;
//! - `corpus` — coverage-guided search ([`fuzz_coverage`]): behavior
//!   fingerprints ([`run_fingerprint`]) feed a seen-set and a corpus of
//!   novelty-producing scenarios, which the loop mutates in preference to
//!   fresh draws;
//! - `shrink` — minimisation: decision target, partition, ddmin over the
//!   adversary action list, node count, then delivery-schedule bisection;
//! - `repro` — the `bft-sim-repro-v1` JSON format written by
//!   `bft-sim fuzz` and replayed by `bft-sim repro`;
//! - `testbug` (feature `testbug`) — an intentionally buggy adversary that
//!   forges a PBFT commit quorum, proving the oracles catch real safety
//!   violations.
//!
//! Everything is deterministic by construction: a scenario seed pins the
//! spec, the spec pins the run, and the run pins the violations and the
//! shrunk repro — the property the whole subsystem exists to exploit.

pub(crate) mod corpus;
pub(crate) mod fuzz;
pub(crate) mod repro;
pub(crate) mod scenario;
pub(crate) mod shrink;
#[cfg(feature = "testbug")]
pub(crate) mod testbug;

pub use corpus::{fuzz_coverage, fuzz_coverage_in_dir, run_fingerprint};
pub use fuzz::{fuzz_many, run_unit, FuzzOptions, FuzzReport, UnitRun};
pub use repro::Repro;
pub use scenario::{
    check_node_count, CheckedRun, ChurnSpec, DelaySpec, NetSpec, PartitionSpec, RunMode,
    ScenarioSpec, TopologyKind,
};
