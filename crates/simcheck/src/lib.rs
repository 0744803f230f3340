//! # bft-sim-simcheck
//!
//! A deterministic schedule-exploration fuzzer for the BFT simulator, with
//! first-class correctness oracles and failing-case shrinking:
//!
//! - `scenario` — seeded scenario generation ([`ScenarioSpec::generate`])
//!   and oracle-checked execution ([`ScenarioSpec::run`]) in generate /
//!   scripted modes, plus the validator's schedule-replay mode;
//! - `fuzz` — the sweep driver ([`fuzz_many`]): one scenario per seed,
//!   every violation shrunk to a reproducer;
//! - `fingerprint` — a run's coarse behavior hash ([`run_fingerprint`]),
//!   which the golden corpus pins;
//! - `shrink` — minimisation: decision target, partition and net block,
//!   ddmin over the adversary and fault action lists, then node count;
//! - `repro` — the `bft-sim-repro-v1` JSON format written by
//!   `bft-sim fuzz` and replayed by `bft-sim repro`;
//! - `testbug` (feature `testbug`) — an intentionally buggy adversary that
//!   forges a PBFT commit quorum, proving the oracles catch real safety
//!   violations.
//!
//! Everything is deterministic by construction: a scenario seed pins the
//! spec, the spec pins the run, and the run pins the violations and the
//! shrunk repro — the property the whole subsystem exists to exploit.

pub(crate) mod fingerprint;
pub(crate) mod fuzz;
pub(crate) mod repro;
pub(crate) mod scenario;
pub(crate) mod shrink;
#[cfg(feature = "testbug")]
pub(crate) mod testbug;

pub use fingerprint::run_fingerprint;
pub use fuzz::{fuzz_many, run_unit, FuzzOptions, FuzzReport, UnitRun};
pub use repro::Repro;
pub use scenario::{
    check_node_count, AttackSpec, CheckedRun, ChurnSpec, DelaySpec, NetSpec, PartitionSpec,
    RunMode, ScenarioSpec, Script, TopologyKind,
};
