//! # bft-sim-bench
//!
//! Deterministic performance counters: the perf baseline behind
//! `bft-sim bench-baseline` and `BENCH_baseline.json` ([`baseline`]), and the
//! allocation counter behind its allocations per broadcast ([`alloc_counter`]).

pub mod alloc_counter;
pub mod baseline;
