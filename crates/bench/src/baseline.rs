//! One seeded broadcast-heavy workload and the counters a seed determines.
//!
//! [`run_case`] runs a protocol under the paper's default network and
//! reports events processed, peak event-queue depth, resident scheduler
//! entries, broadcasts, the trace's event count and stored bytes, and
//! allocations per broadcast. `crates/bench/tests/footprint.rs` pins them
//! for PBFT and HotStuff+NS at n ∈ {16, 64, 256, 1024}: a counter that
//! moves fails the test, so a perf change shows up as a reviewable edit of
//! its table.
//!
//! Nothing here reads a clock. Wall time, events per second, thread scaling
//! and observability overhead are measured by `benchmark/` (see
//! `BENCHMARK.json`), which repeats and alternates its runs; a single sample
//! taken here was noise by its own account.

use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::time::SimDuration;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;

use crate::alloc_counter;

/// One case's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Protocol short name.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// Decisions reached (the workload target).
    pub decisions: u64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Peak event-queue depth during the run (live events only).
    pub peak_queue_depth: usize,
    /// Peak *resident* scheduler entries — a fan-out entry counting once,
    /// plus any stale keys of cancelled events still queued.
    pub peak_resident_entries: usize,
    /// Stale keys of cancelled events the scheduler popped and discarded
    /// internally.
    pub tombstones_popped: u64,
    /// Broadcast actions executed — each is exactly one payload allocation
    /// on the zero-clone hot path.
    pub broadcasts: u64,
    /// Events the run's trace holds.
    pub trace_events: usize,
    /// Bytes the run's trace holds ([`Trace::heap_bytes`], from lengths, so
    /// deterministic).
    ///
    /// [`Trace::heap_bytes`]: bft_sim_core::trace::Trace::heap_bytes
    pub trace_bytes: usize,
    /// Global allocations during the run per broadcast — the regression
    /// tripwire for the zero-clone hot path. `None` without the counting
    /// allocator (see [`crate::alloc_counter`]).
    pub allocs_per_broadcast: Option<f64>,
}

/// Runs one case: `decisions` consensus decisions under the paper's default
/// network, λ = 1000 ms, delays N(250, 50), the trace kept at `trace`.
pub fn run_case(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    decisions: u64,
    trace: TraceLevel,
) -> CaseResult {
    let cfg = kind
        .configure(
            RunConfig::new(n)
                .with_seed(seed)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(3600.0))
                .with_trace(trace),
        )
        .with_target_decisions(decisions);
    let factory = kind.factory(&cfg, 7);
    let sim = SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory)
        .build()
        .expect("baseline configuration is valid");
    let allocs_before = alloc_counter::allocations();
    let result = sim.run();
    let allocs = alloc_counter::allocations() - allocs_before;
    assert!(result.is_clean(), "baseline run violated safety");
    CaseResult {
        protocol: kind.name(),
        n,
        decisions: result.decisions_completed(),
        events_processed: result.events_processed,
        peak_queue_depth: result.queue_high_water,
        peak_resident_entries: result.scheduler.peak_resident,
        tombstones_popped: result.scheduler.tombstones_popped,
        broadcasts: result.broadcasts,
        trace_events: result.trace.len(),
        trace_bytes: result.trace.heap_bytes(),
        allocs_per_broadcast: (alloc_counter::is_counting() && result.broadcasts > 0)
            .then(|| allocs as f64 / result.broadcasts as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_case_is_deterministic_in_simulation() {
        let a = run_case(ProtocolKind::Pbft, 16, 42, 3, TraceLevel::Decisions);
        let b = run_case(ProtocolKind::Pbft, 16, 42, 3, TraceLevel::Decisions);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
        assert_eq!(a.broadcasts, b.broadcasts);
        assert!(a.decisions >= 3);
        assert!(a.broadcasts > 0);
        // A unit test installs no counting allocator.
        assert_eq!(a.allocs_per_broadcast, None);
    }
}
