//! Footprint regression gate for the one-entry-per-broadcast event queue,
//! for shared certificates, for the trace's record layout and for its
//! retention and holding each decision once, on deterministic counters only
//! (wall time is evidence, never a gate).
//!
//! PBFT's all-to-all phases used to keep n² delivery events resident. The
//! *logical* queue depth and the event count are simulated quantities and
//! must not move; what is physically resident must stay linear in n, and the
//! fan-out must not start allocating per broadcast. HotStuff's certificates
//! carry a signer bitmap that spills to the heap above 128 signers; every
//! replica that stores or forwards one must share it, not copy it.
//!
//! One test function on purpose: the allocation counter is process-global,
//! so nothing else may run in this binary while a case is measured.

use bft_sim_bench::alloc_counter::{self, CountingAllocator};
use bft_sim_bench::baseline::run_case;
use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn footprints() {
    pbft_n64_keeps_its_depth_and_loses_the_n_squared_residency();
    chained_n256_shares_its_certificates(ProtocolKind::HotStuffNs);
    // Same chain core, same happy path: the same events, and the same
    // allocation-free decide walk (LibraBFT's own copy of it allocated a
    // `Vec` per node per decision and regrew its block map).
    chained_n256_shares_its_certificates(ProtocolKind::LibraBft);
    each_decision_is_held_once_in_the_trace();
}

fn pbft_n64_keeps_its_depth_and_loses_the_n_squared_residency() {
    let n = 64;
    let case = run_case(ProtocolKind::Pbft, n, 1, 10, TraceLevel::Decisions);
    // Simulated quantities: exactly what per-recipient scheduling gave.
    assert_eq!(case.events_processed, 80_332);
    assert_eq!(case.peak_queue_depth, 5_119);
    // Resident entries: broadcasts in flight plus timers and stale keys of
    // cancelled ones — 5 311 when every recipient was an entry.
    assert!(
        case.peak_resident_entries <= 16 * n,
        "{} resident entries, an n² term is back",
        case.peak_resident_entries
    );
    // One payload allocation per broadcast plus a little run-wide
    // state (1.080 before the change). Release builds only: debug builds
    // also allocate for the scheduler's reserved-seq contract check.
    if !cfg!(debug_assertions) {
        let per_broadcast = case.allocs_per_broadcast.expect("allocator is counting");
        assert!(
            per_broadcast <= 1.1,
            "{per_broadcast} allocations per broadcast"
        );
    }
}

fn chained_n256_shares_its_certificates(kind: ProtocolKind) {
    // Kept at `Events`, so the names and detail tables are in use.
    let case = run_case(kind, 256, 1, 3, TraceLevel::Events);
    assert_eq!(case.events_processed, 2_817);
    assert_eq!(case.peak_queue_depth, 597);
    // A trace event is a 24-byte record plus its share of the name, value
    // and detail tables (72 bytes when every event was the widest variant).
    let per_event = case.trace_bytes as f64 / case.trace_events as f64;
    assert!(
        per_event <= 32.0,
        "{kind}: {per_event} trace bytes per event"
    );
    // A certificate's bitmap is allocated where it is formed and widened or
    // un-shared a few times, never once per receiving replica (439.7 when
    // each clone copied it). Release builds only, as above.
    if !cfg!(debug_assertions) {
        let per_broadcast = case.allocs_per_broadcast.expect("allocator is counting");
        assert!(
            per_broadcast <= 16.0,
            "{kind}: {per_broadcast} allocations per broadcast"
        );
    }
}

/// A run that asks for nothing more keeps one record per decision: no view,
/// no protocol report, no message. That record is the decision's only copy
/// while the run goes: the collector keeps a count per node and an agreed
/// value per slot, and `RunResult::decided` is regrouped from the trace after
/// the replicas and the queue are freed. A second per-node decision log kept
/// during the run (16 bytes per replica per decision) shows in the peak of
/// live heap bytes; release builds only, like the allocation counts above.
fn each_decision_is_held_once_in_the_trace() {
    let (kind, n, decisions) = (ProtocolKind::HotStuffNs, 256, 100);
    let cfg = kind
        .configure(RunConfig::new(n).with_seed(1))
        .with_target_decisions(decisions);
    let factory = kind.factory(&cfg, 7);
    let before = alloc_counter::reset_peak_live_bytes();
    let result = SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory)
        .build()
        .expect("valid configuration")
        .run();
    let peak = alloc_counter::peak_live_bytes() - before;
    let decided: usize = result.decided.iter().map(<[_]>::len).sum();
    assert!(decided >= decisions as usize * n);
    assert_eq!(result.trace.len(), decided);
    if !cfg!(debug_assertions) {
        // 96.4 while each replica also kept its own decision log, 80.2
        // since; the bound sits halfway.
        let per_decision = peak as f64 / decided as f64;
        assert!(
            per_decision <= 88.3,
            "{kind}: {per_decision} peak live bytes per replica per decision"
        );
    }
}
