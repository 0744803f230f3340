//! The counter gate: every deterministic counter of the perf workloads,
//! pinned exactly, and the footprint bounds of the one-entry-per-broadcast
//! event queue, of shared certificates, of the trace's record layout and
//! retention, of holding each decision once (in an unchecked and in a
//! checked run), and of a checked run that records no delivery schedule
//! (wall time is evidence, never a gate).
//!
//! [`CASES`] pins, exactly, what `baseline::run_case` counts for PBFT and
//! HotStuff+NS at n = 16 / 64 / 256 / 1024: a change that moves one is a
//! reviewable edit of that table. PBFT's all-to-all phases used to keep n²
//! delivery events resident; the *logical* queue depth and the event count
//! are simulated quantities, while what is physically resident must stay
//! linear in n and the fan-out must not start allocating per broadcast.
//! HotStuff's certificates carry a signer bitmap that spills to the heap
//! above 128 signers; every replica that stores or forwards one must share
//! it, not copy it.
//!
//! One test function on purpose: the allocation counter is process-global,
//! so nothing else may run in this binary while a case is measured.

use bft_sim_bench::alloc_counter::{self, CountingAllocator};
use bft_sim_bench::baseline::{run_case, CaseResult};
use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind::{self, HotStuffNs, LibraBft, Pbft, Tendermint};
use bft_sim_simcheck::{ChurnSpec, DelaySpec, NetSpec, RunMode, ScenarioSpec, TopologyKind};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn footprints() {
    for case in &CASES {
        // PBFT n = 1024 dispatches 3.9 M events, too many for a debug build.
        let events = case.counters[1];
        if !(cfg!(debug_assertions) && events > 1_000_000) {
            case.check();
        }
    }
    chained_n256_shares_its_certificates(HotStuffNs);
    // Same chain core, same happy path: the same events, and the same
    // allocation-free decide walk (LibraBFT's own copy of it allocated a
    // `Vec` per node per decision and regrew its block map).
    chained_n256_shares_its_certificates(LibraBft);
    each_decision_is_held_once_in_the_trace();
    a_checked_run_holds_each_decision_once();
    a_checked_run_records_no_schedule();
}

/// What [`Case::counters`] holds, in order.
const FIELDS: [&str; 8] = [
    "decisions",
    "events_processed",
    "peak_queue_depth",
    "peak_resident_entries",
    "tombstones_popped",
    "broadcasts",
    "trace_events",
    "trace_bytes",
];

/// One workload: `run_case` at seed 1 and the default trace level, as a
/// sweep or benchmark run keeps it, with a decision target that keeps the
/// matrix quick (a decision at n = 1024 dispatches roughly a thousand times
/// the events of one at n = 16).
struct Case {
    kind: ProtocolKind,
    n: usize,
    /// [`FIELDS`], exactly; the first, decisions reached, is the target.
    counters: [u64; 8],
    /// Most allocations per broadcast, checked in release builds only:
    /// debug builds also allocate for the scheduler's reserved-seq contract
    /// check.
    max_allocs_per_broadcast: Option<f64>,
}

const CASES: [Case; 8] = [
    case(Pbft, 16, [10, 4_905, 314, 98, 432, 332, 160, 3_920], None),
    // 5 311 resident entries when every recipient was an entry. One payload
    // allocation per broadcast plus a little run-wide state (1.080 before
    // the fan-out entry).
    case(
        Pbft,
        64,
        [10, 80_332, 5_119, 382, 1_728, 1_292, 640, 15_440],
        Some(1.1),
    ),
    // 83 441 resident entries when every recipient was an entry; 1.02 × the
    // 2.215 allocations per broadcast measured when this bound was set.
    case(
        Pbft,
        256,
        [3, 377_117, 83_441, 1_541, 1_536, 1_541, 768, 18_456],
        Some(2.259),
    ),
    case(
        Pbft,
        1_024,
        [2, 3_891_396, 1_362_315, 6_173, 3_072, 4_100, 2_048, 49_168],
        None,
    ),
    case(HotStuffNs, 16, [10, 376, 37, 190, 48, 13, 160, 3_920], None),
    case(
        HotStuffNs,
        64,
        [10, 1_579, 149, 763, 192, 13, 640, 15_440],
        None,
    ),
    // Above the 128-signer spill: 439.7 and 1 655.6 allocations per
    // broadcast at n = 256 and 1024 when each clone copied the bitmap.
    case(
        HotStuffNs,
        256,
        [3, 2_817, 597, 1_526, 512, 6, 768, 18_456],
        Some(16.0),
    ),
    case(
        HotStuffNs,
        1_024,
        [2, 9_296, 2_389, 5_070, 2_048, 5, 2_048, 49_168],
        Some(16.0),
    ),
];

const fn case(
    kind: ProtocolKind,
    n: usize,
    counters: [u64; 8],
    max_allocs_per_broadcast: Option<f64>,
) -> Case {
    Case {
        kind,
        n,
        counters,
        max_allocs_per_broadcast,
    }
}

impl Case {
    fn check(&self) {
        let (kind, n) = (self.kind, self.n);
        let run = run_case(kind, n, 1, self.counters[0], TraceLevel::Decisions);
        // Resident entries: broadcasts in flight plus timers and stale keys
        // of cancelled ones.
        assert!(
            run.peak_resident_entries <= 16 * n,
            "{kind} n={n}: {} resident entries, an n² term is back",
            run.peak_resident_entries
        );
        if let Some(bound) = self.max_allocs_per_broadcast {
            if !cfg!(debug_assertions) {
                let per_broadcast = run.allocs_per_broadcast.expect("allocator is counting");
                assert!(
                    per_broadcast <= bound,
                    "{kind} n={n}: {per_broadcast} allocations per broadcast"
                );
            }
        }
        for ((field, got), expected) in FIELDS.iter().zip(counters(&run)).zip(self.counters) {
            assert_eq!(got, expected, "{kind} n={n}: {field}");
        }
    }
}

/// `run`'s [`FIELDS`].
fn counters(run: &CaseResult) -> [u64; 8] {
    [
        run.decisions,
        run.events_processed,
        run.peak_queue_depth as u64,
        run.peak_resident_entries as u64,
        run.tombstones_popped,
        run.broadcasts,
        run.trace_events as u64,
        run.trace_bytes as u64,
    ]
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
    let (kind, n, decisions) = (HotStuffNs, 256, 100);
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

/// A checked run keeps the trace as its only decision log: the oracles read
/// the trace in place and no step observer is installed, so the run holds
/// each decision once, as an unchecked one does. A second log kept beside
/// the trace (an observer's copy of every decision, or the oracle input's
/// own) shows in the peak of live heap bytes; release builds only.
fn a_checked_run_holds_each_decision_once() {
    let spec = ScenarioSpec {
        n: 256,
        seed: 1,
        delay: DelaySpec::Normal {
            mean_micros: 250_000,
            std_micros: 50_000,
        },
        target_decisions: 100,
        ..ScenarioSpec::baseline(HotStuffNs)
    };
    let before = alloc_counter::reset_peak_live_bytes();
    let run = spec.run(RunMode::Generate).expect("scenario runs");
    let peak = alloc_counter::peak_live_bytes() - before;
    assert!(run.violations.is_empty(), "{:?}", run.violations);
    let decided: usize = run.result.decided.iter().map(<[_]>::len).sum();
    assert!(decided >= 100 * spec.n);
    if !cfg!(debug_assertions) {
        // 161.5 while the checker kept an observer's log, its snapshot and
        // the oracle input's own copy beside the trace, 80.2 since; the
        // bound sits halfway.
        let per_decision = peak as f64 / decided as f64;
        assert!(
            per_decision <= 120.9,
            "{per_decision} peak live bytes per replica per decision"
        );
    }
}

/// A checked run holds no delivery schedule: only
/// `ScenarioSpec::run_recorded` turns the recorder on, and only the shrinker
/// calls it. The case is the largest scenario of the benchmark's
/// `fuzz_net_sweep` (seed 1405 under its `ring_gradient` preset: PBFT at
/// n = 16, 90 018 events), where a 16-byte fate per honest transmission,
/// in a doubling `Vec`, was most of the run's live heap. Release builds
/// only, like the bounds above.
fn a_checked_run_records_no_schedule() {
    let protocols = [Pbft, HotStuffNs, LibraBft, Tendermint];
    let mut spec = ScenarioSpec::generate(1405, &protocols, 500, 48, false, FaultPreset::Calm);
    spec.net = Some(NetSpec {
        topology: TopologyKind::RingGradient,
        bandwidth: Some(200_000),
        topology_seed: 0,
        churn: Some(ChurnSpec {
            seed: 5,
            crashes: 2,
            min_down_ms: 500,
            max_down_ms: 4_000,
        }),
    });
    assert_eq!((spec.protocol, spec.n), (Pbft, 16));
    let before = alloc_counter::reset_peak_live_bytes();
    let run = spec.run(RunMode::Generate).expect("scenario runs");
    let peak = alloc_counter::peak_live_bytes() - before;
    assert_eq!(run.result.events_processed, 90_018);
    if !cfg!(debug_assertions) {
        // 19.84 while every checked run recorded its schedule (216 030
        // fates), 0.43 since; the bound sits halfway.
        let per_transmission = peak as f64 / run.result.honest_messages as f64;
        assert!(
            per_transmission <= 10.1,
            "{per_transmission} peak live bytes per honest transmission"
        );
    }
}
