//! The persistent perf baseline behind `bft-sim bench-baseline`.
//!
//! Runs broadcast-heavy seeded workloads — PBFT and HotStuff+NS at
//! n ∈ {16, 64, 256, 1024} — and reports, per case, the counters a seed
//! determines: events processed, peak event-queue depth, resident scheduler
//! entries, broadcasts, the trace's event count and stored bytes, and
//! allocations per broadcast, plus one bandwidth-contention comparison. The
//! result is written to `BENCH_baseline.json` so perf changes show up as
//! reviewable diffs; CI regenerates it and fails when a counter moves.
//!
//! Nothing here reads a clock. Wall time, events per second, thread scaling
//! and observability overhead are measured by `benchmark/` (see
//! `BENCHMARK.json`), which repeats and alternates its runs; a single sample
//! taken here was noise by its own account.

use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::json::Json;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::obs::ObsConfig;
use bft_sim_core::time::SimDuration;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;

use crate::alloc_counter;

/// The fixed workload matrix: broadcast-heavy protocols at the paper's
/// small sizes plus the large-n scaling points. The third element caps the
/// per-case decision target: a decision at n = 1024 dispatches roughly a
/// thousand times the events of one at n = 16, so the caps keep the full
/// matrix runnable in CI while still exercising both protocols end to end
/// at n = 1024.
pub(crate) fn cases() -> Vec<(ProtocolKind, usize, u64)> {
    let mut out = Vec::new();
    for kind in [ProtocolKind::Pbft, ProtocolKind::HotStuffNs] {
        for (n, cap) in [(16usize, u64::MAX), (64, u64::MAX), (256, 3), (1024, 2)] {
            out.push((kind, n, cap));
        }
    }
    out
}

/// One case's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Protocol short name.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// RNG seed the case ran with.
    pub(crate) seed: u64,
    /// Decisions reached (the workload target).
    pub(crate) decisions: u64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Peak event-queue depth during the run (live events only).
    pub peak_queue_depth: usize,
    /// Peak *resident* scheduler entries — a fan-out entry counting once,
    /// plus any stale keys of cancelled events still queued.
    pub peak_resident_entries: usize,
    /// Stale keys of cancelled events the scheduler popped and discarded
    /// internally.
    pub(crate) tombstones_popped: u64,
    /// Broadcast actions executed — each is exactly one payload allocation
    /// on the zero-clone hot path.
    pub(crate) broadcasts: u64,
    /// Events the run's trace holds.
    pub trace_events: usize,
    /// Bytes the run's trace holds ([`Trace::heap_bytes`], from lengths, so
    /// deterministic).
    ///
    /// [`Trace::heap_bytes`]: bft_sim_core::trace::Trace::heap_bytes
    pub trace_bytes: usize,
    /// Global allocations during the run, when the counting allocator is
    /// installed (see [`crate::alloc_counter`]); `None` otherwise.
    pub(crate) allocations: Option<u64>,
    /// `allocations / broadcasts` — the regression tripwire for the
    /// zero-clone hot path. `None` without the counting allocator.
    pub allocs_per_broadcast: Option<f64>,
}

/// Runs one baseline case: `decisions` consensus decisions under the
/// paper's default network, λ = 1000 ms, delays N(250, 50), the trace kept
/// at `trace`.
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
    let counting = alloc_counter::is_counting();
    CaseResult {
        protocol: kind.name(),
        n,
        seed,
        decisions: result.decisions_completed(),
        events_processed: result.events_processed,
        peak_queue_depth: result.queue_high_water,
        peak_resident_entries: result.scheduler.peak_resident,
        tombstones_popped: result.scheduler.tombstones_popped,
        broadcasts: result.broadcasts,
        trace_events: result.trace.len(),
        trace_bytes: result.trace.heap_bytes(),
        allocations: counting.then_some(allocs),
        allocs_per_broadcast: (counting && result.broadcasts > 0)
            .then(|| allocs as f64 / result.broadcasts as f64),
    }
}

/// Runs the full matrix with a fixed seed per case, at the default trace
/// level, as a sweep or benchmark run keeps it.
pub fn run_all(seed: u64, decisions: u64) -> Vec<CaseResult> {
    cases()
        .into_iter()
        .map(|(kind, n, cap)| run_case(kind, n, seed, decisions.min(cap), TraceLevel::Decisions))
        .collect()
}

/// Measured effect of link-level bandwidth contention — the
/// `bandwidth_contention` entry of `BENCH_baseline.json`. Two arms run the
/// identical seeded workload on a full mesh: **unlimited** (no per-link
/// capacity — reduces exactly to the delay-only baseline network, RNG
/// draw for RNG draw) and **contended** (every link capped at
/// `bandwidth_bytes_per_sec`, so serialization and FIFO queueing delays
/// stack on top of propagation). Everything here derives from simulated
/// quantities, so the entry is deterministic per seed — a change to it is
/// a behavior diff in the bandwidth model, not host noise.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthContention {
    /// Protocol short name.
    pub(crate) protocol: &'static str,
    /// System size.
    pub(crate) n: usize,
    /// RNG seed both arms ran with.
    pub(crate) seed: u64,
    /// Decisions reached per arm (the workload target).
    pub(crate) decisions: u64,
    /// Per-link capacity of the contended arm (bytes per second).
    pub(crate) bandwidth_bytes_per_sec: u64,
    /// Events processed by the unlimited arm.
    pub(crate) unlimited_events: u64,
    /// Count-weighted mean delivery latency of the unlimited arm (µs).
    pub(crate) unlimited_mean_delivery_micros: f64,
    /// Events processed by the contended arm.
    pub(crate) contended_events: u64,
    /// Count-weighted mean delivery latency of the contended arm (µs).
    pub(crate) contended_mean_delivery_micros: f64,
    /// Messages that waited for a busy link in the contended arm.
    pub(crate) contended_queue_waits: u64,
    /// Mean time those messages waited (µs).
    pub(crate) contended_mean_wait_micros: f64,
    /// `contended_mean_delivery / unlimited_mean_delivery` — how much the
    /// narrow links stretch end-to-end latency.
    pub(crate) latency_amplification: f64,
}

/// One arm of the bandwidth-contention workload. Returns
/// `(events, mean delivery µs, queue waits, mean wait µs)`.
fn bandwidth_arm(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    decisions: u64,
    bandwidth: Option<u64>,
) -> (u64, f64, u64, f64) {
    use bft_sim_net::topology::{BandwidthNetwork, LinkTopology};

    let cfg = kind
        .configure(
            RunConfig::new(n)
                .with_seed(seed)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(3600.0)),
        )
        .with_target_decisions(decisions);
    let factory = kind.factory(&cfg, 7);
    let topo = LinkTopology::full_mesh(n, Dist::normal(250.0, 50.0), bandwidth)
        .expect("full-mesh workload topology is valid");
    let sim = SimulationBuilder::new(cfg)
        .network(BandwidthNetwork::new(topo))
        .observability(ObsConfig::default())
        .protocols(factory)
        .build()
        .expect("bandwidth workload configuration is valid");
    let result = sim.run();
    assert!(result.is_clean(), "bandwidth workload violated safety");
    let obs = result
        .observability
        .expect("bandwidth workload runs instrumented");
    let (sum, count) = obs.delivery_latency.iter().fold((0u64, 0u64), |(s, c), h| {
        (s + h.sum_micros(), c + h.count())
    });
    (
        result.events_processed,
        sum as f64 / count.max(1) as f64,
        obs.link_queue_delay.count(),
        obs.link_queue_delay.mean_micros(),
    )
}

/// Runs both arms of the bandwidth-contention workload (see
/// [`BandwidthContention`]).
pub fn run_bandwidth_contention(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    decisions: u64,
    bandwidth_bytes_per_sec: u64,
) -> BandwidthContention {
    let (unlimited_events, unlimited_mean, _, _) = bandwidth_arm(kind, n, seed, decisions, None);
    let (contended_events, contended_mean, waits, mean_wait) =
        bandwidth_arm(kind, n, seed, decisions, Some(bandwidth_bytes_per_sec));
    BandwidthContention {
        protocol: kind.name(),
        n,
        seed,
        decisions,
        bandwidth_bytes_per_sec,
        unlimited_events,
        unlimited_mean_delivery_micros: unlimited_mean,
        contended_events,
        contended_mean_delivery_micros: contended_mean,
        contended_queue_waits: waits,
        contended_mean_wait_micros: mean_wait,
        latency_amplification: contended_mean / unlimited_mean.max(1e-9),
    }
}

fn bandwidth_contention_json(b: &BandwidthContention) -> Json {
    Json::obj([
        ("protocol", Json::from(b.protocol)),
        ("n", Json::from(b.n)),
        ("seed", Json::from(b.seed)),
        ("decisions", Json::from(b.decisions)),
        (
            "bandwidth_bytes_per_sec",
            Json::from(b.bandwidth_bytes_per_sec),
        ),
        ("unlimited_events", Json::from(b.unlimited_events)),
        (
            "unlimited_mean_delivery_micros",
            Json::from(round3(b.unlimited_mean_delivery_micros)),
        ),
        ("contended_events", Json::from(b.contended_events)),
        (
            "contended_mean_delivery_micros",
            Json::from(round3(b.contended_mean_delivery_micros)),
        ),
        ("contended_queue_waits", Json::from(b.contended_queue_waits)),
        (
            "contended_mean_wait_micros",
            Json::from(round3(b.contended_mean_wait_micros)),
        ),
        (
            "latency_amplification",
            Json::from(round3(b.latency_amplification)),
        ),
    ])
}

/// Serialises the case results and the bandwidth-contention comparison as
/// the `BENCH_baseline.json` document. Every value is a simulated quantity
/// or an allocation count, so two runs of one build write the same bytes.
pub fn to_json(results: &[CaseResult], bandwidth: &BandwidthContention) -> Json {
    let cases = results
        .iter()
        .map(|r| {
            let mut pairs = vec![
                ("protocol".to_string(), Json::from(r.protocol)),
                ("n".to_string(), Json::from(r.n)),
                ("seed".to_string(), Json::from(r.seed)),
                ("decisions".to_string(), Json::from(r.decisions)),
                (
                    "events_processed".to_string(),
                    Json::from(r.events_processed),
                ),
                (
                    "peak_queue_depth".to_string(),
                    Json::from(r.peak_queue_depth),
                ),
                (
                    "peak_resident_entries".to_string(),
                    Json::from(r.peak_resident_entries),
                ),
                (
                    "tombstones_popped".to_string(),
                    Json::from(r.tombstones_popped),
                ),
                ("broadcasts".to_string(), Json::from(r.broadcasts)),
                ("trace_events".to_string(), Json::from(r.trace_events)),
                ("trace_bytes".to_string(), Json::from(r.trace_bytes)),
            ];
            if let Some(a) = r.allocations {
                pairs.push(("allocations".to_string(), Json::from(a)));
            }
            if let Some(a) = r.allocs_per_broadcast {
                pairs.push(("allocs_per_broadcast".to_string(), Json::from(round3(a))));
            }
            Json::Obj(pairs)
        })
        .collect();
    Json::obj([
        ("generated_by", Json::from("bft-sim bench-baseline")),
        (
            "workload",
            Json::from("lambda=1000ms, delays N(250,50), 10 decisions"),
        ),
        (
            "alloc_note",
            Json::from(
                "allocation counts come from a process-global counting \
                 allocator; the baseline cases run serially so per-case \
                 deltas are attributable.",
            ),
        ),
        ("cases", Json::Arr(cases)),
        ("bandwidth_contention", bandwidth_contention_json(bandwidth)),
    ])
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
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
    }

    #[test]
    fn bandwidth_contention_shifts_latency_deterministically() {
        let b = run_bandwidth_contention(ProtocolKind::Pbft, 7, 42, 2, 2_000);
        assert_eq!(b.protocol, "pbft");
        assert!(
            b.contended_queue_waits > 0,
            "2 kB/s links must queue a PBFT broadcast: {b:?}"
        );
        assert!(
            b.latency_amplification > 1.0,
            "contention must stretch delivery latency: {b:?}"
        );
        // Deterministic: the entry is simulated work, not wall clock.
        let again = run_bandwidth_contention(ProtocolKind::Pbft, 7, 42, 2, 2_000);
        assert_eq!(b, again);
        let json = to_json(&[], &b);
        let entry = json
            .get("bandwidth_contention")
            .expect("bandwidth_contention entry");
        for key in [
            "protocol",
            "n",
            "seed",
            "decisions",
            "bandwidth_bytes_per_sec",
            "unlimited_events",
            "unlimited_mean_delivery_micros",
            "contended_events",
            "contended_mean_delivery_micros",
            "contended_queue_waits",
            "contended_mean_wait_micros",
            "latency_amplification",
        ] {
            assert!(entry.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn baseline_json_has_the_expected_shape() {
        let results = vec![run_case(
            ProtocolKind::Pbft,
            16,
            1,
            1,
            TraceLevel::Decisions,
        )];
        let bandwidth = run_bandwidth_contention(ProtocolKind::Pbft, 7, 42, 2, 2_000);
        let json = to_json(&results, &bandwidth);
        let Json::Obj(pairs) = &json else {
            panic!("the baseline document is an object");
        };
        // Exactly these keys: no wall-clock note, sweep or overhead entry.
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "generated_by",
                "workload",
                "alloc_note",
                "cases",
                "bandwidth_contention"
            ]
        );
        let cases = json.get("cases").and_then(Json::as_arr).unwrap();
        assert_eq!(cases.len(), 1);
        let Json::Obj(case) = &cases[0] else {
            panic!("a case is an object");
        };
        // The allocation fields follow when the counting allocator is
        // installed; nothing host-dependent is among the rest.
        let keys: Vec<&str> = case.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys[..11],
            [
                "protocol",
                "n",
                "seed",
                "decisions",
                "events_processed",
                "peak_queue_depth",
                "peak_resident_entries",
                "tombstones_popped",
                "broadcasts",
                "trace_events",
                "trace_bytes",
            ]
        );
        assert!(keys[11..]
            .iter()
            .all(|k| ["allocations", "allocs_per_broadcast"].contains(k)));
        // Parses back as valid JSON.
        assert!(Json::parse(&json.dump_pretty()).is_ok());
    }
}
