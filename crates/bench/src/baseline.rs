//! The persistent perf baseline behind `bft-sim bench-baseline`.
//!
//! Runs broadcast-heavy seeded workloads — PBFT and HotStuff+NS at
//! n ∈ {16, 64, 256, 1024} — and reports, per case: events/second, wall-clock
//! milliseconds, peak event-queue depth and allocations per broadcast. The
//! result is written to `BENCH_baseline.json` so perf changes show up as
//! reviewable diffs, and CI archives the file per commit.
//!
//! Simulated behaviour (event counts, queue depth, broadcasts) is
//! deterministic for a given seed; wall-clock figures vary with the host,
//! so treat those fields as indicative, not exact.

use std::time::Instant;

use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::json::Json;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::obs::ObsConfig;
use bft_sim_core::time::SimDuration;
use bft_sim_protocols::registry::ProtocolKind;

use crate::alloc_counter;

/// The fixed workload matrix: broadcast-heavy protocols at the paper's
/// small sizes plus the large-n scaling points. The third element caps the
/// per-case decision target: a decision at n = 1024 dispatches roughly a
/// thousand times the events of one at n = 16, so the caps keep the full
/// matrix runnable in CI while still exercising both protocols end to end
/// at n = 1024.
pub fn cases() -> Vec<(ProtocolKind, usize, u64)> {
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
    pub seed: u64,
    /// Decisions reached (the workload target).
    pub decisions: u64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Wall-clock time for the run (host-dependent).
    pub wall_ms: f64,
    /// Events per wall-clock second (host-dependent).
    pub events_per_sec: f64,
    /// Peak event-queue depth during the run (live events only).
    pub peak_queue_depth: usize,
    /// Peak *resident* scheduler entries — a fan-out entry counting once,
    /// plus any lazy tombstones still queued.
    pub peak_resident_entries: usize,
    /// Cancelled entries the scheduler popped and discarded internally (the
    /// cost of lazy deletion).
    pub tombstones_popped: u64,
    /// Broadcast actions executed — each is exactly one payload allocation
    /// on the zero-clone hot path.
    pub broadcasts: u64,
    /// Global allocations during the run, when the counting allocator is
    /// installed (see [`crate::alloc_counter`]); `None` otherwise.
    pub allocations: Option<u64>,
    /// `allocations / broadcasts` — the regression tripwire for the
    /// zero-clone hot path. `None` without the counting allocator.
    pub allocs_per_broadcast: Option<f64>,
}

/// Runs one baseline case: `decisions` consensus decisions under the
/// paper's default network, λ = 1000 ms, delays N(250, 50).
pub fn run_case(kind: ProtocolKind, n: usize, seed: u64, decisions: u64) -> CaseResult {
    let cfg = kind
        .configure(
            RunConfig::new(n)
                .with_seed(seed)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(3600.0)),
        )
        .with_target_decisions(decisions);
    let factory = kind.factory(&cfg, 7);
    let sim = SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory)
        .build()
        .expect("baseline configuration is valid");
    let allocs_before = alloc_counter::allocations();
    let start = Instant::now();
    let result = sim.run();
    let wall = start.elapsed().as_secs_f64();
    let allocs = alloc_counter::allocations() - allocs_before;
    assert!(result.is_clean(), "baseline run violated safety");
    let counting = alloc_counter::is_counting();
    CaseResult {
        protocol: kind.name(),
        n,
        seed,
        decisions: result.decisions_completed(),
        events_processed: result.events_processed,
        wall_ms: wall * 1e3,
        events_per_sec: result.events_processed as f64 / wall.max(1e-9),
        peak_queue_depth: result.queue_high_water,
        peak_resident_entries: result.scheduler.peak_resident,
        tombstones_popped: result.scheduler.tombstones_popped,
        broadcasts: result.broadcasts,
        allocations: counting.then_some(allocs),
        allocs_per_broadcast: (counting && result.broadcasts > 0)
            .then(|| allocs as f64 / result.broadcasts as f64),
    }
}

/// Runs the full matrix with a fixed seed per case.
pub fn run_all(seed: u64, decisions: u64) -> Vec<CaseResult> {
    cases()
        .into_iter()
        .map(|(kind, n, cap)| run_case(kind, n, seed, decisions.min(cap)))
        .collect()
}

/// Throughput of the `simcheck` fuzzer: scenarios and engine events per
/// wall-clock second across a fixed seed sweep. Tracks the overhead of the
/// oracle observer and schedule recording on top of raw simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzStat {
    /// Scenario seeds swept (`0..seeds`).
    pub seeds: u64,
    /// Worker threads the sweep used (resolved, never 0).
    pub threads: usize,
    /// Scenarios actually run.
    pub runs: u64,
    /// Engine events dispatched across the sweep (deterministic per seed
    /// set).
    pub events_processed: u64,
    /// Timers cancelled while pending across the sweep (deterministic per
    /// seed set).
    pub skipped_cancelled_timers: u64,
    /// Events to crashed/corrupted nodes skipped across the sweep
    /// (deterministic per seed set).
    pub skipped_excluded_nodes: u64,
    /// Wall-clock for the sweep (host-dependent).
    pub wall_ms: f64,
    /// Scenarios per wall-clock second (host-dependent).
    pub scenarios_per_sec: f64,
    /// Events per wall-clock second (host-dependent).
    pub events_per_sec: f64,
    /// Scenarios that panicked mid-run instead of completing. Serialised
    /// only when nonzero, so clean baselines keep their byte format.
    pub panicked: u64,
    /// The first panic message (lowest seed), when any run panicked.
    pub first_panic: Option<String>,
}

/// Sweeps fuzz seeds `0..seeds` over PBFT and HotStuff+NS at the default
/// budget, sharded over `threads` workers (0 = available parallelism), and
/// measures throughput. Panics if the
/// sweep finds an oracle violation: honest protocols fuzzed within their
/// fault model must stay correct, so a violation here is a real regression,
/// not a perf artifact. Scenarios that *panic* mid-run are surfaced in the
/// stat ([`FuzzStat::panicked`] / [`FuzzStat::first_panic`]) instead of
/// aborting the bench — a crash in one seed must not silently vanish from
/// (or take down) a long baseline aggregation.
pub fn run_fuzz_stat(seeds: u64, threads: usize) -> FuzzStat {
    use bft_sim_simcheck::{fuzz_many, FuzzOptions};
    let threads = bft_sim_core::sweep::resolve_threads(threads);
    let opts = FuzzOptions {
        protocols: vec![ProtocolKind::Pbft, ProtocolKind::HotStuffNs],
        threads,
        ..FuzzOptions::default()
    };
    let start = Instant::now();
    let report = fuzz_many(0..seeds, &opts).expect("fuzz sweep cannot need testbug");
    let wall = start.elapsed().as_secs_f64();
    assert!(
        report.outcomes.is_empty(),
        "fuzz sweep found violations in honest protocols: {:?}",
        report
            .outcomes
            .iter()
            .map(|o| (o.scenario_seed, &o.violations))
            .collect::<Vec<_>>()
    );
    FuzzStat {
        seeds,
        threads,
        runs: report.runs,
        events_processed: report.events_processed,
        skipped_cancelled_timers: report.skipped_cancelled_timers,
        skipped_excluded_nodes: report.skipped_excluded_nodes,
        wall_ms: wall * 1e3,
        scenarios_per_sec: report.runs as f64 / wall.max(1e-9),
        events_per_sec: report.events_processed as f64 / wall.max(1e-9),
        panicked: report.panicked,
        first_panic: report.failures.first().map(|f| f.message.clone()),
    }
}

/// A 1-thread-vs-N-threads comparison of the fuzz workload, for the
/// `thread_scaling` entry of `BENCH_baseline.json`. The simulated work is
/// identical in both runs (the sweep is deterministic at any thread count);
/// only wall-clock differs. `speedup` is meaningful only when the host
/// actually has multiple cores — `host_threads` records that context.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadScaling {
    /// Available parallelism on the measuring host.
    pub host_threads: usize,
    /// The serial reference measurement (1 thread).
    pub serial: FuzzStat,
    /// The parallel measurement (N threads).
    pub parallel: FuzzStat,
    /// `parallel.scenarios_per_sec / serial.scenarios_per_sec`.
    pub speedup: f64,
}

/// Measures the fuzz workload at 1 thread and at `threads` (0 = available
/// parallelism) over seeds `0..seeds`.
///
/// # Errors
///
/// On a host with fewer than two hardware threads nothing is measured and
/// the reason is returned instead: two runs sharing one core would record a
/// "speedup" that is only noise.
pub fn measure_thread_scaling(seeds: u64, threads: usize) -> Result<ThreadScaling, String> {
    let host_threads = bft_sim_core::sweep::available_threads();
    if host_threads < 2 {
        return Err(format!(
            "not measured: the host offers {host_threads} hardware thread, \
             so a 1-thread vs N-thread comparison would show noise, not scaling"
        ));
    }
    let serial = run_fuzz_stat(seeds, 1);
    let parallel = run_fuzz_stat(seeds, threads);
    let speedup = parallel.scenarios_per_sec / serial.scenarios_per_sec.max(1e-9);
    Ok(ThreadScaling {
        host_threads,
        serial,
        parallel,
        speedup,
    })
}

/// Measured cost of the `core::obs` instrumentation on the engine's hot
/// path, for the `obs_overhead` entry of `BENCH_baseline.json`.
///
/// Three arms run the same workload interleaved, best-of-`reps` each:
///
/// - **baseline** — observability not configured (the reference);
/// - **disabled** — observability not configured again. The hook sites
///   compile to a never-taken branch on a cold `Option`, so baseline and
///   disabled execute identical code: `disabled_overhead_percent` is an
///   A/A measurement whose magnitude bounds the disabled-path cost by the
///   host's noise floor — the "<2% events/s" guarantee;
/// - **enabled** — full instrumentation (per-node histograms, phase-flow
///   matrix, view timings, event ring), quantifying what `--obs` /
///   `bft-sim trace` actually pay.
///
/// Simulated work is asserted identical across all three arms: recording
/// must never perturb the run it observes.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOverhead {
    /// Protocol short name.
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// RNG seed every arm ran with.
    pub seed: u64,
    /// Decisions reached per run (the workload target).
    pub decisions: u64,
    /// Interleaved repetitions per arm (each arm reports its best rep).
    pub reps: usize,
    /// Events per run — identical in every arm and rep by determinism.
    pub events_processed: u64,
    /// Best events/second with observability not configured (reference).
    pub baseline_events_per_sec: f64,
    /// Best events/second of the second unconfigured arm (A/A probe).
    pub disabled_events_per_sec: f64,
    /// Best events/second with full instrumentation attached.
    pub enabled_events_per_sec: f64,
    /// `100 * (1 - disabled/baseline)` — the disabled-path cost, bounded
    /// by measurement noise (may be slightly negative on a quiet host).
    pub disabled_overhead_percent: f64,
    /// `100 * (1 - enabled/baseline)` — the cost of recording everything.
    pub enabled_overhead_percent: f64,
}

/// One timed run of the obs-overhead workload; returns events processed
/// and wall-clock seconds.
fn timed_obs_run(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    decisions: u64,
    obs: Option<ObsConfig>,
) -> (u64, f64) {
    let cfg = kind
        .configure(
            RunConfig::new(n)
                .with_seed(seed)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(3600.0)),
        )
        .with_target_decisions(decisions);
    let factory = kind.factory(&cfg, 7);
    let mut builder = SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(factory);
    if let Some(obs) = obs {
        builder = builder.observability(obs);
    }
    let sim = builder
        .build()
        .expect("obs-overhead configuration is valid");
    let start = Instant::now();
    let result = sim.run();
    let wall = start.elapsed().as_secs_f64();
    assert!(result.is_clean(), "obs-overhead run violated safety");
    (result.events_processed, wall)
}

/// Measures the observability overhead (see [`ObsOverhead`]): `reps`
/// interleaved repetitions of baseline / disabled / enabled arms, keeping
/// each arm's fastest rep so transient host noise cancels rather than
/// accumulates.
pub fn run_obs_overhead(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    decisions: u64,
    reps: usize,
) -> ObsOverhead {
    assert!(reps > 0, "need at least one repetition");
    let mut events = None;
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        for (arm, slot) in best.iter_mut().enumerate() {
            let obs =
                (arm == 2).then(|| ObsConfig::new(64).with_classifier(kind.phase_classifier()));
            let (ev, wall) = timed_obs_run(kind, n, seed, decisions, obs);
            assert_eq!(
                *events.get_or_insert(ev),
                ev,
                "observability must not perturb the simulated run"
            );
            *slot = slot.min(wall);
        }
    }
    let events = events.expect("reps > 0");
    let eps = best.map(|wall| events as f64 / wall.max(1e-9));
    let overhead = |arm: f64| 100.0 * (1.0 - arm / eps[0].max(1e-9));
    ObsOverhead {
        protocol: kind.name(),
        n,
        seed,
        decisions,
        reps,
        events_processed: events,
        baseline_events_per_sec: eps[0],
        disabled_events_per_sec: eps[1],
        enabled_events_per_sec: eps[2],
        disabled_overhead_percent: overhead(eps[1]),
        enabled_overhead_percent: overhead(eps[2]),
    }
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
    pub protocol: &'static str,
    /// System size.
    pub n: usize,
    /// RNG seed both arms ran with.
    pub seed: u64,
    /// Decisions reached per arm (the workload target).
    pub decisions: u64,
    /// Per-link capacity of the contended arm (bytes per second).
    pub bandwidth_bytes_per_sec: u64,
    /// Events processed by the unlimited arm.
    pub unlimited_events: u64,
    /// Count-weighted mean delivery latency of the unlimited arm (µs).
    pub unlimited_mean_delivery_micros: f64,
    /// Events processed by the contended arm.
    pub contended_events: u64,
    /// Count-weighted mean delivery latency of the contended arm (µs).
    pub contended_mean_delivery_micros: f64,
    /// Messages that waited for a busy link in the contended arm.
    pub contended_queue_waits: u64,
    /// Mean time those messages waited (µs).
    pub contended_mean_wait_micros: f64,
    /// `contended_mean_delivery / unlimited_mean_delivery` — how much the
    /// narrow links stretch end-to-end latency.
    pub latency_amplification: f64,
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
        .observability(ObsConfig::new(16))
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

fn obs_overhead_json(o: &ObsOverhead) -> Json {
    Json::obj([
        ("protocol", Json::from(o.protocol)),
        ("n", Json::from(o.n)),
        ("seed", Json::from(o.seed)),
        ("decisions", Json::from(o.decisions)),
        ("reps", Json::from(o.reps)),
        ("events_processed", Json::from(o.events_processed)),
        (
            "baseline_events_per_sec",
            Json::from(round3(o.baseline_events_per_sec)),
        ),
        (
            "disabled_events_per_sec",
            Json::from(round3(o.disabled_events_per_sec)),
        ),
        (
            "enabled_events_per_sec",
            Json::from(round3(o.enabled_events_per_sec)),
        ),
        (
            "disabled_overhead_percent",
            Json::from(round3(o.disabled_overhead_percent)),
        ),
        (
            "enabled_overhead_percent",
            Json::from(round3(o.enabled_overhead_percent)),
        ),
    ])
}

fn fuzz_stat_json(f: &FuzzStat) -> Json {
    let mut pairs = vec![
        ("seeds".to_string(), Json::from(f.seeds)),
        ("threads".to_string(), Json::from(f.threads)),
        ("runs".to_string(), Json::from(f.runs)),
        (
            "events_processed".to_string(),
            Json::from(f.events_processed),
        ),
        (
            "skipped_cancelled_timers".to_string(),
            Json::from(f.skipped_cancelled_timers),
        ),
        (
            "skipped_excluded_nodes".to_string(),
            Json::from(f.skipped_excluded_nodes),
        ),
        ("wall_ms".to_string(), Json::from(round3(f.wall_ms))),
        (
            "scenarios_per_sec".to_string(),
            Json::from(round3(f.scenarios_per_sec)),
        ),
        (
            "events_per_sec".to_string(),
            Json::from(round3(f.events_per_sec)),
        ),
    ];
    // Panicked units must surface in the report rather than silently
    // dropping out of the aggregates; clean sweeps omit the keys so
    // existing baselines keep their exact byte format.
    if f.panicked > 0 {
        pairs.push(("panicked".to_string(), Json::from(f.panicked)));
        if let Some(msg) = &f.first_panic {
            pairs.push(("first_panic".to_string(), Json::from(msg.as_str())));
        }
    }
    Json::Obj(pairs)
}

/// Serialises case results (and, when measured, the fuzz throughput stat,
/// the thread-scaling comparison, the observability overhead measurement
/// and the bandwidth-contention comparison) as the `BENCH_baseline.json`
/// document. `None` omits `"fuzz"` / `"thread_scaling"` / `"obs_overhead"`
/// / `"bandwidth_contention"`. A thread-scaling measurement that was refused
/// (see [`measure_thread_scaling`]) is written as `"thread_scaling": null`
/// with the reason beside it in `"thread_scaling_note"`.
pub fn to_json(
    results: &[CaseResult],
    fuzz: Option<&FuzzStat>,
    scaling: Option<Result<&ThreadScaling, &str>>,
    obs: Option<&ObsOverhead>,
    bandwidth: Option<&BandwidthContention>,
) -> Json {
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
                ("wall_ms".to_string(), Json::from(round3(r.wall_ms))),
                (
                    "events_per_sec".to_string(),
                    Json::from(round3(r.events_per_sec)),
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
    let mut pairs = vec![
        (
            "generated_by".to_string(),
            Json::from("bft-sim bench-baseline"),
        ),
        (
            "workload".to_string(),
            Json::from("lambda=1000ms, delays N(250,50), 10 decisions"),
        ),
        (
            "wall_time_note".to_string(),
            Json::from(
                "wall_ms, events_per_sec, scenarios_per_sec and the overhead \
                 percentages are single samples on whatever host ran this; \
                 they are superseded by the repeated, alternating \
                 measurements of benchmark/ (see BENCHMARK.json). The \
                 deterministic counters are the regression signal.",
            ),
        ),
        (
            "alloc_note".to_string(),
            Json::from(
                "allocation counts come from a process-global counting \
                 allocator; the baseline cases run serially so per-case \
                 deltas are attributable. Fuzz sweeps may be multi-threaded \
                 and report no allocation figures.",
            ),
        ),
        ("cases".to_string(), Json::Arr(cases)),
    ];
    if let Some(f) = fuzz {
        pairs.push(("fuzz".to_string(), fuzz_stat_json(f)));
    }
    match scaling {
        Some(Ok(s)) => pairs.push((
            "thread_scaling".to_string(),
            Json::obj([
                ("host_threads", Json::from(s.host_threads)),
                ("serial", fuzz_stat_json(&s.serial)),
                ("parallel", fuzz_stat_json(&s.parallel)),
                ("speedup", Json::from(round3(s.speedup))),
            ]),
        )),
        Some(Err(reason)) => {
            pairs.push(("thread_scaling".to_string(), Json::Null));
            pairs.push(("thread_scaling_note".to_string(), Json::from(reason)));
        }
        None => {}
    }
    if let Some(o) = obs {
        pairs.push(("obs_overhead".to_string(), obs_overhead_json(o)));
    }
    if let Some(b) = bandwidth {
        pairs.push((
            "bandwidth_contention".to_string(),
            bandwidth_contention_json(b),
        ));
    }
    Json::Obj(pairs)
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_case_is_deterministic_in_simulation() {
        let a = run_case(ProtocolKind::Pbft, 16, 42, 3);
        let b = run_case(ProtocolKind::Pbft, 16, 42, 3);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
        assert_eq!(a.broadcasts, b.broadcasts);
        assert!(a.decisions >= 3);
        assert!(a.broadcasts > 0);
    }

    #[test]
    fn fuzz_stat_measures_a_clean_sweep() {
        let stat = run_fuzz_stat(3, 1);
        assert_eq!(stat.runs, 3);
        assert_eq!(stat.threads, 1);
        assert!(stat.events_processed > 0);
        let a = run_fuzz_stat(3, 2);
        assert_eq!(
            a.events_processed, stat.events_processed,
            "simulated work must be deterministic at any thread count"
        );
        assert_eq!(a.skipped_cancelled_timers, stat.skipped_cancelled_timers);
        assert_eq!(a.skipped_excluded_nodes, stat.skipped_excluded_nodes);
    }

    #[test]
    fn thread_scaling_compares_identical_simulated_work() {
        match measure_thread_scaling(3, 2) {
            Ok(s) => {
                assert_eq!(s.serial.threads, 1);
                assert_eq!(s.parallel.threads, 2);
                assert_eq!(s.serial.events_processed, s.parallel.events_processed);
                assert!(s.speedup > 0.0);
                assert!(s.host_threads >= 2);
            }
            // A single-core host must not produce a number at all.
            Err(reason) => {
                assert!(bft_sim_core::sweep::available_threads() < 2);
                assert!(reason.starts_with("not measured"));
            }
        }
    }

    #[test]
    fn obs_overhead_arms_simulate_identical_work() {
        let o = run_obs_overhead(ProtocolKind::Pbft, 7, 42, 2, 2);
        assert_eq!(o.protocol, "pbft");
        assert_eq!(o.reps, 2);
        assert!(o.events_processed > 0, "the arms ran and agreed");
        assert!(o.baseline_events_per_sec > 0.0);
        assert!(o.disabled_events_per_sec > 0.0);
        assert!(o.enabled_events_per_sec > 0.0);
        let json = to_json(&[], None, None, Some(&o), None);
        let obs = json.get("obs_overhead").expect("obs_overhead entry");
        for key in [
            "protocol",
            "n",
            "seed",
            "decisions",
            "reps",
            "events_processed",
            "baseline_events_per_sec",
            "disabled_events_per_sec",
            "enabled_events_per_sec",
            "disabled_overhead_percent",
            "enabled_overhead_percent",
        ] {
            assert!(obs.get(key).is_some(), "missing {key}");
        }
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
        let json = to_json(&[], None, None, None, Some(&b));
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
        let results = vec![run_case(ProtocolKind::Pbft, 16, 1, 1)];
        let fuzz = FuzzStat {
            seeds: 2,
            threads: 1,
            runs: 2,
            events_processed: 1000,
            skipped_cancelled_timers: 7,
            skipped_excluded_nodes: 3,
            wall_ms: 1.0,
            scenarios_per_sec: 2000.0,
            events_per_sec: 1_000_000.0,
            panicked: 0,
            first_panic: None,
        };
        let scaling = ThreadScaling {
            host_threads: 4,
            serial: fuzz.clone(),
            parallel: FuzzStat {
                threads: 4,
                wall_ms: 0.5,
                scenarios_per_sec: 4000.0,
                ..fuzz.clone()
            },
            speedup: 2.0,
        };
        let json = to_json(&results, Some(&fuzz), Some(Ok(&scaling)), None, None);
        let fuzz_json = json.get("fuzz").expect("fuzz entry");
        assert_eq!(fuzz_json.get("runs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            fuzz_json
                .get("skipped_cancelled_timers")
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            fuzz_json
                .get("skipped_excluded_nodes")
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            json.get("thread_scaling")
                .and_then(|s| s.get("speedup"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(json.get("alloc_note").is_some());
        assert!(json.get("wall_time_note").is_some());
        // A refused measurement is an explicit null with its reason, never a
        // number and never a silently missing key.
        let refused = to_json(
            &results,
            None,
            Some(Err("not measured: 1 thread")),
            None,
            None,
        );
        assert_eq!(refused.get("thread_scaling"), Some(&Json::Null));
        assert_eq!(
            refused.get("thread_scaling_note").and_then(Json::as_str),
            Some("not measured: 1 thread")
        );
        // Clean sweeps omit the panic keys entirely; a sweep with panicked
        // units surfaces the count and the first message.
        assert!(fuzz_json.get("panicked").is_none());
        assert!(fuzz_json.get("first_panic").is_none());
        let crashed = FuzzStat {
            panicked: 2,
            first_panic: Some("index out of bounds".into()),
            ..fuzz.clone()
        };
        let crashed_json = fuzz_stat_json(&crashed);
        assert_eq!(crashed_json.get("panicked").and_then(Json::as_u64), Some(2));
        assert_eq!(
            crashed_json.get("first_panic").and_then(Json::as_str),
            Some("index out of bounds")
        );
        let bare = to_json(&results, None, None, None, None);
        assert!(bare.get("fuzz").is_none());
        assert!(bare.get("thread_scaling").is_none());
        assert!(bare.get("obs_overhead").is_none());
        assert!(bare.get("bandwidth_contention").is_none());
        let cases = json.get("cases").and_then(Json::as_arr).unwrap();
        assert_eq!(cases.len(), 1);
        for key in [
            "protocol",
            "n",
            "seed",
            "decisions",
            "events_processed",
            "wall_ms",
            "events_per_sec",
            "peak_queue_depth",
            "peak_resident_entries",
            "tombstones_popped",
            "broadcasts",
        ] {
            assert!(cases[0].get(key).is_some(), "missing {key}");
        }
        // Parses back as valid JSON.
        assert!(Json::parse(&json.dump_pretty()).is_ok());
    }
}
