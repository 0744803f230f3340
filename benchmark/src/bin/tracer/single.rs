//! The traced single-simulation run: the same simulation `bench` runs through
//! `experiments::Scenario::run`, rebuilt through `SimulationBuilder` with
//! every pluggable slot wrapped in a timing shim; plus the scheduler replay
//! and the observability on/off pairs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bft_sim_bench::alloc_counter::allocations;
use bft_sim_benchmark::workloads::SingleRun;
use bft_sim_core::adversary::NullAdversary;
use bft_sim_core::config::RunConfig;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::event::EventKind;
use bft_sim_core::metrics::RunResult;
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::obs::{ObsConfig, DEFAULT_LAST_K};
use bft_sim_core::oracle::{OracleInput, OracleObserver, OracleSuite};
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::time::{SimDuration, SimTime};
use bft_simulator::experiments::Scenario;

use crate::shims::{TimedAdversary, TimedFactory, TimedNetwork, TimedObserver, TraceState, POP};

/// The scenario `bench` runs for this workload; the traced run reads every
/// parameter from it so the two cannot drift apart.
pub fn scenario(run: SingleRun) -> Scenario {
    Scenario::new(run.protocol, run.n).with_decisions(run.decisions)
}

fn builder(run: SingleRun, s: &Scenario) -> (SimulationBuilder, RunConfig) {
    let cfg = s
        .kind
        .configure(
            RunConfig::new(s.n)
                .with_seed(run.seed)
                .with_lambda_ms(s.lambda_ms)
                .with_time_cap(SimDuration::from_secs(s.time_cap_s)),
        )
        .with_target_decisions(s.target_decisions());
    (
        SimulationBuilder::new(cfg.clone()).scheduler(s.scheduler),
        cfg,
    )
}

/// A finished traced run.
pub struct Traced {
    pub result: RunResult,
    /// Host seconds from before the configuration is built until the result
    /// is in hand — the same region `bench` times.
    pub wall_s: f64,
    /// Host span of `Simulation::run` alone, ns since `state.epoch`.
    pub run_span: (u64, u64),
    pub allocs: u64,
    pub state: TraceState,
    /// `OracleSuite::standard().check` on the result, timed outside the run.
    pub oracle_check_s: f64,
    pub oracle_violations: usize,
}

pub fn traced(run: SingleRun) -> Traced {
    let s = scenario(run);
    // One log entry per schedule and per pop; reserved up front so the log
    // never reallocates inside the timed run.
    let state = TraceState::shared(4 << 20);
    let observer = OracleObserver::new();
    let probe = observer.clone();
    let allocs_before = allocations();
    let start = Instant::now();
    let (builder, cfg) = builder(run, &s);
    let sim = builder
        .network(TimedNetwork {
            inner: SampledNetwork::new(s.delay),
            state: Arc::clone(&state),
        })
        .adversary(TimedAdversary {
            inner: NullAdversary::new(),
            state: Arc::clone(&state),
        })
        .observer(TimedObserver {
            inner: observer,
            state: Arc::clone(&state),
        })
        .protocols(TimedFactory {
            inner: s.kind.factory(&cfg, s.genesis_seed),
            state: Arc::clone(&state),
        })
        .build()
        .expect("scenario configuration is valid");
    let epoch = state.lock().expect("trace state").epoch;
    let run_start = epoch.elapsed().as_nanos() as u64;
    let result = sim.run();
    let run_end = epoch.elapsed().as_nanos() as u64;
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = allocations() - allocs_before;

    let check = Instant::now();
    let violations = OracleSuite::standard().check(&OracleInput::from_result(
        &result,
        Some(probe.snapshot()),
        s.kind.expectations(&cfg, true),
    ));
    let oracle_check_s = check.elapsed().as_secs_f64();

    let state = Arc::try_unwrap(state)
        .expect("the simulation dropped its shims")
        .into_inner()
        .expect("trace state");
    Traced {
        result,
        wall_s,
        run_span: (run_start, run_end),
        allocs,
        state,
        oracle_check_s,
        oracle_violations: violations.len(),
    }
}

/// The outcome of replaying an operation log against a bare backend.
pub struct Replay {
    pub secs: f64,
    pub schedules: u64,
    pub pops: u64,
    /// Largest `len()` seen just before a pop — what the engine records as
    /// `queue_high_water`.
    pub peak_len: usize,
}

/// Replays the logged `schedule`/`pop` stream against a fresh `kind` backend
/// and times the whole batch, including dropping the entries still queued
/// when the run stopped (the engine pays for that drop too).
pub fn replay(kind: SchedulerKind, ops: &[u64]) -> Replay {
    let (mut schedules, mut pops, mut peak_len) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let mut queue = kind.build();
    for &op in ops {
        if op == POP {
            peak_len = peak_len.max(queue.len());
            black_box(queue.pop());
            pops += 1;
        } else {
            queue.schedule(
                SimTime::from_micros(op),
                EventKind::AdversaryTimer { tag: 0 },
            );
            schedules += 1;
        }
    }
    drop(queue);
    Replay {
        secs: start.elapsed().as_secs_f64(),
        schedules,
        pops,
        peak_len,
    }
}

/// Host seconds of one bare run of `run`, observability on or off.
fn bare_run_s(run: SingleRun, obs: bool) -> f64 {
    let s = scenario(run);
    let start = Instant::now();
    let (builder, cfg) = builder(run, &s);
    let mut builder = builder
        .network(SampledNetwork::new(s.delay))
        .protocols(s.kind.factory(&cfg, s.genesis_seed));
    if obs {
        builder = builder.observability(
            ObsConfig::new(DEFAULT_LAST_K).with_classifier(s.kind.phase_classifier()),
        );
    }
    let result = builder.build().expect("valid configuration").run();
    assert!(result.is_clean(), "obs pair run failed");
    black_box(result);
    start.elapsed().as_secs_f64()
}

/// Median wall with observability on over median wall with it off, from
/// `pairs` interleaved pairs of the same run (the order within a pair
/// alternates, so drift hits both sides alike).
pub fn obs_overhead_ratio(run: SingleRun, pairs: usize) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..pairs {
        if i % 2 == 0 {
            off.push(bare_run_s(run, false));
            on.push(bare_run_s(run, true));
        } else {
            on.push(bare_run_s(run, true));
            off.push(bare_run_s(run, false));
        }
    }
    let median = |v: &[f64]| {
        bft_sim_benchmark::harness::Summary::of(v)
            .expect("at least one pair")
            .median
    };
    median(&on) / median(&off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_protocols::registry::ProtocolKind;

    /// A per-layer number from a run that diverged is worthless: with every
    /// shim installed the run must equal the bare run.
    #[test]
    fn shims_are_inert_for_all_eight_protocols() {
        for protocol in ProtocolKind::all() {
            let run = SingleRun {
                protocol,
                n: 7,
                decisions: protocol.measured_decisions(),
                seed: 11,
            };
            let bare = scenario(run).run(run.seed);
            let traced = traced(run);
            let t = &traced.result;
            assert_eq!(t.events_processed, bare.events_processed, "{protocol}");
            assert_eq!(t.decided, bare.decided, "{protocol}");
            assert_eq!(t.completions, bare.completions, "{protocol}");
            assert_eq!(t.end_time, bare.end_time, "{protocol}");
            assert_eq!(t.honest_messages, bare.honest_messages, "{protocol}");
            assert_eq!(t.adversary_messages, bare.adversary_messages, "{protocol}");
            assert_eq!(t.dropped_messages, bare.dropped_messages, "{protocol}");
            assert_eq!(t.sent_per_node, bare.sent_per_node, "{protocol}");
            assert_eq!(t.delivered_per_node, bare.delivered_per_node, "{protocol}");
            assert_eq!(t.skipped_cancelled_timers, bare.skipped_cancelled_timers);
            assert_eq!(t.queue_high_water, bare.queue_high_water, "{protocol}");
            assert_eq!(t.timed_out, bare.timed_out, "{protocol}");
            assert!(bare.is_clean(), "{protocol}");
            assert_eq!(traced.oracle_violations, 0, "{protocol}");

            // The shims saw exactly the work the engine reports.
            let s = &traced.state;
            assert_eq!(
                s.proto_message.calls + s.proto_timer.calls,
                bare.events_processed,
                "{protocol}: one handler call per processed event"
            );
            assert_eq!(
                s.observer.calls,
                bare.events_processed + decisions_made(&bare)
            );
            assert_eq!(s.proto_init.calls, 7);
        }
    }

    fn decisions_made(r: &RunResult) -> u64 {
        r.decided.iter().map(|d| d.len() as u64).sum()
    }

    #[test]
    fn replay_reproduces_the_queue_high_water() {
        for protocol in [ProtocolKind::Pbft, ProtocolKind::HotStuffNs] {
            let run = SingleRun {
                protocol,
                n: 16,
                decisions: 3,
                seed: 5,
            };
            let traced = traced(run);
            let timers = traced.state.timers_fired + traced.result.skipped_cancelled_timers;
            for kind in SchedulerKind::ALL {
                let r = replay(kind, &traced.state.ops);
                assert_eq!(r.pops, traced.result.events_processed, "{protocol} {kind}");
                let diff = r.peak_len.abs_diff(traced.result.queue_high_water) as u64;
                assert!(
                    diff <= timers,
                    "{protocol} {kind}: replay peak {} vs engine {} (timers {timers})",
                    r.peak_len,
                    traced.result.queue_high_water
                );
            }
        }
    }
}
