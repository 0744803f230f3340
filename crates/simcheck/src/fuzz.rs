//! The fuzzing driver: sweep scenario seeds, check every run against the
//! oracle suite, shrink every violation to a [`Repro`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::json::Json;
use bft_sim_core::obs::{Histogram, Observability};
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::sweep::{panic_message, sweep};
use bft_sim_core::trace::{TraceEvent, TraceLevel};
use bft_sim_protocols::registry::ProtocolKind;

use crate::repro::Repro;
use crate::scenario::{NetSpec, RunMode, ScenarioSpec};
use crate::shrink::shrink;

/// Knobs for a fuzzing sweep.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// The protocols scenarios may draw from.
    pub protocols: Vec<ProtocolKind>,
    /// Adversary intensity in permille (0 = all-benign sweep).
    pub intensity_permille: u64,
    /// Per-run cap on adversary actions.
    pub max_actions: u64,
    /// Arms the feature-gated seeded safety bug in every scenario.
    pub inject_bug: bool,
    /// Worker threads for the sweep; `0` means available parallelism. The
    /// report is byte-identical for every value (results are reassembled in
    /// seed order).
    pub threads: usize,
    /// Single backend; kept for benchmark/'s tracer, remove with its replay
    /// follow-up (ROADMAP item 1).
    pub scheduler: SchedulerKind,
    /// Instrument every run (see [`bft_sim_core::obs`]). Everything recorded
    /// derives from simulated quantities, so switching this on changes
    /// *nothing* outside the report's `observability` block and the
    /// last-event dumps attached to failures: runs, schedules, violations
    /// and repros stay bit-identical. A run that panics or violates an
    /// oracle with observability on additionally carries its last events,
    /// rebuilt by running its seed again, in `FuzzFailure::last_events` or
    /// `Repro::last_events`.
    pub observability: bool,
    /// Forces every generated scenario to this node count instead of the
    /// generator's small-biased scales — the large-n smoke knob (`--n`).
    /// Everything else about the scenario (delays, partition, adversary
    /// budget) still derives from the seed as usual.
    pub n_override: Option<usize>,
    /// Forces every scenario's link-level network block (topology, bandwidth,
    /// churn) to this spec, overriding whatever the generator drew — the
    /// `--net-preset` knob. `None` leaves the generator's draw (usually no
    /// net block) in place. Applied after generation and after corpus
    /// mutation, so a preset pins the whole search onto one network shape.
    pub net_override: Option<NetSpec>,
    /// Fault-catalog preset for generated scenarios ([`FaultPreset::Calm`]
    /// disables injection entirely). Non-calm presets arm the buggify
    /// injector with a per-scenario fault seed drawn from the scenario seed,
    /// so the sweep stays deterministic.
    pub fault_preset: FaultPreset,
    /// Coverage-search benchmark knob (needs the `testbug` feature): instead
    /// of arming the seeded bug everywhere (`inject_bug`), arm it only in
    /// scenarios whose drawn knobs hit a narrow conjunction window — see
    /// [`fuzz_coverage`](crate::corpus::fuzz_coverage). Measures how fast a
    /// search strategy *discovers* a rare bug rather than whether it can
    /// shrink an omnipresent one. Ignored by [`fuzz_many`].
    pub latent_bug: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            protocols: ProtocolKind::extended().to_vec(),
            intensity_permille: 500,
            max_actions: 48,
            inject_bug: false,
            threads: 0,
            scheduler: SchedulerKind::default(),
            observability: false,
            n_override: None,
            net_override: None,
            fault_preset: FaultPreset::Calm,
            latent_bug: false,
        }
    }
}

/// One violating scenario, with its shrunk reproducer.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The scenario seed that produced the violation.
    pub scenario_seed: u64,
    /// Human-readable `[oracle] detail` lines, as found on the original run.
    pub violations: Vec<String>,
    /// The minimised reproducer.
    pub repro: Repro,
}

/// One scenario that panicked mid-run (a poisoned scenario), isolated by the
/// sweep engine instead of aborting the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// The scenario seed whose run panicked.
    pub scenario_seed: u64,
    /// The panic message.
    pub message: String,
    /// The last trace events before the panic, from running the seed again.
    /// Empty unless [`FuzzOptions::observability`] was on for the sweep.
    pub last_events: Vec<TraceEvent>,
}

/// Observability aggregated across every completed run of a sweep: merged
/// histograms, per-phase message totals, and the total number of view
/// entries. Like everything else in the report, byte-identical at any
/// thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzObservability {
    /// Wire-message delivery latencies, merged across all nodes and runs.
    pub(crate) delivery_latency: Histogram,
    /// Per-node decision intervals, merged across all nodes and runs.
    pub(crate) decision_interval: Histogram,
    /// Total wire messages per protocol phase, across the sweep.
    pub(crate) phase_totals: BTreeMap<String, u64>,
    /// Total `EnterView` reports across the sweep.
    pub(crate) view_entries: u64,
}

impl FuzzObservability {
    /// Folds one run's snapshot into the sweep-wide aggregate.
    pub(crate) fn absorb(&mut self, obs: &Observability) {
        for h in &obs.delivery_latency {
            self.delivery_latency.merge(h);
        }
        for h in &obs.decision_interval {
            self.decision_interval.merge(h);
        }
        for flow in &obs.flows {
            *self.phase_totals.entry(flow.phase.clone()).or_insert(0) += flow.total();
        }
        self.view_entries += obs.views.iter().map(|v| v.entries).sum::<u64>();
    }

    /// The aggregate as a JSON object (the report's `observability` block).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("delivery_latency", self.delivery_latency.to_json()),
            ("decision_interval", self.decision_interval.to_json()),
            (
                "phase_totals",
                Json::Obj(
                    self.phase_totals
                        .iter()
                        .map(|(phase, total)| (phase.clone(), Json::from(*total)))
                        .collect(),
                ),
            ),
            ("view_entries", Json::from(self.view_entries)),
        ])
    }
}

/// The result of a fuzzing sweep.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Scenarios that ran to completion.
    pub runs: u64,
    /// Total engine events dispatched across the sweep (the throughput
    /// numerator).
    pub events_processed: u64,
    /// Total timers cancelled while pending across the sweep, counted at
    /// cancel time in the engine.
    pub skipped_cancelled_timers: u64,
    /// Total events popped but skipped because the destination node was
    /// crashed or corrupted, across the sweep.
    pub skipped_excluded_nodes: u64,
    /// Every violating scenario, in seed order.
    pub outcomes: Vec<FuzzOutcome>,
    /// Number of panicked scenarios. Always equals `failures.len()` for
    /// reports built by [`fuzz_many`]; kept as an explicit counter so
    /// aggregation layers (bench baselines, campaign checkpoints) can carry
    /// the tally without carrying the failures themselves.
    pub panicked: u64,
    /// Every panicked scenario, in seed order.
    pub failures: Vec<FuzzFailure>,
    /// Sweep-wide observability aggregate; `Some` exactly when
    /// [`FuzzOptions::observability`] was on.
    pub observability: Option<FuzzObservability>,
    /// Coverage accounting; `Some` exactly when the report came from
    /// [`fuzz_coverage`](crate::corpus::fuzz_coverage). Blind seed sweeps
    /// ([`fuzz_many`]) leave it `None`.
    pub coverage: Option<crate::corpus::CoverageStats>,
}

impl FuzzReport {
    /// Whether the sweep found no violations and no panicked runs.
    pub fn clean(&self) -> bool {
        self.outcomes.is_empty() && self.failures.is_empty()
    }
}

/// What one seed's job produces; reassembled in seed order by the sweep.
enum SeedResult {
    /// The run completed (cleanly or with violations).
    Ran {
        events_processed: u64,
        skipped_cancelled_timers: u64,
        skipped_excluded_nodes: u64,
        // Both boxed: `FuzzOutcome` and `Observability` are large and
        // the variant is short-lived.
        outcome: Option<Box<FuzzOutcome>>,
        observability: Option<Box<Observability>>,
    },
    /// The run panicked with observability on; the job caught the panic
    /// itself so it could attach the run's last events.
    Panicked {
        message: String,
        last_events: Vec<TraceEvent>,
    },
}

/// Runs one scenario per seed, oracle-checks it, and shrinks every failure.
/// Seeds are sharded across `opts.threads` workers (0 = available
/// parallelism) and the report is reassembled in seed order, so it is fully
/// deterministic: the same seeds and options always produce the same report,
/// byte for byte, at any thread count. A panicking run is isolated
/// (`catch_unwind` inside the sweep engine) and reported as a
/// `FuzzFailure` instead of aborting the sweep.
///
/// # Errors
///
/// Returns a message when a scenario cannot be built — which, for generated
/// scenarios, only happens when `inject_bug` is set without the `testbug`
/// feature compiled in.
pub fn fuzz_many(
    seeds: impl IntoIterator<Item = u64>,
    opts: &FuzzOptions,
) -> Result<FuzzReport, String> {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let per_seed = sweep(
        seeds.len(),
        opts.threads,
        |i| -> Result<SeedResult, String> {
            let seed = seeds[i];
            let mut spec = ScenarioSpec::generate(
                seed,
                &opts.protocols,
                opts.intensity_permille,
                opts.max_actions,
                opts.inject_bug,
                opts.fault_preset,
            );
            if let Some(n) = opts.n_override {
                spec.n = n;
            }
            if opts.net_override.is_some() {
                spec.net = opts.net_override;
            }
            let mut run = if opts.observability {
                // Catch the panic here (inside the sweep's own isolation)
                // so the failure can carry the crashing run's last events.
                match catch_unwind(AssertUnwindSafe(|| {
                    spec.run_observed(RunMode::Generate, TraceLevel::Decisions)
                })) {
                    Ok(run) => run.map_err(|e| format!("seed {seed}: {e}"))?,
                    Err(payload) => {
                        return Ok(SeedResult::Panicked {
                            message: panic_message(payload.as_ref()),
                            last_events: spec.last_events(),
                        })
                    }
                }
            } else {
                spec.run(RunMode::Generate)
                    .map_err(|e| format!("seed {seed}: {e}"))?
            };
            let observability = run.result.observability.take().map(Box::new);
            let outcome = if run.violations.is_empty() {
                None
            } else {
                let mut repro = shrink(&spec, &run);
                if opts.observability {
                    repro.last_events = spec.last_events();
                }
                Some(Box::new(FuzzOutcome {
                    scenario_seed: seed,
                    violations: run.violations.iter().map(|v| v.to_string()).collect(),
                    repro,
                }))
            };
            Ok(SeedResult::Ran {
                events_processed: run.result.events_processed,
                skipped_cancelled_timers: run.result.skipped_cancelled_timers,
                skipped_excluded_nodes: run.result.skipped_excluded_nodes,
                outcome,
                observability,
            })
        },
    );

    let mut report = FuzzReport {
        observability: opts.observability.then(FuzzObservability::default),
        ..FuzzReport::default()
    };
    for (i, slot) in per_seed.into_iter().enumerate() {
        match slot {
            Ok(Ok(SeedResult::Ran {
                events_processed,
                skipped_cancelled_timers,
                skipped_excluded_nodes,
                outcome,
                observability,
            })) => {
                report.runs += 1;
                report.events_processed += events_processed;
                report.skipped_cancelled_timers += skipped_cancelled_timers;
                report.skipped_excluded_nodes += skipped_excluded_nodes;
                if let Some(outcome) = outcome {
                    report.outcomes.push(*outcome);
                }
                if let (Some(total), Some(obs)) = (&mut report.observability, &observability) {
                    total.absorb(obs);
                }
            }
            Ok(Ok(SeedResult::Panicked {
                message,
                last_events,
            })) => {
                report.panicked += 1;
                report.failures.push(FuzzFailure {
                    scenario_seed: seeds[i],
                    message,
                    last_events,
                });
            }
            Ok(Err(build_error)) => return Err(build_error),
            Err(panic) => {
                report.panicked += 1;
                report.failures.push(FuzzFailure {
                    scenario_seed: seeds[i],
                    message: panic.message,
                    last_events: Vec::new(),
                });
            }
        }
    }
    Ok(report)
}

/// The outcome of one campaign work unit: a single scenario executed with
/// observability on, oracle-checked, panic-isolated and — on violation —
/// shrunk to a [`Repro`]. This is the per-unit execution path behind
/// `bft-sim campaign`; everything in it derives from simulated quantities.
#[derive(Debug)]
pub struct UnitRun {
    /// Engine events dispatched (0 when the run panicked).
    pub events_processed: u64,
    /// Consensus slots completed by every live honest node.
    pub decisions: u64,
    /// Time to the first completed decision, in microseconds.
    pub latency_micros: Option<u64>,
    /// Honest wire messages sent.
    pub honest_messages: u64,
    /// Human-readable `[oracle] detail` lines; empty for a clean run.
    pub violations: Vec<String>,
    /// The minimised reproducer, when the run violated an oracle.
    pub repro: Option<Repro>,
    /// The run's observability snapshot (`None` when the run panicked).
    pub observability: Option<Box<Observability>>,
    /// The panic message, when the run panicked instead of completing.
    pub panic: Option<String>,
}

/// Executes one campaign work unit: runs `spec` in [`RunMode::Generate`]
/// with observability on, checks the oracle suite, catches panics (a
/// panicked unit is an *outcome*, not an abort) and shrinks any violation.
///
/// # Errors
///
/// Returns a message only when the scenario cannot be *built* — a malformed
/// spec is a campaign-level configuration error, not a unit outcome.
///
/// The `SchedulerKind` argument: single backend; kept for benchmark/'s tracer,
/// remove with its replay follow-up (ROADMAP item 1).
pub fn run_unit(spec: &ScenarioSpec, _scheduler: SchedulerKind) -> Result<UnitRun, String> {
    let mut run = match catch_unwind(AssertUnwindSafe(|| {
        spec.run_observed(RunMode::Generate, TraceLevel::Decisions)
    })) {
        Ok(run) => run?,
        Err(payload) => {
            return Ok(UnitRun {
                events_processed: 0,
                decisions: 0,
                latency_micros: None,
                honest_messages: 0,
                violations: Vec::new(),
                repro: None,
                observability: None,
                panic: Some(panic_message(payload.as_ref())),
            })
        }
    };
    let observability = run.result.observability.take().map(Box::new);
    let (violations, repro) = if run.violations.is_empty() {
        (Vec::new(), None)
    } else {
        let mut repro = shrink(spec, &run);
        repro.last_events = spec.last_events();
        (
            run.violations.iter().map(|v| v.to_string()).collect(),
            Some(repro),
        )
    };
    Ok(UnitRun {
        events_processed: run.result.events_processed,
        decisions: run.result.decisions_completed(),
        latency_micros: run.result.latency().map(|d| d.as_micros()),
        honest_messages: run.result.honest_messages,
        violations,
        repro,
        observability,
        panic: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_unit_reports_metrics_and_stays_deterministic() {
        let spec = ScenarioSpec::baseline(ProtocolKind::Pbft);
        let a = run_unit(&spec, SchedulerKind::Heap).unwrap();
        assert!(a.panic.is_none());
        assert!(a.violations.is_empty());
        assert!(a.repro.is_none());
        assert!(a.events_processed > 0);
        assert_eq!(a.decisions, spec.target_decisions);
        assert!(a.latency_micros.is_some());
        assert!(a.observability.is_some());
        let b = run_unit(&spec, SchedulerKind::Heap).unwrap();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.latency_micros, b.latency_micros);
        assert_eq!(a.honest_messages, b.honest_messages);
    }

    #[test]
    fn honest_protocols_survive_a_sweep() {
        let opts = FuzzOptions {
            protocols: vec![ProtocolKind::Pbft, ProtocolKind::HotStuffNs],
            ..FuzzOptions::default()
        };
        let report = fuzz_many(0..6, &opts).unwrap();
        assert_eq!(report.runs, 6);
        assert!(report.events_processed > 0);
        assert!(
            report.clean(),
            "honest protocols must survive fuzzing: {:?}",
            report
                .outcomes
                .iter()
                .map(|o| (o.scenario_seed, &o.violations))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn net_override_pins_every_scenario_to_one_network_shape() {
        use crate::scenario::{ChurnSpec, TopologyKind};
        let net = NetSpec {
            topology: TopologyKind::RingGradient,
            bandwidth: Some(200_000),
            topology_seed: 0xBEEF,
            churn: Some(ChurnSpec {
                seed: 5,
                crashes: 2,
                min_down_ms: 500,
                max_down_ms: 4_000,
            }),
        };
        let opts = FuzzOptions {
            protocols: vec![ProtocolKind::Pbft, ProtocolKind::HotStuffNs],
            net_override: Some(net),
            ..FuzzOptions::default()
        };
        let report = fuzz_many(0..6, &opts).unwrap();
        assert_eq!(report.runs, 6);
        // A net block suspends the termination debt, and drops/queueing
        // never threaten safety — so honest protocols must stay clean even
        // on a contended, churning ring.
        assert!(
            report.clean(),
            "net-pinned fuzzing found: {:?} / {:?}",
            report
                .outcomes
                .iter()
                .map(|o| (o.scenario_seed, &o.violations))
                .collect::<Vec<_>>(),
            report.failures
        );
        // And the pin is real: re-generating any swept seed with the same
        // options yields a spec carrying exactly the override.
        let mut spec = ScenarioSpec::generate(
            3,
            &opts.protocols,
            opts.intensity_permille,
            opts.max_actions,
            opts.inject_bug,
            opts.fault_preset,
        );
        spec.net = opts.net_override;
        assert_eq!(spec.net, Some(net));
    }

    #[test]
    fn sweeps_are_deterministic() {
        let opts = FuzzOptions {
            protocols: vec![ProtocolKind::Pbft],
            ..FuzzOptions::default()
        };
        let a = fuzz_many(0..4, &opts).unwrap();
        let b = fuzz_many(0..4, &opts).unwrap();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.skipped_cancelled_timers, b.skipped_cancelled_timers);
        assert_eq!(a.skipped_excluded_nodes, b.skipped_excluded_nodes);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        assert!(a.failures.is_empty() && b.failures.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let serial = FuzzOptions {
            protocols: vec![ProtocolKind::Pbft, ProtocolKind::Tendermint],
            threads: 1,
            ..FuzzOptions::default()
        };
        let parallel = FuzzOptions {
            threads: 4,
            ..serial.clone()
        };
        let a = fuzz_many(0..8, &serial).unwrap();
        let b = fuzz_many(0..8, &parallel).unwrap();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.skipped_cancelled_timers, b.skipped_cancelled_timers);
        assert_eq!(a.skipped_excluded_nodes, b.skipped_excluded_nodes);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.scenario_seed, y.scenario_seed);
            assert_eq!(x.violations, y.violations);
            assert_eq!(
                x.repro.to_json().dump_pretty(),
                y.repro.to_json().dump_pretty()
            );
        }
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn observability_changes_nothing_but_the_observability_block() {
        let plain = FuzzOptions {
            protocols: vec![ProtocolKind::Pbft, ProtocolKind::HotStuffNs],
            ..FuzzOptions::default()
        };
        let observed = FuzzOptions {
            observability: true,
            ..plain.clone()
        };
        let a = fuzz_many(0..6, &plain).unwrap();
        let b = fuzz_many(0..6, &observed).unwrap();
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.skipped_cancelled_timers, b.skipped_cancelled_timers);
        assert_eq!(a.skipped_excluded_nodes, b.skipped_excluded_nodes);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        assert_eq!(a.failures, b.failures);
        assert!(a.observability.is_none());

        let obs = b.observability.expect("requested observability");
        assert!(obs.delivery_latency.count() > 0, "no deliveries recorded");
        assert!(obs.decision_interval.count() > 0, "no decisions recorded");
        assert!(!obs.phase_totals.contains_key("unclassified"));
        assert!(
            obs.phase_totals.values().sum::<u64>() >= obs.delivery_latency.count(),
            "flow matrix must cover at least every delivered wire message"
        );
        // The aggregate block is itself deterministic.
        let c = fuzz_many(0..6, &observed).unwrap();
        assert_eq!(
            obs.to_json().dump_pretty(),
            c.observability.unwrap().to_json().dump_pretty()
        );
    }
}

#[cfg(all(test, feature = "testbug"))]
mod testbug_tests {
    use super::*;

    #[test]
    fn seeded_bug_is_caught_shrunk_and_replayable() {
        let opts = FuzzOptions {
            inject_bug: true,
            ..FuzzOptions::default()
        };
        let report = fuzz_many(0..3, &opts).unwrap();
        assert_eq!(report.runs, 3);
        assert_eq!(
            report.outcomes.len(),
            3,
            "every seeded-bug scenario must violate agreement"
        );
        for outcome in &report.outcomes {
            assert_eq!(outcome.repro.oracle, "agreement");
            assert!(
                outcome.violations.iter().any(|v| v.contains("[agreement]")),
                "{:?}",
                outcome.violations
            );
            let v = outcome.repro.check().expect("shrunk repro must replay");
            assert_eq!(v.oracle, "agreement");
        }
        // Determinism end to end: re-fuzzing yields byte-identical repros.
        let again = fuzz_many(0..3, &opts).unwrap();
        for (a, b) in report.outcomes.iter().zip(&again.outcomes) {
            assert_eq!(
                a.repro.to_json().dump_pretty(),
                b.repro.to_json().dump_pretty()
            );
        }
    }

    #[test]
    fn observability_embeds_the_event_dump_in_the_repro() {
        let opts = FuzzOptions {
            inject_bug: true,
            observability: true,
            ..FuzzOptions::default()
        };
        let report = fuzz_many(0..1, &opts).unwrap();
        assert_eq!(report.outcomes.len(), 1, "the seeded bug must fire");
        let repro = &report.outcomes[0].repro;
        assert!(
            !repro.last_events.is_empty(),
            "a failing observed run must carry its last events"
        );
        let text = repro.to_json().dump_pretty();
        assert!(text.contains("\"last_events\""), "{text}");
        let back = Repro::from_json(&bft_sim_core::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, repro);
        // The dump is diagnostic context only: the repro still replays.
        back.check()
            .expect("repro with event dump must still replay");
    }
}
