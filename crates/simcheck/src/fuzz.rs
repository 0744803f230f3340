//! The fuzzing driver: sweep scenario seeds, check every run against the
//! oracle suite, shrink every violation to a [`Repro`].
//!
//! Every checked run — a fuzz seed, a campaign unit — is one job,
//! [`run_job`]: it runs the spec, catches a panic, shrinks a violation and
//! reduces the run to a [`UnitRun`] inside its worker. [`fuzz_many`] folds
//! those records through one method, [`FuzzReport::fold`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bft_sim_core::buggify::FaultPreset;
use bft_sim_core::json::Json;
use bft_sim_core::obs::{Histogram, Observability};
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::sweep::{panic_message, sweep, SweepPanic};
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
    /// net block) in place. Applied after generation, so a preset pins the
    /// whole sweep onto one network shape.
    pub net_override: Option<NetSpec>,
    /// Fault-catalog preset for generated scenarios ([`FaultPreset::Calm`]
    /// disables injection entirely). Non-calm presets arm the buggify
    /// injector with a per-scenario fault seed drawn from the scenario seed,
    /// so the sweep stays deterministic.
    pub fault_preset: FaultPreset,
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
    /// Number of panicked scenarios. Always equals `failures.len()`: both
    /// grow together in [`FuzzReport`]'s one fold. Kept as an explicit
    /// counter so aggregation layers (bench baselines, campaign checkpoints)
    /// can carry the tally without carrying the failures themselves.
    pub panicked: u64,
    /// Every panicked scenario, in seed order.
    pub failures: Vec<FuzzFailure>,
    /// Sweep-wide observability aggregate; `Some` exactly when
    /// [`FuzzOptions::observability`] was on.
    pub observability: Option<FuzzObservability>,
}

impl FuzzReport {
    /// Whether the sweep found no violations and no panicked runs.
    pub fn clean(&self) -> bool {
        self.outcomes.is_empty() && self.failures.is_empty()
    }

    /// Folds one job's record into the report, in seed order. A panicked run
    /// counts in `panicked` and `failures` only; a completed one counts in
    /// `runs` and the event totals, adds its outcome when it violated an
    /// oracle, and its snapshot to the observability aggregate when the
    /// report keeps one.
    pub(crate) fn fold(&mut self, scenario_seed: u64, run: UnitRun) {
        if let Some(message) = run.panic {
            self.panicked += 1;
            self.failures.push(FuzzFailure {
                scenario_seed,
                message,
                last_events: run.panic_events,
            });
            return;
        }
        self.runs += 1;
        self.events_processed += run.events_processed;
        self.skipped_cancelled_timers += run.skipped_cancelled_timers;
        self.skipped_excluded_nodes += run.skipped_excluded_nodes;
        if let Some(repro) = run.repro {
            self.outcomes.push(FuzzOutcome {
                scenario_seed,
                violations: run.violations,
                repro: *repro,
            });
        }
        if let (Some(total), Some(obs)) = (&mut self.observability, &run.observability) {
            total.absorb(obs);
        }
    }
}

impl FuzzOptions {
    /// The scenario of `seed`, with the node-count and network overrides
    /// applied.
    pub(crate) fn generate(&self, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::generate(
            seed,
            &self.protocols,
            self.intensity_permille,
            self.max_actions,
            self.inject_bug,
            self.fault_preset,
        );
        if let Some(n) = self.n_override {
            spec.n = n;
        }
        if self.net_override.is_some() {
            spec.net = self.net_override;
        }
        spec
    }
}

/// Runs one scenario per seed through the checked job every sweep shares
/// (oracle suite, panic isolation, shrinking) and folds the records in seed
/// order. Seeds are sharded across `opts.threads` workers (0 = available
/// parallelism), so the report is fully deterministic: the same seeds and
/// options always produce the same report, byte for byte, at any thread
/// count. A panicking run is isolated and reported as a `FuzzFailure`
/// instead of aborting the sweep.
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
    let runs = sweep(seeds.len(), opts.threads, |i| {
        let seed = seeds[i];
        run_job(&opts.generate(seed), opts.observability).map_err(|e| format!("seed {seed}: {e}"))
    });
    let mut report = FuzzReport {
        observability: opts.observability.then(FuzzObservability::default),
        ..FuzzReport::default()
    };
    for (slot, &seed) in runs.into_iter().zip(&seeds) {
        report.fold(seed, UnitRun::from_slot(slot)?);
    }
    Ok(report)
}

/// One checked scenario run, reduced inside its worker to what a sweep
/// keeps: the one record of every fuzz seed ([`fuzz_many`]) and campaign
/// unit ([`run_unit`]), both made by the same job. Everything in it derives
/// from simulated quantities.
#[derive(Debug, Default)]
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
    /// The minimised reproducer, when the run violated an oracle. Boxed: a
    /// sweep holds one record per seed until it folds them, and violations
    /// are rare.
    pub repro: Option<Box<Repro>>,
    /// The run's observability snapshot (`None` when the run panicked or ran
    /// unobserved).
    pub observability: Option<Box<Observability>>,
    /// The panic message, when the run panicked instead of completing.
    pub panic: Option<String>,
    /// Timers cancelled while pending.
    pub(crate) skipped_cancelled_timers: u64,
    /// Events skipped because their destination was crashed or corrupted.
    pub(crate) skipped_excluded_nodes: u64,
    /// The panicked run's last events; empty unless it panicked observed.
    pub(crate) panic_events: Vec<TraceEvent>,
}

impl UnitRun {
    /// One sweep slot as a record. A build error passes through; a panic
    /// the job did not catch itself (one thrown while shrinking, or while
    /// building the scenario) is a panicked run without last events.
    ///
    /// # Errors
    ///
    /// The job's own error, unchanged.
    pub fn from_slot<E>(slot: Result<Result<UnitRun, E>, SweepPanic>) -> Result<UnitRun, E> {
        slot.unwrap_or_else(|panic| {
            Ok(UnitRun {
                panic: Some(panic.message),
                ..UnitRun::default()
            })
        })
    }
}

/// The one checked job behind every sweep: runs `spec` in
/// [`RunMode::Generate`] (`observed`: with observability on), checks the
/// oracle suite, catches a panic (a panicked run is an *outcome*, not an
/// abort) and shrinks any violation to a [`Repro`]. When `observed`, a
/// panicked run and a repro also carry the run's last events, rebuilt by
/// running the spec again.
///
/// # Errors
///
/// Returns a message only when the scenario cannot be *built*.
pub(crate) fn run_job(spec: &ScenarioSpec, observed: bool) -> Result<UnitRun, String> {
    let last_events = || {
        if observed {
            spec.last_events()
        } else {
            Vec::new()
        }
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        if observed {
            spec.run_observed(RunMode::Generate, TraceLevel::Decisions)
        } else {
            spec.run(RunMode::Generate)
        }
    }));
    let mut run = match run {
        Ok(run) => run?,
        Err(payload) => {
            return Ok(UnitRun {
                panic: Some(panic_message(payload.as_ref())),
                panic_events: last_events(),
                ..UnitRun::default()
            })
        }
    };
    let observability = run.result.observability.take().map(Box::new);
    let repro = (!run.violations.is_empty()).then(|| {
        let mut repro = shrink(spec, &run);
        repro.last_events = last_events();
        Box::new(repro)
    });
    Ok(UnitRun {
        events_processed: run.result.events_processed,
        decisions: run.result.decisions_completed(),
        latency_micros: run.result.latency().map(|d| d.as_micros()),
        honest_messages: run.result.honest_messages,
        violations: run.violations.iter().map(|v| v.to_string()).collect(),
        repro,
        observability,
        skipped_cancelled_timers: run.result.skipped_cancelled_timers,
        skipped_excluded_nodes: run.result.skipped_excluded_nodes,
        ..UnitRun::default()
    })
}

/// Executes one campaign work unit: the checked job every sweep shares,
/// with observability on. It runs `spec` in [`RunMode::Generate`], checks
/// the oracle suite, catches a panic (a panicked unit is an *outcome*, not
/// an abort) and shrinks any violation to a [`Repro`] carrying the run's
/// last events.
///
/// # Errors
///
/// Returns a message only when the scenario cannot be *built* — a malformed
/// spec is a campaign-level configuration error, not a unit outcome.
///
/// The `SchedulerKind` argument: single backend; kept for benchmark/'s tracer,
/// remove with its replay follow-up (ROADMAP item 1).
pub fn run_unit(spec: &ScenarioSpec, _scheduler: SchedulerKind) -> Result<UnitRun, String> {
    run_job(spec, true)
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
    fn a_panicked_run_is_one_failure() {
        let mut report = FuzzReport::default();
        let clean = run_job(&ScenarioSpec::baseline(ProtocolKind::Pbft), false).unwrap();
        report.fold(0, clean);
        let poisoned = UnitRun {
            panic: Some("poisoned".to_string()),
            ..UnitRun::default()
        };
        report.fold(1, poisoned);
        assert_eq!(
            (report.runs, report.panicked, report.failures.len()),
            (1, 1, 1)
        );
        // No node at all trips the engine's configuration assertion: a
        // poisoned scenario.
        let opts = FuzzOptions {
            protocols: vec![ProtocolKind::Pbft],
            n_override: Some(0),
            ..FuzzOptions::default()
        };
        let report = fuzz_many(0..1, &opts).unwrap();
        assert_eq!(
            (report.runs, report.panicked, report.failures.len()),
            (0, 1, 1)
        );
        let message = &report.failures[0].message;
        assert!(message.contains("at least one node"), "{message}");
    }

    #[test]
    fn the_shrinker_skips_a_scale_its_script_does_not_fit() {
        // Chaos seed 1402 is Algorand at n = 7 whose script replays a
        // message to n4. Re-running that script at n = 4 indexed past the
        // per-node tables, and the seed came out panicked, its violation
        // and repro lost.
        let opts = FuzzOptions {
            protocols: vec![ProtocolKind::Algorand],
            fault_preset: FaultPreset::Chaos,
            ..FuzzOptions::default()
        };
        let report = fuzz_many(1402..1403, &opts).unwrap();
        assert_eq!(report.panicked, 0, "{:?}", report.failures);
        for outcome in &report.outcomes {
            outcome.repro.check().expect("shrunk repro must replay");
        }
    }

    #[test]
    fn chaos_sweep_stays_clean_on_honest_protocols() {
        // The catalog's faults all stay inside (or adjacent to) the
        // protocols' fault model, and non-calm presets suspend the liveness
        // debt — so honest protocols must survive a chaos sweep with no
        // violations. (This is also what keeps CI's chaos sweep at exit 0.)
        let opts = FuzzOptions {
            protocols: vec![
                ProtocolKind::Pbft,
                ProtocolKind::HotStuffNs,
                ProtocolKind::LibraBft,
                ProtocolKind::Tendermint,
            ],
            fault_preset: FaultPreset::Chaos,
            ..FuzzOptions::default()
        };
        let report = fuzz_many(3..51, &opts).unwrap();
        assert_eq!(report.runs, 48);
        assert!(
            report.clean(),
            "chaos fuzzing found: {:?} / {:?}",
            report
                .outcomes
                .iter()
                .map(|o| (o.scenario_seed, &o.violations))
                .collect::<Vec<_>>(),
            report.failures
        );
    }

    #[test]
    fn node_counts_below_four_are_build_errors() {
        // At f = 0 a leader's own vote is a quorum: PBFT's propose → commit
        // → next-slot propose recursed inside one handler until the stack
        // overflowed and took the process down. Every run checks the rule.
        for n in 1..=3 {
            let rule = format!("{n} nodes is below the minimum of 4");
            let opts = FuzzOptions {
                n_override: Some(n),
                ..FuzzOptions::default()
            };
            let err = fuzz_many(0..4, &opts).unwrap_err();
            assert!(err.contains(&rule), "{err}");
            for kind in ProtocolKind::extended() {
                let spec = ScenarioSpec {
                    n,
                    ..ScenarioSpec::baseline(kind)
                };
                let err = run_unit(&spec, SchedulerKind::Heap).unwrap_err();
                assert!(err.contains(&rule), "{kind}: {err}");
                let err = spec.simulate(TraceLevel::Decisions).unwrap_err();
                assert!(err.contains(&rule), "{kind}: {err}");
            }
        }
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
        // And the pin is real: every swept seed's spec carries exactly the
        // override.
        assert_eq!(opts.generate(3).net, Some(net));
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
