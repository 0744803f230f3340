//! The paper's evaluation (§IV), reproducible: scenario runner, attack
//! specifications, repetition machinery and per-figure generators.
//!
//! Every table and figure of the paper has a generator in [`figures`] or
//! [`loc`]; `bft-sim fig N` and `bft-sim table N` print them at the paper's
//! settings, and miniature versions run inside the integration test-suite.

pub mod cost;
pub mod figures;
pub mod loc;

use bft_sim_core::adversary::{Adversary, NullAdversary};
use bft_sim_core::config::RunConfig;
use bft_sim_core::dist::Dist;
use bft_sim_core::engine::SimulationBuilder;
use bft_sim_core::metrics::{RunResult, Summary};
use bft_sim_core::network::SampledNetwork;
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::time::SimDuration;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;

use bft_sim_attacks::{AddAdaptiveRushingAttack, AddStaticAttack, FailStop, PartitionAttack};

/// A declarative attack choice, buildable per repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackSpec {
    /// No attack.
    None,
    /// Fail-stop the last `k` nodes at start (Fig. 7).
    FailStopLast(usize),
    /// Split the network in half between the two times (Fig. 6). With
    /// `drop` the attacker discards cross traffic; otherwise it holds it
    /// back until the partition resolves (both modes appear in §III-C).
    Partition {
        /// Partition start (ms).
        start_ms: u64,
        /// Partition resolution (ms).
        end_ms: u64,
        /// Drop cross traffic instead of delaying it.
        drop: bool,
    },
    /// Fail-stop the first `k` round-robin leaders (Fig. 8, left).
    AddStatic(usize),
    /// Rushing adaptive leader corruption (Fig. 8, right).
    AddAdaptive,
}

impl AttackSpec {
    fn build(self, n: usize) -> Box<dyn Adversary> {
        match self {
            AttackSpec::None => Box::new(NullAdversary::new()),
            AttackSpec::FailStopLast(k) => Box::new(FailStop::last_k(n, k)),
            AttackSpec::Partition {
                start_ms,
                end_ms,
                drop,
            } => Box::new(
                PartitionAttack::halves(n, start_ms, end_ms, drop)
                    .unwrap_or_else(|e| panic!("attack spec: {e}")),
            ),
            AttackSpec::AddStatic(k) => Box::new(AddStaticAttack::new(k)),
            AttackSpec::AddAdaptive => Box::new(AddAdaptiveRushingAttack::new()),
        }
    }
}

/// One experiment scenario: a protocol under a network condition, a timeout
/// configuration λ, and optionally an attack.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The protocol under test.
    pub kind: ProtocolKind,
    /// System size.
    pub n: usize,
    /// Timeout parameter λ (ms).
    pub lambda_ms: f64,
    /// Message-delay distribution (ms).
    pub delay: Dist,
    /// The attack, if any.
    pub(crate) attack: AttackSpec,
    /// Simulated-time cap (s); timed-out runs report the cap as latency.
    pub time_cap_s: f64,
    /// Shared-randomness seed for VRFs / common coins.
    pub genesis_seed: u64,
    /// Decision target; `None` uses the paper's per-protocol convention
    /// (10 for the pipelined protocols, 1 otherwise).
    pub(crate) decisions: Option<u64>,
    /// What each run's trace keeps; `Decisions` except for Fig. 9.
    pub(crate) trace: TraceLevel,
    /// Single backend; kept for benchmark/'s tracer, remove with its replay
    /// follow-up (ROADMAP item 2).
    pub scheduler: SchedulerKind,
}

impl Scenario {
    /// A scenario with the paper's defaults: λ = 1000 ms, delays
    /// N(250, 50), no attack, 600 s cap.
    pub fn new(kind: ProtocolKind, n: usize) -> Self {
        Scenario {
            kind,
            n,
            lambda_ms: 1000.0,
            delay: Dist::normal(250.0, 50.0),
            attack: AttackSpec::None,
            time_cap_s: 600.0,
            genesis_seed: 7,
            decisions: None,
            trace: TraceLevel::Decisions,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Sets λ (ms).
    pub fn with_lambda(mut self, lambda_ms: f64) -> Self {
        self.lambda_ms = lambda_ms;
        self
    }

    /// Sets the delay distribution.
    pub fn with_delay(mut self, delay: Dist) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the attack.
    pub fn with_attack(mut self, attack: AttackSpec) -> Self {
        self.attack = attack;
        self
    }

    /// Sets the simulated-time cap in seconds.
    pub fn with_time_cap_s(mut self, cap: f64) -> Self {
        self.time_cap_s = cap;
        self
    }

    /// Overrides the decision target.
    pub fn with_decisions(mut self, k: u64) -> Self {
        self.decisions = Some(k);
        self
    }

    /// The decision target in effect.
    pub fn target_decisions(&self) -> u64 {
        self.decisions
            .unwrap_or_else(|| self.kind.measured_decisions())
    }

    /// Runs the scenario once with the given seed.
    pub fn run(&self, seed: u64) -> RunResult {
        let cfg = self
            .kind
            .configure(
                RunConfig::new(self.n)
                    .with_seed(seed)
                    .with_lambda_ms(self.lambda_ms)
                    .with_time_cap(SimDuration::from_secs(self.time_cap_s))
                    .with_trace(self.trace),
            )
            .with_target_decisions(self.target_decisions());
        let factory = self.kind.factory(&cfg, self.genesis_seed);
        let n = cfg.n;
        SimulationBuilder::new(cfg)
            .network(SampledNetwork::new(self.delay))
            .adversary(self.attack.build(n))
            .protocols(factory)
            .build()
            .expect("scenario configuration is valid")
            .run()
    }

    /// Runs `reps` seeded repetitions in parallel (the paper uses 100),
    /// using all available cores. Results come back in seed order, so the
    /// output is identical to running serially.
    pub fn run_many(&self, reps: usize, base_seed: u64) -> Vec<RunResult> {
        self.run_many_threads(reps, base_seed, 0)
    }

    /// Like [`run_many`](Scenario::run_many) with an explicit worker-thread
    /// count (0 = available parallelism). Repetitions are sharded through
    /// the deterministic sweep engine (work-stealing, seed-order
    /// reassembly); a panic in any repetition is re-raised here, since the
    /// experiment scenarios are all expected to run clean.
    pub(crate) fn run_many_threads(
        &self,
        reps: usize,
        base_seed: u64,
        threads: usize,
    ) -> Vec<RunResult> {
        bft_sim_core::sweep::sweep(reps, threads, |i| self.run(base_seed + i as u64))
            .into_iter()
            .map(|r| match r {
                Ok(result) => result,
                Err(p) => panic!("{p}"),
            })
            .collect()
    }

    /// The latency metric the paper reports for this protocol, in seconds:
    /// average per decision over ten decisions for the pipelined protocols,
    /// time to the single decision otherwise. Timed-out runs report the
    /// full (capped) run time.
    pub fn latency_secs(&self, result: &RunResult) -> f64 {
        let k = self.target_decisions() as usize;
        let measured = if self.kind.pipelined() {
            result.avg_latency_per_decision(k)
        } else {
            result.latency()
        };
        measured
            .map(|d| d.as_secs_f64())
            .unwrap_or_else(|| result.end_time.as_secs_f64())
    }

    /// The message-usage metric: honest messages per decision.
    pub(crate) fn messages_per_decision(&self, result: &RunResult) -> f64 {
        result
            .messages_per_decision()
            .unwrap_or(result.honest_messages as f64)
    }

    /// Latency summary (mean ± sd seconds) over repetitions.
    pub fn latency_summary(&self, results: &[RunResult]) -> Summary {
        Summary::of(
            &results
                .iter()
                .map(|r| self.latency_secs(r))
                .collect::<Vec<_>>(),
        )
    }

    /// Message-usage summary over repetitions.
    pub fn message_summary(&self, results: &[RunResult]) -> Summary {
        Summary::of(
            &results
                .iter()
                .map(|r| self.messages_per_decision(r))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_and_summarises() {
        let s = Scenario::new(ProtocolKind::Pbft, 4);
        let results = s.run_many(4, 100);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.is_clean());
        }
        let lat = s.latency_summary(&results);
        assert!(lat.mean > 0.0 && lat.count == 4);
        let msg = s.message_summary(&results);
        assert!(msg.mean > 0.0);
    }

    #[test]
    fn repetitions_are_deterministic_in_aggregate() {
        let s = Scenario::new(ProtocolKind::AsyncBa, 4);
        let a = s.latency_summary(&s.run_many(3, 5));
        let b = s.latency_summary(&s.run_many(3, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn attack_specs_build() {
        for spec in [
            AttackSpec::None,
            AttackSpec::FailStopLast(1),
            AttackSpec::Partition {
                start_ms: 0,
                end_ms: 10,
                drop: true,
            },
            AttackSpec::AddStatic(1),
            AttackSpec::AddAdaptive,
        ] {
            let _ = spec.build(4);
        }
    }
}
