//! The paper's evaluation (§IV), reproducible: the paper's default run, the
//! repetition machinery and per-figure generators, whose points aggregate the
//! two reported metrics.
//!
//! A run is a [`ScenarioSpec`]: every figure point, `bft-sim run` and
//! `bft-sim compare` build one and [`repeat`] it over seeds, so any of them
//! can be written to a file and opened with `bft-sim trace <spec.json>`.
//! Every table and figure of the paper has a generator in [`figures`] or
//! [`loc`]; `bft-sim fig N` and `bft-sim table N` print them at the paper's
//! settings, and miniature versions run inside the integration test-suite.

pub mod figures;
pub mod loc;

use bft_sim_core::dist::Dist;
use bft_sim_core::metrics::RunResult;
use bft_sim_core::scheduler::SchedulerKind;
use bft_sim_core::trace::TraceLevel;
use bft_sim_protocols::registry::ProtocolKind;
use bft_sim_simcheck::{DelaySpec, ScenarioSpec};

/// The paper's defaults for `kind` at `n` nodes: λ = 1000 ms, delays
/// N(250, 50), no attack, a 600 s cap, genesis seed 7, and the protocol's
/// measured decisions (10 for the pipelined protocols, 1 otherwise).
pub fn paper_spec(kind: ProtocolKind, n: usize) -> ScenarioSpec {
    ScenarioSpec {
        n,
        delay: DelaySpec::Normal {
            mean_micros: 250_000,
            std_micros: 50_000,
        },
        time_cap_secs: 600,
        ..ScenarioSpec::baseline(kind)
    }
}

/// Runs `spec` at seeds `base_seed`, `base_seed + 1`, … (`reps` of them;
/// the paper uses 100) on all cores, in seed order as if run serially. A
/// panic in any repetition is re-raised here.
///
/// # Errors
///
/// The spec does not build ([`ScenarioSpec::simulate`]).
pub fn repeat(spec: &ScenarioSpec, reps: usize, base_seed: u64) -> Result<Vec<RunResult>, String> {
    bft_sim_core::sweep::sweep(reps, 0, |i| {
        let seed = base_seed.wrapping_add(i as u64);
        ScenarioSpec {
            seed,
            ..spec.clone()
        }
        .simulate(TraceLevel::Decisions)
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
    .collect()
}

/// [`paper_spec`] as `benchmark/`, frozen until ROADMAP item 1, reads it;
/// nothing else may. [`run`](Scenario::run) goes through
/// [`ScenarioSpec::simulate`], the path the figures take.
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
    /// Simulated-time cap (s).
    pub time_cap_s: f64,
    /// Shared-randomness seed for VRFs / common coins.
    pub genesis_seed: u64,
    /// Single backend; read by `benchmark/`'s tracer.
    pub scheduler: SchedulerKind,
    spec: ScenarioSpec,
}

impl Scenario {
    /// [`paper_spec`]`(kind, n)`.
    pub fn new(kind: ProtocolKind, n: usize) -> Self {
        let spec = paper_spec(kind, n);
        Scenario {
            kind,
            n,
            lambda_ms: spec.lambda_micros as f64 / 1000.0,
            delay: spec.delay.to_dist(),
            time_cap_s: spec.time_cap_secs as f64,
            genesis_seed: spec.genesis_seed,
            scheduler: SchedulerKind::default(),
            spec,
        }
    }

    /// Overrides the decision target.
    pub fn with_decisions(mut self, k: u64) -> Self {
        self.spec.target_decisions = k;
        self
    }

    /// The decision target in effect.
    pub fn target_decisions(&self) -> u64 {
        self.spec.target_decisions
    }

    /// Runs the spec once with the given seed.
    pub fn run(&self, seed: u64) -> RunResult {
        ScenarioSpec { seed, ..self.spec }
            .simulate(TraceLevel::Decisions)
            .expect("the paper's default run builds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_simcheck::{AttackSpec, PartitionSpec};

    /// [`figures::Point::of`] `reps` repetitions of `spec` from `base_seed`.
    fn measure(spec: &ScenarioSpec, reps: usize, base_seed: u64) -> figures::Point {
        let results = repeat(spec, reps, base_seed).unwrap();
        figures::Point::of(spec, &results, "").unwrap()
    }

    #[test]
    fn scenario_runs_and_summarises() {
        let point = measure(&paper_spec(ProtocolKind::Pbft, 4), 4, 100);
        assert!(point.latency.mean > 0.0 && point.latency.count == 4);
        assert!(point.messages.mean > 0.0);
        assert_eq!(point.capped_share(), 0.0);
    }

    #[test]
    fn repetitions_are_deterministic_in_aggregate() {
        let spec = paper_spec(ProtocolKind::AsyncBa, 4);
        let (a, b) = (measure(&spec, 3, 5), measure(&spec, 3, 5));
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn attack_specs_build() {
        let partition = PartitionSpec {
            start_ms: 0,
            end_ms: 10,
            drop: true,
        };
        for (attack, partition) in [
            (None, None),
            (Some(AttackSpec::FailStopLast { k: 1 }), None),
            (None, Some(partition)),
            (Some(AttackSpec::AddStatic { k: 1 }), None),
            (Some(AttackSpec::AddAdaptive), None),
        ] {
            let spec = ScenarioSpec {
                attack,
                partition,
                ..paper_spec(ProtocolKind::AddV1, 4)
            };
            assert!(spec.simulate(TraceLevel::Decisions).is_ok(), "{spec:?}");
        }
    }
}
