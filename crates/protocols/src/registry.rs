//! A registry of the implemented protocols — the paper's eight (Table I)
//! plus Tendermint — used by the CLI, benchmarks and experiment harnesses.

use bft_sim_core::config::RunConfig;
use bft_sim_core::ids::NodeId;
use bft_sim_core::oracle::{Expectations, ValueDomain};
use bft_sim_core::protocol::{Protocol, ProtocolFactory};

use crate::add::machine::{factory as add_factory, AddVariant};
use crate::common::ProtocolParams;

/// The network model a protocol was designed for (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkAssumption {
    /// Known delay bound.
    Synchronous,
    /// Unknown delay bound / GST.
    PartiallySynchronous,
    /// No delay bound.
    Asynchronous,
}

impl core::fmt::Display for NetworkAssumption {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            NetworkAssumption::Synchronous => "synchronous",
            NetworkAssumption::PartiallySynchronous => "partially-synchronous",
            NetworkAssumption::Asynchronous => "asynchronous",
        };
        f.write_str(s)
    }
}

/// One of the nine implemented BFT protocols: the paper's eight
/// ([`ProtocolKind::all`]) and Tendermint ([`ProtocolKind::extended`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// ADD+ BA v1 (round-robin leaders).
    AddV1,
    /// ADD+ BA v2 (VRF leaders).
    AddV2,
    /// ADD+ BA v3 (VRF + prepare round).
    AddV3,
    /// Algorand Agreement.
    Algorand,
    /// Bracha-style asynchronous binary BA.
    AsyncBa,
    /// PBFT.
    Pbft,
    /// HotStuff with the naive view-doubling synchronizer.
    HotStuffNs,
    /// LibraBFT.
    LibraBft,
    /// Tendermint (extension beyond the paper's Table I).
    Tendermint,
}

impl ProtocolKind {
    /// The paper's eight protocols, in Table I order.
    pub fn all() -> [ProtocolKind; 8] {
        [
            ProtocolKind::AddV1,
            ProtocolKind::AddV2,
            ProtocolKind::AddV3,
            ProtocolKind::Algorand,
            ProtocolKind::AsyncBa,
            ProtocolKind::Pbft,
            ProtocolKind::HotStuffNs,
            ProtocolKind::LibraBft,
        ]
    }

    /// All nine implemented protocols: Table I's eight, then Tendermint.
    pub fn extended() -> [ProtocolKind; 9] {
        [
            ProtocolKind::AddV1,
            ProtocolKind::AddV2,
            ProtocolKind::AddV3,
            ProtocolKind::Algorand,
            ProtocolKind::AsyncBa,
            ProtocolKind::Pbft,
            ProtocolKind::HotStuffNs,
            ProtocolKind::LibraBft,
            ProtocolKind::Tendermint,
        ]
    }

    /// The protocol's short name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Tendermint => "tendermint",
            ProtocolKind::AddV1 => "add-v1",
            ProtocolKind::AddV2 => "add-v2",
            ProtocolKind::AddV3 => "add-v3",
            ProtocolKind::Algorand => "algorand",
            ProtocolKind::AsyncBa => "async-ba",
            ProtocolKind::Pbft => "pbft",
            ProtocolKind::HotStuffNs => "hotstuff-ns",
            ProtocolKind::LibraBft => "librabft",
        }
    }

    /// Parses a short name (as printed by [`ProtocolKind::name`]).
    pub fn parse(name: &str) -> Option<ProtocolKind> {
        Self::extended().into_iter().find(|k| k.name() == name)
    }

    /// The network model the protocol assumes (Table I).
    pub fn network_assumption(self) -> NetworkAssumption {
        match self {
            ProtocolKind::AddV1
            | ProtocolKind::AddV2
            | ProtocolKind::AddV3
            | ProtocolKind::Algorand => NetworkAssumption::Synchronous,
            ProtocolKind::AsyncBa => NetworkAssumption::Asynchronous,
            ProtocolKind::Pbft
            | ProtocolKind::HotStuffNs
            | ProtocolKind::LibraBft
            | ProtocolKind::Tendermint => NetworkAssumption::PartiallySynchronous,
        }
    }

    /// The number of decisions the paper measures this protocol over: the
    /// pipelined protocols (HotStuff+NS, LibraBFT) average over their first
    /// ten, the rest take a single decision (§IV).
    pub fn measured_decisions(self) -> u64 {
        match self {
            ProtocolKind::HotStuffNs | ProtocolKind::LibraBft => 10,
            _ => 1,
        }
    }

    /// Whether the protocol is responsive (§II-C2): its happy-path latency
    /// tracks actual network delay, not λ.
    pub fn responsive(self) -> bool {
        matches!(
            self,
            ProtocolKind::AsyncBa
                | ProtocolKind::Pbft
                | ProtocolKind::HotStuffNs
                | ProtocolKind::LibraBft
                | ProtocolKind::Tendermint
        )
    }

    /// The default fault budget for `n` nodes: `⌊(n−1)/2⌋` for the
    /// synchronous ADD+ family (optimal resilience), `⌊(n−1)/3⌋` otherwise.
    pub fn default_f(self, n: usize) -> usize {
        match self {
            ProtocolKind::AddV1 | ProtocolKind::AddV2 | ProtocolKind::AddV3 => (n - 1) / 2,
            _ => (n - 1) / 3,
        }
    }

    /// The domain of values this protocol legitimately decides: binary votes
    /// for binary BA, non-zero block digests for everything else (the zero
    /// digest never occurs for the genesis seeds in use, so a decided zero
    /// means a default/forged value slipped through).
    pub(crate) fn value_domain(self) -> ValueDomain {
        match self {
            ProtocolKind::AsyncBa => ValueDomain::Binary,
            _ => ValueDomain::NonZero,
        }
    }

    /// What the oracle suite may assume about a run of this protocol under
    /// the given configuration. `benign` says whether the scenario kept the
    /// protocol inside its fault and network model (no partitions, no
    /// message-touching adversary): only then is termination owed — an
    /// adversary that drops messages is *allowed* to stall liveness, and
    /// only safety remains on the hook.
    pub fn expectations(self, cfg: &RunConfig, benign: bool) -> Expectations {
        Expectations {
            target_decisions: cfg.target_decisions,
            value_domain: self.value_domain(),
            must_terminate: benign,
            outages: Vec::new(),
        }
    }

    /// Applies protocol-appropriate defaults (`f`, target decisions) to a
    /// run configuration.
    pub fn configure(self, cfg: RunConfig) -> RunConfig {
        let n = cfg.n;
        cfg.with_f(self.default_f(n))
            .with_target_decisions(self.measured_decisions())
    }

    /// The classifier mapping this protocol's wire messages to phase labels
    /// for the observability message-flow matrix (see
    /// [`bft_sim_core::obs`]). Payloads the classifier does not recognise
    /// (injected or cross-protocol traffic) fall back to
    /// [`bft_sim_core::obs::UNCLASSIFIED_PHASE`].
    pub fn phase_classifier(self) -> bft_sim_core::obs::PhaseClassifier {
        use bft_sim_core::obs::PhaseClassifier;
        match self {
            ProtocolKind::AddV1 | ProtocolKind::AddV2 | ProtocolKind::AddV3 => {
                PhaseClassifier::new(crate::add::machine::PHASES, crate::add::machine::phase_of)
            }
            ProtocolKind::Algorand => {
                PhaseClassifier::new(crate::algorand::PHASES, crate::algorand::phase_of)
            }
            ProtocolKind::AsyncBa => {
                PhaseClassifier::new(crate::async_ba::PHASES, crate::async_ba::phase_of)
            }
            ProtocolKind::Pbft => PhaseClassifier::new(crate::pbft::PHASES, crate::pbft::phase_of),
            ProtocolKind::HotStuffNs => {
                PhaseClassifier::new(crate::hotstuff::PHASES, crate::hotstuff::phase_of)
            }
            ProtocolKind::LibraBft => {
                PhaseClassifier::new(crate::librabft::PHASES, crate::librabft::phase_of)
            }
            ProtocolKind::Tendermint => {
                PhaseClassifier::new(crate::tendermint::PHASES, crate::tendermint::phase_of)
            }
        }
    }

    /// Builds an engine-ready factory for this protocol.
    pub fn factory(self, cfg: &RunConfig, genesis_seed: u64) -> Box<dyn ProtocolFactory + Send> {
        let params = ProtocolParams::new(cfg.n, cfg.f, genesis_seed);
        match self {
            ProtocolKind::AddV1 => boxed(add_factory(params, AddVariant::V1)),
            ProtocolKind::AddV2 => boxed(add_factory(params, AddVariant::V2)),
            ProtocolKind::AddV3 => boxed(add_factory(params, AddVariant::V3)),
            ProtocolKind::Algorand => boxed(crate::algorand::factory(params)),
            ProtocolKind::AsyncBa => boxed(crate::async_ba::factory(params)),
            ProtocolKind::Pbft => boxed(crate::pbft::factory(params)),
            ProtocolKind::HotStuffNs => boxed(crate::hotstuff::factory(params)),
            ProtocolKind::LibraBft => boxed(crate::librabft::factory(params)),
            ProtocolKind::Tendermint => boxed(crate::tendermint::factory(params)),
        }
    }
}

fn boxed<F>(f: F) -> Box<dyn ProtocolFactory + Send>
where
    F: Fn(NodeId) -> Box<dyn Protocol> + Send + 'static,
{
    Box::new(f)
}

impl core::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;

    #[test]
    fn there_are_eight_protocols_with_unique_names() {
        let names: std::collections::HashSet<_> =
            ProtocolKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn parse_round_trips() {
        for kind in ProtocolKind::extended() {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("nope"), None);
    }

    #[test]
    fn network_assumptions_match_table_one() {
        use NetworkAssumption::*;
        assert_eq!(ProtocolKind::AddV1.network_assumption(), Synchronous);
        assert_eq!(ProtocolKind::Algorand.network_assumption(), Synchronous);
        assert_eq!(ProtocolKind::AsyncBa.network_assumption(), Asynchronous);
        assert_eq!(
            ProtocolKind::Pbft.network_assumption(),
            PartiallySynchronous
        );
        assert_eq!(
            ProtocolKind::HotStuffNs.network_assumption(),
            PartiallySynchronous
        );
        assert_eq!(
            ProtocolKind::LibraBft.network_assumption(),
            PartiallySynchronous
        );
    }

    #[test]
    fn fault_budgets() {
        assert_eq!(ProtocolKind::AddV1.default_f(16), 7);
        assert_eq!(ProtocolKind::Pbft.default_f(16), 5);
        assert_eq!(ProtocolKind::HotStuffNs.default_f(4), 1);
    }

    #[test]
    fn expectations_follow_the_protocol_and_scenario() {
        let cfg = ProtocolKind::AsyncBa.configure(RunConfig::new(4));
        let e = ProtocolKind::AsyncBa.expectations(&cfg, true);
        assert_eq!(e.value_domain, ValueDomain::Binary);
        assert_eq!(e.target_decisions, 1);
        assert!(e.must_terminate);

        let cfg = ProtocolKind::HotStuffNs.configure(RunConfig::new(4));
        let e = ProtocolKind::HotStuffNs.expectations(&cfg, false);
        assert_eq!(e.value_domain, ValueDomain::NonZero);
        assert_eq!(e.target_decisions, 10, "pipelined target");
        assert!(!e.must_terminate, "adversarial runs owe only safety");
    }

    #[test]
    fn every_protocol_reaches_consensus_through_the_registry() {
        for kind in ProtocolKind::extended() {
            let cfg = kind.configure(
                RunConfig::new(4)
                    .with_seed(17)
                    .with_lambda_ms(1000.0)
                    .with_time_cap(SimDuration::from_secs(600.0)),
            );
            let factory = kind.factory(&cfg, 99);
            let r = SimulationBuilder::new(cfg)
                .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
                .protocols(factory)
                .build()
                .unwrap()
                .run();
            assert!(
                r.is_clean(),
                "{kind}: timed_out={} violation={:?}",
                r.timed_out,
                r.safety_violation
            );
            assert_eq!(
                r.decisions_completed(),
                kind.measured_decisions(),
                "{kind} missed its target"
            );
        }
    }

    #[test]
    fn phase_classifiers_label_every_wire_message() {
        use bft_sim_core::obs::{ObsConfig, UNCLASSIFIED_PHASE};

        for kind in ProtocolKind::extended() {
            let cfg = kind.configure(
                RunConfig::new(4)
                    .with_seed(23)
                    .with_lambda_ms(1000.0)
                    .with_time_cap(SimDuration::from_secs(600.0)),
            );
            let factory = kind.factory(&cfg, 99);
            let r = SimulationBuilder::new(cfg)
                .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
                .protocols(factory)
                .observability(ObsConfig::default().with_classifier(kind.phase_classifier()))
                .build()
                .unwrap()
                .run();
            assert!(r.is_clean(), "{kind}");
            let obs = r.observability.as_ref().expect("observability was enabled");
            assert!(!obs.flows.is_empty(), "{kind}: no message flows recorded");
            assert_eq!(
                obs.phase_total(UNCLASSIFIED_PHASE),
                0,
                "{kind}: classifier missed some of its own wire messages: {:?}",
                obs.flows
                    .iter()
                    .map(|f| f.phase.as_str())
                    .collect::<Vec<_>>()
            );
        }

        // Spot-check the labels of the two protocols the paper's figures
        // lean on hardest.
        let phases = |kind: ProtocolKind| -> Vec<String> {
            let cfg = kind.configure(
                RunConfig::new(4)
                    .with_seed(23)
                    .with_lambda_ms(1000.0)
                    .with_time_cap(SimDuration::from_secs(600.0)),
            );
            let factory = kind.factory(&cfg, 99);
            SimulationBuilder::new(cfg)
                .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
                .protocols(factory)
                .observability(ObsConfig::default().with_classifier(kind.phase_classifier()))
                .build()
                .unwrap()
                .run()
                .observability
                .unwrap()
                .flows
                .iter()
                .map(|f| f.phase.clone())
                .collect()
        };
        let pbft = phases(ProtocolKind::Pbft);
        for phase in ["pre-prepare", "prepare", "commit"] {
            assert!(pbft.contains(&phase.to_string()), "pbft missing {phase}");
        }
        let hs = phases(ProtocolKind::HotStuffNs);
        for phase in ["proposal", "vote"] {
            assert!(hs.contains(&phase.to_string()), "hotstuff missing {phase}");
        }
    }
}
