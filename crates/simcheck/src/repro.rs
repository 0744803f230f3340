//! Self-contained failure reproducers.
//!
//! A [`Repro`] is what the fuzzer hands back for every violation it finds
//! (after shrinking): the minimal scenario, the residual perturbation
//! script that reproduces it, and the oracle it trips. Its JSON form is
//! what `bft-sim fuzz` writes and `bft-sim repro` replays; checking a
//! committed repro file into `tests/` turns a fuzzer catch into a permanent
//! regression test.

use bft_sim_attacks::{actions_from_json, actions_to_json};
use bft_sim_core::buggify::{fault_actions_from_json, fault_actions_to_json};
use bft_sim_core::json::{self, Fields, Json};
use bft_sim_core::oracle::OracleViolation;
use bft_sim_core::trace::TraceEvent;

use crate::scenario::{RunMode, ScenarioSpec, Script};

/// The format tag every repro file carries.
pub(crate) const FORMAT: &str = "bft-sim-repro-v1";

/// A minimal, replayable description of one oracle violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The (shrunk) scenario.
    pub spec: ScenarioSpec,
    /// The residual script, applied in [`RunMode::Scripted`]. Its JSON form
    /// is two arrays, `actions` and `fault_actions`, each omitted when empty
    /// (so repros minted before the fault catalog existed parse unchanged).
    pub script: Script,
    /// The oracle that must fire ([`OracleViolation::oracle`]).
    pub oracle: String,
    /// The violation detail observed when the repro was minted.
    pub detail: String,
    /// The last trace events of the original failing run, as captured by
    /// the observability ring when the fuzzer ran with instrumentation on.
    /// Diagnostic context only — replaying the repro does not need it.
    /// Empty when the sweep ran without observability, and omitted from the
    /// JSON form then (older repro files parse unchanged).
    pub last_events: Vec<TraceEvent>,
}

impl Repro {
    /// Re-runs the repro and confirms the recorded oracle still fires.
    ///
    /// # Errors
    ///
    /// Returns a message when the run cannot be built (e.g. the spec needs
    /// the `testbug` feature) or when the oracle no longer fires — meaning
    /// either the bug is fixed or the repro went stale.
    pub fn check(&self) -> Result<OracleViolation, String> {
        let run = self.spec.run(RunMode::Scripted(&self.script))?;
        run.violations
            .into_iter()
            .find(|v| v.oracle == self.oracle)
            .ok_or_else(|| {
                format!(
                    "oracle \"{}\" did not fire — the repro no longer reproduces",
                    self.oracle
                )
            })
    }

    /// The repro as a JSON document (`"format": "bft-sim-repro-v1"`).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("format".to_string(), Json::from(FORMAT)),
            ("oracle".to_string(), Json::from(self.oracle.as_str())),
            ("detail".to_string(), Json::from(self.detail.as_str())),
            ("scenario".to_string(), self.spec.to_json()),
        ];
        if !self.script.actions.is_empty() {
            let actions = actions_to_json(&self.script.actions);
            pairs.push(("actions".to_string(), actions));
        }
        if !self.script.faults.is_empty() {
            let faults = fault_actions_to_json(&self.script.faults);
            pairs.push(("fault_actions".to_string(), faults));
        }
        if !self.last_events.is_empty() {
            pairs.push((
                "last_events".to_string(),
                Json::Arr(self.last_events.iter().map(TraceEvent::to_json).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Parses the format produced by [`Repro::to_json`]; the blocks it omits
    /// when empty (`actions`, `fault_actions`, `last_events`) may be absent;
    /// any other key, a `schedule` included, is refused.
    ///
    /// # Errors
    ///
    /// Malformed per [`bft_sim_core::json`]'s artifact parsing policy, a
    /// foreign `"format"` tag, or a replay action addressed to a node the
    /// scenario does not have.
    pub fn from_json(json: &Json) -> Result<Repro, String> {
        let mut f = Fields::of(json, "repro")?;
        let format = f.req("format", json::string)?;
        if format != FORMAT {
            return Err(format!("repro: format \"{format}\" is not \"{FORMAT}\""));
        }
        let repro = Repro {
            oracle: f.req("oracle", json::string)?,
            detail: f.req("detail", json::string)?,
            spec: f.req("scenario", ScenarioSpec::from_json)?,
            script: Script {
                actions: f.opt_or("actions", Vec::new(), actions_from_json)?,
                faults: f.opt_or("fault_actions", Vec::new(), fault_actions_from_json)?,
            },
            last_events: f.opt_or("last_events", Vec::new(), json::list(TraceEvent::from_json))?,
        };
        f.finish()?;
        repro.script.check_nodes(repro.spec.n)?;
        Ok(repro)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_attacks::{FuzzAction, FuzzActionKind};
    use bft_sim_core::ids::NodeId;
    use bft_sim_protocols::registry::ProtocolKind;

    fn sample() -> Repro {
        Repro {
            spec: ScenarioSpec::baseline(ProtocolKind::HotStuffNs),
            script: Script {
                actions: vec![
                    FuzzAction {
                        index: 3,
                        kind: FuzzActionKind::Drop,
                    },
                    FuzzAction {
                        index: 9,
                        kind: FuzzActionKind::Replay {
                            dst: NodeId::new(2),
                            delay_micros: 500,
                        },
                    },
                ],
                faults: Vec::new(),
            },
            oracle: "agreement".to_string(),
            detail: "slot 0: n1 decided v0x1 but n2 decided v0x2".to_string(),
            last_events: Vec::new(),
        }
    }

    #[test]
    fn json_round_trips() {
        let repro = sample();
        let text = repro.to_json().dump_pretty();
        assert!(
            !text.contains("last_events"),
            "an empty event dump must stay out of the JSON"
        );
        assert!(
            !text.contains("fault_actions"),
            "an empty fault script must stay out of the JSON"
        );
        let back = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, repro);
        assert_eq!(back.to_json().dump_pretty(), text);
    }

    #[test]
    fn json_round_trips_with_fault_actions() {
        use bft_sim_core::buggify::{FaultAction, FaultKind};

        let base = sample();
        let repro = Repro {
            script: Script {
                faults: vec![
                    FaultAction {
                        index: 4,
                        kind: FaultKind::TargetedDrop {
                            dst: NodeId::new(3),
                        },
                    },
                    FaultAction {
                        index: 9,
                        kind: FaultKind::TimerSkew {
                            factor_permille: 2_500,
                        },
                    },
                ],
                ..base.script.clone()
            },
            ..base
        };
        let text = repro.to_json().dump_pretty();
        assert!(text.contains("fault_actions"), "{text}");
        let back = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, repro);
        assert_eq!(back.to_json().dump_pretty(), text);
    }

    #[test]
    fn json_round_trips_with_an_event_dump() {
        use bft_sim_core::time::SimTime;
        use bft_sim_core::trace::{TraceEvent, TraceKind};

        let repro = Repro {
            last_events: vec![
                TraceEvent {
                    time: SimTime::from_micros(10),
                    node: NodeId::new(0),
                    kind: TraceKind::Sent {
                        dst: NodeId::new(1),
                        payload_type: "PbftMsg".into(),
                    },
                },
                TraceEvent {
                    time: SimTime::from_micros(20),
                    node: NodeId::new(1),
                    kind: TraceKind::Decided {
                        slot: 0,
                        value: bft_sim_core::value::Value::new(1),
                    },
                },
            ],
            ..sample()
        };
        let text = repro.to_json().dump_pretty();
        assert!(text.contains("last_events"), "{text}");
        let back = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, repro);
        assert_eq!(back.to_json().dump_pretty(), text);
    }

    #[test]
    fn golden_pre_net_repro_parses_and_replays_unchanged() {
        // Byte-for-byte what an older binary wrote, before the scenario
        // gained its net (topology/bandwidth/churn) block. Forward compat:
        // the file must parse with the legacy delay-only network, replay to
        // the same run as an identically-parameterised in-code spec, and
        // re-serialise without sprouting any of the new keys.
        let golden = r#"{
            "format": "bft-sim-repro-v1",
            "oracle": "termination",
            "detail": "n0 never decided",
            "scenario": {
                "protocol": "pbft",
                "n": 4,
                "seed": 0,
                "genesis_seed": 7,
                "lambda_micros": 1000000,
                "delay": {"Constant": {"micros": 100000}},
                "adversary_seed": 0,
                "intensity_permille": 0,
                "max_actions": 0,
                "target_decisions": 2,
                "time_cap_secs": 900,
                "inject_bug": false
            }
        }"#;
        let repro = Repro::from_json(&Json::parse(golden).unwrap()).unwrap();
        assert!(
            repro.spec.net.is_none(),
            "an absent net block means the legacy delay-only network"
        );
        let twin = ScenarioSpec {
            target_decisions: 2,
            ..ScenarioSpec::baseline(ProtocolKind::Pbft)
        };
        assert_eq!(repro.spec, twin);

        let text = repro.to_json().dump_pretty();
        for new_key in ["\"net\"", "topology", "bandwidth", "churn"] {
            assert!(!text.contains(new_key), "{new_key} leaked into {text}");
        }

        let (replayed, replayed_schedule) = repro.spec.run_recorded(RunMode::Generate).unwrap();
        let (expected, expected_schedule) = twin.run_recorded(RunMode::Generate).unwrap();
        assert_eq!(replayed.result, expected.result);
        assert_eq!(replayed_schedule, expected_schedule);
    }

    #[test]
    fn format_tag_is_enforced() {
        let err =
            Repro::from_json(&Json::parse("{\"oracle\": \"agreement\"}").unwrap()).unwrap_err();
        assert!(err.contains("format"), "{err}");
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::from("bft-sim-repro-v999");
        }
        let err = Repro::from_json(&doc).unwrap_err();
        assert!(err.contains("v999"), "{err}");
    }

    #[test]
    fn replay_to_a_node_outside_the_scenario_is_rejected() {
        // sample() is an n = 4 scenario replaying to node 2; node 4 does not
        // exist, and injecting to it would index past the per-node tables.
        let text = sample().to_json().dump_pretty();
        assert!(text.contains("\"dst\": 2"), "{text}");
        let hostile = text.replace("\"dst\": 2", "\"dst\": 4");
        let err = Repro::from_json(&Json::parse(&hostile).unwrap()).unwrap_err();
        assert!(err.contains("entry #1"), "{err}");
        assert!(err.contains("n = 4"), "{err}");
    }

    #[test]
    fn stale_repro_is_detected() {
        // A clean baseline run cannot fire the agreement oracle, so checking
        // a repro that claims it must fire has to fail loudly.
        let repro = Repro {
            script: Script::default(),
            ..sample()
        };
        let err = repro.check().unwrap_err();
        assert!(err.contains("no longer reproduces"), "{err}");
    }
}
