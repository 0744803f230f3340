//! A seeded, budgeted, randomized adversary for schedule fuzzing.
//!
//! [`RandomizedAdversary`] composes the primitive capabilities of the
//! attacker module — drop, delay, and equivocation-style payload replay —
//! under a probability [`FuzzBudget`], driven by its *own* seeded RNG so the
//! attack sequence depends only on the adversary seed and the order of
//! intercepted messages (which the run seed fixes). Every action it takes is
//! logged as a [`FuzzAction`] against the index of the message it hit, and
//! a log re-runs verbatim in **scripted** mode: the adversary is a policy
//! over the [`Perturber`] that the fault catalog shares.

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::ids::NodeId;
use bft_sim_core::json::{self, Json};
use bft_sim_core::message::Message;
use bft_sim_core::perturb::{self, Action, ActionLog, Draw, Perturber};
use bft_sim_core::time::SimDuration;
use rand::Rng;

/// What the adversary did to one intercepted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzActionKind {
    /// Dropped the message.
    Drop,
    /// Delivered the message `extra_micros` later than the network proposed.
    Delay {
        /// Extra delay added on top of the network's proposed delay.
        extra_micros: u64,
    },
    /// Delivered the message normally but *also* injected a copy of its
    /// payload to `dst`, claiming the original sender — a stale re-delivery,
    /// the building block of equivocation-style confusion.
    Replay {
        /// The node that receives the duplicated payload.
        dst: NodeId,
        /// Delivery delay of the duplicate.
        delay_micros: u64,
    },
}

/// One logged adversary action: `kind` applied to the `index`-th honest
/// transmission the adversary saw (0-based, in send order). Repro files
/// call the index `msg_index`.
pub type FuzzAction = Action<FuzzActionKind>;

/// Probability budget for [`RandomizedAdversary::generate`] mode.
///
/// Per intercepted message the adversary rolls, in order: drop, delay,
/// replay; the first roll that hits is applied. `max_actions` caps the total
/// number of actions per run so shrunk reproducers stay small and benign
/// configurations (`max_actions == 0`) stay benign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzBudget {
    /// Probability of dropping an intercepted message.
    pub(crate) drop_prob: f64,
    /// Probability of delaying an intercepted message.
    pub(crate) delay_prob: f64,
    /// Probability of replaying an intercepted payload to a random node.
    pub(crate) replay_prob: f64,
    /// Upper bound (exclusive is fine at 0) on the sampled extra delay.
    pub(crate) max_extra_delay_micros: u64,
    /// Hard cap on actions per run; `0` disables the adversary entirely.
    pub(crate) max_actions: u64,
}

impl FuzzBudget {
    /// A budget scaled by `intensity` in `[0, 1]`: at `1.0` roughly 6% of
    /// messages are dropped, 10% delayed (by up to four λ at λ = 1 s) and 4%
    /// replayed, capped at `max_actions`.
    pub fn with_intensity(intensity: f64, max_actions: u64) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        FuzzBudget {
            drop_prob: 0.06 * intensity,
            delay_prob: 0.10 * intensity,
            replay_prob: 0.04 * intensity,
            max_extra_delay_micros: 4_000_000,
            max_actions,
        }
    }
}

/// The randomized (or scripted) fuzzing adversary: the budget's policy over
/// a [`Perturber`] whose one site is the honest transmission. See the
/// module docs.
#[derive(Debug)]
pub struct RandomizedAdversary {
    script: Perturber<FuzzActionKind, 1>,
    /// Generate mode's rates; unread when scripted.
    budget: FuzzBudget,
}

impl RandomizedAdversary {
    /// Creates a generating adversary with its own RNG seeded from `seed`.
    ///
    /// The seed is independent of the run seed on purpose: the same attack
    /// sequence can then be aimed at different network samples, and vice
    /// versa.
    pub fn generate(seed: u64, budget: FuzzBudget) -> Self {
        RandomizedAdversary {
            script: Perturber::generate(seed, budget.max_actions),
            budget,
        }
    }

    /// Creates a scripted adversary that re-applies exactly `actions`.
    ///
    /// Duplicate `index` entries keep the last occurrence.
    pub fn scripted(actions: &[FuzzAction]) -> Self {
        RandomizedAdversary {
            script: Perturber::scripted(actions, |_| 0),
            budget: FuzzBudget::with_intensity(0.0, 0),
        }
    }

    /// A shared handle onto the action log; clone it out before moving the
    /// adversary into a `SimulationBuilder`.
    pub fn log_handle(&self) -> ActionLog<FuzzActionKind> {
        self.script.log_handle()
    }
}

impl Adversary for RandomizedAdversary {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        let budget = &self.budget;
        let kind = self.script.visit(0, |draw| match draw {
            Draw::Script(kind) => Some(kind),
            Draw::Roll(rng) => {
                // One roll per capability, in a fixed order, every message —
                // the RNG consumption pattern must not depend on earlier
                // outcomes or the sequence loses its meaning when shrunk.
                let drop = rng.gen_bool(budget.drop_prob);
                let delay = rng.gen_bool(budget.delay_prob);
                let replay = rng.gen_bool(budget.replay_prob);
                let extra = if budget.max_extra_delay_micros > 0 {
                    rng.gen_range(0..budget.max_extra_delay_micros)
                } else {
                    0
                };
                let dst = NodeId::new(rng.gen_range(0..api.n() as u32));
                if drop {
                    Some(FuzzActionKind::Drop)
                } else if delay {
                    Some(FuzzActionKind::Delay {
                        extra_micros: extra,
                    })
                } else if replay {
                    Some(FuzzActionKind::Replay {
                        dst,
                        delay_micros: extra,
                    })
                } else {
                    None
                }
            }
        });
        match kind {
            None => Fate::Deliver(proposed),
            Some(FuzzActionKind::Drop) => Fate::Drop,
            Some(FuzzActionKind::Delay { extra_micros }) => {
                Fate::Deliver(proposed + SimDuration::from_micros(extra_micros))
            }
            Some(FuzzActionKind::Replay { dst, delay_micros }) => {
                api.inject_payload(
                    msg.src(),
                    dst,
                    SimDuration::from_micros(delay_micros),
                    msg.clone_payload_arc(),
                );
                Fate::Deliver(proposed)
            }
        }
    }

    fn name(&self) -> &'static str {
        "randomized"
    }
}

/// Serializes a list of actions for repro files.
pub fn actions_to_json(actions: &[FuzzAction]) -> Json {
    perturb::to_json(actions, "msg_index", |kind| match kind {
        FuzzActionKind::Drop => Json::from("Drop"),
        FuzzActionKind::Delay { extra_micros } => Json::obj([(
            "Delay",
            Json::obj([("extra_micros", Json::from(extra_micros))]),
        )]),
        FuzzActionKind::Replay { dst, delay_micros } => Json::obj([(
            "Replay",
            Json::obj([
                ("dst", Json::from(dst.as_u32())),
                ("delay_micros", Json::from(delay_micros)),
            ]),
        )]),
    })
}

/// Parses the format produced by [`actions_to_json`].
///
/// # Errors
///
/// Malformed per [`bft_sim_core::json`]'s artifact parsing policy; the
/// message names the offending entry's index.
pub fn actions_from_json(json: &Json) -> Result<Vec<FuzzAction>, String> {
    perturb::from_json(json, "msg_index", "action", |kind| {
        match json::variant(kind, "kind")? {
            ("Drop", None) => Ok(FuzzActionKind::Drop),
            ("Delay", Some(mut f)) => {
                let extra_micros = f.req("extra_micros", json::int)?;
                f.finish()?;
                Ok(FuzzActionKind::Delay { extra_micros })
            }
            ("Replay", Some(mut f)) => {
                let dst = NodeId::new(f.req("dst", json::int)?);
                let delay_micros = f.req("delay_micros", json::int)?;
                f.finish()?;
                Ok(FuzzActionKind::Replay { dst, delay_micros })
            }
            (tag, _) => Err(format!("unknown kind \"{tag}\"")),
        }
    })
    .map_err(|e| format!("actions: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;
    use bft_sim_protocols::registry::ProtocolKind;

    fn run_with(
        adv: RandomizedAdversary,
        seed: u64,
    ) -> (bft_sim_core::metrics::RunResult, Vec<FuzzAction>) {
        let kind = ProtocolKind::Pbft;
        let cfg = kind.configure(
            RunConfig::new(7)
                .with_seed(seed)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(300.0)),
        );
        let log = adv.log_handle();
        let factory = kind.factory(&cfg, 23);
        let result = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(adv)
            .protocols(factory)
            .build()
            .unwrap()
            .run();
        (result, log.take())
    }

    #[test]
    fn generated_actions_are_deterministic_per_seed() {
        let budget = FuzzBudget::with_intensity(0.5, 64);
        let (r1, a1) = run_with(RandomizedAdversary::generate(9, budget), 5);
        let (r2, a2) = run_with(RandomizedAdversary::generate(9, budget), 5);
        assert_eq!(a1, a2, "same seeds must replay the same attack");
        assert_eq!(r1, r2, "same seeds must reproduce the same run");
        assert!(!a1.is_empty(), "intensity 0.5 must act on a PBFT run");
    }

    #[test]
    fn scripted_mode_reapplies_the_generated_log() {
        let budget = FuzzBudget::with_intensity(0.5, 64);
        let (r1, a1) = run_with(RandomizedAdversary::generate(9, budget), 5);
        let (r2, a2) = run_with(RandomizedAdversary::scripted(&a1), 5);
        assert_eq!(a1, a2, "script must apply exactly the recorded actions");
        assert_eq!(r1, r2, "scripted replay must reproduce the run");
    }

    #[test]
    fn benign_budget_touches_nothing() {
        let (r, actions) = run_with(
            RandomizedAdversary::generate(9, FuzzBudget::with_intensity(1.0, 0)),
            5,
        );
        assert!(actions.is_empty());
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.dropped_messages, 0);
        assert_eq!(r.adversary_messages, 0);
    }

    #[test]
    fn max_actions_caps_the_attack() {
        let budget = FuzzBudget {
            max_actions: 3,
            ..FuzzBudget::with_intensity(1.0, 3)
        };
        let (_, actions) = run_with(RandomizedAdversary::generate(9, budget), 5);
        assert_eq!(actions.len(), 3);
    }

    #[test]
    fn actions_json_round_trip() {
        let actions = vec![
            FuzzAction {
                index: 0,
                kind: FuzzActionKind::Drop,
            },
            FuzzAction {
                index: 17,
                kind: FuzzActionKind::Delay { extra_micros: 250 },
            },
            FuzzAction {
                index: 99,
                kind: FuzzActionKind::Replay {
                    dst: NodeId::new(3),
                    delay_micros: 1_000,
                },
            },
        ];
        let text = actions_to_json(&actions).dump_pretty();
        let back = actions_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, actions);
    }

    #[test]
    fn actions_json_rejects_garbage() {
        let err = actions_from_json(&Json::parse("[{\"msg_index\": 1}]").unwrap()).unwrap_err();
        assert!(err.contains("entry #0"), "{err}");
        assert!(err.contains("kind"), "{err}");
        let err =
            actions_from_json(&Json::parse("[{\"msg_index\": 1, \"kind\": \"Explode\"}]").unwrap())
                .unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        // A node id above u32 is a corrupt file, not node `id mod 2^32`.
        let err = actions_from_json(
            &Json::parse(
                "[{\"msg_index\": 1, \"kind\": {\"Replay\": {\"dst\": 4294967297, \"delay_micros\": 5}}}]",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("entry #0"), "{err}");
        assert!(err.contains("exceeds the u32 range"), "{err}");
    }
}
