//! Asynchronous binary Byzantine agreement (Bracha-style).
//!
//! A classic randomized binary BA in the spirit of Bracha (Information &
//! Computation '87): no timers, no leader — progress is driven purely by
//! message arrival, so the protocol is immune to the timeout parameter λ
//! (the flat lines in Figs. 4 and 5 of the paper). Termination is
//! probabilistic (expected O(1) rounds) via a common coin, as required by
//! the FLP impossibility result.
//!
//! Each round has two all-to-all voting phases:
//!
//! 1. **Phase 1** — broadcast the current estimate; await `n − f` votes.
//!    Adopt `w = v` if `v` gathered at least `2f + 1` of them, else `w = ⊥`.
//! 2. **Phase 2** — broadcast `w`; await `n − f` votes. If some value `v`
//!    has `2f + 1` phase-2 votes, **decide** `v`; if it has `f + 1`, adopt
//!    it as the next estimate; otherwise flip the common coin.
//!
//! Quorum intersection makes any two non-`⊥` phase-2 values equal, which
//! gives safety; the coin gives convergence. A node keeps participating
//! after deciding so laggards can finish (they decide at most one round
//! later).

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::FastMap;
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::value::Value;

use crate::common::{common_coin, ProtocolParams};

/// Phase-2 vote values: a bit or ⊥.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum P2Vote {
    /// A concrete bit.
    Bit(bool),
    /// No supermajority was observed in phase 1.
    Bot,
}

/// Async BA wire messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BaMsg {
    /// Phase-1 vote: the sender's current estimate for `round`.
    Phase1 {
        /// Round number (from 1).
        round: u64,
        /// The estimate.
        bit: bool,
    },
    /// Phase-2 vote for `round`.
    Phase2 {
        /// Round number.
        round: u64,
        /// The phase-2 value.
        vote: P2Vote,
    },
}

/// Per-round tally of who voted what.
#[derive(Debug, Default)]
struct RoundTally {
    phase1: FastMap<NodeId, bool>,
    phase2: FastMap<NodeId, P2Vote>,
    phase1_done: bool,
    phase2_done: bool,
}

/// One async-BA node.
#[derive(Debug)]
pub(crate) struct AsyncBa {
    params: ProtocolParams,
    /// Current round (starts at 1).
    round: u64,
    /// Current estimate.
    est: bool,
    decided: bool,
    tallies: FastMap<u64, RoundTally>,
}

impl AsyncBa {
    /// Creates a node whose initial estimate is `input`.
    pub(crate) fn new(params: ProtocolParams, input: bool) -> Self {
        AsyncBa {
            params,
            round: 1,
            est: input,
            decided: false,
            tallies: FastMap::default(),
        }
    }

    /// Derives a deterministic mixed input for `node` — roughly half the
    /// nodes start with each bit, which exercises the coin rounds.
    pub(crate) fn default_input(params: ProtocolParams, node: NodeId) -> bool {
        bft_sim_crypto::hash::Digest::of_words(&[
            0x42415f494e505554, // "BA_INPUT"
            params.genesis_seed,
            node.as_u32() as u64,
        ])
        .as_u64()
            & 1
            == 1
    }

    fn start_phase1(&mut self, ctx: &mut Context<'_>) {
        ctx.enter_view(self.round);
        let (round, bit) = (self.round, self.est);
        self.record_p1(ctx.id(), round, bit, ctx);
        ctx.broadcast(BaMsg::Phase1 { round, bit });
    }

    fn record_p1(&mut self, from: NodeId, round: u64, bit: bool, ctx: &mut Context<'_>) {
        if round < self.round {
            return;
        }
        self.tallies
            .entry(round)
            .or_default()
            .phase1
            .insert(from, bit);
        self.maybe_finish_phase1(ctx);
    }

    fn record_p2(&mut self, from: NodeId, round: u64, vote: P2Vote, ctx: &mut Context<'_>) {
        if round < self.round {
            return;
        }
        self.tallies
            .entry(round)
            .or_default()
            .phase2
            .insert(from, vote);
        self.maybe_finish_phase2(ctx);
    }

    fn maybe_finish_phase1(&mut self, ctx: &mut Context<'_>) {
        let need = self.params.honest_quorum();
        let super_majority = self.params.quorum();
        let round = self.round;
        let tally = self.tallies.entry(round).or_default();
        if tally.phase1_done || tally.phase1.len() < need {
            return;
        }
        tally.phase1_done = true;
        let ones = tally.phase1.values().filter(|&&b| b).count();
        let zeros = tally.phase1.len() - ones;
        let w = if ones >= super_majority {
            P2Vote::Bit(true)
        } else if zeros >= super_majority {
            P2Vote::Bit(false)
        } else {
            P2Vote::Bot
        };
        self.record_p2(ctx.id(), round, w, ctx);
        ctx.broadcast(BaMsg::Phase2 { round, vote: w });
        // Phase-2 votes may already be buffered for this round.
        self.maybe_finish_phase2(ctx);
    }

    fn maybe_finish_phase2(&mut self, ctx: &mut Context<'_>) {
        let need = self.params.honest_quorum();
        let super_majority = self.params.quorum();
        let adopt = self.params.one_honest();
        let round = self.round;
        let tally = self.tallies.entry(round).or_default();
        if !tally.phase1_done || tally.phase2_done || tally.phase2.len() < need {
            return;
        }
        tally.phase2_done = true;
        let ones = tally
            .phase2
            .values()
            .filter(|&&v| v == P2Vote::Bit(true))
            .count();
        let zeros = tally
            .phase2
            .values()
            .filter(|&&v| v == P2Vote::Bit(false))
            .count();

        let (winner, count) = if ones >= zeros {
            (true, ones)
        } else {
            (false, zeros)
        };
        if count >= super_majority {
            self.est = winner;
            if !self.decided {
                self.decided = true;
                ctx.report_fmt("ba-decide", format_args!("round={round} bit={winner}"));
                ctx.decide(Value::from_bit(winner));
            }
        } else if count >= adopt {
            self.est = winner;
        } else {
            self.est = common_coin(self.params.genesis_seed, round);
        }

        self.tallies.remove(&round.saturating_sub(2)); // GC old rounds
        self.round = round + 1;
        self.start_phase1(ctx);
    }
}

impl Protocol for AsyncBa {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.start_phase1(ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<BaMsg>() else {
            return;
        };
        match *m {
            BaMsg::Phase1 { round, bit } => self.record_p1(msg.src(), round, bit, ctx),
            BaMsg::Phase2 { round, vote } => self.record_p2(msg.src(), round, vote, ctx),
        }
    }

    fn on_timer(&mut self, _timer: &Timer, _ctx: &mut Context<'_>) {
        // Asynchronous protocol: no timers, by design.
    }

    fn name(&self) -> &'static str {
        "async-ba"
    }
}

/// Factory with mixed default inputs.
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |id| {
        Box::new(AsyncBa::new(params, AsyncBa::default_input(params, id))) as Box<dyn Protocol>
    }
}

/// Async-BA's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["phase1", "phase2"];

/// Classifies a payload into an index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<BaMsg>().map(|m| match m {
        BaMsg::Phase1 { .. } => 0,
        BaMsg::Phase2 { .. } => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::dist::Dist;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::{ConstantNetwork, SampledNetwork};
    use bft_sim_core::time::SimDuration;

    fn cfg(n: usize, seed: u64) -> RunConfig {
        RunConfig::new(n)
            .with_seed(seed)
            .with_time_cap(SimDuration::from_secs(300.0))
    }

    #[test]
    fn unanimous_inputs_decide_in_one_round() {
        let c = cfg(4, 1);
        let params = ProtocolParams::new(c.n, c.f, 9);
        let r = SimulationBuilder::new(c)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .protocols(move |_id| Box::new(AsyncBa::new(params, true)) as Box<dyn Protocol>)
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        for seq in &r.decided {
            assert_eq!(seq[0].1, Value::ONE, "validity: unanimous input decided");
        }
        // Two phases of 100 ms each.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 200.0);
    }

    #[test]
    fn mixed_inputs_converge_probabilistically() {
        for seed in 0..5 {
            let c = cfg(7, seed);
            let params = ProtocolParams::new(c.n, c.f, seed);
            let r = SimulationBuilder::new(c)
                .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
                .protocols(factory(params))
                .build()
                .unwrap()
                .run();
            assert!(r.is_clean(), "seed {seed}: {:?}", r.safety_violation);
            assert_eq!(r.decisions_completed(), 1, "seed {seed} did not decide");
        }
    }

    #[test]
    fn lambda_has_no_effect() {
        let mk = |lambda: f64| {
            let c = cfg(4, 3).with_lambda_ms(lambda);
            let params = ProtocolParams::new(c.n, c.f, 5);
            SimulationBuilder::new(c)
                .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
                .protocols(factory(params))
                .build()
                .unwrap()
                .run()
        };
        let a = mk(150.0);
        let b = mk(3000.0);
        assert_eq!(a.end_time, b.end_time, "async BA must ignore λ");
    }

    #[test]
    fn all_nodes_decide_the_same_bit() {
        let c = cfg(10, 4);
        let params = ProtocolParams::new(c.n, c.f, 77);
        let r = SimulationBuilder::new(c)
            .network(SampledNetwork::new(Dist::normal(100.0, 30.0)))
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean());
        let v = r.decided[0][0].1;
        for seq in &r.decided {
            assert_eq!(seq[0].1, v);
        }
    }

    #[test]
    fn tolerates_f_crashed_nodes() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashF;
        impl Adversary for CrashF {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                for i in 0..api.f() as u32 {
                    assert!(api.crash(NodeId::new(i)));
                }
            }
        }
        let c = cfg(7, 6);
        let params = ProtocolParams::new(c.n, c.f, 8);
        let r = SimulationBuilder::new(c)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(CrashF)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
    }
}
