//! Tendermint consensus (Buchman–Kwon–Milosevic, "The latest gossip on BFT
//! consensus", 2018) — an *extension* beyond the paper's Table I (the paper
//! cites Tendermint as an early PBFT adopter and a newer blockchain
//! protocol; it is the natural ninth protocol for this simulator).
//!
//! Tendermint runs heights (consensus instances); each height proceeds in
//! rounds of three steps — `propose`, `prevote`, `precommit` — with
//! per-step timeouts that grow with the round number. Safety comes from
//! value locking: a node that precommits `v` in round `r` locks `(v, r)`
//! and only prevotes a different value after seeing a newer *polka*
//! (`2f + 1` prevotes) for it. A node that gathers `f + 1` messages from a
//! higher round skips ahead — Tendermint's gossip-style round catch-up,
//! which gives it LibraBFT-like resilience to timeout mis-estimation.

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::FastMap;
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::time::SimDuration;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::SignerSet;

use crate::common::{round_robin_leader, ProtocolParams};

/// The nil vote (no acceptable proposal seen in time).
fn nil() -> Digest {
    Digest::of_bytes(b"tendermint-nil")
}

/// Tendermint wire messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TmMsg {
    /// The round proposer's value announcement.
    Proposal {
        /// Height.
        height: u64,
        /// Round.
        round: u64,
        /// Proposed value.
        value: Digest,
        /// The round of the polka justifying a re-proposal (`u64::MAX` if
        /// fresh).
        valid_round: u64,
    },
    /// First voting step.
    Prevote {
        /// Height.
        height: u64,
        /// Round.
        round: u64,
        /// Voted value (or the nil digest).
        value: Digest,
    },
    /// Second voting step.
    Precommit {
        /// Height.
        height: u64,
        /// Round.
        round: u64,
        /// Voted value (or the nil digest).
        value: Digest,
    },
}

/// Step timers.
#[derive(Debug, Clone, PartialEq)]
enum TmTimeout {
    /// No proposal arrived in time: prevote nil.
    Propose { height: u64, round: u64 },
    /// Prevotes are split: precommit nil.
    Prevote { height: u64, round: u64 },
    /// Precommits are split: next round.
    Precommit { height: u64, round: u64 },
    /// Periodic vote gossip: Tendermint's transport re-gossips votes, which
    /// is what re-synchronises the system after a partition heals.
    Gossip { height: u64, round: u64 },
}

#[derive(Debug, Default)]
struct RoundTally {
    proposal: Option<(Digest, u64)>,
    prevotes: FastMap<Digest, SignerSet>,
    prevote_total: SignerSet,
    precommits: FastMap<Digest, SignerSet>,
    precommit_total: SignerSet,
    prevoted: bool,
    precommitted: bool,
    prevote_timer_armed: bool,
}

/// One Tendermint node.
#[derive(Debug)]
pub(crate) struct Tendermint {
    params: ProtocolParams,
    height: u64,
    round: u64,
    /// Value/round this node is locked on.
    locked: Option<(Digest, u64)>,
    /// Latest polka value/round (candidate for re-proposals).
    valid: Option<(Digest, u64)>,
    tallies: FastMap<(u64, u64), RoundTally>,
    /// Distinct senders seen per (height, round) for the f+1 skip rule.
    round_presence: FastMap<(u64, u64), SignerSet>,
    decided_height: u64,
}

impl Tendermint {
    /// Creates a node.
    pub(crate) fn new(params: ProtocolParams) -> Self {
        Tendermint {
            params,
            height: 1,
            round: 0,
            locked: None,
            valid: None,
            tallies: FastMap::default(),
            round_presence: FastMap::default(),
            decided_height: 0,
        }
    }

    fn proposer(&self, height: u64, round: u64) -> NodeId {
        round_robin_leader(height.wrapping_add(round), self.params.n)
    }

    /// Tendermint's growing step timeout: λ · (1 + round/2).
    fn step_timeout(&self, ctx: &Context<'_>) -> SimDuration {
        let base = ctx.lambda().as_micros();
        SimDuration::from_micros(base + base.saturating_mul(self.round) / 2)
    }

    fn fresh_value(&self, height: u64, round: u64) -> Digest {
        Digest::of_words(&[0x544d5f56414c, self.params.genesis_seed, height, round])
    }

    fn start_round(&mut self, round: u64, ctx: &mut Context<'_>) {
        self.round = round;
        ctx.enter_view(round);
        let height = self.height;
        // Arm the gossip tick for this round (Tendermint's vote gossip).
        ctx.set_timer(
            self.step_timeout(ctx).saturating_mul(2),
            TmTimeout::Gossip { height, round },
        );
        if self.proposer(height, round) == ctx.id() {
            // Re-propose the latest polka value if one exists.
            let (value, valid_round) = match self.valid {
                Some((v, r)) => (v, r),
                None => (self.fresh_value(height, round), u64::MAX),
            };
            ctx.report_fmt("tm-propose", format_args!("h={height} r={round}"));
            let msg = TmMsg::Proposal {
                height,
                round,
                value,
                valid_round,
            };
            self.on_proposal(ctx.id(), height, round, value, valid_round, ctx);
            ctx.broadcast(msg);
        } else {
            ctx.set_timer(self.step_timeout(ctx), TmTimeout::Propose { height, round });
        }
    }

    fn note_presence(&mut self, from: NodeId, height: u64, round: u64, ctx: &mut Context<'_>) {
        if height != self.height || round <= self.round {
            return;
        }
        let set = self.round_presence.entry((height, round)).or_default();
        set.insert(from);
        // f + 1 distinct voices from a higher round: skip ahead (the
        // Tendermint catch-up rule).
        if set.len() >= self.params.one_honest() {
            ctx.report_fmt("tm-skip", format_args!("to={round}"));
            self.start_round(round, ctx);
            self.recheck(height, round, ctx);
        }
    }

    /// The value this node already voted in `(height, round)`, recovered
    /// from the tally containing its own signature.
    fn my_vote(&self, height: u64, round: u64, prevote: bool, ctx: &Context<'_>) -> Option<Digest> {
        let tally = self.tallies.get(&(height, round))?;
        let map = if prevote {
            &tally.prevotes
        } else {
            &tally.precommits
        };
        let me = ctx.id();
        map.iter().find(|(_, s)| s.contains(me)).map(|(&v, _)| v)
    }

    fn prevote(&mut self, value: Digest, ctx: &mut Context<'_>) {
        let (height, round) = (self.height, self.round);
        let tally = self.tallies.entry((height, round)).or_default();
        if tally.prevoted {
            return;
        }
        tally.prevoted = true;
        self.tally_prevote(ctx.id(), height, round, value, ctx);
        ctx.broadcast(TmMsg::Prevote {
            height,
            round,
            value,
        });
    }

    fn precommit(&mut self, value: Digest, ctx: &mut Context<'_>) {
        let (height, round) = (self.height, self.round);
        let tally = self.tallies.entry((height, round)).or_default();
        if tally.precommitted {
            return;
        }
        tally.precommitted = true;
        self.tally_precommit(ctx.id(), height, round, value, ctx);
        ctx.broadcast(TmMsg::Precommit {
            height,
            round,
            value,
        });
    }

    fn on_proposal(
        &mut self,
        src: NodeId,
        height: u64,
        round: u64,
        value: Digest,
        valid_round: u64,
        ctx: &mut Context<'_>,
    ) {
        if height != self.height || src != self.proposer(height, round) {
            return;
        }
        self.tallies.entry((height, round)).or_default().proposal = Some((value, valid_round));
        if round != self.round {
            self.note_presence(src, height, round, ctx);
            return;
        }
        self.try_prevote_on_proposal(height, round, ctx);
    }

    fn try_prevote_on_proposal(&mut self, height: u64, round: u64, ctx: &mut Context<'_>) {
        let Some((value, valid_round)) =
            self.tallies.get(&(height, round)).and_then(|t| t.proposal)
        else {
            return;
        };
        // Locking rule: accept the proposal if we are unlocked, locked on
        // the same value, or it carries a polka newer than our lock.
        let acceptable = match self.locked {
            None => true,
            Some((lv, _)) if lv == value => true,
            Some((_, lr)) => valid_round != u64::MAX && valid_round > lr,
        };
        let vote = if acceptable { value } else { nil() };
        self.prevote(vote, ctx);
    }

    fn tally_prevote(
        &mut self,
        from: NodeId,
        height: u64,
        round: u64,
        value: Digest,
        ctx: &mut Context<'_>,
    ) {
        if height != self.height {
            return;
        }
        let q = self.params.quorum();
        let tally = self.tallies.entry((height, round)).or_default();
        tally.prevotes.entry(value).or_default().insert(from);
        tally.prevote_total.insert(from);
        let polka = tally.prevotes[&value].len() >= q && value != nil();
        let any_quorum = tally.prevote_total.len() >= q;
        let arm_split_timer = any_quorum && !tally.prevote_timer_armed && round == self.round;
        if arm_split_timer {
            tally.prevote_timer_armed = true;
        }

        if polka {
            // A polka for `value`: update valid, and if this is our round
            // and we have the proposal, lock + precommit.
            if self.valid.is_none_or(|(_, r)| round > r) {
                self.valid = Some((value, round));
            }
            if round == self.round {
                if self.locked.is_none_or(|(_, r)| round >= r) {
                    self.locked = Some((value, round));
                }
                ctx.report_fmt("tm-polka", format_args!("h={height} r={round}"));
                self.precommit(value, ctx);
            }
        }
        if arm_split_timer {
            let t = self.step_timeout(ctx);
            ctx.set_timer(t, TmTimeout::Prevote { height, round });
        }
        if round > self.round {
            self.note_presence(from, height, round, ctx);
        }
    }

    fn tally_precommit(
        &mut self,
        from: NodeId,
        height: u64,
        round: u64,
        value: Digest,
        ctx: &mut Context<'_>,
    ) {
        if height != self.height {
            return;
        }
        let q = self.params.quorum();
        let tally = self.tallies.entry((height, round)).or_default();
        tally.precommits.entry(value).or_default().insert(from);
        tally.precommit_total.insert(from);
        let committed = value != nil() && tally.precommits[&value].len() >= q;
        let any_quorum = tally.precommit_total.len() >= q;

        if committed {
            ctx.report_fmt("tm-commit", format_args!("h={height} r={round}"));
            ctx.decide(Value::new(value.as_u64()));
            self.decided_height = height;
            // Next height: clear per-height state.
            self.height = height + 1;
            self.locked = None;
            self.valid = None;
            self.tallies.retain(|&(h, _), _| h > height);
            self.round_presence.retain(|&(h, _), _| h > height);
            self.start_round(0, ctx);
            return;
        }
        if any_quorum && round == self.round {
            // Full precommit quorum without agreement: move on after the
            // precommit timeout.
            let t = self.step_timeout(ctx);
            ctx.set_timer(t, TmTimeout::Precommit { height, round });
        }
        if round > self.round {
            self.note_presence(from, height, round, ctx);
        }
    }

    /// After a round skip, re-evaluate everything already tallied there.
    fn recheck(&mut self, height: u64, round: u64, ctx: &mut Context<'_>) {
        self.try_prevote_on_proposal(height, round, ctx);
        let prevote_values: Vec<Digest> = self
            .tallies
            .get(&(height, round))
            .map(|t| t.prevotes.keys().copied().collect())
            .unwrap_or_default();
        for v in prevote_values {
            // Re-run quorum checks with a no-op insert (idempotent).
            if let Some(signer) = self
                .tallies
                .get(&(height, round))
                .and_then(|t| t.prevotes[&v].iter().next())
            {
                self.tally_prevote(signer, height, round, v, ctx);
            }
        }
    }
}

impl Protocol for Tendermint {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.start_round(0, ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<TmMsg>() else {
            return;
        };
        match *m {
            TmMsg::Proposal {
                height,
                round,
                value,
                valid_round,
            } => self.on_proposal(msg.src(), height, round, value, valid_round, ctx),
            TmMsg::Prevote {
                height,
                round,
                value,
            } => self.tally_prevote(msg.src(), height, round, value, ctx),
            TmMsg::Precommit {
                height,
                round,
                value,
            } => self.tally_precommit(msg.src(), height, round, value, ctx),
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let Some(t) = timer.downcast_ref::<TmTimeout>() else {
            return;
        };
        match *t {
            TmTimeout::Propose { height, round } => {
                if height == self.height && round == self.round {
                    // No proposal in time: prevote nil.
                    self.prevote(nil(), ctx);
                }
            }
            TmTimeout::Prevote { height, round } => {
                if height == self.height && round == self.round {
                    self.precommit(nil(), ctx);
                }
            }
            TmTimeout::Precommit { height, round } => {
                if height == self.height && round == self.round {
                    self.start_round(round + 1, ctx);
                }
            }
            TmTimeout::Gossip { height, round } => {
                if height == self.height && round == self.round {
                    // Still stuck in the same round: re-gossip the votes we
                    // already cast (receivers deduplicate by signer) and
                    // re-arm. After a healed partition this is what merges
                    // the two halves' vote sets.
                    let tally = self.tallies.entry((height, round)).or_default();
                    let (prevoted, precommitted) = (tally.prevoted, tally.precommitted);
                    let my_prevote = prevoted.then(|| self.my_vote(height, round, true, ctx));
                    let my_precommit =
                        precommitted.then(|| self.my_vote(height, round, false, ctx));
                    if let Some(Some(value)) = my_prevote {
                        ctx.broadcast(TmMsg::Prevote {
                            height,
                            round,
                            value,
                        });
                    }
                    if let Some(Some(value)) = my_precommit {
                        ctx.broadcast(TmMsg::Precommit {
                            height,
                            round,
                            value,
                        });
                    }
                    ctx.set_timer(
                        self.step_timeout(ctx).saturating_mul(2),
                        TmTimeout::Gossip { height, round },
                    );
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "tendermint"
    }
}

/// Factory producing Tendermint nodes.
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(Tendermint::new(params)) as Box<dyn Protocol>
}

/// Tendermint's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["proposal", "prevote", "precommit"];

/// Classifies a payload into an index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<TmMsg>().map(|m| match m {
        TmMsg::Proposal { .. } => 0,
        TmMsg::Prevote { .. } => 1,
        TmMsg::Precommit { .. } => 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;

    fn run(
        n: usize,
        decisions: u64,
        delay_ms: f64,
        lambda_ms: f64,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = RunConfig::new(n)
            .with_seed(13)
            .with_lambda_ms(lambda_ms)
            .with_target_decisions(decisions)
            .with_time_cap(SimDuration::from_secs(600.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 5);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(delay_ms)))
            .protocols(factory(params))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn decides_one_height_in_three_hops() {
        let r = run(4, 1, 100.0, 1000.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // Proposal + prevote + precommit = 3 hops of 100 ms.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 300.0);
    }

    #[test]
    fn decides_multiple_heights() {
        let r = run(7, 5, 50.0, 1000.0);
        assert!(r.is_clean());
        assert_eq!(r.decisions_completed(), 5);
        for seq in &r.decided {
            assert_eq!(seq.len(), 5);
        }
    }

    #[test]
    fn crashed_proposer_is_skipped_by_nil_round() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashP0;
        impl Adversary for CrashP0 {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                // Height 1 round 0 proposer = (1 + 0) % n = node 1.
                assert!(api.crash(NodeId::new(1)));
            }
        }
        let cfg = RunConfig::new(4)
            .with_seed(13)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 5);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(CrashP0)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // The nil round costs at least the propose timeout.
        assert!(r.latency().unwrap().as_millis_f64() > 500.0);
    }

    #[test]
    fn responsive_in_the_happy_path() {
        let a = run(4, 3, 100.0, 1000.0);
        let b = run(4, 3, 100.0, 3000.0);
        assert_eq!(a.end_time, b.end_time, "λ must not matter when all is well");
    }

    #[test]
    fn underestimated_lambda_recovers_via_round_skips() {
        let r = run(4, 1, 100.0, 40.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        assert!(
            r.latency().unwrap().as_secs_f64() < 10.0,
            "rounds with growing timeouts should converge quickly: {}",
            r.latency().unwrap()
        );
    }
}
