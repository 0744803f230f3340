//! Algorand Agreement (Chen–Gorbunov–Micali–Vlachos, ePrint 2018/377).
//!
//! A synchronous, *partition-resilient* Byzantine agreement: execution is
//! organised in **periods**, each a fixed schedule of λ-paced steps:
//!
//! 1. **Propose** (period start) — every node broadcasts a value proposal
//!    carrying its VRF credential; the proposal with the lowest credential is
//!    the period's leader value.
//! 2. **Soft-vote** (at `2λ`) — vote for the leader value (or for the value
//!    the node is locked on from an earlier period).
//! 3. **Cert-vote** (from `4λ`) — on a `2f + 1` soft-vote quorum for `v`,
//!    cert-vote `v`; a `2f + 1` cert-vote quorum **decides** `v`.
//! 4. **Next-vote** (at `4λ`, repeating every `2λ`) — vote to move on,
//!    carrying `v` if a soft/cert quorum for `v` was seen, else ⊥; a
//!    `2f + 1` next-vote quorum enters the next period. Nodes that voted ⊥
//!    switch to `v` once `f + 1` next-votes for `v` are seen, so split
//!    next-votes always converge.
//!
//! Because steps are timer-paced, latency scales with λ (the protocol is
//! *not* responsive — Fig. 4 of the paper), but the repeating next-vote
//! exchange lets partitioned groups re-merge as soon as the network heals
//! (Fig. 6): quorums simply could not form while the partition was up.

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::FastMap;
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::SignerSet;
use bft_sim_crypto::vrf::{evaluate, VrfOutput};

use crate::common::ProtocolParams;

/// Digest used to encode a ⊥ next-vote.
fn bot() -> Digest {
    Digest::of_bytes(b"algorand-bot")
}

/// Algorand wire messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AlgoMsg {
    /// Period-start value proposal with VRF credential.
    Proposal {
        /// Period number (from 1).
        period: u64,
        /// Proposed value.
        value: Digest,
        /// The sender's sortition credential.
        cred: VrfOutput,
    },
    /// Soft-vote for `value` in `period`.
    Soft {
        /// Period.
        period: u64,
        /// Voted value.
        value: Digest,
    },
    /// Cert-vote for `value` in `period`.
    Cert {
        /// Period.
        period: u64,
        /// Voted value.
        value: Digest,
    },
    /// Next-vote: move past `period`, optionally carrying a safe value.
    Next {
        /// Period.
        period: u64,
        /// The safe value, or the ⊥ digest when none was certified.
        value: Digest,
    },
}

/// Step timers within a period.
#[derive(Debug, Clone, PartialEq)]
enum AlgoStep {
    /// Fires at `2λ`: cast the soft-vote.
    Soft { period: u64 },
    /// Fires at `4λ` and then every `2λ`: cast/refresh the next-vote.
    Next { period: u64 },
}

/// Per-period vote bookkeeping.
#[derive(Debug, Default)]
struct PeriodState {
    proposals: Vec<(VrfOutput, Digest)>,
    soft: FastMap<Digest, SignerSet>,
    cert: FastMap<Digest, SignerSet>,
    next: FastMap<Digest, SignerSet>,
    soft_voted: bool,
    cert_voted: bool,
    next_voted_value: Option<Digest>,
}

/// One Algorand node.
#[derive(Debug)]
pub(crate) struct Algorand {
    params: ProtocolParams,
    period: u64,
    /// Value locked by a next-vote certificate from an earlier period.
    locked: Option<Digest>,
    /// This node's input value.
    input: Digest,
    periods: FastMap<u64, PeriodState>,
    decided: bool,
}

impl Algorand {
    /// Creates a node; its input value is derived from its id.
    pub(crate) fn new(params: ProtocolParams, id: NodeId) -> Self {
        Algorand {
            params,
            period: 0,
            locked: None,
            input: Digest::of_words(&[0x414c474f5f494e, params.genesis_seed, id.as_u32() as u64]),
            periods: FastMap::default(),
            decided: false,
        }
    }

    fn quorum(&self) -> usize {
        self.params.quorum()
    }

    fn enter_period(&mut self, period: u64, ctx: &mut Context<'_>) {
        debug_assert!(period > self.period);
        self.period = period;
        self.periods.remove(&period.saturating_sub(3)); // GC
        ctx.enter_view(period);
        if self.decided {
            return; // keep answering messages, stop driving new periods
        }
        // Step 1: propose (everyone proposes; lowest credential leads).
        let value = self.locked.unwrap_or(self.input);
        let cred = evaluate(self.params.genesis_seed, ctx.id(), period);
        let prop = AlgoMsg::Proposal {
            period,
            value,
            cred,
        };
        self.record_proposal(period, cred, value);
        ctx.broadcast(prop);
        // Schedule the step timers.
        let lambda = ctx.lambda();
        ctx.set_timer(lambda.saturating_mul(2), AlgoStep::Soft { period });
        ctx.set_timer(lambda.saturating_mul(4), AlgoStep::Next { period });
    }

    fn record_proposal(&mut self, period: u64, cred: VrfOutput, value: Digest) {
        if cred.verify(self.params.genesis_seed) {
            self.periods
                .entry(period)
                .or_default()
                .proposals
                .push((cred, value));
        }
    }

    /// The leader value of a period: the proposal with the lowest verified
    /// credential.
    fn leader_value(&self, period: u64) -> Option<Digest> {
        self.periods.get(&period).and_then(|st| {
            st.proposals
                .iter()
                .min_by_key(|(c, _)| (c.value(), c.node()))
                .map(|&(_, v)| v)
        })
    }

    fn cast_soft(&mut self, period: u64, ctx: &mut Context<'_>) {
        if period != self.period {
            return;
        }
        let st = self.periods.entry(period).or_default();
        if st.soft_voted {
            return;
        }
        st.soft_voted = true;
        let value = match self.locked {
            Some(v) => Some(v),
            None => self.leader_value(period),
        };
        let Some(value) = value else { return };
        let me = ctx.id();
        self.tally_soft(me, period, value, ctx);
        ctx.broadcast(AlgoMsg::Soft { period, value });
    }

    fn tally_soft(&mut self, from: NodeId, period: u64, value: Digest, ctx: &mut Context<'_>) {
        let q = self.quorum();
        let st = self.periods.entry(period).or_default();
        st.soft.entry(value).or_default().insert(from);
        let soft_count = st.soft[&value].len();
        // Cert-vote as soon as a soft quorum appears (within this period).
        if soft_count >= q && period == self.period && !st.cert_voted {
            st.cert_voted = true;
            let me = ctx.id();
            self.tally_cert(me, period, value, ctx);
            ctx.broadcast(AlgoMsg::Cert { period, value });
        }
    }

    fn tally_cert(&mut self, from: NodeId, period: u64, value: Digest, ctx: &mut Context<'_>) {
        let q = self.quorum();
        let st = self.periods.entry(period).or_default();
        st.cert.entry(value).or_default().insert(from);
        if st.cert[&value].len() >= q && !self.decided {
            self.decided = true;
            ctx.report_fmt("algo-decide", format_args!("period={period}"));
            ctx.decide(Value::new(value.as_u64()));
        }
    }

    fn cast_next(&mut self, period: u64, ctx: &mut Context<'_>) {
        if period != self.period || self.decided {
            return;
        }
        let q = self.quorum();
        let st = self.periods.entry(period).or_default();
        // Prefer a value we saw a soft quorum for (it is safe to carry).
        let safe = st
            .soft
            .iter()
            .find(|(_, signers)| signers.len() >= q)
            .map(|(&v, _)| v);
        let value = safe.or(self.locked).unwrap_or_else(bot);
        let me = ctx.id();
        // Force: re-broadcast even when unchanged, so votes lost to a
        // partition are retransmitted after it heals (receivers dedupe).
        self.send_next(me, period, value, true, ctx);
        // Re-run the next-vote step until the period advances (handles
        // splits and partitions).
        ctx.set_timer(ctx.lambda().saturating_mul(2), AlgoStep::Next { period });
    }

    fn send_next(
        &mut self,
        me: NodeId,
        period: u64,
        value: Digest,
        force: bool,
        ctx: &mut Context<'_>,
    ) {
        {
            let st = self.periods.entry(period).or_default();
            if st.next_voted_value == Some(value) && !force {
                return; // identical refresh: peers already have it
            }
            st.next_voted_value = Some(value);
        }
        self.tally_next(me, period, value, ctx);
        ctx.broadcast(AlgoMsg::Next { period, value });
    }

    fn tally_next(&mut self, from: NodeId, period: u64, value: Digest, ctx: &mut Context<'_>) {
        if period < self.period {
            return;
        }
        let q = self.quorum();
        let adopt = self.params.one_honest();
        let st = self.periods.entry(period).or_default();
        st.next.entry(value).or_default().insert(from);
        let count = st.next[&value].len();

        // Amplification: a ⊥-voter switches to v once f + 1 carry v.
        if value != bot()
            && count >= adopt
            && period == self.period
            && st.next_voted_value == Some(bot())
        {
            let me = ctx.id();
            self.send_next(me, period, value, false, ctx);
        }

        let st = self.periods.entry(period).or_default();
        if st.next[&value].len() >= q && period >= self.period {
            if value != bot() {
                self.locked = Some(value);
            }
            ctx.report_fmt("algo-advance", format_args!("from={period}"));
            self.enter_period(period + 1, ctx);
        }
    }
}

impl Protocol for Algorand {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.enter_period(1, ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<AlgoMsg>() else {
            return;
        };
        match *m {
            AlgoMsg::Proposal {
                period,
                value,
                cred,
            } => {
                if cred.node() == msg.src() && cred.input() == period {
                    self.record_proposal(period, cred, value);
                }
            }
            AlgoMsg::Soft { period, value } => self.tally_soft(msg.src(), period, value, ctx),
            AlgoMsg::Cert { period, value } => self.tally_cert(msg.src(), period, value, ctx),
            AlgoMsg::Next { period, value } => self.tally_next(msg.src(), period, value, ctx),
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let Some(step) = timer.downcast_ref::<AlgoStep>() else {
            return;
        };
        match *step {
            AlgoStep::Soft { period } => self.cast_soft(period, ctx),
            AlgoStep::Next { period } => self.cast_next(period, ctx),
        }
    }

    fn name(&self) -> &'static str {
        "algorand"
    }
}

/// Factory producing Algorand nodes.
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |id| Box::new(Algorand::new(params, id)) as Box<dyn Protocol>
}
/// Algorand's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["proposal", "soft", "cert", "next"];

/// Classifies a payload into Algorand's index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<AlgoMsg>().map(|m| match m {
        AlgoMsg::Proposal { .. } => 0,
        AlgoMsg::Soft { .. } => 1,
        AlgoMsg::Cert { .. } => 2,
        AlgoMsg::Next { .. } => 3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;
    use bft_sim_core::trace::TraceLevel;

    fn run(n: usize, delay_ms: f64, lambda_ms: f64) -> bft_sim_core::metrics::RunResult {
        let cfg = RunConfig::new(n)
            .with_seed(5)
            .with_lambda_ms(lambda_ms)
            .with_time_cap(SimDuration::from_secs(600.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 13);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(delay_ms)))
            .protocols(factory(params))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn decides_in_first_period_on_good_network() {
        let r = run(4, 100.0, 1000.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // Soft at 2λ, cert right after soft quorum: well under one period.
        assert!(r.latency().unwrap().as_secs_f64() < 4.0);
    }

    #[test]
    fn latency_scales_with_lambda_not_network() {
        let slow_lambda = run(4, 100.0, 2000.0);
        let fast_lambda = run(4, 100.0, 1000.0);
        assert!(
            slow_lambda.latency().unwrap() > fast_lambda.latency().unwrap(),
            "Algorand is timer-paced: bigger λ must cost latency"
        );
    }

    #[test]
    fn all_nodes_agree_on_the_leader_value() {
        let r = run(16, 100.0, 1000.0);
        assert!(r.is_clean());
        let v = r.decided[0][0].1;
        for seq in &r.decided {
            assert_eq!(seq[0].1, v);
        }
    }

    #[test]
    fn tolerates_f_crashes() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashF;
        impl Adversary for CrashF {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                for i in 0..api.f() as u32 {
                    assert!(api.crash(NodeId::new(i)));
                }
            }
        }
        let cfg = RunConfig::new(10)
            .with_seed(5)
            .with_lambda_ms(1000.0)
            .with_time_cap(SimDuration::from_secs(600.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 13);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(CrashF)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
    }

    #[test]
    fn periods_advance_when_a_quorum_cannot_certify() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
        use bft_sim_core::message::Message;
        // Drop all proposals in period 1 so no value can be soft-voted;
        // nodes must next-vote ⊥ and enter period 2.
        struct DropP1Proposals;
        impl Adversary for DropP1Proposals {
            fn attack(
                &mut self,
                msg: &mut Message,
                proposed: SimDuration,
                _api: &mut AdversaryApi<'_>,
            ) -> Fate {
                if let Some(AlgoMsg::Proposal { period: 1, .. }) = msg.downcast_ref::<AlgoMsg>() {
                    Fate::Drop
                } else {
                    Fate::Deliver(proposed)
                }
            }
        }
        let cfg = RunConfig::new(4)
            .with_seed(5)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(600.0))
            .with_trace(TraceLevel::Events);
        let params = ProtocolParams::new(cfg.n, cfg.f, 13);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(DropP1Proposals)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        assert!(
            !r.trace.custom("algo-advance").is_empty(),
            "period must have advanced past the jammed one"
        );
    }
}
