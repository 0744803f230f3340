//! LibraBFT (a.k.a. DiemBFT): chained HotStuff with a certificate-based
//! pacemaker.
//!
//! The consensus core is the same chained, pipelined HotStuff used by
//! [`crate::hotstuff`], stated once in [`crate::chain`] — the difference, and
//! the reason LibraBFT behaves so much better when the network misbehaves
//! (Figs. 5 and 6 of the paper), is the round-synchronisation mechanism this
//! file holds: when a node's round timer expires it **broadcasts a timeout
//! vote**; `2f + 1` timeout votes form a *timeout certificate* (TC) that
//! moves every node that observes it into the next round together, resetting
//! its timer interval to λ. `f + 1` timeout votes for a higher round make a
//! lagging node join the timeout (Bracha-style amplification). Any QC for the
//! current round or later moves the node past it, and proposals from rounds
//! ahead are buffered, not dropped. This bounds how far apart honest nodes
//! can drift once the network delivers within a bound — LibraBFT guarantees
//! a termination bound after GST, where HotStuff+NS does not.

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::{FastMap, FastSet};
use bft_sim_core::ids::{NodeId, TimerId};
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::{QuorumCert, VoteTracker};
use bft_sim_crypto::signature::{sign, Signature};

use crate::chain::{BlockInfo, Chain, Parked, ProposalBlock};
use crate::common::{round_robin_leader, ProtocolParams, VoteDigestMemo};

const BLOCK_TAG: u64 = 0x4c425f424c4f434b; // "LB_BLOCK"
const PHASE_LIBRA_VOTE: u8 = 20;
const PHASE_LIBRA_TIMEOUT: u8 = 21;

/// LibraBFT wire messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LibraMsg {
    /// Leader proposal with its justifying QC.
    Proposal {
        /// The proposed block.
        block: ProposalBlock,
        /// QC justifying it.
        justify: QuorumCert,
    },
    /// Block vote, sent to the next round's leader.
    Vote {
        /// Round of the voted block.
        round: u64,
        /// Voted block digest.
        digest: Digest,
        /// Vote signature.
        sig: Signature,
    },
    /// Broadcast when a node's round timer expires.
    TimeoutVote {
        /// The round that timed out.
        round: u64,
        /// The sender's highest QC, letting laggards catch up.
        high_qc: QuorumCert,
        /// Vote signature.
        sig: Signature,
    },
    /// Request for a missing block (chain sync).
    SyncReq {
        /// Wanted block digest.
        digest: Digest,
    },
    /// Response with block metadata.
    SyncResp {
        /// Block digest.
        digest: Digest,
        /// Its metadata.
        info: BlockInfo,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct RoundTimeout {
    round: u64,
}

/// One LibraBFT replica.
#[derive(Debug)]
pub(crate) struct LibraBft {
    params: ProtocolParams,
    round: u64,
    chain: Chain<LibraMsg>,
    timeout_votes: VoteTracker,
    /// Rounds this node already broadcast a timeout vote for.
    timeout_voted: FastSet<u64>,
    /// Proposals from rounds ahead of ours, by round.
    pending: FastMap<u64, Vec<Parked>>,
    timer: Option<TimerId>,
    /// The signed digest of a timeout vote, hashed once per round rather
    /// than once per vote counted.
    timeout_digests: VoteDigestMemo,
}

impl LibraBft {
    /// Creates a replica.
    pub(crate) fn new(params: ProtocolParams) -> Self {
        LibraBft {
            params,
            round: 1,
            chain: Chain::new(params.quorum(), BLOCK_TAG, PHASE_LIBRA_VOTE, |digest| {
                LibraMsg::SyncReq { digest }
            }),
            timeout_votes: VoteTracker::new(params.quorum()),
            timeout_voted: FastSet::default(),
            pending: FastMap::default(),
            timer: None,
            timeout_digests: VoteDigestMemo::default(),
        }
    }

    fn leader(&self, round: u64) -> NodeId {
        round_robin_leader(round, self.params.n)
    }

    fn restart_timer(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        // DiemBFT-style exponential back-off keyed to the number of rounds
        // since the last commit: steady-state pipelining keeps the distance
        // small (interval a few λ); a stretch without commits grows it.
        let behind = self
            .round
            .saturating_sub(self.chain.last_committed_view())
            .saturating_sub(1)
            .min(16) as u32;
        let interval = ctx.lambda().saturating_shl(behind);
        self.timer = Some(ctx.set_timer(interval, RoundTimeout { round: self.round }));
    }

    /// Advances into `round`. The back-off is recomputed from the commit
    /// distance — rounds that advance via QC while commits keep pace get a
    /// short timer again (unlike the naive synchronizer, which never
    /// shrinks its interval).
    fn enter_round(&mut self, round: u64, ctx: &mut Context<'_>) {
        debug_assert!(round > self.round);
        self.round = round;
        self.timeout_votes.prune_below(round.saturating_sub(2));
        self.chain.enter_view(round);
        ctx.enter_view(round);
        self.restart_timer(ctx);
        if self.leader(round) == ctx.id() {
            self.propose(ctx);
        }
        self.drain_pending(ctx);
        for (src, block, justify) in self.chain.take_parked() {
            self.handle_proposal(src, block, &justify, ctx);
        }
    }

    fn drain_pending(&mut self, ctx: &mut Context<'_>) {
        let ready: Vec<u64> = self
            .pending
            .keys()
            .copied()
            .filter(|&r| r <= self.round)
            .collect();
        for r in ready {
            if let Some(list) = self.pending.remove(&r) {
                for (src, block, justify) in list {
                    self.handle_proposal(src, block, &justify, ctx);
                }
            }
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_>) {
        let Some(block) = self.chain.next_block(self.round, ctx) else {
            return;
        };
        ctx.report_fmt(
            "propose",
            format_args!("round={} height={}", block.view, block.height),
        );
        let justify = self.chain.high_qc().clone();
        ctx.broadcast(LibraMsg::Proposal {
            block,
            justify: justify.clone(),
        });
        let me = ctx.id();
        self.handle_proposal(me, block, &justify, ctx);
    }

    fn process_qc(&mut self, qc: &QuorumCert, src: NodeId, ctx: &mut Context<'_>) {
        if self.chain.absorb_qc(qc, src, ctx) {
            self.catch_up(qc.view, ctx);
        }
    }

    /// A valid QC for this round or later moves us past it — the catch-up
    /// from observed certificates that HotStuff+NS lacks.
    fn catch_up(&mut self, qc_view: u64, ctx: &mut Context<'_>) {
        if qc_view >= self.round {
            self.enter_round(qc_view + 1, ctx);
        }
    }

    fn handle_proposal(
        &mut self,
        src: NodeId,
        block: ProposalBlock,
        justify: &QuorumCert,
        ctx: &mut Context<'_>,
    ) {
        if src != self.leader(block.view) {
            return;
        }
        // Admitting absorbs the justify first: in the happy path it certifies
        // round r−1 and advances us into the proposal's round r.
        let Some(stored) = self.chain.admit(src, block, justify, ctx) else {
            return;
        };
        self.catch_up(justify.view, ctx);
        if block.view > self.round {
            // Leader advanced through timeouts we have not observed yet;
            // buffer until a TC or our own timer catches us up.
            self.pending
                .entry(block.view)
                .or_default()
                .push((src, block, justify.clone()));
            return;
        }

        if block.view == self.round {
            if let Some(sig) = self.chain.vote(&block, stored, justify, ctx) {
                let next_leader = self.leader(block.view + 1);
                if next_leader == ctx.id() {
                    self.handle_vote(block.view, block.digest, sig, ctx);
                } else {
                    ctx.send(
                        next_leader,
                        LibraMsg::Vote {
                            round: block.view,
                            digest: block.digest,
                            sig,
                        },
                    );
                }
            }
        }
        self.chain.retry_pending_decides(src, ctx);
    }

    fn handle_vote(&mut self, round: u64, digest: Digest, sig: Signature, ctx: &mut Context<'_>) {
        if let Some(qc) = self.chain.add_vote(round, digest, sig) {
            ctx.report_fmt("qc", format_args!("round={round}"));
            let me = ctx.id();
            self.process_qc(&qc, me, ctx);
        }
    }

    /// Broadcasts this node's timeout vote for `round`. `force` re-sends
    /// even if already sent — used on repeated local timeouts of the same
    /// round so that votes lost to a partition are retransmitted after it
    /// heals (receivers deduplicate by signer). The amplification path does
    /// not force, avoiding echo storms.
    fn cast_timeout_vote(&mut self, round: u64, force: bool, ctx: &mut Context<'_>) {
        if !self.timeout_voted.insert(round) && !force {
            return;
        }
        ctx.report_fmt("timeout-vote", format_args!("round={round}"));
        let vd = self
            .timeout_digests
            .digest(PHASE_LIBRA_TIMEOUT, round, 0, Digest::default());
        let sig = sign(ctx.id(), vd);
        ctx.broadcast(LibraMsg::TimeoutVote {
            round,
            high_qc: self.chain.high_qc().clone(),
            sig,
        });
        self.handle_timeout_vote(round, None, sig, ctx);
    }

    fn handle_timeout_vote(
        &mut self,
        round: u64,
        high_qc: Option<&QuorumCert>,
        sig: Signature,
        ctx: &mut Context<'_>,
    ) {
        if let Some(qc) = high_qc {
            let src = sig.signer();
            self.process_qc(qc, src, ctx);
        }
        if round < self.round {
            return; // stale
        }
        let vd = self
            .timeout_digests
            .digest(PHASE_LIBRA_TIMEOUT, round, 0, Digest::default());
        let tc_formed = self.timeout_votes.add(round, vd, sig).is_some();

        // Amplification: join a timeout once f + 1 nodes report it.
        if self.timeout_votes.count(round, vd) >= self.params.one_honest() {
            self.cast_timeout_vote(round, false, ctx);
        }

        if tc_formed && round >= self.round {
            // Timeout certificate: everyone observing it enters round + 1.
            ctx.report_fmt("tc", format_args!("round={round}"));
            self.enter_round(round + 1, ctx);
        }
    }
}

impl Protocol for LibraBft {
    fn init(&mut self, ctx: &mut Context<'_>) {
        ctx.enter_view(1);
        self.restart_timer(ctx);
        if self.leader(1) == ctx.id() {
            self.propose(ctx);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<LibraMsg>() else {
            return;
        };
        match m {
            LibraMsg::Proposal { block, justify } => {
                self.handle_proposal(msg.src(), *block, justify, ctx);
            }
            &LibraMsg::Vote { round, digest, sig } => {
                self.handle_vote(round, digest, sig, ctx);
            }
            LibraMsg::TimeoutVote {
                round,
                high_qc,
                sig,
            } => {
                self.handle_timeout_vote(*round, Some(high_qc), *sig, ctx);
            }
            &LibraMsg::SyncReq { digest } => {
                if let Some(info) = self.chain.block(digest) {
                    ctx.send(msg.src(), LibraMsg::SyncResp { digest, info });
                }
            }
            &LibraMsg::SyncResp { digest, info } => {
                for (src, block, justify) in self.chain.on_sync_resp(digest, info, msg.src(), ctx) {
                    self.handle_proposal(src, block, &justify, ctx);
                }
                if self.chain.wants_to_propose(self.round) {
                    self.propose(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let Some(t) = timer.downcast_ref::<RoundTimeout>() else {
            return;
        };
        if t.round != self.round {
            return;
        }
        // Tell everyone; the TC formed from 2f + 1 of these moves the
        // round. Re-arm the timer so the vote is retransmitted if no TC
        // forms (e.g. during a partition).
        self.restart_timer(ctx);
        let round = self.round;
        self.cast_timeout_vote(round, true, ctx);
    }

    fn name(&self) -> &'static str {
        "librabft"
    }
}

/// Factory producing LibraBFT replicas.
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(LibraBft::new(params)) as Box<dyn Protocol>
}
/// LibraBFT's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["proposal", "vote", "timeout", "sync"];

/// Classifies a payload into LibraBFT's index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload
        .as_any()
        .downcast_ref::<LibraMsg>()
        .map(|m| match m {
            LibraMsg::Proposal { .. } => 0,
            LibraMsg::Vote { .. } => 1,
            LibraMsg::TimeoutVote { .. } => 2,
            LibraMsg::SyncReq { .. } | LibraMsg::SyncResp { .. } => 3,
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

    fn run(
        n: usize,
        decisions: u64,
        delay_ms: f64,
        lambda_ms: f64,
        cap_s: f64,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = RunConfig::new(n)
            .with_seed(11)
            .with_lambda_ms(lambda_ms)
            .with_target_decisions(decisions)
            .with_time_cap(SimDuration::from_secs(cap_s))
            .with_trace(TraceLevel::Events);
        let params = ProtocolParams::new(cfg.n, cfg.f, 42);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(delay_ms)))
            .protocols(factory(params))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn decides_ten_pipelined_slots() {
        let r = run(4, 10, 100.0, 1000.0, 300.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 10);
    }

    #[test]
    fn happy_path_matches_hotstuff_performance() {
        let libra = run(16, 10, 100.0, 1000.0, 300.0);
        let cfg = RunConfig::new(16)
            .with_seed(11)
            .with_lambda_ms(1000.0)
            .with_target_decisions(10)
            .with_time_cap(SimDuration::from_secs(300.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 42);
        let hs = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .protocols(crate::hotstuff::factory(params))
            .build()
            .unwrap()
            .run();
        // With no timeouts the two protocols run the same chained core.
        assert_eq!(libra.end_time, hs.end_time);
    }

    #[test]
    fn underestimated_lambda_recovers_fast_via_tc() {
        // λ = 30 ms, real delay 100 ms: rounds time out, but TCs resync
        // everyone and the exponential back-off quickly exceeds the delay.
        let r = run(4, 1, 100.0, 30.0, 120.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        assert!(!r.trace.custom("tc").is_empty(), "TCs must have formed");
        // LibraBFT recovers within a few seconds (HotStuff+NS can take far
        // longer under the same conditions; compared in integration tests).
        assert!(
            r.latency().unwrap().as_secs_f64() < 10.0,
            "latency {} too high",
            r.latency().unwrap()
        );
    }

    #[test]
    fn crashed_leader_is_skipped_by_tc() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashNextLeader;
        impl Adversary for CrashNextLeader {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                // Round 1's leader is node 1 (round-robin).
                assert!(api.crash(NodeId::new(1)));
            }
        }
        // n = 7: with a crashed node at a fixed round-robin position, a
        // window of four consecutive live leaders (needed for a three-chain
        // commit plus vote collection) still exists. With n = 4 it cannot.
        let cfg = RunConfig::new(7)
            .with_seed(2)
            .with_lambda_ms(500.0)
            .with_target_decisions(3)
            .with_time_cap(SimDuration::from_secs(120.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 42);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(CrashNextLeader)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 3);
    }

    #[test]
    fn timeout_votes_are_broadcast_not_silent() {
        let r = run(4, 1, 100.0, 30.0, 120.0);
        assert!(!r.trace.custom("timeout-vote").is_empty());
    }
}
