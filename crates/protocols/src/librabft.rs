//! LibraBFT (a.k.a. DiemBFT): chained HotStuff with a certificate-based
//! pacemaker.
//!
//! The consensus core is the same chained, pipelined HotStuff used by
//! [`crate::hotstuff`] — the difference, and the reason LibraBFT behaves so
//! much better when the network misbehaves (Figs. 5 and 6 of the paper), is
//! the round-synchronisation mechanism: when a node's round timer expires it
//! **broadcasts a timeout vote**; `2f + 1` timeout votes form a *timeout
//! certificate* (TC) that moves every node that observes it into the next
//! round together, resetting its timer interval to λ. `f + 1` timeout votes
//! for a higher round make a lagging node join the timeout (Bracha-style
//! amplification). This bounds how far apart honest nodes can drift once the
//! network delivers within a bound — LibraBFT guarantees a termination bound
//! after GST, where HotStuff+NS does not.

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::{FastMap, FastSet};
use bft_sim_core::ids::{NodeId, TimerId};
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::{QuorumCert, VoteTracker};
use bft_sim_crypto::signature::{sign, Signature};

use crate::common::{round_robin_leader, vote_digest, ProtocolParams};
use crate::hotstuff::{genesis_digest, BlockInfo, ProposalBlock};

const PHASE_LIBRA_VOTE: u8 = 20;
const PHASE_LIBRA_TIMEOUT: u8 = 21;

/// LibraBFT wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum LibraMsg {
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

fn genesis_qc() -> QuorumCert {
    QuorumCert {
        view: 0,
        digest: genesis_digest(),
        signers: Default::default(),
    }
}

/// One LibraBFT replica.
#[derive(Debug)]
pub struct LibraBft {
    params: ProtocolParams,
    round: u64,
    blocks: FastMap<Digest, BlockInfo>,
    high_qc: QuorumCert,
    locked_round: u64,
    locked_digest: Digest,
    last_voted_round: u64,
    decided_height: u64,
    votes: VoteTracker,
    timeout_votes: VoteTracker,
    /// Rounds this node already broadcast a timeout vote for.
    timeout_voted: FastSet<u64>,
    pending: FastMap<u64, Vec<(NodeId, ProposalBlock, QuorumCert)>>,
    /// Proposals whose justify block is not yet local (vote gating).
    pending_sync: Vec<(NodeId, ProposalBlock, QuorumCert)>,
    /// Round we want to propose in once the high-QC block arrives.
    want_propose: Option<u64>,
    proposed_rounds: FastSet<u64>,
    pending_decides: Vec<Digest>,
    fetch_in_flight: FastSet<Digest>,
    timer: Option<TimerId>,
    /// Round of the newest committed block; the pacemaker interval grows
    /// with the distance between the current round and this.
    last_committed_round: u64,
}

impl LibraBft {
    /// Creates a replica.
    pub fn new(params: ProtocolParams) -> Self {
        let mut blocks = FastMap::default();
        blocks.insert(
            genesis_digest(),
            BlockInfo {
                view: 0,
                parent: genesis_digest(),
                justify_view: 0,
                justify_digest: genesis_digest(),
                height: 0,
            },
        );
        LibraBft {
            params,
            round: 1,
            blocks,
            high_qc: genesis_qc(),
            locked_round: 0,
            locked_digest: genesis_digest(),
            last_voted_round: 0,
            decided_height: 0,
            votes: VoteTracker::new(params.quorum()),
            timeout_votes: VoteTracker::new(params.quorum()),
            timeout_voted: FastSet::default(),
            pending: FastMap::default(),
            pending_sync: Vec::new(),
            want_propose: None,
            proposed_rounds: FastSet::default(),
            pending_decides: Vec::new(),
            fetch_in_flight: FastSet::default(),
            timer: None,
            last_committed_round: 0,
        }
    }

    /// Current round (exposed for tests).
    pub fn round(&self) -> u64 {
        self.round
    }

    fn leader(&self, round: u64) -> NodeId {
        round_robin_leader(round, self.params.n)
    }

    fn qc_valid(&self, qc: &QuorumCert) -> bool {
        qc.view == 0 && qc.digest == genesis_digest() || qc.weight() >= self.params.quorum()
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
            .saturating_sub(self.last_committed_round)
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
        self.votes.prune_below(round.saturating_sub(2));
        self.timeout_votes.prune_below(round.saturating_sub(2));
        self.fetch_in_flight.clear();
        ctx.enter_view(round);
        self.restart_timer(ctx);
        if self.leader(round) == ctx.id() {
            self.propose(ctx);
        }
        self.drain_pending(ctx);
        let waiting = std::mem::take(&mut self.pending_sync);
        for (src, block, justify) in waiting {
            self.handle_proposal(src, block, justify, ctx);
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
                    self.handle_proposal(src, block, justify, ctx);
                }
            }
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_>) {
        let parent = self.high_qc.digest;
        let Some(parent_info) = self.blocks.get(&parent) else {
            // Fetch the certified-but-unseen block before proposing on it.
            self.want_propose = Some(self.round);
            if self.fetch_in_flight.insert(parent) {
                if let Some(voter) = self.high_qc.signers.iter().find(|&v| v != ctx.id()) {
                    ctx.send(voter, LibraMsg::SyncReq { digest: parent });
                }
            }
            return;
        };
        if !self.proposed_rounds.insert(self.round) {
            return;
        }
        self.want_propose = None;
        let height = parent_info.height + 1;
        let digest = Digest::of_words(&[0x4c425f424c4f434b, self.round, parent.as_u64(), height]);
        let block = ProposalBlock {
            digest,
            view: self.round,
            parent,
            height,
        };
        ctx.report_fmt(
            "propose",
            format_args!("round={} height={height}", self.round),
        );
        let justify = self.high_qc.clone();
        ctx.broadcast(LibraMsg::Proposal {
            block,
            justify: justify.clone(),
        });
        let me = ctx.id();
        self.handle_proposal(me, block, justify, ctx);
    }

    fn store_block(&mut self, block: ProposalBlock, justify_view: u64, justify_digest: Digest) {
        self.blocks.entry(block.digest).or_insert(BlockInfo {
            view: block.view,
            parent: block.parent,
            justify_view,
            justify_digest,
            height: block.height,
        });
    }

    fn process_qc(&mut self, qc: &QuorumCert, src: NodeId, ctx: &mut Context<'_>) {
        if !self.qc_valid(qc) {
            return;
        }
        if qc.view > self.high_qc.view {
            self.high_qc = qc.clone();
        }
        self.apply_chain_rules(qc.digest, src, ctx);
        if qc.view >= self.round {
            self.enter_round(qc.view + 1, ctx);
        }
    }

    /// Same chained-HotStuff rules as [`crate::hotstuff`]: the lock update
    /// is unconditional (`lockedQC ← b''.justify` when newer); DECIDE needs
    /// the direct three-chain with consecutive rounds.
    fn apply_chain_rules(&mut self, tip: Digest, src: NodeId, ctx: &mut Context<'_>) {
        let Some(b2) = self.blocks.get(&tip).copied() else {
            return;
        };
        // Lock from b2's justify pointer (the certified block b1 need not
        // be local for the lock itself).
        if b2.justify_view > self.locked_round {
            self.locked_round = b2.justify_view;
            self.locked_digest = b2.justify_digest;
        }
        let Some(b1) = self.blocks.get(&b2.justify_digest).copied() else {
            return;
        };
        let Some(b0) = self.blocks.get(&b1.justify_digest).copied() else {
            return;
        };
        if b2.parent == b2.justify_digest
            && b1.parent == b1.justify_digest
            && b2.view == b1.view + 1
            && b1.view == b0.view + 1
        {
            self.try_decide_chain(b1.parent, src, ctx);
        }
    }

    fn try_decide_chain(&mut self, tip: Digest, src: NodeId, ctx: &mut Context<'_>) {
        let mut path = Vec::new();
        let mut cursor = tip;
        loop {
            let Some(info) = self.blocks.get(&cursor).copied() else {
                if self.fetch_in_flight.insert(cursor) && src != ctx.id() {
                    ctx.send(src, LibraMsg::SyncReq { digest: cursor });
                }
                if !self.pending_decides.contains(&tip) {
                    self.pending_decides.push(tip);
                }
                return;
            };
            if info.height <= self.decided_height {
                break;
            }
            path.push((info.height, cursor));
            cursor = info.parent;
        }
        path.sort_by_key(|&(h, _)| h);
        for (height, digest) in path {
            self.decided_height = height;
            if let Some(info) = self.blocks.get(&digest) {
                self.last_committed_round = self.last_committed_round.max(info.view);
            }
            ctx.report_fmt("commit", format_args!("height={height}"));
            ctx.decide(Value::new(digest.as_u64()));
        }
    }

    fn handle_proposal(
        &mut self,
        src: NodeId,
        block: ProposalBlock,
        justify: QuorumCert,
        ctx: &mut Context<'_>,
    ) {
        if !self.qc_valid(&justify) || src != self.leader(block.view) {
            return;
        }
        // Vote gating: the justify's block must be local so the lock rule
        // can be applied before voting.
        if justify.view > 0 && !self.blocks.contains_key(&justify.digest) {
            if self.fetch_in_flight.insert(justify.digest) {
                ctx.send(
                    src,
                    LibraMsg::SyncReq {
                        digest: justify.digest,
                    },
                );
            }
            self.pending_sync.push((src, block, justify));
            return;
        }
        self.store_block(block, justify.view, justify.digest);
        // Process the justify first: in the happy path it certifies round
        // r−1 and advances us into the proposal's round r.
        self.process_qc(&justify, src, ctx);
        if block.view > self.round {
            // Leader advanced through timeouts we have not observed yet;
            // buffer until a TC or our own timer catches us up.
            self.pending
                .entry(block.view)
                .or_default()
                .push((src, block, justify));
            return;
        }

        if block.view == self.round
            && block.view > self.last_voted_round
            && (self.extends_locked(block.digest) || justify.view > self.locked_round)
        {
            self.last_voted_round = block.view;
            let vd = vote_digest(PHASE_LIBRA_VOTE, block.view, 0, block.digest);
            let sig = sign(ctx.id(), vd);
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
        self.retry_pending_decides(src, ctx);
    }

    fn extends_locked(&self, mut digest: Digest) -> bool {
        for _ in 0..1024 {
            if digest == self.locked_digest {
                return true;
            }
            match self.blocks.get(&digest) {
                Some(info) if info.height == 0 => return self.locked_digest == genesis_digest(),
                Some(info) => digest = info.parent,
                None => return false,
            }
        }
        false
    }

    fn handle_vote(&mut self, round: u64, digest: Digest, sig: Signature, ctx: &mut Context<'_>) {
        let vd = vote_digest(PHASE_LIBRA_VOTE, round, 0, digest);
        if let Some(qc) = self.votes.add(round, vd, sig) {
            let qc = QuorumCert {
                view: round,
                digest,
                signers: qc.signers,
            };
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
        let vd = vote_digest(PHASE_LIBRA_TIMEOUT, round, 0, Digest::default());
        let sig = sign(ctx.id(), vd);
        ctx.broadcast(LibraMsg::TimeoutVote {
            round,
            high_qc: self.high_qc.clone(),
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
        let vd = vote_digest(PHASE_LIBRA_TIMEOUT, round, 0, Digest::default());
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

    fn retry_pending_decides(&mut self, src: NodeId, ctx: &mut Context<'_>) {
        let tips = std::mem::take(&mut self.pending_decides);
        for tip in tips {
            self.try_decide_chain(tip, src, ctx);
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
        match m.clone() {
            LibraMsg::Proposal { block, justify } => {
                self.handle_proposal(msg.src(), block, justify, ctx);
            }
            LibraMsg::Vote { round, digest, sig } => {
                self.handle_vote(round, digest, sig, ctx);
            }
            LibraMsg::TimeoutVote {
                round,
                high_qc,
                sig,
            } => {
                self.handle_timeout_vote(round, Some(&high_qc), sig, ctx);
            }
            LibraMsg::SyncReq { digest } => {
                if let Some(info) = self.blocks.get(&digest).copied() {
                    ctx.send(msg.src(), LibraMsg::SyncResp { digest, info });
                }
            }
            LibraMsg::SyncResp { digest, info } => {
                self.fetch_in_flight.remove(&digest);
                self.blocks.entry(digest).or_insert(info);
                self.retry_pending_decides(msg.src(), ctx);
                let waiting = std::mem::take(&mut self.pending_sync);
                for (src, block, justify) in waiting {
                    self.handle_proposal(src, block, justify, ctx);
                }
                if self.want_propose == Some(self.round) {
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
pub fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(LibraBft::new(params)) as Box<dyn Protocol>
}
/// LibraBFT's phase labels, indexed by [`phase_of`]'s return value.
pub const PHASES: &[&str] = &["proposal", "vote", "timeout", "sync"];

/// Classifies a payload into LibraBFT's index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
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
            .with_time_cap(SimDuration::from_secs(cap_s));
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
