//! Chained HotStuff with a naive view-doubling synchronizer (HotStuff+NS).
//!
//! The consensus core is chained (pipelined) HotStuff (Yin et al., PODC '19):
//! one block per view, votes go to the *next* leader, a quorum certificate
//! (QC) is embedded in the next proposal, and a block commits once it heads a
//! *three-chain* of direct parents. Communication is linear per view and the
//! protocol is responsive — in the happy path views advance on QC receipt,
//! never on timers.
//!
//! HotStuff's paper leaves the PaceMaker abstract; following the paper under
//! reproduction, we pair it with the **naive view-doubling synchronizer** of
//! Naor et al.: a local view timer that *doubles on every expiry and is never
//! reset*, with no view-synchronisation messages beyond the `new-view`
//! interest sent to the next leader. This is what produces the pathologies
//! the paper measures: views drift apart when λ underestimates the real
//! delay (Figs. 5 and 9), and after a partition the accumulated doubling
//! overshoots by minutes (Fig. 6).

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::{FastMap, FastSet};
use bft_sim_core::ids::{NodeId, TimerId};
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::time::SimDuration;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::{QuorumCert, VoteTracker};
use bft_sim_crypto::signature::sign;

use crate::common::{round_robin_leader, vote_digest, ProtocolParams};

const PHASE_HS_VOTE: u8 = 10;

/// Block metadata kept in every node's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// View the block was proposed in.
    pub view: u64,
    /// Digest of the parent block.
    pub parent: Digest,
    /// View of the embedded (justify) QC.
    pub justify_view: u64,
    /// Block certified by the embedded QC (normally the parent).
    pub justify_digest: Digest,
    /// Chain height (genesis = 0).
    pub height: u64,
}

/// HotStuff wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum HsMsg {
    /// A leader's block proposal for its view, with the justifying QC.
    Proposal {
        /// The proposed block.
        block: ProposalBlock,
        /// QC justifying the proposal (certifies `block.justify_digest`).
        justify: QuorumCert,
    },
    /// A replica's vote on a block, sent to the *next* leader.
    Vote {
        /// View of the voted block.
        view: u64,
        /// Digest of the voted block.
        digest: Digest,
        /// Vote signature.
        sig: bft_sim_crypto::signature::Signature,
    },
    /// Timeout interest: tells the new view's leader our highest QC.
    NewView {
        /// The view the sender has moved to.
        view: u64,
        /// The sender's highest QC.
        high_qc: QuorumCert,
    },
    /// Request for a missing block (chain sync after partitions).
    SyncReq {
        /// Digest of the wanted block.
        digest: Digest,
    },
    /// Response carrying the requested block's metadata.
    SyncResp {
        /// The block digest.
        digest: Digest,
        /// Its metadata.
        info: BlockInfo,
    },
}

/// The on-wire block representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProposalBlock {
    /// Block digest (identity).
    pub digest: Digest,
    /// Proposing view.
    pub view: u64,
    /// Parent digest.
    pub parent: Digest,
    /// Height.
    pub height: u64,
}

/// Payload of the local view timer.
#[derive(Debug, Clone, PartialEq)]
struct HsTimeout {
    view: u64,
}

/// Why a node entered a view (controls the leader's proposal gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// This node formed the QC ending the previous view.
    QcFormed,
    /// The local view timer expired.
    Timeout,
    /// The node voted and moved on (chained-HotStuff view increment).
    Voted,
}

/// The genesis digest all chains grow from.
pub fn genesis_digest() -> Digest {
    Digest::of_bytes(b"hotstuff-genesis")
}

fn genesis_qc() -> QuorumCert {
    QuorumCert {
        view: 0,
        digest: genesis_digest(),
        signers: Default::default(),
    }
}

/// One HotStuff+NS replica.
#[derive(Debug)]
pub struct HotStuffNs {
    params: ProtocolParams,
    view: u64,
    blocks: FastMap<Digest, BlockInfo>,
    high_qc: QuorumCert,
    locked_view: u64,
    locked_digest: Digest,
    last_voted_view: u64,
    decided_height: u64,
    votes: VoteTracker,
    /// Proposals whose justify block we have not received yet; voting on
    /// them before knowing the justify chain would bypass the lock rule.
    pending_sync: Vec<(NodeId, ProposalBlock, QuorumCert)>,
    /// Set when we are leader but lack our high QC's block (so its height
    /// is unknown); the proposal fires once the block arrives.
    want_propose: Option<u64>,
    proposed_views: FastSet<u64>,
    /// Committed tips whose ancestor chain is still incomplete locally.
    pending_decides: Vec<Digest>,
    fetch_in_flight: FastSet<Digest>,
    /// Reusable buffer for [`Self::try_decide_chain`]'s commit walk; kept on
    /// the replica so the per-view decide path allocates nothing.
    decide_scratch: Vec<(u64, Digest)>,
    timer: Option<TimerId>,
    /// View of the newest committed block; the view-doubling duration keys
    /// to the distance from it (Naor's doubling is defined per consensus
    /// instance — for SMR the "instance" restarts at each commit).
    last_committed_view: u64,
}

impl HotStuffNs {
    /// Creates a replica.
    pub fn new(params: ProtocolParams) -> Self {
        // Reserve the per-node maps up front: replicas insert one block per
        // view and a few tracked views, so pre-sizing at construction keeps
        // the steady-state hot path free of rehash allocations.
        let mut blocks = FastMap::with_capacity_and_hasher(64, Default::default());
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
        HotStuffNs {
            params,
            view: 1,
            blocks,
            high_qc: genesis_qc(),
            locked_view: 0,
            locked_digest: genesis_digest(),
            last_voted_view: 0,
            decided_height: 0,
            votes: VoteTracker::new(params.quorum()),
            pending_sync: Vec::new(),
            want_propose: None,
            proposed_views: FastSet::default(),
            pending_decides: Vec::new(),
            fetch_in_flight: FastSet::default(),
            decide_scratch: Vec::with_capacity(8),
            timer: None,
            last_committed_view: 0,
        }
    }

    /// Current view (exposed for tests).
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The naive view-doubling synchronizer's duration:
    /// λ · 2^(views since the last commit − 1), capped. Keying the formula
    /// to view distance (not a per-node timeout count) means a node that
    /// has fallen behind passes through *shorter* views and eventually
    /// re-overlaps with the rest — the synchronizer's only synchronisation
    /// mechanism; keying to distance-from-commit (not the absolute view
    /// number) restarts the doubling for every SMR consensus instance.
    pub fn view_duration(lambda: SimDuration, view: u64, last_committed_view: u64) -> SimDuration {
        let distance = view.saturating_sub(last_committed_view);
        lambda.saturating_shl(distance.saturating_sub(1).min(20) as u32)
    }

    fn leader(&self, view: u64) -> NodeId {
        round_robin_leader(view, self.params.n)
    }

    fn qc_valid(&self, qc: &QuorumCert) -> bool {
        qc.view == 0 && qc.digest == genesis_digest() || qc.weight() >= self.params.quorum()
    }

    fn restart_timer(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        let duration = Self::view_duration(ctx.lambda(), self.view, self.last_committed_view);
        self.timer = Some(ctx.set_timer(duration, HsTimeout { view: self.view }));
    }

    /// How a node came to enter a view, which decides whether its leader
    /// may propose right away.
    fn enter_view(&mut self, view: u64, reason: Entry, ctx: &mut Context<'_>) {
        debug_assert!(view > self.view);
        self.view = view;
        self.votes.prune_below(view.saturating_sub(2));
        // Unanswered fetches may retry in the new view (the previous target
        // may simply not have had the block yet).
        self.fetch_in_flight.clear();
        ctx.enter_view(view);
        self.restart_timer(ctx);
        if self.leader(view) == ctx.id() {
            match reason {
                // The naive leader proposes immediately on view entry, both
                // when it just formed a QC (responsive) and when its timer
                // expired — it has no way to know whether anyone else has
                // reached this view, so mistimed proposals are simply
                // wasted and views drift apart (§IV-D).
                Entry::QcFormed | Entry::Timeout => self.propose(ctx),
                // We advanced because we voted; propose once votes arrive.
                Entry::Voted => {}
            }
        }
        let waiting = std::mem::take(&mut self.pending_sync);
        for (src, block, justify) in waiting {
            self.handle_proposal(src, block, justify, ctx);
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_>) {
        let parent = self.high_qc.digest;
        let Some(parent_info) = self.blocks.get(&parent) else {
            // We certified (or were handed a QC for) a block we never
            // received; fetch it from one of its voters before proposing —
            // guessing its height would fork the height sequence.
            self.want_propose = Some(self.view);
            if self.fetch_in_flight.insert(parent) {
                if let Some(voter) = self.high_qc.signers.iter().find(|&v| v != ctx.id()) {
                    ctx.send(voter, HsMsg::SyncReq { digest: parent });
                }
            }
            return;
        };
        if !self.proposed_views.insert(self.view) {
            return; // one proposal per view
        }
        self.want_propose = None;
        let height = parent_info.height + 1;
        let digest = Digest::of_words(&[0x48535f424c4f434b, self.view, parent.as_u64(), height]);
        let block = ProposalBlock {
            digest,
            view: self.view,
            parent,
            height,
        };
        ctx.report_fmt(
            "propose",
            format_args!("view={} height={height}", self.view),
        );
        let justify = self.high_qc.clone();
        ctx.broadcast(HsMsg::Proposal {
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

    /// Absorbs a QC's information — `high_qc`, lock and commit rules —
    /// without any view change. View advancement in this *naive* node only
    /// happens through its own timer, its own vote, or forming a QC itself;
    /// there is deliberately no catch-up from observed certificates (that
    /// is exactly what LibraBFT adds and HotStuff+NS lacks).
    fn absorb_qc(&mut self, qc: &QuorumCert, src: NodeId, ctx: &mut Context<'_>) {
        if !self.qc_valid(qc) {
            return;
        }
        if qc.view > self.high_qc.view {
            self.high_qc = qc.clone();
        }
        self.apply_chain_rules(qc.digest, src, ctx);
    }

    /// Lock and commit rules over the chain ending at the certified block
    /// `b''` (`tip`). Following chained HotStuff exactly: the lock update
    /// is **unconditional** — `lockedQC ← b''.justify` whenever it is newer
    /// (requiring a direct chain here would under-lock and break safety) —
    /// while DECIDE requires the full direct three-chain with consecutive
    /// views `b ← b' ← b''`.
    fn apply_chain_rules(&mut self, tip: Digest, src: NodeId, ctx: &mut Context<'_>) {
        let Some(b2) = self.blocks.get(&tip).copied() else {
            return;
        };
        // Lock on b2's justify — the block it certifies is b1, whose view
        // is recorded in b2's justify pointer (b1 itself need not be local).
        if b2.justify_view > self.locked_view {
            self.locked_view = b2.justify_view;
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
            // Direct, consecutive three-chain: commit b0 and its ancestors.
            self.try_decide_chain(b1.parent, src, ctx);
        }
    }

    /// Decides every undecided ancestor of `tip` (inclusive), fetching
    /// missing blocks from `src` when the local store has gaps.
    fn try_decide_chain(&mut self, tip: Digest, src: NodeId, ctx: &mut Context<'_>) {
        // Reuse the replica-owned scratch buffer: this runs once per view on
        // every node, so a fresh Vec here would dominate the steady-state
        // allocation count.
        let mut path = std::mem::take(&mut self.decide_scratch);
        debug_assert!(path.is_empty());
        let mut cursor = tip;
        let mut complete = true;
        loop {
            let Some(info) = self.blocks.get(&cursor).copied() else {
                // Gap: ask the peer that showed us this chain, retry later.
                if self.fetch_in_flight.insert(cursor) && src != ctx.id() {
                    ctx.send(src, HsMsg::SyncReq { digest: cursor });
                }
                if !self.pending_decides.contains(&tip) {
                    self.pending_decides.push(tip);
                }
                complete = false;
                break;
            };
            if info.height <= self.decided_height {
                break;
            }
            path.push((info.height, cursor));
            cursor = info.parent;
        }
        if complete {
            path.sort_by_key(|&(h, _)| h);
            for &(height, digest) in &path {
                // Heights must be contiguous: a stale pending tip may replay
                // already-decided heights, which the check above filtered.
                debug_assert_eq!(height, self.decided_height + 1);
                self.decided_height = height;
                if let Some(info) = self.blocks.get(&digest) {
                    self.last_committed_view = self.last_committed_view.max(info.view);
                }
                ctx.report_fmt("commit", format_args!("height={height}"));
                ctx.decide(Value::new(digest.as_u64()));
            }
        }
        path.clear();
        self.decide_scratch = path;
    }

    fn handle_proposal(
        &mut self,
        src: NodeId,
        block: ProposalBlock,
        justify: QuorumCert,
        ctx: &mut Context<'_>,
    ) {
        // The naive node processes proposals for its *current view only* —
        // future proposals are dropped, not buffered, and stale ones are
        // ignored. This strictness is what makes the view-synchronisation
        // problem bite (§IV-D of the paper).
        if block.view != self.view {
            return;
        }
        if !self.qc_valid(&justify) || src != self.leader(block.view) {
            return;
        }
        // Never vote before the justify's block is local: the lock update
        // reads its justify pointer, and voting blind would bypass the lock
        // rule that makes commits safe.
        if justify.view > 0 && !self.blocks.contains_key(&justify.digest) {
            if self.fetch_in_flight.insert(justify.digest) {
                ctx.send(
                    src,
                    HsMsg::SyncReq {
                        digest: justify.digest,
                    },
                );
            }
            self.pending_sync.push((src, block, justify));
            return;
        }
        self.store_block(block, justify.view, justify.digest);
        self.absorb_qc(&justify, src, ctx);

        // Vote once per view, iff the proposal satisfies the HotStuff rule:
        // it extends the locked block (safety) or its justify is newer than
        // our lock (liveness). After voting the replica moves to the next
        // view (the chained-HotStuff view increment).
        if block.view > self.last_voted_view
            && (self.extends_locked(block.digest) || justify.view > self.locked_view)
        {
            self.last_voted_view = block.view;
            let vd = vote_digest(PHASE_HS_VOTE, block.view, 0, block.digest);
            let sig = sign(ctx.id(), vd);
            let next_leader = self.leader(block.view + 1);
            if next_leader == ctx.id() {
                self.handle_vote(block.view, block.digest, sig, ctx);
            } else {
                ctx.send(
                    next_leader,
                    HsMsg::Vote {
                        view: block.view,
                        digest: block.digest,
                        sig,
                    },
                );
            }
            if block.view == self.view {
                // (handle_vote may already have advanced us as next leader.)
                self.enter_view(self.view + 1, Entry::Voted, ctx);
            }
        }
        self.retry_pending_decides(src, ctx);
    }

    fn extends_locked(&self, mut digest: Digest) -> bool {
        // Walk parents until we hit the locked block, genesis, or a gap.
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

    fn handle_vote(
        &mut self,
        view: u64,
        digest: Digest,
        sig: bft_sim_crypto::signature::Signature,
        ctx: &mut Context<'_>,
    ) {
        let vd = vote_digest(PHASE_HS_VOTE, view, 0, digest);
        if let Some(qc) = self.votes.add(view, vd, sig) {
            // Re-key the certificate to the block digest it certifies.
            let qc = QuorumCert {
                view,
                digest,
                signers: qc.signers,
            };
            ctx.report_fmt("qc", format_args!("view={view}"));
            let me = ctx.id();
            self.absorb_qc(&qc, me, ctx);
            if qc.view >= self.view {
                // Forming a QC is this node's own progress: move past it.
                self.enter_view(qc.view + 1, Entry::QcFormed, ctx);
            } else if qc.view + 1 == self.view && self.leader(self.view) == me {
                // We already advanced by voting; now the QC arrived — lead.
                self.propose(ctx);
            }
        }
    }

    fn retry_pending_decides(&mut self, src: NodeId, ctx: &mut Context<'_>) {
        let tips = std::mem::take(&mut self.pending_decides);
        for tip in tips {
            self.try_decide_chain(tip, src, ctx);
        }
    }
}

impl Protocol for HotStuffNs {
    fn init(&mut self, ctx: &mut Context<'_>) {
        ctx.enter_view(1);
        self.restart_timer(ctx);
        if self.leader(1) == ctx.id() {
            self.propose(ctx);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<HsMsg>() else {
            return;
        };
        match m.clone() {
            HsMsg::Proposal { block, justify } => {
                self.handle_proposal(msg.src(), block, justify, ctx);
            }
            HsMsg::Vote { view, digest, sig } => {
                self.handle_vote(view, digest, sig, ctx);
            }
            HsMsg::NewView { view: _, high_qc } => {
                // The naive synchronizer only uses this to learn a fresher
                // QC; it triggers no view change and no proposal.
                let src = msg.src();
                self.absorb_qc(&high_qc, src, ctx);
            }
            HsMsg::SyncReq { digest } => {
                if let Some(info) = self.blocks.get(&digest).copied() {
                    ctx.send(msg.src(), HsMsg::SyncResp { digest, info });
                }
            }
            HsMsg::SyncResp { digest, info } => {
                self.fetch_in_flight.remove(&digest);
                self.blocks.entry(digest).or_insert(info);
                self.retry_pending_decides(msg.src(), ctx);
                // Proposals that were waiting on this block can now be
                // evaluated; a deferred own-proposal may also fire.
                let waiting = std::mem::take(&mut self.pending_sync);
                for (src, block, justify) in waiting {
                    self.handle_proposal(src, block, justify, ctx);
                }
                if self.want_propose == Some(self.view) {
                    self.propose(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let Some(t) = timer.downcast_ref::<HsTimeout>() else {
            return;
        };
        if t.view != self.view {
            return;
        }
        // The naive synchronizer: views double in duration by view number;
        // on expiry move on and tell the new leader our highest QC. There
        // is no other synchronisation — which is why views drift apart
        // under mis-estimated λ (Fig. 9).
        ctx.report_fmt(
            "timeout",
            format_args!(
                "view={} duration={}",
                self.view,
                Self::view_duration(ctx.lambda(), self.view, self.last_committed_view)
            ),
        );
        let next = self.view + 1;
        let high_qc = self.high_qc.clone();
        let leader = self.leader(next);
        self.enter_view(next, Entry::Timeout, ctx);
        if leader != ctx.id() {
            ctx.send(
                leader,
                HsMsg::NewView {
                    view: next,
                    high_qc,
                },
            );
        }
    }

    fn name(&self) -> &'static str {
        "hotstuff-ns"
    }
}

/// Factory producing HotStuff+NS replicas.
pub fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(HotStuffNs::new(params)) as Box<dyn Protocol>
}
/// HotStuff's phase labels, indexed by [`phase_of`]'s return value.
pub const PHASES: &[&str] = &["proposal", "vote", "new-view", "sync"];

/// Classifies a payload into HotStuff's index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<HsMsg>().map(|m| match m {
        HsMsg::Proposal { .. } => 0,
        HsMsg::Vote { .. } => 1,
        HsMsg::NewView { .. } => 2,
        HsMsg::SyncReq { .. } | HsMsg::SyncResp { .. } => 3,
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
        cap_s: f64,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = RunConfig::new(n)
            .with_seed(7)
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
    fn pipelined_chain_decides_ten_slots() {
        let r = run(4, 10, 100.0, 1000.0, 300.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 10);
        // Every decided sequence must be identical across nodes.
        let first = &r.decided[0];
        for seq in &r.decided {
            assert_eq!(seq.len(), 10);
            for (a, b) in first.iter().zip(seq) {
                assert_eq!(a.1, b.1);
            }
        }
    }

    #[test]
    fn happy_path_is_responsive() {
        // Doubling λ must not change happy-path latency (no timer fires).
        let a = run(4, 10, 100.0, 1000.0, 300.0);
        let b = run(4, 10, 100.0, 3000.0, 300.0);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn per_decision_latency_beats_pbft_after_pipeline_warmup() {
        let r = run(16, 10, 100.0, 1000.0, 300.0);
        assert!(r.is_clean());
        let per_decision = r.avg_latency_per_decision(10).unwrap().as_millis_f64();
        // One view = proposal (1 hop) + vote (1 hop) = ~200 ms per decision
        // once the pipeline is full; allow pipeline fill-up slack.
        assert!(
            per_decision < 300.0,
            "pipelined latency too high: {per_decision} ms"
        );
    }

    #[test]
    fn linear_message_complexity_per_decision() {
        let r = run(16, 10, 100.0, 1000.0, 300.0);
        let per_decision = r.messages_per_decision().unwrap();
        // ~2n per view, one decision per view when pipelined: allow < 4n.
        assert!(
            per_decision < 4.0 * 16.0,
            "messages per decision too high: {per_decision}"
        );
    }

    #[test]
    fn underestimated_lambda_causes_view_thrash_but_eventually_decides() {
        // λ = 30 ms, real delay 100 ms: timers fire before any QC can form,
        // intervals double until a view is long enough for progress.
        let r = run(4, 1, 100.0, 30.0, 600.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        // Commits cascade once the chain unblocks, so ≥ 1 decision.
        assert!(r.decisions_completed() >= 1);
        let timeouts = r.trace.custom("timeout");
        assert!(!timeouts.is_empty(), "views must have timed out");
        assert!(
            r.latency().unwrap().as_millis_f64() > 800.0,
            "view thrash must cost time: {}",
            r.latency().unwrap()
        );
    }

    #[test]
    fn view_durations_double_with_distance_from_commit() {
        let lambda = SimDuration::from_millis(150.0);
        assert_eq!(HotStuffNs::view_duration(lambda, 1, 0), lambda);
        assert_eq!(
            HotStuffNs::view_duration(lambda, 2, 0).as_millis_f64(),
            300.0
        );
        assert_eq!(
            HotStuffNs::view_duration(lambda, 10, 0).as_millis_f64(),
            150.0 * 512.0
        );
        // Commits restart the doubling (SMR semantics).
        assert_eq!(
            HotStuffNs::view_duration(lambda, 10, 9).as_millis_f64(),
            150.0
        );
        // Capped rather than overflowing.
        assert!(HotStuffNs::view_duration(lambda, 64, 0) < SimDuration::MAX);

        // In a thrashing run the timeout trace must show growing durations.
        let r = run(4, 3, 100.0, 30.0, 600.0);
        assert!(r.is_clean());
        let timeouts = r.trace.custom("timeout");
        let mut last = 0.0f64;
        for (_, node, detail) in timeouts {
            if node != NodeId::new(0) {
                continue;
            }
            let duration: f64 = detail
                .split("duration=")
                .nth(1)
                .unwrap()
                .trim_end_matches("ms")
                .parse()
                .unwrap();
            assert!(duration >= last, "duration shrank: {duration} < {last}");
            last = duration;
        }
        assert!(last > 30.0, "durations should have grown");
    }

    #[test]
    fn views_are_traced_for_fig9() {
        let r = run(4, 1, 100.0, 1000.0, 300.0);
        let timeline = r.trace.view_timeline(NodeId::new(2));
        assert!(!timeline.is_empty());
        assert!(timeline.windows(2).all(|w| w[0].1 < w[1].1));
    }
}
