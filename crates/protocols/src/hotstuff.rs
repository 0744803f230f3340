//! Chained HotStuff with a naive view-doubling synchronizer (HotStuff+NS).
//!
//! The consensus core is chained (pipelined) HotStuff (Yin et al., PODC '19),
//! stated once in [`crate::chain`]: one block per view, votes go to the
//! *next* leader, a quorum certificate (QC) is embedded in the next proposal,
//! and a block commits once it heads a *three-chain* of direct parents.
//! Communication is linear per view and the protocol is responsive — in the
//! happy path views advance on QC receipt, never on timers.
//!
//! HotStuff's paper leaves the PaceMaker abstract; following the paper under
//! reproduction, we pair it with the **naive view-doubling synchronizer** of
//! Naor et al.: a local view timer of λ · 2^(d − 1), where d is the number of
//! views since the last commit and the factor is capped at 2²⁰, so each view
//! without a commit lasts twice the one before and a commit restarts at λ.
//! There are no view-synchronisation messages beyond the `new-view`
//! interest sent to the next leader. This is what produces the pathologies
//! the paper measures: views drift apart when λ underestimates the real
//! delay (Figs. 5 and 9), and after a partition the accumulated doubling
//! overshoots by minutes (Fig. 6). This file is that pacemaker: what a
//! timeout, a vote and a QC do to the view, and which proposals get a
//! hearing.

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::ids::{NodeId, TimerId};
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::time::SimDuration;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::QuorumCert;
use bft_sim_crypto::signature::Signature;

use crate::chain::{BlockInfo, Chain, ProposalBlock};
use crate::common::{round_robin_leader, ProtocolParams};

const BLOCK_TAG: u64 = 0x48535f424c4f434b; // "HS_BLOCK"
const PHASE_HS_VOTE: u8 = 10;

/// HotStuff wire messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HsMsg {
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
        sig: Signature,
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

/// One HotStuff+NS replica.
#[derive(Debug)]
pub(crate) struct HotStuffNs {
    params: ProtocolParams,
    view: u64,
    chain: Chain<HsMsg>,
    timer: Option<TimerId>,
}

impl HotStuffNs {
    /// Creates a replica.
    pub(crate) fn new(params: ProtocolParams) -> Self {
        HotStuffNs {
            params,
            view: 1,
            chain: Chain::new(params.quorum(), BLOCK_TAG, PHASE_HS_VOTE, |digest| {
                HsMsg::SyncReq { digest }
            }),
            timer: None,
        }
    }

    /// The naive view-doubling synchronizer's duration:
    /// λ · 2^(views since the last commit − 1), capped. Keying the formula
    /// to view distance (not a per-node timeout count) means a node that
    /// has fallen behind passes through *shorter* views and eventually
    /// re-overlaps with the rest — the synchronizer's only synchronisation
    /// mechanism; keying to distance-from-commit (not the absolute view
    /// number) restarts the doubling for every SMR consensus instance.
    fn view_duration(lambda: SimDuration, view: u64, last_committed_view: u64) -> SimDuration {
        let distance = view.saturating_sub(last_committed_view);
        lambda.saturating_shl(distance.saturating_sub(1).min(20) as u32)
    }

    fn current_view_duration(&self, ctx: &Context<'_>) -> SimDuration {
        Self::view_duration(ctx.lambda(), self.view, self.chain.last_committed_view())
    }

    fn leader(&self, view: u64) -> NodeId {
        round_robin_leader(view, self.params.n)
    }

    fn restart_timer(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        let duration = self.current_view_duration(ctx);
        self.timer = Some(ctx.set_timer(duration, HsTimeout { view: self.view }));
    }

    /// How a node came to enter a view, which decides whether its leader
    /// may propose right away.
    fn enter_view(&mut self, view: u64, reason: Entry, ctx: &mut Context<'_>) {
        debug_assert!(view > self.view);
        self.view = view;
        self.chain.enter_view(view);
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
        for (src, block, justify) in self.chain.take_parked() {
            self.handle_proposal(src, block, &justify, ctx);
        }
    }

    fn propose(&mut self, ctx: &mut Context<'_>) {
        let Some(block) = self.chain.next_block(self.view, ctx) else {
            return;
        };
        ctx.report_fmt(
            "propose",
            format_args!("view={} height={}", block.view, block.height),
        );
        let justify = self.chain.high_qc().clone();
        ctx.broadcast(HsMsg::Proposal {
            block,
            justify: justify.clone(),
        });
        let me = ctx.id();
        self.handle_proposal(me, block, &justify, ctx);
    }

    fn handle_proposal(
        &mut self,
        src: NodeId,
        block: ProposalBlock,
        justify: &QuorumCert,
        ctx: &mut Context<'_>,
    ) {
        // The naive node processes proposals for its *current view only* —
        // future proposals are dropped, not buffered, and stale ones are
        // ignored. This strictness is what makes the view-synchronisation
        // problem bite (§IV-D of the paper).
        if block.view != self.view || src != self.leader(block.view) {
            return;
        }
        // Absorbing the justify (which admitting does) triggers no view
        // change: this *naive* node advances only through its own timer, its
        // own vote, or forming a QC itself. There is deliberately no
        // catch-up from observed certificates (that is exactly what LibraBFT
        // adds).
        let Some(stored) = self.chain.admit(src, block, justify, ctx) else {
            return;
        };

        // After voting the replica moves to the next view (the
        // chained-HotStuff view increment).
        if let Some(sig) = self.chain.vote(&block, stored, justify, ctx) {
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
        self.chain.retry_pending_decides(src, ctx);
    }

    fn handle_vote(&mut self, view: u64, digest: Digest, sig: Signature, ctx: &mut Context<'_>) {
        if let Some(qc) = self.chain.add_vote(view, digest, sig) {
            ctx.report_fmt("qc", format_args!("view={view}"));
            let me = ctx.id();
            self.chain.absorb_qc(&qc, me, ctx);
            if qc.view >= self.view {
                // Forming a QC is this node's own progress: move past it.
                self.enter_view(qc.view + 1, Entry::QcFormed, ctx);
            } else if qc.view + 1 == self.view && self.leader(self.view) == me {
                // We already advanced by voting; now the QC arrived — lead.
                self.propose(ctx);
            }
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
        match m {
            HsMsg::Proposal { block, justify } => {
                self.handle_proposal(msg.src(), *block, justify, ctx);
            }
            &HsMsg::Vote { view, digest, sig } => {
                self.handle_vote(view, digest, sig, ctx);
            }
            HsMsg::NewView { view: _, high_qc } => {
                // The naive synchronizer only uses this to learn a fresher
                // QC; it triggers no view change and no proposal.
                self.chain.absorb_qc(high_qc, msg.src(), ctx);
            }
            &HsMsg::SyncReq { digest } => {
                if let Some(info) = self.chain.block(digest) {
                    ctx.send(msg.src(), HsMsg::SyncResp { digest, info });
                }
            }
            &HsMsg::SyncResp { digest, info } => {
                // Proposals that were waiting on this block can now be
                // evaluated; a deferred own-proposal may also fire.
                for (src, block, justify) in self.chain.on_sync_resp(digest, info, msg.src(), ctx) {
                    self.handle_proposal(src, block, &justify, ctx);
                }
                if self.chain.wants_to_propose(self.view) {
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
        // The naive synchronizer: views double in duration with their
        // distance from the last commit (`view_duration`, factor capped at
        // 2^20); on expiry move on and tell the new leader our highest QC. There
        // is no other synchronisation — which is why views drift apart
        // under mis-estimated λ (Fig. 9).
        ctx.report_fmt(
            "timeout",
            format_args!(
                "view={} duration={}",
                self.view,
                self.current_view_duration(ctx)
            ),
        );
        let next = self.view + 1;
        let high_qc = self.chain.high_qc().clone();
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
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(HotStuffNs::new(params)) as Box<dyn Protocol>
}
/// HotStuff's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["proposal", "vote", "new-view", "sync"];

/// Classifies a payload into HotStuff's index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
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
    use bft_sim_core::trace::TraceLevel;

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
        let per_decision = r.messages_per_decision();
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
