//! Practical Byzantine Fault Tolerance (Castro–Liskov, OSDI '99).
//!
//! A partially-synchronous, responsive SMR protocol. Each slot runs the
//! classic three-phase exchange — `pre-prepare` (leader broadcast),
//! `prepare` (all-to-all), `commit` (all-to-all) — with `2f + 1` quorums.
//! Liveness across faulty leaders comes from the view-change subprotocol:
//! a node that times out broadcasts `view-change` for the next view and
//! **doubles its timeout**; a node that sees `f + 1` view-changes for a
//! higher view joins immediately (the standard liveness amplification); the
//! new leader assembles `2f + 1` view-changes, adopts the highest prepared
//! certificate among them, and re-proposes it in a `new-view`.
//!
//! Responsiveness: in the happy path no timer ever fires, so latency tracks
//! actual network delay, not λ (Fig. 4 of the paper).

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::FastMap;
use bft_sim_core::ids::{NodeId, TimerId};
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::VoteTracker;
use bft_sim_crypto::signature::{sign, Signature};

use crate::common::{proposal_digest, round_robin_leader, vote_digest, ProtocolParams};

/// Phase tag mixed into prepare-vote digests (see [`crate::common::vote_digest`]).
pub(crate) const PHASE_PREPARE: u8 = 1;
/// Phase tag mixed into commit-vote digests. Public so correctness tooling
/// (e.g. the fuzzer's seeded-bug adversary) can forge syntactically valid
/// votes and prove the oracles catch them.
pub const PHASE_COMMIT: u8 = 2;
/// Phase tag mixed into view-change-vote digests.
pub(crate) const PHASE_VIEW_CHANGE: u8 = 3;

/// A prepared certificate carried inside view-change messages: the highest
/// `(view, slot, digest)` this node gathered `2f + 1` prepares for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedCert {
    /// View the certificate was formed in.
    pub(crate) view: u64,
    /// Slot it concerns.
    pub(crate) slot: u64,
    /// The prepared proposal digest.
    pub(crate) digest: Digest,
}

/// PBFT wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum PbftMsg {
    /// Leader's proposal for `(view, slot)`.
    PrePrepare {
        /// Proposing view.
        view: u64,
        /// Sequence number.
        slot: u64,
        /// Proposal digest.
        digest: Digest,
    },
    /// All-to-all prepare vote.
    Prepare {
        /// View.
        view: u64,
        /// Slot.
        slot: u64,
        /// Voted digest.
        digest: Digest,
        /// Vote signature.
        sig: Signature,
    },
    /// All-to-all commit vote.
    Commit {
        /// View.
        view: u64,
        /// Slot.
        slot: u64,
        /// Voted digest.
        digest: Digest,
        /// Vote signature.
        sig: Signature,
    },
    /// Vote to move to `new_view`.
    ViewChange {
        /// The view being voted for.
        new_view: u64,
        /// The sender's highest prepared certificate, if any.
        prepared: Option<PreparedCert>,
        /// Vote signature.
        sig: Signature,
    },
    /// New leader's announcement re-proposing the safe digest.
    NewView {
        /// The view being entered.
        view: u64,
        /// Slot being re-proposed.
        slot: u64,
        /// The digest carried over from the highest prepared certificate
        /// (or a fresh proposal when none was prepared).
        digest: Digest,
    },
}

/// Payload for the view timer.
#[derive(Debug, Clone, PartialEq)]
struct ViewTimeout {
    view: u64,
}

/// Payload for the view-change retransmission timer. Castro–Liskov
/// replicas retransmit pending view-change messages; this is what lets
/// PBFT resynchronise quickly after a healed partition (Fig. 6) even
/// though its primary timeout keeps doubling.
#[derive(Debug, Clone, PartialEq)]
struct RetransmitVc {
    target: u64,
}

/// One PBFT replica.
#[derive(Debug)]
pub(crate) struct Pbft {
    params: ProtocolParams,
    view: u64,
    slot: u64,
    /// Proposal accepted (pre-prepared) for the current `(view, slot)`.
    accepted: Option<Digest>,
    sent_prepare: bool,
    sent_commit: bool,
    /// Highest prepared certificate (for view-change safety).
    prepared_cert: Option<PreparedCert>,
    prepares: VoteTracker,
    /// Commit votes per `(view, slot, digest)`. Kept across views and
    /// slots: `2f + 1` commits form a transferable *commit certificate*
    /// (PBFT's state-transfer argument), so a replica that fell out of the
    /// deciding view — or is a slot behind — still decides from it.
    commit_certs: FastMap<(u64, u64, Digest), bft_sim_crypto::quorum::SignerSet>,
    view_changes: VoteTracker,
    /// Best prepared certificate seen in view-change messages, per target
    /// view — what a new leader re-proposes.
    vc_best_prepared: FastMap<u64, PreparedCert>,
    /// Target views this node already voted view-change for.
    vc_voted: FastMap<u64, bool>,
    timer: Option<TimerId>,
    /// Consecutive view changes without progress; timeout is `λ · 2^exp`.
    timeout_exp: u32,
}

impl Pbft {
    /// Creates a replica.
    pub(crate) fn new(params: ProtocolParams) -> Self {
        let q = params.quorum();
        Pbft {
            params,
            view: 0,
            slot: 0,
            accepted: None,
            sent_prepare: false,
            sent_commit: false,
            prepared_cert: None,
            prepares: VoteTracker::new(q),
            commit_certs: FastMap::default(),
            view_changes: VoteTracker::new(q),
            vc_best_prepared: FastMap::default(),
            vc_voted: FastMap::default(),
            timer: None,
            timeout_exp: 0,
        }
    }

    fn leader(&self, view: u64) -> NodeId {
        round_robin_leader(view, self.params.n)
    }

    fn restart_timer(&mut self, ctx: &mut Context<'_>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        let timeout = ctx.lambda().saturating_shl(self.timeout_exp);
        self.timer = Some(ctx.set_timer(timeout, ViewTimeout { view: self.view }));
    }

    fn enter_view(&mut self, view: u64, ctx: &mut Context<'_>) {
        self.view = view;
        self.accepted = None;
        self.sent_prepare = false;
        self.sent_commit = false;
        ctx.enter_view(view);
        self.restart_timer(ctx);
    }

    /// Leader proposes the current slot (fresh digest).
    fn propose(&mut self, ctx: &mut Context<'_>) {
        let digest = proposal_digest(self.view, self.slot);
        ctx.report_fmt(
            "pre-prepare",
            format_args!("view={} slot={}", self.view, self.slot),
        );
        ctx.broadcast(PbftMsg::PrePrepare {
            view: self.view,
            slot: self.slot,
            digest,
        });
        self.accept(digest, ctx);
    }

    /// Accept a proposal for the current `(view, slot)` and send `prepare`.
    fn accept(&mut self, digest: Digest, ctx: &mut Context<'_>) {
        if self.accepted.is_some() || self.sent_prepare {
            return;
        }
        self.accepted = Some(digest);
        self.sent_prepare = true;
        // Phase progress: the leader is alive, so restart the suspicion
        // timer (Castro–Liskov timers measure time since progress on the
        // current request, not total request latency).
        self.restart_timer(ctx);
        let vd = vote_digest(PHASE_PREPARE, self.view, self.slot, digest);
        let sig = sign(ctx.id(), vd);
        ctx.broadcast(PbftMsg::Prepare {
            view: self.view,
            slot: self.slot,
            digest,
            sig,
        });
        self.on_prepare_vote(self.view, self.slot, digest, sig, ctx);
    }

    fn on_prepare_vote(
        &mut self,
        view: u64,
        slot: u64,
        digest: Digest,
        sig: Signature,
        ctx: &mut Context<'_>,
    ) {
        if view != self.view || slot != self.slot {
            return;
        }
        let vd = vote_digest(PHASE_PREPARE, view, slot, digest);
        if self.prepares.add(view, vd, sig).is_some() && !self.sent_commit {
            // Prepared: record the certificate and vote to commit.
            self.prepared_cert = Some(PreparedCert { view, slot, digest });
            self.sent_commit = true;
            self.restart_timer(ctx); // phase progress
            ctx.report_fmt("prepared", format_args!("view={view} slot={slot}"));
            let cd = vote_digest(PHASE_COMMIT, view, slot, digest);
            let csig = sign(ctx.id(), cd);
            ctx.broadcast(PbftMsg::Commit {
                view,
                slot,
                digest,
                sig: csig,
            });
            self.on_commit_vote(view, slot, digest, csig, ctx);
        }
    }

    fn on_commit_vote(
        &mut self,
        view: u64,
        slot: u64,
        digest: Digest,
        sig: Signature,
        ctx: &mut Context<'_>,
    ) {
        if slot < self.slot {
            return; // already decided
        }
        let cd = vote_digest(PHASE_COMMIT, view, slot, digest);
        if !sig.verify(cd) {
            return;
        }
        self.commit_certs
            .entry((view, slot, digest))
            .or_default()
            .insert(sig.signer());
        self.try_commit_current_slot(ctx);
    }

    /// Decides the current slot (and any directly following ones) for which
    /// a full commit certificate is already held, regardless of which view
    /// the certificate formed in.
    fn try_commit_current_slot(&mut self, ctx: &mut Context<'_>) {
        let q = self.params.quorum();
        loop {
            let slot = self.slot;
            let found = self
                .commit_certs
                .iter()
                .find(|(&(_, s, _), signers)| s == slot && signers.len() >= q)
                .map(|(&(view, _, digest), _)| (view, digest));
            let Some((view, digest)) = found else {
                return;
            };
            ctx.report_fmt("commit", format_args!("view={view} slot={slot}"));
            ctx.decide(Value::new(digest.as_u64()));
            self.advance_slot(ctx);
        }
    }

    /// Move to the next sequence number after a decision.
    fn advance_slot(&mut self, ctx: &mut Context<'_>) {
        self.slot += 1;
        self.accepted = None;
        self.sent_prepare = false;
        self.sent_commit = false;
        self.prepared_cert = None;
        self.timeout_exp = 0; // progress: reset back-off
        self.prepares.prune_below(self.view);
        let current = self.slot;
        self.commit_certs.retain(|&(_, s, _), _| s >= current);
        self.restart_timer(ctx);
        if self.leader(self.view) == ctx.id() {
            self.propose(ctx);
        }
    }

    /// Vote to change into `target` view (idempotent per target); the vote
    /// is retransmitted every λ until the node leaves `target`.
    fn vote_view_change(&mut self, target: u64, ctx: &mut Context<'_>) {
        if *self.vc_voted.get(&target).unwrap_or(&false) {
            return;
        }
        self.vc_voted.insert(target, true);
        ctx.report_fmt("view-change", format_args!("target={target}"));
        self.broadcast_view_change(target, ctx);
        ctx.set_timer(ctx.lambda(), RetransmitVc { target });
        let vd = vote_digest(PHASE_VIEW_CHANGE, target, 0, Digest::default());
        let sig = sign(ctx.id(), vd);
        self.on_view_change_vote(target, self.prepared_cert, sig, ctx);
    }

    fn broadcast_view_change(&mut self, target: u64, ctx: &mut Context<'_>) {
        let vd = vote_digest(PHASE_VIEW_CHANGE, target, 0, Digest::default());
        let sig = sign(ctx.id(), vd);
        ctx.broadcast(PbftMsg::ViewChange {
            new_view: target,
            prepared: self.prepared_cert,
            sig,
        });
    }

    fn on_view_change_vote(
        &mut self,
        target: u64,
        prepared: Option<PreparedCert>,
        sig: Signature,
        ctx: &mut Context<'_>,
    ) {
        // Votes for the view we are currently (still) trying to enter are
        // live; only strictly older targets are stale.
        if target < self.view {
            return;
        }
        if let Some(cert) = prepared {
            // Only certificates for the slot the new leader will re-propose
            // are relevant; ignore stale ones.
            if cert.slot == self.slot {
                let best = self.vc_best_prepared.entry(target).or_insert(cert);
                if cert.view > best.view {
                    *best = cert;
                }
            }
        }
        let vd = vote_digest(PHASE_VIEW_CHANGE, target, 0, Digest::default());
        let quorum_formed = self.view_changes.add(target, vd, sig).is_some();

        // Liveness amplification: join a view change once f + 1 nodes ask.
        if self.view_changes.count(target, vd) >= self.params.one_honest() {
            self.vote_view_change(target, ctx);
        }

        if quorum_formed && self.leader(target) == ctx.id() {
            // New leader: adopt the safest digest and announce the new view.
            let digest = self
                .vc_best_prepared
                .get(&target)
                .map(|c| c.digest)
                .unwrap_or_else(|| proposal_digest(target, self.slot));
            if target > self.view {
                self.enter_view(target, ctx);
            }
            ctx.report_fmt("new-view", format_args!("view={target} slot={}", self.slot));
            ctx.broadcast(PbftMsg::NewView {
                view: target,
                slot: self.slot,
                digest,
            });
            self.accept(digest, ctx);
        }
    }
}

impl Protocol for Pbft {
    fn init(&mut self, ctx: &mut Context<'_>) {
        self.enter_view(0, ctx);
        if self.leader(0) == ctx.id() {
            self.propose(ctx);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<PbftMsg>() else {
            return;
        };
        match *m {
            PbftMsg::PrePrepare { view, slot, digest } => {
                if view == self.view && slot == self.slot && msg.src() == self.leader(view) {
                    self.accept(digest, ctx);
                }
            }
            PbftMsg::Prepare {
                view,
                slot,
                digest,
                sig,
            } => {
                self.on_prepare_vote(view, slot, digest, sig, ctx);
            }
            PbftMsg::Commit {
                view,
                slot,
                digest,
                sig,
            } => {
                self.on_commit_vote(view, slot, digest, sig, ctx);
            }
            PbftMsg::ViewChange {
                new_view,
                prepared,
                sig,
            } => {
                self.on_view_change_vote(new_view, prepared, sig, ctx);
            }
            PbftMsg::NewView { view, slot, digest } => {
                if view >= self.view && slot == self.slot && msg.src() == self.leader(view) {
                    if view > self.view {
                        self.enter_view(view, ctx);
                    }
                    self.accept(digest, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        if let Some(r) = timer.downcast_ref::<RetransmitVc>() {
            // Keep re-broadcasting the pending view-change until the view
            // actually changes (receivers deduplicate by signer).
            if r.target == self.view && self.accepted.is_none() {
                self.broadcast_view_change(r.target, ctx);
                ctx.set_timer(ctx.lambda(), RetransmitVc { target: r.target });
            }
            return;
        }
        let Some(t) = timer.downcast_ref::<ViewTimeout>() else {
            return;
        };
        if t.view != self.view {
            return; // stale timer
        }
        // No progress within the timeout: back off and ask for a view change.
        self.timeout_exp += 1;
        let target = self.view + 1;
        self.enter_view(target, ctx);
        self.vote_view_change(target, ctx);
    }

    fn name(&self) -> &'static str {
        "pbft"
    }
}

/// Factory producing PBFT replicas for the engine.
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(Pbft::new(params)) as Box<dyn Protocol>
}
/// PBFT's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &[
    "pre-prepare",
    "prepare",
    "commit",
    "view-change",
    "new-view",
];

/// Classifies a payload into PBFT's index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<PbftMsg>().map(|m| match m {
        PbftMsg::PrePrepare { .. } => 0,
        PbftMsg::Prepare { .. } => 1,
        PbftMsg::Commit { .. } => 2,
        PbftMsg::ViewChange { .. } => 3,
        PbftMsg::NewView { .. } => 4,
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
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = RunConfig::new(n)
            .with_seed(1)
            .with_lambda_ms(lambda_ms)
            .with_target_decisions(decisions)
            .with_time_cap(SimDuration::from_secs(600.0))
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
    fn decides_one_slot_in_three_message_delays() {
        let r = run(4, 1, 100.0, 1000.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // pre-prepare + prepare + commit = 3 hops of 100 ms.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 300.0);
    }

    #[test]
    fn decides_multiple_slots_sequentially() {
        let r = run(4, 5, 50.0, 1000.0);
        assert!(r.is_clean());
        assert_eq!(r.decisions_completed(), 5);
        for seq in &r.decided {
            assert_eq!(seq.len(), 5);
        }
    }

    #[test]
    fn message_complexity_is_quadratic() {
        let r = run(16, 1, 100.0, 1000.0);
        let n = 16u64;
        // Slot 0: pre-prepare (n−1) + prepare and commit (n·(n−1) each).
        // The leader decides before the run stops and immediately kicks off
        // slot 1 (pre-prepare + its own prepare): 2·(n−1) more.
        assert_eq!(r.honest_messages, (n - 1) + 2 * n * (n - 1) + 2 * (n - 1));
    }

    #[test]
    fn responsive_latency_ignores_lambda() {
        let fast = run(4, 1, 100.0, 1000.0);
        let slow_lambda = run(4, 1, 100.0, 3000.0);
        assert_eq!(
            fast.latency().unwrap(),
            slow_lambda.latency().unwrap(),
            "PBFT is responsive: λ must not affect happy-path latency"
        );
    }

    #[test]
    fn crashed_leader_triggers_view_change_and_recovery() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashLeader;
        impl Adversary for CrashLeader {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                assert!(api.crash(NodeId::new(0))); // leader of view 0
            }
        }
        let cfg = RunConfig::new(4)
            .with_seed(1)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(60.0))
            .with_trace(TraceLevel::Events);
        let params = ProtocolParams::new(cfg.n, cfg.f, 42);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(CrashLeader)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // Must wait out the first view timeout (500 ms) before recovering.
        assert!(r.latency().unwrap().as_millis_f64() > 500.0);
        let vc = r.trace.custom("view-change");
        assert!(!vc.is_empty(), "view change must have happened");
    }

    #[test]
    fn underestimated_timeout_still_terminates_via_backoff() {
        // λ = 60 ms but the network needs 100 ms per hop: every view times
        // out until the doubled timeout exceeds ~3 hops.
        let r = run(4, 1, 100.0, 60.0);
        assert!(r.is_clean());
        assert_eq!(r.decisions_completed(), 1);
        assert!(
            r.latency().unwrap().as_millis_f64() > 300.0,
            "must be slower than the happy path"
        );
    }

    #[test]
    fn view_number_is_traced() {
        let r = run(4, 1, 100.0, 1000.0);
        let views = r.trace.view_timeline(NodeId::new(1));
        assert_eq!(views.first().map(|&(_, v)| v), Some(0));
    }
}
