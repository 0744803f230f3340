//! Sync HotStuff (Abraham et al., S&P 2020) — simplified steady state, an
//! *extension* beyond the paper's Table I. The paper cites Momose's
//! force-locking attack on Sync HotStuff [27] as exactly the kind of
//! "sophisticated attack strategy" BFTSim cannot model; this module (with
//! `bft_sim_attacks::sync_violation`) lets the simulator *demonstrate* a
//! safety break when the protocol's synchrony assumption is violated.
//!
//! The protocol is synchronous with optimal resilience (`f < n/2`, quorums
//! of `f + 1`) and a **2Δ commit rule**: a replica votes for the leader's
//! unique proposal and commits it 2Δ later *unless* it has meanwhile seen
//! the leader equivocate (or a blame quorum). Under the synchrony
//! assumption (every message within Δ = λ) an equivocation always reaches
//! every replica before its 2Δ window closes, so commits are safe; if an
//! attacker can hold evidence back for longer than 2Δ, conflicting commits
//! become possible — and the engine's safety checker reports them.

use bft_sim_core::context::Context;
use bft_sim_core::event::Timer;
use bft_sim_core::fasthash::FastMap;
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::protocol::Protocol;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::SignerSet;

use crate::common::{round_robin_leader, ProtocolParams};

/// Sync HotStuff wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ShsMsg {
    /// Leader's proposal for `height` in `view`.
    Propose {
        /// View.
        view: u64,
        /// Height (consecutive decisions).
        height: u64,
        /// Proposal digest.
        digest: Digest,
    },
    /// Broadcast vote.
    Vote {
        /// View.
        view: u64,
        /// Height.
        height: u64,
        /// Voted digest.
        digest: Digest,
    },
    /// Blame the current leader (silence or equivocation).
    Blame {
        /// The blamed view.
        view: u64,
    },
}

/// Timers.
#[derive(Debug, Clone, PartialEq)]
enum ShsTimer {
    /// The 2Δ commit window for a voted proposal.
    Commit {
        view: u64,
        height: u64,
        digest: Digest,
    },
    /// Leader-silence watchdog (3Δ).
    Silence { view: u64, height: u64 },
}

/// One Sync HotStuff replica.
#[derive(Debug)]
pub(crate) struct SyncHotStuff {
    params: ProtocolParams,
    view: u64,
    /// Next height to decide.
    height: u64,
    /// First proposal digest seen per `(view, height)`.
    proposals: FastMap<(u64, u64), Digest>,
    /// Votes per `(view, height, digest)`.
    votes: FastMap<(u64, u64, Digest), SignerSet>,
    /// Heights this node voted in (per view), to vote at most once.
    voted: FastMap<(u64, u64), bool>,
    /// Whether the leader of `view` was caught equivocating.
    equivocated: FastMap<u64, bool>,
    /// Blame votes per view.
    blames: FastMap<u64, SignerSet>,
    blamed: FastMap<u64, bool>,
}

impl SyncHotStuff {
    /// Creates a replica.
    pub(crate) fn new(params: ProtocolParams) -> Self {
        SyncHotStuff {
            params,
            view: 1,
            height: 1,
            proposals: FastMap::default(),
            votes: FastMap::default(),
            voted: FastMap::default(),
            equivocated: FastMap::default(),
            blames: FastMap::default(),
            blamed: FastMap::default(),
        }
    }

    fn leader(&self, view: u64) -> NodeId {
        round_robin_leader(view, self.params.n)
    }

    /// Sync quorum: `f + 1` (with `n = 2f + 1`, a majority).
    fn quorum(&self) -> usize {
        self.params.one_honest()
    }

    fn proposal_digest(&self, view: u64, height: u64) -> Digest {
        Digest::of_words(&[0x5348535f50524f50, self.params.genesis_seed, view, height])
    }

    fn propose(&mut self, ctx: &mut Context<'_>) {
        let (view, height) = (self.view, self.height);
        let digest = self.proposal_digest(view, height);
        ctx.report_fmt("shs-propose", format_args!("view={view} height={height}"));
        let me = ctx.id();
        self.on_propose(me, view, height, digest, ctx);
        ctx.broadcast(ShsMsg::Propose {
            view,
            height,
            digest,
        });
    }

    fn on_propose(
        &mut self,
        src: NodeId,
        view: u64,
        height: u64,
        digest: Digest,
        ctx: &mut Context<'_>,
    ) {
        if view != self.view || src != self.leader(view) {
            return;
        }
        match self.proposals.get(&(view, height)) {
            None => {
                self.proposals.insert((view, height), digest);
            }
            Some(&seen) if seen != digest => {
                // Equivocation: two conflicting proposals signed by the
                // leader. Cancel pending commits for this view and blame.
                self.equivocated.insert(view, true);
                ctx.report_fmt("shs-equivocation", format_args!("view={view}"));
                self.cast_blame(view, ctx);
                return;
            }
            // Already known (possibly via an echoed vote): fall through —
            // we may still owe our own vote.
            Some(_) => {}
        }
        // Vote for the first proposal at our current height.
        if height == self.height && !*self.voted.get(&(view, height)).unwrap_or(&false) {
            self.voted.insert((view, height), true);
            let me = ctx.id();
            self.on_vote(me, view, height, digest, ctx);
            ctx.broadcast(ShsMsg::Vote {
                view,
                height,
                digest,
            });
            // The 2Δ commit window.
            ctx.set_timer(
                ctx.lambda().saturating_mul(2),
                ShsTimer::Commit {
                    view,
                    height,
                    digest,
                },
            );
        }
    }

    fn on_vote(
        &mut self,
        src: NodeId,
        view: u64,
        height: u64,
        digest: Digest,
        ctx: &mut Context<'_>,
    ) {
        if view != self.view {
            return;
        }
        let set = self.votes.entry((view, height, digest)).or_default();
        set.insert(src);
        // Votes echo the leader's signed proposal, so a vote for a digest
        // conflicting with what we saw is equivocation evidence — this is
        // how the two halves of a split audience find out about each other
        // (under synchrony, within Δ, i.e. well inside the 2Δ window).
        match self.proposals.get(&(view, height)) {
            Some(&seen) if seen != digest => {
                self.equivocated.insert(view, true);
                ctx.report_fmt("shs-equivocation", format_args!("view={view}"));
                self.cast_blame(view, ctx);
            }
            None => {
                self.proposals.insert((view, height), digest);
            }
            _ => {}
        }
    }

    fn cast_blame(&mut self, view: u64, ctx: &mut Context<'_>) {
        if *self.blamed.get(&view).unwrap_or(&false) {
            return;
        }
        self.blamed.insert(view, true);
        let me = ctx.id();
        self.on_blame(me, view, ctx);
        ctx.broadcast(ShsMsg::Blame { view });
    }

    fn on_blame(&mut self, src: NodeId, view: u64, ctx: &mut Context<'_>) {
        if view < self.view {
            return;
        }
        let quorum = self.quorum();
        let set = self.blames.entry(view).or_default();
        set.insert(src);
        let certified = set.len() >= quorum;
        if certified {
            // Blame certificate: everyone seeing f + 1 blames joins and
            // moves on.
            self.cast_blame(view, ctx);
            if view == self.view {
                self.enter_view(view + 1, ctx);
            }
        }
    }

    fn enter_view(&mut self, view: u64, ctx: &mut Context<'_>) {
        self.view = view;
        ctx.enter_view(view);
        ctx.report_fmt("shs-view-change", format_args!("view={view}"));
        // Housekeeping: past views' bookkeeping can go.
        self.blames.retain(|&v, _| v >= view);
        self.equivocated.retain(|&v, _| v >= view);
        // New leader re-proposes the current height after Δ (status settle).
        if self.leader(view) == ctx.id() {
            let (v, h) = (view, self.height);
            let digest = self.proposal_digest(v, h);
            ctx.report_fmt("shs-propose", format_args!("view={v} height={h}"));
            let me = ctx.id();
            self.on_propose(me, v, h, digest, ctx);
            ctx.broadcast(ShsMsg::Propose {
                view: v,
                height: h,
                digest,
            });
        } else {
            let (v, h) = (view, self.height);
            ctx.set_timer(
                ctx.lambda().saturating_mul(3),
                ShsTimer::Silence { view: v, height: h },
            );
        }
    }
}

impl Protocol for SyncHotStuff {
    fn init(&mut self, ctx: &mut Context<'_>) {
        ctx.enter_view(1);
        if self.leader(1) == ctx.id() {
            self.propose(ctx);
        } else {
            ctx.set_timer(
                ctx.lambda().saturating_mul(3),
                ShsTimer::Silence { view: 1, height: 1 },
            );
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<ShsMsg>() else {
            return;
        };
        match *m {
            ShsMsg::Propose {
                view,
                height,
                digest,
            } => self.on_propose(msg.src(), view, height, digest, ctx),
            ShsMsg::Vote {
                view,
                height,
                digest,
            } => self.on_vote(msg.src(), view, height, digest, ctx),
            ShsMsg::Blame { view } => self.on_blame(msg.src(), view, ctx),
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let Some(t) = timer.downcast_ref::<ShsTimer>() else {
            return;
        };
        match *t {
            ShsTimer::Commit {
                view,
                height,
                digest,
            } => {
                // Commit 2Δ after voting, unless the view moved on or the
                // leader was caught equivocating in the meantime.
                if view == self.view
                    && height == self.height
                    && !*self.equivocated.get(&view).unwrap_or(&false)
                {
                    ctx.report_fmt("shs-commit", format_args!("view={view} height={height}"));
                    ctx.decide(Value::new(digest.as_u64()));
                    self.height = height + 1;
                    if self.leader(view) == ctx.id() {
                        self.propose(ctx);
                    } else {
                        let (v, h) = (view, self.height);
                        ctx.set_timer(
                            ctx.lambda().saturating_mul(3),
                            ShsTimer::Silence { view: v, height: h },
                        );
                    }
                }
            }
            ShsTimer::Silence { view, height } => {
                // No proposal for this height in time: blame the leader.
                if view == self.view
                    && height == self.height
                    && !self.proposals.contains_key(&(view, height))
                {
                    ctx.report_fmt("shs-silence", format_args!("view={view}"));
                    self.cast_blame(view, ctx);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "sync-hotstuff"
    }
}

/// Factory producing Sync HotStuff replicas.
pub(crate) fn factory(params: ProtocolParams) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |_id| Box::new(SyncHotStuff::new(params)) as Box<dyn Protocol>
}
/// Sync HotStuff's phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["propose", "vote", "blame"];

/// Classifies a payload into Sync HotStuff's phase label for the
/// observability message-flow matrix (see [`bft_sim_core::obs`]).
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<ShsMsg>().map(|m| match m {
        ShsMsg::Propose { .. } => 0,
        ShsMsg::Vote { .. } => 1,
        ShsMsg::Blame { .. } => 2,
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
            .with_seed(8)
            .with_f((n - 1) / 2)
            .with_lambda_ms(lambda_ms)
            .with_target_decisions(decisions)
            .with_time_cap(SimDuration::from_secs(300.0));
        let params = ProtocolParams::new(cfg.n, cfg.f, 3);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(delay_ms)))
            .protocols(factory(params))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn commits_after_the_two_delta_window() {
        let r = run(5, 1, 100.0, 500.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        // Proposal (100 ms) + 2Δ (1000 ms) = 1100 ms for followers; the
        // leader votes at t = 0 so it decides at 1000 ms; completion is
        // gated by the followers.
        assert_eq!(r.latency().unwrap().as_millis_f64(), 1100.0);
    }

    #[test]
    fn decides_successive_heights() {
        let r = run(5, 3, 50.0, 300.0);
        assert!(r.is_clean());
        assert_eq!(r.decisions_completed(), 3);
    }

    #[test]
    fn latency_scales_with_lambda() {
        let a = run(5, 1, 100.0, 500.0);
        let b = run(5, 1, 100.0, 1000.0);
        assert!(b.latency().unwrap() > a.latency().unwrap());
    }

    #[test]
    fn silent_leader_is_blamed_and_replaced() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        struct CrashLeader;
        impl Adversary for CrashLeader {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                // View-1 leader is node 1.
                assert!(api.crash(NodeId::new(1)));
            }
        }
        let cfg = RunConfig::new(5)
            .with_seed(8)
            .with_f(2)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0))
            .with_trace(TraceLevel::Events);
        let params = ProtocolParams::new(cfg.n, cfg.f, 3);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(CrashLeader)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
        assert!(!r.trace.custom("shs-view-change").is_empty());
    }

    #[test]
    fn equivocation_within_synchrony_is_caught_before_commit() {
        use bft_sim_core::adversary::{Adversary, AdversaryApi};
        // The adversary corrupts the leader and equivocates, but delivery
        // stays within Δ: every replica sees the conflict before its 2Δ
        // window closes, so nobody commits view 1 and safety holds.
        struct EquivocateInTime;
        impl Adversary for EquivocateInTime {
            fn init(&mut self, api: &mut AdversaryApi<'_>) {
                let leader = NodeId::new(1);
                assert!(api.corrupt(leader));
                let a = Digest::of_bytes(b"shs-a");
                let b = Digest::of_bytes(b"shs-b");
                for i in 0..api.n() as u32 {
                    if i == 1 {
                        continue;
                    }
                    let digest = if i % 2 == 0 { a } else { b };
                    api.inject(
                        leader,
                        NodeId::new(i),
                        SimDuration::from_millis(50.0),
                        ShsMsg::Propose {
                            view: 1,
                            height: 1,
                            digest,
                        },
                    );
                }
            }
        }
        let cfg = RunConfig::new(5)
            .with_seed(8)
            .with_f(2)
            .with_lambda_ms(500.0)
            .with_time_cap(SimDuration::from_secs(120.0))
            .with_trace(TraceLevel::Events);
        let params = ProtocolParams::new(cfg.n, cfg.f, 3);
        let r = SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(50.0)))
            .adversary(EquivocateInTime)
            .protocols(factory(params))
            .build()
            .unwrap()
            .run();
        // Votes circulate within 50 ms ≪ 2Δ = 1 s, so the conflicting
        // proposal reaches everyone in time: no safety violation, and the
        // view change recovers liveness.
        assert!(r.safety_violation.is_none(), "{:?}", r.safety_violation);
        assert!(!r.timed_out);
        assert!(!r.trace.custom("shs-equivocation").is_empty());
    }
}
