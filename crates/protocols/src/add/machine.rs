//! The shared lock-step machine behind the three ADD+ BA variants
//! (Abraham–Devadas–Dolev–Nayak–Ren, ePrint 2018/1028).
//!
//! ADD+ is a *synchronous* Byzantine agreement with optimal resilience
//! (`f < n/2`) and expected-constant-round termination. Execution proceeds
//! in fixed-length rounds of duration Δ = λ, grouped into iterations:
//!
//! * **v1** — `status → propose → commit`, with a *deterministic
//!   round-robin* leader. A static attacker that fail-stops the first `f`
//!   leaders wastes the first `f` iterations (Fig. 8, left).
//! * **v2** — adds a *VRF reveal* round; the node with the lowest verified
//!   VRF value leads. A static attacker cannot predict leaders, but a
//!   *rushing adaptive* attacker can read the reveals in flight and corrupt
//!   each winner until its budget runs out (Fig. 8, right).
//! * **v3** — adds a *prepare* round **before** the reveal: honest nodes
//!   fix (and certify) the iteration's candidate value before anyone knows
//!   who leads, so corrupting the revealed leader no longer stops the
//!   iteration — expected-constant rounds even under the rushing adaptive
//!   attacker.
//!
//! Decisions require `n − f` matching commits; a decided node broadcasts a
//! notify certificate so laggards finish immediately.

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

use crate::common::{round_robin_leader, ProtocolParams};

/// Which ADD+ variant a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AddVariant {
    /// Round-robin leaders (baseline).
    V1,
    /// VRF leader election.
    V2,
    /// VRF leader election plus a prepare round (adaptive security).
    V3,
}

impl AddVariant {
    /// Rounds per iteration.
    pub(crate) fn rounds(self) -> u64 {
        match self {
            AddVariant::V1 => 3,
            AddVariant::V2 => 4,
            AddVariant::V3 => 5,
        }
    }

    /// The phase layout of this variant, indexed by round-within-iteration.
    pub(crate) fn phase(self, round_in_iter: u64) -> AddPhase {
        match (self, round_in_iter) {
            (_, 0) => AddPhase::Status,
            (AddVariant::V1, 1) => AddPhase::Propose,
            (AddVariant::V1, 2) => AddPhase::Commit,
            (AddVariant::V2, 1) => AddPhase::Reveal,
            (AddVariant::V2, 2) => AddPhase::Propose,
            (AddVariant::V2, 3) => AddPhase::Commit,
            (AddVariant::V3, 1) => AddPhase::Prepare,
            (AddVariant::V3, 2) => AddPhase::Reveal,
            (AddVariant::V3, 3) => AddPhase::Propose,
            (AddVariant::V3, 4) => AddPhase::Commit,
            _ => unreachable!("round {round_in_iter} out of range for {self:?}"),
        }
    }

    /// Display name matching the paper's Table I.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AddVariant::V1 => "add-v1",
            AddVariant::V2 => "add-v2",
            AddVariant::V3 => "add-v3",
        }
    }
}

/// A phase within an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AddPhase {
    /// Broadcast the locked value and its grade.
    Status,
    /// Broadcast the candidate value (v3 only).
    Prepare,
    /// Broadcast the VRF credential (v2/v3).
    Reveal,
    /// The leader broadcasts its proposal.
    Propose,
    /// Broadcast a commit for the iteration's value.
    Commit,
}

/// ADD+ wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum AddMsg {
    /// Locked value and the iteration it was locked in (grade).
    Status {
        /// Iteration.
        iter: u64,
        /// Locked (or input) value.
        value: Digest,
        /// Iteration of the lock; 0 = never locked.
        grade: u64,
    },
    /// v3 candidate announcement.
    Prepare {
        /// Iteration.
        iter: u64,
        /// Candidate value.
        value: Digest,
    },
    /// VRF leader-election credential (v2/v3).
    Reveal {
        /// Iteration.
        iter: u64,
        /// The credential.
        cred: VrfOutput,
    },
    /// Leader's proposal.
    Propose {
        /// Iteration.
        iter: u64,
        /// Proposed value.
        value: Digest,
    },
    /// Commit vote.
    Commit {
        /// Iteration.
        iter: u64,
        /// Committed value.
        value: Digest,
    },
    /// Decision certificate: `signers` (≥ n − f) committed `value`.
    Notify {
        /// The decided value.
        value: Digest,
        /// The committing quorum.
        cert: SignerSet,
    },
}

/// Per-iteration message bookkeeping.
#[derive(Debug, Default)]
struct IterState {
    statuses: FastMap<NodeId, (Digest, u64)>,
    prepares: FastMap<Digest, SignerSet>,
    reveals: Vec<VrfOutput>,
    /// Proposals received, keyed by proposer.
    proposals: FastMap<NodeId, Digest>,
    commits: FastMap<Digest, SignerSet>,
}

/// Timer payload marking a global round boundary.
#[derive(Debug, Clone, PartialEq)]
struct Boundary {
    global_round: u64,
}

/// One ADD+ node (any variant).
#[derive(Debug)]
pub(crate) struct AddBa {
    params: ProtocolParams,
    variant: AddVariant,
    /// Currently locked value (starts as the node's input with grade 0).
    locked: Digest,
    grade: u64,
    global_round: u64,
    iters: FastMap<u64, IterState>,
    decided: bool,
}

impl AddBa {
    /// Creates a node of the given variant; its input is derived from its
    /// id, so nodes start with (generally) distinct values.
    pub(crate) fn new(params: ProtocolParams, variant: AddVariant, id: NodeId) -> Self {
        let input = Digest::of_words(&[
            0x4144445f494e, // "ADD_IN"
            params.genesis_seed,
            id.as_u32() as u64,
        ]);
        AddBa {
            params,
            variant,
            locked: input,
            grade: 0,
            global_round: 0,
            iters: FastMap::default(),
            decided: false,
        }
    }

    fn iteration(&self) -> u64 {
        self.global_round / self.variant.rounds()
    }

    fn phase(&self) -> AddPhase {
        self.variant
            .phase(self.global_round % self.variant.rounds())
    }

    /// The leader of `iter` as this node currently sees it.
    fn leader(&self, iter: u64) -> Option<NodeId> {
        match self.variant {
            AddVariant::V1 => Some(round_robin_leader(iter, self.params.n)),
            AddVariant::V2 | AddVariant::V3 => self.iters.get(&iter).and_then(|st| {
                st.reveals
                    .iter()
                    .filter(|c| c.verify(self.params.genesis_seed) && c.input() == iter)
                    .min_by_key(|c| (c.value(), c.node()))
                    .map(VrfOutput::node)
            }),
        }
    }

    /// The candidate this node would propose/prepare for `iter`: the
    /// highest-grade status value (ties broken by larger digest), falling
    /// back to its own lock.
    fn candidate(&self, iter: u64) -> Digest {
        self.iters
            .get(&iter)
            .and_then(|st| {
                st.statuses
                    .values()
                    .max_by_key(|&&(v, g)| (g, v))
                    .map(|&(v, _)| v)
            })
            .unwrap_or(self.locked)
    }

    /// The v3 prepare-certificate value: a candidate with ≥ n − f prepares.
    fn prepared_value(&self, iter: u64) -> Option<Digest> {
        let need = self.params.honest_quorum();
        self.iters.get(&iter).and_then(|st| {
            st.prepares
                .iter()
                .find(|(_, s)| s.len() >= need)
                .map(|(&v, _)| v)
        })
    }

    /// Start-of-round actions for the current phase.
    fn start_round(&mut self, ctx: &mut Context<'_>) {
        let iter = self.iteration();
        let me = ctx.id();
        match self.phase() {
            AddPhase::Status => {
                let (value, grade) = (self.locked, self.grade);
                self.iters
                    .entry(iter)
                    .or_default()
                    .statuses
                    .insert(me, (value, grade));
                ctx.broadcast(AddMsg::Status { iter, value, grade });
            }
            AddPhase::Prepare => {
                let value = self.candidate(iter);
                self.iters
                    .entry(iter)
                    .or_default()
                    .prepares
                    .entry(value)
                    .or_default()
                    .insert(me);
                ctx.broadcast(AddMsg::Prepare { iter, value });
            }
            AddPhase::Reveal => {
                let cred = evaluate(self.params.genesis_seed, me, iter);
                self.iters.entry(iter).or_default().reveals.push(cred);
                ctx.broadcast(AddMsg::Reveal { iter, cred });
            }
            AddPhase::Propose => {
                if self.leader(iter) == Some(me) {
                    let value = match self.variant {
                        AddVariant::V3 => self
                            .prepared_value(iter)
                            .unwrap_or_else(|| self.candidate(iter)),
                        _ => self.candidate(iter),
                    };
                    ctx.report_fmt("add-propose", format_args!("iter={iter}"));
                    self.iters
                        .entry(iter)
                        .or_default()
                        .proposals
                        .insert(me, value);
                    ctx.broadcast(AddMsg::Propose { iter, value });
                }
            }
            AddPhase::Commit => {
                // v3: a prepare certificate commits even without the leader.
                let prepared = if self.variant == AddVariant::V3 {
                    self.prepared_value(iter)
                } else {
                    None
                };
                let from_leader = self
                    .leader(iter)
                    .and_then(|l| self.iters.get(&iter).and_then(|st| st.proposals.get(&l)))
                    .copied();
                if let Some(value) = prepared.or(from_leader) {
                    self.iters
                        .entry(iter)
                        .or_default()
                        .commits
                        .entry(value)
                        .or_default()
                        .insert(me);
                    ctx.broadcast(AddMsg::Commit { iter, value });
                }
            }
        }
    }

    /// End-of-commit-round processing: tally commits, decide or re-lock.
    fn finish_iteration(&mut self, iter: u64, ctx: &mut Context<'_>) {
        let need = self.params.honest_quorum();
        let weak = self.params.one_honest();
        let Some(st) = self.iters.get(&iter) else {
            return;
        };
        let best = st.commits.iter().max_by_key(|(_, s)| s.len());
        if let Some((&value, signers)) = best {
            if signers.len() >= need {
                let cert = signers.clone();
                self.lock(value, iter + 1);
                self.decide(value, ctx);
                ctx.broadcast(AddMsg::Notify { value, cert });
            } else if signers.len() >= weak {
                self.lock(value, iter + 1);
            }
        }
        self.iters.remove(&iter.saturating_sub(2)); // GC
    }

    fn lock(&mut self, value: Digest, grade: u64) {
        if grade > self.grade {
            self.locked = value;
            self.grade = grade;
        }
    }

    fn decide(&mut self, value: Digest, ctx: &mut Context<'_>) {
        if !self.decided {
            self.decided = true;
            ctx.report_fmt("add-decide", format_args!("iter={}", self.iteration()));
            ctx.decide(Value::new(value.as_u64()));
        }
    }
}

impl Protocol for AddBa {
    fn init(&mut self, ctx: &mut Context<'_>) {
        ctx.enter_view(0);
        self.start_round(ctx);
        ctx.set_timer(ctx.lambda(), Boundary { global_round: 1 });
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let Some(m) = msg.downcast_ref::<AddMsg>() else {
            return;
        };
        let src = msg.src();
        match m.clone() {
            AddMsg::Status { iter, value, grade } => {
                self.iters
                    .entry(iter)
                    .or_default()
                    .statuses
                    .insert(src, (value, grade));
            }
            AddMsg::Prepare { iter, value } => {
                self.iters
                    .entry(iter)
                    .or_default()
                    .prepares
                    .entry(value)
                    .or_default()
                    .insert(src);
            }
            AddMsg::Reveal { iter, cred } => {
                if cred.node() == src {
                    self.iters.entry(iter).or_default().reveals.push(cred);
                }
            }
            AddMsg::Propose { iter, value } => {
                self.iters
                    .entry(iter)
                    .or_default()
                    .proposals
                    .insert(src, value);
            }
            AddMsg::Commit { iter, value } => {
                self.iters
                    .entry(iter)
                    .or_default()
                    .commits
                    .entry(value)
                    .or_default()
                    .insert(src);
            }
            AddMsg::Notify { value, cert } => {
                if cert.len() >= self.params.honest_quorum() {
                    self.decide(value, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let Some(b) = timer.downcast_ref::<Boundary>() else {
            return;
        };
        self.global_round = b.global_round;
        let rounds = self.variant.rounds();
        // A boundary that starts a new iteration's status round first closes
        // the previous iteration's commit round.
        if self.global_round.is_multiple_of(rounds) && self.global_round > 0 {
            let finished = self.global_round / rounds - 1;
            self.finish_iteration(finished, ctx);
            ctx.enter_view(self.global_round / rounds);
        }
        if self.decided {
            return; // notify already broadcast; no further rounds needed
        }
        self.start_round(ctx);
        ctx.set_timer(
            ctx.lambda(),
            Boundary {
                global_round: self.global_round + 1,
            },
        );
    }

    fn name(&self) -> &'static str {
        self.variant.name()
    }
}

/// Factory for a given ADD+ variant.
pub(crate) fn factory(
    params: ProtocolParams,
    variant: AddVariant,
) -> impl Fn(NodeId) -> Box<dyn Protocol> {
    move |id| Box::new(AddBa::new(params, variant, id)) as Box<dyn Protocol>
}
/// ADD+ phase labels, indexed by [`phase_of`]'s return value.
pub(crate) const PHASES: &[&str] = &["status", "prepare", "reveal", "propose", "commit", "notify"];

/// Classifies a payload into the ADD index of [`PHASES`] for the observability
/// message-flow matrix (see [`bft_sim_core::obs`]). Shared by every
/// [`AddVariant`], which all speak the same [`AddMsg`] wire format.
pub(crate) fn phase_of(payload: &dyn bft_sim_core::payload::Payload) -> Option<u8> {
    payload.as_any().downcast_ref::<AddMsg>().map(|m| match m {
        AddMsg::Status { .. } => 0,
        AddMsg::Prepare { .. } => 1,
        AddMsg::Reveal { .. } => 2,
        AddMsg::Propose { .. } => 3,
        AddMsg::Commit { .. } => 4,
        AddMsg::Notify { .. } => 5,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_layouts() {
        assert_eq!(AddVariant::V1.rounds(), 3);
        assert_eq!(AddVariant::V2.rounds(), 4);
        assert_eq!(AddVariant::V3.rounds(), 5);
        assert_eq!(AddVariant::V1.phase(1), AddPhase::Propose);
        assert_eq!(AddVariant::V2.phase(1), AddPhase::Reveal);
        assert_eq!(AddVariant::V3.phase(1), AddPhase::Prepare);
        assert_eq!(AddVariant::V3.phase(4), AddPhase::Commit);
    }

    #[test]
    fn names_match_table_one() {
        assert_eq!(AddVariant::V1.name(), "add-v1");
        assert_eq!(AddVariant::V2.name(), "add-v2");
        assert_eq!(AddVariant::V3.name(), "add-v3");
    }
}
