//! The attacker module: a global abstracted adversary.
//!
//! Instead of instantiating individual Byzantine nodes, the simulator routes
//! **every** message through one global [`Adversary`] (§III-A5). Because the
//! adversary observes each message before it is delivered, it is *rushing by
//! construction*; because it can corrupt nodes mid-run (up to the fault
//! budget `f`), it can be *adaptive*; and because it can drop, delay, modify
//! and inject messages, corrupting a node's message stream is equivalent to
//! controlling the node itself.

use std::sync::Arc;

use crate::ids::{NodeId, NodeSet};
use crate::message::Message;
use crate::payload::Payload;
use crate::time::{SimDuration, SimTime};

/// What the adversary decided to do with an intercepted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver after the given delay (possibly different from the network's
    /// proposed delay).
    Deliver(SimDuration),
    /// Silently drop the message.
    Drop,
}

/// Buffered adversary effects, applied by the engine after the callback.
#[derive(Debug)]
pub(crate) enum AdvAction {
    Inject {
        src: NodeId,
        dst: NodeId,
        delay: SimDuration,
        payload: Arc<dyn Payload>,
    },
    Corrupt(NodeId),
    Crash(NodeId),
    SetTimer {
        tag: u64,
        delay: SimDuration,
    },
}

/// Capabilities handed to adversary callbacks.
///
/// Inject/corrupt/crash requests are buffered and applied by the controller
/// after the callback returns; corruption beyond the fault budget is refused.
#[derive(Debug)]
pub struct AdversaryApi<'a> {
    now: SimTime,
    n: usize,
    f: usize,
    corrupted: &'a NodeSet,
    crashed: &'a NodeSet,
    budget_left: usize,
    actions: &'a mut Vec<AdvAction>,
}

impl<'a> AdversaryApi<'a> {
    pub(crate) fn new(
        now: SimTime,
        n: usize,
        f: usize,
        corrupted: &'a NodeSet,
        crashed: &'a NodeSet,
        actions: &'a mut Vec<AdvAction>,
    ) -> Self {
        let budget_left = f.saturating_sub(corrupted.len());
        AdversaryApi {
            now,
            n,
            f,
            corrupted,
            crashed,
            budget_left,
            actions,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fault budget `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Whether `node` is currently corrupted.
    pub fn is_corrupted(&self, node: NodeId) -> bool {
        self.corrupted.contains(node)
    }

    /// Adaptively corrupts `node`, counting against the fault budget.
    /// Returns `false` (and does nothing) if the budget is exhausted.
    /// Corrupting an already-corrupted node is a free no-op.
    pub fn corrupt(&mut self, node: NodeId) -> bool {
        if self.is_corrupted(node) {
            return true;
        }
        if self.budget_left == 0 {
            return false;
        }
        self.budget_left -= 1;
        self.actions.push(AdvAction::Corrupt(node));
        true
    }

    /// Fail-stops `node`: it stops processing events entirely. Counts
    /// against the fault budget like corruption (a crash is the weakest
    /// Byzantine behaviour). Returns `false` if the budget is exhausted.
    pub fn crash(&mut self, node: NodeId) -> bool {
        if self.crashed.contains(node) {
            return true;
        }
        if self.budget_left == 0 {
            return false;
        }
        self.budget_left -= 1;
        self.actions.push(AdvAction::Crash(node));
        true
    }

    /// Injects a forged message claiming to be from `src`, delivered to
    /// `dst` after `delay`.
    pub fn inject<P: Payload + 'static>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        delay: SimDuration,
        payload: P,
    ) {
        self.inject_payload(src, dst, delay, Arc::new(payload));
    }

    /// Like [`inject`](AdversaryApi::inject), but takes an already
    /// type-erased payload handle. This lets an adversary replay a payload it
    /// intercepted in flight ([`Message::payload_arc`]) without knowing — or
    /// cloning — the concrete type.
    pub fn inject_payload(
        &mut self,
        src: NodeId,
        dst: NodeId,
        delay: SimDuration,
        payload: Arc<dyn Payload>,
    ) {
        self.actions.push(AdvAction::Inject {
            src,
            dst,
            delay,
            payload,
        });
    }

    /// Registers an adversary time event; `on_timer` fires with `tag` after
    /// `delay`.
    pub fn set_timer(&mut self, tag: u64, delay: SimDuration) {
        self.actions.push(AdvAction::SetTimer { tag, delay });
    }
}

/// A global attacker. Implement [`attack`](Adversary::attack) (the paper's
/// message-interception callback) and optionally
/// [`on_timer`](Adversary::on_timer) for time-triggered behaviour.
pub trait Adversary: Send {
    /// Called once at simulation start.
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        let _ = api;
    }

    /// Called for every message after the network proposed a delay and
    /// before the message event is scheduled. The default is to deliver
    /// unmodified with the proposed delay.
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        let _ = (msg, api);
        Fate::Deliver(proposed)
    }

    /// Called when an adversary time event registered via
    /// [`AdversaryApi::set_timer`] fires.
    fn on_timer(&mut self, tag: u64, api: &mut AdversaryApi<'_>) {
        let _ = (tag, api);
    }

    /// Human-readable attacker name for results and traces.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// Boxed adversaries forward to their inner adversary, so one chosen at
/// runtime (`Box<dyn Adversary>`) satisfies `SimulationBuilder::adversary`
/// like any concrete one.
impl Adversary for Box<dyn Adversary> {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        (**self).init(api);
    }

    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        (**self).attack(msg, proposed, api)
    }

    fn on_timer(&mut self, tag: u64, api: &mut AdversaryApi<'_>) {
        (**self).on_timer(tag, api);
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The benign adversary: delivers everything untouched.
#[derive(Debug, Clone, Default)]
pub struct NullAdversary;

impl NullAdversary {
    /// Creates the benign adversary.
    pub fn new() -> Self {
        NullAdversary
    }
}

impl Adversary for NullAdversary {
    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_budget_is_enforced() {
        let corrupted = NodeSet::new();
        let crashed = NodeSet::new();
        let mut actions = Vec::new();
        let mut api = AdversaryApi::new(SimTime::ZERO, 4, 1, &corrupted, &crashed, &mut actions);
        assert_eq!(api.budget_left, 1);
        assert!(api.corrupt(NodeId::new(0)));
        assert!(!api.corrupt(NodeId::new(1)), "budget exhausted");
        assert_eq!(actions.len(), 1);
    }

    #[test]
    fn recorrupting_is_free() {
        let corrupted: NodeSet = [NodeId::new(2)].into_iter().collect();
        let crashed = NodeSet::new();
        let mut actions = Vec::new();
        let mut api = AdversaryApi::new(SimTime::ZERO, 4, 1, &corrupted, &crashed, &mut actions);
        assert_eq!(api.budget_left, 0);
        assert!(api.corrupt(NodeId::new(2)), "already corrupted: no-op ok");
        assert!(actions.is_empty());
    }

    #[test]
    fn crash_shares_the_budget() {
        let corrupted = NodeSet::new();
        let crashed = NodeSet::new();
        let mut actions = Vec::new();
        let mut api = AdversaryApi::new(SimTime::ZERO, 7, 2, &corrupted, &crashed, &mut actions);
        assert!(api.crash(NodeId::new(0)));
        assert!(api.corrupt(NodeId::new(1)));
        assert!(!api.crash(NodeId::new(2)));
    }

    #[test]
    fn null_adversary_delivers() {
        let corrupted = NodeSet::new();
        let crashed = NodeSet::new();
        let mut actions = Vec::new();
        let mut api = AdversaryApi::new(SimTime::ZERO, 4, 1, &corrupted, &crashed, &mut actions);
        let mut adv = NullAdversary::new();
        let mut msg = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            crate::payload::boxed(7u8),
        );
        let fate = adv.attack(&mut msg, SimDuration::from_millis(5.0), &mut api);
        assert_eq!(fate, Fate::Deliver(SimDuration::from_millis(5.0)));
    }
}
