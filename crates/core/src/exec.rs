//! Toolkit for driving [`Protocol`] instances
//! from an *alternate executor* — used by the packet-level baseline
//! simulator (`bft-sim-baseline`), which replays the same consensus logic on
//! a deliberately finer-grained event model for the Fig. 2 comparison.
//!
//! The main engine keeps its action plumbing private; this module exposes a
//! [`Dispatcher`] that runs one protocol callback and returns the resulting
//! [`Effect`]s for the host executor to interpret.

use std::borrow::Cow;

use crate::context::{Action, Context};
use crate::event::Timer;
use crate::ids::{NodeId, TimerId};
use crate::message::Message;
use crate::payload::PayloadCell;
use crate::protocol::Protocol;
use crate::smallstr::SmallStr;
use crate::time::{SimDuration, SimTime};
use crate::value::Value;

/// Reconstructs a [`Timer`] for delivery from an external executor that
/// stored the id and payload of an [`Effect::SetTimer`].
pub fn timer_from_parts(id: TimerId, payload: impl Into<PayloadCell>) -> Timer {
    Timer::new(id, payload)
}

/// A no-op protocol, useful as a placeholder while an external executor has
/// a node's real instance checked out for dispatch.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProtocol;

impl Protocol for NullProtocol {
    fn init(&mut self, _ctx: &mut Context<'_>) {}
    fn on_message(&mut self, _msg: &Message, _ctx: &mut Context<'_>) {}
    fn on_timer(&mut self, _timer: &Timer, _ctx: &mut Context<'_>) {}
    fn name(&self) -> &'static str {
        "null"
    }
}

/// One externally visible effect of a protocol callback.
///
/// Payloads ride in [`PayloadCell`]s, mirroring the engine's own action
/// plumbing: the sends of one broadcast share a single refcounted
/// allocation, and small payloads are stored inline.
#[derive(Debug)]
pub enum Effect {
    /// Send `payload` to `dst` over the network.
    Send {
        /// Destination.
        dst: NodeId,
        /// The payload.
        payload: PayloadCell,
    },
    /// Deliver `payload` back to the node itself after `delay`, without
    /// touching the network (not a transmitted message).
    SendSelf {
        /// Local delivery delay.
        delay: SimDuration,
        /// The payload.
        payload: PayloadCell,
    },
    /// Arm a timer.
    SetTimer {
        /// Timer id (for cancellation).
        id: TimerId,
        /// Delay from now.
        delay: SimDuration,
        /// Payload handed back on expiry.
        payload: PayloadCell,
    },
    /// Cancel a previously armed timer.
    CancelTimer(TimerId),
    /// The node decided its next consensus slot.
    Decide(Value),
    /// The node entered a view.
    EnterView(u64),
    /// A protocol-defined trace event.
    Custom {
        /// Event label.
        label: Cow<'static, str>,
        /// Event detail.
        detail: SmallStr,
    },
}

/// Runs protocol callbacks outside the main engine and collects their
/// effects. Broadcast actions are expanded into per-destination
/// [`Effect::Send`]s (plus a zero-delay [`Effect::SendSelf`] for
/// `broadcast_all`), so executors only deal in unicasts.
#[derive(Debug)]
pub struct Dispatcher {
    next_timer_id: u64,
    n: usize,
    f: usize,
    lambda: SimDuration,
}

impl Dispatcher {
    /// Creates a dispatcher for a system of `n` nodes with fault budget `f`
    /// and timeout parameter `lambda`.
    pub fn new(n: usize, f: usize, lambda: SimDuration) -> Self {
        Dispatcher {
            next_timer_id: 0,
            n,
            f,
            lambda,
        }
    }

    /// Runs `body` with a [`Context`] for `node` at time `now` and returns
    /// the effects it produced.
    pub fn call<F>(&mut self, node: NodeId, now: SimTime, body: F) -> Vec<Effect>
    where
        F: FnOnce(&mut Context<'_>),
    {
        let mut actions = Vec::new();
        {
            let mut ctx = Context::new(
                node,
                now,
                self.n,
                self.f,
                self.lambda,
                &mut actions,
                &mut self.next_timer_id,
            );
            body(&mut ctx);
        }
        let mut effects = Vec::new();
        for action in actions {
            match action {
                Action::Send { dst, payload } => effects.push(Effect::Send { dst, payload }),
                Action::Broadcast {
                    payload,
                    include_self,
                } => {
                    for dst in NodeId::all(self.n) {
                        if dst == node {
                            continue;
                        }
                        effects.push(Effect::Send {
                            dst,
                            payload: PayloadCell::from(std::sync::Arc::clone(&payload)),
                        });
                    }
                    if include_self {
                        effects.push(Effect::SendSelf {
                            delay: SimDuration::ZERO,
                            payload: PayloadCell::from(payload),
                        });
                    }
                }
                Action::SendSelf { payload, delay } => {
                    effects.push(Effect::SendSelf { delay, payload })
                }
                Action::SetTimer { id, delay, payload } => {
                    effects.push(Effect::SetTimer { id, delay, payload })
                }
                Action::CancelTimer(id) => effects.push(Effect::CancelTimer(id)),
                Action::Decide(value) => effects.push(Effect::Decide(value)),
                Action::EnterView(view) => effects.push(Effect::EnterView(view)),
                Action::Custom { label, detail } => effects.push(Effect::Custom { label, detail }),
            }
        }
        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_expands_to_unicasts() {
        let mut d = Dispatcher::new(4, 1, SimDuration::from_millis(1000.0));
        let effects = d.call(NodeId::new(1), SimTime::ZERO, |ctx| {
            ctx.broadcast(42u8);
            ctx.decide(Value::ONE);
        });
        let sends = effects
            .iter()
            .filter(|e| matches!(e, Effect::Send { .. }))
            .count();
        assert_eq!(sends, 3);
        assert!(matches!(effects.last(), Some(Effect::Decide(Value::ONE))));
    }

    #[test]
    fn timer_ids_are_unique_across_calls() {
        let mut d = Dispatcher::new(2, 0, SimDuration::from_millis(10.0));
        let mut ids = Vec::new();
        for _ in 0..3 {
            let effects = d.call(NodeId::new(0), SimTime::ZERO, |ctx| {
                ctx.set_timer(SimDuration::from_millis(1.0), ());
            });
            for e in effects {
                if let Effect::SetTimer { id, .. } = e {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }
}
