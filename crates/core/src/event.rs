//! The events driving the simulation.
//!
//! Following standard discrete-event simulation practice (and §III-A2 of the
//! paper), the controller keeps a priority queue of timestamped events and
//! advances the simulation clock to each popped event's timestamp. Two event
//! classes exist: **message events** (a node receives a message) and **time
//! events** (a registered timer fires). Adversary timers are a third,
//! internal variant, and a broadcast's deliveries travel together as one
//! [`FanOut`] record instead of one message event per recipient.
//!
//! Events with equal timestamps are ordered by a global insertion sequence
//! number, which makes the execution order total and runs reproducible. The
//! queue itself is [`HeapScheduler`](crate::scheduler::HeapScheduler) in
//! [`crate::scheduler`]; this module defines the event types it carries.

use std::sync::Arc;

use crate::ids::{NodeId, TimerId};
use crate::message::Message;
use crate::payload::{Payload, PayloadCell};
use crate::time::{SimDuration, SimTime};

/// A timer registered by a node, waiting in the queue.
///
/// The payload rides in a [`PayloadCell`], so small timer payloads (view
/// numbers, round markers — in practice all of them) cost no allocation.
#[derive(Debug)]
pub struct Timer {
    /// Unique id, used for cancellation.
    pub(crate) id: TimerId,
    /// The protocol-defined payload attached at registration.
    payload: PayloadCell,
}

impl Timer {
    pub(crate) fn new(id: TimerId, payload: impl Into<PayloadCell>) -> Self {
        Timer {
            id,
            payload: payload.into(),
        }
    }

    /// Attempts to view the payload as concrete type `T`.
    pub fn downcast_ref<T: core::any::Any>(&self) -> Option<&T> {
        self.payload.as_dyn().as_any().downcast_ref::<T>()
    }
}

/// One pending delivery of a broadcast: when (as an offset from the send),
/// under which reserved insertion seq (as an offset into the broadcast's
/// block), and to whom. 12 bytes, so an all-to-all phase keeps n² of *these*
/// rather than n² queue entries. A copy delayed by 2³² µs (≈ 71.6 min) or
/// more has no `Recipient`: the engine schedules it as an event of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Recipient {
    /// Microseconds after the broadcast's [`FanOut::sent_at`].
    pub(crate) after: u32,
    /// The delivery's seq, relative to the first seq reserved for the
    /// broadcast.
    pub(crate) seq_offset: u32,
    /// The destination node.
    pub(crate) dst: NodeId,
}

impl Recipient {
    /// Absolute delivery time of a copy sent at `sent_at`.
    pub(crate) fn at(self, sent_at: SimTime) -> SimTime {
        sent_at + SimDuration::from_micros(u64::from(self.after))
    }
}

/// All still-undelivered copies of one broadcast that share its payload
/// allocation, held as a single queue entry.
///
/// Created and consumed inside the scheduler (see
/// `HeapScheduler::schedule_fanout`):
/// the record sits in the queue at its earliest recipient's
/// `(sent_at + after, first_seq + seq_offset)`, each pop splits that
/// recipient off as an ordinary [`EventKind::Deliver`] and moves the record
/// to the next recipient's reserved position, so the deliveries surface in
/// exactly the order separately scheduled entries would.
#[derive(Debug)]
pub struct FanOut {
    pub(crate) src: NodeId,
    pub(crate) sent_at: SimTime,
    pub(crate) payload: Arc<dyn Payload>,
    /// First seq of the block reserved for this broadcast.
    pub(crate) first_seq: u64,
    /// Where the scheduler keeps the recipient list (latest first, so the
    /// undelivered ones are `start..start + remaining` on `page`).
    pub(crate) page: u32,
    pub(crate) start: u32,
    pub(crate) remaining: u32,
}

/// What happens when an event is popped.
///
/// Only the engine constructs these (the [`Timer`] constructor is
/// crate-private); the scheduler treats them as opaque cargo.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a message to its destination node.
    Deliver(Message),
    /// Deliver a broadcast to each of its recipients in turn. Never popped:
    /// the scheduler hands the recipients out as [`EventKind::Deliver`]
    /// events, one per pop.
    FanOut(FanOut),
    /// Fire a node timer.
    NodeTimer {
        /// The node whose timer fires.
        node: NodeId,
        /// The timer itself (id + payload).
        timer: Timer,
    },
    /// Fire an adversary timer with an attacker-chosen tag.
    AdversaryTimer {
        /// The attacker-chosen tag passed back on firing.
        tag: u64,
    },
}

/// An event stamped with its dispatch time and insertion sequence number.
///
/// The pair `(at, seq)` is the *total* dispatch order a
/// [`HeapScheduler`](crate::scheduler::HeapScheduler) honours.
#[derive(Debug)]
pub struct ScheduledEvent {
    /// Absolute dispatch time.
    pub(crate) at: SimTime,
    /// Insertion sequence number — the equal-timestamp tie-breaker.
    pub(crate) seq: u64,
    /// What to do at `at`.
    pub(crate) kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::boxed;

    #[test]
    fn timer_payload_downcast() {
        #[derive(Debug, Clone, PartialEq)]
        struct ViewTimeout(u64);
        let t = Timer::new(TimerId(1), boxed(ViewTimeout(4)));
        assert_eq!(t.downcast_ref::<ViewTimeout>(), Some(&ViewTimeout(4)));
        assert!(t.downcast_ref::<u8>().is_none());
    }
}
