//! Network messages exchanged between simulated nodes.

use core::any::Any;
use core::fmt;
use std::sync::Arc;

use crate::ids::NodeId;
use crate::payload::{Payload, PayloadCell};
use crate::time::SimTime;

/// A point-to-point message in flight between two nodes.
///
/// Every message carries its claimed *source*, its *destination*, the time it
/// was sent, and a type-erased protocol payload. All messages traverse the
/// network module (which assigns a delay) and then the attacker module (which
/// may observe, drop, delay, modify or replace them) before delivery — see
/// §III-A of the paper.
///
/// The payload is a [`PayloadCell`]: broadcast fan-out shares one `Arc`
/// allocation across all destinations (cloning bumps a refcount), while
/// small point-to-point payloads ride inline and never touch the heap.
/// Mutation via [`Message::downcast_mut`] is copy-on-write, so tampering
/// with one delivery never aliases into another destination's copy.
#[derive(Debug, Clone)]
pub struct Message {
    src: NodeId,
    dst: NodeId,
    sent_at: SimTime,
    injected: bool,
    payload: PayloadCell,
}

impl Message {
    /// Creates a new honest message. Library users normally go through
    /// [`Context::send`](crate::context::Context::send) instead.
    ///
    /// Accepts a [`PayloadCell`], a `Box<dyn Payload>` (e.g. from
    /// [`boxed`](crate::payload::boxed)) or an `Arc<dyn Payload>`; boxes
    /// convert without copying.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        payload: impl Into<PayloadCell>,
    ) -> Self {
        Message {
            src,
            dst,
            sent_at,
            injected: false,
            payload: payload.into(),
        }
    }

    /// Creates an adversary-injected message. The `src` field is the node the
    /// adversary *impersonates*; honest receivers cannot tell the difference
    /// (the paper's attacker "inserts new messages").
    pub(crate) fn injected(
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        payload: impl Into<PayloadCell>,
    ) -> Self {
        Message {
            src,
            dst,
            sent_at,
            injected: true,
            payload: payload.into(),
        }
    }

    /// Points the message at another destination: the engine's broadcast
    /// loop sends one message to each peer in turn instead of building n − 1.
    pub(crate) fn readdress(&mut self, dst: NodeId) {
        self.dst = dst;
    }

    /// The (claimed) sender.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Simulation time at which the message entered the network.
    pub fn sent_at(&self) -> SimTime {
        self.sent_at
    }

    /// Whether the adversary inserted this message (as opposed to an honest
    /// node sending it). Honest protocol logic must not read this — it exists
    /// for metrics and traces.
    pub fn is_injected(&self) -> bool {
        self.injected
    }

    /// Borrows the type-erased payload.
    pub(crate) fn payload(&self) -> &dyn Payload {
        self.payload.as_dyn()
    }

    /// The payload's wire size in bytes (see
    /// [`Payload::wire_size`](crate::payload::Payload::wire_size)); what the
    /// network model charges against link bandwidth.
    pub(crate) fn wire_size(&self) -> u64 {
        self.payload.wire_size() as u64
    }

    /// Borrows the shared payload handle, if the payload is `Arc`-backed
    /// (broadcasts always are; small point-to-point payloads are inline and
    /// return `None`). Mainly useful for asserting zero-copy fan-out
    /// (`Arc::ptr_eq`) in tests and tooling.
    pub fn payload_arc(&self) -> Option<&Arc<dyn Payload>> {
        self.payload.arc()
    }

    /// A shared handle to the payload: a refcount bump when it is already
    /// `Arc`-backed, a deep clone into a fresh allocation when inline.
    pub fn clone_payload_arc(&self) -> Arc<dyn Payload> {
        self.payload.clone_arc()
    }

    /// Attempts to view the payload as concrete type `T`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bft_sim_core::{ids::NodeId, message::Message, payload::boxed, time::SimTime};
    ///
    /// #[derive(Debug, Clone, PartialEq)]
    /// struct Vote(u64);
    ///
    /// let m = Message::new(NodeId::new(0), NodeId::new(1), SimTime::ZERO, boxed(Vote(3)));
    /// assert_eq!(m.downcast_ref::<Vote>(), Some(&Vote(3)));
    /// ```
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.payload.as_dyn().as_any().downcast_ref::<T>()
    }

    /// Attempts to view the payload mutably as concrete type `T`. Used by
    /// attackers that tamper with messages in flight.
    ///
    /// Copy-on-write: if the payload is still shared with other deliveries
    /// of the same broadcast, it is deep-cloned first, so the mutation is
    /// confined to this message (inline payloads are uniquely owned and
    /// mutate in place). The type check happens *before* the clone, so a
    /// failed downcast costs nothing.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.payload.as_dyn().as_any().downcast_ref::<T>()?;
        self.payload.as_dyn_mut().as_any_mut().downcast_mut::<T>()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} @ {} [{}]",
            self.src,
            self.dst,
            self.sent_at,
            self.payload.as_dyn().payload_type()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::boxed;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u8);

    #[test]
    fn accessors() {
        let m = Message::new(
            NodeId::new(1),
            NodeId::new(2),
            SimTime::from_millis(5),
            boxed(P(9)),
        );
        assert_eq!(m.src(), NodeId::new(1));
        assert_eq!(m.dst(), NodeId::new(2));
        assert_eq!(m.sent_at(), SimTime::from_millis(5));
        assert!(!m.is_injected());
        assert_eq!(m.downcast_ref::<P>(), Some(&P(9)));
        assert_eq!(m.wire_size(), core::mem::size_of::<P>() as u64);
    }

    #[test]
    fn tampering() {
        let mut m = Message::new(NodeId::new(0), NodeId::new(1), SimTime::ZERO, boxed(P(1)));
        m.downcast_mut::<P>().unwrap().0 = 7;
        assert_eq!(m.downcast_ref::<P>(), Some(&P(7)));
    }

    #[test]
    fn injected_flag() {
        let m = Message::injected(NodeId::new(0), NodeId::new(1), SimTime::ZERO, boxed(P(0)));
        assert!(m.is_injected());
    }

    #[test]
    fn clone_shares_payload_allocation() {
        let m = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            Arc::new(P(5)) as Arc<dyn Payload>,
        );
        let c = m.clone();
        assert!(Arc::ptr_eq(
            m.payload_arc().unwrap(),
            c.payload_arc().unwrap()
        ));
    }

    #[test]
    fn downcast_mut_is_copy_on_write() {
        let m = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            Arc::new(P(5)) as Arc<dyn Payload>,
        );
        let mut tampered = m.clone();
        tampered.downcast_mut::<P>().unwrap().0 = 99;
        // The original delivery is unaffected and no longer aliased.
        assert_eq!(m.downcast_ref::<P>(), Some(&P(5)));
        assert_eq!(tampered.downcast_ref::<P>(), Some(&P(99)));
        assert!(!Arc::ptr_eq(
            m.payload_arc().unwrap(),
            tampered.payload_arc().unwrap()
        ));
    }

    #[test]
    fn failed_downcast_mut_does_not_unshare() {
        let m = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            Arc::new(P(5)) as Arc<dyn Payload>,
        );
        let mut c = m.clone();
        assert!(c.downcast_mut::<String>().is_none());
        assert!(Arc::ptr_eq(
            m.payload_arc().unwrap(),
            c.payload_arc().unwrap()
        ));
    }

    #[test]
    fn unique_downcast_mut_mutates_in_place() {
        let mut m = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            Arc::new(P(1)) as Arc<dyn Payload>,
        );
        let before = Arc::as_ptr(m.payload_arc().unwrap());
        m.downcast_mut::<P>().unwrap().0 = 2;
        assert_eq!(Arc::as_ptr(m.payload_arc().unwrap()), before);
        assert_eq!(m.downcast_ref::<P>(), Some(&P(2)));
    }

    #[test]
    fn inline_payloads_have_no_arc_and_mutate_in_place() {
        use crate::payload::PayloadCell;
        let mut m = Message::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            PayloadCell::of(P(5)),
        );
        assert!(
            m.payload_arc().is_none(),
            "inline payload is not Arc-backed"
        );
        m.downcast_mut::<P>().unwrap().0 = 6;
        assert_eq!(m.downcast_ref::<P>(), Some(&P(6)));
        // Promotion yields a real shared handle carrying the same value.
        let arc = m.clone_payload_arc();
        assert_eq!(arc.as_ref().as_any().downcast_ref::<P>(), Some(&P(6)));
    }
}
