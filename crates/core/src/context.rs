//! The interface a protocol uses to interact with the simulation — sending
//! messages, registering time events, and reporting results (the paper's
//! `reportToSystem`).

use std::ops::Range;
use std::sync::Arc;

use crate::config::RunConfig;
use crate::ids::{NodeId, TimerId};
use crate::payload::{Payload, PayloadCell};
use crate::time::{SimDuration, SimTime};
use crate::trace::write_detail;
use crate::value::Value;

/// Buffered effects of one protocol callback; the engine applies them after
/// the callback returns (which keeps the callback free of engine borrows).
///
/// Point-to-point sends, self-sends and timers carry a [`PayloadCell`], so
/// small payloads ride inline without touching the heap; broadcasts keep the
/// one shared `Arc` that all n − 1 destinations alias.
#[derive(Debug)]
pub(crate) enum Action {
    Send {
        dst: NodeId,
        payload: PayloadCell,
    },
    Broadcast {
        payload: Arc<dyn Payload>,
        include_self: bool,
    },
    SendSelf {
        payload: PayloadCell,
        delay: SimDuration,
    },
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        payload: PayloadCell,
    },
    CancelTimer(TimerId),
    Decide(Value),
    EnterView(u64),
    /// A report; its detail is already in the trace's detail table.
    Custom {
        label: &'static str,
        detail: Range<usize>,
    },
}

/// Handle passed to every [`Protocol`](crate::protocol::Protocol) callback.
///
/// Mirrors the consensus-module interface of §III-A3: messages go out through
/// the network module, time events are registered with the controller, and
/// decisions are reported back to the system.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    now: SimTime,
    n: usize,
    f: usize,
    lambda: SimDuration,
    actions: &'a mut Vec<Action>,
    next_timer_id: &'a mut u64,
    /// The trace's detail table, when the run keeps reports.
    details: Option<&'a mut String>,
    /// Reports made while the trace keeps none: counted, not buffered.
    pub(crate) skipped_reports: usize,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        node: NodeId,
        now: SimTime,
        cfg: &RunConfig,
        actions: &'a mut Vec<Action>,
        next_timer_id: &'a mut u64,
        details: Option<&'a mut String>,
    ) -> Self {
        Context {
            node,
            now,
            n: cfg.n,
            f: cfg.f,
            lambda: cfg.lambda,
            actions,
            next_timer_id,
            details,
            skipped_reports: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of nodes `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault budget `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The configured network-delay estimate λ (the protocol timeout
    /// parameter from the paper's evaluation).
    pub fn lambda(&self) -> SimDuration {
        self.lambda
    }

    /// Sends `payload` to `dst` through the network module. The message is
    /// assigned a delay by the network model and passes through the attacker
    /// module before delivery. Small payloads (see
    /// `fits_inline`) travel inline — no
    /// allocation per send.
    pub fn send<P: Payload + Clone + 'static>(&mut self, dst: NodeId, payload: P) {
        self.actions.push(Action::Send {
            dst,
            payload: PayloadCell::of(payload),
        });
    }

    /// Sends `payload` to every *other* node (n − 1 transmissions). The
    /// payload is allocated once and shared by refcount across all
    /// destinations — broadcasting performs no per-destination deep clone.
    pub fn broadcast<P: Payload + Clone + 'static>(&mut self, payload: P) {
        self.actions.push(Action::Broadcast {
            payload: Arc::new(payload),
            include_self: false,
        });
    }

    /// Sends `payload` to every node including itself. The self-copy is
    /// delivered locally at the current time without traversing the network
    /// (and is not counted as a transmitted message).
    pub fn broadcast_all<P: Payload + Clone + 'static>(&mut self, payload: P) {
        self.actions.push(Action::Broadcast {
            payload: Arc::new(payload),
            include_self: true,
        });
    }

    /// Delivers `payload` back to this node at the current time. Useful for
    /// protocol-internal state transitions expressed as messages.
    pub fn send_self<P: Payload + Clone + 'static>(&mut self, payload: P) {
        self.actions.push(Action::SendSelf {
            payload: PayloadCell::of(payload),
            delay: SimDuration::ZERO,
        });
    }

    /// Registers a time event `delay` from now; the controller will call
    /// `on_timer` with the given payload. Returns an id usable with
    /// [`cancel_timer`](Context::cancel_timer).
    pub fn set_timer<P: Payload + Clone + 'static>(
        &mut self,
        delay: SimDuration,
        payload: P,
    ) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.actions.push(Action::SetTimer {
            id,
            delay,
            payload: PayloadCell::of(payload),
        });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }

    /// Reports that this node decided `value` for its next consensus slot
    /// (slots are decided in order; the controller assigns the index).
    pub fn decide(&mut self, value: Value) {
        self.actions.push(Action::Decide(value));
    }

    /// Reports that this node entered view/round `view` — recorded in the
    /// trace and used for the paper's view-synchronisation analysis (Fig. 9).
    pub fn enter_view(&mut self, view: u64) {
        self.actions.push(Action::EnterView(view));
    }

    /// Records a protocol-defined trace event (e.g. `"pre-prepare"`) with a
    /// formatted detail — the hook used for cross-validation against
    /// ground-truth traces:
    ///
    /// ```ignore
    /// ctx.report_fmt("commit", format_args!("view={view}"));
    /// ```
    ///
    /// When the run's trace keeps reports ([`TraceLevel::Events`] and above)
    /// the detail is formatted straight onto the end of the trace's detail
    /// table. Below that the report is only counted: a torn write
    /// ([`crate::buggify`]) draws its cut from the length of a callback's
    /// output, reports included. Labels name a fixed set: a trace holds at
    /// most 4 096 distinct labels and payload types, and a detail under
    /// 16 MiB (the run panics past either).
    ///
    /// [`TraceLevel::Events`]: crate::trace::TraceLevel::Events
    pub fn report_fmt(&mut self, label: &'static str, args: core::fmt::Arguments<'_>) {
        match &mut self.details {
            Some(details) => self.actions.push(Action::Custom {
                label,
                detail: write_detail(details, args),
            }),
            None => self.skipped_reports += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u8);

    fn with_ctx<R>(f: impl FnOnce(&mut Context<'_>) -> R) -> (R, Vec<Action>) {
        let mut actions = Vec::new();
        let mut next_timer = 0;
        let mut ctx = Context::new(
            NodeId::new(2),
            SimTime::from_millis(7),
            &RunConfig::new(16),
            &mut actions,
            &mut next_timer,
            None,
        );
        let r = f(&mut ctx);
        (r, actions)
    }

    #[test]
    fn identity_accessors() {
        let ((), _) = with_ctx(|ctx| {
            assert_eq!(ctx.id(), NodeId::new(2));
            assert_eq!(ctx.now(), SimTime::from_millis(7));
            assert_eq!(ctx.n(), 16);
            assert_eq!(ctx.f(), 5);
            assert_eq!(ctx.lambda().as_millis_f64(), 1000.0);
        });
    }

    #[test]
    fn actions_are_buffered_in_order() {
        let ((), actions) = with_ctx(|ctx| {
            ctx.send(NodeId::new(1), P(1));
            ctx.broadcast(P(2));
            ctx.decide(Value::ONE);
            ctx.enter_view(3);
        });
        assert_eq!(actions.len(), 4);
        assert!(matches!(actions[0], Action::Send { .. }));
        assert!(matches!(
            actions[1],
            Action::Broadcast {
                include_self: false,
                ..
            }
        ));
        assert!(matches!(actions[2], Action::Decide(Value::ONE)));
        assert!(matches!(actions[3], Action::EnterView(3)));
    }

    #[test]
    fn timer_ids_are_unique_and_sequential() {
        let ((a, b), actions) = with_ctx(|ctx| {
            let a = ctx.set_timer(SimDuration::from_millis(10.0), P(0));
            let b = ctx.set_timer(SimDuration::from_millis(20.0), P(1));
            ctx.cancel_timer(a);
            (a, b)
        });
        assert_ne!(a, b);
        assert!(matches!(actions[2], Action::CancelTimer(id) if id == a));
    }

    #[test]
    fn below_events_a_report_is_counted_not_buffered() {
        let (skipped, actions) = with_ctx(|ctx| {
            ctx.report_fmt("commit", format_args!("view={}", 3));
            ctx.decide(Value::ONE);
            ctx.skipped_reports
        });
        assert_eq!(skipped, 1);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Decide(Value::ONE)));
    }

    #[test]
    fn at_events_each_report_is_formatted_into_the_detail_table() {
        let (mut actions, mut next_timer) = (Vec::new(), 0);
        let mut details = String::from("earlier");
        let mut ctx = Context::new(
            NodeId::new(2),
            SimTime::from_millis(7),
            &RunConfig::new(16),
            &mut actions,
            &mut next_timer,
            Some(&mut details),
        );
        ctx.report_fmt("commit", format_args!("view={}", 3));
        ctx.report_fmt("qc", format_args!("round={}", 41));
        assert_eq!(ctx.skipped_reports, 0);
        let [Action::Custom {
            label: first,
            detail: a,
        }, Action::Custom {
            label: second,
            detail: b,
        }] = &actions[..]
        else {
            panic!("expected two reports, got {actions:?}");
        };
        assert_eq!((*first, *second), ("commit", "qc"));
        assert_eq!(&details[a.clone()], "view=3");
        assert_eq!(&details[b.clone()], "round=41");
        assert_eq!((a.start, a.end), ("earlier".len(), b.start));
        assert_eq!(b.end, details.len());
    }
}
