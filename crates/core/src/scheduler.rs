//! The event queue.
//!
//! The controller (§III-A of the paper) is, at its core, a simulation clock
//! driven by a priority queue of timestamped events. This module is that
//! queue: `HeapScheduler`, a binary min-heap, behind the [`Scheduler`]
//! trait. The trait hides the algorithm from the engine (which only ever
//! holds a `Box<dyn Scheduler>`), and lets a test drive the queue directly.
//!
//! # The order contract
//!
//! Events are dispatched in one total order: ascending
//! `(timestamp, insertion seq)`, where the insertion sequence number is
//! assigned by [`Scheduler::schedule`] in call order, starting at zero.
//! Equal-timestamp events therefore fire in the order they were scheduled,
//! and the order is total — there are no unordered pairs.
//!
//! A caller may also take a block of sequence numbers out of that counter
//! with [`Scheduler::reserve`] and spend them later, one event each, through
//! [`Scheduler::schedule_reserved`]. A reserved seq orders exactly as if the
//! event had been `schedule`d at the moment of the reservation, whenever it
//! is actually handed over.
//!
//! [`Scheduler::schedule_fanout`] relies on this: one resident entry stands
//! for all of a broadcast's deliveries, each holding a seq of the block
//! reserved for it. The entry is keyed at its earliest undelivered
//! recipient; `pop` splits that recipient off as an ordinary `Deliver` event
//! and re-keys the entry in place at the next one, so the dispatch order is
//! the one n − 1 separate entries would have produced. Because the engine is
//! single-threaded per run and derives all randomness from the run seed,
//! this order makes every run byte-identical (and, via [`crate::sweep`], at
//! any thread count). Schedule record/replay ([`crate::validator`]) and the
//! golden-trace oracles rely on it.
//!
//! The rest of the contract:
//!
//! * `schedule` and `schedule_reserved` are only called with `at` ≥ the
//!   timestamp of the last popped event (the engine never schedules into the
//!   past), and a reserved seq is scheduled at most once;
//! * `cancel` suppresses a pending event so it is *never* returned by `pop`;
//!   the engine only cancels events that are still pending, and only ever
//!   timer events. A handle that is no longer pending (popped or already
//!   cancelled) is refused: `cancel` returns `false` and changes nothing;
//! * [`Scheduler::len`] is the *logical* depth: pending (non-cancelled)
//!   events, a fan-out entry counting once per undelivered recipient —
//!   however many stale keys are still resident and however few entries
//!   stand for them.
//!
//! # Layout
//!
//! The heap holds 24-byte keys `(at, seq, slot)`; the events themselves sit
//! in a slab of slots, each occupied slot recording the seq it holds. A pop
//! takes the key at the root and moves its event out of the slot, so sifts
//! move keys, never events. A cancel vacates the slot at once — the timer's
//! payload is dropped then — and leaves the key behind: a key whose slot is
//! vacant, or holds another seq by now, is *stale* and is discarded when it
//! surfaces at the root.
//!
//! What the queue costs physically (stale keys, resident peak) is reported
//! through [`SchedulerStats`], which `crates/bench/tests/footprint.rs` pins;
//! it never feeds back into simulation results.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;

use crate::event::{EventKind, FanOut, Recipient, ScheduledEvent};
#[cfg(debug_assertions)]
use crate::fasthash::FastSet;
use crate::ids::NodeId;
use crate::message::Message;
use crate::payload::Payload;
use crate::time::SimTime;

/// An opaque handle to a scheduled event, returned by
/// [`Scheduler::schedule`] and redeemed by [`Scheduler::cancel`].
///
/// Handles hold the event's insertion sequence number, which is unique for
/// the lifetime of a scheduler, and the slab slot it was put in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// Counters the queue reports about its own internals.
///
/// These are *diagnostics*, not simulation outputs, which is why the fuzz
/// report JSON deliberately omits them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Peak number of keys in the heap at once, *including* stale keys of
    /// cancelled events that have not surfaced yet. A fan-out entry counts
    /// once however many recipients it holds, so this is the physical
    /// footprint, not the logical depth [`Scheduler::len`] reports.
    pub peak_resident: usize,
    /// Stale keys — of events cancelled while pending — discarded when they
    /// surfaced at the root.
    pub tombstones_popped: u64,
    /// Stale keys still in the heap when the snapshot was taken.
    pub(crate) pending_tombstones: usize,
}

/// The event-queue abstraction the engine drives.
///
/// See the [module docs](self) for the order contract an implementation
/// must uphold.
pub trait Scheduler: core::fmt::Debug {
    /// Schedules `kind` at absolute time `at` and returns a cancellation
    /// handle. Assigns the event the next insertion sequence number.
    fn schedule(&mut self, at: SimTime, kind: EventKind) -> EventHandle;

    /// Takes `count` consecutive insertion sequence numbers out of the
    /// counter and returns the first. Nothing becomes resident; each seq is
    /// spent by one later [`schedule_reserved`](Scheduler::schedule_reserved)
    /// call (or never — an unspent seq simply leaves a gap).
    fn reserve(&mut self, count: u64) -> u64;

    /// Schedules `kind` at absolute time `at` under a sequence number
    /// obtained from [`reserve`](Scheduler::reserve). Scheduling a seq that
    /// was never reserved, or the same seq twice, is a caller bug (checked
    /// in debug builds).
    fn schedule_reserved(&mut self, at: SimTime, seq: u64, kind: EventKind) -> EventHandle;

    /// Schedules the deliveries of one broadcast — `payload`, sent by `src`
    /// at `sent_at` — as a single resident entry. `recipients` lists them
    /// latest first (descending `(at, seq_offset)`), recipient `r` holding
    /// the reserved seq `first_seq + r.seq_offset`; the list is copied, so
    /// the caller can reuse its buffer. Each later [`pop`](Scheduler::pop)
    /// that reaches one of them returns it as an [`EventKind::Deliver`]
    /// message under that `(at, seq)`. An empty list schedules nothing.
    fn schedule_fanout(
        &mut self,
        src: NodeId,
        sent_at: SimTime,
        payload: Arc<dyn Payload>,
        first_seq: u64,
        recipients: &[Recipient],
    );

    /// Cancels a pending event so it is never popped, dropping it at once.
    /// Returns whether the event was pending; for a handle whose event was
    /// already popped or cancelled it returns `false` and changes nothing.
    fn cancel(&mut self, handle: EventHandle) -> bool;

    /// Pops the earliest pending event in `(timestamp, insertion seq)` order.
    /// A fan-out entry yields its due recipient as a `Deliver` event and
    /// stays queued while it has others left.
    fn pop(&mut self) -> Option<ScheduledEvent>;

    /// Number of pending events: live (non-cancelled) entries, a fan-out
    /// entry counting once per undelivered recipient.
    fn len(&self) -> usize;

    /// Whether no pending events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the queue's internal counters.
    fn stats(&self) -> SchedulerStats;
}

/// Names the one event queue. Single backend; kept — with `ALL`, `Default`,
/// `Display`, `name` and `build` — for benchmark/'s tracer, remove with its
/// replay follow-up (ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The binary heap of keys over an event slab (`HeapScheduler`).
    #[default]
    Heap,
}

impl SchedulerKind {
    /// Every kind: the one.
    pub const ALL: [SchedulerKind; 1] = [SchedulerKind::Heap];

    /// The kind's name, `"heap"`.
    pub const fn name(self) -> &'static str {
        "heap"
    }

    /// Constructs an empty queue.
    pub fn build(self) -> Box<dyn Scheduler> {
        Box::new(HeapScheduler::new())
    }
}

impl core::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The insertion-sequence counter plain and reserved seqs are handed out
/// from.
#[derive(Debug, Default)]
struct SeqCounter {
    next: u64,
    /// Reserved seqs not yet scheduled; only the debug-build contract check
    /// needs them.
    #[cfg(debug_assertions)]
    unspent: FastSet<u64>,
}

impl SeqCounter {
    fn take(&mut self) -> u64 {
        let seq = self.next;
        self.next += 1;
        seq
    }

    fn reserve(&mut self, count: u64) -> u64 {
        let first = self.next;
        self.next += count;
        #[cfg(debug_assertions)]
        self.unspent.extend(first..self.next);
        first
    }

    /// Marks a reserved seq as spent.
    fn spend(&mut self, seq: u64) {
        #[cfg(debug_assertions)]
        assert!(
            self.unspent.remove(&seq),
            "seq {seq} was never reserved, or is scheduled a second time"
        );
        let _ = seq;
    }
}

/// How many broadcasts of the size that opened it one page holds.
const LISTS_PER_PAGE: usize = 16;

/// Recipient lists stored back to back; reused once all of them are spent.
#[derive(Debug, Default)]
struct Page {
    cells: Vec<Recipient>,
    /// Lists on this page with recipients left.
    live: u32,
}

/// The recipient lists of every resident fan-out entry.
///
/// Lists are appended to the open page and never move; an entry consumes its
/// list from the end. A page whose lists are all spent is emptied and taken
/// again when the open one is full. So the number of allocations follows the
/// number of pages — a sixteenth of the broadcasts in flight at the peak —
/// not the number of broadcasts.
#[derive(Debug, Default)]
struct FanOutStore {
    pages: Vec<Page>,
    /// Index of the page new lists are appended to.
    open: usize,
    /// Emptied pages other than the open one.
    idle: Vec<u32>,
    /// Undelivered recipients beyond the one each entry stands for.
    backlog: usize,
}

impl FanOutStore {
    /// Copies `recipients` (latest first) into the store and returns the
    /// queue entry that stands for them, keyed at the earliest. `None` for
    /// an empty list.
    fn admit(
        &mut self,
        src: NodeId,
        sent_at: SimTime,
        payload: Arc<dyn Payload>,
        first_seq: u64,
        recipients: &[Recipient],
    ) -> Option<ScheduledEvent> {
        let due = recipients.last()?;
        debug_assert!(recipients.windows(2).all(|w| w[0] > w[1]));
        let fits = |page: &Page| page.cells.capacity() - page.cells.len() >= recipients.len();
        if !self.pages.get(self.open).is_some_and(fits) {
            self.turn_page();
            let cells = &mut self.pages[self.open].cells;
            if cells.capacity() < recipients.len() {
                cells.reserve_exact(recipients.len() * LISTS_PER_PAGE);
            }
        }
        let page = &mut self.pages[self.open];
        let narrow = |i: usize| u32::try_from(i).expect("fan-out pages stay far below 2^32 cells");
        let record = FanOut {
            src,
            sent_at,
            payload,
            first_seq,
            page: narrow(self.open),
            start: narrow(page.cells.len()),
            remaining: narrow(recipients.len()),
        };
        page.cells.extend_from_slice(recipients);
        page.live += 1;
        self.backlog += recipients.len() - 1;
        Some(ScheduledEvent {
            at: due.at(sent_at),
            seq: first_seq + u64::from(due.seq_offset),
            kind: EventKind::FanOut(record),
        })
    }

    /// Makes an empty page the open one.
    fn turn_page(&mut self) {
        if let Some(full) = self.pages.get(self.open) {
            if full.live == 0 {
                // Emptied while it was open: nothing left to wait for.
                return;
            }
        }
        self.open = match self.idle.pop() {
            Some(page) => page as usize,
            None => {
                self.pages.push(Page::default());
                self.pages.len() - 1
            }
        };
    }

    /// Splits the due recipient of the fan-out entry `record`, keyed at
    /// `key`, off as a `Deliver` event carrying the key's `(at, seq)`, and
    /// re-keys `key` at the following recipient's reserved position. Returns
    /// the event and whether the entry has recipients left; the caller
    /// restores its own ordering for the re-keyed entry, or removes the
    /// spent one.
    fn split_due(&mut self, key: &mut Key, record: &mut FanOut) -> (ScheduledEvent, bool) {
        let page = &mut self.pages[record.page as usize];
        let undelivered = &page.cells[record.start as usize..][..record.remaining as usize];
        let (due, next) = match *undelivered {
            [.., next, due] => (due, Some(next)),
            [due] => (due, None),
            [] => unreachable!("a queued fan-out entry has a recipient"),
        };
        record.remaining -= 1;
        let msg = Message::new(
            record.src,
            due.dst,
            record.sent_at,
            Arc::clone(&record.payload),
        );
        let delivery = ScheduledEvent {
            at: key.at,
            seq: key.seq,
            kind: EventKind::Deliver(msg),
        };
        match next {
            Some(next) => {
                self.backlog -= 1;
                key.at = next.at(record.sent_at);
                key.seq = record.first_seq + u64::from(next.seq_offset);
            }
            None => {
                page.live -= 1;
                if page.live == 0 {
                    page.cells.clear();
                    if record.page as usize != self.open {
                        self.idle.push(record.page);
                    }
                }
            }
        }
        (delivery, next.is_some())
    }
}

/// A heap entry: when the event in `slot` is due, and under which seq.
/// Ordered by `(at, seq)`: seqs are unique, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() <= 24);
const _: () = assert!(std::mem::size_of::<Recipient>() == 12);

#[derive(Debug)]
enum Slot {
    /// Holds the pending event with insertion seq `seq`.
    Occupied { seq: u64, kind: EventKind },
    /// Free; `next` is the next free slot.
    Vacant { next: Option<u32> },
}

/// Where the pending events live, each in a slot a [`Key`] points at.
/// Vacant slots form an intrusive free list, most recently freed first.
#[derive(Debug, Default)]
struct Slab {
    slots: Vec<Slot>,
    free: Option<u32>,
    occupied: usize,
}

impl Slab {
    fn insert(&mut self, seq: u64, kind: EventKind) -> u32 {
        self.occupied += 1;
        let tenant = Slot::Occupied { seq, kind };
        match self.free {
            Some(slot) => {
                let old = std::mem::replace(&mut self.slots[slot as usize], tenant);
                let Slot::Vacant { next } = old else {
                    unreachable!("the free list holds vacant slots only");
                };
                self.free = next;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 events pending");
                self.slots.push(tenant);
                slot
            }
        }
    }

    /// Whether `slot` holds the event with insertion seq `seq`.
    fn holds(&self, slot: u32, seq: u64) -> bool {
        matches!(self.slots.get(slot as usize), Some(Slot::Occupied { seq: s, .. }) if *s == seq)
    }

    /// Takes the event out of the occupied `slot` and frees the slot.
    fn vacate(&mut self, slot: u32) -> EventKind {
        let vacant = Slot::Vacant { next: self.free };
        let Slot::Occupied { kind, .. } = std::mem::replace(&mut self.slots[slot as usize], vacant)
        else {
            unreachable!("only an occupied slot is vacated");
        };
        self.free = Some(slot);
        self.occupied -= 1;
        kind
    }
}

/// The event queue: a binary min-heap of [`Key`]s over `(timestamp, seq)`
/// and the [`Slab`] that holds the events. `cancel` frees the event's slot;
/// `pop` discards the stale key left behind when it surfaces.
#[derive(Debug, Default)]
pub(crate) struct HeapScheduler {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Slab,
    seqs: SeqCounter,
    fanouts: FanOutStore,
    peak: usize,
    tombstones_popped: u64,
}

impl HeapScheduler {
    /// Creates an empty heap scheduler.
    pub(crate) fn new() -> Self {
        HeapScheduler::default()
    }

    fn push(&mut self, at: SimTime, seq: u64, kind: EventKind) -> EventHandle {
        let slot = self.slab.insert(seq, kind);
        self.heap.push(Reverse(Key { at, seq, slot }));
        self.peak = self.peak.max(self.heap.len());
        EventHandle { seq, slot }
    }
}

impl Scheduler for HeapScheduler {
    fn schedule(&mut self, at: SimTime, kind: EventKind) -> EventHandle {
        let seq = self.seqs.take();
        self.push(at, seq, kind)
    }

    fn reserve(&mut self, count: u64) -> u64 {
        self.seqs.reserve(count)
    }

    fn schedule_reserved(&mut self, at: SimTime, seq: u64, kind: EventKind) -> EventHandle {
        self.seqs.spend(seq);
        self.push(at, seq, kind)
    }

    fn schedule_fanout(
        &mut self,
        src: NodeId,
        sent_at: SimTime,
        payload: Arc<dyn Payload>,
        first_seq: u64,
        recipients: &[Recipient],
    ) {
        let entry = self
            .fanouts
            .admit(src, sent_at, payload, first_seq, recipients);
        if let Some(ScheduledEvent { at, seq, kind }) = entry {
            self.seqs.spend(seq);
            self.push(at, seq, kind);
        }
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        if !self.slab.holds(handle.slot, handle.seq) {
            return false;
        }
        self.slab.vacate(handle.slot);
        true
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        while let Some(mut top) = self.heap.peek_mut() {
            let (seq, kind) = match self.slab.slots.get_mut(top.0.slot as usize) {
                Some(Slot::Occupied { seq, kind }) if *seq == top.0.seq => (seq, kind),
                // Stale: cancelled, and the slot may have a new tenant.
                _ => {
                    PeekMut::pop(top);
                    self.tombstones_popped += 1;
                    continue;
                }
            };
            if let EventKind::FanOut(record) = kind {
                // Re-keyed in place: `PeekMut` sifts the key down from the
                // root on drop, usually a level or two, where a pop and a
                // push would each walk the heap's height.
                let (due, more) = self.fanouts.split_due(&mut top.0, record);
                if more {
                    *seq = top.0.seq;
                } else {
                    self.slab.vacate(PeekMut::pop(top).0.slot);
                }
                return Some(due);
            }
            let Reverse(key) = PeekMut::pop(top);
            return Some(ScheduledEvent {
                at: key.at,
                seq: key.seq,
                kind: self.slab.vacate(key.slot),
            });
        }
        None
    }

    fn len(&self) -> usize {
        self.slab.occupied + self.fanouts.backlog
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            peak_resident: self.peak,
            tombstones_popped: self.tombstones_popped,
            pending_tombstones: self.heap.len() - self.slab.occupied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Timer;
    use crate::fasthash::FastMap;
    use crate::ids::{NodeId, TimerId};
    use crate::payload::{boxed, Payload, PayloadCell};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn timer_event(n: u64) -> EventKind {
        EventKind::NodeTimer {
            node: NodeId::new(n as u32),
            timer: Timer::new(TimerId(n), boxed(())),
        }
    }

    fn message_like_event(tag: u64) -> EventKind {
        // AdversaryTimer stands in for any non-cancellable event kind.
        EventKind::AdversaryTimer { tag }
    }

    /// A pending event as the order contract sees it; `dst` is the recipient
    /// of a fan-out delivery. Tuples compare `(at, seq)` first, and seqs are
    /// unique.
    type Pending = (SimTime, u64, Option<u32>);

    /// The order contract restated as directly as possible: every pending
    /// event in a `Vec`, `pop` removes the minimum.
    #[derive(Default)]
    struct Model {
        next_seq: u64,
        pending: Vec<Pending>,
        /// Undelivered recipients per broadcast, by the broadcast's first
        /// seq (recipient `dst` holds that seq + `dst`).
        broadcasts: FastMap<u64, usize>,
    }

    impl Model {
        fn reserve(&mut self, count: u64) -> u64 {
            let first = self.next_seq;
            self.next_seq += count;
            first
        }

        fn cancel(&mut self, seq: u64) {
            self.pending.retain(|e| e.1 != seq);
        }

        fn pop(&mut self) -> Option<Pending> {
            let min = (0..self.pending.len()).min_by_key(|&i| self.pending[i])?;
            let popped = self.pending.swap_remove(min);
            if let (_, seq, Some(dst)) = popped {
                let first = seq - u64::from(dst);
                let left = self.broadcasts.get_mut(&first).expect("a broadcast");
                *left -= 1;
                if *left == 0 {
                    self.broadcasts.remove(&first);
                }
            }
            Some(popped)
        }

        /// Events that must occupy a slot: one per plain event, one per
        /// broadcast with recipients left.
        fn resident(&self) -> usize {
            let plain = self.pending.iter().filter(|e| e.2.is_none()).count();
            plain + self.broadcasts.len()
        }
    }

    /// Drives a [`HeapScheduler`] and the [`Model`] with the same operations
    /// and checks, after every one, that they agree on `len()` and on the
    /// occupied slots — so a cancel frees its slot at once — and on the
    /// `(at, seq, dst)` of everything popped.
    #[derive(Default)]
    struct Checked {
        heap: HeapScheduler,
        model: Model,
    }

    impl Checked {
        fn agree(&self) {
            assert_eq!(self.heap.len(), self.model.pending.len());
            assert_eq!(self.heap.is_empty(), self.model.pending.is_empty());
            assert_eq!(self.heap.slab.occupied, self.model.resident());
        }

        fn schedule(&mut self, at: u64, kind: EventKind) -> EventHandle {
            let at = SimTime::from_micros(at);
            let seq = self.model.reserve(1);
            self.model.pending.push((at, seq, None));
            let handle = self.heap.schedule(at, kind);
            assert_eq!(handle.seq, seq, "plain seqs count up");
            self.agree();
            handle
        }

        fn reserve(&mut self, count: u64) -> u64 {
            let first = self.model.reserve(count);
            assert_eq!(self.heap.reserve(count), first);
            self.agree();
            first
        }

        fn schedule_reserved(&mut self, at: u64, seq: u64, kind: EventKind) -> EventHandle {
            let at = SimTime::from_micros(at);
            self.model.pending.push((at, seq, None));
            let handle = self.heap.schedule_reserved(at, seq, kind);
            assert_eq!(handle.seq, seq);
            self.agree();
            handle
        }

        /// A broadcast sent at `sent_at` µs over a freshly reserved block,
        /// recipient `i` due at `times[i]` µs.
        fn fanout(&mut self, sent_at: u64, times: &[u64]) {
            let first = self.reserve(times.len() as u64);
            let sent_at = SimTime::from_micros(sent_at);
            let mut recipients: Vec<Recipient> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| Recipient {
                    after: u32::try_from(t - sent_at.as_micros())
                        .expect("the engine keeps only copies due within 2^32 µs in a fan-out"),
                    seq_offset: i as u32,
                    dst: NodeId::new(i as u32),
                })
                .collect();
            recipients.sort_unstable_by(|a, b| b.cmp(a));
            self.model.pending.extend(recipients.iter().map(|r| {
                (
                    r.at(sent_at),
                    first + u64::from(r.seq_offset),
                    Some(r.seq_offset),
                )
            }));
            if !times.is_empty() {
                self.model.broadcasts.insert(first, times.len());
            }
            self.heap.schedule_fanout(
                NodeId::new(0),
                sent_at,
                Arc::new(()) as Arc<dyn Payload>,
                first,
                &recipients,
            );
            self.agree();
        }

        fn cancel(&mut self, handle: EventHandle) {
            self.model.cancel(handle.seq);
            assert!(self.heap.cancel(handle));
            self.agree();
        }

        fn pop(&mut self) -> Option<Pending> {
            let popped = self.heap.pop().map(|e| {
                let dst = match &e.kind {
                    EventKind::Deliver(msg) => Some(msg.dst().index() as u32),
                    _ => None,
                };
                (e.at, e.seq, dst)
            });
            assert_eq!(popped, self.model.pop());
            self.agree();
            popped
        }

        /// Pops until empty and returns the `(at µs, seq, dst)` stream.
        fn drain(&mut self) -> Vec<(u64, u64, Option<u32>)> {
            core::iter::from_fn(|| self.pop())
                .map(|(at, seq, dst)| (at.as_micros(), seq, dst))
                .collect()
        }
    }

    #[test]
    fn pops_in_time_order_and_ties_break_by_insertion_order() {
        let mut q = Checked::default();
        assert!(q.pop().is_none());
        for (i, at) in [30_000, 10_000, 20_000, 10_000, 10_000]
            .into_iter()
            .enumerate()
        {
            q.schedule(at, timer_event(i as u64));
        }
        assert_eq!(
            q.drain(),
            vec![
                (10_000, 1, None),
                (10_000, 3, None),
                (10_000, 4, None),
                (20_000, 2, None),
                (30_000, 0, None)
            ]
        );
    }

    #[test]
    fn cancelled_events_leave_tombstones_and_are_never_popped() {
        let mut q = Checked::default();
        let h = q.schedule(10_000, timer_event(0));
        q.schedule(20_000, timer_event(1));
        q.cancel(h);
        assert_eq!(q.heap.len(), 1, "len counts live entries only");
        assert_eq!(q.heap.stats().pending_tombstones, 1);
        assert_eq!(q.drain(), vec![(20_000, 1, None)]);
        let stats = q.heap.stats();
        assert_eq!(stats.tombstones_popped, 1);
        assert_eq!(stats.pending_tombstones, 0);
        assert_eq!(stats.peak_resident, 2);
    }

    /// The engine never does this, but a caller that cancels a popped or an
    /// already cancelled event must not corrupt the queue.
    #[test]
    fn cancelling_an_event_that_is_not_pending_changes_nothing() {
        let mut q = SchedulerKind::Heap.build();
        let popped = q.schedule(SimTime::from_micros(10), timer_event(0));
        let cancelled = q.schedule(SimTime::from_micros(20), timer_event(1));
        q.schedule(SimTime::from_micros(30), timer_event(2));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert!(q.cancel(cancelled));
        let (len, stats) = (q.len(), q.stats());
        assert!(!q.cancel(popped), "already popped");
        assert!(!q.cancel(cancelled), "already cancelled");
        assert_eq!(q.len(), len);
        assert_eq!(q.stats(), stats);
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    /// A cancelled event's slot is taken by the next event scheduled, while
    /// the cancelled event's key is still in the heap: the key is stale
    /// whether the new tenant is due before it or after it, and a handle to
    /// the old tenant cannot reach the new one.
    #[test]
    fn a_freed_slot_is_reused_around_its_stale_key() {
        let mut q = Checked::default();
        let cancelled = q.schedule(50, timer_event(0));
        q.schedule(100, timer_event(1));
        q.cancel(cancelled);
        let earlier = q.schedule(10, timer_event(2));
        assert_eq!(earlier.slot, cancelled.slot);
        assert!(!q.heap.cancel(cancelled), "a stale handle");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 2, None)));
        // Freed again by that pop.
        let later = q.schedule(80, timer_event(3));
        assert_eq!(later.slot, cancelled.slot);
        // A broadcast due on both sides of the stale key at 50.
        q.fanout(10, &[40, 60]);
        assert_eq!(
            q.drain(),
            vec![
                (40, 4, Some(0)),
                (60, 5, Some(1)),
                (80, 3, None),
                (100, 1, None)
            ]
        );
        assert_eq!(q.heap.stats().tombstones_popped, 1);
        assert_eq!(q.heap.stats().pending_tombstones, 0);
    }

    /// A cancel drops the timer's payload then and there, not when the
    /// stale key surfaces.
    #[test]
    fn a_cancelled_timer_payload_is_dropped_at_cancel_time() {
        let probe = Arc::new(0u8);
        let mut q = Checked::default();
        let h = q.schedule(
            10,
            EventKind::NodeTimer {
                node: NodeId::new(0),
                timer: Timer::new(TimerId(0), PayloadCell::of(Arc::clone(&probe))),
            },
        );
        q.schedule(20, timer_event(1));
        assert_eq!(Arc::strong_count(&probe), 2);
        q.cancel(h);
        assert_eq!(Arc::strong_count(&probe), 1);
        assert_eq!(q.heap.stats().pending_tombstones, 1);
        q.drain();
    }

    /// A full large-run round of timers — one per node, spread from the next
    /// microsecond to the far edges of the 64-bit horizon (hours, years,
    /// `u64::MAX` µs), with exact ties and a third of them cancelled — over
    /// several rounds, each scheduled from wherever the last one stopped.
    #[test]
    fn far_future_rounds_pop_in_model_order() {
        const N: u64 = 1024;
        let mut q = Checked::default();
        let mut rng = SmallRng::seed_from_u64(1024);
        let mut clock = 0u64;
        for round in 0..4u64 {
            let mut handles = Vec::new();
            for node in 0..N {
                let at = match node % 8 {
                    0 => clock + node,
                    1 => clock.saturating_add(3_600_000_000 + node),
                    2 => clock.saturating_add(31_536_000_000_000 + node),
                    3 => u64::MAX - node,
                    4 => u64::MAX,
                    _ => rng.gen_range(clock..u64::MAX / 2),
                };
                handles.push(q.schedule(at, timer_event(node)));
            }
            for h in handles.iter().filter(|h| h.seq % 3 == 0) {
                q.cancel(*h);
            }
            // Serve a quarter of the round — the near, hour and year timers
            // — so the next one lands among this one's leftovers.
            for _ in 0..N / 4 {
                let (at, seq, _) = q.pop().expect("two thirds of a round are live");
                assert!(seq % 3 != 0, "round {round}: cancelled timers never fire");
                clock = at.as_micros();
            }
        }
        let rest = q.drain();
        assert!(rest.iter().all(|&(_, seq, _)| seq % 3 != 0));
        assert_eq!(q.heap.stats().pending_tombstones, 0);
    }

    /// The backbone of the order contract: a randomized workload of
    /// schedules, seq reservations spent later and out of order, broadcast
    /// fan-outs with ties and duplicate timestamps, cancellations and pops —
    /// respecting the engine's invariants (monotone clock,
    /// cancel-only-pending, cancel-only-timers) — pops exactly the model's
    /// `(at, seq, dst)` stream and reports its `len()` after every step.
    #[test]
    fn heap_agrees_with_the_model_on_randomized_workloads() {
        // The model pops in O(pending), so the final drain is quadratic in
        // the steps: many short runs rather than a few long ones.
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = Checked::default();
            let mut clock = 0u64;
            let mut pending_timers: Vec<EventHandle> = Vec::new();
            let mut unspent: Vec<u64> = Vec::new();
            let mut last = None;
            let delay = |rng: &mut SmallRng| match rng.gen_range(0..4u32) {
                // Near, medium or far — including zero-delay, which must
                // still fire after everything already popped.
                0 => rng.gen_range(0..1_000u64),
                1 => rng.gen_range(0..500_000u64),
                2 => rng.gen_range(0..60_000_000u64),
                _ => rng.gen_range(0..7_200_000_000u64),
            };
            for step in 0..2_000u64 {
                match rng.gen_range(0..16u32) {
                    0..=4 => {
                        let at = clock + delay(&mut rng);
                        pending_timers.push(q.schedule(at, timer_event(step)));
                    }
                    5 => {
                        let at = clock + rng.gen_range(0..2_000_000u64);
                        q.schedule(at, message_like_event(step));
                    }
                    6..=8 => {
                        if let Some((at, seq, _)) = q.pop() {
                            assert!(Some((at, seq)) > last, "seed {seed}: pops ascend");
                            last = Some((at, seq));
                            clock = at.as_micros();
                            pending_timers.retain(|h| h.seq != seq);
                        }
                    }
                    9..=10 => {
                        if !pending_timers.is_empty() {
                            let i = rng.gen_range(0..pending_timers.len());
                            q.cancel(pending_timers.swap_remove(i));
                        }
                    }
                    11 => {
                        // Reserve a block (possibly empty): nothing becomes
                        // pending, later plain seqs continue after it.
                        let count = rng.gen_range(0..6u64);
                        let first = q.reserve(count);
                        unspent.extend(first..first + count);
                    }
                    12..=13 => {
                        // Spend a reserved seq, in any order and long after
                        // later seqs were scheduled — half as cancellable
                        // timers, half as messages. Strictly after the clock:
                        // an old seq at the current instant would sort before
                        // the event just popped, which the engine never asks
                        // for (a broadcast's seqs are all newer than anything
                        // popped before it was sent).
                        if !unspent.is_empty() {
                            let seq = unspent.swap_remove(rng.gen_range(0..unspent.len()));
                            let at = clock + 1 + delay(&mut rng);
                            if rng.gen_range(0..2u32) == 0 {
                                let h = q.schedule_reserved(at, seq, timer_event(step));
                                pending_timers.push(h);
                            } else {
                                q.schedule_reserved(at, seq, message_like_event(step));
                            }
                        }
                    }
                    _ => {
                        // A broadcast: one entry standing for up to twelve
                        // deliveries, a third of them sharing the current
                        // instant, the rest spread up to an hour ahead —
                        // short of 2^32 µs, beyond which the engine schedules
                        // a copy on its own (`schedule_reserved` above).
                        let times: Vec<u64> = (0..rng.gen_range(0..13u64))
                            .map(|i| clock + (i % 3) * delay(&mut rng).min((1 << 31) - 1))
                            .collect();
                        q.fanout(clock, &times);
                    }
                }
            }
            q.drain();
            assert_eq!(q.heap.stats().pending_tombstones, 0, "seed {seed}");
        }
    }

    /// What a fan-out entry is for: however many recipients it holds it is
    /// one resident entry, yet it counts — and pops — as one `Deliver` event
    /// per recipient.
    #[test]
    fn a_fanout_is_one_resident_entry_and_many_pending_events() {
        let mut q = Checked::default();
        // Two recipients share a timestamp (seq decides), one is due much
        // later than the plain event scheduled after the broadcast.
        q.fanout(0, &[500, 9_000_000, 500, 20_000]);
        q.schedule(600, message_like_event(0));
        assert_eq!(q.heap.len(), 5);
        assert_eq!(q.heap.stats().peak_resident, 2);
        assert_eq!(
            q.drain(),
            vec![
                (500, 0, Some(0)),
                (500, 2, Some(2)),
                (600, 4, None),
                (20_000, 3, Some(3)),
                (9_000_000, 1, Some(1)),
            ]
        );
        assert_eq!(q.heap.stats().peak_resident, 2);
    }

    /// Recipient lists live on shared pages: a page is taken again once all
    /// of its lists are spent, so a long run of broadcasts needs only as
    /// many pages as its busiest moment.
    #[test]
    fn fanout_pages_are_reused_once_spent() {
        let mut q = Checked::default();
        let mut clock = 0;
        for wave in 0..50u64 {
            // 40 broadcasts of 10 recipients in flight at once: 2.5 pages.
            for _ in 0..40 {
                let times: Vec<u64> = (0..10).map(|i| clock + 1 + i).collect();
                q.fanout(clock, &times);
            }
            assert_eq!(q.heap.len(), 400, "wave {wave}");
            clock = q.drain().last().expect("400 deliveries").0;
        }
        assert_eq!(q.heap.fanouts.pages.len(), 3);
        assert!(q.heap.fanouts.pages.iter().all(|p| p.live == 0));
        assert_eq!(q.heap.fanouts.backlog, 0);
    }

    #[test]
    fn reserved_seqs_order_by_reservation_not_by_scheduling_time() {
        let mut q = Checked::default();
        let first = q.reserve(2);
        assert_eq!(first, 0);
        let plain = q.schedule(5_000, timer_event(9));
        assert_eq!(plain.seq, 2, "plain seqs continue after the block");
        assert_eq!(q.heap.len(), 1, "a reservation is not an entry");
        q.schedule_reserved(5_000, first + 1, message_like_event(1));
        q.schedule_reserved(5_000, first, message_like_event(0));
        let seqs: Vec<u64> = q.drain().iter().map(|e| e.1).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never reserved")]
    fn rejects_a_seq_that_was_never_reserved() {
        let mut q = HeapScheduler::new();
        q.schedule(SimTime::ZERO, timer_event(0));
        q.schedule_reserved(SimTime::ZERO, 0, timer_event(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a second time")]
    fn rejects_scheduling_a_reserved_seq_twice() {
        let mut q = HeapScheduler::new();
        let seq = q.reserve(1);
        q.schedule_reserved(SimTime::ZERO, seq, timer_event(0));
        q.schedule_reserved(SimTime::ZERO, seq, timer_event(1));
    }
}
