//! Pluggable event schedulers.
//!
//! The controller (§III-A of the paper) is, at its core, a priority queue of
//! timestamped events. This module extracts that queue behind the
//! [`Scheduler`] trait so the backend can be swapped without touching the
//! engine: [`HeapScheduler`] is the reference binary-heap backend, and
//! [`WheelScheduler`] is a hierarchical timing wheel with slot-level
//! bucketing, O(1) in-place cancellation for bucketed timers, and a binary
//! min-heap working buffer for the slot being served.
//!
//! # The determinism contract
//!
//! Every backend MUST dispatch events in exactly the same total order:
//! ascending `(timestamp, insertion seq)`, where the insertion sequence
//! number is assigned by [`Scheduler::schedule`] in call order, starting at
//! zero. Equal-timestamp events therefore fire in the order they were
//! scheduled, and the order is total — there are no unordered pairs.
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
//! and re-keys the entry — in place, where the backend's structure allows —
//! at the next one, so the dispatch order is the one n − 1 separate entries
//! would have produced. Because
//! the engine is single-threaded per run and derives all randomness from the
//! run seed, this makes every run byte-identical under any backend (and, via
//! [`crate::sweep`], at any thread count). Schedule record/replay
//! ([`crate::validator`]) and golden-trace oracles rely on this: a schedule
//! recorded under one backend must replay identically under another.
//!
//! A backend must additionally uphold:
//!
//! * `schedule` and `schedule_reserved` are only called with `at` ≥ the
//!   timestamp of the last popped event (the engine never schedules into the
//!   past), and a reserved seq is scheduled at most once;
//! * `cancel` removes (or permanently suppresses) the event so it is *never*
//!   returned by `pop`; the engine only cancels events that are still
//!   pending, and only ever timer events;
//! * [`Scheduler::len`] counts *pending events*: live (non-cancelled)
//!   entries, a fan-out entry counting once per undelivered recipient. So
//!   queue-depth accounting is backend-independent, whatever lazy tombstones
//!   a backend keeps internally and however few entries are resident.
//!
//! Backend-specific costs (tombstones, resident peaks) are reported through
//! [`SchedulerStats`] and surface in `BENCH_baseline.json`; they never feed
//! back into simulation results.

use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;

use crate::event::{EventKind, FanOut, Recipient, ScheduledEvent};
use crate::fasthash::{FastMap, FastSet};
use crate::ids::NodeId;
use crate::message::Message;
use crate::payload::Payload;
use crate::time::SimTime;

/// An opaque handle to a scheduled event, returned by
/// [`Scheduler::schedule`] and redeemed by [`Scheduler::cancel`].
///
/// Handles wrap the event's insertion sequence number, which is unique for
/// the lifetime of a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle(u64);

impl EventHandle {
    /// Creates a handle from an insertion sequence number (for backend
    /// implementations).
    pub const fn new(seq: u64) -> Self {
        EventHandle(seq)
    }

    /// The insertion sequence number this handle refers to.
    pub const fn seq(self) -> u64 {
        self.0
    }
}

/// Counters a backend reports about its own internals.
///
/// These are *diagnostics*, not simulation outputs: two backends produce
/// byte-identical [`RunResult`](crate::metrics::RunResult)s apart from this
/// struct, which is why the fuzz report JSON deliberately omits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerStats {
    /// The backend's name (`"heap"` or `"wheel"` for the built-ins).
    pub scheduler: &'static str,
    /// Peak number of entries resident in the backend at once, *including*
    /// any cancelled entries still awaiting lazy removal. A fan-out entry
    /// counts once however many recipients it holds, so this is the
    /// physical footprint, not the logical depth [`Scheduler::len`] reports.
    pub peak_resident: usize,
    /// Cancelled entries that were discarded lazily at pop time. The heap
    /// cancels exclusively this way; the wheel only uses tombstones for
    /// timers that already sit in its working buffer (the slot being
    /// served) when cancelled.
    pub tombstones_popped: u64,
    /// Cancelled entries that were removed in place at cancel time, in O(1)
    /// (the wheel's bucketed timers). Always 0 on the heap backend.
    pub cancelled_in_place: u64,
    /// Cancelled entries still resident when the snapshot was taken.
    pub pending_tombstones: usize,
}

impl Default for SchedulerStats {
    fn default() -> Self {
        SchedulerStats {
            scheduler: "none",
            peak_resident: 0,
            tombstones_popped: 0,
            cancelled_in_place: 0,
            pending_tombstones: 0,
        }
    }
}

/// The event-queue abstraction the engine drives.
///
/// See the [module docs](self) for the determinism contract every
/// implementation must uphold.
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

    /// Cancels a pending event so it is never popped. Returns whether the
    /// handle referred to an event this backend can still locate. The engine
    /// only cancels events that are pending and has each handle cancelled at
    /// most once.
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

    /// A snapshot of the backend's internal counters.
    fn stats(&self) -> SchedulerStats;
}

/// Selects a [`Scheduler`] backend by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The reference binary-heap backend with lazy tombstone cancellation.
    #[default]
    Heap,
    /// The hierarchical timing-wheel backend with O(1) in-place cancellation.
    Wheel,
}

impl SchedulerKind {
    /// Every built-in backend, in canonical (reference first) order.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

    /// Parses a backend name as accepted by `--scheduler`.
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        match name {
            "heap" => Some(SchedulerKind::Heap),
            "wheel" => Some(SchedulerKind::Wheel),
            _ => None,
        }
    }

    /// The canonical name (`"heap"` / `"wheel"`).
    pub const fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Wheel => "wheel",
        }
    }

    /// Constructs a fresh backend of this kind.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Heap => Box::new(HeapScheduler::new()),
            SchedulerKind::Wheel => Box::new(WheelScheduler::new()),
        }
    }
}

impl core::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The insertion-sequence counter both backends share, so plain and reserved
/// seqs are handed out identically.
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

/// The recipient lists of every resident fan-out entry, shared by both
/// backends.
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
            at: due.at,
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

    /// Splits the due recipient of the fan-out entry `entry` off as a
    /// `Deliver` event carrying the entry's `(at, seq)`, and re-keys the
    /// entry at the following recipient's reserved position. Returns the
    /// event and whether the entry has recipients left; the caller restores
    /// its own ordering for the re-keyed entry, or removes the spent one.
    fn split_due(&mut self, entry: &mut ScheduledEvent) -> (ScheduledEvent, bool) {
        let EventKind::FanOut(record) = &mut entry.kind else {
            unreachable!("only fan-out entries are split");
        };
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
            at: entry.at,
            seq: entry.seq,
            kind: EventKind::Deliver(msg),
        };
        match next {
            Some(next) => {
                self.backlog -= 1;
                entry.at = next.at;
                entry.seq = record.first_seq + u64::from(next.seq_offset);
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

/// The reference backend: a binary min-heap over `(timestamp, seq)` with
/// lazy tombstone cancellation — `cancel` marks the sequence number and
/// `pop` silently discards marked entries when they surface.
#[derive(Debug, Default)]
pub struct HeapScheduler {
    heap: BinaryHeap<ScheduledEvent>,
    seqs: SeqCounter,
    cancelled: FastSet<u64>,
    fanouts: FanOutStore,
    peak: usize,
    tombstones_popped: u64,
}

impl HeapScheduler {
    /// Creates an empty heap scheduler.
    pub fn new() -> Self {
        HeapScheduler::default()
    }

    fn push(&mut self, at: SimTime, seq: u64, kind: EventKind) -> EventHandle {
        self.heap.push(ScheduledEvent { at, seq, kind });
        self.peak = self.peak.max(self.heap.len());
        EventHandle(seq)
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
        self.cancelled.insert(handle.0)
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        while let Some(mut top) = self.heap.peek_mut() {
            if matches!(top.kind, EventKind::FanOut(_)) {
                // Re-keyed in place: `PeekMut` sifts the entry down from the
                // root on drop, usually a level or two, where a pop and a
                // push would each walk the heap's height.
                let (due, more) = self.fanouts.split_due(&mut top);
                if !more {
                    PeekMut::pop(top);
                }
                return Some(due);
            }
            let ev = PeekMut::pop(top);
            if self.cancelled.remove(&ev.seq) {
                self.tombstones_popped += 1;
                continue;
            }
            return Some(ev);
        }
        None
    }

    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len() + self.fanouts.backlog
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            scheduler: "heap",
            peak_resident: self.peak,
            tombstones_popped: self.tombstones_popped,
            cancelled_in_place: 0,
            pending_tombstones: self.cancelled.len(),
        }
    }
}

/// Base-slot width: 2^13 µs = 8.192 ms of simulated time per level-0 slot.
const SLOT_BITS: u32 = 13;
/// Slots per level: 2^6 = 64, so one `u64` occupancy bitmap per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Nine levels cover 13 + 9·6 = 67 ≥ 64 bits — every `u64` microsecond
/// timestamp maps to some slot, so no separate overflow list is needed.
const LEVELS: usize = 9;

/// Where a pending wheel entry currently lives (for cancellation).
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// In the working-buffer heap; cancellation tombstones it.
    Current,
    /// In bucket `bucket` (level * SLOTS + slot) at index `pos`.
    Bucket { bucket: u32, pos: u32 },
}

/// The hierarchical timing-wheel backend.
///
/// Events are hashed into one of [`LEVELS`]×[`SLOTS`] buckets by timestamp:
/// an event lands on the level of the highest slot-index bit in which it
/// differs from the wheel cursor (the classic hashed-hierarchical wheel of
/// Varghese & Lauck). When the cursor advances into a coarse slot, the
/// slot's bucket cascades: entries are re-placed against the new cursor and
/// land in finer slots (or the working buffer). The earliest base slot's
/// entries are drained into the working buffer — a binary min-heap over
/// `(timestamp, seq)` — which preserves the exact total order of the
/// reference heap. A heap (rather than a sorted vector) keeps the buffer
/// O(log k) per operation even when one 8 ms slot holds tens of thousands
/// of near-simultaneous events, as large-n broadcast rounds routinely do; a
/// sorted-insert buffer degraded quadratically there (two *billion* element
/// shifts in one n = 256 fuzz scenario).
///
/// Cancellation of *bucketed* timers is O(1) and in place: a side index
/// maps a timer's sequence number to its bucket and position, so `cancel`
/// `swap_remove`s the entry immediately. Timers already in the working
/// buffer cannot be removed from the middle of a heap, so those few are
/// tombstoned and filtered at pop, exactly like the reference backend. The
/// index is maintained only for [`EventKind::NodeTimer`] entries, keeping
/// the message hot path free of hash-map traffic (messages are never
/// cancelled).
#[derive(Debug)]
pub struct WheelScheduler {
    /// `LEVELS * SLOTS` buckets, flattened level-major.
    buckets: Vec<Vec<ScheduledEvent>>,
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// The slot currently being served: a min-heap over `(at, seq)`
    /// (via [`ScheduledEvent`]'s reversed `Ord`), popped earliest-first.
    current: BinaryHeap<ScheduledEvent>,
    /// Lower bound (µs) on every pending timestamp; slot-aligned advances.
    cursor: u64,
    seqs: SeqCounter,
    /// Live entry count (a fan-out entry counts once).
    live: usize,
    fanouts: FanOutStore,
    peak: usize,
    cancelled_in_place: u64,
    /// `seq -> location`, maintained for timer entries only.
    index: FastMap<u64, Loc>,
    /// Seqs of cancelled timers still resident in the working buffer,
    /// discarded when they surface at pop.
    current_tombstones: FastSet<u64>,
    /// Tombstones discarded so far (see [`SchedulerStats`]).
    tombstones_popped: u64,
    /// Recycled bucket allocations. Cascading a coarse slot used to drop the
    /// drained `Vec` and re-grow its replacement from scratch on the next
    /// placement; keeping a bounded free list instead makes steady-state
    /// cascades allocation-free.
    spare: Vec<Vec<ScheduledEvent>>,
}

/// Upper bound on recycled bucket vectors kept in [`WheelScheduler::spare`].
const SPARE_BUCKETS_MAX: usize = 64;

impl Default for WheelScheduler {
    fn default() -> Self {
        WheelScheduler::new()
    }
}

impl WheelScheduler {
    /// Creates an empty wheel scheduler with the cursor at time zero.
    pub fn new() -> Self {
        WheelScheduler {
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            current: BinaryHeap::new(),
            cursor: 0,
            seqs: SeqCounter::default(),
            live: 0,
            fanouts: FanOutStore::default(),
            peak: 0,
            cancelled_in_place: 0,
            index: FastMap::default(),
            current_tombstones: FastSet::default(),
            tombstones_popped: 0,
            spare: Vec::new(),
        }
    }

    /// The level and slot `at` belongs to relative to the cursor, or `None`
    /// when it falls into the slot currently being served (the working
    /// buffer).
    fn locate(&self, at: u64) -> Option<(usize, usize)> {
        let a = at >> SLOT_BITS;
        let c = self.cursor >> SLOT_BITS;
        let diff = a ^ c;
        if diff == 0 {
            return None;
        }
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((a >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        Some((level, slot))
    }

    /// Admits a new entry under `seq` and accounts for it.
    fn insert(&mut self, at: SimTime, seq: u64, kind: EventKind) -> EventHandle {
        self.place(ScheduledEvent { at, seq, kind });
        self.live += 1;
        self.peak = self.peak.max(self.live + self.current_tombstones.len());
        EventHandle(seq)
    }

    /// Files one entry into its bucket (or the working buffer), updating the
    /// occupancy bitmap and the cancellation index.
    fn place(&mut self, e: ScheduledEvent) {
        let at = e.at.as_micros();
        debug_assert!(at >= self.cursor, "scheduled into the past");
        let is_timer = matches!(e.kind, EventKind::NodeTimer { .. });
        match self.locate(at) {
            None => {
                // Belongs to the slot being served: O(log k) heap push.
                if is_timer {
                    self.index.insert(e.seq, Loc::Current);
                }
                self.current.push(e);
            }
            Some((level, slot)) => {
                let b = level * SLOTS + slot;
                if is_timer {
                    self.index.insert(
                        e.seq,
                        Loc::Bucket {
                            bucket: b as u32,
                            pos: self.buckets[b].len() as u32,
                        },
                    );
                }
                self.buckets[b].push(e);
                self.occupancy[level] |= 1 << slot;
            }
        }
    }

    /// Advances the cursor to the next occupied slot, cascading coarse
    /// buckets down until the working buffer holds the earliest base slot's
    /// entries. Must only be called with `current` empty and `live > 0`.
    fn advance(&mut self) {
        'rescan: loop {
            for level in 0..LEVELS {
                let shift = SLOT_BITS + LEVEL_BITS * level as u32;
                let cursor_slot = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                // Slots strictly before the cursor's position at this level
                // are in the past; the cursor's own slot is already drained
                // (entries for it live in finer levels or the buffer).
                let pending = self.occupancy[level] & (!0u64 << cursor_slot);
                if pending == 0 {
                    continue;
                }
                let slot = pending.trailing_zeros();
                // Jump the cursor to the start of that slot: keep the bits
                // above this level's window, set this level's slot index,
                // zero everything below.
                let span = shift + LEVEL_BITS;
                let window_base = if span >= u64::BITS {
                    0
                } else {
                    (self.cursor >> span) << span
                };
                self.cursor = window_base | (u64::from(slot) << shift);
                let b = level * SLOTS + slot as usize;
                self.occupancy[level] &= !(1u64 << slot);
                if level == 0 {
                    // The earliest base slot: heapify it into the working
                    // buffer (O(k), cheaper than a sort). `current` is empty
                    // here, so its spent allocation cycles back through the
                    // free list for bucket reuse.
                    let bucket = std::mem::replace(
                        &mut self.buckets[b],
                        self.spare.pop().unwrap_or_default(),
                    );
                    let mut drained =
                        std::mem::replace(&mut self.current, BinaryHeap::from(bucket)).into_vec();
                    drained.clear();
                    if self.spare.len() < SPARE_BUCKETS_MAX {
                        self.spare.push(drained);
                    }
                    for e in &self.current {
                        if matches!(e.kind, EventKind::NodeTimer { .. }) {
                            self.index.insert(e.seq, Loc::Current);
                        }
                    }
                    return;
                }
                // A coarse slot: cascade its entries against the new cursor;
                // each lands at a strictly finer level (or in the buffer).
                // The bucket is replaced by a recycled vector and its own
                // allocation returns to the free list once drained.
                let mut entries =
                    std::mem::replace(&mut self.buckets[b], self.spare.pop().unwrap_or_default());
                for e in entries.drain(..) {
                    self.place(e);
                }
                if self.spare.len() < SPARE_BUCKETS_MAX {
                    self.spare.push(entries);
                }
                if !self.current.is_empty() {
                    return;
                }
                continue 'rescan;
            }
            unreachable!("wheel has live entries but no occupied slot at or after the cursor");
        }
    }
}

impl Scheduler for WheelScheduler {
    fn schedule(&mut self, at: SimTime, kind: EventKind) -> EventHandle {
        let seq = self.seqs.take();
        self.insert(at, seq, kind)
    }

    fn reserve(&mut self, count: u64) -> u64 {
        self.seqs.reserve(count)
    }

    fn schedule_reserved(&mut self, at: SimTime, seq: u64, kind: EventKind) -> EventHandle {
        self.seqs.spend(seq);
        self.insert(at, seq, kind)
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
            self.insert(at, seq, kind);
        }
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(loc) = self.index.remove(&handle.0) else {
            return false;
        };
        match loc {
            Loc::Current => {
                // Mid-heap removal is impossible; tombstone and let pop
                // discard it when it surfaces (the reference backend's
                // strategy, scoped to the one slot being served).
                self.current_tombstones.insert(handle.0);
                self.live -= 1;
                return true;
            }
            Loc::Bucket { bucket, pos } => {
                let b = bucket as usize;
                let pos = pos as usize;
                debug_assert!(self.buckets[b][pos].seq == handle.0);
                self.buckets[b].swap_remove(pos);
                if let Some(moved) = self.buckets[b].get(pos) {
                    // Keep the index honest for the entry that swapped into
                    // the vacated position.
                    if matches!(moved.kind, EventKind::NodeTimer { .. }) {
                        if let Some(Loc::Bucket { pos: p, .. }) = self.index.get_mut(&moved.seq) {
                            *p = pos as u32;
                        }
                    }
                } else if self.buckets[b].is_empty() {
                    self.occupancy[b / SLOTS] &= !(1u64 << (b % SLOTS));
                }
            }
        }
        self.live -= 1;
        self.cancelled_in_place += 1;
        true
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        loop {
            let Some(mut top) = self.current.peek_mut() else {
                if self.live == 0 {
                    return None;
                }
                self.advance();
                continue;
            };
            if matches!(top.kind, EventKind::FanOut(_)) {
                // The entry stays in the working buffer (re-keyed in place,
                // `PeekMut` restores the heap on drop) unless it is spent or
                // its next recipient is due in a later slot.
                let (due, more) = self.fanouts.split_due(&mut top);
                if !more {
                    PeekMut::pop(top);
                    self.live -= 1;
                } else if top.at.as_micros() >> SLOT_BITS != self.cursor >> SLOT_BITS {
                    let entry = PeekMut::pop(top);
                    self.place(entry);
                }
                return Some(due);
            }
            let e = PeekMut::pop(top);
            if self.current_tombstones.remove(&e.seq) {
                self.tombstones_popped += 1;
                continue;
            }
            self.live -= 1;
            if matches!(e.kind, EventKind::NodeTimer { .. }) {
                self.index.remove(&e.seq);
            }
            return Some(e);
        }
    }

    fn len(&self) -> usize {
        self.live + self.fanouts.backlog
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            scheduler: "wheel",
            peak_resident: self.peak,
            tombstones_popped: self.tombstones_popped,
            cancelled_in_place: self.cancelled_in_place,
            pending_tombstones: self.current_tombstones.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Timer;
    use crate::ids::{NodeId, TimerId};
    use crate::payload::{boxed, shared};
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

    fn backends() -> Vec<Box<dyn Scheduler>> {
        SchedulerKind::ALL.iter().map(|k| k.build()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in backends() {
            q.schedule(SimTime::from_millis(30), timer_event(0));
            q.schedule(SimTime::from_millis(10), timer_event(1));
            q.schedule(SimTime::from_millis(20), timer_event(2));
            let times: Vec<u64> = core::iter::from_fn(|| q.pop())
                .map(|e| e.at.as_micros() / 1000)
                .collect();
            assert_eq!(times, vec![10, 20, 30], "{}", q.stats().scheduler);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for mut q in backends() {
            let t = SimTime::from_millis(5);
            for i in 0..10 {
                q.schedule(t, timer_event(i));
            }
            let seqs: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
            assert_eq!(seqs, (0..10).collect::<Vec<_>>(), "{}", q.stats().scheduler);
        }
    }

    #[test]
    fn empty_queue_behaviour() {
        for mut q in backends() {
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert!(q.pop().is_none());
            q.schedule(SimTime::ZERO, timer_event(0));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn handles_are_the_insertion_sequence() {
        for mut q in backends() {
            let a = q.schedule(SimTime::from_millis(1), timer_event(0));
            let b = q.schedule(SimTime::from_millis(2), timer_event(1));
            assert_eq!(a, EventHandle::new(0));
            assert_eq!(b.seq(), 1);
        }
    }

    #[test]
    fn cancelled_events_are_never_popped() {
        for mut q in backends() {
            let h = q.schedule(SimTime::from_millis(10), timer_event(0));
            q.schedule(SimTime::from_millis(20), timer_event(1));
            assert!(q.cancel(h));
            assert_eq!(q.len(), 1, "len counts live entries only");
            let popped: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
            assert_eq!(popped, vec![1], "{}", q.stats().scheduler);
        }
    }

    #[test]
    fn wheel_cancellation_is_in_place_and_tombstone_free() {
        let mut q = WheelScheduler::new();
        let mut handles = Vec::new();
        for i in 0..100 {
            handles.push(q.schedule(SimTime::from_millis(10 + i), timer_event(i)));
        }
        for h in handles.iter().skip(1) {
            assert!(q.cancel(*h));
        }
        let stats = q.stats();
        assert_eq!(stats.cancelled_in_place, 99);
        assert_eq!(stats.tombstones_popped, 0);
        assert_eq!(stats.pending_tombstones, 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn heap_cancellation_leaves_tombstones_until_popped() {
        let mut q = HeapScheduler::new();
        let h = q.schedule(SimTime::from_millis(10), timer_event(0));
        q.schedule(SimTime::from_millis(20), timer_event(1));
        assert!(q.cancel(h));
        assert_eq!(q.stats().pending_tombstones, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        let stats = q.stats();
        assert_eq!(stats.tombstones_popped, 1);
        assert_eq!(stats.pending_tombstones, 0);
    }

    #[test]
    fn wheel_cascades_far_future_events_across_levels() {
        let mut q = WheelScheduler::new();
        // Spread events across every level of the hierarchy, including one
        // further out than an hour of simulated time.
        let times: Vec<u64> = vec![
            1,
            8_000,
            9_000,
            600_000,
            40_000_000,
            3_000_000_000,
            200_000_000_000,
            u64::from(u32::MAX) * 1_000,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), timer_event(i as u64));
        }
        let popped: Vec<u64> = core::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_micros())
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    /// Satellite of the n=1024 scaling work: a full large-run round of
    /// timers — one per node, spread to the far edges of the 64-bit horizon
    /// (including `u64::MAX` µs, which must map to the top wheel level
    /// without overflowing the level computation) — pops in exactly the
    /// reference heap's order, with cancellations interleaved.
    #[test]
    fn heap_and_wheel_agree_on_large_far_future_rounds() {
        const N: u64 = 1024;
        let mut heap = HeapScheduler::new();
        let mut wheel = WheelScheduler::new();
        let mut rng = SmallRng::seed_from_u64(1024);
        let mut handles = Vec::new();
        for node in 0..N {
            // Deterministic spread: near, hour-scale, year-scale and the
            // extreme horizon, plus exact ties every fourth node.
            let at = match node % 8 {
                0 => SimTime::from_micros(node),
                1 => SimTime::from_micros(3_600_000_000 + node),
                2 => SimTime::from_micros(31_536_000_000_000 + node),
                3 => SimTime::from_micros(u64::MAX - node),
                4 => SimTime::from_micros(u64::MAX),
                _ => SimTime::from_micros(rng.gen_range(0..u64::MAX / 2)),
            };
            let h1 = heap.schedule(at, timer_event(node));
            let h2 = wheel.schedule(at, timer_event(node));
            assert_eq!(h1, h2);
            handles.push(h1);
        }
        // Cancel a deterministic third of the round on both backends.
        for h in handles.iter().filter(|h| h.seq() % 3 == 0) {
            assert!(heap.cancel(*h));
            assert!(wheel.cancel(*h));
        }
        assert_eq!(heap.len(), wheel.len());
        let mut popped = 0u64;
        let mut last = (SimTime::ZERO, 0u64);
        loop {
            match (heap.pop(), wheel.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!((x.at, x.seq), (y.at, y.seq));
                    assert!((x.at, x.seq) >= last, "pop order must be ascending");
                    last = (x.at, x.seq);
                    assert!(x.seq % 3 != 0, "cancelled timers must never fire");
                    popped += 1;
                }
                _ => panic!("one backend drained before the other"),
            }
        }
        assert_eq!(popped, N - N.div_ceil(3));
        // Every cancellation was honoured one way or the other: bucketed
        // timers in place, working-buffer timers via tombstones.
        let stats = wheel.stats();
        assert_eq!(
            stats.cancelled_in_place + stats.tombstones_popped,
            N.div_ceil(3)
        );
        assert_eq!(
            stats.pending_tombstones, 0,
            "drained wheel keeps no tombstones"
        );
    }

    /// Steady-state cascading recycles bucket allocations through the
    /// bounded free list instead of growing fresh vectors each slot.
    #[test]
    fn wheel_spare_list_stays_bounded() {
        let mut q = WheelScheduler::new();
        // Many batches far enough apart that each advance cascades coarse
        // slots repeatedly.
        for batch in 0..200u64 {
            for i in 0..16u64 {
                q.schedule(
                    SimTime::from_micros(batch * 40_000_000 + i * 1_000),
                    timer_event(batch * 16 + i),
                );
            }
        }
        while q.pop().is_some() {}
        assert!(q.spare.len() <= SPARE_BUCKETS_MAX);
    }

    #[test]
    fn wheel_cancels_from_buckets_and_working_buffer() {
        let mut q = WheelScheduler::new();
        // Same base slot (working buffer once served) plus far buckets.
        let a = q.schedule(SimTime::from_micros(100), timer_event(0));
        let b = q.schedule(SimTime::from_micros(200), timer_event(1));
        let far = q.schedule(SimTime::from_millis(5_000), timer_event(2));
        assert!(q.cancel(a)); // from the working buffer (slot 0 is current)
        assert!(q.cancel(far)); // from a coarse bucket
        assert_eq!(q.len(), 1);
        // The working-buffer cancel is a pending tombstone; the bucket
        // cancel was removed in place.
        assert_eq!(q.stats().cancelled_in_place, 1);
        assert_eq!(q.stats().pending_tombstones, 1);
        assert_eq!(q.pop().map(|e| e.seq), Some(b.seq()));
        assert!(q.pop().is_none());
        assert_eq!(q.stats().tombstones_popped, 1);
        assert_eq!(q.stats().pending_tombstones, 0);
    }

    #[test]
    fn cancelling_a_popped_timer_is_refused_by_the_wheel() {
        let mut q = WheelScheduler::new();
        let h = q.schedule(SimTime::from_micros(5), timer_event(0));
        assert!(q.pop().is_some());
        assert!(!q.cancel(h), "fired timers are no longer indexed");
        assert_eq!(q.stats().cancelled_in_place, 0);
    }

    #[test]
    fn kind_parses_and_builds() {
        assert_eq!(SchedulerKind::parse("heap"), Some(SchedulerKind::Heap));
        assert_eq!(SchedulerKind::parse("wheel"), Some(SchedulerKind::Wheel));
        assert_eq!(SchedulerKind::parse("fifo"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Heap);
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.build().stats().scheduler, kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    /// Schedules a broadcast over seqs `first..first + times.len()` on `q`,
    /// recipient `i` due at `times[i]` µs.
    fn fanout(q: &mut dyn Scheduler, first: u64, times: &[u64]) {
        let mut recipients: Vec<Recipient> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| Recipient {
                at: SimTime::from_micros(t),
                seq_offset: i as u32,
                dst: NodeId::new(i as u32),
            })
            .collect();
        recipients.sort_unstable_by(|a, b| b.cmp(a));
        q.schedule_fanout(
            NodeId::new(0),
            SimTime::ZERO,
            shared(()),
            first,
            &recipients,
        );
    }

    /// The backbone of the determinism contract: a randomized workload of
    /// schedules, seq reservations spent later and out of order, broadcast
    /// fan-outs, cancellations and pops — respecting the engine's invariants
    /// (monotone clock, cancel-only-pending, cancel-only-timers) — must
    /// produce the identical pop sequence, pending count and handle
    /// behaviour on both backends.
    #[test]
    fn heap_and_wheel_agree_on_randomized_workloads() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut heap = HeapScheduler::new();
            let mut wheel = WheelScheduler::new();
            let mut clock = 0u64;
            let mut pending_timers: Vec<EventHandle> = Vec::new();
            let mut unspent: Vec<u64> = Vec::new();
            let mut popped: Vec<(SimTime, u64)> = Vec::new();
            // Every (at, seq) handed to the backends and not cancelled: what
            // the pop sequence must be, once sorted.
            let mut expected: Vec<(SimTime, u64)> = Vec::new();
            let delay = |rng: &mut SmallRng| match rng.gen_range(0..4u32) {
                // Near, medium or far — including zero-delay, which must
                // still fire after everything already popped.
                0 => rng.gen_range(0..1_000u64),
                1 => rng.gen_range(0..500_000u64),
                2 => rng.gen_range(0..60_000_000u64),
                _ => rng.gen_range(0..7_200_000_000u64),
            };
            for step in 0..6_000u64 {
                match rng.gen_range(0..16u32) {
                    0..=4 => {
                        let at = SimTime::from_micros(clock + delay(&mut rng));
                        let h1 = heap.schedule(at, timer_event(step));
                        let h2 = wheel.schedule(at, timer_event(step));
                        assert_eq!(h1, h2, "seq assignment must match");
                        pending_timers.push(h1);
                        expected.push((at, h1.seq()));
                    }
                    5 => {
                        // Schedule a non-cancellable (message-like) event.
                        let at = SimTime::from_micros(clock + rng.gen_range(0..2_000_000u64));
                        let h1 = heap.schedule(at, message_like_event(step));
                        let h2 = wheel.schedule(at, message_like_event(step));
                        assert_eq!(h1, h2);
                        expected.push((at, h1.seq()));
                    }
                    6..=8 => {
                        let a = heap.pop();
                        let b = wheel.pop();
                        match (&a, &b) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                assert_eq!((x.at, x.seq), (y.at, y.seq), "seed {seed}");
                                clock = x.at.as_micros();
                                pending_timers.retain(|h| h.seq() != x.seq);
                                popped.push((x.at, x.seq));
                            }
                            _ => panic!("one backend drained before the other"),
                        }
                    }
                    9..=10 => {
                        if !pending_timers.is_empty() {
                            let i = rng.gen_range(0..pending_timers.len());
                            let h = pending_timers.swap_remove(i);
                            assert!(heap.cancel(h));
                            assert!(wheel.cancel(h), "wheel must locate pending timer");
                            expected.retain(|&(_, seq)| seq != h.seq());
                        }
                    }
                    11 => {
                        // Reserve a block (possibly empty): nothing becomes
                        // pending, later plain seqs continue after it.
                        let count = rng.gen_range(0..6u64);
                        let first = heap.reserve(count);
                        assert_eq!(wheel.reserve(count), first, "seed {seed}");
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
                            let at = SimTime::from_micros(clock + 1 + delay(&mut rng));
                            let as_timer = rng.gen_range(0..2u32) == 0;
                            let kind = |k: u64| match as_timer {
                                true => timer_event(k),
                                false => message_like_event(k),
                            };
                            let h1 = heap.schedule_reserved(at, seq, kind(step));
                            let h2 = wheel.schedule_reserved(at, seq, kind(step));
                            assert_eq!((h1, h2), (EventHandle::new(seq), EventHandle::new(seq)));
                            if as_timer {
                                pending_timers.push(h1);
                            }
                            expected.push((at, seq));
                        }
                    }
                    _ => {
                        // A broadcast: one entry standing for up to twelve
                        // deliveries, some sharing a timestamp, spread from
                        // this wheel slot to hours ahead so the entry is
                        // re-keyed both in place and across buckets.
                        let times: Vec<u64> = (0..rng.gen_range(0..13u64))
                            .map(|i| clock + (i % 3) * delay(&mut rng))
                            .collect();
                        let first = heap.reserve(times.len() as u64);
                        assert_eq!(wheel.reserve(times.len() as u64), first);
                        fanout(&mut heap, first, &times);
                        fanout(&mut wheel, first, &times);
                        expected.extend(
                            times
                                .iter()
                                .enumerate()
                                .map(|(i, &t)| (SimTime::from_micros(t), first + i as u64)),
                        );
                    }
                }
                assert_eq!(heap.len(), wheel.len(), "seed {seed} step {step}");
                assert_eq!(heap.len(), expected.len() - popped.len(), "seed {seed}");
            }
            // Drain both completely; the tails must match too.
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                match (a, b) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!((x.at, x.seq), (y.at, y.seq));
                        popped.push((x.at, x.seq));
                    }
                    _ => panic!("one backend drained before the other"),
                }
            }
            // Reserved seqs and record recipients order like any other
            // event: everything scheduled surfaced exactly once, ascending
            // in (timestamp, seq).
            expected.sort_unstable();
            assert_eq!(popped, expected, "seed {seed}");
            // A fully drained wheel retains no tombstones, whichever path
            // each cancellation took.
            assert_eq!(wheel.stats().pending_tombstones, 0, "seed {seed}");
        }
    }

    /// What a fan-out entry is for: however many recipients it holds it is
    /// one resident entry, yet it counts — and pops — as one `Deliver` event
    /// per recipient.
    #[test]
    fn a_fanout_is_one_resident_entry_and_many_pending_events() {
        for mut q in backends() {
            let first = q.reserve(4);
            // Two recipients share a timestamp (seq decides), one is due in
            // a later wheel slot, one much later.
            fanout(q.as_mut(), first, &[500, 9_000_000, 500, 20_000]);
            q.schedule(SimTime::from_micros(600), message_like_event(0));
            assert_eq!(q.len(), 5);
            assert_eq!(q.stats().peak_resident, 2);
            let order: Vec<(u64, u64, Option<u32>)> = core::iter::from_fn(|| q.pop())
                .map(|e| {
                    let dst = match &e.kind {
                        EventKind::Deliver(msg) => Some(msg.dst().index() as u32),
                        _ => None,
                    };
                    (e.at.as_micros(), e.seq, dst)
                })
                .collect();
            assert_eq!(
                order,
                vec![
                    (500, 0, Some(0)),
                    (500, 2, Some(2)),
                    (600, 4, None),
                    (20_000, 3, Some(3)),
                    (9_000_000, 1, Some(1)),
                ],
                "{}",
                q.stats().scheduler
            );
            assert_eq!(q.stats().peak_resident, 2);
            assert!(q.is_empty());
        }
    }

    /// Recipient lists live on shared pages: a page is taken again once all
    /// of its lists are spent, so a long run of broadcasts needs only as
    /// many pages as its busiest moment.
    #[test]
    fn fanout_pages_are_reused_once_spent() {
        let mut q = HeapScheduler::new();
        let mut clock = 0;
        for wave in 0..50u64 {
            // 40 broadcasts of 10 recipients in flight at once: 2.5 pages.
            for _ in 0..40 {
                let first = q.reserve(10);
                let times: Vec<u64> = (0..10).map(|i| clock + 1 + i).collect();
                fanout(&mut q, first, &times);
            }
            assert_eq!(q.len(), 400, "wave {wave}");
            while let Some(e) = q.pop() {
                clock = e.at.as_micros();
            }
        }
        assert_eq!(q.fanouts.pages.len(), 3);
        assert!(q.fanouts.pages.iter().all(|p| p.live == 0));
        assert_eq!(q.fanouts.backlog, 0);
    }

    #[test]
    fn reserved_seqs_order_by_reservation_not_by_scheduling_time() {
        for mut q in backends() {
            let t = SimTime::from_millis(5);
            let first = q.reserve(2);
            assert_eq!(first, 0);
            let plain = q.schedule(t, timer_event(9));
            assert_eq!(plain.seq(), 2, "plain seqs continue after the block");
            assert_eq!(q.len(), 1, "a reservation is not an entry");
            q.schedule_reserved(t, first + 1, message_like_event(1));
            q.schedule_reserved(t, first, message_like_event(0));
            assert_eq!(q.len(), 3);
            let seqs: Vec<u64> = core::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2], "{}", q.stats().scheduler);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never reserved")]
    fn heap_rejects_a_seq_that_was_never_reserved() {
        let mut q = HeapScheduler::new();
        q.schedule(SimTime::ZERO, timer_event(0));
        q.schedule_reserved(SimTime::ZERO, 0, timer_event(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a second time")]
    fn wheel_rejects_scheduling_a_reserved_seq_twice() {
        let mut q = WheelScheduler::new();
        let seq = q.reserve(1);
        q.schedule_reserved(SimTime::ZERO, seq, timer_event(0));
        q.schedule_reserved(SimTime::ZERO, seq, timer_event(1));
    }
}
