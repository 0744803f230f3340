//! Execution traces.
//!
//! The controller records structured events into a [`Trace`]: decisions and
//! exclusions always, view changes and protocol reports or every message
//! when the run's [`TraceLevel`] asks for them. Traces power the validator
//! module, the per-node view visualisation of Fig. 9, and data logging in
//! general.
//!
//! A trace is stored as one 24-byte record per event — time, node, a `u32`
//! holding the kind tag and a table id, and one payload word — beside three
//! per-trace tables: the distinct label and payload-type names, the decided
//! values, and one text arena holding every `Custom` detail. [`TraceEvent`]
//! is the value type callers see, decoded on access; the accessors a checker
//! calls once per run ([`Trace::decisions`], [`Trace::view_timeline`],
//! [`Trace::custom`]) read the records without building one.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

use crate::ids::NodeId;
use crate::json::{self, Fields, Json};
use crate::time::SimTime;
use crate::value::Value;

/// How much of a run its [`Trace`] keeps (`RunConfig::trace`). Each level
/// keeps what the one below it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// `Decided`, `Crashed` and `Corrupted`: everything the oracles and
    /// `Validator::check_against_trace` read. The default.
    Decisions,
    /// Adds `View` and `Custom`, which [`Trace::view_timeline`] and
    /// [`Trace::custom`] read.
    Events,
    /// Adds `Sent` and `Delivered`: every event.
    Messages,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub time: SimTime,
    /// The node the event concerns (the destination for deliveries).
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
}

/// The kind of a recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A node decided `value` for consensus slot `slot`.
    Decided {
        /// Zero-based consensus slot (height).
        slot: u64,
        /// The decided value.
        value: Value,
    },
    /// A node entered a view/round (Fig. 9's per-node view timeline).
    View {
        /// The new view number.
        view: u64,
    },
    /// A node sent a message (kept at [`TraceLevel::Messages`]).
    Sent {
        /// Destination node.
        dst: NodeId,
        /// Payload type name. Borrowed (`&'static str`) when recorded live —
        /// the hot path allocates nothing — and owned when parsed from JSON.
        payload_type: Cow<'static, str>,
    },
    /// A node received a message (kept at [`TraceLevel::Messages`]).
    Delivered {
        /// Claimed source node.
        src: NodeId,
        /// Payload type name. Borrowed (`&'static str`) when recorded live —
        /// the hot path allocates nothing — and owned when parsed from JSON.
        payload_type: Cow<'static, str>,
    },
    /// The adversary corrupted this node.
    Corrupted,
    /// The node crashed (fail-stop).
    Crashed,
    /// Protocol-defined event, e.g. `commit` / `pre-prepare` markers used for
    /// cross-validation against ground-truth traces.
    Custom {
        /// Event label, e.g. `"pre-prepare"`. Borrowed (`&'static str`) when
        /// recorded live — the hot path allocates nothing — and owned when
        /// parsed from JSON.
        label: Cow<'static, str>,
        /// Free-form detail, e.g. `"view=3"`.
        detail: String,
    },
}

// Kind tags, in the low `TAG_BITS` of a record's `tag`.
const DECIDED: u32 = 0;
const VIEW: u32 = 1;
const SENT: u32 = 2;
const DELIVERED: u32 = 3;
const CORRUPTED: u32 = 4;
const CRASHED: u32 = 5;
const CUSTOM: u32 = 6;
const TAG_BITS: u32 = 3;
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;
/// The largest table id that fits above the tag.
const MAX_ID: usize = (u32::MAX >> TAG_BITS) as usize;
/// Distinct label and payload-type names one trace may hold. Labels come
/// from a fixed set in code, so a live run holds a handful; the cap bounds
/// the linear scan that finds them.
const MAX_NAMES: usize = 4096;
/// A `Custom` record's word is `offset << LEN_BITS | len` into the arena.
const LEN_BITS: u32 = 24;
const MAX_DETAIL_LEN: usize = (1 << LEN_BITS) - 1;
const MAX_ARENA: u64 = (1 << (64 - LEN_BITS)) - 1;
/// What the first record and the first detail reserve: a run records far
/// more, so starting at Vec's minimum would only add early regrowths.
const FIRST_RECORDS: usize = 64;
const FIRST_DETAILS: usize = 1024;
/// A decided value is looked up among the most recently interned ones only;
/// a miss appends it again. Honest nodes decide a slot's value close
/// together in time, so the window hits, and no input makes it quadratic.
const VALUE_WINDOW: usize = 16;

/// One stored event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    time: u64,
    node: u32,
    /// Kind tag in the low [`TAG_BITS`]; above it, the index into the names
    /// (`Sent`, `Delivered`, `Custom`) or values (`Decided`) table.
    tag: u32,
    /// Slot (`Decided`), view (`View`), peer node (`Sent`, `Delivered`), or
    /// the detail's place in the arena (`Custom`).
    word: u64,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 24);

impl Record {
    fn kind(&self) -> u32 {
        self.tag & TAG_MASK
    }

    fn id(&self) -> usize {
        (self.tag >> TAG_BITS) as usize
    }

    fn time(&self) -> SimTime {
        SimTime::from_micros(self.time)
    }

    fn node(&self) -> NodeId {
        NodeId::new(self.node)
    }
}

/// Packs a kind tag and a table id into a record's `tag`.
fn tag_word(tag: u32, id: usize) -> Result<u32, String> {
    if id > MAX_ID {
        return Err(format!("trace table id {id} exceeds the limit of {MAX_ID}"));
    }
    Ok(tag | (id as u32) << TAG_BITS)
}

/// Packs a detail's place in the arena into a `Custom` record's word.
fn detail_word(offset: usize, len: usize) -> Result<u64, String> {
    if len > MAX_DETAIL_LEN {
        return Err(format!(
            "a detail of {len} bytes exceeds the limit of {MAX_DETAIL_LEN}"
        ));
    }
    if offset as u64 + len as u64 > MAX_ARENA {
        return Err(format!("trace details exceed {MAX_ARENA} bytes"));
    }
    Ok((offset as u64) << LEN_BITS | len as u64)
}

/// Formats one `Custom` detail onto the end of a trace's detail table (see
/// [`Trace::details_mut`]) and returns its place there.
pub(crate) fn write_detail(details: &mut String, args: fmt::Arguments<'_>) -> Range<usize> {
    use fmt::Write as _;
    if details.capacity() == 0 {
        details.reserve(FIRST_DETAILS);
    }
    let start = details.len();
    details
        .write_fmt(args)
        .expect("writing to a String never fails");
    start..details.len()
}

/// A time-ordered sequence of [`TraceEvent`]s.
///
/// The tables are a pure function of the events pushed, in order, so two
/// traces holding the same events at the same level compare equal field by
/// field.
#[derive(Clone, PartialEq)]
pub struct Trace {
    /// What the run kept. Held in memory only: the JSON form does not carry
    /// it, and a parsed trace counts as [`TraceLevel::Messages`].
    level: TraceLevel,
    records: Vec<Record>,
    /// Label and payload-type names, each once, in order of first use.
    names: Vec<Cow<'static, str>>,
    /// Decided values (see [`VALUE_WINDOW`]).
    values: Vec<Value>,
    /// Every `Custom` detail, concatenated.
    details: String,
}

impl Default for Trace {
    /// An empty trace that holds whatever is pushed into it.
    fn default() -> Self {
        Trace::at(TraceLevel::Messages)
    }
}

impl Trace {
    /// Creates an empty trace for a run that keeps `level`.
    pub(crate) fn at(level: TraceLevel) -> Self {
        Trace {
            level,
            records: Vec::new(),
            names: Vec::new(),
            values: Vec::new(),
            details: String::new(),
        }
    }

    /// Whether events of `level` are kept.
    #[inline]
    pub(crate) fn keeps(&self, level: TraceLevel) -> bool {
        level <= self.level
    }

    /// Records one event of a live run.
    ///
    /// # Panics
    ///
    /// The event exceeds a packing limit: more than [`MAX_NAMES`] distinct
    /// labels and payload types, a detail above [`MAX_DETAIL_LEN`] bytes, or
    /// tables past what a `u32` record can index.
    pub(crate) fn record(&mut self, time: SimTime, node: NodeId, kind: &TraceKind) {
        if let Err(e) = self.push(time, node, kind) {
            Self::refuse(time, node, e);
        }
    }

    /// Records a live run's `Custom` event, whose detail the reporting node
    /// already wrote at `detail` in [`Trace::details_mut`]'s table.
    ///
    /// # Panics
    ///
    /// As [`Trace::record`].
    pub(crate) fn record_custom(
        &mut self,
        time: SimTime,
        node: NodeId,
        label: &'static str,
        detail: Range<usize>,
    ) {
        match self.custom_word(&Cow::Borrowed(label), detail) {
            Ok((tag, word)) => self.push_record(time, node, tag, word),
            Err(e) => Self::refuse(time, node, e),
        }
    }

    fn refuse(time: SimTime, node: NodeId, e: String) -> ! {
        panic!("trace cannot record an event at {time} on {node}: {e}");
    }

    /// The detail table, for a run whose trace keeps `Custom` events
    /// ([`TraceLevel::Events`] and above): a report writes its detail onto
    /// the end with [`write_detail`], and [`Trace::record_custom`] records
    /// where. `None` below `Events`.
    pub(crate) fn details_mut(&mut self) -> Option<&mut String> {
        self.keeps(TraceLevel::Events).then_some(&mut self.details)
    }

    fn push(&mut self, time: SimTime, node: NodeId, kind: &TraceKind) -> Result<(), String> {
        let (tag, word) = match kind {
            TraceKind::Decided { slot, value } => {
                (tag_word(DECIDED, self.value_id(*value))?, *slot)
            }
            TraceKind::View { view } => (VIEW, *view),
            TraceKind::Sent { dst, payload_type } => (
                tag_word(SENT, self.name_id(payload_type)?)?,
                dst.as_u32().into(),
            ),
            TraceKind::Delivered { src, payload_type } => (
                tag_word(DELIVERED, self.name_id(payload_type)?)?,
                src.as_u32().into(),
            ),
            TraceKind::Corrupted => (CORRUPTED, 0),
            TraceKind::Crashed => (CRASHED, 0),
            TraceKind::Custom { label, detail } => {
                let place = write_detail(&mut self.details, format_args!("{detail}"));
                self.custom_word(label, place)?
            }
        };
        self.push_record(time, node, tag, word);
        Ok(())
    }

    /// A `Custom` record's tag and word.
    // The `Cow` is what gets stored: a borrowed name stays borrowed.
    #[allow(clippy::ptr_arg)]
    fn custom_word(
        &mut self,
        label: &Cow<'static, str>,
        detail: Range<usize>,
    ) -> Result<(u32, u64), String> {
        let word = detail_word(detail.start, detail.len())?;
        Ok((tag_word(CUSTOM, self.name_id(label)?)?, word))
    }

    fn push_record(&mut self, time: SimTime, node: NodeId, tag: u32, word: u64) {
        if self.records.capacity() == 0 {
            self.records.reserve(FIRST_RECORDS);
        }
        self.records.push(Record {
            time: time.as_micros(),
            node: node.as_u32(),
            tag,
            word,
        });
    }

    /// The names-table index of `name`, interning it on first use. Live
    /// names are `&'static str`, so a hit is usually one pointer compare.
    // The `Cow` is what gets stored: a borrowed name stays borrowed.
    #[allow(clippy::ptr_arg)]
    fn name_id(&mut self, name: &Cow<'static, str>) -> Result<usize, String> {
        let text: &str = name;
        let found = self.names.iter().position(|known| {
            let known: &str = known;
            std::ptr::eq(known, text) || known == text
        });
        if let Some(id) = found {
            return Ok(id);
        }
        if self.names.len() == MAX_NAMES {
            return Err(format!(
                "more than {MAX_NAMES} distinct labels and payload types"
            ));
        }
        self.names.push(name.clone());
        Ok(self.names.len() - 1)
    }

    fn value_id(&mut self, value: Value) -> usize {
        let recent = self.values.len().saturating_sub(VALUE_WINDOW);
        match self.values[recent..].iter().rposition(|&v| v == value) {
            Some(i) => recent + i,
            None => {
                self.values.push(value);
                self.values.len() - 1
            }
        }
    }

    fn detail(&self, word: u64) -> &str {
        let offset = (word >> LEN_BITS) as usize;
        let len = (word & MAX_DETAIL_LEN as u64) as usize;
        &self.details[offset..offset + len]
    }

    fn decode(&self, r: &Record) -> TraceEvent {
        let kind = match r.kind() {
            DECIDED => TraceKind::Decided {
                slot: r.word,
                value: self.values[r.id()],
            },
            VIEW => TraceKind::View { view: r.word },
            SENT => TraceKind::Sent {
                dst: NodeId::new(r.word as u32),
                payload_type: self.names[r.id()].clone(),
            },
            DELIVERED => TraceKind::Delivered {
                src: NodeId::new(r.word as u32),
                payload_type: self.names[r.id()].clone(),
            },
            CORRUPTED => TraceKind::Corrupted,
            CRASHED => TraceKind::Crashed,
            _ => TraceKind::Custom {
                label: self.names[r.id()].clone(),
                detail: self.detail(r.word).to_string(),
            },
        };
        TraceEvent {
            time: r.time(),
            node: r.node(),
            kind,
        }
    }

    /// All recorded events, in recording (= time) order, decoded one by one.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceEvent> + DoubleEndedIterator + '_ {
        self.records.iter().map(|r| self.decode(r))
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes the trace holds on the heap, counted from lengths rather than
    /// capacities so the figure is a deterministic function of the events:
    /// the records, the three tables and the text of owned names.
    pub fn heap_bytes(&self) -> usize {
        let owned: usize = self
            .names
            .iter()
            .map(|name| match name {
                Cow::Owned(text) => text.len(),
                Cow::Borrowed(_) => 0,
            })
            .sum();
        std::mem::size_of_val(&self.records[..])
            + std::mem::size_of_val(&self.names[..])
            + owned
            + std::mem::size_of_val(&self.values[..])
            + self.details.len()
    }

    /// Iterates over decision events as `(time, node, slot, value)`.
    pub fn decisions(&self) -> impl Iterator<Item = (SimTime, NodeId, u64, Value)> + '_ {
        self.indexed_decisions().map(|(_, decision)| decision)
    }

    /// [`Trace::decisions`], each with its event's index in the trace.
    pub(crate) fn indexed_decisions(
        &self,
    ) -> impl Iterator<Item = (usize, (SimTime, NodeId, u64, Value))> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind() == DECIDED)
            .map(|(i, r)| (i, (r.time(), r.node(), r.word, self.values[r.id()])))
    }

    /// The nodes of every `Corrupted` and `Crashed` event, in order.
    pub(crate) fn excluded_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.records
            .iter()
            .filter(|r| matches!(r.kind(), CORRUPTED | CRASHED))
            .map(Record::node)
    }

    /// Per-node view timeline: for node `node`, the list of `(time, view)`
    /// transitions — the data series behind Fig. 9. Needs a trace kept at
    /// [`TraceLevel::Events`] or above (checked in debug builds).
    pub fn view_timeline(&self, node: NodeId) -> Vec<(SimTime, u64)> {
        debug_assert!(
            self.keeps(TraceLevel::Events),
            "view_timeline on a trace kept at {:?}, which holds no View events",
            self.level
        );
        self.records
            .iter()
            .filter(|r| r.kind() == VIEW && r.node == node.as_u32())
            .map(|r| (r.time(), r.word))
            .collect()
    }

    /// Events with a given custom label, as `(time, node, detail)`. Needs a
    /// trace kept at [`TraceLevel::Events`] or above (checked in debug
    /// builds).
    pub fn custom(&self, label: &str) -> Vec<(SimTime, NodeId, &str)> {
        debug_assert!(
            self.keeps(TraceLevel::Events),
            "custom on a trace kept at {:?}, which holds no Custom events",
            self.level
        );
        let Some(id) = self.names.iter().position(|name| name == label) else {
            return Vec::new();
        };
        let tag = tag_word(CUSTOM, id).expect("a stored name's id fits");
        self.records
            .iter()
            .filter(|r| r.tag == tag)
            .map(|r| (r.time(), r.node(), self.detail(r.word)))
            .collect()
    }

    /// Converts the trace to JSON (the format of the committed golden traces:
    /// externally-tagged event kinds, times/nodes as bare numbers).
    pub fn to_json(&self) -> Json {
        let events = self.events().map(|e| e.to_json()).collect();
        Json::obj([("events", Json::Arr(events))])
    }

    /// Parses a trace from the JSON produced by [`Trace::to_json`]. The JSON
    /// does not say what level it was kept at, so the trace counts as
    /// [`TraceLevel::Messages`].
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy, or an event
    /// past a packing limit: more than 4 096 distinct labels and payload
    /// types, a detail of 16 MiB or more, or tables a record cannot index.
    pub fn from_json(json: &Json) -> Result<Trace, String> {
        let mut f = Fields::of(json, "trace")?;
        let events = f.req("events", json::list(TraceEvent::from_json))?;
        f.finish()?;
        let mut trace = Trace::default();
        for (i, e) in events.iter().enumerate() {
            trace
                .push(e.time, e.node, &e.kind)
                .map_err(|err| format!("trace: bad \"events\": entry #{i}: {err}"))?;
        }
        Ok(trace)
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.events()).finish()
    }
}

impl TraceEvent {
    /// Converts the event to JSON (the per-event format of
    /// [`Trace::to_json`]; also used by the last-event dumps of failure
    /// reports and `bft-sim trace`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("time", Json::from(self.time.as_micros())),
            ("node", Json::from(self.node.as_u32())),
            ("kind", self.kind.to_json()),
        ])
    }

    /// Parses one event from the JSON produced by [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy; node ids
    /// outside the `u32` range are rejected, not truncated.
    pub fn from_json(json: &Json) -> Result<TraceEvent, String> {
        let mut f = Fields::of(json, "trace event")?;
        let event = TraceEvent {
            time: SimTime::from_micros(f.req("time", json::int)?),
            node: NodeId::new(f.req("node", json::int)?),
            kind: f.req("kind", TraceKind::from_json)?,
        };
        f.finish()?;
        Ok(event)
    }
}

impl TraceKind {
    fn to_json(&self) -> Json {
        match self {
            TraceKind::Decided { slot, value } => Json::obj([(
                "Decided",
                Json::obj([
                    ("slot", Json::from(*slot)),
                    ("value", Json::from(value.as_u64())),
                ]),
            )]),
            TraceKind::View { view } => {
                Json::obj([("View", Json::obj([("view", Json::from(*view))]))])
            }
            TraceKind::Sent { dst, payload_type } => Json::obj([(
                "Sent",
                Json::obj([
                    ("dst", Json::from(dst.as_u32())),
                    ("payload_type", Json::from(payload_type.as_ref())),
                ]),
            )]),
            TraceKind::Delivered { src, payload_type } => Json::obj([(
                "Delivered",
                Json::obj([
                    ("src", Json::from(src.as_u32())),
                    ("payload_type", Json::from(payload_type.as_ref())),
                ]),
            )]),
            TraceKind::Corrupted => Json::from("Corrupted"),
            TraceKind::Crashed => Json::from("Crashed"),
            TraceKind::Custom { label, detail } => Json::obj([(
                "Custom",
                Json::obj([
                    ("label", Json::from(label.as_ref())),
                    ("detail", Json::from(detail.as_str())),
                ]),
            )]),
        }
    }

    fn from_json(json: &Json) -> Result<TraceKind, String> {
        let unknown = |tag: &str| Err(format!("trace kind: unknown variant \"{tag}\""));
        let text = |json: &Json| json::string(json).map(Cow::Owned);
        match json::variant(json, "trace kind")? {
            ("Corrupted", None) => Ok(TraceKind::Corrupted),
            ("Crashed", None) => Ok(TraceKind::Crashed),
            (tag, Some(mut f)) => {
                let kind = match tag {
                    "Decided" => TraceKind::Decided {
                        slot: f.req("slot", json::int)?,
                        value: Value::new(f.req("value", json::int)?),
                    },
                    "View" => TraceKind::View {
                        view: f.req("view", json::int)?,
                    },
                    "Sent" => TraceKind::Sent {
                        dst: NodeId::new(f.req("dst", json::int)?),
                        payload_type: f.req("payload_type", text)?,
                    },
                    "Delivered" => TraceKind::Delivered {
                        src: NodeId::new(f.req("src", json::int)?),
                        payload_type: f.req("payload_type", text)?,
                    },
                    "Custom" => TraceKind::Custom {
                        label: f.req("label", text)?,
                        detail: f.req("detail", json::string)?,
                    },
                    other => return unknown(other),
                };
                f.finish()?;
                Ok(kind)
            }
            (tag, None) => unknown(tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut t = Trace::default();
        t.record(
            SimTime::from_millis(1),
            NodeId::new(0),
            &TraceKind::View { view: 1 },
        );
        t.record(
            SimTime::from_millis(2),
            NodeId::new(1),
            &TraceKind::Decided {
                slot: 0,
                value: Value::ONE,
            },
        );
        t.record(
            SimTime::from_millis(3),
            NodeId::new(0),
            &TraceKind::View { view: 2 },
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.decisions().count(), 1);
        assert_eq!(
            t.view_timeline(NodeId::new(0)),
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(3), 2)]
        );
        assert!(t.view_timeline(NodeId::new(2)).is_empty());
    }

    #[test]
    fn json_round_trip_covers_every_kind() {
        let mut t = Trace::default();
        t.record(
            SimTime::from_millis(1),
            NodeId::new(0),
            &TraceKind::Decided {
                slot: 2,
                value: Value::new(9),
            },
        );
        t.record(
            SimTime::from_millis(2),
            NodeId::new(1),
            &TraceKind::View { view: 3 },
        );
        t.record(
            SimTime::from_millis(3),
            NodeId::new(0),
            &TraceKind::Sent {
                dst: NodeId::new(1),
                payload_type: "demo::Vote".into(),
            },
        );
        t.record(
            SimTime::from_millis(4),
            NodeId::new(1),
            &TraceKind::Delivered {
                src: NodeId::new(0),
                payload_type: "demo::Vote".into(),
            },
        );
        t.record(
            SimTime::from_millis(5),
            NodeId::new(2),
            &TraceKind::Corrupted,
        );
        t.record(SimTime::from_millis(6), NodeId::new(3), &TraceKind::Crashed);
        t.record(
            SimTime::from_millis(7),
            NodeId::new(0),
            &TraceKind::Custom {
                label: "pre-prepare".into(),
                detail: "view=0".into(),
            },
        );
        let json = t.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back, t);
        // And via text, as the golden files store it.
        let reparsed = Trace::from_json(&Json::parse(&json.dump_pretty()).unwrap()).unwrap();
        assert_eq!(reparsed, t);
    }

    #[test]
    fn json_round_trip_survives_adversarial_content() {
        // Every variant with hostile content: extreme numbers, control
        // characters, JSON metacharacters, unicode inside and outside the
        // BMP, and empty strings. Round-trip must be bit-exact, both
        // structurally and through the textual form.
        let nasty_strings = [
            String::new(),
            "\"quoted\" and \\back\\slashed".to_string(),
            "newline\nreturn\rtab\tbackspace\u{8}formfeed\u{c}".to_string(),
            (0u8..0x20).map(|b| b as char).collect::<String>(),
            "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}".to_string(),
            "émoji 😀 and \u{10FFFF}".to_string(),
            "ends in backslash\\".to_string(),
        ];
        let mut t = Trace::default();
        t.record(
            SimTime::from_micros(u64::MAX),
            NodeId::new(u32::MAX),
            &TraceKind::Decided {
                slot: u64::MAX,
                value: Value::new(u64::MAX),
            },
        );
        t.record(
            SimTime::ZERO,
            NodeId::new(0),
            &TraceKind::View { view: u64::MAX },
        );
        for (i, s) in nasty_strings.iter().enumerate() {
            t.record(
                SimTime::from_micros(i as u64),
                NodeId::new(i as u32),
                &TraceKind::Sent {
                    dst: NodeId::new(u32::MAX - i as u32),
                    payload_type: Cow::Owned(s.clone()),
                },
            );
            t.record(
                SimTime::from_micros(i as u64),
                NodeId::new(i as u32),
                &TraceKind::Delivered {
                    src: NodeId::new(i as u32),
                    payload_type: Cow::Owned(s.clone()),
                },
            );
            t.record(
                SimTime::from_micros(i as u64),
                NodeId::new(i as u32),
                &TraceKind::Custom {
                    label: s.clone().into(),
                    detail: nasty_strings[(i + 1) % nasty_strings.len()].clone(),
                },
            );
        }
        t.record(
            SimTime::from_millis(1),
            NodeId::new(1),
            &TraceKind::Corrupted,
        );
        t.record(SimTime::from_millis(2), NodeId::new(2), &TraceKind::Crashed);

        let json = t.to_json();
        assert_eq!(Trace::from_json(&json).unwrap(), t);
        let text = json.dump_pretty();
        let reparsed = Trace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed, t);
        // Serialising again is byte-stable.
        assert_eq!(reparsed.to_json().dump_pretty(), text);
    }

    #[test]
    fn from_json_rejects_out_of_range_node_ids() {
        let too_big = u64::from(u32::MAX) + 1;
        let event = Json::obj([
            ("time", Json::from(0u64)),
            ("node", Json::from(too_big)),
            ("kind", Json::from("Crashed")),
        ]);
        let err = TraceEvent::from_json(&event).unwrap_err();
        assert!(err.contains("exceeds the u32 range"), "{err}");

        let sent = Json::obj([
            ("time", Json::from(0u64)),
            ("node", Json::from(0u64)),
            (
                "kind",
                Json::obj([(
                    "Sent",
                    Json::obj([
                        ("dst", Json::from(too_big)),
                        ("payload_type", Json::from("x")),
                    ]),
                )]),
            ),
        ]);
        let err = TraceEvent::from_json(&sent).unwrap_err();
        assert!(err.contains("\"dst\""), "{err}");
    }

    #[test]
    fn accessors_untangle_interleaved_multi_node_traces() {
        // Three nodes advancing views and deciding out of lock-step; the
        // accessors must filter by node and preserve per-node order.
        let mut t = Trace::default();
        let ev = |ms: u64, node: u32, kind: TraceKind| (SimTime::from_millis(ms), node, kind);
        let script = vec![
            ev(1, 0, TraceKind::View { view: 1 }),
            ev(1, 2, TraceKind::View { view: 1 }),
            ev(2, 1, TraceKind::View { view: 1 }),
            ev(
                3,
                2,
                TraceKind::Decided {
                    slot: 0,
                    value: Value::new(5),
                },
            ),
            ev(4, 0, TraceKind::View { view: 2 }),
            ev(
                4,
                0,
                TraceKind::Decided {
                    slot: 0,
                    value: Value::new(5),
                },
            ),
            ev(5, 2, TraceKind::View { view: 3 }),
            ev(
                6,
                1,
                TraceKind::Decided {
                    slot: 0,
                    value: Value::new(5),
                },
            ),
            ev(
                7,
                0,
                TraceKind::Decided {
                    slot: 1,
                    value: Value::new(6),
                },
            ),
        ];
        for (time, node, kind) in script {
            t.record(time, NodeId::new(node), &kind);
        }

        assert_eq!(
            t.view_timeline(NodeId::new(0)),
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(4), 2)]
        );
        assert_eq!(
            t.view_timeline(NodeId::new(2)),
            vec![(SimTime::from_millis(1), 1), (SimTime::from_millis(5), 3)]
        );
        assert_eq!(
            t.view_timeline(NodeId::new(1)),
            vec![(SimTime::from_millis(2), 1)]
        );

        let decisions: Vec<_> = t.decisions().collect();
        assert_eq!(
            decisions,
            vec![
                (SimTime::from_millis(3), NodeId::new(2), 0, Value::new(5)),
                (SimTime::from_millis(4), NodeId::new(0), 0, Value::new(5)),
                (SimTime::from_millis(6), NodeId::new(1), 0, Value::new(5)),
                (SimTime::from_millis(7), NodeId::new(0), 1, Value::new(6)),
            ]
        );
        // Per-node decision filtering composes on top of the iterator.
        let node0: Vec<_> = t
            .decisions()
            .filter(|(_, n, _, _)| *n == NodeId::new(0))
            .map(|(_, _, slot, _)| slot)
            .collect();
        assert_eq!(node0, vec![0, 1]);
    }

    #[test]
    fn each_level_keeps_the_ones_below_it() {
        let events = Trace::at(TraceLevel::Events);
        assert!(events.keeps(TraceLevel::Decisions) && events.keeps(TraceLevel::Events));
        assert!(!events.keeps(TraceLevel::Messages));
        assert!(!Trace::at(TraceLevel::Decisions).keeps(TraceLevel::Events));
        // Built by hand or parsed, a trace holds whatever it is given.
        let parsed = Trace::from_json(&Trace::default().to_json()).unwrap();
        assert!(parsed.keeps(TraceLevel::Messages));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "holds no Custom events")]
    fn reading_reports_from_a_decisions_trace_is_caught() {
        let _ = Trace::at(TraceLevel::Decisions).custom("view-change");
    }

    #[test]
    fn custom_events_by_label() {
        let mut t = Trace::default();
        t.record(
            SimTime::ZERO,
            NodeId::new(0),
            &TraceKind::Custom {
                label: "pre-prepare".into(),
                detail: "view=0".into(),
            },
        );
        assert_eq!(t.custom("pre-prepare").len(), 1);
        assert!(t.custom("commit").is_empty());
    }

    #[test]
    fn accessors_read_the_records_the_events_decode_to() {
        let mut t = Trace::default();
        let script = [
            (1, 0, TraceKind::Crashed),
            (2, 1, TraceKind::View { view: 4 }),
            (3, 2, TraceKind::Corrupted),
            (
                4,
                1,
                TraceKind::Custom {
                    label: "commit".into(),
                    detail: "height=0".into(),
                },
            ),
            (
                5,
                3,
                TraceKind::Custom {
                    label: "commit".into(),
                    detail: "".into(),
                },
            ),
        ];
        for (ms, node, kind) in &script {
            t.record(SimTime::from_millis(*ms), NodeId::new(*node), kind);
        }
        let nodes: Vec<_> = t.excluded_nodes().collect();
        assert_eq!(nodes, [NodeId::new(0), NodeId::new(2)]);
        assert_eq!(
            t.custom("commit"),
            [
                (SimTime::from_millis(4), NodeId::new(1), "height=0"),
                (SimTime::from_millis(5), NodeId::new(3), ""),
            ]
        );
        let decoded: Vec<_> = t.events().map(|e| (e.node.as_u32(), e.kind)).collect();
        let scripted: Vec<_> = script.into_iter().map(|(_, n, k)| (n, k)).collect();
        assert_eq!(decoded, scripted);
    }

    #[test]
    fn decided_values_are_interned_within_a_window() {
        let mut t = Trace::default();
        // Each slot's value decided by four nodes in a row: one entry each.
        for slot in 0..40u64 {
            for node in 0..4 {
                let value = Value::new(1_000 + slot);
                t.record(
                    SimTime::ZERO,
                    NodeId::new(node),
                    &TraceKind::Decided { slot, value },
                );
            }
        }
        assert_eq!(t.values.len(), 40);
        // A value last seen more than a window ago is appended again, and
        // still decodes to itself.
        let old = Value::new(1_000);
        t.record(
            SimTime::ZERO,
            NodeId::new(0),
            &TraceKind::Decided {
                slot: 0,
                value: old,
            },
        );
        assert_eq!(t.values.len(), 41);
        assert_eq!(t.decisions().last().map(|d| d.3), Some(old));
        assert_eq!(t.decisions().count(), 161);
    }

    #[test]
    fn heap_bytes_counts_lengths_not_capacities() {
        let mut t = Trace::default();
        assert_eq!(t.heap_bytes(), 0);
        t.record(SimTime::ZERO, NodeId::new(0), &TraceKind::View { view: 1 });
        assert_eq!(t.heap_bytes(), 24);
        t.record(
            SimTime::ZERO,
            NodeId::new(0),
            &TraceKind::Custom {
                label: "commit".into(),
                detail: "view=1".into(),
            },
        );
        // Two records, one borrowed name, six detail bytes.
        let name = std::mem::size_of::<Cow<'static, str>>();
        assert_eq!(t.heap_bytes(), 2 * 24 + name + 6);
        // Parsed names are owned, and their text counts.
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(parsed.heap_bytes(), t.heap_bytes() + "commit".len());
    }

    #[test]
    fn packing_limits_are_errors_at_their_edges() {
        assert!(tag_word(CUSTOM, MAX_ID).is_ok());
        let err = tag_word(CUSTOM, MAX_ID + 1).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        assert!(detail_word(0, MAX_DETAIL_LEN).is_ok());
        let err = detail_word(0, MAX_DETAIL_LEN + 1).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        let end = MAX_ARENA as usize;
        assert_eq!(
            detail_word(end - 1, 1),
            Ok(((MAX_ARENA - 1) << LEN_BITS) | 1)
        );
        assert_eq!(detail_word(end, 0), Ok(MAX_ARENA << LEN_BITS));
        let err = detail_word(end, 1).unwrap_err();
        assert!(err.contains("details exceed"), "{err}");
    }

    #[test]
    fn from_json_refuses_what_a_record_cannot_hold() {
        let event = |kind: Json| {
            Json::obj([
                ("time", Json::from(0u64)),
                ("node", Json::from(0u32)),
                ("kind", kind),
            ])
        };
        let sent = |payload_type: String| {
            event(Json::obj([(
                "Sent",
                Json::obj([
                    ("dst", Json::from(1u32)),
                    ("payload_type", Json::from(payload_type)),
                ]),
            )]))
        };
        let trace = |events: Vec<Json>| Json::obj([("events", Json::Arr(events))]);

        let names: Vec<Json> = (0..=MAX_NAMES).map(|i| sent(format!("t{i}"))).collect();
        let err = Trace::from_json(&trace(names[..MAX_NAMES].to_vec()))
            .and_then(|_| Trace::from_json(&trace(names)))
            .unwrap_err();
        assert_eq!(
            err,
            format!(
                "trace: bad \"events\": entry #{MAX_NAMES}: \
                 more than {MAX_NAMES} distinct labels and payload types"
            )
        );

        let long = event(Json::obj([(
            "Custom",
            Json::obj([
                ("label", Json::from("x")),
                ("detail", Json::from("d".repeat(MAX_DETAIL_LEN + 1))),
            ]),
        )]));
        let err = Trace::from_json(&trace(vec![sent("t".into()), long])).unwrap_err();
        assert!(
            err.starts_with("trace: bad \"events\": entry #1: "),
            "{err}"
        );
        assert!(err.contains("exceeds the limit"), "{err}");
    }
}
