//! Execution traces.
//!
//! The controller records structured events (decisions, view changes,
//! corruptions, optionally every message) into a [`Trace`]. Traces power the
//! validator module, the per-node view visualisation of Fig. 9, and data
//! logging in general.

use std::borrow::Cow;

use crate::ids::NodeId;
use crate::json::{self, Fields, Json};
use crate::smallstr::SmallStr;
use crate::time::SimTime;
use crate::value::Value;

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
    /// A node sent a message (recorded only with message recording on).
    Sent {
        /// Destination node.
        dst: NodeId,
        /// Payload type name. Borrowed (`&'static str`) when recorded live —
        /// the hot path allocates nothing — and owned when parsed from JSON.
        payload_type: Cow<'static, str>,
    },
    /// A node received a message (recorded only with message recording on).
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
        /// Free-form detail; short details (`"view=3"` and friends) are
        /// stored inline without allocating.
        detail: SmallStr,
    },
}

/// A time-ordered sequence of [`TraceEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    pub(crate) fn record(&mut self, time: SimTime, node: NodeId, kind: TraceKind) {
        self.events.push(TraceEvent { time, node, kind });
    }

    /// All recorded events, in recording (= time) order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over decision events as `(time, node, slot, value)`.
    pub fn decisions(&self) -> impl Iterator<Item = (SimTime, NodeId, u64, Value)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            TraceKind::Decided { slot, value } => Some((e.time, e.node, slot, value)),
            _ => None,
        })
    }

    /// Per-node view timeline: for node `node`, the list of `(time, view)`
    /// transitions — the data series behind Fig. 9.
    pub fn view_timeline(&self, node: NodeId) -> Vec<(SimTime, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::View { view } if e.node == node => Some((e.time, view)),
                _ => None,
            })
            .collect()
    }

    /// Events with a given custom label, as `(time, node, detail)`.
    pub fn custom(&self, label: &str) -> Vec<(SimTime, NodeId, &str)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::Custom { label: l, detail } if l == label => {
                    Some((e.time, e.node, detail.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// Converts the trace to JSON (the format of the committed golden traces:
    /// externally-tagged event kinds, times/nodes as bare numbers).
    pub fn to_json(&self) -> Json {
        let events = self.events.iter().map(TraceEvent::to_json).collect();
        Json::obj([("events", Json::Arr(events))])
    }

    /// Parses a trace from the JSON produced by [`Trace::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy.
    pub fn from_json(json: &Json) -> Result<Trace, String> {
        let mut f = Fields::of(json, "trace")?;
        let events = f.req("events", json::list(TraceEvent::from_json))?;
        f.finish()?;
        Ok(Trace { events })
    }
}

impl TraceEvent {
    /// Converts the event to JSON (the per-event format of
    /// [`Trace::to_json`]; also used by observability ring-buffer dumps).
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
                        detail: SmallStr::from(f.req("detail", json::string)?),
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
        let mut t = Trace::new();
        t.record(
            SimTime::from_millis(1),
            NodeId::new(0),
            TraceKind::View { view: 1 },
        );
        t.record(
            SimTime::from_millis(2),
            NodeId::new(1),
            TraceKind::Decided {
                slot: 0,
                value: Value::ONE,
            },
        );
        t.record(
            SimTime::from_millis(3),
            NodeId::new(0),
            TraceKind::View { view: 2 },
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
        let mut t = Trace::new();
        t.record(
            SimTime::from_millis(1),
            NodeId::new(0),
            TraceKind::Decided {
                slot: 2,
                value: Value::new(9),
            },
        );
        t.record(
            SimTime::from_millis(2),
            NodeId::new(1),
            TraceKind::View { view: 3 },
        );
        t.record(
            SimTime::from_millis(3),
            NodeId::new(0),
            TraceKind::Sent {
                dst: NodeId::new(1),
                payload_type: "demo::Vote".into(),
            },
        );
        t.record(
            SimTime::from_millis(4),
            NodeId::new(1),
            TraceKind::Delivered {
                src: NodeId::new(0),
                payload_type: "demo::Vote".into(),
            },
        );
        t.record(
            SimTime::from_millis(5),
            NodeId::new(2),
            TraceKind::Corrupted,
        );
        t.record(SimTime::from_millis(6), NodeId::new(3), TraceKind::Crashed);
        t.record(
            SimTime::from_millis(7),
            NodeId::new(0),
            TraceKind::Custom {
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
        let mut t = Trace::new();
        t.record(
            SimTime::from_micros(u64::MAX),
            NodeId::new(u32::MAX),
            TraceKind::Decided {
                slot: u64::MAX,
                value: Value::new(u64::MAX),
            },
        );
        t.record(
            SimTime::ZERO,
            NodeId::new(0),
            TraceKind::View { view: u64::MAX },
        );
        for (i, s) in nasty_strings.iter().enumerate() {
            t.record(
                SimTime::from_micros(i as u64),
                NodeId::new(i as u32),
                TraceKind::Sent {
                    dst: NodeId::new(u32::MAX - i as u32),
                    payload_type: Cow::Owned(s.clone()),
                },
            );
            t.record(
                SimTime::from_micros(i as u64),
                NodeId::new(i as u32),
                TraceKind::Delivered {
                    src: NodeId::new(i as u32),
                    payload_type: Cow::Owned(s.clone()),
                },
            );
            t.record(
                SimTime::from_micros(i as u64),
                NodeId::new(i as u32),
                TraceKind::Custom {
                    label: s.clone().into(),
                    detail: nasty_strings[(i + 1) % nasty_strings.len()].clone().into(),
                },
            );
        }
        t.record(
            SimTime::from_millis(1),
            NodeId::new(1),
            TraceKind::Corrupted,
        );
        t.record(SimTime::from_millis(2), NodeId::new(2), TraceKind::Crashed);

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
        let mut t = Trace::new();
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
            t.record(time, NodeId::new(node), kind);
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
    fn custom_events_by_label() {
        let mut t = Trace::new();
        t.record(
            SimTime::ZERO,
            NodeId::new(0),
            TraceKind::Custom {
                label: "pre-prepare".into(),
                detail: "view=0".into(),
            },
        );
        assert_eq!(t.custom("pre-prepare").len(), 1);
        assert!(t.custom("commit").is_empty());
    }
}
