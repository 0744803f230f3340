//! The validator module (§III-A6).
//!
//! Cross-validates simulation results against a ground truth. Three checks
//! are provided:
//!
//! 1. **Schedule replay** — a run can record its per-message
//!    [`DeliverySchedule`] (the fate — delay or drop — the network and
//!    adversary assigned to every transmission, in send order). Replaying the
//!    schedule through a fresh simulation must reproduce the same decisions;
//!    [`Validator::check_replay`] asserts this. This is the analogue of the
//!    paper replaying BFTsim's event sequence.
//! 2. **Decision comparison** — `Validator::compare_decisions` checks two
//!    runs agreed on *which node decided what value*; the replay check is
//!    built on it.
//! 3. **Trace comparison** — [`Validator::check_against_trace`] checks a run
//!    decided exactly what a committed trace records (the golden traces).
//!
//! A schedule only records message *fates*; replay rests on the event queue
//! dispatching in one `(timestamp, insertion seq)` total order (see
//! [`crate::scheduler`] for the contract).

use crate::adversary::Fate;
use crate::error::SimError;
use crate::json::{self, Fields, Json};
use crate::metrics::RunResult;
use crate::time::SimDuration;

/// The recorded fate of every honest transmission of a run, in send order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeliverySchedule {
    fates: Vec<RecordedFate>,
    cursor: usize,
}

/// Serializable mirror of [`Fate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordedFate {
    Deliver { delay_micros: u64 },
    Drop,
}

impl DeliverySchedule {
    /// Creates an empty schedule.
    pub(crate) fn new() -> Self {
        DeliverySchedule::default()
    }

    /// Number of recorded transmissions.
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }

    pub(crate) fn push(&mut self, fate: Fate) {
        self.fates.push(match fate {
            Fate::Deliver(d) => RecordedFate::Deliver {
                delay_micros: d.as_micros(),
            },
            Fate::Drop => RecordedFate::Drop,
        });
    }

    /// Consumes the next recorded fate, or `None` when the replayed run sends
    /// more messages than the recorded one (a divergence).
    pub(crate) fn next_fate(&mut self) -> Option<Fate> {
        let fate = self.fates.get(self.cursor)?;
        self.cursor += 1;
        Some(match *fate {
            RecordedFate::Deliver { delay_micros } => {
                Fate::Deliver(SimDuration::from_micros(delay_micros))
            }
            RecordedFate::Drop => Fate::Drop,
        })
    }

    /// Resets the replay cursor to the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Returns a copy holding only the first `len` fates (all of them when
    /// `len` exceeds the schedule), with the cursor rewound. Shrinkers use
    /// this to bisect a failing schedule down to its shortest violating
    /// prefix; a replay past the prefix falls back to λ-delay delivery and is
    /// flagged as diverged by the engine.
    pub fn truncated(&self, len: usize) -> DeliverySchedule {
        DeliverySchedule {
            fates: self.fates[..len.min(self.fates.len())].to_vec(),
            cursor: 0,
        }
    }

    /// Converts the schedule to JSON (externally-tagged fates, matching the
    /// derive format the schedule was originally serialised with).
    pub fn to_json(&self) -> Json {
        let fates = self
            .fates
            .iter()
            .map(|f| match f {
                RecordedFate::Deliver { delay_micros } => Json::obj([(
                    "Deliver",
                    Json::obj([("delay_micros", Json::from(*delay_micros))]),
                )]),
                RecordedFate::Drop => Json::from("Drop"),
            })
            .collect();
        Json::obj([("fates", Json::Arr(fates))])
    }

    /// Parses a schedule from the JSON produced by
    /// [`DeliverySchedule::to_json`]. The cursor starts rewound.
    ///
    /// A corrupted schedule replayed as ground truth would silently validate
    /// the wrong run, so an entry must be *exactly* the string `"Drop"` or a
    /// single-key `{"Deliver": {"delay_micros": n}}` object.
    ///
    /// # Errors
    ///
    /// Malformed per [`crate::json`]'s artifact parsing policy; the message
    /// names the offending fate's index.
    pub fn from_json(json: &Json) -> Result<DeliverySchedule, String> {
        let mut f = Fields::of(json, "schedule")?;
        let fates = f.req("fates", json::list(Self::fate_from_json))?;
        f.finish()?;
        Ok(DeliverySchedule { fates, cursor: 0 })
    }

    fn fate_from_json(json: &Json) -> Result<RecordedFate, String> {
        match json::variant(json, "fate")? {
            ("Drop", None) => Ok(RecordedFate::Drop),
            ("Deliver", Some(mut f)) => {
                let delay_micros = f.req("delay_micros", json::int)?;
                f.finish()?;
                Ok(RecordedFate::Deliver { delay_micros })
            }
            (tag, _) => Err(format!("unknown fate variant \"{tag}\"")),
        }
    }
}

/// Cross-validation checks over [`RunResult`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Validator;

impl Validator {
    /// Checks that two runs decided identically: same number of slots per
    /// node, same values per `(node, slot)`. Decision *times* are not
    /// compared.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ValidationMismatch`] describing the first
    /// difference found.
    pub(crate) fn compare_decisions(a: &RunResult, b: &RunResult) -> Result<(), SimError> {
        if a.decided.len() != b.decided.len() {
            return Err(SimError::ValidationMismatch(format!(
                "node counts differ: {} vs {}",
                a.decided.len(),
                b.decided.len()
            )));
        }
        for (idx, (seq_a, seq_b)) in a.decided.iter().zip(&b.decided).enumerate() {
            if seq_a.len() != seq_b.len() {
                return Err(SimError::ValidationMismatch(format!(
                    "node {idx} decided {} slots vs {}",
                    seq_a.len(),
                    seq_b.len()
                )));
            }
            for (slot, ((_, va), (_, vb))) in seq_a.iter().zip(seq_b).enumerate() {
                if va != vb {
                    return Err(SimError::ValidationMismatch(format!(
                        "node {idx} slot {slot}: {va} vs {vb}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks a run's decisions against a recorded ground-truth trace
    /// (e.g. a golden trace committed to the repository, or one produced by
    /// another simulator) — the paper's §III-A6 use-case of replay against
    /// "the actual implementation of the BFT protocol".
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ValidationMismatch`] describing the first
    /// `(node, slot)` whose decided value differs or is missing, naming the
    /// node id and the index of the golden trace event that disagrees.
    pub fn check_against_trace(
        result: &RunResult,
        golden: &crate::trace::Trace,
    ) -> Result<(), SimError> {
        for (event_idx, (_, node, slot, value)) in golden.indexed_decisions() {
            let got = result
                .decided
                .get(node.index())
                .and_then(|seq| seq.get(slot as usize))
                .map(|&(_, v)| v);
            match got {
                Some(v) if v == value => {}
                Some(v) => {
                    return Err(SimError::ValidationMismatch(format!(
                        "golden event #{event_idx}: {node} slot {slot} decided {value}, \
                         but the run decided {v}"
                    )))
                }
                None => {
                    return Err(SimError::ValidationMismatch(format!(
                        "golden event #{event_idx}: {node} slot {slot} decided {value}, \
                         but the run decided nothing there"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Checks a replayed run against the original: decisions must match and
    /// the replay must not have diverged (sent a different number of
    /// messages than the schedule recorded).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ValidationMismatch`] on any divergence.
    pub fn check_replay(original: &RunResult, replayed: &RunResult) -> Result<(), SimError> {
        if let Some(v) = &replayed.safety_violation {
            return Err(SimError::ValidationMismatch(format!(
                "replayed run reported: {v}"
            )));
        }
        Self::compare_decisions(original, replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn schedule_round_trips_fates() {
        let mut s = DeliverySchedule::new();
        s.push(Fate::Deliver(SimDuration::from_millis(5.0)));
        s.push(Fate::Drop);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.next_fate(),
            Some(Fate::Deliver(SimDuration::from_millis(5.0)))
        );
        assert_eq!(s.next_fate(), Some(Fate::Drop));
        assert_eq!(s.next_fate(), None, "exhausted schedule signals divergence");
        s.rewind();
        assert!(s.next_fate().is_some());
    }

    #[test]
    fn truncated_keeps_a_rewound_prefix() {
        let mut s = DeliverySchedule::new();
        s.push(Fate::Deliver(SimDuration::from_millis(1.0)));
        s.push(Fate::Drop);
        s.push(Fate::Deliver(SimDuration::from_millis(2.0)));
        s.next_fate();

        let mut p = s.truncated(2);
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.next_fate(),
            Some(Fate::Deliver(SimDuration::from_millis(1.0))),
            "prefix cursor starts rewound"
        );
        assert_eq!(p.next_fate(), Some(Fate::Drop));
        assert_eq!(p.next_fate(), None);
        assert_eq!(
            s.truncated(99).len(),
            3,
            "over-long prefix is the whole schedule"
        );
        assert_eq!(s.truncated(0).len(), 0);
    }

    #[test]
    fn schedule_json_round_trip() {
        let mut s = DeliverySchedule::new();
        s.push(Fate::Deliver(SimDuration::from_micros(123_456)));
        s.push(Fate::Drop);
        s.push(Fate::Deliver(SimDuration::ZERO));
        let text = s.to_json().dump_pretty();
        let back = DeliverySchedule::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Byte-identical re-serialisation: the validator depends on recorded
        // schedules surviving a save/load cycle exactly.
        assert_eq!(back.to_json().dump_pretty(), text);
    }

    /// Parses `text` and asserts `from_json` rejects it with an error
    /// containing `needle`.
    fn assert_rejected(text: &str, needle: &str) {
        let err = DeliverySchedule::from_json(&Json::parse(text).unwrap())
            .expect_err(&format!("malformed schedule accepted: {text}"));
        assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
    }

    #[test]
    fn schedule_json_rejects_corruption() {
        // Top-level shape.
        assert_rejected("[]", "expected an object");
        assert_rejected("{\"fates\": [], \"extra\": 1}", "unknown field \"extra\"");
        assert_rejected("{\"schedule\": []}", "missing \"fates\"");
        assert_rejected("{\"fates\": 3}", "expected an array");
        // Fate entries, each error naming the entry index.
        assert_rejected("{\"fates\": [\"Drop\", \"Dropp\"]}", "entry #1");
        assert_rejected("{\"fates\": [42]}", "entry #0");
        assert_rejected(
            "{\"fates\": [{\"Deliver\": {\"delay_micros\": 1}, \"Drop\": null}]}",
            "exactly one variant",
        );
        assert_rejected(
            "{\"fates\": [{\"Forward\": {\"delay_micros\": 1}}]}",
            "unknown fate variant",
        );
        assert_rejected("{\"fates\": [{\"Deliver\": 7}]}", "expected an object");
        // A unit variant spelled as an object, and the reverse.
        assert_rejected("{\"fates\": [{\"Drop\": {}}]}", "unknown fate variant");
        assert_rejected("{\"fates\": [\"Deliver\"]}", "unknown fate variant");
        // Trailing and duplicate fields inside the Deliver body.
        assert_rejected(
            "{\"fates\": [{\"Deliver\": {\"delay_micros\": 1, \"trailing\": 2}}]}",
            "unknown field \"trailing\"",
        );
        assert_rejected(
            "{\"fates\": [{\"Deliver\": {\"delay_micros\": 1, \"delay_micros\": 2}}]}",
            "duplicate field \"delay_micros\"",
        );
        assert_rejected(
            "{\"fates\": [{\"Deliver\": {\"delay\": 1}}]}",
            "missing \"delay_micros\"",
        );
        assert_rejected(
            "{\"fates\": [\"Drop\", {\"Deliver\": {\"delay_micros\": \"soon\"}}]}",
            "entry #1",
        );
        assert_rejected(
            "{\"fates\": [{\"Deliver\": {\"delay_micros\": 1.5}}]}",
            "expected an unsigned integer",
        );
    }

    use crate::ids::NodeId;
    use crate::time::SimTime;
    use crate::trace::{Trace, TraceKind};
    use crate::value::Value;

    /// A minimal [`RunResult`] whose per-node decisions are the given value
    /// sequences (times are irrelevant to decision comparison).
    fn result_with_decisions(decided: &[&[u64]]) -> RunResult {
        let decided = decided
            .iter()
            .map(|seq| {
                seq.iter()
                    .map(|&v| (SimTime::ZERO, Value::new(v)))
                    .collect()
            })
            .collect::<Vec<Vec<_>>>();
        let n = decided.len();
        RunResult {
            end_time: SimTime::ZERO,
            timed_out: false,
            completions: Vec::new(),
            honest_messages: 0,
            adversary_messages: 0,
            dropped_messages: 0,
            events_processed: 0,
            skipped_cancelled_timers: 0,
            skipped_excluded_nodes: 0,
            broadcasts: 0,
            sent_per_node: vec![0; n],
            delivered_per_node: vec![0; n],
            safety_violation: None,
            decided,
            trace: Trace::default(),
            queue_high_water: 0,
            scheduler: crate::scheduler::SchedulerStats::default(),
            observability: None,
        }
    }

    fn mismatch_message(err: SimError) -> String {
        match err {
            SimError::ValidationMismatch(msg) => msg,
            other => panic!("expected ValidationMismatch, got {other:?}"),
        }
    }

    #[test]
    fn compare_decisions_names_node_and_slot() {
        let a = result_with_decisions(&[&[7, 8], &[7, 8]]);
        assert!(Validator::compare_decisions(&a, &a.clone()).is_ok());

        let fewer_nodes = result_with_decisions(&[&[7, 8]]);
        let msg = mismatch_message(Validator::compare_decisions(&a, &fewer_nodes).unwrap_err());
        assert!(msg.contains("node counts differ: 2 vs 1"), "{msg}");

        let fewer_slots = result_with_decisions(&[&[7, 8], &[7]]);
        let msg = mismatch_message(Validator::compare_decisions(&a, &fewer_slots).unwrap_err());
        assert!(msg.contains("node 1 decided 2 slots vs 1"), "{msg}");

        let conflicting = result_with_decisions(&[&[7, 8], &[7, 9]]);
        let msg = mismatch_message(Validator::compare_decisions(&a, &conflicting).unwrap_err());
        assert!(msg.contains("node 1 slot 1"), "{msg}");
        assert!(msg.contains("v0x8 vs v0x9"), "{msg}");
    }

    #[test]
    fn check_against_trace_names_node_and_event_index() {
        let mut golden = Trace::default();
        golden.record(
            SimTime::from_millis(1),
            NodeId::new(0),
            &TraceKind::View { view: 1 },
        );
        golden.record(
            SimTime::from_millis(2),
            NodeId::new(0),
            &TraceKind::Decided {
                slot: 0,
                value: Value::new(7),
            },
        );
        golden.record(
            SimTime::from_millis(3),
            NodeId::new(1),
            &TraceKind::Decided {
                slot: 0,
                value: Value::new(7),
            },
        );

        let matching = result_with_decisions(&[&[7], &[7]]);
        assert!(Validator::check_against_trace(&matching, &golden).is_ok());

        // n1 decided a different value: the error points at golden event #2
        // (the View event at #0 counts toward the index).
        let conflicting = result_with_decisions(&[&[7], &[9]]);
        let msg =
            mismatch_message(Validator::check_against_trace(&conflicting, &golden).unwrap_err());
        assert!(msg.contains("golden event #2"), "{msg}");
        assert!(msg.contains("n1 slot 0"), "{msg}");
        assert!(msg.contains("decided v0x7"), "{msg}");
        assert!(msg.contains("the run decided v0x9"), "{msg}");

        // n1 never decided slot 0 at all.
        let missing = result_with_decisions(&[&[7], &[]]);
        let msg = mismatch_message(Validator::check_against_trace(&missing, &golden).unwrap_err());
        assert!(msg.contains("golden event #2"), "{msg}");
        assert!(msg.contains("n1 slot 0"), "{msg}");
        assert!(msg.contains("decided nothing"), "{msg}");
    }

    #[test]
    fn check_replay_reports_violations_and_mismatches() {
        let a = result_with_decisions(&[&[7]]);
        assert!(Validator::check_replay(&a, &a.clone()).is_ok());

        let mut violated = a.clone();
        violated.safety_violation = Some("replay diverged from recorded schedule".into());
        let msg = mismatch_message(Validator::check_replay(&a, &violated).unwrap_err());
        assert!(msg.contains("replay diverged"), "{msg}");
    }
}
