//! First-class correctness oracles.
//!
//! The validator module (§III-A6) replays a *known* ground truth; oracles
//! judge *arbitrary* runs — including adversarial ones a fuzzer discovers —
//! against protocol-independent correctness properties:
//!
//! * **agreement** — no two correct nodes decide different values for the
//!   same consensus slot;
//! * **validity** — decided values lie in the protocol's declared domain
//!   (binary for binary BA, non-zero proposal digests for SMR protocols);
//! * **no-revocation** — per-node decision logs are append-only: slots are
//!   decided exactly once, in order, and never change after the fact;
//! * **termination** — runs expected to terminate (benign conditions, or a
//!   protocol whose model tolerates the scenario) did so by the deadline;
//! * **metrics sanity** — the engine's own accounting is consistent
//!   (deliveries never exceed transmissions, the clock never runs backward).
//!
//! Oracles read an [`OracleInput`], built either from a finished
//! [`RunResult`] (optionally enriched with per-step observations from an
//! [`OracleObserver`] installed via
//! [`SimulationBuilder::observer`](crate::engine::SimulationBuilder::observer))
//! or from a bare [`Trace`] such as the committed golden traces.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use crate::engine::StepObserver;
use crate::ids::NodeId;
use crate::metrics::RunResult;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::value::Value;

/// One oracle's verdict on one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// The oracle that fired (its [`Oracle::name`]).
    pub oracle: &'static str,
    /// Human-readable description naming the offending nodes/slots/values.
    pub detail: String,
}

impl core::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// The set of values a protocol may legitimately decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDomain {
    /// Anything goes (used when no stronger statement is available).
    Any,
    /// Binary agreement: decisions must be 0 or 1.
    Binary,
    /// Digest-valued proposals: a decision of literal zero means an
    /// uninitialised or forged value slipped through.
    NonZero,
}

impl ValueDomain {
    /// Whether `value` is a member of the domain.
    pub(crate) fn contains(self, value: Value) -> bool {
        match self {
            ValueDomain::Any => true,
            ValueDomain::Binary => value.as_u64() <= 1,
            ValueDomain::NonZero => value.as_u64() != 0,
        }
    }
}

/// One scheduled node-offline interval, as the oracles see it: `node` is
/// offline (its links drop traffic) during `[start, end)`.
///
/// This mirrors the network layer's churn `DownWindow` but lives in core so
/// [`Expectations`] can carry a churn schedule without core depending on the
/// network crate. The harness that builds the churned network converts its
/// plan into these windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The node that goes offline.
    pub node: u32,
    /// When it goes down (inclusive).
    pub start: SimTime,
    /// When it comes back (exclusive).
    pub end: SimTime,
}

/// What a particular scenario entitles the oracles to assume.
///
/// Protocol-specific facts come from `ProtocolKind::expectations` in
/// `bft-sim-protocols`; scenario-specific facts (was the run benign enough
/// that termination is owed? which nodes have scheduled downtime?) are set by
/// the harness driving the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectations {
    /// The run's decision target (`RunConfig::target_decisions`).
    pub target_decisions: u64,
    /// The protocol's decision-value domain.
    pub value_domain: ValueDomain,
    /// Whether the scenario obliges the protocol to terminate: true for
    /// benign runs within the protocol's network model, false when the
    /// adversary or the network is allowed to stall it.
    pub must_terminate: bool,
    /// Scheduled node-offline windows (churn). When non-empty, the
    /// termination oracle suspends decision debt for nodes with scheduled
    /// downtime: their deadline extends across their down-windows, so a
    /// shortfall attributable only to churned nodes is not a violation.
    /// Empty for churn-free scenarios, where termination keeps its strict
    /// every-node-owes-the-target reading.
    pub outages: Vec<OutageWindow>,
}

/// Per-step facts gathered while a run executes, via [`OracleObserver`].
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Events the observer saw (must equal `RunResult::events_processed`).
    pub events: u64,
    /// Times the clock moved backwards between events (must be zero).
    pub(crate) clock_regressions: u64,
    /// The clock value at the last observed event.
    pub(crate) last_clock: SimTime,
    /// Every decision in the order the engine applied it.
    pub decisions: Vec<(SimTime, NodeId, u64, Value)>,
}

impl Default for ObservedRun {
    fn default() -> Self {
        ObservedRun {
            events: 0,
            clock_regressions: 0,
            last_clock: SimTime::ZERO,
            decisions: Vec::new(),
        }
    }
}

/// A [`StepObserver`] that records the facts the oracles need.
///
/// Cloning shares the underlying log, so keep one handle and give the other
/// to [`SimulationBuilder::observer`](crate::engine::SimulationBuilder::observer):
///
/// ```
/// use bft_sim_core::oracle::OracleObserver;
/// let probe = OracleObserver::new();
/// let handle = probe.clone(); // goes to SimulationBuilder::observer(probe)
/// assert_eq!(handle.snapshot().events, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OracleObserver {
    shared: Arc<Mutex<ObservedRun>>,
}

impl OracleObserver {
    /// Creates an observer with an empty log.
    pub fn new() -> Self {
        OracleObserver::default()
    }

    /// A copy of everything observed so far.
    pub fn snapshot(&self) -> ObservedRun {
        self.shared.lock().expect("observer lock").clone()
    }
}

impl StepObserver for OracleObserver {
    fn on_event(&mut self, now: SimTime) {
        let mut log = self.shared.lock().expect("observer lock");
        log.events += 1;
        if now < log.last_clock {
            log.clock_regressions += 1;
        }
        log.last_clock = now;
    }

    fn on_decision(&mut self, now: SimTime, node: NodeId, slot: u64, value: Value) {
        let mut log = self.shared.lock().expect("observer lock");
        log.decisions.push((now, node, slot, value));
    }
}

/// Everything an oracle may look at, assembled once per checked run.
#[derive(Debug)]
pub struct OracleInput<'a> {
    /// The finished run, when the check targets a live simulation. `None`
    /// for trace-only checks (e.g. committed golden traces).
    pub(crate) result: Option<&'a RunResult>,
    /// All decisions, in recording order, as `(time, node, slot, value)`.
    pub(crate) decisions: Vec<(SimTime, NodeId, u64, Value)>,
    /// Nodes the adversary corrupted or crashed (exempt from correctness).
    pub(crate) excluded: HashSet<NodeId>,
    /// Per-step observations, when an [`OracleObserver`] was installed.
    pub(crate) observed: Option<ObservedRun>,
    /// What this scenario entitles the oracles to assume.
    pub(crate) expect: Expectations,
}

impl<'a> OracleInput<'a> {
    /// Builds the input from a finished run (and optional observations).
    pub fn from_result(
        result: &'a RunResult,
        observed: Option<ObservedRun>,
        expect: Expectations,
    ) -> Self {
        let mut input = Self::from_trace_inner(&result.trace, expect);
        input.result = Some(result);
        input.observed = observed;
        input
    }

    /// Builds a trace-only input (golden traces, externally produced logs).
    pub fn from_trace(trace: &Trace, expect: Expectations) -> OracleInput<'a> {
        Self::from_trace_inner(trace, expect)
    }

    fn from_trace_inner(trace: &Trace, expect: Expectations) -> OracleInput<'a> {
        OracleInput {
            result: None,
            decisions: trace.decisions().collect(),
            excluded: trace.excluded_nodes().collect(),
            observed: None,
            expect,
        }
    }

    /// Decisions by nodes that stayed correct for the whole run.
    fn correct_decisions(&self) -> impl Iterator<Item = &(SimTime, NodeId, u64, Value)> {
        self.decisions
            .iter()
            .filter(|(_, node, _, _)| !self.excluded.contains(node))
    }
}

/// A correctness property checked after (or across) a run.
pub trait Oracle: Send + Sync {
    /// Short name, used in reports and repro files.
    fn name(&self) -> &'static str;

    /// Checks the property.
    ///
    /// # Errors
    ///
    /// Returns the first [`OracleViolation`] found.
    fn check(&self, input: &OracleInput<'_>) -> Result<(), OracleViolation>;
}

/// Agreement: no two correct nodes decide different values for one slot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AgreementOracle;

impl Oracle for AgreementOracle {
    fn name(&self) -> &'static str {
        "agreement"
    }

    fn check(&self, input: &OracleInput<'_>) -> Result<(), OracleViolation> {
        let mut first: HashMap<u64, (NodeId, Value)> = HashMap::new();
        for &(_, node, slot, value) in input.correct_decisions() {
            match first.get(&slot) {
                None => {
                    first.insert(slot, (node, value));
                }
                Some(&(other, other_value)) if other_value != value => {
                    return Err(OracleViolation {
                        oracle: self.name(),
                        detail: format!(
                            "slot {slot}: {node} decided {value} but {other} decided {other_value}"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Validity: decided values lie in the protocol's declared domain.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ValidityOracle;

impl Oracle for ValidityOracle {
    fn name(&self) -> &'static str {
        "validity"
    }

    fn check(&self, input: &OracleInput<'_>) -> Result<(), OracleViolation> {
        let domain = input.expect.value_domain;
        for &(_, node, slot, value) in input.correct_decisions() {
            if !domain.contains(value) {
                return Err(OracleViolation {
                    oracle: self.name(),
                    detail: format!(
                        "{node} slot {slot}: decided {value}, outside the {domain:?} domain"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// No revocation: per-node decision logs are append-only — slots appear
/// exactly once, in order, and the final [`RunResult`] still contains every
/// decision that was observed being made.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoRevocationOracle;

impl Oracle for NoRevocationOracle {
    fn name(&self) -> &'static str {
        "no-revocation"
    }

    fn check(&self, input: &OracleInput<'_>) -> Result<(), OracleViolation> {
        // Slot sequences must be 0, 1, 2, … per node — no gap, dup or reorder.
        let mut next_slot: HashMap<NodeId, u64> = HashMap::new();
        for &(_, node, slot, _) in &input.decisions {
            let expected = next_slot.entry(node).or_insert(0);
            if slot != *expected {
                return Err(OracleViolation {
                    oracle: self.name(),
                    detail: format!(
                        "{node}: decided slot {slot} out of order (expected slot {expected})"
                    ),
                });
            }
            *expected += 1;
        }
        // Every decision made during the run must survive into the result
        // unchanged (the engine must never rewrite history).
        if let Some(result) = input.result {
            for &(_, node, slot, value) in &input.decisions {
                let kept = result
                    .decided
                    .get(node.index())
                    .and_then(|seq| seq.get(slot as usize))
                    .map(|&(_, v)| v);
                if kept != Some(value) {
                    return Err(OracleViolation {
                        oracle: self.name(),
                        detail: format!(
                            "{node} slot {slot}: decided {value} during the run but the \
                             final result records {kept:?}"
                        ),
                    });
                }
            }
            // And the engine-reported observations must agree with the trace.
            if let Some(obs) = &input.observed {
                let (seen, traced) = (&obs.decisions, &input.decisions);
                if seen != traced {
                    let at = seen
                        .iter()
                        .zip(traced)
                        .position(|(a, b)| a != b)
                        .unwrap_or(seen.len().min(traced.len()));
                    let describe = |d: Option<&(SimTime, NodeId, u64, Value)>| match d {
                        Some(&(time, node, slot, value)) => {
                            format!("({node}, slot {slot}, {value}) at {time}")
                        }
                        None => "nothing".to_string(),
                    };
                    return Err(OracleViolation {
                        oracle: self.name(),
                        detail: format!(
                            "decision #{at}: the observer saw {} but the trace records {}",
                            describe(seen.get(at)),
                            describe(traced.get(at))
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Termination: when the scenario obliges the protocol to finish, it did.
///
/// When [`Expectations::outages`] is non-empty, decision debt is suspended
/// for nodes with scheduled downtime: a node's decision deadline extends
/// across its down-windows, and since the run ends at its time cap — before
/// any extended deadline — residual debt on a churned node is never charged.
/// Global completion counters stall as soon as *one* live honest node misses
/// a slot while offline (completion requires every live honest node), so
/// without this suspension every churn scenario that clipped a decision
/// round would report a false liveness violation. Nodes with no scheduled
/// downtime keep the full obligation: a shortfall on them is a real
/// violation even in a churn scenario.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TerminationOracle;

impl Oracle for TerminationOracle {
    fn name(&self) -> &'static str {
        "termination"
    }

    fn check(&self, input: &OracleInput<'_>) -> Result<(), OracleViolation> {
        if !input.expect.must_terminate {
            return Ok(());
        }
        let target = input.expect.target_decisions;
        let churned: HashSet<u32> = input.expect.outages.iter().map(|w| w.node).collect();
        if let Some(result) = input.result {
            let stalled = result.timed_out || result.decisions_completed() < target;
            if !stalled {
                return Ok(());
            }
            if churned.is_empty() {
                if result.timed_out {
                    return Err(OracleViolation {
                        oracle: self.name(),
                        detail: format!(
                            "benign run timed out at {} with {}/{target} decisions completed",
                            result.end_time,
                            result.decisions_completed()
                        ),
                    });
                }
                return Err(OracleViolation {
                    oracle: self.name(),
                    detail: format!(
                        "run stopped with only {}/{target} decisions completed",
                        result.decisions_completed()
                    ),
                });
            }
            // Churn-aware: the stall is excused iff every correct node that
            // fell short of the target has scheduled downtime to blame.
            for (index, seq) in result.decided.iter().enumerate() {
                let node = NodeId::new(index as u32);
                let count = seq.len() as u64;
                if count >= target
                    || input.excluded.contains(&node)
                    || churned.contains(&node.as_u32())
                {
                    continue;
                }
                return Err(OracleViolation {
                    oracle: self.name(),
                    detail: format!(
                        "{node} decided only {count}/{target} slots with no scheduled \
                         downtime to excuse it"
                    ),
                });
            }
            return Ok(());
        }
        // Trace-only: every correct node must have decided `target` slots,
        // except nodes whose shortfall is covered by scheduled downtime.
        let mut per_node: HashMap<NodeId, u64> = HashMap::new();
        for &(_, node, _, _) in input.correct_decisions() {
            *per_node.entry(node).or_insert(0) += 1;
        }
        if per_node.is_empty() {
            return Err(OracleViolation {
                oracle: self.name(),
                detail: "no correct node decided anything".into(),
            });
        }
        let mut short: Vec<(NodeId, u64)> = per_node
            .into_iter()
            .filter(|(node, count)| *count < target && !churned.contains(&node.as_u32()))
            .collect();
        short.sort_by_key(|&(node, _)| node.as_u32());
        if let Some(&(node, count)) = short.first() {
            return Err(OracleViolation {
                oracle: self.name(),
                detail: format!("{node} decided only {count}/{target} slots"),
            });
        }
        Ok(())
    }
}

/// Metrics sanity: the engine's own accounting must be internally
/// consistent — deliveries never exceed transmissions, drops never exceed
/// honest sends, decision times never exceed the end time, and (when
/// observed) the clock is monotone and the event counts agree.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MetricsSanityOracle;

impl Oracle for MetricsSanityOracle {
    fn name(&self) -> &'static str {
        "metrics-sanity"
    }

    fn check(&self, input: &OracleInput<'_>) -> Result<(), OracleViolation> {
        let fail = |detail: String| OracleViolation {
            oracle: "metrics-sanity",
            detail,
        };
        // Trace times must be non-decreasing even without a RunResult.
        for (i, &(time, node, slot, _)) in input.decisions.iter().enumerate() {
            if let Some(&(prev, ..)) = i.checked_sub(1).and_then(|p| input.decisions.get(p)) {
                if time < prev {
                    return Err(fail(format!(
                        "decision clock ran backwards at {node} slot {slot}: {time} < {prev}"
                    )));
                }
            }
        }
        let Some(result) = input.result else {
            return Ok(());
        };
        let delivered: u64 = result.delivered_per_node.iter().sum();
        let sent = result.honest_messages + result.adversary_messages;
        if delivered > sent {
            return Err(fail(format!(
                "delivered {delivered} messages but only {sent} were sent"
            )));
        }
        if result.dropped_messages > result.honest_messages {
            return Err(fail(format!(
                "dropped {} messages out of {} honest transmissions",
                result.dropped_messages, result.honest_messages
            )));
        }
        for &(time, node, slot, _) in &input.decisions {
            if time > result.end_time {
                return Err(fail(format!(
                    "{node} slot {slot} decided at {time}, after the run ended at {}",
                    result.end_time
                )));
            }
        }
        if let Some(obs) = &input.observed {
            if obs.clock_regressions > 0 {
                return Err(fail(format!(
                    "clock ran backwards {} time(s) during the run",
                    obs.clock_regressions
                )));
            }
            if obs.events != result.events_processed {
                return Err(fail(format!(
                    "observer saw {} events but the engine reports {}",
                    obs.events, result.events_processed
                )));
            }
        }
        Ok(())
    }
}

/// The standard oracle battery, checked in severity order.
pub struct OracleSuite {
    oracles: Vec<Box<dyn Oracle>>,
}

impl core::fmt::Debug for OracleSuite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OracleSuite")
            .field("oracles", &self.names())
            .finish()
    }
}

impl Default for OracleSuite {
    fn default() -> Self {
        Self::standard()
    }
}

impl OracleSuite {
    /// All five standard oracles: agreement, validity, no-revocation,
    /// termination, metrics sanity.
    pub fn standard() -> Self {
        OracleSuite {
            oracles: vec![
                Box::new(AgreementOracle),
                Box::new(ValidityOracle),
                Box::new(NoRevocationOracle),
                Box::new(TerminationOracle),
                Box::new(MetricsSanityOracle),
            ],
        }
    }

    /// The oracles' names, in check order.
    pub(crate) fn names(&self) -> Vec<&'static str> {
        self.oracles.iter().map(|o| o.name()).collect()
    }

    /// Runs every oracle; returns all violations (empty = clean run).
    pub fn check(&self, input: &OracleInput<'_>) -> Vec<OracleViolation> {
        self.oracles
            .iter()
            .filter_map(|o| o.check(input).err())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Permissive expectations: any value, one decision, termination not owed.
    fn lenient() -> Expectations {
        Expectations {
            target_decisions: 1,
            value_domain: ValueDomain::Any,
            must_terminate: false,
            outages: Vec::new(),
        }
    }

    fn decision(ms: u64, node: u32, slot: u64, value: u64) -> (SimTime, NodeId, u64, Value) {
        (
            SimTime::from_millis(ms),
            NodeId::new(node),
            slot,
            Value::new(value),
        )
    }

    fn input(decisions: Vec<(SimTime, NodeId, u64, Value)>) -> OracleInput<'static> {
        OracleInput {
            result: None,
            decisions,
            excluded: HashSet::new(),
            observed: None,
            expect: lenient(),
        }
    }

    #[test]
    fn agreement_flags_conflicting_slots() {
        let ok = input(vec![decision(1, 0, 0, 7), decision(2, 1, 0, 7)]);
        assert!(AgreementOracle.check(&ok).is_ok());

        let bad = input(vec![decision(1, 0, 0, 7), decision(2, 1, 0, 8)]);
        let v = AgreementOracle.check(&bad).unwrap_err();
        assert_eq!(v.oracle, "agreement");
        assert!(v.detail.contains("slot 0"), "{}", v.detail);
        assert!(v.detail.contains("n1"), "{}", v.detail);
    }

    #[test]
    fn agreement_exempts_excluded_nodes() {
        let mut bad = input(vec![decision(1, 0, 0, 7), decision(2, 1, 0, 8)]);
        bad.excluded.insert(NodeId::new(1));
        assert!(AgreementOracle.check(&bad).is_ok());
    }

    #[test]
    fn validity_enforces_domains() {
        let mut i = input(vec![decision(1, 0, 0, 2)]);
        assert!(ValidityOracle.check(&i).is_ok());
        i.expect.value_domain = ValueDomain::Binary;
        assert!(ValidityOracle.check(&i).is_err());
        i.decisions = vec![decision(1, 0, 0, 0)];
        i.expect.value_domain = ValueDomain::NonZero;
        let v = ValidityOracle.check(&i).unwrap_err();
        assert!(v.detail.contains("NonZero"), "{}", v.detail);
    }

    #[test]
    fn no_revocation_requires_ordered_unique_slots() {
        let ok = input(vec![
            decision(1, 0, 0, 7),
            decision(2, 0, 1, 8),
            decision(2, 1, 0, 7),
        ]);
        assert!(NoRevocationOracle.check(&ok).is_ok());

        let dup = input(vec![decision(1, 0, 0, 7), decision(2, 0, 0, 7)]);
        assert!(NoRevocationOracle.check(&dup).is_err());

        let gap = input(vec![decision(1, 0, 0, 7), decision(2, 0, 2, 8)]);
        let v = NoRevocationOracle.check(&gap).unwrap_err();
        assert!(v.detail.contains("slot 2"), "{}", v.detail);
        assert!(v.detail.contains("expected slot 1"), "{}", v.detail);
    }

    /// A run's result whose trace holds `traced` (decisions of nodes below
    /// `n`), with `decided` regrouped from it as the engine does.
    fn run_backed(traced: &[(SimTime, NodeId, u64, Value)], n: usize) -> RunResult {
        let mut result = timed_out_result(&[], 0, 0);
        let mut counts = vec![0; n];
        for &(time, node, slot, value) in traced {
            let kind = crate::trace::TraceKind::Decided { slot, value };
            result.trace.record(time, node, &kind);
            counts[node.index()] += 1;
        }
        result.decided = crate::metrics::Decisions::regroup(&result.trace, &counts);
        result
    }

    #[test]
    fn no_revocation_compares_the_result_with_the_trace() {
        let check =
            |r: &RunResult| NoRevocationOracle.check(&OracleInput::from_result(r, None, lenient()));
        let mut result = run_backed(&[decision(1, 0, 0, 7), decision(2, 1, 0, 7)], 2);
        assert!(check(&result).is_ok());

        result.decided[1][0].1 = Value::new(8);
        assert_eq!(
            check(&result).unwrap_err().detail,
            "n1 slot 0: decided v0x7 during the run but the final result records Some(Value(8))"
        );

        result.decided = [result.decided[0].to_vec(), Vec::new()]
            .into_iter()
            .collect();
        let v = check(&result).unwrap_err();
        assert!(v.detail.ends_with("records None"), "{}", v.detail);
    }

    #[test]
    fn no_revocation_names_the_first_decision_the_observer_saw_differently() {
        let traced = [
            decision(1, 0, 0, 7),
            decision(2, 1, 0, 7),
            decision(3, 0, 1, 8),
        ];
        let result = run_backed(&traced, 2);
        let check = |seen: Vec<(SimTime, NodeId, u64, Value)>| {
            let observed = ObservedRun {
                decisions: seen,
                ..ObservedRun::default()
            };
            NoRevocationOracle.check(&OracleInput::from_result(
                &result,
                Some(observed),
                lenient(),
            ))
        };
        assert!(check(traced.to_vec()).is_ok());

        // As many decisions on both sides, one value apart.
        let mut other_value = traced.to_vec();
        other_value[1].3 = Value::new(5);
        assert_eq!(
            check(other_value).unwrap_err().detail,
            "decision #1: the observer saw (n1, slot 0, v0x5) at 2.000ms but the trace \
             records (n1, slot 0, v0x7) at 2.000ms"
        );

        // One side is a prefix of the other.
        assert_eq!(
            check(traced[..2].to_vec()).unwrap_err().detail,
            "decision #2: the observer saw nothing but the trace records \
             (n0, slot 1, v0x8) at 3.000ms"
        );
    }

    #[test]
    fn termination_only_fires_when_owed() {
        let empty = input(Vec::new());
        assert!(TerminationOracle.check(&empty).is_ok(), "not owed: ok");

        let mut owed = input(Vec::new());
        owed.expect.must_terminate = true;
        let v = TerminationOracle.check(&owed).unwrap_err();
        assert_eq!(v.oracle, "termination");

        let mut partial = input(vec![decision(1, 0, 0, 7)]);
        partial.expect.must_terminate = true;
        partial.expect.target_decisions = 2;
        let v = TerminationOracle.check(&partial).unwrap_err();
        assert!(v.detail.contains("1/2"), "{}", v.detail);
    }

    /// A minimal timed-out [`RunResult`] whose per-node decision counts are
    /// given; only the fields the termination oracle reads are meaningful.
    fn timed_out_result(per_node_decisions: &[u64], completed: u64, end_ms: u64) -> RunResult {
        let decided: crate::metrics::Decisions = per_node_decisions
            .iter()
            .map(|&k| (0..k).map(|_| (SimTime::ZERO, Value::new(7))).collect())
            .collect();
        let n = decided.len();
        RunResult {
            end_time: SimTime::from_millis(end_ms),
            timed_out: true,
            completions: (0..completed)
                .map(|i| SimTime::from_millis(i + 1))
                .collect(),
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
            trace: crate::trace::Trace::default(),
            queue_high_water: 0,
            scheduler: crate::scheduler::SchedulerStats::default(),
            observability: None,
        }
    }

    fn window(node: u32, start_ms: u64, end_ms: u64) -> OutageWindow {
        OutageWindow {
            node,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
        }
    }

    #[test]
    fn termination_suspends_debt_across_down_windows() {
        // Node 2 misses its second decision because a scheduled down-window
        // straddles the moment the decision was due (slot 1 completed around
        // t=2ms on the other nodes; node 2 is offline over [1ms, 5s)).
        // Global completions stall at 1/2 and the run times out.
        let result = timed_out_result(&[2, 2, 1], 1, 900_000);
        let mut owed = OracleInput::from_result(&result, None, lenient());
        owed.expect.must_terminate = true;
        owed.expect.target_decisions = 2;

        // Churn-blind reading: a false liveness violation.
        let v = TerminationOracle.check(&owed).unwrap_err();
        assert!(v.detail.contains("timed out"), "{}", v.detail);

        // The straddling window excuses exactly that node's debt.
        owed.expect.outages = vec![window(2, 1, 5_000)];
        assert!(
            TerminationOracle.check(&owed).is_ok(),
            "churned node's shortfall must be excused"
        );

        // A window on some *other* node excuses nothing: node 2 still owes
        // its decisions and the violation names it.
        owed.expect.outages = vec![window(1, 1, 5_000)];
        let v = TerminationOracle.check(&owed).unwrap_err();
        assert!(v.detail.contains("n2"), "{}", v.detail);
        assert!(v.detail.contains("1/2"), "{}", v.detail);
        assert!(v.detail.contains("no scheduled downtime"), "{}", v.detail);

        // Excluded (crashed/corrupted) nodes stay exempt as before.
        owed.excluded.insert(NodeId::new(2));
        assert!(TerminationOracle.check(&owed).is_ok());
    }

    #[test]
    fn termination_trace_only_respects_down_windows() {
        let mut short = input(vec![
            decision(1, 0, 0, 7),
            decision(2, 0, 1, 7),
            decision(1, 1, 0, 7),
        ]);
        short.expect.must_terminate = true;
        short.expect.target_decisions = 2;
        let v = TerminationOracle.check(&short).unwrap_err();
        assert!(v.detail.contains("n1"), "{}", v.detail);

        short.expect.outages = vec![window(1, 1, 10)];
        assert!(TerminationOracle.check(&short).is_ok());

        // Outages never excuse a trace where nothing was decided at all.
        let mut nothing = input(Vec::new());
        nothing.expect.must_terminate = true;
        nothing.expect.outages = vec![window(0, 1, 10)];
        assert!(TerminationOracle.check(&nothing).is_err());
    }

    #[test]
    fn metrics_sanity_checks_decision_clock() {
        let ok = input(vec![decision(1, 0, 0, 7), decision(2, 1, 0, 7)]);
        assert!(MetricsSanityOracle.check(&ok).is_ok());
        let bad = input(vec![decision(5, 0, 0, 7), decision(2, 1, 0, 7)]);
        let v = MetricsSanityOracle.check(&bad).unwrap_err();
        assert!(v.detail.contains("backwards"), "{}", v.detail);
    }

    #[test]
    fn suite_collects_all_violations() {
        let suite = OracleSuite::standard();
        assert_eq!(
            suite.names(),
            vec![
                "agreement",
                "validity",
                "no-revocation",
                "termination",
                "metrics-sanity"
            ]
        );
        let mut bad = input(vec![decision(1, 0, 0, 7), decision(2, 1, 0, 8)]);
        bad.expect.must_terminate = true;
        bad.expect.target_decisions = 5;
        let violations = suite.check(&bad);
        let names: Vec<_> = violations.iter().map(|v| v.oracle).collect();
        assert!(names.contains(&"agreement"), "{names:?}");
        assert!(names.contains(&"termination"), "{names:?}");
    }

    #[test]
    fn observer_records_events_and_decisions() {
        let probe = OracleObserver::new();
        let mut handle: Box<dyn StepObserver> = Box::new(probe.clone());
        handle.on_event(SimTime::from_millis(5));
        handle.on_event(SimTime::from_millis(3)); // regression
        handle.on_decision(SimTime::from_millis(3), NodeId::new(0), 0, Value::ONE);
        let snap = probe.snapshot();
        assert_eq!(snap.events, 2);
        assert_eq!(snap.clock_regressions, 1);
        assert_eq!(snap.decisions.len(), 1);
    }
}
