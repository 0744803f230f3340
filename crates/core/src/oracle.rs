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
//! * **no-revocation** — per-node decision logs are append-only: each node
//!   decides slots 0, 1, 2, … exactly once and in order;
//! * **termination** — runs expected to terminate (benign conditions, or a
//!   protocol whose model tolerates the scenario) did so by the deadline;
//! * **metrics sanity** — the engine's own accounting is consistent
//!   (deliveries never exceed transmissions, decision times never run
//!   backward).
//!
//! Oracles read an [`OracleInput`], built either from a finished
//! [`RunResult`] or from a bare [`Trace`] such as the committed golden
//! traces. Either way the trace is the only decision log they read: the
//! input borrows it and walks [`Trace::decisions`] in place. That the
//! scheduler never pops an event before the clock is the engine's own
//! assertion, not an oracle's.
//!
//! Each oracle is a plain function, `Err` carrying the violation's detail,
//! and the five sit in one table in the order listed above;
//! [`OracleSuite::check`] runs them in that order and names each violation
//! from the table.
//!
//! [`OracleObserver`] counts dispatched events for metrics sanity to compare
//! with [`RunResult::events_processed`]; no checked run installs it, and it
//! is kept for the benchmark's tracer.

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
    /// The oracle that fired: its name in the standard battery.
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
#[derive(Debug, Clone, Default)]
pub struct ObservedRun {
    /// Events the observer saw (must equal `RunResult::events_processed`).
    pub events: u64,
}

/// A [`StepObserver`] that counts dispatched events.
///
/// Cloning shares the underlying count, so keep one handle and give the
/// other to [`SimulationBuilder::observer`](crate::engine::SimulationBuilder::observer):
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
    fn on_event(&mut self, _now: SimTime) {
        self.shared.lock().expect("observer lock").events += 1;
    }
}

/// Everything an oracle may look at, assembled once per checked run.
#[derive(Debug)]
pub struct OracleInput<'a> {
    /// The finished run, when the check targets a live simulation. `None`
    /// for trace-only checks (e.g. committed golden traces).
    pub(crate) result: Option<&'a RunResult>,
    /// The run's trace, whose `Decided` records are the decisions checked.
    trace: &'a Trace,
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
        OracleInput {
            result: Some(result),
            observed,
            ..Self::from_trace(&result.trace, expect)
        }
    }

    /// Builds a trace-only input (golden traces, externally produced logs).
    pub fn from_trace(trace: &'a Trace, expect: Expectations) -> Self {
        OracleInput {
            result: None,
            trace,
            excluded: trace.excluded_nodes().collect(),
            observed: None,
            expect,
        }
    }

    /// Decisions by nodes that stayed correct for the whole run.
    fn correct_decisions(&self) -> impl Iterator<Item = (SimTime, NodeId, u64, Value)> + '_ {
        self.trace
            .decisions()
            .filter(|(_, node, _, _)| !self.excluded.contains(node))
    }
}

/// One oracle: `Err` carries the violation's detail, naming the offending
/// nodes, slots and values.
type Check = fn(&OracleInput<'_>) -> Result<(), String>;

/// The standard oracles by name, in severity order: the order
/// [`OracleSuite::check`] reports them in.
const ORACLES: [(&str, Check); 5] = [
    ("agreement", agreement),
    ("validity", validity),
    ("no-revocation", no_revocation),
    ("termination", termination),
    ("metrics-sanity", metrics_sanity),
];

/// Agreement: no two correct nodes decide different values for one slot.
fn agreement(input: &OracleInput<'_>) -> Result<(), String> {
    let mut first: HashMap<u64, (NodeId, Value)> = HashMap::new();
    for (_, node, slot, value) in input.correct_decisions() {
        match first.get(&slot) {
            None => {
                first.insert(slot, (node, value));
            }
            Some(&(other, other_value)) if other_value != value => {
                return Err(format!(
                    "slot {slot}: {node} decided {value} but {other} decided {other_value}"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Validity: decided values lie in the protocol's declared domain.
fn validity(input: &OracleInput<'_>) -> Result<(), String> {
    let domain = input.expect.value_domain;
    for (_, node, slot, value) in input.correct_decisions() {
        if !domain.contains(value) {
            return Err(format!(
                "{node} slot {slot}: decided {value}, outside the {domain:?} domain"
            ));
        }
    }
    Ok(())
}

/// No revocation: per-node decision logs are append-only — slots appear
/// exactly once and in order.
fn no_revocation(input: &OracleInput<'_>) -> Result<(), String> {
    // Slot sequences must be 0, 1, 2, … per node — no gap, dup or reorder.
    let mut next_slot: HashMap<NodeId, u64> = HashMap::new();
    for (_, node, slot, _) in input.trace.decisions() {
        let expected = next_slot.entry(node).or_insert(0);
        if slot != *expected {
            return Err(format!(
                "{node}: decided slot {slot} out of order (expected slot {expected})"
            ));
        }
        *expected += 1;
    }
    Ok(())
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
fn termination(input: &OracleInput<'_>) -> Result<(), String> {
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
                return Err(format!(
                    "benign run timed out at {} with {}/{target} decisions completed",
                    result.end_time,
                    result.decisions_completed()
                ));
            }
            return Err(format!(
                "run stopped with only {}/{target} decisions completed",
                result.decisions_completed()
            ));
        }
        // Churn-aware: the stall is excused iff every correct node that
        // fell short of the target has scheduled downtime to blame.
        for (index, seq) in result.decided.iter().enumerate() {
            let node = NodeId::new(index as u32);
            let count = seq.len() as u64;
            if count >= target || input.excluded.contains(&node) || churned.contains(&node.as_u32())
            {
                continue;
            }
            return Err(format!(
                "{node} decided only {count}/{target} slots with no scheduled \
                 downtime to excuse it"
            ));
        }
        return Ok(());
    }
    // Trace-only: every correct node must have decided `target` slots,
    // except nodes whose shortfall is covered by scheduled downtime.
    let mut per_node: HashMap<NodeId, u64> = HashMap::new();
    for (_, node, _, _) in input.correct_decisions() {
        *per_node.entry(node).or_insert(0) += 1;
    }
    if per_node.is_empty() {
        return Err("no correct node decided anything".into());
    }
    let mut short: Vec<(NodeId, u64)> = per_node
        .into_iter()
        .filter(|(node, count)| *count < target && !churned.contains(&node.as_u32()))
        .collect();
    short.sort_by_key(|&(node, _)| node.as_u32());
    if let Some(&(node, count)) = short.first() {
        return Err(format!("{node} decided only {count}/{target} slots"));
    }
    Ok(())
}

/// Metrics sanity: the engine's own accounting must be internally
/// consistent — deliveries never exceed transmissions, drops never exceed
/// honest sends, decision times never exceed the end time, and (when
/// observed) the event counts agree.
fn metrics_sanity(input: &OracleInput<'_>) -> Result<(), String> {
    // Trace times must be non-decreasing even without a RunResult.
    let mut prev = SimTime::ZERO;
    for (time, node, slot, _) in input.trace.decisions() {
        if time < prev {
            return Err(format!(
                "decision clock ran backwards at {node} slot {slot}: {time} < {prev}"
            ));
        }
        prev = time;
    }
    let Some(result) = input.result else {
        return Ok(());
    };
    let delivered: u64 = result.delivered_per_node.iter().sum();
    let sent = result.honest_messages + result.adversary_messages;
    if delivered > sent {
        return Err(format!(
            "delivered {delivered} messages but only {sent} were sent"
        ));
    }
    if result.dropped_messages > result.honest_messages {
        return Err(format!(
            "dropped {} messages out of {} honest transmissions",
            result.dropped_messages, result.honest_messages
        ));
    }
    for (time, node, slot, _) in input.trace.decisions() {
        if time > result.end_time {
            return Err(format!(
                "{node} slot {slot} decided at {time}, after the run ended at {}",
                result.end_time
            ));
        }
    }
    if let Some(obs) = &input.observed {
        if obs.events != result.events_processed {
            return Err(format!(
                "observer saw {} events but the engine reports {}",
                obs.events, result.events_processed
            ));
        }
    }
    Ok(())
}

/// The standard oracle battery: agreement, validity, no-revocation,
/// termination, metrics sanity, checked in that (severity) order.
#[derive(Debug)]
pub struct OracleSuite;

impl OracleSuite {
    /// All five standard oracles.
    pub fn standard() -> Self {
        OracleSuite
    }

    /// Runs every oracle; returns all violations (empty = clean run).
    pub fn check(&self, input: &OracleInput<'_>) -> Vec<OracleViolation> {
        ORACLES
            .iter()
            .filter_map(|&(oracle, check)| {
                let detail = check(input).err()?;
                Some(OracleViolation { oracle, detail })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

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

    /// A trace that records `decisions`, in order.
    fn trace(decisions: &[(SimTime, NodeId, u64, Value)]) -> Trace {
        let mut trace = Trace::default();
        for &(time, node, slot, value) in decisions {
            trace.record(time, node, &TraceKind::Decided { slot, value });
        }
        trace
    }

    /// `trace` with `node` corrupted, so the oracles exclude it.
    fn corrupting(mut trace: Trace, node: u32) -> Trace {
        trace.record(SimTime::ZERO, NodeId::new(node), &TraceKind::Corrupted);
        trace
    }

    fn input(trace: &Trace) -> OracleInput<'_> {
        OracleInput::from_trace(trace, lenient())
    }

    #[test]
    fn agreement_flags_conflicting_slots() {
        let ok = trace(&[decision(1, 0, 0, 7), decision(2, 1, 0, 7)]);
        assert!(agreement(&input(&ok)).is_ok());

        let bad = trace(&[decision(1, 0, 0, 7), decision(2, 1, 0, 8)]);
        let v = agreement(&input(&bad)).unwrap_err();
        assert!(v.contains("slot 0"), "{v}");
        assert!(v.contains("n1"), "{v}");
    }

    #[test]
    fn agreement_exempts_excluded_nodes() {
        let bad = corrupting(trace(&[decision(1, 0, 0, 7), decision(2, 1, 0, 8)]), 1);
        assert!(agreement(&input(&bad)).is_ok());
    }

    #[test]
    fn validity_enforces_domains() {
        let two = trace(&[decision(1, 0, 0, 2)]);
        let mut i = input(&two);
        assert!(validity(&i).is_ok());
        i.expect.value_domain = ValueDomain::Binary;
        assert!(validity(&i).is_err());
        let zero = trace(&[decision(1, 0, 0, 0)]);
        let mut i = input(&zero);
        i.expect.value_domain = ValueDomain::NonZero;
        let v = validity(&i).unwrap_err();
        assert!(v.contains("NonZero"), "{v}");
    }

    #[test]
    fn no_revocation_requires_ordered_unique_slots() {
        let ok = trace(&[
            decision(1, 0, 0, 7),
            decision(2, 0, 1, 8),
            decision(2, 1, 0, 7),
        ]);
        assert!(no_revocation(&input(&ok)).is_ok());

        let dup = trace(&[decision(1, 0, 0, 7), decision(2, 0, 0, 7)]);
        assert!(no_revocation(&input(&dup)).is_err());

        let gap = trace(&[decision(1, 0, 0, 7), decision(2, 0, 2, 8)]);
        let v = no_revocation(&input(&gap)).unwrap_err();
        assert!(v.contains("slot 2"), "{v}");
        assert!(v.contains("expected slot 1"), "{v}");
    }

    #[test]
    fn termination_only_fires_when_owed() {
        let empty = Trace::default();
        assert!(termination(&input(&empty)).is_ok(), "not owed: ok");

        let mut owed = input(&empty);
        owed.expect.must_terminate = true;
        assert!(termination(&owed).is_err());

        let one = trace(&[decision(1, 0, 0, 7)]);
        let mut partial = input(&one);
        partial.expect.must_terminate = true;
        partial.expect.target_decisions = 2;
        let v = termination(&partial).unwrap_err();
        assert!(v.contains("1/2"), "{v}");
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
            trace: Trace::default(),
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
        let v = termination(&owed).unwrap_err();
        assert!(v.contains("timed out"), "{v}");

        // The straddling window excuses exactly that node's debt.
        owed.expect.outages = vec![window(2, 1, 5_000)];
        assert!(
            termination(&owed).is_ok(),
            "churned node's shortfall must be excused"
        );

        // A window on some *other* node excuses nothing: node 2 still owes
        // its decisions and the violation names it.
        owed.expect.outages = vec![window(1, 1, 5_000)];
        let v = termination(&owed).unwrap_err();
        assert!(v.contains("n2"), "{v}");
        assert!(v.contains("1/2"), "{v}");
        assert!(v.contains("no scheduled downtime"), "{v}");

        // Excluded (crashed/corrupted) nodes stay exempt as before.
        let corrupted = RunResult {
            trace: corrupting(Trace::default(), 2),
            ..result.clone()
        };
        let exempt = OracleInput {
            expect: owed.expect.clone(),
            ..OracleInput::from_result(&corrupted, None, lenient())
        };
        assert!(termination(&exempt).is_ok());
    }

    #[test]
    fn termination_trace_only_respects_down_windows() {
        let decided = trace(&[
            decision(1, 0, 0, 7),
            decision(2, 0, 1, 7),
            decision(1, 1, 0, 7),
        ]);
        let mut short = input(&decided);
        short.expect.must_terminate = true;
        short.expect.target_decisions = 2;
        let v = termination(&short).unwrap_err();
        assert!(v.contains("n1"), "{v}");

        short.expect.outages = vec![window(1, 1, 10)];
        assert!(termination(&short).is_ok());

        // Outages never excuse a trace where nothing was decided at all.
        let empty = Trace::default();
        let mut nothing = input(&empty);
        nothing.expect.must_terminate = true;
        nothing.expect.outages = vec![window(0, 1, 10)];
        assert!(termination(&nothing).is_err());
    }

    #[test]
    fn metrics_sanity_checks_decision_clock() {
        let ok = trace(&[decision(1, 0, 0, 7), decision(2, 1, 0, 7)]);
        assert!(metrics_sanity(&input(&ok)).is_ok());
        let bad = trace(&[decision(5, 0, 0, 7), decision(2, 1, 0, 7)]);
        let v = metrics_sanity(&input(&bad)).unwrap_err();
        assert!(v.contains("backwards"), "{v}");
    }

    #[test]
    fn suite_collects_all_violations() {
        assert_eq!(
            ORACLES.map(|(name, _)| name),
            [
                "agreement",
                "validity",
                "no-revocation",
                "termination",
                "metrics-sanity"
            ]
        );
        let conflicting = trace(&[decision(1, 0, 0, 7), decision(2, 1, 0, 8)]);
        let mut bad = input(&conflicting);
        bad.expect.must_terminate = true;
        bad.expect.target_decisions = 5;
        let violations = OracleSuite::standard().check(&bad);
        let names: Vec<_> = violations.iter().map(|v| v.oracle).collect();
        assert!(names.contains(&"agreement"), "{names:?}");
        assert!(names.contains(&"termination"), "{names:?}");
    }

    #[test]
    fn observer_counts_events() {
        let probe = OracleObserver::new();
        let mut handle: Box<dyn StepObserver> = Box::new(probe.clone());
        handle.on_event(SimTime::from_millis(5));
        handle.on_event(SimTime::from_millis(3));
        handle.on_decision(SimTime::from_millis(3), NodeId::new(0), 0, Value::ONE);
        assert_eq!(probe.snapshot().events, 2);
    }
}
