//! Performance metrics: time usage and message usage (§II-C), decision
//! tracking and the safety checker.

use std::ops::{Index, IndexMut, Range};

use crate::ids::{NodeId, NodeSet};
use crate::obs::Observability;
use crate::scheduler::SchedulerStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;
use crate::value::Value;

/// Live decision/message bookkeeping inside the engine: the [`RunResult`]
/// under construction, its end-of-run fields still at their defaults.
///
/// The decisions themselves live in the run's trace, which records every
/// `Decided` event at every [`TraceLevel`](crate::trace::TraceLevel); the
/// collector keeps only how many each node decided and each slot's agreed
/// value, and [`into_result`](Self::into_result) regroups the trace into
/// [`RunResult::decided`].
#[derive(Debug)]
pub(crate) struct MetricsCollector {
    result: RunResult,
    /// `counts[i]` is how many slots node `i` has decided.
    counts: Vec<u64>,
    /// `agreed[s]` is the value slot `s` is agreed on; one entry per slot
    /// any node has decided. Invariant, while no violation is latched: every
    /// live (non-excluded) node that decided slot `s` decided `agreed[s]`.
    /// It lets [`record_decision`](Self::record_decision) check safety with
    /// one comparison, and it survives exclusions because the engine's
    /// excluded set only ever grows: a node that leaves the live set can
    /// only drop out of the quantifier, never join it.
    agreed: Vec<Value>,
}

impl MetricsCollector {
    /// Pre-sizes the completion log and the agreed values for `expected`
    /// slots, so runs with a known `target_decisions` never grow them
    /// mid-simulation. The expectation is a capacity hint only — runs may
    /// decide more or fewer slots.
    pub(crate) fn with_expected_decisions(n: usize, expected: u64) -> Self {
        // Decision targets are small (tens); cap the hint so a pathological
        // config cannot pre-reserve unbounded memory.
        let cap = expected.min(1024) as usize;
        let result = RunResult {
            end_time: SimTime::ZERO,
            timed_out: false,
            completions: Vec::with_capacity(cap),
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
            decided: Decisions::default(),
            trace: Trace::default(),
            queue_high_water: 0,
            scheduler: SchedulerStats::default(),
            observability: None,
        };
        MetricsCollector {
            result,
            counts: vec![0; n],
            agreed: Vec::with_capacity(cap),
        }
    }
    pub(crate) fn count_honest_message(&mut self, src: NodeId) {
        self.result.honest_messages += 1;
        self.result.sent_per_node[src.index()] += 1;
    }

    pub(crate) fn count_delivery(&mut self, dst: NodeId) {
        self.result.delivered_per_node[dst.index()] += 1;
    }

    pub(crate) fn count_adversary_message(&mut self) {
        self.result.adversary_messages += 1;
    }

    pub(crate) fn count_dropped_message(&mut self) {
        self.result.dropped_messages += 1;
    }

    pub(crate) fn count_event(&mut self) {
        self.result.events_processed += 1;
    }

    /// Counts a pending timer that was cancelled (taken at cancel time, not
    /// when the queue discards the entry).
    pub(crate) fn count_cancelled_timer(&mut self) {
        self.result.skipped_cancelled_timers += 1;
    }

    /// Counts an event popped but not dispatched because its destination
    /// node is crashed or corrupted.
    pub(crate) fn count_skipped_excluded(&mut self) {
        self.result.skipped_excluded_nodes += 1;
    }

    pub(crate) fn count_broadcast(&mut self) {
        self.result.broadcasts += 1;
    }

    /// Counts `node`'s decision for its next slot and cross-checks it against
    /// every other live node's decision for that slot, latching the first
    /// violation; returns the slot index it filled. `trace` holds every
    /// decision made before this one; the caller records this one after.
    ///
    /// The check is one comparison with the slot's agreed value (see
    /// [`agreed`](Self::agreed)). Only a value that differs from it runs the
    /// scan over the trace, and a scan that finds no live dissenter — every
    /// node that decided otherwise is excluded by now — makes `value` the
    /// slot's agreed value.
    pub(crate) fn record_decision(
        &mut self,
        node: NodeId,
        value: Value,
        excluded: &NodeSet,
        trace: &Trace,
    ) -> u64 {
        let count = &mut self.counts[node.index()];
        let slot = *count;
        *count += 1;
        if self.result.safety_violation.is_none() {
            let at = slot as usize;
            debug_assert!(at <= self.agreed.len(), "a slot was skipped");
            match self.agreed.get(at) {
                None => self.agreed.push(value),
                Some(&agreed) if agreed == value => {}
                Some(_) => match find_conflict(trace, node, slot, value, excluded) {
                    None => self.agreed[at] = value,
                    conflict => self.result.safety_violation = conflict,
                },
            }
        }
        slot
    }

    /// Re-derives completion times given the current live-honest set; returns
    /// the number of fully completed slots. Called after every decision and
    /// after crash/corruption changes.
    pub(crate) fn update_completions(&mut self, now: SimTime, excluded: &NodeSet) -> u64 {
        loop {
            let k = self.result.completions.len();
            let mut all = true;
            let mut any_live = false;
            for (idx, &count) in self.counts.iter().enumerate() {
                if excluded.contains(NodeId::new(idx as u32)) {
                    continue;
                }
                any_live = true;
                if count <= k as u64 {
                    all = false;
                    break;
                }
            }
            if all && any_live {
                self.result.completions.push(now);
            } else {
                return self.completed();
            }
        }
    }

    /// Number of slots every live honest node has decided.
    pub(crate) fn completed(&self) -> u64 {
        self.result.completions.len() as u64
    }

    /// Completes the result; `trace` is the run's, which holds every
    /// decision the collector counted, and is regrouped by node into
    /// [`RunResult::decided`] here.
    pub(crate) fn into_result(
        self,
        end_time: SimTime,
        timed_out: bool,
        trace: Trace,
        queue_high_water: usize,
        scheduler: SchedulerStats,
        observability: Option<Observability>,
    ) -> RunResult {
        RunResult {
            end_time,
            timed_out,
            decided: Decisions::regroup(&trace, &self.counts),
            trace,
            queue_high_water,
            scheduler,
            observability,
            ..self.result
        }
    }
}

/// Describes the lowest-index live node other than `node` whose decision
/// for `slot` in `trace` is not `value`.
fn find_conflict(
    trace: &Trace,
    node: NodeId,
    slot: u64,
    value: Value,
    excluded: &NodeSet,
) -> Option<String> {
    trace
        .decisions()
        .filter(|&(_, other, s, v)| {
            s == slot && v != value && other != node && !excluded.contains(other)
        })
        .min_by_key(|&(_, other, _, _)| other)
        .map(|(_, other, _, other_value)| {
            format!("slot {slot}: {node} decided {value} but {other} decided {other_value}")
        })
}

/// Every node's decided `(time, value)` sequence: `decided[i]` is node
/// `i`'s, slot by slot, and is empty for a node that decided nothing.
///
/// The sequences sit back to back in one allocation, beside each node's end
/// offset, filled once at the end of a run from its trace (DESIGN.md §5,
/// "Decisions & safety"). Indexing, [`get`], [`iter`] and
/// `for seq in &decided` hand out slices.
///
/// [`get`]: Decisions::get
/// [`iter`]: Decisions::iter
#[derive(Clone, Default, PartialEq)]
pub struct Decisions {
    /// Node `i`'s sequence ends at `entries[ends[i]]` and starts where node
    /// `i − 1`'s ends (node 0's at 0).
    ends: Vec<usize>,
    entries: Vec<(SimTime, Value)>,
}

impl Decisions {
    /// Regroups `trace`'s `Decided` records by node. `counts[i]` is how many
    /// slots node `i` decided; its decision for slot `s` goes to place `s`.
    pub(crate) fn regroup(trace: &Trace, counts: &[u64]) -> Decisions {
        let mut ends = Vec::with_capacity(counts.len());
        let mut total = 0;
        for &count in counts {
            total += count as usize;
            ends.push(total);
        }
        let mut decided = Decisions {
            ends,
            entries: vec![(SimTime::ZERO, Value::ZERO); total],
        };
        debug_assert_eq!(
            trace.decisions().count(),
            total,
            "trace and counts disagree"
        );
        for (time, node, slot, value) in trace.decisions() {
            decided[node.index()][slot as usize] = (time, value);
        }
        decided
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Node `node`'s decisions, or `None` when there is no such node.
    pub fn get(&self, node: usize) -> Option<&[(SimTime, Value)]> {
        (node < self.len()).then(|| &self[node])
    }

    /// Every node's decisions, in node order.
    pub fn iter(&self) -> PerNode<'_> {
        PerNode {
            entries: &self.entries,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    fn range(&self, node: usize) -> Range<usize> {
        let start = node.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        start..self.ends[node]
    }
}

impl Index<usize> for Decisions {
    type Output = [(SimTime, Value)];

    fn index(&self, node: usize) -> &Self::Output {
        &self.entries[self.range(node)]
    }
}

impl IndexMut<usize> for Decisions {
    fn index_mut(&mut self, node: usize) -> &mut Self::Output {
        let range = self.range(node);
        &mut self.entries[range]
    }
}

impl<'a> IntoIterator for &'a Decisions {
    type Item = &'a [(SimTime, Value)];
    type IntoIter = PerNode<'a>;

    fn into_iter(self) -> PerNode<'a> {
        self.iter()
    }
}

impl core::fmt::Debug for Decisions {
    /// As a list of per-node lists, the way `Vec<Vec<_>>` prints.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over each node's decisions, from [`Decisions::iter`].
#[derive(Debug, Clone)]
pub struct PerNode<'a> {
    entries: &'a [(SimTime, Value)],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for PerNode<'a> {
    type Item = &'a [(SimTime, Value)];

    fn next(&mut self) -> Option<Self::Item> {
        let &end = self.ends.next()?;
        let seq = &self.entries[self.start..end];
        self.start = end;
        Some(seq)
    }
}

/// The outcome of one simulation run.
///
/// # Message accounting
///
/// All message counters follow the paper's convention of counting **wire
/// messages only**: a message a node addresses to itself (`send_self`, the
/// self-copy of `broadcast_all`, or a literal send to its own id) is excluded
/// from *both* [`honest_messages`](RunResult::honest_messages) /
/// [`sent_per_node`](RunResult::sent_per_node) *and*
/// [`delivered_per_node`](RunResult::delivered_per_node), keeping the two
/// sides symmetric. Adversary-injected messages are always counted (in
/// [`adversary_messages`](RunResult::adversary_messages)), even when forged
/// to look self-addressed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Simulation time at which the run stopped.
    pub end_time: SimTime,
    /// `true` if the run hit the configured time cap before reaching the
    /// target number of decisions — a liveness failure under the tested
    /// conditions.
    pub timed_out: bool,
    /// Completion time of each consensus slot: `completions[k]` is when every
    /// live honest node had decided slot `k`.
    pub completions: Vec<SimTime>,
    /// Messages transmitted by honest nodes (message usage, §II-C).
    pub honest_messages: u64,
    /// Messages injected by the adversary.
    pub adversary_messages: u64,
    /// Messages dropped by the adversary.
    pub dropped_messages: u64,
    /// Number of events actually dispatched to a node or the engine (simulator
    /// work, not a protocol metric). Suppressed events go to the per-cause
    /// counters [`skipped_cancelled_timers`](RunResult::skipped_cancelled_timers)
    /// and [`skipped_excluded_nodes`](RunResult::skipped_excluded_nodes)
    /// instead, so events/sec throughput figures reflect dispatched work only.
    pub events_processed: u64,
    /// Timers cancelled while still pending. Counted at cancel time — the
    /// scheduler then suppresses the entry, so the timer never dispatches.
    /// When the queue discarded the entry shows up in
    /// [`scheduler`](RunResult::scheduler).
    pub skipped_cancelled_timers: u64,
    /// Events popped from the queue but *not* dispatched because they were
    /// addressed to a crashed/corrupted (excluded) node.
    pub skipped_excluded_nodes: u64,
    /// Number of `broadcast`/`broadcast_all` actions applied; with the shared
    /// payload fan-out this is also the number of payload allocations the
    /// broadcast hot path performs.
    pub broadcasts: u64,
    /// Messages sent per node — a proxy for per-node signing work, used by
    /// computation-cost estimation (the paper's §III-A3 suggestion).
    pub sent_per_node: Vec<u64>,
    /// Messages delivered per node — a proxy for verification work.
    pub delivered_per_node: Vec<u64>,
    /// `Some(description)` if honest nodes decided conflicting values.
    pub safety_violation: Option<String>,
    /// Per-node decided `(time, value)` sequences, regrouped from the
    /// trace once the run is over.
    pub decided: Decisions,
    /// Recorded trace: decisions, crashes and corruptions; views and
    /// protocol reports, then messages too, as
    /// [`RunConfig::trace`](crate::config::RunConfig::trace) asks.
    pub trace: Trace,
    /// Maximum number of *live* events in the queue at once (memory proxy for
    /// Fig. 2): the logical depth, one per pending event. The physical peak
    /// — resident entries including stale keys — is in
    /// [`scheduler`](RunResult::scheduler).
    pub queue_high_water: usize,
    /// Diagnostics from the event queue: what it cost physically, never a
    /// simulated quantity.
    pub scheduler: SchedulerStats,
    /// Run-level observability snapshot (histograms, flow matrix, view
    /// timings, recent events); `None` unless the run was built with
    /// [`SimulationBuilder::observability`](crate::engine::SimulationBuilder::observability).
    /// Derives exclusively from simulated quantities, so it is byte-identical
    /// across sweep thread counts.
    pub observability: Option<Observability>,
}

impl RunResult {
    /// Number of fully completed consensus slots.
    pub fn decisions_completed(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Time usage until the first consensus completed (the paper's latency
    /// metric for non-pipelined protocols). `None` if no consensus completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completions.first().map(|&t| t - SimTime::ZERO)
    }

    /// Mean latency per decision over the first `k` decisions (the paper's
    /// metric for pipelined protocols, with `k = 10`). `None` if fewer than
    /// `k` decisions completed.
    pub fn avg_latency_per_decision(&self, k: usize) -> Option<SimDuration> {
        if k == 0 || self.completions.len() < k {
            return None;
        }
        let total = self.completions[k - 1] - SimTime::ZERO;
        // Rounding contract: the mean is computed in f64 and rounded to the
        // nearest microsecond (ties away from zero), so the returned duration
        // is within 0.5 µs of the exact mean.
        let mean = total.as_micros() as f64 / k as f64;
        Some(SimDuration::from_micros(mean.round() as u64))
    }

    /// A figure cell's latency sample (s) at the run's decision target `k`:
    /// [`avg_latency_per_decision`](Self::avg_latency_per_decision)`(k)`, or,
    /// short of `k` decisions, `end_time / k` censored: a lower bound.
    pub fn latency_sample(&self, k: u64) -> (f64, bool) {
        match self.avg_latency_per_decision(k as usize) {
            Some(mean) => (mean.as_secs_f64(), false),
            None => (self.end_time.as_secs_f64() / k as f64, true),
        }
    }

    /// Honest messages per completed decision; all of them if nothing
    /// completed.
    pub fn messages_per_decision(&self) -> f64 {
        self.honest_messages as f64 / self.decisions_completed().max(1) as f64
    }

    /// Convenience: `true` when the run completed its target without safety
    /// violations or timeout.
    pub fn is_clean(&self) -> bool {
        !self.timed_out && self.safety_violation.is_none()
    }
}

/// One figure cell: the aggregate of repeated runs' `(value, censored)`
/// samples, a censored value being the lower bound of a run the time cap
/// cut short ([`RunResult::latency_sample`]).
///
/// Mean, sd, min and max read every value in sample order. The quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (the exclusive
/// method) with every censored sample ranked above every complete one: a
/// complete run's value is at most cap/k, a censored run's at least cap/k.
/// A quartile whose interpolation gives weight to a censored sample is
/// `None`, since only its lower bound is known.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cell {
    /// Number of samples.
    pub count: usize,
    /// Number of censored samples.
    pub capped: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample (n−1) standard deviation; 0 when `count < 2`.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Lower quartile; `None` when it reads a censored sample.
    pub q1: Option<f64>,
    /// Median; `None` when it reads a censored sample.
    pub median: Option<f64>,
    /// Upper quartile; `None` when it reads a censored sample.
    pub q3: Option<f64>,
}

impl Cell {
    /// Aggregates the samples; the default when there are none.
    pub fn of(samples: impl IntoIterator<Item = (f64, bool)>) -> Cell {
        let samples: Vec<(f64, bool)> = samples.into_iter().collect();
        let count = samples.len();
        if count == 0 {
            return Cell::default();
        }
        let values = || samples.iter().map(|s| s.0);
        let mean = values().sum::<f64>() / count as f64;
        let squares = values().map(|x| (x - mean).powi(2)).sum::<f64>();
        let mut ranked = samples.clone();
        ranked.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)));
        let exact = |r: usize| (!ranked[r].1).then_some(ranked[r].0);
        let quartile = |i: usize| {
            if count == 1 {
                return exact(0);
            }
            let j = (i * (count + 1) / 4).clamp(1, count - 1);
            let delta = (i * (count + 1)) as f64 - (j * 4) as f64;
            let upper = if delta == 0.0 { 0.0 } else { exact(j)? };
            Some((exact(j - 1)? * (4.0 - delta) + upper * delta) / 4.0)
        };
        Cell {
            count,
            capped: ranked.iter().filter(|s| s.1).count(),
            mean,
            std_dev: (squares / (count - 1).max(1) as f64).sqrt(),
            min: values().fold(f64::INFINITY, f64::min),
            max: values().fold(f64::NEG_INFINITY, f64::max),
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    /// Unit tests build results by hand, one node's sequence at a time.
    impl FromIterator<Vec<(SimTime, Value)>> for Decisions {
        fn from_iter<I: IntoIterator<Item = Vec<(SimTime, Value)>>>(nodes: I) -> Self {
            let mut decided = Decisions::default();
            for seq in nodes {
                decided.entries.extend(seq);
                decided.ends.push(decided.entries.len());
            }
            decided
        }
    }

    /// A collector with the trace fed alongside, as the spine feeds them:
    /// the decision is counted and checked first, then recorded, then the
    /// completions are brought up to date.
    struct Fed {
        m: MetricsCollector,
        trace: Trace,
    }

    impl Fed {
        fn new(n: usize) -> Self {
            Fed {
                m: MetricsCollector::with_expected_decisions(n, 0),
                trace: Trace::default(),
            }
        }

        /// Returns the slots completed so far.
        fn decide(&mut self, node: u32, at: SimTime, value: Value, excluded: &NodeSet) -> u64 {
            let node = NodeId::new(node);
            let slot = self.m.record_decision(node, value, excluded, &self.trace);
            self.trace
                .record(at, node, &TraceKind::Decided { slot, value });
            self.m.update_completions(at, excluded)
        }

        fn decide_ms(&mut self, node: u32, at_ms: u64, value: Value, excluded: &NodeSet) -> u64 {
            self.decide(node, SimTime::from_millis(at_ms), value, excluded)
        }

        fn violation(&self) -> Option<&str> {
            self.m.result.safety_violation.as_deref()
        }

        fn finish(self, end_time: SimTime) -> RunResult {
            self.m.into_result(
                end_time,
                false,
                self.trace,
                0,
                SchedulerStats::default(),
                None,
            )
        }
    }

    /// The trace's decisions regrouped by node, in trace order, which is
    /// what [`RunResult::decided`] must hold.
    fn regrouped(trace: &Trace, n: usize) -> Vec<Vec<(SimTime, Value)>> {
        let mut per_node = vec![Vec::new(); n];
        for (time, node, slot, value) in trace.decisions() {
            assert_eq!(slot as usize, per_node[node.index()].len());
            per_node[node.index()].push((time, value));
        }
        per_node
    }

    #[test]
    fn completions_require_all_live_honest_nodes() {
        let mut f = Fed::new(3);
        let excluded = NodeSet::new();
        assert_eq!(f.decide_ms(0, 10, Value::ONE, &excluded), 0);
        assert_eq!(f.decide_ms(1, 12, Value::ONE, &excluded), 0);
        assert_eq!(f.decide_ms(2, 15, Value::ONE, &excluded), 1);
    }

    #[test]
    fn excluded_nodes_do_not_block_completion() {
        let mut f = Fed::new(3);
        let excluded: NodeSet = [NodeId::new(2)].into_iter().collect();
        f.decide_ms(0, 10, Value::ONE, &excluded);
        assert_eq!(f.decide_ms(1, 11, Value::ONE, &excluded), 1);
        // The excluded node decided nothing: its slice is empty.
        let decided = f.finish(SimTime::from_millis(11)).decided;
        assert_eq!(decided.len(), 3);
        assert!(decided[2].is_empty());
        assert_eq!(
            decided.get(1),
            Some(&[(SimTime::from_millis(11), Value::ONE)][..])
        );
        assert_eq!(decided.get(3), None);
    }

    #[test]
    fn safety_checker_flags_conflicts() {
        let mut f = Fed::new(2);
        let excluded = NodeSet::new();
        f.decide_ms(0, 1, Value::ZERO, &excluded);
        assert!(f.violation().is_none());
        f.decide_ms(1, 2, Value::ONE, &excluded);
        assert!(f.violation().is_some());
    }

    #[test]
    fn safety_checker_ignores_excluded_nodes() {
        let mut f = Fed::new(2);
        let excluded: NodeSet = [NodeId::new(0)].into_iter().collect();
        f.decide_ms(0, 1, Value::ZERO, &excluded);
        f.decide_ms(1, 2, Value::ONE, &excluded);
        assert!(f.violation().is_none());
    }

    /// The safety check as it was before the agreed-value fast path — every
    /// node's own decision log scanned after every decision — kept as the
    /// reference model.
    struct FullScan {
        decided: Vec<Vec<Value>>,
        violation: Option<String>,
    }

    impl FullScan {
        fn record_decision(&mut self, node: NodeId, value: Value, excluded: &NodeSet) {
            self.decided[node.index()].push(value);
            if self.violation.is_some() {
                return;
            }
            let slot = self.decided[node.index()].len() - 1;
            for (other_idx, other_seq) in self.decided.iter().enumerate() {
                let other = NodeId::new(other_idx as u32);
                if other == node || excluded.contains(other) {
                    continue;
                }
                if let Some(&other_value) = other_seq.get(slot) {
                    if other_value != value {
                        self.violation = Some(format!(
                            "slot {slot}: {node} decided {value} but {other} decided {other_value}"
                        ));
                        return;
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Decide(u32, u64),
        Exclude(u32),
    }

    /// Feeds `ops` to the collector (with its trace) and to [`FullScan`],
    /// asserting the same `safety_violation` after every step, then that the
    /// materialised decisions are the trace's regrouped by node and the
    /// reference's values; returns the final violation.
    fn run_both(n: usize, ops: &[Op]) -> Option<String> {
        let mut fast = Fed::new(n);
        let mut slow = FullScan {
            decided: vec![Vec::new(); n],
            violation: None,
        };
        let mut excluded = NodeSet::new();
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Decide(node, value) => {
                    let value = Value::new(value);
                    let at = SimTime::from_micros(step as u64);
                    fast.decide(node, at, value, &excluded);
                    slow.record_decision(NodeId::new(node), value, &excluded);
                }
                Op::Exclude(node) => {
                    excluded.insert(NodeId::new(node));
                }
            }
            assert_eq!(
                fast.violation(),
                slow.violation.as_deref(),
                "n={n} step {step} of {ops:?}"
            );
        }
        let expected = regrouped(&fast.trace, n);
        let decided = fast.finish(SimTime::ZERO).decided;
        let materialised: Vec<Vec<(SimTime, Value)>> = decided.iter().map(<[_]>::to_vec).collect();
        assert_eq!(materialised, expected, "n={n}: {ops:?}");
        let values: Vec<Vec<Value>> = decided
            .iter()
            .map(|seq| seq.iter().map(|&(_, v)| v).collect())
            .collect();
        assert_eq!(values, slow.decided, "n={n}: {ops:?}");
        slow.violation
    }

    #[test]
    fn agreed_value_check_matches_the_full_scan_on_scripted_cases() {
        use Op::{Decide, Exclude};
        // A live dissenter: the lowest-index one is named.
        assert_eq!(
            run_both(4, &[Decide(2, 7), Decide(1, 7), Decide(3, 9)]).as_deref(),
            Some("slot 0: n3 decided v0x9 but n1 decided v0x7")
        );
        // The lowest-index live dissenter decided after a higher-index one:
        // the scan names n1, not n3, which comes first in the trace.
        assert_eq!(
            run_both(
                4,
                &[
                    Decide(0, 1),
                    Exclude(0),
                    Decide(3, 2),
                    Decide(1, 2),
                    Decide(2, 1)
                ]
            )
            .as_deref(),
            Some("slot 0: n2 decided v0x1 but n1 decided v0x2")
        );
        // The first decider is excluded before a second value appears: the
        // slot's agreed value moves to it, and a later dissenter is judged
        // against the new value.
        assert_eq!(
            run_both(4, &[Decide(0, 1), Exclude(0), Decide(1, 2), Decide(2, 2)]),
            None
        );
        assert_eq!(
            run_both(4, &[Decide(0, 1), Exclude(0), Decide(1, 2), Decide(2, 1)]).as_deref(),
            Some("slot 0: n2 decided v0x1 but n1 decided v0x2")
        );
        // Excluded before deciding: its decision still has to match the
        // live nodes', exactly as the scan always judged it.
        assert_eq!(
            run_both(4, &[Exclude(3), Decide(3, 5), Decide(0, 6), Decide(1, 6)]),
            None
        );
        assert_eq!(
            run_both(4, &[Decide(0, 6), Exclude(3), Decide(3, 5)]).as_deref(),
            Some("slot 0: n3 decided v0x5 but n0 decided v0x6")
        );
        // A latched violation is never overwritten, whatever follows.
        assert_eq!(
            run_both(
                4,
                &[
                    Decide(0, 1),
                    Decide(1, 2),
                    Exclude(0),
                    Decide(2, 3),
                    Decide(0, 4),
                    Decide(1, 5),
                ]
            )
            .as_deref(),
            Some("slot 0: n1 decided v0x2 but n0 decided v0x1")
        );
    }

    #[test]
    fn agreed_value_check_matches_the_full_scan_on_random_streams() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for n in [4usize, 7, 64] {
            let (mut clean, mut violated) = (0, 0);
            for seed in 0..300u64 {
                let mut rng = SmallRng::seed_from_u64(seed ^ (n as u64) << 32);
                // Per-stream rates, so some streams are all-honest, some
                // exclude heavily and some conflict on most slots.
                let conflict_pct = [0u32, 1, 5, 30][rng.gen_range(0..4usize)];
                let exclude_pct = [0u32, 3, 15][rng.gen_range(0..3usize)];
                let mut next_slot = vec![0u64; n];
                let ops: Vec<Op> = (0..20 * n)
                    .map(|_| {
                        let node = rng.gen_range(0..n);
                        if rng.gen_range(0..100u32) < exclude_pct {
                            return Op::Exclude(node as u32);
                        }
                        let slot = next_slot[node];
                        next_slot[node] += 1;
                        if rng.gen_range(0..100u32) < conflict_pct {
                            Op::Decide(node as u32, rng.gen_range(0..3u64))
                        } else {
                            Op::Decide(node as u32, 100 + slot)
                        }
                    })
                    .collect();
                match run_both(n, &ops) {
                    None => clean += 1,
                    Some(_) => violated += 1,
                }
            }
            assert!(clean >= 30 && violated >= 30, "n={n}: {clean} / {violated}");
        }
    }

    #[test]
    fn decisions_index_mutate_and_print_like_nested_vecs() {
        let seqs = vec![
            vec![(SimTime::from_millis(1), Value::ONE)],
            vec![],
            vec![
                (SimTime::from_millis(2), Value::ONE),
                (SimTime::from_millis(3), Value::new(9)),
            ],
        ];
        let mut f = Fed::new(3);
        let excluded = NodeSet::new();
        for (node, seq) in seqs.iter().enumerate() {
            for &(at, value) in seq {
                f.decide(node as u32, at, value, &excluded);
            }
        }
        let mut decided = f.finish(SimTime::ZERO).decided;
        assert_eq!(format!("{decided:?}"), format!("{seqs:?}"));
        assert_eq!((&decided).into_iter().count(), 3);
        decided[2][1].1 = Value::new(0xBAD);
        assert_eq!(decided[2][1].1, Value::new(0xBAD));
        assert_eq!(decided[0], seqs[0][..], "a neighbour's slice is untouched");
        assert_eq!(Decisions::default().len(), 0);
        assert!(Decisions::default().is_empty());
    }

    #[test]
    fn latency_metrics() {
        let mut f = Fed::new(1);
        let excluded = NodeSet::new();
        for k in 0..10u64 {
            f.decide_ms(0, (k + 1) * 100, Value::ONE, &excluded);
        }
        let r = f.finish(SimTime::from_millis(1000));
        assert_eq!(r.decisions_completed(), 10);
        assert_eq!(r.latency().unwrap().as_millis_f64(), 100.0);
        assert_eq!(
            r.avg_latency_per_decision(10).unwrap().as_millis_f64(),
            100.0
        );
        assert!(r.avg_latency_per_decision(11).is_none());
        assert!(r.is_clean());
    }

    #[test]
    fn avg_latency_rounds_instead_of_truncating() {
        let mut f = Fed::new(1);
        let excluded = NodeSet::new();
        // Three completions; the last at 1000 µs. 1000 / 3 = 333.33…, which
        // integer division used to truncate to 333 µs; rounding keeps 333 but
        // a total of 1001 µs must give 334, not 333.
        for at in [1u64, 2, 1001] {
            f.decide(0, SimTime::from_micros(at), Value::ONE, &excluded);
        }
        let r = f.finish(SimTime::ZERO + SimDuration::from_micros(1001));
        assert_eq!(r.avg_latency_per_decision(3).unwrap().as_micros(), 334);
    }

    /// Complete samples.
    fn complete(values: &[f64]) -> Cell {
        Cell::of(values.iter().map(|&x| (x, false)))
    }

    #[test]
    fn cell_statistics() {
        let s = complete(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.count, s.capped), (4, 0));
        assert_eq!(s.mean, 2.5);
        // Sample (n−1) std-dev: sqrt(5/3) ≈ 1.2910.
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 4.0));
        assert_eq!(Cell::of([]), Cell::default());
        assert_eq!(Cell::default().median, None);
    }

    #[test]
    fn cell_quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let s = complete(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (Some(2.5), Some(5.0), Some(7.5)));
        assert_eq!((s.count, s.min, s.max), (9, 1.0, 9.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = complete(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (Some(1.25), Some(3.0), Some(7.0)));
    }

    #[test]
    fn cell_of_single_sample_has_zero_std_dev() {
        let s = complete(&[42.0]);
        assert_eq!(
            (s.count, s.mean, s.std_dev, s.min, s.max),
            (1, 42.0, 0.0, 42.0, 42.0)
        );
        assert_eq!((s.q1, s.median, s.q3), (Some(42.0), Some(42.0), Some(42.0)));
        let s = Cell::of([(42.0, true)]);
        assert_eq!((s.capped, s.mean, s.median), (1, 42.0, None));
    }

    #[test]
    fn censored_samples_rank_last_and_hide_the_quartiles_they_touch() {
        // A censored 0.5 ranks above every complete sample, whatever its value:
        // ranked 1..=8 then the censored one, so q3 (weights on the 7th and
        // 8th) is exact and the median is 5.
        let mut samples: Vec<(f64, bool)> = (1..=8).map(|x| (f64::from(x), false)).collect();
        samples.insert(3, (0.5, true));
        let s = Cell::of(samples.iter().copied());
        assert_eq!((s.count, s.capped), (9, 1));
        assert_eq!((s.q1, s.median, s.q3), (Some(2.5), Some(5.0), Some(7.5)));
        // Mean, sd, min and max read the censored value in sample order.
        let all = complete(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
        assert_eq!(
            (s.mean, s.std_dev, s.min, s.max),
            (all.mean, all.std_dev, 0.5, 8.0)
        );
        // Four samples: q3 weights the 3rd and 4th, so a censored 4th hides it.
        let s = Cell::of([(1.0, false), (2.0, false), (9.0, true), (4.0, false)]);
        assert_eq!((s.q1, s.median, s.q3), (Some(1.25), Some(3.0), None));
        // All censored: no quartile, but the bounds still average.
        let s = Cell::of([(3.0, true), (1.0, true), (2.0, true)]);
        assert_eq!(
            (s.count, s.capped, s.mean, s.min, s.max),
            (3, 3, 2.0, 1.0, 3.0)
        );
        assert_eq!((s.q1, s.median, s.q3), (None, None, None));
    }
}
