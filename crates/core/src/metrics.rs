//! Performance metrics: time usage and message usage (§II-C), decision
//! tracking and the safety checker.

use crate::ids::{NodeId, NodeSet};
use crate::obs::Observability;
use crate::scheduler::SchedulerStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;
use crate::value::Value;

/// Live decision/message bookkeeping inside the engine: the [`RunResult`]
/// under construction, its end-of-run fields still at their defaults.
#[derive(Debug)]
pub(crate) struct MetricsCollector {
    result: RunResult,
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
    /// Pre-sizes the per-node decision sequences and the completion log for
    /// `expected` slots, so runs with a known `target_decisions` never grow
    /// them mid-simulation. The expectation is a capacity hint only — runs
    /// may decide more or fewer slots.
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
            decided: (0..n).map(|_| Vec::with_capacity(cap)).collect(),
            trace: Trace::default(),
            queue_high_water: 0,
            scheduler: SchedulerStats::default(),
            observability: None,
        };
        MetricsCollector {
            result,
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

    /// Records `node`'s decision for its next slot and cross-checks it against
    /// every other live node's decision for that slot, latching the first
    /// violation; returns the slot index it filled.
    ///
    /// The check is one comparison with the slot's agreed value (see
    /// [`agreed`](Self::agreed)). Only a value that differs from it runs the
    /// scan over all nodes, and a scan that finds no live dissenter — every
    /// node that decided otherwise is excluded by now — makes `value` the
    /// slot's agreed value.
    pub(crate) fn record_decision(
        &mut self,
        node: NodeId,
        time: SimTime,
        value: Value,
        excluded: &NodeSet,
    ) -> u64 {
        let seq = &mut self.result.decided[node.index()];
        seq.push((time, value));
        let slot = seq.len() - 1;
        if self.result.safety_violation.is_none() {
            debug_assert!(slot <= self.agreed.len(), "a slot was skipped");
            match self.agreed.get(slot) {
                None => self.agreed.push(value),
                Some(&agreed) if agreed == value => {}
                Some(_) => match self.find_conflict(node, slot, value, excluded) {
                    None => self.agreed[slot] = value,
                    conflict => self.result.safety_violation = conflict,
                },
            }
        }
        slot as u64
    }

    /// Scans every other live node's decision for `slot` and describes the
    /// first (lowest-index) one that is not `value`.
    fn find_conflict(
        &self,
        node: NodeId,
        slot: usize,
        value: Value,
        excluded: &NodeSet,
    ) -> Option<String> {
        for (other_idx, other_seq) in self.result.decided.iter().enumerate() {
            let other = NodeId::new(other_idx as u32);
            if other == node || excluded.contains(other) {
                continue;
            }
            if let Some(&(_, other_value)) = other_seq.get(slot) {
                if other_value != value {
                    return Some(format!(
                        "slot {slot}: {node} decided {value} but {other} decided {other_value}"
                    ));
                }
            }
        }
        None
    }

    /// Re-derives completion times given the current live-honest set; returns
    /// the number of fully completed slots. Called after every decision and
    /// after crash/corruption changes.
    pub(crate) fn update_completions(&mut self, now: SimTime, excluded: &NodeSet) -> u64 {
        loop {
            let k = self.result.completions.len();
            let mut all = true;
            let mut any_live = false;
            for (idx, seq) in self.result.decided.iter().enumerate() {
                if excluded.contains(NodeId::new(idx as u32)) {
                    continue;
                }
                any_live = true;
                if seq.len() <= k {
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
            trace,
            queue_high_water,
            scheduler,
            observability,
            ..self.result
        }
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
    /// Per-node decided `(time, value)` sequences.
    pub decided: Vec<Vec<(SimTime, Value)>>,
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

    /// Honest messages per completed decision. `None` if nothing completed.
    pub fn messages_per_decision(&self) -> Option<f64> {
        let k = self.decisions_completed();
        if k == 0 {
            None
        } else {
            Some(self.honest_messages as f64 / k as f64)
        }
    }

    /// Convenience: `true` when the run completed its target without safety
    /// violations or timeout.
    pub fn is_clean(&self) -> bool {
        !self.timed_out && self.safety_violation.is_none()
    }
}

/// Aggregate statistics over repeated runs (the paper reports mean and
/// standard deviation over 100 repetitions).
///
/// Std-dev convention: [`std_dev`](Summary::std_dev) is the **sample**
/// standard deviation (Bessel-corrected, n−1 divisor) — the conventional
/// estimator for "mean ± std over repetitions" reporting. A single sample
/// has a std-dev of 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples aggregated.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample (n−1) standard deviation; 0 when `count < 2`.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub(crate) max: f64,
}

impl Summary {
    /// Summarises a slice of samples. Returns the default (all zeros) for an
    /// empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count < 2 {
            0.0
        } else {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        };
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.std_dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decide(m: &mut MetricsCollector, node: u32, at_ms: u64, value: Value, excluded: &NodeSet) {
        m.record_decision(
            NodeId::new(node),
            SimTime::from_millis(at_ms),
            value,
            excluded,
        );
    }

    #[test]
    fn completions_require_all_live_honest_nodes() {
        let mut m = MetricsCollector::with_expected_decisions(3, 0);
        let excluded = NodeSet::new();
        decide(&mut m, 0, 10, Value::ONE, &excluded);
        assert_eq!(m.update_completions(SimTime::from_millis(10), &excluded), 0);
        decide(&mut m, 1, 12, Value::ONE, &excluded);
        assert_eq!(m.update_completions(SimTime::from_millis(12), &excluded), 0);
        decide(&mut m, 2, 15, Value::ONE, &excluded);
        assert_eq!(m.update_completions(SimTime::from_millis(15), &excluded), 1);
    }

    #[test]
    fn excluded_nodes_do_not_block_completion() {
        let mut m = MetricsCollector::with_expected_decisions(3, 0);
        let excluded: NodeSet = [NodeId::new(2)].into_iter().collect();
        decide(&mut m, 0, 10, Value::ONE, &excluded);
        decide(&mut m, 1, 11, Value::ONE, &excluded);
        assert_eq!(m.update_completions(SimTime::from_millis(11), &excluded), 1);
    }

    #[test]
    fn safety_checker_flags_conflicts() {
        let mut m = MetricsCollector::with_expected_decisions(2, 0);
        let excluded = NodeSet::new();
        decide(&mut m, 0, 1, Value::ZERO, &excluded);
        assert!(m.result.safety_violation.is_none());
        decide(&mut m, 1, 2, Value::ONE, &excluded);
        assert!(m.result.safety_violation.is_some());
    }

    #[test]
    fn safety_checker_ignores_excluded_nodes() {
        let mut m = MetricsCollector::with_expected_decisions(2, 0);
        let excluded: NodeSet = [NodeId::new(0)].into_iter().collect();
        decide(&mut m, 0, 1, Value::ZERO, &excluded);
        decide(&mut m, 1, 2, Value::ONE, &excluded);
        assert!(m.result.safety_violation.is_none());
    }

    /// The safety check as it was before the agreed-value fast path — every
    /// node scanned after every decision — kept as the reference model.
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

    /// Feeds `ops` to the collector and to [`FullScan`], asserting the same
    /// `safety_violation` after every step; returns the final one.
    fn run_both(n: usize, ops: &[Op]) -> Option<String> {
        let mut fast = MetricsCollector::with_expected_decisions(n, 0);
        let mut slow = FullScan {
            decided: vec![Vec::new(); n],
            violation: None,
        };
        let mut excluded = NodeSet::new();
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Decide(node, value) => {
                    let (node, value) = (NodeId::new(node), Value::new(value));
                    fast.record_decision(node, SimTime::ZERO, value, &excluded);
                    slow.record_decision(node, value, &excluded);
                }
                Op::Exclude(node) => {
                    excluded.insert(NodeId::new(node));
                }
            }
            assert_eq!(
                fast.result.safety_violation, slow.violation,
                "n={n} step {step} of {ops:?}"
            );
        }
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
    fn latency_metrics() {
        let mut m = MetricsCollector::with_expected_decisions(1, 0);
        let excluded = NodeSet::new();
        for k in 0..10u64 {
            m.record_decision(
                NodeId::new(0),
                SimTime::from_millis((k + 1) * 100),
                Value::ONE,
                &excluded,
            );
            m.update_completions(SimTime::from_millis((k + 1) * 100), &excluded);
        }
        let r = m.into_result(
            SimTime::from_millis(1000),
            false,
            Trace::default(),
            0,
            SchedulerStats::default(),
            None,
        );
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
        let mut m = MetricsCollector::with_expected_decisions(1, 0);
        let excluded = NodeSet::new();
        // Three completions; the last at 1000 µs. 1000 / 3 = 333.33…, which
        // integer division used to truncate to 333 µs; rounding keeps 333 but
        // a total of 1001 µs must give 334, not 333.
        for (slot, at) in [(0u64, 1u64), (1, 2), (2, 1001)] {
            let _ = slot;
            m.record_decision(
                NodeId::new(0),
                SimTime::ZERO + SimDuration::from_micros(at),
                Value::ONE,
                &excluded,
            );
            m.update_completions(SimTime::ZERO + SimDuration::from_micros(at), &excluded);
        }
        let r = m.into_result(
            SimTime::ZERO + SimDuration::from_micros(1001),
            false,
            Trace::default(),
            0,
            SchedulerStats::default(),
            None,
        );
        assert_eq!(r.avg_latency_per_decision(3).unwrap().as_micros(), 334);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        // Sample (n−1) std-dev: sqrt(5/3) ≈ 1.2910.
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn summary_of_single_sample_has_zero_std_dev() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }
}
