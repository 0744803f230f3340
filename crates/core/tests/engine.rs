//! End-to-end tests of the simulation engine with a small quorum protocol.

use bft_sim_core::network::{ConstantNetwork, SampledNetwork};
use bft_sim_core::prelude::*;

/// A one-shot quorum protocol: node 0 broadcasts a proposal; every node that
/// receives it votes back to everyone; a node decides once it holds
/// `n - f` votes. Exercises send/broadcast/timers/decide paths.
#[derive(Debug)]
struct Quorum {
    votes: usize,
    voted: bool,
    decided: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum QMsg {
    Propose(u64),
    Vote(u64),
}

impl Quorum {
    fn new() -> Self {
        Quorum {
            votes: 0,
            voted: false,
            decided: false,
        }
    }

    fn maybe_vote(&mut self, v: u64, ctx: &mut Context<'_>) {
        if !self.voted {
            self.voted = true;
            ctx.broadcast(QMsg::Vote(v));
            self.votes += 1; // own vote
            self.maybe_decide(v, ctx);
        }
    }

    fn maybe_decide(&mut self, v: u64, ctx: &mut Context<'_>) {
        if !self.decided && self.votes >= ctx.n() - ctx.f() {
            self.decided = true;
            ctx.decide(Value::new(v));
        }
    }
}

impl Protocol for Quorum {
    fn init(&mut self, ctx: &mut Context<'_>) {
        if ctx.id() == NodeId::new(0) {
            ctx.broadcast(QMsg::Propose(42));
            self.maybe_vote(42, ctx);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        match msg.downcast_ref::<QMsg>() {
            Some(QMsg::Propose(v)) => self.maybe_vote(*v, ctx),
            Some(QMsg::Vote(v)) => {
                self.votes += 1;
                self.maybe_vote(*v, ctx);
                self.maybe_decide(*v, ctx);
            }
            None => panic!("unexpected payload"),
        }
    }

    fn on_timer(&mut self, _timer: &Timer, _ctx: &mut Context<'_>) {}

    fn name(&self) -> &'static str {
        "quorum"
    }
}

fn quorum_factory(_id: NodeId) -> Box<dyn Protocol> {
    Box::new(Quorum::new())
}

fn build(cfg: RunConfig) -> Simulation {
    SimulationBuilder::new(cfg)
        .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
        .protocols(quorum_factory)
        .build()
        .expect("valid config")
}

#[test]
fn quorum_protocol_reaches_consensus() {
    let result = build(RunConfig::new(4).with_seed(1)).run();
    assert!(result.is_clean());
    assert_eq!(result.decisions_completed(), 1);
    // Propose (100 ms) + vote exchange (100 ms): all nodes decide by 200 ms.
    assert_eq!(result.latency().unwrap().as_millis_f64(), 200.0);
    for seq in &result.decided {
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].1, Value::new(42));
    }
}

#[test]
fn message_usage_is_counted() {
    let result = build(RunConfig::new(4).with_seed(1)).run();
    // Node 0 broadcasts Propose (3 msgs); each of 4 nodes broadcasts a vote
    // (4 * 3 = 12): 15 total.
    assert_eq!(result.honest_messages, 15);
    assert_eq!(result.adversary_messages, 0);
    assert_eq!(result.dropped_messages, 0);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let mk = || {
        SimulationBuilder::new(RunConfig::new(7).with_seed(99))
            .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
            .protocols(quorum_factory)
            .build()
            .unwrap()
            .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.honest_messages, b.honest_messages);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        SimulationBuilder::new(RunConfig::new(7).with_seed(seed))
            .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
            .protocols(quorum_factory)
            .build()
            .unwrap()
            .run()
    };
    assert_ne!(mk(1).end_time, mk(2).end_time);
}

#[test]
fn record_and_replay_reproduce_decisions() {
    let (original, schedule) = SimulationBuilder::new(RunConfig::new(4).with_seed(5))
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .protocols(quorum_factory)
        .build()
        .unwrap()
        .run_recorded();
    assert_eq!(schedule.len() as u64, original.honest_messages);

    let replayed = SimulationBuilder::new(RunConfig::new(4).with_seed(777)) // different seed!
        .network(ConstantNetwork::new(SimDuration::ZERO)) // ignored in replay
        .protocols(quorum_factory)
        .replay_schedule(schedule)
        .build()
        .unwrap()
        .run();
    Validator::check_replay(&original, &replayed).expect("replay matches");
    assert_eq!(original.end_time, replayed.end_time);
}

#[test]
fn time_cap_reports_timeout() {
    // A protocol that never decides: empty queue would stop it, so give it a
    // recurring timer to keep the run alive until the cap.
    #[derive(Debug)]
    struct Stuck;
    impl Protocol for Stuck {
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10.0), ());
        }
        fn on_message(&mut self, _m: &Message, _c: &mut Context<'_>) {}
        fn on_timer(&mut self, _t: &Timer, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10.0), ());
        }
    }
    let result = SimulationBuilder::new(
        RunConfig::new(2)
            .with_seed(0)
            .with_time_cap(SimDuration::from_millis(100.0)),
    )
    .network(ConstantNetwork::new(SimDuration::from_millis(1.0)))
    .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Stuck) })
    .build()
    .unwrap()
    .run();
    assert!(result.timed_out);
    assert_eq!(result.decisions_completed(), 0);
    assert_eq!(result.end_time.as_millis_f64(), 100.0);
}

#[test]
fn stalled_protocol_reports_timeout_on_drained_queue() {
    #[derive(Debug)]
    struct Silent;
    impl Protocol for Silent {
        fn init(&mut self, _ctx: &mut Context<'_>) {}
        fn on_message(&mut self, _m: &Message, _c: &mut Context<'_>) {}
        fn on_timer(&mut self, _t: &Timer, _c: &mut Context<'_>) {}
    }
    let result = SimulationBuilder::new(RunConfig::new(2).with_seed(0))
        .network(ConstantNetwork::new(SimDuration::from_millis(1.0)))
        .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Silent) })
        .build()
        .unwrap()
        .run();
    assert!(result.timed_out);
}

#[test]
fn safety_violation_is_detected() {
    // Nodes decide their own id: guaranteed conflict.
    #[derive(Debug)]
    struct Conflicting;
    impl Protocol for Conflicting {
        fn init(&mut self, ctx: &mut Context<'_>) {
            let id = ctx.id().as_u32() as u64;
            ctx.decide(Value::new(id));
        }
        fn on_message(&mut self, _m: &Message, _c: &mut Context<'_>) {}
        fn on_timer(&mut self, _t: &Timer, _c: &mut Context<'_>) {}
    }
    let result = SimulationBuilder::new(RunConfig::new(3).with_seed(0))
        .network(ConstantNetwork::new(SimDuration::from_millis(1.0)))
        .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Conflicting) })
        .build()
        .unwrap()
        .run();
    assert!(result.safety_violation.is_some());
}

#[test]
fn crashed_nodes_do_not_block_completion() {
    /// Adversary that fail-stops the last node before the run begins.
    struct CrashLast;
    impl Adversary for CrashLast {
        fn init(&mut self, api: &mut AdversaryApi<'_>) {
            let last = NodeId::new(api.n() as u32 - 1);
            assert!(api.crash(last));
        }
    }
    let result = SimulationBuilder::new(RunConfig::new(4).with_seed(3))
        .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
        .adversary(CrashLast)
        .protocols(quorum_factory)
        .build()
        .unwrap()
        .run();
    assert!(
        result.is_clean(),
        "violation: {:?}",
        result.safety_violation
    );
    assert_eq!(result.decisions_completed(), 1);
    assert!(result.decided[3].is_empty(), "crashed node decided nothing");
}

#[test]
fn dropping_adversary_counts_drops() {
    /// Drops every message to node 1.
    struct DropToOne;
    impl Adversary for DropToOne {
        fn attack(
            &mut self,
            msg: &mut Message,
            proposed: SimDuration,
            _api: &mut AdversaryApi<'_>,
        ) -> Fate {
            if msg.dst() == NodeId::new(1) {
                Fate::Drop
            } else {
                Fate::Deliver(proposed)
            }
        }
    }
    let result = SimulationBuilder::new(RunConfig::new(4).with_seed(3))
        .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
        .adversary(DropToOne)
        .protocols(quorum_factory)
        .build()
        .unwrap()
        .run();
    // Node 1 never hears anything, so the run cannot complete (it is honest
    // and counted) — it stalls or times out.
    assert!(result.timed_out);
    assert!(result.dropped_messages > 0);
}

#[test]
fn view_trace_is_recorded() {
    #[derive(Debug)]
    struct Viewer;
    impl Protocol for Viewer {
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.enter_view(0);
            ctx.set_timer(SimDuration::from_millis(10.0), ());
        }
        fn on_message(&mut self, _m: &Message, _c: &mut Context<'_>) {}
        fn on_timer(&mut self, _t: &Timer, ctx: &mut Context<'_>) {
            ctx.enter_view(1);
            ctx.decide(Value::ONE);
        }
    }
    let cfg = RunConfig::new(2)
        .with_seed(0)
        .with_trace(TraceLevel::Events);
    let result = SimulationBuilder::new(cfg)
        .network(ConstantNetwork::new(SimDuration::from_millis(1.0)))
        .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Viewer) })
        .build()
        .unwrap()
        .run();
    let timeline = result.trace.view_timeline(NodeId::new(0));
    assert_eq!(timeline.len(), 2);
    assert_eq!(timeline[0].1, 0);
    assert_eq!(timeline[1].1, 1);
}

#[test]
fn injected_messages_reach_nodes() {
    /// Injects a forged Propose claiming to come from node 0.
    struct Forger {
        done: bool,
    }
    impl Adversary for Forger {
        fn init(&mut self, api: &mut AdversaryApi<'_>) {
            api.set_timer(1, SimDuration::from_millis(5.0));
        }
        fn on_timer(&mut self, _tag: u64, api: &mut AdversaryApi<'_>) {
            if !self.done {
                self.done = true;
                for i in 1..api.n() as u32 {
                    api.inject(
                        NodeId::new(0),
                        NodeId::new(i),
                        SimDuration::from_millis(1.0),
                        QMsg::Propose(7),
                    );
                }
            }
        }
    }
    // Node 0 never proposes here (we use a follower-only factory), so any
    // consensus must come from the forged proposal.
    let result = SimulationBuilder::new(RunConfig::new(4).with_seed(0))
        .network(ConstantNetwork::new(SimDuration::from_millis(10.0)))
        .adversary(Forger { done: false })
        .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Quorum::new()) })
        .build()
        .unwrap()
        .run();
    assert!(result.adversary_messages > 0);
    assert_eq!(result.decisions_completed(), 1);
    for seq in &result.decided {
        assert_eq!(seq[0].1, Value::new(7));
    }
}

/// The spine contract: whichever sinks are on, each hears every fact exactly
/// once, so the trace, the step observer, the counters and the obs
/// histograms must all tell the same story about one run. A fact tapped
/// twice, or a sink skipped, breaks one of the equalities below. A second
/// run of the seed, which is where a failed run's last events come from,
/// must end with the same events as the first. Outside this test only the
/// benchmark's tracer installs a step observer.
#[test]
fn every_sink_hears_each_fact_exactly_once() {
    use bft_sim_core::obs::DEFAULT_LAST_K;
    use bft_sim_core::oracle::OracleObserver;
    use bft_sim_protocols::registry::ProtocolKind;

    /// Talks to itself in all three ways (none of which touches the wire)
    /// and reports a view and a custom event, then decides on a quorum.
    #[derive(Debug, Default)]
    struct Chatter {
        heard: usize,
    }
    impl Protocol for Chatter {
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.enter_view(1);
            ctx.report_fmt("hello", format_args!("view=1"));
            ctx.broadcast_all(QMsg::Vote(1));
            ctx.send_self(QMsg::Propose(1));
            let me = ctx.id();
            ctx.send(me, QMsg::Propose(2));
        }
        fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
            if msg.downcast_ref::<QMsg>() == Some(&QMsg::Vote(1)) {
                self.heard += 1;
                if self.heard == ctx.n() - ctx.f() {
                    ctx.decide(Value::new(1));
                }
            }
        }
        fn on_timer(&mut self, _t: &Timer, _ctx: &mut Context<'_>) {}
    }

    /// Fail-stops the last node a little into the run, so deliveries already
    /// queued for it are skipped rather than dispatched.
    struct CrashLastSoon;
    impl Adversary for CrashLastSoon {
        fn init(&mut self, api: &mut AdversaryApi<'_>) {
            api.set_timer(0, SimDuration::from_millis(120.0));
        }
        fn on_timer(&mut self, _tag: u64, api: &mut AdversaryApi<'_>) {
            api.crash(NodeId::new(api.n() as u32 - 1));
        }
    }

    let n = 7;
    let base = RunConfig::new(n)
        .with_seed(5)
        .with_lambda_ms(1000.0)
        .with_time_cap(SimDuration::from_secs(300.0))
        .with_trace(TraceLevel::Messages);
    let pbft = ProtocolKind::Pbft.configure(base.clone());
    let hotstuff = ProtocolKind::HotStuffNs.configure(base.clone());
    type Factory = Box<dyn Fn() -> Box<dyn ProtocolFactory>>;
    let runs: [(&str, RunConfig, Factory); 3] = [
        (
            "pbft",
            pbft.clone(),
            Box::new(move || ProtocolKind::Pbft.factory(&pbft, 23)),
        ),
        (
            "hotstuff-ns",
            hotstuff.clone(),
            Box::new(move || ProtocolKind::HotStuffNs.factory(&hotstuff, 23)),
        ),
        (
            "chatter",
            base,
            Box::new(|| Box::new(|_id: NodeId| -> Box<dyn Protocol> { Box::<Chatter>::default() })),
        ),
    ];
    for (name, cfg, factory) in runs {
        let build = |observer: OracleObserver| {
            SimulationBuilder::new(cfg.clone())
                .network(SampledNetwork::new(Dist::normal(100.0, 20.0)))
                .adversary(CrashLastSoon)
                .protocols(factory())
                .observability(ObsConfig::default())
                .observer(observer)
                .faults(FaultInjector::generate(
                    9,
                    FaultPreset::Moderate.config(),
                    n,
                ))
                .build()
                .unwrap()
        };
        let observer = OracleObserver::new();
        let result = build(observer.clone()).run();
        let seen = observer.snapshot();
        let events: Vec<TraceEvent> = result.trace.events().collect();
        assert!(result.decisions_completed() > 0, "{name}: nothing decided");
        assert!(
            events.iter().any(|e| e.kind == TraceKind::Crashed),
            "{name}: the crash was not traced"
        );

        // The seed run again ends with the same last events.
        let rerun = build(OracleObserver::new()).run_caught().expect("no panic");
        let tail = |trace: &Trace| -> Vec<TraceEvent> {
            let skip = trace.len().saturating_sub(DEFAULT_LAST_K);
            trace.events().skip(skip).collect()
        };
        assert!(events.len() > DEFAULT_LAST_K, "{name}: run too short");
        assert_eq!(tail(&rerun.trace), tail(&result.trace), "{name}: re-run");

        // Trace and result agree on every decision: `decided` is the
        // trace's decisions regrouped by node, in trace order. PBFT and
        // HotStuff+NS need longer than the crash's 120 ms to decide, so
        // there the crashed node's slice is empty.
        let traced: Vec<_> = result.trace.decisions().collect();
        let mut regrouped = vec![Vec::new(); n];
        for &(time, node, slot, value) in &traced {
            let seq: &mut Vec<_> = &mut regrouped[node.index()];
            assert_eq!(slot as usize, seq.len(), "{name}: {node} skipped a slot");
            seq.push((time, value));
        }
        let decided: Vec<Vec<_>> = result.decided.iter().map(<[_]>::to_vec).collect();
        assert_eq!(decided, regrouped, "{name}: result.decided != trace");
        if name != "chatter" {
            assert!(
                result.decided[n - 1].is_empty(),
                "{name}: the crashed node decided"
            );
        }

        // Counters count what the trace shows, wire messages only.
        let wire = |kind: fn(&TraceEvent) -> Option<NodeId>| {
            events
                .iter()
                .filter(|e| kind(e).is_some_and(|peer| peer != e.node))
                .count() as u64
        };
        let sent = wire(|e| match e.kind {
            TraceKind::Sent { dst, .. } => Some(dst),
            _ => None,
        });
        let delivered = wire(|e| match e.kind {
            TraceKind::Delivered { src, .. } => Some(src),
            _ => None,
        });
        assert_eq!(result.honest_messages, sent, "{name}: sent");
        assert_eq!(result.sent_per_node.iter().sum::<u64>(), sent, "{name}");
        let delivered_total: u64 = result.delivered_per_node.iter().sum();
        assert_eq!(delivered_total, delivered, "{name}: delivered");

        // The observer saw every dispatched event; obs saw every delivery.
        assert_eq!(result.events_processed, seen.events, "{name}: events");
        let snapshot = result.observability.as_ref().expect("obs was on");
        let latencies: u64 = snapshot.delivery_latency.iter().map(|h| h.count()).sum();
        assert_eq!(latencies, delivered_total, "{name}: obs deliveries");
    }
}
