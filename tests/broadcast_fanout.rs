//! Broadcast fan-out invariants of the zero-clone message hot path:
//!
//! 1. all `n − 1` destinations of one broadcast share the *same* payload
//!    allocation (`Arc::ptr_eq`), i.e. fan-out performs refcount bumps, not
//!    deep clones;
//! 2. an adversary mutating one destination's payload gets a private
//!    copy-on-write clone — the other destinations are unaffected;
//! 3. a recorded [`DeliverySchedule`] survives a JSON save/load cycle
//!    byte-identically and replays to the same decisions.

use std::cell::Cell;
use std::sync::{Arc, Mutex};

use bft_sim_core::json::Json;
use bft_sim_core::payload::Payload;
use bft_simulator::prelude::*;

thread_local! {
    /// How many times a `Ballot` payload has been deep-cloned on this thread.
    /// Per thread because the tests of this file run concurrently and a run
    /// stays on its test's thread: a process-wide counter let the mutation
    /// test's clones leak into the zero-clone assertion.
    static BALLOT_CLONES: Cell<u64> = const { Cell::new(0) };
}

#[derive(Debug)]
struct Ballot {
    round: u64,
}

// Manual Clone so every deep copy of a broadcast payload is counted; the
// refcount bumps of the Arc fan-out never pass through here.
impl Clone for Ballot {
    fn clone(&self) -> Self {
        BALLOT_CLONES.set(BALLOT_CLONES.get() + 1);
        Ballot { round: self.round }
    }
}

/// Round 0: every node broadcasts one `Ballot`; a node decides after its
/// first delivery.
#[derive(Debug, Clone)]
struct OneShotBroadcast;

impl Protocol for OneShotBroadcast {
    fn init(&mut self, ctx: &mut Context<'_>) {
        ctx.broadcast(Ballot { round: 7 });
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        if let Some(ballot) = msg.downcast_ref::<Ballot>() {
            ctx.decide(Value::new(ballot.round));
        }
    }

    fn on_timer(&mut self, _timer: &Timer, _ctx: &mut Context<'_>) {}

    fn name(&self) -> &'static str {
        "one-shot-broadcast"
    }
}

#[derive(Debug, Clone)]
struct Factory;

impl ProtocolFactory for Factory {
    fn create(&self, _node: NodeId) -> Box<dyn Protocol> {
        Box::new(OneShotBroadcast)
    }
}

/// Per source node, the `(destination, payload allocation)` pairs its
/// broadcasts produced, in routing order.
type ObservedFanOut = Vec<Vec<(NodeId, Arc<dyn Payload>)>>;

/// Observes every routed message and collects, per source, the payload
/// allocation pointers the destinations received. Optionally mutates the
/// copy bound for one destination.
struct FanOutObserver {
    per_src: Arc<Mutex<ObservedFanOut>>,
    mutate_dst: Option<NodeId>,
}

impl Adversary for FanOutObserver {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        _api: &mut AdversaryApi<'_>,
    ) -> Fate {
        if self.mutate_dst == Some(msg.dst()) {
            if let Some(ballot) = msg.downcast_mut::<Ballot>() {
                ballot.round = 99;
            }
        }
        let mut per_src = self.per_src.lock().unwrap();
        let src = msg.src().index();
        if per_src.len() <= src {
            per_src.resize_with(src + 1, Vec::new);
        }
        per_src[src].push((
            msg.dst(),
            Arc::clone(
                msg.payload_arc()
                    .expect("broadcast payloads are Arc-backed"),
            ),
        ));
        Fate::Deliver(proposed)
    }
}

fn run_observed(n: usize, mutate_dst: Option<NodeId>) -> (RunResult, ObservedFanOut) {
    let per_src = Arc::new(Mutex::new(Vec::new()));
    let result = SimulationBuilder::new(RunConfig::new(n).with_seed(3))
        .network(ConstantNetwork::new(SimDuration::from_millis(10.0)))
        .adversary(FanOutObserver {
            per_src: Arc::clone(&per_src),
            mutate_dst,
        })
        .protocols(Factory)
        .build()
        .unwrap()
        .run();
    let observed = per_src.lock().unwrap().clone();
    (result, observed)
}

#[test]
fn broadcast_peers_share_one_payload_allocation() {
    let clones_before = BALLOT_CLONES.get();
    let n = 7;
    let (result, observed) = run_observed(n, None);
    assert!(result.is_clean());
    // Every node broadcast once to its n − 1 peers…
    assert_eq!(observed.len(), n);
    for (src, seen) in observed.iter().enumerate() {
        assert_eq!(seen.len(), n - 1, "node {src} fan-out size");
        // …and all destination copies alias the same allocation.
        let (_, first) = &seen[0];
        for (dst, arc) in seen {
            assert!(
                Arc::ptr_eq(first, arc),
                "node {src} -> {dst}: payload was deep-cloned on fan-out"
            );
        }
    }
    // O(1) payload allocations per broadcast means zero deep clones here.
    assert_eq!(
        BALLOT_CLONES.get() - clones_before,
        0,
        "broadcast fan-out deep-cloned a payload"
    );
}

#[test]
fn adversary_mutation_is_copy_on_write() {
    let n = 5;
    let target = NodeId::new(2);
    let (result, observed) = run_observed(n, Some(target));
    // The forged ballot makes the target disagree with everyone else — the
    // safety checker must notice, which also proves the mutation landed.
    assert!(result.safety_violation.is_some());
    for (src, seen) in observed.iter().enumerate() {
        let tampered: Vec<_> = seen.iter().filter(|(dst, _)| *dst == target).collect();
        let intact: Vec<_> = seen.iter().filter(|(dst, _)| *dst != target).collect();
        let round = |arc: &Arc<dyn Payload>| {
            (**arc)
                .as_any()
                .downcast_ref::<Ballot>()
                .map(|b| b.round)
                .unwrap()
        };
        for (dst, arc) in &intact {
            assert_eq!(round(arc), 7, "node {src} -> {dst} was tampered");
        }
        if NodeId::new(src as u32) == target {
            // The target never broadcasts to itself, so nothing to tamper.
            assert!(tampered.is_empty());
            continue;
        }
        assert_eq!(tampered.len(), 1, "node {src}");
        // The mutated copy no longer aliases the shared payload, and it
        // alone carries the forged round.
        let (_, tampered_arc) = tampered[0];
        for (_, arc) in &intact {
            assert!(
                !Arc::ptr_eq(tampered_arc, arc),
                "node {src}: mutation aliased an honest destination"
            );
        }
        assert_eq!(round(tampered_arc), 99, "node {src}");
    }
    // The target nodes decided the forged value, everyone else the real one.
    for (node, seq) in result.decided.iter().enumerate() {
        let expected = if NodeId::new(node as u32) == target {
            99
        } else {
            7
        };
        assert_eq!(seq[0].1, Value::new(expected), "node {node}");
    }
}

#[test]
fn recorded_schedule_replays_byte_identically() {
    let n = 6;
    let build = |schedule: Option<DeliverySchedule>| {
        let builder = SimulationBuilder::new(RunConfig::new(n).with_seed(11))
            .network(ConstantNetwork::new(SimDuration::from_millis(25.0)))
            .protocols(Factory);
        match schedule {
            None => builder,
            Some(s) => builder.replay_schedule(s),
        }
        .build()
        .unwrap()
    };
    let (original, schedule) = build(None).run_recorded();
    assert!(original.is_clean());
    assert_eq!(schedule.len() as u64, original.honest_messages);

    // Save/load the schedule as JSON: byte-identical re-serialisation.
    let text = schedule.to_json().dump_pretty();
    let loaded = DeliverySchedule::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(loaded, schedule);
    assert_eq!(loaded.to_json().dump_pretty(), text);

    // Replaying the loaded schedule reproduces the run exactly.
    let replayed = build(Some(loaded)).run();
    Validator::check_replay(&original, &replayed).unwrap();
    assert_eq!(replayed.honest_messages, original.honest_messages);
    assert_eq!(replayed.broadcasts, original.broadcasts);
}

// ---------------------------------------------------------------------------
// Fan-out record edge cases.
//
// A broadcast is one queue entry whose recipients surface one by one. Each
// scenario below is compared, event for event, with what the engine produced when every recipient still was a
// queue entry of its own: the expected digests were computed at commit
// 732fd06, the last one with per-recipient scheduling.
// ---------------------------------------------------------------------------

/// What a [`Gossip`] node does, so one protocol covers every scenario.
#[derive(Debug, Clone, Copy)]
struct Script {
    /// Broadcasts every node sends from `init`, so that broadcasts of
    /// different senders interleave.
    opening: u64,
    /// Whether broadcasts include the sender (`broadcast_all`).
    to_self: bool,
    /// Whether a node broadcasts once more on its first delivery.
    echo: bool,
    /// When every node decides — the run's length, whatever was delivered.
    decide_at_ms: f64,
}

#[derive(Debug)]
struct Gossip {
    script: Script,
    /// Whether a broadcast goes out as one point-to-point send per peer.
    unicast: bool,
    echoed: bool,
}

impl Gossip {
    fn say(&self, round: u64, ctx: &mut Context<'_>) {
        if self.unicast {
            assert!(!self.script.to_self, "point-to-point sends skip the sender");
            let me = ctx.id();
            for dst in (0..ctx.n() as u32).map(NodeId::new).filter(|&d| d != me) {
                ctx.send(dst, Ballot { round });
            }
        } else if self.script.to_self {
            ctx.broadcast_all(Ballot { round });
        } else {
            ctx.broadcast(Ballot { round });
        }
    }
}

impl Protocol for Gossip {
    fn init(&mut self, ctx: &mut Context<'_>) {
        for round in 0..self.script.opening {
            self.say(round, ctx);
        }
        ctx.set_timer(SimDuration::from_millis(self.script.decide_at_ms), ());
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let ballot = msg.downcast_ref::<Ballot>().expect("only ballots travel");
        // Puts the payload each node actually saw into the trace.
        ctx.report_fmt("got", format_args!("{}:{}", msg.src(), ballot.round));
        if self.script.echo && !self.echoed {
            self.echoed = true;
            self.say(100 + ctx.id().index() as u64, ctx);
        }
    }

    fn on_timer(&mut self, _timer: &Timer, ctx: &mut Context<'_>) {
        ctx.decide(Value::new(1));
    }
}

fn gossip(cfg: RunConfig, script: Script) -> SimulationBuilder {
    gossip_with(cfg, script, false)
}

/// [`gossip`] with every broadcast sent as one point-to-point message per
/// peer, in destination order: each recipient is routed as a send of its
/// own, with no fan-out record.
fn gossip_unicast(cfg: RunConfig, script: Script) -> SimulationBuilder {
    gossip_with(cfg, script, true)
}

fn gossip_with(cfg: RunConfig, script: Script, unicast: bool) -> SimulationBuilder {
    SimulationBuilder::new(cfg.with_trace(TraceLevel::Messages)).protocols(
        move |_id: NodeId| -> Box<dyn Protocol> {
            Box::new(Gossip {
                script,
                unicast,
                echoed: false,
            })
        },
    )
}

/// Everything about a run an engine change could disturb: the full message
/// trace, the recorded schedule and the counters, as text.
fn transcript(result: &RunResult, schedule: &DeliverySchedule) -> String {
    format!(
        "{}\n{}\nevents={} skipped={} honest={} adversary={} dropped={} \
         high_water={} end={} timed_out={}",
        result.trace.to_json().dump(),
        schedule.to_json().dump(),
        result.events_processed,
        result.skipped_excluded_nodes,
        result.honest_messages,
        result.adversary_messages,
        result.dropped_messages,
        result.queue_high_water,
        result.end_time,
        result.timed_out,
    )
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the scenario and checks its transcript against the digest taken
/// from per-recipient scheduling (the commit named in the section header,
/// or a point-to-point run of the same script where the test says so).
/// Returns the result and schedule for scenario-specific assertions.
fn check_against_parent(
    expected: u64,
    scenario: SimulationBuilder,
) -> (RunResult, DeliverySchedule) {
    let (result, schedule) = scenario.build().unwrap().run_recorded();
    let text = transcript(&result, &schedule);
    assert_eq!(
        fnv1a(&text),
        expected,
        "transcript differs from per-recipient scheduling (digest {:#018x}):\n{text}",
        fnv1a(&text)
    );
    (result, schedule)
}

/// `(time µs, src, dst)` of every delivery, in dispatch order.
fn deliveries(result: &RunResult) -> Vec<(u64, u32, u32)> {
    result
        .trace
        .events()
        .filter_map(|e| match e.kind {
            TraceKind::Delivered { src, .. } => Some((
                e.time.as_micros(),
                src.index() as u32,
                e.node.index() as u32,
            )),
            _ => None,
        })
        .collect()
}

/// Constant delays: every recipient of 2·n interleaved broadcasts is due at
/// the same instant, so the dispatch order is decided by seq alone — sender
/// by sender, broadcast by broadcast, destination by destination.
#[test]
fn recipients_sharing_one_timestamp_surface_in_send_order() {
    let n = 5;
    let script = Script {
        opening: 2,
        to_self: false,
        echo: true,
        decide_at_ms: 50.0,
    };
    let (result, _) = check_against_parent(
        0xe330_62be_8bd9_d0b4,
        gossip(RunConfig::new(n).with_seed(1), script)
            .network(ConstantNetwork::new(SimDuration::from_millis(10.0))),
    );
    let mut opening = Vec::new();
    for src in 0..n as u32 {
        for _round in 0..2 {
            for dst in (0..n as u32).filter(|&dst| dst != src) {
                opening.push((10_000, src, dst));
            }
        }
    }
    let got = deliveries(&result);
    assert_eq!(got[..opening.len()], opening[..]);
    // The echoes, sent while the first wave was being delivered, all land
    // at 20 ms behind it.
    assert_eq!(got.len(), opening.len() + n * (n - 1));
    assert!(got[opening.len()..].iter().all(|&(t, ..)| t == 20_000));
}

/// Drops the copy for the sender's right-hand neighbour, delays the one for
/// the neighbour after that, and rewrites exactly one copy (1 → 3).
struct DropDelayMutate {
    mutate: bool,
}

impl Adversary for DropDelayMutate {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        let n = api.n() as u32;
        let (src, dst) = (msg.src().index() as u32, msg.dst().index() as u32);
        if self.mutate && (src, dst) == (1, 3) {
            msg.downcast_mut::<Ballot>().unwrap().round = 99;
        }
        if dst == (src + 1) % n {
            Fate::Drop
        } else if dst == (src + 2) % n {
            Fate::Deliver(proposed + SimDuration::from_millis(7.0 * f64::from(dst + 1)))
        } else {
            Fate::Deliver(proposed)
        }
    }
}

fn drop_delay_scenario(mutate: bool) -> SimulationBuilder {
    let script = Script {
        opening: 1,
        to_self: false,
        echo: false,
        decide_at_ms: 1000.0,
    };
    gossip(RunConfig::new(5).with_seed(4), script)
        .network(SampledNetwork::new(Dist::normal(250.0, 50.0)))
        .adversary(DropDelayMutate { mutate })
}

#[test]
fn dropped_delayed_and_rewritten_copies_keep_their_places() {
    let clones_before = BALLOT_CLONES.get();
    let (result, schedule) = check_against_parent(0x82b0_633e_1199_f30a, drop_delay_scenario(true));
    // One rewritten copy = one deep clone, and only node 3 saw the forged
    // round.
    assert_eq!(BALLOT_CLONES.get() - clones_before, 1);
    let seen = result.trace.custom("got");
    assert_eq!(seen.len(), 15, "5 senders x (4 peers - 1 dropped)");
    for (_, node, detail) in seen {
        let forged = node == NodeId::new(3) && detail.starts_with("n1:");
        assert_eq!(detail.ends_with(":99"), forged, "{node} got {detail}");
    }
    assert_eq!(result.dropped_messages, 5);
    assert_eq!(schedule.len(), 20);
}

/// Two scripted buggify duplicates inside broadcasts: one lands at its
/// original's instant, so only its seq — the next after the original's —
/// orders it among the broadcast's other recipients; one trails far behind.
#[test]
fn buggify_duplicates_inside_a_broadcast_take_the_next_seq() {
    let script = Script {
        opening: 1,
        to_self: false,
        echo: false,
        decide_at_ms: 500.0,
    };
    let dup = |index, extra_micros| FaultAction {
        index,
        kind: FaultKind::DuplicateDelivery { extra_micros },
    };
    let faults = || FaultInjector::scripted(&[dup(1, 0), dup(6, 400_000)]);
    let net = || ConstantNetwork::new(SimDuration::from_millis(10.0));
    let cfg = || RunConfig::new(4).with_seed(2);
    // The digest was taken from this script sent point to point
    // (`gossip_unicast`, each recipient routed as a send of its own), not
    // from the commit of the section header: a copy delayed by its
    // original's delay postdates it. Both paths still give one transcript.
    let (result, schedule) = check_against_parent(
        0x67f6_638c_84d9_522e,
        gossip(cfg(), script).network(net()).faults(faults()),
    );
    let (unicast, unicast_schedule) = gossip_unicast(cfg(), script)
        .network(net())
        .faults(faults())
        .build()
        .unwrap()
        .run_recorded();
    assert_eq!(
        transcript(&result, &schedule),
        transcript(&unicast, &unicast_schedule)
    );
    // Wire visit 1 is 0 -> 2, visit 6 is 2 -> 0 (three sends per node); a
    // copy arrives its extra delay after its original.
    let got = deliveries(&result);
    assert_eq!(got[1..4], [(10_000, 0, 2), (10_000, 0, 2), (10_000, 0, 3)]);
    assert_eq!(got.last(), Some(&(410_000, 2, 0)));
    assert_eq!(got.len(), 12 + 2);
    assert_eq!(result.adversary_messages, 2);
}

/// Crashes node 2 and corrupts node 3 while the opening broadcasts are in
/// flight.
struct ExcludeMidFlight;

impl Adversary for ExcludeMidFlight {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        api.set_timer(0, SimDuration::from_millis(5.0));
    }
    fn on_timer(&mut self, _tag: u64, api: &mut AdversaryApi<'_>) {
        api.crash(NodeId::new(2));
        api.corrupt(NodeId::new(3));
    }
}

#[test]
fn recipients_excluded_after_the_send_are_skipped_one_by_one() {
    let n = 6;
    let script = Script {
        opening: 2,
        to_self: true,
        echo: false,
        decide_at_ms: 30.0,
    };
    let (result, _) = check_against_parent(
        0x379e_0818_e4d5_452c,
        gossip(RunConfig::new(n).with_f(2).with_seed(3), script)
            .network(ConstantNetwork::new(SimDuration::from_millis(10.0)))
            .adversary(ExcludeMidFlight),
    );
    // Each excluded node misses two broadcasts from each of its five peers
    // (its own self-copies arrived at 0 ms, before the crash) and its timer.
    assert_eq!(result.skipped_excluded_nodes, 2 * (2 * 5 + 1));
    assert!(deliveries(&result)
        .iter()
        .all(|&(t, _, dst)| t == 0 || (dst != 2 && dst != 3)));
}

/// A zero-delay network: the self-copy of `broadcast_all` is due at the same
/// instant as the peers' copies and holds the block's last seq.
#[test]
fn the_self_copy_comes_last_among_equal_timestamps() {
    let n = 4;
    let script = Script {
        opening: 2,
        to_self: true,
        echo: false,
        decide_at_ms: 1.0,
    };
    let (result, _) = check_against_parent(
        0xd603_965a_3658_6e7d,
        gossip(RunConfig::new(n).with_seed(5), script)
            .network(ConstantNetwork::new(SimDuration::ZERO)),
    );
    let mut expected = Vec::new();
    for src in 0..n as u32 {
        for _round in 0..2 {
            expected.extend((0..n as u32).filter(|&d| d != src).map(|d| (0, src, d)));
            expected.push((0, src, src));
        }
    }
    assert_eq!(deliveries(&result), expected);
}

/// Spreads a broadcast's recipients 10 ms apart, by destination.
struct Stagger;

impl Adversary for Stagger {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        _api: &mut AdversaryApi<'_>,
    ) -> Fate {
        Fate::Deliver(proposed + SimDuration::from_millis(10.0 * msg.dst().index() as f64))
    }
}

fn staggered(cfg: RunConfig, decide_at_ms: f64) -> SimulationBuilder {
    let script = Script {
        opening: 1,
        to_self: false,
        echo: false,
        decide_at_ms,
    };
    gossip(cfg, script)
        .network(ConstantNetwork::new(SimDuration::from_millis(10.0)))
        .adversary(Stagger)
}

#[test]
fn the_time_cap_cuts_a_record_short() {
    let cfg = || {
        RunConfig::new(6)
            .with_seed(6)
            .with_time_cap(SimDuration::from_millis(35.0))
    };
    let (result, _) = check_against_parent(0xd72f_6cdf_a115_4560, staggered(cfg(), 1000.0));
    assert!(result.timed_out);
    // Recipients 0, 1 and 2 (10, 20, 30 ms) of every record were served.
    assert_eq!(deliveries(&result).last().map(|d| d.0), Some(30_000));
    assert_eq!(deliveries(&result).len(), 3 * 6 - 3);
}

#[test]
fn the_decision_target_is_reached_mid_record() {
    let (result, _) = check_against_parent(
        0x057c_3ed9_15c0_f754,
        staggered(RunConfig::new(6).with_seed(6), 25.0),
    );
    assert!(!result.timed_out);
    assert_eq!(result.decisions_completed(), 1);
    assert_eq!(deliveries(&result).last().map(|d| d.0), Some(20_000));
}

/// The schedule `drop_delay_scenario(false)` recorded at commit 732fd06: one
/// fate per transmission in send order, four per sender (the copy for the
/// right-hand neighbour dropped).
const PARENT_SCHEDULE: &str = r#"{"fates": [
    "Drop", {"Deliver":{"delay_micros":258306}}, {"Deliver":{"delay_micros":257400}}, {"Deliver":{"delay_micros":295619}},
    {"Deliver":{"delay_micros":277420}}, "Drop", {"Deliver":{"delay_micros":256355}}, {"Deliver":{"delay_micros":312908}},
    {"Deliver":{"delay_micros":339260}}, {"Deliver":{"delay_micros":212188}}, "Drop", {"Deliver":{"delay_micros":217096}},
    {"Deliver":{"delay_micros":253944}}, {"Deliver":{"delay_micros":271850}}, {"Deliver":{"delay_micros":277354}}, "Drop",
    "Drop", {"Deliver":{"delay_micros":245728}}, {"Deliver":{"delay_micros":247776}}, {"Deliver":{"delay_micros":169955}}
]}"#;

#[test]
fn a_schedule_recorded_by_per_recipient_scheduling_replays() {
    const DIGEST: u64 = 0x5f5e_ee8b_970a_df66;
    let recorded = DeliverySchedule::from_json(&Json::parse(PARENT_SCHEDULE).unwrap()).unwrap();
    // Recording it again yields the very same schedule …
    let (_, schedule) = check_against_parent(DIGEST, drop_delay_scenario(false));
    assert_eq!(schedule, recorded);
    // … and replaying the old recording yields the very same run: validator
    // mode skips the adversary and takes every fate from the schedule.
    let (replayed, _) = check_against_parent(
        DIGEST,
        drop_delay_scenario(false).replay_schedule(recorded.clone()),
    );
    assert!(replayed.safety_violation.is_none(), "replay diverged");
}

/// Delays node 0's copies past what 32 bits of microseconds hold: to node 1
/// by 2³² − 1 µs, to nodes 2 and 4 by 2³² µs, to node 3 by two hours. Node
/// 1's copy for node 2 is delayed by 2³² µs as well, so two broadcasts tie
/// there.
struct BeyondU32;

const U32_MICROS: u64 = 1 << 32;
const TWO_HOURS_MICROS: u64 = 2 * 3_600_000_000;

impl Adversary for BeyondU32 {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        _api: &mut AdversaryApi<'_>,
    ) -> Fate {
        let micros = match (msg.src().index(), msg.dst().index()) {
            (0, 1) => U32_MICROS - 1,
            (0, 2) | (0, 4) | (1, 2) => U32_MICROS,
            (0, 3) => TWO_HOURS_MICROS,
            _ => return Fate::Deliver(proposed),
        };
        Fate::Deliver(SimDuration::from_micros(micros))
    }
}

/// The digest was taken while every recipient still carried an absolute
/// delivery time, before copies delayed by 2³² µs or more left the fan-out
/// record for a queue entry of their own.
#[test]
fn copies_delayed_past_u32_micros_keep_their_places() {
    let script = Script {
        opening: 1,
        to_self: true,
        echo: false,
        decide_at_ms: 3.0 * 3_600_000.0,
    };
    let cfg = RunConfig::new(5)
        .with_seed(7)
        .with_time_cap(SimDuration::from_secs(4.0 * 3_600.0));
    let (result, _) = check_against_parent(
        0xb997_9f94_2dc5_ce6e,
        gossip(cfg, script)
            .network(ConstantNetwork::new(SimDuration::from_millis(10.0)))
            .adversary(BeyondU32),
    );
    let late: Vec<_> = deliveries(&result)
        .into_iter()
        .filter(|&(t, ..)| t >= U32_MICROS - 1)
        .collect();
    assert_eq!(
        late,
        vec![
            (U32_MICROS - 1, 0, 1),
            (U32_MICROS, 0, 2),
            (U32_MICROS, 0, 4),
            (U32_MICROS, 1, 2),
            (TWO_HOURS_MICROS, 0, 3),
        ]
    );
    assert!(!result.timed_out);
}
