//! The simulation controller (§III-A1).
//!
//! [`Simulation`] owns the event scheduler, the simulation clock, the
//! consensus module instances (one [`Protocol`] per node), the network model
//! and the global adversary. [`Simulation::run`] pops events in timestamp
//! order, dispatches them, applies the resulting actions, and stops once the
//! target number of decisions completed (or the time cap is hit).
//!
//! What the engine does not know is who listens. It states each fact of a run
//! (sent, dispatched, delivered, decided, view, custom, excluded, link
//! queued, fate) once, to `crate::spine`; which of counters, trace, obs,
//! step observer and schedule recorder hear it is that module's business.
//!
//! The event queue is a `HeapScheduler`, held by value so its calls are
//! direct, and dispatches in one `(timestamp, insertion seq)` total order
//! (see [`crate::scheduler`] for the contract).
//! Timer cancellation is the scheduler's job: the engine keeps a plain
//! `TimerId -> handle` map and hands cancellations straight to the queue.
//!
//! A broadcast occupies one queue entry, not n − 1: every send-time decision
//! is still taken per destination, but the deliveries that share the payload
//! are handed to the scheduler as one entry
//! (`HeapScheduler::schedule_fanout`) that it moves to each recipient's
//! reserved `(timestamp, seq)` in turn. All-to-all phases therefore keep n²
//! 12-byte recipients resident instead of n² full events (a copy delayed by
//! 2³² µs or more is scheduled as an event of its own).

use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::{AdvAction, Adversary, AdversaryApi, Fate, NullAdversary};
use crate::buggify::{FaultInjector, FaultKind};
use crate::config::RunConfig;
use crate::context::{Action, Context};
use crate::error::SimError;
use crate::event::{EventKind, Recipient, Timer};
use crate::fasthash::FastMap;
use crate::ids::{NodeId, NodeSet, TimerId};
use crate::message::Message;
use crate::metrics::RunResult;
use crate::network::{LinkDecision, NetworkModel};
use crate::obs::ObsConfig;
use crate::payload::Payload;
use crate::protocol::{Protocol, ProtocolFactory, Vacant};
use crate::scheduler::{EventHandle, HeapScheduler, SchedulerKind};
use crate::spine::Sinks;
use crate::time::SimDuration;
use crate::trace::Trace;
use crate::validator::DeliverySchedule;
use crate::value::Value;

/// A passive probe notified as the engine executes, step by step.
///
/// Observers see the clock at every dispatched event and every decision as
/// it is applied. They cannot influence the run: the engine hands them
/// values, never state. No checked run installs one (the oracles read the
/// trace, and the clock check is the engine's own); the benchmark's tracer
/// times an [`OracleObserver`](crate::oracle::OracleObserver) through it.
pub trait StepObserver: Send {
    /// Called once per dispatched event, after the clock advanced to `now`.
    fn on_event(&mut self, now: crate::time::SimTime) {
        let _ = now;
    }

    /// Called when `node` decides `value` for consensus slot `slot`.
    fn on_decision(&mut self, now: crate::time::SimTime, node: NodeId, slot: u64, value: Value) {
        let _ = (now, node, slot, value);
    }
}

/// Builder for a [`Simulation`].
///
/// # Examples
///
/// ```
/// use bft_sim_core::prelude::*;
/// use bft_sim_core::network::ConstantNetwork;
///
/// #[derive(Debug)]
/// struct Trivial;
/// impl Protocol for Trivial {
///     fn init(&mut self, ctx: &mut Context<'_>) { ctx.decide(Value::new(1)); }
///     fn on_message(&mut self, _m: &Message, _c: &mut Context<'_>) {}
///     fn on_timer(&mut self, _t: &Timer, _c: &mut Context<'_>) {}
/// }
///
/// let result = SimulationBuilder::new(RunConfig::new(4))
///     .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
///     .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Trivial) })
///     .build()
///     .expect("valid configuration")
///     .run();
/// assert_eq!(result.decisions_completed(), 1);
/// ```
pub struct SimulationBuilder {
    cfg: RunConfig,
    network: Option<Box<dyn NetworkModel>>,
    adversary: Box<dyn Adversary>,
    factory: Option<Box<dyn ProtocolFactory>>,
    replay: Option<DeliverySchedule>,
    observer: Option<Box<dyn StepObserver>>,
    obs: Option<ObsConfig>,
    faults: Option<FaultInjector>,
}

impl SimulationBuilder {
    /// Starts a builder for the given run configuration.
    pub fn new(cfg: RunConfig) -> Self {
        SimulationBuilder {
            cfg,
            network: None,
            adversary: Box::new(NullAdversary::new()),
            factory: None,
            replay: None,
            observer: None,
            obs: None,
            faults: None,
        }
    }

    /// Single backend; kept for benchmark/'s tracer, remove with its replay
    /// follow-up (ROADMAP item 1).
    pub fn scheduler(self, _kind: SchedulerKind) -> Self {
        self
    }

    /// Sets the network model (required).
    pub fn network<N: NetworkModel + 'static>(mut self, network: N) -> Self {
        self.network = Some(Box::new(network));
        self
    }

    /// Sets the global adversary (defaults to the benign [`NullAdversary`]).
    pub fn adversary<A: Adversary + 'static>(mut self, adversary: A) -> Self {
        self.adversary = Box::new(adversary);
        self
    }

    /// Sets the protocol factory (required). A closure
    /// `|id: NodeId| -> Box<dyn Protocol>` works.
    pub fn protocols<F: ProtocolFactory + 'static>(mut self, factory: F) -> Self {
        self.factory = Some(Box::new(factory));
        self
    }

    /// Replays a previously recorded delivery schedule instead of sampling
    /// the network and consulting the adversary (validator mode, §III-A6).
    pub fn replay_schedule(mut self, schedule: DeliverySchedule) -> Self {
        self.replay = Some(schedule);
        self
    }

    /// Installs a step observer, notified of every event and decision as the
    /// run executes. Use a shared-state observer (e.g.
    /// [`OracleObserver`](crate::oracle::OracleObserver), which is `Clone`)
    /// to read what it saw after [`Simulation::run`] consumes the engine.
    pub fn observer<O: StepObserver + 'static>(mut self, observer: O) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Enables run-level observability: per-node latency/decision histograms,
    /// a per-phase message-flow matrix, per-view and per-link timings (see
    /// [`crate::obs`]). The resulting snapshot is attached to
    /// [`RunResult::observability`]. Without it no histogram is touched.
    pub fn observability(mut self, cfg: ObsConfig) -> Self {
        self.obs = Some(cfg);
        self
    }

    /// Installs a buggify fault injector (see [`crate::buggify`]). When this
    /// method is *not* called, every injection site is a single `Option`
    /// check and the run is bit-identical to one built without the catalog.
    /// Do not combine with [`replay_schedule`](Self::replay_schedule):
    /// validator mode replays recorded fates, which already embody any wire
    /// faults, and timer/dispatch faults would double-apply.
    pub fn faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Validates the configuration and constructs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for inconsistent configurations
    /// and [`SimError::MissingComponent`] if the network model or protocol
    /// factory is missing.
    pub fn build(self) -> Result<Simulation, SimError> {
        self.cfg.validate()?;
        let network = self
            .network
            .ok_or(SimError::MissingComponent("network model"))?;
        let factory = self
            .factory
            .ok_or(SimError::MissingComponent("protocol factory"))?;
        let nodes: Vec<Box<dyn Protocol>> = NodeId::all(self.cfg.n)
            .map(|id| factory.create(id))
            .collect();
        Ok(Simulation {
            rng: SmallRng::seed_from_u64(self.cfg.seed),
            queue: HeapScheduler::new(),
            clock: crate::time::SimTime::ZERO,
            nodes,
            network,
            adversary: self.adversary,
            sinks: Sinks::new(&self.cfg, self.observer, self.obs)?,
            timer_handles: FastMap::default(),
            crashed: NodeSet::with_capacity(self.cfg.n),
            corrupted: NodeSet::with_capacity(self.cfg.n),
            excluded: NodeSet::with_capacity(self.cfg.n),
            next_timer_id: 0,
            node_actions: Vec::new(),
            adv_actions: Vec::new(),
            recipients: Vec::with_capacity(self.cfg.n),
            replay: self.replay,
            replay_diverged: false,
            faults: self.faults,
            queue_high_water: 0,
            cfg: self.cfg,
        })
    }
}

impl core::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("cfg", &self.cfg)
            .field("has_network", &self.network.is_some())
            .field("has_factory", &self.factory.is_some())
            .finish_non_exhaustive()
    }
}

/// A fully-configured simulation, ready to [`run`](Simulation::run).
pub struct Simulation {
    cfg: RunConfig,
    rng: SmallRng,
    queue: HeapScheduler,
    clock: crate::time::SimTime,
    nodes: Vec<Box<dyn Protocol>>,
    network: Box<dyn NetworkModel>,
    adversary: Box<dyn Adversary>,
    /// Everything that listens to the run (see [`crate::spine`]).
    sinks: Sinks,
    /// Scheduler handle of every timer currently pending in the queue;
    /// entries leave the map when the timer fires or is cancelled, so the
    /// map stays bounded by in-flight timers and cancelling an already-fired
    /// (or never-armed) timer is naturally a no-op. Timer ids are sequential
    /// `u64`s, so the cheap multiplicative hash is collision-free enough.
    timer_handles: FastMap<TimerId, EventHandle>,
    crashed: NodeSet,
    corrupted: NodeSet,
    /// `crashed ∪ corrupted`, maintained incrementally.
    excluded: NodeSet,
    next_timer_id: u64,
    node_actions: Vec<Action>,
    adv_actions: Vec<AdvAction>,
    /// Scratch list a broadcast collects its recipients in; recycled like
    /// `node_actions`, so fan-out itself allocates nothing.
    recipients: Vec<Recipient>,
    replay: Option<DeliverySchedule>,
    replay_diverged: bool,
    /// Buggify fault injector (see [`crate::buggify`]); None keeps every
    /// injection site down to one discriminant check.
    faults: Option<FaultInjector>,
    queue_high_water: usize,
}

impl core::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("cfg", &self.cfg)
            .field("clock", &self.clock)
            .field("queue_len", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// What [`Simulation::transmit`] decided for one honest transmission: the
/// delays, from now, after which the message and a buggify duplicate of it
/// arrive (`None` = dropped / no duplicate).
struct Transmission {
    delivery: Option<SimDuration>,
    duplicate: Option<SimDuration>,
}

impl Simulation {
    /// Runs the simulation to completion and returns its metrics.
    ///
    /// The run stops when (a) every live honest node has decided the target
    /// number of slots, (b) the simulated time cap is reached, or (c) the
    /// event queue drains (a stalled protocol) — the latter two are reported
    /// with [`RunResult::timed_out`] set.
    pub fn run(mut self) -> RunResult {
        let timed_out = self.drive();
        self.finish(timed_out).0
    }

    /// Runs the simulation and also returns the recorded delivery schedule
    /// for validator replay.
    pub fn run_recorded(mut self) -> (RunResult, DeliverySchedule) {
        self.sinks.record_schedule();
        let timed_out = self.drive();
        self.finish(timed_out)
    }

    /// [`run`](Simulation::run), but a panic raised while the run is driven
    /// (by a protocol, the adversary, the network model or an observer) is
    /// caught: the run then hands back, instead of its result, the trace
    /// recorded up to the panic.
    ///
    /// A run is a pure function of its configuration, so one that panicked
    /// panics at the same event when run again. Running it again at
    /// [`TraceLevel::Messages`](crate::trace::TraceLevel::Messages) through
    /// this method is how its last events are recovered; nothing is recorded
    /// for that purpose while a run succeeds.
    ///
    /// # Errors
    ///
    /// The trace up to the panic, when the run panicked.
    pub fn run_caught(mut self) -> Result<RunResult, Trace> {
        match catch_unwind(AssertUnwindSafe(|| self.drive())) {
            Ok(timed_out) => Ok(self.finish(timed_out).0),
            Err(_) => Err(self.sinks.into_trace()),
        }
    }

    /// Runs all events to the stop condition, returning whether the run
    /// timed out. Split from [`finish`](Simulation::finish) so unit tests
    /// can inspect engine internals after the event loop completes.
    fn drive(&mut self) -> bool {
        // Adversary goes first so attacks like fail-stop-from-start take
        // effect before any node initialises. In validator mode it never
        // starts: the replayed schedule already embodies the attack.
        if self.replay.is_none() {
            self.run_adversary(|adv, api| adv.init(api));
            self.apply_adv_actions();
        }

        for id in NodeId::all(self.cfg.n) {
            if self.excluded.contains(id) {
                continue;
            }
            self.dispatch_node(id, |node, ctx| node.init(ctx));
            if self.stop_reached() {
                break;
            }
        }

        while !self.stop_reached() {
            self.queue_high_water = self.queue_high_water.max(self.queue.len());
            let Some(ev) = self.queue.pop() else {
                return true;
            };
            if ev.at.saturating_since(crate::time::SimTime::ZERO) > self.cfg.time_cap {
                self.clock = crate::time::SimTime::ZERO + self.cfg.time_cap;
                return true;
            }
            assert!(
                ev.at >= self.clock,
                "the scheduler popped an event at {} before the clock at {}",
                ev.at,
                self.clock
            );
            self.clock = ev.at;
            // Only events that survive the skip check below are `dispatched`;
            // deliveries to excluded nodes go to `skipped_excluded_nodes` so
            // they cannot inflate events/sec. Cancelled timers never surface
            // here — the scheduler suppresses them — and are counted at
            // cancellation time instead.
            match ev.kind {
                EventKind::Deliver(msg) => {
                    let dst = msg.dst();
                    if self.excluded.contains(dst) {
                        self.sinks.metrics.count_skipped_excluded();
                        continue;
                    }
                    self.sinks.dispatched(self.clock);
                    self.sinks.delivered(self.clock, &msg);
                    self.dispatch_node(dst, |node, ctx| node.on_message(&msg, ctx));
                }
                EventKind::FanOut(_) => {
                    unreachable!("schedulers pop a fan-out entry one `Deliver` at a time")
                }
                EventKind::NodeTimer { node, timer } => {
                    self.timer_handles.remove(&timer.id);
                    if self.excluded.contains(node) {
                        self.sinks.metrics.count_skipped_excluded();
                        continue;
                    }
                    self.sinks.dispatched(self.clock);
                    self.dispatch_node(node, |n, ctx| n.on_timer(&timer, ctx));
                }
                EventKind::AdversaryTimer { tag } => {
                    self.sinks.dispatched(self.clock);
                    self.run_adversary(|adv, api| adv.on_timer(tag, api));
                    self.apply_adv_actions();
                }
            }
        }
        false
    }

    /// Consumes the driven simulation into its metrics and the schedule it
    /// recorded (empty unless recording was on). The replicas, the queue and
    /// everything else but the sinks are freed before the sinks build the
    /// result, so the decisions it regroups from the trace never add to the
    /// run's peak.
    fn finish(self, timed_out: bool) -> (RunResult, DeliverySchedule) {
        let (end_time, high_water, diverged) =
            (self.clock, self.queue_high_water, self.replay_diverged);
        let stats = self.queue.stats();
        let (mut result, schedule) = self
            .into_sinks()
            .finish(end_time, timed_out, high_water, stats);
        if diverged {
            result.safety_violation = result
                .safety_violation
                .or_else(|| Some("replay diverged from recorded schedule".to_string()));
        }
        (result, schedule)
    }

    /// The sinks, the rest of the simulation dropped.
    fn into_sinks(self) -> Sinks {
        self.sinks
    }

    fn stop_reached(&self) -> bool {
        self.sinks.metrics.completed() >= self.cfg.target_decisions
    }

    /// Checks a node's protocol instance out of its slot, runs `f` with a
    /// fresh [`Context`], checks it back in, then applies buffered actions.
    fn dispatch_node<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Protocol>, &mut Context<'_>),
    {
        let mut node = mem::replace(&mut self.nodes[id.index()], Box::new(Vacant));
        let mut actions = mem::take(&mut self.node_actions);
        let skipped_reports = {
            let mut ctx = Context::new(
                id,
                self.clock,
                &self.cfg,
                &mut actions,
                &mut self.next_timer_id,
                self.sinks.details(),
            );
            f(&mut node, &mut ctx);
            ctx.skipped_reports
        };
        self.nodes[id.index()] = node;
        // Torn-write injection: the node's state already advanced inside
        // `f`, but only a prefix of its buffered output is applied — the
        // simulated analogue of a partial state write. Only *outputs*
        // (messages and timer ops) are tearable: Decide / EnterView /
        // Custom are oracle reports of state the node already committed
        // internally, and tearing them would blind the safety checker with
        // false disagreements rather than perturb the protocol. Reports a
        // trace below `Events` does not keep were counted, not buffered; the
        // cut is drawn from the length with them.
        if let Some(fi) = &mut self.faults {
            if let Some(keep) = fi.on_dispatch(actions.len() + skipped_reports) {
                let mut seen = 0usize;
                actions.retain(|action| match action {
                    Action::Decide(_) | Action::EnterView(_) | Action::Custom { .. } => true,
                    _ => {
                        seen += 1;
                        seen <= keep
                    }
                });
            }
        }
        self.apply_node_actions(id, &mut actions);
        self.node_actions = actions;
        self.apply_adv_actions();
    }

    fn apply_node_actions(&mut self, src: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { dst, payload } => {
                    self.route(Message::new(src, dst, self.clock, payload));
                }
                Action::Broadcast {
                    payload,
                    include_self,
                } => self.broadcast(src, payload, include_self),
                Action::SendSelf { payload, delay } => {
                    self.queue.schedule(
                        self.clock + delay,
                        EventKind::Deliver(Message::new(src, src, self.clock, payload)),
                    );
                }
                Action::SetTimer { id, delay, payload } => {
                    let delay = match &mut self.faults {
                        Some(fi) => fi.on_timer(delay),
                        None => delay,
                    };
                    let handle = self.queue.schedule(
                        self.clock + delay,
                        EventKind::NodeTimer {
                            node: src,
                            timer: Timer::new(id, payload),
                        },
                    );
                    self.timer_handles.insert(id, handle);
                }
                Action::CancelTimer(id) => {
                    // Only pending timers have a handle; cancelling a timer
                    // that already fired (or never existed) is a no-op. The
                    // count is taken here, not when the stale key is popped:
                    // a run can end with stale keys still queued.
                    if let Some(handle) = self.timer_handles.remove(&id) {
                        self.queue.cancel(handle);
                        self.sinks.metrics.count_cancelled_timer();
                    }
                }
                Action::Decide(value) => {
                    self.sinks.decided(self.clock, src, value, &self.excluded);
                }
                Action::EnterView(view) => self.sinks.view(self.clock, src, view),
                Action::Custom { label, detail } => {
                    self.sinks.custom(self.clock, src, label, detail);
                }
            }
        }
    }

    /// Sends one honest point-to-point message and schedules its delivery.
    fn route(&mut self, mut msg: Message) {
        let wire = self.transmit(&mut msg);
        let copy = wire.duplicate.map(|delay| (msg.clone(), delay));
        if let Some(delay) = wire.delivery {
            self.queue
                .schedule(self.clock + delay, EventKind::Deliver(msg));
        }
        if let Some((copy, delay)) = copy {
            self.queue
                .schedule(self.clock + delay, EventKind::Deliver(copy));
        }
    }

    /// Sends `payload` from `src` to every other node (and to `src` itself
    /// when `include_self`), as one queue entry.
    ///
    /// Each destination goes through [`transmit`](Self::transmit) in
    /// destination order, exactly as n − 1 point-to-point sends would, and
    /// every copy that survives gets the insertion seq it would have got
    /// from its own `schedule` call: seqs are handed out in routing order
    /// (a buggify duplicate right after its original, the self-copy last)
    /// and dropped copies consume none. Only what happens to the copies
    /// differs. Those still sharing the broadcast's payload allocation and
    /// source become 12-byte [`Recipient`]s of a single fan-out entry; a copy
    /// the adversary rewrote, or one delayed by 2³² µs or more (which a
    /// `Recipient`'s offset cannot hold), is a message of its own and is
    /// scheduled as such, at its seq from the same block.
    fn broadcast(&mut self, src: NodeId, payload: Arc<dyn Payload>, include_self: bool) {
        self.sinks.metrics.count_broadcast();
        let mut recipients = mem::take(&mut self.recipients);
        let mut rewritten: Vec<(crate::time::SimTime, u32, Message)> = Vec::new();
        // At most 2(n − 1) + 1 copies; `RunConfig::validate` keeps n ≤ u32.
        let mut copies = 0u32;
        // One message is re-addressed for every destination, so the shared
        // payload's refcount is not touched per recipient; the adversary
        // still sees it shared (`payload` holds the other reference), which
        // is what makes its mutations copy-on-write.
        let mut msg = Message::new(src, src, self.clock, Arc::clone(&payload));
        for dst in NodeId::all(self.cfg.n) {
            if dst == src {
                continue;
            }
            msg.readdress(dst);
            let wire = self.transmit(&mut msg);
            let shared = msg.src() == src
                && msg
                    .payload_arc()
                    .is_some_and(|arc| Arc::ptr_eq(arc, &payload));
            for delay in [wire.delivery, wire.duplicate].into_iter().flatten() {
                let seq_offset = copies;
                copies += 1;
                match u32::try_from(delay.as_micros()) {
                    Ok(after) if shared => recipients.push(Recipient {
                        after,
                        seq_offset,
                        dst,
                    }),
                    _ => rewritten.push((self.clock + delay, seq_offset, msg.clone())),
                }
            }
            if !shared {
                msg = Message::new(src, dst, self.clock, Arc::clone(&payload));
            }
        }
        if include_self {
            recipients.push(Recipient {
                after: 0,
                seq_offset: copies,
                dst: src,
            });
            copies += 1;
        }

        let first_seq = self.queue.reserve(u64::from(copies));
        for (at, seq_offset, msg) in rewritten {
            self.queue.schedule_reserved(
                at,
                first_seq + u64::from(seq_offset),
                EventKind::Deliver(msg),
            );
        }
        recipients.sort_unstable_by(|a, b| b.cmp(a));
        self.queue
            .schedule_fanout(src, self.clock, payload, first_seq, &recipients);
        recipients.clear();
        self.recipients = recipients;
    }

    /// The send-time half of one honest transmission: metrics and trace
    /// taps, then the network model and the adversary (or the replay
    /// schedule in validator mode), wire faults and the schedule recorder.
    /// Returns when the message — which the adversary may have rewritten in
    /// place — and a possible buggify duplicate are to be delivered; the
    /// caller schedules them.
    fn transmit(&mut self, msg: &mut Message) -> Transmission {
        self.sinks.sent(self.clock, msg);

        let fate = if let Some(replay) = &mut self.replay {
            match replay.next_fate() {
                Some(f) => f,
                None => {
                    self.replay_diverged = true;
                    Fate::Deliver(self.cfg.lambda)
                }
            }
        } else {
            match self.network.decide(
                msg.src(),
                msg.dst(),
                self.clock,
                msg.wire_size(),
                &mut self.rng,
            ) {
                // A link-level drop (severed topology, node down) never
                // reaches the adversary: the network refused the message
                // before the attacker could see it. The fate is still
                // recorded below, so schedule replay stays exact.
                LinkDecision::Drop => Fate::Drop,
                LinkDecision::Deliver(delivery) => {
                    self.sinks
                        .link_queued(msg.src(), msg.dst(), delivery.queued, delivery.depth);
                    self.run_adversary(|adv, api| adv.attack(msg, delivery.delay, api))
                }
            }
        };

        // Wire-site fault injection, applied after the adversary but before
        // the recorder so targeted drops and reorder delays land in the
        // recorded schedule (keeping schedule-replay repros exact).
        // Duplicates live outside the fate stream: a second copy is
        // scheduled by the caller and accounted as an adversary message, so
        // the metrics-sanity invariant `delivered <= sent` keeps holding.
        let mut duplicate = None;
        let fate = match &mut self.faults {
            Some(fi) if self.replay.is_none() => match fi.on_wire(msg.dst()) {
                Some(FaultKind::TargetedDrop { .. }) => Fate::Drop,
                Some(FaultKind::ReorderDelay { extra_micros }) => match fate {
                    Fate::Deliver(delay) => {
                        Fate::Deliver(delay + SimDuration::from_micros(extra_micros))
                    }
                    Fate::Drop => Fate::Drop,
                },
                // The copy follows the original's fate: none for a dropped
                // original, and the original's delay plus the extra for a
                // delivered one, so what holds the original holds the copy.
                Some(FaultKind::DuplicateDelivery { extra_micros }) => {
                    if let Fate::Deliver(delay) = fate {
                        duplicate = Some(delay + SimDuration::from_micros(extra_micros));
                    }
                    fate
                }
                _ => fate,
            },
            _ => fate,
        };

        self.sinks.fate(fate);
        let delivery = match fate {
            Fate::Deliver(delay) => Some(delay),
            Fate::Drop => {
                self.sinks.metrics.count_dropped_message();
                None
            }
        };
        if duplicate.is_some() {
            self.sinks.metrics.count_adversary_message();
        }
        Transmission {
            delivery,
            duplicate,
        }
    }

    /// Runs `f` on the adversary with a fresh [`AdversaryApi`]; what it asks
    /// for is buffered until [`apply_adv_actions`](Self::apply_adv_actions).
    fn run_adversary<R>(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Adversary>, &mut AdversaryApi<'_>) -> R,
    ) -> R {
        let mut adv_actions = mem::take(&mut self.adv_actions);
        let result = {
            let mut api = AdversaryApi::new(
                self.clock,
                self.cfg.n,
                self.cfg.f,
                &self.corrupted,
                &self.crashed,
                &mut adv_actions,
            );
            f(&mut self.adversary, &mut api)
        };
        self.adv_actions = adv_actions;
        result
    }

    fn apply_adv_actions(&mut self) {
        if self.adv_actions.is_empty() {
            return;
        }
        let mut actions = mem::take(&mut self.adv_actions);
        for action in actions.drain(..) {
            match action {
                AdvAction::Inject {
                    src,
                    dst,
                    delay,
                    payload,
                } => {
                    self.sinks.metrics.count_adversary_message();
                    self.queue.schedule(
                        self.clock + delay,
                        EventKind::Deliver(Message::injected(src, dst, self.clock, payload)),
                    );
                }
                AdvAction::Corrupt(node) | AdvAction::Crash(node) => {
                    let corrupt = matches!(action, AdvAction::Corrupt(_));
                    let set = if corrupt {
                        &mut self.corrupted
                    } else {
                        &mut self.crashed
                    };
                    if set.insert(node) {
                        self.excluded.insert(node);
                        self.sinks
                            .excluded(self.clock, node, corrupt, &self.excluded);
                    }
                }
                AdvAction::SetTimer { tag, delay } => {
                    self.queue
                        .schedule(self.clock + delay, EventKind::AdversaryTimer { tag });
                }
            }
        }
        self.adv_actions = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ConstantNetwork;
    use crate::obs::DEFAULT_LAST_K;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::{TraceEvent, TraceKind, TraceLevel};
    use crate::value::Value;

    #[derive(Debug, Clone, PartialEq)]
    enum Tick {
        Churn,
        Short,
        Long,
        Probe,
    }

    fn constant_net() -> ConstantNetwork {
        ConstantNetwork::new(SimDuration::from_millis(10.0))
    }

    /// Each round fires a timer, cancels the *already fired* id, and arms the
    /// next one. The engine drops a fired timer's handle, so such a cancel
    /// never reaches the queue (which would refuse it anyway).
    #[derive(Debug, Default)]
    struct TimerChurn {
        rounds: u64,
    }

    impl Protocol for TimerChurn {
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(5.0), Tick::Churn);
        }
        fn on_message(&mut self, _m: &Message, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, t: &Timer, ctx: &mut Context<'_>) {
            ctx.cancel_timer(t.id); // stale: this timer just fired
            self.rounds += 1;
            if self.rounds < 200 {
                ctx.set_timer(SimDuration::from_millis(5.0), Tick::Churn);
            } else {
                ctx.decide(Value::new(1));
            }
        }
    }

    #[test]
    fn stale_cancellations_leave_no_tombstones() {
        let mut sim = SimulationBuilder::new(RunConfig::new(4).with_seed(1))
            .network(constant_net())
            .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::<TimerChurn>::default() })
            .build()
            .unwrap();
        sim.drive();
        // Stale cancels (the timer already fired) never reach the scheduler:
        // the handle left the map at pop time, so no tombstones accumulate.
        let stats = sim.queue.stats();
        assert_eq!(stats.pending_tombstones, 0);
        assert_eq!(stats.tombstones_popped, 0);
        // The handle map only tracks timers still in the queue, so the
        // bookkeeping is bounded by in-flight timers.
        assert!(sim.timer_handles.len() <= sim.queue.len());
    }

    /// Cancelling a pending timer must still suppress its firing.
    #[derive(Debug, Default)]
    struct CancelBeforeFire {
        long: Option<TimerId>,
    }

    impl Protocol for CancelBeforeFire {
        fn init(&mut self, ctx: &mut Context<'_>) {
            self.long = Some(ctx.set_timer(SimDuration::from_millis(100.0), Tick::Long));
            ctx.set_timer(SimDuration::from_millis(10.0), Tick::Short);
        }
        fn on_message(&mut self, _m: &Message, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, t: &Timer, ctx: &mut Context<'_>) {
            match t.downcast_ref::<Tick>() {
                Some(Tick::Short) => {
                    ctx.cancel_timer(self.long.take().unwrap());
                    ctx.set_timer(SimDuration::from_millis(300.0), Tick::Probe);
                }
                Some(Tick::Long) => panic!("cancelled timer fired"),
                Some(Tick::Probe) => ctx.decide(Value::new(1)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn cancelled_pending_timer_does_not_fire() {
        let result = SimulationBuilder::new(RunConfig::new(4).with_seed(3))
            .network(constant_net())
            .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::<CancelBeforeFire>::default() })
            .build()
            .unwrap()
            .run();
        assert_eq!(result.decisions_completed(), 1);
        // Each node's Long timer is cancelled while pending and counted at
        // cancel time. Only the 4 Short + 4 Probe pops are dispatched.
        assert_eq!(result.skipped_cancelled_timers, 4);
        assert_eq!(result.skipped_excluded_nodes, 0);
        assert_eq!(result.events_processed, 8);
        // The cancelled timers surfaced before the Probes and were discarded.
        assert_eq!(result.scheduler.tombstones_popped, 4);
    }

    /// Every node broadcasts at 10 ms and decides at 30 ms; the adversary
    /// crashes node 3 at 5 ms, so node 3's timer pop and its three incoming
    /// deliveries all hit the excluded-destination skip path.
    #[derive(Debug, Default)]
    struct TalkThenDecide;

    impl Protocol for TalkThenDecide {
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10.0), Tick::Short);
        }
        fn on_message(&mut self, _m: &Message, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, t: &Timer, ctx: &mut Context<'_>) {
            match t.downcast_ref::<Tick>() {
                Some(Tick::Short) => {
                    ctx.broadcast(Tick::Probe);
                    ctx.set_timer(SimDuration::from_millis(20.0), Tick::Long);
                }
                Some(Tick::Long) => ctx.decide(Value::new(1)),
                _ => unreachable!(),
            }
        }
    }

    #[derive(Debug)]
    struct CrashOneEarly;

    impl Adversary for CrashOneEarly {
        fn init(&mut self, api: &mut AdversaryApi<'_>) {
            api.set_timer(0, SimDuration::from_millis(5.0));
        }
        fn on_timer(&mut self, _tag: u64, api: &mut AdversaryApi<'_>) {
            api.crash(NodeId::new(3));
        }
    }

    fn crash_one_builder(cfg: RunConfig) -> SimulationBuilder {
        SimulationBuilder::new(cfg)
            .network(constant_net())
            .adversary(CrashOneEarly)
            .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::<TalkThenDecide>::default() })
    }

    fn crash_one_run(seed: u64) -> RunResult {
        crash_one_builder(RunConfig::new(4).with_seed(seed))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn events_to_excluded_nodes_are_skipped_not_processed() {
        let result = crash_one_run(7);
        assert_eq!(result.decisions_completed(), 1);
        // Skipped: node 3's Short pop + its 3 incoming Probe deliveries.
        assert_eq!(result.skipped_excluded_nodes, 4);
        assert_eq!(result.skipped_cancelled_timers, 0);
        // Processed: adversary timer + 3 Short pops + 6 live deliveries
        // + 3 Long pops.
        assert_eq!(result.events_processed, 13);
    }

    /// Node 0 decides 1 at 10 ms; every other node decides 2 at 30 ms.
    #[derive(Debug, Default)]
    struct SplitDecision;

    impl Protocol for SplitDecision {
        fn init(&mut self, ctx: &mut Context<'_>) {
            if ctx.id() == NodeId::new(0) {
                ctx.set_timer(SimDuration::from_millis(10.0), Tick::Short);
            } else {
                ctx.set_timer(SimDuration::from_millis(30.0), Tick::Long);
            }
        }
        fn on_message(&mut self, _m: &Message, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, t: &Timer, ctx: &mut Context<'_>) {
            match t.downcast_ref::<Tick>() {
                Some(Tick::Short) => ctx.decide(Value::new(1)),
                _ => ctx.decide(Value::new(2)),
            }
        }
    }

    #[derive(Debug)]
    struct CorruptFirstDecider;

    impl Adversary for CorruptFirstDecider {
        fn init(&mut self, api: &mut AdversaryApi<'_>) {
            api.set_timer(0, SimDuration::from_millis(20.0));
        }
        fn on_timer(&mut self, _tag: u64, api: &mut AdversaryApi<'_>) {
            assert!(api.corrupt(NodeId::new(0)));
        }
    }

    /// The safety check holds live nodes to one value per slot, whoever
    /// decided first: a first decider corrupted before the others decide
    /// differently is no violation, a live one is — named with the text the
    /// all-nodes scan has always produced.
    #[test]
    fn a_corrupted_first_decider_does_not_fix_the_slots_value() {
        let split = |corrupt: bool| {
            let builder = SimulationBuilder::new(RunConfig::new(4).with_seed(9))
                .network(constant_net())
                .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(SplitDecision) });
            let builder = if corrupt {
                builder.adversary(CorruptFirstDecider)
            } else {
                builder
            };
            builder.build().unwrap().run()
        };
        let corrupted = split(true);
        assert_eq!(corrupted.safety_violation, None);
        assert_eq!(corrupted.decisions_completed(), 1);
        assert_eq!(
            split(false).safety_violation.as_deref(),
            Some("slot 0: n1 decided v0x2 but n0 decided v0x1")
        );
    }

    /// One broadcast round per node, with self-inclusion and a send-to-self,
    /// to pin down the wire-messages-only accounting convention.
    #[derive(Debug)]
    struct SelfTalk;

    impl Protocol for SelfTalk {
        fn init(&mut self, ctx: &mut Context<'_>) {
            ctx.broadcast_all(Tick::Probe);
            ctx.send_self(Tick::Short);
            let me = ctx.id();
            ctx.send(me, Tick::Long);
        }
        fn on_message(&mut self, m: &Message, ctx: &mut Context<'_>) {
            if m.downcast_ref::<Tick>() == Some(&Tick::Long) {
                ctx.decide(Value::new(7));
            }
        }
        fn on_timer(&mut self, _t: &Timer, _ctx: &mut Context<'_>) {}
    }

    #[test]
    fn self_deliveries_are_excluded_from_both_counters() {
        let n = 4;
        let result = SimulationBuilder::new(RunConfig::new(n).with_seed(5))
            .network(constant_net())
            .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(SelfTalk) })
            .build()
            .unwrap()
            .run();
        // Only the n·(n−1) broadcast transmissions touch the wire; the
        // broadcast self-copy, send_self, and the literal send-to-self are
        // all excluded — symmetrically — from sent and delivered counts.
        let wire = (n * (n - 1)) as u64;
        assert_eq!(result.honest_messages, wire);
        assert_eq!(result.sent_per_node.iter().sum::<u64>(), wire);
        assert_eq!(result.delivered_per_node.iter().sum::<u64>(), wire);
    }

    /// The last `k` events of a trace, oldest first.
    fn tail(trace: &Trace, k: usize) -> Vec<TraceEvent> {
        trace.events().skip(trace.len().saturating_sub(k)).collect()
    }

    /// Observability must not perturb the run: metrics are identical with it
    /// on or off, and a second run of the seed rebuilds the last events this
    /// run's own `Messages`-level trace ends with.
    #[test]
    fn observability_is_inert() {
        let cfg = RunConfig::new(4).with_seed(7);
        let observed = |cfg: RunConfig| {
            crash_one_builder(cfg)
                .observability(ObsConfig::default())
                .build()
                .unwrap()
        };
        let with_obs = observed(cfg.clone()).run();
        let plain = crash_one_run(7);
        let obs = with_obs.observability.clone().expect("snapshot attached");

        // Same run apart from the attached snapshot.
        let mut stripped = with_obs.clone();
        stripped.observability = None;
        assert_eq!(stripped, plain);

        // Wire deliveries only: 6 live Probe deliveries (node 3 is crashed
        // and its own deliveries are skipped before the obs hook).
        let delivered: u64 = obs.delivery_latency.iter().map(|h| h.count()).sum();
        assert_eq!(delivered, 6);
        // Every delivery took the constant 10 ms.
        for h in &obs.delivery_latency {
            if !h.is_empty() {
                assert_eq!(h.min_micros(), 10_000);
                assert_eq!(h.max_micros(), 10_000);
            }
        }
        // No classifier configured: all flows land in the fallback phase.
        assert_eq!(obs.flows.len(), 1);
        assert_eq!(obs.flows[0].phase, crate::obs::UNCLASSIFIED_PHASE);
        assert_eq!(obs.flows[0].total(), 6);
        // One decision per live node.
        let decisions: u64 = obs.decision_interval.iter().map(|h| h.count()).sum();
        assert_eq!(decisions, 3);
        // Keeping every event changes nothing but the trace, and a re-run
        // through `run_caught` ends with the same events.
        let messages = cfg.with_trace(TraceLevel::Messages);
        let own = observed(messages.clone()).run();
        let rerun = observed(messages).run_caught().expect("no panic");
        assert_eq!(
            RunResult {
                trace: Trace::default(),
                ..own.clone()
            },
            RunResult {
                trace: Trace::default(),
                ..with_obs
            }
        );
        let last = tail(&rerun.trace, DEFAULT_LAST_K);
        assert_eq!(last, tail(&own.trace, DEFAULT_LAST_K));
        assert!(last.iter().any(|e| matches!(e.kind, TraceKind::Crashed)));
    }

    /// `TalkThenDecide`, except that a delivery panics once `left` reaches 0.
    #[derive(Debug)]
    struct PanicAt {
        left: u32,
    }

    impl Protocol for PanicAt {
        fn init(&mut self, ctx: &mut Context<'_>) {
            TalkThenDecide.init(ctx);
        }
        fn on_message(&mut self, _m: &Message, _ctx: &mut Context<'_>) {
            self.left -= 1;
            assert!(self.left > 0, "panic on a delivery");
        }
        fn on_timer(&mut self, t: &Timer, ctx: &mut Context<'_>) {
            TalkThenDecide.on_timer(t, ctx);
        }
    }

    #[test]
    #[should_panic(expected = "popped an event at 1.000ms before the clock at 2.000ms")]
    fn an_event_before_the_clock_is_caught() {
        let mut sim = SimulationBuilder::new(RunConfig::new(4))
            .network(constant_net())
            .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::<TimerChurn>::default() })
            .build()
            .unwrap();
        sim.queue.schedule(
            SimTime::from_millis(1),
            EventKind::AdversaryTimer { tag: 0 },
        );
        sim.clock = SimTime::from_millis(2);
        sim.drive();
    }

    #[test]
    fn run_caught_hands_back_the_trace_up_to_a_panic() {
        let cfg = RunConfig::new(4)
            .with_seed(7)
            .with_trace(TraceLevel::Messages);
        let run = |panics: bool| {
            SimulationBuilder::new(cfg.clone())
                .network(constant_net())
                .protocols(move |id: NodeId| -> Box<dyn Protocol> {
                    let armed = panics && id == NodeId::new(1);
                    Box::new(PanicAt {
                        left: if armed { 2 } else { u32::MAX },
                    })
                })
                .build()
                .unwrap()
                .run_caught()
        };
        let full = run(false).expect("no panic").trace;
        let Err(cut) = run(true) else {
            panic!("node 1's second delivery panics")
        };
        // The trace ends with that delivery, and up to it is the same run.
        let last = cut.events().last().expect("events before the panic");
        assert_eq!(last.node, NodeId::new(1));
        assert!(matches!(last.kind, TraceKind::Delivered { .. }));
        assert!(cut.len() < full.len());
        assert!(full.events().take(cut.len()).eq(cut.events()));
    }
}
