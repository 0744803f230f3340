//! Timing shims around the trait objects the engine accepts.
//!
//! Every layer is measured from outside: a shim wraps the real network,
//! adversary, protocol or observer, forwards each call unchanged, and records
//! the call count and the host time the inner call took. The shims also log
//! the scheduler operations they can see (a `schedule` for every routed
//! delivery, a `pop` for every dispatched event) so the scheduler's share can
//! be replayed against a bare backend afterwards.
//!
//! Shims must be inert: a run with all of them installed returns the same
//! `RunResult` as the bare run (see the tests in `single.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::context::Context;
use bft_sim_core::engine::StepObserver;
use bft_sim_core::event::Timer;
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::network::{LinkDecision, NetworkModel};
use bft_sim_core::protocol::{Protocol, ProtocolFactory};
use bft_sim_core::time::{SimDuration, SimTime};
use bft_sim_core::value::Value;
use rand::rngs::SmallRng;

/// Marks a `pop` in the scheduler operation log; any other entry is a
/// `schedule` at that absolute simulated time in microseconds.
pub const POP: u64 = u64::MAX;

/// Calls into one layer and the host time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Agg {
    fn add(&mut self, busy: Duration) {
        self.calls += 1;
        self.busy_ns += busy.as_nanos() as u64;
    }

    /// Busy seconds with the cost of the timer reads themselves removed.
    pub fn busy_s(&self, timer_pair_ns: f64) -> f64 {
        (self.busy_ns as f64 - self.calls as f64 * timer_pair_ns).max(0.0) / 1e9
    }
}

/// Everything the shims of one run record.
#[derive(Debug)]
pub struct TraceState {
    pub epoch: Instant,
    pub net: Agg,
    pub net_drops: u64,
    pub net_queued: u64,
    pub adv_attack: Agg,
    /// Adversary `init` and `on_timer` calls.
    pub adv_other: Agg,
    pub fate_deliver: u64,
    pub fate_delayed: u64,
    pub fate_dropped: u64,
    pub proto_init: Agg,
    pub proto_message: Agg,
    pub proto_timer: Agg,
    pub observer: Agg,
    /// Start of the first and end of the last `Protocol::init`, ns since
    /// `epoch`: the init phase as seen from outside.
    pub init_span: Option<(u64, u64)>,
    /// Scheduler operations in engine order (see [`POP`]).
    pub ops: Vec<u64>,
    /// Timers seen firing. Their set time is invisible from outside (the
    /// `Context` buffers actions privately), so the log schedules them at
    /// their fire time; cancelled timers never appear at all.
    pub timers_fired: u64,
    /// Routed messages a node addressed to itself, by (node, arrival time):
    /// they look like local self-deliveries to the protocol shim but were
    /// already logged by the adversary shim.
    routed_self: HashMap<(u32, u64), u32>,
}

pub type Shared = Arc<Mutex<TraceState>>;

impl TraceState {
    pub fn shared(ops_capacity: usize) -> Shared {
        Arc::new(Mutex::new(TraceState {
            epoch: Instant::now(),
            net: Agg::default(),
            net_drops: 0,
            net_queued: 0,
            adv_attack: Agg::default(),
            adv_other: Agg::default(),
            fate_deliver: 0,
            fate_delayed: 0,
            fate_dropped: 0,
            proto_init: Agg::default(),
            proto_message: Agg::default(),
            proto_timer: Agg::default(),
            observer: Agg::default(),
            init_span: None,
            ops: Vec::with_capacity(ops_capacity),
            timers_fired: 0,
            routed_self: HashMap::new(),
        }))
    }

    /// Every shim call made, for the timer-cost correction.
    pub fn shim_calls(&self) -> u64 {
        [
            self.net,
            self.adv_attack,
            self.adv_other,
            self.proto_init,
            self.proto_message,
            self.proto_timer,
            self.observer,
        ]
        .iter()
        .map(|a| a.calls)
        .sum()
    }
}

fn lock(state: &Shared) -> MutexGuard<'_, TraceState> {
    state
        .lock()
        .expect("no shim panics while holding the trace state")
}

/// Mean cost in nanoseconds of the `Instant::now()` / `elapsed()` pair every
/// shim call pays, measured at start-up.
pub fn timer_pair_ns() -> f64 {
    const N: u32 = 1_000_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t.elapsed()).as_nanos();
    }
    total as f64 / f64::from(N)
}

/// Mean host cost in nanoseconds of everything one shim call adds — two
/// clock reads, the lock, the counters, a log entry — measured at start-up.
/// About one clock read of it ([`timer_pair_ns`]) lands inside the shim's own
/// busy time; the rest lands in whatever encloses the call, which for the
/// engine is the residual.
pub fn shim_call_ns() -> f64 {
    const N: usize = 1_000_000;
    let state = TraceState::shared(N);
    let start = Instant::now();
    for _ in 0..N {
        let t = Instant::now();
        let busy = std::hint::black_box(t.elapsed());
        let mut s = lock(&state);
        s.net.add(busy);
        s.ops.push(POP);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

pub struct TimedNetwork<N> {
    pub inner: N,
    pub state: Shared,
}

impl<N: NetworkModel> NetworkModel for TimedNetwork<N> {
    fn decide(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        let t = Instant::now();
        let decision = self.inner.decide(src, dst, now, wire_bytes, rng);
        let busy = t.elapsed();
        let mut s = lock(&self.state);
        s.net.add(busy);
        match decision {
            LinkDecision::Drop => s.net_drops += 1,
            LinkDecision::Deliver(d) if d.queued > SimDuration::ZERO => s.net_queued += 1,
            LinkDecision::Deliver(_) => {}
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

pub struct TimedAdversary<A> {
    pub inner: A,
    pub state: Shared,
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        let t = Instant::now();
        self.inner.init(api);
        let busy = t.elapsed();
        lock(&self.state).adv_other.add(busy);
    }

    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        let now = api.now();
        let t = Instant::now();
        let fate = self.inner.attack(msg, proposed, api);
        let busy = t.elapsed();
        let mut s = lock(&self.state);
        s.adv_attack.add(busy);
        match fate {
            Fate::Deliver(delay) => {
                if delay == proposed {
                    s.fate_deliver += 1;
                } else {
                    s.fate_delayed += 1;
                }
                // The fate is final here (no fault injector is installed),
                // so this is exactly the `schedule` the engine makes next.
                let at = (now + delay).as_micros();
                s.ops.push(at);
                if msg.src() == msg.dst() {
                    *s.routed_self.entry((msg.dst().as_u32(), at)).or_insert(0) += 1;
                }
            }
            Fate::Drop => s.fate_dropped += 1,
        }
        fate
    }

    fn on_timer(&mut self, tag: u64, api: &mut AdversaryApi<'_>) {
        let now = api.now().as_micros();
        let t = Instant::now();
        self.inner.on_timer(tag, api);
        let busy = t.elapsed();
        let mut s = lock(&self.state);
        s.adv_other.add(busy);
        s.timers_fired += 1;
        s.ops.extend([now, POP]);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

pub struct TimedFactory<F> {
    pub inner: F,
    pub state: Shared,
}

impl<F: ProtocolFactory> ProtocolFactory for TimedFactory<F> {
    fn create(&self, id: NodeId) -> Box<dyn Protocol> {
        Box::new(TimedProtocol {
            inner: self.inner.create(id),
            state: Arc::clone(&self.state),
        })
    }
}

struct TimedProtocol {
    inner: Box<dyn Protocol>,
    state: Shared,
}

impl core::fmt::Debug for TimedProtocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.inner.fmt(f)
    }
}

impl Protocol for TimedProtocol {
    fn init(&mut self, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.inner.init(ctx);
        let busy = t.elapsed();
        let mut s = lock(&self.state);
        s.proto_init.add(busy);
        let start = t.duration_since(s.epoch).as_nanos() as u64;
        let end = s.epoch.elapsed().as_nanos() as u64;
        s.init_span = Some((s.init_span.map_or(start, |(first, _)| first), end));
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let now = ctx.now().as_micros();
        let t = Instant::now();
        self.inner.on_message(msg, ctx);
        let busy = t.elapsed();
        let mut s = lock(&self.state);
        s.proto_message.add(busy);
        // Injected messages and local self-deliveries bypass the network and
        // adversary, so no shim saw them scheduled; they were scheduled no
        // later than now. Logged before this handler's own sends, which the
        // engine routes only after the handler returns.
        let routed = !msg.is_injected()
            && (msg.src() != msg.dst() || {
                match s.routed_self.get_mut(&(msg.dst().as_u32(), now)) {
                    Some(pending) if *pending > 0 => {
                        *pending -= 1;
                        true
                    }
                    _ => false,
                }
            });
        if !routed {
            s.ops.push(now);
        }
        s.ops.push(POP);
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let now = ctx.now().as_micros();
        let t = Instant::now();
        self.inner.on_timer(timer, ctx);
        let busy = t.elapsed();
        let mut s = lock(&self.state);
        s.proto_timer.add(busy);
        s.timers_fired += 1;
        s.ops.extend([now, POP]);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

pub struct TimedObserver<O> {
    pub inner: O,
    pub state: Shared,
}

impl<O: StepObserver> StepObserver for TimedObserver<O> {
    fn on_event(&mut self, now: SimTime) {
        let t = Instant::now();
        self.inner.on_event(now);
        let busy = t.elapsed();
        lock(&self.state).observer.add(busy);
    }

    fn on_decision(&mut self, now: SimTime, node: NodeId, slot: u64, value: Value) {
        let t = Instant::now();
        self.inner.on_decision(now, node, slot, value);
        let busy = t.elapsed();
        lock(&self.state).observer.add(busy);
    }
}
