//! Extending the simulator: implement a *custom* BFT protocol and a
//! *custom* attack against it, exactly as a user of the paper's tool would
//! (§III-A3 and §III-C say a protocol needs only `onMsgEvent`/`onTimeEvent`
//! and an attacker only `attack`/`onTimeEvent`).
//!
//! The protocol here is a toy one-shot "echo broadcast" consensus: the
//! fixed leader broadcasts its value, every node echoes it, and a node
//! decides once it has n − f matching echoes. The attack delays the
//! leader's broadcast, demonstrating the global attacker's power.
//!
//! ```text
//! cargo run --release --example custom_protocol
//! ```

use bft_simulator::prelude::*;
use std::collections::HashSet;

/// Wire messages of the toy protocol.
#[derive(Debug, Clone, PartialEq)]
enum EchoMsg {
    /// Leader's value announcement.
    Propose(u64),
    /// A node's echo of the value it saw.
    Echo(u64),
}

/// Timer payload: resend the proposal if nothing happened.
#[derive(Debug, Clone, PartialEq)]
struct Resend;

#[derive(Debug)]
struct EchoConsensus {
    echoes: HashSet<NodeId>,
    echoed: bool,
    decided: bool,
}

impl EchoConsensus {
    fn new() -> Self {
        EchoConsensus {
            echoes: HashSet::new(),
            echoed: false,
            decided: false,
        }
    }
}

impl Protocol for EchoConsensus {
    fn init(&mut self, ctx: &mut Context<'_>) {
        if ctx.id() == NodeId::new(0) {
            ctx.broadcast(EchoMsg::Propose(99));
            // Defensive resend in case the adversary tampers with delivery.
            ctx.set_timer(ctx.lambda(), Resend);
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        match msg.downcast_ref::<EchoMsg>() {
            Some(&EchoMsg::Propose(v)) if !self.echoed => {
                self.echoed = true;
                self.echoes.insert(ctx.id());
                ctx.broadcast(EchoMsg::Echo(v));
                ctx.report_fmt("echo", format_args!("value={v}"));
            }
            Some(&EchoMsg::Echo(v)) => {
                self.echoes.insert(msg.src());
                if !self.echoed {
                    self.echoed = true;
                    self.echoes.insert(ctx.id());
                    ctx.broadcast(EchoMsg::Echo(v));
                }
                if !self.decided && self.echoes.len() >= ctx.n() - ctx.f() {
                    self.decided = true;
                    ctx.decide(Value::new(v));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        if timer.downcast_ref::<Resend>().is_some() && !self.decided {
            ctx.broadcast(EchoMsg::Propose(99));
            ctx.set_timer(ctx.lambda(), Resend);
        }
    }

    fn name(&self) -> &'static str {
        "echo-consensus"
    }
}

/// A custom attack: hold the leader's proposal hostage for two seconds.
/// Because every message crosses the attacker, this needs four lines of
/// logic — the flexibility the paper's Table II advertises.
struct SlowLoris;

impl Adversary for SlowLoris {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        _api: &mut AdversaryApi<'_>,
    ) -> Fate {
        if matches!(msg.downcast_ref::<EchoMsg>(), Some(EchoMsg::Propose(_))) {
            Fate::Deliver(proposed + SimDuration::from_millis(2000.0))
        } else {
            Fate::Deliver(proposed)
        }
    }

    fn name(&self) -> &'static str {
        "slow-loris"
    }
}

fn run(with_attack: bool) -> RunResult {
    let cfg = RunConfig::new(7)
        .with_seed(5)
        .with_lambda_ms(5000.0)
        .with_time_cap(SimDuration::from_secs(60.0));
    let builder = SimulationBuilder::new(cfg)
        .network(SampledNetwork::new(Dist::normal(100.0, 20.0)))
        .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(EchoConsensus::new()) });
    let builder = if with_attack {
        builder.adversary(SlowLoris)
    } else {
        builder
    };
    builder.build().expect("valid config").run()
}

fn main() {
    let clean = run(false);
    let attacked = run(true);
    assert!(clean.is_clean() && attacked.is_clean());
    println!(
        "echo-consensus, 7 nodes, N(100, 20):  {:.2} s / {} messages",
        clean.latency().unwrap().as_secs_f64(),
        clean.honest_messages
    );
    println!(
        "same run under the slow-loris attack: {:.2} s / {} messages",
        attacked.latency().unwrap().as_secs_f64(),
        attacked.honest_messages
    );
    println!("(the held-back proposal shifts consensus by the injected 2 s)");
}
