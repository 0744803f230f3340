//! # bft-sim-core
//!
//! The discrete-event simulation engine at the heart of the BFT simulator — a
//! Rust reproduction of *"An Efficient and Flexible Simulator for Byzantine
//! Fault-Tolerant Protocols"* (DSN 2022).
//!
//! The engine mirrors the paper's five-component architecture (§III-A):
//!
//! * **Controller + event queue** — [`engine::Simulation`] pops timestamped
//!   events from a deterministic priority queue and advances a virtual clock;
//!   no wall-clock time is ever consulted.
//! * **Consensus module** — implement [`protocol::Protocol`]
//!   (`on_message` / `on_timer`, reporting through [`context::Context`]) to
//!   simulate any BFT protocol. The eight protocols evaluated in the paper
//!   live in the `bft-sim-protocols` crate.
//! * **Network module** — [`network::NetworkModel`] assigns each message a
//!   delay sampled from a configurable [`dist::Dist`]; rich models (bounds,
//!   GST, partitions) live in `bft-sim-net`.
//! * **Attacker module** — a single *global* [`adversary::Adversary`]
//!   intercepts every message (rushing by construction) and may drop, delay,
//!   modify or inject messages and adaptively corrupt up to `f` nodes.
//! * **Validator module** — [`validator::Validator`] replays recorded
//!   delivery schedules and cross-checks decisions between independent
//!   simulators.
//!
//! ## Quickstart
//!
//! ```
//! use bft_sim_core::prelude::*;
//! use bft_sim_core::network::ConstantNetwork;
//!
//! // A toy "protocol": every node decides the constant 7 immediately.
//! #[derive(Debug)]
//! struct Fixed;
//! impl Protocol for Fixed {
//!     fn init(&mut self, ctx: &mut Context<'_>) { ctx.decide(Value::new(7)); }
//!     fn on_message(&mut self, _m: &Message, _c: &mut Context<'_>) {}
//!     fn on_timer(&mut self, _t: &Timer, _c: &mut Context<'_>) {}
//! }
//!
//! let result = SimulationBuilder::new(RunConfig::new(4).with_seed(1))
//!     .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
//!     .protocols(|_id: NodeId| -> Box<dyn Protocol> { Box::new(Fixed) })
//!     .build()
//!     .expect("config is valid")
//!     .run();
//!
//! assert_eq!(result.decisions_completed(), 1);
//! assert!(result.safety_violation.is_none());
//! ```

pub mod adversary;
pub mod buggify;
pub mod campaign;
pub mod config;
pub mod context;
pub mod dist;
pub mod engine;
pub mod error;
pub mod event;
pub mod fasthash;
pub mod ids;
pub mod json;
pub mod message;
pub mod metrics;
pub mod network;
pub mod obs;
pub mod oracle;
pub mod payload;
pub mod protocol;
pub mod scheduler;
pub mod smallstr;
mod spine;
pub mod sweep;
pub mod time;
pub mod trace;
pub mod validator;
pub mod value;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::adversary::{Adversary, AdversaryApi, Fate, NullAdversary};
    pub use crate::buggify::{FaultAction, FaultInjector, FaultKind, FaultPreset, FaultStats};
    pub use crate::config::RunConfig;
    pub use crate::context::Context;
    pub use crate::dist::Dist;
    pub use crate::engine::{Simulation, SimulationBuilder};
    pub use crate::error::SimError;
    pub use crate::event::Timer;
    pub use crate::ids::{NodeId, TimerId};
    pub use crate::message::Message;
    pub use crate::metrics::{Cell, RunResult};
    pub use crate::network::{Delivery, LinkDecision, NetworkModel};
    pub use crate::obs::{Histogram, ObsConfig, Observability, PhaseClassifier};
    pub use crate::oracle::{
        Expectations, Oracle, OracleInput, OracleSuite, OracleViolation, OutageWindow, ValueDomain,
    };
    pub use crate::protocol::{Protocol, ProtocolFactory};
    pub use crate::scheduler::{Scheduler, SchedulerKind, SchedulerStats};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Trace, TraceEvent, TraceKind, TraceLevel};
    pub use crate::validator::{DeliverySchedule, Validator};
    pub use crate::value::Value;
}
