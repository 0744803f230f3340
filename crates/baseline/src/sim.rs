//! The packet-level simulator core.
//!
//! Where the event-level engine (`bft-sim-core`) spends **one** event per
//! protocol message, this baseline spends one event per *packet hop* plus
//! reassembly and a serialised CPU/crypto event per message — the cost
//! profile of simulating BFT protocols on top of a full network simulator
//! like ns-2, as BFTSim does. Combined with the `n²`-connection memory
//! model it reproduces the two findings of the paper's Fig. 2: the ~500×
//! slowdown at 32 nodes and the out-of-memory failure beyond 32.

use std::collections::{BinaryHeap, HashMap};

use bft_sim_core::exec::{Dispatcher, Effect};
use bft_sim_core::ids::{NodeId, TimerId};
use bft_sim_core::message::Message;
use bft_sim_core::payload::PayloadCell;
use bft_sim_core::protocol::{Protocol, ProtocolFactory};
use bft_sim_core::time::{SimDuration, SimTime};
use bft_sim_core::value::Value;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::BaselineConfig;

/// Errors from the baseline simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The modelled memory footprint exceeded the configured budget —
    /// the baseline's analogue of BFTSim's crash beyond 32 nodes.
    OutOfMemory {
        /// Bytes the run would have needed.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl core::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BaselineError::OutOfMemory { required, budget } => write!(
                f,
                "out of memory: modelled footprint {required} bytes exceeds budget {budget}"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Result of a completed baseline run.
#[derive(Debug)]
pub struct BaselineResult {
    /// Whether the time cap was hit before the decision target.
    pub timed_out: bool,
    /// Events processed (packet hops + reassemblies + CPU + timers).
    pub events_processed: u64,
    /// Packets transmitted.
    pub packets_sent: u64,
    /// Protocol messages transmitted.
    pub messages_sent: u64,
    /// Per-node decided `(time, value)` sequences (for cross-validation
    /// against the event-level engine).
    pub decided: Vec<Vec<(SimTime, Value)>>,
}

impl BaselineResult {
    /// Number of slots every node decided.
    pub fn decisions_completed(&self) -> u64 {
        self.decided
            .iter()
            .map(|d| d.len() as u64)
            .min()
            .unwrap_or(0)
    }
}

const HOPS_PER_PACKET: u8 = 3; // sender NIC -> switch -> receiver NIC
const PACKET_HEADER_BYTES: u64 = 128;
const SERIALISATION_GAP_US: u64 = 20; // per-fragment staggering

struct Packet {
    msg_id: u64,
    frag_idx: usize,
    frag_total: usize,
    dst: NodeId,
    /// The protocol payload rides on the last fragment.
    payload: Option<(NodeId, PayloadCell)>,
    /// Per-hop residual delay.
    hop_delay: SimDuration,
    /// Simulated wire bytes, checksummed at each hop.
    wire: Vec<u8>,
}

enum Ev {
    Hop {
        hop: u8,
        packet: Box<Packet>,
    },
    CpuDone {
        node: NodeId,
        src: NodeId,
        payload: PayloadCell,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        payload: PayloadCell,
    },
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The packet-level baseline simulator hosting `bft-sim-core` protocols.
pub struct BaselineSim {
    cfg: BaselineConfig,
    nodes: Vec<Box<dyn Protocol>>,
    dispatcher: Dispatcher,
    rng: SmallRng,
    queue: BinaryHeap<Scheduled>,
    seq: u64,
    clock: SimTime,
    cancelled: std::collections::HashSet<TimerId>,
    /// Fragment arrival counts per in-flight message.
    reassembly: HashMap<u64, usize>,
    next_msg_id: u64,
    busy_until: Vec<SimTime>,
    decided: Vec<Vec<(SimTime, Value)>>,
    events: u64,
    packets: u64,
    messages: u64,
    live_packet_bytes: u64,
}

impl core::fmt::Debug for BaselineSim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BaselineSim")
            .field("cfg", &self.cfg)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl BaselineSim {
    /// Builds the simulator, allocating (and accounting) the per-connection
    /// buffers.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::OutOfMemory`] when the `n²` connection
    /// buffers alone exceed the memory budget — at the defaults this
    /// happens for every `n > 32`, like BFTSim in Fig. 2.
    pub fn new<F: ProtocolFactory>(cfg: BaselineConfig, factory: F) -> Result<Self, BaselineError> {
        let base = cfg.modeled_base_bytes();
        if base > cfg.memory_budget {
            return Err(BaselineError::OutOfMemory {
                required: base,
                budget: cfg.memory_budget,
            });
        }
        let nodes: Vec<Box<dyn Protocol>> =
            NodeId::all(cfg.n).map(|id| factory.create(id)).collect();
        let dispatcher = Dispatcher::new(cfg.n, cfg.f, cfg.lambda);
        Ok(BaselineSim {
            rng: SmallRng::seed_from_u64(cfg.seed),
            dispatcher,
            nodes,
            queue: BinaryHeap::new(),
            seq: 0,
            clock: SimTime::ZERO,
            cancelled: Default::default(),
            reassembly: HashMap::new(),
            next_msg_id: 0,
            busy_until: vec![SimTime::ZERO; cfg.n],
            decided: vec![Vec::new(); cfg.n],
            events: 0,
            packets: 0,
            messages: 0,
            live_packet_bytes: 0,
            cfg,
        })
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, ev });
    }

    fn account(&mut self, delta: i64) -> Result<(), BaselineError> {
        if delta >= 0 {
            self.live_packet_bytes += delta as u64;
        } else {
            self.live_packet_bytes = self.live_packet_bytes.saturating_sub((-delta) as u64);
        }
        let total = self.cfg.modeled_base_bytes() + self.live_packet_bytes;
        if total > self.cfg.memory_budget {
            return Err(BaselineError::OutOfMemory {
                required: total,
                budget: self.cfg.memory_budget,
            });
        }
        Ok(())
    }

    /// ns-2-style per-hop work: checksum the wire bytes.
    fn checksum(wire: &[u8]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &b in wire {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    fn send_message(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: PayloadCell,
    ) -> Result<(), BaselineError> {
        self.messages += 1;
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let frag_total = self.cfg.packets_per_message();
        let end_to_end = self.cfg.delay.sample_delay(&mut self.rng);
        let hop_delay = SimDuration::from_micros(end_to_end.as_micros() / HOPS_PER_PACKET as u64);
        self.reassembly.insert(msg_id, 0);
        let mut payload = Some((src, payload));
        for frag_idx in 0..frag_total {
            let bytes = self
                .cfg
                .mtu
                .min(self.cfg.message_bytes - frag_idx * self.cfg.mtu);
            let wire = vec![(msg_id as u8) ^ (frag_idx as u8); bytes];
            self.account((bytes as u64 + PACKET_HEADER_BYTES) as i64)?;
            self.packets += 1;
            let packet = Box::new(Packet {
                msg_id,
                frag_idx,
                frag_total,
                dst,
                payload: if frag_idx == frag_total - 1 {
                    payload.take()
                } else {
                    None
                },
                hop_delay,
                wire,
            });
            let depart = self.clock
                + SimDuration::from_micros(SERIALISATION_GAP_US * frag_idx as u64)
                + packet.hop_delay;
            self.push(depart, Ev::Hop { hop: 1, packet });
        }
        Ok(())
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect>) -> Result<(), BaselineError> {
        for effect in effects {
            match effect {
                Effect::Send { dst, payload } => self.send_message(node, dst, payload)?,
                Effect::SendSelf { delay, payload } => {
                    // Local delivery: no packets, straight to the CPU queue.
                    self.push(
                        self.clock + delay,
                        Ev::CpuDone {
                            node,
                            src: node,
                            payload,
                        },
                    );
                }
                Effect::SetTimer { id, delay, payload } => {
                    self.push(self.clock + delay, Ev::Timer { node, id, payload });
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
                Effect::Decide(value) => {
                    self.decided[node.index()].push((self.clock, value));
                }
                Effect::EnterView(_) | Effect::Custom { .. } => {}
            }
        }
        Ok(())
    }

    fn target_met(&self) -> bool {
        self.decided
            .iter()
            .all(|d| d.len() as u64 >= self.cfg.target_decisions)
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::OutOfMemory`] if the modelled footprint
    /// (base + in-flight packets) ever exceeds the budget.
    pub fn run(mut self) -> Result<BaselineResult, BaselineError> {
        for id in NodeId::all(self.cfg.n) {
            let mut node = std::mem::replace(
                &mut self.nodes[id.index()],
                Box::new(bft_sim_core::exec::NullProtocol),
            );
            let effects = self.dispatcher.call(id, self.clock, |ctx| node.init(ctx));
            self.nodes[id.index()] = node;
            self.apply_effects(id, effects)?;
        }

        let mut timed_out = false;
        while !self.target_met() {
            let Some(Scheduled { at, ev, .. }) = self.queue.pop() else {
                timed_out = true;
                break;
            };
            if at.saturating_since(SimTime::ZERO) > self.cfg.time_cap {
                timed_out = true;
                self.clock = SimTime::ZERO + self.cfg.time_cap;
                break;
            }
            self.clock = at;
            self.events += 1;
            // P2-interpreter model: BFTSim evaluates its declarative rule
            // table on every event; fold a hash chain of the same length.
            let mut rule_state = self.events;
            for rule in 0..self.cfg.p2_rules as u64 {
                rule_state = rule_state.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17) ^ rule;
            }
            std::hint::black_box(rule_state);
            match ev {
                Ev::Hop { hop, mut packet } => {
                    // Heavyweight per-hop processing, like a real network
                    // simulator: checksum the frame at every hop.
                    let sum = Self::checksum(&packet.wire);
                    packet.wire[0] ^= (sum & 1) as u8; // keep the work observable
                    if hop < HOPS_PER_PACKET {
                        let at = self.clock + packet.hop_delay;
                        self.push(
                            at,
                            Ev::Hop {
                                hop: hop + 1,
                                packet,
                            },
                        );
                    } else {
                        // Final hop: free the wire bytes, try reassembly.
                        debug_assert!(packet.frag_idx < packet.frag_total);
                        let bytes = packet.wire.len() as u64 + PACKET_HEADER_BYTES;
                        self.account(-(bytes as i64))?;
                        let done = {
                            let got = self.reassembly.entry(packet.msg_id).or_insert(0);
                            *got += 1;
                            *got == packet.frag_total
                        };
                        if done {
                            self.reassembly.remove(&packet.msg_id);
                        }
                        if let Some((src, payload)) = packet.payload.take() {
                            debug_assert!(done, "payload rides the last fragment");
                            // Serialise crypto verification on the node CPU.
                            let node = packet.dst;
                            let start = self.busy_until[node.index()].max(self.clock);
                            let end = start + SimDuration::from_micros(self.cfg.crypto_us);
                            self.busy_until[node.index()] = end;
                            self.push(end, Ev::CpuDone { node, src, payload });
                        }
                    }
                }
                Ev::CpuDone { node, src, payload } => {
                    let msg = Message::new(src, node, self.clock, payload);
                    let mut n = std::mem::replace(
                        &mut self.nodes[node.index()],
                        Box::new(bft_sim_core::exec::NullProtocol),
                    );
                    let effects = self
                        .dispatcher
                        .call(node, self.clock, |ctx| n.on_message(&msg, ctx));
                    self.nodes[node.index()] = n;
                    self.apply_effects(node, effects)?;
                }
                Ev::Timer { node, id, payload } => {
                    if self.cancelled.remove(&id) {
                        continue;
                    }
                    let timer = bft_sim_core::exec::timer_from_parts(id, payload);
                    let mut n = std::mem::replace(
                        &mut self.nodes[node.index()],
                        Box::new(bft_sim_core::exec::NullProtocol),
                    );
                    let effects = self
                        .dispatcher
                        .call(node, self.clock, |ctx| n.on_timer(&timer, ctx));
                    self.nodes[node.index()] = n;
                    self.apply_effects(node, effects)?;
                }
            }
        }

        Ok(BaselineResult {
            timed_out,
            events_processed: self.events,
            packets_sent: self.packets,
            messages_sent: self.messages,
            decided: self.decided,
        })
    }
}
