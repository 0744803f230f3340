//! The network-model interface.
//!
//! The network module simulates a peer-to-peer network. For every message it
//! makes a link-level *decision*: deliver after a delay, or drop at the link
//! (§III-A4, extended with the bandwidth/topology realism of the network-
//! simulation literature). The decision sees the message's wire size, so
//! models can charge serialization time against per-link capacity; simple
//! delay-only models ignore it. By choosing how delays are sampled and
//! bounded, the same interface models synchronous, partially-synchronous and
//! asynchronous networks. Rich models (GST, partitions, per-link matrices,
//! bandwidth queues, churn) live in the `bft-sim-net` crate; this module
//! defines the trait plus the trivial models the engine tests need.

use rand::rngs::SmallRng;

use crate::dist::Dist;
use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};

/// A delivery verdict from a [`NetworkModel`]: how long the message takes,
/// and how much of that time was spent queued behind earlier transmissions
/// on the same link.
///
/// `queued` and `depth` are diagnostics for the observability layer
/// (`bft-sim trace` uses them to surface bottleneck links); only `delay`
/// affects when the message arrives. Delay-only models leave both at zero
/// via [`LinkDecision::deliver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Total time from send to delivery (queueing + serialization +
    /// propagation, for models that distinguish them).
    pub delay: SimDuration,
    /// Portion of `delay` spent waiting for the link to free up.
    pub queued: SimDuration,
    /// Number of earlier transmissions still serializing on this link when
    /// the message was enqueued (0 = the link was idle).
    pub depth: u32,
}

/// The link-level fate of one message: deliver with a delay, or drop at the
/// network layer (disconnected topology, a node that is down).
///
/// A network-layer drop is distinct from an adversarial drop: the engine
/// records it as a dropped fate *without* consulting the adversary, so
/// replay schedules stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Deliver the message after [`Delivery::delay`].
    Deliver(Delivery),
    /// The link refuses the message; it is never delivered.
    Drop,
}

impl LinkDecision {
    /// A plain delivery after `delay`, with no queueing — what every
    /// delay-only model returns.
    pub fn deliver(delay: SimDuration) -> Self {
        LinkDecision::Deliver(Delivery {
            delay,
            queued: SimDuration::ZERO,
            depth: 0,
        })
    }

    /// The delivery verdict, or `None` for a drop.
    pub fn delivery(&self) -> Option<Delivery> {
        match self {
            LinkDecision::Deliver(d) => Some(*d),
            LinkDecision::Drop => None,
        }
    }

    /// The total delivery delay, or `None` for a drop.
    pub fn delay(&self) -> Option<SimDuration> {
        self.delivery().map(|d| d.delay)
    }

    /// Whether the message is dropped at the link.
    pub fn is_drop(&self) -> bool {
        matches!(self, LinkDecision::Drop)
    }
}

/// Decides the link-level fate of each message.
///
/// Implementations may be stateful (e.g. a partition schedule or per-link
/// busy clocks) and may use the run RNG; they must be deterministic given
/// the RNG stream and derive *only* from simulated quantities, so runs stay
/// byte-identical across thread counts.
pub trait NetworkModel: Send {
    /// The fate of a message of `wire_bytes` bytes sent from `src` to `dst`
    /// at time `now`.
    fn decide(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision;

    /// Human-readable model name for results and traces.
    fn name(&self) -> &'static str {
        "network"
    }
}

/// Boxed models forward to their inner model, so heterogeneous network
/// stacks can be assembled at runtime (`Box<dyn NetworkModel>` satisfies
/// `SimulationBuilder::network` like any concrete model).
impl NetworkModel for Box<dyn NetworkModel> {
    fn decide(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        (**self).decide(src, dst, now, wire_bytes, rng)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Every message takes exactly the same time. The simplest synchronous
/// network; handy for unit tests and worked examples.
///
/// # Examples
///
/// ```
/// use bft_sim_core::network::{ConstantNetwork, NetworkModel};
/// use bft_sim_core::{ids::NodeId, time::{SimDuration, SimTime}};
/// use rand::SeedableRng;
///
/// let mut net = ConstantNetwork::new(SimDuration::from_millis(100.0));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let d = net.decide(NodeId::new(0), NodeId::new(1), SimTime::ZERO, 64, &mut rng);
/// assert_eq!(d.delay(), Some(SimDuration::from_millis(100.0)));
/// ```
#[derive(Debug, Clone)]
pub struct ConstantNetwork {
    delay: SimDuration,
}

impl ConstantNetwork {
    /// Creates a network with the given fixed delay.
    pub fn new(delay: SimDuration) -> Self {
        ConstantNetwork { delay }
    }
}

impl NetworkModel for ConstantNetwork {
    fn decide(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _now: SimTime,
        _wire_bytes: u64,
        _rng: &mut SmallRng,
    ) -> LinkDecision {
        LinkDecision::deliver(self.delay)
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

/// Samples every delay i.i.d. from a distribution, unbounded — the basic
/// asynchronous-style model; the richer bounded/GST/bandwidth variants live
/// in `bft-sim-net`.
#[derive(Debug, Clone)]
pub struct SampledNetwork {
    dist: Dist,
}

impl SampledNetwork {
    /// Creates a network sampling delays from `dist`.
    pub fn new(dist: Dist) -> Self {
        SampledNetwork { dist }
    }

    /// The underlying distribution.
    pub fn dist(&self) -> Dist {
        self.dist
    }
}

impl NetworkModel for SampledNetwork {
    fn decide(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _now: SimTime,
        _wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        LinkDecision::deliver(self.dist.sample_delay(rng))
    }

    fn name(&self) -> &'static str {
        "sampled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_network_is_constant() {
        let mut net = ConstantNetwork::new(SimDuration::from_millis(250.0));
        let mut rng = SmallRng::seed_from_u64(0);
        for i in 0..10 {
            let d = net
                .decide(
                    NodeId::new(i),
                    NodeId::new(i + 1),
                    SimTime::ZERO,
                    64,
                    &mut rng,
                )
                .delay()
                .expect("constant network always delivers");
            assert_eq!(d, SimDuration::from_millis(250.0));
        }
    }

    #[test]
    fn sampled_network_uses_distribution() {
        let mut net = SampledNetwork::new(Dist::uniform(10.0, 20.0));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = net
                .decide(NodeId::new(0), NodeId::new(1), SimTime::ZERO, 64, &mut rng)
                .delay()
                .expect("sampled network always delivers")
                .as_millis_f64();
            assert!((10.0..20.0).contains(&d), "delay {d}");
        }
    }

    #[test]
    fn boxed_models_forward() {
        let mut boxed: Box<dyn NetworkModel> =
            Box::new(ConstantNetwork::new(SimDuration::from_millis(5.0)));
        let mut rng = SmallRng::seed_from_u64(2);
        let d = boxed.decide(NodeId::new(0), NodeId::new(1), SimTime::ZERO, 1, &mut rng);
        assert_eq!(d.delay(), Some(SimDuration::from_millis(5.0)));
        assert_eq!(boxed.name(), "constant");
    }

    #[test]
    fn decision_helpers_classify() {
        let deliver = LinkDecision::deliver(SimDuration::from_millis(1.0));
        assert!(!deliver.is_drop());
        assert_eq!(deliver.delivery().unwrap().queued, SimDuration::ZERO);
        assert_eq!(deliver.delivery().unwrap().depth, 0);
        let drop = LinkDecision::Drop;
        assert!(drop.is_drop());
        assert_eq!(drop.delay(), None);
        assert_eq!(drop.delivery(), None);
    }
}
