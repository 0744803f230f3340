//! Link-level topologies: per-link connectivity, latency and bandwidth.
//!
//! A [`LinkTopology`] is an `n × n` matrix of [`LinkProfile`]s — whether the
//! directed link exists, its propagation-latency distribution, and its
//! capacity in bytes per second. Generators build the classic shapes (full
//! mesh, ring, ring-gradient partial connectivity, clustered LAN/WAN) and
//! validate every profile up front, rejecting degenerate configurations
//! (zero bandwidth, non-finite latency, empty matrices, more than
//! [`MAX_LINK_NODES`] nodes) with [`SimError::InvalidConfig`] instead of
//! silently misbehaving mid-run.
//!
//! [`BandwidthNetwork`] turns a topology into a [`NetworkModel`]: each
//! message pays a serialization delay of `wire_bytes / bandwidth` and queues
//! FIFO behind earlier transmissions still occupying the link, tracked by a
//! per-link busy-until clock. All state derives from simulated time and the
//! run RNG only, so runs stay byte-identical across scheduler backends and
//! thread counts.

use bft_sim_core::dist::Dist;
use bft_sim_core::error::SimError;
use bft_sim_core::ids::NodeId;
use bft_sim_core::network::{Delivery, LinkDecision, NetworkModel};
use bft_sim_core::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One directed link's physical characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Whether the link exists at all; messages over a disconnected link are
    /// dropped at the network layer.
    pub(crate) connected: bool,
    /// Propagation-latency distribution (milliseconds).
    pub(crate) latency: Dist,
    /// Capacity in bytes per second; `None` models an unlimited link with
    /// zero serialization delay.
    pub(crate) bandwidth: Option<u64>,
}

impl LinkProfile {
    /// A disconnected link; its latency is never sampled for delivery.
    pub(crate) fn disconnected() -> Self {
        LinkProfile {
            connected: false,
            latency: Dist::constant(0.0),
            bandwidth: None,
        }
    }

    fn validate(&self, src: usize, dst: usize) -> Result<(), SimError> {
        if self.bandwidth == Some(0) {
            return Err(SimError::InvalidConfig(format!(
                "link {src}->{dst}: bandwidth must be positive (got 0 bytes/sec)"
            )));
        }
        if !dist_params_finite(&self.latency) {
            return Err(SimError::InvalidConfig(format!(
                "link {src}->{dst}: latency parameters must be finite, got {:?}",
                self.latency
            )));
        }
        Ok(())
    }
}

/// Whether every parameter of a delay distribution is a finite float; NaN or
/// infinite parameters would poison delay arithmetic downstream.
fn dist_params_finite(d: &Dist) -> bool {
    match *d {
        Dist::Constant { value } => value.is_finite(),
        Dist::Uniform { lo, hi } => lo.is_finite() && hi.is_finite(),
        Dist::Normal { mu, sigma } => mu.is_finite() && sigma.is_finite(),
        Dist::Exponential { mean } => mean.is_finite(),
        Dist::Poisson { mean } => mean.is_finite(),
    }
}

/// The most nodes a link-level net may have. A [`LinkTopology`] and its
/// [`BandwidthNetwork`] keep one entry per directed link (64 bytes between
/// them), so this bound holds both tables to 256 MiB; figures, fuzz scales
/// and campaign grids use at most 256 nodes.
pub const MAX_LINK_NODES: usize = 2_048;

/// The node counts a link-level net may have, 1 to [`MAX_LINK_NODES`];
/// returns `n`. Every [`LinkTopology`] constructor checks it before it
/// allocates, and scenario files, `fuzz --n` and campaign manifests check it
/// where they are parsed.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for 0 or more than [`MAX_LINK_NODES`] nodes.
pub fn check_link_nodes(n: usize) -> Result<usize, SimError> {
    if n == 0 {
        Err(SimError::InvalidConfig(
            "topology needs at least one node".into(),
        ))
    } else if n > MAX_LINK_NODES {
        Err(SimError::InvalidConfig(format!(
            "a link-level net holds at most {MAX_LINK_NODES} nodes, got {n}"
        )))
    } else {
        Ok(n)
    }
}

/// An `n × n` matrix of [`LinkProfile`]s, row-major (`src * n + dst`).
///
/// Construct via the shape generators ([`full_mesh`](Self::full_mesh),
/// [`ring`](Self::ring), [`ring_gradient`](Self::ring_gradient),
/// [`clustered`](Self::clustered)) or from an explicit matrix with
/// `from_links`. All constructors validate and return
/// [`SimError::InvalidConfig`] on degenerate input.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTopology {
    n: usize,
    links: Vec<LinkProfile>,
}

impl LinkTopology {
    /// Builds a topology from an explicit row-major matrix.
    pub(crate) fn from_links(n: usize, links: Vec<LinkProfile>) -> Result<Self, SimError> {
        check_link_nodes(n)?;
        if links.len() != n * n {
            return Err(SimError::InvalidConfig(format!(
                "topology matrix for n={n} needs {} entries, got {}",
                n * n,
                links.len()
            )));
        }
        for (i, link) in links.iter().enumerate() {
            link.validate(i / n, i % n)?;
        }
        Ok(LinkTopology { n, links })
    }

    /// Every ordered pair connected with the same latency and bandwidth —
    /// the delay-only model plus capacity.
    pub fn full_mesh(n: usize, latency: Dist, bandwidth: Option<u64>) -> Result<Self, SimError> {
        check_link_nodes(n)?;
        let profile = LinkProfile {
            connected: true,
            latency,
            bandwidth,
        };
        Self::from_links(n, vec![profile; n * n])
    }

    /// A fully-connected ring embedding: latency between two nodes scales
    /// with their ring distance (`hop_ms` per hop), modelling nodes laid out
    /// on a circle where far-apart peers pay more propagation time.
    pub fn ring(n: usize, hop_ms: f64, bandwidth: Option<u64>) -> Result<Self, SimError> {
        check_link_nodes(n)?;
        if !hop_ms.is_finite() || hop_ms < 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "ring hop latency must be finite and non-negative, got {hop_ms}"
            )));
        }
        let mut links = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                let hops = ring_distance(src, dst, n);
                links.push(LinkProfile {
                    connected: true,
                    latency: Dist::constant(hop_ms * hops as f64),
                    bandwidth,
                });
            }
        }
        Self::from_links(n, links)
    }

    /// A partially-connected ring: immediate ring neighbours are always
    /// connected; the probability of a longer-range link falls off as
    /// `1 / distance`, decided by a dedicated RNG seeded with `seed` (the
    /// shape is part of the scenario, not the run's delay stream).
    /// Connectivity is symmetric; latency scales with ring distance as in
    /// [`ring`](Self::ring).
    pub fn ring_gradient(
        n: usize,
        hop_ms: f64,
        bandwidth: Option<u64>,
        seed: u64,
    ) -> Result<Self, SimError> {
        let mut topo = Self::ring(n, hop_ms, bandwidth)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        for src in 0..n {
            for dst in (src + 1)..n {
                let hops = ring_distance(src, dst, n) as u64;
                // Keep with probability 1/hops; hops == 1 always survives.
                let keep = hops <= 1 || rng.gen_range(0..hops) == 0;
                if !keep {
                    topo.links[src * n + dst] = LinkProfile::disconnected();
                    topo.links[dst * n + src] = LinkProfile::disconnected();
                }
            }
        }
        Ok(topo)
    }

    /// Two fast LANs joined by a slow WAN: nodes `0..n/2` and `n/2..n` each
    /// form a cluster with `lan` latency/bandwidth; cross-cluster links use
    /// the `wan` profile.
    pub fn clustered(
        n: usize,
        lan_latency: Dist,
        lan_bandwidth: Option<u64>,
        wan_latency: Dist,
        wan_bandwidth: Option<u64>,
    ) -> Result<Self, SimError> {
        check_link_nodes(n)?;
        let mut links = Vec::with_capacity(n * n);
        let half = n / 2;
        for src in 0..n {
            for dst in 0..n {
                let same_cluster = (src < half) == (dst < half);
                links.push(LinkProfile {
                    connected: true,
                    latency: if same_cluster {
                        lan_latency
                    } else {
                        wan_latency
                    },
                    bandwidth: if same_cluster {
                        lan_bandwidth
                    } else {
                        wan_bandwidth
                    },
                });
            }
        }
        Self::from_links(n, links)
    }

    /// The profile of the directed link `src → dst`; out-of-range nodes are
    /// treated as disconnected.
    pub(crate) fn link(&self, src: NodeId, dst: NodeId) -> LinkProfile {
        if src.index() < self.n && dst.index() < self.n {
            self.links[src.index() * self.n + dst.index()]
        } else {
            LinkProfile::disconnected()
        }
    }
}

/// Shortest hop count between two positions on an `n`-cycle.
fn ring_distance(a: usize, b: usize, n: usize) -> usize {
    let d = a.abs_diff(b);
    d.min(n - d)
}

/// Per-link FIFO transmission state.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    /// The link is serializing earlier messages until this time.
    busy_until: SimTime,
    /// Messages enqueued since the link was last idle.
    depth: u32,
}

/// A [`NetworkModel`] with per-link bandwidth and FIFO queueing over a
/// [`LinkTopology`].
///
/// Each message pays `wire_bytes / bandwidth` of serialization time on its
/// link. A message arriving while the link is still serializing earlier
/// traffic waits its turn (FIFO): its queueing delay is the remaining busy
/// time, and the per-link busy-until clock advances by its own serialization
/// time. Propagation latency is sampled from the link's distribution and
/// overlaps freely (it models the wire, not the NIC). Disconnected links
/// drop. The latency distribution is sampled on every call — including
/// drops — so the RNG stream does not depend on topology shape.
///
/// With unlimited bandwidth on a full mesh this reduces exactly to
/// [`SampledNetwork`](bft_sim_core::network::SampledNetwork): one sample per
/// message, zero queueing.
#[derive(Debug, Clone)]
pub struct BandwidthNetwork {
    topo: LinkTopology,
    state: Vec<LinkState>,
}

impl BandwidthNetwork {
    /// Wraps a validated topology with idle links.
    pub fn new(topo: LinkTopology) -> Self {
        let state = vec![
            LinkState {
                busy_until: SimTime::ZERO,
                depth: 0,
            };
            topo.n * topo.n
        ];
        BandwidthNetwork { topo, state }
    }

    /// Serialization time for `wire_bytes` on a link of `bandwidth`
    /// bytes/sec, rounded up to whole microseconds so narrow links never
    /// serialize for free.
    fn serialization(wire_bytes: u64, bandwidth: Option<u64>) -> SimDuration {
        match bandwidth {
            None => SimDuration::ZERO,
            Some(bw) => {
                let micros = wire_bytes.saturating_mul(1_000_000).div_ceil(bw);
                SimDuration::from_micros(micros)
            }
        }
    }
}

impl NetworkModel for BandwidthNetwork {
    fn decide(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        let link = self.topo.link(src, dst);
        // Sample unconditionally so the RNG stream is shape-independent.
        let prop = link.latency.sample_delay(rng);
        if !link.connected {
            return LinkDecision::Drop;
        }
        let ser = Self::serialization(wire_bytes, link.bandwidth);
        let n = self.topo.n;
        let state = &mut self.state[src.index() * n + dst.index()];
        let (queued, depth) = if now >= state.busy_until {
            state.depth = 0;
            (SimDuration::ZERO, 0)
        } else {
            let queued = state.busy_until.saturating_since(now);
            state.depth = state.depth.saturating_add(1);
            (queued, state.depth)
        };
        let start = if now >= state.busy_until {
            now
        } else {
            state.busy_until
        };
        state.busy_until = start + ser;
        LinkDecision::Deliver(Delivery {
            delay: queued + ser + prop,
            queued,
            depth,
        })
    }

    fn name(&self) -> &'static str {
        "bandwidth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected 1 ms link with unlimited bandwidth.
    fn unit_link() -> LinkProfile {
        LinkProfile {
            connected: true,
            latency: Dist::constant(1.0),
            bandwidth: None,
        }
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn invalid(e: Result<LinkTopology, SimError>) -> bool {
        matches!(e, Err(SimError::InvalidConfig(_)))
    }

    #[test]
    fn rejects_zero_nodes() {
        assert!(invalid(LinkTopology::full_mesh(
            0,
            Dist::constant(1.0),
            None
        )));
    }

    /// Every shape refuses a node count past the bound before it builds
    /// its `n × n` table (the bound itself would take 192 MiB to build).
    #[test]
    fn rejects_more_than_max_link_nodes() {
        let over = MAX_LINK_NODES + 1;
        let lan = Dist::constant(1.0);
        assert!(invalid(LinkTopology::full_mesh(over, lan, None)));
        assert!(invalid(LinkTopology::full_mesh(usize::MAX, lan, None)));
        assert!(invalid(LinkTopology::ring(over, 1.0, None)));
        assert!(invalid(LinkTopology::ring_gradient(over, 1.0, None, 7)));
        assert!(invalid(LinkTopology::clustered(over, lan, None, lan, None)));
        assert!(invalid(LinkTopology::from_links(over, Vec::new())));
        assert!(check_link_nodes(MAX_LINK_NODES).is_ok());
    }

    #[test]
    fn rejects_zero_bandwidth() {
        assert!(invalid(LinkTopology::full_mesh(
            3,
            Dist::constant(1.0),
            Some(0)
        )));
    }

    #[test]
    fn rejects_non_finite_latency() {
        assert!(invalid(LinkTopology::full_mesh(
            3,
            Dist::constant(f64::NAN),
            None
        )));
        assert!(invalid(LinkTopology::full_mesh(
            3,
            Dist::normal(250.0, f64::INFINITY),
            None
        )));
        assert!(invalid(LinkTopology::ring(4, f64::NAN, None)));
    }

    #[test]
    fn rejects_short_matrix() {
        // An "empty row" shows up as a length mismatch.
        let links = vec![unit_link(); 2];
        assert!(invalid(LinkTopology::from_links(2, links)));
        assert!(invalid(LinkTopology::from_links(2, Vec::new())));
    }

    #[test]
    fn ring_latency_scales_with_distance() {
        let topo = LinkTopology::ring(6, 10.0, None).unwrap();
        let lat = |s: u32, d: u32| topo.link(NodeId::new(s), NodeId::new(d)).latency;
        assert_eq!(lat(0, 1), Dist::constant(10.0));
        assert_eq!(lat(0, 3), Dist::constant(30.0), "opposite side, 3 hops");
        assert_eq!(lat(0, 5), Dist::constant(10.0), "wraps around");
        assert_eq!(lat(0, 0), Dist::constant(0.0));
    }

    #[test]
    fn ring_gradient_keeps_neighbours_and_is_seeded() {
        let a = LinkTopology::ring_gradient(10, 5.0, None, 7).unwrap();
        let b = LinkTopology::ring_gradient(10, 5.0, None, 7).unwrap();
        assert_eq!(a, b, "same seed, same shape");
        for i in 0..10u32 {
            let next = NodeId::new((i + 1) % 10);
            assert!(
                a.link(NodeId::new(i), next).connected,
                "ring neighbours always stay connected"
            );
            assert!(a.link(next, NodeId::new(i)).connected, "and symmetrically");
        }
        let connected = (a.links.iter().enumerate())
            .filter(|(i, l)| l.connected && i / 10 != i % 10)
            .count();
        assert!(connected < 10 * 9, "some long-range links are pruned");
        let c = LinkTopology::ring_gradient(10, 5.0, None, 8).unwrap();
        assert_ne!(a, c, "different seed, different shape");
    }

    #[test]
    fn clustered_splits_lan_and_wan() {
        let topo = LinkTopology::clustered(
            4,
            Dist::constant(1.0),
            None,
            Dist::constant(50.0),
            Some(1_000),
        )
        .unwrap();
        let lan = topo.link(NodeId::new(0), NodeId::new(1));
        let wan = topo.link(NodeId::new(0), NodeId::new(2));
        assert_eq!(lan.latency, Dist::constant(1.0));
        assert_eq!(lan.bandwidth, None);
        assert_eq!(wan.latency, Dist::constant(50.0));
        assert_eq!(wan.bandwidth, Some(1_000));
    }

    #[test]
    fn bandwidth_serializes_and_queues_fifo() {
        // 1000 bytes/sec => a 100-byte message takes 100 ms to serialize.
        let topo = LinkTopology::full_mesh(2, Dist::constant(5.0), Some(1_000)).unwrap();
        let mut net = BandwidthNetwork::new(topo);
        let mut rng = rng();
        let (a, b) = (NodeId::new(0), NodeId::new(1));

        let first = net
            .decide(a, b, SimTime::ZERO, 100, &mut rng)
            .delivery()
            .unwrap();
        assert_eq!(first.queued, SimDuration::ZERO);
        assert_eq!(first.depth, 0);
        // 100 ms serialization + 5 ms propagation.
        assert_eq!(first.delay, SimDuration::from_millis(105.0));

        // Sent while the link is still busy: queues behind the first.
        let second = net
            .decide(a, b, SimTime::ZERO, 100, &mut rng)
            .delivery()
            .unwrap();
        assert_eq!(second.queued, SimDuration::from_millis(100.0));
        assert_eq!(second.depth, 1);
        assert_eq!(second.delay, SimDuration::from_millis(205.0));

        // The reverse direction is a separate link and is idle.
        let reverse = net
            .decide(b, a, SimTime::ZERO, 100, &mut rng)
            .delivery()
            .unwrap();
        assert_eq!(reverse.queued, SimDuration::ZERO);

        // Once the link drains, queueing resets.
        let later = net
            .decide(a, b, SimTime::from_millis(300), 100, &mut rng)
            .delivery()
            .unwrap();
        assert_eq!(later.queued, SimDuration::ZERO);
        assert_eq!(later.depth, 0);
    }

    #[test]
    fn unlimited_bandwidth_never_queues() {
        let topo = LinkTopology::full_mesh(2, Dist::constant(5.0), None).unwrap();
        let mut net = BandwidthNetwork::new(topo);
        let mut rng = rng();
        for _ in 0..10 {
            let d = net
                .decide(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::ZERO,
                    1 << 20,
                    &mut rng,
                )
                .delivery()
                .unwrap();
            assert_eq!(d.queued, SimDuration::ZERO);
            assert_eq!(d.depth, 0);
            assert_eq!(d.delay, SimDuration::from_millis(5.0));
        }
    }

    #[test]
    fn disconnected_links_drop() {
        let mut links = vec![unit_link(); 4];
        links[1] = LinkProfile::disconnected(); // 0 -> 1
        let topo = LinkTopology::from_links(2, links).unwrap();
        let mut net = BandwidthNetwork::new(topo);
        let mut rng = rng();
        assert!(net
            .decide(NodeId::new(0), NodeId::new(1), SimTime::ZERO, 8, &mut rng)
            .is_drop());
        assert!(!net
            .decide(NodeId::new(1), NodeId::new(0), SimTime::ZERO, 8, &mut rng)
            .is_drop());
    }

    #[test]
    fn serialization_rounds_up() {
        assert_eq!(
            BandwidthNetwork::serialization(1, Some(3_000_000)),
            SimDuration::from_micros(1),
            "sub-microsecond serialization still costs a tick"
        );
        assert_eq!(
            BandwidthNetwork::serialization(u64::MAX, Some(1)),
            SimDuration::MAX,
            "overflow saturates"
        );
    }
}
