//! Network models for the three classic timing assumptions (§II-B).
//!
//! * **Synchronous** — delays bounded by a *known* bound `b ≤ λ`:
//!   [`BoundedNetwork`] with `bound ≤` the protocol's λ.
//! * **Partially synchronous** — delays bounded by a bound *unknown* to the
//!   protocol ([`BoundedNetwork`] with any bound), or a network that only
//!   stabilises after a global stabilisation time ([`GstNetwork`]).
//! * **Asynchronous** — no bound:
//!   [`SampledNetwork`](bft_sim_core::network::SampledNetwork) from the core
//!   crate.

use bft_sim_core::dist::Dist;
use bft_sim_core::ids::NodeId;
use bft_sim_core::network::{LinkDecision, NetworkModel};
use bft_sim_core::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;

/// Samples delays from a distribution and clamps them to `[0, bound]`.
///
/// With `bound` known to the protocol (i.e. `bound ≤ λ`) this is the paper's
/// synchronous model; with `bound` hidden from the protocol it is the
/// partially-synchronous model (§III-A4).
///
/// # Examples
///
/// ```
/// use bft_sim_net::models::BoundedNetwork;
/// use bft_sim_core::{dist::Dist, ids::NodeId, network::NetworkModel,
///                    time::SimTime};
/// use rand::SeedableRng;
///
/// let mut net = BoundedNetwork::new(Dist::normal(250.0, 50.0), 1000.0);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let d = net
///     .decide(NodeId::new(0), NodeId::new(1), SimTime::ZERO, 64, &mut rng)
///     .delay()
///     .unwrap();
/// assert!(d.as_millis_f64() <= 1000.0);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedNetwork {
    dist: Dist,
    bound: SimDuration,
}

impl BoundedNetwork {
    /// Creates a network sampling from `dist`, clamped to `bound_ms`.
    pub fn new(dist: Dist, bound_ms: f64) -> Self {
        BoundedNetwork {
            dist,
            bound: SimDuration::from_millis(bound_ms),
        }
    }

    /// The hard delay bound.
    pub fn bound(&self) -> SimDuration {
        self.bound
    }
}

impl NetworkModel for BoundedNetwork {
    fn decide(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _now: SimTime,
        _wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        LinkDecision::deliver(self.dist.sample_delay(rng).min(self.bound))
    }

    fn name(&self) -> &'static str {
        "bounded"
    }
}

/// A partially-synchronous network with an explicit global stabilisation
/// time (GST): before GST delays are sampled from `pre` (typically slow and
/// erratic, or effectively unbounded); after GST they are sampled from
/// `post` and clamped to `post_bound`. Messages in flight at GST are
/// delivered no later than `GST + post_bound`, matching the classic
/// Dwork–Lynch–Stockmeyer definition.
#[derive(Debug, Clone)]
pub struct GstNetwork {
    pre: Dist,
    post: Dist,
    gst: SimTime,
    post_bound: SimDuration,
}

impl GstNetwork {
    /// Creates a GST network. `gst_ms` is the stabilisation time;
    /// `post_bound_ms` is the (protocol-unknown) bound after GST.
    pub fn new(pre: Dist, post: Dist, gst_ms: f64, post_bound_ms: f64) -> Self {
        GstNetwork {
            pre,
            post,
            gst: SimTime::from_micros((gst_ms.max(0.0) * 1_000.0).round() as u64),
            post_bound: SimDuration::from_millis(post_bound_ms),
        }
    }

    /// The stabilisation time.
    pub fn gst(&self) -> SimTime {
        self.gst
    }
}

impl NetworkModel for GstNetwork {
    fn decide(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        now: SimTime,
        _wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        LinkDecision::deliver(if now >= self.gst {
            self.post.sample_delay(rng).min(self.post_bound)
        } else {
            // Pre-GST delay, but delivery may not exceed GST + post_bound.
            let raw = self.pre.sample_delay(rng);
            let latest = (self.gst + self.post_bound) - now;
            raw.min(latest)
        })
    }

    fn name(&self) -> &'static str {
        "gst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    /// Drives a delay-only model and unwraps the delivery delay.
    fn sample<N: NetworkModel>(
        net: &mut N,
        src: u32,
        dst: u32,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> SimDuration {
        net.decide(NodeId::new(src), NodeId::new(dst), now, 64, rng)
            .delay()
            .expect("delay-only models always deliver")
    }

    #[test]
    fn bounded_clamps_to_bound() {
        let mut net = BoundedNetwork::new(Dist::normal(1000.0, 1000.0), 500.0);
        let mut rng = rng();
        for _ in 0..1000 {
            let d = sample(&mut net, 0, 1, SimTime::ZERO, &mut rng);
            assert!(d.as_millis_f64() <= 500.0);
        }
    }

    #[test]
    fn gst_switches_distributions() {
        let mut net = GstNetwork::new(Dist::constant(5000.0), Dist::constant(100.0), 1000.0, 250.0);
        let mut rng = rng();
        // Before GST: raw 5000 ms but delivery capped at GST + bound.
        let d = sample(&mut net, 0, 1, SimTime::ZERO, &mut rng);
        assert_eq!(d.as_millis_f64(), 1250.0);
        // Just before GST the cap shrinks accordingly.
        let d = sample(&mut net, 0, 1, SimTime::from_millis(900), &mut rng);
        assert_eq!(d.as_millis_f64(), 350.0);
        // After GST: post distribution, clamped by post bound.
        let d = sample(&mut net, 0, 1, SimTime::from_millis(1000), &mut rng);
        assert_eq!(d.as_millis_f64(), 100.0);
    }

    #[test]
    fn gst_post_bound_clamps_post_samples() {
        let mut net = GstNetwork::new(Dist::constant(0.0), Dist::constant(900.0), 0.0, 250.0);
        let mut rng = rng();
        let d = sample(&mut net, 0, 1, SimTime::from_millis(5), &mut rng);
        assert_eq!(d.as_millis_f64(), 250.0);
    }
}
