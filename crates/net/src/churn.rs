//! Node churn: timed crash/recovery windows at the network layer.
//!
//! A [`ChurnPlan`] lists [`OutageWindow`]s — intervals during which a node
//! is offline, the same windows the termination oracle is given.
//! [`ChurnedNetwork`] layers the plan over any inner [`NetworkModel`]: while
//! either endpoint of a link is down, messages on it are dropped at the
//! network layer. The node itself keeps executing (its timers still fire),
//! which models a process whose NIC or VM is gone but whose protocol state
//! survives — on recovery it rejoins with whatever it knew, the classic
//! crash-recovery churn of the BFT literature.
//!
//! Plans are either explicit (`ChurnPlan::new`) or generated from a seed
//! ([`ChurnPlan::staggered`]), so fuzzing can explore churn schedules
//! deterministically.

use bft_sim_core::error::SimError;
use bft_sim_core::ids::NodeId;
use bft_sim_core::network::{LinkDecision, NetworkModel};
use bft_sim_core::oracle::OutageWindow;
use bft_sim_core::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The most down-windows one [`ChurnPlan::staggered`] plan may hold. Every
/// link decision scans the plan, and the generator draws at most three, so
/// a larger count is a malformed input rather than a schedule.
pub const MAX_CRASHES: usize = 4_096;

/// A schedule of node-offline windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    windows: Vec<OutageWindow>,
}

impl ChurnPlan {
    /// Creates a plan from explicit windows. Rejects windows that end before
    /// they start with [`SimError::InvalidConfig`].
    pub(crate) fn new(windows: Vec<OutageWindow>) -> Result<Self, SimError> {
        for w in &windows {
            if w.end < w.start {
                return Err(SimError::InvalidConfig(format!(
                    "churn window for node {} ends at {} before it starts at {}",
                    w.node, w.end, w.start
                )));
            }
        }
        Ok(ChurnPlan { windows })
    }

    /// The rules [`ChurnPlan::staggered`] checks before it allocates: at
    /// most [`MAX_CRASHES`] crashes and a non-empty down-time range.
    pub fn check(crashes: usize, min_down_ms: u64, max_down_ms: u64) -> Result<(), SimError> {
        if crashes > MAX_CRASHES {
            return Err(SimError::InvalidConfig(format!(
                "churn crash count {crashes} exceeds the maximum of {MAX_CRASHES}"
            )));
        }
        if min_down_ms >= max_down_ms {
            return Err(SimError::InvalidConfig(format!(
                "churn down-time range is empty: [{min_down_ms}, {max_down_ms}) ms"
            )));
        }
        Ok(())
    }

    /// Generates `crashes` staggered down-windows over `[0, horizon_ms)`
    /// from a dedicated RNG seeded with `seed`: each crash picks a node, a
    /// start time within the horizon, and a down time in
    /// `[min_down_ms, max_down_ms)`. The same seed always yields the same
    /// schedule. More than [`MAX_CRASHES`] crashes is
    /// [`SimError::InvalidConfig`], refused before anything is allocated.
    pub fn staggered(
        n: usize,
        seed: u64,
        crashes: usize,
        min_down_ms: u64,
        max_down_ms: u64,
        horizon_ms: u64,
    ) -> Result<Self, SimError> {
        if n == 0 {
            return Err(SimError::InvalidConfig(
                "churn plan needs at least one node".into(),
            ));
        }
        Self::check(crashes, min_down_ms, max_down_ms)?;
        if horizon_ms == 0 {
            return Err(SimError::InvalidConfig(
                "churn horizon must be positive".into(),
            ));
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut windows = Vec::with_capacity(crashes);
        for _ in 0..crashes {
            let node = rng.gen_range(0..n as u64) as u32;
            let start_ms = rng.gen_range(0..horizon_ms);
            let down_ms = rng.gen_range(min_down_ms..max_down_ms);
            windows.push(OutageWindow {
                node,
                start: SimTime::from_millis(start_ms),
                end: SimTime::from_millis(start_ms.saturating_add(down_ms)),
            });
        }
        Self::new(windows)
    }

    /// Whether `node` is offline at `now` under any window.
    pub(crate) fn is_down(&self, node: NodeId, now: SimTime) -> bool {
        self.windows.iter().any(|w| w.covers(node, now))
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }
}

/// Wraps an inner network model with a [`ChurnPlan`]: messages to or from a
/// down node are dropped at the link.
#[derive(Debug, Clone)]
pub struct ChurnedNetwork<N> {
    inner: N,
    plan: ChurnPlan,
}

impl<N: NetworkModel> ChurnedNetwork<N> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: N, plan: ChurnPlan) -> Self {
        ChurnedNetwork { inner, plan }
    }
}

impl<N: NetworkModel> NetworkModel for ChurnedNetwork<N> {
    fn decide(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        // Consult the inner model first so the RNG stream is independent of
        // the churn schedule (determinism across plans).
        let base = self.inner.decide(src, dst, now, wire_bytes, rng);
        if self.plan.is_down(src, now) || self.plan.is_down(dst, now) {
            return LinkDecision::Drop;
        }
        base
    }

    fn name(&self) -> &'static str {
        "churned"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_core::time::SimDuration;

    fn window(node: u32, start_ms: u64, end_ms: u64) -> OutageWindow {
        OutageWindow {
            node,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
        }
    }

    #[test]
    fn rejects_inverted_window() {
        let err = ChurnPlan::new(vec![window(0, 100, 50)]);
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn staggered_is_seeded_and_validated() {
        let a = ChurnPlan::staggered(4, 9, 3, 100, 500, 10_000).unwrap();
        let b = ChurnPlan::staggered(4, 9, 3, 100, 500, 10_000).unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.windows().len(), 3);
        for w in a.windows() {
            assert!(w.node < 4);
            assert!(w.end > w.start);
        }
        let c = ChurnPlan::staggered(4, 10, 3, 100, 500, 10_000).unwrap();
        assert_ne!(a, c, "different seed, different schedule");
        assert!(matches!(
            ChurnPlan::staggered(0, 1, 1, 1, 2, 10),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            ChurnPlan::staggered(4, 1, 1, 5, 5, 10),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            ChurnPlan::staggered(4, 1, 1, 1, 2, 0),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn drops_while_either_endpoint_is_down() {
        use rand::SeedableRng;
        let plan = ChurnPlan::new(vec![window(1, 100, 200)]).unwrap();
        let mut net =
            ChurnedNetwork::new(ConstantNetwork::new(SimDuration::from_millis(10.0)), plan);
        let mut rng = SmallRng::seed_from_u64(0);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let at = |ms| SimTime::from_millis(ms);
        // Node 1 down in [100, 200): both directions drop, bystanders fine.
        assert!(net.decide(a, b, at(150), 8, &mut rng).is_drop());
        assert!(net.decide(b, a, at(150), 8, &mut rng).is_drop());
        assert!(!net.decide(a, c, at(150), 8, &mut rng).is_drop());
        // Outside the window traffic flows again.
        assert!(!net.decide(a, b, at(50), 8, &mut rng).is_drop());
        assert!(!net.decide(a, b, at(200), 8, &mut rng).is_drop());
    }
}
