//! Network partition attack (§III-C, after Algorand's attack model).
//!
//! All messages pass through the attacker module, so a partition is a set of
//! between-node packet-filter rules: while the partition is active, the
//! attacker drops (or delays until resolution) every message that crosses a
//! subnet boundary.

use bft_sim_core::adversary::{Adversary, AdversaryApi, Fate};
use bft_sim_core::ids::NodeId;
use bft_sim_core::message::Message;
use bft_sim_core::time::{SimDuration, SimTime};

/// What happens to messages that cross subnet boundaries while the
/// partition is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossTraffic {
    /// Cross-partition messages are silently dropped.
    Drop,
    /// Cross-partition messages are held and delivered shortly after the
    /// partition resolves (plus their normal network delay).
    HoldUntilResolve,
}

/// Drops or delays cross-subnet traffic during the partition window.
///
/// # Examples
///
/// ```
/// use bft_sim_attacks::{CrossTraffic, PartitionAttack};
/// use bft_sim_core::time::SimTime;
///
/// // Split 4 nodes 3/1 from t = 0 to t = 20 s, dropping cross traffic.
/// let attack = PartitionAttack::new(vec![0, 0, 0, 1], 0, 20_000, CrossTraffic::Drop).unwrap();
/// assert!(attack.is_active(SimTime::from_millis(5_000)));
/// ```
#[derive(Debug, Clone)]
pub struct PartitionAttack {
    /// `groups[i]` is the subnet of node `i`; nodes beyond it are in subnet 0.
    groups: Vec<u32>,
    /// The partition is active in `[start, end)`.
    start: SimTime,
    end: SimTime,
    cross: CrossTraffic,
}

impl PartitionAttack {
    /// Divides the nodes into the subnets `groups` names from `start_ms` to
    /// `end_ms`. This is the one statement of the window rule: a partition
    /// cannot resolve before it starts.
    ///
    /// # Errors
    ///
    /// `end_ms < start_ms`.
    pub fn new(
        groups: Vec<u32>,
        start_ms: u64,
        end_ms: u64,
        cross: CrossTraffic,
    ) -> Result<Self, String> {
        if end_ms < start_ms {
            return Err(format!(
                "partition resolves at {end_ms} ms, before it starts at {start_ms} ms"
            ));
        }
        Ok(PartitionAttack {
            groups,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            cross,
        })
    }

    /// The half/half split (`0..n/2` vs `n/2..n`) between `start_ms` and
    /// `end_ms`, as a scenario file, a repro or `--attack partition:S:E`
    /// spells it: `drop` discards cross traffic, otherwise it is held until
    /// the partition resolves.
    ///
    /// # Errors
    ///
    /// The window is inverted ([`PartitionAttack::new`]).
    pub fn halves(n: usize, start_ms: u64, end_ms: u64, drop: bool) -> Result<Self, String> {
        let groups = (0..n).map(|i| u32::from(i >= n / 2)).collect();
        let cross = if drop {
            CrossTraffic::Drop
        } else {
            CrossTraffic::HoldUntilResolve
        };
        Self::new(groups, start_ms, end_ms, cross)
    }

    /// Checks a window read from outside the program against
    /// [`PartitionAttack::new`]'s rule.
    ///
    /// # Errors
    ///
    /// `end_ms < start_ms`.
    pub fn check_window(start_ms: u64, end_ms: u64) -> Result<(), String> {
        Self::new(Vec::new(), start_ms, end_ms, CrossTraffic::Drop).map(drop)
    }

    /// Whether the partition is active at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }

    /// Whether a message from `src` to `dst` at `now` crosses an active
    /// partition boundary.
    fn severs(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        let group = |node: NodeId| self.groups.get(node.index()).copied().unwrap_or(0);
        self.is_active(now) && group(src) != group(dst)
    }
}

impl Adversary for PartitionAttack {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        if !self.severs(msg.src(), msg.dst(), api.now()) {
            return Fate::Deliver(proposed);
        }
        match self.cross {
            CrossTraffic::Drop => Fate::Drop,
            CrossTraffic::HoldUntilResolve => Fate::Deliver((self.end - api.now()) + proposed),
        }
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim_core::config::RunConfig;
    use bft_sim_core::engine::SimulationBuilder;
    use bft_sim_core::network::ConstantNetwork;
    use bft_sim_protocols::registry::ProtocolKind;

    fn partition_run(
        kind: ProtocolKind,
        cross: CrossTraffic,
        end_ms: u64,
        cap_s: f64,
    ) -> bft_sim_core::metrics::RunResult {
        let cfg = kind.configure(
            RunConfig::new(8)
                .with_seed(3)
                .with_lambda_ms(1000.0)
                .with_time_cap(SimDuration::from_secs(cap_s)),
        );
        let groups = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let attack = PartitionAttack::new(groups, 0, end_ms, cross).unwrap();
        let factory = kind.factory(&cfg, 7);
        SimulationBuilder::new(cfg)
            .network(ConstantNetwork::new(SimDuration::from_millis(100.0)))
            .adversary(attack)
            .protocols(factory)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn pbft_cannot_decide_during_partition_and_recovers_after() {
        let r = partition_run(ProtocolKind::Pbft, CrossTraffic::Drop, 10_000, 300.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        let latency = r.latency().unwrap().as_secs_f64();
        assert!(latency >= 10.0, "decided during the partition: {latency}");
        assert!(latency < 60.0, "recovery too slow: {latency}");
    }

    #[test]
    fn librabft_recovers_within_seconds_of_resolution() {
        let r = partition_run(ProtocolKind::LibraBft, CrossTraffic::Drop, 10_000, 300.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        let latency = r.latency().unwrap().as_secs_f64();
        assert!(latency >= 10.0);
        assert!(latency < 25.0, "LibraBFT must resync fast: {latency}");
    }

    #[test]
    fn algorand_is_partition_resilient() {
        let r = partition_run(ProtocolKind::Algorand, CrossTraffic::Drop, 10_000, 600.0);
        assert!(r.is_clean(), "{:?}", r.safety_violation);
        assert_eq!(r.decisions_completed(), 1);
    }

    #[test]
    fn held_messages_arrive_after_resolution() {
        let r = partition_run(
            ProtocolKind::Pbft,
            CrossTraffic::HoldUntilResolve,
            5_000,
            300.0,
        );
        assert!(r.is_clean());
        assert_eq!(r.dropped_messages, 0, "hold mode never drops");
    }

    #[test]
    fn an_inverted_window_is_an_error_not_a_panic() {
        let err = PartitionAttack::new(vec![0, 1], 10, 5, CrossTraffic::Drop).unwrap_err();
        assert_eq!(err, "partition resolves at 5 ms, before it starts at 10 ms");
        assert_eq!(PartitionAttack::halves(4, 10, 5, true).unwrap_err(), err);
        assert_eq!(PartitionAttack::check_window(10, 5).unwrap_err(), err);
        let attack = PartitionAttack::halves(4, 5, 5, false).unwrap();
        assert!(!attack.is_active(SimTime::from_millis(5)));
    }

    #[test]
    fn severs_only_cross_traffic_during_window() {
        let p = PartitionAttack::halves(4, 100, 500, true).unwrap();
        let [a, b, c, d] = [0, 1, 2, 3].map(NodeId::new);
        let during = SimTime::from_millis(200);
        assert!(!p.severs(a, b, during), "same subnet unaffected");
        assert!(!p.severs(c, d, during), "same subnet unaffected");
        assert!(p.severs(a, c, during) && p.severs(d, b, during));
        assert!(!p.severs(a, c, SimTime::from_millis(50)), "before start");
        assert!(p.severs(a, c, SimTime::from_millis(100)), "at start");
        assert!(!p.severs(a, c, SimTime::from_millis(500)), "at resolve");
        // A node beyond the groups falls into subnet 0.
        assert!(!p.severs(a, NodeId::new(9), during));
        assert!(p.severs(c, NodeId::new(9), during));
    }
}
