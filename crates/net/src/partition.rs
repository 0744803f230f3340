//! Network partitions.
//!
//! A [`PartitionPlan`] divides the nodes into subnets for a time window.
//! While the partition is active, messages crossing subnet boundaries are
//! either dropped or held back until the partition resolves (the two
//! packet-filter behaviours described for the partition attack in §III-C).
//!
//! `bft_sim_attacks::PartitionAttack` applies the plan as an *adversarial
//! filter* in the attacker module, where the paper implements partitions.

use bft_sim_core::ids::NodeId;
use bft_sim_core::time::SimTime;

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

/// A timed division of the nodes into disjoint subnets.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// `group[i]` is the subnet index of node `i`.
    groups: Vec<u32>,
    /// Partition becomes active at this time.
    start: SimTime,
    /// Partition resolves at this time.
    end: SimTime,
    /// Fate of cross-subnet messages while active.
    cross: CrossTraffic,
}

impl PartitionPlan {
    /// Creates a plan from an explicit group assignment.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or `end < start`.
    pub fn new(groups: Vec<u32>, start: SimTime, end: SimTime, cross: CrossTraffic) -> Self {
        assert!(!groups.is_empty(), "partition plan needs at least one node");
        assert!(end >= start, "partition must resolve after it starts");
        PartitionPlan {
            groups,
            start,
            end,
            cross,
        }
    }

    /// Splits `n` nodes into two halves (`0..n/2` vs `n/2..n`) — the classic
    /// Algorand partition scenario.
    pub fn halves(n: usize, start: SimTime, end: SimTime, cross: CrossTraffic) -> Self {
        let groups = (0..n).map(|i| if i < n / 2 { 0 } else { 1 }).collect();
        Self::new(groups, start, end, cross)
    }

    /// When the partition resolves.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// The configured cross-traffic behaviour.
    pub fn cross_traffic(&self) -> CrossTraffic {
        self.cross
    }

    /// The subnet of `node` (nodes beyond the plan length fall into
    /// subnet 0).
    pub(crate) fn group_of(&self, node: NodeId) -> u32 {
        self.groups.get(node.index()).copied().unwrap_or(0)
    }

    /// Whether the partition is active at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }

    /// Whether a message from `src` to `dst` at `now` crosses an active
    /// partition boundary.
    pub fn severs(&self, src: NodeId, dst: NodeId, now: SimTime) -> bool {
        self.is_active(now) && self.group_of(src) != self.group_of(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cross: CrossTraffic) -> PartitionPlan {
        PartitionPlan::halves(
            4,
            SimTime::from_millis(100),
            SimTime::from_millis(500),
            cross,
        )
    }

    #[test]
    fn groups_are_halved() {
        let p = plan(CrossTraffic::Drop);
        assert_eq!(p.group_of(NodeId::new(0)), 0);
        assert_eq!(p.group_of(NodeId::new(1)), 0);
        assert_eq!(p.group_of(NodeId::new(2)), 1);
        assert_eq!(p.group_of(NodeId::new(3)), 1);
    }

    #[test]
    fn severs_only_cross_traffic_during_window() {
        let p = plan(CrossTraffic::Drop);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let during = SimTime::from_millis(200);
        assert!(!p.severs(a, b, during), "same subnet unaffected");
        assert!(p.severs(a, c, during));
        assert!(!p.severs(a, c, SimTime::from_millis(50)), "before start");
        assert!(!p.severs(a, c, SimTime::from_millis(500)), "at resolve");
    }

    #[test]
    #[should_panic(expected = "resolve after it starts")]
    fn inverted_window_panics() {
        let _ = PartitionPlan::halves(
            4,
            SimTime::from_millis(10),
            SimTime::from_millis(5),
            CrossTraffic::Drop,
        );
    }
}
