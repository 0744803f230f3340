//! Identifier newtypes used throughout the simulator.

use core::fmt;

/// Identifies one replica (node) in the simulated system.
///
/// Node ids are dense: a run with `n` nodes uses ids `0..n`.
///
/// # Examples
///
/// ```
/// use bft_sim_core::ids::NodeId;
///
/// let id = NodeId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node, usable for array indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw id value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over all node ids of a system of `n` nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// use bft_sim_core::ids::NodeId;
    ///
    /// let ids: Vec<NodeId> = NodeId::all(3).collect();
    /// assert_eq!(ids, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n as u32).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifies a timer registered with the simulation controller.
///
/// Timer ids are unique within a run; cancelling an id that already fired is
/// a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A dense set of node ids, stored as a bitmap.
///
/// The engine tracks crashed, corrupted and excluded nodes for every run;
/// with dense ids (`0..n`) a bitmap gives O(1) membership at two machine
/// words per 128 nodes, where a `HashSet<NodeId>` costs a heap bucket per
/// member and hashes on every lookup — the difference matters on the
/// delivery hot path at n = 1000+. Iteration is always in ascending id
/// order, so anything that walks the set is deterministic by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        NodeSet::default()
    }

    /// Creates an empty set with capacity for ids `0..n` (no growth on
    /// insert below `n`).
    pub(crate) fn with_capacity(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Inserts a node; returns `true` if it was not already present.
    pub(crate) fn insert(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += newly as usize;
        newly
    }

    /// Whether the set contains `node`.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        self.words.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of nodes in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(NodeId::from(7u32), id);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn all_enumerates_dense_ids() {
        assert_eq!(NodeId::all(0).count(), 0);
        let ids: Vec<_> = NodeId::all(4).map(|i| i.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn node_set_insert_contains() {
        let mut s = NodeSet::with_capacity(1024);
        assert_eq!(s.len(), 0);
        assert!(s.insert(NodeId::new(3)));
        assert!(!s.insert(NodeId::new(3)), "duplicate rejected");
        assert!(s.insert(NodeId::new(1000)), "large ids supported");
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId::new(3)));
        assert!(!s.contains(NodeId::new(4)));
    }

    #[test]
    fn node_set_grows_beyond_initial_capacity() {
        let mut s = NodeSet::new();
        assert!(!s.contains(NodeId::new(9)), "contains on empty set");
        assert!(s.insert(NodeId::new(130)));
        assert!(s.contains(NodeId::new(130)));
        assert_eq!(s.len(), 1);
    }
}
