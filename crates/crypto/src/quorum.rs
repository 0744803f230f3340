//! Vote collection and quorum certificates.
//!
//! PBFT, HotStuff and LibraBFT all aggregate `2f + 1` matching votes into a
//! certificate. [`VoteTracker`] deduplicates signers per candidate and
//! produces a [`QuorumCert`] once the threshold is met.

use std::sync::Arc;

use bft_sim_core::fasthash::FastMap;
use bft_sim_core::ids::NodeId;

use crate::hash::Digest;
use crate::signature::Signature;

/// Words held inline before a [`SignerSet`] spills to the heap — enough for
/// node ids 0..128, i.e. every signer in runs up to n = 128.
const INLINE_WORDS: usize = 2;

/// Bitmap storage for [`SignerSet`].
///
/// Canonical by construction: a set whose members all fit in the inline
/// words is *always* `Inline` (the heap variant only ever appears once a
/// node id ≥ 128 is inserted, and sets never shrink), and a spilled set's
/// width is a function of its largest member alone (see
/// [`SignerSet::spilled_with`]), so the derived `PartialEq`/`Hash` impls
/// remain semantic equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline([u64; INLINE_WORDS]),
    /// Shared between every clone of the set and immutable while shared:
    /// [`SignerSet::insert`] writes in place only as the sole owner and
    /// otherwise copies first.
    Heap(Arc<[u64]>),
}

/// A compact set of node ids, stored as a bitmap.
///
/// Votes in runs up to n = 128 — including every certificate the bundled
/// protocols form at the paper's scales — stay in two inline words; larger
/// ids spill to heap words that clones share. Either way cloning a
/// `SignerSet` into a [`QuorumCert`], and a certificate into a message or a
/// replica's state, costs no allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignerSet {
    repr: Repr,
}

impl Default for SignerSet {
    fn default() -> Self {
        SignerSet {
            repr: Repr::Inline([0; INLINE_WORDS]),
        }
    }
}

impl SignerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SignerSet::default()
    }

    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(words) => words,
            Repr::Heap(words) => words,
        }
    }

    /// Inserts a node; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        if self.contains(node) {
            return false;
        }
        let (word, mask) = (node.index() / 64, 1u64 << (node.index() % 64));
        let in_place = match &mut self.repr {
            Repr::Inline(words) => words.get_mut(word),
            Repr::Heap(words) => Arc::get_mut(words).and_then(|words| words.get_mut(word)),
        };
        match in_place {
            Some(w) => *w |= mask,
            None => self.repr = Repr::Heap(self.spilled_with(word, mask)),
        }
        true
    }

    /// A fresh heap copy of the words with `mask` set in `word`: the step
    /// that spills an inline set, widens a heap one, or gives a sharer its
    /// own storage. The width is the word count of the largest member
    /// rounded up to a power of two, so a set is allocated once or twice on
    /// its way to n signers, not once per 64 ids.
    fn spilled_with(&self, word: usize, mask: u64) -> Arc<[u64]> {
        let old = self.words();
        let width = old.len().max((word + 1).next_power_of_two());
        (0..width)
            .map(|i| old.get(i).copied().unwrap_or(0) | if i == word { mask } else { 0 })
            .collect()
    }

    /// Whether the set contains `node`.
    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        self.words().get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates over the member node ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| NodeId::new((wi * 64 + b) as u32))
        })
    }
}

impl FromIterator<NodeId> for SignerSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = SignerSet::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

/// A quorum certificate: proof that `signers` (≥ threshold) voted for
/// `digest` in `view`. Models an aggregated/threshold signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCert {
    /// The view/round the votes were cast in.
    pub view: u64,
    /// The voted-for digest (block hash, proposal id, …).
    pub digest: Digest,
    /// Who signed.
    pub signers: SignerSet,
}

impl QuorumCert {
    /// Number of aggregated signatures.
    pub fn weight(&self) -> usize {
        self.signers.len()
    }
}

/// Candidates a [`VoteTracker`]'s map holds before it first grows.
const CANDIDATES: usize = 16;

/// Collects signed votes per `(view, digest)` candidate and forms a
/// [`QuorumCert`] at the threshold.
///
/// # Examples
///
/// ```
/// use bft_sim_core::ids::NodeId;
/// use bft_sim_crypto::{hash::Digest, quorum::VoteTracker, signature::sign};
///
/// let mut votes = VoteTracker::new(3); // threshold 3 (n = 4, f = 1)
/// let d = Digest::of_bytes(b"block");
/// for i in 0..3 {
///     let sig = sign(NodeId::new(i), d);
///     if let Some(qc) = votes.add(7, d, sig) {
///         assert_eq!(qc.view, 7);
///         assert_eq!(qc.weight(), 3);
///         return;
///     }
/// }
/// panic!("threshold reached but no certificate formed");
/// ```
#[derive(Debug, Clone)]
pub struct VoteTracker {
    threshold: usize,
    votes: FastMap<(u64, Digest), SignerSet>,
}

impl VoteTracker {
    /// Creates a tracker with the given quorum threshold. It allocates
    /// nothing until the first vote: most replicas of a large run hold
    /// trackers (view changes, say) that never see one.
    pub fn new(threshold: usize) -> Self {
        VoteTracker {
            threshold,
            votes: FastMap::default(),
        }
    }

    /// Creates a tracker whose map is allocated now, at the size its first
    /// vote would give it: for a tracker voted on at every step, whose vote
    /// path should not allocate.
    pub fn presized(threshold: usize) -> Self {
        VoteTracker {
            threshold,
            votes: FastMap::with_capacity_and_hasher(CANDIDATES, Default::default()),
        }
    }

    /// Adds a vote. Invalid signatures and duplicate signers are ignored.
    /// Returns `Some(QuorumCert)` exactly once per candidate — at the moment
    /// its threshold is first reached.
    pub fn add(&mut self, view: u64, digest: Digest, sig: Signature) -> Option<QuorumCert> {
        if !sig.verify(digest) {
            return None;
        }
        // Sized once, not grown from empty: no rehash on the vote path.
        if self.votes.capacity() == 0 {
            self.votes.reserve(CANDIDATES);
        }
        let set = self.votes.entry((view, digest)).or_default();
        // Each accepted vote raises the count by exactly one, so the count
        // equals the threshold once, right after the vote that reaches it.
        if !set.insert(sig.signer()) || set.len() != self.threshold.max(1) {
            return None;
        }
        Some(QuorumCert {
            view,
            digest,
            signers: set.clone(),
        })
    }

    /// Current vote count for a candidate.
    pub fn count(&self, view: u64, digest: Digest) -> usize {
        self.votes.get(&(view, digest)).map_or(0, SignerSet::len)
    }

    /// Drops all state for views older than `min_view` (garbage collection
    /// for long SMR runs).
    pub fn prune_below(&mut self, min_view: u64) {
        self.votes.retain(|&(v, _), _| v >= min_view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::sign;

    fn digest() -> Digest {
        Digest::of_bytes(b"proposal")
    }

    #[test]
    fn signer_set_basics() {
        let mut s = SignerSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(3)));
        assert!(!s.insert(NodeId::new(3)), "duplicate rejected");
        assert!(s.insert(NodeId::new(200)), "multi-word ids supported");
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId::new(3)));
        assert!(!s.contains(NodeId::new(4)));
        let members: Vec<NodeId> = s.iter().collect();
        assert_eq!(members, vec![NodeId::new(3), NodeId::new(200)]);
    }

    #[test]
    fn signer_set_spills_at_the_inline_boundary() {
        // 127 is the last id the inline words hold; 128 forces the heap.
        let mut small = SignerSet::new();
        assert!(small.insert(NodeId::new(127)));
        assert!(small.contains(NodeId::new(127)));

        let mut spilled = SignerSet::new();
        assert!(spilled.insert(NodeId::new(128)));
        assert!(spilled.insert(NodeId::new(0)));
        assert!(!spilled.insert(NodeId::new(128)), "duplicate after spill");
        assert_eq!(spilled.len(), 2);
        let members: Vec<NodeId> = spilled.iter().collect();
        assert_eq!(members, vec![NodeId::new(0), NodeId::new(128)]);

        // Equality is order-independent across the spill.
        let reordered: SignerSet = [NodeId::new(0), NodeId::new(128)].into_iter().collect();
        assert_eq!(spilled, reordered);
    }

    fn heap_words(s: &SignerSet) -> &Arc<[u64]> {
        match &s.repr {
            Repr::Heap(words) => words,
            Repr::Inline(_) => panic!("set is still inline"),
        }
    }

    #[test]
    fn clones_of_a_spilled_set_share_storage_until_one_is_written() {
        let mut a: SignerSet = (0..300).map(NodeId::new).collect();
        let b = a.clone();
        assert!(Arc::ptr_eq(heap_words(&a), heap_words(&b)));

        // A duplicate insert changes nothing, so it must not copy either.
        assert!(!a.insert(NodeId::new(299)));
        assert!(Arc::ptr_eq(heap_words(&a), heap_words(&b)));

        // The writer copies; the other sharer keeps the old members.
        assert!(a.insert(NodeId::new(301)));
        assert!(!Arc::ptr_eq(heap_words(&a), heap_words(&b)));
        assert_eq!((a.len(), b.len()), (301, 300));
        assert!(a.contains(NodeId::new(301)) && !b.contains(NodeId::new(301)));

        // Sole owner again: further inserts write in place.
        let before = Arc::as_ptr(heap_words(&a));
        assert!(a.insert(NodeId::new(302)));
        assert_eq!(Arc::as_ptr(heap_words(&a)), before);
    }

    #[test]
    fn equality_and_hash_ignore_insertion_order_across_the_spill() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let hash = |s: &SignerSet| BuildHasherDefault::<DefaultHasher>::default().hash_one(s);
        // 128 signers fill the inline words exactly; the 129th spills.
        for n in [128u32, 129, 1000] {
            let ascending: SignerSet = (0..n).map(NodeId::new).collect();
            let descending: SignerSet = (0..n).rev().map(NodeId::new).collect();
            assert_eq!(ascending, descending, "n={n}");
            assert_eq!(hash(&ascending), hash(&descending), "n={n}");
            assert_eq!(ascending.len(), n as usize);
            assert_eq!(matches!(ascending.repr, Repr::Inline(_)), n <= 128);
            let mut one_more = ascending.clone();
            assert!(one_more.insert(NodeId::new(n)));
            assert_ne!(ascending, one_more, "n={n}");
        }
    }

    #[test]
    fn a_late_vote_leaves_the_formed_certificate_unchanged() {
        let mut t = VoteTracker::new(200);
        let d = digest();
        let qc = (0..200)
            .find_map(|i| t.add(0, d, sign(NodeId::new(i), d)))
            .expect("quorum");
        assert!(Arc::ptr_eq(
            heap_words(&qc.signers),
            heap_words(&t.votes[&(0, d)])
        ));
        assert!(t.add(0, d, sign(NodeId::new(200), d)).is_none());
        assert_eq!((qc.weight(), t.count(0, d)), (200, 201));
        assert!(!qc.signers.contains(NodeId::new(200)));
    }

    #[test]
    fn signer_set_from_iterator() {
        let s: SignerSet = [NodeId::new(1), NodeId::new(2), NodeId::new(1)]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn quorum_forms_exactly_once() {
        let mut t = VoteTracker::new(3);
        let d = digest();
        assert!(t.add(0, d, sign(NodeId::new(0), d)).is_none());
        assert!(t.add(0, d, sign(NodeId::new(1), d)).is_none());
        let qc = t.add(0, d, sign(NodeId::new(2), d)).expect("quorum");
        assert!(qc.weight() >= 3);
        assert_eq!(qc.weight(), 3);
        // A fourth vote must not re-form the certificate.
        assert!(t.add(0, d, sign(NodeId::new(3), d)).is_none());
        assert_eq!(t.count(0, d), 4);
    }

    #[test]
    fn a_fresh_tracker_allocates_at_its_first_vote() {
        assert_eq!(VoteTracker::new(3).votes.capacity(), 0);
        assert!(VoteTracker::presized(3).votes.capacity() >= CANDIDATES);
        let mut t = VoteTracker::new(3);
        t.add(0, digest(), sign(NodeId::new(0), digest()));
        assert!(t.votes.capacity() >= CANDIDATES);
    }

    /// Threshold 1 forms at the first vote, and only then; so does 0. A
    /// pruned view starts over and forms once more.
    #[test]
    fn low_thresholds_form_at_the_first_vote_and_again_after_pruning() {
        let d = digest();
        for threshold in [0, 1] {
            let mut t = VoteTracker::new(threshold);
            for round in 0..2 {
                let qc = t.add(3, d, sign(NodeId::new(0), d)).expect("first vote");
                assert_eq!(qc.weight(), 1, "threshold {threshold}, round {round}");
                assert!(t.add(3, d, sign(NodeId::new(1), d)).is_none());
                assert!(t.add(3, d, sign(NodeId::new(2), d)).is_none());
                t.prune_below(4);
            }
        }
    }

    #[test]
    fn duplicate_votes_do_not_count() {
        let mut t = VoteTracker::new(2);
        let d = digest();
        assert!(t.add(0, d, sign(NodeId::new(0), d)).is_none());
        assert!(t.add(0, d, sign(NodeId::new(0), d)).is_none());
        assert_eq!(t.count(0, d), 1);
    }

    #[test]
    fn invalid_signatures_are_rejected() {
        let mut t = VoteTracker::new(1);
        let d = digest();
        let other = Digest::of_bytes(b"other");
        let sig = sign(NodeId::new(0), other); // signs the wrong digest
        assert!(t.add(0, d, sig).is_none());
        assert_eq!(t.count(0, d), 0);
    }

    #[test]
    fn candidates_are_isolated_by_view_and_digest() {
        let mut t = VoteTracker::new(2);
        let d = digest();
        let e = Digest::of_bytes(b"other");
        t.add(0, d, sign(NodeId::new(0), d));
        t.add(1, d, sign(NodeId::new(1), d));
        t.add(0, e, sign(NodeId::new(2), e));
        assert_eq!(t.count(0, d), 1);
        assert_eq!(t.count(1, d), 1);
        assert_eq!(t.count(0, e), 1);
    }

    #[test]
    fn pruning_drops_old_views() {
        let mut t = VoteTracker::new(10);
        let d = digest();
        t.add(1, d, sign(NodeId::new(0), d));
        t.add(5, d, sign(NodeId::new(1), d));
        t.prune_below(5);
        assert_eq!(t.count(1, d), 0);
        assert_eq!(t.count(5, d), 1);
    }
}
