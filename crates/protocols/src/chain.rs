//! The chained-HotStuff core (Yin et al., PODC '19) behind
//! [`crate::hotstuff`] and [`crate::librabft`].
//!
//! One block per view, each embedding a quorum certificate (QC) for an
//! earlier block; a block commits once it heads a *three-chain* of direct
//! parents with consecutive views. [`Chain`] is one replica's state for that
//! — block store, highest QC, lock, commit height, and the bookkeeping for
//! blocks it hears of before it has them — with the rules written once. What
//! moves a replica from view to view (the pacemaker) is not here: it is all
//! the two protocol files contain, and all the paper measures between them.
//! The only message the core sends is the request for a missing block; the
//! caller says at construction how its wire enum spells it, and gives the
//! two domain tags that keep its block digests and vote signatures its own.

use std::collections::hash_map::Entry;

use bft_sim_core::context::Context;
use bft_sim_core::fasthash::{FastMap, FastSet};
use bft_sim_core::ids::NodeId;
use bft_sim_core::payload::Payload;
use bft_sim_core::value::Value;
use bft_sim_crypto::hash::Digest;
use bft_sim_crypto::quorum::{QuorumCert, VoteTracker};
use bft_sim_crypto::signature::{sign, Signature};

use crate::common::VoteDigestMemo;

/// Block metadata kept in every node's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockInfo {
    /// View the block was proposed in.
    pub(crate) view: u64,
    /// Digest of the parent block.
    pub(crate) parent: Digest,
    /// View of the embedded (justify) QC.
    pub(crate) justify_view: u64,
    /// Block certified by the embedded QC (normally the parent).
    pub(crate) justify_digest: Digest,
    /// Chain height (genesis = 0).
    pub(crate) height: u64,
}

/// The on-wire block representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProposalBlock {
    /// Block digest (identity).
    pub(crate) digest: Digest,
    /// Proposing view.
    pub(crate) view: u64,
    /// Parent digest.
    pub(crate) parent: Digest,
    /// Height.
    pub(crate) height: u64,
}

/// The genesis digest all chains grow from.
pub(crate) fn genesis_digest() -> Digest {
    Digest::of_bytes(b"hotstuff-genesis")
}

/// A proposal parked until the block its justify certifies is local.
pub(crate) type Parked = (NodeId, ProposalBlock, QuorumCert);

/// One replica's blocks: the committed prefix by height, the rest by digest.
///
/// A committed block is a `(digest, view)` pair at its height: its parent is
/// the entry below it, and so is its justify, since every block
/// [`Chain::next_block`] builds extends the block its justify QC certifies
/// (and a QC's view is its block's view). [`Self::commit`] moves only a block
/// that this rebuild returns exactly; any other stays in `live`, so every
/// lookup answers what a plain map of the inserts would.
#[derive(Debug)]
struct BlockStore {
    live: FastMap<Digest, BlockInfo>,
    /// `committed[h]` is the committed block at height `h`; genesis is `[0]`.
    committed: Vec<(Digest, u64)>,
}

impl BlockStore {
    fn new() -> Self {
        // Pre-sized so short runs allocate nothing inside the run: a few
        // blocks are uncommitted at a time, and one commits per view.
        let mut committed = Vec::with_capacity(64);
        committed.push((genesis_digest(), 0));
        BlockStore {
            live: FastMap::with_capacity_and_hasher(4, Default::default()),
            committed,
        }
    }

    /// The block of prefix `committed` at `height` if its view is `view`
    /// (genesis for 0).
    fn rebuild(committed: &[(Digest, u64)], height: usize, view: u64) -> BlockInfo {
        let (parent, parent_view) = committed[height.saturating_sub(1)];
        BlockInfo {
            view,
            parent,
            justify_view: parent_view,
            justify_digest: parent,
            height: height as u64,
        }
    }

    fn get(&self, digest: Digest) -> Option<BlockInfo> {
        if let Some(&info) = self.live.get(&digest) {
            return Some(info);
        }
        let height = self.committed.iter().rposition(|&(d, _)| d == digest)?;
        Some(Self::rebuild(
            &self.committed,
            height,
            self.committed[height].1,
        ))
    }

    /// Stores `info` unless `digest` is stored already, and returns what
    /// [`Self::get`] now answers for `digest`. A digest hashes its height,
    /// so a committed one is found at `info.height` without a scan.
    fn insert(&mut self, digest: Digest, info: BlockInfo) -> BlockInfo {
        let at_height = usize::try_from(info.height)
            .ok()
            .and_then(|h| self.committed.get(h));
        if at_height.map(|&(d, _)| d) == Some(digest) {
            return self.get(digest).expect("a committed digest is stored");
        }
        *self.live.entry(digest).or_insert(info)
    }

    /// Moves a just-decided block onto the prefix if the prefix rebuilds it
    /// exactly (which also means it extends the prefix's top), and returns
    /// the view of the block stored under `digest`. One probe of `live` for
    /// a block the decide walk found there, which is every block it decides.
    fn commit(&mut self, digest: Digest) -> Option<u64> {
        if let Entry::Occupied(stored) = self.live.entry(digest) {
            let info = *stored.get();
            if info == Self::rebuild(&self.committed, self.committed.len(), info.view) {
                stored.remove();
                self.committed.push((digest, info.view));
            }
            return Some(info.view);
        }
        self.get(digest).map(|info| info.view)
    }
}

/// One replica's block tree; `M` is the caller's wire enum.
#[derive(Debug)]
pub(crate) struct Chain<M> {
    quorum: usize,
    /// Domain tags of the caller's block digests and block-vote signatures.
    block_tag: u64,
    vote_phase: u8,
    sync_req: fn(Digest) -> M,
    blocks: BlockStore,
    high_qc: QuorumCert,
    locked_view: u64,
    locked_digest: Digest,
    last_voted_view: u64,
    votes: VoteTracker,
    /// The signed digest of a block vote, hashed once per block rather than
    /// once per vote counted.
    vote_digests: VoteDigestMemo,
    decided_height: u64,
    /// View of the newest committed block (the pacemakers' timers back off
    /// with the distance from it).
    last_committed_view: u64,
    /// Proposals whose justify block we have not received yet; voting on
    /// them before knowing the justify chain would bypass the lock rule.
    parked: Vec<Parked>,
    /// View we lead but cannot propose in until our high QC's block arrives.
    want_propose: Option<u64>,
    proposed_views: FastSet<u64>,
    /// Committed tips whose ancestor chain is still incomplete locally.
    pending_decides: Vec<Digest>,
    fetch_in_flight: FastSet<Digest>,
    /// [`Self::try_decide_chain`]'s buffer, kept so the walk allocates nothing.
    decide_scratch: Vec<(u64, Digest)>,
}

impl<M: Payload + Clone + 'static> Chain<M> {
    /// A chain holding only genesis; `sync_req` builds the caller's request
    /// for the block with the given digest.
    pub(crate) fn new(
        quorum: usize,
        block_tag: u64,
        vote_phase: u8,
        sync_req: fn(Digest) -> M,
    ) -> Self {
        Chain {
            quorum,
            block_tag,
            vote_phase,
            sync_req,
            blocks: BlockStore::new(),
            high_qc: QuorumCert {
                view: 0,
                digest: genesis_digest(),
                signers: Default::default(),
            },
            locked_view: 0,
            locked_digest: genesis_digest(),
            last_voted_view: 0,
            votes: VoteTracker::new(quorum),
            vote_digests: VoteDigestMemo::default(),
            decided_height: 0,
            last_committed_view: 0,
            parked: Vec::new(),
            want_propose: None,
            proposed_views: FastSet::default(),
            pending_decides: Vec::new(),
            fetch_in_flight: FastSet::default(),
            decide_scratch: Vec::with_capacity(8),
        }
    }

    /// The highest QC seen so far.
    pub(crate) fn high_qc(&self) -> &QuorumCert {
        &self.high_qc
    }

    /// View of the newest committed block.
    pub(crate) fn last_committed_view(&self) -> u64 {
        self.last_committed_view
    }

    /// The stored block with this digest (what a block request asks for).
    pub(crate) fn block(&self, digest: Digest) -> Option<BlockInfo> {
        self.blocks.get(digest)
    }

    fn qc_valid(&self, qc: &QuorumCert) -> bool {
        qc.view == 0 && qc.digest == genesis_digest() || qc.weight() >= self.quorum
    }

    /// Requests a missing block, once per view.
    fn fetch(&mut self, digest: Digest, from: Option<NodeId>, ctx: &mut Context<'_>) {
        if !self.fetch_in_flight.insert(digest) {
            return;
        }
        if let Some(from) = from {
            ctx.send(from, (self.sync_req)(digest));
        }
    }

    /// The block to propose in `view` on top of our high QC's block, at most
    /// once per view. A parent we certified (or were handed a QC for) but
    /// never received is fetched from one of its voters first — guessing its
    /// height would fork the height sequence — and
    /// [`Self::wants_to_propose`] says when to ask again.
    pub(crate) fn next_block(&mut self, view: u64, ctx: &mut Context<'_>) -> Option<ProposalBlock> {
        let parent = self.high_qc.digest;
        let Some(parent_info) = self.blocks.get(parent) else {
            self.want_propose = Some(view);
            let voter = self.high_qc.signers.iter().find(|&v| v != ctx.id());
            self.fetch(parent, voter, ctx);
            return None;
        };
        if !self.proposed_views.insert(view) {
            return None;
        }
        self.want_propose = None;
        let height = parent_info.height + 1;
        Some(ProposalBlock {
            digest: Digest::of_words(&[self.block_tag, view, parent.as_u64(), height]),
            view,
            parent,
            height,
        })
    }

    /// Whether a proposal for `view` is waiting on a fetched block.
    pub(crate) fn wants_to_propose(&self, view: u64) -> bool {
        self.want_propose == Some(view)
    }

    /// Stores a proposed block if its justify is a valid QC for a block we
    /// hold, absorbs that justify as [`Self::absorb_qc`] would, and returns
    /// the block as stored, for [`Self::vote`]; neither reads the store for
    /// what this read. When the justify's block is missing the proposal is
    /// parked and the block requested from `src`: the lock update reads its
    /// justify pointer, and voting blind would bypass the lock rule that
    /// makes commits safe.
    pub(crate) fn admit(
        &mut self,
        src: NodeId,
        block: ProposalBlock,
        justify: &QuorumCert,
        ctx: &mut Context<'_>,
    ) -> Option<BlockInfo> {
        if !self.qc_valid(justify) {
            return None;
        }
        let justified = self.blocks.get(justify.digest);
        if justify.view > 0 && justified.is_none() {
            self.fetch(justify.digest, Some(src), ctx);
            self.parked.push((src, block, justify.clone()));
            return None;
        }
        let stored = self.blocks.insert(
            block.digest,
            BlockInfo {
                view: block.view,
                parent: block.parent,
                justify_view: justify.view,
                justify_digest: justify.digest,
                height: block.height,
            },
        );
        // Storing touched only the proposal's own digest.
        let justified = if justify.digest == block.digest {
            Some(stored)
        } else {
            justified
        };
        self.absorb_valid(justify, justified, src, ctx);
        Some(stored)
    }

    /// Applies a QC to `high_qc`, lock and commit height; `false` if invalid.
    /// What a valid one does to the view is the pacemaker's business.
    pub(crate) fn absorb_qc(
        &mut self,
        qc: &QuorumCert,
        src: NodeId,
        ctx: &mut Context<'_>,
    ) -> bool {
        if !self.qc_valid(qc) {
            return false;
        }
        let certified = self.blocks.get(qc.digest);
        self.absorb_valid(qc, certified, src, ctx);
        true
    }

    /// A valid QC, with the block it certifies as the store holds it.
    fn absorb_valid(
        &mut self,
        qc: &QuorumCert,
        certified: Option<BlockInfo>,
        src: NodeId,
        ctx: &mut Context<'_>,
    ) {
        if qc.view > self.high_qc.view {
            self.high_qc = qc.clone();
        }
        if let Some(b2) = certified {
            self.apply_chain_rules(b2, src, ctx);
        }
    }

    /// Lock and commit rules over the chain ending at the certified block
    /// `b''` (`b2`). Following chained HotStuff exactly: the lock update
    /// is **unconditional** — `lockedQC ← b''.justify` whenever it is newer
    /// (requiring a direct chain here would under-lock and break safety) —
    /// while DECIDE requires the full direct three-chain with consecutive
    /// views `b ← b' ← b''`.
    fn apply_chain_rules(&mut self, b2: BlockInfo, src: NodeId, ctx: &mut Context<'_>) {
        // Lock on b2's justify — the block it certifies is b1, whose view
        // is recorded in b2's justify pointer (b1 itself need not be local).
        if b2.justify_view > self.locked_view {
            self.locked_view = b2.justify_view;
            self.locked_digest = b2.justify_digest;
        }
        let Some(b1) = self.block(b2.justify_digest) else {
            return;
        };
        let Some(b0) = self.block(b1.justify_digest) else {
            return;
        };
        if b2.parent == b2.justify_digest
            && b1.parent == b1.justify_digest
            && b2.view == b1.view + 1
            && b1.view == b0.view + 1
        {
            // Direct, consecutive three-chain: commit b0 and its ancestors.
            self.try_decide_chain(b1.parent, Some(b0), src, ctx);
        }
    }

    /// Decides every undecided ancestor of `tip` (inclusive), fetching
    /// missing blocks from `src` when the local store has gaps. `known` is
    /// `tip`'s block when the caller has read it already.
    fn try_decide_chain(
        &mut self,
        tip: Digest,
        mut known: Option<BlockInfo>,
        src: NodeId,
        ctx: &mut Context<'_>,
    ) {
        // Once per view on every node: a fresh Vec here would dominate the
        // steady-state allocation count.
        let mut path = std::mem::take(&mut self.decide_scratch);
        debug_assert!(path.is_empty());
        let mut cursor = tip;
        let mut complete = true;
        loop {
            let Some(info) = known.take().or_else(|| self.block(cursor)) else {
                // Gap: ask the peer that showed us this chain, retry later.
                self.fetch(cursor, (src != ctx.id()).then_some(src), ctx);
                if !self.pending_decides.contains(&tip) {
                    self.pending_decides.push(tip);
                }
                complete = false;
                break;
            };
            if info.height <= self.decided_height {
                break;
            }
            path.push((info.height, cursor));
            cursor = info.parent;
        }
        if complete {
            path.sort_by_key(|&(h, _)| h);
            for &(height, digest) in &path {
                // Heights must be contiguous: a stale pending tip may replay
                // already-decided heights, which the check above filtered.
                debug_assert_eq!(height, self.decided_height + 1);
                self.decided_height = height;
                if let Some(view) = self.blocks.commit(digest) {
                    self.last_committed_view = self.last_committed_view.max(view);
                }
                ctx.report_fmt("commit", format_args!("height={height}"));
                ctx.decide(Value::new(digest.as_u64()));
            }
        }
        path.clear();
        self.decide_scratch = path;
    }

    /// Re-walks the committed tips that were waiting on missing ancestors.
    pub(crate) fn retry_pending_decides(&mut self, src: NodeId, ctx: &mut Context<'_>) {
        let tips = std::mem::take(&mut self.pending_decides);
        for tip in tips {
            self.try_decide_chain(tip, None, src, ctx);
        }
    }

    /// Our vote for `block`, stored as `stored` ([`Self::admit`]), if the
    /// voting rule allows one — at most once per view, for a proposal that
    /// extends the locked block (safety) or whose justify is newer than our
    /// lock (liveness).
    pub(crate) fn vote(
        &mut self,
        block: &ProposalBlock,
        stored: BlockInfo,
        justify: &QuorumCert,
        ctx: &Context<'_>,
    ) -> Option<Signature> {
        if block.view <= self.last_voted_view
            || !(self.extends_locked(block.digest, stored) || justify.view > self.locked_view)
        {
            return None;
        }
        self.last_voted_view = block.view;
        let signed = self
            .vote_digests
            .digest(self.vote_phase, block.view, 0, block.digest);
        Some(sign(ctx.id(), signed))
    }

    /// Counts a block vote; the quorum-completing one yields the QC, keyed to
    /// the block it certifies rather than to the signed vote digest.
    pub(crate) fn add_vote(
        &mut self,
        view: u64,
        digest: Digest,
        sig: Signature,
    ) -> Option<QuorumCert> {
        let signed = self.vote_digests.digest(self.vote_phase, view, 0, digest);
        let qc = self.votes.add(view, signed, sig)?;
        Some(QuorumCert {
            view,
            digest,
            signers: qc.signers,
        })
    }

    /// Whether the block stored under `digest` as `stored` descends from
    /// the locked block.
    fn extends_locked(&self, mut digest: Digest, stored: BlockInfo) -> bool {
        // Walk parents until we hit the locked block, genesis, or a gap.
        let mut known = Some(stored);
        for _ in 0..1024 {
            if digest == self.locked_digest {
                return true;
            }
            match known.take().or_else(|| self.blocks.get(digest)) {
                Some(info) if info.height == 0 => return self.locked_digest == genesis_digest(),
                Some(info) => digest = info.parent,
                None => return false,
            }
        }
        false
    }

    /// On entering `view`: votes two views back are dropped, and unanswered
    /// fetches may be re-sent (the previous target may simply not have had
    /// the block yet).
    pub(crate) fn enter_view(&mut self, view: u64) {
        self.votes.prune_below(view.saturating_sub(2));
        self.fetch_in_flight.clear();
    }

    /// The parked proposals, for the caller's handler to judge again.
    pub(crate) fn take_parked(&mut self) -> Vec<Parked> {
        std::mem::take(&mut self.parked)
    }

    /// Stores a fetched block, resumes the commits waiting on it and returns
    /// the parked proposals, which may now be judged.
    pub(crate) fn on_sync_resp(
        &mut self,
        digest: Digest,
        info: BlockInfo,
        src: NodeId,
        ctx: &mut Context<'_>,
    ) -> Vec<Parked> {
        self.fetch_in_flight.remove(&digest);
        self.blocks.insert(digest, info);
        self.retry_pending_decides(src, ctx);
        self.take_parked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn block_on(parent: Digest, parent_info: BlockInfo, view: u64) -> BlockInfo {
        BlockInfo {
            view,
            parent,
            justify_view: parent_info.view,
            justify_digest: parent,
            height: parent_info.height + 1,
        }
    }

    /// Drives the store and a plain map through the same inserts, commits
    /// and lookups: forks, re-inserts of stored digests, unknown digests,
    /// commits of blocks that do not extend the prefix, and one block whose
    /// justify skips its parent. Every lookup, and what every insert says
    /// it stored, must agree.
    #[test]
    fn block_store_answers_every_lookup_as_a_plain_map_would() {
        let mut moved = 0;
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut store = BlockStore::new();
            let genesis = store.get(genesis_digest()).expect("genesis");
            let mut plain = FastMap::default();
            plain.insert(genesis_digest(), genesis);
            let mut known = vec![genesis_digest()];
            // The decided chain, as `Chain::try_decide_chain` walks it.
            let mut decided = vec![genesis_digest()];
            // The first proposal from this step on certifies its grandparent.
            let mut odd_from = Some(rng.gen_range(300..400u64));
            for step in 0..400u64 {
                let fresh = Digest::of_words(&[seed, step]);
                match rng.gen_range(0..10u32) {
                    // Propose on the newest block, on a recent one (a fork) or
                    // on the decided top (reviving its branch).
                    0..=3 => {
                        let parent = match rng.gen_range(0..10u32) {
                            0 => *decided.last().expect("genesis"),
                            1..=2 => known[known.len() - 1 - rng.gen_range(0..known.len().min(4))],
                            _ => *known.last().expect("genesis"),
                        };
                        let mut info = block_on(parent, plain[&parent], step + 1);
                        if odd_from.is_some_and(|from| step >= from) {
                            odd_from = None;
                            info.justify_digest = plain[&parent].parent;
                            info.justify_view = plain[&info.justify_digest].view;
                        }
                        let stored = store.insert(fresh, info);
                        assert_eq!(stored, *plain.entry(fresh).or_insert(info));
                        known.push(fresh);
                    }
                    // Re-insert a stored digest at its height with other fields.
                    4 => {
                        let digest = known[rng.gen_range(0..known.len())];
                        let info = BlockInfo {
                            view: step + 1000,
                            justify_view: step,
                            ..plain[&digest]
                        };
                        let stored = store.insert(digest, info);
                        assert_eq!(stored, *plain.entry(digest).or_insert(info));
                    }
                    // Decide the next height towards the newest block.
                    5..=6 => {
                        let top = *decided.last().expect("genesis");
                        let mut digest = *known.last().expect("genesis");
                        while plain[&digest].height > decided.len() as u64 {
                            digest = plain[&digest].parent;
                        }
                        if plain[&digest].height == decided.len() as u64
                            && plain[&digest].parent == top
                        {
                            decided.push(digest);
                            assert_eq!(store.commit(digest), Some(plain[&digest].view));
                        }
                    }
                    // A commit the decide walk never makes: any stored block.
                    7 => {
                        let digest = known[rng.gen_range(0..known.len())];
                        assert_eq!(store.commit(digest), Some(plain[&digest].view));
                    }
                    _ => {
                        let digest = if rng.gen_bool(0.2) {
                            fresh
                        } else {
                            known[rng.gen_range(0..known.len())]
                        };
                        assert_eq!(
                            store.get(digest),
                            plain.get(&digest).copied(),
                            "seed {seed} step {step}"
                        );
                    }
                }
            }
            for digest in known {
                assert_eq!(
                    store.get(digest),
                    plain.get(&digest).copied(),
                    "seed {seed}"
                );
            }
            moved += store.committed.len() - 1;
        }
        assert!(moved > 2000, "only {moved} blocks reached the prefix");
    }

    #[test]
    fn a_straight_chain_leaves_nothing_in_the_map() {
        let mut store = BlockStore::new();
        let mut tip = genesis_digest();
        let mut blocks = vec![];
        for view in 1..=200 {
            let info = block_on(tip, store.get(tip).expect("tip"), view);
            tip = Digest::of_words(&[view]);
            assert_eq!(store.insert(tip, info), info);
            store.commit(tip);
            blocks.push((tip, info));
        }
        assert!(store.live.is_empty());
        assert_eq!(store.committed.len(), 201);
        for (digest, info) in blocks {
            assert_eq!(store.get(digest), Some(info));
        }
    }
}
