//! DQBFT-style global ordering: a dedicated ordering instance sequences
//! references to partially committed blocks (§2.2, §7).
//!
//! The Multi-BFT node runs one extra vanilla consensus instance (index
//! `m`) whose batches carry *block references* instead of transactions.
//! The leader of that instance observes its own partial-commit stream,
//! batches the references, and drives consensus over them; reference
//! batches are sequenced in the ordering instance's round order (PBFT
//! may commit them out of it), and the referenced blocks become globally
//! confirmed in that order.
//!
//! Two modeled properties matter for the evaluation:
//!
//! 1. **Leader bottleneck** — every reference and every ordering-phase
//!    message funnels through one replica; its NIC queues grow with `n`
//!    (Fig. 5b's throughput decline at 64–128 replicas).
//! 2. **No causality** — within a reference batch the leader orders by
//!    `(round, instance)` (the canonical slot interleave), so a straggler's
//!    late-generated block with a small round number is sequenced before
//!    blocks that were committed long before it was generated — the
//!    violations Table 2 reports for DQBFT.

use crate::ordering::{ConfirmedBlock, GlobalOrderer};
use ladon_types::{Block, TimeNs};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A reference to a partially committed block: `(instance, round)`.
pub type BlockRef = (u32, u64);

/// The DQBFT ordering layer state at one replica.
pub struct DqbftOrderer {
    /// Blocks partially committed locally, by reference.
    blocks: HashMap<BlockRef, Block>,
    /// Sequenced references not yet confirmed (head-of-line order).
    sequenced: VecDeque<BlockRef>,
    /// References already sequenced (duplicate suppression).
    seen: std::collections::HashSet<BlockRef>,
    /// Reference batches the ordering instance committed above
    /// `next_round`, by round, waiting for the rounds below them.
    committed: BTreeMap<u64, Vec<BlockRef>>,
    /// The ordering instance's next round to sequence (rounds start at
    /// 1).
    next_round: u64,
    /// Leader-side outbox: references committed locally but not yet
    /// proposed to the ordering instance.
    pub unsequenced: Vec<BlockRef>,
    /// Whether this replica leads the ordering instance.
    pub is_ordering_leader: bool,
    confirmed: u64,
}

impl DqbftOrderer {
    /// Creates the orderer; `is_ordering_leader` marks the replica that
    /// leads the dedicated ordering instance.
    pub fn new(is_ordering_leader: bool) -> Self {
        Self {
            blocks: HashMap::new(),
            sequenced: VecDeque::new(),
            seen: std::collections::HashSet::new(),
            committed: BTreeMap::new(),
            next_round: 1,
            unsequenced: Vec::new(),
            is_ordering_leader,
            confirmed: 0,
        }
    }

    /// Drains up to `max` references for the next ordering proposal,
    /// sorted into the canonical `(round, instance)` interleave.
    pub fn cut_refs(&mut self, max: usize) -> Vec<BlockRef> {
        let n = self.unsequenced.len().min(max);
        // Canonical slot order *within the batch* — the causality gap.
        self.unsequenced.sort_by_key(|&(i, r)| (r, i));
        self.unsequenced.drain(..n).collect()
    }

    /// Whether the leader has references waiting to be sequenced.
    pub fn has_pending_refs(&self) -> bool {
        !self.unsequenced.is_empty()
    }

    /// Called when the ordering instance commits its round-`round`
    /// reference batch. Batches enter the global sequence in round
    /// order, each once: PBFT commits rounds out of order, and replicas
    /// that appended batches as they committed would sequence the same
    /// references differently. A nil fill (no references) still takes
    /// its round.
    pub fn on_sequenced(
        &mut self,
        round: u64,
        refs: &[BlockRef],
        _now: TimeNs,
    ) -> Vec<ConfirmedBlock> {
        if round >= self.next_round {
            self.committed.entry(round).or_insert_with(|| refs.to_vec());
        }
        while let Some(batch) = self.committed.remove(&self.next_round) {
            self.next_round += 1;
            for r in batch {
                if self.seen.insert(r) {
                    self.sequenced.push_back(r);
                }
            }
        }
        self.drain()
    }

    fn drain(&mut self) -> Vec<ConfirmedBlock> {
        let mut out = Vec::new();
        while let Some(&head) = self.sequenced.front() {
            match self.blocks.remove(&head) {
                Some(block) => {
                    self.sequenced.pop_front();
                    out.push(ConfirmedBlock {
                        sn: self.confirmed,
                        block,
                    });
                    self.confirmed += 1;
                }
                None => break, // Wait for the block to commit locally.
            }
        }
        out
    }
}

impl GlobalOrderer for DqbftOrderer {
    fn on_partial_commit(&mut self, block: Block, _now: TimeNs) -> Vec<ConfirmedBlock> {
        let r: BlockRef = (block.index().0, block.round().0);
        if self.is_ordering_leader && !self.seen.contains(&r) {
            self.unsequenced.push(r);
        }
        self.blocks.insert(r, block);
        self.drain()
    }

    fn confirmed_count(&self) -> u64 {
        self.confirmed
    }

    fn waiting_count(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::{Batch, BlockHeader, Digest, InstanceId, Rank, Round};

    fn blk(instance: u32, round: u64, proposed_at: u64) -> Block {
        Block {
            header: BlockHeader {
                index: InstanceId(instance),
                round: Round(round),
                rank: Rank(round),
                payload_digest: Digest([1; 32]),
            },
            batch: Batch::empty(0),
            proposed_at: TimeNs(proposed_at),
        }
    }

    #[test]
    fn blocks_confirm_in_sequenced_order() {
        let mut o = DqbftOrderer::new(false);
        assert!(o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO).is_empty());
        assert!(o.on_partial_commit(blk(1, 1, 0), TimeNs::ZERO).is_empty());
        let got = o.on_sequenced(1, &[(1, 1), (0, 1)], TimeNs::ZERO);
        let order: Vec<u32> = got.iter().map(|c| c.block.index().0).collect();
        assert_eq!(order, vec![1, 0], "sequencing order wins");
        assert_eq!(o.confirmed_count(), 2);
    }

    #[test]
    fn sequencing_before_commit_waits_for_block() {
        let mut o = DqbftOrderer::new(false);
        assert!(o.on_sequenced(1, &[(0, 1)], TimeNs::ZERO).is_empty());
        let got = o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn head_of_line_blocking_on_missing_block() {
        let mut o = DqbftOrderer::new(false);
        o.on_partial_commit(blk(1, 1, 0), TimeNs::ZERO);
        assert!(o
            .on_sequenced(1, &[(0, 1), (1, 1)], TimeNs::ZERO)
            .is_empty());
        // (0,1) arrives: both release in order.
        let got = o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].block.index(), InstanceId(0));
    }

    #[test]
    fn leader_accumulates_and_cuts_canonical_refs() {
        let mut o = DqbftOrderer::new(true);
        o.on_partial_commit(blk(2, 1, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(0, 2, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(1, 1, 0), TimeNs::ZERO);
        assert!(o.has_pending_refs());
        let refs = o.cut_refs(10);
        // Canonical (round, instance) interleave.
        assert_eq!(refs, vec![(1, 1), (2, 1), (0, 2)]);
        assert!(!o.has_pending_refs());
    }

    #[test]
    fn duplicate_sequencing_suppressed() {
        let mut o = DqbftOrderer::new(false);
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        let got = o.on_sequenced(1, &[(0, 1), (0, 1)], TimeNs::ZERO);
        assert_eq!(got.len(), 1);
        assert!(o.on_sequenced(2, &[(0, 1)], TimeNs::ZERO).is_empty());
    }

    #[test]
    fn batches_sequence_in_round_order_whatever_the_commit_order() {
        let mut orders = Vec::new();
        for commit_order in [[1, 2, 3], [3, 1, 2], [2, 3, 1]] {
            let mut o = DqbftOrderer::new(false);
            for instance in 0..3 {
                o.on_partial_commit(blk(instance, 1, 0), TimeNs::ZERO);
            }
            let batch = |round| match round {
                1 => vec![(2, 1)],
                2 => vec![], // a nil fill still takes its round
                _ => vec![(0, 1), (1, 1)],
            };
            let mut got = Vec::new();
            for round in commit_order {
                got.extend(o.on_sequenced(round, &batch(round), TimeNs::ZERO));
                // A round committed again (state transfer) changes nothing.
                assert!(o.on_sequenced(round, &[(2, 1)], TimeNs::ZERO).is_empty());
            }
            orders.push(got.iter().map(|c| c.block.index().0).collect::<Vec<_>>());
        }
        assert!(orders.iter().all(|o| *o == [2, 0, 1]), "{orders:?}");
    }

    #[test]
    fn non_leader_does_not_accumulate_refs() {
        let mut o = DqbftOrderer::new(false);
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        assert!(!o.has_pending_refs());
    }
}
