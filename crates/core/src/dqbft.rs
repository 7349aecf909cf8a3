//! DQBFT-style global ordering: a dedicated ordering instance sequences
//! references to partially committed blocks (§2.2, §7).
//!
//! The Multi-BFT node runs one extra vanilla consensus instance (index
//! `m`) whose batches carry *block references* instead of transactions.
//! Every replica keeps the references it has committed and not yet seen
//! sequenced, so whichever replica leads the ordering instance's current
//! view batches them from its own partial-commit stream and drives
//! consensus over them. A cut takes each instance's references in round
//! order only, from the round after the last one cut or sequenced.
//! Reference batches are sequenced in the ordering instance's round
//! order (PBFT may commit them out of it), and the referenced blocks
//! become globally confirmed in that order.
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
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A reference to a partially committed block: `(instance, round)`.
pub type BlockRef = (u32, u64);

/// The DQBFT ordering layer state at one replica.
#[derive(Default)]
pub struct DqbftOrderer {
    /// Blocks partially committed locally, by reference.
    blocks: HashMap<BlockRef, Block>,
    /// Sequenced references not yet confirmed (head-of-line order).
    sequenced: VecDeque<BlockRef>,
    /// References already sequenced (duplicate suppression).
    seen: HashSet<BlockRef>,
    /// Reference batches the ordering instance committed above
    /// `sequenced_upto + 1`, by round, waiting for the rounds below them.
    committed: BTreeMap<u64, Vec<BlockRef>>,
    /// The ordering instance's rounds sequenced so far: `1..=` this
    /// (rounds start at 1).
    sequenced_upto: u64,
    /// References committed here and not yet sequenced: what this
    /// replica proposes whenever it leads the ordering instance.
    unsequenced: BTreeSet<BlockRef>,
    /// Per instance, the last round cut or sequenced (0 before any): a
    /// cut may start only at the round after it.
    cut_upto: HashMap<u32, u64>,
    confirmed: u64,
}

impl DqbftOrderer {
    /// The last round of instance `i` cut or sequenced.
    fn cut_upto(&self, i: u32) -> u64 {
        self.cut_upto.get(&i).copied().unwrap_or(0)
    }

    /// Up to `max` references for the next ordering proposal: each
    /// instance's unsequenced references that continue its rounds from
    /// the last one cut or sequenced, with no gap, sorted into the
    /// canonical `(round, instance)` interleave. Empty when there is
    /// nothing to propose.
    pub fn cut_refs(&mut self, max: usize) -> Vec<BlockRef> {
        let mut refs: Vec<BlockRef> = Vec::new();
        // `unsequenced` is sorted by instance, then round.
        for &(i, r) in &self.unsequenced {
            let next = match refs.last() {
                Some(&(last_i, last_r)) if last_i == i => last_r + 1,
                _ => self.cut_upto(i) + 1,
            };
            if r == next {
                refs.push((i, r));
            }
        }
        // Canonical slot order *within the batch* — the causality gap. A
        // prefix of it still takes each instance's rounds in order.
        refs.sort_by_key(|&(i, r)| (r, i));
        refs.truncate(max);
        for &(i, r) in &refs {
            self.cut_upto.insert(i, r);
        }
        refs
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
        if round > self.sequenced_upto {
            self.committed.entry(round).or_insert_with(|| refs.to_vec());
        }
        while let Some(batch) = self.committed.remove(&(self.sequenced_upto + 1)) {
            self.sequenced_upto += 1;
            for r in batch {
                if self.seen.insert(r) {
                    self.sequenced.push_back(r);
                    self.unsequenced.remove(&r);
                    let upto = self.cut_upto(r.0).max(r.1);
                    self.cut_upto.insert(r.0, upto);
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
        if !self.seen.contains(&r) {
            self.unsequenced.insert(r);
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
        let mut o = DqbftOrderer::default();
        assert!(o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO).is_empty());
        assert!(o.on_partial_commit(blk(1, 1, 0), TimeNs::ZERO).is_empty());
        let got = o.on_sequenced(1, &[(1, 1), (0, 1)], TimeNs::ZERO);
        let order: Vec<u32> = got.iter().map(|c| c.block.index().0).collect();
        assert_eq!(order, vec![1, 0], "sequencing order wins");
        assert_eq!(o.confirmed_count(), 2);
    }

    #[test]
    fn sequencing_before_commit_waits_for_block() {
        let mut o = DqbftOrderer::default();
        assert!(o.on_sequenced(1, &[(0, 1)], TimeNs::ZERO).is_empty());
        let got = o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn head_of_line_blocking_on_missing_block() {
        let mut o = DqbftOrderer::default();
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
    fn every_replica_accumulates_and_cuts_refs_in_round_order() {
        let mut o = DqbftOrderer::default();
        o.on_partial_commit(blk(2, 1, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(0, 2, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(1, 1, 0), TimeNs::ZERO);
        // Canonical (round, instance) interleave; instance 0's round 2
        // waits for its round 1.
        assert_eq!(o.cut_refs(10), vec![(1, 1), (2, 1)]);
        assert!(
            o.cut_refs(10).is_empty(),
            "a cut reference is not cut again"
        );
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(1, 3, 0), TimeNs::ZERO);
        // A capped cut is a prefix of the interleave: still in round
        // order per instance.
        assert_eq!(o.cut_refs(1), vec![(0, 1)]);
        assert_eq!(o.cut_refs(10), vec![(0, 2)]);
    }

    #[test]
    fn duplicate_sequencing_suppressed() {
        let mut o = DqbftOrderer::default();
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        let got = o.on_sequenced(1, &[(0, 1), (0, 1)], TimeNs::ZERO);
        assert_eq!(got.len(), 1);
        assert!(o.on_sequenced(2, &[(0, 1)], TimeNs::ZERO).is_empty());
    }

    #[test]
    fn batches_sequence_in_round_order_whatever_the_commit_order() {
        let mut orders = Vec::new();
        for commit_order in [[1, 2, 3], [3, 1, 2], [2, 3, 1]] {
            let mut o = DqbftOrderer::default();
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
    fn sequenced_refs_are_pruned_and_move_the_cut() {
        // Another replica led the ordering instance and sequenced
        // instance 0's round 1: this replica prunes it and cuts from
        // round 2.
        let mut o = DqbftOrderer::default();
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(0, 2, 0), TimeNs::ZERO);
        assert_eq!(o.on_sequenced(1, &[(0, 1)], TimeNs::ZERO).len(), 1);
        assert_eq!(o.cut_refs(10), vec![(0, 2)]);
        // Sequenced before it committed here: never held at all.
        o.on_sequenced(2, &[(0, 2), (0, 3)], TimeNs::ZERO);
        o.on_partial_commit(blk(0, 3, 0), TimeNs::ZERO);
        assert!(o.unsequenced.is_empty());
        assert!(o.cut_refs(10).is_empty());
    }
}
