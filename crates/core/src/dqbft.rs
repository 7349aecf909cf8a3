//! DQBFT-style global ordering: a dedicated ordering instance sequences
//! references to partially committed blocks (§2.2, §7).
//!
//! The Multi-BFT node runs one extra vanilla consensus instance (index
//! `m`) whose batches carry *block references* instead of transactions.
//! Whichever replica leads the ordering instance's current view cuts
//! references from its own partial-commit stream and drives consensus
//! over them. A cut takes each instance's committed rounds in order,
//! from the round after the last one cut or sequenced. Reference batches
//! are sequenced in the ordering instance's round order (PBFT may commit
//! them out of it), and a sequenced reference `(i, r)` sequences every
//! round of instance `i` not sequenced yet, up to `r`, in round order.
//! Each instance's blocks therefore confirm in round order whatever the
//! batches hold: a cut lost to a nil fill is covered by the instance's
//! next sequenced reference, and a reference to a round already
//! sequenced sequences nothing.
//!
//! The state is bounded by what is in flight: the blocks committed and
//! not yet confirmed, two frontiers per instance (the last round
//! sequenced, and the last round cut or sequenced), the reference
//! batches committed ahead of the next round to sequence, and one run
//! `(instance, first, last)` per sequenced reference still confirming —
//! a reference naming a far round costs one entry.
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

/// One instance's two frontiers (0 before any round).
#[derive(Default)]
struct Tip {
    /// The last round sequenced.
    sequenced: u64,
    /// The last round cut or sequenced: a cut starts at the round after.
    cut: u64,
}

/// The DQBFT ordering layer state at one replica.
#[derive(Default)]
pub struct DqbftOrderer {
    /// Blocks partially committed locally and not yet confirmed.
    blocks: HashMap<BlockRef, Block>,
    /// The frontiers of every instance committed here or named by a
    /// sequenced reference.
    tips: BTreeMap<u32, Tip>,
    /// Sequenced runs `(instance, first, last)` not yet confirmed, in
    /// sequence order: the head run's `first` round confirms next.
    sequenced: VecDeque<(u32, u64, u64)>,
    /// Reference batches the ordering instance committed above
    /// `sequenced_upto + 1`, by round, waiting for the rounds below them.
    committed: BTreeMap<u64, Vec<BlockRef>>,
    /// The ordering instance's rounds sequenced so far: `1..=` this
    /// (rounds start at 1).
    sequenced_upto: u64,
    confirmed: u64,
}

impl DqbftOrderer {
    /// Up to `max` references for the next ordering proposal: each
    /// instance's committed rounds that continue from the last one cut
    /// or sequenced, with no gap, sorted into the canonical
    /// `(round, instance)` interleave. Empty when there is nothing to
    /// propose.
    pub fn cut_refs(&mut self, max: usize) -> Vec<BlockRef> {
        let mut refs: Vec<BlockRef> = Vec::new();
        for (&i, tip) in &self.tips {
            let rounds = (tip.cut..=u64::MAX).skip(1).take(max);
            refs.extend(
                rounds
                    .take_while(|&r| self.blocks.contains_key(&(i, r)))
                    .map(|r| (i, r)),
            );
        }
        // Canonical slot order *within the batch* — the causality gap. A
        // prefix of it still takes each instance's rounds in order.
        refs.sort_by_key(|&(i, r)| (r, i));
        refs.truncate(max);
        for &(i, r) in &refs {
            self.tips.entry(i).or_default().cut = r;
        }
        refs
    }

    /// Called when the ordering instance commits its round-`round`
    /// reference batch. Batches enter the global sequence in round
    /// order, each once: PBFT commits rounds out of order, and replicas
    /// that appended batches as they committed would sequence the same
    /// references differently. A nil fill (no references) still takes
    /// its round. Each reference sequences its instance's rounds up to
    /// it, as one run.
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
            for (i, r) in batch {
                let tip = self.tips.entry(i).or_default();
                if r > tip.sequenced {
                    self.sequenced.push_back((i, tip.sequenced + 1, r));
                    tip.sequenced = r;
                    tip.cut = tip.cut.max(r);
                }
            }
        }
        self.drain()
    }

    fn drain(&mut self) -> Vec<ConfirmedBlock> {
        let mut out = Vec::new();
        while let Some(run) = self.sequenced.front_mut() {
            let (i, first, last) = *run;
            // Wait for the block to commit locally.
            let Some(block) = self.blocks.remove(&(i, first)) else {
                break;
            };
            if first == last {
                self.sequenced.pop_front();
            } else {
                run.1 += 1;
            }
            out.push(ConfirmedBlock {
                sn: self.confirmed,
                block,
            });
            self.confirmed += 1;
        }
        out
    }
}

impl GlobalOrderer for DqbftOrderer {
    fn on_partial_commit(&mut self, block: Block, _now: TimeNs) -> Vec<ConfirmedBlock> {
        let r: BlockRef = (block.index().0, block.round().0);
        self.tips.entry(r.0).or_default();
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
        assert_eq!(o.waiting_count(), 0);
        assert!(o.cut_refs(10).is_empty());
    }

    #[test]
    fn a_reference_sequences_the_rounds_a_nil_fill_dropped() {
        // This replica cut rounds 1 and 2 of instance 0, and the batch
        // carrying them was nil-filled. Its next cut starts at round 3,
        // and sequencing round 3 sequences rounds 1 and 2 before it.
        let mut o = DqbftOrderer::default();
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        o.on_partial_commit(blk(0, 2, 0), TimeNs::ZERO);
        assert_eq!(o.cut_refs(10), vec![(0, 1), (0, 2)]);
        assert!(o.on_sequenced(1, &[], TimeNs::ZERO).is_empty());
        o.on_partial_commit(blk(0, 3, 0), TimeNs::ZERO);
        assert_eq!(o.cut_refs(10), vec![(0, 3)]);
        let got = o.on_sequenced(2, &[(0, 3)], TimeNs::ZERO);
        let rounds: Vec<u64> = got.iter().map(|c| c.block.round().0).collect();
        assert_eq!(rounds, vec![1, 2, 3]);
    }

    #[test]
    fn a_reference_to_the_last_round_confirms_what_committed_and_waits() {
        let mut o = DqbftOrderer::default();
        o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO);
        let got = o.on_sequenced(1, &[(0, u64::MAX)], TimeNs::ZERO);
        assert_eq!(got.len(), 1);
        // One run stands for the whole range: nothing per round is held.
        assert_eq!(o.sequenced.len(), 1);
        assert_eq!(o.waiting_count(), 0);
        assert!(o.cut_refs(10).is_empty(), "every round is sequenced");
        let got = o.on_partial_commit(blk(0, 2, 0), TimeNs::ZERO);
        assert_eq!(got[0].block.round(), Round(2));
    }
}
