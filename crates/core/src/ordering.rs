//! The dynamic global ordering layer (Algorithm 1) and the orderer trait.
//!
//! Every replica runs an orderer over its stream of partially committed
//! blocks. [`LadonOrderer`] implements the paper's Algorithm 1: blocks are
//! globally confirmed once their `(rank, index)` key falls below the
//! *confirmation bar* `(B*.rank + 1, B*.index)`, where `B*` is the
//! `≺`-minimal *last partially confirmed* block across instances. Baseline
//! orderers (ISS/Mir/RCC pre-determined, DQBFT sequenced) live in
//! [`crate::predetermined`] and [`crate::dqbft`].

use ladon_types::{Block, InstanceId, OrderKey, Rank, Round, TimeNs};
use std::collections::BTreeMap;

/// A globally confirmed block with its computed ordering index `sn`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfirmedBlock {
    /// The global ordering index (position in the global log, from 0).
    pub sn: u64,
    /// The block.
    pub block: Block,
}

/// A replica-local global ordering layer.
pub trait GlobalOrderer {
    /// Feeds one partially committed block; returns the blocks that became
    /// globally confirmed as a result, in global-log order.
    fn on_partial_commit(&mut self, block: Block, now: TimeNs) -> Vec<ConfirmedBlock>;

    /// Number of blocks globally confirmed so far.
    fn confirmed_count(&self) -> u64;

    /// Blocks partially committed but not yet globally confirmed
    /// (the paper's Fig. 2a "waiting blocks" series).
    fn waiting_count(&self) -> usize;
}

/// Per-instance intake state: blocks must be *partially confirmed* (all
/// earlier rounds partially committed) before they join the candidate set.
#[derive(Default)]
struct InstanceIntake {
    /// Out-of-order commits waiting for their predecessors.
    ooo: BTreeMap<Round, Block>,
    /// Highest contiguously committed round.
    upto: Round,
    /// Ordering key of the last partially confirmed block (the instance's
    /// entry in the paper's set `S'`).
    tip: Option<OrderKey>,
}

/// Algorithm 1: Ladon's dynamic global ordering.
pub struct LadonOrderer {
    intake: Vec<InstanceIntake>,
    /// The candidate set `S = G_in \ G_out`, ordered by `≺`.
    pending: BTreeMap<OrderKey, Block>,
    confirmed: u64,
}

impl LadonOrderer {
    /// An orderer over `m` instances.
    pub fn new(m: usize) -> Self {
        Self {
            intake: (0..m).map(|_| InstanceIntake::default()).collect(),
            pending: BTreeMap::new(),
            confirmed: 0,
        }
    }

    /// The current confirmation bar: `(B*.rank + 1, B*.index)` over the
    /// minimal tip, or the initial bar `(0, 0)` while some instance has no
    /// partially confirmed block yet.
    pub fn bar(&self) -> OrderKey {
        let mut min_tip: Option<OrderKey> = None;
        for it in &self.intake {
            match it.tip {
                None => return OrderKey::INITIAL_BAR,
                Some(t) => {
                    min_tip = Some(match min_tip {
                        None => t,
                        Some(m) if t < m => t,
                        Some(m) => m,
                    });
                }
            }
        }
        match min_tip {
            Some(b_star) => OrderKey::new(b_star.rank.next(), b_star.index),
            None => OrderKey::INITIAL_BAR,
        }
    }

    /// Fast-forwards the whole orderer past a snapshot boundary: instance
    /// `i`'s intake jumps to `frontier[i] = (round, rank)` — its last
    /// partially confirmed block in the snapshotted prefix — and the
    /// global confirmation counter jumps to `confirmed` (the snapshot's
    /// applied count). Blocks at or below the new frontiers are history
    /// the snapshot already covers; pending candidates are re-evaluated
    /// under the new bar. Called only on snapshot install, where the
    /// quorum-signed state root vouches for the skipped prefix.
    pub fn fast_forward(&mut self, frontier: &[(Round, Rank)], confirmed: u64) {
        assert_eq!(frontier.len(), self.intake.len());
        if confirmed <= self.confirmed {
            return;
        }
        for (i, &(round, rank)) in frontier.iter().enumerate() {
            let it = &mut self.intake[i];
            if round <= it.upto {
                continue;
            }
            it.upto = round;
            it.tip = Some(OrderKey::of_block(rank, InstanceId(i as u32), round));
            // Drop parked commits the snapshot covers; later ones stay and
            // re-promote as their predecessors install.
            it.ooo = it.ooo.split_off(&round.next());
        }
        self.pending
            .retain(|_, b| b.round() > frontier[b.index().as_usize()].0);
        self.confirmed = confirmed;
        // Promote anything now contiguous with the new frontiers.
        for i in 0..self.intake.len() {
            let it = &mut self.intake[i];
            while let Some(b) = it.ooo.remove(&it.upto.next()) {
                it.upto = it.upto.next();
                it.tip = Some(b.key());
                self.pending.insert(b.key(), b);
            }
        }
    }

    fn drain_confirmable(&mut self) -> Vec<ConfirmedBlock> {
        let bar = self.bar();
        let mut out = Vec::new();
        // Lines 6–11: repeatedly confirm the ≺-lowest candidate below bar.
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() >= bar {
                break;
            }
            let block = entry.remove();
            out.push(ConfirmedBlock {
                sn: self.confirmed,
                block,
            });
            self.confirmed += 1;
        }
        out
    }
}

impl GlobalOrderer for LadonOrderer {
    fn on_partial_commit(&mut self, block: Block, _now: TimeNs) -> Vec<ConfirmedBlock> {
        let idx = block.index().as_usize();
        assert!(
            idx < self.intake.len(),
            "unknown instance {}",
            block.index()
        );
        let it = &mut self.intake[idx];
        if block.round() <= it.upto {
            // Replayed history below the frontier (snapshot install or a
            // duplicate sync entry): already accounted for.
            return Vec::new();
        }
        it.ooo.insert(block.round(), block);
        // Promote the contiguous prefix into the candidate set and advance
        // the instance tip (the "partially confirmed" rule).
        while let Some(b) = it.ooo.remove(&it.upto.next()) {
            it.upto = it.upto.next();
            it.tip = Some(b.key());
            self.pending.insert(b.key(), b);
        }
        self.drain_confirmable()
    }

    fn confirmed_count(&self) -> u64 {
        self.confirmed
    }

    fn waiting_count(&self) -> usize {
        self.pending.len() + self.intake.iter().map(|i| i.ooo.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::{Batch, BlockHeader, Digest, InstanceId, Rank};

    /// A block with the given coordinates.
    pub(crate) fn blk(instance: u32, round: u64, rank: u64) -> Block {
        Block {
            header: BlockHeader {
                index: InstanceId(instance),
                round: Round(round),
                rank: Rank(rank),
                payload_digest: Digest([rank as u8; 32]),
            },
            batch: Batch::empty(0),
            proposed_at: TimeNs::ZERO,
        }
    }

    fn feed(o: &mut LadonOrderer, b: Block) -> Vec<u64> {
        o.on_partial_commit(b, TimeNs::ZERO)
            .into_iter()
            .map(|c| c.block.rank().0)
            .collect()
    }

    #[test]
    fn nothing_confirms_until_all_instances_have_tips() {
        let mut o = LadonOrderer::new(3);
        assert!(feed(&mut o, blk(0, 1, 1)).is_empty());
        assert!(feed(&mut o, blk(1, 1, 1)).is_empty());
        assert_eq!(o.bar(), OrderKey::INITIAL_BAR);
        // Third instance reports: bar jumps, low blocks confirm.
        let got = feed(&mut o, blk(2, 1, 1));
        // bar = (2, 0): all three rank-1 blocks are < (2,0).
        assert_eq!(got, vec![1, 1, 1]);
        assert_eq!(o.confirmed_count(), 3);
    }

    #[test]
    fn fig3_walkthrough() {
        // Fig. 3's state at time t1:
        //   G_in = {B0_1(0), B0_2(1), B0_3(3), B1_1(1), B1_2(2), B2_1(2), B2_2(3)}
        // ranks: instance 0 blocks rank 0,1,3; instance 1: 1,2; instance 2: 2,3.
        // After the full intake exactly B2_2 remains unconfirmed:
        // bar = (B1_2.rank + 1, 1) = (3, 1) and B2_2 = (3, 2) is not below it.
        let mut o = LadonOrderer::new(3);
        let mut confirmed = Vec::new();
        confirmed.extend(o.on_partial_commit(blk(0, 1, 0), TimeNs::ZERO));
        confirmed.extend(o.on_partial_commit(blk(0, 2, 1), TimeNs::ZERO));
        confirmed.extend(o.on_partial_commit(blk(1, 1, 1), TimeNs::ZERO));
        confirmed.extend(o.on_partial_commit(blk(2, 1, 2), TimeNs::ZERO));
        confirmed.extend(o.on_partial_commit(blk(0, 3, 3), TimeNs::ZERO));
        confirmed.extend(o.on_partial_commit(blk(1, 2, 2), TimeNs::ZERO));
        // Tips now: i0=(3,0), i1=(2,1), i2=(2,2). B* = (2,1), bar = (3,1).
        assert_eq!(o.bar(), OrderKey::new(Rank(3), InstanceId(1)));
        confirmed.extend(o.on_partial_commit(blk(2, 2, 3), TimeNs::ZERO));
        let keys: Vec<(u64, u32)> = confirmed
            .iter()
            .map(|c| (c.block.rank().0, c.block.index().0))
            .collect();
        assert_eq!(keys.len(), 6);
        assert!(keys.contains(&(3, 0)), "B0_3 must confirm: {keys:?}");
        assert!(!keys.contains(&(3, 2)), "B2_2 must wait: {keys:?}");
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "global log must follow the precedence order");
        assert_eq!(o.waiting_count(), 1); // B2_2 still pending
        assert_eq!(o.confirmed_count(), 6);
    }

    #[test]
    fn straggler_block_leaps_ahead_and_unblocks() {
        // Instances 0 and 1 are fast; instance 2 is a straggler. Fast
        // instances commit ranks 1..6 while the straggler is silent; then
        // its block arrives with a *high* rank (dynamic ordering) and
        // everything below confirms at once.
        let mut o = LadonOrderer::new(3);
        for r in 1..=3u64 {
            feed(&mut o, blk(0, r, 2 * r - 1));
            feed(&mut o, blk(1, r, 2 * r));
        }
        assert_eq!(o.confirmed_count(), 0);
        assert_eq!(o.waiting_count(), 6);
        // Straggler commits one block with rank 7 (current max + 1).
        let got = feed(&mut o, blk(2, 1, 7));
        // Min tip is instance 0's (5, 0), so bar = (6, 0): ranks 1..5
        // confirm; (6, 1) and (7, 2) must wait because instance 0 could
        // still legitimately produce a rank-6 block.
        assert_eq!(got.len(), 5);
        assert_eq!(o.waiting_count(), 2);
        // Instance 0's next block arrives with rank 8: the bar moves to
        // (7, 1) and instance 1's rank-6 block confirms; the straggler's
        // rank-7 block and the new rank-8 block still wait.
        let got = feed(&mut o, blk(0, 4, 8));
        assert_eq!(got.len(), 1);
        assert_eq!(o.waiting_count(), 2);
    }

    #[test]
    fn out_of_order_rounds_wait_for_contiguity() {
        let mut o = LadonOrderer::new(1);
        // Round 2 arrives before round 1: must not advance the tip.
        assert!(feed(&mut o, blk(0, 2, 2)).is_empty());
        assert_eq!(o.bar(), OrderKey::INITIAL_BAR);
        assert_eq!(o.waiting_count(), 1);
        // Round 1 arrives: both become partially confirmed; bar = (3, 0);
        // both confirm.
        let got = feed(&mut o, blk(0, 1, 1));
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn sn_is_dense_and_ordered_by_key() {
        let mut o = LadonOrderer::new(2);
        feed(&mut o, blk(0, 1, 1));
        let mut all = Vec::new();
        all.extend(o.on_partial_commit(blk(1, 1, 2), TimeNs::ZERO));
        feed(&mut o, blk(0, 2, 3));
        all.extend(o.on_partial_commit(blk(1, 2, 4), TimeNs::ZERO));
        let sns: Vec<u64> = all.iter().map(|c| c.sn).collect();
        assert_eq!(sns, (0..sns.len() as u64).collect::<Vec<_>>());
        // Keys non-decreasing along the global log.
        for w in all.windows(2) {
            assert!(w[0].block.key() < w[1].block.key());
        }
    }

    #[test]
    fn equal_ranks_tie_break_by_instance() {
        let mut o = LadonOrderer::new(2);
        let mut got = Vec::new();
        got.extend(o.on_partial_commit(blk(1, 1, 5), TimeNs::ZERO));
        got.extend(o.on_partial_commit(blk(0, 1, 5), TimeNs::ZERO));
        // Push tips forward so both confirm.
        got.extend(o.on_partial_commit(blk(0, 2, 8), TimeNs::ZERO));
        got.extend(o.on_partial_commit(blk(1, 2, 9), TimeNs::ZERO));
        let order: Vec<u32> = got.iter().map(|c| c.block.index().0).collect();
        // rank-5 blocks first, instance 0 before instance 1.
        assert_eq!(&order[..2], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn unknown_instance_panics() {
        let mut o = LadonOrderer::new(1);
        o.on_partial_commit(blk(5, 1, 1), TimeNs::ZERO);
    }
}
