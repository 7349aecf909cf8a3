//! The global ordering layer (Algorithm 1) and the orderer trait.
//!
//! Every replica runs an orderer over its stream of partially committed
//! blocks. [`LadonOrderer`] implements the paper's Algorithm 1: blocks are
//! globally confirmed once their `(rank, index)` key falls below the
//! *confirmation bar* `(B*.rank + 1, B*.index)`, where `B*` is the
//! `≺`-minimal *last partially confirmed* block across instances.
//!
//! Pre-determined ordering (ISS, RCC, Mir; §1, Fig. 1) is the same rule
//! with ranks fixed to rounds ([`LadonOrderer::pre_determined`]):
//! - a vanilla instance ranks its round-`r` block `r`, so the key
//!   `(r, i)` sorts blocks as `sn = (r − 1)·m + i` does;
//! - with tips `(u_i, i)`, the bar `(u + 1, j)` over the minimal tip is
//!   the first `sn` not committed, so a block confirms exactly once every
//!   smaller `sn` has committed, and a hole stalls every later slot.
//!
//! Mir differs only by its stall after a new view
//! ([`LadonOrderer::hold_until`]). DQBFT's sequenced order is
//! [`crate::dqbft`]. Ladon itself keeps the initial bar `(0, 0)` until
//! every instance has a partially confirmed block: its ranks are not
//! rounds, and a nil fill can carry rank 0 (epoch 0's `minRank`), so a
//! tip started at rank 0 could confirm a block ahead of such a nil.
//!
//! Under every protocol it orders, the orderer holds the epoch boundary
//! ([`LadonOrderer::set_ceiling`]), so the baselines close, checkpoint and
//! drain epochs as Ladon does. With ranks fixed to rounds an epoch is a
//! fixed range of rounds per instance: a vanilla instance does not stop
//! at the boundary, and its rounds past it park until the next epoch.

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
    /// Commits waiting for their predecessors or, ranked above the
    /// ceiling, for the next epoch.
    ooo: BTreeMap<Round, Block>,
    /// Highest round promoted into the candidate set.
    upto: Round,
    /// Ordering key of the last partially confirmed block (the instance's
    /// entry in the paper's set `S'`).
    tip: Option<OrderKey>,
}

/// Algorithm 1: Ladon's dynamic global ordering, held at an epoch
/// boundary.
///
/// The orderer also owns the boundary (§5.2.1): a block ranked above the
/// `ceiling` — the current epoch's `maxRank` — stays parked in its
/// instance's `ooo`, so the global log stops at the epoch's last block.
/// Once every instance's tip sits at the ceiling, the whole epoch is
/// confirmed and nothing past it is: [`Self::epoch_frontier`] is then the
/// same prefix on every replica, the one a checkpoint signs.
pub struct LadonOrderer {
    intake: Vec<InstanceIntake>,
    /// The candidate set `S = G_in \ G_out`, ordered by `≺`.
    pending: BTreeMap<OrderKey, Block>,
    confirmed: u64,
    /// The highest rank that may join the candidate set.
    ceiling: Rank,
    /// A partial commit before this instant confirms nothing.
    hold: TimeNs,
}

impl LadonOrderer {
    /// An orderer over `m` instances with no ceiling (no epochs).
    pub fn new(m: usize) -> Self {
        Self {
            intake: (0..m).map(|_| InstanceIntake::default()).collect(),
            pending: BTreeMap::new(),
            confirmed: 0,
            ceiling: Rank(u64::MAX),
            hold: TimeNs::ZERO,
        }
    }

    /// An orderer over `m` vanilla instances, which rank each block at
    /// its round: pre-determined ordering (see the module docs). Every
    /// tip starts at its instance's round 0, rank 0, which is sound only
    /// because an instance's next block ranks at its round.
    pub fn pre_determined(m: usize) -> Self {
        let mut o = Self::new(m);
        for (i, it) in o.intake.iter_mut().enumerate() {
            it.tip = Some(OrderKey::of_block(Rank(0), InstanceId(i as u32), Round(0)));
        }
        o
    }

    /// Holds confirmation until `t`: a partial commit before `t` confirms
    /// nothing, and the first one at or after `t` confirms everything
    /// that waited. What is confirmed never changes, only when.
    pub fn hold_until(&mut self, t: TimeNs) {
        self.hold = t;
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

    /// Moves the ceiling to `max` (the new epoch's `maxRank`) and returns
    /// the blocks that the move lets confirm, in global-log order.
    pub fn set_ceiling(&mut self, max: Rank) -> Vec<ConfirmedBlock> {
        self.ceiling = max;
        for i in 0..self.intake.len() {
            self.promote(i);
        }
        self.drain_confirmable()
    }

    /// Each instance's last partially confirmed round, once every tip's
    /// rank equals the ceiling and no candidate waits: the epoch is over,
    /// all of it is confirmed and nothing after it, so the rounds are the
    /// same on every replica. `None` while some instance has not reached
    /// the ceiling, or while a hold keeps the epoch's blocks pending.
    pub fn epoch_frontier(&self) -> Option<Vec<u64>> {
        if !self.pending.is_empty() {
            return None;
        }
        self.intake
            .iter()
            .map(|it| it.tip.filter(|t| t.rank == self.ceiling).map(|_| it.upto.0))
            .collect()
    }

    /// Fast-forwards the whole orderer past a snapshot boundary: instance
    /// `i`'s intake jumps to round `rounds[i]`, its last block in the
    /// snapshotted prefix, ranked `rank` (the snapshot epoch's `maxRank`),
    /// and the global confirmation counter jumps to `confirmed` (the
    /// snapshot's applied count). Blocks at or below the new frontiers are
    /// history the snapshot already covers; pending candidates are
    /// re-evaluated under the new bar. Called only on snapshot install,
    /// where the quorum-signed state root vouches for the skipped prefix.
    pub fn fast_forward(&mut self, rounds: &[u64], rank: Rank, confirmed: u64) {
        assert_eq!(rounds.len(), self.intake.len());
        if confirmed <= self.confirmed {
            return;
        }
        for (i, &round) in rounds.iter().enumerate() {
            let (it, round) = (&mut self.intake[i], Round(round));
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
            .retain(|_, b| b.round().0 > rounds[b.index().as_usize()]);
        self.confirmed = confirmed;
        for i in 0..self.intake.len() {
            self.promote(i);
        }
    }

    /// Moves instance `i`'s contiguous parked prefix, up to the ceiling,
    /// into the candidate set and advances its tip (the "partially
    /// confirmed" rule).
    fn promote(&mut self, i: usize) {
        let it = &mut self.intake[i];
        while let Some(next) = it.ooo.first_entry() {
            if *next.key() != it.upto.next() || next.get().rank() > self.ceiling {
                break;
            }
            let b = next.remove();
            it.upto = b.round();
            it.tip = Some(b.key());
            self.pending.insert(b.key(), b);
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
    fn on_partial_commit(&mut self, block: Block, now: TimeNs) -> Vec<ConfirmedBlock> {
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
        self.promote(idx);
        if now < self.hold {
            return Vec::new();
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

    /// An orderer over `m` instances held at an epoch whose `maxRank` is 7.
    fn epoch_orderer(m: usize) -> LadonOrderer {
        let mut o = LadonOrderer::new(m);
        assert!(o.set_ceiling(Rank(7)).is_empty());
        o
    }

    #[test]
    fn an_epoch_is_not_over_while_a_hole_sits_below_its_max_rank_block() {
        let mut o = epoch_orderer(2);
        // Both instances commit their rank-7 block, instance 0 ahead of
        // its round 1: every instance "reached maxRank", yet instance 0's
        // round 1 is missing and the epoch is not over.
        assert!(feed(&mut o, blk(0, 2, 7)).is_empty());
        feed(&mut o, blk(1, 1, 7));
        assert_eq!(o.epoch_frontier(), None);
        assert_eq!(feed(&mut o, blk(0, 1, 3)), vec![3, 7, 7]);
        assert_eq!(o.epoch_frontier(), Some(vec![2, 1]));
        assert_eq!(o.waiting_count(), 0);
    }

    #[test]
    fn a_block_above_the_ceiling_stays_parked_until_the_ceiling_rises() {
        let mut o = epoch_orderer(2);
        feed(&mut o, blk(0, 1, 7));
        // Epoch 1 blocks (synced early, say) behind each epoch-0 tip.
        assert!(feed(&mut o, blk(0, 2, 9)).is_empty());
        assert_eq!(feed(&mut o, blk(1, 1, 7)), vec![7, 7]);
        assert!(feed(&mut o, blk(1, 2, 8)).is_empty());
        assert_eq!(o.epoch_frontier(), Some(vec![1, 1]));
        assert_eq!((o.confirmed_count(), o.waiting_count()), (2, 2));
        // The next epoch's maxRank releases them in key order.
        let released = o.set_ceiling(Rank(15));
        let keys: Vec<(u64, u64)> = released.iter().map(|c| (c.sn, c.block.rank().0)).collect();
        assert_eq!(keys, [(2, 8), (3, 9)]);
        assert_eq!(o.epoch_frontier(), None);
    }

    #[test]
    fn the_epoch_frontier_is_each_instances_last_round_at_the_ceiling() {
        let mut o = epoch_orderer(3);
        for (instance, round, rank) in [(0, 1, 1), (2, 1, 2), (0, 2, 4), (1, 1, 7), (2, 2, 7)] {
            feed(&mut o, blk(instance, round, rank));
        }
        assert_eq!(o.epoch_frontier(), None, "instance 0 is below the ceiling");
        feed(&mut o, blk(0, 3, 7));
        assert_eq!(o.epoch_frontier(), Some(vec![3, 1, 2]));
        assert_eq!(o.confirmed_count(), 6, "the whole epoch, nothing after it");
    }

    /// A vanilla instance's block: ranked at its round.
    fn vanilla(instance: u32, round: u64) -> Block {
        blk(instance, round, round)
    }

    fn sns(got: &[ConfirmedBlock]) -> Vec<u64> {
        got.iter().map(|c| c.sn).collect()
    }

    #[test]
    fn pre_determined_confirms_in_sn_order() {
        let mut o = LadonOrderer::pre_determined(3);
        // Round 1 of instances 1 and 2 arrive first: they wait for i0.
        assert!(o.on_partial_commit(vanilla(1, 1), TimeNs::ZERO).is_empty());
        assert!(o.on_partial_commit(vanilla(2, 1), TimeNs::ZERO).is_empty());
        assert_eq!(o.waiting_count(), 2);
        let got = o.on_partial_commit(vanilla(0, 1), TimeNs::ZERO);
        assert_eq!(sns(&got), vec![0, 1, 2]);
    }

    #[test]
    fn a_pre_determined_hole_stalls_every_later_slot() {
        // §2.1: a straggling instance 1 stalls blocks 5, 6, 8, 9 …
        let mut o = LadonOrderer::pre_determined(3);
        for i in 0..3 {
            o.on_partial_commit(vanilla(i, 1), TimeNs::ZERO);
        }
        // Instance 1 goes quiet; instances 0 and 2 keep producing. The
        // slot right after the confirmed prefix (instance 0, round 2)
        // still confirms, then instance 1's hole at sn 4 stalls the rest.
        let got = o.on_partial_commit(vanilla(0, 2), TimeNs::ZERO);
        assert_eq!(sns(&got), vec![3]);
        assert!(o.on_partial_commit(vanilla(2, 2), TimeNs::ZERO).is_empty());
        for r in 3..=4 {
            assert!(o.on_partial_commit(vanilla(0, r), TimeNs::ZERO).is_empty());
            assert!(o.on_partial_commit(vanilla(2, r), TimeNs::ZERO).is_empty());
        }
        assert_eq!(o.confirmed_count(), 4);
        assert_eq!(o.waiting_count(), 5);
        // The straggler's round-2 block fills sn 4; sn 4..6 release (sn 7
        // is the straggler's still-missing round-3 slot).
        let got = o.on_partial_commit(vanilla(1, 2), TimeNs::ZERO);
        assert_eq!(sns(&got), vec![4, 5, 6]);
    }

    /// A hole waits for its instance, however long: the orderer makes no
    /// block of its own. Once the instance commits the slot (here, as a
    /// new view's first block), ISS confirms it at once and Mir, held
    /// after the new view, only once its hold ends: the same blocks
    /// either way.
    #[test]
    fn a_new_view_stalls_mir_and_not_iss() {
        let new_view = TimeNs::from_secs(30);
        let after_hold = new_view + TimeNs::from_secs(5);
        for mir in [false, true] {
            let mut o = LadonOrderer::pre_determined(2);
            o.on_partial_commit(vanilla(0, 1), TimeNs::ZERO);
            o.on_partial_commit(vanilla(0, 2), TimeNs::ZERO);
            // sn 0 confirmed; sn 1 is instance 1's hole.
            assert_eq!(o.confirmed_count(), 1, "mir: {mir}");
            if mir {
                o.hold_until(after_hold);
            }
            let got = o.on_partial_commit(vanilla(1, 1), new_view);
            let later = o.on_partial_commit(vanilla(1, 2), after_hold);
            if mir {
                assert!(got.is_empty(), "Mir stalls during the epoch change");
                assert_eq!(sns(&later), vec![1, 2, 3]);
            } else {
                assert_eq!(sns(&got), vec![1, 2]);
                assert_eq!(sns(&later), vec![3]);
            }
            assert_eq!(o.confirmed_count(), 4, "mir: {mir}");
            assert_eq!(o.waiting_count(), 0, "mir: {mir}");
        }
    }

    /// Under a hold the tips reach the ceiling while their blocks wait:
    /// the epoch is not over until they confirm, or replicas would
    /// checkpoint different prefixes.
    #[test]
    fn a_held_epoch_is_not_over_until_its_blocks_confirm() {
        let t = TimeNs::from_secs(5);
        let mut o = LadonOrderer::pre_determined(2);
        assert!(o.set_ceiling(Rank(2)).is_empty());
        o.hold_until(t);
        for r in 1..=2 {
            for i in 0..2 {
                assert!(o.on_partial_commit(vanilla(i, r), TimeNs::ZERO).is_empty());
                assert_eq!(o.epoch_frontier(), None, "held: instance {i} round {r}");
            }
        }
        // Round 3 parks above the ceiling; the commit ends the hold.
        let got = o.on_partial_commit(vanilla(0, 3), t);
        assert_eq!(sns(&got), vec![0, 1, 2, 3]);
        assert_eq!(o.epoch_frontier(), Some(vec![2, 2]));
    }

    #[test]
    fn pre_determined_sns_match_fig1() {
        // Rounds 1..=4 of three instances, committed latest round first.
        let mut o = LadonOrderer::pre_determined(3);
        let mut got = Vec::new();
        for r in (1..=4).rev() {
            for i in 0..3 {
                got.extend(o.on_partial_commit(vanilla(i, r), TimeNs::ZERO));
            }
        }
        let at = |i: u32, r: u64| {
            let c = got
                .iter()
                .find(|c| c.block.index().0 == i && c.block.round().0 == r);
            c.expect("every block confirms").sn
        };
        // Fig. 1: instance 0 blocks get 0, 3, 6, 9; instance 2 gets 2, 5, 8, 11.
        assert_eq!([at(0, 1), at(0, 2), at(0, 3), at(0, 4)], [0, 3, 6, 9]);
        assert_eq!([at(2, 1), at(2, 2), at(2, 3), at(2, 4)], [2, 5, 8, 11]);
        assert_eq!(at(1, 2), 4);
    }

    #[test]
    fn a_duplicate_commit_is_idempotent() {
        let mut o = LadonOrderer::pre_determined(1);
        let got = o.on_partial_commit(vanilla(0, 1), TimeNs::ZERO);
        assert_eq!(got.len(), 1);
        let got = o.on_partial_commit(vanilla(0, 1), TimeNs::ZERO);
        assert!(got.is_empty());
        assert_eq!(o.confirmed_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn unknown_instance_panics() {
        let mut o = LadonOrderer::new(1);
        o.on_partial_commit(blk(5, 1, 1), TimeNs::ZERO);
    }
}
