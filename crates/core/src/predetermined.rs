//! Pre-determined global ordering baselines: ISS, Mir and RCC.
//!
//! All three assign block `(instance i, round j)` the global index
//! `sn = (j − 1)·m + i` *before* the block exists (§1, Fig. 1), and
//! confirm strictly in `sn` order — so a missing block ("hole") from a
//! slow instance stalls every later block. They differ in how they react
//! to a quiet or lagging leader:
//!
//! - **ISS** delivers a `⊥` (nil) block for a round once the leader's
//!   quiet timeout fires, filling the hole without disturbing other
//!   instances.
//! - **Mir** suspects the leader and forces an *epoch change* that stalls
//!   confirmation everywhere for a configured penalty before the hole is
//!   filled (the coarser recovery the paper attributes to Mir-BFT).
//! - **RCC** removes a leader whose instance lags the most advanced
//!   instance by more than a threshold number of blocks; the removed
//!   instance's future slots are filled with nils (wait-free recovery).
//!
//! The paper's honest stragglers calibrate their delays to stay *under*
//! these timeouts (§6.1), which is exactly why pre-determined ordering
//! suffers: the holes persist and throughput collapses to ~1/k (§2.1).

use crate::ordering::{ConfirmedBlock, GlobalOrderer};
use ladon_types::{Batch, Block, BlockHeader, Digest, InstanceId, Rank, Round, TimeNs};
use std::collections::HashMap;

/// Which baseline flavour an [`PredeterminedOrderer`] implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaselineKind {
    /// ISS: ⊥-delivery on timeout.
    Iss,
    /// Mir: epoch-change stall, then ⊥-delivery.
    Mir,
    /// RCC: lag-based leader removal.
    Rcc,
}

/// A nil (`⊥`) block for a hole at `(instance, round)`.
fn nil_block(instance: InstanceId, round: Round, now: TimeNs) -> Block {
    Block {
        header: BlockHeader {
            index: instance,
            round,
            rank: Rank(round.0),
            payload_digest: Digest::NIL,
        },
        batch: Batch::empty(0),
        proposed_at: now,
    }
}

/// Pre-determined orderer for ISS / Mir / RCC.
pub struct PredeterminedOrderer {
    kind: BaselineKind,
    m: usize,
    /// Received blocks waiting for their slot, keyed by `sn`.
    waiting: HashMap<u64, Block>,
    /// Next global index to confirm.
    next_sn: u64,
    confirmed: u64,
    /// Highest round committed per instance (for RCC lag detection).
    highest_round: Vec<u64>,
    /// RCC: instances whose leader was removed, with the round from which
    /// their slots are auto-filled.
    removed_from: Vec<Option<u64>>,
    /// RCC removal threshold in blocks.
    pub rcc_lag_threshold: u64,
    /// Mir: confirmation is stalled until this instant (epoch change).
    stalled_until: TimeNs,
    /// Mir: epoch-change penalty applied when a leader is suspected.
    pub mir_epoch_change_penalty: TimeNs,
    /// Count of nil blocks delivered (observability).
    pub nil_delivered: u64,
}

impl PredeterminedOrderer {
    /// Builds a baseline orderer over `m` instances.
    pub fn new(kind: BaselineKind, m: usize) -> Self {
        Self {
            kind,
            m,
            waiting: HashMap::new(),
            next_sn: 0,
            confirmed: 0,
            highest_round: vec![0; m],
            removed_from: vec![None; m],
            rcc_lag_threshold: 16,
            stalled_until: TimeNs::ZERO,
            mir_epoch_change_penalty: TimeNs::from_secs(5),
            nil_delivered: 0,
        }
    }

    /// `sn = (round − 1)·m + instance` — the pre-determined global index.
    pub fn sn_of(&self, instance: InstanceId, round: Round) -> u64 {
        (round.0 - 1) * self.m as u64 + instance.0 as u64
    }

    /// The `(instance, round)` owning a global index.
    fn slot_of(&self, sn: u64) -> (InstanceId, Round) {
        (
            InstanceId((sn % self.m as u64) as u32),
            Round(sn / self.m as u64 + 1),
        )
    }

    /// The node calls this when an instance's quiet timeout fires (the SB
    /// failure detector `D`): for ISS this delivers `⊥` for the lowest
    /// missing round of that instance; for Mir it additionally stalls
    /// confirmation (epoch change); RCC ignores it (removal is lag-based).
    pub fn on_quiet_leader(&mut self, instance: InstanceId, now: TimeNs) -> Vec<ConfirmedBlock> {
        match self.kind {
            BaselineKind::Iss => {
                self.fill_lowest_hole(instance, now);
                self.drain(now)
            }
            BaselineKind::Mir => {
                self.stalled_until = now + self.mir_epoch_change_penalty;
                self.fill_lowest_hole(instance, now);
                Vec::new()
            }
            BaselineKind::Rcc => Vec::new(),
        }
    }

    fn fill_lowest_hole(&mut self, instance: InstanceId, now: TimeNs) {
        // The lowest sn belonging to `instance` that is not yet confirmed
        // and not waiting.
        let mut sn = self.next_sn;
        loop {
            let (i, round) = self.slot_of(sn);
            if i == instance {
                if let std::collections::hash_map::Entry::Vacant(e) = self.waiting.entry(sn) {
                    e.insert(nil_block(instance, round, now));
                    self.nil_delivered += 1;
                    return;
                }
            }
            sn += 1;
        }
    }

    /// RCC wait-free removal: if `instance` lags the most advanced
    /// instance by more than the threshold, mark it removed and fill its
    /// slots from its current position onward.
    fn maybe_remove_laggards(&mut self, now: TimeNs) {
        if self.kind != BaselineKind::Rcc {
            return;
        }
        let max_round = self.highest_round.iter().copied().max().unwrap_or(0);
        for i in 0..self.m {
            if self.removed_from[i].is_some() {
                continue;
            }
            if max_round.saturating_sub(self.highest_round[i]) > self.rcc_lag_threshold {
                self.removed_from[i] = Some(self.highest_round[i] + 1);
            }
        }
        // Fill slots owned by removed instances at the confirmation head.
        loop {
            let head = self.next_sn;
            let (hi, hround) = self.slot_of(head);
            match self.removed_from[hi.as_usize()] {
                Some(from) if hround.0 >= from && !self.waiting.contains_key(&head) => {
                    self.waiting.insert(head, nil_block(hi, hround, now));
                    self.nil_delivered += 1;
                }
                _ => break,
            }
        }
    }

    fn drain(&mut self, now: TimeNs) -> Vec<ConfirmedBlock> {
        if now < self.stalled_until {
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(block) = self.waiting.remove(&self.next_sn) {
            out.push(ConfirmedBlock {
                sn: self.next_sn,
                block,
            });
            self.next_sn += 1;
            self.confirmed += 1;
        }
        out
    }
}

impl GlobalOrderer for PredeterminedOrderer {
    fn on_partial_commit(&mut self, block: Block, now: TimeNs) -> Vec<ConfirmedBlock> {
        let sn = self.sn_of(block.index(), block.round());
        let i = block.index().as_usize();
        self.highest_round[i] = self.highest_round[i].max(block.round().0);
        // A removed RCC instance's late blocks are superseded by nils.
        if self.waiting.contains_key(&sn) || sn < self.next_sn {
            return self.drain(now);
        }
        self.waiting.insert(sn, block);
        self.maybe_remove_laggards(now);
        self.drain(now)
    }

    fn confirmed_count(&self) -> u64 {
        self.confirmed
    }

    fn waiting_count(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::{Batch, BlockHeader};

    fn blk(instance: u32, round: u64) -> Block {
        Block {
            header: BlockHeader {
                index: InstanceId(instance),
                round: Round(round),
                rank: Rank(round),
                payload_digest: Digest([7; 32]),
            },
            batch: Batch::empty(0),
            proposed_at: TimeNs::ZERO,
        }
    }

    #[test]
    fn iss_confirms_in_predetermined_order() {
        let mut o = PredeterminedOrderer::new(BaselineKind::Iss, 3);
        // Round 1 of instances 1 and 2 arrive first: they wait for i0.
        assert!(o.on_partial_commit(blk(1, 1), TimeNs::ZERO).is_empty());
        assert!(o.on_partial_commit(blk(2, 1), TimeNs::ZERO).is_empty());
        assert_eq!(o.waiting_count(), 2);
        let got = o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        let sns: Vec<u64> = got.iter().map(|c| c.sn).collect();
        assert_eq!(sns, vec![0, 1, 2]);
    }

    #[test]
    fn hole_blocks_all_later_slots() {
        // §2.1: a straggling instance 1 stalls blocks 5, 6, 8, 9 …
        let mut o = PredeterminedOrderer::new(BaselineKind::Iss, 3);
        o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        o.on_partial_commit(blk(1, 1), TimeNs::ZERO);
        o.on_partial_commit(blk(2, 1), TimeNs::ZERO);
        // Instance 1 goes quiet; instances 0 and 2 keep producing. The
        // slot right after the confirmed prefix (instance 0, round 2)
        // still confirms, then instance 1's hole at sn 4 stalls the rest.
        let got = o.on_partial_commit(blk(0, 2), TimeNs::ZERO);
        assert_eq!(got.len(), 1);
        assert!(o.on_partial_commit(blk(2, 2), TimeNs::ZERO).is_empty());
        for r in 3..=4 {
            assert!(o.on_partial_commit(blk(0, r), TimeNs::ZERO).is_empty());
            assert!(o.on_partial_commit(blk(2, r), TimeNs::ZERO).is_empty());
        }
        assert_eq!(o.confirmed_count(), 4);
        assert_eq!(o.waiting_count(), 5);
        // The straggler's round-2 block fills sn 4; sn 4..6 release (sn 7
        // is the straggler's still-missing round-3 slot).
        let got = o.on_partial_commit(blk(1, 2), TimeNs::ZERO);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn iss_nil_delivery_fills_hole() {
        let mut o = PredeterminedOrderer::new(BaselineKind::Iss, 2);
        o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        o.on_partial_commit(blk(0, 2), TimeNs::ZERO);
        assert_eq!(o.confirmed_count(), 1); // sn0 confirmed, sn1 is i1's hole
        let got = o.on_quiet_leader(InstanceId(1), TimeNs::from_secs(30));
        // ⊥ fills sn1; sn2 (i0 round2) then confirms too.
        assert_eq!(got.len(), 2);
        assert!(got[0].block.is_nil());
        assert_eq!(o.nil_delivered, 1);
    }

    #[test]
    fn mir_epoch_change_stalls_confirmation() {
        let mut o = PredeterminedOrderer::new(BaselineKind::Mir, 2);
        o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        o.on_partial_commit(blk(0, 2), TimeNs::ZERO);
        let got = o.on_quiet_leader(InstanceId(1), TimeNs::from_secs(30));
        assert!(got.is_empty(), "Mir stalls during the epoch change");
        // After the penalty, the next commit flushes the contiguous
        // prefix: the nil at sn1 and instance 0's round 2 at sn2 (sn3 is
        // instance 1's still-missing round-2 slot).
        let later = TimeNs::from_secs(36);
        let got = o.on_partial_commit(blk(0, 3), later);
        assert_eq!(got.len(), 2);
        assert!(got[0].block.is_nil());
    }

    #[test]
    fn rcc_removes_lagging_leader() {
        let mut o = PredeterminedOrderer::new(BaselineKind::Rcc, 2);
        o.rcc_lag_threshold = 2;
        o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        o.on_partial_commit(blk(1, 1), TimeNs::ZERO);
        assert_eq!(o.confirmed_count(), 2);
        // Instance 1 stops; instance 0 runs ahead by > threshold.
        for r in 2..=5 {
            o.on_partial_commit(blk(0, r), TimeNs::ZERO);
        }
        // Lag = 5 - 1 = 4 > 2: instance 1 removed, nils fill its slots.
        assert!(o.nil_delivered > 0);
        assert!(o.confirmed_count() > 2, "removal must unblock ordering");
    }

    #[test]
    fn sn_mapping_matches_fig1() {
        let o = PredeterminedOrderer::new(BaselineKind::Iss, 3);
        // Fig. 1: instance 0 blocks get 0, 3, 6, 9; instance 2 gets 2, 5, 8, 11.
        assert_eq!(o.sn_of(InstanceId(0), Round(1)), 0);
        assert_eq!(o.sn_of(InstanceId(0), Round(2)), 3);
        assert_eq!(o.sn_of(InstanceId(2), Round(1)), 2);
        assert_eq!(o.sn_of(InstanceId(2), Round(4)), 11);
        assert_eq!(o.sn_of(InstanceId(1), Round(2)), 4);
    }

    #[test]
    fn duplicate_commit_is_idempotent() {
        let mut o = PredeterminedOrderer::new(BaselineKind::Iss, 1);
        let got = o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        assert_eq!(got.len(), 1);
        let got = o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        assert!(got.is_empty());
        assert_eq!(o.confirmed_count(), 1);
    }
}
