//! Pre-determined global ordering baselines: ISS, Mir and RCC.
//!
//! All three assign block `(instance i, round j)` the global index
//! `sn = (j − 1)·m + i` *before* the block exists (§1, Fig. 1), and
//! confirm strictly in `sn` order — so a missing block ("hole") from a
//! slow instance stalls every later block.
//!
//! The orderer confirms only blocks its instances committed; it never
//! makes one. A hole is filled by the instance's own agreed output once
//! its view-change timeout replaces the leader: the ⊥ (nil) blocks the
//! new PBFT leader proposes for rounds nobody can re-propose
//! (`ladon_pbft::ViewPlan`), or the new leader's fresh blocks. That is
//! the paper's ⊥, which the instance agrees on (§2.1; the SB failure
//! detector of §3.2), so every replica confirms the same block at every
//! `sn`. The flavours differ only in what a view change costs:
//!
//! - **ISS** confirms a filled hole as soon as it commits.
//! - **RCC** runs the ISS orderer. Its wait-free leader removal would
//!   be a count of rounds each replica saw locally, which two replicas
//!   can read differently, so it is not modelled (ROADMAP 1(c)).
//! - **Mir** treats each installed new view (`Action::NewViewInstalled`,
//!   which a quorum backs) as an epoch change that stalls confirmation
//!   for [`EPOCH_CHANGE_PENALTY`] — the coarser recovery the paper
//!   attributes to Mir-BFT. A stall delays confirmation and never
//!   changes what is confirmed.
//!
//! The paper's honest stragglers calibrate their delays to stay *under*
//! these timeouts (§6.1), which is exactly why pre-determined ordering
//! suffers: the holes persist and throughput collapses to ~1/k (§2.1).

use crate::ordering::{ConfirmedBlock, GlobalOrderer};
use ladon_types::{Block, InstanceId, Round, TimeNs};
use std::collections::HashMap;

/// How long Mir stalls confirmation after a new view installs.
pub const EPOCH_CHANGE_PENALTY: TimeNs = TimeNs::from_secs(5);

/// Which baseline flavour an [`PredeterminedOrderer`] implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaselineKind {
    /// ISS (and RCC): confirm in `sn` order, nothing else.
    Iss,
    /// Mir: an installed new view stalls confirmation.
    Mir,
}

/// Pre-determined orderer for ISS / Mir / RCC.
pub struct PredeterminedOrderer {
    kind: BaselineKind,
    m: usize,
    /// Committed blocks waiting for their slot, keyed by `sn`.
    waiting: HashMap<u64, Block>,
    /// Next global index to confirm; every `sn` below it is confirmed.
    next_sn: u64,
    /// Mir: confirmation is stalled until this instant (epoch change).
    stalled_until: TimeNs,
}

impl PredeterminedOrderer {
    /// Builds a baseline orderer over `m` instances.
    pub fn new(kind: BaselineKind, m: usize) -> Self {
        Self {
            kind,
            m,
            waiting: HashMap::new(),
            next_sn: 0,
            stalled_until: TimeNs::ZERO,
        }
    }

    /// `sn = (round − 1)·m + instance` — the pre-determined global index.
    pub fn sn_of(&self, instance: InstanceId, round: Round) -> u64 {
        (round.0 - 1) * self.m as u64 + instance.0 as u64
    }

    /// An instance installed a new view at `now`: Mir's epoch change
    /// stalls confirmation for [`EPOCH_CHANGE_PENALTY`]; ISS carries on.
    pub fn on_new_view(&mut self, now: TimeNs) {
        if self.kind == BaselineKind::Mir {
            self.stalled_until = now + EPOCH_CHANGE_PENALTY;
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
        }
        out
    }
}

impl GlobalOrderer for PredeterminedOrderer {
    fn on_partial_commit(&mut self, block: Block, now: TimeNs) -> Vec<ConfirmedBlock> {
        let sn = self.sn_of(block.index(), block.round());
        if sn >= self.next_sn {
            self.waiting.entry(sn).or_insert(block);
        }
        self.drain(now)
    }

    fn confirmed_count(&self) -> u64 {
        self.next_sn
    }

    fn waiting_count(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::{Batch, BlockHeader, Digest, Rank};

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

    fn sns(got: &[ConfirmedBlock]) -> Vec<u64> {
        got.iter().map(|c| c.sn).collect()
    }

    #[test]
    fn iss_confirms_in_predetermined_order() {
        let mut o = PredeterminedOrderer::new(BaselineKind::Iss, 3);
        // Round 1 of instances 1 and 2 arrive first: they wait for i0.
        assert!(o.on_partial_commit(blk(1, 1), TimeNs::ZERO).is_empty());
        assert!(o.on_partial_commit(blk(2, 1), TimeNs::ZERO).is_empty());
        assert_eq!(o.waiting_count(), 2);
        let got = o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
        assert_eq!(sns(&got), vec![0, 1, 2]);
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

    /// A hole waits for its instance, however long: the orderer makes no
    /// block of its own. Once the instance commits the slot (here, as a
    /// new view's first block), ISS confirms it at once and Mir only
    /// after its epoch-change penalty, the same blocks either way.
    #[test]
    fn a_new_view_stalls_mir_and_not_iss() {
        let new_view = TimeNs::from_secs(30);
        let after_penalty = new_view + EPOCH_CHANGE_PENALTY;
        for kind in [BaselineKind::Iss, BaselineKind::Mir] {
            let mut o = PredeterminedOrderer::new(kind, 2);
            o.on_partial_commit(blk(0, 1), TimeNs::ZERO);
            o.on_partial_commit(blk(0, 2), TimeNs::ZERO);
            // sn 0 confirmed; sn 1 is instance 1's hole.
            assert_eq!(o.confirmed_count(), 1, "{kind:?}");
            o.on_new_view(new_view);
            let got = o.on_partial_commit(blk(1, 1), new_view);
            let later = o.on_partial_commit(blk(1, 2), after_penalty);
            match kind {
                BaselineKind::Iss => {
                    assert_eq!(sns(&got), vec![1, 2]);
                    assert_eq!(sns(&later), vec![3]);
                }
                BaselineKind::Mir => {
                    assert!(got.is_empty(), "Mir stalls during the epoch change");
                    assert_eq!(sns(&later), vec![1, 2, 3]);
                }
            }
            assert_eq!(o.confirmed_count(), 4, "{kind:?}");
            assert_eq!(o.waiting_count(), 0, "{kind:?}");
        }
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
