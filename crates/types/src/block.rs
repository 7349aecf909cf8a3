//! Blocks and the global ordering key.
//!
//! A block is the tuple `(txs, index, round, rank)` of §3.2. When a block is
//! globally confirmed the replica computes its global ordering index `sn`;
//! `sn` is *not* a field of the block (paper §3.2), so it lives in metrics
//! and orderer outputs instead.

use crate::ids::{InstanceId, Rank, Round};
use crate::time::TimeNs;
use crate::tx::Batch;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte content digest (SHA-256 output; computed by `ladon-crypto`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used for nil/placeholder payloads (`⊥`).
    pub const NIL: Self = Self([0u8; 32]);

    /// A short hex prefix for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d:{}", self.short_hex())
    }
}

/// The ordering key `(rank, index)` with the paper's `≺` relation, plus a
/// `round` component used only as a final tie-break.
///
/// `B ≺ B'` iff `B.rank < B'.rank`, or the ranks are equal and
/// `B.index < B'.index` (§4.2). The derived lexicographic `Ord` on
/// `(rank, index, round)` implements exactly this relation for real blocks:
/// Lemma 2 (intra-instance rank monotonicity) guarantees two real blocks
/// never share `(rank, index)`, so the `round` component never decides
/// between them. It exists for nil (`⊥`) blocks installed by a view change,
/// which deliberately reuse the rank of the preceding certified block in
/// their instance (a fresh rank would break Lemma 2); the round keeps their
/// keys unique and their relative order deterministic on every replica.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct OrderKey {
    /// Monotonic rank assigned at proposal time.
    pub rank: Rank,
    /// Producing instance's index (tie-breaker).
    pub index: InstanceId,
    /// Round within the instance (final tie-break, nil blocks only).
    pub round: Round,
}

impl OrderKey {
    /// Builds an ordering key with a zero round component (a *bar*: bars
    /// compare against block keys but never belong to a block, and a zero
    /// round makes `block < bar` agree with the paper's two-component `≺`).
    pub fn new(rank: Rank, index: InstanceId) -> Self {
        Self {
            rank,
            index,
            round: Round(0),
        }
    }

    /// Builds the full key of a block at `(rank, index, round)`.
    pub fn of_block(rank: Rank, index: InstanceId, round: Round) -> Self {
        Self { rank, index, round }
    }

    /// The initial confirmation bar `(0, 0)` (§4.2).
    pub const INITIAL_BAR: Self = Self {
        rank: Rank(0),
        index: InstanceId(0),
        round: Round(0),
    };
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.rank, self.index)
    }
}

/// Immutable block header: everything except the transaction batch.
///
/// The header is the block's identity `(index, round, rank, digest)` — the
/// tuple of §3.2. The proposing *view* is deliberately excluded: a block
/// re-proposed after a view change is the *same* block, and G-Agreement
/// compares block identities across replicas that may have committed it in
/// different views.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Producing instance (paper: `B.index`).
    pub index: InstanceId,
    /// Round within the instance (paper: `B.round`).
    pub round: Round,
    /// Monotonic rank (paper: `B.rank`).
    pub rank: Rank,
    /// Digest of the transaction batch (paper: `d = hash(txs)`).
    pub payload_digest: Digest,
}

impl BlockHeader {
    /// The ordering key of this block.
    #[inline]
    pub fn key(&self) -> OrderKey {
        OrderKey::of_block(self.rank, self.index, self.round)
    }
}

/// A partially committed / globally confirmable block (§3.2).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Block {
    /// Header (identity + ordering information).
    pub header: BlockHeader,
    /// The transaction batch (synthetic; see [`Batch`]).
    pub batch: Batch,
    /// When the proposing leader generated the block (simulated clock).
    ///
    /// Used by the causal-strength metric (§6.4): a violation occurs when a
    /// block generated *after* another was committed by `f + 1` replicas is
    /// nevertheless ordered *before* it.
    pub proposed_at: TimeNs,
}

impl Block {
    /// The canonical synthetic block at global position `sn`, carrying
    /// `count` derived transactions starting at `first_tx` — the one
    /// constructor execution-layer tests, benches, and examples share so
    /// their roots stay comparable (same identity derivation, same
    /// payload accounting: 500 bytes per tx, instance `sn % 4`, round
    /// `sn / 4 + 1`, rank `sn`).
    pub fn synthetic(sn: u64, first_tx: u64, count: u32) -> Self {
        Self {
            header: BlockHeader {
                index: InstanceId((sn % 4) as u32),
                round: Round(sn / 4 + 1),
                rank: Rank(sn),
                payload_digest: Digest([sn as u8; 32]),
            },
            batch: Batch {
                first_tx: crate::TxId(first_tx),
                count,
                payload_bytes: count as u64 * 500,
                arrival_sum_ns: 0,
                bucket: 0,
                refs: Vec::new(),
            },
            proposed_at: TimeNs::ZERO,
        }
    }

    /// The ordering key of this block.
    #[inline]
    pub fn key(&self) -> OrderKey {
        self.header.key()
    }

    /// Shorthand accessors matching the paper's `B.x` notation.
    #[inline]
    pub fn index(&self) -> InstanceId {
        self.header.index
    }

    /// The block's round within its instance.
    #[inline]
    pub fn round(&self) -> Round {
        self.header.round
    }

    /// The block's monotonic rank.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.header.rank
    }

    /// Whether this is a nil (`⊥`) block delivered on leader timeout.
    #[inline]
    pub fn is_nil(&self) -> bool {
        self.batch.is_empty() && self.header.payload_digest == Digest::NIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(rank: u64, idx: u32) -> OrderKey {
        OrderKey::new(Rank(rank), InstanceId(idx))
    }

    #[test]
    fn order_key_matches_paper_precedence() {
        // Lower rank wins.
        assert!(key(1, 5) < key(2, 0));
        // Equal rank: lower instance index wins.
        assert!(key(3, 0) < key(3, 1));
        // Reflexivity of equality.
        assert_eq!(key(3, 1), key(3, 1));
    }

    #[test]
    fn fig3_example_bar_comparison() {
        // Fig. 3: bar = (3, 1). B(rank=2,idx=1) ≺ bar; B(rank=3,idx=0) ≺ bar
        // (same rank, smaller index); B(rank=3,idx=2) is NOT ≺ bar.
        let bar = key(3, 1);
        assert!(key(2, 1) < bar);
        assert!(key(3, 0) < bar);
        assert!(key(3, 2) > bar);
    }

    #[test]
    fn initial_bar_is_zero() {
        assert_eq!(OrderKey::INITIAL_BAR, key(0, 0));
    }

    #[test]
    fn digest_debug_short() {
        let mut d = Digest::NIL;
        d.0[0] = 0xab;
        assert_eq!(format!("{:?}", d), "d:ab000000");
    }

    #[test]
    fn nil_block_detection() {
        let b = Block {
            header: BlockHeader {
                index: InstanceId(0),
                round: Round(1),
                rank: Rank(0),
                payload_digest: Digest::NIL,
            },
            batch: Batch::empty(0),
            proposed_at: TimeNs::ZERO,
        };
        assert!(b.is_nil());
        assert_eq!(
            b.key(),
            OrderKey::of_block(Rank(0), InstanceId(0), Round(1))
        );
    }

    #[test]
    fn round_breaks_ties_only_within_equal_rank_and_index() {
        // Two nil blocks of the same instance sharing a rank stay distinct
        // and order by round.
        let a = OrderKey::of_block(Rank(5), InstanceId(1), Round(2));
        let b = OrderKey::of_block(Rank(5), InstanceId(1), Round(3));
        assert!(a < b);
        // A bar at (5, 1) sits below both per the paper's strict `≺`.
        let bar = key(5, 1);
        assert!(a > bar && b > bar);
        // The round never overrides rank or instance.
        assert!(OrderKey::of_block(Rank(4), InstanceId(3), Round(99)) < a);
        assert!(OrderKey::of_block(Rank(5), InstanceId(0), Round(99)) < a);
    }
}
