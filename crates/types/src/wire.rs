//! Wire-size model.
//!
//! The simulator charges every message's size to the sender's NIC queue, so
//! bandwidth bottlenecks (the reason single-leader BFT saturates, and the
//! reason DQBFT's ordering leader becomes a bottleneck) emerge naturally.
//! Sizes follow the paper's accounting: 500-byte transactions, 32-byte
//! digests, 64-byte signatures, ~100-byte aggregate signatures (BLS point +
//! signer bitmap), and small fixed headers.

/// Canonical component sizes in bytes.
pub mod sizes {
    /// A single signature (Ed25519-sized; the paper uses BLS for aggregates
    /// and per-message signatures otherwise).
    pub const SIGNATURE: u64 = 64;
    /// An aggregated signature: one 48-byte BLS point plus a signer bitmap
    /// (we round the bitmap into the constant; exact n-dependence is added
    /// by [`super::agg_sig_bytes`]).
    pub const AGG_SIG_POINT: u64 = 48;
    /// A 32-byte digest.
    pub const DIGEST: u64 = 32;
    /// Fixed message header: type, view, round, instance, rank, epoch.
    pub const MSG_HEADER: u64 = 48;
    /// A public key / replica identity reference.
    pub const IDENTITY: u64 = 4;
    /// Per-transaction payload (paper: Bitcoin-average 500 bytes).
    pub const TX: u64 = 500;
}

/// Size of an aggregate signature over a quorum from `n` replicas:
/// one group point plus an `n`-bit signer bitmap.
#[inline]
pub fn agg_sig_bytes(n: usize) -> u64 {
    sizes::AGG_SIG_POINT + n.div_ceil(8) as u64
}

/// Size of a set of `q` individually signed rank messages (the unoptimized
/// Ladon-PBFT `rankSet`, §5.2.2): each entry carries a header, a rank QC
/// reference and a signature.
#[inline]
pub fn rank_set_bytes(q: usize, n: usize) -> u64 {
    q as u64 * (sizes::MSG_HEADER + sizes::SIGNATURE + sizes::IDENTITY) + agg_sig_bytes(n)
}

/// Types that know their serialized size on the wire.
pub trait WireSize {
    /// Serialized size in bytes.
    fn wire_size(&self) -> u64;
}

/// Shared ownership is a property of the process, not of the wire: a
/// message held behind an `Arc` (so a broadcast clones a pointer) costs
/// what the message costs.
impl<T: WireSize + ?Sized> WireSize for std::sync::Arc<T> {
    fn wire_size(&self) -> u64 {
        (**self).wire_size()
    }
}

impl WireSize for crate::tx::Batch {
    fn wire_size(&self) -> u64 {
        // Count/offset metadata plus the payload itself.
        16 + self.payload_bytes
    }
}

impl WireSize for crate::block::BlockHeader {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + sizes::DIGEST
    }
}

impl WireSize for crate::block::Block {
    fn wire_size(&self) -> u64 {
        self.header.wire_size() + self.batch.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHeader, Digest};
    use crate::ids::{InstanceId, Rank, Round};
    use crate::time::TimeNs;
    use crate::tx::{Batch, TxId};

    #[test]
    fn agg_sig_grows_with_bitmap() {
        assert_eq!(agg_sig_bytes(8), 48 + 1);
        assert_eq!(agg_sig_bytes(9), 48 + 2);
        assert_eq!(agg_sig_bytes(128), 48 + 16);
    }

    #[test]
    fn full_batch_dominates_block_size() {
        // Paper §4.1: rank info + certificates are < 1% of a 2 MB block.
        let batch = Batch {
            first_tx: TxId(0),
            count: 4096,
            payload_bytes: 4096 * 500,
            arrival_sum_ns: 0,
            bucket: 0,
            refs: Vec::new(),
        };
        let block = Block {
            header: BlockHeader {
                index: InstanceId(0),
                round: Round(1),
                rank: Rank(0),
                payload_digest: Digest::NIL,
            },
            batch,
            proposed_at: TimeNs::ZERO,
        };
        let total = block.wire_size();
        assert!(total > 2_000_000);
        let overhead = total - 4096 * 500;
        assert!((overhead as f64) / (total as f64) < 0.01);
    }

    #[test]
    fn rank_set_linear_in_quorum() {
        let q1 = rank_set_bytes(11, 16);
        let q2 = rank_set_bytes(22, 16);
        assert!(q2 > q1);
        assert_eq!(
            q2 - q1,
            11 * (sizes::MSG_HEADER + sizes::SIGNATURE + sizes::IDENTITY)
        );
    }
}
