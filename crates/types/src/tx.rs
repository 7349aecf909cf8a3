//! Synthetic transactions and batches.
//!
//! The paper's clients submit 500-byte transactions (the Bitcoin average)
//! which leaders cut into batches of up to 4096. Consensus never inspects
//! transaction bytes, so we model a batch as *counts plus byte sizes plus
//! arrival-time statistics* rather than materializing 2 MB payloads. The
//! network model still charges the full payload size to NIC queues, so
//! bandwidth effects are preserved.

use crate::time::TimeNs;
use serde::{Deserialize, Serialize};

/// A globally unique transaction identifier.
///
/// Transaction ids are assigned by the workload generator in submission
/// order, so they double as a causality-friendly "which tx came first"
/// witness in tests.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct TxId(pub u64);

/// The operation a transaction applies to the replicated KV state machine.
///
/// The simulation does not materialize 500-byte payloads (see the module
/// docs), so the operation is a *pure function of the transaction id*:
/// every replica derives the same op for the same `TxId` via
/// [`TxOp::for_id`], which stands in for decoding the payload the client
/// fleet conceptually wrote. This keeps batches as compact counts while
/// making execution fully deterministic across replicas — the property the
/// state-root checkpoints attest to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TxOp {
    /// Write `value` at `key`.
    Put {
        /// Target account/key.
        key: u32,
        /// Value to store.
        value: u64,
    },
    /// Read `key` (no state change; counted for read-path metrics).
    Get {
        /// Account/key read.
        key: u32,
    },
    /// Move up to `amount` from `from` to `to` (clamped to the balance).
    Transfer {
        /// Debited account.
        from: u32,
        /// Credited account.
        to: u32,
        /// Requested amount.
        amount: u64,
    },
}

/// SplitMix64 step: advances `state` by the golden-gamma increment and
/// returns the mixed output. The single workspace-wide implementation —
/// `ladon-sim` seeds its xoshiro generator with it, and [`TxOp::for_id`]
/// expands transaction ids into deterministic operations with it.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TxOp {
    /// Derives the deterministic operation of transaction `id` over a key
    /// space of `keyspace` accounts. Mix: 50% put, 30% transfer, 20% get.
    ///
    /// Two splitmix64 outputs `a`, `b` drive it: the key is `a` and a
    /// transfer's credit account `b >> 32`, each reduced modulo
    /// `keyspace`. A power-of-two keyspace (the default 4096 is one)
    /// reduces with a mask, which is the same residue without a 64-bit
    /// division; any other keyspace keeps `%`, since a multiply-by-
    /// reciprocal reduction measured no faster than the division it would
    /// replace on the workspace's default x86-64 target.
    pub fn for_id(id: TxId, keyspace: u32) -> Self {
        debug_assert!(keyspace > 0);
        let mut state = id.0 ^ 0x1ad0_0000_0000_0001;
        let a = splitmix64(&mut state);
        let b = splitmix64(&mut state);
        let reduce = |x: u64| {
            let residue = if keyspace.is_power_of_two() {
                x & (keyspace as u64 - 1)
            } else {
                x % keyspace as u64
            };
            residue as u32
        };
        let key = reduce(a);
        match b % 10 {
            0..=4 => TxOp::Put { key, value: b >> 8 },
            5..=7 => TxOp::Transfer {
                from: key,
                to: reduce(b >> 32),
                amount: (b & 0xffff) + 1,
            },
            _ => TxOp::Get { key },
        }
    }
}

/// A materialized transaction: id plus its derived state-machine op.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Tx {
    /// Globally unique id, in submission order.
    pub id: TxId,
    /// The operation the execution layer applies.
    pub op: TxOp,
}

/// A batch of client transactions, as cut by a leader (paper: `txs`).
///
/// `arrival_sum_ns` accumulates each member transaction's client submission
/// time so end-to-end mean latency can be computed exactly without storing
/// per-transaction timestamps:
/// `mean_latency = confirm_time - arrival_sum / count`.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Batch {
    /// First transaction id in the batch (ids are contiguous per batch).
    pub first_tx: TxId,
    /// Number of transactions.
    pub count: u32,
    /// Total payload bytes (`count * tx_bytes` for the synthetic workload).
    pub payload_bytes: u64,
    /// Sum of member transactions' client-submission times, in ns.
    pub arrival_sum_ns: u128,
    /// Earliest member submission time (for worst-case latency series).
    pub earliest_arrival: TimeNs,
    /// Bucket the transactions were drawn from (rotating buckets, §5.1).
    pub bucket: u32,
    /// Block references `(instance, round)` — used only by DQBFT's
    /// dedicated ordering instance, whose batches sequence other
    /// instances' partially committed blocks instead of transactions.
    pub refs: Vec<(u32, u64)>,
}

impl Batch {
    /// An empty batch (a leader may propose one to keep rounds advancing).
    pub fn empty(bucket: u32) -> Self {
        Self {
            first_tx: TxId(0),
            count: 0,
            payload_bytes: 0,
            arrival_sum_ns: 0,
            earliest_arrival: TimeNs::MAX,
            bucket,
            refs: Vec::new(),
        }
    }

    /// A DQBFT ordering-instance batch carrying block references.
    pub fn of_refs(refs: Vec<(u32, u64)>) -> Self {
        let mut b = Self::empty(0);
        b.payload_bytes = refs.len() as u64 * 12;
        b.refs = refs;
        b
    }

    /// True if the batch carries no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean client-submission time of the member transactions, or `None`
    /// for an empty batch.
    pub fn mean_arrival(&self) -> Option<TimeNs> {
        if self.count == 0 {
            None
        } else {
            Some(TimeNs((self.arrival_sum_ns / self.count as u128) as u64))
        }
    }

    /// Iterator over the member transaction ids (it borrows nothing:
    /// the ids are `(first_tx, count)`). Always exactly `count` ids:
    /// a batch whose ids pass `u64::MAX` wraps to 0, since a peer
    /// chooses `first_tx`.
    pub fn tx_ids(&self) -> impl Iterator<Item = TxId> {
        let first = self.first_tx.0;
        (0..self.count as u64).map(move |i| TxId(first.wrapping_add(i)))
    }

    /// Iterator over the member transactions with their derived ops (see
    /// [`TxOp::for_id`]), over a `keyspace`-account state machine — the
    /// one derivation live execution and WAL replay both apply.
    pub fn txs(&self, keyspace: u32) -> impl Iterator<Item = Tx> {
        self.tx_ids().map(move |id| Tx {
            id,
            op: TxOp::for_id(id, keyspace),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch() {
        let b = Batch::empty(3);
        assert!(b.is_empty());
        assert_eq!(b.mean_arrival(), None);
        assert_eq!(b.tx_ids().count(), 0);
        assert_eq!(b.bucket, 3);
    }

    #[test]
    fn mean_arrival_is_exact() {
        let b = Batch {
            first_tx: TxId(10),
            count: 4,
            payload_bytes: 2000,
            arrival_sum_ns: (100 + 200 + 300 + 400) as u128,
            earliest_arrival: TimeNs(100),
            bucket: 0,
            refs: Vec::new(),
        };
        assert_eq!(b.mean_arrival(), Some(TimeNs(250)));
        let ids: Vec<_> = b.tx_ids().collect();
        assert_eq!(ids, vec![TxId(10), TxId(11), TxId(12), TxId(13)]);
    }

    #[test]
    fn ids_past_the_top_of_the_id_space_wrap() {
        let b = Batch {
            first_tx: TxId(u64::MAX - 1),
            count: 4,
            ..Batch::default()
        };
        let ids: Vec<_> = b.tx_ids().collect();
        assert_eq!(
            ids,
            vec![TxId(u64::MAX - 1), TxId(u64::MAX), TxId(0), TxId(1)]
        );
        let ops: Vec<_> = b.txs(4096).map(|tx| tx.op).collect();
        let derived: Vec<_> = ids.iter().map(|&id| TxOp::for_id(id, 4096)).collect();
        assert_eq!(ops, derived);
    }

    /// [`TxOp::for_id`] as it was first written: every reduction a `%`.
    fn for_id_by_division(id: TxId, keyspace: u32) -> TxOp {
        let mut state = id.0 ^ 0x1ad0_0000_0000_0001;
        let a = splitmix64(&mut state);
        let b = splitmix64(&mut state);
        let key = (a % keyspace as u64) as u32;
        match b % 10 {
            0..=4 => TxOp::Put { key, value: b >> 8 },
            5..=7 => TxOp::Transfer {
                from: key,
                to: ((b >> 32) % keyspace as u64) as u32,
                amount: (b & 0xffff) + 1,
            },
            _ => TxOp::Get { key },
        }
    }

    #[test]
    fn derivation_equals_the_division_formula() {
        let mut seed = 0x5eed_f1d5_u64;
        let ids: Vec<TxId> = (0..100_000)
            .map(|_| TxId(splitmix64(&mut seed)))
            .chain([TxId(0), TxId(u64::MAX)])
            .collect();
        let keyspaces = [1, 2, 3, 10, 64, 1000, 4095, 4096, 4097, 1 << 20, u32::MAX];
        for keyspace in keyspaces {
            for &id in &ids {
                assert_eq!(
                    TxOp::for_id(id, keyspace),
                    for_id_by_division(id, keyspace),
                    "id {id:?}, keyspace {keyspace}"
                );
            }
        }
    }
}
