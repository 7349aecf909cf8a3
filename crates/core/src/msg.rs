//! The Multi-BFT node's network message envelope.
//!
//! One [`NodeMsg`] type covers every message a replica can receive:
//! per-instance consensus traffic (PBFT or HotStuff), epoch checkpoint
//! messages, and client transaction groups (possibly relayed once toward
//! the bucket's current leader, per the paper's step ① relay semantics).
//!
//! The envelope is what the engine queues and every broadcast clones per
//! recipient, so it is kept small (at most 128 bytes, asserted below):
//! votes, rank reports and client groups travel inline, while the bulky
//! payloads — proposals, view-change bundles, sync responses — sit
//! behind an `Arc` inside their message types and certificates are
//! `Arc`-shared wherever one is carried.

use crate::epoch::CheckpointMsg;
use crate::sync::{SyncRequest, SyncResponse};
use ladon_hotstuff::HsMsg;
use ladon_pbft::PbftMsg;
use ladon_types::{InstanceId, TxId, WireSize};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A group of client transactions addressed to a bucket.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ClientTxs {
    /// Destination bucket.
    pub bucket: u32,
    /// First transaction id in the group.
    pub first_tx: TxId,
    /// Number of transactions.
    pub count: u32,
    /// Total payload bytes carried (count × tx size).
    pub payload_bytes: u64,
    /// Sum of submission times.
    pub arrival_sum_ns: u128,
    /// Set once the group has been relayed replica → leader, to bound
    /// forwarding at one hop.
    pub forwarded: bool,
}

/// All messages exchanged between replicas (and from clients).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum NodeMsg {
    /// PBFT instance traffic.
    Pbft {
        /// Target instance.
        instance: InstanceId,
        /// The instance message.
        msg: PbftMsg,
    },
    /// Chained HotStuff instance traffic.
    Hs {
        /// Target instance.
        instance: InstanceId,
        /// The instance message.
        msg: HsMsg,
    },
    /// Epoch checkpoint broadcast (§5.2.1).
    Checkpoint(CheckpointMsg),
    /// A lagging replica requesting missing log entries (§5.2.1).
    SyncReq(SyncRequest),
    /// The entries + stable checkpoint answering a [`NodeMsg::SyncReq`].
    SyncResp(Arc<SyncResponse>),
    /// Client transaction group (step ① / relay).
    ClientTxs(ClientTxs),
}

impl WireSize for NodeMsg {
    fn wire_size(&self) -> u64 {
        match self {
            NodeMsg::Pbft { msg, .. } => 4 + msg.wire_size(),
            NodeMsg::Hs { msg, .. } => 4 + msg.wire_size(),
            NodeMsg::Checkpoint(c) => c.wire_size(),
            NodeMsg::SyncReq(r) => r.wire_size(),
            NodeMsg::SyncResp(r) => r.wire_size(),
            NodeMsg::ClientTxs(c) => 24 + c.payload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine stores one envelope per queued delivery and a broadcast
    /// copies one per recipient: a variant that grows past this belongs
    /// behind an `Arc` inside its message type.
    #[test]
    fn envelope_stays_small() {
        assert!(std::mem::size_of::<NodeMsg>() <= 128);
    }

    #[test]
    fn client_txs_size_includes_payload() {
        let c = ClientTxs {
            bucket: 0,
            first_tx: TxId(0),
            count: 100,
            payload_bytes: 100 * 500,
            arrival_sum_ns: 0,
            forwarded: false,
        };
        assert_eq!(NodeMsg::ClientTxs(c).wire_size(), 24 + 50_000);
    }
}
