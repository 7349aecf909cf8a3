//! Epoch state transfer (§5.2.1).
//!
//! "When a replica starts receiving messages for a future epoch `e + 1`,
//! it fetches the missing log entries of epoch `e` along with their
//! corresponding stable checkpoint, which prove the integrity of the
//! data."
//!
//! A replica detects that it fell behind in three ways: its instances
//! buffer pre-prepares whose ranks belong to a future epoch
//! ([`ladon_pbft::PbftInstance::epoch_backlog`]), the epoch pacemaker
//! sees a checkpoint quorum for an epoch it has not completed
//! ([`crate::epoch::EpochPacemaker::lag_evidence`]), or an instance's
//! commit frontier stays far behind the highest proposal it has seen
//! across two probes ([`StateTransfer::gap_persists`]: peers do not
//! re-send the votes of a round it missed, so such a round never
//! commits here on its own). It then sends a
//! [`SyncRequest`] carrying its per-instance commit frontier to one peer
//! (rotating through peers so a single unhelpful — or Byzantine — peer
//! cannot starve recovery). The peer answers with a [`SyncResponse`]:
//! the stable checkpoint of the completed epoch plus the committed rounds
//! past the requester's frontier, each a [`CertifiedBlock`] — the block
//! and the prepare QC that certifies it. Each hosted instance gets an
//! equal share of the response's [`SYNC_MAX_BLOCKS`] entries (at least
//! one), taken in round order from its frontier: an instance far behind
//! cannot crowd out the others, DQBFT's ordering instance, which comes
//! last and through which alone DQBFT confirms, included. The requester
//! verifies every certificate before installing anything, so a Byzantine
//! responder can serve correct data or nothing at all.
//!
//! Fetched blocks flow through the normal commit pipeline (global
//! ordering, epoch pacemaker), so catching up eventually closes the
//! epoch and the replica rejoins the current one. The response's stable
//! checkpoint goes to the pacemaker as its third input
//! ([`crate::epoch::EpochInput::Fetched`]): it completes the epoch once
//! the replica has closed it, or jumps the pacemaker past an epoch whose
//! snapshot was just installed or that the replica has not entered.
//!
//! # Snapshot transfer
//!
//! Deep lag is repaired by snapshot, in one exchange: the responder
//! ships its latest [`ladon_state::Snapshot`] whole, as it holds it — the
//! quorum-attested manifest head plus one ascending entry run — in the
//! response that also carries up to [`SYNC_MAX_BLOCKS`] blocks. The run
//! of a full 4 096-account state is 49 160 B, 2.4 % of one 4096-tx
//! block. The requester checks the head against the response's stable
//! checkpoint and hands the snapshot to
//! [`ladon_state::ExecutionPipeline::install`], which verifies it once
//! (head, the run's canonical form, then its root) and installs it, in
//! the handler call that received the response. A snapshot installs as
//! a whole or leaves nothing behind: with any entry tampered, missing,
//! extra or out of order, nothing is installed and nothing is kept, the
//! response is refused and its sender scored, and the next probe asks
//! the next healthy peer — a Byzantine responder can serve a correct
//! snapshot or nothing.
//!
//! # The requester's rotation, as a state machine
//!
//! Who to ask next, and what an answer does to a peer's standing, is
//! [`StateTransfer`]: plain data plus pure decision methods (pick target,
//! score response). The node keeps only the I/O around them. Silence
//! moves nothing: a responder with nothing newer to serve sends nothing,
//! so an unanswered probe says nothing about the peer.
//!
//! Per responder ([`ResponderHealth`]):
//!
//! ```mermaid
//! stateDiagram-v2
//!     [*] --> Healthy
//!     Healthy --> Healthy : unverifiable answer (streak < 3)
//!     Healthy --> Quarantined : 3rd consecutive unverifiable answer
//!     Quarantined --> Quarantined : (never leaves)
//! ```
//!
//! ```text
//! state            event                                   next         action
//! ---------------  --------------------------------------  -----------  ------------------------------
//! any              answered: useful                        same         streak := 0
//! any              answered: nothing useful, nothing bad   same         -
//! not Quarantined  answered: refused response              same         streak += 1
//! not Quarantined  ... and the streak reaches 3            Quarantined  node counts + traces the event
//! Quarantined      answered (anything)                     Quarantined  scored, never re-admitted
//! ```
//!
//! Target choice ([`StateTransfer::pick_target`]): round-robin from the
//! cursor over peers that are neither self nor `Quarantined`.
//!
//! **Bounded exits.** (1) If *every* peer is quarantined, plain
//! round-robin (skipping only self) resumes: quarantine trades probe
//! placement, never liveness. (2) A responder whose responses keep being
//! refused is simply left behind — nothing of its response is kept, the
//! next probe goes to the *next* peer, and the third refused answer in a
//! row quarantines it.

use crate::epoch::StableCheckpoint;
use ladon_pbft::CertifiedBlock;
use ladon_state::Snapshot;
use ladon_types::{sizes, Epoch, Round, WireSize};
use serde::{Deserialize, Serialize};

/// Snapshot serving minimum-gap policy: ship a snapshot only when the
/// requester's applied frontier lags the responder's latest snapshot by
/// at least `min_lag` confirmed blocks. Anything closer is repaired
/// faster — and far cheaper on the wire — by plain log entries, which the
/// responder serves either way; a replica one block behind must never be
/// handed a full-keyspace snapshot. `min_lag` is clamped to ≥ 1 (a
/// snapshot at or behind the requester's frontier is never useful).
pub fn snapshot_worthwhile(snap_applied: u64, req_applied: u64, min_lag: u64) -> bool {
    snap_applied.saturating_sub(req_applied) >= min_lag.max(1)
}

/// Maximum total blocks served in one response (bounds message size; a
/// deeply lagging replica catches up over several request rounds). Sized
/// so one response per probe period outruns block production by a wide
/// margin — a cap at or below the production rate would leave the lagger
/// in a permanent one-epoch-behind equilibrium.
pub const SYNC_MAX_BLOCKS: usize = 128;

/// A lagging replica's request for missing log entries.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SyncRequest {
    /// The requester's current epoch (the one it is stuck in).
    pub epoch: Epoch,
    /// The requester's execution frontier: confirmed blocks applied to its
    /// state machine. A responder whose latest snapshot is ahead of this
    /// includes the snapshot so the requester can fast-forward instead of
    /// re-executing history it missed.
    pub applied: u64,
    /// The requester's highest contiguously committed round, one per
    /// hosted instance (`frontier[i]` for instance `i`; DQBFT's ordering
    /// instance is the last). A responder hosting another count refuses
    /// the request.
    pub frontier: Vec<Round>,
}

impl WireSize for SyncRequest {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + 16 + 8 * self.frontier.len() as u64
    }
}

/// Consecutive refused responses (a snapshot that fails verification or
/// does not match its checkpoint, or more entries than a responder
/// serves) from one responder before the requester quarantines it out of
/// the rotation. Honest responders never ship an unverifiable snapshot,
/// so a small threshold only tolerates re-requests racing a responder's
/// own state advance. Silence is not scored: an honest responder with
/// nothing newer to serve sends nothing.
pub const SYNC_QUARANTINE_THRESHOLD: u32 = 3;

/// Proposal-vs-commit gap (in rounds) at or above which an instance
/// counts as off the live edge. Healthy Ladon-PBFT instances pipeline
/// one round, so their gap never nears this.
const LIVE_EDGE_GAP: u64 = 4;

/// Per-peer state-transfer responder health. A useful response resets
/// the failure streak; a refused one grows it, and repeated refused
/// responses quarantine the responder outright (only a liveness fallback
/// — every other peer also quarantined — sends to it again).
#[derive(Clone, Debug, Default)]
pub struct ResponderHealth {
    /// Responses from this responder that were refused.
    pub rejected: u64,
    /// Consecutive refused responses (quarantine trigger).
    fail_streak: u32,
    /// Permanently distrusted (Byzantine payloads); rotation skips it.
    pub quarantined: bool,
}

/// What one sync response amounted to, for scoring its sender.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResponseOutcome {
    /// The response was refused whole: its snapshot failed verification,
    /// or was stale, did not match the checkpoint or the checkpoint's
    /// proof failed, or it held more entries than a responder serves.
    /// A stale-but-signed snapshot counts too: replayed forever it would
    /// otherwise stall the transfer without ever failing verification.
    pub refused: bool,
    /// Something else in it helped: a snapshot installed, a log entry
    /// installed, or it carried a checkpoint.
    pub useful: bool,
}

/// State-transfer bookkeeping of one replica: the requester's rotation
/// (see the module docs for the transition table).
#[derive(Default)]
pub struct StateTransfer {
    me: usize,
    /// Round-robin cursor over peers.
    rr: usize,
    /// Per-instance proposal-vs-commit gap observed at the previous probe
    /// (hysteresis: a gap that persists across two probes means the
    /// missing rounds will never commit here on their own).
    gap_snapshot: Vec<u64>,
    responders: Vec<ResponderHealth>,
}

impl StateTransfer {
    /// Bookkeeping for replica `me` of `n`, hosting `m` instances.
    pub fn new(me: usize, n: usize, m: usize) -> Self {
        Self {
            me,
            gap_snapshot: vec![0; m],
            responders: vec![ResponderHealth::default(); n],
            ..Self::default()
        }
    }

    /// Per-peer responder health (indexed by replica id).
    pub fn responders(&self) -> &[ResponderHealth] {
        &self.responders
    }

    /// Records `instance`'s proposal-vs-commit gap for this probe and
    /// reports whether it sat off the live edge at the previous probe
    /// *and* this one. Call once per instance per probe.
    pub fn gap_persists(&mut self, instance: usize, gap_now: u64) -> bool {
        let gap_before = std::mem::replace(&mut self.gap_snapshot[instance], gap_now);
        gap_now >= LIVE_EDGE_GAP && gap_before >= LIVE_EDGE_GAP
    }

    /// Picks the next responder: the first peer in round-robin order
    /// that is neither self nor quarantined, or plain round-robin when
    /// every peer is quarantined.
    pub fn pick_target(&mut self) -> usize {
        let n = self.responders.len();
        let rotation = || (0..n).map(|k| (self.rr + k) % n);
        let target = rotation()
            .find(|&peer| peer != self.me && !self.responders[peer].quarantined)
            .or_else(|| rotation().find(|&peer| peer != self.me))
            .unwrap_or(self.me);
        self.rr = (target + 1) % n;
        target
    }

    /// Scores `peer`'s response. `None` when the sender cannot be scored
    /// (not a peer: out of range, or ourselves); otherwise whether this
    /// response *newly* quarantined it.
    pub fn score_response(&mut self, peer: usize, outcome: ResponseOutcome) -> Option<bool> {
        if peer == self.me {
            return None;
        }
        let h = self.responders.get_mut(peer)?;
        h.rejected += u64::from(outcome.refused);
        if outcome.refused {
            h.fail_streak = h.fail_streak.saturating_add(1);
            if !h.quarantined && h.fail_streak >= SYNC_QUARANTINE_THRESHOLD {
                h.quarantined = true;
                return Some(true);
            }
        } else if outcome.useful {
            h.fail_streak = 0;
        }
        Some(false)
    }
}

/// A peer's response: integrity proof plus missing entries, optionally
/// with an execution snapshot for state fast-forward.
#[derive(Clone, Default, PartialEq, Debug, Serialize, Deserialize)]
pub struct SyncResponse {
    /// Stable checkpoint proving an epoch completed. When `snapshot` is
    /// present this is the checkpoint of the *snapshot's* epoch — its
    /// quorum-signed state root is what authenticates the snapshot;
    /// otherwise it is the checkpoint of the requested epoch, when the
    /// responder has completed it.
    pub checkpoint: Option<StableCheckpoint>,
    /// The responder's latest execution snapshot, whole, when it is
    /// ahead of the requester's applied frontier. The receiver checks
    /// its manifest root against `checkpoint.state_root` and verifies it
    /// once ([`Snapshot::verify`]: the root over the
    /// `applied`/`frontier`/`executed_txs` metadata and the state root,
    /// then the run against the state root) before trusting
    /// anything, so a Byzantine responder can serve correct state or
    /// nothing: neither the contents nor the metadata the installer
    /// fast-forwards by can be forged. Nothing descriptive rides along:
    /// the installer's next checkpoint root is a function of the state
    /// and its position, so it equals the donor's.
    pub snapshot: Option<Snapshot>,
    /// Missing log entries past the requester's frontier, each a
    /// committed block (with its payload — the one transfer that re-ships
    /// data the replica missed) and its prepare QC (the responder's own
    /// copy, shared). The instance is the block's own index.
    pub entries: Vec<CertifiedBlock>,
}

impl WireSize for SyncResponse {
    /// A served entry counts `4 + block + QC` bytes: the block with its
    /// payload, its certificate, and 4 bytes of per-entry framing. Every
    /// seeded run that sends a sync response reads this figure, so it
    /// moves only with a re-pin.
    fn wire_size(&self) -> u64 {
        let entry = |e: &CertifiedBlock| 4 + e.block.wire_size() + e.qc.wire_size();
        sizes::MSG_HEADER
            + self.checkpoint.as_ref().map_or(0, WireSize::wire_size)
            + self.snapshot.as_ref().map_or(0, WireSize::wire_size)
            + self.entries.iter().map(entry).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_crypto::QuorumCert;
    use ladon_types::{Batch, Block, BlockHeader, Digest, InstanceId, Rank, TimeNs};

    const ME: usize = 3;

    fn bad() -> ResponseOutcome {
        ResponseOutcome {
            refused: true,
            ..Default::default()
        }
    }

    fn good() -> ResponseOutcome {
        ResponseOutcome {
            useful: true,
            ..Default::default()
        }
    }

    #[test]
    fn rotation_is_round_robin_and_never_picks_self() {
        let mut st = StateTransfer::new(ME, 4, 4);
        let picks: Vec<usize> = (0..6).map(|_| st.pick_target()).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
        // Also when self sits in the middle of the ring.
        let mut st = StateTransfer::new(1, 4, 4);
        let picks: Vec<usize> = (0..6).map(|_| st.pick_target()).collect();
        assert_eq!(picks, [0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn rotation_skips_quarantined_peers() {
        let mut st = StateTransfer::new(ME, 4, 4);
        // Peer 0 turns Byzantine: quarantined exactly at the threshold.
        for i in 1..=SYNC_QUARANTINE_THRESHOLD {
            let newly = st.score_response(0, bad()).expect("a peer is scorable");
            assert_eq!(newly, i == SYNC_QUARANTINE_THRESHOLD, "response {i}");
        }
        assert!(st.responders()[0].quarantined);
        assert_eq!(
            st.score_response(0, bad()),
            Some(false),
            "quarantine is an event, counted once"
        );
        // Quarantined peer 0 is left out of the rotation for good.
        let picks: Vec<usize> = (0..4)
            .map(|_| {
                let t = st.pick_target();
                st.score_response(t, good());
                t
            })
            .collect();
        assert_eq!(picks, [1, 2, 1, 2]);
    }

    #[test]
    fn all_peers_unhealthy_falls_back_to_plain_round_robin() {
        let mut st = StateTransfer::new(ME, 4, 4);
        for peer in 0..3 {
            for _ in 0..SYNC_QUARANTINE_THRESHOLD {
                st.score_response(peer, bad());
            }
        }
        assert!(st.responders()[..3].iter().all(|h| h.quarantined));
        // Liveness over health: every peer is still asked in turn, and
        // self is still never picked.
        let picks: Vec<usize> = (0..6).map(|_| st.pick_target()).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn unattributable_senders_are_not_scored() {
        let mut st = StateTransfer::new(ME, 4, 4);
        assert_eq!(st.score_response(ME, bad()), None, "ourselves");
        assert_eq!(st.score_response(4, bad()), None, "not a replica");
        assert_eq!(st.score_response(u32::MAX as usize, bad()), None);
        assert!(st.responders().iter().all(|h| h.rejected == 0));
    }

    #[test]
    fn verified_answers_reset_the_failure_streak_but_empty_ones_do_not() {
        let mut st = StateTransfer::new(ME, 4, 4);
        st.score_response(0, bad());
        st.score_response(0, bad());
        // Nothing useful, nothing bad: the streak stands.
        st.score_response(0, ResponseOutcome::default());
        assert_eq!(st.score_response(0, bad()), Some(true));
        // A useful answer in between clears it.
        st.score_response(1, bad());
        st.score_response(1, bad());
        let useful = ResponseOutcome {
            useful: true,
            ..Default::default()
        };
        st.score_response(1, useful);
        assert_eq!(st.score_response(1, bad()), Some(false));
        st.score_response(1, bad());
        assert_eq!(st.score_response(1, bad()), Some(true));
        assert_eq!(st.responders()[1].rejected, 5, "one per refused response");
    }

    #[test]
    fn gap_hysteresis_needs_two_consecutive_probes_off_the_live_edge() {
        let mut st = StateTransfer::new(ME, 4, 2);
        assert!(!st.gap_persists(0, 9), "first sighting is not evidence");
        assert!(st.gap_persists(0, 4), "still off the edge a probe later");
        assert!(!st.gap_persists(0, 3), "caught up to within the edge");
        assert!(!st.gap_persists(0, u64::MAX), "a fresh gap starts over");
        assert!(!st.gap_persists(1, u64::MAX), "instances are independent");
    }

    #[test]
    fn snapshot_policy_requires_minimum_gap() {
        // A 1-block-behind replica gets log sync, not a snapshot.
        assert!(!snapshot_worthwhile(100, 99, 16));
        // Below the threshold: still log sync.
        assert!(!snapshot_worthwhile(100, 85, 16));
        // At or past the threshold: snapshot worthwhile.
        assert!(snapshot_worthwhile(100, 84, 16));
        assert!(snapshot_worthwhile(100, 0, 16));
        // A requester at or ahead of the snapshot never gets one, even
        // with a degenerate zero threshold.
        assert!(!snapshot_worthwhile(100, 100, 0));
        assert!(!snapshot_worthwhile(100, 200, 0));
        assert!(snapshot_worthwhile(100, 99, 0));
    }

    #[test]
    fn request_wire_size_scales_with_frontier() {
        let small = SyncRequest {
            epoch: Epoch(1),
            applied: 0,
            frontier: vec![Round(0); 4],
        };
        let big = SyncRequest {
            epoch: Epoch(1),
            applied: 0,
            frontier: vec![Round(0); 128],
        };
        assert_eq!(small.wire_size(), sizes::MSG_HEADER + 16 + 8 * 4);
        assert_eq!(big.wire_size(), sizes::MSG_HEADER + 16 + 8 * 128);
    }

    #[test]
    fn response_wire_size_counts_block_payload() {
        let block = Block {
            header: BlockHeader {
                index: InstanceId(0),
                round: Round(1),
                rank: Rank(1),
                payload_digest: Digest([1; 32]),
            },
            batch: Batch {
                first_tx: ladon_types::TxId(0),
                count: 100,
                payload_bytes: 50_000,
                arrival_sum_ns: 0,
                bucket: 0,
                refs: Vec::new(),
            },
            proposed_at: TimeNs::ZERO,
        };
        let reg = ladon_crypto::KeyRegistry::generate(4, 1, 1);
        let share = QuorumCert::sign_share(
            &reg.signer(ladon_types::ReplicaId(0)),
            ladon_types::View(0),
            Round(1),
            &Digest([1; 32]),
            InstanceId(0),
            Rank(1),
        );
        let qc = QuorumCert::from_shares(
            &[share],
            4,
            ladon_types::View(0),
            Round(1),
            InstanceId(0),
            Digest([1; 32]),
            Rank(1),
        )
        .unwrap();
        let entry = CertifiedBlock {
            block,
            qc: std::sync::Arc::new(qc),
        };
        let modeled = 4 + entry.block.wire_size() + entry.qc.wire_size();
        let resp = SyncResponse {
            checkpoint: None,
            snapshot: None,
            entries: vec![entry],
        };
        assert_eq!(resp.wire_size(), sizes::MSG_HEADER + modeled);
        assert!(
            resp.wire_size() > 50_000,
            "payload must dominate the response size"
        );
    }

    #[test]
    fn snapshot_bytes_counted_in_response_size() {
        let mut kv = ladon_state::KvState::new();
        for k in 0..100u32 {
            kv.apply(&ladon_types::TxOp::Put {
                key: k,
                value: k as u64 + 1,
            });
        }
        let snap = Snapshot::capture(2, 500, 10_000, vec![0; 4], &kv);
        let reg = ladon_crypto::KeyRegistry::generate(4, 1, 1);
        let shares: Vec<_> = (0..3u32)
            .map(|r| {
                let signer = reg.signer(ladon_types::ReplicaId(r));
                crate::epoch::CheckpointMsg::sign(&signer, Epoch(2), snap.head.root).sig
            })
            .collect();
        let checkpoint = StableCheckpoint {
            epoch: Epoch(2),
            state_root: snap.head.root,
            agg: ladon_crypto::AggregateSignature::aggregate(&shares, 4).unwrap(),
        };
        let (head, run) = (snap.head.clone(), snap.run_size());
        let resp = SyncResponse {
            checkpoint: Some(checkpoint.clone()),
            snapshot: Some(snap),
            entries: Vec::new(),
        };
        // The checkpoint, the head and the run, each at its own size: a
        // transfer carries every entry's bytes.
        assert_eq!(
            resp.wire_size(),
            sizes::MSG_HEADER + checkpoint.wire_size() + head.wire_size() + run
        );
        assert_eq!(run, 8 + 100 * 12);
    }
}
