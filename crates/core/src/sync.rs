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
//! the stable checkpoint of the completed epoch plus the blocks past the
//! requester's frontier, each certified by its prepare QC. The requester
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
//! quorum-attested manifest head plus all 64 lane chunks — in the
//! response that also carries up to [`SYNC_MAX_BLOCKS`] blocks. The
//! chunks of a full 4 096-account state are 52 544 B, 2.6 % of one
//! 4096-tx block. The requester checks the head against the response's
//! stable checkpoint and hands the snapshot to
//! [`ladon_state::ExecutionPipeline::install`], which verifies it once
//! (head, chunk count, then every lane) and installs it, in the handler
//! call that received the response. A snapshot installs as a whole or
//! leaves nothing behind: with any chunk bad or any lane missing or
//! extra, nothing is installed and nothing is kept, the response is
//! refused and its sender scored, and the next probe asks the next
//! healthy peer — a Byzantine responder can serve a correct snapshot or
//! nothing.
//!
//! # The requester's rotation, as a state machine
//!
//! Who to ask next, and what an answer (or silence) does to a peer's
//! standing, is [`StateTransfer`]: plain data plus pure decision methods
//! (pick target, note timeout, score response). The node
//! keeps only the I/O around them. Time is counted in **probe windows**
//! (one per sync timer period, [`StateTransfer::open_probe_window`]).
//!
//! Per responder ([`ResponderHealth`]):
//!
//! ```mermaid
//! stateDiagram-v2
//!     [*] --> Healthy
//!     Healthy --> BackedOff : probe unanswered for a full window
//!     BackedOff --> BackedOff : unanswered again / skip doubles, cap 2^6 windows
//!     BackedOff --> Healthy : skip window elapsed | any answer
//!     Healthy --> Healthy : unverifiable answer (streak < 3)
//!     Healthy --> Quarantined : 3rd consecutive unverifiable answer
//!     Quarantined --> Quarantined : (never leaves)
//! ```
//!
//! ```text
//! state            event                                   next                 action
//! ---------------  --------------------------------------  -------------------  ------------------------------
//! any              picked as target                        same                 outstanding := (peer, window)
//! any              its probe outstanding, window advanced  BackedOff(2^k more)  timeouts += 1; k = min(streak, 6)
//! BackedOff        skip windows elapsed                    Healthy              back in rotation
//! any              answered: useful                        streak := 0          timeout backoff cleared
//! any              answered: nothing useful, nothing bad   same                 timeout backoff cleared
//! not Quarantined  answered: refused response              streak += 1          timeout backoff cleared
//! not Quarantined  ... and the streak reaches 3            Quarantined          node counts + traces the event
//! Quarantined      answered (anything)                     Quarantined          scored, never re-admitted
//! ```
//!
//! Target choice ([`StateTransfer::pick_target`]): round-robin from the
//! cursor over peers that are neither self, nor `Quarantined`, nor still
//! `BackedOff` in the current window.
//!
//! **Bounded exits.** (1) The timeout backoff exponent is capped at 6: a
//! silent peer costs one probe per 64 windows at worst and is retried
//! forever — crash faults heal. (2) If *every* peer is unhealthy, plain
//! round-robin (skipping only self) resumes, quarantined peers included:
//! health trades probe placement, never liveness. (3) A responder whose
//! responses keep being refused is simply left behind — nothing of its
//! response is kept, the next probe goes to the *next* peer, and the
//! third refused answer in a row quarantines it.

use crate::epoch::StableCheckpoint;
use ladon_crypto::QuorumCert;
use ladon_state::Snapshot;
use ladon_types::{sizes, Block, Epoch, InstanceId, Round, WireSize};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// Maximum blocks per instance served in one response.
pub const SYNC_PER_INSTANCE: usize = 32;
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
/// own state advance; unresponsive (as opposed to Byzantine) peers are
/// handled separately by timeout backoff.
pub const SYNC_QUARANTINE_THRESHOLD: u32 = 3;

/// Cap on the timeout-backoff exponent: a silent responder is skipped
/// for at most `2^6` probe windows before it is tried again.
const TIMEOUT_BACKOFF_MAX_EXP: u32 = 6;

/// Proposal-vs-commit gap (in rounds) at or above which an instance
/// counts as off the live edge. Healthy Ladon-PBFT instances pipeline
/// one round, so their gap never nears this.
const LIVE_EDGE_GAP: u64 = 4;

/// Per-peer state-transfer responder health. A useful response resets
/// the failure streak; a refused one grows it. Timeouts put the
/// responder on exponential probe backoff; repeated refused responses
/// quarantine it outright (only a liveness fallback — every other peer
/// also unhealthy — sends to it again).
#[derive(Clone, Debug, Default)]
pub struct ResponderHealth {
    /// Responses from this responder that were refused.
    pub rejected: u64,
    /// Probes this responder never answered before the next window.
    pub timeouts: u64,
    /// Consecutive refused responses (quarantine trigger).
    fail_streak: u32,
    /// Consecutive timeouts (probe-backoff exponent).
    timeout_streak: u32,
    /// Probe window until which rotation skips this responder.
    skip_until: u64,
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
    /// Monotonic count of probe windows (the clock responder backoff is
    /// expressed in).
    probes: u64,
    /// The responder of the probe in flight. Still present when the next
    /// probe is sent — one per window — ⇒ it timed out.
    outstanding: Option<usize>,
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

    /// A sync timer period elapsed: the health clock ticks.
    pub fn open_probe_window(&mut self) {
        self.probes += 1;
    }

    /// Records `instance`'s proposal-vs-commit gap for this probe and
    /// reports whether it sat off the live edge at the previous probe
    /// *and* this one. Call once per instance per probe.
    pub fn gap_persists(&mut self, instance: usize, gap_now: u64) -> bool {
        let gap_before = std::mem::replace(&mut self.gap_snapshot[instance], gap_now);
        gap_now >= LIVE_EDGE_GAP && gap_before >= LIVE_EDGE_GAP
    }

    /// Call before sending a request (one per probe window): if the
    /// previous one is still unanswered its responder timed out — its
    /// streak grows and rotation skips it for exponentially more windows
    /// (capped). Returns whether a timeout was charged.
    pub fn note_timeout(&mut self) -> bool {
        let Some(peer) = self.outstanding.take() else {
            return false;
        };
        let h = &mut self.responders[peer];
        h.timeouts += 1;
        h.timeout_streak = h.timeout_streak.saturating_add(1);
        h.skip_until = self.probes + (1u64 << h.timeout_streak.min(TIMEOUT_BACKOFF_MAX_EXP));
        true
    }

    /// Picks the next responder — the first healthy peer in round-robin
    /// order, or plain round-robin when none is healthy — and records
    /// the probe as outstanding.
    pub fn pick_target(&mut self) -> usize {
        let n = self.responders.len();
        let healthy = |peer: &usize| {
            let h = &self.responders[*peer];
            *peer != self.me && !h.quarantined && h.skip_until <= self.probes
        };
        let rotation = || (0..n).map(|k| (self.rr + k) % n);
        let target = rotation()
            .find(healthy)
            .or_else(|| rotation().find(|&peer| peer != self.me))
            .unwrap_or(self.me);
        self.rr = (target + 1) % n;
        self.outstanding = Some(target);
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
        if self.outstanding == Some(peer) {
            self.outstanding = None;
        }
        h.rejected += u64::from(outcome.refused);
        // It answered: whatever the payload quality, the peer is
        // responsive — timeout backoff resets independently of the
        // verification streak.
        h.timeout_streak = 0;
        h.skip_until = 0;
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

/// One fetched log entry: a committed block and the prepare QC binding its
/// `(digest, rank)` to `(instance, round)`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SyncEntry {
    /// The instance the block belongs to.
    pub instance: InstanceId,
    /// The committed block (with payload — this is the one transfer that
    /// genuinely re-ships data the replica missed).
    pub block: Block,
    /// Certificate for the block (the responder's own copy, shared).
    pub qc: Arc<QuorumCert>,
}

impl WireSize for SyncEntry {
    fn wire_size(&self) -> u64 {
        4 + self.block.wire_size() + self.qc.wire_size()
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
    /// `applied`/`frontier`/`executed_txs` metadata and the lane-root
    /// vector, then every chunk against its lane root) before trusting
    /// anything, so a Byzantine responder can serve correct state or
    /// nothing: neither the contents nor the metadata the installer
    /// fast-forwards by can be forged. Nothing descriptive rides along:
    /// the installer's next checkpoint root is a function of the state
    /// and its position, so it equals the donor's.
    pub snapshot: Option<Snapshot>,
    /// Missing log entries past the requester's frontier.
    pub entries: Vec<SyncEntry>,
}

impl WireSize for SyncResponse {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER
            + self.checkpoint.as_ref().map_or(0, WireSize::wire_size)
            + self.snapshot.as_ref().map_or(0, WireSize::wire_size)
            + self.entries.iter().map(WireSize::wire_size).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::{Batch, BlockHeader, Digest, Rank, TimeNs};

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

    /// Picks a target, lets a full window pass without an answer, and
    /// charges the timeout. Returns who was picked.
    fn probe_unanswered(st: &mut StateTransfer) -> usize {
        let target = st.pick_target();
        st.open_probe_window();
        assert!(st.note_timeout(), "an unanswered full window is a timeout");
        target
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
    fn rotation_skips_quarantined_and_backed_off_peers() {
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
        // Peer 1 goes silent for a window: backed off for 2 windows.
        assert_eq!(probe_unanswered(&mut st), 1);
        assert_eq!(st.responders()[1].timeouts, 1);
        // Only peer 2 is healthy now, whatever the cursor says.
        assert_eq!(st.pick_target(), 2);
        assert_eq!(st.score_response(2, good()), Some(false));
        assert_eq!(st.pick_target(), 2);
        assert_eq!(st.score_response(2, good()), Some(false));
        // Once peer 1's skip window elapses it is back in rotation;
        // quarantined peer 0 is not.
        st.open_probe_window();
        st.open_probe_window();
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
    fn timeout_backoff_doubles_and_caps_at_64_windows() {
        // n = 2: the only peer is always the (fallback) target, so its
        // skip window is observable as the gap between timeouts.
        let mut st = StateTransfer::new(1, 2, 1);
        let mut skips = Vec::new();
        for _ in 0..9 {
            assert_eq!(probe_unanswered(&mut st), 0);
            let h = &st.responders()[0];
            skips.push(h.skip_until - st.probes);
        }
        assert_eq!(skips, [2, 4, 8, 16, 32, 64, 64, 64, 64]);
        assert_eq!(st.responders()[0].timeouts, 9);
        // Any answer — even an unverifiable one — proves the peer is
        // responsive again and clears the backoff.
        st.pick_target();
        st.score_response(0, bad());
        let h = &st.responders()[0];
        assert_eq!((h.timeout_streak, h.skip_until), (0, 0));
    }

    #[test]
    fn an_answered_probe_is_not_a_timeout() {
        let mut st = StateTransfer::new(ME, 4, 4);
        st.open_probe_window();
        assert!(!st.note_timeout(), "nothing outstanding yet");
        assert_eq!(st.pick_target(), 0);
        st.score_response(0, good());
        st.open_probe_window();
        assert!(!st.note_timeout());
        assert_eq!(st.responders()[0].timeouts, 0);
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
        let entry = SyncEntry {
            instance: InstanceId(0),
            block,
            qc: Arc::new(qc),
        };
        let resp = SyncResponse {
            checkpoint: None,
            snapshot: None,
            entries: vec![entry],
        };
        assert!(
            resp.wire_size() > 50_000,
            "payload must dominate the response size"
        );
    }

    #[test]
    fn chunk_bytes_counted_in_response_size() {
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
        let (head, chunks) = snap.split();
        let resp = SyncResponse {
            checkpoint: Some(checkpoint.clone()),
            snapshot: Some(snap),
            entries: Vec::new(),
        };
        // The checkpoint, the head and every chunk, each at its own size:
        // a transfer carries every entry's bytes.
        assert_eq!(
            resp.wire_size(),
            sizes::MSG_HEADER
                + checkpoint.wire_size()
                + head.wire_size()
                + chunks.iter().map(WireSize::wire_size).sum::<u64>()
        );
        assert!(resp.wire_size() >= sizes::MSG_HEADER + 100 * 12);
    }
}
