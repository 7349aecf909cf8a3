//! PBFT message types with Ladon rank piggybacking (Algorithm 2).
//!
//! Messages are tuples `⟨type, v, n, d, i, rank⟩_σ` (§5.2.2). Each body has
//! a canonical byte encoding under a per-type signing domain, so tags can
//! never be replayed across message kinds, views, rounds or instances.
//!
//! # Sharing
//!
//! A vote or rank report is small and travels inline. The three bulky
//! messages — [`PrePrepare`], [`ViewChange`], [`NewView`] — sit behind an
//! `Arc` inside [`PbftMsg`], and certificates are `Arc<QuorumCert>`
//! wherever a message carries one: a broadcast clones pointers, the
//! envelope stays small enough to queue by value, and handlers borrow.
//! None of this is visible on the wire — every [`WireSize`] is what it
//! was when the messages were held by value.

use ladon_crypto::{AggregateSignature, QuorumCert, RankCert, Signature};
use ladon_types::{sizes, Batch, Digest, InstanceId, Rank, Round, TimeNs, View, WireSize};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Signing domain for pre-prepare messages.
pub const DOMAIN_PREPREPARE: &[u8] = b"ladon/pbft/preprepare";
/// Signing domain for commit messages.
pub const DOMAIN_COMMIT: &[u8] = b"ladon/pbft/commit";
/// Signing domain for rank messages.
pub const DOMAIN_RANK: &[u8] = b"ladon/pbft/rank";
/// Signing domain for view-change messages.
pub const DOMAIN_VIEWCHANGE: &[u8] = b"ladon/pbft/viewchange";
/// Signing domain for new-view messages.
pub const DOMAIN_NEWVIEW: &[u8] = b"ladon/pbft/newview";

/// Canonical encoding shared by phase messages:
/// `(view, round, digest, instance, rank)`.
pub fn phase_bytes(
    view: View,
    round: Round,
    digest: &Digest,
    instance: InstanceId,
    rank: Rank,
) -> [u8; 60] {
    ladon_crypto::qc::prepare_bytes(view, round, digest, instance, rank)
}

/// The body of a rank message `⟨rank, v, n, ⊥, i, rank⟩` (Algorithm 2
/// line 27). `round` is the round whose commit phase produced the report;
/// the leader uses it when proposing `round + 1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RankBody {
    /// View of the reporting replica.
    pub view: View,
    /// Round whose commit phase generated this report.
    pub round: Round,
    /// Instance the report is addressed to.
    pub instance: InstanceId,
    /// The reported rank. Plain mode: the replica's `curRank.rank`.
    /// Opt mode (§5.3): the round's *base* rank — the actual report is
    /// `base + k` where `k` is the signing sub-key index.
    pub rank: Rank,
}

impl RankBody {
    /// Canonical signing bytes.
    pub fn bytes(&self) -> [u8; 28] {
        let mut out = [0u8; 28];
        out[0..8].copy_from_slice(&self.view.0.to_le_bytes());
        out[8..16].copy_from_slice(&self.round.0.to_le_bytes());
        out[16..20].copy_from_slice(&self.instance.0.to_le_bytes());
        out[20..28].copy_from_slice(&self.rank.0.to_le_bytes());
        out
    }
}

/// A signed rank message as collected into a `rankSet`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SignedRank {
    /// The signed body.
    pub body: RankBody,
    /// Signature over [`RankBody::bytes`] under [`DOMAIN_RANK`].
    pub sig: Signature,
}

impl WireSize for SignedRank {
    fn wire_size(&self) -> u64 {
        28 + sizes::SIGNATURE + sizes::IDENTITY
    }
}

/// A rank report sent from a backup to the leader during the commit phase
/// (Algorithm 2 lines 27–28), carrying the reporter's `curRank` QC.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RankReport {
    /// The signed rank claim.
    pub signed: SignedRank,
    /// Certificate for the claimed rank (`curRank.QC`); `None` only when
    /// the claim equals the epoch minimum.
    pub qc: Option<Arc<QuorumCert>>,
}

impl WireSize for RankReport {
    fn wire_size(&self) -> u64 {
        self.signed.wire_size() + self.qc.as_ref().map_or(0, WireSize::wire_size)
    }
}

/// The rank-validity proof carried by a pre-prepare.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RankProof {
    /// Vanilla PBFT instance (baseline protocols): no rank machinery.
    None,
    /// Round 1 of a view: the leader's own rank claim
    /// (`rankSet[n] ← ⟨rank, v, n−1, ⊥, i, curRank.rank⟩_σ`, §5.2.2).
    FirstRound(RankCert),
    /// Plain Ladon-PBFT: the full `rankSet` of 2f+1 signed rank messages
    /// plus the QC certifying the chosen maximum (§5.2.2).
    Plain {
        /// The collected rank messages (proves the max was chosen fairly).
        rank_set: Vec<SignedRank>,
        /// Certificate for the maximum rank in the set.
        max_cert: RankCert,
    },
    /// Ladon-opt (§5.3): one aggregate signature over the round's common
    /// rank message; each signer's sub-key index encodes its rank offset
    /// from `base`.
    Opt {
        /// Aggregate over the common `RankBody` with `rank = base`.
        agg: AggregateSignature,
        /// The common base rank (previous round's proposed rank).
        base: Rank,
    },
}

impl WireSize for RankProof {
    fn wire_size(&self) -> u64 {
        match self {
            RankProof::None => 0,
            RankProof::FirstRound(rc) => rc.wire_size(),
            RankProof::Plain { rank_set, max_cert } => {
                rank_set.iter().map(WireSize::wire_size).sum::<u64>() + max_cert.wire_size()
            }
            RankProof::Opt { agg, .. } => agg.wire_size() + 8,
        }
    }
}

/// A pre-prepare: the leader's proposal for a round.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PrePrepare {
    /// View.
    pub view: View,
    /// Round being proposed.
    pub round: Round,
    /// Instance.
    pub instance: InstanceId,
    /// Assigned monotonic rank (`min(rank_m + 1, maxRank(e))`).
    pub rank: Rank,
    /// Digest of the batch.
    pub digest: Digest,
    /// The transaction batch.
    pub batch: Batch,
    /// Leader-side generation timestamp (causality metric, §6.4).
    pub proposed_at: TimeNs,
    /// Proof that `rank` follows the collection rules.
    pub rank_proof: RankProof,
    /// Leader signature over the phase bytes.
    pub sig: Signature,
}

impl PrePrepare {
    /// The bytes the leader signs.
    pub fn signing_bytes(&self) -> [u8; 60] {
        phase_bytes(
            self.view,
            self.round,
            &self.digest,
            self.instance,
            self.rank,
        )
    }
}

impl WireSize for PrePrepare {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER
            + sizes::DIGEST
            + self.batch.wire_size()
            + self.rank_proof.wire_size()
            + sizes::SIGNATURE
    }
}

/// Which of the two voting phases a vote belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Phase {
    /// Prepare phase.
    Prepare,
    /// Commit phase.
    Commit,
}

impl Phase {
    /// Signing domain for this phase.
    pub fn domain(self) -> &'static [u8] {
        match self {
            // Prepare shares must aggregate into QuorumCerts, so they sign
            // under the QC domain.
            Phase::Prepare => ladon_crypto::qc::DOMAIN_PREPARE,
            Phase::Commit => DOMAIN_COMMIT,
        }
    }
}

/// A prepare or commit vote.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PhaseVote {
    /// Prepare or commit.
    pub phase: Phase,
    /// View.
    pub view: View,
    /// Round.
    pub round: Round,
    /// Instance.
    pub instance: InstanceId,
    /// Digest being voted on.
    pub digest: Digest,
    /// Rank being voted on.
    pub rank: Rank,
    /// Signature over the phase bytes under the phase domain.
    pub sig: Signature,
}

impl PhaseVote {
    /// The bytes this vote signs.
    pub fn signing_bytes(&self) -> [u8; 60] {
        phase_bytes(
            self.view,
            self.round,
            &self.digest,
            self.instance,
            self.rank,
        )
    }
}

impl WireSize for PhaseVote {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + sizes::DIGEST + 8 + sizes::SIGNATURE + sizes::IDENTITY
    }
}

/// A round the sender prepared but did not commit, carried in view-change
/// messages so the new leader can re-propose it.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PreparedEntry {
    /// Round of the prepared proposal.
    pub round: Round,
    /// Its digest.
    pub digest: Digest,
    /// Its rank.
    pub rank: Rank,
    /// The batch (so the new leader can re-propose without a fetch).
    pub batch: Batch,
    /// Original proposal timestamp.
    pub proposed_at: TimeNs,
    /// The prepare QC proving 2f+1 replicas prepared it.
    pub qc: Arc<QuorumCert>,
}

impl WireSize for PreparedEntry {
    /// On the wire a prepared entry is `(round, digest, rank, QC)` — as in
    /// PBFT, view-change messages carry request *digests*, not payloads.
    /// The batch rides along in this struct for the re-proposal logic (the
    /// new leader and every backup participated in the prepare phase, so
    /// they hold the payload locally; the rare miss is a fetch we fold
    /// into the re-proposal broadcast), but it does not count toward the
    /// message size — otherwise one view change would ship hundreds of
    /// megabytes of already-disseminated payload through the NIC model.
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + sizes::DIGEST + self.qc.wire_size()
    }
}

/// A view-change message sent to the prospective leader of `new_view`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ViewChange {
    /// The view being moved to.
    pub new_view: View,
    /// Instance.
    pub instance: InstanceId,
    /// Highest contiguously committed round of the sender.
    pub last_committed: Round,
    /// Prepared-but-uncommitted rounds above `last_committed`.
    pub prepared: Vec<PreparedEntry>,
    /// Sender signature.
    pub sig: Signature,
}

impl ViewChange {
    /// Canonical signing bytes (header fields only; the prepared entries
    /// are certified by their own QCs).
    pub fn signing_bytes(&self) -> [u8; 28] {
        let mut out = [0u8; 28];
        out[0..8].copy_from_slice(&self.new_view.0.to_le_bytes());
        out[8..16].copy_from_slice(&self.last_committed.0.to_le_bytes());
        out[16..20].copy_from_slice(&self.instance.0.to_le_bytes());
        out[20..28].copy_from_slice(&(self.prepared.len() as u64).to_le_bytes());
        out
    }
}

impl WireSize for ViewChange {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER
            + self.prepared.iter().map(WireSize::wire_size).sum::<u64>()
            + sizes::SIGNATURE
    }
}

/// A new-view message from the incoming leader.
///
/// Carries the quorum of view-change messages that justified the view
/// (classical PBFT's `V` set). Every replica derives the re-proposal /
/// nil-fill plan from this set with the same deterministic function
/// ([`crate::instance::ViewPlan::from_vcs`]) instead of trusting
/// leader-chosen fields, so a Byzantine leader cannot skip or reorder
/// rounds within one new-view message. (It can still send *different*
/// quorums to different backups — then their prepares never match, the
/// round times out, and the next view change removes it, exactly as in
/// PBFT.)
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NewView {
    /// The view being installed.
    pub view: View,
    /// Instance.
    pub instance: InstanceId,
    /// The `2f + 1` view-change messages justifying this view, shared
    /// with the copies the new leader collected.
    pub vcs: Vec<Arc<ViewChange>>,
    /// Leader signature.
    pub sig: Signature,
}

impl NewView {
    /// Canonical signing bytes.
    pub fn signing_bytes(&self) -> [u8; 28] {
        let mut out = [0u8; 28];
        out[0..8].copy_from_slice(&self.view.0.to_le_bytes());
        out[16..20].copy_from_slice(&self.instance.0.to_le_bytes());
        out[20..28].copy_from_slice(&(self.vcs.len() as u64).to_le_bytes());
        out
    }
}

impl WireSize for NewView {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + self.vcs.iter().map(WireSize::wire_size).sum::<u64>() + sizes::SIGNATURE
    }
}

/// All PBFT instance messages.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum PbftMsg {
    /// Leader proposal.
    PrePrepare(Arc<PrePrepare>),
    /// Prepare/commit vote.
    Vote(PhaseVote),
    /// Rank report (backup → leader, commit phase).
    Rank(RankReport),
    /// View change request.
    ViewChange(Arc<ViewChange>),
    /// New view installation.
    NewView(Arc<NewView>),
}

impl WireSize for PbftMsg {
    fn wire_size(&self) -> u64 {
        match self {
            PbftMsg::PrePrepare(m) => m.wire_size(),
            PbftMsg::Vote(m) => m.wire_size(),
            PbftMsg::Rank(m) => m.wire_size(),
            PbftMsg::ViewChange(m) => m.wire_size(),
            PbftMsg::NewView(m) => m.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_body_bytes_field_sensitive() {
        let b = RankBody {
            view: View(1),
            round: Round(2),
            instance: InstanceId(3),
            rank: Rank(4),
        };
        let mut b2 = b;
        b2.rank = Rank(5);
        assert_ne!(b.bytes(), b2.bytes());
        let mut b3 = b;
        b3.round = Round(9);
        assert_ne!(b.bytes(), b3.bytes());
    }

    #[test]
    fn phase_domains_differ() {
        assert_ne!(Phase::Prepare.domain(), Phase::Commit.domain());
    }

    #[test]
    fn preprepare_size_dominated_by_batch() {
        use ladon_types::TxId;
        let batch = Batch {
            first_tx: TxId(0),
            count: 4096,
            payload_bytes: 4096 * 500,
            arrival_sum_ns: 0,
            earliest_arrival: TimeNs::ZERO,
            bucket: 0,
            refs: Vec::new(),
        };
        // A fabricated signature is fine for size accounting.
        let reg = ladon_crypto::KeyRegistry::generate(4, 1, 1);
        let sig = Signature::sign(&reg.signer(ladon_types::ReplicaId(0)), b"x", b"y");
        let pp = PrePrepare {
            view: View(0),
            round: Round(1),
            instance: InstanceId(0),
            rank: Rank(0),
            digest: Digest::NIL,
            batch,
            proposed_at: TimeNs::ZERO,
            rank_proof: RankProof::None,
            sig,
        };
        assert!(pp.wire_size() > 2_000_000);
        assert!(PbftMsg::PrePrepare(Arc::new(pp)).wire_size() > 2_000_000);
    }

    #[test]
    fn plain_rank_proof_linear_opt_constant() {
        let reg = ladon_crypto::KeyRegistry::generate(32, 4, 1);
        let mk_sig = |r: u32| Signature::sign(&reg.signer(ladon_types::ReplicaId(r)), b"d", b"m");
        let body = RankBody {
            view: View(0),
            round: Round(1),
            instance: InstanceId(0),
            rank: Rank(0),
        };
        let set: Vec<SignedRank> = (0..22)
            .map(|r| SignedRank {
                body,
                sig: mk_sig(r),
            })
            .collect();
        let plain = RankProof::Plain {
            rank_set: set,
            max_cert: RankCert::genesis(Rank(0)),
        };
        let sigs: Vec<Signature> = (0..22).map(mk_sig).collect();
        let agg = AggregateSignature::aggregate(&sigs, 32).unwrap();
        let opt = RankProof::Opt { agg, base: Rank(0) };
        // The §5.3 point: the aggregate proof is far smaller.
        assert!(opt.wire_size() * 10 < plain.wire_size());
        assert_eq!(RankProof::None.wire_size(), 0);
    }
}
