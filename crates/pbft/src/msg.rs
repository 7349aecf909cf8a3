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

use ladon_crypto::keys::Signer;
use ladon_crypto::qc::prepare_bytes;
use ladon_crypto::{digest_batch, AggregateSignature, QuorumCert, RankCert, Sha256, Signature};
use ladon_types::{sizes, Block, Digest, InstanceId, Rank, Round, View, WireSize};
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
    /// The proposed block: its instance, round, assigned monotonic rank
    /// (`min(rank_m + 1, maxRank(e))`), batch digest, batch, and the
    /// leader-side generation timestamp (causality metric, §6.4).
    pub block: Block,
    /// Proof that the block's rank follows the collection rules.
    pub rank_proof: RankProof,
    /// Leader signature over the phase bytes.
    pub sig: Signature,
}

impl PrePrepare {
    /// The bytes the leader signs: the phase bytes of the block's header.
    pub fn signing_bytes(&self) -> [u8; 60] {
        let h = &self.block.header;
        prepare_bytes(self.view, h.round, &h.payload_digest, h.index, h.rank)
    }
}

impl WireSize for PrePrepare {
    fn wire_size(&self) -> u64 {
        self.block.wire_size() + self.rank_proof.wire_size() + sizes::SIGNATURE
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
    /// `signer`'s vote in `phase` for `(digest, rank)` at `(view, round,
    /// instance)`: [`prepare_bytes`] signed under [`Phase::domain`] — a
    /// prepare vote is a share of the round's [`QuorumCert`].
    pub fn sign(
        signer: &Signer,
        phase: Phase,
        view: View,
        round: Round,
        instance: InstanceId,
        digest: Digest,
        rank: Rank,
    ) -> Self {
        let body = prepare_bytes(view, round, &digest, instance, rank);
        Self {
            phase,
            view,
            round,
            instance,
            digest,
            rank,
            sig: Signature::sign(signer, phase.domain(), &body),
        }
    }

    /// The bytes this vote signs.
    pub fn signing_bytes(&self) -> [u8; 60] {
        prepare_bytes(
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

/// A certified round: a block and the prepare QC by which 2f+1 replicas
/// bound its `(digest, rank)` to its `(instance, round)`. A view change
/// reports its sender's certified rounds in this shape, and state
/// transfer serves and installs committed rounds in it.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CertifiedBlock {
    /// The certified block, batch included.
    pub block: Block,
    /// Its prepare QC (shared with the holder's copy).
    pub qc: Arc<QuorumCert>,
}

impl CertifiedBlock {
    /// Whether the QC certifies this block as a round of `instance`: the
    /// block belongs to `instance`, the QC names the header's instance,
    /// round, digest and rank, and the batch is the one the digest names.
    /// Structure only: the caller verifies the QC itself.
    pub fn binds(&self, instance: InstanceId) -> bool {
        let (h, qc) = (&self.block.header, &self.qc);
        h.index == instance
            && qc.instance == h.index
            && qc.round == h.round
            && qc.digest == h.payload_digest
            && qc.rank == h.rank
            && digest_batch(&self.block.batch) == h.payload_digest
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
    /// The sender's certified rounds of the current epoch, committed and
    /// in flight.
    pub prepared: Vec<CertifiedBlock>,
    /// Sender signature.
    pub sig: Signature,
}

impl ViewChange {
    /// `signer`'s view change to `new_view`.
    pub fn sign(
        signer: &Signer,
        new_view: View,
        instance: InstanceId,
        last_committed: Round,
        prepared: Vec<CertifiedBlock>,
    ) -> Self {
        let bytes = Self::bytes(new_view, instance, last_committed, &prepared);
        Self {
            new_view,
            instance,
            last_committed,
            prepared,
            sig: Signature::sign(signer, DOMAIN_VIEWCHANGE, &bytes),
        }
    }

    /// Whether a round follows `last_committed`, for the new view to
    /// resume from. A sender's claim of the last representable round
    /// leaves none, and the message is refused.
    pub fn leaves_a_next_round(&self) -> bool {
        self.last_committed.0 < u64::MAX
    }

    /// Canonical signing bytes: the header, then a SHA-256 over every
    /// entry's `(round, digest, rank, qc.view)`, so a relaying new leader
    /// cannot rewrite what the sender reported (classical PBFT signs its
    /// prepared set for the same reason). An entry's batch and index are
    /// bound through its digest and QC, which receivers check
    /// ([`CertifiedBlock::binds`]).
    pub fn signing_bytes(&self) -> [u8; 60] {
        Self::bytes(
            self.new_view,
            self.instance,
            self.last_committed,
            &self.prepared,
        )
    }

    fn bytes(
        new_view: View,
        instance: InstanceId,
        last_committed: Round,
        prepared: &[CertifiedBlock],
    ) -> [u8; 60] {
        let mut entries = Sha256::new();
        for e in prepared {
            let h = &e.block.header;
            entries.update(&h.round.0.to_le_bytes());
            entries.update(&h.payload_digest.0);
            entries.update(&h.rank.0.to_le_bytes());
            entries.update(&e.qc.view.0.to_le_bytes());
        }
        let mut out = [0u8; 60];
        out[0..8].copy_from_slice(&new_view.0.to_le_bytes());
        out[8..16].copy_from_slice(&last_committed.0.to_le_bytes());
        out[16..20].copy_from_slice(&instance.0.to_le_bytes());
        out[20..28].copy_from_slice(&(prepared.len() as u64).to_le_bytes());
        out[28..60].copy_from_slice(&entries.finalize());
        out
    }
}

impl WireSize for ViewChange {
    /// On the wire a certified round is its header and QC: as in PBFT, a
    /// view change carries request *digests*, not payloads. The batch
    /// rides along in [`CertifiedBlock`] for the re-proposal (the new
    /// leader and every backup took part in the prepare phase, so they
    /// hold the payload; the rare miss is a fetch folded into the
    /// re-proposal broadcast), but it is not counted: one view change
    /// would otherwise ship hundreds of megabytes of already-disseminated
    /// payload through the NIC model.
    fn wire_size(&self) -> u64 {
        let entry = |e: &CertifiedBlock| e.block.header.wire_size() + e.qc.wire_size();
        sizes::MSG_HEADER + self.prepared.iter().map(entry).sum::<u64>() + sizes::SIGNATURE
    }
}

/// A new-view message from the incoming leader.
///
/// Carries the quorum of view-change messages that justified the view
/// (classical PBFT's `V` set). Every replica derives the re-proposal /
/// nil-fill plan from this set with the same deterministic function
/// ([`crate::instance::ViewPlan::from_vcs`]) instead of trusting
/// leader-chosen fields, so a Byzantine leader cannot skip or reorder
/// rounds within one new-view message, and since each view change signs
/// its entries ([`ViewChange::signing_bytes`]) it cannot rewrite what a
/// member reported either. (It can still send *different*
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
    /// `signer`'s new-view message installing `view` on the quorum `vcs`.
    pub fn sign(
        signer: &Signer,
        view: View,
        instance: InstanceId,
        vcs: Vec<Arc<ViewChange>>,
    ) -> Self {
        let bytes = Self::bytes(view, instance, vcs.len());
        Self {
            view,
            instance,
            vcs,
            sig: Signature::sign(signer, DOMAIN_NEWVIEW, &bytes),
        }
    }

    /// Canonical signing bytes: the header. Each embedded view change
    /// carries its sender's signature over its own entries.
    pub fn signing_bytes(&self) -> [u8; 28] {
        Self::bytes(self.view, self.instance, self.vcs.len())
    }

    fn bytes(view: View, instance: InstanceId, vcs: usize) -> [u8; 28] {
        let mut out = [0u8; 28];
        out[0..8].copy_from_slice(&view.0.to_le_bytes());
        out[16..20].copy_from_slice(&instance.0.to_le_bytes());
        out[20..28].copy_from_slice(&(vcs as u64).to_le_bytes());
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
        // A fabricated signature is fine for size accounting.
        let reg = ladon_crypto::KeyRegistry::generate(4, 1, 1);
        let sig = Signature::sign(&reg.signer(ladon_types::ReplicaId(0)), b"x", b"y");
        let pp = PrePrepare {
            view: View(0),
            block: Block::synthetic(0, 0, 4096),
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
