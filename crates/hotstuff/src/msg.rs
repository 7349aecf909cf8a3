//! Chained HotStuff message types with Ladon rank piggybacking
//! (Appendix D, Algorithm 3).
//!
//! Generic messages carry the proposed node, the QC for its parent, and
//! the leader's rank information; votes flow back to the leader carrying
//! each replica's current highest rank (`rank_m`) and its certificate, so
//! rank collection rides the consensus traffic exactly as in Ladon-PBFT.
//!
//! Certificates are shared, not copied: an [`HsQc`] *is* an
//! `Arc<QuorumCert>` in the vote domain, so the QC a leader forms, the
//! `justify` of its next proposal, the `curRank` certificate every
//! replica then attaches to its votes on all instances, and the entry
//! the replica's [`ladon_crypto::CertCache`] stores are one allocation,
//! so a cache hit on it is a pointer comparison. Proposals and votes travel behind an `Arc` inside
//! [`HsMsg`]: a vote is written once by its voter, kept by the leader
//! and cited — not copied — in the next proposal's vote set. Every
//! [`WireSize`] is what it was by value.

use ladon_crypto::qc::{prepare_bytes, CertDomain};
use ladon_crypto::{AggregateSignature, QuorumCert, Signature};
use ladon_types::{sizes, Batch, Digest, InstanceId, Rank, Round, TimeNs, View, WireSize};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Signing domain for generic (proposal) messages.
pub const DOMAIN_GENERIC: &[u8] = b"ladon/hs/generic";
/// Signing domain for votes (shared with [`ladon_crypto::qc`] so a vote QC
/// can be re-verified as a rank certificate).
pub const DOMAIN_VOTE: &[u8] = ladon_crypto::qc::DOMAIN_HS_VOTE;
/// Signing domain for new-view messages.
pub const DOMAIN_NEWVIEW: &[u8] = b"ladon/hs/newview";

/// A quorum certificate over a tree node (aggregated votes).
///
/// The votes cover the same canonical `(view, height, node, instance,
/// rank)` bytes as PBFT prepare shares, under [`CertDomain::HsVote`], so
/// the certificate is held as the [`QuorumCert`] it doubles as
/// (Appendix D: the QC produced by `generateQC` certifies the node's
/// rank, playing the role PBFT's aggregated prepares play in Algorithm 2
/// line 25) — with `round` the node's height and `digest` its digest.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HsQc(Arc<QuorumCert>);

impl HsQc {
    /// Aggregates the vote shares for the node `(height, node, rank)`
    /// voted on in `view`; `None` if they do not aggregate (empty, or two
    /// from one replica).
    pub fn from_votes(
        shares: &[Signature],
        n: usize,
        view: View,
        height: Round,
        instance: InstanceId,
        node: Digest,
        rank: Rank,
    ) -> Option<Self> {
        let domain = CertDomain::HsVote;
        QuorumCert::from_shares_in(shares, n, view, height, instance, node, rank, domain)
            .map(|qc| Self(Arc::new(qc)))
    }

    /// The genesis certificate (height 0, nil digest).
    pub fn genesis(n: usize, instance: InstanceId) -> Self {
        Self(Arc::new(QuorumCert {
            view: View(0),
            round: Round(0),
            instance,
            digest: Digest::NIL,
            rank: Rank(0),
            domain: CertDomain::HsVote,
            agg: AggregateSignature {
                signers: Vec::new(),
                combined: [0u8; 32],
                n: n as u32,
            },
        }))
    }

    /// True for the genesis certificate — the one [`Self::genesis`]
    /// builds — and for nothing else: a certificate that merely names
    /// height 0 goes through real verification (and fails it, having no
    /// quorum to show).
    pub fn is_genesis(&self) -> bool {
        let qc = &*self.0;
        (qc.view, qc.round, qc.digest, qc.rank) == (View(0), Round(0), Digest::NIL, Rank(0))
            && qc.domain == CertDomain::HsVote
            && qc.agg.signers.is_empty()
            && qc.agg.combined == [0u8; 32]
    }

    /// The certificate itself: the certified fields and the aggregate.
    pub fn cert(&self) -> &QuorumCert {
        &self.0
    }

    /// Height of the certified node.
    pub fn height(&self) -> Round {
        self.0.round
    }

    /// Digest of the certified node.
    pub fn node(&self) -> Digest {
        self.0.digest
    }

    /// Rank of the certified node.
    pub fn rank(&self) -> Rank {
        self.0.rank
    }

    /// Verifies the certificate (only genesis verifies vacuously).
    pub fn verify(&self, registry: &ladon_crypto::KeyRegistry, quorum: usize) -> bool {
        self.is_genesis() || self.0.verify(registry, quorum)
    }

    /// [`Self::verify`] through a replica's cert cache: the same
    /// certificate met again — as another proposal's `justify`, or as the
    /// rank certificate of a vote or proposal on any instance — is a hit.
    pub fn verified(&self, certs: &ladon_crypto::CertCache) -> bool {
        self.is_genesis() || certs.verified(&self.0)
    }

    /// This vote QC as a rank certificate: the same allocation.
    pub fn to_rank_qc(&self) -> Arc<QuorumCert> {
        self.0.clone()
    }
}

impl WireSize for HsQc {
    fn wire_size(&self) -> u64 {
        self.0.wire_size()
    }
}

/// A proposed tree node (leaf of the proposed branch).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HsNode {
    /// Height in the chain (monotone per instance).
    pub height: Round,
    /// Digest of this node (computed over parent ‖ batch ‖ rank).
    pub digest: Digest,
    /// Parent node digest.
    pub parent: Digest,
    /// The transaction batch (empty for the epoch-flush dummy nodes).
    pub batch: Batch,
    /// Assigned monotonic rank (0 for vanilla mode).
    pub rank: Rank,
    /// Leader-side generation timestamp.
    pub proposed_at: TimeNs,
    /// Whether this is an epoch-flush dummy node (footnote 4: dummies are
    /// committed to advance the 3-chain but never enter the global log).
    pub dummy: bool,
}

impl WireSize for HsNode {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + 2 * sizes::DIGEST + self.batch.wire_size()
    }
}

/// A vote: `⟨⟨genmsg⟩σ, curRank.rank, curRank.QC⟩` (Algorithm 3 line 25).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HsVote {
    /// View of the vote.
    pub view: View,
    /// Height of the node voted for.
    pub height: Round,
    /// Instance.
    pub instance: InstanceId,
    /// Digest of the node voted for.
    pub node: Digest,
    /// Rank of the node voted for.
    pub rank: Rank,
    /// The voter's current highest rank (`rank_m`).
    pub rank_m: Rank,
    /// Certificate for `rank_m` (absent at the epoch minimum).
    pub rank_qc: Option<Arc<QuorumCert>>,
    /// Signature over the node bytes.
    pub sig: Signature,
}

impl HsVote {
    /// The bytes this vote signs.
    pub fn signing_bytes(&self) -> [u8; 60] {
        prepare_bytes(self.view, self.height, &self.node, self.instance, self.rank)
    }
}

impl WireSize for HsVote {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER
            + sizes::DIGEST
            + 16
            + self.rank_qc.as_ref().map_or(0, WireSize::wire_size)
            + sizes::SIGNATURE
            + sizes::IDENTITY
    }
}

/// A generic (proposal) message.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HsGeneric {
    /// View.
    pub view: View,
    /// Instance.
    pub instance: InstanceId,
    /// The proposed node.
    pub node: HsNode,
    /// QC for the node's parent.
    pub justify: HsQc,
    /// The leader's current highest rank when proposing (`rank_m`),
    /// propagated so backups can update their own `curRank` (lines 15–17).
    pub rank_m: Rank,
    /// Certificate for `rank_m`.
    pub rank_qc: Option<Arc<QuorumCert>>,
    /// The votes justifying the rank choice (the Ladon `voteSet`): the
    /// votes `justify` aggregates, one per signer and in its signer order
    /// — or none (vanilla mode; the first proposal of a view). A vote's
    /// tag covers `(view, height, node, instance, rank)`, not `rank_m`, so
    /// it proves "this replica voted for the parent" and no more; the
    /// verified `justify` proves that for exactly its signers, so a
    /// backup holds the set to *be* that quorum (same signers, same five
    /// fields) and checks no tag again. The XOR of the carried tags must
    /// equal `justify`'s combined tag: a set assembled from other tags
    /// than the aggregated ones is malformed.
    pub vote_set: Vec<Arc<HsVote>>,
    /// Leader signature over the node bytes.
    pub sig: Signature,
}

impl WireSize for HsGeneric {
    fn wire_size(&self) -> u64 {
        self.node.wire_size()
            + self.justify.wire_size()
            + 8
            + self.rank_qc.as_ref().map_or(0, WireSize::wire_size)
            + self.vote_set.iter().map(WireSize::wire_size).sum::<u64>()
            + sizes::SIGNATURE
    }
}

/// New-view message: the sender's highest generic QC (view-change path).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HsNewView {
    /// The view being requested.
    pub view: View,
    /// Instance.
    pub instance: InstanceId,
    /// The sender's highest QC.
    pub justify: HsQc,
    /// Sender signature.
    pub sig: Signature,
}

impl WireSize for HsNewView {
    fn wire_size(&self) -> u64 {
        sizes::MSG_HEADER + self.justify.wire_size() + sizes::SIGNATURE
    }
}

/// All chained-HotStuff instance messages.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum HsMsg {
    /// Leader proposal.
    Generic(Arc<HsGeneric>),
    /// Replica vote (sent to the leader, which keeps this very copy and
    /// cites it in the next proposal's vote set).
    Vote(Arc<HsVote>),
    /// View-change request.
    NewView(HsNewView),
    /// A QC the leader just formed, broadcast so backups commit on it
    /// (see [`crate::instance`]) instead of one block interval later,
    /// when the next proposal carries it as `justify`.
    Qc(HsQc),
}

impl WireSize for HsMsg {
    fn wire_size(&self) -> u64 {
        match self {
            HsMsg::Generic(m) => m.wire_size(),
            HsMsg::Vote(m) => m.wire_size(),
            HsMsg::NewView(m) => m.wire_size(),
            HsMsg::Qc(m) => m.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_qc_verifies_vacuously() {
        let reg = ladon_crypto::KeyRegistry::generate(4, 1, 1);
        let qc = HsQc::genesis(4, InstanceId(0));
        assert!(qc.is_genesis());
        assert!(qc.verify(&reg, 3));
    }
}
