//! Quorum certificates.
//!
//! Algorithm 2 aggregates `2f + 1` prepare signatures into a `QC` that
//! certifies a block's `(digest, rank)` at `(view, round, instance)`. The
//! same certificate doubles as the *rank certificate* a replica attaches to
//! its rank messages (Line 25: `curRank.QC ← agg(premsg)`), which is how a
//! leader proves the highest collected rank is authentic and not stale.
//!
//! # One certificate, many carriers
//!
//! A certificate is built once and then rides in many messages: a
//! replica's `curRank` certificate is attached to every rank report and
//! HotStuff vote it sends on every instance, a block's prepare QC sits in
//! its round state, in view-change bundles and in sync entries. Carriers
//! therefore hold it as `Arc<QuorumCert>` — attaching it is a pointer
//! bump, not a copy of the signer list.
//!
//! # [`CertCache`]: verify a certificate once per replica
//!
//! The receiving side has the mirror-image problem: the same certificate
//! arrives on all `m` instances of a replica, and each arrival used to
//! pay a full aggregate verification. A replica owns one [`CertCache`]
//! and every instance it hosts verifies certificates through it. The
//! contract:
//!
//! - **Stored and compared.** The cache keeps the `Arc<QuorumCert>` it
//!   verified, indexed by the aggregate's combined tag, and hits only
//!   when that stored certificate equals the one presented in every field
//!   and in the signature material: a forged twin differing in one byte
//!   never hits, even one that keeps the genuine tag and so lands on the
//!   genuine entry. The certificate a message carries is usually the very
//!   allocation the cache holds, and then the comparison is one pointer
//!   test; a lookup computes no SHA-256.
//! - **Only successes are stored**; a failed verification is paid again
//!   on every arrival.
//! - **Bound to its verifier.** A cache is built for one
//!   `(registry, quorum)` pair and verifies with nothing else, so a hit
//!   can only stand in for the check that would have run.
//! - **Bounded.** [`CERT_CACHE_MAX`] certificates, dropped wholesale
//!   when full; cleared when the replica enters a new epoch (old-epoch
//!   certificates do not legitimately re-arrive).
//! - **Per replica.** Clones of a cache share one store — that is how a
//!   node hands it to its instances — and a store is never shared between
//!   replicas: what one replica verified proves nothing to another.

use crate::agg::AggregateSignature;
use crate::keys::{KeyRegistry, Signer};
use crate::sig::Signature;
use ladon_types::{Digest, InstanceId, Rank, Round, View, WireSize};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Signing domain for prepare-phase messages.
pub const DOMAIN_PREPARE: &[u8] = b"ladon/prepare";

/// Signing domain for chained-HotStuff votes. Lives here (not in the
/// hotstuff crate) because a HotStuff vote QC doubles as a rank
/// certificate, so [`QuorumCert::verify`] must know its bytes.
pub const DOMAIN_HS_VOTE: &[u8] = b"ladon/hs/vote";

/// Which signing domain a [`QuorumCert`]'s shares were produced under.
///
/// PBFT rank certificates aggregate prepare signatures (Algorithm 2 line
/// 25); Ladon-HotStuff rank certificates aggregate the 2f+1 votes that
/// form a node's QC (Appendix D: `generateQC` output certifies the node's
/// rank). Both cover the same canonical `(view, round, digest, instance,
/// rank)` bytes, so the certificate only needs to remember the domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CertDomain {
    /// PBFT prepare shares.
    Prepare,
    /// Chained-HotStuff vote shares.
    HsVote,
}

impl CertDomain {
    /// The domain-separation bytes signatures in this domain cover.
    pub fn bytes(self) -> &'static [u8] {
        match self {
            CertDomain::Prepare => DOMAIN_PREPARE,
            CertDomain::HsVote => DOMAIN_HS_VOTE,
        }
    }
}

/// Canonical byte encoding of the prepare message body
/// `⟨prepare, v, n, d, i, rank⟩` that every prepare signature covers.
pub fn prepare_bytes(
    view: View,
    round: Round,
    digest: &Digest,
    instance: InstanceId,
    rank: Rank,
) -> [u8; 60] {
    let mut out = [0u8; 60];
    out[0..8].copy_from_slice(&view.0.to_le_bytes());
    out[8..16].copy_from_slice(&round.0.to_le_bytes());
    out[16..48].copy_from_slice(&digest.0);
    out[48..52].copy_from_slice(&instance.0.to_le_bytes());
    out[52..60].copy_from_slice(&rank.0.to_le_bytes());
    out
}

/// A quorum certificate over `(view, round, instance, digest, rank)`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct QuorumCert {
    /// View the prepares were sent in.
    pub view: View,
    /// Round of the certified block.
    pub round: Round,
    /// Producing instance.
    pub instance: InstanceId,
    /// Certified payload digest.
    pub digest: Digest,
    /// Certified rank.
    pub rank: Rank,
    /// Signing domain of the aggregated shares.
    pub domain: CertDomain,
    /// The aggregated share signatures.
    pub agg: AggregateSignature,
}

impl QuorumCert {
    /// Signs one prepare share for this certificate's contents.
    pub fn sign_share(
        signer: &Signer,
        view: View,
        round: Round,
        digest: &Digest,
        instance: InstanceId,
        rank: Rank,
    ) -> Signature {
        let bytes = prepare_bytes(view, round, digest, instance, rank);
        Signature::sign(signer, DOMAIN_PREPARE, &bytes)
    }

    /// Aggregates prepare shares into a certificate.
    ///
    /// Returns `None` if aggregation fails (empty/duplicate signers).
    pub fn from_shares(
        shares: &[Signature],
        n: usize,
        view: View,
        round: Round,
        instance: InstanceId,
        digest: Digest,
        rank: Rank,
    ) -> Option<Self> {
        Self::from_shares_in(
            shares,
            n,
            view,
            round,
            instance,
            digest,
            rank,
            CertDomain::Prepare,
        )
    }

    /// Aggregates shares signed under `domain` into a certificate.
    #[allow(clippy::too_many_arguments)]
    pub fn from_shares_in(
        shares: &[Signature],
        n: usize,
        view: View,
        round: Round,
        instance: InstanceId,
        digest: Digest,
        rank: Rank,
        domain: CertDomain,
    ) -> Option<Self> {
        let agg = AggregateSignature::aggregate(shares, n)?;
        Some(Self {
            view,
            round,
            instance,
            digest,
            rank,
            domain,
            agg,
        })
    }

    /// Verifies the certificate: quorum of distinct signers over the
    /// canonical bytes.
    pub fn verify(&self, registry: &KeyRegistry, quorum: usize) -> bool {
        if !self.agg.has_quorum(quorum) {
            return false;
        }
        let bytes = prepare_bytes(
            self.view,
            self.round,
            &self.digest,
            self.instance,
            self.rank,
        );
        self.agg.verify(registry, self.domain.bytes(), &bytes)
    }
}

impl WireSize for QuorumCert {
    fn wire_size(&self) -> u64 {
        ladon_types::sizes::MSG_HEADER + ladon_types::sizes::DIGEST + self.agg.wire_size()
    }
}

/// Certificates a [`CertCache`] holds before it is dropped wholesale.
/// Certificates are per-(instance, round, view) and the cache clears on
/// epoch advance, so this is a backstop against message floods, not a
/// working-set size.
pub const CERT_CACHE_MAX: usize = 1024;

/// A replica's store of certificates it has already verified (see the
/// module docs for the contract). Cloning yields another handle to the
/// same store.
#[derive(Clone)]
pub struct CertCache {
    registry: KeyRegistry,
    quorum: usize,
    store: Arc<Mutex<CertStore>>,
}

#[derive(Default)]
struct CertStore {
    /// `minRank` of the epoch the certificates belong to.
    epoch_min: Rank,
    /// Every certificate that verified, by its combined tag: a lookup is
    /// one probe and one `==` against what is stored.
    verified: HashMap<[u8; 32], Arc<QuorumCert>>,
}

impl CertCache {
    /// An empty cache that verifies against `registry` at `quorum`.
    pub fn new(registry: KeyRegistry, quorum: usize) -> Self {
        Self {
            registry,
            quorum,
            store: Arc::default(),
        }
    }

    fn store(&self) -> std::sync::MutexGuard<'_, CertStore> {
        // Every update leaves the set valid, so a holder that panicked
        // cannot have left it half-written.
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`QuorumCert::verify`], paid once per distinct certificate: an
    /// identical cert that already verified through any handle of this
    /// cache skips the aggregate verification and counts a
    /// [`crate::CryptoCounters::qc_verify_hits`]. Identical means equal
    /// in every field; the same allocation is equal without a field read.
    pub fn verified(&self, qc: &Arc<QuorumCert>) -> bool {
        let mut store = self.store();
        if store.verified.get(&qc.agg.combined) == Some(qc) {
            crate::counters::record_qc_verify_hit();
            return true;
        }
        if !qc.verify(&self.registry, self.quorum) {
            return false;
        }
        if store.verified.len() >= CERT_CACHE_MAX {
            store.verified.clear();
        }
        store.verified.insert(qc.agg.combined, Arc::clone(qc));
        true
    }

    /// The replica entered the epoch whose rank range starts at
    /// `epoch_min`: forget the previous epoch's certificates. Every
    /// instance of the replica reports the same advance; only the first
    /// report of an epoch clears.
    pub fn advance_epoch(&self, epoch_min: Rank) {
        let mut store = self.store();
        if epoch_min > store.epoch_min {
            store.epoch_min = epoch_min;
            store.verified.clear();
        }
    }
}

/// A replica's certified current-highest rank (`curRank` in Algorithm 2).
///
/// A rank equal to the epoch's `minRank` needs no certificate (nothing has
/// been certified yet in this epoch — Algorithm 2's prepare-phase check:
/// "if `rank_m ≠ minRank`, QC is a valid aggregate signature"). Any higher
/// rank must carry the QC of a block that actually achieved that rank.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RankCert {
    /// The claimed rank.
    pub rank: Rank,
    /// Certificate, absent only for the epoch-minimum rank. Shared: the
    /// same certificate is attached to every report the replica sends.
    pub cert: Option<Arc<QuorumCert>>,
}

impl RankCert {
    /// A certificate-free rank claim at the epoch minimum.
    pub fn genesis(min_rank: Rank) -> Self {
        Self {
            rank: min_rank,
            cert: None,
        }
    }

    /// A certified rank claim.
    pub fn certified(cert: impl Into<Arc<QuorumCert>>) -> Self {
        let cert = cert.into();
        Self {
            rank: cert.rank,
            cert: Some(cert),
        }
    }

    /// Validates the claim: either it is the epoch minimum, or the attached
    /// QC verifies and certifies exactly this rank.
    pub fn validate(&self, registry: &KeyRegistry, quorum: usize, min_rank: Rank) -> bool {
        Self::validate_claim(self.rank, self.cert.as_ref(), min_rank, |qc| {
            qc.verify(registry, quorum)
        })
    }

    /// [`Self::validate`] over a claim's borrowed parts — a message
    /// carries one as a rank beside an optional certificate — with
    /// certificate verification delegated to `verify_qc` (directly, or
    /// through a verified-cert cache). The single definition of the
    /// claim's structural rules (certificate-free only at the epoch
    /// minimum; a certificate must certify exactly the claimed rank), so
    /// the owned, borrowed, plain and cached paths can never diverge.
    pub fn validate_claim(
        rank: Rank,
        cert: Option<&Arc<QuorumCert>>,
        min_rank: Rank,
        verify_qc: impl FnOnce(&Arc<QuorumCert>) -> bool,
    ) -> bool {
        match cert {
            None => rank == min_rank,
            Some(qc) => qc.rank == rank && verify_qc(qc),
        }
    }

    /// [`Self::validate_claim`] for a claim that may sit *below* its
    /// certificate's rank: a rank only needs to be a certified lower bound
    /// to keep ranks monotonic. A Ladon-opt report clamped to the last
    /// sub-key under-reports this way (§5.3), and so may a HotStuff vote's
    /// `rank_m`. Certificate-free still only at the epoch minimum.
    pub fn validate_lower_bound(
        rank: Rank,
        cert: Option<&Arc<QuorumCert>>,
        min_rank: Rank,
        verify_qc: impl FnOnce(&Arc<QuorumCert>) -> bool,
    ) -> bool {
        match cert {
            None => rank == min_rank,
            Some(qc) => qc.rank >= rank && verify_qc(qc),
        }
    }
}

impl WireSize for RankCert {
    fn wire_size(&self) -> u64 {
        8 + self.cert.as_ref().map_or(0, WireSize::wire_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::ReplicaId;

    fn make_qc(reg: &KeyRegistry, signer_ids: &[u32], rank: Rank) -> QuorumCert {
        let view = View(0);
        let round = Round(3);
        let instance = InstanceId(1);
        let digest = Digest([7u8; 32]);
        let shares: Vec<Signature> = signer_ids
            .iter()
            .map(|&r| {
                QuorumCert::sign_share(
                    &reg.signer(ReplicaId(r)),
                    view,
                    round,
                    &digest,
                    instance,
                    rank,
                )
            })
            .collect();
        QuorumCert::from_shares(&shares, reg.n(), view, round, instance, digest, rank).unwrap()
    }

    #[test]
    fn qc_roundtrip() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let qc = make_qc(&reg, &[0, 1, 2], Rank(9));
        assert!(qc.verify(&reg, 3));
        assert!(!qc.verify(&reg, 4)); // not enough signers for q=4
    }

    #[test]
    fn qc_tamper_rank_fails() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let mut qc = make_qc(&reg, &[0, 1, 2], Rank(9));
        qc.rank = Rank(10);
        assert!(!qc.verify(&reg, 3));
    }

    #[test]
    fn qc_tamper_digest_fails() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let mut qc = make_qc(&reg, &[0, 1, 2], Rank(9));
        qc.digest = Digest([8u8; 32]);
        assert!(!qc.verify(&reg, 3));
    }

    #[test]
    fn rank_cert_genesis_only_at_min() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let rc = RankCert::genesis(Rank(64));
        assert!(rc.validate(&reg, 3, Rank(64)));
        // Claiming a certificate-free rank above the minimum is rejected —
        // this is the stale-rank attack the QCs exist to prevent.
        let forged = RankCert {
            rank: Rank(70),
            cert: None,
        };
        assert!(!forged.validate(&reg, 3, Rank(64)));
    }

    #[test]
    fn rank_cert_certified_roundtrip() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let qc = make_qc(&reg, &[0, 1, 2], Rank(9));
        let rc = RankCert::certified(qc);
        assert_eq!(rc.rank, Rank(9));
        assert!(rc.validate(&reg, 3, Rank(0)));
    }

    #[test]
    fn rank_cert_mismatched_claim_fails() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let qc = make_qc(&reg, &[0, 1, 2], Rank(9));
        let rc = RankCert {
            rank: Rank(12), // claims more than the QC certifies
            cert: Some(Arc::new(qc)),
        };
        assert!(!rc.validate(&reg, 3, Rank(0)));
    }

    #[test]
    fn lower_bound_claims_may_sit_below_their_certificate() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let qc = Arc::new(make_qc(&reg, &[0, 1, 2], Rank(9)));
        let check = |rank: Rank, cert: Option<&Arc<QuorumCert>>| {
            let verify = |qc: &Arc<QuorumCert>| qc.verify(&reg, 3);
            (
                RankCert::validate_claim(rank, cert, Rank(2), verify),
                RankCert::validate_lower_bound(rank, cert, Rank(2), verify),
            )
        };
        assert_eq!(check(Rank(9), Some(&qc)), (true, true));
        assert_eq!(check(Rank(5), Some(&qc)), (false, true));
        assert_eq!(check(Rank(10), Some(&qc)), (false, false));
        assert_eq!(check(Rank(2), None), (true, true));
        assert_eq!(check(Rank(5), None), (false, false));
        let mut forged = (*qc).clone();
        forged.agg.combined[0] ^= 1;
        assert_eq!(check(Rank(5), Some(&Arc::new(forged))), (false, false));
    }

    /// `(agg_verifies, qc_verify_hits)` spent by `f`.
    fn cert_cost(f: impl FnOnce() -> bool) -> (bool, u64, u64) {
        let before = crate::CryptoCounters::snapshot();
        let ok = f();
        let cost = crate::CryptoCounters::snapshot().since(&before);
        (ok, cost.agg_verifies, cost.qc_verify_hits)
    }

    #[test]
    fn cert_cache_verifies_once_and_only_caches_successes() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let cache = CertCache::new(reg.clone(), 3);
        let qc = Arc::new(make_qc(&reg, &[0, 1, 2], Rank(9)));
        assert_eq!(cert_cost(|| cache.verified(&qc)), (true, 1, 0));
        assert_eq!(cert_cost(|| cache.verified(&qc)), (true, 0, 1));
        // Another handle of the same replica's cache sees the same store.
        let handle = cache.clone();
        assert_eq!(cert_cost(|| handle.verified(&qc)), (true, 0, 1));

        // A twin with one flipped signature byte misses, fails, and fails
        // again — failures are never stored.
        let mut twin = (*qc).clone();
        twin.agg.combined[7] ^= 1;
        let twin = Arc::new(twin);
        assert_eq!(cert_cost(|| cache.verified(&twin)), (false, 1, 0));
        assert_eq!(cert_cost(|| cache.verified(&twin)), (false, 1, 0));
        // So does a valid aggregate short of this cache's quorum.
        let thin = Arc::new(make_qc(&reg, &[0, 1], Rank(9)));
        assert_eq!(cert_cost(|| cache.verified(&thin)), (false, 0, 0));
    }

    /// The store is indexed by the combined tag alone, so a twin that
    /// keeps the genuine tag lands on the genuine entry: the comparison,
    /// not the index, must refuse it.
    #[test]
    fn cert_cache_hits_only_on_identical_content() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let cache = CertCache::new(reg.clone(), 3);
        let qc = Arc::new(make_qc(&reg, &[0, 1, 2], Rank(9)));
        assert!(cache.verified(&qc));
        type Edit = fn(&mut QuorumCert);
        let edits: [(&str, Edit); 7] = [
            ("rank", |q| q.rank = Rank(10)),
            ("digest", |q| q.digest.0[0] ^= 1),
            ("round", |q| q.round = q.round.next()),
            ("view", |q| q.view = q.view.next()),
            ("instance", |q| q.instance = InstanceId(q.instance.0 + 1)),
            ("domain", |q| q.domain = CertDomain::HsVote),
            ("signers", |q| q.agg.signers[2] = (ReplicaId(3), 0)),
        ];
        for (field, edit) in edits {
            let mut twin = (*qc).clone();
            edit(&mut twin);
            assert_eq!(twin.agg.combined, qc.agg.combined);
            let twin = Arc::new(twin);
            assert_eq!(
                cert_cost(|| cache.verified(&twin)),
                (false, 1, 0),
                "{field}"
            );
            assert_eq!(cert_cost(|| cache.verified(&qc)), (true, 0, 1), "{field}");
        }
        // An equal certificate in another allocation is the same
        // certificate: it hits without a verification.
        let copy = Arc::new((*qc).clone());
        assert_eq!(cert_cost(|| cache.verified(&copy)), (true, 0, 1));
    }

    #[test]
    fn cert_cache_clears_once_per_epoch_and_is_never_shared_by_construction() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let cache = CertCache::new(reg.clone(), 3);
        let qc = Arc::new(make_qc(&reg, &[0, 1, 2], Rank(9)));
        assert!(cache.verified(&qc));

        // Every instance of the replica reports the advance; the first
        // report clears, the rest find the epoch already entered.
        cache.advance_epoch(Rank(64));
        assert_eq!(cert_cost(|| cache.verified(&qc)), (true, 1, 0));
        cache.advance_epoch(Rank(64));
        assert_eq!(cert_cost(|| cache.verified(&qc)), (true, 0, 1));
        cache.advance_epoch(Rank(128));
        assert_eq!(cert_cost(|| cache.verified(&qc)), (true, 1, 0));

        // A second replica's cache starts empty however much the first
        // has verified: `new` is the only way to get a store.
        let other = CertCache::new(reg, 3);
        assert_eq!(cert_cost(|| other.verified(&qc)), (true, 1, 0));
    }

    #[test]
    fn cert_cache_is_bounded() {
        let reg = KeyRegistry::generate(4, 1, 5);
        let cache = CertCache::new(reg.clone(), 3);
        let cert = |rank| Arc::new(make_qc(&reg, &[0, 1, 2], Rank(rank)));
        for rank in 0..CERT_CACHE_MAX as u64 {
            assert!(cache.verified(&cert(rank)));
        }
        assert_eq!(cert_cost(|| cache.verified(&cert(0))), (true, 0, 1));
        // One more than it holds: dropped wholesale, then refilled.
        assert!(cache.verified(&cert(CERT_CACHE_MAX as u64)));
        assert_eq!(cert_cost(|| cache.verified(&cert(0))), (true, 1, 0));
    }

    #[test]
    fn prepare_bytes_field_sensitivity() {
        let base = prepare_bytes(View(1), Round(2), &Digest([3; 32]), InstanceId(4), Rank(5));
        assert_ne!(
            base,
            prepare_bytes(View(2), Round(2), &Digest([3; 32]), InstanceId(4), Rank(5))
        );
        assert_ne!(
            base,
            prepare_bytes(View(1), Round(3), &Digest([3; 32]), InstanceId(4), Rank(5))
        );
        assert_ne!(
            base,
            prepare_bytes(View(1), Round(2), &Digest([3; 32]), InstanceId(4), Rank(6))
        );
    }
}
