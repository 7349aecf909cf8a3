//! Simulated aggregate signatures (§3.2 "aggregated signature scheme").
//!
//! The interface mirrors BLS aggregation: `agg({σ_r}) → σ`, and
//! `verifyAgg((pk_r, m_r)_r, σ) → 0/1` where signer identities and their
//! messages are extractable. Internally the aggregate stores the signer
//! set (with each signer's sub-key index) and an XOR-combined tag; the
//! verifier recomputes each constituent tag through the registry oracle
//! and checks the combination. Verification is *counted* as one aggregate
//! operation, matching the paper's authenticator-complexity accounting.
//!
//! The sub-key index is how Ladon-opt encodes a rank (§5.3): a replica
//! signs its round's common rank message with sub-key `k = curRank −
//! base` ([`crate::Signature::sign_with_key`], clamped to the last key),
//! so reports of different ranks still aggregate. The encoding and its
//! decode are the PBFT rank report's.

use crate::counters::{record, OpKind};
use crate::keys::KeyRegistry;
use crate::sig::Signature;
use ladon_types::{agg_sig_bytes, ReplicaId, WireSize};
use serde::{Deserialize, Serialize};

/// An aggregate signature over one common message.
///
/// All constituents must cover the same `(domain, msg)` bytes — exactly the
/// situation Ladon-opt engineers by moving the rank difference into the key
/// choice instead of the message (§5.3). For plain Ladon QCs the common
/// message is the `(digest, rank)` pair every prepare signs.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AggregateSignature {
    /// `(signer, sub-key index)` per constituent, sorted by replica id.
    pub signers: Vec<(ReplicaId, u32)>,
    /// XOR of the constituent tags.
    pub combined: [u8; 32],
    /// Total replicas in the system (bitmap sizing for the wire model).
    pub n: u32,
}

impl AggregateSignature {
    /// Aggregates individual signatures.
    ///
    /// Returns `None` if the set is empty or contains two signatures from
    /// the same replica (quorums are sets of distinct replicas).
    pub fn aggregate(sigs: &[Signature], n: usize) -> Option<Self> {
        if sigs.is_empty() {
            return None;
        }
        record(OpKind::AggSign);
        let mut signers: Vec<(ReplicaId, u32)> =
            sigs.iter().map(|s| (s.pk.replica, s.pk.key_idx)).collect();
        signers.sort_unstable();
        if signers.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        Some(Self {
            signers,
            combined: Self::combine(sigs.iter().map(|s| s.tag)),
            n: n as u32,
        })
    }

    /// What constituent tags combine to: their XOR.
    pub fn combine(tags: impl IntoIterator<Item = [u8; 32]>) -> [u8; 32] {
        let mut combined = [0u8; 32];
        for tag in tags {
            for (c, t) in combined.iter_mut().zip(tag) {
                *c ^= t;
            }
        }
        combined
    }

    /// Verifies that every listed signer signed `(domain, msg)` under its
    /// listed sub-key. Counted as one aggregate verification.
    pub fn verify(&self, registry: &KeyRegistry, domain: &[u8], msg: &[u8]) -> bool {
        record(OpKind::AggVerify);
        if self.signers.is_empty() {
            return false;
        }
        // Distinctness re-check (the struct may come off the wire).
        if self.signers.windows(2).any(|w| w[0].0 >= w[1].0) {
            return false;
        }
        registry.combined_tag_for(&self.signers, domain, msg) == Some(self.combined)
    }

    /// Number of constituent signatures.
    #[inline]
    pub fn count(&self) -> usize {
        self.signers.len()
    }

    /// Whether the aggregate reaches a quorum of `q` distinct signers.
    #[inline]
    pub fn has_quorum(&self, q: usize) -> bool {
        self.count() >= q
    }

    /// The maximum sub-key index among constituents (Ladon-opt: `k_m`).
    pub fn max_key_idx(&self) -> u32 {
        self.signers.iter().map(|&(_, k)| k).max().unwrap_or(0)
    }
}

impl WireSize for AggregateSignature {
    fn wire_size(&self) -> u64 {
        // One group point + n-bit signer bitmap + 1 byte per signer for the
        // sub-key index (only Ladon-opt sets nonzero indices, but the byte
        // is charged uniformly for simplicity).
        agg_sig_bytes(self.n as usize) + self.signers.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyRegistry;

    fn setup(n: usize, k: u32) -> KeyRegistry {
        KeyRegistry::generate(n, k, 99)
    }

    fn sigs_over(reg: &KeyRegistry, ids: &[u32], domain: &[u8], msg: &[u8]) -> Vec<Signature> {
        ids.iter()
            .map(|&r| Signature::sign(&reg.signer(ReplicaId(r)), domain, msg))
            .collect()
    }

    #[test]
    fn aggregate_roundtrip() {
        let reg = setup(4, 1);
        let sigs = sigs_over(&reg, &[0, 1, 2], b"prepare", b"m");
        let agg = AggregateSignature::aggregate(&sigs, 4).unwrap();
        assert_eq!(agg.count(), 3);
        assert!(agg.has_quorum(3));
        assert!(!agg.has_quorum(4));
        assert!(agg.verify(&reg, b"prepare", b"m"));
    }

    #[test]
    fn aggregate_rejects_duplicates_and_empty() {
        let reg = setup(4, 1);
        let mut sigs = sigs_over(&reg, &[0, 1], b"d", b"m");
        sigs.push(sigs[0]);
        assert!(AggregateSignature::aggregate(&sigs, 4).is_none());
        assert!(AggregateSignature::aggregate(&[], 4).is_none());
    }

    #[test]
    fn aggregate_wrong_message_fails() {
        let reg = setup(4, 1);
        let sigs = sigs_over(&reg, &[0, 1, 2], b"d", b"m");
        let agg = AggregateSignature::aggregate(&sigs, 4).unwrap();
        assert!(!agg.verify(&reg, b"d", b"other"));
        assert!(!agg.verify(&reg, b"x", b"m"));
    }

    #[test]
    fn tampered_signer_list_fails() {
        let reg = setup(4, 1);
        let sigs = sigs_over(&reg, &[0, 1, 2], b"d", b"m");
        let mut agg = AggregateSignature::aggregate(&sigs, 4).unwrap();
        // Claiming an extra signer without its tag breaks the combination.
        agg.signers.push((ReplicaId(3), 0));
        assert!(!agg.verify(&reg, b"d", b"m"));
    }

    #[test]
    fn unsorted_wire_data_rejected() {
        let reg = setup(4, 1);
        let sigs = sigs_over(&reg, &[0, 1], b"d", b"m");
        let mut agg = AggregateSignature::aggregate(&sigs, 4).unwrap();
        agg.signers.swap(0, 1);
        assert!(!agg.verify(&reg, b"d", b"m"));
    }

    /// Signers go through the MAC two at a time: an odd count, an even
    /// one, a quorum of 16 and all of 16 — over a tag body that pads on
    /// the stack and over one that has to stream — combine to the XOR of
    /// the tags computed one by one.
    #[test]
    fn paired_verification_equals_single_tags_for_any_signer_count() {
        let reg = setup(16, 2);
        for msg in [&[0x42u8; 60][..], &[0x42u8; 300][..]] {
            for count in [1u32, 2, 11, 16] {
                let sigs: Vec<Signature> = (0..count)
                    .map(|r| Signature::sign_with_key(&reg.signer(ReplicaId(r)), r % 2, b"d", msg))
                    .collect();
                let mut agg = AggregateSignature::aggregate(&sigs, 16).unwrap();
                let singles = sigs.iter().map(|sig| {
                    let tag = reg.tag_for(sig.pk, b"d", msg).unwrap();
                    assert_eq!(tag, sig.tag);
                    tag
                });
                assert_eq!(agg.combined, AggregateSignature::combine(singles));
                assert!(agg.verify(&reg, b"d", msg), "{count} signers");
                // The wrong sub-key for the last signer — paired or odd
                // one out — is caught.
                agg.signers[count as usize - 1].1 ^= 1;
                assert!(!agg.verify(&reg, b"d", msg), "{count} signers");
                // And a key that does not exist fails, whichever slot of
                // a pair it sits in.
                agg.signers[count as usize - 1].1 = 9;
                assert!(!agg.verify(&reg, b"d", msg), "{count} signers");
            }
        }
    }

    /// The counters keep their meaning: a tag is two finished hashes, an
    /// aggregate verification one `agg_verifies` and its signers' tags.
    #[test]
    fn counters_keep_their_meaning() {
        use crate::counters::CryptoCounters;
        let reg = setup(16, 1);
        let sigs = sigs_over(&reg, &(0..11).collect::<Vec<_>>(), b"d", &[7; 60]);
        let agg = AggregateSignature::aggregate(&sigs, 16).unwrap();
        let before = CryptoCounters::snapshot();
        let sig = Signature::sign(&reg.signer(ReplicaId(3)), b"d", &[7; 60]);
        let cost = CryptoCounters::snapshot().since(&before);
        assert_eq!((cost.signs, cost.hashes), (1, 2));
        let before = CryptoCounters::snapshot();
        assert!(sig.verify(&reg, b"d", &[7; 60]));
        let cost = CryptoCounters::snapshot().since(&before);
        assert_eq!((cost.verifies, cost.hashes), (1, 2));
        let before = CryptoCounters::snapshot();
        assert!(agg.verify(&reg, b"d", &[7; 60]));
        let cost = CryptoCounters::snapshot().since(&before);
        assert_eq!((cost.agg_verifies, cost.verifies, cost.hashes), (1, 0, 22));
    }

    #[test]
    fn wire_size_much_smaller_than_sig_set() {
        use ladon_types::WireSize;
        let reg = setup(128, 1);
        let ids: Vec<u32> = (0..86).collect();
        let sigs = sigs_over(&reg, &ids, b"d", b"m");
        let agg = AggregateSignature::aggregate(&sigs, 128).unwrap();
        let set_size: u64 = sigs.iter().map(WireSize::wire_size).sum();
        assert!(agg.wire_size() * 10 < set_size);
    }
}
