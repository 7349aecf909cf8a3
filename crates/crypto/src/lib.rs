//! Cryptographic substrate for Ladon.
//!
//! # What is real and what is simulated
//!
//! - [`mod@sha256`]: a complete, from-scratch SHA-256 (FIPS 180-4) used for all
//!   digests. Validated against the standard test vectors. It has two
//!   backends behind one block-compression seam: the portable rounds are
//!   the reference and the fallback; on an x86-64 CPU that reports the SHA
//!   extensions the same blocks go through `sha256rnds2`/`msg1`/`msg2`
//!   instead. The choice is made once per process from the CPU alone —
//!   there is no feature, environment variable or config field — and the
//!   two are differentially tested to produce identical bytes
//!   ([`sha256_portable`] is the reference side). A one-shot hash of at
//!   most 119 bytes ([`sha256_parts`]: a Merkle leaf, a lane root, a node
//!   or batch digest) is padded on the stack and is one backend call;
//!   longer inputs stream. The length selects, nothing else does.
//! - [`hmac`]: HMAC-SHA-256 (RFC 2104), used as the MAC under the simulated
//!   signature scheme. A key's two pad blocks are absorbed once into an
//!   [`hmac::HmacKey`] (64 bytes of chaining state); [`keys`] derives that
//!   schedule for every sub-key at [`KeyRegistry::generate`], so a tag over
//!   a body of up to 119 bytes — every tag the protocols make — is three
//!   compressions in one backend call and no allocation: the padded body
//!   from the inner midstate, its digest from the outer one.
//! - [`fnv`]: FNV-1a 64-bit for non-adversarial hot-path hashing.
//! - [`keys`] / [`sig`] / [`agg`]: a *simulated* PKI. A signature is
//!   `HMAC(sk, domain ‖ msg)`; verification goes through a [`keys::KeyRegistry`]
//!   that acts as the trusted PKI oracle. Within the simulation Byzantine
//!   actors never learn other replicas' secret keys, so unforgeability holds
//!   for every adversary the experiments model (see DESIGN.md §5).
//!   Aggregate signatures carry a signer bitmap plus an XOR-combined tag,
//!   mirroring BLS aggregation's interface and size behaviour. Verifying
//!   one recomputes every signer's tag over the one common body: the body
//!   is padded once and the signers go through the MAC two per backend
//!   call (on SHA-NI two interleaved lanes over one message schedule; the
//!   portable backend runs the same seam one key after the other).
//! - [`qc`]: quorum certificates over `(digest, rank)` pairs, the artifact
//!   Algorithm 2 calls `QC`, and the per-replica [`CertCache`] that makes
//!   a certificate carried by many messages cost one verification.
//! - [`counters`]: global operation counters used as the CPU-cost proxy for
//!   Table 1 and the authenticator-complexity analysis of Appendix A.

// The only `unsafe` in the workspace is the SHA-NI call in `sha256::shani`.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod agg;
pub mod counters;
pub mod fnv;
pub mod hmac;
pub mod keys;
pub mod qc;
pub mod sha256;
pub mod sig;

pub use agg::{AggregateSignature, MultiKeyRankSig};
pub use counters::{CryptoCounters, OpKind};
pub use keys::{KeyRegistry, PublicKey};
pub use qc::{CertCache, QuorumCert, RankCert};
pub use sha256::{sha256, sha256_parts, sha256_portable, Sha256};
pub use sig::Signature;

use ladon_types::Digest;

/// Convenience: digest arbitrary bytes with SHA-256 into a [`Digest`].
pub fn digest_bytes(data: &[u8]) -> Digest {
    Digest(sha256(data))
}

/// Convenience: digest a batch's identifying fields (paper: `d = hash(txs)`).
///
/// The synthetic workload does not materialize transaction payloads, so the
/// digest commits to the batch identity `(first_tx, count, payload_bytes)`,
/// which uniquely identifies the batch contents in the simulation.
pub fn digest_batch(batch: &ladon_types::Batch) -> Digest {
    // Only DQBFT's ordering instance carries references; every other
    // batch is 35 bytes and one backend call.
    let mut refs = Vec::with_capacity(batch.refs.len() * 12);
    for &(i, r) in &batch.refs {
        refs.extend_from_slice(&i.to_le_bytes());
        refs.extend_from_slice(&r.to_le_bytes());
    }
    Digest(sha256_parts(&[
        b"ladon/batch",
        &batch.first_tx.0.to_le_bytes(),
        &batch.count.to_le_bytes(),
        &batch.payload_bytes.to_le_bytes(),
        &batch.bucket.to_le_bytes(),
        &refs,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::{Batch, TxId};

    #[test]
    fn digest_batch_is_stable_and_content_sensitive() {
        let mut b = Batch::empty(0);
        b.first_tx = TxId(7);
        b.count = 10;
        b.payload_bytes = 5000;
        let d1 = digest_batch(&b);
        let d2 = digest_batch(&b);
        assert_eq!(d1, d2);
        b.count = 11;
        assert_ne!(digest_batch(&b), d1);
    }

    /// Tags, aggregates and cache keys are protocol bytes: these values
    /// were printed by the commit before the SHA-NI / key-schedule rework
    /// and must never move.
    #[test]
    fn golden_tags_are_pinned() {
        use ladon_types::{Digest, InstanceId, Rank, ReplicaId, Round, View};
        let hex = |d: &[u8]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let reg = KeyRegistry::generate(4, 2, 7);
        let signer = |r: u32| reg.signer(ReplicaId(r));

        let sig = Signature::sign(&signer(2), b"ladon/golden", b"tag bytes must not move");
        assert_eq!(
            hex(&sig.tag),
            "fb54bdd939987bbf9688c4e7aca7b63c25c7d6a18dea6522c5b94d964d4ac328"
        );
        // Sub-key 1, and the longest body that still pads into two blocks.
        let sig = Signature::sign_with_key(&signer(1), 1, b"ladon/golden", &[0xab; 119]);
        assert_eq!(
            hex(&sig.tag),
            "e1afb5190571e568e9569a4d10c48c0ac19be8645a6e3997ba6fe76d5e55c76a"
        );

        let shares: Vec<Signature> = [0, 1, 3]
            .map(|r| Signature::sign(&signer(r), b"ladon/golden", b"quorum"))
            .to_vec();
        let agg = AggregateSignature::aggregate(&shares, 4).unwrap();
        assert!(agg.verify(&reg, b"ladon/golden", b"quorum"));
        assert_eq!(
            hex(&agg.combined),
            "7d965b86434245e71d3995523a31e1a247f3bf5d0ecdd78ae00d6954a1599fee"
        );

        let (view, round, instance, rank) = (View(1), Round(3), InstanceId(2), Rank(9));
        let digest = Digest([7u8; 32]);
        let shares: Vec<Signature> = [0, 1, 3]
            .map(|r| QuorumCert::sign_share(&signer(r), view, round, &digest, instance, rank))
            .to_vec();
        let qc = QuorumCert::from_shares(&shares, 4, view, round, instance, digest, rank).unwrap();
        assert!(qc.verify(&reg, 3));
        assert_eq!(
            hex(&qc.agg.combined),
            "6221e064b41fd9183db6190e5a3ed58dd70b22b522e6d8fcda3661c3cb50c9d7"
        );
        assert_eq!(
            hex(&qc.cache_key()),
            "2119e4fbfd3bcf0755b5150f47418b4b3d27ccf0840f907b3fcc676e54c33394"
        );
    }

    #[test]
    fn digest_bytes_matches_raw_sha256() {
        assert_eq!(digest_bytes(b"abc").0, sha256(b"abc"));
    }
}
