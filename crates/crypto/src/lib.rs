//! Cryptographic substrate for Ladon.
//!
//! # What is real and what is simulated
//!
//! - [`mod@sha256`]: a complete, from-scratch SHA-256 (FIPS 180-4) used for all
//!   digests. Validated against the standard test vectors.
//! - [`hmac`]: HMAC-SHA-256 (RFC 2104), used as the MAC under the simulated
//!   signature scheme.
//! - [`fnv`]: FNV-1a 64-bit for non-adversarial hot-path hashing.
//! - [`keys`] / [`sig`] / [`agg`]: a *simulated* PKI. A signature is
//!   `HMAC(sk, domain ‖ msg)`; verification goes through a [`keys::KeyRegistry`]
//!   that acts as the trusted PKI oracle. Within the simulation Byzantine
//!   actors never learn other replicas' secret keys, so unforgeability holds
//!   for every adversary the experiments model (see DESIGN.md §5).
//!   Aggregate signatures carry a signer bitmap plus an XOR-combined tag,
//!   mirroring BLS aggregation's interface and size behaviour.
//! - [`qc`]: quorum certificates over `(digest, rank)` pairs, the artifact
//!   Algorithm 2 calls `QC`.
//! - [`counters`]: global operation counters used as the CPU-cost proxy for
//!   Table 1 and the authenticator-complexity analysis of Appendix A.

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
pub use keys::{KeyRegistry, PublicKey, SecretKey};
pub use qc::{QuorumCert, RankCert};
pub use sha256::{sha256, Sha256};
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
    let mut h = Sha256::new();
    h.update(b"ladon/batch");
    h.update(&batch.first_tx.0.to_le_bytes());
    h.update(&batch.count.to_le_bytes());
    h.update(&batch.payload_bytes.to_le_bytes());
    h.update(&batch.bucket.to_le_bytes());
    for &(i, r) in &batch.refs {
        h.update(&i.to_le_bytes());
        h.update(&r.to_le_bytes());
    }
    Digest(h.finalize())
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

    #[test]
    fn digest_bytes_matches_raw_sha256() {
        assert_eq!(digest_bytes(b"abc").0, sha256(b"abc"));
    }
}
