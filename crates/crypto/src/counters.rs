//! Global operation counters: the CPU-cost proxy.
//!
//! The paper's Table 1 reports CPU utilisation measured with `top`; neither
//! system is CPU-bound, and the table's point is the *relative* cost of
//! Ladon vs ISS. We reproduce it by counting cryptographic and message
//! operations and mapping them to CPU-seconds with fixed per-op costs
//! (see `ladon-workload::metrics`). Appendix A's authenticator complexity
//! is measured from the same counters.
//!
//! Counters are thread-local so the deterministic simulator (single thread)
//! and parallel test runs never contend. The flip side: work done on a
//! thread other than the one that reads the counters is never counted.
//! Up to PR 14 the state layer hashed its Merkle leaves on short-lived
//! worker threads for every batch of 1024 ops or more, so the benchmark
//! ledger's `crypto.hashes` on `exec_heavy_n4` read 152 per 4096-tx
//! block there with the leaf hashes missing; since PR 15 execution and
//! folding run on the caller's thread and every hash is counted, which
//! makes that row not comparable across the two.

use std::cell::Cell;

/// A kind of counted operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// One SHA-256 finalization.
    Hash,
    /// One signature creation.
    Sign,
    /// One signature verification.
    Verify,
    /// One aggregate-signature creation (aggregating q partials).
    AggSign,
    /// One aggregate-signature verification (counted O(1), as the paper's
    /// authenticator complexity does).
    AggVerify,
}

thread_local! {
    static HASHES: Cell<u64> = const { Cell::new(0) };
    static SIGNS: Cell<u64> = const { Cell::new(0) };
    static VERIFIES: Cell<u64> = const { Cell::new(0) };
    static AGG_SIGNS: Cell<u64> = const { Cell::new(0) };
    static AGG_VERIFIES: Cell<u64> = const { Cell::new(0) };
    static QC_VERIFY_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Records one verified-certificate cache hit: a `QuorumCert`/`RankCert`
/// whose full verification was skipped because the identical certificate
/// (matched by content digest) already verified on this replica
/// ([`crate::CertCache`]). Not an
/// [`OpKind`] — a hit is work *avoided*, so it contributes nothing to
/// the CPU proxy; the counter exists to make the dedupe observable.
#[inline]
pub fn record_qc_verify_hit() {
    QC_VERIFY_HITS.with(|c| c.set(c.get() + 1));
}

/// Records one operation of the given kind.
#[inline]
pub fn record(kind: OpKind) {
    let cell = match kind {
        OpKind::Hash => &HASHES,
        OpKind::Sign => &SIGNS,
        OpKind::Verify => &VERIFIES,
        OpKind::AggSign => &AGG_SIGNS,
        OpKind::AggVerify => &AGG_VERIFIES,
    };
    cell.with(|c| c.set(c.get() + 1));
}

/// A snapshot of the counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CryptoCounters {
    /// SHA-256 finalizations.
    pub hashes: u64,
    /// Signature creations.
    pub signs: u64,
    /// Signature verifications.
    pub verifies: u64,
    /// Aggregate creations.
    pub agg_signs: u64,
    /// Aggregate verifications.
    pub agg_verifies: u64,
    /// Certificate verifications skipped via the replica's
    /// [`crate::CertCache`] (the same cert carried by multiple messages —
    /// rank reports and votes on every instance, new-view bundles, rank
    /// proofs, sync entries — verifies once).
    pub qc_verify_hits: u64,
}

impl CryptoCounters {
    /// Reads the current thread's counters.
    pub fn snapshot() -> Self {
        Self {
            hashes: HASHES.with(Cell::get),
            signs: SIGNS.with(Cell::get),
            verifies: VERIFIES.with(Cell::get),
            agg_signs: AGG_SIGNS.with(Cell::get),
            agg_verifies: AGG_VERIFIES.with(Cell::get),
            qc_verify_hits: QC_VERIFY_HITS.with(Cell::get),
        }
    }

    /// Resets the current thread's counters to zero.
    pub fn reset() {
        HASHES.with(|c| c.set(0));
        SIGNS.with(|c| c.set(0));
        VERIFIES.with(|c| c.set(0));
        AGG_SIGNS.with(|c| c.set(0));
        AGG_VERIFIES.with(|c| c.set(0));
        QC_VERIFY_HITS.with(|c| c.set(0));
    }

    /// Difference `self - earlier`, for measuring a window.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            hashes: self.hashes - earlier.hashes,
            signs: self.signs - earlier.signs,
            verifies: self.verifies - earlier.verifies,
            agg_signs: self.agg_signs - earlier.agg_signs,
            agg_verifies: self.agg_verifies - earlier.agg_verifies,
            qc_verify_hits: self.qc_verify_hits - earlier.qc_verify_hits,
        }
    }

    /// Total authenticator operations (paper Appendix A: signatures
    /// created + verified, with aggregates counting once).
    pub fn authenticator_ops(&self) -> u64 {
        self.signs + self.verifies + self.agg_signs + self.agg_verifies
    }

    /// CPU-seconds proxy with fixed per-op costs (µs): sign 50, verify 100,
    /// aggregate ops 150, hash 1. The absolute constants only matter up to
    /// the Table-1 comparison being *relative*.
    pub fn cpu_seconds_proxy(&self) -> f64 {
        (self.signs as f64 * 50.0
            + self.verifies as f64 * 100.0
            + (self.agg_signs + self.agg_verifies) as f64 * 150.0
            + self.hashes as f64 * 1.0)
            / 1e6
    }

    /// Total signature verifications (plain + aggregate), the headline
    /// verify cost the cert cache avoids.
    pub fn sig_verifies(&self) -> u64 {
        self.verifies + self.agg_verifies
    }
}

impl ladon_obs::SnapshotInto for CryptoCounters {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("crypto.hashes", self.hashes);
        registry.counter("crypto.signs", self.signs);
        registry.counter("crypto.verifies", self.verifies);
        registry.counter("crypto.agg_signs", self.agg_signs);
        registry.counter("crypto.agg_verifies", self.agg_verifies);
        registry.counter("crypto.qc_verify_hits", self.qc_verify_hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        CryptoCounters::reset();
        record(OpKind::Sign);
        record(OpKind::Sign);
        record(OpKind::Verify);
        record(OpKind::AggSign);
        record(OpKind::AggVerify);
        record(OpKind::Hash);
        record_qc_verify_hit();
        let c = CryptoCounters::snapshot();
        assert_eq!(c.signs, 2);
        assert_eq!(c.verifies, 1);
        assert_eq!(c.agg_signs, 1);
        assert_eq!(c.agg_verifies, 1);
        assert_eq!(c.hashes, 1);
        assert_eq!(c.qc_verify_hits, 1);
        // A cache hit is avoided work: it contributes to neither the
        // authenticator-op count nor the CPU proxy.
        assert_eq!(c.authenticator_ops(), 5);
        assert!(c.cpu_seconds_proxy() > 0.0);
    }

    #[test]
    fn since_window() {
        CryptoCounters::reset();
        record(OpKind::Sign);
        let a = CryptoCounters::snapshot();
        record(OpKind::Sign);
        record(OpKind::Verify);
        let b = CryptoCounters::snapshot();
        let w = b.since(&a);
        assert_eq!(w.signs, 1);
        assert_eq!(w.verifies, 1);
    }
}
