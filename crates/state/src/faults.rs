//! Deterministic, scriptable storage-fault injection.
//!
//! Every durable layer in Ladon reports failure by returning `false`
//! (never by panicking), so a fault campaign is just a [`WalBackend`]
//! that lies about success at scripted points. This module promotes the
//! ad-hoc crash backends that used to live inside individual test files
//! into one reusable, deterministic toolkit:
//!
//! - [`FaultPlan`]: a shared, atomically-scripted schedule of storage
//!   faults — a kill budget (power loss after N mutating ops), ENOSPC
//!   after K bytes (optionally self-healing after a number of denials,
//!   modeling an operator freeing space), a run of fsync failures, a
//!   torn tail on the next append, and seeded random failures. All
//!   knobs are plain atomics behind `Arc`s, so a test or bench holds a
//!   clone of the plan and re-scripts it *while the backend is in use*
//!   — including from the other side of the WAL writer thread.
//! - [`FaultBackend`]: a [`WalBackend`] wrapper that consults the plan
//!   on every mutating operation. Reads always pass through (the bytes
//!   that reached storage are readable; that is what crash recovery
//!   consumes).
//!
//! Determinism contract: with the same plan script and the same
//! operation sequence, the same operations fail — across runs, machines,
//! and worker counts. Nothing here consults wall-clock time or global
//! randomness; the seeded mode uses its own xorshift stream.

use crate::wal::{WalBackend, WalIoStats};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared handle to a scripted fault schedule. Cloning shares the
/// underlying script, so mid-run re-scripting from the driving test is
/// race-free and visible to the backend wherever it runs (inline or on
/// the WAL writer thread).
#[derive(Clone)]
pub struct FaultPlan {
    /// Mutating ops remaining before total storage death. `i64::MAX`
    /// means unlimited. Decremented by **every** mutating op — the exact
    /// kill-budget discipline the crash matrices rely on: op `k` is the
    /// first to fail when the budget starts at `k`.
    budget: Arc<AtomicI64>,
    /// Bytes of append/write capacity left before ENOSPC. `i64::MAX`
    /// means unlimited.
    space_left: Arc<AtomicI64>,
    /// Denied-for-ENOSPC ops after which space is restored (an operator
    /// freeing the disk); 0 = never self-heal.
    heal_after_denials: Arc<AtomicI64>,
    /// ENOSPC denials so far.
    enospc_denials: Arc<AtomicU64>,
    /// `sync_group` calls that fail before fsync recovers.
    fsync_failures: Arc<AtomicI64>,
    /// Repeating fsync cycle: fail `lo` barriers, pass `hi` barriers
    /// (packed `lo << 32 | hi`); 0 disables. Models flaky storage that
    /// flutters between working and broken.
    fsync_cycle: Arc<AtomicU64>,
    /// Position within the fsync cycle.
    fsync_clock: Arc<AtomicU64>,
    /// Tear the next `append_segment_batch`: write only a prefix of the
    /// records and no trailer, then report failure.
    torn_next: Arc<AtomicBool>,
    /// Seeded random-failure stream: xorshift64 state (0 = disabled).
    rng: Arc<AtomicU64>,
    /// Fail probability numerator out of 1000, for the seeded stream.
    fail_per_mille: Arc<AtomicU64>,
    /// Mutating ops observed.
    ops: Arc<AtomicU64>,
    /// Faults injected (ops denied or mangled by the plan).
    injected: Arc<AtomicU64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl FaultPlan {
    /// A plan that injects nothing: every op passes through.
    pub fn unlimited() -> Self {
        FaultPlan {
            budget: Arc::new(AtomicI64::new(i64::MAX)),
            space_left: Arc::new(AtomicI64::new(i64::MAX)),
            heal_after_denials: Arc::new(AtomicI64::new(0)),
            enospc_denials: Arc::new(AtomicU64::new(0)),
            fsync_failures: Arc::new(AtomicI64::new(0)),
            fsync_cycle: Arc::new(AtomicU64::new(0)),
            fsync_clock: Arc::new(AtomicU64::new(0)),
            torn_next: Arc::new(AtomicBool::new(false)),
            rng: Arc::new(AtomicU64::new(0)),
            fail_per_mille: Arc::new(AtomicU64::new(0)),
            ops: Arc::new(AtomicU64::new(0)),
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A plan whose kill budget is the caller's own atomic cell — the
    /// crash-matrix idiom, where the sweep re-arms the budget between
    /// runs with `budget.store(k, SeqCst)` and storage dies mid-run the
    /// moment it hits zero.
    pub fn with_budget(budget: Arc<AtomicI64>) -> Self {
        let plan = Self::unlimited();
        FaultPlan { budget, ..plan }
    }

    /// Seeded random-failure plan: each mutating op fails independently
    /// with probability `per_mille`/1000, drawn from a deterministic
    /// xorshift stream.
    pub fn seeded(seed: u64, per_mille: u64) -> Self {
        let plan = Self::unlimited();
        plan.rng.store(seed.max(1), Ordering::SeqCst);
        plan.fail_per_mille.store(per_mille, Ordering::SeqCst);
        plan
    }

    /// ENOSPC: byte-consuming writes fail once `bytes` of capacity are
    /// used up.
    pub fn enospc_after(self, bytes: i64) -> Self {
        self.space_left.store(bytes, Ordering::SeqCst);
        self
    }

    /// After `denials` operations have been denied for ENOSPC, restore
    /// unlimited space — a deterministic stand-in for an operator
    /// freeing the disk mid-run.
    pub fn heal_enospc_after_denials(self, denials: i64) -> Self {
        self.heal_after_denials.store(denials, Ordering::SeqCst);
        self
    }

    /// Fail the next `k` `sync_group` barriers.
    pub fn fail_fsyncs(self, k: i64) -> Self {
        self.fsync_failures.store(k, Ordering::SeqCst);
        self
    }

    /// Flutter: repeat a cycle of `fail` failing fsync barriers followed
    /// by `pass` succeeding ones.
    pub fn fsync_flutter(self, fail: u32, pass: u32) -> Self {
        self.fsync_cycle
            .store(((fail as u64) << 32) | pass as u64, Ordering::SeqCst);
        self
    }

    /// Tear the next append: a prefix of its records reaches storage
    /// with no closing trailer, and the append reports failure.
    pub fn tear_next_append(self) -> Self {
        self.torn_next.store(true, Ordering::SeqCst);
        self
    }

    /// Restore unlimited space immediately (the operator freed the disk).
    pub fn free_space(&self) {
        self.space_left.store(i64::MAX, Ordering::SeqCst);
    }

    /// Mutating operations the plan has observed.
    pub fn mutating_ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Operations the plan denied or mangled.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn note_injected(&self) {
        self.injected.fetch_add(1, Ordering::SeqCst);
    }

    /// Gate one mutating operation consuming `bytes` of capacity.
    /// Returns `false` when the plan denies it. Always decrements the
    /// kill budget (exact crash-matrix semantics) and always advances
    /// the op counter, whatever else triggers.
    fn permit(&self, bytes: usize) -> bool {
        self.ops.fetch_add(1, Ordering::SeqCst);
        let mut ok = true;
        if self.budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            ok = false;
        }
        if bytes > 0 && !self.take_space(bytes) {
            ok = false;
        }
        if self.random_fault() {
            ok = false;
        }
        if !ok {
            self.note_injected();
        }
        ok
    }

    fn take_space(&self, bytes: usize) -> bool {
        let left = self.space_left.load(Ordering::SeqCst);
        if left == i64::MAX {
            return true;
        }
        if left >= bytes as i64 {
            self.space_left.fetch_sub(bytes as i64, Ordering::SeqCst);
            return true;
        }
        // Denied for ENOSPC; maybe the scripted operator frees space.
        let denials = self.enospc_denials.fetch_add(1, Ordering::SeqCst) + 1;
        let heal = self.heal_after_denials.load(Ordering::SeqCst);
        if heal > 0 && denials as i64 >= heal {
            self.free_space();
        }
        false
    }

    fn random_fault(&self) -> bool {
        let per_mille = self.fail_per_mille.load(Ordering::SeqCst);
        if per_mille == 0 {
            return false;
        }
        // xorshift64 over the shared state; SeqCst CAS keeps the stream
        // deterministic even across the writer thread.
        let mut cur = self.rng.load(Ordering::SeqCst);
        loop {
            let mut x = cur;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match self
                .rng
                .compare_exchange(cur, x, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return x % 1000 < per_mille,
                Err(now) => cur = now,
            }
        }
    }

    /// Gate one fsync barrier: the budget/ENOSPC/random gates apply
    /// (an fsync is a mutating op), plus the fsync-specific scripts.
    fn permit_sync(&self) -> bool {
        let mut ok = self.permit(0);
        if self.fsync_failures.fetch_sub(1, Ordering::SeqCst) > 0 {
            if ok {
                self.note_injected();
            }
            ok = false;
        }
        let cycle = self.fsync_cycle.load(Ordering::SeqCst);
        if cycle != 0 {
            let (fail, pass) = (cycle >> 32, cycle & 0xffff_ffff);
            let at = self.fsync_clock.fetch_add(1, Ordering::SeqCst) % (fail + pass).max(1);
            if at < fail {
                if ok {
                    self.note_injected();
                }
                ok = false;
            }
        }
        ok
    }

    /// Whether the next append should be torn (consumes the flag).
    fn take_torn(&self) -> bool {
        self.torn_next.swap(false, Ordering::SeqCst)
    }
}

/// A [`WalBackend`] that injects the faults scripted in a [`FaultPlan`].
///
/// Mutating operations consult the plan; reads and `io_stats` pass
/// straight through to the inner backend — what reached storage stays
/// readable, which is exactly the contract crash recovery depends on.
pub struct FaultBackend<B: WalBackend> {
    inner: B,
    plan: FaultPlan,
    /// Route barriers through the dedicated WAL writer thread (the
    /// pipelined-durability path) instead of running them inline — the
    /// plan is shared, so faults hit the same op boundaries either way.
    threaded: bool,
}

impl<B: WalBackend> FaultBackend<B> {
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultBackend {
            inner,
            plan,
            threaded: false,
        }
    }

    /// The kill-budget form the crash matrices use: storage silently
    /// fails every mutating op once `budget` hits zero, and the caller
    /// keeps the cell to re-arm (or zero) it mid-run.
    pub fn kill_budget(inner: B, budget: Arc<AtomicI64>, threaded: bool) -> Self {
        FaultBackend {
            inner,
            plan: FaultPlan::with_budget(budget),
            threaded,
        }
    }

    /// Prefer the writer-thread barrier path.
    pub fn threaded(mut self) -> Self {
        self.threaded = true;
        self
    }

    pub fn plan(&self) -> FaultPlan {
        self.plan.clone()
    }
}

impl<B: WalBackend> WalBackend for FaultBackend<B> {
    fn append_segment_batch(
        &mut self,
        group: u32,
        seq: u64,
        records: &[u8],
        trailer: &[u8],
    ) -> bool {
        if self.plan.take_torn() {
            // Torn tail: a prefix of the batch reaches the file, the
            // trailer never does, and the append reports failure — the
            // on-disk stream now ends mid-batch, exactly what a power
            // cut during the write() leaves behind.
            self.plan.note_injected();
            let cut = records.len() / 2;
            self.inner
                .append_segment_batch(group, seq, &records[..cut], &[]);
            return false;
        }
        self.plan.permit(records.len() + trailer.len())
            && self
                .inner
                .append_segment_batch(group, seq, records, trailer)
    }
    fn sync_group(&mut self, group: u32) -> bool {
        // The fsync barrier is a storage op like any other: failing here
        // models a kill after the write() but before the fdatasync() —
        // the staged batch may or may not be on the platter, and the WAL
        // must not acknowledge it.
        self.plan.permit_sync() && self.inner.sync_group(group)
    }
    fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
        self.plan.permit(bytes.len()) && self.inner.write_segment(group, seq, bytes)
    }
    fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
        // Deletes free space rather than consume it.
        self.plan.permit(0) && self.inner.delete_segment(group, seq)
    }
    fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
        self.plan.permit(bytes.len()) && self.inner.publish_manifest(bytes)
    }
    fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
        self.inner.read_segment(group, seq)
    }
    fn load_manifest(&mut self) -> Option<Vec<u8>> {
        self.inner.load_manifest()
    }
    fn list_segments(&mut self) -> Vec<(u32, u64)> {
        self.inner.list_segments()
    }
    fn io_stats(&self) -> WalIoStats {
        self.inner.io_stats()
    }
    fn prefers_writer_thread(&self) -> bool {
        self.threaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{CommitWal, MemBackend, WalOptions, WalRecord};
    use ladon_types::Digest;

    fn rec(sn: u64) -> WalRecord {
        WalRecord {
            sn,
            instance: 0,
            round: sn + 1,
            rank: sn,
            first_tx: sn * 10,
            count: 10,
            bucket: 0,
            payload_bytes: 100,
            payload_digest: Digest([sn as u8; 32]),
        }
    }

    fn wal_with_plan(plan: FaultPlan) -> CommitWal {
        let backend = FaultBackend::new(MemBackend::default(), plan);
        CommitWal::open(
            Box::new(backend),
            WalOptions {
                segment_records: 64,
                ..WalOptions::default()
            },
        )
    }

    #[test]
    fn kill_budget_matches_crash_backend_semantics() {
        // Budget k: exactly the first k mutating ops pass, everything
        // after fails — the op that observes a non-positive budget is
        // denied, and the budget keeps decrementing (no resurrection).
        let budget = Arc::new(AtomicI64::new(2));
        let plan = FaultPlan::with_budget(budget.clone());
        assert!(plan.permit(10));
        assert!(plan.permit(10));
        assert!(!plan.permit(10));
        assert!(!plan.permit(0));
        // Re-arming the shared cell mid-run restores storage.
        budget.store(5, std::sync::atomic::Ordering::SeqCst);
        assert!(plan.permit(0));
    }

    #[test]
    fn enospc_denies_after_capacity_then_heals() {
        let plan = FaultPlan::unlimited()
            .enospc_after(100)
            .heal_enospc_after_denials(3);
        assert!(plan.permit(60));
        assert!(plan.permit(40));
        // Disk is full now; three denials heal it.
        assert!(!plan.permit(10));
        assert!(!plan.permit(10));
        assert!(!plan.permit(10));
        assert!(plan.permit(10));
        assert_eq!(plan.injected_faults(), 3);
    }

    #[test]
    fn fsync_scripts_fail_barriers_only() {
        let plan = FaultPlan::unlimited().fail_fsyncs(2);
        assert!(plan.permit(10), "appends unaffected");
        assert!(!plan.permit_sync());
        assert!(!plan.permit_sync());
        assert!(plan.permit_sync());

        let flutter = FaultPlan::unlimited().fsync_flutter(1, 2);
        let outcomes: Vec<bool> = (0..6).map(|_| flutter.permit_sync()).collect();
        assert_eq!(outcomes, [false, true, true, false, true, true]);
    }

    #[test]
    fn torn_append_raises_wal_alarm_and_recovery_survives() {
        let plan = FaultPlan::unlimited();
        let mut wal = wal_with_plan(plan.clone());
        for sn in 0..4 {
            wal.append(rec(sn));
        }
        assert_eq!(wal.write_failures(), 0);
        let _ = plan.clone().tear_next_append();
        wal.append(rec(4));
        assert_eq!(wal.write_failures(), 1, "torn tail must raise the alarm");
        // Later appends are clean again.
        wal.append(rec(5));
        assert_eq!(wal.write_failures(), 1);
        assert_eq!(plan.injected_faults(), 1);
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let a = FaultPlan::seeded(42, 300);
        let b = FaultPlan::seeded(42, 300);
        let run = |p: &FaultPlan| (0..64).map(|_| p.permit(8)).collect::<Vec<_>>();
        let (ra, rb) = (run(&a), run(&b));
        assert_eq!(ra, rb);
        assert!(ra.iter().any(|ok| !ok), "some ops must fail at 30%");
        assert!(ra.iter().any(|ok| *ok), "some ops must pass at 30%");
    }

    #[test]
    fn wal_through_enospc_plan_alarms_then_recovers_after_heal() {
        let plan = FaultPlan::unlimited()
            .enospc_after(200)
            .heal_enospc_after_denials(2);
        let mut wal = wal_with_plan(plan.clone());
        let mut alarmed = 0u64;
        for sn in 0..16 {
            wal.append(rec(sn));
            alarmed = wal.write_failures();
        }
        assert!(alarmed > 0, "disk-full run must raise durability alarms");
        assert!(
            plan.injected_faults() >= 2,
            "the scripted denials must have fired"
        );
        // Mirror stays authoritative regardless of storage luck.
        assert_eq!(wal.len(), 16);
    }
}
