//! The execution pipeline: confirmed blocks in, durable state out.
//!
//! [`ExecutionPipeline`] is the single entry point `ladon-core` feeds.
//! A confirmed block is its [`WalRecord`]: staging a block is
//! [`CommitWal::append_buffered`] and nothing else — the pipeline keeps
//! no copy of its own, so the log's staged records *are* the blocks
//! between confirmation and apply. There is one drain,
//! [`ExecutionPipeline::submit_staged`]: it runs one flush barrier (one
//! write and one fsync, on the draining thread) over everything staged,
//! and applies exactly the records that barrier acknowledged: each
//! record's ops are drawn from its `(first_tx, count)` straight into the
//! KV state's one apply loop ([`KvState::apply_txs`]), with no op value
//! between the draw and the loop. WAL-before-apply, so a crash between
//! the two replays the block on recovery instead of losing it. Everything one
//! barrier acknowledges is one batch, and its ops apply in block order
//! (see [`crate::kv`]).
//! A batch of at least [`POOLED_MIN_OPS`] ops applies as one job on the
//! process-wide executor ([`crate::exec`]), so the draining thread goes
//! back to consensus while another core applies; a smaller one applies
//! inline. A pipeline has at most one job outstanding: its next apply,
//! and every read of its state, settles that job first — the roots, the
//! effects and the snapshots are the ones an inline apply gives. The
//! counts that do not depend on state (`applied`, the transaction
//! totals, `batches`) advance at hand-off. At every epoch
//! checkpoint it folds the lanes' pending writes into their accumulators, captures a
//! [`Snapshot`], compacts the WAL behind it, and returns the snapshot's
//! manifest root — covering the execution position, frontier, and the
//! ordered lane-root vector — which the checkpoint quorum signs.
//! Checkpoint root cost is the accounts changed since the last
//! checkpoint (two leaf hashes each) plus the lanes, not the keyspace:
//! the fold finds them by scanning one mark byte per allocated account,
//! eight at a time.
//!
//! The `exec_lanes` parameter some constructors take is accepted for
//! source compatibility with `benchmark/` and selects nothing.
//!
//! Recovery composes the two artifacts: install the latest snapshot, then
//! re-execute the WAL tail, one record per batch
//! ([`ExecutionPipeline::recover`] → [`ExecutionPipeline::recover_backend`],
//! the one way back from storage). The snapshot's `applied` frontier
//! is handed to the segmented WAL as a *floor*: sealed segments entirely
//! below it are skipped without being read, so replay work is
//! proportional to the dirty tail, not to the total log length — and the
//! tail itself re-executes through the same apply step as live
//! execution. A peer's state comes in one way only,
//! [`ExecutionPipeline::install`]: the head and all 64 chunks of a
//! snapshot, verified whole.
//! [`ReplayStats`] records what recovery touched (segments scanned vs
//! skipped, records replayed). Because execution is
//! deterministic, the recovered root equals the pre-crash root — the
//! crash-recovery example and the WAL-replay property test assert
//! exactly this.

use crate::exec::{self, Job};
use crate::kv::{ExecEffects, KvState};
use crate::snapshot::{Snapshot, SnapshotChunk, SnapshotStore};
use crate::wal::{CommitWal, FileBackend, WalBackend, WalIoStats, WalOptions, WalRecord};
use ladon_obs::SnapshotInto;
use ladon_types::{Block, Digest, TxId};
use std::ops::Deref;
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Acknowledged ops from which a batch applies on the executor rather
/// than inline: one full paper-default block. A hand-off costs a queue
/// push, a worker wake-up and a settle. `engine_micro`'s
/// `exec_handoff_*` rows (four states fed round-robin on two cores, the
/// worker never idle) read pooled 2.2× slower than inline at 32 ops a
/// batch and 0.6× at 1 024 and at 4 096. A run that hands off only in
/// bursts pays more: each burst wakes an idle worker, and what that
/// costs depends on when the worker gets a core. `straggler_n16`'s
/// bursts of 2 993–3 959 ops, pooled, gained nothing resolvable and
/// more than doubled its run-to-run spread, so they apply inline, as
/// every `hotstuff_n16` barrier (at most 255 ops) does; `exec_heavy_n4`'s
/// barriers of at least one full block go.
pub const POOLED_MIN_OPS: u64 = 4096;

/// What [`ExecutionPipeline::execute`] did with a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Applied; `txs` transactions executed.
    Applied {
        /// Transactions the block contributed.
        txs: u64,
    },
    /// Skipped: the block is at or below the applied frontier (it is
    /// already covered by the current state, e.g. after a snapshot
    /// install or a restart).
    Skipped,
    /// Refused: the block is *above* the next expected `sn` — the caller
    /// violated the dense-order contract. Executing it at the wrong
    /// position would silently corrupt the state root, so nothing was
    /// applied; the caller must surface this (it indicates a confirmation
    /// bug or a missed gap after a partial sync).
    Gap {
        /// The `sn` the pipeline expected.
        expected: u64,
    },
}

/// What [`ExecutionPipeline::install`] did with a peer's snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallOutcome {
    /// Verified and installed: the pipeline stands at the snapshot and
    /// holds it as its latest.
    Installed,
    /// Verified but not installed: no longer ahead of the applied
    /// frontier once the staged blocks drained, or it names an account
    /// at or past the keyspace.
    Declined,
    /// Failed [`Snapshot::verify`]; nothing was drained or kept.
    Unverified,
}

/// What the last recovery (rebuild from snapshot + WAL) touched:
/// segment- and record-level load accounting, filled by
/// [`CommitWal::open_with_floor`], plus the two replay counts the
/// pipeline adds. The partial-replay contract in numbers —
/// `records_replayed` tracks the dirty tail, never the total log length.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Segments read and decoded on open.
    pub segments_scanned: u64,
    /// Segments skipped without reading (entirely below the snapshot's
    /// covered floor).
    pub segments_skipped: u64,
    /// Records dropped at load because the snapshot already covered them
    /// (straddling segments keep covered records until compaction).
    pub records_below_floor: u64,
    /// Records dropped from torn/corrupt segment tails (streams that did
    /// not end at a batch-trailer acknowledgement boundary — genuinely
    /// acknowledged loss).
    pub records_torn: u64,
    /// Manifest-counted records missing from segments whose streams end
    /// cleanly at a batch trailer: a never-acknowledged suffix (e.g. a
    /// failed write that already alarmed), distinguished from torn loss
    /// by the trailer.
    pub records_unacked_lost: u64,
    /// Scanned segments whose stream ended exactly at a batch trailer (a
    /// clean end of log).
    pub segments_clean_end: u64,
    /// True when the WAL manifest existed but was undecodable and the
    /// live set was rebuilt by scanning storage (no data lost, but the
    /// segment-skip optimization was unavailable for this open).
    pub manifest_recovered: bool,
    /// WAL-tail records re-executed on top of the snapshot.
    pub records_replayed: u64,
    /// Transactions those records re-executed.
    pub replayed_txs: u64,
}

/// What [`ExecutionPipeline::sched_stats`] returns, in the shape frozen
/// `benchmark/` reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSchedStats {
    /// Batches applied: one per flush barrier, one per replayed record
    /// during recovery.
    pub batches: u64,
    /// Always 0: nothing plans waves. Kept for source compatibility
    /// with frozen `benchmark/`.
    pub waves: u64,
    /// Ops applied — the same number as
    /// [`PipelineStats::locally_executed_txs`].
    pub scheduled_ops: u64,
}

/// Barrier accounting of the execution pipeline, cumulative: the
/// wall-clock split between WAL durability (the write + fsync barrier)
/// and execution (apply_batch), plus the deterministic barrier counters
/// the durability alarms ride on. The `wall_` names mark those fields
/// non-deterministic by the obs convention — they never enter the
/// determinism gates, while the counters do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelinePerf {
    /// Nanoseconds spent inside WAL flush barriers.
    pub wall_wal_flush_ns: u64,
    /// Nanoseconds spent applying acknowledged batches, on whichever
    /// thread applied them: a batch applied on the executor adds its own
    /// timing when its job settles. Applies overlap, so the sum over
    /// pipelines can exceed the wall time they ran in.
    pub wall_exec_ns: u64,
    /// Nanoseconds the draining thread spent in apply steps: applying
    /// inline, or settling the previous job (running queued jobs while
    /// it waits, then blocking) and handing the batch to the executor.
    /// [`Self::wall_exec_ns`] counts apply work wherever it ran; this
    /// counts the draining thread's time, so with
    /// [`Self::wall_wal_flush_ns`] it accounts for a drain's time on
    /// that thread. Every batch inline, the two agree.
    pub wall_drain_apply_ns: u64,
    /// Flush barriers run (denominator for per-barrier means).
    pub flush_barriers: u64,
    /// Flush barriers whose durable step **failed** (deterministic
    /// durability alarm): the batch was still applied — the WAL mirror
    /// stays authoritative — but its range must not be treated as
    /// durable.
    pub wal_flush_failures: u64,
    /// Flush barriers that failed with no intervening success — the
    /// degradation trigger: a node compares this against its
    /// `wal_failure_degrade_threshold` after every drain. Reset by a
    /// successful barrier (or a successful degraded-mode repair), so
    /// isolated hiccups never degrade, while a persistently broken
    /// backend crosses any threshold quickly.
    pub consecutive_flush_failures: u64,
    /// Wall-clock ns of each barrier's write + fsync (per-barrier
    /// samples).
    pub barrier_wait: ladon_obs::Histogram,
}

/// Nanoseconds from `mark` to now, moving `mark` to now.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
    ns
}

impl SnapshotInto for PipelinePerf {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("pipeline.wall_wal_flush_ns", self.wall_wal_flush_ns);
        registry.counter("pipeline.wall_exec_ns", self.wall_exec_ns);
        registry.counter("pipeline.wall_drain_apply_ns", self.wall_drain_apply_ns);
        registry.counter("pipeline.flush_barriers", self.flush_barriers);
        registry.counter("pipeline.wal_flush_failures", self.wal_flush_failures);
        registry.gauge(
            "pipeline.consecutive_flush_failures",
            self.consecutive_flush_failures as f64,
        );
        registry.merge_histogram("pipeline.wall_barrier_wait_ns", &self.barrier_wait);
    }
}

impl SnapshotInto for ReplayStats {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("replay.segments_scanned", self.segments_scanned);
        registry.counter("replay.segments_skipped", self.segments_skipped);
        registry.counter("replay.records_below_floor", self.records_below_floor);
        registry.counter("replay.records_torn", self.records_torn);
        registry.counter("replay.records_unacked_lost", self.records_unacked_lost);
        registry.counter("replay.segments_clean_end", self.segments_clean_end);
        registry.counter("replay.manifest_recovered", self.manifest_recovered as u64);
        registry.counter("replay.records_replayed", self.records_replayed);
        registry.counter("replay.replayed_txs", self.replayed_txs);
    }
}

/// Every counter the execution pipeline owns, copied out at one instant
/// by [`ExecutionPipeline::stats`] — the one value a node keeps and
/// snapshots into the registry. Adding a pipeline counter is a field on
/// the component struct (or here) plus its line in that struct's
/// `SnapshotInto`; nothing downstream copies fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// WAL backend I/O counters.
    pub io: WalIoStats,
    /// Batches applied (see [`ExecSchedStats::batches`]).
    pub batches: u64,
    /// What the last recovery replayed (zeros for a fresh pipeline).
    pub replay: ReplayStats,
    /// Barrier accounting, including the `wal_flush_failures` alarm.
    pub perf: PipelinePerf,
    /// Durable WAL writes (appends, compaction rotations, manifest
    /// publishes) that reported failure. Must stay 0: nonzero means a
    /// crash right now could lose acknowledged records.
    pub wal_write_failures: u64,
    /// Snapshot-store files that failed to read, decode or verify when
    /// the store directory was scanned.
    pub snapshot_decode_failures: u64,
    /// Transactions this process executed itself (live drains plus
    /// recovery replay), excluding totals inherited from a snapshot.
    pub locally_executed_txs: u64,
}

impl SnapshotInto for PipelineStats {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        self.io.snapshot_into(registry);
        registry.counter("exec.batches", self.batches);
        self.replay.snapshot_into(registry);
        self.perf.snapshot_into(registry);
        registry.counter("wal.write_failures", self.wal_write_failures);
        registry.counter(
            "node.snapshot_decode_failures",
            self.snapshot_decode_failures,
        );
        registry.counter("node.executed_txs", self.locally_executed_txs);
    }
}

/// What one batch's apply did, wherever it ran.
struct Applied {
    kv: KvState,
    fx: ExecEffects,
    ns: u64,
}

/// Applies `records`' ops to `kv` in block order, each record's drawn
/// from its `(first_tx, count)` straight into the apply loop
/// ([`KvState::apply_txs`]), timing itself.
fn apply_to(kv: &mut KvState, records: &[WalRecord], keyspace: u32) -> (ExecEffects, u64) {
    let (t0, mut fx) = (Instant::now(), ExecEffects::default());
    for r in records {
        fx.absorb(kv.apply_txs(TxId(r.first_tx), r.count, keyspace));
    }
    (fx, t0.elapsed().as_nanos() as u64)
}

/// The state half of a pipeline: the KV state, or the one job applying
/// a batch to it, and what the settled batches did.
struct Exec {
    /// The state; an empty placeholder while `job` holds it.
    kv: KvState,
    /// The batch applying on the executor, which owns the state until
    /// it settles.
    job: Option<Job<Applied>>,
    /// Cumulative operation effects of the settled batches.
    effects: ExecEffects,
    /// Apply time of the settled batches ([`PipelinePerf::wall_exec_ns`]).
    exec_ns: u64,
}

impl Exec {
    /// Settles the outstanding job, if any, and returns the state. A
    /// job that panicked panics here.
    fn settle(&mut self) -> &mut KvState {
        if let Some(job) = self.job.take() {
            let done = job.wait().unwrap_or_else(|p| resume_unwind(p));
            self.kv = done.kv;
            self.effects.absorb(done.fx);
            self.exec_ns += done.ns;
        }
        &mut self.kv
    }

    /// Applies `records` after the outstanding job: as a job of its own
    /// when `pooled`, else here.
    fn apply(&mut self, records: &[WalRecord], keyspace: u32, pooled: bool) {
        let kv = self.settle();
        if pooled {
            let mut kv = std::mem::take(kv);
            let records = records.to_vec();
            self.job = Some(exec::spawn(move || {
                let (fx, ns) = apply_to(&mut kv, &records, keyspace);
                Applied { kv, fx, ns }
            }));
        } else {
            let (fx, ns) = apply_to(kv, records, keyspace);
            self.effects.absorb(fx);
            self.exec_ns += ns;
        }
    }
}

/// What a pipeline's state lock holds after a job's panic resurfaced
/// through a `&self` read: the state it was applying to is gone.
const POISONED: &str = "a batch applying to this pipeline's state panicked";

/// A settled pipeline's state, borrowed ([`ExecutionPipeline::kv`]).
struct KvGuard<'a>(MutexGuard<'a, Exec>);

impl Deref for KvGuard<'_> {
    type Target = KvState;

    fn deref(&self) -> &KvState {
        &self.0.kv
    }
}

/// The replica's execution pipeline.
pub struct ExecutionPipeline {
    /// The state and the job applying to it. Behind a lock only so
    /// that a `&self` read can settle the job; one thread owns it.
    exec: Mutex<Exec>,
    /// The commit log, and the only place a block lives between its
    /// confirmation and its apply: its staged records are the blocks
    /// staged, neither acknowledged nor applied — WAL-before-apply holds
    /// at batch granularity — and a crash loses exactly them.
    wal: CommitWal,
    store: SnapshotStore,
    /// Confirmed blocks applied so far. Every record the WAL has
    /// acknowledged is applied; staged records follow it densely.
    applied: u64,
    /// Cumulative transactions executed (consensus position: restored
    /// from snapshots, advanced by every applied block).
    executed_txs: u64,
    /// Transactions executed by THIS pipeline's apply path — live
    /// drains plus recovery replay — excluding totals inherited from a
    /// restored or installed snapshot: the per-process work counter.
    local_txs: u64,
    /// Accounts in the derived-op key space.
    keyspace: u32,
    /// Acknowledged ops from which a batch is handed to the executor:
    /// [`POOLED_MIN_OPS`] (tests move it to compare the two paths).
    pooled_min_ops: u64,
    /// Batches applied (live barriers and replayed records).
    batches: u64,
    /// What the last rebuild replayed (all zeros for fresh pipelines).
    recovery: ReplayStats,
    /// Wall-clock split of the flush barrier (see [`PipelinePerf`]).
    perf: PipelinePerf,
}

/// Whether every account a verified `snap` names is below `keyspace`,
/// which bounds what installing it allocates to `keyspace / 4096 + 1`
/// pages. A verified chunk's run ascends, so its last key is its largest.
fn within_keyspace(snap: &Snapshot, keyspace: u32) -> bool {
    let last = |c: &SnapshotChunk| c.entries.last().map(|&(k, _)| k);
    snap.chunks.iter().filter_map(last).all(|k| k < keyspace)
}

impl ExecutionPipeline {
    /// In-memory pipeline (simulation default).
    pub fn in_memory(keyspace: u32) -> Self {
        Self::fresh(CommitWal::in_memory_with(WalOptions::default()), keyspace)
    }

    /// [`Self::in_memory`]; `exec_lanes` has no effect (see the module
    /// docs).
    pub fn in_memory_with(keyspace: u32, _exec_lanes: u32) -> Self {
        Self::in_memory(keyspace)
    }

    /// In-memory pipeline with an explicit WAL segment layout.
    pub fn in_memory_opts(keyspace: u32, wal_opts: WalOptions) -> Self {
        Self::fresh(CommitWal::in_memory_with(wal_opts), keyspace)
    }

    fn fresh(wal: CommitWal, keyspace: u32) -> Self {
        Self {
            exec: Mutex::new(Exec {
                kv: KvState::new(),
                job: None,
                effects: ExecEffects::default(),
                exec_ns: 0,
            }),
            wal,
            store: SnapshotStore::in_memory(),
            applied: 0,
            executed_txs: 0,
            local_txs: 0,
            keyspace,
            pooled_min_ops: POOLED_MIN_OPS,
            batches: 0,
            recovery: ReplayStats::default(),
            perf: PipelinePerf::default(),
        }
    }

    /// Durable pipeline rooted at `dir` (`wal/` segment directory +
    /// `snap-*.bin`), recovering state from whatever the directory
    /// already holds: snapshot install, then WAL-tail replay that skips
    /// snapshot-covered segments without reading them.
    pub fn recover(dir: impl AsRef<Path>, keyspace: u32) -> std::io::Result<Self> {
        // The `exec_lanes` argument is ignored; any value does.
        Self::recover_opts(dir, keyspace, 1, WalOptions::default())
    }

    /// [`Self::recover`] with an explicit WAL segment layout;
    /// `exec_lanes` has no effect (see the module docs).
    pub fn recover_opts(
        dir: impl AsRef<Path>,
        keyspace: u32,
        exec_lanes: u32,
        wal_opts: WalOptions,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let backend = FileBackend::open_dir(dir.join("wal"))?;
        Self::recover_backend(dir, Box::new(backend), keyspace, exec_lanes, wal_opts)
    }

    /// Durable pipeline whose WAL runs over a caller-supplied backend
    /// while snapshots persist under `dir` — the seam fault-injection
    /// tests use to model storage that dies mid-protocol. `exec_lanes`
    /// has no effect (see the module docs).
    pub fn recover_backend(
        dir: impl AsRef<Path>,
        backend: Box<dyn WalBackend>,
        keyspace: u32,
        _exec_lanes: u32,
        wal_opts: WalOptions,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let store = SnapshotStore::at_dir(dir)?;
        Ok(Self::rebuild(backend, wal_opts, store, keyspace))
    }

    /// The one recovery path: installs the store's latest verified
    /// snapshot, opens the WAL in `backend` with the snapshot-covered
    /// floor (so covered segments are skipped unread), and replays the
    /// tail through the live apply step, one record per batch.
    fn rebuild(
        backend: Box<dyn WalBackend>,
        wal_opts: WalOptions,
        store: SnapshotStore,
        keyspace: u32,
    ) -> Self {
        let snap = store
            .latest()
            .filter(|s| within_keyspace(s, keyspace) && s.verify())
            .cloned();
        let floor = snap.as_ref().map_or(0, |s| s.head.applied);
        let mut p = Self::fresh(
            CommitWal::open_with_floor(backend, wal_opts, floor),
            keyspace,
        );
        p.store = store;
        let mut stats = p.wal.load_stats().clone();
        if let Some(snap) = snap {
            p.restore(&snap);
        }
        // The mirror is dense and holds nothing below the floor, so the
        // tail replays exactly when it starts at the applied frontier. A
        // gap there means the artifacts are inconsistent (e.g. the
        // newest snapshot was lost after its compaction): applying
        // misaligned records would produce a silently divergent root, so
        // replay nothing instead — the replica stays at the snapshot
        // frontier and re-fetches the rest from peers.
        let from = p.applied;
        if p.wal.records().first().is_some_and(|r| r.sn == from) {
            let mut mark = Instant::now();
            for at in 0..p.wal.len() {
                p.apply_records(at..at + 1, &mut mark);
            }
        }
        stats.records_replayed = p.applied - from;
        stats.replayed_txs = p.local_txs;
        // A dangling suffix the replay could not reach (its first record
        // sits above the frontier — corruption opened a gap below it) is
        // unreplayable here forever: drop it so the dense-append
        // invariant holds when execution resumes, and so its stale
        // records can never shadow the re-fetched blocks' entries.
        if p.wal.records().last().is_some_and(|l| l.sn >= p.applied) {
            p.wal.truncate_from(p.applied);
        }
        p.recovery = stats;
        p
    }

    /// Adopts a *verified* snapshot's state and execution position: the
    /// state is built from its chunks.
    fn restore(&mut self, snap: &Snapshot) {
        *self.exec_mut().settle() =
            KvState::from_lanes(snap.chunks.iter().map(|c| c.entries.as_slice()));
        self.applied = snap.head.applied;
        self.executed_txs = snap.head.executed_txs;
    }

    /// Executes confirmed block `sn` immediately (stage + drain as a
    /// batch of one). Blocks must arrive in dense global order; anything
    /// at or below the staged/applied frontier is skipped (the snapshot
    /// already covers it), and anything above the next expected `sn` is
    /// refused as a [`ExecOutcome::Gap`] — in release builds too, since
    /// applying it at the wrong position would corrupt the root with no
    /// error signal.
    pub fn execute(&mut self, sn: u64, block: &Block) -> ExecOutcome {
        let out = self.stage_block(sn, block);
        self.submit_staged();
        out
    }

    /// Executes a drained run of confirmed blocks through **one WAL
    /// group-commit barrier**: [`Self::stage_blocks`] followed by
    /// [`Self::submit_staged`].
    ///
    /// Outcomes are index-aligned with `blocks`, with the same per-block
    /// skip/gap discipline as [`Self::execute`] (a gap refuses the block
    /// and everything stays unstaged at its position).
    pub fn execute_batch(&mut self, blocks: &[(u64, Block)]) -> Vec<ExecOutcome> {
        let out = self.stage_blocks(blocks);
        self.submit_staged();
        out
    }

    /// Stages a drained run of confirmed blocks: each applicable block's
    /// WAL record is buffered (no backend I/O) for the next barrier.
    /// Staged blocks are **unacknowledged and unapplied** — a crash
    /// before their barrier returns loses exactly them, and neither
    /// [`Self::applied`] nor the state root moves until it does. Staging
    /// accumulates across calls until the next drain.
    pub fn stage_blocks(&mut self, blocks: &[(u64, Block)]) -> Vec<ExecOutcome> {
        blocks
            .iter()
            .map(|(sn, block)| self.stage_block(*sn, block))
            .collect()
    }

    /// Stages one block (see [`Self::stage_blocks`]): its WAL record is
    /// all the pipeline keeps of it.
    fn stage_block(&mut self, sn: u64, block: &Block) -> ExecOutcome {
        let next = self.next_sn();
        if sn < next {
            return ExecOutcome::Skipped;
        }
        if sn > next {
            return ExecOutcome::Gap { expected: next };
        }
        self.wal.append_buffered(WalRecord::of_block(sn, block));
        ExecOutcome::Applied {
            txs: block.batch.count as u64,
        }
    }

    /// The drain, and the one barrier path: writes everything staged
    /// through **one** WAL flush barrier (one write and one fsync,
    /// however many drains accumulated), then applies exactly the
    /// records that barrier acknowledged as one batch, in block order —
    /// on the executor when the batch holds at least [`POOLED_MIN_OPS`]
    /// ops, here otherwise. WAL-before-apply, at batch granularity: a
    /// crash before the barrier returns loses only unacknowledged
    /// blocks, and recovery replays a batched log identically to a
    /// per-record one (replaying record by record applies the same ops
    /// in the same order). On return nothing is staged.
    ///
    /// Returns the dense `sn` range applied (`start..end`, empty when
    /// nothing was staged) — the node's lifecycle tracer stamps it. The
    /// range is durable only if the barrier succeeded: a failed barrier
    /// still applies its records (the WAL mirror is authoritative) but
    /// raises the deterministic [`PipelinePerf::wal_flush_failures`]
    /// alarm (and the WAL's own `write_failures`), which callers must
    /// consult before treating the range as durable.
    pub fn submit_staged(&mut self) -> std::ops::Range<u64> {
        if self.wal.staged_len() == 0 {
            return self.applied..self.applied;
        }
        let from = self.wal.len();
        let mut mark = Instant::now();
        let ok = self.wal.flush();
        let barrier = lap(&mut mark);
        self.perf.wall_wal_flush_ns += barrier;
        self.perf.barrier_wait.observe(barrier);
        self.perf.flush_barriers += 1;
        if ok {
            self.perf.consecutive_flush_failures = 0;
        } else {
            self.perf.wal_flush_failures += 1;
            self.perf.consecutive_flush_failures += 1;
        }
        self.apply_records(from..self.wal.len(), &mut mark)
    }

    /// Kept for source compatibility with frozen `benchmark/`; no
    /// effect: [`Self::submit_staged`] applies what its own barrier
    /// acknowledged, so no barrier is ever left to complete. Always
    /// `None`.
    pub fn complete_inflight(&mut self) -> Option<std::ops::Range<u64>> {
        None
    }

    /// The one apply step, shared by live barriers and recovery replay:
    /// applies the acknowledged records at mirror positions `at` as one
    /// batch — each record's ops drawn from its `(first_tx, count)`
    /// straight into the state's apply loop, on the executor when the
    /// batch holds at least [`POOLED_MIN_OPS`] ops and a worker exists, here
    /// otherwise — and advances the applied frontier past them. Returns
    /// the `sn` range applied (or handed off: every later read settles
    /// it). The apply times itself ([`PipelinePerf::wall_exec_ns`]); the
    /// step, from `mark` to the reading it ends on, is the draining
    /// thread's ([`PipelinePerf::wall_drain_apply_ns`]).
    fn apply_records(
        &mut self,
        at: std::ops::Range<usize>,
        mark: &mut Instant,
    ) -> std::ops::Range<u64> {
        let first = self.applied;
        let records = &self.wal.records()[at];
        let Some(last) = records.last() else {
            return first..first;
        };
        debug_assert_eq!(records[0].sn, first, "acknowledged records apply densely");
        // An op is a transaction.
        let ops: u64 = records.iter().map(|r| r.count as u64).sum();
        let pooled = ops >= self.pooled_min_ops && exec::workers() > 0;
        let exec = self.exec.get_mut().expect(POISONED);
        exec.apply(records, self.keyspace, pooled);
        self.applied = last.sn + 1;
        self.executed_txs += ops;
        self.local_txs += ops;
        self.batches += 1;
        self.perf.wall_drain_apply_ns += lap(mark);
        first..self.applied
    }

    /// The state half, owned.
    fn exec_mut(&mut self) -> &mut Exec {
        self.exec.get_mut().expect(POISONED)
    }

    /// The state half, its job settled.
    fn settled(&self) -> MutexGuard<'_, Exec> {
        let mut exec = self.exec.lock().expect(POISONED);
        exec.settle();
        exec
    }

    /// Blocks staged but not yet drained. Unacknowledged: a crash right
    /// now loses exactly these.
    pub fn staged_records(&self) -> usize {
        self.wal.staged_len()
    }

    /// The next `sn` the pipeline will accept: the dense-order frontier
    /// over applied and staged blocks.
    pub fn next_sn(&self) -> u64 {
        self.applied + self.wal.staged_len() as u64
    }

    /// Epoch checkpoint: captures a snapshot of the current state, compacts
    /// the WAL behind it, and returns the snapshot's manifest root for the
    /// checkpoint message (it authenticates the snapshot's metadata along
    /// with its contents). Called exactly when the epoch's blocks are all
    /// confirmed. `frontier` must be replica-deterministic (see
    /// [`crate::snapshot::SnapshotHead::frontier`]).
    pub fn checkpoint(&mut self, epoch: u64, frontier: Vec<u64>) -> Digest {
        // Drain whatever is staged first: the snapshot must cover every
        // confirmed block.
        self.submit_staged();
        let (applied, executed_txs) = (self.applied, self.executed_txs);
        let kv = self.exec_mut().settle();
        kv.fold();
        let snap = Snapshot::capture(epoch, applied, executed_txs, frontier, kv);
        let root = snap.head.root;
        // Compact only when the snapshot is durably stored: dropping the
        // WAL prefix a failed snapshot was meant to cover would make the
        // covered blocks unrecoverable after a crash.
        if self.store.put(snap) {
            self.wal.compact(self.applied);
        }
        root
    }

    /// Degraded-mode repair: asks the WAL to rewrite the backend from its
    /// acknowledged mirror ([`CommitWal::repair_backend`]). Staged
    /// blocks are left staged — they reach storage through the caller's
    /// next barrier ([`Self::submit_staged`]), and are applied there.
    /// Returns `true` when the backend fully caught up with the mirror —
    /// every previously alarmed record is durable again,
    /// [`PipelinePerf::consecutive_flush_failures`] resets, and the
    /// caller may drain the staged backlog and resume acknowledging.
    pub fn retry_durability(&mut self) -> bool {
        let ok = self.wal.repair_backend();
        if ok {
            self.perf.consecutive_flush_failures = 0;
        }
        ok
    }

    /// The one way a peer's state gets in: verifies `snap` once — all 64
    /// lanes, in lane order ([`Snapshot::verify`]) — and installs it when
    /// it is ahead of the local applied frontier and names no account
    /// past the keyspace. Nothing of a snapshot that is not installed is
    /// kept. The caller must have authenticated `snap.head` against a
    /// quorum-signed stable checkpoint.
    pub fn install(&mut self, snap: Snapshot) -> InstallOutcome {
        if !snap.verify() {
            return InstallOutcome::Unverified;
        }
        // Staged blocks must settle before the frontier jumps: draining
        // first keeps the WAL's dense-sn invariant (their records are
        // already buffered) and is a no-op when nothing is staged.
        self.submit_staged();
        if snap.head.applied <= self.applied || !within_keyspace(&snap, self.keyspace) {
            return InstallOutcome::Declined;
        }
        self.restore(&snap);
        if self.store.put(snap) {
            self.wal.compact(self.applied);
        }
        InstallOutcome::Installed
    }

    /// Current state root. O([`crate::MERKLE_LANES`]) right after a
    /// checkpoint; otherwise it also hashes the keys written since (see
    /// [`KvState::root`]).
    pub fn state_root(&self) -> Digest {
        self.settled().kv.root()
    }

    /// The ordered lane-root vector of the current state.
    pub fn lane_roots(&self) -> Vec<Digest> {
        self.settled().kv.lane_roots()
    }

    /// Confirmed blocks applied (the first `sn` not yet applied).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Cumulative executed transactions at the consensus position
    /// (includes totals inherited from restored/installed snapshots).
    pub fn executed_txs(&self) -> u64 {
        self.executed_txs
    }

    /// Cumulative operation effects.
    pub fn effects(&self) -> ExecEffects {
        self.settled().effects
    }

    /// The latest checkpoint snapshot, if one has been taken.
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.store.latest()
    }

    /// Snapshot files that failed to read, decode, or verify on the
    /// last disk recovery. Nonzero means a rotted artifact silently
    /// dropped the recovery floor.
    pub fn snapshot_decode_failures(&self) -> u64 {
        self.store.decode_failures()
    }

    /// Records currently in the WAL tail (past the last snapshot).
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }

    /// The WAL's live segment set (manifest mirror) — what a recovery
    /// would scan or skip.
    pub fn wal_segments(&self) -> &[crate::wal::SegmentMeta] {
        self.wal.segments()
    }

    /// Every counter this pipeline owns, as of now (see
    /// [`PipelineStats`]).
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            io: self.wal.io_stats(),
            batches: self.batches,
            replay: self.recovery.clone(),
            perf: self.perf(),
            wal_write_failures: self.wal.write_failures(),
            snapshot_decode_failures: self.store.decode_failures(),
            locally_executed_txs: self.local_txs,
        }
    }

    /// What the last recovery replayed. All zeros for a pipeline that
    /// started fresh.
    pub fn recovery_stats(&self) -> &ReplayStats {
        &self.recovery
    }

    /// Batches and ops applied so far (see [`ExecSchedStats`]).
    pub fn sched_stats(&self) -> ExecSchedStats {
        ExecSchedStats {
            batches: self.batches,
            waves: 0,
            scheduled_ops: self.local_txs,
        }
    }

    /// Failed durable writes (WAL appends/compactions that did not reach
    /// storage). Nonzero means a crash right now could lose the affected
    /// records; the next successful compaction repairs the backend from
    /// the in-memory mirror.
    pub fn wal_write_failures(&self) -> u64 {
        self.wal.write_failures()
    }

    /// The WAL backend's deterministic I/O counters (staged writes,
    /// fsync barriers, segment opens, bytes written) — the group-commit
    /// cost surface.
    pub fn wal_io_stats(&self) -> WalIoStats {
        self.wal.io_stats()
    }

    /// Cumulative barrier accounting: the wall-clock durability/execute
    /// split (`wall_` fields, never part of the determinism gates) plus
    /// the deterministic barrier counters — including
    /// [`PipelinePerf::wal_flush_failures`], the alarm a caller must
    /// check before treating a drained range as durable.
    pub fn perf(&self) -> PipelinePerf {
        let exec = self.exec.lock().expect(POISONED);
        PipelinePerf {
            wall_exec_ns: exec.exec_ns,
            ..self.perf.clone()
        }
    }

    /// Read access to the KV state (assertions and examples), settled.
    /// The guard holds the lock on the pipeline's state until it drops:
    /// drop it before calling any other method on this pipeline, since
    /// a second lock on the same thread may deadlock or panic.
    pub fn kv(&self) -> impl Deref<Target = KvState> + '_ {
        KvGuard(self.settled())
    }
}

impl Drop for ExecutionPipeline {
    /// Settles the outstanding job, so no apply outlives its pipeline.
    /// A job that panicked panics here, unless the thread is already
    /// unwinding.
    fn drop(&mut self) {
        let exec = self.exec.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(job) = exec.job.take() {
            if let Err(p) = job.wait() {
                if !std::thread::panicking() {
                    resume_unwind(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{DEFAULT_KEYSPACE, MERKLE_LANES};
    use crate::snapshot::hex32;
    use crate::wal::tests::SharedMem;
    use ladon_types::{Batch, BlockHeader, Digest, InstanceId, Rank, Round, TimeNs, TxId};

    fn block(sn: u64, first_tx: u64, count: u32) -> Block {
        Block {
            header: BlockHeader {
                index: InstanceId((sn % 4) as u32),
                round: Round(sn / 4 + 1),
                rank: Rank(sn),
                payload_digest: Digest([1; 32]),
            },
            batch: Batch {
                first_tx: TxId(first_tx),
                count,
                payload_bytes: count as u64 * 500,
                arrival_sum_ns: 0,
                bucket: 0,
                refs: Vec::new(),
            },
            proposed_at: TimeNs::ZERO,
        }
    }

    fn run_blocks(p: &mut ExecutionPipeline, from_sn: u64, n: u64) {
        for sn in from_sn..from_sn + n {
            let out = p.execute(sn, &block(sn, sn * 50, 50));
            assert_eq!(out, ExecOutcome::Applied { txs: 50 });
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let mut a = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let mut b = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut a, 0, 20);
        run_blocks(&mut b, 0, 20);
        assert_eq!(a.state_root(), b.state_root());
        assert_eq!(a.executed_txs(), 1000);
        assert!(a.effects().total() >= 1000);
    }

    #[test]
    fn checkpoint_artifacts_are_pinned() {
        // The state root is the one every executor generation produced
        // for this drain (state never moved), applied as one batch. The
        // manifest root and the encoded bytes are format
        // generation 8's: manifest domain v4 (no descriptive covered-sn
        // vector under the signed root), entries stored lane by lane.
        let mut p = ExecutionPipeline::in_memory(512);
        let blocks: Vec<(u64, Block)> = (0..8)
            .map(|sn| (sn, Block::synthetic(sn, sn * 300, 300)))
            .collect();
        p.execute_batch(&blocks);
        assert_eq!(
            p.sched_stats(),
            ExecSchedStats {
                batches: 1,
                waves: 0,
                scheduled_ops: 2400,
            }
        );
        let manifest = p.checkpoint(1, vec![]);
        assert_eq!(
            hex32(&p.state_root()),
            "7ae71d00d402c40a7a9ea6e58c90edcfa3880aa1f1ce27ea28dd783c3ed1b38f"
        );
        assert_eq!(
            hex32(&manifest),
            "eb7b73130fa7b5e9ef0afcc9005cd1a8aa147f233107da16a0cbaa42860e5ab8"
        );
        let bytes = p.latest_snapshot().unwrap().encode();
        assert_eq!(
            hex32(&Digest(ladon_crypto::sha256(&bytes))),
            "66e3b5775e3914201f0f6ada3365788011649091251913995a9dc70fca724c59"
        );
        assert!(Snapshot::decode(&bytes).is_some_and(|s| s.verify()));
    }

    #[test]
    fn checkpoint_leaves_the_state_folded() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 6);
        p.checkpoint(0, Vec::new());
        let before = ladon_crypto::CryptoCounters::snapshot();
        p.state_root();
        let spent = ladon_crypto::CryptoCounters::snapshot().since(&before);
        assert_eq!(spent.hashes, MERKLE_LANES as u64 + 1);
    }

    /// An in-memory pipeline whose WAL storage outlives it.
    fn on_disk(disk: &SharedMem) -> ExecutionPipeline {
        let wal = CommitWal::open(Box::new(disk.clone()), WalOptions::default());
        ExecutionPipeline::fresh(wal, DEFAULT_KEYSPACE)
    }

    /// What a restart of `p` recovers — its latest snapshot plus the WAL
    /// `disk` holds — through the path every recovery takes.
    fn restart(p: &ExecutionPipeline, disk: &SharedMem) -> ExecutionPipeline {
        let mut store = SnapshotStore::in_memory();
        if let Some(snap) = p.latest_snapshot() {
            store.put(snap.clone());
        }
        let backend = Box::new(disk.clone());
        ExecutionPipeline::rebuild(backend, WalOptions::default(), store, DEFAULT_KEYSPACE)
    }

    #[test]
    fn recovery_from_snapshot_and_wal_tail_reproduces_root() {
        let disk = SharedMem::default();
        let mut p = on_disk(&disk);
        run_blocks(&mut p, 0, 12);
        p.checkpoint(0, Vec::new());
        run_blocks(&mut p, 12, 7); // tail past the snapshot
        let recovered = restart(&p, &disk);
        assert_eq!(recovered.recovery_stats().records_replayed, 7);
        assert_eq!(recovered.applied(), p.applied());
        assert_eq!(recovered.executed_txs(), p.executed_txs());
        assert_eq!(recovered.state_root(), p.state_root());
    }

    #[test]
    fn repair_with_a_staged_backlog_acks_each_block_once() {
        // Every step must keep the one lifecycle: nothing acknowledged is
        // left unapplied, the frontier is applied + staged, and a barrier
        // is counted exactly when storage sees an append.
        fn check(p: &ExecutionPipeline, last: &mut (u64, u64), step: &str) {
            assert!(
                p.wal_len() as u64 <= p.applied(),
                "{step}: {} acknowledged, {} applied",
                p.wal_len(),
                p.applied()
            );
            assert_eq!(
                p.applied() + p.staged_records() as u64,
                p.next_sn(),
                "{step}"
            );
            let now = (p.perf().flush_barriers, p.wal_io_stats().appends);
            assert_eq!(
                now.0 != last.0,
                now.1 != last.1,
                "{step}: {last:?} -> {now:?}"
            );
            *last = now;
        }
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let mut last = (0, 0);
        run_blocks(&mut p, 0, 1);
        check(&p, &mut last, "apply 1");
        p.stage_blocks(&[(1, block(1, 50, 50)), (2, block(2, 100, 50))]);
        check(&p, &mut last, "stage 2");
        assert!(p.retry_durability());
        check(&p, &mut last, "repair");
        assert_eq!(
            (p.applied(), p.staged_records()),
            (1, 2),
            "the backlog waits"
        );
        p.submit_staged();
        check(&p, &mut last, "flush");
        assert_eq!(last, (2, 2));
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 3);
        assert_eq!(p.applied(), 3);
        assert_eq!(p.state_root(), reference.state_root());
    }

    #[test]
    fn batched_execution_matches_per_block_execution() {
        let mut per_block = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut per_block, 0, 20);

        let disk = SharedMem::default();
        let mut batched = on_disk(&disk);
        let blocks: Vec<(u64, Block)> = (0..20u64).map(|sn| (sn, block(sn, sn * 50, 50))).collect();
        for chunk in blocks.chunks(7) {
            for out in batched.execute_batch(chunk) {
                assert_eq!(out, ExecOutcome::Applied { txs: 50 });
            }
        }
        assert_eq!(batched.applied(), per_block.applied());
        assert_eq!(batched.executed_txs(), per_block.executed_txs());
        assert_eq!(batched.state_root(), per_block.state_root());
        assert_eq!(batched.lane_roots(), per_block.lane_roots());
        // One drain applies as one batch.
        let (b, pb) = (batched.sched_stats(), per_block.sched_stats());
        assert_eq!((b.batches, pb.batches), (3, 20));
        // And the batched WAL recovers to the identical state.
        let recovered = restart(&batched, &disk);
        assert_eq!(recovered.state_root(), per_block.state_root());
        assert_eq!(recovered.applied(), 20);
    }

    #[test]
    fn batched_execution_skips_and_refuses_like_execute() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 3);
        let root = p.state_root();
        // A batch mixing stale, applicable, and out-of-order blocks: the
        // stale one is skipped, the dense run applies, the gap refuses.
        let batch = vec![
            (1u64, block(1, 50, 50)),  // below the frontier
            (3u64, block(3, 150, 50)), // next expected
            (4u64, block(4, 200, 50)), // dense continuation
            (9u64, block(9, 450, 50)), // gap: 5 was never delivered
        ];
        let out = p.execute_batch(&batch);
        assert_eq!(out[0], ExecOutcome::Skipped);
        assert_eq!(out[1], ExecOutcome::Applied { txs: 50 });
        assert_eq!(out[2], ExecOutcome::Applied { txs: 50 });
        assert_eq!(out[3], ExecOutcome::Gap { expected: 5 });
        assert_eq!(p.applied(), 5);
        assert_ne!(p.state_root(), root, "the dense run must have applied");
        // An all-stale batch is a no-op: nothing staged, nothing flushed.
        let before = p.wal_io_stats();
        let out = p.execute_batch(&[(0, block(0, 0, 50))]);
        assert_eq!(out, vec![ExecOutcome::Skipped]);
        assert_eq!(p.wal_io_stats(), before);
    }

    #[test]
    fn staged_blocks_defer_apply_until_flush() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 2);
        let root_before = p.state_root();
        // Two confirmed-queue drains accumulate without a flush: staged,
        // unacknowledged, unapplied.
        let out = p.stage_blocks(&[(2, block(2, 100, 50)), (3, block(3, 150, 50))]);
        assert_eq!(out, vec![ExecOutcome::Applied { txs: 50 }; 2]);
        p.stage_blocks(&[(4, block(4, 200, 50))]);
        assert_eq!(p.staged_records(), 3);
        assert_eq!(p.next_sn(), 5);
        assert_eq!(p.applied(), 2, "staged blocks must not apply");
        assert_eq!(p.state_root(), root_before);
        assert_eq!(p.wal_len(), 2, "staged records must not be acknowledged");
        // The drain applies everything as one batch.
        p.submit_staged();
        assert_eq!(p.applied(), 5);
        assert_eq!(p.staged_records(), 0);
        assert_eq!(p.wal_len(), 5);
        // Identical to per-block execution.
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 5);
        assert_eq!(p.state_root(), reference.state_root());
        assert_eq!(p.executed_txs(), reference.executed_txs());
    }

    #[test]
    fn file_backed_submit_staged_drain_recovers_like_per_block_execution() {
        let dir = std::env::temp_dir().join(format!("ladon-exec-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = WalOptions {
            segment_records: 64,
            ..WalOptions::default()
        };
        let blocks: Vec<(u64, Block)> = (0..96u64).map(|sn| (sn, block(sn, sn * 50, 50))).collect();
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 96);
        {
            let mut p = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, opts).unwrap();
            for (i, chunk) in blocks.chunks(8).enumerate() {
                p.stage_blocks(chunk);
                let end = 8 * (i as u64 + 1);
                assert_eq!(
                    p.submit_staged(),
                    end - 8..end,
                    "a drain applies its own barrier"
                );
            }
            let perf = p.perf();
            assert_eq!(perf.wal_flush_failures, 0);
            assert_eq!(perf.flush_barriers, 12);
            assert_eq!(p.state_root(), reference.state_root());
        }
        let recovered = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, opts).unwrap();
        assert_eq!(recovered.applied(), 96);
        assert_eq!(recovered.state_root(), reference.state_root());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_drains_staged_blocks_first() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 3);
        p.stage_blocks(&[(3, block(3, 150, 50)), (4, block(4, 200, 50))]);
        let root = p.checkpoint(0, Vec::new());
        assert_eq!(p.applied(), 5, "checkpoint must cover staged blocks");
        assert_eq!(p.staged_records(), 0);
        let snap = p.latest_snapshot().unwrap();
        assert_eq!(snap.head.applied, 5);
        assert_eq!(snap.head.root, root);
        assert_eq!(p.wal_len(), 0, "compaction follows the drained flush");
    }

    #[test]
    fn sched_stats_accumulate_per_flush() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let s0 = p.sched_stats();
        assert_eq!(s0, ExecSchedStats::default());
        // One accumulated two-drain flush = ONE batch.
        p.stage_blocks(&[(0, block(0, 0, 50))]);
        p.stage_blocks(&[(1, block(1, 50, 50))]);
        p.submit_staged();
        let s1 = p.sched_stats();
        assert_eq!(s1.batches, 1, "one flush = one batch");
        assert_eq!(s1.scheduled_ops, 100);
        assert_eq!(s1.scheduled_ops, p.stats().locally_executed_txs);
        assert_eq!(s1.waves, 0);
    }

    #[test]
    fn wal_io_stats_count_group_commit_barriers() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 4);
        let s0 = p.wal_io_stats();
        assert!(s0.fsyncs > 0, "per-record appends must have synced");
        // One 8-block batch: one write and one fsync, independent of the
        // batch size.
        let batch: Vec<(u64, Block)> = (4..12u64).map(|sn| (sn, block(sn, sn * 50, 50))).collect();
        p.execute_batch(&batch);
        let s1 = p.wal_io_stats();
        assert_eq!(s1.appends - s0.appends, 1, "{s0:?} -> {s1:?}");
        assert_eq!(s1.fsyncs - s0.fsyncs, 1, "{s0:?} -> {s1:?}");
        assert!(s1.bytes_written > s0.bytes_written);
    }

    #[test]
    fn checkpoint_compacts_wal() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut p, 0, 10);
        assert_eq!(p.wal_len(), 10);
        let root = p.checkpoint(0, Vec::new());
        assert_eq!(p.wal_len(), 0);
        assert_eq!(p.latest_snapshot().map(|s| s.head.root), Some(root));
        run_blocks(&mut p, 10, 3);
        assert_eq!(p.wal_len(), 3);
    }

    #[test]
    fn stale_blocks_are_skipped_after_snapshot_install() {
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut donor, 0, 16);
        donor.checkpoint(0, Vec::new());
        let snap = donor.latest_snapshot().unwrap().clone();

        let mut lagger = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut lagger, 0, 4);
        assert_eq!(lagger.install(snap), InstallOutcome::Installed);
        assert_eq!(lagger.applied(), 16);
        assert_eq!(lagger.state_root(), donor.state_root());
        // Re-delivered old blocks are skipped idempotently.
        assert_eq!(lagger.execute(5, &block(5, 250, 50)), ExecOutcome::Skipped);
        // Out-of-order future blocks are refused, not misapplied.
        let before = lagger.state_root();
        assert_eq!(
            lagger.execute(20, &block(20, 1000, 50)),
            ExecOutcome::Gap { expected: 16 }
        );
        assert_eq!(
            lagger.state_root(),
            before,
            "a refused block must not touch state"
        );
        assert_eq!(lagger.applied(), 16);
        // And execution continues seamlessly past the installed frontier.
        run_blocks(&mut lagger, 16, 2);
        run_blocks(&mut donor, 16, 2);
        assert_eq!(lagger.state_root(), donor.state_root());
    }

    #[test]
    fn tampered_snapshot_rejected_on_install() {
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut donor, 0, 8);
        donor.checkpoint(0, Vec::new());
        let mut snap = donor.latest_snapshot().unwrap().clone();
        let victim = snap.chunks.iter_mut().find(|c| !c.entries.is_empty());
        victim.expect("a populated lane").entries[0].1 ^= 1;
        let mut lagger = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        assert_eq!(lagger.install(snap), InstallOutcome::Unverified);
        assert_eq!(lagger.applied(), 0);
    }

    #[test]
    fn a_snapshot_installs_only_with_all_its_chunks() {
        // The lagger holds every lane under the head's roots — the donor's
        // last four blocks are empty — but is four blocks behind: an
        // install without chunks must not take its own lanes for the
        // snapshot's.
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut donor, 0, 8);
        for sn in 8..12 {
            donor.execute(sn, &Block::synthetic(sn, sn * 50, 0));
        }
        donor.checkpoint(0, Vec::new());
        let snap = donor.latest_snapshot().unwrap().clone();
        let mut lagger = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut lagger, 0, 8);
        assert_eq!(lagger.lane_roots(), snap.head.lane_roots);
        let before = lagger.state_root();
        let chunkless = Snapshot {
            chunks: Vec::new(),
            ..snap.clone()
        };
        assert_eq!(lagger.install(chunkless), InstallOutcome::Unverified);
        assert_eq!((lagger.applied(), lagger.state_root()), (8, before));
        assert_eq!(lagger.install(snap), InstallOutcome::Installed);
        assert_eq!(lagger.applied(), 12);
        assert_eq!(lagger.state_root(), donor.state_root());
    }

    #[test]
    fn a_snapshot_past_the_keyspace_is_refused_on_install() {
        // The donor's accounts span 0..4096; a pipeline over 0..1024
        // declines its snapshot, from zero and ahead of state of its own,
        // though it verifies.
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut donor, 0, 8);
        donor.checkpoint(0, Vec::new());
        let snap = donor.latest_snapshot().unwrap().clone();
        assert!(snap.verify());
        let mut small = ExecutionPipeline::in_memory(1024);
        assert_eq!(small.install(snap.clone()), InstallOutcome::Declined);
        run_blocks(&mut small, 0, 2);
        let before = small.state_root();
        assert_eq!(small.install(snap.clone()), InstallOutcome::Declined);
        assert_eq!((small.applied(), small.state_root()), (2, before));
        let mut wide = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        assert_eq!(wide.install(snap), InstallOutcome::Installed);
        assert_eq!(wide.state_root(), donor.state_root());
    }

    #[test]
    fn a_snapshot_past_the_keyspace_is_refused_on_recovery() {
        let disk = SharedMem::default();
        let mut p = on_disk(&disk);
        run_blocks(&mut p, 0, 12);
        p.checkpoint(0, Vec::new());
        run_blocks(&mut p, 12, 3);
        assert_eq!(restart(&p, &disk).state_root(), p.state_root());
        let mut store = SnapshotStore::in_memory();
        store.put(p.latest_snapshot().unwrap().clone());
        let backend = Box::new(disk.clone());
        let small = ExecutionPipeline::rebuild(backend, WalOptions::default(), store, 1024);
        assert_eq!(small.applied(), 0, "nothing is restored, nothing replays");
        assert!(small.kv().is_empty());
    }

    /// `n` 4 096-tx blocks from `from_sn`: each barrier of them is
    /// pooled.
    fn big_blocks(from_sn: u64, n: u64) -> Vec<(u64, Block)> {
        (from_sn..from_sn + n)
            .map(|sn| (sn, block(sn, sn * 4096, 4096)))
            .collect()
    }

    /// A pipeline that applies every batch inline.
    fn inline(keyspace: u32) -> ExecutionPipeline {
        let mut p = ExecutionPipeline::in_memory(keyspace);
        p.pooled_min_ops = u64::MAX;
        p
    }

    /// Whether `p` has a job outstanding.
    fn outstanding(p: &ExecutionPipeline) -> bool {
        let exec = p.exec.lock().unwrap_or_else(PoisonError::into_inner);
        exec.job.is_some()
    }

    /// Whether a pooled hand-off leaves a job outstanding on this
    /// platform (on one core every batch applies inline).
    fn pooling() -> bool {
        exec::workers() > 0
    }

    #[test]
    fn pooled_and_inline_execution_agree_at_every_read() {
        let mut pooled = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let mut reference = inline(DEFAULT_KEYSPACE);
        let blocks = big_blocks(0, 24);
        // Each read below runs with a job outstanding, then leaves none.
        type Read = fn(&ExecutionPipeline) -> String;
        let reads: [(&str, Read); 4] = [
            ("state_root", |p| format!("{:?}", p.state_root())),
            ("lane_roots", |p| format!("{:?}", p.lane_roots())),
            ("effects", |p| format!("{:?}", p.effects())),
            ("kv", |p| {
                format!("{:?}", p.kv().entries().collect::<Vec<_>>())
            }),
        ];
        for (i, chunk) in blocks.chunks(2).enumerate() {
            pooled.stage_blocks(chunk);
            reference.stage_blocks(chunk);
            assert_eq!(pooled.submit_staged(), reference.submit_staged());
            let (name, read) = reads[i % reads.len()];
            assert_eq!(outstanding(&pooled), pooling(), "{name} at {i}");
            assert!(!outstanding(&reference), "{name} at {i}");
            assert_eq!(read(&pooled), read(&reference), "{name} at {i}");
            assert!(!outstanding(&pooled), "{name} settled the job");
        }
        // A checkpoint with a job outstanding: the same manifest root and
        // byte-identical snapshots.
        pooled.stage_blocks(&big_blocks(24, 2));
        reference.stage_blocks(&big_blocks(24, 2));
        pooled.submit_staged();
        reference.submit_staged();
        assert_eq!(outstanding(&pooled), pooling());
        assert_eq!(
            pooled.checkpoint(1, vec![7]),
            reference.checkpoint(1, vec![7])
        );
        let snap = |p: &ExecutionPipeline| p.latest_snapshot().unwrap().encode();
        assert_eq!(snap(&pooled), snap(&reference));
        assert_eq!(pooled.effects(), reference.effects());
        assert_eq!(pooled.stats().batches, reference.stats().batches);
        // Every batch inline, the draining thread's apply steps hold the
        // applies; pooled, they hold the settles and hand-offs.
        let perf = reference.perf();
        assert!(perf.wall_drain_apply_ns >= perf.wall_exec_ns);
        assert!(pooled.perf().wall_drain_apply_ns > 0);
        // An install onto a pipeline with a job outstanding, and onto one
        // without: the same result and the same state.
        let snap = pooled.latest_snapshot().unwrap().clone();
        let mut behind = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let mut behind_ref = inline(DEFAULT_KEYSPACE);
        for p in [&mut behind, &mut behind_ref] {
            p.stage_blocks(&big_blocks(0, 3));
            p.submit_staged();
            p.stage_blocks(&big_blocks(3, 1));
            p.submit_staged();
        }
        assert_eq!(outstanding(&behind), pooling());
        let mut half = snap.clone();
        half.chunks.truncate(half.chunks.len() / 2);
        assert_eq!(behind.install(half.clone()), InstallOutcome::Unverified);
        assert_eq!(behind_ref.install(half), InstallOutcome::Unverified);
        assert_eq!(behind.install(snap.clone()), InstallOutcome::Installed);
        assert_eq!(behind_ref.install(snap), InstallOutcome::Installed);
        assert_eq!(behind.state_root(), pooled.state_root());
        assert_eq!(behind.lane_roots(), behind_ref.lane_roots());
        assert_eq!(behind.effects(), behind_ref.effects());
    }

    #[test]
    fn a_batch_below_the_threshold_never_reaches_the_queue() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        // Drains of 32-tx blocks; the largest barrier holds one op fewer
        // than the threshold. A handed-off batch stays outstanding until
        // the next apply or read, and each drain applies one batch, so a
        // check after every drain sees every batch's path.
        let below = POOLED_MIN_OPS - 1;
        p.stage_blocks(&[(0, block(0, 0, 32))]);
        assert_eq!(p.submit_staged(), 0..1);
        assert!(!outstanding(&p));
        p.stage_blocks(&[
            (1, block(1, 32, below as u32 - 32)),
            (2, block(2, below, 32)),
        ]);
        assert_eq!(p.submit_staged(), 1..3);
        assert!(!outstanding(&p));
        // One op more and the barrier is handed off.
        p.stage_blocks(&[(3, block(3, below + 32, POOLED_MIN_OPS as u32))]);
        assert_eq!(p.submit_staged(), 3..4);
        assert_eq!(outstanding(&p), pooling());
    }

    #[test]
    fn at_most_one_job_per_pipeline_is_outstanding() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let blocks = big_blocks(0, 40);
        for (i, b) in blocks.chunks(1).enumerate() {
            p.stage_blocks(b);
            p.submit_staged();
            if !pooling() {
                continue;
            }
            // Barrier i is the one job outstanding; handing it off
            // settled every batch before it, and nothing else.
            assert!(outstanding(&p), "barrier {i}");
            let settled = p.exec.lock().unwrap().effects.total();
            assert_eq!(settled, i as u64 * 4096, "barrier {i}");
        }
        let mut reference = inline(DEFAULT_KEYSPACE);
        reference.execute_batch(&blocks);
        assert_eq!(p.state_root(), reference.state_root());
    }

    #[test]
    fn a_pipeline_dropped_with_a_job_outstanding_does_not_hang() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        p.stage_blocks(&big_blocks(0, 4));
        p.submit_staged();
        p.stage_blocks(&big_blocks(4, 1));
        p.submit_staged();
        assert_eq!(outstanding(&p), pooling());
        drop(p);
        // A job that panics: the drop settles it and the panic resurfaces
        // in the owner instead of hanging it.
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        p.exec_mut().job = Some(exec::spawn(|| -> Applied { panic!("apply failed") }));
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(p)));
        assert!(dropped.is_err(), "the job's panic resurfaces");
        // And so does a read.
        let p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        p.exec.lock().unwrap().job = Some(exec::spawn(|| -> Applied { panic!("apply failed") }));
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.state_root()));
        assert!(read.is_err());
        assert!(!outstanding(&p));
    }

    #[test]
    fn recovery_replay_of_pooled_records_reproduces_the_root() {
        let disk = SharedMem::default();
        let mut p = on_disk(&disk);
        let blocks = big_blocks(0, 12);
        p.execute_batch(&blocks[..5]);
        p.checkpoint(0, Vec::new());
        for b in blocks[5..].chunks(2) {
            p.stage_blocks(b);
            p.submit_staged();
        }
        let recovered = restart(&p, &disk);
        assert_eq!(recovered.recovery_stats().records_replayed, 7);
        // One replayed 4 096-tx record per batch, each handed off: the
        // last is still applying.
        assert_eq!(outstanding(&recovered), pooling());
        let mut reference = inline(DEFAULT_KEYSPACE);
        reference.execute_batch(&blocks);
        assert_eq!(recovered.state_root(), reference.state_root());
        assert_eq!(recovered.lane_roots(), p.lane_roots());
        assert_eq!(recovered.executed_txs(), reference.executed_txs());
    }

    #[test]
    fn many_pipelines_share_the_pool_from_several_threads() {
        // The live runtime's shape: each replica's thread drains its own
        // pipelines, every pipeline hands its barriers to the one pool.
        let blocks = big_blocks(0, 16);
        let mut reference = inline(DEFAULT_KEYSPACE);
        reference.execute_batch(&blocks);
        let expect = reference.state_root();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut ps: Vec<ExecutionPipeline> = (0..3)
                        .map(|_| ExecutionPipeline::in_memory(DEFAULT_KEYSPACE))
                        .collect();
                    for b in blocks.chunks(1) {
                        for p in &mut ps {
                            p.stage_blocks(b);
                            p.submit_staged();
                        }
                    }
                    for p in &ps {
                        assert_eq!(p.state_root(), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn disk_recovery_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ladon-exec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (root, applied) = {
            let mut p = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).unwrap();
            run_blocks(&mut p, 0, 9);
            p.checkpoint(0, Vec::new());
            run_blocks(&mut p, 9, 4);
            (p.state_root(), p.applied())
        };
        let p = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).unwrap();
        assert_eq!(p.applied(), applied);
        assert_eq!(p.state_root(), root);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
