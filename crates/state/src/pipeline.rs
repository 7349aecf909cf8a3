//! The execution pipeline: confirmed blocks in, durable state out.
//!
//! [`ExecutionPipeline`] is the single entry point `ladon-core` feeds.
//! A confirmed block is its [`WalRecord`]: staging a block is
//! [`CommitWal::append_buffered`] and nothing else — the pipeline keeps
//! no copy of its own, so the log's staged and in-flight records *are*
//! the blocks between confirmation and apply. A record is acknowledged
//! only by a flush barrier the pipeline submitted, and the call that
//! acknowledges it applies it: the record's ops, derived from its
//! `(first_tx, count)`, stream into the sharded KV state —
//! WAL-before-apply, so a crash between the two replays the block on
//! recovery instead of losing it. Ops apply in block order on the
//! calling thread (see [`crate::kv`]); everything one barrier
//! acknowledges is one batch, described by one batch-wide wave plan
//! whose counters [`ExecSchedStats`] accumulates. At every epoch
//! checkpoint it folds the lanes' pending writes into their accumulators, captures a
//! [`Snapshot`], compacts the WAL behind it, and returns the snapshot's
//! manifest root — covering the execution position, frontier, and the
//! ordered lane-root vector — which the checkpoint quorum signs.
//! Checkpoint root cost is O(keys written since the last checkpoint +
//! lanes), not O(keyspace).
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
//! [`ExecutionPipeline::install_delta`].
//! [`ReplayStats`] records what recovery touched (segments scanned vs
//! skipped, records replayed). Because execution is
//! deterministic, the recovered root equals the pre-crash root — the
//! crash-recovery example and the WAL-replay property test assert
//! exactly this.

use crate::kv::{BatchOutcome, ExecEffects, KvState};
use crate::snapshot::{Snapshot, SnapshotChunk, SnapshotHead, SnapshotStore};
use crate::wal::{
    CommitWal, FileBackend, WalBackend, WalIoStats, WalLoadStats, WalOptions, WalRecord,
};
use ladon_obs::SnapshotInto;
use ladon_types::{Block, Digest};
use std::path::Path;

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

/// What the last recovery (rebuild from snapshot + WAL) touched:
/// segment-level skip accounting from the storage layer plus
/// record-level replay accounting from the pipeline. The partial-replay
/// contract in numbers — `records_replayed` tracks the dirty tail, never
/// the total log length.
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

impl ReplayStats {
    fn from_load(load: WalLoadStats) -> Self {
        Self {
            segments_scanned: load.segments_scanned,
            segments_skipped: load.segments_skipped,
            records_below_floor: load.records_below_floor,
            records_torn: load.records_torn,
            records_unacked_lost: load.records_unacked_lost,
            segments_clean_end: load.segments_clean_end,
            manifest_recovered: load.manifest_recovered,
            ..Self::default()
        }
    }
}

/// Cumulative wave-plan accounting across every batch the pipeline
/// executed (live drains and recovery replay alike) — the dependency
/// structure of the executed batches. All counts are deterministic: the
/// plan is a pure function of the ops' static lane access sets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSchedStats {
    /// Batches planned (one per completed flush barrier, one per
    /// replayed record during recovery).
    pub batches: u64,
    /// Topological waves planned, summed over batches.
    pub waves: u64,
    /// Ops planned, summed over batches (`scheduled_ops / waves` is the
    /// mean lane-level parallelism per wave).
    pub scheduled_ops: u64,
    /// Cross-lane dependency edges observed (see
    /// [`crate::kv::BatchOutcome::cross_lane_edges`]).
    pub cross_lane_edges: u64,
    /// Ops in the fullest single wave seen.
    pub max_wave_ops: u32,
}

/// Barrier accounting of the execution pipeline, cumulative: the
/// wall-clock split between WAL durability (fsync-barrier wait) and
/// execution (apply_batch), plus the deterministic barrier counters the
/// durability alarms and the pipelining gates ride on. The `wall_`
/// names mark those fields non-deterministic by the obs convention —
/// they never enter the determinism gates, while the counters do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelinePerf {
    /// Nanoseconds spent inside WAL flush barriers (submit + token
    /// wait).
    pub wall_wal_flush_ns: u64,
    /// Nanoseconds spent executing staged ops.
    pub wall_exec_ns: u64,
    /// Flush barriers submitted (denominator for per-barrier means).
    pub flush_barriers: u64,
    /// Flush barriers whose durable step **failed** (deterministic
    /// durability alarm): the batch was still applied — the WAL mirror
    /// stays authoritative — but its range must not be treated as
    /// durable. Previously this outcome was swallowed inside
    /// `flush_staged`.
    pub wal_flush_failures: u64,
    /// Flush barriers that failed with no intervening success — the
    /// degradation trigger: a node compares this against its
    /// `wal_failure_degrade_threshold` after every drain. Reset by a
    /// successful barrier (or a successful degraded-mode repair), so
    /// isolated hiccups never degrade, while a persistently broken
    /// backend crosses any threshold quickly.
    pub consecutive_flush_failures: u64,
    /// Barriers submitted while the previous barrier was still in
    /// flight — each one is a genuine write/execute overlap window
    /// (deterministic: the submit/complete structure is identical in
    /// pipelined and inline modes).
    pub pipelined_submits: u64,
    /// Peak records inside one in-flight barrier (deterministic;
    /// snapshots as a max-merged gauge).
    pub inflight_records_peak: u64,
    /// Wall-clock ns blocked resolving a barrier token at complete time
    /// (per-barrier samples).
    pub barrier_wait: ladon_obs::Histogram,
    /// Wall-clock ns each barrier spent in flight before its completion
    /// began — the window overlapped with staging/execution.
    pub barrier_overlap: ladon_obs::Histogram,
}

impl SnapshotInto for PipelinePerf {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("pipeline.wall_wal_flush_ns", self.wall_wal_flush_ns);
        registry.counter("pipeline.wall_exec_ns", self.wall_exec_ns);
        registry.counter("pipeline.flush_barriers", self.flush_barriers);
        registry.counter("pipeline.wal_flush_failures", self.wal_flush_failures);
        registry.counter("pipeline.pipelined_submits", self.pipelined_submits);
        registry.gauge(
            "pipeline.consecutive_flush_failures",
            self.consecutive_flush_failures as f64,
        );
        registry.gauge(
            "pipeline.inflight_records_peak",
            self.inflight_records_peak as f64,
        );
        registry.merge_histogram("pipeline.wall_barrier_wait_ns", &self.barrier_wait);
        registry.merge_histogram("pipeline.wall_barrier_overlap_ns", &self.barrier_overlap);
    }
}

impl SnapshotInto for ExecSchedStats {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("exec.batches", self.batches);
        registry.counter("exec.waves", self.waves);
        registry.counter("exec.scheduled_ops", self.scheduled_ops);
        registry.counter("exec.cross_lane_edges", self.cross_lane_edges);
        registry.gauge("exec.max_wave_ops", self.max_wave_ops as f64);
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
    /// Wave-plan accounting.
    pub sched: ExecSchedStats,
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
        self.sched.snapshot_into(registry);
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

/// The replica's execution pipeline.
pub struct ExecutionPipeline {
    kv: KvState,
    /// The commit log, and the only place a block lives between its
    /// confirmation and its apply: its staged records are the blocks
    /// staged, its in-flight barrier's records the blocks submitted.
    /// Neither is acknowledged nor applied — WAL-before-apply holds at
    /// batch granularity — and a crash loses exactly them.
    wal: CommitWal,
    store: SnapshotStore,
    /// Confirmed blocks applied so far. Every record the WAL has
    /// acknowledged is applied; in-flight and staged records follow it
    /// densely.
    applied: u64,
    /// Cumulative transactions executed (consensus position: restored
    /// from snapshots, advanced by every applied block).
    executed_txs: u64,
    /// Transactions executed by THIS pipeline's apply path — live
    /// drains plus recovery replay — excluding totals inherited from a
    /// restored or installed snapshot: the per-process work counter.
    local_txs: u64,
    /// Cumulative operation effects.
    effects: ExecEffects,
    /// Accounts in the derived-op key space.
    keyspace: u32,
    /// Cumulative wave-plan accounting.
    sched: ExecSchedStats,
    /// What the last rebuild replayed (all zeros for fresh pipelines).
    recovery: ReplayStats,
    /// Wall-clock split of the flush barrier (see [`PipelinePerf`]).
    perf: PipelinePerf,
    /// When the last barrier was submitted (feeds the overlap
    /// histogram).
    submitted_at: std::time::Instant,
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

    /// In-memory pipeline with an explicit WAL segment layout;
    /// `exec_lanes` has no effect (see the module docs).
    pub fn in_memory_opts(keyspace: u32, _exec_lanes: u32, wal_opts: WalOptions) -> Self {
        Self::fresh(CommitWal::in_memory_with(wal_opts), keyspace)
    }

    fn fresh(wal: CommitWal, keyspace: u32) -> Self {
        Self {
            kv: KvState::new(),
            wal,
            store: SnapshotStore::in_memory(),
            applied: 0,
            executed_txs: 0,
            local_txs: 0,
            effects: ExecEffects::default(),
            keyspace,
            sched: ExecSchedStats::default(),
            recovery: ReplayStats::default(),
            perf: PipelinePerf::default(),
            submitted_at: std::time::Instant::now(),
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
        let snap = store.latest().cloned().filter(Snapshot::verify);
        let floor = snap.as_ref().map_or(0, |s| s.head.applied);
        let mut p = Self::fresh(
            CommitWal::open_with_floor(backend, wal_opts, floor),
            keyspace,
        );
        p.store = store;
        let mut stats = ReplayStats::from_load(p.wal.load_stats());
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
            for at in 0..p.wal.len() {
                p.apply_records(at..at + 1);
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

    /// Adopts a *verified* snapshot's state and execution position: each
    /// lane map is built from its chunk.
    fn restore(&mut self, snap: &Snapshot) {
        self.kv = KvState::from_lanes(snap.chunks.iter().map(|c| c.entries.as_slice()));
        self.applied = snap.head.applied;
        self.executed_txs = snap.head.executed_txs;
    }

    /// Executes confirmed block `sn` immediately (stage + flush as a
    /// batch of one). Blocks must arrive in dense global order; anything
    /// at or below the staged/applied frontier is skipped (the snapshot
    /// already covers it), and anything above the next expected `sn` is
    /// refused as a [`ExecOutcome::Gap`] — in release builds too, since
    /// applying it at the wrong position would corrupt the root with no
    /// error signal.
    pub fn execute(&mut self, sn: u64, block: &Block) -> ExecOutcome {
        let out = self.stage_block(sn, block);
        self.flush_staged();
        out
    }

    /// Executes a drained run of confirmed blocks through **one WAL
    /// group-commit barrier**: [`Self::stage_blocks`] followed by
    /// [`Self::flush_staged`].
    ///
    /// Outcomes are index-aligned with `blocks`, with the same per-block
    /// skip/gap discipline as [`Self::execute`] (a gap refuses the block
    /// and everything stays unstaged at its position).
    pub fn execute_batch(&mut self, blocks: &[(u64, Block)]) -> Vec<ExecOutcome> {
        let out = self.stage_blocks(blocks);
        self.flush_staged();
        out
    }

    /// Stages a drained run of confirmed blocks: each applicable block's
    /// WAL record is buffered (no backend I/O) for the next barrier.
    /// Staged blocks are **unacknowledged and unapplied** — a crash
    /// before their barrier completes loses exactly them, and neither
    /// [`Self::applied`] nor the state root moves until it does. Staging
    /// accumulates across calls until a barrier is submitted.
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

    /// The **synchronous** durability + apply barrier for everything in
    /// the pipeline: resolves any in-flight barrier (applying its
    /// batch), then submits and completes everything staged — so on
    /// return nothing is staged or in flight and every returned `sn` is
    /// applied. One WAL flush barrier per submitted batch (one write and
    /// one fsync, however many drains accumulated), then the
    /// batch's ops apply in block order. WAL-before-apply, preserved at
    /// batch granularity: a
    /// crash before a batch's barrier completes loses only
    /// unacknowledged blocks, and recovery replays a batched log
    /// byte-identically to a per-record one (replaying record by record
    /// applies the same ops in the same order).
    ///
    /// Returns the dense `sn` range drained and applied (`start..end`,
    /// empty when nothing was pending) — the node's lifecycle tracer
    /// uses it to stamp per-block `Flushed`/`Applied` events without
    /// re-deriving the set. The range is durable only if no barrier
    /// reported failure: a failed barrier raises the deterministic
    /// [`PipelinePerf::wal_flush_failures`] alarm (and the WAL's own
    /// `write_failures`), and callers must consult it before treating
    /// the range as durable.
    pub fn flush_staged(&mut self) -> std::ops::Range<u64> {
        let first = self.applied;
        self.complete_inflight();
        if self.submit_barrier() {
            self.complete_inflight();
        }
        first..self.applied
    }

    /// The **pipelined** drain: hands everything staged to the WAL
    /// writer as one flush barrier and applies the *previous* submitted
    /// batch, so batch N's write+fsync proceeds on the writer while this
    /// thread applies batch N-1 (and stages batch N+1 into double-buffered
    /// scratch). Acknowledgement and apply happen only
    /// when a batch's barrier token resolves — WAL-before-apply holds at
    /// batch granularity, in submission order.
    ///
    /// Returns the applied range (the *previous* batch's; empty on the
    /// first submit). In simulation (in-memory WAL) the barrier runs
    /// inline at submit but resolves here all the same, so the
    /// submit/apply structure — and every deterministic counter — is
    /// identical to File mode. Barrier failures raise
    /// [`PipelinePerf::wal_flush_failures`] exactly as in
    /// [`Self::flush_staged`].
    pub fn submit_staged(&mut self) -> std::ops::Range<u64> {
        // Resolve the previous token first (the writer is one-deep), but
        // apply only after the new batch is on the writer: the apply is
        // the work the in-flight barrier overlaps with.
        let prior = self.resolve_barrier();
        let submitted = self.submit_barrier();
        if prior.is_some() && submitted {
            self.perf.pipelined_submits += 1;
        }
        match prior {
            Some(acked) => self.apply_records(acked),
            None => self.applied..self.applied,
        }
    }

    /// Resolves the in-flight barrier (if any) and applies its batch.
    /// Returns the applied range, or `None` when nothing was in flight.
    pub fn complete_inflight(&mut self) -> Option<std::ops::Range<u64>> {
        let acked = self.resolve_barrier()?;
        Some(self.apply_records(acked))
    }

    /// Submits everything staged as one WAL flush barrier (no barrier
    /// may be in flight). Returns `false` when nothing was staged.
    fn submit_barrier(&mut self) -> bool {
        let records = self.wal.staged_len() as u64;
        let t0 = std::time::Instant::now();
        if !self.wal.submit_flush() {
            return false;
        }
        self.perf.wall_wal_flush_ns += t0.elapsed().as_nanos() as u64;
        self.perf.flush_barriers += 1;
        self.perf.inflight_records_peak = self.perf.inflight_records_peak.max(records);
        self.submitted_at = std::time::Instant::now();
        true
    }

    /// Waits out the in-flight barrier token and accounts its outcome:
    /// `false` raises the deterministic failure alarm, so no caller can
    /// mistake the batch for durable — its records still apply (the WAL
    /// mirror is authoritative). Returns the mirror positions of the
    /// records the barrier acknowledged; does **not** apply them.
    fn resolve_barrier(&mut self) -> Option<std::ops::Range<usize>> {
        if !self.wal.has_inflight_flush() {
            return None;
        }
        self.perf
            .barrier_overlap
            .observe(self.submitted_at.elapsed().as_nanos() as u64);
        let from = self.wal.len();
        let t0 = std::time::Instant::now();
        let ok = self.wal.complete_flush()?;
        let wait = t0.elapsed().as_nanos() as u64;
        self.perf.wall_wal_flush_ns += wait;
        self.perf.barrier_wait.observe(wait);
        if ok {
            self.perf.consecutive_flush_failures = 0;
        } else {
            self.perf.wal_flush_failures += 1;
            self.perf.consecutive_flush_failures += 1;
        }
        Some(from..self.wal.len())
    }

    /// The one apply step, shared by live barriers and recovery replay:
    /// applies the acknowledged records at mirror positions `at` as one
    /// batch — each record's ops derived from its `(first_tx, count)`
    /// and streamed into the state — and advances the applied frontier
    /// past them. Returns the `sn` range applied.
    fn apply_records(&mut self, at: std::ops::Range<usize>) -> std::ops::Range<u64> {
        let first = self.applied;
        let records = &self.wal.records()[at];
        let Some(last) = records.last() else {
            return first..first;
        };
        debug_assert_eq!(records[0].sn, first, "acknowledged records apply densely");
        let keyspace = self.keyspace;
        let t0 = std::time::Instant::now();
        let out = self
            .kv
            .apply_batch(records.iter().flat_map(|r| r.ops(keyspace)));
        self.applied = last.sn + 1;
        self.absorb_outcome(&out);
        self.perf.wall_exec_ns += t0.elapsed().as_nanos() as u64;
        first..self.applied
    }

    /// Blocks staged but not yet submitted. Unacknowledged: a crash
    /// right now loses exactly these (plus any in-flight batch).
    pub fn staged_records(&self) -> usize {
        self.wal.staged_len()
    }

    /// Blocks submitted to the WAL writer whose barrier token has not
    /// resolved — unacknowledged and unapplied.
    pub fn inflight_records(&self) -> usize {
        self.wal.inflight_len()
    }

    /// The next `sn` the pipeline will accept: the dense-order frontier
    /// over applied, in-flight and staged blocks.
    pub fn next_sn(&self) -> u64 {
        self.applied + (self.wal.inflight_len() + self.wal.staged_len()) as u64
    }

    /// Folds a batch outcome into the cumulative effect, transaction and
    /// wave-plan accounting (an op is a transaction).
    fn absorb_outcome(&mut self, out: &BatchOutcome) {
        self.effects.absorb(out.effects);
        self.executed_txs += out.effects.total();
        self.local_txs += out.effects.total();
        self.sched.batches += 1;
        self.sched.waves += out.waves as u64;
        self.sched.scheduled_ops += out.effects.total();
        self.sched.cross_lane_edges += out.cross_lane_edges;
        self.sched.max_wave_ops = self.sched.max_wave_ops.max(out.max_wave_ops);
    }

    /// Epoch checkpoint: captures a snapshot of the current state, compacts
    /// the WAL behind it, and returns the snapshot's manifest root for the
    /// checkpoint message (it authenticates the snapshot's metadata along
    /// with its contents). Called exactly when the epoch's blocks are all
    /// confirmed. `frontier` must be replica-deterministic — pass an empty
    /// vector when it is not (state-only snapshot, see
    /// [`crate::snapshot::SnapshotHead::frontier`]).
    pub fn checkpoint(&mut self, epoch: u64, frontier: Vec<u64>) -> Digest {
        // Drain whatever is staged or in flight first: the snapshot must
        // cover every confirmed block.
        self.flush_staged();
        self.kv.fold();
        let snap = Snapshot::capture(epoch, self.applied, self.executed_txs, frontier, &self.kv);
        let root = snap.head.root;
        // Compact only when the snapshot is durably stored: dropping the
        // WAL prefix a failed snapshot was meant to cover would make the
        // covered blocks unrecoverable after a crash.
        if self.store.put(snap) {
            self.wal.compact(self.applied);
        }
        root
    }

    /// Degraded-mode repair: resolves (and applies) any in-flight
    /// barrier, then asks the WAL to rewrite the backend from its
    /// acknowledged mirror ([`CommitWal::repair_backend`]). Staged
    /// blocks are left staged — they reach storage through the caller's
    /// next barrier ([`Self::flush_staged`]), and are applied there.
    /// Returns `true` when the backend fully caught up with the mirror —
    /// every previously alarmed record is durable again,
    /// [`PipelinePerf::consecutive_flush_failures`] resets, and the
    /// caller may drain the staged backlog and resume acknowledging.
    pub fn retry_durability(&mut self) -> bool {
        self.complete_inflight();
        let ok = self.wal.repair_backend();
        if ok {
            self.perf.consecutive_flush_failures = 0;
        }
        ok
    }

    /// The delta install, and the one way a peer's state gets in:
    /// assembles `head`'s snapshot from `chunks` (looked up by lane root)
    /// plus the lanes the local state already holds under the head's
    /// roots ([`Snapshot::assemble`]), and installs it when it is ahead
    /// of the local applied frontier. Returns how many lanes came from
    /// local state, or `None` when nothing was installed — a lane is
    /// missing, the assembled snapshot fails [`Snapshot::verify`], or it
    /// is not ahead — in which case nothing of `chunks` is kept. The
    /// caller must have authenticated `head` against a quorum-signed
    /// stable checkpoint.
    pub fn install_delta(&mut self, head: &SnapshotHead, chunks: &[SnapshotChunk]) -> Option<u64> {
        let fetched = |root: &Digest| chunks.iter().find(|c| c.root == *root);
        let (snap, reused) = Snapshot::assemble(head.clone(), fetched, &self.kv)?;
        self.install_snapshot(&snap).then_some(reused)
    }

    /// Installs a snapshot when it verifies and is ahead of the local
    /// applied frontier. Returns `true` when state advanced.
    fn install_snapshot(&mut self, snap: &Snapshot) -> bool {
        // Staged blocks must settle before the frontier jumps: flushing
        // first keeps the WAL's dense-sn invariant (their records are
        // already buffered) and is a no-op when nothing is staged.
        self.flush_staged();
        if snap.head.applied <= self.applied || !snap.verify() {
            return false;
        }
        self.restore(snap);
        if self.store.put(snap.clone()) {
            self.wal.compact(self.applied);
        }
        true
    }

    /// Current state root. O([`crate::MERKLE_LANES`]) right after a
    /// checkpoint; otherwise it also hashes the keys written since (see
    /// [`KvState::root`]).
    pub fn state_root(&self) -> Digest {
        self.kv.root()
    }

    /// The ordered lane-root vector of the current state.
    pub fn lane_roots(&self) -> Vec<Digest> {
        self.kv.lane_roots()
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
        self.effects
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
            sched: self.sched,
            replay: self.recovery.clone(),
            perf: self.perf.clone(),
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

    /// Cumulative wave-plan accounting across every executed batch
    /// (waves, ops, cross-lane dependency edges) — deterministic.
    pub fn sched_stats(&self) -> ExecSchedStats {
        self.sched
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
        self.perf.clone()
    }

    /// Read access to the KV state (assertions and examples).
    pub fn kv(&self) -> &KvState {
        &self.kv
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
                earliest_arrival: TimeNs::ZERO,
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
        // The wave-plan counters and the state root are the ones every
        // executor generation produced for this drain (state never
        // moved). The manifest root and the encoded bytes are format
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
                waves: 126,
                scheduled_ops: 2400,
                cross_lane_edges: 1264,
                max_wave_ops: 36,
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
        // left unapplied, the frontier is applied + in flight + staged,
        // and a barrier is counted exactly when storage sees an append.
        fn check(p: &ExecutionPipeline, last: &mut (u64, u64), step: &str) {
            assert!(
                p.wal_len() as u64 <= p.applied(),
                "{step}: {} acknowledged, {} applied",
                p.wal_len(),
                p.applied()
            );
            let pending = (p.inflight_records() + p.staged_records()) as u64;
            assert_eq!(p.applied() + pending, p.next_sn(), "{step}");
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
        p.flush_staged();
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
        // One drain plans as one batch-wide DAG, in which independent
        // blocks share waves.
        let (b, pb) = (batched.sched_stats(), per_block.sched_stats());
        assert_eq!((b.batches, pb.batches), (3, 20));
        assert!(b.waves <= pb.waves, "{b:?} vs {pb:?}");
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
        // The flush applies everything as one batch-wide DAG.
        p.flush_staged();
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
    fn submit_staged_applies_one_barrier_late() {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        // Batch A submits; nothing applies (its barrier is in flight).
        p.stage_blocks(&[(0, block(0, 0, 50)), (1, block(1, 50, 50))]);
        let r = p.submit_staged();
        assert!(r.is_empty());
        assert_eq!(p.applied(), 0, "apply waits for the barrier token");
        assert_eq!(p.inflight_records(), 2);
        assert_eq!(p.staged_records(), 0);
        assert_eq!(p.wal_len(), 0, "in-flight records are unacknowledged");
        assert_eq!(p.next_sn(), 2, "the frontier covers the in-flight batch");
        // Batch B submits; batch A's token resolves and A applies.
        p.stage_blocks(&[(2, block(2, 100, 50))]);
        let r = p.submit_staged();
        assert_eq!(r, 0..2);
        assert_eq!(p.applied(), 2);
        assert_eq!(p.inflight_records(), 1);
        assert_eq!(p.wal_len(), 2);
        let perf = p.perf();
        assert_eq!(perf.flush_barriers, 2);
        assert_eq!(perf.pipelined_submits, 1, "B overlapped A's barrier");
        assert_eq!(perf.wal_flush_failures, 0);
        // The synchronous drain resolves the tail; state matches the
        // sequential reference.
        let r = p.flush_staged();
        assert_eq!(r, 2..3);
        assert_eq!(p.applied(), 3);
        assert_eq!(p.wal_len(), 3);
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 3);
        assert_eq!(p.state_root(), reference.state_root());
        assert_eq!(p.executed_txs(), reference.executed_txs());
        // Same fsync count as the synchronous path at the same batch
        // boundaries: pipelining moves the barrier, it never adds one.
        let mut sync = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        sync.execute_batch(&[(0, block(0, 0, 50)), (1, block(1, 50, 50))]);
        sync.execute_batch(&[(2, block(2, 100, 50))]);
        assert_eq!(p.wal_io_stats(), sync.wal_io_stats());
        assert_eq!(p.state_root(), sync.state_root());
    }

    #[test]
    fn writer_thread_applies_a_batch_while_the_next_barrier_is_in_flight() {
        // Every barrier's append parks at a gate until released, so "B's
        // barrier has not completed" is a state the test holds, not a
        // race it hopes to win.
        use crate::wal::tests::GatedAppends;
        let disk = SharedMem::default();
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let gated = GatedAppends {
            inner: disk.clone(),
            entered: entered_tx,
            release: release_rx,
        };
        let wal = CommitWal::open(Box::new(gated), WalOptions::default());
        let mut p = ExecutionPipeline::fresh(wal, DEFAULT_KEYSPACE);
        p.stage_blocks(&[(0, block(0, 0, 50)), (1, block(1, 50, 50))]);
        assert!(p.submit_staged().is_empty(), "first submit applies nothing");
        entered.recv().expect("A's barrier reaches the gate");
        assert_eq!(p.inflight_records(), 2, "A in flight");
        assert_eq!(p.applied(), 0, "no apply before A's token resolves");
        p.stage_blocks(&[(2, block(2, 100, 50)), (3, block(3, 150, 50))]);
        assert_eq!(p.staged_records(), 2, "staging proceeds mid-flight");
        release.send(()).unwrap();
        assert_eq!(p.submit_staged(), 0..2, "A applies once its token resolves");
        entered.recv().expect("B's barrier reaches the gate");
        assert_eq!(p.applied(), 2, "A executed while B's barrier is parked");
        assert_eq!(p.inflight_records(), 2, "B still in flight");
        assert!(p.sched_stats().waves > 0);
        release.send(()).unwrap();
        assert_eq!(p.flush_staged(), 2..4, "the drain resolves B");
        assert_eq!(p.applied(), 4);
        let perf = p.perf();
        assert_eq!(perf.wal_flush_failures, 0);
        assert_eq!(perf.flush_barriers, 2);
        assert_eq!(perf.pipelined_submits, 1, "B's submit overlapped A");
        drop(p); // joins the writer
        let r = ExecutionPipeline::rebuild(
            Box::new(disk),
            WalOptions::default(),
            SnapshotStore::in_memory(),
            DEFAULT_KEYSPACE,
        );
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        run_blocks(&mut reference, 0, 4);
        assert_eq!(r.applied(), 4);
        assert_eq!(r.state_root(), reference.state_root());
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
            assert!(p.wal.pipelined(), "file-backed barriers run on the writer");
            for chunk in blocks.chunks(8) {
                p.stage_blocks(chunk);
                p.submit_staged();
            }
            p.flush_staged();
            let perf = p.perf();
            assert_eq!(perf.wal_flush_failures, 0);
            assert_eq!(perf.pipelined_submits, 11, "every submit but the first");
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
        // One accumulated two-drain flush = ONE batch-wide DAG.
        p.stage_blocks(&[(0, block(0, 0, 50))]);
        p.stage_blocks(&[(1, block(1, 50, 50))]);
        p.flush_staged();
        let s1 = p.sched_stats();
        assert_eq!(s1.batches, 1, "one flush = one scheduled batch");
        assert_eq!(s1.scheduled_ops, 100);
        assert!(s1.waves >= 1);
        assert!(s1.max_wave_ops >= 1);
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
        assert!(lagger.install_snapshot(&snap));
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
        assert!(!lagger.install_snapshot(&snap));
        assert_eq!(lagger.applied(), 0);
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
