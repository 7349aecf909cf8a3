//! What one node records: the event logs the paper's figures are drawn
//! from and the counters the registry exports under `node.*` / `sync.*`.
//! Declared here, written by the handlers in [`crate::node`].

use ladon_obs::{SnapshotInto, Stage, TraceJournal};
use ladon_state::PipelineStats;
use ladon_types::{Block, Digest, TimeNs};

/// A commit observation (for cross-replica f+1 aggregation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Producing instance.
    pub instance: u32,
    /// Round within the instance.
    pub round: u64,
    /// Block rank.
    pub rank: u64,
    /// Local partial-commit time.
    pub time: TimeNs,
}

/// A global confirmation observation.
#[derive(Clone, Debug)]
pub struct ConfirmRecord {
    /// Global ordering index.
    pub sn: u64,
    /// Producing instance.
    pub instance: u32,
    /// Round within the instance.
    pub round: u64,
    /// Block rank.
    pub rank: u64,
    /// Transactions in the block.
    pub tx_count: u32,
    /// Sum of member transactions' submission times.
    pub arrival_sum_ns: u128,
    /// Leader-side generation time (causality metric).
    pub proposed_at: TimeNs,
    /// Local confirmation time.
    pub time: TimeNs,
    /// Nil / dummy block?
    pub is_nil: bool,
}

/// Metrics collected by one node.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Partial commits in arrival order.
    pub commits: Vec<CommitRecord>,
    /// Global confirmations in `sn` order.
    pub confirms: Vec<ConfirmRecord>,
    /// Cumulative confirmed transactions.
    pub confirmed_txs: u64,
    /// Timeline samples `(time, cumulative confirmed txs)`.
    pub samples: Vec<(TimeNs, u64)>,
    /// View changes started `(time, instance, view)`.
    pub view_changes: Vec<(TimeNs, u32, u64)>,
    /// New views installed `(time, instance, view)`.
    pub new_views: Vec<(TimeNs, u32, u64)>,
    /// Epoch advances `(time, epoch)`.
    pub epochs: Vec<(TimeNs, u64)>,
    /// Transactions deposited into the local mempool.
    pub deposited_txs: u64,
    /// State-transfer requests sent (§5.2.1).
    pub sync_requests: u64,
    /// Blocks installed from peers' sync responses.
    pub sync_installed: u64,
    /// Execution state roots at epoch checkpoints `(time, epoch, root)`.
    pub state_roots: Vec<(TimeNs, u64, Digest)>,
    /// Peer snapshots installed (execution fast-forward).
    pub snapshot_installs: u64,
    /// Snapshot heads served to lagging peers (one per sync response that
    /// carried a snapshot, however many chunk rounds the transfer takes).
    pub snapshots_served: u64,
    /// Per-lane snapshot chunks shipped in sync responses. With delta
    /// sync this scales with *changed* lanes, not state size — a
    /// requester that already holds most lanes costs chunks ∝ the delta.
    pub snapshot_chunks_served: u64,
    /// Wire bytes of the chunks behind `snapshot_chunks_served`.
    pub snapshot_bytes_served: u64,
    /// Requester-side: snapshot lanes satisfied from *local* state
    /// (the lane root in the peer's head matched a lane we already
    /// held, so the lane was reconstructed in place, never shipped).
    pub snapshot_chunks_reused: u64,
    /// Confirmed `sn`s this replica never recorded a `ConfirmRecord` for
    /// because a snapshot install fast-forwarded past them (the
    /// confirm-record gap a log join on `sn` must tolerate). Summed over
    /// every install.
    pub skipped_sns: u64,
    /// Confirmed blocks the execution pipeline refused because they
    /// arrived above the next expected `sn` (dense-order violation).
    /// Must stay 0; nonzero means a confirmation bug corrupted the
    /// execution order and the replica's root can no longer advance.
    pub exec_gaps: u64,
    /// Checkpoint quorums observed on a root different from ours.
    pub root_conflicts: u64,
    /// Every counter the execution pipeline owns, as of its last drain,
    /// checkpoint, snapshot install or durability retry — one copy of
    /// [`ladon_state::ExecutionPipeline::stats`], never field-by-field.
    pub exec: PipelineStats,
    /// `exec.perf.wall_exec_ns`; read mid-run by `benchmark/`.
    pub wall_exec_ns: u64,
    /// `exec.io.fsyncs`; read mid-run by `benchmark/`.
    pub wal_fsyncs: u64,
    /// `exec.io.bytes_written`; read mid-run by `benchmark/`.
    pub wal_bytes_written: u64,
    /// `exec.perf.flush_barriers`; read mid-run by `benchmark/`.
    pub flush_barriers: u64,
    /// `exec.perf.wall_wal_flush_ns`; read mid-run by `benchmark/`.
    pub wall_wal_flush_ns: u64,
    /// `true` while the durability degradation state machine is in
    /// [`crate::NodeMode::Degraded`]: a run of consecutive failed flush
    /// barriers crossed
    /// [`crate::durability::WAL_FAILURE_DEGRADE_THRESHOLD`], so the node
    /// has stopped draining barriers, checkpointing, and
    /// serving snapshots, and is retrying the durable path on a capped
    /// exponential backoff timer. Exported as the `node.mode` gauge.
    pub degraded: bool,
    /// Times the node *entered* `Degraded` mode (a flap counts once per
    /// entry, however long the outage lasted).
    pub degraded_entries: u64,
    /// Durability retry attempts fired while degraded (each retry-timer
    /// expiry, successful or not).
    pub degraded_retries: u64,
    /// State-transfer probes whose responder never answered before the
    /// next probe window (per-responder health: feeds rotation backoff).
    pub sync_responder_timeouts: u64,
    /// Responders quarantined for repeatedly serving unverifiable
    /// responses ([`crate::sync::SYNC_QUARANTINE_THRESHOLD`] consecutive
    /// failures). Counts quarantine *events*.
    pub sync_responders_quarantined: u64,
    /// Sync-response chunks that failed verification against the
    /// quorum-proven head (Byzantine or corrupt responder payloads).
    pub sync_chunks_rejected: u64,
    /// Sync-response chunks that verified against a quorum-proven head.
    pub sync_chunks_verified: u64,
    /// Per-block lifecycle journal: timestamped stage transitions
    /// (submitted → proposed → confirmed → staged → flushed → applied →
    /// checkpointed) with incrementally maintained stage-latency
    /// histograms. Timestamps come from `ctx.now()` — sim time in
    /// simulation, the monotonic wall clock under `LiveRuntime`.
    pub trace: TraceJournal,
}

impl NodeMetrics {
    /// Records the global confirmation of `block` at `sn`: the
    /// confirm log entry, the transaction count, and the lifecycle
    /// trace. Confirmation is the first moment the block has a global
    /// `sn`, so the pre-confirmation stages are stamped retroactively
    /// from the block's own timestamps — mean member-tx arrival for
    /// `Submitted` (falling back to the proposal time for empty/nil
    /// batches), the leader-side generation time for `Proposed`.
    pub fn note_confirmed(&mut self, sn: u64, b: &Block, now: TimeNs) {
        if !b.is_nil() {
            self.confirmed_txs += b.batch.count as u64;
        }
        let lane = b.index().0;
        let submitted = if b.batch.count > 0 {
            TimeNs((b.batch.arrival_sum_ns / b.batch.count as u128) as u64)
        } else {
            b.proposed_at
        };
        self.trace.record(sn, lane, Stage::Submitted, submitted);
        self.trace.record(sn, lane, Stage::Proposed, b.proposed_at);
        self.trace.record(sn, lane, Stage::Confirmed, now);
        self.confirms.push(ConfirmRecord {
            sn,
            instance: lane,
            round: b.round().0,
            rank: b.rank().0,
            tx_count: b.batch.count,
            arrival_sum_ns: b.batch.arrival_sum_ns,
            proposed_at: b.proposed_at,
            time: now,
            is_nil: b.is_nil(),
        });
    }

    /// Lane (producing instance) of a confirmed `sn`, looked up from the
    /// confirm log (which is in `sn` order).
    pub fn lane_of(&self, sn: u64) -> u32 {
        self.confirms
            .binary_search_by_key(&sn, |c| c.sn)
            .map(|i| self.confirms[i].instance)
            .unwrap_or(0)
    }

    /// Takes a fresh copy of the pipeline's counters (and refreshes the
    /// five scalars `benchmark/` reads mid-run from the same copy).
    pub fn set_exec(&mut self, stats: PipelineStats) {
        self.wall_exec_ns = stats.perf.wall_exec_ns;
        self.wal_fsyncs = stats.io.fsyncs;
        self.wal_bytes_written = stats.io.bytes_written;
        self.flush_barriers = stats.perf.flush_barriers;
        self.wall_wal_flush_ns = stats.perf.wall_wal_flush_ns;
        self.exec = stats;
    }
}

impl SnapshotInto for NodeMetrics {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("node.confirmed_blocks", self.confirms.len() as u64);
        registry.counter("node.confirmed_txs", self.confirmed_txs);
        registry.counter("node.deposited_txs", self.deposited_txs);
        registry.counter("node.sync_requests", self.sync_requests);
        registry.counter("node.sync_installed", self.sync_installed);
        registry.counter("node.snapshot_installs", self.snapshot_installs);
        registry.counter("node.snapshots_served", self.snapshots_served);
        registry.counter("sync.snapshot_chunks_served", self.snapshot_chunks_served);
        registry.counter("sync.snapshot_bytes_served", self.snapshot_bytes_served);
        registry.counter("sync.snapshot_chunks_reused", self.snapshot_chunks_reused);
        registry.counter("node.skipped_sns", self.skipped_sns);
        registry.counter("node.exec_gaps", self.exec_gaps);
        registry.counter("node.root_conflicts", self.root_conflicts);
        registry.counter("node.view_changes", self.view_changes.len() as u64);
        registry.gauge("node.mode", if self.degraded { 1.0 } else { 0.0 });
        registry.counter("node.degraded_entries", self.degraded_entries);
        registry.counter("node.degraded_retries", self.degraded_retries);
        registry.counter("sync.responder_timeouts", self.sync_responder_timeouts);
        registry.counter(
            "sync.responders_quarantined",
            self.sync_responders_quarantined,
        );
        registry.counter("sync.chunks_rejected", self.sync_chunks_rejected);
        registry.counter("sync.chunks_verified", self.sync_chunks_verified);
        self.exec.snapshot_into(registry);
        self.trace.snapshot_into(registry);
    }
}
