//! Execution and durable state for the Ladon Multi-BFT stack.
//!
//! The consensus layers (`ladon-pbft` / `ladon-hotstuff` / `ladon-core`)
//! produce a globally confirmed stream of blocks; this crate is what makes
//! that stream *mean* something. It follows the sans-IO replica
//! execution-loop shape (confirmed blocks in, durable effects out):
//!
//! - [`kv`]: a deterministic key-value state machine ([`KvState`]), its
//!   balances kept in pages indexed by account id. A batch applies in
//!   block order on one thread, writes never hash, and the fold
//!   multiplies the keys written since the last checkpoint into one
//!   MuHash accumulator over every live account, so the state root
//!   hashes O(dirty keys) leaves — not O(keyspace).
//! - [`wal`]: a segmented commit write-ahead log ([`CommitWal`]) of
//!   confirmed block identities — checksummed, length-prefixed records
//!   in one chain of segment files under a checksummed manifest, one
//!   write + one fsync per flushed batch, compacted by atomic segment
//!   rotation (never in-place truncation) — over pluggable storage
//!   ([`MemBackend`] for simulation, [`FileBackend`] for real
//!   durability).
//! - [`snapshot`]: epoch-aligned state snapshots ([`Snapshot`]) kept the
//!   way they are shipped — a manifest head ([`SnapshotHead`]) plus one
//!   ascending entry run under the state root the head names — with a
//!   [`SnapshotStore`] that can persist them on disk. A responder ships
//!   a snapshot as it holds it, one value; the receiver's
//!   [`ExecutionPipeline::install`] verifies it once, head then run, and
//!   installs the whole or nothing.
//! - [`pipeline`]: the [`ExecutionPipeline`] gluing the three together:
//!   WAL-append → apply → per-epoch checkpoint (snapshot + WAL compaction),
//!   plus snapshot install ([`ExecutionPipeline::install`]) and crash
//!   recovery (snapshot + WAL replay).
//! - [`exec`]: the process-wide executor a pipeline hands each large
//!   acknowledged batch to (one FIFO, `available_parallelism() − 1`
//!   workers, waiters help), so execution overlaps consensus and the
//!   other replicas' execution.
//! - [`faults`]: deterministic, scriptable storage-fault injection
//!   ([`FaultPlan`] driving [`FaultBackend`]) so every WAL failure path
//!   above can be exercised from tests, benches, and the simulator with
//!   the same reusable machinery.
//!
//! Determinism contract: executing the same confirmed block sequence from
//! the same starting state always yields the same state root, so honest
//! replicas' roots agree at every stable checkpoint, and a restarted
//! replica that recovers from `snapshot + WAL tail` rejoins with exactly
//! the state it crashed with.

#![forbid(unsafe_code)]

pub mod exec;
pub mod faults;
pub mod kv;
pub mod pipeline;
pub mod snapshot;
pub mod wal;

pub use faults::{FaultBackend, FaultPlan};
pub use kv::{ExecEffects, KvState, DEFAULT_KEYSPACE};
pub use pipeline::{
    ExecOutcome, ExecSchedStats, ExecutionPipeline, InstallOutcome, PipelinePerf, PipelineStats,
    ReplayStats, POOLED_MIN_OPS,
};
pub use snapshot::{Snapshot, SnapshotChunk, SnapshotHead, SnapshotStore};
pub use wal::{
    decode_segment, CommitWal, FileBackend, MemBackend, SegmentDecode, SegmentMeta, WalBackend,
    WalIoStats, WalOptions, WalRecord, ENCODED_RECORD_LEN, TRAILER_LEN,
};
