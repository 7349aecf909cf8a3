//! Execution and durable state for the Ladon Multi-BFT stack.
//!
//! The consensus layers (`ladon-pbft` / `ladon-hotstuff` / `ladon-core`)
//! produce a globally confirmed stream of blocks; this crate is what makes
//! that stream *mean* something. It follows the sans-IO replica
//! execution-loop shape (confirmed blocks in, durable effects out):
//!
//! - [`kv`]: a deterministic key-value state machine ([`KvState`]) sharded
//!   into [`MERKLE_LANES`] fixed Merkle lanes by key hash. Blocks apply
//!   in block order on one thread, writes never hash, and each lane
//!   folds the keys written since the last checkpoint into its content
//!   root, so the two-level state root costs O(dirty keys + lanes) —
//!   not O(keyspace).
//! - [`wal`]: a segmented commit write-ahead log ([`CommitWal`]) of
//!   confirmed block identities — checksummed, length-prefixed records
//!   in one chain of segment files under a checksummed manifest, one
//!   write + one fsync per flushed batch, compacted by atomic segment
//!   rotation (never in-place truncation) — over pluggable storage
//!   ([`MemBackend`] for simulation, [`FileBackend`] for real
//!   durability).
//! - [`snapshot`]: epoch-aligned state snapshots ([`Snapshot`]) kept the
//!   way they are shipped — a manifest head ([`SnapshotHead`]) plus one
//!   chunk per lane ([`SnapshotChunk`]) content-addressed by lane root —
//!   with a [`SnapshotStore`] that can persist them on disk. Delta state
//!   sync falls out of the shape: a receiver fetches only lanes whose
//!   roots changed and reassembles byte-identically.
//! - [`pipeline`]: the [`ExecutionPipeline`] gluing the three together:
//!   WAL-append → apply → per-epoch checkpoint (snapshot + WAL compaction),
//!   plus snapshot install and crash recovery (snapshot + WAL replay).
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

pub mod faults;
pub mod kv;
pub mod pipeline;
pub mod snapshot;
pub mod wal;

pub use faults::{FaultBackend, FaultPlan};
pub use kv::{lane_of, BatchOutcome, ExecEffects, KvState, DEFAULT_KEYSPACE, MERKLE_LANES};
pub use pipeline::{
    ExecOutcome, ExecSchedStats, ExecutionPipeline, PipelinePerf, PipelineStats, ReplayStats,
};
pub use snapshot::{delta_lanes, Snapshot, SnapshotChunk, SnapshotHead, SnapshotStore};
pub use wal::{
    decode_segment, CommitWal, FileBackend, MemBackend, SegmentDecode, SegmentMeta, WalBackend,
    WalIoStats, WalLoadStats, WalOptions, WalRecord, ENCODED_RECORD_LEN, TRAILER_LEN,
};
