//! The commit write-ahead log: one segmented chain under a manifest.
//!
//! Every globally confirmed block is appended *before* it is applied to
//! the state machine, so a crash between append and apply loses nothing:
//! recovery replays the WAL tail on top of the latest snapshot and
//! re-derives the identical state (execution is deterministic, see
//! [`crate::kv`]).
//!
//! A record stores the block *identity* — `(sn, instance, round, rank)`,
//! the batch coordinates `(first_tx, count, bucket)` and the payload
//! digest — not the payload itself: the synthetic workload derives each
//! transaction's op from its id ([`ladon_types::TxOp::for_id`]), so the
//! identity is sufficient to re-execute. Records are length-prefixed and
//! FNV-checksummed; a torn tail (partial final record, e.g. a crash
//! mid-append) is detected and discarded on load.
//!
//! # Segments and the manifest
//!
//! Ladon's output is one total order, and the log is one sequence: a
//! single chain of **segment files** — sealed immutable segments plus one
//! active segment — holding each record exactly once, in `sn` order. A
//! small FNV-checksummed **manifest** names the live segment set with
//! each segment's `(seq, sn-range, record count)`; it is the single
//! source of truth for which files belong to the log, and it is replaced
//! only via temp-file + fsync + atomic rename + directory fsync. A process
//! appends only to segments it created: an open seals every segment it
//! finds, so whatever a crash tore at a segment's end stays at the end of
//! an immutable file and no later batch is ever written behind it.
//!
//! The layout buys two things:
//!
//! - **Crash-safe compaction.** Dropping the snapshot-covered prefix
//!   writes a *new* segment file for the straddling tail, atomically
//!   publishes a manifest naming the new set, and only then deletes the
//!   old files — in-place truncation never happens, so a crash at any
//!   byte of the protocol leaves either the complete old log or the
//!   complete new one on disk (plus ignorable orphans).
//! - **Partial recovery.** A snapshot covers every record below its
//!   `applied` frontier, so recovery skips — without reading — every
//!   sealed segment whose `last_sn` sits below that floor. Replay work
//!   is proportional to the tail past the snapshot, not to the total log
//!   length (`fig_recovery_scaling` asserts exactly this with
//!   deterministic record counts).
//!
//! # Group commit
//!
//! The write path is built around explicit **durability barriers**, not
//! per-record fsyncs. [`CommitWal::append_buffered`] encodes a record
//! into the stage buffer (no backend I/O, no steady-state allocation) —
//! it is the only way a record enters the log, and the execution
//! pipeline stages a confirmed block through it and keeps no copy of
//! its own. [`CommitWal::submit_flush`] then writes everything staged
//! with **one** write and **one** fsync — however many records the
//! batch held — via the backend's [`WalBackend::append_segment_batch`] /
//! [`WalBackend::sync_group`] split, and [`CommitWal::complete_flush`]
//! acknowledges the batch into the mirror. A record is **acknowledged
//! only when its barrier completes**: a crash between staging and
//! completion loses only unacknowledged records, never a previously
//! acknowledged one (the crash matrix in `tests/state_execution.rs`
//! sweeps a kill across exactly this boundary). Nothing else
//! acknowledges a record — compaction and repair rewrite acknowledged
//! records only. [`CommitWal::flush`] (submit + complete) and
//! [`CommitWal::append`] (one record, flushed) are thin compositions.
//!
//! Every contiguous run a flush appends (and every compaction rewrite)
//! is closed by a checksummed **batch trailer** ([`TRAILER_LEN`] bytes:
//! marker + segment record count + FNV), so a segment's byte stream
//! ends at an *acknowledgement boundary* after every clean flush.
//! Recovery uses it to classify damage ([`SegmentDecode`]): a stream
//! that ends exactly at a trailer is a **clean end of log** — a
//! manifest-count shortfall there can only be a suffix that was never
//! durably appended as part of an acknowledged batch
//! (`records_unacked_lost`, e.g. a failed write that already raised the
//! durability alarm) — while a stream that tears mid-record or
//! mid-batch reports genuinely acknowledged loss (`records_torn`).
//!
//! Storage is pluggable behind [`WalBackend`], a `(chain, seq)`-keyed
//! segment store of which the WAL uses chain 0 only: [`MemBackend`]
//! keeps the segment set in memory (simulation, tests), [`FileBackend`]
//! maps it onto a directory of `wal-g*-*.seg` files, holding a cached
//! open handle on the active segment (opened once per segment lifetime,
//! not per append) and fsyncing at sync barriers (examples, benches,
//! durable deployments). Every backend keeps deterministic
//! write/fsync/open counters ([`WalIoStats`], same spirit as the crypto
//! op counters) so benches and CI gate on *counts*, never wall-clock.
//! The WAL itself is sans-IO: it encodes/decodes records, segments and
//! manifests; the backend moves bytes.
//!
//! # Writer thread or inline barrier
//!
//! A backend that [prefers a writer thread](WalBackend::prefers_writer_thread)
//! (files) has each barrier run on a dedicated thread while the caller
//! applies the previous batch; one that does not (memory) runs it inline
//! at submit (see [`CommitWal`]). Both paths stay, selected by the
//! backend: the hand-off pays only where a barrier is long enough to
//! hide work behind. Measured on `benchmark/`'s `durable_file` with
//! every check on and only `FaultBackend::threaded` toggled, six pairs
//! in alternating order:
//!
//! | block size | pairs won by the writer thread | median ktx/s, inline · threaded |
//! |---|---|---|
//! | 32 tx (shipped) | 3 / 6 — a tie | 114.2 · 115.9 |
//! | 4096 tx (the paper's) | 6 / 6 | 3 684 · 4 341 (+18 %) |

use ladon_crypto::fnv::Fnv64;
use ladon_types::{Batch, Block, Digest, SystemConfig, TxId, TxOp};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Record format version (first byte of every record body). v3 is the
/// block identity alone; older records (v2 carried a descriptive lane
/// mask) are rejected, which reads as a corrupt log — the restarting
/// replica falls back to peer sync.
const WAL_VERSION: u8 = 3;
/// Encoded body size: version + sn + instance + round + rank + first_tx +
/// count + bucket + payload_bytes + digest.
const BODY_LEN: usize = 1 + 8 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 32;

/// Every record encodes to this exact size (length prefix + body +
/// checksum) — what lets a staged batch be split across a segment roll
/// without re-encoding.
pub const ENCODED_RECORD_LEN: usize = 4 + BODY_LEN + 8;

/// Length-prefix sentinel opening a **batch trailer** (can never collide
/// with a record's `BODY_LEN` prefix).
const TRAILER_MARK: u32 = u32::MAX;

/// Encoded batch-trailer size: marker + segment record count + checksum.
/// A trailer closes every contiguous run a flush appends to a segment,
/// so a segment stream that ends exactly at a trailer ends at an
/// **acknowledgement boundary** — recovery reads that as "clean end of
/// log", while a stream ending mid-record or mid-batch reads as a torn
/// in-flight write (see [`SegmentDecode`]).
pub const TRAILER_LEN: usize = 4 + 4 + 8;

/// The encoded batch trailer claiming `count` records now in the
/// segment.
fn trailer_bytes(count: u32) -> [u8; TRAILER_LEN] {
    let mut out = [0u8; TRAILER_LEN];
    out[0..4].copy_from_slice(&TRAILER_MARK.to_le_bytes());
    out[4..8].copy_from_slice(&count.to_le_bytes());
    let sum = Fnv64::new().write(&out[0..8]).finish();
    out[8..16].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Manifest format version (first byte of the manifest file). A v1
/// manifest is undecodable like any other unreadable one: it takes the
/// scan-and-rewrite path of [`CommitWal::open_with_floor`].
const MANIFEST_VERSION: u8 = 2;

/// The one backend chain the log lives in (see [`WalBackend`]).
const CHAIN: u32 = 0;

/// Tuning knobs for the segmented layout (see
/// [`ladon_types::SystemConfig::wal_segment_records`] for the config
/// surface).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Kept for source compatibility with frozen `benchmark/`; no effect.
    pub lane_groups: u32,
    /// Records the active segment holds before it is sealed and the log
    /// rolls to a fresh one. Clamped to ≥ 1.
    pub segment_records: u32,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            lane_groups: 1,
            segment_records: 1024,
        }
    }
}

impl From<&SystemConfig> for WalOptions {
    /// The WAL layout a deployment's system configuration asks for.
    fn from(sys: &SystemConfig) -> Self {
        Self {
            segment_records: sys.wal_segment_records,
            ..Self::default()
        }
    }
}

/// One confirmed-block entry in the commit log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global ordering index of the block.
    pub sn: u64,
    /// Producing instance.
    pub instance: u32,
    /// Round within the instance.
    pub round: u64,
    /// Block rank.
    pub rank: u64,
    /// First transaction id of the batch.
    pub first_tx: u64,
    /// Number of transactions.
    pub count: u32,
    /// Bucket the batch was cut from.
    pub bucket: u32,
    /// Total payload bytes (bandwidth accounting on replay).
    pub payload_bytes: u64,
    /// Payload digest (integrity binding to the consensus artifact).
    pub payload_digest: Digest,
}

impl WalRecord {
    /// Builds the record for confirmed block `sn`.
    pub fn of_block(sn: u64, block: &Block) -> Self {
        Self {
            sn,
            instance: block.index().0,
            round: block.round().0,
            rank: block.rank().0,
            first_tx: block.batch.first_tx.0,
            count: block.batch.count,
            bucket: block.batch.bucket,
            payload_bytes: block.batch.payload_bytes,
            payload_digest: block.header.payload_digest,
        }
    }

    /// The ops the record's block applies: [`Batch::txs`] over the
    /// record's `(first_tx, count)`, the block's own derivation.
    pub(crate) fn ops(&self, keyspace: u32) -> impl Iterator<Item = TxOp> {
        let batch = Batch {
            first_tx: TxId(self.first_tx),
            count: self.count,
            ..Batch::default()
        };
        batch.txs(keyspace).map(|tx| tx.op)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut body = [0u8; BODY_LEN];
        let mut at = 0usize;
        let mut put = |bytes: &[u8]| {
            body[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&[WAL_VERSION]);
        put(&self.sn.to_le_bytes());
        put(&self.instance.to_le_bytes());
        put(&self.round.to_le_bytes());
        put(&self.rank.to_le_bytes());
        put(&self.first_tx.to_le_bytes());
        put(&self.count.to_le_bytes());
        put(&self.bucket.to_le_bytes());
        put(&self.payload_bytes.to_le_bytes());
        put(&self.payload_digest.0);
        debug_assert_eq!(at, BODY_LEN);
        let checksum = Fnv64::new().write(&body).finish();
        out.extend_from_slice(&(BODY_LEN as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    fn decode(body: &[u8]) -> Option<Self> {
        if body.len() != BODY_LEN || body[0] != WAL_VERSION {
            return None;
        }
        let mut at = 1usize;
        let mut take = |n: usize| {
            let s = &body[at..at + n];
            at += n;
            s
        };
        let u64le = |s: &[u8]| u64::from_le_bytes(s.try_into().unwrap());
        let u32le = |s: &[u8]| u32::from_le_bytes(s.try_into().unwrap());
        let sn = u64le(take(8));
        let instance = u32le(take(4));
        let round = u64le(take(8));
        let rank = u64le(take(8));
        let first_tx = u64le(take(8));
        let count = u32le(take(4));
        let bucket = u32le(take(4));
        let payload_bytes = u64le(take(8));
        let mut digest = [0u8; 32];
        digest.copy_from_slice(take(32));
        Some(Self {
            sn,
            instance,
            round,
            rank,
            first_tx,
            count,
            bucket,
            payload_bytes,
            payload_digest: Digest(digest),
        })
    }
}

/// What decoding one segment stream yielded: the intact records plus the
/// acknowledgement-boundary classification the batch trailers provide.
#[derive(Clone, Debug, Default)]
pub struct SegmentDecode {
    /// Every intact record, in stream order (trailers skipped).
    pub records: Vec<WalRecord>,
    /// True when the stream was consumed completely and ended exactly at
    /// a trailer (or was empty): a **clean end of log** — every byte
    /// after the last acknowledged batch is accounted for. False means
    /// the stream tore mid-record or mid-batch (a crashed in-flight
    /// write, or corruption).
    pub clean_end: bool,
}

/// Decodes a segment stream: every intact record, stopping at the first
/// torn or corrupt entry (everything after a bad checksum is untrusted),
/// while tracking the batch-trailer acknowledgement boundaries.
pub fn decode_segment(bytes: &[u8]) -> SegmentDecode {
    let mut out = SegmentDecode {
        clean_end: true, // an empty stream is clean
        ..SegmentDecode::default()
    };
    let mut at = 0usize;
    let mut at_boundary = true;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        if len == TRAILER_MARK {
            if at + TRAILER_LEN > bytes.len() {
                at_boundary = false;
                break; // torn trailer
            }
            let expect = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            if Fnv64::new().write(&bytes[at..at + 8]).finish() != expect {
                at_boundary = false;
                break; // corrupt trailer: stop trusting the tail
            }
            at += TRAILER_LEN;
            at_boundary = true;
            continue;
        }
        let len = len as usize;
        let body_start = at + 4;
        let sum_start = body_start + len;
        if len != BODY_LEN || sum_start + 8 > bytes.len() {
            at_boundary = false;
            break; // torn tail
        }
        let body = &bytes[body_start..sum_start];
        let expect = u64::from_le_bytes(bytes[sum_start..sum_start + 8].try_into().unwrap());
        if Fnv64::new().write(body).finish() != expect {
            at_boundary = false;
            break; // corrupt record: stop trusting the tail
        }
        match WalRecord::decode(body) {
            Some(r) => out.records.push(r),
            None => {
                at_boundary = false;
                break;
            }
        }
        at = sum_start + 8;
        at_boundary = false; // a record not yet closed by its trailer
    }
    out.clean_end = at == bytes.len() && at_boundary;
    out
}

// ---------------------------------------------------------------------
// Segment metadata and the manifest
// ---------------------------------------------------------------------

/// Manifest entry for one live segment file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Monotonic sequence number (names the file).
    pub seq: u64,
    /// Lowest record `sn` in the segment (meaningless when `records`
    /// is 0).
    pub first_sn: u64,
    /// Highest record `sn` in the segment.
    pub last_sn: u64,
    /// Records in the segment. For the active segment this is the count
    /// at the last manifest publish; the true count is re-derived from
    /// the file on open (appends do not rewrite the manifest).
    pub records: u32,
    /// Sealed segments are immutable; at most one unsealed (active)
    /// segment exists.
    pub sealed: bool,
}

impl SegmentMeta {
    fn fresh(seq: u64) -> Self {
        Self {
            seq,
            first_sn: 0,
            last_sn: 0,
            records: 0,
            sealed: false,
        }
    }

    fn absorb(&mut self, rec: &WalRecord) {
        if self.records == 0 {
            self.first_sn = rec.sn;
        }
        self.last_sn = rec.sn;
        self.records += 1;
    }
}

/// What a rotation does with one live segment (see
/// [`WalBack::rotate_segments`]).
enum SegmentFate {
    /// Untouched; carried into the new manifest.
    Keep,
    /// Dropped entirely (every record is outside the surviving set).
    Delete,
    /// Replaced by a fresh file holding the mirror's records in
    /// `first..=last`.
    Rewrite {
        /// First surviving `sn` (inclusive).
        first: u64,
        /// Last surviving `sn` (inclusive).
        last: u64,
    },
}

/// The manifest: the authoritative live segment set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Manifest {
    /// Next unused segment sequence number.
    next_seq: u64,
    /// Live segments, ascending `seq`.
    segments: Vec<SegmentMeta>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 8 + 8 + self.segments.len() * 29 + 8);
        out.push(MANIFEST_VERSION);
        out.extend_from_slice(&self.next_seq.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u64).to_le_bytes());
        for s in &self.segments {
            out.extend_from_slice(&s.seq.to_le_bytes());
            out.extend_from_slice(&s.first_sn.to_le_bytes());
            out.extend_from_slice(&s.last_sn.to_le_bytes());
            out.extend_from_slice(&s.records.to_le_bytes());
            out.push(s.sealed as u8);
        }
        let checksum = Fnv64::new().write(&out).finish();
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 1 + 16 + 8 || bytes[0] != MANIFEST_VERSION {
            return None;
        }
        let (payload, sum) = bytes.split_at(bytes.len() - 8);
        if Fnv64::new().write(payload).finish() != u64::from_le_bytes(sum.try_into().ok()?) {
            return None;
        }
        let mut at = 1usize;
        let mut take = |n: usize| {
            let s = payload.get(at..at + n)?;
            at += n;
            Some(s)
        };
        let next_seq = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let count = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
        if count > 1 << 20 {
            return None;
        }
        let mut segments = Vec::with_capacity(count.min(1 << 12));
        for _ in 0..count {
            let seq = u64::from_le_bytes(take(8)?.try_into().ok()?);
            let first_sn = u64::from_le_bytes(take(8)?.try_into().ok()?);
            let last_sn = u64::from_le_bytes(take(8)?.try_into().ok()?);
            let records = u32::from_le_bytes(take(4)?.try_into().ok()?);
            let sealed = take(1)?[0] != 0;
            segments.push(SegmentMeta {
                seq,
                first_sn,
                last_sn,
                records,
                sealed,
            });
        }
        Some(Self { next_seq, segments })
    }
}

// ---------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------

/// Deterministic I/O accounting kept by every [`WalBackend`] — syscall
/// counts, not wall-clock, in the same spirit as the crypto op counters
/// ([`ladon_crypto::counters`]), but per-backend so each replica's WAL is
/// individually attributable. This module's tests gate on these: one
/// write and one fsync per flushed batch, one open per segment lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalIoStats {
    /// Staged segment writes ([`WalBackend::append_segment_batch`]
    /// calls — one per flushed batch, however many records the batch
    /// held, plus one per segment roll the batch crossed).
    pub appends: u64,
    /// Durability barriers actually issued (`fsync`/`fdatasync`-class
    /// syscalls: sync barriers, whole-file rewrites, manifest publishes,
    /// directory syncs).
    pub fsyncs: u64,
    /// Segment file handles opened for appending — O(segments) under the
    /// active-handle cache, where the old open-per-append design was
    /// O(appends).
    pub segment_opens: u64,
    /// Total segment payload bytes written (appends + rewrites).
    pub bytes_written: u64,
}

impl ladon_obs::SnapshotInto for WalIoStats {
    fn snapshot_into(&self, registry: &mut ladon_obs::MetricsRegistry) {
        registry.counter("wal.appends", self.appends);
        registry.counter("wal.fsyncs", self.fsyncs);
        registry.counter("wal.segment_opens", self.segment_opens);
        registry.counter("wal.bytes_written", self.bytes_written);
    }
}

/// Segment-file storage behind a [`CommitWal`].
///
/// Every mutating operation returns `false` on failure; the WAL treats a
/// failed write as a durability alarm ([`CommitWal::write_failures`]),
/// keeps its in-memory mirror authoritative, and repairs the backend at
/// the next successful compaction. The contract the group-commit and
/// compaction protocols lean on: [`Self::publish_manifest`] replaces the
/// manifest *atomically* (a reader sees the old bytes or the new bytes,
/// never a mix); [`Self::write_segment`] is durable (fsynced) before it
/// returns `true`; and a staged [`Self::append_segment_batch`] is
/// guaranteed durable only once the chain's next [`Self::sync_group`]
/// returns `true` — the fsync barrier group commit amortizes over a
/// whole batch of appends.
///
/// Segments are keyed `(group, seq)`. The `group: u32` argument is kept
/// for source compatibility with frozen `benchmark/`; no effect — the
/// WAL stores its one chain under group 0, and a backend is a dumb store
/// that treats the pair as an opaque name.
pub trait WalBackend: Send {
    /// Stages one run — `records` followed by its closing batch
    /// `trailer` — at the end of segment `seq` of `group`, creating the
    /// file if absent. Two slices so the (large) record bytes stream
    /// straight from the flush's staging buffer with no concatenation
    /// copy; backends write them back-to-back as one logical append.
    /// **Not durable** until the chain's next [`Self::sync_group`] — a
    /// crash before the barrier may lose the staged suffix (it reads
    /// back as a torn tail).
    fn append_segment_batch(
        &mut self,
        group: u32,
        seq: u64,
        records: &[u8],
        trailer: &[u8],
    ) -> bool;
    /// Durability barrier: forces every staged append in `group` to
    /// stable storage. One fsync per flushed batch — the whole point of
    /// group commit.
    fn sync_group(&mut self, group: u32) -> bool;
    /// Creates-or-replaces segment `seq` of `group` with exactly `bytes`,
    /// durably (compaction rewrite target; truncates any orphan at the
    /// name).
    fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool;
    /// Reads a whole segment back (`None` when missing/unreadable).
    fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>>;
    /// Deletes a segment file (idempotent).
    fn delete_segment(&mut self, group: u32, seq: u64) -> bool;
    /// Atomically replaces the manifest.
    fn publish_manifest(&mut self, bytes: &[u8]) -> bool;
    /// Reads the current manifest (`None` when absent).
    fn load_manifest(&mut self) -> Option<Vec<u8>>;
    /// Every segment present in storage, referenced by the manifest or
    /// not (orphan discovery after a mid-compaction crash).
    fn list_segments(&mut self) -> Vec<(u32, u64)>;
    /// The backend's deterministic I/O counters since construction.
    fn io_stats(&self) -> WalIoStats;
    /// Whether [`CommitWal`] should run this backend's flush barriers on
    /// a dedicated writer thread (pipelined durability). File-backed
    /// logs say yes — their fsync latency is worth overlapping with
    /// execution; in-memory backends say no, keeping every seeded
    /// simulation run bit-deterministic with the writer inline.
    fn prefers_writer_thread(&self) -> bool {
        false
    }
}

/// In-memory backend (simulation and tests). Storage never tears, but
/// the counters model the real-disk boundary — a staged append costs a
/// write, durability costs one fsync per [`Self::sync_group`] barrier,
/// and an "open" is charged exactly where [`FileBackend`]'s handle cache
/// would miss — so simulated replicas report the same deterministic I/O
/// shape a file-backed deployment would.
#[derive(Default, Clone, Debug)]
pub struct MemBackend {
    segments: BTreeMap<(u32, u64), Vec<u8>>,
    manifest: Option<Vec<u8>>,
    /// Groups with staged appends since their last sync barrier (fsync
    /// accounting: a barrier over a clean group is free).
    dirty_groups: std::collections::BTreeSet<u32>,
    /// The segment each group's appends currently target — the abstract
    /// mirror of [`FileBackend`]'s handle cache, so `segment_opens`
    /// counts cache misses identically (one per segment lifetime, plus a
    /// re-open if a rewrite/delete evicts the tracked segment).
    append_target: BTreeMap<u32, u64>,
    stats: WalIoStats,
}

impl WalBackend for MemBackend {
    fn append_segment_batch(
        &mut self,
        group: u32,
        seq: u64,
        records: &[u8],
        trailer: &[u8],
    ) -> bool {
        if self.append_target.get(&group) != Some(&seq) {
            // Model the roll's sync-before-evict: a dirty previous
            // target is synced before its handle is dropped.
            self.sync_group(group);
            self.append_target.insert(group, seq);
            self.stats.segment_opens += 1;
        }
        let seg = self.segments.entry((group, seq)).or_default();
        seg.extend_from_slice(records);
        seg.extend_from_slice(trailer);
        self.stats.appends += 1;
        self.stats.bytes_written += (records.len() + trailer.len()) as u64;
        self.dirty_groups.insert(group);
        true
    }
    fn sync_group(&mut self, group: u32) -> bool {
        if self.dirty_groups.remove(&group) {
            self.stats.fsyncs += 1;
        }
        true
    }
    fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
        if self.append_target.get(&group) == Some(&seq) {
            self.append_target.remove(&group); // handle-cache eviction
        }
        self.segments.insert((group, seq), bytes.to_vec());
        // Models file fsync + directory fsync of the durable rewrite.
        self.stats.fsyncs += 2;
        self.stats.bytes_written += bytes.len() as u64;
        true
    }
    fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
        self.segments.get(&(group, seq)).cloned()
    }
    fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
        if self.append_target.get(&group) == Some(&seq) {
            self.append_target.remove(&group);
        }
        self.segments.remove(&(group, seq));
        self.stats.fsyncs += 1; // models the directory fsync
        true
    }
    fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
        self.manifest = Some(bytes.to_vec());
        self.stats.fsyncs += 2; // models temp-file fsync + dir fsync
        true
    }
    fn load_manifest(&mut self) -> Option<Vec<u8>> {
        self.manifest.clone()
    }
    fn list_segments(&mut self) -> Vec<(u32, u64)> {
        self.segments.keys().copied().collect()
    }
    fn io_stats(&self) -> WalIoStats {
        self.stats
    }
}

/// One cached open active-segment handle of a [`FileBackend`] group.
struct ActiveHandle {
    seq: u64,
    file: std::fs::File,
    /// Written-to since the last sync barrier.
    dirty: bool,
}

/// Directory-backed storage: `wal-g<group>-<seq>.seg` segment files plus
/// a `wal.manifest`, all under one directory. Each group's active
/// segment is appended through a **cached open handle** — opened once
/// when the segment becomes active, reused for its whole lifetime, and
/// invalidated on roll, rewrite, or delete — instead of an
/// open-per-append. Staged appends become durable at the group's
/// [`WalBackend::sync_group`] barrier (`sync_data`); rewrites fsync
/// before reporting success; the manifest is replaced via temp-file +
/// fsync + rename + directory fsync, so a crash leaves either the old or
/// the new manifest intact.
pub struct FileBackend {
    dir: PathBuf,
    /// Cached open handle of each chain's current append target (at most
    /// one active segment per chain by WAL invariant).
    active: std::collections::HashMap<u32, ActiveHandle>,
    stats: WalIoStats,
}

impl FileBackend {
    /// Opens (creating if needed) the segment directory.
    pub fn open_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            active: std::collections::HashMap::new(),
            stats: WalIoStats::default(),
        })
    }

    /// The file name of segment `(group, seq)`.
    pub fn segment_name(group: u32, seq: u64) -> String {
        format!("wal-g{group:02}-{seq:08}.seg")
    }

    fn segment_path(&self, group: u32, seq: u64) -> PathBuf {
        self.dir.join(Self::segment_name(group, seq))
    }

    /// Makes directory metadata (created/renamed/deleted names) durable.
    fn sync_dir(&mut self) -> std::io::Result<()> {
        std::fs::File::open(&self.dir)?.sync_all()?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Drops the cached handle for `(group, seq)` if one is held — the
    /// segment is being rewritten or deleted out from under it.
    fn evict(&mut self, group: u32, seq: u64) {
        if self.active.get(&group).is_some_and(|h| h.seq == seq) {
            self.active.remove(&group);
        }
    }
}

impl WalBackend for FileBackend {
    fn append_segment_batch(
        &mut self,
        group: u32,
        seq: u64,
        records: &[u8],
        trailer: &[u8],
    ) -> bool {
        // A different seq means the group rolled: the previous active
        // sealed. Its staged bytes must be durable before the handle is
        // dropped, or a "clean" flush could still lose them.
        if self.active.get(&group).is_some_and(|h| h.seq != seq) {
            if !self.sync_group(group) {
                return false;
            }
            self.active.remove(&group);
        }
        if !self.active.contains_key(&group) {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.segment_path(group, seq))
            {
                Ok(file) => {
                    self.stats.segment_opens += 1;
                    self.active.insert(
                        group,
                        ActiveHandle {
                            seq,
                            file,
                            dirty: false,
                        },
                    );
                }
                Err(_) => return false,
            }
        }
        let h = self.active.get_mut(&group).expect("just inserted");
        // Two writes on the cached handle, zero concatenation copies:
        // the record bytes stream straight from the staging buffer. A
        // torn boundary between the two is indistinguishable from any
        // other mid-run tear and is handled identically on load.
        match h
            .file
            .write_all(records)
            .and_then(|()| h.file.write_all(trailer))
        {
            Ok(()) => {
                h.dirty = true;
                self.stats.appends += 1;
                self.stats.bytes_written += (records.len() + trailer.len()) as u64;
                true
            }
            Err(_) => false,
        }
    }

    fn sync_group(&mut self, group: u32) -> bool {
        // `sync_data`, not just flush: `File` has no userspace buffer, so
        // `flush()` is a no-op and an OS crash could lose acknowledged
        // records. `sync_data` forces the bytes (and the size metadata
        // needed to read them back) to stable storage.
        let Some(h) = self.active.get_mut(&group) else {
            return true; // nothing staged for the group
        };
        if !h.dirty {
            return true;
        }
        match h.file.sync_data() {
            Ok(()) => {
                h.dirty = false;
                self.stats.fsyncs += 1;
                true
            }
            Err(_) => false,
        }
    }

    fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
        self.evict(group, seq);
        let path = self.segment_path(group, seq);
        let run = |be: &mut Self| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&path)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            be.stats.fsyncs += 1;
            be.stats.bytes_written += bytes.len() as u64;
            be.sync_dir()
        };
        run(self).is_ok()
    }

    fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
        std::fs::read(self.segment_path(group, seq)).ok()
    }

    fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
        self.evict(group, seq);
        match std::fs::remove_file(self.segment_path(group, seq)) {
            Ok(()) => self.sync_dir().is_ok(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(_) => false,
        }
    }

    fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
        let tmp = self.dir.join("wal.manifest.tmp");
        let dst = self.dir.join("wal.manifest");
        let run = |be: &mut Self| -> std::io::Result<()> {
            {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(bytes)?;
                f.sync_all()?;
                be.stats.fsyncs += 1;
            }
            std::fs::rename(&tmp, &dst)?;
            be.sync_dir()
        };
        run(self).is_ok()
    }

    fn load_manifest(&mut self) -> Option<Vec<u8>> {
        // Only a confirmed NotFound means "fresh log". Any other read
        // error must surface as present-but-undecodable (empty bytes
        // never decode), routing the caller into scan recovery instead
        // of the orphan sweep that a "fresh" answer would license.
        match std::fs::read(self.dir.join("wal.manifest")) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(_) => Some(Vec::new()),
        }
    }

    fn list_segments(&mut self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(rest) = name
                .strip_prefix("wal-g")
                .and_then(|s| s.strip_suffix(".seg"))
            else {
                continue;
            };
            let Some((g, s)) = rest.split_once('-') else {
                continue;
            };
            if let (Ok(group), Ok(seq)) = (g.parse(), s.parse()) {
                out.push((group, seq));
            }
        }
        out.sort_unstable();
        out
    }

    fn io_stats(&self) -> WalIoStats {
        self.stats
    }

    fn prefers_writer_thread(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// The WAL manager
// ---------------------------------------------------------------------

/// What [`CommitWal::open_with_floor`] did: segment- and record-level
/// accounting of the load, the raw material for recovery reporting
/// ([`crate::pipeline::ReplayStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalLoadStats {
    /// Segments read and decoded.
    pub segments_scanned: u64,
    /// Segments skipped without reading: their `last_sn` sat below the
    /// snapshot-covered floor.
    pub segments_skipped: u64,
    /// Distinct records loaded into the mirror.
    pub records_loaded: u64,
    /// Records discarded because they sat below the floor (a straddling
    /// segment keeps covered records on disk until compaction).
    pub records_below_floor: u64,
    /// Records lost from a segment whose stream **tore mid-batch** (did
    /// not end at a batch trailer), measured against the manifest's
    /// last-published count (a lower bound of what was durably
    /// appended).
    pub records_torn: u64,
    /// Manifest-counted records missing from a segment whose stream ends
    /// **cleanly at a batch trailer**: every acknowledged batch is fully
    /// present, so the shortfall is a suffix that was absorbed into the
    /// metadata but never durably appended as part of an acknowledged
    /// batch (e.g. a failed write that already raised the durability
    /// alarm) — never-acknowledged records, no longer miscounted as
    /// torn.
    pub records_unacked_lost: u64,
    /// Scanned segments whose stream ended exactly at a batch trailer —
    /// a clean end of log (normal shutdown, or a crash strictly between
    /// batch flushes).
    pub segments_clean_end: u64,
    /// True when a manifest file existed but failed to decode (bit rot,
    /// a read error, another format generation), and the log was rebuilt
    /// by scanning every segment on disk. Data is preserved
    /// (nothing is swept as an orphan before the rebuilt log is
    /// published), but the skip-unread optimization is unavailable for
    /// this open and the event deserves operator attention.
    pub manifest_recovered: bool,
}

/// The writer back half of the commit log: owns the storage backend,
/// the live segment set (manifest mirror), segment rolls, and manifest
/// publication. In pipelined mode the whole struct shuttles to a
/// dedicated writer thread for each flush barrier and comes back with
/// the barrier's outcome; in simulation it stays on the caller and the
/// barrier runs inline.
struct WalBack {
    backend: Box<dyn WalBackend>,
    opts: WalOptions,
    /// The live segment set (manifest mirror), ascending `seq`.
    segments: Vec<SegmentMeta>,
    /// Next unused segment sequence number.
    next_seq: u64,
    /// Backend writes that reported failure. The in-memory mirror stays
    /// authoritative, and the next successful compaction rewrites the
    /// backend from it, repairing earlier losses — but a crash while this
    /// is nonzero may lose the affected records, so operators must treat
    /// it as a durability alarm.
    write_failures: u64,
}

/// One flush barrier's worth of staged records, in `sn` order, with
/// their encodings. Shuttles to the writer with its [`WalBack`] and is
/// recycled (cleared, capacity retained) once the barrier completes, so
/// staging never blocks on an in-flight flush and steady-state flushing
/// allocates nothing.
#[derive(Default)]
struct FlushJob {
    bytes: Vec<u8>,
    recs: Vec<WalRecord>,
}

/// The dedicated writer thread (pipelined mode only): receives
/// `(back, job)` per submitted barrier, runs the write+fsync barrier,
/// and sends `(back, job, ok)` home. Depth is at most one in flight —
/// the front cannot submit again until it completed the previous
/// barrier, because the back itself is on the writer.
struct WalWriter {
    submit: std::sync::mpsc::Sender<(WalBack, FlushJob)>,
    done: std::sync::mpsc::Receiver<(WalBack, FlushJob, bool)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A submitted-but-uncompleted flush barrier: the records it carries
/// are **not acknowledged** (absent from the mirror) until
/// [`CommitWal::complete_flush`] resolves the barrier token.
struct InFlightFlush {
    /// Records inside the barrier.
    len: usize,
    /// The last of them (what the dense-`sn` check needs while the job
    /// is away).
    last_sn: u64,
    /// Inline mode (simulation): the barrier already ran at submit time;
    /// its job and outcome are parked here so acknowledgement still
    /// happens at complete time — the pipeline observes the identical
    /// submit/apply structure in both modes, keeping seeded runs
    /// bit-deterministic. `None` in pipelined mode: the back and the job
    /// are on the writer thread, and completing blocks until it reports.
    done: Option<(FlushJob, bool)>,
}

/// The commit log: an in-memory mirror of the records past the last
/// snapshot, plus a segmented storage backend holding their encoding.
///
/// Split into a staging **front** (this struct: stage buffer, record
/// mirror, acknowledgement bookkeeping) and a writer **back**
/// (`WalBack`: the active segment, rolls, manifest publication). When
/// the backend [prefers a writer thread](WalBackend::prefers_writer_thread)
/// the back runs each flush barrier on a dedicated thread —
/// [`Self::submit_flush`] hands batch N to the writer and returns, and
/// batch N+1 stages into the second buffer while N's fsync is in
/// flight; [`Self::complete_flush`] resolves the barrier token,
/// acknowledges the batch into the mirror, and surfaces the barrier's
/// outcome. [`Self::flush`] remains the synchronous submit+complete
/// composition.
pub struct CommitWal {
    /// The writer back. `None` exactly while a pipelined flush is in
    /// flight (the back is on the writer thread).
    back: Option<WalBack>,
    /// Records currently in the log (ascending, dense `sn`).
    records: Vec<WalRecord>,
    /// Accounting of the open-time load.
    load_stats: WalLoadStats,
    /// Records staged for the next flush barrier: unacknowledged — they
    /// join the mirror only when their batch's barrier *completes*.
    stage: FlushJob,
    /// The dedicated writer thread (pipelined mode only).
    writer: Option<WalWriter>,
    /// The submitted-but-uncompleted barrier, if any (depth ≤ 1: the
    /// stage buffer is double-buffered, not N-buffered).
    inflight: Option<InFlightFlush>,
    /// The second stage buffer, recycled from the last completed
    /// barrier.
    spare: FlushJob,
    /// Backend I/O counters and write-failure count as of the last
    /// submit — what [`Self::io_stats`] / [`Self::write_failures`]
    /// report while the back is on the writer (counters reflect
    /// *completed* barriers; the in-flight one lands at complete).
    stats_at_submit: (WalIoStats, u64),
}

impl CommitWal {
    /// A WAL over `backend`, replaying whatever the backend already
    /// holds.
    pub fn open(backend: Box<dyn WalBackend>, opts: WalOptions) -> Self {
        Self::open_with_floor(backend, opts, 0)
    }

    /// [`Self::open`] with a snapshot-covered floor: segments whose
    /// `last_sn < floor` are skipped without reading (every record in
    /// them is covered by the snapshot the caller recovered), and loaded
    /// records below the floor are dropped from the mirror. The skipped
    /// segments stay in the manifest so a later [`Self::compact`] can
    /// delete them.
    pub fn open_with_floor(backend: Box<dyn WalBackend>, mut opts: WalOptions, floor: u64) -> Self {
        opts.segment_records = opts.segment_records.max(1);
        let mut stats = WalLoadStats::default();
        let mut back = WalBack {
            backend,
            opts,
            segments: Vec::new(),
            next_seq: 0,
            write_failures: 0,
        };
        // An *absent* manifest means a fresh log; a *present but
        // undecodable* one (bit rot, a read error, another format
        // generation) must NOT be treated the same — an empty
        // "authoritative" set would let the orphan sweep delete every
        // intact segment on disk. Fall back to scanning every segment of
        // the chain: every record survives, at the cost of reading
        // everything once.
        let manifest = back.backend.load_manifest();
        let decoded = manifest.as_deref().map(Manifest::decode);
        let live: Vec<SegmentMeta> = if matches!(decoded, Some(None)) {
            stats.manifest_recovered = true;
            let mut listed = back.backend.list_segments();
            listed.retain(|&(chain, _)| chain == CHAIN);
            back.next_seq = listed.iter().map(|&(_, seq)| seq + 1).max().unwrap_or(0);
            // Sealed (the true fill is unknown, and only one segment may
            // be active) and claiming a record past any floor, so the
            // floor-skip — which trusts the meta — never fires.
            let scanned = |(_, seq)| SegmentMeta {
                last_sn: u64::MAX,
                records: 1,
                sealed: true,
                ..SegmentMeta::fresh(seq)
            };
            listed.into_iter().map(scanned).collect()
        } else {
            let manifest = decoded.flatten().unwrap_or_default();
            back.next_seq = manifest.next_seq;
            back.segments = manifest.segments;
            // Files the manifest does not reference are leftovers of a
            // mid-compaction or mid-roll crash.
            back.sweep_orphans();
            std::mem::take(&mut back.segments)
        };

        // Load the live set, floor-skipping covered segments, and
        // re-derive each scanned segment's metadata from its actual
        // content (the active segment grew past its manifest entry;
        // corrupt tails shrink it).
        //
        // A process appends only to segments it created: every scanned
        // segment comes back **sealed** (and one holding no record is
        // dropped), so the next flush rolls a fresh file. Re-activating
        // the previous process's active segment would append behind
        // whatever a crash mid-append tore at its end — where no decode
        // ever reaches — and silently lose every later acknowledged
        // batch at the next restart; sealed, the torn bytes sit inert at
        // the end of an immutable file.
        let mut by_sn: BTreeMap<u64, WalRecord> = BTreeMap::new();
        let mut resealed = false;
        for meta in live {
            if meta.records > 0 && meta.last_sn < floor && meta.sealed {
                stats.segments_skipped += 1;
                back.segments.push(meta);
                continue;
            }
            stats.segments_scanned += 1;
            let bytes = back
                .backend
                .read_segment(CHAIN, meta.seq)
                .unwrap_or_default();
            let dec = decode_segment(&bytes);
            if dec.clean_end {
                stats.segments_clean_end += 1;
            }
            // The manifest's last-published count is a lower bound of
            // what was durably appended — for the active segment too
            // (its count is published at creation and at compaction
            // rewrite). Decoding fewer means records are missing; the
            // batch trailer says which kind: a stream that ends cleanly
            // at a trailer lost only a suffix that was never part of an
            // acknowledged batch (a failed write that already alarmed),
            // while a mid-batch tear is a genuine torn loss. Not
            // meaningful in manifest-recovery mode, where the counts
            // above are fabricated.
            let decoded = dec.records;
            if !stats.manifest_recovered && (decoded.len() as u32) < meta.records {
                let shortfall = (meta.records - decoded.len() as u32) as u64;
                if dec.clean_end {
                    stats.records_unacked_lost += shortfall;
                } else {
                    stats.records_torn += shortfall;
                }
            }
            let mut fresh = SegmentMeta {
                sealed: true,
                ..SegmentMeta::fresh(meta.seq)
            };
            for rec in decoded {
                fresh.absorb(&rec);
                if rec.sn < floor {
                    stats.records_below_floor += 1;
                } else {
                    by_sn.entry(rec.sn).or_insert(rec);
                }
            }
            resealed |= !meta.sealed || fresh.records == 0;
            if fresh.records > 0 {
                back.segments.push(fresh);
            }
        }

        // The mirror is the longest dense run from the lowest loaded sn:
        // a gap means a corrupt chain, and nothing past it can be
        // trusted to replay at the right position.
        let mut records: Vec<WalRecord> = Vec::with_capacity(by_sn.len());
        for (_, rec) in by_sn {
            if records.last().is_some_and(|last| last.sn + 1 != rec.sn) {
                break;
            }
            records.push(rec);
        }
        stats.records_loaded = records.len() as u64;

        // After a scan recovery, rewrite the whole mirror as one sealed
        // segment through the shared rotation and leave a decodable
        // manifest behind — the next open is a normal one. A crash or
        // failed write before the publish leaves every old file, so the
        // next open re-enters scan recovery with all data intact (the
        // partial new file simply joins the scan and deduplicates).
        if stats.manifest_recovered {
            let mut whole = Some(SegmentFate::Rewrite {
                first: 0,
                last: u64::MAX,
            });
            back.rotate_segments(&records, |_| whole.take().unwrap_or(SegmentFate::Delete));
        } else if resealed {
            // Publish the sealed set once, before anything is appended;
            // dropped (empty) segments become orphans only after it.
            if back.publish_manifest() {
                back.sweep_orphans();
            } else {
                back.write_failures += 1;
            }
        }
        let pipelined = back.backend.prefers_writer_thread();
        let mut wal = Self {
            back: Some(back),
            records,
            load_stats: stats,
            stage: FlushJob::default(),
            writer: None,
            inflight: None,
            spare: FlushJob::default(),
            stats_at_submit: (WalIoStats::default(), 0),
        };
        // The mirror ended at the first gap; whatever lies past it was
        // kept out of the mirror but still sits in live segments. It can
        // never replay, and left in storage it would shadow — the load
        // is `sn`-keyed, first wins — the records appended in its place
        // from here on, at the next open.
        if let Some(last) = wal.records.last().map(|r| r.sn) {
            wal.truncate_from(last + 1);
        }
        if pipelined {
            wal.spawn_writer();
        }
        wal
    }

    /// An empty in-memory WAL with default segment options.
    pub fn in_memory() -> Self {
        Self::in_memory_with(WalOptions::default())
    }

    /// An empty in-memory WAL with explicit segment options.
    pub fn in_memory_with(opts: WalOptions) -> Self {
        Self::open(Box::new(MemBackend::default()), opts)
    }

    /// Accounting of the open-time load (segment skips, torn tails).
    pub fn load_stats(&self) -> WalLoadStats {
        self.load_stats
    }

    /// The live segment set (manifest mirror). Only callable at rest —
    /// while a pipelined flush is in flight the segment set is on the
    /// writer thread; resolve the barrier ([`Self::complete_flush`] or
    /// [`Self::flush`]) first.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self
            .back
            .as_ref()
            .expect("segments(): flush barrier in flight; complete it first")
            .segments
    }

    /// Whether flush barriers run on a dedicated writer thread (File
    /// mode) rather than inline (simulation).
    pub fn pipelined(&self) -> bool {
        self.writer.is_some()
    }

    /// Appends one confirmed-block record durably: stage + flush as a
    /// batch of one (one write, one fsync). Callers with more than one
    /// record in hand should use [`Self::append_buffered`] +
    /// [`Self::flush`] so the fsync barrier amortizes over the batch.
    pub fn append(&mut self, rec: WalRecord) {
        self.append_buffered(rec);
        self.flush();
    }

    /// Stages one confirmed-block record for the next [`Self::flush`]:
    /// encodes it once, straight into the stage buffer. **No backend I/O
    /// happens here** — the record is unacknowledged (absent from
    /// [`Self::records`]) until its batch's flush returns, and a crash
    /// before that loses it by design.
    pub fn append_buffered(&mut self, rec: WalRecord) {
        debug_assert!(
            self.last_known_sn().is_none_or(|sn| sn + 1 == rec.sn),
            "WAL sns must be dense: {:?} then {}",
            self.last_known_sn(),
            rec.sn
        );
        rec.encode_into(&mut self.stage.bytes);
        self.stage.recs.push(rec);
    }

    /// The group-commit barrier, synchronous form: resolves any
    /// in-flight barrier, then submits and completes everything staged —
    /// [`Self::submit_flush`] + [`Self::complete_flush`] back to back.
    /// Returns `true` when every durable step (of both barriers)
    /// succeeded; on failure the records still enter the (authoritative)
    /// mirror and [`Self::write_failures`] is raised — same alarm
    /// discipline as every other durable write.
    ///
    /// Records staged but not yet flushed are **unacknowledged**: a crash
    /// in the stage→flush window loses exactly them and nothing else
    /// (previously flushed records sit behind their own barriers).
    pub fn flush(&mut self) -> bool {
        let mut ok = self.complete_flush().unwrap_or(true);
        if self.submit_flush() {
            ok &= self.complete_flush().expect("barrier just submitted");
        }
        ok
    }

    /// Submits everything staged as one flush barrier and returns
    /// without waiting for durability. In pipelined mode the write+fsync
    /// runs on the writer thread while the caller keeps working (new
    /// records stage into the second buffer); inline mode runs the
    /// barrier here but still parks the outcome, so the submit→complete
    /// structure is identical in both modes. The batch's records stay
    /// unacknowledged until [`Self::complete_flush`].
    ///
    /// Returns `false` (no barrier submitted) when nothing is staged. At
    /// most one barrier may be in flight: complete the previous one
    /// first.
    pub fn submit_flush(&mut self) -> bool {
        let Some(last) = self.stage.recs.last() else {
            return false;
        };
        assert!(
            self.inflight.is_none(),
            "submit_flush: a flush barrier is already in flight; complete it first"
        );
        let (len, last_sn) = (self.stage.recs.len(), last.sn);
        let job = std::mem::replace(&mut self.stage, std::mem::take(&mut self.spare));
        let mut back = self
            .back
            .take()
            .expect("back present when no barrier is in flight");
        self.stats_at_submit = (back.backend.io_stats(), back.write_failures);
        let done = match &self.writer {
            None => {
                let ok = back.flush_batch(&job);
                self.back = Some(back);
                Some((job, ok))
            }
            Some(w) => {
                w.submit
                    .send((back, job))
                    .expect("WAL writer thread is alive");
                None
            }
        };
        self.inflight = Some(InFlightFlush { len, last_sn, done });
        true
    }

    /// Resolves the in-flight barrier token: blocks until the writer
    /// reports (pipelined mode), acknowledges the batch's records into
    /// the mirror, and returns the barrier's outcome — `false` means a
    /// durable step failed and the caller must treat the batch as
    /// alarmed, not durable. Returns `None` when no barrier is in
    /// flight.
    pub fn complete_flush(&mut self) -> Option<bool> {
        let (mut job, ok) = match self.inflight.take()?.done {
            Some(done) => done,
            None => {
                let w = self.writer.as_ref().expect("in flight implies a writer");
                let (back, job, ok) = w.done.recv().expect("WAL writer thread died");
                self.back = Some(back);
                (job, ok)
            }
        };
        self.records.extend_from_slice(&job.recs);
        job.bytes.clear();
        job.recs.clear();
        self.spare = job;
        Some(ok)
    }

    /// True while a submitted barrier awaits [`Self::complete_flush`].
    pub fn has_inflight_flush(&self) -> bool {
        self.inflight.is_some()
    }

    /// Records inside the in-flight barrier, if any: submitted to the
    /// writer but not yet acknowledged.
    pub fn inflight_len(&self) -> usize {
        self.inflight.as_ref().map_or(0, |f| f.len)
    }

    /// Highest sn known to the front across all acknowledgement states:
    /// staged, in flight, or mirrored.
    fn last_known_sn(&self) -> Option<u64> {
        let staged = self.stage.recs.last().map(|r| r.sn);
        let inflight = self.inflight.as_ref().map(|f| f.last_sn);
        let acked = self.records.last().map(|r| r.sn);
        staged.or(inflight).or(acked)
    }

    fn spawn_writer(&mut self) {
        let (submit, submit_rx) = std::sync::mpsc::channel::<(WalBack, FlushJob)>();
        let (done_tx, done) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("ladon-wal-writer".into())
            .spawn(move || {
                while let Ok((mut back, job)) = submit_rx.recv() {
                    let ok = back.flush_batch(&job);
                    if done_tx.send((back, job, ok)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn WAL writer thread");
        self.writer = Some(WalWriter {
            submit,
            done,
            handle: Some(handle),
        });
    }

    /// Records staged by [`Self::append_buffered`] but not yet flushed —
    /// unacknowledged, and lost by a crash right now.
    pub fn staged_len(&self) -> usize {
        self.stage.recs.len()
    }

    /// The backend's deterministic I/O counters (writes, fsyncs, segment
    /// opens, bytes written). While a pipelined barrier is in flight
    /// this reports the counters as of its submission — completed
    /// barriers only, never a half-run one.
    pub fn io_stats(&self) -> WalIoStats {
        match &self.back {
            Some(back) => back.backend.io_stats(),
            None => self.stats_at_submit.0,
        }
    }

    /// Backend writes that reported failure since open (durability
    /// alarm). Same as-of-submission discipline as [`Self::io_stats`]
    /// while a barrier is in flight.
    pub fn write_failures(&self) -> u64 {
        match &self.back {
            Some(back) => back.write_failures,
            None => self.stats_at_submit.1,
        }
    }

    /// Records currently in the log.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Resolves the in-flight barrier, if any, and hands out the back,
    /// home from the writer, next to the mirror — what every rotation
    /// starts from. A rotation rewrites acknowledged records only:
    /// staged records stay staged and reach storage through a barrier
    /// of their own, so nothing is acknowledged here that the caller did
    /// not submit.
    fn settled(&mut self) -> (&mut WalBack, &mut Vec<WalRecord>) {
        let _ = self.complete_flush();
        let back = self
            .back
            .as_mut()
            .expect("back home once no barrier is in flight");
        (back, &mut self.records)
    }

    /// Drops records with `sn < upto` (they are covered by a snapshot).
    ///
    /// Storage-side this is the atomic segment rotation, never an
    /// in-place truncation:
    ///
    /// 1. fully covered segments are marked for deletion; the straddling
    ///    segment gets its surviving tail written to a *new* segment
    ///    file (fsynced);
    /// 2. a manifest naming the new live set is published atomically
    ///    (temp + fsync + rename + dir-fsync) — the commit point;
    /// 3. only then are the old files deleted.
    ///
    /// A crash (or a failed write) anywhere in the protocol leaves a
    /// readable log: before the commit point the old manifest still
    /// names the complete old set; after it the new manifest names the
    /// complete new set, and stale files are orphans the next open
    /// sweeps away. No step ever modifies a file the current manifest
    /// references.
    pub fn compact(&mut self, upto: u64) {
        let (back, records) = self.settled();
        let keep_from = records.partition_point(|r| r.sn < upto);
        let affected = back
            .segments
            .iter()
            .any(|s| s.records > 0 && s.first_sn < upto);
        if keep_from == 0 && !affected {
            return;
        }
        // Mirror first: it is authoritative regardless of storage luck.
        records.drain(..keep_from);
        back.rotate_segments(records, |meta| {
            if meta.records == 0 || meta.first_sn >= upto {
                SegmentFate::Keep
            } else if meta.last_sn < upto {
                SegmentFate::Delete
            } else {
                // Straddler: the surviving tail, capped at the
                // straddler's own range — later segments keep theirs.
                SegmentFate::Rewrite {
                    first: upto,
                    last: meta.last_sn,
                }
            }
        });
    }

    /// Re-pushes the authoritative mirror into the backend: every live
    /// segment with records is rewritten from mirrored records and a
    /// fresh manifest is published, under the same atomic rotation
    /// discipline as [`Self::compact`]. This is the repair step behind
    /// degraded-mode retries — after a run of failed barriers the
    /// backend is missing (or has torn) records the mirror still holds,
    /// and a successful rewrite makes every mirrored record durable
    /// again in one shot.
    ///
    /// Only acknowledged records are rewritten; a staged backlog is left
    /// for the caller's next barrier. Returns `true` when the whole
    /// repair (rewrite + manifest publish + old-file deletes) ran
    /// without a single backend failure; on `false` the old manifest
    /// still governs a readable log and the caller should retry later.
    pub fn repair_backend(&mut self) -> bool {
        let (back, records) = self.settled();
        let before = back.write_failures;
        back.rotate_segments(records, |meta| {
            if meta.records == 0 {
                SegmentFate::Keep
            } else {
                SegmentFate::Rewrite {
                    first: meta.first_sn,
                    last: meta.last_sn,
                }
            }
        });
        back.write_failures == before
    }

    /// Drops records with `sn >= from_sn` from the log — the unreplayable
    /// dangling suffix left when corruption opened a gap below it.
    /// Records the mirror no longer holds (covered, torn, or past the
    /// gap) are dropped with their segments.
    pub fn truncate_from(&mut self, from_sn: u64) {
        let (back, records) = self.settled();
        let cut = records.partition_point(|r| r.sn < from_sn);
        let affected = back
            .segments
            .iter()
            .any(|s| s.records > 0 && s.last_sn >= from_sn);
        if cut == records.len() && !affected {
            return;
        }
        records.truncate(cut);
        back.rotate_segments(records, |meta| {
            if meta.records == 0 || meta.last_sn < from_sn {
                SegmentFate::Keep
            } else if meta.first_sn >= from_sn {
                SegmentFate::Delete
            } else {
                SegmentFate::Rewrite {
                    first: meta.first_sn,
                    last: from_sn - 1,
                }
            }
        });
    }
}

impl Drop for CommitWal {
    fn drop(&mut self) {
        // Resolve any in-flight barrier so the writer is not mid-batch
        // when its channels close, then drop the submit side and join —
        // the writer loop exits on the hangup. Records staged but never
        // submitted are lost by design (same as a crash in the
        // stage→flush window).
        let _ = self.complete_flush();
        if let Some(WalWriter {
            submit,
            done,
            handle,
        }) = self.writer.take()
        {
            drop(submit);
            drop(done);
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

impl WalBack {
    /// The group-commit barrier body: writes the job's staged bytes with
    /// **one** backend write + **one** fsync (plus the amortized
    /// segment-roll bookkeeping when the batch crosses a roll). Runs on
    /// the writer thread in pipelined mode, inline otherwise; the front
    /// acknowledges the batch's records only once the outcome computed
    /// here resolves.
    fn flush_batch(&mut self, job: &FlushJob) -> bool {
        debug_assert_eq!(job.bytes.len(), job.recs.len() * ENCODED_RECORD_LEN);
        let mut failed = false;
        let mut sealed_any = false;
        let mut at = 0usize;
        while at < job.recs.len() {
            let idx = match self.segments.iter().position(|s| !s.sealed) {
                Some(idx) => idx,
                None => {
                    // Mid-batch roll: the just-sealed segment's staged
                    // bytes must be durable BEFORE a manifest naming its
                    // record count is published — the load path treats
                    // manifest counts as a lower bound of what was
                    // durably appended, and publishing first would turn
                    // an unacknowledged in-flight batch into a false
                    // `records_torn` alarm after a crash. (A no-op when
                    // nothing is staged, i.e. the roll opens the batch.)
                    if !self.backend.sync_group(CHAIN) {
                        failed = true;
                    }
                    // Roll a fresh active segment: create the (empty)
                    // file, then publish the manifest that references it
                    // — BEFORE any record bytes land in it. Appending
                    // first would open a crash window in which a
                    // durably-written record sits in a file the manifest
                    // never named, and the next open's orphan sweep
                    // would delete it. A crash between create and
                    // publish leaves only an ignorable empty orphan.
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    if !self.backend.write_segment(CHAIN, seq, &[]) {
                        failed = true;
                    }
                    self.segments.push(SegmentMeta::fresh(seq));
                    if !self.publish_manifest() {
                        failed = true;
                    }
                    self.segments.len() - 1
                }
            };
            // An unsealed segment is one this process rolled, and it
            // seals the moment it fills: there is always room.
            let room = self
                .opts
                .segment_records
                .saturating_sub(self.segments[idx].records) as usize;
            // Fixed-size encodings make the batch splittable at any
            // record boundary without re-encoding: one contiguous byte
            // range per (segment, run) straight from the stage buffer
            // (no concatenation copy), closed by the run's batch trailer
            // so the on-disk stream ends at an acknowledgement boundary
            // after every flush.
            let take = room.min(job.recs.len() - at);
            let range = at * ENCODED_RECORD_LEN..(at + take) * ENCODED_RECORD_LEN;
            let meta = &mut self.segments[idx];
            let trailer = trailer_bytes(meta.records + take as u32);
            if !self
                .backend
                .append_segment_batch(CHAIN, meta.seq, &job.bytes[range], &trailer)
            {
                failed = true;
            }
            for rec in &job.recs[at..at + take] {
                meta.absorb(rec);
            }
            if meta.records >= self.opts.segment_records {
                meta.sealed = true;
                sealed_any = true;
            }
            at += take;
        }
        // The durability barrier for everything the batch staged.
        if !self.backend.sync_group(CHAIN) {
            failed = true;
        }
        // Seal events only refresh metadata of already-referenced files;
        // deferring their publish to the end opens no sweep window.
        if sealed_any && !self.publish_manifest() {
            failed = true;
        }
        if failed {
            self.write_failures += 1;
        }
        !failed
    }

    /// The atomic segment rotation behind [`CommitWal::compact`],
    /// [`CommitWal::truncate_from`], [`CommitWal::repair_backend`] and
    /// scan recovery, never an in-place truncation:
    ///
    /// 1. each live segment is kept, dropped, or — when it straddles the
    ///    cut — has its surviving `first..=last` records rewritten (from
    ///    `records`, the front's mirror) to a *new* fsynced segment
    ///    file;
    /// 2. a manifest naming the new live set is published atomically
    ///    (temp + fsync + rename + dir-fsync) — the commit point;
    /// 3. only then is every chain-0 file the new set does not name
    ///    deleted.
    ///
    /// A crash (or a failed write) anywhere in the protocol leaves a
    /// readable log: before the commit point the old manifest still
    /// names the complete old set, which no step ever modifies; after it
    /// the new manifest names the complete new set, and stale files are
    /// orphans the next open sweeps away.
    fn rotate_segments(
        &mut self,
        records: &[WalRecord],
        mut fate: impl FnMut(&SegmentMeta) -> SegmentFate,
    ) {
        let mut ok = true;
        let mut new_segments: Vec<SegmentMeta> = Vec::with_capacity(self.segments.len());
        for meta in &self.segments {
            match fate(meta) {
                SegmentFate::Keep => new_segments.push(*meta),
                SegmentFate::Delete => {}
                SegmentFate::Rewrite { first, last } => {
                    let mut bytes = Vec::new();
                    let mut fresh = SegmentMeta::fresh(self.next_seq);
                    fresh.sealed = meta.sealed;
                    for rec in records.iter().filter(|r| (first..=last).contains(&r.sn)) {
                        rec.encode_into(&mut bytes);
                        fresh.absorb(rec);
                    }
                    self.next_seq += 1;
                    if fresh.records == 0 {
                        // Nothing survives (e.g. the mirror lost the
                        // range to corruption): just drop the segment.
                        continue;
                    }
                    // A rewrite is one acknowledged batch: close it with
                    // a trailer so the fresh stream ends cleanly.
                    bytes.extend_from_slice(&trailer_bytes(fresh.records));
                    if !self.backend.write_segment(CHAIN, fresh.seq, &bytes) {
                        ok = false;
                    }
                    new_segments.push(fresh);
                }
            }
        }
        if !ok {
            // New files did not all reach storage: abort the rotation.
            // The old manifest still names the complete old set, which
            // remains untouched on disk; the orphaned new files are
            // swept after the next rotation that commits, or on open.
            self.write_failures += 1;
            return;
        }

        // The commit point.
        new_segments.sort_unstable_by_key(|s| s.seq);
        self.segments = new_segments;
        if !self.publish_manifest() {
            // Old manifest still governs; old files still intact. Keep
            // the mirror authoritative and raise the alarm.
            self.write_failures += 1;
            return;
        }
        self.sweep_orphans();
    }

    /// Deletes every segment file of the chain that the live set — just
    /// loaded from, or just published as, the manifest — does not name:
    /// what a rotation replaced and leftovers of a crashed or aborted
    /// one. A file under another chain name is not this log's to delete.
    fn sweep_orphans(&mut self) {
        for (chain, seq) in self.backend.list_segments() {
            let orphan = chain == CHAIN && !self.segments.iter().any(|s| s.seq == seq);
            if orphan && !self.backend.delete_segment(chain, seq) {
                // Harmless (swept again next time), but surface it.
                self.write_failures += 1;
            }
        }
    }

    fn publish_manifest(&mut self) -> bool {
        let manifest = Manifest {
            next_seq: self.next_seq,
            segments: self.segments.clone(),
        };
        self.backend.publish_manifest(&manifest.encode())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A [`MemBackend`] whose storage survives the WAL that owns it, so
    /// tests can reopen "the same disk".
    #[derive(Clone, Default)]
    pub(crate) struct SharedMem(Arc<Mutex<MemBackend>>);

    impl WalBackend for SharedMem {
        fn append_segment_batch(
            &mut self,
            group: u32,
            seq: u64,
            records: &[u8],
            trailer: &[u8],
        ) -> bool {
            self.0
                .lock()
                .unwrap()
                .append_segment_batch(group, seq, records, trailer)
        }
        fn sync_group(&mut self, group: u32) -> bool {
            self.0.lock().unwrap().sync_group(group)
        }
        fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
            self.0.lock().unwrap().write_segment(group, seq, bytes)
        }
        fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
            self.0.lock().unwrap().read_segment(group, seq)
        }
        fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
            self.0.lock().unwrap().delete_segment(group, seq)
        }
        fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
            self.0.lock().unwrap().publish_manifest(bytes)
        }
        fn load_manifest(&mut self) -> Option<Vec<u8>> {
            self.0.lock().unwrap().load_manifest()
        }
        fn list_segments(&mut self) -> Vec<(u32, u64)> {
            self.0.lock().unwrap().list_segments()
        }
        fn io_stats(&self) -> WalIoStats {
            self.0.lock().unwrap().io_stats()
        }
    }

    fn rec(sn: u64) -> WalRecord {
        WalRecord {
            sn,
            instance: (sn % 4) as u32,
            round: sn / 4 + 1,
            rank: sn,
            first_tx: sn * 100,
            count: 7,
            bucket: 1,
            payload_bytes: 3500,
            payload_digest: Digest([sn as u8; 32]),
        }
    }

    fn opts(seg: u32) -> WalOptions {
        WalOptions {
            segment_records: seg,
            ..WalOptions::default()
        }
    }

    impl SharedMem {
        /// The stored bytes of segment `seq`.
        fn segment(&self, seq: u64) -> Vec<u8> {
            self.0.lock().unwrap().segments[&(CHAIN, seq)].clone()
        }
    }

    /// The stored segment of one flushed batch of records `0..n`: `n`
    /// records closed by one trailer.
    fn one_batch(n: u64) -> Vec<u8> {
        let disk = SharedMem::default();
        let mut wal = CommitWal::open(Box::new(disk.clone()), opts(1024));
        for sn in 0..n {
            wal.append_buffered(rec(sn));
        }
        assert!(wal.flush());
        disk.segment(0)
    }

    #[test]
    fn roundtrip_and_dense_append() {
        let disk = SharedMem::default();
        let mut wal = CommitWal::open(Box::new(disk.clone()), opts(1024));
        for sn in 0..10 {
            wal.append(rec(sn));
        }
        let dec = decode_segment(&disk.segment(0));
        assert_eq!(dec.records.len(), 10);
        assert_eq!(dec.records[3], rec(3));
        assert!(dec.clean_end);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut bytes = one_batch(5);
        bytes.truncate(bytes.len() - TRAILER_LEN - 3); // partial final record
        let dec = decode_segment(&bytes);
        assert_eq!(dec.records.len(), 4);
        assert!(!dec.clean_end);
    }

    #[test]
    fn corrupt_record_stops_the_replay() {
        let mut bytes = one_batch(5);
        bytes[2 * ENCODED_RECORD_LEN + 10] ^= 0xff; // flip a bit inside record 2
        let dec = decode_segment(&bytes);
        assert_eq!(dec.records.len(), 2, "replay must stop at the bad checksum");
        assert!(!dec.clean_end);
    }

    #[test]
    fn older_record_generations_are_rejected_at_decode() {
        let bytes = one_batch(3);
        assert_eq!(bytes.len(), 3 * ENCODED_RECORD_LEN + TRAILER_LEN);
        // Record 1 as generation 2 wrote its version byte, checksum
        // recomputed: well-formed, but not ours — the log ends before it.
        for version in [1, 2, WAL_VERSION + 1] {
            let mut other = bytes.clone();
            let body = ENCODED_RECORD_LEN + 4..2 * ENCODED_RECORD_LEN - 8;
            other[body.start] = version;
            let sum = Fnv64::new().write(&other[body.clone()]).finish();
            other[body.end..body.end + 8].copy_from_slice(&sum.to_le_bytes());
            let dec = decode_segment(&other);
            assert_eq!(dec.records, [rec(0)], "v{version}");
            assert!(!dec.clean_end);
        }
    }

    #[test]
    fn reopen_seals_what_it_finds_and_never_appends_behind_a_tear() {
        let disk = SharedMem::default();
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(8));
            for sn in 0..5 {
                wal.append(rec(sn));
            }
            assert!(wal.segments().iter().all(|s| !s.sealed));
        }
        // A crash mid-append: the active segment ends in a partial record.
        {
            let mut mem = disk.0.lock().unwrap();
            let seg = mem.segments.get_mut(&(CHAIN, 0)).unwrap();
            seg.truncate(seg.len() - 30);
        }
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(8));
            assert_eq!(wal.len(), 4);
            assert!(
                wal.segments().iter().all(|s| s.sealed),
                "a found segment is never appended to: {:?}",
                wal.segments()
            );
            for sn in 4..7 {
                wal.append(rec(sn));
            }
            assert_eq!(wal.write_failures(), 0);
            assert_eq!(wal.segments().len(), 2, "the first flush rolled");
        }
        let wal = CommitWal::open(Box::new(disk.clone()), opts(8));
        let sns: Vec<u64> = wal.records().iter().map(|r| r.sn).collect();
        assert_eq!(sns, (0..7).collect::<Vec<_>>());
        drop(wal);
        // A segment holding no record at all (the tear hit its first
        // append) is dropped rather than kept as a sealed husk.
        {
            let mut mem = disk.0.lock().unwrap();
            let last = *mem.segments.keys().max().unwrap();
            mem.segments.get_mut(&last).unwrap().truncate(10);
        }
        let wal = CommitWal::open(Box::new(disk.clone()), opts(8));
        assert_eq!(wal.len(), 4);
        assert_eq!(wal.segments().len(), 1);
        assert_eq!(wal.write_failures(), 0);
        assert_eq!(disk.0.lock().unwrap().segments.len(), 1, "husk swept");
    }

    #[test]
    fn records_past_a_gap_leave_storage_with_the_mirror() {
        let disk = SharedMem::default();
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(4));
            for sn in 0..12 {
                wal.append(rec(sn));
            }
        }
        // Rot record 5 (second of the middle segment): 8..=11 dangle.
        disk.0
            .lock()
            .unwrap()
            .segments
            .get_mut(&(CHAIN, 1))
            .unwrap()[ENCODED_RECORD_LEN + 20] ^= 0xff;
        let other = |sn: u64| WalRecord {
            first_tx: 1_000_000 + sn,
            ..rec(sn)
        };
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(4));
            assert_eq!(wal.len(), 5);
            assert!(
                wal.segments().iter().all(|s| s.last_sn <= 4),
                "stale segments must go: {:?}",
                wal.segments()
            );
            for sn in 5..10 {
                wal.append(other(sn));
            }
            assert_eq!(wal.write_failures(), 0);
        }
        let wal = CommitWal::open(Box::new(disk), opts(4));
        let expect: Vec<WalRecord> = (0..5).map(rec).chain((5..10).map(other)).collect();
        assert_eq!(
            wal.records(),
            expect,
            "no stale record may shadow or extend"
        );
    }

    #[test]
    fn repair_backend_rewrites_mirror_after_failed_barriers() {
        use crate::faults::{FaultBackend, FaultPlan};
        let disk = SharedMem::default();
        let plan = FaultPlan::unlimited();
        let mut wal = CommitWal::open(
            Box::new(FaultBackend::new(disk.clone(), plan.clone())),
            opts(4),
        );
        for sn in 0..6 {
            wal.append(rec(sn));
        }
        assert_eq!(wal.write_failures(), 0);
        // Disk fills: further appends alarm but stay in the mirror.
        let _ = plan.clone().enospc_after(0);
        for sn in 6..10 {
            wal.append(rec(sn));
        }
        assert!(wal.write_failures() > 0, "full disk must alarm");
        assert_eq!(wal.len(), 10, "mirror is authoritative regardless");
        assert!(
            !wal.repair_backend(),
            "repair against a still-full disk must report failure"
        );
        plan.free_space();
        assert!(wal.repair_backend(), "repair succeeds once space is freed");
        drop(wal);
        // The repaired on-disk log holds every mirrored record.
        let reopened = CommitWal::open(Box::new(disk), opts(4));
        assert_eq!(reopened.len(), 10);
        assert_eq!(reopened.records().last().unwrap().sn, 9);
    }

    #[test]
    fn segments_roll_and_reopen() {
        let disk = SharedMem::default();
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(4));
            for sn in 0..20 {
                wal.append(rec(sn));
            }
            assert!(
                wal.segments().iter().any(|s| s.sealed),
                "4-record segments must have sealed by 20 appends"
            );
        }
        let wal = CommitWal::open(Box::new(disk), opts(4));
        assert_eq!(wal.len(), 20, "reopen must load every segment losslessly");
        for (i, r) in wal.records().iter().enumerate() {
            assert_eq!(*r, rec(i as u64));
        }
    }

    #[test]
    fn compaction_drops_snapshotted_prefix() {
        let disk = SharedMem::default();
        let mut wal = CommitWal::open(Box::new(disk.clone()), opts(8));
        for sn in 0..20 {
            wal.append(rec(sn));
        }
        wal.compact(15);
        assert_eq!(wal.len(), 5);
        assert_eq!(wal.records()[0].sn, 15);
        // No live segment still reaches below the cut.
        assert!(wal
            .segments()
            .iter()
            .all(|s| s.records == 0 || s.first_sn >= 15));
        // Backend rewritten too: reopening sees only the tail.
        drop(wal);
        let reopened = CommitWal::open(Box::new(disk), opts(8));
        assert_eq!(
            reopened.records(),
            &(15..20).map(rec).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn open_with_floor_skips_covered_segments() {
        let disk = SharedMem::default();
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(4));
            for sn in 0..32 {
                wal.append(rec(sn));
            }
        }
        let wal = CommitWal::open_with_floor(Box::new(disk), opts(4), 24);
        let stats = wal.load_stats();
        assert!(
            stats.segments_skipped > 0,
            "sealed segments below the floor must be skipped unread: {stats:?}"
        );
        assert_eq!(wal.records().first().map(|r| r.sn), Some(24));
        assert_eq!(wal.len(), 8);
        assert_eq!(
            stats.records_loaded, 8,
            "only the tail is mirrored: {stats:?}"
        );
    }

    #[test]
    fn file_backend_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ladon-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(3));
            for sn in 0..8 {
                wal.append(rec(sn));
            }
        }
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(3));
        assert_eq!(wal.len(), 8);
        assert_eq!(wal.records()[7], rec(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_compaction_is_atomic_rename_and_delete() {
        let dir = std::env::temp_dir().join(format!("ladon-wal-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
        for sn in 0..20 {
            wal.append(rec(sn));
        }
        let before: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        wal.compact(18);
        assert_eq!(wal.write_failures(), 0);
        // Old segment files are gone; the manifest and the tail remain.
        let after: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(after.iter().any(|n| n == "wal.manifest"));
        assert!(!after.iter().any(|n| n.ends_with(".tmp")));
        assert!(
            after.iter().filter(|n| n.ends_with(".seg")).count()
                < before.iter().filter(|n| n.ends_with(".seg")).count(),
            "compaction must shrink the segment set: {before:?} -> {after:?}"
        );
        drop(wal);
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.records()[0].sn, 18);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_recovers_by_scan_and_loses_nothing() {
        let records: Vec<WalRecord> = (0..14).map(rec).collect();
        for damage in ["bit-rot", "v1"] {
            let dir = std::env::temp_dir()
                .join(format!("ladon-wal-badman-{damage}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let open = || CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(3));
            let mut wal = open();
            for rec in &records {
                wal.append(*rec);
            }
            drop(wal);
            let manifest_path = dir.join("wal.manifest");
            let mut bytes = std::fs::read(&manifest_path).unwrap();
            if damage == "v1" {
                // Another format generation, checksum and all.
                bytes[0] = 1;
                let end = bytes.len() - 8;
                let sum = Fnv64::new().write(&bytes[..end]).finish();
                bytes[end..].copy_from_slice(&sum.to_le_bytes());
            } else {
                // Bit-rot the manifest: one flipped byte must NOT read
                // as "empty authoritative set" (which would sweep every
                // segment as an orphan).
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
            }
            std::fs::write(&manifest_path, &bytes).unwrap();

            let wal = open();
            assert!(wal.load_stats().manifest_recovered, "{damage}");
            assert_eq!(
                wal.records(),
                records,
                "{damage}: scan recovery must preserve every record, once"
            );
            assert_eq!(
                wal.write_failures(),
                0,
                "{damage}: the storage rebuild itself must succeed"
            );
            drop(wal);
            // The rebuild left a decodable manifest and each record
            // stored once: the next open is normal and still holds
            // everything.
            let wal = open();
            assert!(!wal.load_stats().manifest_recovered, "{damage}");
            assert_eq!(wal.records(), records, "{damage}");
            let stored: u32 = wal.segments().iter().map(|s| s.records).sum();
            assert_eq!(stored, 14, "{damage}: {:?}", wal.segments());
            let names = FileBackend::open_dir(&dir).unwrap().list_segments();
            assert_eq!(names.len(), wal.segments().len(), "{damage}: {names:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn orphan_segments_are_swept_on_open() {
        let dir = std::env::temp_dir().join(format!("ladon-wal-orphan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
            for sn in 0..6 {
                wal.append(rec(sn));
            }
        }
        // A mid-compaction crash leaves a new-tail file the manifest
        // never came to reference.
        std::fs::write(dir.join(FileBackend::segment_name(0, 99)), b"garbage").unwrap();
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
        assert_eq!(wal.len(), 6, "orphans must not perturb the log");
        assert!(
            !dir.join(FileBackend::segment_name(0, 99)).exists(),
            "the orphan must be swept"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_from_preserves_sealed_and_drops_suffix() {
        let disk = SharedMem::default();
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(4));
            for sn in 0..10 {
                wal.append(rec(sn));
            }
            wal.truncate_from(6);
            assert_eq!(wal.len(), 6);
            assert_eq!(wal.write_failures(), 0);
            // A rewritten head of a sealed segment stays sealed: at most
            // one unsealed segment survives.
            let unsealed = wal.segments().iter().filter(|s| !s.sealed).count();
            assert!(unsealed <= 1, "{unsealed} unsealed: {:?}", wal.segments());
        }
        let wal = CommitWal::open(Box::new(disk), opts(4));
        let sns: Vec<u64> = wal.records().iter().map(|r| r.sn).collect();
        assert_eq!(sns, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn staged_records_are_unacknowledged_until_flush() {
        let mut wal = CommitWal::in_memory_with(opts(1024));
        wal.append_buffered(rec(0));
        wal.append_buffered(rec(1));
        assert_eq!(wal.len(), 0, "staged records must not be acknowledged");
        assert_eq!(wal.staged_len(), 2);
        assert!(wal.flush());
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.staged_len(), 0);
        assert_eq!(wal.records()[1], rec(1));
        // An empty flush is free: no records, no fsyncs.
        let before = wal.io_stats();
        assert!(wal.flush());
        assert_eq!(wal.io_stats(), before);
    }

    #[test]
    fn steady_state_barrier_is_one_write_and_one_fsync() {
        // Whatever the batch size, a barrier that crosses no segment
        // roll costs exactly one backend write and one fsync, and stores
        // each record once — inline over memory and on the writer thread
        // over files alike.
        let dir = std::env::temp_dir().join(format!("ladon-wal-steady-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backends: [(Box<dyn WalBackend>, bool); 2] = [
            (Box::new(MemBackend::default()), false),
            (Box::new(FileBackend::open_dir(&dir).unwrap()), true),
        ];
        for (backend, threaded) in backends {
            let mut wal = CommitWal::open(backend, opts(1024));
            assert_eq!(wal.pipelined(), threaded);
            // Warm batch: creates the active segment (the roll publishes
            // a manifest, which costs extra one-time fsyncs).
            wal.append(rec(0));
            let mut sn = 1u64;
            for k in [1u64, 4, 16, 64] {
                let s0 = wal.io_stats();
                for _ in 0..k {
                    wal.append_buffered(rec(sn));
                    sn += 1;
                }
                assert!(wal.flush());
                let s1 = wal.io_stats();
                assert_eq!(s1.appends - s0.appends, 1, "k={k}");
                assert_eq!(s1.fsyncs - s0.fsyncs, 1, "k={k}");
                assert_eq!(
                    s1.bytes_written - s0.bytes_written,
                    k * ENCODED_RECORD_LEN as u64 + TRAILER_LEN as u64,
                    "k={k}: each encoding lands once, plus one trailer"
                );
                assert_eq!(s1.segment_opens, s0.segment_opens);
            }
            assert_eq!(wal.write_failures(), 0);
            assert_eq!(wal.len() as u64, sn);
            assert_eq!(wal.segments().len(), 1);
            assert_eq!(wal.io_stats().segment_opens, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_splits_batches_across_segment_rolls() {
        // 10-record batches into 4-record segments: flush must split the
        // staged bytes across rolls without losing order or records.
        let disk = SharedMem::default();
        {
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(4));
            for batch in 0..3u64 {
                for i in 0..10 {
                    wal.append_buffered(rec(batch * 10 + i));
                }
                assert!(wal.flush());
            }
            assert_eq!(wal.write_failures(), 0);
            assert!(
                wal.segments().iter().filter(|s| s.sealed).count() >= 2,
                "10-record batches over 4-record segments must seal: {:?}",
                wal.segments()
            );
        }
        let wal = CommitWal::open(Box::new(disk), opts(4));
        assert_eq!(wal.len(), 30, "reopen must recover every flushed record");
        for (i, r) in wal.records().iter().enumerate() {
            assert_eq!(*r, rec(i as u64));
        }
    }

    #[test]
    fn batched_storage_decodes_identical_to_per_record_appends() {
        // The durable *records* must not depend on how appends were
        // batched (trailer density differs — per-record appends close
        // every record with its own trailer — so raw bytes legitimately
        // differ, but every segment decodes to the same record stream
        // and recovery is identical).
        let per_record = SharedMem::default();
        let batched = SharedMem::default();
        {
            let mut a = CommitWal::open(Box::new(per_record.clone()), opts(8));
            let mut b = CommitWal::open(Box::new(batched.clone()), opts(8));
            for sn in 0..30 {
                a.append(rec(sn));
            }
            for chunk in (0..30u64).collect::<Vec<_>>().chunks(7) {
                for &sn in chunk {
                    b.append_buffered(rec(sn));
                }
                assert!(b.flush());
            }
        }
        let a = per_record.0.lock().unwrap().segments.clone();
        let b = batched.0.lock().unwrap().segments.clone();
        let keys: Vec<(u32, u64)> = a.keys().copied().collect();
        assert_eq!(keys, b.keys().copied().collect::<Vec<_>>());
        for key in keys {
            let da = decode_segment(&a[&key]);
            let db = decode_segment(&b[&key]);
            assert_eq!(da.records, db.records, "segment {key:?} records differ");
            assert!(da.clean_end && db.clean_end, "both streams end cleanly");
        }
        let wa = CommitWal::open(Box::new(per_record), opts(8));
        let wb = CommitWal::open(Box::new(batched), opts(8));
        assert_eq!(wa.records(), wb.records());
    }

    #[test]
    fn trailer_classifies_torn_mid_batch_vs_clean_end() {
        let dir = std::env::temp_dir().join(format!("ladon-wal-trailer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
            for batch in 0..3u64 {
                for i in 0..4 {
                    wal.append_buffered(rec(batch * 4 + i));
                }
                assert!(wal.flush());
            }
        }
        // Healthy reopen: every scanned stream ends at a trailer.
        {
            let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
            let stats = wal.load_stats();
            assert_eq!(stats.records_torn, 0);
            assert_eq!(stats.records_unacked_lost, 0);
            assert_eq!(
                stats.segments_clean_end, stats.segments_scanned,
                "clean flushes must leave clean ends: {stats:?}"
            );
            assert_eq!(wal.len(), 12);
        }
        // Tear a sealed segment mid-batch (drop its trailing trailer plus
        // a few record bytes): the shortfall is acknowledged loss.
        let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        let victim = &segs[0];
        let bytes = std::fs::read(victim).unwrap();
        std::fs::write(victim, &bytes[..bytes.len() - TRAILER_LEN - 7]).unwrap();
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(4));
        let stats = wal.load_stats();
        assert!(
            stats.records_torn > 0,
            "a mid-batch tear of a counted segment is acknowledged loss: {stats:?}"
        );
        assert_eq!(stats.records_unacked_lost, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Storage whose staged appends fail (nothing lands, `false`
    /// reported) while an externally shared flag is raised — a transient
    /// write-error window without a crash. Syncs, rolls, and manifest
    /// publishes keep succeeding, so a later seal publishes the absorbed
    /// (inflated) record count.
    struct FailingAppends {
        inner: SharedMem,
        failing: Arc<std::sync::atomic::AtomicBool>,
    }

    impl WalBackend for FailingAppends {
        fn append_segment_batch(
            &mut self,
            group: u32,
            seq: u64,
            records: &[u8],
            trailer: &[u8],
        ) -> bool {
            if self.failing.load(std::sync::atomic::Ordering::SeqCst) {
                return false;
            }
            self.inner
                .append_segment_batch(group, seq, records, trailer)
        }
        fn sync_group(&mut self, group: u32) -> bool {
            self.inner.sync_group(group)
        }
        fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
            self.inner.write_segment(group, seq, bytes)
        }
        fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
            self.inner.read_segment(group, seq)
        }
        fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
            self.inner.delete_segment(group, seq)
        }
        fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
            self.inner.publish_manifest(bytes)
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
    }

    #[test]
    fn never_acknowledged_suffix_is_not_counted_as_torn() {
        // A failed append whose batch still seals into the manifest used
        // to read back as `records_torn` — but those records were never
        // acknowledged (the flush alarmed). The trailer proves the
        // stream ends at the previous acknowledgement boundary, so the
        // shortfall now lands in `records_unacked_lost`. The log ends at
        // the alarmed batch: no later batch lands behind it.
        let disk = SharedMem::default();
        let failing = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let backend = FailingAppends {
                inner: disk.clone(),
                failing: failing.clone(),
            };
            let mut wal = CommitWal::open(Box::new(backend), opts(4));
            for i in 0..2 {
                wal.append_buffered(rec(i));
            }
            assert!(wal.flush(), "first batch lands clean");
            failing.store(true, std::sync::atomic::Ordering::SeqCst);
            for i in 2..4 {
                wal.append_buffered(rec(i));
            }
            assert!(!wal.flush(), "the dropped append must alarm");
            assert_eq!(wal.write_failures(), 1);
        }
        let wal = CommitWal::open(Box::new(disk), opts(4));
        let stats = wal.load_stats();
        assert_eq!(
            stats.records_torn, 0,
            "never-acknowledged records must not read as torn: {stats:?}"
        );
        assert!(
            stats.records_unacked_lost > 0,
            "the alarmed suffix is classified unacknowledged: {stats:?}"
        );
        assert_eq!(wal.len(), 2, "the acknowledged prefix survives");
    }

    #[test]
    fn failed_write_without_crash_reopens_as_unacked_lost_never_torn() {
        // An alarmed failed write whose batch the NEXT seal publishes
        // (inflated count in the manifest) used to read back as
        // `records_torn` — but those records were never acknowledged
        // (the flush alarmed). The trailer proves the stream ends at the
        // previous acknowledgement boundary, so the shortfall reopens as
        // `records_unacked_lost`.
        let disk = SharedMem::default();
        let failing = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let backend = FailingAppends {
                inner: disk.clone(),
                failing: failing.clone(),
            };
            // segment_records = 4: the failed batch's absorbed records
            // fill and seal the segment, so the seal publishes the
            // inflated count.
            let mut wal = CommitWal::open(Box::new(backend), opts(4));
            wal.append_buffered(rec(0));
            wal.append_buffered(rec(1));
            assert!(wal.flush(), "first batch lands clean");
            failing.store(true, std::sync::atomic::Ordering::SeqCst);
            wal.append_buffered(rec(2));
            wal.append_buffered(rec(3));
            assert!(!wal.flush(), "the failed batch must alarm");
            assert_eq!(wal.write_failures(), 1);
            failing.store(false, std::sync::atomic::Ordering::SeqCst);
            wal.append_buffered(rec(4));
            wal.append_buffered(rec(5));
            assert!(wal.flush(), "post-alarm batch lands clean");
        }
        let wal = CommitWal::open(Box::new(disk), opts(4));
        let stats = wal.load_stats();
        assert_eq!(
            stats.records_torn, 0,
            "an alarmed failed write must never read as torn: {stats:?}"
        );
        assert_eq!(
            stats.records_unacked_lost, 2,
            "exactly the failed batch is lost: {stats:?}"
        );
        assert_eq!(
            wal.len(),
            2,
            "the acknowledged prefix below the gap survives"
        );
    }

    /// Storage that (a) asks for the writer thread and (b) gates every
    /// staged append on an external channel pair: the writer signals
    /// `entered` when it reaches the batch's append and blocks until
    /// `release` fires (a hung-up gate releases). Lets a test hold a
    /// barrier in flight at a deterministic point.
    pub(crate) struct GatedAppends {
        pub(crate) inner: SharedMem,
        pub(crate) entered: std::sync::mpsc::Sender<()>,
        pub(crate) release: std::sync::mpsc::Receiver<()>,
    }

    impl WalBackend for GatedAppends {
        fn append_segment_batch(
            &mut self,
            group: u32,
            seq: u64,
            records: &[u8],
            trailer: &[u8],
        ) -> bool {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            self.inner
                .append_segment_batch(group, seq, records, trailer)
        }
        fn sync_group(&mut self, group: u32) -> bool {
            self.inner.sync_group(group)
        }
        fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
            self.inner.write_segment(group, seq, bytes)
        }
        fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
            self.inner.read_segment(group, seq)
        }
        fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
            self.inner.delete_segment(group, seq)
        }
        fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
            self.inner.publish_manifest(bytes)
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
            true
        }
    }

    #[test]
    fn pipelined_barrier_overlaps_staging_and_acks_only_on_completion() {
        let disk = SharedMem::default();
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let mut wal = CommitWal::open(
            Box::new(GatedAppends {
                inner: disk.clone(),
                entered: entered_tx,
                release: release_rx,
            }),
            opts(1024),
        );
        assert!(wal.pipelined(), "the backend asked for the writer thread");
        wal.append_buffered(rec(0));
        wal.append_buffered(rec(1));
        let io_at_submit = wal.io_stats();
        assert!(wal.submit_flush());
        entered.recv().expect("writer reached the batch's append");
        // The barrier is provably in flight; nothing may be acknowledged.
        assert!(wal.has_inflight_flush());
        assert_eq!(wal.inflight_len(), 2);
        assert_eq!(wal.len(), 0, "no acknowledgement before durability");
        assert_eq!(wal.staged_len(), 0);
        // Double-buffered scratch: staging proceeds against the in-flight
        // barrier without blocking, and without acknowledging anything.
        wal.append_buffered(rec(2));
        assert_eq!(wal.staged_len(), 1);
        assert_eq!(wal.len(), 0);
        assert_eq!(
            wal.io_stats(),
            io_at_submit,
            "in-flight I/O reports as of submission: completed barriers only"
        );
        // Resolve the token: acknowledgement happens exactly here.
        release.send(()).unwrap();
        assert_eq!(wal.complete_flush(), Some(true));
        assert_eq!(wal.len(), 2);
        assert!(!wal.has_inflight_flush());
        // Drain the second batch through the same writer (the dropped
        // gate releases every later append immediately).
        drop(release);
        assert!(wal.flush());
        assert_eq!(wal.len(), 3);
        // Dropping the WAL resolves/joins the writer; the storage must
        // hold every acknowledged record.
        drop(wal);
        let reopened = CommitWal::open(Box::new(disk), opts(1024));
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.load_stats().records_torn, 0);
        assert_eq!(reopened.load_stats().records_unacked_lost, 0);
    }

    #[test]
    fn submit_complete_pair_is_flush_in_counts_and_content() {
        // The split barrier must cost exactly what the synchronous
        // composition costs: same backend op counts, same bytes, same
        // storage content.
        let run = |split: bool| -> (WalIoStats, BTreeMap<(u32, u64), Vec<u8>>) {
            let disk = SharedMem::default();
            let mut wal = CommitWal::open(Box::new(disk.clone()), opts(8));
            for batch in 0..4u64 {
                for i in 0..3u64 {
                    wal.append_buffered(rec(batch * 3 + i));
                }
                if split {
                    assert!(wal.submit_flush());
                    assert_eq!(wal.complete_flush(), Some(true));
                } else {
                    assert!(wal.flush());
                }
            }
            let segments = disk.0.lock().unwrap().segments.clone();
            (wal.io_stats(), segments)
        };
        let (io_split, bytes_split) = run(true);
        let (io_flush, bytes_flush) = run(false);
        assert_eq!(io_split, io_flush);
        assert_eq!(bytes_split, bytes_flush);
    }

    #[test]
    fn file_backend_opens_are_per_segment_not_per_append() {
        let dir = std::env::temp_dir().join(format!("ladon-wal-opens-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts(8));
        for sn in 0..64 {
            wal.append(rec(sn));
        }
        assert_eq!(wal.write_failures(), 0);
        let io = wal.io_stats();
        let segments = wal.segments().len() as u64;
        assert_eq!(
            io.segment_opens, segments,
            "each segment must be opened exactly once over its lifetime"
        );
        assert_eq!(io.appends, 64, "one staged write per batch-of-one");
        assert!(
            io.segment_opens < io.appends / 4,
            "open count must not scale with appends: {io:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
