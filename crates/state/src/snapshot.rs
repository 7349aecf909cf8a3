//! Epoch-aligned, content-addressed state snapshots.
//!
//! A [`Snapshot`] is kept the way it is shipped: a [`SnapshotHead`] —
//! the epoch, the execution position (`applied` confirmed blocks,
//! cumulative executed transactions), the consensus `frontier`, the
//! ordered **lane-root vector** of the sharded state
//! ([`crate::kv::KvState::lane_roots`]) and the *manifest root* all of it
//! hashes to — plus one [`SnapshotChunk`] per Merkle lane, in lane
//! order, holding that lane's canonical contents under the lane root the
//! head names. It has that one shape in memory, in `snap-*.bin` and on
//! the wire: capture buckets the state's one ascending pass by lane, a
//! responder serves `chunks[lane]`, an installer writes each chunk's
//! accounts into its pages — a lane is a shard of the root and the unit
//! of transfer, and nothing sorts entries on the way.
//!
//! The manifest root covers every field an installer acts on — epoch,
//! `applied`, `executed_txs`, `frontier`, and the lane roots (which
//! commit to the KV contents) — not just the entries: execution is
//! deterministic, so honest replicas completing the same epoch produce
//! identical manifests, and the checkpoint quorum's signature over the
//! root therefore attests to the metadata as much as to the state.
//! Snapshots are *content-addressed*: the root is recomputable from the
//! fields, so a receiver can verify a snapshot in isolation
//! ([`Snapshot::verify`]) and then check the root against the
//! quorum-signed `StableCheckpoint` before installing — a Byzantine peer
//! can serve a correct snapshot or nothing, and cannot splice a forged
//! `applied` or `frontier` onto genuine entries.
//!
//! # Transfer
//!
//! Each chunk is content-addressed by its **lane root** — a name the
//! quorum-signed head already commits to, so checking a chunk
//! ([`SnapshotChunk::verify`], one lane's root recomputed from its
//! entries) adds no new trust. A responder ships its snapshot whole, as
//! it holds it; the receiver hands it to `ExecutionPipeline::install`,
//! which runs [`Snapshot::verify`] once — the chunk count first, then
//! each lane — and installs all of it or nothing.
//!
//! The [`SnapshotStore`] retains the latest snapshot in memory and, when
//! given a directory, persists each snapshot to
//! `snap-<epoch>-<root8>.bin` and re-loads the newest on recovery.
//! Those are the only files it reads or writes: a peer's snapshot is
//! installed in the call that received it, so a fetched chunk never
//! outlives the response that carried it.

use crate::kv::{lane_of, lane_root_of, KvState};
use ladon_crypto::fnv::Fnv64;
use ladon_types::{sizes, Digest, WireSize, MERKLE_LANES};
use std::path::{Path, PathBuf};

/// Snapshot format version. v8 is the native form: the head, then the 64
/// lanes' entry runs in lane order, under manifest-root domain v4. Older
/// generations (a flat, globally sorted entry list and a descriptive
/// per-lane covered-sn vector under the signed root) hash to different
/// manifest roots, so none of them can match a checkpoint this
/// generation signs; they are rejected at decode, with no decode branch,
/// and a restarting replica that finds one falls back to peer sync
/// (counted in [`SnapshotStore::decode_failures`]).
const SNAP_VERSION: u8 = 8;

/// Computes the attested manifest root: a digest over the snapshot's
/// complete manifest — epoch, execution position, consensus frontier, and
/// the ordered lane-root vector of the sharded KV state. This is what
/// checkpoint quorums sign, so every one of these fields is authenticated
/// on install.
fn manifest_root(
    epoch: u64,
    applied: u64,
    executed_txs: u64,
    frontier: &[u64],
    lane_roots: &[Digest],
) -> Digest {
    let mut h = ladon_crypto::Sha256::new();
    h.update(b"ladon/snapshot-manifest/v4");
    h.update(&epoch.to_le_bytes());
    h.update(&applied.to_le_bytes());
    h.update(&executed_txs.to_le_bytes());
    h.update(&(frontier.len() as u64).to_le_bytes());
    for &r in frontier {
        h.update(&r.to_le_bytes());
    }
    h.update(&KvState::root_of_lane_roots(lane_roots).0);
    Digest(h.finalize())
}

/// Appends an entry run — count, then `(key, value)` pairs.
fn put_entries(out: &mut Vec<u8>, entries: &[(u32, u64)]) {
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for &(k, v) in entries {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends the FNV checksum of everything written so far.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let checksum = Fnv64::new().write(&out).finish();
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A read cursor over the payload of a [`seal`]ed encoding.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// Checks the version byte and the trailing checksum; the cursor
    /// starts past the version byte.
    fn open(bytes: &'a [u8], version: u8) -> Option<Self> {
        if bytes.len() < 1 + 8 || bytes[0] != version {
            return None;
        }
        let (payload, sum) = bytes.split_at(bytes.len() - 8);
        let expect = u64::from_le_bytes(sum.try_into().ok()?);
        (Fnv64::new().write(payload).finish() == expect).then_some(Self(&payload[1..]))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn digest(&mut self) -> Option<Digest> {
        Some(Digest(self.take(32)?.try_into().ok()?))
    }

    /// An entry run written by [`put_entries`]. The claimed count is
    /// checked against the bytes left before anything is allocated.
    fn entries(&mut self) -> Option<Vec<(u32, u64)>> {
        let len = self.u64()? as usize;
        if len > self.0.len() / 12 {
            return None;
        }
        (0..len).map(|_| Some((self.u32()?, self.u64()?))).collect()
    }
}

/// A snapshot's manifest head: every quorum-attested field, no contents.
/// [`SnapshotHead::verify`] recomputes the manifest root over the
/// metadata — it authenticates the *lane-root vector* (and the rest)
/// without holding any entries; [`Snapshot::verify`] then checks each
/// chunk against its lane root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHead {
    /// The epoch whose completion the snapshot captures.
    pub epoch: u64,
    /// Confirmed blocks applied (the next expected `sn`).
    pub applied: u64,
    /// Cumulative transactions executed.
    pub executed_txs: u64,
    /// Manifest root: digest over `epoch`, `applied`, `executed_txs`,
    /// `frontier`, and the state root folded from `lane_roots` (content
    /// address of the whole snapshot, and the root checkpoint quorums
    /// sign).
    pub root: Digest,
    /// Per-instance commit-round frontier at capture time (`frontier[i]`
    /// is instance `i`'s last committed round in the snapshotted prefix).
    /// Lets an installing replica fast-forward its consensus intake past
    /// the history the snapshot covers, not just its state machine.
    pub frontier: Vec<u64>,
    /// Ordered lane roots of the sharded state at capture time (length
    /// [`MERKLE_LANES`]) — the content addresses of the 64 chunks, and
    /// what an installer compares with its own state to see which lanes
    /// differ without rehashing anything.
    pub lane_roots: Vec<Digest>,
}

impl SnapshotHead {
    /// Recomputes the manifest root from the metadata and compares. A
    /// head that passes binds its lane-root vector under the root the
    /// quorum-signed checkpoint attests, which the chunks are then
    /// verified against. Forging `applied`, `frontier`
    /// or a lane root fails here; re-hashing around the forgery changes
    /// `root`, which then no longer matches the signed checkpoint.
    pub fn verify(&self) -> bool {
        self.lane_roots.len() == MERKLE_LANES as usize
            && manifest_root(
                self.epoch,
                self.applied,
                self.executed_txs,
                &self.frontier,
                &self.lane_roots,
            ) == self.root
    }

    /// The state root the lane-root vector folds to — what a replica's
    /// own [`KvState::root`] reports after installing the snapshot.
    pub fn state_root(&self) -> Digest {
        KvState::root_of_lane_roots(&self.lane_roots)
    }
}

impl WireSize for SnapshotHead {
    fn wire_size(&self) -> u64 {
        1 + 24
            + sizes::DIGEST
            + 8
            + self.frontier.len() as u64 * 8
            + 8
            + self.lane_roots.len() as u64 * sizes::DIGEST
    }
}

/// One Merkle lane's canonical contents, content-addressed by the lane
/// root the snapshot head already commits to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// The lane the chunk was captured from; pins [`Self::verify`]'s
    /// confinement check.
    pub lane: u32,
    /// The lane root: content address of `entries`, and the value at
    /// index `lane` of the head's lane-root vector.
    pub root: Digest,
    /// The lane's live entries, ascending key order, no zero values.
    pub entries: Vec<(u32, u64)>,
}

impl SnapshotChunk {
    /// Recomputes this one lane's root from the entries and compares,
    /// after checking canonical form: strictly ascending keys (no
    /// duplicates), no zero values, and every key confined to `lane` —
    /// without the confinement check a chunk could smuggle entries of
    /// *other* lanes past an empty lane's root. A verified chunk is
    /// exactly the content its root names; a Byzantine responder can
    /// serve correct chunks or nothing.
    pub fn verify(&self) -> bool {
        if self.lane >= MERKLE_LANES {
            return false;
        }
        let mut prev: Option<u32> = None;
        for &(k, v) in &self.entries {
            if v == 0 || lane_of(k) != self.lane as usize || prev.is_some_and(|p| p >= k) {
                return false;
            }
            prev = Some(k);
        }
        lane_root_of(&self.entries) == self.root
    }
}

impl WireSize for SnapshotChunk {
    fn wire_size(&self) -> u64 {
        1 + 4 + sizes::DIGEST + 8 + self.entries.len() as u64 * 12 + 8
    }
}

/// A frozen execution state at an epoch boundary, in its shipped form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The manifest: everything the checkpoint quorum signs.
    pub head: SnapshotHead,
    /// The contents, one chunk per Merkle lane in lane order:
    /// `chunks[l].lane == l` and `chunks[l].root == head.lane_roots[l]`
    /// ([`Self::verify`] checks both, and each chunk against its root).
    pub chunks: Vec<SnapshotChunk>,
}

impl Snapshot {
    /// Captures the current state of `kv` at `epoch`: one ascending pass
    /// over the state fills every lane's chunk in key order
    /// ([`KvState::lane_runs`]).
    pub fn capture(
        epoch: u64,
        applied: u64,
        executed_txs: u64,
        frontier: Vec<u64>,
        kv: &KvState,
    ) -> Self {
        let lane_roots = kv.lane_roots();
        let chunks = (0..MERKLE_LANES)
            .zip(kv.lane_runs())
            .map(|(lane, entries)| SnapshotChunk {
                lane,
                root: lane_roots[lane as usize],
                entries,
            })
            .collect();
        let root = manifest_root(epoch, applied, executed_txs, &frontier, &lane_roots);
        Self {
            head: SnapshotHead {
                epoch,
                applied,
                executed_txs,
                root,
                frontier,
                lane_roots,
            },
            chunks,
        }
    }

    /// [`SnapshotHead::verify`] plus every chunk verifying at its slot:
    /// lane `l`'s chunk sits at index `l`, carries the root the head
    /// names for `l`, and its entries recompute to it. Tampering with
    /// the entries *or* the metadata fails this check, and a chunk count
    /// other than 64 fails it before any chunk is hashed.
    pub fn verify(&self) -> bool {
        self.head.verify()
            && self.chunks.len() == self.head.lane_roots.len()
            && self.chunks.iter().enumerate().all(|(lane, c)| {
                c.lane as usize == lane && c.root == self.head.lane_roots[lane] && c.verify()
            })
    }

    /// Serializes to the versioned binary format: the head, then each
    /// lane's entry run in lane order (a chunk's lane and root are its
    /// position and the head's lane root), then the FNV checksum.
    pub fn encode(&self) -> Vec<u8> {
        let entries: usize = self.chunks.iter().map(|c| c.entries.len()).sum();
        let mut out = Vec::with_capacity(
            self.head.wire_size() as usize + self.chunks.len() * 8 + entries * 12 + 8,
        );
        out.push(SNAP_VERSION);
        out.extend_from_slice(&self.head.epoch.to_le_bytes());
        out.extend_from_slice(&self.head.applied.to_le_bytes());
        out.extend_from_slice(&self.head.executed_txs.to_le_bytes());
        out.extend_from_slice(&self.head.root.0);
        out.extend_from_slice(&(self.head.frontier.len() as u64).to_le_bytes());
        for &r in &self.head.frontier {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.head.lane_roots.len() as u64).to_le_bytes());
        for r in &self.head.lane_roots {
            out.extend_from_slice(&r.0);
        }
        for c in &self.chunks {
            put_entries(&mut out, &c.entries);
        }
        seal(out)
    }

    /// Deserializes, checking version, checksum and shape — exactly
    /// [`MERKLE_LANES`] lane roots, one entry run each, nothing after
    /// them — but not the
    /// roots; call [`Self::verify`] for that. Every older format
    /// generation is rejected here.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::open(bytes, SNAP_VERSION)?;
        let (epoch, applied, executed_txs) = (r.u64()?, r.u64()?, r.u64()?);
        let root = r.digest()?;
        let flen = r.u64()? as usize;
        if flen > 1 << 16 {
            return None;
        }
        let frontier = (0..flen).map(|_| r.u64()).collect::<Option<Vec<u64>>>()?;
        if r.u64()? != MERKLE_LANES as u64 {
            return None;
        }
        let lane_roots = (0..MERKLE_LANES)
            .map(|_| r.digest())
            .collect::<Option<Vec<Digest>>>()?;
        let chunks = (0..MERKLE_LANES)
            .map(|lane| {
                Some(SnapshotChunk {
                    lane,
                    root: lane_roots[lane as usize],
                    entries: r.entries()?,
                })
            })
            .collect::<Option<Vec<SnapshotChunk>>>()?;
        // Nothing may follow the last run: a snapshot has one encoding.
        if !r.0.is_empty() {
            return None;
        }
        Some(Self {
            head: SnapshotHead {
                epoch,
                applied,
                executed_txs,
                root,
                frontier,
                lane_roots,
            },
            chunks,
        })
    }

    /// Content-addressed file name: `snap-<epoch>-<root8>.bin`.
    pub fn file_name(&self) -> String {
        format!(
            "snap-{:08}-{}.bin",
            self.head.epoch,
            self.head.root.short_hex()
        )
    }

    /// The head and the 64 lane chunks apart — a clone of what is held.
    pub fn split(&self) -> (SnapshotHead, Vec<SnapshotChunk>) {
        (self.head.clone(), self.chunks.clone())
    }
}

/// The head plus every chunk: what a sync response carrying the
/// snapshot spends on it.
impl WireSize for Snapshot {
    fn wire_size(&self) -> u64 {
        self.head.wire_size() + self.chunks.iter().map(WireSize::wire_size).sum::<u64>()
    }
}

/// Holds the latest snapshot, optionally persisting each one to disk.
pub struct SnapshotStore {
    dir: Option<PathBuf>,
    latest: Option<Snapshot>,
    /// `snap-*.bin` files that failed to read, decode, or verify on
    /// recovery. A rotted newest snapshot silently drops the recovery
    /// floor to the previous epoch — this counter is the signal that it
    /// happened.
    decode_failures: u64,
}

impl SnapshotStore {
    /// In-memory store (simulation).
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            latest: None,
            decode_failures: 0,
        }
    }

    /// Disk-backed store rooted at `dir`; loads the newest existing
    /// snapshot (highest epoch, verified), if any. `snap-*.bin` files
    /// that fail to read, decode, or verify are skipped *and counted* in
    /// [`Self::decode_failures`]; any other file is neither read nor
    /// counted.
    pub fn at_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut best: Option<Snapshot> = None;
        let mut decode_failures = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("snap-") && name.ends_with(".bin") {
                match std::fs::read(&path)
                    .ok()
                    .and_then(|bytes| Snapshot::decode(&bytes))
                {
                    Some(snap) if snap.verify() => {
                        if best.as_ref().is_none_or(|b| snap.head.epoch > b.head.epoch) {
                            best = Some(snap);
                        }
                    }
                    _ => decode_failures += 1,
                }
            }
        }
        Ok(Self {
            dir: Some(dir),
            latest: best,
            decode_failures,
        })
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.latest.as_ref()
    }

    /// Recovery-time files that failed to read/decode/verify.
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }

    /// Records (and persists) a new snapshot; keeps only the newest two on
    /// disk, mirroring the pacemaker's checkpoint retention. Returns
    /// `false` when a disk-backed store failed to persist the snapshot —
    /// callers must then NOT discard whatever the snapshot was meant to
    /// replace (e.g. the WAL prefix it covers).
    pub fn put(&mut self, snap: Snapshot) -> bool {
        let mut persisted = true;
        if let Some(dir) = &self.dir {
            persisted = Self::persist(dir, &snap).is_ok();
            // Prune anything older than the previous epoch.
            if let Ok(rd) = std::fs::read_dir(dir) {
                for entry in rd.flatten() {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(epoch_str) =
                        name.strip_prefix("snap-").and_then(|s| s.split('-').next())
                    {
                        if let Ok(e) = epoch_str.parse::<u64>() {
                            if e + 1 < snap.head.epoch {
                                let _ = std::fs::remove_file(entry.path());
                            }
                        }
                    }
                }
            }
        }
        self.latest = Some(snap);
        persisted
    }

    /// Durably writes one snapshot: temp file + fsync + rename + dir
    /// fsync. The caller compacts the WAL behind the snapshot the moment
    /// this succeeds, so the bytes must be on stable storage before we
    /// return — an OS crash after compaction must still find the
    /// snapshot, or every block it covers becomes locally unrecoverable.
    fn persist(dir: &Path, snap: &Snapshot) -> std::io::Result<()> {
        use std::io::Write;
        let name = snap.file_name();
        let tmp = dir.join(format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&snap.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, dir.join(name))?;
        // Make the rename itself durable.
        std::fs::File::open(dir)?.sync_all()
    }
}

/// Full 64-hex rendering of a digest (the state crate's pinned roots).
#[cfg(test)]
pub(crate) fn hex32(d: &Digest) -> String {
    d.0.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::TxOp;

    fn sample_state() -> KvState {
        let mut kv = KvState::new();
        for k in 0..50u32 {
            kv.apply(&TxOp::Put {
                key: k * 7 % 64,
                value: (k as u64 + 1) * 3,
            });
        }
        kv
    }

    /// Rewrites the version byte and re-seals (a well-formed artifact of
    /// another format generation, not a corrupted one).
    fn with_version(mut bytes: Vec<u8>, version: u8) -> Vec<u8> {
        bytes.truncate(bytes.len() - 8);
        bytes[0] = version;
        seal(bytes)
    }

    #[test]
    fn encode_decode_roundtrip_verifies() {
        let kv = sample_state();
        let snap = Snapshot::capture(3, 120, 5000, vec![7, 9, 11], &kv);
        assert!(snap.verify());
        assert_eq!(snap.head.lane_roots.len(), MERKLE_LANES as usize);
        assert_eq!(snap.chunks.len(), MERKLE_LANES as usize);
        assert_eq!(snap.head.state_root(), kv.root());
        let decoded = Snapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(decoded, snap);
        assert!(decoded.verify());
        // Installing it rebuilds the captured state, lane by lane.
        let restored = KvState::from_lanes(decoded.chunks.iter().map(|c| c.entries.as_slice()));
        assert_eq!(restored, kv);
        assert_eq!(restored.lane_roots(), snap.head.lane_roots);
    }

    #[test]
    fn hostile_snapshot_bytes_never_panic_the_decoder() {
        use crate::wal::tests::mutate;
        let snap = Snapshot::capture(4, 200, 9000, vec![3, 5], &sample_state());
        let bytes = snap.encode();
        let mut seed = 8;
        let mut parsed = 0;
        for trial in 0..2000 {
            // Rot the checksum catches, and rewrites resealed past it
            // for the parser behind.
            let rotted = mutate(&bytes, &mut seed);
            let hostile = seal(mutate(&bytes[..bytes.len() - 8], &mut seed));
            assert!(
                Snapshot::decode(&rotted).is_none_or(|s| s == snap),
                "trial {trial}"
            );
            if let Some(s) = Snapshot::decode(&hostile) {
                parsed += 1;
                assert!(!s.verify() || s.encode() == hostile, "trial {trial}");
            }
        }
        assert!(parsed > 0, "some resealed rewrites reach a whole snapshot");
    }

    #[test]
    fn corruption_is_detected() {
        let snap = Snapshot::capture(1, 10, 100, vec![2], &sample_state());
        let mut bytes = snap.encode();
        bytes[40] ^= 1;
        assert!(Snapshot::decode(&bytes).is_none(), "checksum must catch it");
        // A tampered-but-rechecksummed snapshot fails the content check.
        let mut tampered = snap.clone();
        let victim = tampered.chunks.iter_mut().find(|c| !c.entries.is_empty());
        victim.unwrap().entries[0].1 += 1;
        assert!(!tampered.verify());
        assert!(Snapshot::decode(&tampered.encode()).is_some_and(|s| !s.verify()));
        // Chunks out of their slots fail it too.
        let mut swapped = snap.clone();
        swapped.chunks.swap(0, 1);
        assert!(!swapped.verify());
        let mut short = snap;
        short.chunks.pop();
        assert!(!short.verify());
    }

    #[test]
    fn other_generations_and_shapes_rejected_at_decode() {
        let snap = Snapshot::capture(1, 10, 100, vec![2], &sample_state());
        let bytes = snap.encode();
        assert!(Snapshot::decode(&with_version(bytes.clone(), SNAP_VERSION)).is_some());
        for version in [2, 7, SNAP_VERSION + 1] {
            assert!(
                Snapshot::decode(&with_version(bytes.clone(), version)).is_none(),
                "v{version} must be rejected"
            );
        }
        // A lane-root count other than 64, and an entry count the
        // payload cannot hold, are refused before anything is built.
        let lanes_at = 1 + 24 + 32 + 8 + 8;
        let mut hostile = bytes.clone();
        hostile[lanes_at..lanes_at + 8].copy_from_slice(&63u64.to_le_bytes());
        assert!(Snapshot::decode(&with_version(hostile, SNAP_VERSION)).is_none());
        let run_at = lanes_at + 8 + 64 * 32;
        let mut hostile = bytes.clone();
        hostile[run_at..run_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::decode(&with_version(hostile, SNAP_VERSION)).is_none());
        for cut in [0, 1, 8, 80, bytes.len() - 9] {
            assert!(Snapshot::decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn forged_metadata_fails_verification() {
        // The manifest root covers the metadata, so a Byzantine responder
        // cannot splice a forged `applied`/`frontier`/`executed_txs` onto
        // genuine entries: verify() catches the splice, and recomputing
        // the root around it would break the match with the quorum-signed
        // checkpoint root instead.
        let snap = Snapshot::capture(4, 200, 9000, vec![11, 13], &sample_state());
        assert!(snap.verify());
        let forge = |f: fn(&mut SnapshotHead)| {
            let mut forged = snap.clone();
            f(&mut forged.head);
            assert!(!forged.head.verify());
            assert!(!forged.verify());
        };
        forge(|h| h.applied = u64::MAX); // "skip all future blocks"
        forge(|h| h.frontier = vec![u64::MAX, u64::MAX]);
        forge(|h| h.executed_txs += 1);
        forge(|h| h.epoch += 1);
        forge(|h| h.lane_roots[0] = Digest([0xab; 32]));
        forge(|h| h.lane_roots.truncate(63));
    }

    #[test]
    fn split_roundtrips_byte_identically() {
        let kv = sample_state();
        let snap = Snapshot::capture(3, 120, 5000, vec![7, 9, 11], &kv);
        let (head, chunks) = snap.split();
        assert!(head.verify());
        assert_eq!(chunks.len(), MERKLE_LANES as usize);
        assert!(chunks.iter().all(SnapshotChunk::verify));
        assert_eq!(head.state_root(), snap.head.state_root());
        let rebuilt = Snapshot {
            head: head.clone(),
            chunks: chunks.clone(),
        };
        assert!(rebuilt.verify());
        assert_eq!(rebuilt.encode(), snap.encode(), "byte-identical wire form");
        // A missing lane — even an empty one — fails verification.
        for lane in [
            0,
            chunks.iter().position(|c| !c.entries.is_empty()).unwrap(),
        ] {
            let mut missing = chunks.clone();
            missing.remove(lane);
            let partial = Snapshot {
                head: head.clone(),
                chunks: missing,
            };
            assert!(!partial.verify(), "lane {lane} missing");
        }
    }

    #[test]
    fn chunk_verification_rejects_tampering() {
        let snap = Snapshot::capture(1, 10, 100, vec![2], &sample_state());
        let (head, chunks) = snap.split();
        let victim = chunks.iter().find(|c| c.entries.len() >= 2).unwrap();

        // Flipped value: root no longer matches the content.
        let mut forged = victim.clone();
        forged.entries[0].1 += 1;
        assert!(!forged.verify());

        // Relabeled lane: entries are confined to the wrong lane.
        let mut forged = victim.clone();
        forged.lane = (forged.lane + 1) % MERKLE_LANES;
        assert!(!forged.verify());
        forged.lane = MERKLE_LANES;
        assert!(!forged.verify());

        // Smuggling a foreign-lane entry past an *empty* lane's root:
        // the confinement check catches what the root alone cannot.
        let empty = chunks.iter().find(|c| c.entries.is_empty()).unwrap();
        let mut forged = empty.clone();
        forged.entries = victim.entries.clone();
        assert!(!forged.verify());

        // Duplicate keys / unsorted order / zero values break canonical
        // form.
        let mut forged = victim.clone();
        let first = forged.entries[0];
        forged.entries.insert(0, first);
        assert!(!forged.verify());
        let mut forged = victim.clone();
        forged.entries.swap(0, 1);
        assert!(!forged.verify());
        let mut forged = victim.clone();
        forged.entries[0].1 = 0;
        assert!(!forged.verify());

        // A tampered head no longer matches the manifest root.
        let mut forged_head = head.clone();
        forged_head.applied += 1;
        assert!(!forged_head.verify());
        let mut forged_head = head;
        forged_head.lane_roots[0] = Digest([0xab; 32]);
        assert!(!forged_head.verify());
    }

    #[test]
    fn corrupt_newest_snapshot_is_counted_not_silent() {
        let dir = std::env::temp_dir().join(format!("ladon-snap-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (old_name, new_name);
        {
            let mut store = SnapshotStore::at_dir(&dir).unwrap();
            let old = Snapshot::capture(1, 10, 100, vec![2], &sample_state());
            let new = Snapshot::capture(2, 20, 200, vec![4], &sample_state());
            old_name = old.file_name();
            new_name = new.file_name();
            store.put(old);
            store.put(new);
        }
        // Rot the newest file on disk.
        let path = dir.join(&new_name);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 1;
        std::fs::write(&path, bytes).unwrap();

        let store = SnapshotStore::at_dir(&dir).unwrap();
        // The floor silently dropped to the previous epoch — but the
        // drop is now counted, not silent.
        assert_eq!(store.latest().map(|s| s.head.epoch), Some(1));
        assert_eq!(store.decode_failures(), 1);
        assert!(dir.join(&old_name).exists());
        // A snapshot is not a cache: the rotted file is left for the
        // operator, and alarms again.
        assert!(path.exists());
        assert_eq!(SnapshotStore::at_dir(&dir).unwrap().decode_failures(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_recovers_newest() {
        let dir = std::env::temp_dir().join(format!("ladon-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = SnapshotStore::at_dir(&dir).unwrap();
            store.put(Snapshot::capture(1, 10, 100, vec![2], &sample_state()));
            store.put(Snapshot::capture(2, 20, 200, vec![4], &sample_state()));
        }
        let store = SnapshotStore::at_dir(&dir).unwrap();
        assert_eq!(store.latest().map(|s| s.head.epoch), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
