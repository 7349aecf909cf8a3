//! Epoch-aligned, content-addressed state snapshots.
//!
//! A [`Snapshot`] freezes the full canonical KV contents at an epoch
//! boundary together with the execution position (`applied` confirmed
//! blocks, cumulative executed transactions), the ordered **lane-root
//! vector** of the sharded state ([`crate::kv::KvState::lane_roots`]),
//! and the *manifest root* the whole snapshot hashes to. The root covers
//! every field an installer acts on — epoch, `applied`, `executed_txs`,
//! `frontier`, and the lane roots (which commit to the KV contents) —
//! not just the entries: execution is deterministic, so honest replicas
//! completing the same epoch produce identical manifests, and the
//! checkpoint quorum's signature over the root therefore attests to the
//! metadata as much as to the state. Snapshots are *content-addressed*:
//! the root is recomputable from the fields, so a receiver can verify a
//! snapshot in isolation ([`Snapshot::verify`]) and then check the root
//! against the quorum-signed `StableCheckpoint` before installing — a
//! Byzantine peer can serve a correct snapshot or nothing, and cannot
//! splice a forged `applied` or `frontier` onto genuine entries.
//!
//! # Chunked wire form (delta state sync)
//!
//! A snapshot also has a **chunked** wire form: [`Snapshot::split`]
//! decomposes it into a small [`SnapshotHead`] (every manifest field,
//! no entries) plus one [`SnapshotChunk`] per Merkle lane, each
//! content-addressed by its **lane root** — a name the quorum-signed
//! manifest already commits to, so per-chunk verification
//! ([`SnapshotChunk::verify`]) adds no new trust. A receiver that holds
//! *any* prior state can compare lane-root vectors ([`delta_lanes`]),
//! fetch only the lanes that changed, reconstruct the rest from local
//! state, and [`Snapshot::assemble`] a snapshot byte-identical to the
//! monolithic encode. Responders serve chunks from a [`ChunkCache`]
//! keyed by lane root, so an unchanged lane is encoded once ever —
//! dedupe across epochs falls out of content addressing.
//!
//! The [`SnapshotStore`] retains the latest snapshot in memory and, when
//! given a directory, persists each snapshot to
//! `snap-<epoch>-<root8>.bin` and re-loads the newest on recovery. It
//! also stashes verified in-flight chunks (as content-addressed
//! `chunk-<root>.bin` files when disk-backed) so a partially fetched
//! delta install survives a crash and resumes with only the missing
//! lanes.

use crate::kv::{lane_of, KvState};
use ladon_crypto::fnv::Fnv64;
use ladon_types::{sizes, Digest, WireSize, MERKLE_LANES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Snapshot format version. v5: the lane roots switched from the
/// addition-mod-p set hash to full multiplicative MuHash (lane-root
/// domain v3, [`crate::kv`]), so every root differs from v4 even though
/// the wire layout is unchanged. v4 and earlier snapshots hash
/// differently and would *silently* fail [`Snapshot::verify`] — which
/// `rebuild`'s `.filter(Snapshot::verify)` would treat as "no snapshot",
/// dropping the floor to 0 over a WAL already compacted past it — so
/// they are rejected at decode instead, and a restarting replica falls
/// back to peer sync rather than trusting a stale-format artifact.
/// (v4 itself added the per-lane covered-sn vector to the manifest.)
///
/// v6 marks the wave-scheduled executor's **semantics change** (PR 5):
/// execution is now read-your-writes — a same-block op observes earlier
/// cross-lane credits the old two-phase scheme deferred — so replaying
/// a WAL tail on top of a v5 (old-executor) snapshot would produce a
/// root that matches *neither* the pre-crash state nor an upgraded
/// cluster's re-execution, silently diverging from the quorum-signed
/// checkpoints. The wire layout is unchanged; v5 is rejected at decode
/// (same precedent as v4→v5) so a restarting replica falls back to
/// peer sync instead of mixing executor generations in one history.
///
/// v7 marks the **chunked wire-form generation** (delta state sync):
/// snapshots now also travel as per-lane chunks content-addressed by
/// their lane roots, the store persists partially fetched verified
/// chunks (`chunk-*.bin`) alongside snapshots, and install may
/// reconstruct a snapshot from local lanes plus remote chunks. A v6
/// artifact predates that accounting: a rolled-forward replica finding
/// one next to a chunk stash could adopt it as the resume baseline for
/// a delta fetch it never started, advertising lane roots it does not
/// hold. The monolithic wire layout itself is unchanged; v6 is rejected
/// at decode (the v4→v5→v6 precedent) so a restarting replica falls
/// back to peer sync rather than mixing sync generations in one
/// directory.
const SNAP_VERSION: u8 = 7;

/// Chunk-file format version (independent of [`SNAP_VERSION`]: chunks
/// are an on-disk/wire detail of the v7+ generation, named by content).
const CHUNK_VERSION: u8 = 1;

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
    lane_covered_sn: &[u64],
    lane_roots: &[Digest],
) -> Digest {
    let mut h = ladon_crypto::Sha256::new();
    h.update(b"ladon/snapshot-manifest/v3");
    h.update(&epoch.to_le_bytes());
    h.update(&applied.to_le_bytes());
    h.update(&executed_txs.to_le_bytes());
    h.update(&(frontier.len() as u64).to_le_bytes());
    for &r in frontier {
        h.update(&r.to_le_bytes());
    }
    h.update(&(lane_covered_sn.len() as u64).to_le_bytes());
    for &c in lane_covered_sn {
        h.update(&c.to_le_bytes());
    }
    h.update(&KvState::root_of_lane_roots(lane_roots).0);
    Digest(h.finalize())
}

/// A frozen execution state at an epoch boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The epoch whose completion this snapshot captures.
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
    /// Empty for state-only snapshots (HotStuff instances, whose commit
    /// height at epoch completion is not replica-deterministic).
    pub frontier: Vec<u64>,
    /// Per-lane covered-sn vector (length [`MERKLE_LANES`], or empty for
    /// snapshots captured outside a pipeline): `lane_covered_sn[l]` is
    /// one past the last `sn` whose ops routed to Merkle lane `l` at
    /// capture time (0 = the lane was never touched). Every lane is
    /// fully covered up to `applied` — this vector records how *stale*
    /// each lane is below that bar, which is what lets a recovering
    /// replica rebuild its per-lane ledger without replay and lets the
    /// storage layer reason about which WAL segments a lane still needs.
    /// Replica-deterministic (derived from the confirmed op stream), so
    /// it sits under the quorum-signed manifest root like every other
    /// field an installer acts on.
    pub lane_covered_sn: Vec<u64>,
    /// Ordered lane roots of the sharded state at capture time (length
    /// [`MERKLE_LANES`]). Redundant with `entries` — and checked against
    /// them on [`Self::verify`] — but shipped so an installer can audit
    /// which lanes differ from its own state without rehashing anything.
    pub lane_roots: Vec<Digest>,
    /// Canonical state contents, ascending key order, no zero values.
    pub entries: Vec<(u32, u64)>,
}

impl Snapshot {
    /// Captures the current state of `kv` at `epoch`. `lane_covered_sn`
    /// is the pipeline's per-lane dirtiness ledger (empty when the
    /// caller keeps none).
    pub fn capture(
        epoch: u64,
        applied: u64,
        executed_txs: u64,
        frontier: Vec<u64>,
        lane_covered_sn: Vec<u64>,
        kv: &KvState,
    ) -> Self {
        let lane_roots = kv.lane_roots();
        Self {
            epoch,
            applied,
            executed_txs,
            root: manifest_root(
                epoch,
                applied,
                executed_txs,
                &frontier,
                &lane_covered_sn,
                &lane_roots,
            ),
            frontier,
            lane_covered_sn,
            lane_roots,
            entries: kv.entries().collect(),
        }
    }

    /// Recomputes the lane roots from the entries and the manifest root
    /// from every field, and compares. Tampering with the entries *or*
    /// the metadata (`applied`, `frontier`, `lane_roots`, …) fails this
    /// check; re-hashing around the tampering instead changes `root`,
    /// which then no longer matches the quorum-signed checkpoint root.
    pub fn verify(&self) -> bool {
        let computed = KvState::from_entries(self.entries.iter().copied()).lane_roots();
        computed == self.lane_roots
            && manifest_root(
                self.epoch,
                self.applied,
                self.executed_txs,
                &self.frontier,
                &self.lane_covered_sn,
                &self.lane_roots,
            ) == self.root
    }

    /// The state root the lane-root vector folds to — what a replica's
    /// own [`KvState::root`] reports after installing this snapshot.
    pub fn state_root(&self) -> Digest {
        KvState::root_of_lane_roots(&self.lane_roots)
    }

    /// Serializes to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1 + 8 * 3
                + 32
                + 8
                + self.frontier.len() * 8
                + 8
                + self.lane_covered_sn.len() * 8
                + 8
                + self.lane_roots.len() * 32
                + 8
                + self.entries.len() * 12
                + 8,
        );
        out.push(SNAP_VERSION);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.applied.to_le_bytes());
        out.extend_from_slice(&self.executed_txs.to_le_bytes());
        out.extend_from_slice(&self.root.0);
        out.extend_from_slice(&(self.frontier.len() as u64).to_le_bytes());
        for &r in &self.frontier {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.lane_covered_sn.len() as u64).to_le_bytes());
        for &c in &self.lane_covered_sn {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(self.lane_roots.len() as u64).to_le_bytes());
        for r in &self.lane_roots {
            out.extend_from_slice(&r.0);
        }
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for &(k, v) in &self.entries {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = Fnv64::new().write(&out).finish();
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserializes, checking version and checksum (not the root; call
    /// [`Self::verify`] for that). v2 and earlier formats are rejected
    /// here — their roots have different semantics.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 1 + 24 + 32 + 8 + 8 + 8 || bytes[0] != SNAP_VERSION {
            return None;
        }
        let (payload, sum) = bytes.split_at(bytes.len() - 8);
        let expect = u64::from_le_bytes(sum.try_into().ok()?);
        if Fnv64::new().write(payload).finish() != expect {
            return None;
        }
        let mut at = 1usize;
        let mut take = |n: usize| {
            let s = payload.get(at..at + n)?;
            at += n;
            Some(s)
        };
        let epoch = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let applied = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let executed_txs = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let mut root = [0u8; 32];
        root.copy_from_slice(take(32)?);
        let flen = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
        if flen > 1 << 16 {
            return None;
        }
        let mut frontier = Vec::with_capacity(flen);
        for _ in 0..flen {
            frontier.push(u64::from_le_bytes(take(8)?.try_into().ok()?));
        }
        let clen = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
        if clen > 4 * MERKLE_LANES as usize {
            return None;
        }
        let mut lane_covered_sn = Vec::with_capacity(clen);
        for _ in 0..clen {
            lane_covered_sn.push(u64::from_le_bytes(take(8)?.try_into().ok()?));
        }
        let llen = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
        if llen > 4 * MERKLE_LANES as usize {
            return None;
        }
        let mut lane_roots = Vec::with_capacity(llen);
        for _ in 0..llen {
            let mut r = [0u8; 32];
            r.copy_from_slice(take(32)?);
            lane_roots.push(Digest(r));
        }
        let len = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
        let mut entries = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let k = u32::from_le_bytes(take(4)?.try_into().ok()?);
            let v = u64::from_le_bytes(take(8)?.try_into().ok()?);
            entries.push((k, v));
        }
        Some(Self {
            epoch,
            applied,
            executed_txs,
            root: Digest(root),
            frontier,
            lane_covered_sn,
            lane_roots,
            entries,
        })
    }

    /// Content-addressed file name: `snap-<epoch>-<root8>.bin`.
    pub fn file_name(&self) -> String {
        format!("snap-{:08}-{}.bin", self.epoch, self.root.short_hex())
    }

    /// The manifest head: every field of this snapshot except the
    /// entries (those travel as per-lane chunks).
    pub fn head(&self) -> SnapshotHead {
        SnapshotHead {
            epoch: self.epoch,
            applied: self.applied,
            executed_txs: self.executed_txs,
            root: self.root,
            frontier: self.frontier.clone(),
            lane_covered_sn: self.lane_covered_sn.clone(),
            lane_roots: self.lane_roots.clone(),
        }
    }

    /// Decomposes into the chunked wire form: the manifest head plus one
    /// chunk per Merkle lane, each named by its lane root. Entries stay
    /// in ascending key order within each chunk (they were globally
    /// sorted), so [`Self::assemble`] round-trips byte-identically.
    pub fn split(&self) -> (SnapshotHead, Vec<SnapshotChunk>) {
        let mut buckets: Vec<Vec<(u32, u64)>> = vec![Vec::new(); MERKLE_LANES as usize];
        for &(k, v) in &self.entries {
            buckets[lane_of(k)].push((k, v));
        }
        let chunks = buckets
            .into_iter()
            .enumerate()
            .map(|(lane, entries)| SnapshotChunk {
                lane: lane as u32,
                root: self.lane_roots[lane],
                entries,
            })
            .collect();
        (self.head(), chunks)
    }

    /// Reconstructs a monolithic snapshot from a head plus chunks.
    /// Chunks are matched to lanes **by root** (content addressing: two
    /// empty lanes share one root and therefore one chunk); every lane
    /// of the head must be satisfied. Returns `None` when a lane has no
    /// matching chunk. The result's encode is byte-identical to the
    /// snapshot [`Self::split`] started from — callers still run
    /// [`Self::verify`] on it, which re-derives every lane root from
    /// the merged entries.
    pub fn assemble(head: SnapshotHead, chunks: &[SnapshotChunk]) -> Option<Snapshot> {
        if head.lane_roots.len() != MERKLE_LANES as usize {
            return None;
        }
        let by_root: BTreeMap<Digest, &SnapshotChunk> =
            chunks.iter().map(|c| (c.root, c)).collect();
        let mut entries: Vec<(u32, u64)> = Vec::new();
        for root in &head.lane_roots {
            entries.extend_from_slice(&by_root.get(root)?.entries);
        }
        entries.sort_unstable_by_key(|&(k, _)| k);
        Some(Snapshot {
            epoch: head.epoch,
            applied: head.applied,
            executed_txs: head.executed_txs,
            root: head.root,
            frontier: head.frontier,
            lane_covered_sn: head.lane_covered_sn,
            lane_roots: head.lane_roots,
            entries,
        })
    }
}

/// The lanes of `snap_roots` whose content differs from `have_roots` —
/// the chunks a delta sync must actually ship. A missing or
/// wrong-length advertisement means nothing can be reused: every lane
/// differs.
pub fn delta_lanes(snap_roots: &[Digest], have_roots: &[Digest]) -> Vec<u32> {
    (0..snap_roots.len() as u32)
        .filter(|&l| have_roots.get(l as usize) != Some(&snap_roots[l as usize]))
        .collect()
}

/// A snapshot's manifest head: every quorum-attested field except the
/// entries. [`SnapshotHead::verify`] recomputes the manifest root over
/// the metadata — it authenticates the *lane-root vector* (and the
/// rest) without holding any contents, and each arriving chunk is then
/// verified against its lane root independently. Head verification plus
/// per-chunk verification together check exactly what
/// [`Snapshot::verify`] checks on the assembled whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHead {
    /// See [`Snapshot::epoch`].
    pub epoch: u64,
    /// See [`Snapshot::applied`].
    pub applied: u64,
    /// See [`Snapshot::executed_txs`].
    pub executed_txs: u64,
    /// Manifest root (what checkpoint quorums sign).
    pub root: Digest,
    /// See [`Snapshot::frontier`].
    pub frontier: Vec<u64>,
    /// See [`Snapshot::lane_covered_sn`].
    pub lane_covered_sn: Vec<u64>,
    /// Ordered lane roots — the content addresses of the 64 chunks.
    pub lane_roots: Vec<Digest>,
}

impl SnapshotHead {
    /// Recomputes the manifest root from the metadata and compares. A
    /// head that passes binds its lane-root vector under the root the
    /// quorum-signed checkpoint attests — chunks can then be verified
    /// against those roots one at a time.
    pub fn verify(&self) -> bool {
        self.lane_roots.len() == MERKLE_LANES as usize
            && manifest_root(
                self.epoch,
                self.applied,
                self.executed_txs,
                &self.frontier,
                &self.lane_covered_sn,
                &self.lane_roots,
            ) == self.root
    }

    /// The state root the lane-root vector folds to.
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
            + self.lane_covered_sn.len() as u64 * 8
            + 8
            + self.lane_roots.len() as u64 * sizes::DIGEST
    }
}

/// One Merkle lane's canonical contents, content-addressed by the lane
/// root the snapshot manifest already commits to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// The lane the chunk was captured from. Matching at assembly time
    /// is by `root`, not by this index — empty lanes share one root and
    /// one chunk — but the index pins [`Self::verify`]'s confinement
    /// check.
    pub lane: u32,
    /// The lane root: SHA-256 content address of `entries`, and the
    /// value at index `lane` of the manifest's lane-root vector.
    pub root: Digest,
    /// The lane's live entries, ascending key order, no zero values.
    pub entries: Vec<(u32, u64)>,
}

impl SnapshotChunk {
    /// Recomputes the lane root from the entries and compares, after
    /// checking canonical form: strictly ascending keys (no
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
        KvState::from_entries(self.entries.iter().copied()).lane_roots()[self.lane as usize]
            == self.root
    }

    /// Serializes to the versioned chunk-file format (version byte,
    /// lane, root, entries, FNV checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 4 + 32 + 8 + self.entries.len() * 12 + 8);
        out.push(CHUNK_VERSION);
        out.extend_from_slice(&self.lane.to_le_bytes());
        out.extend_from_slice(&self.root.0);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for &(k, v) in &self.entries {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = Fnv64::new().write(&out).finish();
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserializes, checking version and checksum (not the root; call
    /// [`Self::verify`] for that).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 1 + 4 + 32 + 8 + 8 || bytes[0] != CHUNK_VERSION {
            return None;
        }
        let (payload, sum) = bytes.split_at(bytes.len() - 8);
        let expect = u64::from_le_bytes(sum.try_into().ok()?);
        if Fnv64::new().write(payload).finish() != expect {
            return None;
        }
        let mut at = 1usize;
        let mut take = |n: usize| {
            let s = payload.get(at..at + n)?;
            at += n;
            Some(s)
        };
        let lane = u32::from_le_bytes(take(4)?.try_into().ok()?);
        let mut root = [0u8; 32];
        root.copy_from_slice(take(32)?);
        let len = u64::from_le_bytes(take(8)?.try_into().ok()?) as usize;
        let mut entries = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let k = u32::from_le_bytes(take(4)?.try_into().ok()?);
            let v = u64::from_le_bytes(take(8)?.try_into().ok()?);
            entries.push((k, v));
        }
        Some(Self {
            lane,
            root: Digest(root),
            entries,
        })
    }

    /// Content-addressed file name: `chunk-<root-hex>.bin`. Purely by
    /// root — identical content (e.g. every empty lane) dedupes to one
    /// file.
    pub fn file_name(&self) -> String {
        format!("chunk-{}.bin", hex32(&self.root))
    }
}

impl WireSize for SnapshotChunk {
    fn wire_size(&self) -> u64 {
        1 + 4 + sizes::DIGEST + 8 + self.entries.len() as u64 * 12 + 8
    }
}

/// Full 64-hex rendering of a digest (chunk file names; collisions in
/// the 8-hex prefix used for snapshot names would be harmless there but
/// not for content addressing).
pub(crate) fn hex32(d: &Digest) -> String {
    d.0.iter().map(|b| format!("{b:02x}")).collect()
}

/// A responder-side cache of encoded chunks keyed by lane root.
///
/// Content addressing makes this a dedupe across epochs for free: when
/// a new snapshot dirties `k` of the 64 lanes, [`ChunkCache::prime`]
/// builds exactly `k` new chunks — the other lane roots are already
/// resident, so unchanged lanes are never re-encoded, per request *or*
/// per epoch. [`ChunkCache::retain`] prunes at checkpoint time to the
/// latest snapshot's roots.
#[derive(Default)]
pub struct ChunkCache {
    chunks: BTreeMap<Digest, SnapshotChunk>,
    encodes: u64,
    hits: u64,
}

impl ChunkCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures every lane of `snap` has a resident chunk, building only
    /// the missing ones (one pass over the entries, bucketing only keys
    /// whose lane is missing). Returns how many chunks were built.
    pub fn prime(&mut self, snap: &Snapshot) -> u64 {
        let missing: Vec<bool> = snap
            .lane_roots
            .iter()
            .map(|r| !self.chunks.contains_key(r))
            .collect();
        if !missing.iter().any(|&m| m) {
            return 0;
        }
        let mut buckets: Vec<Vec<(u32, u64)>> = vec![Vec::new(); MERKLE_LANES as usize];
        for &(k, v) in &snap.entries {
            let lane = lane_of(k);
            if missing[lane] {
                buckets[lane].push((k, v));
            }
        }
        let mut built = 0u64;
        for (lane, entries) in buckets.into_iter().enumerate() {
            if !missing[lane] {
                continue;
            }
            let root = snap.lane_roots[lane];
            // Two empty lanes share a root; count the build once.
            if self
                .chunks
                .insert(
                    root,
                    SnapshotChunk {
                        lane: lane as u32,
                        root,
                        entries,
                    },
                )
                .is_none()
            {
                built += 1;
            }
        }
        self.encodes += built;
        built
    }

    /// The chunk named by `root`, if resident (counts a serve hit).
    pub fn get(&mut self, root: &Digest) -> Option<&SnapshotChunk> {
        let found = self.chunks.get(root);
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Drops every chunk whose root is not in `keep` (checkpoint-time
    /// pruning to the latest snapshot's lane roots).
    pub fn retain(&mut self, keep: &[Digest]) {
        self.chunks.retain(|root, _| keep.contains(root));
    }

    /// Chunks built since construction (the "unchanged lanes are never
    /// re-encoded" gate counts exactly this).
    pub fn encodes(&self) -> u64 {
        self.encodes
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Resident chunk count.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

impl WireSize for Snapshot {
    fn wire_size(&self) -> u64 {
        1 + 24
            + sizes::DIGEST
            + 8
            + self.frontier.len() as u64 * 8
            + 8
            + self.lane_covered_sn.len() as u64 * 8
            + 8
            + self.lane_roots.len() as u64 * sizes::DIGEST
            + 8
            + self.entries.len() as u64 * 12
            + 8
    }
}

/// Holds the latest snapshot, optionally persisting each one to disk.
/// Also stashes verified in-flight delta-sync chunks so a partially
/// fetched install survives a restart.
pub struct SnapshotStore {
    dir: Option<PathBuf>,
    latest: Option<Snapshot>,
    /// Verified chunks awaiting assembly, keyed by lane root.
    stash: BTreeMap<Digest, SnapshotChunk>,
    /// `snap-*.bin` / `chunk-*.bin` files that failed to read, decode,
    /// or verify on recovery. A rotted newest snapshot silently drops
    /// the recovery floor to the previous epoch — this counter is the
    /// signal that it happened.
    decode_failures: u64,
    /// Stale stashed chunks dropped by [`Self::prune_stale_chunks`] —
    /// the checkpoint-time reclamation that stops the durable stash
    /// growing unboundedly across epochs.
    chunks_pruned: u64,
}

impl SnapshotStore {
    /// In-memory store (simulation).
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            latest: None,
            stash: BTreeMap::new(),
            decode_failures: 0,
            chunks_pruned: 0,
        }
    }

    /// Disk-backed store rooted at `dir`; loads the newest existing
    /// snapshot (highest epoch, verified) and every verified stashed
    /// chunk, if any. Files that fail to read, decode, or verify are
    /// skipped *and counted* in [`Self::decode_failures`].
    pub fn at_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut best: Option<Snapshot> = None;
        let mut stash = BTreeMap::new();
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
                        if best.as_ref().is_none_or(|b| snap.epoch > b.epoch) {
                            best = Some(snap);
                        }
                    }
                    _ => decode_failures += 1,
                }
            } else if name.starts_with("chunk-") && name.ends_with(".bin") {
                match std::fs::read(&path)
                    .ok()
                    .and_then(|bytes| SnapshotChunk::decode(&bytes))
                {
                    Some(chunk) if chunk.verify() => {
                        stash.insert(chunk.root, chunk);
                    }
                    _ => decode_failures += 1,
                }
            }
        }
        Ok(Self {
            dir: Some(dir),
            latest: best,
            stash,
            decode_failures,
            chunks_pruned: 0,
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

    /// Stashes a verified chunk (persisting it content-addressed when
    /// disk-backed), keyed by its lane root. Returns `false` when a
    /// disk-backed store failed to persist — the chunk is still usable
    /// in memory, but will not survive a crash.
    pub fn stash_chunk(&mut self, chunk: SnapshotChunk) -> bool {
        let mut persisted = true;
        if let Some(dir) = &self.dir {
            let target = dir.join(chunk.file_name());
            if !target.exists() {
                persisted = std::fs::write(&target, chunk.encode()).is_ok();
            }
        }
        self.stash.insert(chunk.root, chunk);
        persisted
    }

    /// The stashed chunk named by `root`, if any.
    pub fn stashed_chunk(&self, root: &Digest) -> Option<&SnapshotChunk> {
        self.stash.get(root)
    }

    /// Every stashed chunk (assembly input).
    pub fn stashed_chunks(&self) -> impl Iterator<Item = &SnapshotChunk> {
        self.stash.values()
    }

    /// Stashed chunk count.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Drops every stashed chunk whose lane root is **not** in `keep`
    /// (with its `chunk-*.bin` file, when disk-backed), returning how
    /// many were pruned. Called at checkpoint with the roots of the
    /// still-pending sync target (empty when no chunked install is in
    /// flight): once no newer head references a stashed root, the chunk
    /// can never be assembled into anything and only bloats the
    /// directory across epochs.
    pub fn prune_stale_chunks(&mut self, keep: &[Digest]) -> u64 {
        let stale: Vec<Digest> = self
            .stash
            .keys()
            .filter(|root| !keep.contains(root))
            .copied()
            .collect();
        for root in &stale {
            if let Some(chunk) = self.stash.remove(root) {
                if let Some(dir) = &self.dir {
                    let _ = std::fs::remove_file(dir.join(chunk.file_name()));
                }
            }
        }
        self.chunks_pruned += stale.len() as u64;
        stale.len() as u64
    }

    /// Cumulative chunks dropped by [`Self::prune_stale_chunks`].
    pub fn chunks_pruned(&self) -> u64 {
        self.chunks_pruned
    }

    /// Drops the stash (and its files): the pending install completed
    /// or was abandoned.
    pub fn clear_stash(&mut self) {
        if let Some(dir) = &self.dir {
            for chunk in self.stash.values() {
                let _ = std::fs::remove_file(dir.join(chunk.file_name()));
            }
        }
        self.stash.clear();
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
                            if e + 1 < snap.epoch {
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

    #[test]
    fn encode_decode_roundtrip_verifies() {
        let kv = sample_state();
        let snap = Snapshot::capture(
            3,
            120,
            5000,
            vec![7, 9, 11],
            vec![60; MERKLE_LANES as usize],
            &kv,
        );
        assert!(snap.verify());
        assert_eq!(snap.lane_roots.len(), MERKLE_LANES as usize);
        assert_eq!(snap.state_root(), kv.root());
        let decoded = Snapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(decoded, snap);
        assert!(decoded.verify());
        // The lane-root vector round-trips byte-identically.
        assert_eq!(decoded.lane_roots, snap.lane_roots);
    }

    #[test]
    fn corruption_is_detected() {
        let snap = Snapshot::capture(1, 10, 100, vec![2], Vec::new(), &sample_state());
        let mut bytes = snap.encode();
        bytes[40] ^= 1;
        assert!(Snapshot::decode(&bytes).is_none(), "checksum must catch it");
        // A tampered-but-rechecksummed snapshot fails the content check.
        let mut tampered = snap.clone();
        if !tampered.entries.is_empty() {
            tampered.entries[0].1 += 1;
        }
        assert!(!tampered.verify());
    }

    #[test]
    fn prior_version_rejected_at_decode() {
        let snap = Snapshot::capture(1, 10, 100, vec![2], Vec::new(), &sample_state());
        let mut bytes = snap.encode();
        bytes[0] = 2; // masquerade as the v2 (pre-lane) format
        assert!(Snapshot::decode(&bytes).is_none(), "v2 must be rejected");
    }

    #[test]
    fn forged_metadata_fails_verification() {
        // The manifest root covers the metadata, so a Byzantine responder
        // cannot splice a forged `applied`/`frontier`/`executed_txs` onto
        // genuine entries: verify() catches the splice, and recomputing
        // the root around it would break the match with the quorum-signed
        // checkpoint root instead.
        let snap = Snapshot::capture(
            4,
            200,
            9000,
            vec![11, 13],
            vec![150; MERKLE_LANES as usize],
            &sample_state(),
        );
        assert!(snap.verify());

        let mut forged = snap.clone();
        forged.applied = u64::MAX; // "skip all future blocks"
        assert!(!forged.verify());

        let mut forged = snap.clone();
        forged.frontier = vec![u64::MAX, u64::MAX];
        assert!(!forged.verify());

        let mut forged = snap.clone();
        forged.executed_txs += 1;
        assert!(!forged.verify());

        let mut forged = snap.clone();
        forged.epoch += 1;
        assert!(!forged.verify());

        // A forged lane-root vector no longer matches the entries.
        let mut forged = snap.clone();
        forged.lane_roots[0] = Digest([0xab; 32]);
        assert!(!forged.verify());
    }

    #[test]
    fn split_assemble_roundtrips_byte_identically() {
        let kv = sample_state();
        let snap = Snapshot::capture(
            3,
            120,
            5000,
            vec![7, 9, 11],
            vec![60; MERKLE_LANES as usize],
            &kv,
        );
        let (head, chunks) = snap.split();
        assert!(head.verify());
        assert_eq!(chunks.len(), MERKLE_LANES as usize);
        assert!(chunks.iter().all(SnapshotChunk::verify));
        assert_eq!(head.state_root(), snap.state_root());
        // Chunk files round-trip too.
        for c in &chunks {
            assert_eq!(SnapshotChunk::decode(&c.encode()).as_ref(), Some(c));
        }
        let rebuilt = Snapshot::assemble(head.clone(), &chunks).expect("all lanes present");
        assert_eq!(rebuilt, snap);
        assert_eq!(rebuilt.encode(), snap.encode(), "byte-identical wire form");
        // A missing non-empty lane blocks assembly.
        let nonempty: Vec<SnapshotChunk> = chunks
            .iter()
            .filter(|c| !c.entries.is_empty())
            .skip(1)
            .cloned()
            .collect();
        assert!(Snapshot::assemble(head, &nonempty).is_none());
    }

    #[test]
    fn chunk_verification_rejects_tampering() {
        let snap = Snapshot::capture(1, 10, 100, vec![2], Vec::new(), &sample_state());
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

        // Smuggling a foreign-lane entry past an *empty* lane's root:
        // the confinement check catches what the root alone cannot.
        let empty = chunks.iter().find(|c| c.entries.is_empty()).unwrap();
        let mut forged = empty.clone();
        forged.entries = victim.entries.clone();
        assert!(!forged.verify());

        // Duplicate keys / unsorted order break canonical form.
        let mut forged = victim.clone();
        let first = forged.entries[0];
        forged.entries.insert(0, first);
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
    fn delta_lanes_names_exactly_the_changed_lanes() {
        let a = Snapshot::capture(1, 10, 100, Vec::new(), Vec::new(), &sample_state());
        let mut kv = sample_state();
        kv.apply(&TxOp::Put { key: 3, value: 999 });
        let b = Snapshot::capture(2, 20, 200, Vec::new(), Vec::new(), &kv);
        let delta = delta_lanes(&b.lane_roots, &a.lane_roots);
        assert_eq!(delta, vec![lane_of(3) as u32]);
        // No prior state (or a wrong-length advertisement) = all lanes.
        assert_eq!(delta_lanes(&b.lane_roots, &[]).len(), MERKLE_LANES as usize);
        // Identical state = nothing to ship.
        assert!(delta_lanes(&a.lane_roots, &a.lane_roots).is_empty());
    }

    #[test]
    fn chunk_cache_never_reencodes_unchanged_lanes() {
        let mut cache = ChunkCache::new();
        let a = Snapshot::capture(1, 10, 100, Vec::new(), Vec::new(), &sample_state());
        let distinct_roots = {
            let mut r = a.lane_roots.clone();
            r.sort_unstable_by_key(|d| d.0);
            r.dedup();
            r.len() as u64
        };
        assert_eq!(cache.prime(&a), distinct_roots);
        // Priming the same snapshot again builds nothing.
        assert_eq!(cache.prime(&a), 0);

        // Dirty exactly one lane: exactly one new chunk is built.
        let mut kv = sample_state();
        kv.apply(&TxOp::Put { key: 3, value: 999 });
        let b = Snapshot::capture(2, 20, 200, Vec::new(), Vec::new(), &kv);
        assert_eq!(cache.prime(&b), 1);
        assert_eq!(cache.encodes(), distinct_roots + 1);

        // Serving counts hits; retain prunes to the newest roots.
        assert!(cache.get(&b.lane_roots[lane_of(3)]).is_some());
        assert_eq!(cache.hits(), 1);
        cache.retain(&b.lane_roots);
        assert!(cache.get(&a.lane_roots[lane_of(3)]).is_none());
    }

    #[test]
    fn corrupt_newest_snapshot_is_counted_not_silent() {
        let dir = std::env::temp_dir().join(format!("ladon-snap-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (old_name, new_name);
        {
            let mut store = SnapshotStore::at_dir(&dir).unwrap();
            let old = Snapshot::capture(1, 10, 100, vec![2], Vec::new(), &sample_state());
            let new = Snapshot::capture(2, 20, 200, vec![4], Vec::new(), &sample_state());
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
        assert_eq!(store.latest().map(|s| s.epoch), Some(1));
        assert_eq!(store.decode_failures(), 1);
        assert!(dir.join(&old_name).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_stash_survives_restart_and_counts_rot() {
        let dir = std::env::temp_dir().join(format!("ladon-chunk-stash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = Snapshot::capture(1, 10, 100, Vec::new(), Vec::new(), &sample_state());
        let (_, chunks) = snap.split();
        let nonempty: Vec<&SnapshotChunk> =
            chunks.iter().filter(|c| !c.entries.is_empty()).collect();
        assert!(nonempty.len() >= 2);
        {
            let mut store = SnapshotStore::at_dir(&dir).unwrap();
            assert!(store.stash_chunk(nonempty[0].clone()));
            assert!(store.stash_chunk(nonempty[1].clone()));
            assert_eq!(store.stash_len(), 2);
        }
        // Rot one persisted chunk file.
        let path = dir.join(nonempty[1].file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 1;
        std::fs::write(&path, bytes).unwrap();

        let mut store = SnapshotStore::at_dir(&dir).unwrap();
        assert_eq!(store.stash_len(), 1, "only the intact chunk survives");
        assert_eq!(store.decode_failures(), 1);
        assert!(store.stashed_chunk(&nonempty[0].root).is_some());
        store.clear_stash();
        assert_eq!(store.stash_len(), 0);
        assert!(!dir.join(nonempty[0].file_name()).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_stale_chunks_drops_unreferenced_files_only() {
        let dir = std::env::temp_dir().join(format!("ladon-chunk-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = Snapshot::capture(1, 10, 100, Vec::new(), Vec::new(), &sample_state());
        let (_, chunks) = snap.split();
        let nonempty: Vec<&SnapshotChunk> =
            chunks.iter().filter(|c| !c.entries.is_empty()).collect();
        assert!(nonempty.len() >= 2);
        let mut store = SnapshotStore::at_dir(&dir).unwrap();
        assert!(store.stash_chunk(nonempty[0].clone()));
        assert!(store.stash_chunk(nonempty[1].clone()));
        // A checkpoint whose pending head still references chunk 0:
        // chunk 1 is stale and goes, file included; chunk 0 stays.
        assert_eq!(store.prune_stale_chunks(&[nonempty[0].root]), 1);
        assert_eq!(store.stash_len(), 1);
        assert!(dir.join(nonempty[0].file_name()).exists());
        assert!(!dir.join(nonempty[1].file_name()).exists());
        // No pending head at all: everything goes.
        assert_eq!(store.prune_stale_chunks(&[]), 1);
        assert_eq!(store.stash_len(), 0);
        assert!(!dir.join(nonempty[0].file_name()).exists());
        assert_eq!(store.chunks_pruned(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_recovers_newest() {
        let dir = std::env::temp_dir().join(format!("ladon-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = SnapshotStore::at_dir(&dir).unwrap();
            store.put(Snapshot::capture(
                1,
                10,
                100,
                vec![2],
                Vec::new(),
                &sample_state(),
            ));
            store.put(Snapshot::capture(
                2,
                20,
                200,
                vec![4],
                Vec::new(),
                &sample_state(),
            ));
        }
        let store = SnapshotStore::at_dir(&dir).unwrap();
        assert_eq!(store.latest().map(|s| s.epoch), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
