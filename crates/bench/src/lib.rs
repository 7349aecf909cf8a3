//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one paper table or figure (DESIGN.md §3).
//! Paper-reported values are embedded as annotations so the printed output
//! reads as a paper-vs-measured record.
//!
//! All targets are plain `harness = false` binaries; [`microbench`]
//! provides the wall-clock measurement loop the micro targets use (the
//! build environment has no crates.io access, so there is no criterion).

#![forbid(unsafe_code)]

use ladon_obs::{fields, Json};
use ladon_state::{
    delta_lanes, lane_of, CommitWal, ExecutionPipeline, FileBackend, KvState, ReplayStats,
    Snapshot, SnapshotChunk, SnapshotStore, WalOptions, WalRecord, MERKLE_LANES,
};
use ladon_types::{Block, Digest, ProtocolKind, WireSize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The five PBFT-family protocols in the paper's comparison order.
pub const PBFT_PROTOCOLS: [ProtocolKind; 5] = ProtocolKind::PBFT_FAMILY;

/// Standard banner for a figure/table target.
pub fn banner(id: &str, what: &str, scale: ladon_workload::Scale) {
    println!("\n################################################################");
    println!("# {id}: {what}");
    println!("# scale = {scale:?} (set LADON_SCALE=medium|full for larger sweeps)");
    println!("################################################################");
}

/// One measured micro-benchmark result.
#[derive(Clone, Copy, Debug)]
pub struct MicroResult {
    /// Mean nanoseconds per iteration over the measurement phase.
    pub ns_per_iter: f64,
    /// Iterations measured.
    pub iters: u64,
}

impl MicroResult {
    /// Iterations per second implied by the mean.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter.max(1e-9)
    }
}

/// Runs `f` in a timed loop and prints a `name: mean ns/iter (rate)` line.
///
/// The loop warms up for ~10% of `iters`, then measures. The closure's
/// return value is consumed with a volatile read so the optimizer cannot
/// delete the work.
pub fn microbench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) -> MicroResult {
    for _ in 0..(iters / 10).max(1) {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = start.elapsed();
    let res = MicroResult {
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        iters,
    };
    let (scaled, unit) = if res.ns_per_iter >= 1e6 {
        (res.ns_per_iter / 1e6, "ms")
    } else if res.ns_per_iter >= 1e3 {
        (res.ns_per_iter / 1e3, "us")
    } else {
        (res.ns_per_iter, "ns")
    };
    println!(
        "{name:<44} {scaled:>10.2} {unit}/iter  ({:>12.0} iter/s)",
        res.per_sec()
    );
    res
}

/// A scratch directory under the system temp dir, unique per process
/// and `tag`, emptied. The caller removes it when done.
pub fn scratch_dir(what: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ladon-{what}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// WAL layout of the recovery scenarios: small segments, so a short log
/// already spans many of them.
pub fn recovery_wal_opts() -> WalOptions {
    WalOptions {
        segment_records: 8,
        ..WalOptions::default()
    }
}
/// Transactions per block in the recovery scenarios.
pub const RECOVERY_BLOCK_TXS: u32 = 64;

/// Builds the crashed-compaction artifact set under the empty `dir`
/// (see [`scratch_dir`]): a segmented WAL holding all `history + tail`
/// records plus a durable snapshot covering exactly `history` — the
/// disk a kill in the middle of the compaction behind a checkpoint
/// leaves. Returns the expected post-recovery root (from a clean
/// in-memory run).
pub fn build_crashed_dir(dir: &Path, history: u64, tail: u64, keyspace: u32) -> Digest {
    // The log: every record, appended through the real segmented WAL.
    let mut wal = CommitWal::open(
        Box::new(FileBackend::open_dir(dir.join("wal")).expect("open wal dir")),
        recovery_wal_opts(),
    );
    // The reference execution (in memory) that also donates the
    // snapshot at the history cut.
    let mut reference = ExecutionPipeline::in_memory(keyspace);
    let mut snapshot: Option<Snapshot> = None;
    for sn in 0..history + tail {
        let b = Block::synthetic(sn, sn * RECOVERY_BLOCK_TXS as u64, RECOVERY_BLOCK_TXS);
        wal.append(WalRecord::of_block(sn, &b));
        reference.execute(sn, &b);
        if sn + 1 == history {
            reference.checkpoint(1, Vec::new());
            snapshot = reference.latest_snapshot().cloned();
        }
    }
    assert_eq!(wal.write_failures(), 0);
    // Persist the snapshot beside the (uncompacted) log.
    let mut store = SnapshotStore::at_dir(dir).expect("open snapshot store");
    assert!(store.put(snapshot.expect("history must checkpoint")));
    reference.state_root()
}

/// Recovers the directory [`build_crashed_dir`] left and gates the partial-replay contract: the recovered root is the clean
/// run's, and replay touched exactly the `tail` records past the
/// snapshot. Returns what the recovery touched and its wall time.
pub fn recover_crashed_dir(
    dir: &Path,
    history: u64,
    tail: u64,
    keyspace: u32,
    expect_root: Digest,
) -> (ReplayStats, u64) {
    let started = Instant::now();
    let recovered = ExecutionPipeline::recover_opts(dir, keyspace, 1, recovery_wal_opts())
        .expect("recover pipeline");
    let wall_recover_ns = started.elapsed().as_nanos() as u64;
    let stats = recovered.recovery_stats().clone();
    assert_eq!(
        stats.records_replayed, tail,
        "history={history}: replay must touch exactly the tail"
    );
    assert_eq!(stats.replayed_txs, tail * RECOVERY_BLOCK_TXS as u64);
    assert_eq!(recovered.applied(), history + tail);
    assert_eq!(
        recovered.state_root(),
        expect_root,
        "recovered root differs"
    );
    (stats, wall_recover_ns)
}

/// `fig_recovery_scaling`: one crashed-compaction recovery (64 covered
/// records, 16 in the tail). Every gated field is a deterministic count.
pub fn recovery_figure(tag: &str) -> Vec<(String, Json)> {
    const HISTORY: u64 = 64;
    const TAIL: u64 = 16;
    let keyspace = 4096u32;
    let dir = scratch_dir("fig-recovery", tag);
    let expect_root = build_crashed_dir(&dir, HISTORY, TAIL, keyspace);
    let (stats, wall_recover_ns) = recover_crashed_dir(&dir, HISTORY, TAIL, keyspace, expect_root);
    let _ = std::fs::remove_dir_all(&dir);
    fields(vec![
        ("log_records", Json::U64(HISTORY + TAIL)),
        ("records_replayed", Json::U64(stats.records_replayed)),
        ("segments_skipped", Json::U64(stats.segments_skipped)),
        ("segments_scanned", Json::U64(stats.segments_scanned)),
        ("wall_recover_ns", Json::U64(wall_recover_ns)),
    ])
}

/// `fig_snapshot_delta`: content-addressed delta sync ships chunks and
/// bytes proportional to *changed lanes*, not state size. Gates, all
/// deterministic counts:
///
/// 1. dirtying `k` of the 64 lanes ships exactly `k` chunks, for
///    k ∈ {1, 8, 64}, and shipped bytes grow with `k` while the
///    monolithic baseline stays proportional to full state size;
/// 2. the snapshot assembled from the shipped delta plus the receiver's
///    own unchanged lanes is byte-identical to the donor's encode (lane
///    roots and all).
pub fn snapshot_delta_figure() -> Vec<(String, Json)> {
    // Enough keys that every one of the 64 lanes is populated with
    // distinct contents.
    const BASE_KEYS: u32 = 2048;
    const DIRTY_KS: [usize; 3] = [1, 8, 64];

    let base = KvState::from_entries((0..BASE_KEYS).map(|k| (k, k as u64 * 37 + 11)));
    // First base key landing in each lane (index = lane).
    let mut lane_keys = vec![u32::MAX; MERKLE_LANES as usize];
    for k in 0..BASE_KEYS {
        let lane = lane_of(k);
        if lane_keys[lane] == u32::MAX {
            lane_keys[lane] = k;
        }
    }
    assert!(
        lane_keys.iter().all(|&k| k != u32::MAX),
        "base state must populate all {MERKLE_LANES} lanes"
    );
    // The base state with exactly the first `k` lanes' contents changed.
    let dirtied = |k: usize| -> KvState {
        let mut entries: BTreeMap<u32, u64> = base.entries().collect();
        for &key in &lane_keys[..k] {
            *entries.get_mut(&key).expect("lane key exists") += 1;
        }
        KvState::from_entries(entries)
    };
    // The chunks a responder ships for `delta`, deduplicated by root
    // (content addressing: lanes sharing a root share a chunk).
    let shipped_chunks = |snap: &Snapshot, delta: &[u32]| -> Vec<SnapshotChunk> {
        let mut sent = BTreeSet::new();
        let mut out = Vec::new();
        for &lane in delta {
            let c = &snap.chunks[lane as usize];
            if sent.insert(c.root) {
                assert!(c.verify(), "shipped chunk must verify");
                out.push(c.clone());
            }
        }
        out
    };

    let snap_a = Snapshot::capture(1, 64, 4096, Vec::new(), &base);
    assert!(snap_a.verify());
    let monolithic_bytes = snap_a.encode().len() as u64;

    // 1+2. k dirty lanes -> exactly k chunks; delta assembly is
    //      byte-identical to the monolithic snapshot.
    let mut chunk_counts = Vec::new();
    let mut byte_counts = Vec::new();
    for &k in &DIRTY_KS {
        let snap_b = Snapshot::capture(2, 128, 8192, Vec::new(), &dirtied(k));
        let delta = delta_lanes(&snap_b.head.lane_roots, &snap_a.head.lane_roots);
        assert_eq!(
            delta.len(),
            k,
            "k={k}: delta must be exactly the dirty lanes"
        );
        let shipped = shipped_chunks(&snap_b, &delta);
        assert_eq!(shipped.len(), k, "k={k}: one chunk per dirty lane");
        let bytes: u64 = shipped.iter().map(|c| c.wire_size()).sum();

        // Reassemble from the shipped delta + the local (base) state's
        // unchanged lanes.
        assert!(snap_b.head.verify());
        let fetched = |root: &Digest| shipped.iter().find(|c| c.root == *root);
        let (rebuilt, reused) = Snapshot::assemble(snap_b.head.clone(), fetched, &base)
            .expect("all lanes accounted for");
        assert_eq!(
            rebuilt.encode(),
            snap_b.encode(),
            "k={k}: delta-assembled snapshot must be byte-identical"
        );
        assert_eq!(reused as usize, MERKLE_LANES as usize - k);
        assert!(rebuilt.verify());
        println!(
            "  k={k:>2} dirty lanes -> {} chunks, {bytes} bytes shipped \
             (monolithic: {monolithic_bytes} bytes)",
            shipped.len()
        );
        chunk_counts.push(shipped.len() as u64);
        byte_counts.push(bytes);
    }
    assert!(byte_counts[0] < byte_counts[1] && byte_counts[1] < byte_counts[2]);
    assert!(
        byte_counts[0] * 8 < monolithic_bytes,
        "single-lane delta must be a small fraction of full state"
    );

    fields(vec![
        ("base_entries", Json::U64(BASE_KEYS as u64)),
        ("monolithic_bytes", Json::U64(monolithic_bytes)),
        ("chunks_k1", Json::U64(chunk_counts[0])),
        ("bytes_k1", Json::U64(byte_counts[0])),
        ("chunks_k8", Json::U64(chunk_counts[1])),
        ("bytes_k8", Json::U64(byte_counts[1])),
        ("chunks_k64", Json::U64(chunk_counts[2])),
        ("bytes_k64", Json::U64(byte_counts[2])),
    ])
}
