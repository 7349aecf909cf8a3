//! Execution-layer integration tests: deterministic state machine
//! replication on top of dynamic global ordering.
//!
//! The core claim: at every stable checkpoint, all honest replicas'
//! execution state roots are identical — under healthy runs, under
//! stragglers, and across a crash + restart that recovers from the
//! durable snapshot + WAL pair.

use ladon::core::{MultiBftNode, SyncRequest};
use ladon::obs::{MetricsRegistry, SnapshotInto};
use ladon::state::{
    CommitWal, ExecutionPipeline, FaultBackend, FaultPlan, FileBackend, SnapshotStore, WalOptions,
    WalRecord, DEFAULT_KEYSPACE, ENCODED_RECORD_LEN, TRAILER_LEN,
};
use ladon::types::{Block, Digest, ProtocolKind, Round, SystemConfig};
use ladon::workload::{Deployment, ExperimentConfig};
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The suite's cluster: n = 4 with 16-rank epochs, so a run of a few
/// seconds crosses several checkpoints.
fn short_epochs(protocol: ProtocolKind, submit_until_s: f64) -> ExperimentConfig {
    ExperimentConfig::scenario(protocol, 4, submit_until_s).with_epoch_length(16)
}

/// One metrics path: the node's copy of the pipeline counters is
/// current, and the node's registry — snapshotted alone — carries each
/// of them exactly once. Counters add, so a name written by a second
/// `SnapshotInto` impl would read double here.
fn assert_one_metrics_path(node: &MultiBftNode, r: usize) {
    let s = &node.metrics.exec;
    assert_eq!(*s, node.exec.stats(), "replica {r}: stale pipeline stats");
    let mut reg = MetricsRegistry::new();
    node.metrics.snapshot_into(&mut reg);
    for (name, want) in [
        ("wal.appends", s.io.appends),
        ("wal.fsyncs", s.io.fsyncs),
        ("wal.segment_opens", s.io.segment_opens),
        ("wal.bytes_written", s.io.bytes_written),
        ("exec.batches", s.batches),
        ("replay.segments_scanned", s.replay.segments_scanned),
        ("replay.segments_skipped", s.replay.segments_skipped),
        ("replay.records_below_floor", s.replay.records_below_floor),
        ("replay.records_torn", s.replay.records_torn),
        ("replay.records_unacked_lost", s.replay.records_unacked_lost),
        ("replay.segments_clean_end", s.replay.segments_clean_end),
        (
            "replay.manifest_recovered",
            s.replay.manifest_recovered as u64,
        ),
        ("replay.records_replayed", s.replay.records_replayed),
        ("replay.replayed_txs", s.replay.replayed_txs),
        ("pipeline.wall_wal_flush_ns", s.perf.wall_wal_flush_ns),
        ("pipeline.wall_exec_ns", s.perf.wall_exec_ns),
        ("pipeline.wall_drain_apply_ns", s.perf.wall_drain_apply_ns),
        ("pipeline.flush_barriers", s.perf.flush_barriers),
        ("pipeline.wal_flush_failures", s.perf.wal_flush_failures),
        ("wal.write_failures", s.wal_write_failures),
        ("node.snapshot_decode_failures", s.snapshot_decode_failures),
        ("node.executed_txs", s.locally_executed_txs),
    ] {
        assert_eq!(reg.counter_value(name), want, "replica {r}: {name}");
    }
    assert!(s.io.fsyncs > 0 && s.batches > 0 && s.perf.flush_barriers > 0);
    assert_eq!(
        reg.histogram("pipeline.wall_barrier_wait_ns"),
        Some(&s.perf.barrier_wait),
        "replica {r}"
    );
    // The five scalars `benchmark/` reads come from the same copy.
    let m = &node.metrics;
    assert_eq!(
        [
            m.wall_exec_ns,
            m.wal_fsyncs,
            m.wal_bytes_written,
            m.flush_barriers,
            m.wall_wal_flush_ns
        ],
        [
            s.perf.wall_exec_ns,
            s.io.fsyncs,
            s.io.bytes_written,
            s.perf.flush_barriers,
            s.perf.wall_wal_flush_ns
        ],
        "replica {r}"
    );
}

#[test]
fn honest_replicas_agree_on_state_roots_at_every_checkpoint() {
    let mut c = Deployment::build(&short_epochs(ProtocolKind::LadonPbft, 10.0));
    c.run_secs(15.0);

    // Real execution happened everywhere.
    for r in 0..4 {
        let node = c.node(r);
        assert!(
            node.metrics.exec.locally_executed_txs > 0,
            "replica {r} executed nothing"
        );
        assert_eq!(
            node.metrics.root_conflicts, 0,
            "replica {r} saw a conflicting checkpoint quorum"
        );
    }
    // Multiple epochs checkpointed, with unanimous roots at each, and
    // one log.
    let checked = c.check(&[0, 1, 2, 3]).assert_safe().shared_epochs;
    assert!(
        checked >= 2,
        "need ≥ 2 comparable checkpoints, got {checked}"
    );
    // Silent durability failures must be loud: every replica's WAL
    // (appends, segment rolls, compaction rotations) wrote cleanly — and
    // the group-commit I/O counters surface real work: fsync barriers
    // were issued (durability is not a no-op) and bytes landed.
    // (`steady_state_barrier_is_one_write_and_one_fsync` in the state
    // crate pins the amortization itself with exact counts.)
    for r in 0..4 {
        let m = &c.node(r).metrics;
        assert_eq!(
            m.exec.wal_write_failures, 0,
            "replica {r} reported failed durable WAL writes"
        );
        assert!(m.wal_fsyncs > 0, "replica {r} reported no fsync barriers");
        assert!(
            m.wal_bytes_written > 0,
            "replica {r} reported no WAL bytes written"
        );
    }
    for r in 0..4 {
        assert_one_metrics_path(c.node(r), r);
    }
    // Checkpoints carry snapshots: the WAL is compacted behind them, the
    // head records the full lane-root vector, and nothing was inherited
    // from a peer — every executed transaction was executed here.
    let node = c.node(0);
    let snap = node.exec.latest_snapshot().expect("checkpointed");
    assert_eq!(
        snap.head.lane_roots.len(),
        ladon::state::MERKLE_LANES as usize,
        "snapshot must carry the complete lane-root vector"
    );
    assert_eq!(
        node.exec.stats().locally_executed_txs,
        node.exec.executed_txs(),
        "a replica that installed nothing executed its whole history itself"
    );
}

/// Under LadonHotStuff, as under PBFT, a snapshot records the orderer's
/// epoch frontier: each instance's last round of the epoch, a block
/// ordinal that dummies do not count, so every replica signs the same
/// manifest. Checkpoint quorums form — epochs advance, roots agree, no
/// conflicts — and every captured snapshot carries one round per
/// instance.
#[test]
fn hotstuff_replicas_agree_on_state_roots_and_snapshot_frontiers() {
    let mut c = Deployment::build(&short_epochs(ProtocolKind::LadonHotStuff, 10.0));
    c.run_secs(15.0);

    for r in 0..4 {
        let node = c.node(r);
        assert!(
            node.metrics.exec.locally_executed_txs > 0,
            "replica {r} executed nothing"
        );
        assert_eq!(
            node.metrics.root_conflicts, 0,
            "replica {r} saw a conflicting checkpoint quorum"
        );
        assert_eq!(node.metrics.exec_gaps, 0, "replica {r} hit an exec gap");
        let snap = node.exec.latest_snapshot().expect("checkpointed");
        assert_eq!(snap.head.frontier.len(), c.sys.m, "replica {r}");
        assert!(snap.head.frontier.iter().all(|&round| round > 0));
    }
    let checked = c.check(&[0, 1, 2, 3]).assert_safe().shared_epochs;
    assert!(
        checked >= 1,
        "HotStuff epochs must still checkpoint, got {checked}"
    );
    assert!(
        c.node(0).metrics.epochs.len() > 1,
        "the run must cross an epoch boundary to be meaningful"
    );
}

// ---------------------------------------------------------------------
// Fault scenarios.
// ---------------------------------------------------------------------

/// Straggler catch-up: one replica proposes at 1/10 rate with empty
/// batches; epochs must still checkpoint with unanimous roots.
#[test]
fn straggler_cluster_still_agrees_on_state_roots() {
    let mut c = Deployment::build(
        &short_epochs(ProtocolKind::LadonPbft, 25.0).with_straggler_ids(&[1], 10.0),
    );
    c.run_secs(30.0);

    let checked = c.check(&[0, 1, 2, 3]).assert_safe().shared_epochs;
    assert!(
        checked >= 1,
        "a straggler must not stop epochs from checkpointing"
    );
    // The straggler executes the same log as everyone else.
    assert!(c.node(1).metrics.exec.locally_executed_txs > 0);
    // A straggler is slow to *propose*, not to apply: it never lags the
    // snapshot-serving threshold, so no replica ships a snapshot — the
    // minimum-gap policy holds at the serve counters.
    for r in 0..4 {
        let m = &c.node(r).metrics;
        assert_eq!(
            (m.snapshots_served, m.snapshot_bytes_served),
            (0, 0),
            "replica {r} served snapshot chunks in a cluster where \
             nobody's applied frontier lagged"
        );
    }
}

/// Crash mid-epoch + restart: replica 3 runs on a durable directory,
/// crashes at 6 s, and a new process recovers its execution state from
/// the snapshot + WAL pair on disk (byte-identical root, lane-root vector
/// included), rejoins via state transfer, and ends the run agreeing with
/// the cluster.
#[test]
fn restarted_replica_recovers_via_snapshot_and_wal_replay() {
    let mut c = Deployment::build(&short_epochs(ProtocolKind::LadonPbft, 30.0).with_crash(3, 6.0));
    let dir = scratch_dir("restarted-replica", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let keyspace = c.sys.exec_keyspace;
    let recover = || ExecutionPipeline::recover(&dir, keyspace).unwrap();
    c.swap_replica(3, recover());
    c.run_secs(10.0);

    // What the crashed process had: the snapshot from the last completed
    // epoch plus the WAL tail past it, all on disk.
    let crashed = c.node(3);
    let pre_crash_root = crashed.exec.state_root();
    let pre_crash_lane_roots = crashed.exec.lane_roots();
    let pre_crash_applied = crashed.exec.applied();
    assert!(
        pre_crash_applied > 0,
        "the replica must have executed before crashing"
    );

    // Recovery: snapshot install + WAL replay reproduces the exact state.
    let recovered = recover();
    assert_eq!(recovered.applied(), pre_crash_applied);
    assert_eq!(
        recovered.state_root(),
        pre_crash_root,
        "snapshot + WAL replay must reproduce the pre-crash root"
    );
    assert_eq!(
        recovered.lane_roots(),
        pre_crash_lane_roots,
        "recovered lane-root vector must be byte-identical"
    );

    // Restart the process: same replica id, recovered pipeline, no crash.
    c.swap_replica(3, recovered);
    c.run_secs(55.0);

    // The restarted replica detected its lag and resynced.
    let r3 = c.node(3);
    assert!(
        r3.metrics.sync_requests > 0,
        "restarted replica never asked for sync"
    );
    assert!(
        r3.metrics.sync_installed > 0 || r3.metrics.snapshot_installs > 0,
        "nothing was installed from peers"
    );
    // Execution moved past the recovered frontier.
    assert!(
        r3.exec.applied() > pre_crash_applied,
        "execution stalled at the recovered frontier ({pre_crash_applied})"
    );
    // It rejoined the epoch schedule and agrees on every comparable root.
    assert_eq!(
        r3.epoch(),
        c.node(0).epoch(),
        "restarted replica must reach the cluster's epoch"
    );
    // The dead process's round and view timers died with it: the new one
    // starts no view change of its own.
    assert_eq!(r3.metrics.view_changes, []);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable directory as the previous format generation left it: a
/// well-formed snapshot whose version byte reads 7 over WAL segments
/// whose records' version bytes read 2, every checksum recomputed —
/// another generation's artifacts, not bit rot. There is no decode
/// branch for either: opening it must come up empty-handed without a
/// panic — nothing restored, nothing replayed, the refused snapshot
/// counted — and the replica falls back to peer sync.
fn old_generation_pipeline(tag: &str, sys: &SystemConfig) -> ExecutionPipeline {
    use ladon::crypto::fnv::Fnv64;
    let dir = scratch_dir(tag, 0);
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        ExecutionPipeline::recover_opts(&dir, sys.exec_keyspace, 1, WalOptions::from(sys)).unwrap()
    };
    {
        let mut p = open();
        for sn in 0..10 {
            p.execute(sn, &Block::synthetic(sn, sn * 40, 40));
            if sn == 5 {
                p.checkpoint(0, Vec::new());
            }
        }
        assert_eq!((p.applied(), p.wal_len()), (10, 4));
    }
    let reseal = |bytes: &mut [u8], body: std::ops::Range<usize>| {
        let sum = Fnv64::new().write(&bytes[body.clone()]).finish();
        bytes[body.end..body.end + 8].copy_from_slice(&sum.to_le_bytes());
    };
    let files = |d: &std::path::Path| -> Vec<std::path::PathBuf> {
        std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect()
    };
    let (mut snaps, mut records) = (0, 0);
    for path in files(&dir).into_iter().chain(files(&dir.join("wal"))) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("snap-") {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[0] = 7;
            let payload = bytes.len() - 8;
            reseal(&mut bytes, 0..payload);
            std::fs::write(&path, bytes).unwrap();
            snaps += 1;
        } else if name.ends_with(".seg") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mut at = 0;
            while at + 4 <= bytes.len() {
                if bytes[at..at + 4] == u32::MAX.to_le_bytes() {
                    at += TRAILER_LEN;
                    continue;
                }
                bytes[at + 4] = 2;
                reseal(&mut bytes, at + 4..at + ENCODED_RECORD_LEN - 8);
                at += ENCODED_RECORD_LEN;
                records += 1;
            }
            std::fs::write(&path, bytes).unwrap();
        }
    }
    assert_eq!((snaps, records), (1, 4), "the directory must hold both");
    let p = open();
    assert_eq!(p.applied(), 0);
    assert_eq!(p.wal_len(), 0);
    assert_eq!(p.snapshot_decode_failures(), 1);
    assert!(p.latest_snapshot().is_none());
    assert_eq!(p.recovery_stats().records_replayed, 0);
    assert_eq!(p.state_root(), ExecutionPipeline::in_memory(1).state_root());
    p
}

/// Worst-case restart: the replica lost its disk too (fresh execution
/// pipeline, applied = 0) — or kept a disk only an older format
/// generation can read, which comes to the same. Peers serve their latest
/// snapshot with its quorum-signed stable checkpoint; the replica installs
/// it, fast-forwards its state machine and consensus intake past the
/// snapshotted history, and rejoins without re-executing from genesis.
#[test]
fn disk_loss_recovers_via_peer_snapshot_install() {
    disk_loss_scenario(|sys| {
        // Fresh node, empty pipeline: nothing survived the crash.
        ExecutionPipeline::in_memory_opts(sys.exec_keyspace, WalOptions::from(sys))
    });
    disk_loss_scenario(|sys| old_generation_pipeline("old-generation", sys));
    let _ = std::fs::remove_dir_all(scratch_dir("old-generation", 0));
}

/// The same worst case under LadonHotStuff: replica 3 crashes at 6 s and
/// restarts at 10 s on an empty pipeline. It installs a peer snapshot,
/// each HotStuff instance jumps to the snapshot's frontier on its
/// certified chain, and the replica confirms on with its peers to the
/// same frontier.
///
/// Replica 3 is last in every peer's multicast order, so it hears each
/// full proposal one NIC slot (about 16 ms here) after the others and
/// takes each epoch advance that much later. The frontiers are compared
/// where no advance is in flight: once all four replicas share one
/// epoch, which holds its confirmed prefix at the boundary until the
/// next epoch's first 3-chain forms.
#[test]
fn a_hotstuff_replica_restarted_with_a_wiped_disk_rejoins() {
    let mut c =
        Deployment::build(&short_epochs(ProtocolKind::LadonHotStuff, 30.0).with_crash(3, 6.0));
    c.run_secs(10.0);
    let wiped = ExecutionPipeline::in_memory_opts(c.sys.exec_keyspace, WalOptions::from(&c.sys));
    c.swap_replica(3, wiped);
    let mut t = 40.0;
    c.run_secs(t);
    while (1..4).any(|r| c.node(r).epoch() != c.node(0).epoch()) {
        assert!(t < 41.0, "an epoch advance stayed in flight for a second");
        t += 0.01;
        c.run_secs(t);
    }

    assert!(c.node(3).metrics.snapshot_installs > 0);
    let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
    assert!(fronts[0] > 0);
    assert!(fronts.iter().all(|&f| f == fronts[0]), "{fronts:?}");
    assert_eq!(c.node(3).epoch(), c.node(0).epoch());
    c.check(&[0, 1, 2, 3]).assert_safe();
}

fn disk_loss_scenario(restart_with: impl FnOnce(&SystemConfig) -> ExecutionPipeline) {
    let mut c = Deployment::build(&short_epochs(ProtocolKind::LadonPbft, 30.0).with_crash(3, 6.0));
    c.run_secs(12.0);
    let healthy_applied = c.node(0).exec.applied();
    assert!(healthy_applied > 0);

    let restarted = restart_with(&c.sys);
    assert_eq!(restarted.applied(), 0);
    c.swap_replica(3, restarted);
    c.run_secs(55.0);

    let r3 = c.node(3);
    assert!(
        r3.metrics.snapshot_installs > 0,
        "a from-zero replica must recover via a peer snapshot, not log replay"
    );
    // The fast-forwarded prefix is surfaced, not silent: the replica
    // skipped exactly the confirm records the snapshot covered.
    assert!(
        r3.metrics.skipped_sns > 0,
        "a snapshot install on a from-zero replica must report the \
         fast-forwarded prefix as skipped sns"
    );
    assert!(r3.exec.applied() >= healthy_applied);
    assert_eq!(r3.epoch(), c.node(0).epoch());
    assert_eq!(r3.metrics.root_conflicts, 0);
    // Serve-side accounting: some peer shipped the snapshot head with
    // real chunk bytes behind the install counted above, and no replica's
    // snapshot store saw a decode failure along the way.
    let (served, bytes): (u64, u64) = (0..3)
        .map(|r| {
            let m = &c.node(r).metrics;
            (m.snapshots_served, m.snapshot_bytes_served)
        })
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(
        served > 0 && bytes > 0,
        "a from-zero install must show up in the peers' serve counters \
         (served={served} bytes={bytes})"
    );
    for r in 0..3 {
        assert_eq!(c.node(r).metrics.exec.snapshot_decode_failures, 0);
    }
    c.check(&[0, 1, 2, 3]).assert_safe();
}

/// Snapshot serving minimum-gap policy: a replica one block behind the
/// responder's snapshot gets log entries, never a full-keyspace snapshot;
/// a deeply lagging replica gets the snapshot with its proving
/// checkpoint.
#[test]
fn one_block_behind_gets_log_sync_not_snapshot() {
    let mut c = Deployment::build(&short_epochs(ProtocolKind::LadonPbft, 12.0));
    c.run_secs(15.0);

    let responder = c.node(0);
    let snap = responder
        .exec
        .latest_snapshot()
        .expect("responder must have checkpointed");
    assert!(snap.head.applied > 1, "need history to lag behind");
    let m = c.sys.m;

    // A requester one block behind the snapshot, with a near-tip commit
    // frontier (one round behind per instance — old rounds are pruned at
    // epoch boundaries, exactly like a real barely-behind replica's
    // request): log sync only.
    let near = SyncRequest {
        epoch: ladon::types::Epoch(responder.epoch()),
        applied: snap.head.applied - 1,
        frontier: responder
            .commit_frontier()
            .iter()
            .map(|r| Round(r.0.saturating_sub(1)))
            .collect(),
    };
    let resp = responder
        .build_sync_response(&near)
        .expect("log entries must still be served");
    assert!(
        resp.snapshot.is_none(),
        "a 1-block-behind replica must not be shipped a snapshot"
    );
    assert!(
        !resp.entries.is_empty(),
        "the near-frontier requester is repaired by log entries"
    );

    // A from-zero requester: lags by ≥ snapshot_min_lag, gets the
    // snapshot plus the checkpoint that proves it.
    assert!(
        snap.head.applied >= c.sys.snapshot_min_lag(),
        "run too short for the policy threshold"
    );
    let deep = SyncRequest {
        epoch: ladon::types::Epoch(0),
        applied: 0,
        frontier: vec![Round(0); m],
    };
    let resp = responder
        .build_sync_response(&deep)
        .expect("a deep lagger must be served");
    let shipped = resp.snapshot.expect("deep lag must ship the snapshot");
    assert!(shipped.verify(), "served snapshot must self-verify");
    let cp = resp.checkpoint.expect("snapshot must come with its proof");
    assert_eq!(cp.state_root, shipped.head.root);
    // The snapshot ships whole, as the responder holds it.
    assert_eq!(&shipped, snap);
}

// ---------------------------------------------------------------------
// Crash-during-compaction matrix: the WAL's atomic segment rotation is
// killed at *every* storage operation boundary, and recovery from the
// artifacts left behind must lose no committed block. Two levels:
// record-level over a raw CommitWal (exercising the straddler-rewrite
// window), and pipeline-level through a real checkpoint (snapshot +
// compaction), with the recovered roots asserted byte-identical to the
// pre-crash ones.
// ---------------------------------------------------------------------

/// Storage that "loses power" after a budgeted number of mutating
/// operations: once the budget is exhausted, every subsequent append,
/// rewrite, delete, manifest publish, *and fsync* silently fails —
/// exactly what a kill between two protocol steps leaves on disk.
/// Shared with the whole fault matrix via `ladon::state::faults` (the
/// old test-local `CrashBackend`, promoted to a first-class wrapper).
fn crash_backend(dir: &std::path::Path, budget: &Arc<AtomicI64>) -> FaultBackend<FileBackend> {
    FaultBackend::kill_budget(FileBackend::open_dir(dir).unwrap(), budget.clone())
}

fn scratch_dir(tag: &str, k: i64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ladon-{tag}-{}-{k}", std::process::id()))
}

/// Small segments, so a dozen records already roll and seal several.
fn small_segments() -> WalOptions {
    WalOptions {
        segment_records: 4,
        ..WalOptions::default()
    }
}

/// What the budgeted window of one kill-sweep run did to storage.
struct Window {
    /// Mutating storage ops issued since the kill budget was armed.
    ops: u64,
    /// Ops the budget denied.
    denied: u64,
}

impl Window {
    /// The window that opened when `plan` had seen `armed_at` ops.
    fn since(plan: &FaultPlan, armed_at: u64) -> Self {
        Window {
            ops: plan.mutating_ops() - armed_at,
            denied: plan.injected_faults(),
        }
    }
}

/// Drives one crash matrix: a clean pass of `scenario` (unlimited
/// budget) counts the mutating storage ops its budgeted window issues,
/// then the scenario reruns with storage dying `k` ops into the window
/// for every `k` in `0..=ops` — so the sweep spans every storage op of
/// the scenario by construction, whatever a barrier, roll or rotation
/// costs in ops. Each run gets its own scratch directory. Every `k`
/// short of `ops` must kill something, and the last one must be a clean
/// run again.
fn kill_sweep(tag: &str, scenario: impl Fn(i64, &std::path::Path) -> Window) {
    let run = |k: i64| {
        let dir = scratch_dir(tag, k);
        let _ = std::fs::remove_dir_all(&dir);
        let window = scenario(k, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        window
    };
    let clean = run(i64::MAX);
    assert_eq!(clean.denied, 0, "{tag}: the unbudgeted pass must be clean");
    for k in 0..=clean.ops as i64 {
        let window = run(k);
        assert_eq!(
            window.denied == 0,
            k == clean.ops as i64,
            "{tag} k={k} of {}: exactly the last run survives its window",
            clean.ops
        );
    }
}

/// A synthetic record.
fn raw_record(sn: u64) -> WalRecord {
    WalRecord {
        sn,
        instance: (sn % 4) as u32,
        round: sn / 4 + 1,
        rank: sn,
        first_tx: sn * 10,
        count: 10,
        bucket: 0,
        payload_bytes: 5000,
        payload_digest: Digest([sn as u8; 32]),
    }
}

/// Append-window matrix: storage dies `k` ops into a run of appends
/// (covering the roll-create → manifest-publish → record-append windows,
/// including the very first append on a fresh WAL). Every record that
/// was acknowledged with a clean durability alarm must survive reopen.
#[test]
fn wal_append_crash_matrix_preserves_acked_records() {
    let opts = small_segments();
    kill_sweep("append-crash", |k, dir| {
        let budget = Arc::new(AtomicI64::new(k));
        let backend = crash_backend(dir, &budget);
        let plan = backend.plan();
        let mut acked = 0u64;
        {
            let mut wal = CommitWal::open(Box::new(backend), opts);
            for sn in 0..12 {
                wal.append_buffered(raw_record(sn));
                wal.flush();
                if wal.write_failures() == 0 {
                    // Fully durable as far as the WAL reported: nothing
                    // failed through the end of this append.
                    acked = sn + 1;
                }
            }
        }
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(dir).unwrap()), opts);
        assert!(
            wal.len() as u64 >= acked,
            "k={k}: {acked} records were acked clean but only {} survived",
            wal.len()
        );
        for sn in 0..wal.len() as u64 {
            assert_eq!(wal.records()[sn as usize], raw_record(sn), "k={k}");
        }
        Window::since(&plan, 0)
    });
}

/// Record-level matrix: a mid-log compaction (which exercises the
/// straddler rewrite as well as deletes and the manifest publish) is
/// killed after `k` storage ops, for every `k`; reopening with healthy
/// storage must still hold every record past the covered floor, densely.
#[test]
fn wal_compaction_crash_matrix_loses_no_record() {
    let opts = small_segments();
    let records = 30u64;
    let upto = 18u64; // mid-segment: forces a straddler rewrite
    kill_sweep("wal-crash", |k, dir| {
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let backend = crash_backend(dir, &budget);
        let plan = backend.plan();
        let armed_at;
        {
            let mut wal = CommitWal::open(Box::new(backend), opts);
            for sn in 0..records {
                wal.append_buffered(raw_record(sn));
                wal.flush();
            }
            assert_eq!(wal.write_failures(), 0, "k={k}: healthy run must be clean");
            // The power will die k storage ops into the compaction.
            armed_at = plan.mutating_ops();
            budget.store(k, Ordering::SeqCst);
            wal.compact(upto);
            // Process dies here; whatever reached disk is what recovery
            // gets.
        }
        let wal =
            CommitWal::open_with_floor(Box::new(FileBackend::open_dir(dir).unwrap()), opts, upto);
        let tail: Vec<u64> = wal.records().iter().map(|r| r.sn).collect();
        let expect: Vec<u64> = (upto..records).collect();
        assert_eq!(
            tail, expect,
            "k={k}: compaction crash lost committed records"
        );
        for sn in upto..records {
            assert_eq!(
                wal.records()[(sn - upto) as usize],
                raw_record(sn),
                "k={k}: record {sn} content changed across the crash"
            );
        }
        Window::since(&plan, armed_at)
    });
}

/// Pipeline-level matrix: a real epoch checkpoint (durable snapshot,
/// then WAL compaction) is killed after `k` storage ops. Recovery from
/// the surviving artifacts must reproduce the pre-crash frontier and a
/// byte-identical root.
#[test]
fn checkpoint_compaction_crash_matrix_recovers_exact_state() {
    let wal_opts = small_segments();
    let blocks = 16u64;
    kill_sweep("ckpt-crash", |k, dir| {
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let backend = crash_backend(&dir.join("wal"), &budget);
        let plan = backend.plan();
        let armed_at;
        let (pre_root, pre_lane_roots) = {
            let mut p = ExecutionPipeline::recover_backend(
                dir,
                Box::new(backend),
                DEFAULT_KEYSPACE,
                1,
                wal_opts,
            )
            .unwrap();
            for sn in 0..blocks {
                p.execute(sn, &Block::synthetic(sn, sn * 50, 50));
            }
            assert_eq!(p.wal_write_failures(), 0, "k={k}: run must start clean");
            armed_at = plan.mutating_ops();
            budget.store(k, Ordering::SeqCst);
            p.checkpoint(0, Vec::new());
            (p.state_root(), p.lane_roots())
        };
        let r = ExecutionPipeline::recover_opts(dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
        assert_eq!(
            r.applied(),
            blocks,
            "k={k}: compaction crash lost committed blocks"
        );
        assert_eq!(
            r.state_root(),
            pre_root,
            "k={k}: recovered root differs from pre-crash root"
        );
        assert_eq!(
            r.lane_roots(),
            pre_lane_roots,
            "k={k}: recovered lane-root vector differs"
        );
        Window::since(&plan, armed_at)
    });
}

/// The disk a kill between a checkpoint's durable snapshot and the
/// compaction behind it leaves under `dir`: a WAL holding all
/// `history + tail` records (64-tx blocks) beside a snapshot covering
/// exactly `history`. Returns the root of a clean in-memory run.
fn uncompacted_checkpoint_dir(dir: &Path, history: u64, tail: u64, opts: WalOptions) -> Digest {
    let backend = FileBackend::open_dir(dir.join("wal")).unwrap();
    let mut wal = CommitWal::open(Box::new(backend), opts);
    let mut clean = ExecutionPipeline::in_memory(4096);
    let mut snapshot = None;
    for sn in 0..history + tail {
        let b = Block::synthetic(sn, sn * 64, 64);
        wal.append_buffered(WalRecord::of_block(sn, &b));
        clean.execute(sn, &b);
        if sn + 1 == history {
            clean.checkpoint(1, Vec::new());
            snapshot = clean.latest_snapshot().cloned();
        }
    }
    assert!(wal.flush());
    let mut store = SnapshotStore::at_dir(dir).unwrap();
    assert!(store.put(snapshot.expect("the history checkpointed")));
    clean.state_root()
}

/// Partial replay: recovery from an uncompacted checkpoint replays the
/// tail past the snapshot and scans only the segments holding it, at
/// every depth of covered history — the log's length does not show.
#[test]
fn recovery_replays_the_tail_not_the_log() {
    const TAIL: u64 = 24;
    let opts = WalOptions {
        segment_records: 8,
        ..WalOptions::default()
    };
    // The tail's segments, the straddler at the snapshot cut, and the
    // active segment.
    let scan_cap = TAIL / opts.segment_records as u64 + 2;
    for history in [64, 256, 1024] {
        let dir = scratch_dir("replay-tail", history as i64);
        let _ = std::fs::remove_dir_all(&dir);
        let clean_root = uncompacted_checkpoint_dir(&dir, history, TAIL, opts);
        let recovered = ExecutionPipeline::recover_opts(&dir, 4096, 1, opts).unwrap();
        let stats = recovered.recovery_stats();
        assert_eq!(stats.records_replayed, TAIL, "history {history}");
        assert_eq!(stats.replayed_txs, TAIL * 64, "history {history}");
        assert!(
            stats.segments_scanned <= scan_cap,
            "history {history}: {} segments scanned, cap {scan_cap}",
            stats.segments_scanned
        );
        assert_eq!(recovered.applied(), history + TAIL);
        assert_eq!(recovered.state_root(), clean_root, "history {history}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Group-commit crash matrix: the batched write path introduces a new
// boundary — records staged by `append_buffered` are unacknowledged
// until their batch's `flush` barrier returns. The matrices below kill
// storage at every op across that boundary (including between staging
// and flush, and between a flush's write and its fsync) and assert the
// acknowledgement contract: a flushed batch is never lost; a
// staged-but-unflushed batch may be lost but corrupts nothing.
// ---------------------------------------------------------------------

/// WAL-level matrix: batches of 3 records are staged + flushed while the
/// storage dies `k` ops in; a final batch is staged and *never* flushed
/// (the process dies in the stage→flush window). Every record whose
/// flush was acknowledged clean must survive reopen, in order, with
/// nothing corrupted after it.
#[test]
fn wal_group_commit_crash_matrix_preserves_flushed_batches() {
    let opts = small_segments();
    kill_sweep("group-commit-crash", |k, dir| {
        let budget = Arc::new(AtomicI64::new(k));
        let backend = crash_backend(dir, &budget);
        let plan = backend.plan();
        let mut acked = 0u64;
        {
            let mut wal = CommitWal::open(Box::new(backend), opts);
            let mut sn = 0u64;
            for _batch in 0..5 {
                for _ in 0..3 {
                    wal.append_buffered(raw_record(sn));
                    sn += 1;
                }
                let clean_before = wal.write_failures() == 0;
                wal.flush();
                if clean_before && wal.write_failures() == 0 {
                    // Every barrier up to and including this one reported
                    // success: the whole prefix is durably acknowledged.
                    acked = sn;
                }
            }
            // Stage one more batch and die before its flush: these
            // records were never acknowledged and may vanish.
            wal.append_buffered(raw_record(sn));
            wal.append_buffered(raw_record(sn + 1));
            assert_eq!(wal.staged_len(), 2);
        }
        let wal = CommitWal::open(Box::new(FileBackend::open_dir(dir).unwrap()), opts);
        assert!(
            wal.len() as u64 >= acked,
            "k={k}: {acked} records were acknowledged by clean flushes \
             but only {} survived",
            wal.len()
        );
        for sn in 0..wal.len() as u64 {
            assert_eq!(
                wal.records()[sn as usize],
                raw_record(sn),
                "k={k}: record {sn} corrupted across the crash"
            );
        }
        Window::since(&plan, 0)
    });
}

/// Cross-drain group-commit matrix: several `stage_blocks` calls
/// accumulate as *staged* blocks — WAL records buffered, nothing
/// applied, nothing acknowledged — before one deferred drain makes them
/// durable. The matrix kills storage `k` ops into the run and, for each
/// `k`, ends it three ways: the process dies with the accumulation never
/// drained; it drains; or it drains and then dies with one more drain
/// staged behind the barrier. Staged-but-unflushed records must NEVER
/// be acknowledged: recovery may hold only the flushed prefix, and a
/// clean deferred drain must land every accumulated drain.
#[test]
fn cross_drain_accumulation_crash_matrix_never_acks_unflushed_records() {
    let wal_opts = small_segments();
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, Block::synthetic(sn, sn * 50, 50)))
            .collect()
    };
    for end in ["die", "drain", "drain-then-stage"] {
        let tag = format!("cross-drain-{end}");
        kill_sweep(&tag, |k, dir| {
            let budget = Arc::new(AtomicI64::new(i64::MAX));
            let backend = crash_backend(&dir.join("wal"), &budget);
            let plan = backend.plan();
            let armed_at;
            let acked = {
                let mut p = ExecutionPipeline::recover_backend(
                    dir,
                    Box::new(backend),
                    DEFAULT_KEYSPACE,
                    1,
                    wal_opts,
                )
                .unwrap();
                // A flushed baseline drain, then the storage runs on a
                // budget while three further drains accumulate staged.
                p.execute_batch(&batch_of(0, 4));
                assert_eq!(p.wal_write_failures(), 0, "k={k}: run must start clean");
                armed_at = plan.mutating_ops();
                budget.store(k, Ordering::SeqCst);
                p.stage_blocks(&batch_of(4, 2));
                p.stage_blocks(&batch_of(6, 2));
                p.stage_blocks(&batch_of(8, 2));
                // Staging does no backend I/O and applies nothing.
                assert_eq!(p.staged_records(), 6, "k={k}");
                assert_eq!(p.applied(), 4, "k={k}: staged blocks must not apply");
                assert_eq!(p.next_sn(), 10, "k={k}");
                if end == "die" {
                    // Die in the accumulate window: the three drains
                    // were never flushed and must never be acknowledged.
                    4
                } else {
                    assert_eq!(p.submit_staged(), 4..10, "k={k}: the drain applies all");
                    if end == "drain-then-stage" {
                        // A drain staged behind the barrier, never run.
                        p.stage_blocks(&batch_of(10, 2));
                        assert_eq!((p.applied(), p.staged_records()), (10, 2), "k={k}");
                    }
                    if p.perf().wal_flush_failures == 0 && p.wal_write_failures() == 0 {
                        10
                    } else {
                        4
                    }
                }
            };
            let r = ExecutionPipeline::recover_opts(dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
            assert!(
                r.applied() >= acked,
                "k={k} {end}: an acknowledged prefix was lost \
                 (recovered {} < acked {acked})",
                r.applied()
            );
            let never_flushed_from = if end == "die" { 4 } else { 10 };
            assert!(
                r.applied() <= never_flushed_from,
                "k={k} {end}: records staged but never flushed must never \
                 be acknowledged (recovered {})",
                r.applied()
            );
            // Whatever survived re-executes to the identical root.
            let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
            for sn in 0..r.applied() {
                reference.execute(sn, &Block::synthetic(sn, sn * 50, 50));
            }
            assert_eq!(r.state_root(), reference.state_root(), "k={k} {end}");
            Window::since(&plan, armed_at)
        });
    }
}

/// Pipeline-level matrix over the batched execution path: confirmed
/// blocks drain through `execute_batch` (stage → one flush barrier →
/// apply) while storage dies `k` ops in. Recovery from the surviving
/// artifacts must hold every block of every cleanly-flushed batch and
/// reproduce a root byte-identical to a clean re-execution of exactly
/// the recovered prefix.
#[test]
fn batched_execution_crash_matrix_recovers_acked_prefix() {
    let wal_opts = small_segments();
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, Block::synthetic(sn, sn * 50, 50)))
            .collect()
    };
    kill_sweep("batched-exec-crash", |k, dir| {
        let budget = Arc::new(AtomicI64::new(i64::MAX));
        let backend = crash_backend(&dir.join("wal"), &budget);
        let plan = backend.plan();
        let armed_at;
        let acked = {
            let mut p = ExecutionPipeline::recover_backend(
                dir,
                Box::new(backend),
                DEFAULT_KEYSPACE,
                1,
                wal_opts,
            )
            .unwrap();
            // Two clean batches, then the power dies k storage ops into
            // the third batch's stage/flush window.
            p.execute_batch(&batch_of(0, 4));
            p.execute_batch(&batch_of(4, 4));
            assert_eq!(p.wal_write_failures(), 0, "k={k}: run must start clean");
            armed_at = plan.mutating_ops();
            budget.store(k, Ordering::SeqCst);
            p.execute_batch(&batch_of(8, 4));
            if p.wal_write_failures() == 0 {
                12
            } else {
                8
            }
        };
        let r = ExecutionPipeline::recover_opts(dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
        assert!(
            r.applied() >= acked,
            "k={k}: an acknowledged batch was lost \
             (recovered {} < acked {acked})",
            r.applied()
        );
        // The recovered prefix — whatever survived past the ack
        // floor — must re-execute to the identical root.
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        for sn in 0..r.applied() {
            reference.execute(sn, &Block::synthetic(sn, sn * 50, 50));
        }
        assert_eq!(
            r.state_root(),
            reference.state_root(),
            "k={k}: recovered root diverges from a clean \
             re-execution of the recovered prefix"
        );
        Window::since(&plan, armed_at)
    });
}

/// Report-level fault surfacing: a torn WAL tail must show up not just
/// in [`ladon::state::ReplayStats`] but all the way through
/// `NodeMetrics` aggregation into the experiment [`Report`] — the same
/// chain the runner uses — so fault-matrix outcomes are assertable from
/// the top-level document.
#[test]
fn torn_wal_recovery_surfaces_replay_stats_in_report() {
    use ladon::types::TimeNs;
    use ladon::workload::{aggregate, metrics::empty_nodes, RunData};

    let opts = small_segments();
    let keyspace = DEFAULT_KEYSPACE;
    let dir = scratch_dir("report-torn", 0);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut wal = CommitWal::open(
            Box::new(FileBackend::open_dir(dir.join("wal")).unwrap()),
            opts,
        );
        for sn in 0..12u64 {
            let b = Block::synthetic(sn, sn * 16, 16);
            wal.append_buffered(WalRecord::of_block(sn, &b));
            if sn % 4 == 3 {
                assert!(wal.flush());
            }
        }
        assert_eq!(wal.write_failures(), 0);
    }
    // Tear the newest segment mid-batch (trailer plus a few record
    // bytes): an acknowledged-loss tail, with the prefix intact.
    let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    let victim = segs.last().expect("the run must have produced segments");
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() - TRAILER_LEN - 7]).unwrap();

    let recovered = ExecutionPipeline::recover_opts(&dir, keyspace, 1, opts).unwrap();
    let stats = recovered.recovery_stats().clone();
    assert!(
        stats.records_torn > 0,
        "the tear must classify as torn loss"
    );
    assert!(stats.records_replayed > 0, "the intact prefix must replay");
    assert!(stats.segments_clean_end > 0, "untouched segments end clean");

    // The same chain the runner uses: pipeline stats -> NodeMetrics ->
    // the Report's registry.
    let mut nodes = empty_nodes(4);
    nodes[0].exec = recovered.stats();
    let report = aggregate(&RunData {
        nodes,
        f: 1,
        window_start: TimeNs::ZERO,
        window_end: TimeNs::from_millis(1_000),
        reference: 0,
        waiting_blocks: 0,
    });
    let m = &report.metrics;
    assert_eq!(m.counter("replay.records_torn"), stats.records_torn);
    assert_eq!(
        m.counter("replay.records_unacked_lost"),
        stats.records_unacked_lost
    );
    assert_eq!(m.counter("replay.records_replayed"), stats.records_replayed);
    assert_eq!(
        m.counter("replay.segments_clean_end"),
        stats.segments_clean_end
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a partial record at the end of the active
/// segment. The recovering process must not append behind it: bytes past
/// a tear are never decoded, so every block acknowledged after the
/// recovery — behind clean barriers, with no alarm anywhere — would be
/// gone at the next restart. A process appends only to segments it
/// created; what it finds, it seals.
#[test]
fn blocks_acknowledged_after_a_torn_tail_survive_the_next_restart() {
    let dir = scratch_dir("torn-resume", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let open = || ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, WalOptions::default());
    let block = |sn: u64| Block::synthetic(sn, sn * 50, 50);
    {
        let mut p = open().unwrap();
        for sn in 0..5 {
            p.execute(sn, &block(sn));
        }
    }
    // The crash: the last append's bytes only partly reached the file.
    let segs: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    assert_eq!(segs.len(), 1, "five records sit in the one active segment");
    let bytes = std::fs::read(&segs[0]).unwrap();
    std::fs::write(&segs[0], &bytes[..bytes.len() - 30]).unwrap();
    {
        let mut p = open().unwrap();
        assert_eq!(p.applied(), 4, "the longest intact prefix recovers");
        assert_eq!(p.recovery_stats().records_torn, 0);
        for sn in 4..7 {
            p.execute(sn, &block(sn));
        }
        let stats = p.stats();
        assert_eq!(stats.wal_write_failures, 0);
        assert_eq!(stats.perf.wal_flush_failures, 0);
        assert_eq!(
            stats.perf.flush_barriers, 3,
            "three clean, acknowledged barriers"
        );
    }
    let p = open().unwrap();
    assert_eq!(p.applied(), 7, "acknowledged blocks must survive a restart");
    let stats = p.recovery_stats();
    assert_eq!(stats.records_replayed, 7);
    assert_eq!((stats.records_torn, stats.records_unacked_lost), (0, 0));
    let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
    for sn in 0..7 {
        reference.execute(sn, &block(sn));
    }
    assert_eq!(p.state_root(), reference.state_root());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption in the middle of the log opens a gap: the records past it
/// can never replay (their position is unprovable), and the recovering
/// replica re-executes those `sn`s with whatever the cluster really
/// confirmed. The stale records must be gone from *storage*, not just
/// from the in-memory mirror — a later restart loads by `sn`, and a
/// surviving stale record would shadow the block that was actually
/// executed in its place.
#[test]
fn stale_records_past_a_gap_cannot_shadow_reexecuted_blocks() {
    let dir = scratch_dir("stale-shadow", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let open = || ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, small_segments());
    {
        let mut p = open().unwrap();
        for sn in 0..12 {
            p.execute(sn, &Block::synthetic(sn, sn * 50, 50));
        }
    }
    // Rot the second record of the middle segment: sns 0..=4 survive,
    // 5..=7 are lost, 8..=11 dangle past the gap in an intact segment.
    let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    assert_eq!(segs.len(), 3);
    let mut bytes = std::fs::read(&segs[1]).unwrap();
    bytes[ENCODED_RECORD_LEN + 20] ^= 0xff;
    std::fs::write(&segs[1], bytes).unwrap();

    // The cluster's real history differs from the stale tail's.
    let real = |sn: u64| Block::synthetic(sn, 1_000_000 + sn * 50, 30);
    let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
    for sn in 0..5 {
        reference.execute(sn, &Block::synthetic(sn, sn * 50, 50));
    }
    {
        let mut p = open().unwrap();
        assert_eq!(p.applied(), 5);
        for sn in 5..10 {
            p.execute(sn, &real(sn));
            reference.execute(sn, &real(sn));
        }
        assert_eq!(p.wal_write_failures(), 0);
        assert_eq!(p.state_root(), reference.state_root());
    }
    let p = open().unwrap();
    assert_eq!(p.applied(), 10, "no stale record may extend the log");
    assert_eq!(
        p.state_root(),
        reference.state_root(),
        "a stale record replayed in place of the executed block"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The barrier alarm: a failed durability barrier must propagate
/// `PipelinePerf::wal_flush_failures` → `NodeMetrics::exec` →
/// `Report.wal_flush_failures`. The drained range is still returned (the
/// in-memory mirror is authoritative and the blocks apply), but the
/// alarm is raised before any caller can treat it as durable.
#[test]
fn failed_flush_barrier_raises_alarm_through_report() {
    use ladon::types::TimeNs;
    use ladon::workload::{aggregate, metrics::empty_nodes, RunData};

    let wal_opts = small_segments();
    let batch_of = |from: u64, n: u64| -> Vec<(u64, ladon::types::Block)> {
        (from..from + n)
            .map(|sn| (sn, Block::synthetic(sn, sn * 50, 50)))
            .collect()
    };
    let dir = scratch_dir("alarm", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let budget = Arc::new(AtomicI64::new(i64::MAX));
    let backend = crash_backend(&dir.join("wal"), &budget);
    let mut p =
        ExecutionPipeline::recover_backend(&dir, Box::new(backend), DEFAULT_KEYSPACE, 1, wal_opts)
            .unwrap();
    p.execute_batch(&batch_of(0, 4));
    assert_eq!(p.perf().wal_flush_failures, 0, "a clean run must not alarm");
    // The disk dies: every write in the next barrier fails.
    budget.store(0, Ordering::SeqCst);
    p.stage_blocks(&batch_of(4, 2));
    assert_eq!(p.submit_staged(), 4..6, "the range is still reported");
    assert!(
        p.perf().wal_flush_failures >= 1,
        "the failed barrier must raise the alarm"
    );
    assert!(p.wal_write_failures() > 0);

    // pipeline stats → NodeMetrics → Report: the exact chain the runner
    // uses, so fault outcomes are assertable from the top document.
    let mut nodes = empty_nodes(4);
    nodes[0].exec = p.stats();
    assert!(
        nodes[0].exec.perf.wal_flush_failures >= 1,
        "NodeMetrics must carry the alarm"
    );
    let report = aggregate(&RunData {
        nodes,
        f: 1,
        window_start: TimeNs::ZERO,
        window_end: TimeNs::from_millis(1_000),
        reference: 0,
        waiting_blocks: 0,
    });
    assert!(
        report.wal_flush_failures >= 1,
        "a failed barrier must surface as a nonzero \
         Report.wal_flush_failures, never a silently \"durable\" range"
    );
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
}
