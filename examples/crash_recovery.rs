//! Crash-fault recovery, in two acts.
//!
//! **Act 1 (paper Fig. 8):** a leader crashes at t = 11 s; the PBFT view
//! change (10 s timeout) replaces it and throughput recovers.
//!
//! **Act 2 (durable state):** a replica runs with a *disk-backed*
//! execution pipeline (commit WAL + epoch snapshots under a temp dir),
//! crashes mid-run, and a new process recovers its state machine from
//! `snapshot + WAL replay` — byte-identical root — then rejoins the
//! cluster via state transfer and ends in agreement.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use ladon::state::{ExecutionPipeline, DEFAULT_KEYSPACE};
use ladon::types::{NetEnv, ProtocolKind};
use ladon::workload::{run_experiment, Deployment, ExperimentConfig};

fn fig8_timeline() {
    println!("Ladon-PBFT, n = 16, WAN; replica 3 crashes at t = 11 s; timeout 10 s\n");
    let r = run_experiment(
        &ExperimentConfig::new(ProtocolKind::LadonPbft, 16, NetEnv::Wan)
            .duration_secs(40.0)
            .warmup_secs(0.0)
            .with_crash(3, 11.0)
            .with_view_timeout(10.0)
            .sampled(1.0),
    );

    println!("t (s) | throughput (ktps)");
    println!("------+------------------");
    for &(t, ktps) in &r.timeline {
        let bar = "#".repeat((ktps.min(80.0) / 2.0) as usize);
        println!("{t:>5.0} | {ktps:>7.2} {bar}");
    }
    println!(
        "\nview changes started: {:?}",
        r.view_change_times
            .iter()
            .map(|s| format!("{s:.1}s"))
            .collect::<Vec<_>>()
    );
    println!(
        "new views installed : {:?}",
        r.new_view_times
            .iter()
            .map(|s| format!("{s:.1}s"))
            .collect::<Vec<_>>()
    );
    println!(
        "epoch advances      : {:?}",
        r.epoch_times
            .iter()
            .map(|s| format!("{s:.1}s"))
            .collect::<Vec<_>>()
    );
    println!(
        "\nExpected shape (paper Fig. 8): throughput dips to ~0 after the crash,\n\
         the view change completes ~10 s later, and throughput recovers; later\n\
         brief dips are epoch changes."
    );
}

fn restart_from_snapshot() {
    println!("\n=== Act 2: restart from durable snapshot + WAL ===\n");
    let dir = std::env::temp_dir().join(format!("ladon-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // n = 4, LAN, 30 s of load, replica 3 crashing at t = 6 s; 16-rank
    // epochs give the demo frequent checkpoints.
    let mut d = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 30.0)
            .with_epoch_length(16)
            .with_crash(3, 6.0),
    );
    // Replica 3 journals to disk; the others stay in memory.
    let durable =
        ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).expect("create durable pipeline");
    d.swap_replica(3, durable);

    // Run past the crash (t = 6 s): replica 3's process is gone, but its
    // WAL and snapshots survive on disk.
    d.run_secs(10.0);
    let dead = d.node(3);
    let pre_root = dead.exec.state_root();
    let pre_applied = dead.exec.applied();
    println!(
        "crashed at t=6s with applied={pre_applied}, root={}, wal_tail={} records",
        pre_root.short_hex(),
        dead.exec.wal_len(),
    );

    // "New process": recover purely from the on-disk artifacts.
    let recovered = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).expect("recover from disk");
    assert_eq!(recovered.applied(), pre_applied, "recovery lost blocks");
    assert_eq!(recovered.state_root(), pre_root, "recovery changed state");
    println!(
        "recovered from disk:  applied={}, root={}  (exact match)",
        recovered.applied(),
        recovered.state_root().short_hex(),
    );
    // The segmented WAL's partial-replay breakdown: the snapshot's
    // `applied` floor decides which segments are covered, covered
    // segments are skipped without being read, and only the dirty tail
    // re-executes.
    print_recovery_breakdown(recovered.recovery_stats());

    d.swap_replica(3, recovered);
    d.run_secs(45.0);

    // Leaders keep proposing empty blocks after the load stops, so at any
    // instant a round may still be in flight to one replica: the roots
    // to compare are those of the latest checkpoint, where every replica
    // stood at the same point of the log.
    let checkpointed = |r: usize| {
        let roots = &d.node(r).metrics.state_roots;
        roots.last().map(|&(_, epoch, root)| (epoch, root))
    };
    let (r3, r0) = (d.node(3), d.node(0));
    println!();
    for (name, r) in [
        ("after rejoin at t=45s: replica 3", 3),
        ("        healthy peer 0", 0),
    ] {
        let (epoch, root) = checkpointed(r).expect("every replica checkpointed");
        println!(
            "{name}: epoch={} applied={} checkpoint of epoch {epoch}: root={}",
            d.node(r).epoch(),
            d.node(r).exec.applied(),
            root.short_hex(),
        );
    }
    println!(
        "sync: {} requests, {} blocks installed, {} snapshot installs",
        r3.metrics.sync_requests, r3.metrics.sync_installed, r3.metrics.snapshot_installs,
    );
    assert_eq!(
        r3.epoch(),
        r0.epoch(),
        "replica 3 must rejoin the epoch schedule"
    );
    assert_eq!(
        checkpointed(3),
        checkpointed(0),
        "replica 3 must converge to the cluster's checkpointed state root"
    );
    d.check(&[0, 1, 2, 3]).assert_safe();
    println!("\nOK: restarted replica recovered from snapshot + WAL and re-converged.");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Act 2b: the partial-replay path in isolation, with numbers the
/// cluster timing cannot checkpoint away. A disk-backed pipeline
/// executes 96 blocks and "crashes" in the worst spot: the epoch-64
/// snapshot reached disk but the WAL compaction behind it never ran
/// (the exact window the atomic segment rotation makes survivable), so
/// the log still holds all 96 records. Recovery installs the snapshot,
/// skips every covered segment *without reading it*, and replays
/// exactly the 32-block tail.
fn partial_replay_breakdown() {
    use ladon::state::{SnapshotStore, WalOptions};
    use ladon::types::Block;

    println!("\n=== Act 2b: partial replay breakdown (segments skipped vs scanned) ===\n");
    let dir = std::env::temp_dir().join(format!("ladon-partial-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_opts = WalOptions {
        segment_records: 8,
        ..WalOptions::default()
    };
    let block = |sn: u64| Block::synthetic(sn, sn * 64, 64);
    let pre_root = {
        // The durable log: all 96 records, no compaction.
        let mut p = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 4, wal_opts)
            .expect("create durable pipeline");
        for sn in 0..96 {
            p.execute(sn, &block(sn));
        }
        // The epoch-64 snapshot, captured by a clean re-execution and
        // persisted — standing in for a checkpoint whose compaction was
        // killed before it could rotate the old segments out.
        let mut donor = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        for sn in 0..64 {
            donor.execute(sn, &block(sn));
        }
        donor.checkpoint(0, Vec::new());
        let mut store = SnapshotStore::at_dir(&dir).expect("snapshot store");
        assert!(store.put(donor.latest_snapshot().unwrap().clone()));
        println!(
            "crashed mid-compaction at applied=96: snapshot covers 64 blocks, \
             log still holds {} records across {} segments",
            p.wal_len(),
            p.wal_segments().len(),
        );
        p.state_root()
    };
    let recovered = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 4, wal_opts)
        .expect("recover from disk");
    assert_eq!(recovered.applied(), 96);
    assert_eq!(recovered.state_root(), pre_root, "partial replay diverged");
    let stats = recovered.recovery_stats();
    assert_eq!(
        stats.records_replayed, 32,
        "replay must touch only the tail"
    );
    print_recovery_breakdown(stats);
    println!("\nOK: recovery replayed the 32-block tail only, root byte-identical.");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prints one recovery's partial-replay accounting (shared by acts 2 and
/// 2b).
fn print_recovery_breakdown(stats: &ladon::state::ReplayStats) {
    println!(
        "recovery breakdown:   {} segments skipped unread, {} scanned; \
         {} records replayed ({} txs), {} already covered",
        stats.segments_skipped,
        stats.segments_scanned,
        stats.records_replayed,
        stats.replayed_txs,
        stats.records_below_floor,
    );
}

fn main() {
    fig8_timeline();
    restart_from_snapshot();
    partial_replay_breakdown();
}
