//! Recovery-scaling benchmark (segmented WAL; no paper analog): replay
//! work after a crash is proportional to the **tail past the
//! snapshot**, never to the total log length.
//!
//! The acceptance gates are stated in deterministic *counts* (records
//! replayed, segments scanned vs skipped), not wall-clock —
//! shared CI runners jitter, record counts do not. Wall-clock recovery
//! latency is printed as informational context.
//!
//! Scenario: a replica checkpointed at `H` blocks, but the compaction
//! behind the snapshot never completed (killed mid-rotation — the
//! protocol this layout makes crash-safe), so the on-disk log still
//! holds all `H + T` records. Recovery must install the snapshot, skip
//! the `H`-deep covered prefix without reading it, and replay exactly
//! the `T`-record tail.

use ladon_bench::{
    build_crashed_dir, microbench, recover_crashed_dir, recovery_wal_opts, scratch_dir,
};
use ladon_state::ExecutionPipeline;
use ladon_workload::{scale, Scale};

const TAIL: u64 = 24;

fn main() {
    println!("fig_recovery_scaling: segmented WAL, partial replay\n");
    let full = scale() == Scale::Full;
    let keyspace = 4096u32;

    // Replay work vs total log length (fixed tail).
    let histories: &[u64] = if full {
        &[64, 256, 1024, 4096]
    } else {
        &[64, 256, 1024]
    };
    println!("fixed {TAIL}-block tail behind the snapshot; total log length grows with history:");
    println!("  history | log len | segs skipped | segs scanned | records replayed");
    println!("  --------+---------+--------------+--------------+-----------------");
    let mut scanned_counts = Vec::new();
    for &history in histories {
        let dir = scratch_dir("recovery-scaling", &history.to_string());
        let expect_root = build_crashed_dir(&dir, history, TAIL, keyspace);
        // The acceptance gate (inside): replayed records track the
        // tail, not the total log length.
        let (stats, _) = recover_crashed_dir(&dir, history, TAIL, keyspace, expect_root);
        println!(
            "  {history:>7} | {:>7} | {:>12} | {:>12} | {:>16}",
            history + TAIL,
            stats.segments_skipped,
            stats.segments_scanned,
            stats.records_replayed
        );
        scanned_counts.push(stats.segments_scanned);

        // Informational wall clock (not a gate).
        microbench(&format!("recover_history_{history:>4}"), 20, || {
            ExecutionPipeline::recover_opts(&dir, keyspace, 1, recovery_wal_opts())
                .unwrap()
                .applied()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Scanned segments track the tail (plus the straddler at the
    // snapshot cut and the active segment), never the history.
    let scan_cap = TAIL / recovery_wal_opts().segment_records as u64 + 2;
    assert!(
        scanned_counts.iter().all(|&s| s <= scan_cap),
        "segments scanned must be bounded by the tail ({scan_cap}), \
         not grow with history: {scanned_counts:?}"
    );
    println!(
        "\n  -> records replayed constant at {TAIL} across a {}x log-length sweep (verified)",
        (histories.last().unwrap() + TAIL) / (histories[0] + TAIL)
    );
}
