//! Recovery-scaling benchmark (segmented per-lane WAL; no paper analog):
//! replay work after a crash is proportional to the **dirty tail past
//! the snapshot**, never to the total log length.
//!
//! The acceptance gates are stated in deterministic *counts* (records
//! replayed, segments scanned vs skipped, dirty lanes), not wall-clock —
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
    build_crashed_dir, microbench, recover_crashed_dir, scratch_dir, RECOVERY_WAL_OPTS as WAL_OPTS,
};
use ladon_obs::{emit_figure, fields, Json};
use ladon_state::{ExecutionPipeline, MERKLE_LANES};

const TAIL: u64 = 24;

fn main() {
    println!("fig_recovery_scaling: lane-segmented WAL, partial replay\n");
    let full = std::env::var("LADON_SCALE").as_deref() == Ok("full");
    let keyspace = 4096u32;

    // ------------------------------------------------------------------
    // 1. Replay work vs total log length (fixed dirty tail).
    // ------------------------------------------------------------------
    let histories: &[u64] = if full {
        &[64, 256, 1024, 4096]
    } else {
        &[64, 256, 1024]
    };
    println!(
        "fixed {TAIL}-block dirty tail behind the snapshot; total log length grows with history:"
    );
    println!("  history | log len | segs skipped | segs scanned | records replayed");
    println!("  --------+---------+--------------+--------------+-----------------");
    let mut scanned_counts = Vec::new();
    for &history in histories {
        let dir = scratch_dir("recovery-scaling", &history.to_string());
        let expect_root = build_crashed_dir(&dir, history, TAIL, keyspace);
        // The acceptance gate (inside): replayed records track the
        // dirty tail, not the total log length.
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
        let r = microbench(&format!("recover_history_{history:>4}"), 20, || {
            ExecutionPipeline::recover_opts(&dir, keyspace, 1, WAL_OPTS)
                .unwrap()
                .applied()
        });
        let _ = r;
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Scanned segments track the tail (plus at most one straddler per
    // lane group — a group that missed a block near the snapshot cut has
    // shifted segment boundaries), never the history.
    let scan_cap = (TAIL / WAL_OPTS.segment_records as u64 + 2) * WAL_OPTS.lane_groups as u64;
    assert!(
        scanned_counts.iter().all(|&s| s <= scan_cap),
        "segments scanned must be bounded by the tail ({scan_cap}), \
         not grow with history: {scanned_counts:?}"
    );
    emit_figure(
        "fig_recovery_scaling_sweep",
        fields(vec![
            ("tail_records", Json::U64(TAIL)),
            ("records_replayed", Json::U64(TAIL)),
            ("max_history", Json::U64(*histories.last().unwrap())),
            (
                "max_segments_scanned",
                Json::U64(*scanned_counts.iter().max().unwrap()),
            ),
        ]),
    );
    println!(
        "\n  -> records replayed constant at {TAIL} across a {}x log-length sweep (verified)",
        (histories.last().unwrap() + TAIL) / (histories[0] + TAIL)
    );

    // ------------------------------------------------------------------
    // 2. Replay work vs dirty lanes (narrow vs wide tail workloads).
    // ------------------------------------------------------------------
    println!("\ndirty-lane selectivity: tail over a narrowing keyspace:");
    println!("  keyspace | dirty lanes | lanes with replayed records");
    println!("  ---------+-------------+----------------------------");
    let mut dirty = Vec::new();
    for &ks in &[4096u32, 64, 4] {
        let dir = scratch_dir("recovery-lanes", &ks.to_string());
        let expect_root = build_crashed_dir(&dir, 128, TAIL, ks);
        let (stats, _) = recover_crashed_dir(&dir, 128, TAIL, ks, expect_root);
        let lanes_hit = stats.records_per_lane.iter().filter(|&&c| c > 0).count();
        println!("  {ks:>8} | {:>11} | {lanes_hit:>27}", stats.dirty_lanes());
        assert_eq!(lanes_hit as u32, stats.dirty_lanes());
        dirty.push(stats.dirty_lanes());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        dirty.windows(2).all(|w| w[0] >= w[1]) && dirty.last() < dirty.first(),
        "a narrower tail keyspace must dirty fewer lanes: {dirty:?}"
    );
    assert!(
        *dirty.last().unwrap() < MERKLE_LANES / 4,
        "a 4-key tail must dirty a small lane subset, got {dirty:?}"
    );
    println!(
        "\n  -> replay work concentrates on the dirty lanes: {TAIL} records over \
         {} lanes at keyspace 4 vs {} lanes at keyspace 4096 (verified)",
        dirty[2], dirty[0]
    );
}
