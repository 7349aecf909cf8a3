//! Group-commit WAL benchmark (no paper analog): the durability barrier
//! amortizes over a batch of appends, so fsync cost per record scales as
//! `1/batch`, segment-file opens are O(segments), and the durable
//! artifact is byte-identical to an unbatched writer's.
//!
//! Every acceptance gate is stated in deterministic *counts* from the
//! backend's [`ladon_state::WalIoStats`] (fsync barriers, staged writes,
//! handle opens, bytes) — shared CI runners jitter, syscall counts do
//! not. Wall-clock append+flush latency is printed as informational
//! context only.

use ladon_bench::microbench;
use ladon_obs::{emit_figure, fields, Json};
use ladon_state::{
    CommitWal, ExecutionPipeline, FileBackend, WalOptions, WalRecord, ENCODED_RECORD_LEN,
    TRAILER_LEN,
};
use ladon_types::{Block, Digest};

/// Records appended per sweep point.
const RECORDS: u64 = 256;
/// The batch-size sweep of the acceptance gate.
const BATCHES: [u64; 4] = [1, 4, 16, 64];

/// A synthetic record touching every lane (a barrier's cost must not
/// depend on the mask).
fn full_mask_record(sn: u64) -> WalRecord {
    WalRecord {
        sn,
        instance: (sn % 4) as u32,
        round: sn / 4 + 1,
        rank: sn,
        first_tx: sn * 64,
        count: 64,
        bucket: 0,
        payload_bytes: 32_000,
        payload_digest: Digest([sn as u8; 32]),
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ladon-group-commit-{tag}-{}", std::process::id()))
}

fn main() {
    println!("fig_wal_group_commit: batched fsync barriers, cached segment handles\n");

    // ------------------------------------------------------------------
    // 1. Fsyncs per batch, flat across the batch-size sweep.
    // ------------------------------------------------------------------
    let opts = WalOptions {
        // No mid-sweep segment rolls: the steady-state window must
        // isolate the group-commit barriers from the (amortized,
        // one-time) roll bookkeeping.
        segment_records: 4096,
        ..WalOptions::default()
    };
    println!("{RECORDS} full-mask records; steady-state window:");
    println!("  batch | flushes | fsyncs | fsyncs/batch | fsyncs/record | opens");
    println!("  ------+---------+--------+--------------+---------------+------");
    let mut emitted = fields(vec![("records", Json::U64(RECORDS))]);
    for &batch in &BATCHES {
        let dir = scratch(&format!("sweep-{batch}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts);
        let mut sn = 0u64;
        // Warm batch: creates the active segment (write + manifest
        // publish, a one-time cost the steady-state window excludes).
        for _ in 0..batch {
            wal.append_buffered(full_mask_record(sn));
            sn += 1;
        }
        assert!(wal.flush());
        let s0 = wal.io_stats();
        let mut flushes = 0u64;
        while sn < RECORDS {
            for _ in 0..batch.min(RECORDS - sn) {
                wal.append_buffered(full_mask_record(sn));
                sn += 1;
            }
            assert!(wal.flush());
            flushes += 1;
        }
        let s1 = wal.io_stats();
        assert_eq!(wal.write_failures(), 0, "batch={batch}: run must be clean");

        let fsyncs = s1.fsyncs - s0.fsyncs;
        let writes = s1.appends - s0.appends;
        let bytes = s1.bytes_written - s0.bytes_written;
        let steady_records = RECORDS - batch;
        println!(
            "  {batch:>5} | {flushes:>7} | {fsyncs:>6} | {:>12} | {:>13.3} | {:>5}",
            fsyncs / flushes,
            fsyncs as f64 / steady_records as f64,
            s1.segment_opens,
        );

        // THE gate: one fsync (and one staged write) per flushed batch
        // — never per record — at every batch size.
        assert_eq!(fsyncs, flushes, "batch={batch}: fsyncs must be 1 per batch");
        assert_eq!(writes, flushes, "batch={batch}: writes must be 1 per batch");
        // Every record's encoding lands exactly once, plus one batch
        // trailer per flush closing the run at an acknowledgement
        // boundary.
        assert_eq!(
            bytes,
            steady_records * ENCODED_RECORD_LEN as u64 + flushes * TRAILER_LEN as u64,
            "batch={batch}: staged bytes must match records + trailers"
        );
        // Handle-cache gate: opens are O(segments) — one per active
        // segment ever created — not O(appends).
        assert_eq!(
            s1.segment_opens, 1,
            "batch={batch}: the active segment must be opened exactly once"
        );

        emitted.push((
            format!("batch_{batch}_fsyncs_per_flush"),
            Json::U64(fsyncs / flushes),
        ));
        emitted.push((
            format!("batch_{batch}_fsyncs_per_record"),
            Json::F64(fsyncs as f64 / steady_records as f64),
        ));

        // Informational wall clock (not a gate).
        let r = microbench(&format!("append_flush_batch_{batch:>2}"), 10, || {
            let mut b = 0u64;
            for _ in 0..batch {
                wal.append_buffered(full_mask_record(sn + b));
                b += 1;
            }
            wal.flush();
            sn += b;
            b
        });
        let _ = r;
        let _ = std::fs::remove_dir_all(&dir);
    }
    emit_figure("fig_wal_group_commit_sweep", emitted);
    println!(
        "\n  -> fsyncs per batch constant at 1 across a {}x batch-size sweep; \
         fsyncs per record fall as 1/batch (verified)",
        BATCHES[BATCHES.len() - 1] / BATCHES[0]
    );

    // ------------------------------------------------------------------
    // 2. Segment-file opens are O(segments) even across many rolls.
    // ------------------------------------------------------------------
    let roll_opts = WalOptions {
        segment_records: 8,
        ..WalOptions::default()
    };
    let dir = scratch("rolls");
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), roll_opts);
    for sn in 0..128 {
        wal.append(full_mask_record(sn)); // per-record appends: worst case
    }
    assert_eq!(wal.write_failures(), 0);
    let io = wal.io_stats();
    let segments = wal.segments().len() as u64;
    println!(
        "\nroll sweep: 128 records → {segments} segments; opens {} vs appends {}",
        io.segment_opens, io.appends
    );
    assert_eq!(
        io.segment_opens, segments,
        "opens must equal segments created (O(segments))"
    );
    assert_eq!(io.appends, 128, "every record stages once");
    assert!(
        io.segment_opens < io.appends / 4,
        "opens must not scale with appends: {io:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("  -> segment opens O(segments), not O(appends) (verified)");

    // ------------------------------------------------------------------
    // 3. Batched execution recovers byte-identically to per-record.
    // ------------------------------------------------------------------
    let keyspace = 4096u32;
    let pipe_opts = WalOptions {
        segment_records: 64,
        ..WalOptions::default()
    };
    let blocks: Vec<(u64, Block)> = (0..96u64)
        .map(|sn| (sn, Block::synthetic(sn, sn * 32, 32)))
        .collect();
    let mut per_record = ExecutionPipeline::in_memory(keyspace);
    for (sn, b) in &blocks {
        per_record.execute(*sn, b);
    }
    let dir = scratch("pipeline");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut batched = ExecutionPipeline::recover_opts(&dir, keyspace, 1, pipe_opts).unwrap();
        for chunk in blocks.chunks(16) {
            batched.execute_batch(chunk);
        }
        assert_eq!(batched.wal_write_failures(), 0);
        assert_eq!(batched.state_root(), per_record.state_root());
    }
    let recovered = ExecutionPipeline::recover_opts(&dir, keyspace, 4, pipe_opts).unwrap();
    assert_eq!(recovered.applied(), per_record.applied());
    assert_eq!(
        recovered.state_root(),
        per_record.state_root(),
        "recovery from a batched log must be byte-identical to per-record"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("\npipeline: batched drain recovers byte-identical root (verified)");
}
