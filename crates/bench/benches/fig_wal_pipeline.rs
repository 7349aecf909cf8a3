//! Pipelined-durability benchmark (no paper analog): the group-commit
//! barrier runs on a dedicated writer thread, so batch N's write+fsync
//! overlaps batch N-1's execution and batch N+1's staging — without
//! changing a single deterministic I/O count versus the synchronous
//! barrier.
//!
//! Every acceptance gate is stated in deterministic *counts* (applied
//! frontiers, in-flight depths, fsyncs per barrier) — never wall-clock.
//! The overlap proof is a gated backend: while a barrier is provably
//! incomplete (its append is parked at the gate), staging and the prior
//! batch's execution have already advanced.

use ladon_obs::{emit_figure, fields, Json};
use ladon_state::{
    CommitWal, ExecutionPipeline, FileBackend, WalBackend, WalOptions, WalRecord,
    ENCODED_RECORD_LEN, TRAILER_LEN,
};
use ladon_types::{Block, Digest};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// Records appended per sweep point (sweep section).
const RECORDS: u64 = 256;
/// The batch-size sweep of the count gate.
const BATCHES: [u64; 3] = [4, 16, 64];

/// A synthetic record touching every lane.
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
    std::env::temp_dir().join(format!("ladon-wal-pipeline-{tag}-{}", std::process::id()))
}

/// File storage whose record appends park at a rendezvous gate: each
/// `append_segment_batch` announces itself on `entered` and waits for
/// one `release` token. Holding the token makes "this barrier has not
/// completed" a *provable* state the main thread can assert counts in.
/// Routed through the writer thread, exactly like production File mode.
struct GatedAppends {
    inner: FileBackend,
    entered: Sender<()>,
    release: Mutex<Receiver<()>>,
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
        let _ = self.release.lock().unwrap().recv();
        self.inner
            .append_segment_batch(group, seq, records, trailer)
    }
    fn sync_group(&mut self, group: u32) -> bool {
        self.inner.sync_group(group)
    }
    fn write_segment(&mut self, group: u32, seq: u64, bytes: &[u8]) -> bool {
        self.inner.write_segment(group, seq, bytes)
    }
    fn delete_segment(&mut self, group: u32, seq: u64) -> bool {
        self.inner.delete_segment(group, seq)
    }
    fn publish_manifest(&mut self, bytes: &[u8]) -> bool {
        self.inner.publish_manifest(bytes)
    }
    fn read_segment(&mut self, group: u32, seq: u64) -> Option<Vec<u8>> {
        self.inner.read_segment(group, seq)
    }
    fn load_manifest(&mut self) -> Option<Vec<u8>> {
        self.inner.load_manifest()
    }
    fn list_segments(&mut self) -> Vec<(u32, u64)> {
        self.inner.list_segments()
    }
    fn io_stats(&self) -> ladon_state::WalIoStats {
        self.inner.io_stats()
    }
    fn prefers_writer_thread(&self) -> bool {
        true
    }
}

fn main() {
    println!("fig_wal_pipeline: writer-thread group commit, barrier/execution overlap\n");
    let keyspace = 4096u32;

    // ------------------------------------------------------------------
    // 1. THE overlap gate: wave execution proceeds while the next
    //    barrier is provably incomplete. A barrier is exactly one
    //    (gated) append + one fsync — no timeouts, no races.
    // ------------------------------------------------------------------
    let gate_opts = WalOptions {
        segment_records: 4096,
        ..WalOptions::default()
    };
    let dir = scratch("gate");
    let _ = std::fs::remove_dir_all(&dir);
    let (entered_tx, entered_rx) = channel::<()>();
    let (release_tx, release_rx) = channel::<()>();
    let backend = GatedAppends {
        inner: FileBackend::open_dir(dir.join("wal")).unwrap(),
        entered: entered_tx,
        release: Mutex::new(release_rx),
    };
    let batch_of = |from: u64, n: u64| -> Vec<(u64, Block)> {
        (from..from + n)
            .map(|sn| (sn, Block::synthetic(sn, sn * 32, 32)))
            .collect()
    };
    let (pipelined_submits, overlap_applied) = {
        let mut p =
            ExecutionPipeline::recover_backend(&dir, Box::new(backend), keyspace, 4, gate_opts)
                .unwrap();
        // Batch A flies; its append parks at the gate.
        p.stage_blocks(&batch_of(0, 2));
        assert!(p.submit_staged().is_empty(), "first submit applies nothing");
        entered_rx.recv().expect("A's barrier must reach the gate");
        // While A's barrier is provably incomplete: nothing applied,
        // nothing acknowledged — and staging B proceeds regardless
        // (double-buffered scratch never blocks on the in-flight flush).
        assert_eq!(p.inflight_records(), 2, "A in flight");
        assert_eq!(p.applied(), 0, "no ack/apply before A's token resolves");
        p.stage_blocks(&batch_of(2, 2));
        assert_eq!(p.staged_records(), 2, "staging proceeds mid-flight");
        release_tx.send(()).unwrap(); // let A land
                                      // Submit B, apply A: by the time this returns, A's waves have
                                      // executed — while B's barrier is *still* parked at the gate.
        assert_eq!(p.submit_staged(), 0..2, "A applies when its token resolves");
        entered_rx.recv().expect("B's barrier must reach the gate");
        let applied_mid_flight = p.applied();
        assert_eq!(
            applied_mid_flight, 2,
            "batch A's wave execution must complete before batch B's barrier does"
        );
        assert_eq!(p.inflight_records(), 2, "B still in flight");
        assert!(p.sched_stats().waves > 0, "real waves ran");
        release_tx.send(()).unwrap(); // let B land
        let drained = p.flush_staged();
        assert_eq!(drained, 2..4, "the drain resolves B");
        assert_eq!(p.applied(), 4);
        let perf = p.perf();
        assert_eq!(perf.wal_flush_failures, 0, "clean disk, clean barriers");
        assert_eq!(perf.flush_barriers, 2);
        assert_eq!(
            perf.pipelined_submits, 1,
            "exactly one submit overlapped a prior in-flight barrier"
        );
        (perf.pipelined_submits, applied_mid_flight)
        // Drop joins the writer thread (gate channels close with it).
    };
    // Reopen with plain storage: byte-identical.
    let mut reference = ExecutionPipeline::in_memory(keyspace);
    for (sn, b) in batch_of(0, 4) {
        reference.execute(sn, &b);
    }
    let r = ExecutionPipeline::recover_opts(&dir, keyspace, 4, gate_opts).unwrap();
    assert_eq!(r.applied(), 4);
    assert_eq!(
        r.state_root(),
        reference.state_root(),
        "pipelined log must recover byte-identical to a per-record reference"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "gate: batch A applied ({overlap_applied} blocks) while batch B's barrier was \
         provably incomplete; {pipelined_submits} overlapped submit (verified)"
    );

    // ------------------------------------------------------------------
    // 2. Count parity: the submit/complete split spends exactly the
    //    synchronous barrier's I/O — one fsync and one staged write per
    //    batch, byte counts identical — while every steady-state batch
    //    stages into the double buffer mid-flight.
    // ------------------------------------------------------------------
    let opts = WalOptions {
        segment_records: 4096,
        ..WalOptions::default()
    };
    println!("\n{RECORDS} full-mask records, overlapped barriers:");
    println!("  batch | flushes | fsyncs | fsyncs/batch | pipelined");
    println!("  ------+---------+--------+--------------+----------");
    let mut emitted = fields(vec![
        ("records", Json::U64(RECORDS)),
        ("wal_flush_failures", Json::U64(0)),
        ("pipelined_submits", Json::U64(pipelined_submits)),
        ("flush_barriers", Json::U64(2)),
        ("fsyncs_per_barrier", Json::F64(1.0)),
        ("overlap_applied_mid_flight", Json::U64(overlap_applied)),
    ]);
    for &batch in &BATCHES {
        let dir = scratch(&format!("sweep-{batch}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = CommitWal::open(Box::new(FileBackend::open_dir(&dir).unwrap()), opts);
        assert!(
            wal.pipelined(),
            "file-backed WALs must route barriers through the writer thread"
        );
        let mut sn = 0u64;
        // Warm batch: creates the active segment (one-time cost the
        // steady-state window excludes).
        for _ in 0..batch {
            wal.append_buffered(full_mask_record(sn));
            sn += 1;
        }
        assert!(wal.flush());
        let s0 = wal.io_stats();
        let mut flushes = 0u64;
        let mut inflight = false;
        while sn < RECORDS {
            // Stage the next batch while the previous barrier flies.
            for _ in 0..batch.min(RECORDS - sn) {
                wal.append_buffered(full_mask_record(sn));
                sn += 1;
            }
            if inflight {
                assert!(wal.complete_flush().expect("a barrier was in flight"));
            }
            assert!(wal.submit_flush());
            inflight = true;
            flushes += 1;
        }
        if inflight {
            assert!(wal.complete_flush().expect("final barrier in flight"));
        }
        let s1 = wal.io_stats();
        assert_eq!(wal.write_failures(), 0, "batch={batch}: run must be clean");

        let fsyncs = s1.fsyncs - s0.fsyncs;
        let writes = s1.appends - s0.appends;
        let bytes = s1.bytes_written - s0.bytes_written;
        let steady_records = RECORDS - batch;
        println!(
            "  {batch:>5} | {flushes:>7} | {fsyncs:>6} | {:>12} | {:>9}",
            fsyncs / flushes,
            flushes.saturating_sub(1),
        );

        // THE parity gates — identical to fig_wal_group_commit's
        // synchronous-barrier gates: pipelining moved the fsync off the
        // critical path, it did not add or reorder a single one.
        assert_eq!(
            fsyncs, flushes,
            "batch={batch}: fsyncs must stay 1 per batch"
        );
        assert_eq!(
            writes, flushes,
            "batch={batch}: staged writes must stay 1 per batch"
        );
        assert_eq!(
            bytes,
            steady_records * ENCODED_RECORD_LEN as u64 + flushes * TRAILER_LEN as u64,
            "batch={batch}: byte counts must match the synchronous barrier's"
        );
        assert_eq!(
            s1.segment_opens, 1,
            "batch={batch}: handle cache unaffected by the writer thread"
        );
        emitted.push((
            format!("batch_{batch}_fsyncs_per_flush"),
            Json::U64(fsyncs / flushes),
        ));
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("  -> I/O counts byte-identical to the synchronous barrier (verified)");

    // ------------------------------------------------------------------
    // 3. End-to-end: a pipelined file-backed pipeline drained with
    //    submit_staged recovers byte-identical to per-record execution.
    // ------------------------------------------------------------------
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
        let mut p = ExecutionPipeline::recover_opts(&dir, keyspace, 4, pipe_opts).unwrap();
        for chunk in blocks.chunks(8) {
            p.stage_blocks(chunk);
            p.submit_staged();
        }
        p.flush_staged();
        let perf = p.perf();
        assert_eq!(perf.wal_flush_failures, 0);
        assert!(
            perf.pipelined_submits >= 10,
            "the chunked drain must genuinely overlap: {}",
            perf.pipelined_submits
        );
        assert_eq!(p.state_root(), per_record.state_root());
    }
    let recovered = ExecutionPipeline::recover_opts(&dir, keyspace, 4, pipe_opts).unwrap();
    assert_eq!(recovered.applied(), per_record.applied());
    assert_eq!(
        recovered.state_root(),
        per_record.state_root(),
        "recovery from a pipelined log must be byte-identical to \
         per-record execution"
    );
    let _ = std::fs::remove_dir_all(&dir);
    emit_figure("fig_wal_pipeline", emitted);
    println!("\npipeline: chunked submit_staged drain recovers byte-identical (verified)");
}
