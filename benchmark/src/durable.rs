//! The `durable_file` workload: the execution pipeline alone, on a real
//! file-backed WAL with real `fsync`.
//!
//! One driver thread feeds synthetic 32-transaction blocks in a closed
//! loop with one client: `stage_blocks` → `submit_staged` per block (the
//! default flush policy, one record per barrier), `complete_inflight` +
//! `checkpoint` every 64 blocks. The `fsync` cost is the sandbox's own:
//! nothing is injected. After the measured phase the storage is killed 40
//! blocks past the last checkpoint (every later write is discarded), the
//! pipeline is recovered from the directory, and the recovered root must
//! equal an in-memory re-execution of exactly the acknowledged prefix.
//!
//! `LiveRuntime` is not used: an n=4 file-backed cluster is 2n+1 threads
//! on two cores and its rate is set by the offered load.

use crate::alloc::{self, AllocStats};
use crate::procstat::ProcUsage;
use crate::trace;
use ladon_crypto::CryptoCounters;
use ladon_state::{
    ExecutionPipeline, FaultBackend, FaultPlan, FileBackend, ReplayStats, WalOptions,
};
use ladon_types::{splitmix64, Block, NetEnv, SystemConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "durable_file";
/// Transactions per block.
pub const BLOCK_TXS: u32 = 32;
/// Blocks between checkpoints (the paper's epoch length).
const CHECKPOINT_EVERY: u64 = 64;
/// Warm-up blocks, part of set-up.
const WARMUP_BLOCKS: u64 = 512;
/// Measured blocks per repetition (≈ 9 s in the 2-core sandbox; 128
/// checkpoints).
pub const MEASURED_BLOCKS: u64 = 8192;
/// Acknowledged blocks between the last checkpoint and the crash.
const CRASH_TAIL_BLOCKS: u64 = 40;
/// Blocks fed after storage died; none may be acknowledged or recovered.
const POST_KILL_BLOCKS: u64 = 8;

/// The paper-default system configuration the pipeline is sized by
/// (single node: only the execution and WAL knobs are read).
pub fn system() -> SystemConfig {
    SystemConfig::paper_default(4, NetEnv::Lan)
}

fn wal_options(sys: &SystemConfig) -> WalOptions {
    WalOptions {
        lane_groups: sys.wal_lane_groups,
        segment_records: sys.wal_segment_records,
    }
}

/// A scratch directory removed on drop — on success and on failure.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<benchmark>/out/tmp-<pid>-<tag>`, inside the checkout.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let dir = crate::out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one repetition measured.
pub struct DurableRep {
    /// Rep start → first measured block: directory and WAL open, pipeline
    /// construction and the warm-up blocks.
    pub setup_s: f64,
    pub measured_wall_s: f64,
    pub measured_cpu: ProcUsage,
    pub rep_usage: ProcUsage,
    /// Allocations during the measured phase (zero unless counting is on).
    pub measured_allocs: AllocStats,
    /// Blocks fed in the measured phase and in the crash tail.
    pub attempted_blocks: u64,
    /// Of those, blocks whose barrier failed, plus blocks acknowledged
    /// but missing after recovery.
    pub failed_blocks: u64,
    /// Measured blocks that were applied behind a resolved barrier.
    pub measured_blocks: u64,
    /// Per measured block, `stage_blocks` entry → applied, milliseconds.
    pub latency_ms: Vec<f64>,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub barriers: u64,
    pub waves: u64,
    pub batches: u64,
    pub scheduled_ops: u64,
    pub exec_ns: u64,
    /// SHA-256 finalizations on the driver thread in the measured phase.
    pub hashes: u64,
    /// Mutating storage operations (appends, syncs, rewrites, deletes,
    /// manifest publishes) in the measured phase.
    pub storage_ops: u64,
    pub snapshot_bytes: u64,
    pub recover_ms: f64,
    pub replay: ReplayStats,
    /// Blocks acknowledged when storage died, and the root recovery
    /// rebuilt from the directory.
    pub acked_blocks: u64,
    pub recovered_root: String,
    pub violations: Vec<String>,
}

impl DurableRep {
    pub fn measured_txs(&self) -> u64 {
        self.measured_blocks * BLOCK_TXS as u64
    }

    pub fn wall_ktps(&self) -> f64 {
        self.measured_txs() as f64 / self.measured_wall_s / 1e3
    }

    pub fn delivered_share(&self) -> f64 {
        1.0 - self.failed_blocks as f64 / self.attempted_blocks as f64
    }

    pub fn cpu_ms_per_ktx(&self) -> f64 {
        self.measured_cpu.cpu_s() * 1e3 / (self.measured_txs() as f64 / 1e3)
    }

    /// Everything that must repeat exactly across repetitions of one
    /// seed: the exact counts and the recovered state.
    pub fn fingerprint(&self) -> String {
        format!(
            "measured_blocks={} failed={} acked={} fsyncs={} wal_bytes={} barriers={} \
             waves={} scheduled_ops={} hashes={} storage_ops={} snapshot_bytes={} \
             replayed={} root={}",
            self.measured_blocks,
            self.failed_blocks,
            self.acked_blocks,
            self.fsyncs,
            self.wal_bytes,
            self.barriers,
            self.waves,
            self.scheduled_ops,
            self.hashes,
            self.storage_ops,
            self.snapshot_bytes,
            self.replay.records_replayed,
            self.recovered_root,
        )
    }
}

/// The closed-loop driver over one pipeline.
struct Driver {
    pipe: ExecutionPipeline,
    /// Transaction-id offset of block 0, from the seed.
    tx_offset: u64,
    next_sn: u64,
    /// Stage-entry instants of blocks not yet applied, oldest first.
    pending: VecDeque<Instant>,
    /// Blocks applied behind a barrier that resolved clean.
    acked: u64,
    failed: u64,
    failures_seen: u64,
    latency_ms: Vec<f64>,
    record_latency: bool,
}

/// The workload's block at position `sn`.
fn block(tx_offset: u64, sn: u64) -> Block {
    Block::synthetic(sn, tx_offset + sn * BLOCK_TXS as u64, BLOCK_TXS)
}

impl Driver {
    /// Accounts the blocks of an applied range: acknowledged when their
    /// barrier resolved clean, failed otherwise.
    fn absorb(&mut self, applied: std::ops::Range<u64>) {
        if applied.is_empty() {
            return;
        }
        let failures = self.pipe.perf().wal_flush_failures;
        let clean = failures == self.failures_seen;
        self.failures_seen = failures;
        let now = Instant::now();
        for _ in applied {
            let staged_at = self.pending.pop_front().expect("applied block was staged");
            if !clean {
                self.failed += 1;
            } else {
                self.acked += 1;
                if self.record_latency {
                    self.latency_ms
                        .push(now.duration_since(staged_at).as_secs_f64() * 1e3);
                }
            }
        }
    }

    /// Feeds one block; checkpoints at every epoch boundary.
    fn feed(&mut self) {
        let sn = self.next_sn;
        self.next_sn += 1;
        let staged = [(sn, block(self.tx_offset, sn))];
        self.pending.push_back(Instant::now());
        trace::leaf("wal.stage_blocks", trace::NO_REPLICA, || {
            self.pipe.stage_blocks(&staged)
        });
        let applied = trace::leaf("wal.submit_staged", trace::NO_REPLICA, || {
            self.pipe.submit_staged()
        });
        self.absorb(applied);
        if self.next_sn.is_multiple_of(CHECKPOINT_EVERY) {
            self.settle();
            let epoch = self.next_sn / CHECKPOINT_EVERY;
            trace::leaf("snapshot.checkpoint", trace::NO_REPLICA, || {
                self.pipe.checkpoint(epoch, Vec::new())
            });
        }
    }

    /// Resolves the in-flight barrier so nothing is staged or in flight.
    fn settle(&mut self) {
        let applied = trace::leaf("wal.complete_inflight", trace::NO_REPLICA, || {
            self.pipe.complete_inflight()
        });
        if let Some(range) = applied {
            self.absorb(range);
        }
    }
}

/// Runs one repetition in a fresh scratch directory.
pub fn run_rep(seed: u64, rep: usize) -> std::io::Result<DurableRep> {
    let rep_t0 = Instant::now();
    let usage0 = ProcUsage::now();
    let sys = system();
    let scratch = ScratchDir::create(&format!("wal-{rep}"))?;
    let dir = scratch.path();

    let kill = Arc::new(AtomicI64::new(i64::MAX));
    let plan = FaultPlan::with_budget(kill.clone());
    let backend =
        FaultBackend::new(FileBackend::open_dir(dir.join("wal"))?, plan.clone()).threaded();
    let pipe = ExecutionPipeline::recover_backend(
        dir,
        Box::new(backend),
        sys.exec_keyspace,
        sys.exec_lanes,
        wal_options(&sys),
    )?;
    let mut seed_state = seed;
    let mut d = Driver {
        pipe,
        tx_offset: splitmix64(&mut seed_state) >> 24,
        next_sn: 0,
        pending: VecDeque::new(),
        acked: 0,
        failed: 0,
        failures_seen: 0,
        latency_ms: Vec::with_capacity(MEASURED_BLOCKS as usize),
        record_latency: false,
    };

    trace::parent("warmup", || {
        for _ in 0..WARMUP_BLOCKS {
            d.feed();
        }
        d.settle();
    });
    let warm_failed = d.failed;
    let setup_s = rep_t0.elapsed().as_secs_f64();

    // The measured phase.
    d.record_latency = true;
    let io0 = d.pipe.wal_io_stats();
    let perf0 = d.pipe.perf();
    let sched0 = d.pipe.sched_stats();
    let acked0 = d.acked;
    let ops0 = plan.mutating_ops();
    let crypto0 = CryptoCounters::snapshot();
    let allocs0 = alloc::now();
    let cpu0 = ProcUsage::now();
    let t0 = Instant::now();
    trace::parent("measure", || {
        for _ in 0..MEASURED_BLOCKS {
            d.feed();
        }
        d.settle();
    });
    let measured_wall_s = t0.elapsed().as_secs_f64();
    let measured_cpu = ProcUsage::now().since(&cpu0);
    let measured_allocs = alloc::now().since(&allocs0);
    d.record_latency = false;
    let hashes = CryptoCounters::snapshot().since(&crypto0).hashes;
    let storage_ops = plan.mutating_ops() - ops0;
    let measured_blocks = d.acked - acked0;
    let io1 = d.pipe.wal_io_stats();
    let perf1 = d.pipe.perf();
    let sched1 = d.pipe.sched_stats();
    let snapshot_bytes = d
        .pipe
        .latest_snapshot()
        .map_or(0, |s| s.encode().len() as u64);

    // Crash: an acknowledged tail past the last checkpoint, then storage
    // dies and everything written afterwards is discarded.
    for _ in 0..CRASH_TAIL_BLOCKS {
        d.feed();
    }
    d.settle();
    let attempted_blocks = MEASURED_BLOCKS + CRASH_TAIL_BLOCKS;
    let mut failed_blocks = d.failed - warm_failed;
    let acked = d.acked;
    kill.store(0, Ordering::SeqCst);
    for _ in 0..POST_KILL_BLOCKS {
        d.feed();
    }
    d.settle();
    let mut violations = Vec::new();
    if d.acked != acked {
        violations.push(format!(
            "durability: {} blocks acknowledged after storage died",
            d.acked - acked
        ));
    }
    let tx_offset = d.tx_offset;
    let latency_ms = std::mem::take(&mut d.latency_ms);
    drop(d);

    let rec_t0 = Instant::now();
    let recovered = trace::leaf("pipeline.recover", trace::NO_REPLICA, || {
        ExecutionPipeline::recover_opts(dir, sys.exec_keyspace, sys.exec_lanes, wal_options(&sys))
    })?;
    let recover_ms = rec_t0.elapsed().as_secs_f64() * 1e3;

    // Reference: exactly the acknowledged prefix, re-executed in memory.
    let mut reference = ExecutionPipeline::in_memory_with(sys.exec_keyspace, sys.exec_lanes);
    let prefix: Vec<(u64, Block)> = (0..acked).map(|sn| (sn, block(tx_offset, sn))).collect();
    for chunk in prefix.chunks(CHECKPOINT_EVERY as usize) {
        reference.execute_batch(chunk);
    }
    if recovered.applied() < acked {
        failed_blocks += acked - recovered.applied();
        violations.push(format!(
            "durability: {acked} blocks acknowledged, {} recovered",
            recovered.applied()
        ));
    } else if recovered.applied() > acked {
        violations.push(format!(
            "durability: {} unacknowledged blocks resurrected by recovery",
            recovered.applied() - acked
        ));
    } else if recovered.state_root() != reference.state_root() {
        violations.push(format!(
            "durability: recovered root {} differs from re-executed root {}",
            recovered.state_root().short_hex(),
            reference.state_root().short_hex()
        ));
    }
    if failed_blocks != 0 {
        violations.push(format!("wal_flush_failures: {failed_blocks} blocks"));
    }

    Ok(DurableRep {
        setup_s,
        measured_wall_s,
        measured_cpu,
        measured_allocs,
        attempted_blocks,
        failed_blocks,
        measured_blocks,
        latency_ms,
        fsyncs: io1.fsyncs - io0.fsyncs,
        wal_bytes: io1.bytes_written - io0.bytes_written,
        barriers: perf1.flush_barriers - perf0.flush_barriers,
        waves: sched1.waves - sched0.waves,
        batches: sched1.batches - sched0.batches,
        scheduled_ops: sched1.scheduled_ops - sched0.scheduled_ops,
        exec_ns: perf1.wall_exec_ns - perf0.wall_exec_ns,
        hashes,
        storage_ops,
        snapshot_bytes,
        recover_ms,
        replay: recovered.recovery_stats().clone(),
        acked_blocks: acked,
        recovered_root: recovered.state_root().short_hex(),
        violations,
        rep_usage: ProcUsage::now().since(&usage0),
    })
}
