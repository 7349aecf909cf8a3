//! State-root microbenchmarks (execution layer; no paper analog):
//!
//! 1. **Checkpoint-root cost vs keyspace.** The state keeps one lazily
//!    folded MuHash accumulator over every live account, so once folded
//!    the state root is one hash at any keyspace, where the seed design
//!    re-hashed every live entry (reproduced here as the `full_scan`
//!    baseline). What still grows with the keyspace is the scan that
//!    finds nothing left to fold: one mark byte per allocated account,
//!    eight at a time. The hash counts are pinned by
//!    `kv::tests::hashing_happens_at_fold_not_on_write`.
//! 2. **Apply throughput.** Blocks of 4096 derived ops through the
//!    pipeline.
//! 3. **Checkpoint cost** through the pipeline (snapshot + compaction).

use ladon_bench::microbench;
use ladon_crypto::Sha256;
use ladon_state::{ExecutionPipeline, KvState, DEFAULT_KEYSPACE};
use ladon_types::{Block, Digest, TxOp};
use ladon_workload::{scale, Scale};

/// The seed's root algorithm: one SHA-256 pass over every canonical
/// entry. Kept here as the scaling baseline the accumulator replaces.
fn full_scan_root(kv: &KvState) -> Digest {
    let mut h = Sha256::new();
    h.update(b"ladon/state-root/v1");
    h.update(&(kv.len() as u64).to_le_bytes());
    for (k, v) in kv.entries() {
        h.update(&k.to_le_bytes());
        h.update(&v.to_le_bytes());
    }
    Digest(h.finalize())
}

fn main() {
    println!("fig_state_root: one folded accumulator against a full scan\n");

    let full = scale() == Scale::Full;

    // ------------------------------------------------------------------
    // 1. Checkpoint-root cost vs keyspace size.
    // ------------------------------------------------------------------
    println!("checkpoint root cost, folded accumulator vs full scan (seed design):");
    let keyspaces: &[u32] = if full {
        &[1 << 12, 1 << 16, 1 << 18, 1 << 20]
    } else {
        &[1 << 12, 1 << 15, 1 << 17]
    };
    let iters = if full { 2_000 } else { 500 };
    let mut incr_ns = Vec::new();
    let mut scan_ns = Vec::new();
    for &keyspace in keyspaces {
        // Every account populated and folded: the steady state a
        // checkpoint reads its root from.
        let mut kv = KvState::new();
        for k in 0..keyspace {
            kv.apply(&TxOp::Put {
                key: k,
                value: k as u64 + 1,
            });
        }
        kv.fold();
        let r1 = microbench(
            &format!("folded_root_keyspace_{keyspace:>8}"),
            iters,
            || kv.root(),
        );
        let r2 = microbench(
            &format!("full_scan_root_keyspace_{keyspace:>8}"),
            iters,
            || full_scan_root(&kv),
        );
        incr_ns.push(r1.ns_per_iter);
        scan_ns.push(r2.ns_per_iter);
    }
    let incr_growth = incr_ns.last().unwrap() / incr_ns[0].max(1.0);
    let scan_growth = scan_ns.last().unwrap() / scan_ns[0].max(1.0);
    println!(
        "\n  -> root cost growth across a {}x keyspace sweep: folded {incr_growth:.2}x, \
         full scan {scan_growth:.2}x",
        keyspaces.last().unwrap() / keyspaces.first().unwrap()
    );

    // ------------------------------------------------------------------
    // 2. Apply throughput.
    // ------------------------------------------------------------------
    let blocks = if full { 64u64 } else { 16 };
    println!("\napply throughput ({blocks} blocks x 4096 txs):");
    let r = microbench("execute_blocks", 50, || {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        for sn in 0..blocks {
            p.execute(sn, &Block::synthetic(sn, sn * 4096, 4096));
        }
        p.executed_txs()
    });
    println!(
        "  -> {:.2} M executed tx/s",
        blocks as f64 * 4096.0 * r.per_sec() / 1e6
    );

    // ------------------------------------------------------------------
    // 3. Checkpoint cost through the pipeline (snapshot + compaction).
    // ------------------------------------------------------------------
    println!();
    let mut warm = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
    for sn in 0..16 {
        warm.execute(sn, &Block::synthetic(sn, sn * 4096, 4096));
    }
    let mut epoch = 0u64;
    microbench("pipeline_checkpoint", 500, || {
        epoch += 1;
        warm.checkpoint(epoch, vec![0; 16])
    });
}
