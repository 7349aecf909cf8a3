//! Lane-scaling microbenchmarks (execution scale-out; no paper analog):
//!
//! 1. **Checkpoint-root cost vs keyspace.** The sharded state keeps a
//!    lazily folded MuHash accumulator per lane: a fold hashes only the
//!    keys written since the last one (at most two leaves per key,
//!    however often it was written), after which the state root is
//!    O(MERKLE_LANES) — flat as the keyspace grows — where the seed
//!    design re-hashed every live entry (reproduced here as the
//!    `full_scan` baseline).
//! 2. **Apply throughput.** Blocks of 4096 derived ops through the
//!    pipeline.

use ladon_bench::microbench;
use ladon_crypto::{CryptoCounters, Sha256};
use ladon_state::{ExecutionPipeline, KvState, DEFAULT_KEYSPACE, MERKLE_LANES};
use ladon_types::{Block, Digest, TxOp};
use ladon_workload::{scale, Scale};

/// The seed's root algorithm: one SHA-256 pass over every canonical
/// entry. Kept here as the scaling baseline the lane roots replace.
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

/// SHA-256 finalizations `f` performs: the deterministic work measure
/// the gates below are stated in.
fn hashes_in(f: impl FnOnce()) -> u64 {
    let before = CryptoCounters::snapshot();
    f();
    CryptoCounters::snapshot().since(&before).hashes
}

fn main() {
    println!("fig_lane_scaling: sharded execution lanes & incremental Merkle roots\n");

    let full = scale() == Scale::Full;

    // ------------------------------------------------------------------
    // 1. Checkpoint-root cost vs keyspace size.
    // ------------------------------------------------------------------
    println!("checkpoint root cost, folded ({MERKLE_LANES} lanes) vs full scan (seed design):");
    let keyspaces: &[u32] = if full {
        &[1 << 12, 1 << 16, 1 << 18, 1 << 20]
    } else {
        &[1 << 12, 1 << 15, 1 << 17]
    };
    let iters = if full { 2_000 } else { 500 };
    let mut incr_ns = Vec::new();
    let mut scan_ns = Vec::new();
    let mut root_hashes = Vec::new();
    let mut fold_hashes = Vec::new();
    const DIRTY_KEYS: u32 = 128;
    for &keyspace in keyspaces {
        // Populate every account and fold, then dirty a small fixed set —
        // the steady-state shape of an epoch over a large keyspace —
        // writing each dirty key once, and then ten times.
        let mut kv = KvState::new();
        for k in 0..keyspace {
            kv.apply(&TxOp::Put {
                key: k,
                value: k as u64 + 1,
            });
        }
        kv.fold();
        for writes_per_key in [1u64, 10] {
            for w in 0..writes_per_key {
                for k in 0..DIRTY_KEYS {
                    kv.apply(&TxOp::Put {
                        key: k * 31 % keyspace,
                        value: 7 + writes_per_key * 100 + w,
                    });
                }
            }
            fold_hashes.push(hashes_in(|| kv.fold()));
        }
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
        root_hashes.push(hashes_in(|| {
            std::hint::black_box(kv.root());
        }));
    }
    let incr_growth = incr_ns.last().unwrap() / incr_ns[0].max(1.0);
    let scan_growth = scan_ns.last().unwrap() / scan_ns[0].max(1.0);
    println!(
        "\n  -> root cost growth across a {}x keyspace sweep: folded {incr_growth:.2}x \
         (wall clock, informational), full scan {scan_growth:.2}x",
        keyspaces.last().unwrap() / keyspaces.first().unwrap()
    );
    println!("  -> hashes per folded root, by keyspace: {root_hashes:?}");
    println!(
        "  -> hashes per fold of {DIRTY_KEYS} dirty keys, by keyspace x writes per key \
         {{1, 10}}: {fold_hashes:?}"
    );
    // The acceptance gates, stated flake-free in operations rather than
    // wall-clock (shared CI runners jitter). After a fold a root costs
    // exactly MERKLE_LANES + 1 hash finalizations at *every* keyspace —
    // O(lanes), not O(keyspace) — while the full scan's single
    // finalization absorbs the whole entry set and grows with it. And a
    // fold costs two leaf hashes per dirty key (old value out, new value
    // in) whatever the keyspace size and however many times each key
    // was written in between.
    assert!(
        root_hashes.iter().all(|&h| h == MERKLE_LANES as u64 + 1),
        "a folded root must cost MERKLE_LANES + 1 = {} hashes at any \
         keyspace, got {root_hashes:?}",
        MERKLE_LANES + 1
    );
    assert!(
        fold_hashes.iter().all(|&h| h == 2 * DIRTY_KEYS as u64),
        "a fold must cost 2 x {DIRTY_KEYS} dirty keys at any keyspace and \
         any writes per key, got {fold_hashes:?}"
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
