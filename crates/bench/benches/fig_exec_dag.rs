//! Dependency-DAG wave-plan benchmark (no paper analog): every batch's
//! statically-known lane access sets are planned into topological waves
//! — the lane-level parallelism the batch *has*. Ops execute in block
//! order on one thread (see `ladon_state::kv`); the plan is the
//! deterministic description of the batch, and this figure pins it.
//!
//! Every acceptance gate is stated in deterministic *counts* from
//! [`ladon_state::BatchOutcome`] / [`ladon_state::ExecSchedStats`]
//! (waves, ops per wave, cross-lane edges) — shared CI runners jitter,
//! plans do not:
//!
//! 1. a conflict-free block collapses to ONE wave (zero cross-lane
//!    edges);
//! 2. a fully serial transfer chain degrades to one wave per op;
//! 3. a mixed derived workload plans the pinned counters, and
//!    `apply_batch` equals folding `apply` over its ops;
//! 4. a multi-block drain plans as ONE batch-wide DAG, never more
//!    waves than the per-block sum (independent blocks overlap).

use ladon_bench::microbench;
use ladon_obs::{emit_figure, fields, Json};
use ladon_state::{lane_of, ExecutionPipeline, KvState, DEFAULT_KEYSPACE};
use ladon_types::{Block, TxId, TxOp};

fn main() {
    println!("fig_exec_dag: the deterministic wave plan over static access sets\n");

    // ------------------------------------------------------------------
    // 1. Conflict-free block → one wave.
    // ------------------------------------------------------------------
    let mut seen = std::collections::BTreeSet::new();
    let mut free = Vec::new();
    for k in 0..DEFAULT_KEYSPACE {
        if seen.insert(lane_of(k)) {
            free.push(TxOp::Put { key: k, value: 7 });
            if free.len() == 48 {
                break;
            }
        }
    }
    println!("conflict-free: {} puts across distinct lanes", free.len());
    let out = KvState::new().apply_batch(&free);
    assert_eq!(out.waves, 1, "conflict-free must be 1 wave");
    assert_eq!(out.max_wave_ops, free.len() as u32);
    assert_eq!(out.cross_lane_edges, 0);
    println!("  -> 1 wave, 0 cross-lane edges (verified)\n");

    // ------------------------------------------------------------------
    // 2. Serial transfer chain → one wave per op.
    // ------------------------------------------------------------------
    let chain_keys: Vec<u32> = (0..64u32).collect();
    let mut chain = vec![TxOp::Put {
        key: chain_keys[0],
        value: 1_000_000,
    }];
    for w in chain_keys.windows(2) {
        chain.push(TxOp::Transfer {
            from: w[0],
            to: w[1],
            amount: 100,
        });
    }
    println!(
        "serial chain: {} ops, each reading the previous credit",
        chain.len()
    );
    let out = KvState::new().apply_batch(&chain);
    assert_eq!(
        out.waves,
        chain.len() as u32,
        "a serial chain must degrade to N waves"
    );
    assert_eq!(out.max_wave_ops, 1);
    println!("  -> N ops = N waves (verified)\n");

    // ------------------------------------------------------------------
    // 3. Mixed derived workload: pinned plan, sequential semantics.
    // ------------------------------------------------------------------
    let mixed: Vec<TxOp> = (0..4096u64).map(|i| TxOp::for_id(TxId(i), 512)).collect();
    println!("mixed workload: 4096 derived ops over 512 keys");
    println!("  waves | max ops/wave | mean ops/wave | cross-lane edges");
    println!("  ------+--------------+---------------+-----------------");
    let mut s = KvState::new();
    let out = s.apply_batch(&mixed);
    println!(
        "  {:>5} | {:>12} | {:>13.1} | {:>16}",
        out.waves,
        out.max_wave_ops,
        mixed.len() as f64 / out.waves as f64,
        out.cross_lane_edges,
    );
    let shape = (out.waves, out.max_wave_ops, out.cross_lane_edges);
    assert_eq!(
        shape,
        (213, 36, 2125),
        "the plan of a fixed batch must not move"
    );
    // And `apply_batch` equals folding `apply` over the ops in order.
    let mut reference = KvState::new();
    for op in &mixed {
        reference.apply(op);
    }
    assert_eq!(s.root(), reference.root(), "batch must equal sequential");
    emit_figure(
        "fig_exec_dag_mixed",
        fields(vec![
            ("ops", Json::U64(mixed.len() as u64)),
            ("waves", Json::U64(shape.0 as u64)),
            ("max_wave_ops", Json::U64(shape.1 as u64)),
            ("cross_lane_edges", Json::U64(shape.2)),
            (
                "mean_ops_per_wave",
                Json::F64(mixed.len() as f64 / shape.0 as f64),
            ),
        ]),
    );
    println!("  -> counters pinned; state equal to sequential (verified)\n");

    // ------------------------------------------------------------------
    // 4. Batch-wide DAG: a drained run of blocks plans as ONE batch.
    // ------------------------------------------------------------------
    let keyspace = DEFAULT_KEYSPACE;
    let blocks: Vec<(u64, Block)> = (0..8u64)
        .map(|sn| (sn, Block::synthetic(sn, sn * 64, 64)))
        .collect();
    let mut per_block = ExecutionPipeline::in_memory(keyspace);
    for (sn, b) in &blocks {
        per_block.execute(*sn, b);
    }
    let per_block_sched = per_block.sched_stats();
    let mut batched = ExecutionPipeline::in_memory(keyspace);
    batched.execute_batch(&blocks);
    let batched_sched = batched.sched_stats();
    println!(
        "pipeline drain of {} blocks: per-block {} batches / {} waves, batched {} batch / {} waves",
        blocks.len(),
        per_block_sched.batches,
        per_block_sched.waves,
        batched_sched.batches,
        batched_sched.waves,
    );
    assert_eq!(batched_sched.batches, 1, "one drain = one batch-wide DAG");
    assert_eq!(per_block_sched.batches, blocks.len() as u64);
    assert!(
        batched_sched.waves <= per_block_sched.waves,
        "a batch-wide DAG must never need more waves than the per-block sum"
    );
    assert_eq!(
        batched.state_root(),
        per_block.state_root(),
        "batched and per-block execution must agree on state"
    );
    println!("  -> independent blocks overlap in shared waves (verified)\n");

    // Informational wall clock (not a gate).
    let mut s = KvState::new();
    let mut round = 0u64;
    microbench("apply_batch_4096_mixed", 8, || {
        let ops: Vec<TxOp> = (0..4096u64)
            .map(|i| TxOp::for_id(TxId(round * 4096 + i), 512))
            .collect();
        round += 1;
        s.apply_batch(&ops);
        4096u64
    });
}
