//! State execution & recovery microbenchmarks (new subsystem; no paper
//! analog): raw state-machine apply throughput, epoch checkpoint cost,
//! and restart-from-snapshot+WAL recovery latency as the WAL tail grows.

use ladon_bench::{microbench, scratch_dir};
use ladon_state::{ExecutionPipeline, DEFAULT_KEYSPACE};
use ladon_types::{Batch, Block, BlockHeader, Digest, InstanceId, Rank, Round, TimeNs, TxId};

fn block(sn: u64, count: u32) -> Block {
    Block {
        header: BlockHeader {
            index: InstanceId((sn % 16) as u32),
            round: Round(sn / 16 + 1),
            rank: Rank(sn),
            payload_digest: Digest([sn as u8; 32]),
        },
        batch: Batch {
            first_tx: TxId(sn * count as u64),
            count,
            payload_bytes: count as u64 * 500,
            arrival_sum_ns: 0,
            earliest_arrival: TimeNs::ZERO,
            bucket: 0,
            refs: Vec::new(),
        },
        proposed_at: TimeNs::ZERO,
    }
}

fn main() {
    println!("fig11_state_recovery: execution & durable-state hot paths\n");

    // Apply throughput: 4096-tx blocks through WAL + state machine.
    let r = microbench("execute_16_blocks_of_4096_txs", 200, || {
        let mut p = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        for sn in 0..16 {
            p.execute(sn, &block(sn, 4096));
        }
        p.executed_txs()
    });
    let tx_per_sec = 16.0 * 4096.0 * r.per_sec();
    println!(
        "  -> {:.2} M executed tx/s (incl. WAL append)\n",
        tx_per_sec / 1e6
    );

    // Checkpoint cost at a full keyspace (root + snapshot + compaction).
    let mut warm = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
    for sn in 0..64 {
        warm.execute(sn, &block(sn, 4096));
    }
    let mut epoch = 0u64;
    microbench("checkpoint_full_keyspace", 2_000, || {
        epoch += 1;
        warm.checkpoint(epoch, vec![0; 16])
    });

    // Recovery latency: snapshot + WAL tails of growing length, recovered
    // from a scratch directory the way a restarted replica recovers.
    println!();
    for tail in [0u64, 16, 64, 256] {
        let dir = scratch_dir("fig11", &tail.to_string());
        let recover = || ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).expect("recover");
        let mut p = recover();
        for sn in 0..64 {
            p.execute(sn, &block(sn, 4096));
        }
        p.checkpoint(1, vec![0; 16]);
        for sn in 64..64 + tail {
            p.execute(sn, &block(sn, 4096));
        }
        let expect_root = p.state_root();
        drop(p);
        let name = format!("recover_snapshot+wal_tail_{tail:>3}_blocks");
        microbench(&name, 200, || {
            let rec = recover();
            assert_eq!(rec.state_root(), expect_root);
            rec.applied()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
