//! Recovery microbenchmark (new subsystem; no paper analog):
//! restart-from-snapshot+WAL recovery latency as the WAL tail grows.
//! Apply throughput and checkpoint cost are `fig_state_root`'s
//! `execute_blocks` and `pipeline_checkpoint`.

use ladon_bench::{microbench, scratch_dir};
use ladon_state::{ExecutionPipeline, DEFAULT_KEYSPACE};
use ladon_types::Block;

fn main() {
    println!("fig11_state_recovery: recovery latency vs WAL tail\n");

    // Snapshot + WAL tails of growing length, recovered from a scratch
    // directory the way a restarted replica recovers.
    for tail in [0u64, 16, 64, 256] {
        let dir = scratch_dir("fig11", &tail.to_string());
        let recover = || ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).expect("recover");
        let mut p = recover();
        for sn in 0..64 {
            p.execute(sn, &Block::synthetic(sn, sn * 4096, 4096));
        }
        p.checkpoint(1, vec![0; 16]);
        for sn in 64..64 + tail {
            p.execute(sn, &Block::synthetic(sn, sn * 4096, 4096));
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
