//! Live (threaded, wall-clock) cluster: the *same* replica state machines
//! that run under the deterministic simulator, driven by real threads and
//! crossbeam channels for a few wall-clock seconds — with **file-backed**
//! WAL pipelines, so each replica's durability barriers run on its own
//! `ladon-wal-writer` thread (pipelined group commit) while its actor
//! thread keeps staging and executing.
//!
//! ```sh
//! cargo run --release --example live_cluster
//! ```

use ladon::core::MultiBftNode;
use ladon::sim::LiveRuntime;
use ladon::state::{ExecutionPipeline, WalOptions};
use ladon::types::{NetEnv, ProtocolKind};
use ladon::workload::{Deployment, ExperimentConfig};

fn main() {
    let n = 4;
    let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, n, NetEnv::Lan)
        .warmup_secs(0.0)
        .duration_secs(3.0)
        // Tone down the batch pipeline for a short wall-clock demo.
        .with_batch_size(512);

    // One WAL directory per replica; file-backed pipelines spawn the
    // per-node writer thread (LiveRuntime/File mode).
    let run_dir = std::env::temp_dir().join(format!("ladon-live-cluster-{}", std::process::id()));
    let (actors, net) = Deployment::live_parts(&cfg, |sys, r| {
        ExecutionPipeline::recover_opts(
            run_dir.join(format!("replica-{r}")),
            sys.exec_keyspace,
            sys.exec_lanes,
            WalOptions::from(sys),
        )
        .expect("open file-backed pipeline")
    });

    println!(
        "spawning {n} replica threads (+{n} WAL writer threads) + 1 client thread for 3 s of wall time…"
    );
    let rt = LiveRuntime::spawn(actors, net, cfg.seed);
    std::thread::sleep(std::time::Duration::from_secs(3));
    let stats = rt.stats();
    let finals = rt.shutdown();

    println!("\n=== live run results ===");
    for (r, actor) in finals.iter().enumerate().take(n) {
        let node = actor
            .as_any()
            .downcast_ref::<MultiBftNode>()
            .expect("replica actor");
        println!(
            "replica {r}: partially committed {} blocks, globally confirmed {} blocks, {} txs; \
             {} flush barriers ({} pipelined, {} failed)",
            node.metrics.commits.len(),
            node.metrics.confirms.len(),
            node.metrics.confirmed_txs,
            node.metrics.exec.perf.flush_barriers,
            node.metrics.exec.perf.pipelined_submits,
            node.metrics.exec.perf.wal_flush_failures,
        );
    }
    println!(
        "network: {} messages, {:.1} MB total",
        stats.total_msgs(),
        stats.total_bytes() as f64 / 1e6
    );
    let node0 = finals[0]
        .as_any()
        .downcast_ref::<MultiBftNode>()
        .expect("replica actor");
    assert!(
        node0.metrics.confirmed_txs > 0,
        "the live cluster should confirm transactions"
    );
    assert_eq!(
        node0.metrics.exec.perf.wal_flush_failures, 0,
        "no durability barrier may fail on a healthy disk"
    );
    // Dropping the actors joins each replica's WAL writer thread after
    // draining its in-flight barrier.
    drop(finals);
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("\nok: the same state machines run under real threads and wall-clock time.");
}
