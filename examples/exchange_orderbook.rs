//! Exchange scenario (§1, §4.3): replay the confirmed global log as a toy
//! order book and count the front-running opportunities each ordering
//! policy exposes.
//!
//! A front-running opportunity exists whenever the global log executes a
//! block *before* a block that was already partially committed when the
//! first one was generated: an attacker controlling the later-generated
//! block saw the committed order flow and still got ahead of it (the
//! paper's Fig. 1: block 4 executes before blocks 5–9).
//!
//! ```sh
//! cargo run --release --example exchange_orderbook
//! ```

use ladon::types::{NetEnv, ProtocolKind, TimeNs};
use ladon::workload::{Deployment, ExperimentConfig};

/// Runs a deployment and returns the reference replica's confirmed log as
/// `(sn, proposed_at, commit_observed_at, tx_count)`.
fn confirmed_log(proto: ProtocolKind) -> Vec<(u64, TimeNs, TimeNs, u32)> {
    let mut d = Deployment::build(
        &ExperimentConfig::new(proto, 8, NetEnv::Wan)
            .warmup_secs(0.0)
            .duration_secs(28.0)
            .with_straggler_ids(&[1], 8.0) // one straggling leader
            .with_seed(99),
    );
    d.run_secs(30.0);

    let node = d.node(0);
    // Commit observation times from replica 0 (a lower bound for the
    // f+1 aggregate; adequate for the demonstration).
    let mut commit_at = std::collections::HashMap::new();
    for c in &node.metrics.commits {
        commit_at.insert((c.instance, c.round), c.time);
    }
    let mut log: Vec<(u64, TimeNs, TimeNs, u32)> = node
        .metrics
        .confirms
        .iter()
        .filter(|c| !c.is_nil)
        .map(|c| {
            (
                c.sn,
                c.proposed_at,
                commit_at
                    .get(&(c.instance, c.round))
                    .copied()
                    .unwrap_or(TimeNs::MAX),
                c.tx_count,
            )
        })
        .collect();
    log.sort_by_key(|&(sn, ..)| sn);
    log
}

/// Counts front-running windows: block i executes before block j although
/// j was committed before i was even generated. `txs_exposed` weights each
/// window by the victim block's transactions (orders that could be
/// front-run).
fn audit(log: &[(u64, TimeNs, TimeNs, u32)]) -> (u64, u64) {
    let mut windows = 0u64;
    let mut txs_exposed = 0u64;
    for i in 0..log.len() {
        let (_, gen_i, _, _) = log[i];
        for &(_, _, commit_j, txs_j) in log.iter().skip(i + 1) {
            if gen_i > commit_j {
                windows += 1;
                txs_exposed += txs_j as u64;
            }
        }
    }
    (windows, txs_exposed)
}

fn main() {
    println!("Toy exchange audit: n = 8, WAN, one straggling leader (k = 8)\n");
    println!(
        "{:<10} {:>8} {:>20} {:>22}",
        "protocol", "blocks", "front-run windows", "victim orders exposed"
    );
    for proto in [ProtocolKind::IssPbft, ProtocolKind::LadonPbft] {
        let log = confirmed_log(proto);
        let (windows, exposed) = audit(&log);
        println!(
            "{:<10} {:>8} {:>20} {:>22}",
            proto.label(),
            log.len(),
            windows,
            exposed
        );
    }
    println!(
        "\nUnder ISS the straggler's slots execute ahead of order flow that was\n\
         committed seconds earlier — every such window lets an attacker place a\n\
         buy order 'in the past'. Ladon's monotonic ranks order blocks by\n\
         generation, so the audit finds no window."
    );
}
