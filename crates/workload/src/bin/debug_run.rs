//! Diagnostic runner: prints per-replica pipeline state for a small run.
//! Useful when bringing up a new protocol composition.

use ladon_types::{ProtocolKind, TimeNs};
use ladon_workload::{Deployment, ExperimentConfig};

fn main() {
    let proto = match std::env::args().nth(1).as_deref() {
        Some("iss") => ProtocolKind::IssPbft,
        Some("opt") => ProtocolKind::LadonOptPbft,
        Some("dqbft") => ProtocolKind::DqbftPbft,
        Some("hs") => ProtocolKind::LadonHotStuff,
        Some("isshs") => ProtocolKind::IssHotStuff,
        _ => ProtocolKind::LadonPbft,
    };
    let n: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let secs: f64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);

    let mut d = Deployment::build(&ExperimentConfig::scenario(proto, n, secs));

    let step = TimeNs::from_secs_f64(secs / 10.0);
    let mut t = TimeNs::ZERO;
    for _ in 0..10 {
        t += step;
        d.engine.run_until(t);
        let node = d.node(0);
        println!(
            "t={:>6.2}s commits={:<5} confirms={:<5} waiting={:<4} txs={:<8} epoch={} curRank={} deposited={} events={}",
            t.as_secs_f64(),
            node.metrics.commits.len(),
            node.metrics.confirms.len(),
            node.waiting_count(),
            node.metrics.confirmed_txs,
            node.epoch(),
            node.cur_rank(),
            node.metrics.deposited_txs,
            d.engine.events_processed(),
        );
    }
    println!("--- per-replica final ---");
    for r in 0..n {
        let node = d.node(r);
        println!(
            "r{r}: commits={} confirms={} txs={} vc={} epochs={:?}",
            node.metrics.commits.len(),
            node.metrics.confirms.len(),
            node.metrics.confirmed_txs,
            node.metrics.view_changes.len(),
            node.metrics
                .epochs
                .iter()
                .map(|&(t, e)| (t.as_secs_f64(), e))
                .collect::<Vec<_>>(),
        );
    }
}
