//! Diagnostic runner. Two modes:
//!
//! - `debug_run [ladon|opt|hs|iss|isshs|mir|dqbft] [n] [secs]` prints
//!   per-replica pipeline state for a small run, in ten steps, then each
//!   replica's totals, with the rounds of consensus state it still holds
//!   (flat in `secs` under every protocol but DQBFT, whose replicas stay
//!   in epoch 0: the others' instances trim at every epoch). Useful when
//!   bringing up a new protocol composition.
//! - `debug_run grid <protocol[,protocol…]|all> [seeds]` runs the 1 %
//!   message-loss grid: `scenario(p, 4, 20.0).with_epoch_length(16)
//!   .with_loss(0.01)` for 25 s per seed (`seeds` is `a-b` or a comma
//!   list; default `0-19`), judges each run with the full oracle, and
//!   prints one line per seed (frontiers, epochs, and the violations of
//!   a run that has any) and one row per protocol: violating runs by
//!   kind, runs whose frontiers spread by more than 16 blocks, the lowest
//!   frontier's sum, median and minimum, the highest frontier's median,
//!   and the state-transfer traffic summed over runs and replicas (sync
//!   requests sent; snapshots and chunk bytes served). It exits
//!   nonzero when any run violated the oracle.
//!
//! An unknown protocol name exits 2 and lists the valid ones.

use ladon_types::{ProtocolKind, TimeNs};
use ladon_workload::{Deployment, ExperimentConfig};
use std::collections::BTreeMap;

const ALL: [(&str, ProtocolKind); 7] = [
    ("ladon", ProtocolKind::LadonPbft),
    ("opt", ProtocolKind::LadonOptPbft),
    ("hs", ProtocolKind::LadonHotStuff),
    ("iss", ProtocolKind::IssPbft),
    ("isshs", ProtocolKind::IssHotStuff),
    ("mir", ProtocolKind::MirPbft),
    ("dqbft", ProtocolKind::DqbftPbft),
];

fn lookup(name: &str) -> Option<ProtocolKind> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, p)| p)
}

/// The protocol named `name`; an unknown name exits 2.
fn protocol(name: &str) -> ProtocolKind {
    lookup(name).unwrap_or_else(|| {
        let valid: Vec<&str> = ALL.iter().map(|&(n, _)| n).collect();
        eprintln!("unknown protocol `{name}`; valid: {}", valid.join(", "));
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("grid") {
        let protocols: Vec<ProtocolKind> = match args.get(1).map(String::as_str) {
            None | Some("all") => ALL.iter().map(|&(_, p)| p).collect(),
            Some(list) => list.split(',').map(protocol).collect(),
        };
        let seeds = parse_seeds(args.get(2).map_or("0-19", String::as_str));
        let violating: usize = protocols.iter().map(|&p| loss_grid_row(p, &seeds)).sum();
        if violating > 0 {
            eprintln!("{violating} run(s) violated the oracle");
            std::process::exit(1);
        }
        return;
    }
    trace(
        protocol(args.first().map_or("ladon", String::as_str)),
        args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4),
        args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5.0),
    );
}

/// `a-b` (inclusive) or `a,b,c`.
fn parse_seeds(spec: &str) -> Vec<u64> {
    let num = |s: &str| s.trim().parse::<u64>().expect("a seed is a number");
    match spec.split_once('-') {
        Some((a, b)) => (num(a)..=num(b)).collect(),
        None => spec.split(',').map(num).collect(),
    }
}

/// One row of the loss grid for `p` over `seeds`; returns the number of
/// violating runs.
fn loss_grid_row(p: ProtocolKind, seeds: &[u64]) -> usize {
    let mut violating = 0;
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let (mut spread, mut lows, mut highs) = (0, Vec::new(), Vec::new());
    // Sync requests sent; snapshots and chunk bytes served.
    let mut sync = [0u64; 3];
    for &seed in seeds {
        let cfg = ExperimentConfig::scenario(p, 4, 20.0)
            .with_epoch_length(16)
            .with_loss(0.01)
            .with_seed(seed);
        let mut d = Deployment::build(&cfg);
        d.run_secs(25.0);
        let verdict = d.check(&[0, 1, 2, 3]);
        if !verdict.violations.is_empty() {
            violating += 1;
        }
        for v in &verdict.violations {
            let kind = format!("{v:?}");
            let kind = kind.split([' ', '{']).next().unwrap_or_default();
            *kinds.entry(kind.to_string()).or_default() += 1;
        }
        let fronts: Vec<u64> = (0..4).map(|r| d.confirmed_frontier(r)).collect();
        let (lo, hi) = (fronts.iter().min().unwrap(), fronts.iter().max().unwrap());
        spread += usize::from(hi - lo > 16);
        let epochs: Vec<u64> = (0..4).map(|r| d.node(r).epoch()).collect();
        print!("  {p:?} seed {seed}: frontiers {fronts:?} epochs {epochs:?}");
        if verdict.violations.is_empty() {
            println!();
        } else {
            println!(" violations {:?}", verdict.violations);
        }
        lows.push(*lo);
        highs.push(*hi);
        for r in 0..4 {
            let m = &d.node(r).metrics;
            let counts = [m.sync_requests, m.snapshots_served, m.snapshot_bytes_served];
            for (sum, count) in sync.iter_mut().zip(counts) {
                *sum += count;
            }
        }
    }
    lows.sort_unstable();
    highs.sort_unstable();
    let runs = seeds.len();
    let median = |v: &[u64]| v.get(v.len() / 2).copied().unwrap_or(0);
    println!(
        "{p:?}: violating {violating} / {runs} {kinds:?} | spread > 16: {spread} / {runs} | \
         lowest frontier: sum {} median {} min {} | highest frontier median {} | \
         sync requests {} | snapshots served {} bytes {}",
        lows.iter().sum::<u64>(),
        median(&lows),
        lows.first().copied().unwrap_or(0),
        median(&highs),
        sync[0],
        sync[1],
        sync[2],
    );
    violating
}

/// The ten-step trace of one small run (LAN, seed 7).
fn trace(proto: ProtocolKind, n: usize, secs: f64) {
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
            "r{r}: commits={} confirms={} txs={} vc={} rounds_held={} epochs={:?}",
            node.metrics.commits.len(),
            node.metrics.confirms.len(),
            node.metrics.confirmed_txs,
            node.metrics.view_changes.len(),
            node.rounds_held(),
            node.metrics
                .epochs
                .iter()
                .map(|&(t, e)| (t.as_secs_f64(), e))
                .collect::<Vec<_>>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Each name selects its own protocol, and a name outside the table
    /// selects none (rather than falling back to Ladon-PBFT).
    #[test]
    fn every_name_selects_one_protocol_and_unknown_names_none() {
        let names: BTreeSet<&str> = ALL.iter().map(|&(n, _)| n).collect();
        let labels: BTreeSet<&str> = ALL.iter().map(|&(_, p)| p.label()).collect();
        assert_eq!((names.len(), labels.len()), (ALL.len(), ALL.len()));
        for (name, p) in ALL {
            assert_eq!(lookup(name), Some(p), "{name}");
        }
        for name in ["rcc", "Ladon", "pbft", "iss ", ""] {
            assert_eq!(lookup(name), None, "{name:?}");
        }
    }
}
