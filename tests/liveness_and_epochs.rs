//! G-Liveness (§3.3) and epoch pacemaker behavior (§5.2.1) end to end.

use ladon::types::ProtocolKind;
use ladon::workload::{Deployment, ExperimentConfig};

#[test]
fn submitted_transactions_eventually_confirm() {
    // Submit for 3 s at 60% load, then let the pipeline drain: every
    // deposited transaction must be confirmed.
    let mut c =
        Deployment::build(&ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 3.0).load(0.6));
    c.run_secs(12.0);
    let node = c.node(0);
    let deposited: u64 = (0..4).map(|r| c.node(r).metrics.deposited_txs).sum();
    assert!(deposited > 0);
    assert!(
        node.metrics.confirmed_txs >= deposited * 95 / 100,
        "confirmed {} of {} deposited txs",
        node.metrics.confirmed_txs,
        deposited
    );
}

#[test]
fn epochs_advance_and_ranks_respect_ranges() {
    // Short epochs force several boundary crossings.
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 7.0).with_epoch_length(8),
    );
    c.run_secs(8.0);
    let node = c.node(0);
    assert!(
        node.metrics.epochs.len() >= 2,
        "expected several epoch advances, saw {:?}",
        node.metrics.epochs
    );
    // Every confirmed block's rank lies inside some epoch's range, and
    // ranks within an instance are strictly increasing.
    let mut per_instance: std::collections::HashMap<u32, u64> = Default::default();
    for cfm in &node.metrics.confirms {
        let last = per_instance.entry(cfm.instance).or_insert(0);
        assert!(
            cfm.rank > *last || (*last == 0 && cfm.rank >= 1),
            "instance {} rank regressed: {} after {}",
            cfm.instance,
            cfm.rank,
            last
        );
        *per_instance.get_mut(&cfm.instance).unwrap() = cfm.rank;
    }
    // All replicas advanced through the same epochs.
    let e0: Vec<u64> = node.metrics.epochs.iter().map(|&(_, e)| e).collect();
    for r in 1..4 {
        let er: Vec<u64> = c.node(r).metrics.epochs.iter().map(|&(_, e)| e).collect();
        let shared = e0.len().min(er.len());
        assert_eq!(&e0[..shared], &er[..shared], "replica {r} epoch mismatch");
    }
}

#[test]
fn ladon_opt_also_advances_epochs() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonOptPbft, 4, 5.0).with_epoch_length(8),
    );
    c.run_secs(6.0);
    assert!(
        !c.node(0).metrics.epochs.is_empty(),
        "Ladon-opt must cross at least one epoch boundary"
    );
    c.check(&[0, 1, 2, 3]).assert_safe();
}

#[test]
fn straggler_slows_epoch_boundaries_but_not_confirmation() {
    // With a straggler, Ladon keeps confirming between boundaries; the
    // boundary stall is bounded by the straggler's proposal interval.
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 9.0)
            .with_straggler_ids(&[1], 4.0)
            .with_epoch_length(16),
    );
    c.run_secs(10.0);
    let node = c.node(0);
    assert!(node.metrics.confirmed_txs > 0);
    assert!(
        node.metrics.confirms.len() > 20,
        "dynamic ordering should keep confirming despite the straggler: {}",
        node.metrics.confirms.len()
    );
}

#[test]
fn hotstuff_liveness() {
    let mut c = Deployment::build(&ExperimentConfig::scenario(
        ProtocolKind::LadonHotStuff,
        4,
        5.0,
    ));
    c.run_secs(8.0);
    assert!(c.node(0).metrics.confirmed_txs > 0);
    assert!(c.node(0).metrics.confirms.len() > 5);
}
