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

/// Runs `protocol` at n = 4 with 16-round epochs for 10 simulated seconds
/// and asserts, on every replica, that confirmation keeps pace with
/// commitment — at the end no more than `lag_per_instance` blocks per
/// instance wait for the global order, however many epoch boundaries were
/// crossed (a stall leaves hundreds) — and that at least `min_epochs`
/// were.
fn assert_confirms_keep_pace(protocol: ProtocolKind, min_epochs: usize, lag_per_instance: usize) {
    let cfg = ExperimentConfig::scenario(protocol, 4, 10.0).with_epoch_length(16);
    let mut c = Deployment::build(&cfg);
    c.run_secs(10.0);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let m = c.node_config(0).sys.m;
    for r in 0..4 {
        let node = c.node(r);
        // (DQBFT's ordering instance, index m, commits sequencing
        // decisions, not blocks that await confirmation.)
        let data = |c: &&ladon::core::CommitRecord| (c.instance as usize) < m;
        let commits = node.metrics.commits.iter().filter(data).count();
        let confirms = node.metrics.confirms.len();
        assert!(
            node.metrics.epochs.len() >= min_epochs,
            "{protocol:?} replica {r}: epochs {:?}",
            node.metrics.epochs
        );
        assert!(confirms > 0, "{protocol:?} replica {r} confirmed nothing");
        assert!(
            commits - confirms <= lag_per_instance * m,
            "{protocol:?} replica {r}: {commits} commits, {confirms} confirms, epochs {:?}",
            node.metrics.epochs
        );
    }
}

#[test]
fn hotstuff_liveness() {
    // The epoch-flush dummies take chain heights but are never emitted:
    // the block after a boundary must still be the next round its
    // instance's intake expects, or everything behind it waits forever
    // while consensus, epochs and checkpoints carry on.
    assert_confirms_keep_pace(ProtocolKind::LadonHotStuff, 2, 1);
}

#[test]
fn every_protocol_keeps_confirming_across_epoch_boundaries() {
    use ProtocolKind::*;
    // The baselines have no epochs to cross: the lag bound only. A DQBFT
    // block waits one more consensus round, on the ordering instance, so
    // about two per instance are in flight at any instant.
    for (protocol, min_epochs, lag_per_instance) in [
        (LadonPbft, 2, 1),
        (LadonOptPbft, 2, 1),
        (LadonHotStuff, 2, 1),
        (IssPbft, 0, 1),
        (RccPbft, 0, 1),
        (MirPbft, 0, 1),
        (DqbftPbft, 0, 3),
        (IssHotStuff, 0, 1),
    ] {
        assert_confirms_keep_pace(protocol, min_epochs, lag_per_instance);
    }
}
