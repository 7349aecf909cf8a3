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
/// were. Under every protocol but DQBFT, which stays in epoch 0, each
/// replica also ends holding at most three epochs of rounds per
/// instance: every advance drained its windows.
fn assert_confirms_keep_pace(protocol: ProtocolKind, min_epochs: usize, lag_per_instance: usize) {
    let cfg = ExperimentConfig::scenario(protocol, 4, 10.0).with_epoch_length(16);
    let mut c = Deployment::build(&cfg);
    c.run_secs(10.0);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let sys = c.node_config(0).sys;
    let m = sys.m;
    let bound = 3 * sys.epoch_length as usize * m;
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
        assert!(
            protocol == ProtocolKind::DqbftPbft || node.rounds_held() <= bound,
            "{protocol:?} replica {r} holds {} rounds, over {bound}",
            node.rounds_held()
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
    // Every protocol Algorithm 1 orders crosses epochs and drains its
    // windows at each advance. DQBFT's sequencer reports no epoch frontier,
    // so it stays in epoch 0 and never drains: the lag bound only. A DQBFT
    // block waits one more consensus round, on the ordering instance, so
    // about two per instance are in flight at any instant.
    for (protocol, min_epochs, lag_per_instance) in [
        (LadonPbft, 2, 1),
        (LadonOptPbft, 2, 1),
        (LadonHotStuff, 2, 1),
        (IssPbft, 2, 1),
        (MirPbft, 2, 1),
        (DqbftPbft, 0, 3),
        (IssHotStuff, 2, 1),
    ] {
        assert_confirms_keep_pace(protocol, min_epochs, lag_per_instance);
    }
}

/// Epoch-advance instants on replica 0, in seconds, of `protocol` at
/// n = 4 with 16-rank epochs and a fifth of the load (blocks small
/// enough that no NIC queue moves a proposal), over 12 s.
fn advance_times(protocol: ProtocolKind) -> (Vec<f64>, f64) {
    let cfg = ExperimentConfig::scenario(protocol, 4, 12.0)
        .with_epoch_length(16)
        .load(0.2);
    let mut c = Deployment::build(&cfg);
    c.run_secs(12.0);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let sys = c.node_config(0).sys;
    let epoch = sys.epoch_length as f64 * sys.proposal_interval().as_secs_f64();
    let times = c.node(0).metrics.epochs.iter();
    (times.map(|(t, _)| t.as_secs_f64()).collect(), epoch)
}

/// Asserts that consecutive advances lie one epoch of pace ticks apart,
/// give or take `slack` seconds.
fn assert_on_the_pace_grid(protocol: ProtocolKind, times: &[f64], epoch: f64, slack: f64) {
    assert!(times.len() >= 4, "{protocol:?}: advances at {times:?}");
    for w in times.windows(2) {
        let gap = w[1] - w[0];
        assert!(
            (gap - epoch).abs() < slack,
            "{protocol:?}: advances at {times:?}, {gap:.4} s apart, not {epoch} s"
        );
    }
}

#[test]
fn ladon_hotstuff_flush_keeps_epochs_on_the_pace_grid() {
    // The three dummies after each instance's `maxRank` node go out on
    // their parents' QCs, not on pace ticks: an epoch of 16 ranks lasts
    // 16 intervals (2 s), not 19.
    let (times, epoch) = advance_times(ProtocolKind::LadonHotStuff);
    assert_on_the_pace_grid(ProtocolKind::LadonHotStuff, &times, epoch, 0.005);
}

#[test]
fn iss_hotstuff_has_no_flush_and_keeps_its_epoch_clock() {
    // A vanilla instance proposes no dummy, so ISS-HotStuff's advances
    // keep one epoch of pace ticks apart (the first at 2.1965 s), and
    // Ladon-HotStuff's epochs last exactly as long as its.
    let (iss, epoch) = advance_times(ProtocolKind::IssHotStuff);
    assert!((iss[0] - 2.1965).abs() < 0.001, "ISS-HotStuff: {iss:?}");
    assert_on_the_pace_grid(ProtocolKind::IssHotStuff, &iss, epoch, 0.001);
    let (ladon, _) = advance_times(ProtocolKind::LadonHotStuff);
    for (l, i) in ladon.windows(2).zip(iss.windows(2)) {
        let (gl, gi) = (l[1] - l[0], i[1] - i[0]);
        assert!(
            (gl - gi).abs() < 0.005,
            "Ladon {ladon:?} against ISS {iss:?}"
        );
    }
}

#[test]
fn a_stragglers_flush_keeps_its_pace() {
    // Replica 1 leads instance 1 at a tenth of the rate. Its slowness is
    // the straggler model, dummies included: each of its `maxRank` blocks
    // commits on replica 0 two of its intervals (2.5027 s) after it was
    // proposed, on the second dummy's QC, which the leader announces.
    // Every other instance's commits within one normal interval.
    let k = 10.0;
    let cfg = ExperimentConfig::scenario(ProtocolKind::LadonHotStuff, 4, 30.0)
        .with_epoch_length(16)
        .load(0.2)
        .with_straggler_ids(&[1], k);
    let mut c = Deployment::build(&cfg);
    c.run_secs(30.0);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let sys = c.node_config(0).sys;
    let interval = sys.proposal_interval().as_secs_f64();
    let m = &c.node(0).metrics;
    let mut flushes = 0;
    for cf in m
        .confirms
        .iter()
        .filter(|cf| (cf.rank + 1) % sys.epoch_length == 0)
    {
        let commit = m
            .commits
            .iter()
            .find(|c| (c.instance, c.round) == (cf.instance, cf.round));
        let took = commit.unwrap().time.as_secs_f64() - cf.proposed_at.as_secs_f64();
        let (lo, hi) = match cf.instance {
            1 => (2.0 * k * interval, (2.0 * k + 1.0) * interval),
            _ => (0.0, interval),
        };
        assert!(
            (lo..hi).contains(&took),
            "instance {}'s rank-{} block committed {took:.4} s after it was proposed",
            cf.instance,
            cf.rank
        );
        flushes += usize::from(cf.instance == 1);
    }
    assert!(flushes >= 3, "the straggler flushed {flushes} epochs");
}
