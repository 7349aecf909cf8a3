//! Causality (§4.3, §6.4) and fault handling (Fig. 8) end to end.

use ladon::types::{NetEnv, ProtocolKind};
use ladon::workload::{run_experiment, Deployment, ExperimentConfig};

#[test]
fn ladon_preserves_causality_under_straggler() {
    let r = run_experiment(
        &ExperimentConfig::new(ProtocolKind::LadonPbft, 8, NetEnv::Wan)
            .duration_secs(8.0)
            .warmup_secs(3.0)
            .with_stragglers(1, 10.0),
    );
    assert!(
        r.causal_strength > 0.999,
        "Ladon CS must be ~1.0, got {}",
        r.causal_strength
    );
}

#[test]
fn iss_violates_causality_under_straggler() {
    let r = run_experiment(
        &ExperimentConfig::new(ProtocolKind::IssPbft, 8, NetEnv::Wan)
            .duration_secs(8.0)
            .warmup_secs(3.0)
            .with_stragglers(1, 10.0),
    );
    assert!(
        r.causal_strength < 0.9,
        "pre-determined ordering must leak causality with a straggler, got {}",
        r.causal_strength
    );
}

#[test]
fn byzantine_rank_minimizers_cause_only_bounded_damage() {
    // §4.4 / Fig. 7: rank manipulation is bounded by certification — the
    // minimizer's rank stays at or above the median honest certified
    // rank, so Ladon under Byzantine stragglers remains far more causal
    // than pre-determined ordering under plain honest stragglers.
    let byz = run_experiment(
        &ExperimentConfig::new(ProtocolKind::LadonPbft, 8, NetEnv::Wan)
            .duration_secs(8.0)
            .warmup_secs(3.0)
            .with_stragglers(2, 5.0)
            .byzantine(),
    );
    let iss = run_experiment(
        &ExperimentConfig::new(ProtocolKind::IssPbft, 8, NetEnv::Wan)
            .duration_secs(8.0)
            .warmup_secs(3.0)
            .with_stragglers(2, 5.0),
    );
    assert!(byz.committed_txs > 0);
    // §4.4's bound is a *median* argument: with f' = f the minimizer can
    // dip to roughly the median honest rank, so some violations appear —
    // but orders of magnitude fewer than pre-determined ordering, whose
    // CS collapses toward zero.
    assert!(
        byz.causal_strength > 0.05,
        "Byzantine rank minimization must stay bounded, got {}",
        byz.causal_strength
    );
    assert!(
        byz.causal_strength > iss.causal_strength,
        "Byzantine Ladon ({}) must still beat honest-straggler ISS ({})",
        byz.causal_strength,
        iss.causal_strength
    );
}

#[test]
fn crash_triggers_view_change_and_recovery() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 19.0).with_crash(2, 3.0),
    );
    // View-change timeout is the paper's 10 s; run long enough to recover.
    c.run_secs(20.0);
    let honest = [0usize, 1, 3];
    // Some replica observed the view change on instance 2.
    let vc_seen: usize = honest
        .iter()
        .map(|&r| {
            c.node(r)
                .metrics
                .view_changes
                .iter()
                .filter(|&&(_, i, _)| i == 2)
                .count()
        })
        .sum();
    assert!(
        vc_seen > 0,
        "the crashed leader's instance must view-change"
    );
    let nv_seen: usize = honest
        .iter()
        .map(|&r| c.node(r).metrics.new_views.len())
        .sum();
    assert!(nv_seen > 0, "a new view must install");
    c.check(&honest).assert_safe();
    // Confirmation continued after recovery: blocks confirmed past the
    // crash + timeout horizon.
    let late_confirms = c
        .node(0)
        .metrics
        .confirms
        .iter()
        .filter(|cf| cf.time > ladon::types::TimeNs::from_secs(15))
        .count();
    assert!(
        late_confirms > 0,
        "confirmation must resume after the view change"
    );
}

/// Replica 1 crashes at 0.5 ms, before its first pace tick, so instance
/// 1 never commits anything anywhere. The healthy replicas start waiting
/// on it at their first commit on another instance and view-change it:
/// otherwise Ladon's first epoch never closes and a baseline's log waits
/// on instance 1 forever, and no replica confirms a block. The view
/// change is also the only way a baseline's hole is filled: the orderer
/// makes no ⊥ of its own.
#[test]
fn a_leader_that_dies_before_its_first_commit_is_replaced() {
    use ProtocolKind::{IssHotStuff, IssPbft, LadonHotStuff, LadonPbft, MirPbft, RccPbft};
    for protocol in [
        LadonPbft,
        LadonHotStuff,
        IssPbft,
        MirPbft,
        RccPbft,
        IssHotStuff,
    ] {
        let mut c = Deployment::build(
            &ExperimentConfig::scenario(protocol, 4, 30.0)
                .with_crash(1, 0.0005)
                .with_view_timeout(1.0),
        );
        c.run_secs(30.0);
        let healthy = [0usize, 2, 3];
        let fronts: Vec<u64> = healthy.iter().map(|&r| c.confirmed_frontier(r)).collect();
        assert!(fronts.iter().all(|&f| f > 0), "{protocol:?}: {fronts:?}");
        c.check(&healthy).assert_safe();
    }
}

#[test]
fn dqbft_sequences_through_ordering_instance() {
    let mut c = Deployment::build(&ExperimentConfig::scenario(ProtocolKind::DqbftPbft, 4, 5.0));
    c.run_secs(6.0);
    assert!(c.node(0).metrics.confirmed_txs > 0);
    c.check(&[0, 1, 2, 3]).assert_safe();
}
