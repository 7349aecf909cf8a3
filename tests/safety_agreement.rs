//! G-Agreement and G-Totality across protocol compositions (§3.3):
//! honest replicas' global logs must agree at every shared index, and
//! confirmed blocks must eventually be confirmed everywhere.

use ladon::types::ProtocolKind;
use ladon::workload::{Deployment, ExperimentConfig};

fn agreement_for(protocol: ProtocolKind, n: usize, secs: f64) {
    let mut c = Deployment::build(&ExperimentConfig::scenario(protocol, n, secs - 1.0));
    c.run_secs(secs);
    let honest: Vec<usize> = (0..n).collect();
    c.check(&honest).assert_safe();
    assert!(
        c.node(0).metrics.confirms.len() > 5,
        "{protocol:?}: too few confirmations to be meaningful"
    );
}

#[test]
fn ladon_pbft_agreement() {
    agreement_for(ProtocolKind::LadonPbft, 4, 6.0);
}

#[test]
fn ladon_opt_pbft_agreement() {
    agreement_for(ProtocolKind::LadonOptPbft, 4, 6.0);
}

#[test]
fn iss_pbft_agreement() {
    agreement_for(ProtocolKind::IssPbft, 4, 6.0);
}

#[test]
fn rcc_pbft_agreement() {
    agreement_for(ProtocolKind::RccPbft, 4, 6.0);
}

#[test]
fn mir_pbft_agreement() {
    agreement_for(ProtocolKind::MirPbft, 4, 6.0);
}

#[test]
fn dqbft_agreement() {
    agreement_for(ProtocolKind::DqbftPbft, 4, 6.0);
}

#[test]
fn ladon_hotstuff_agreement() {
    agreement_for(ProtocolKind::LadonHotStuff, 4, 6.0);
}

#[test]
fn iss_hotstuff_agreement() {
    agreement_for(ProtocolKind::IssHotStuff, 4, 6.0);
}

#[test]
fn agreement_survives_straggler_and_larger_cluster() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 7, 5.0).with_straggler_ids(&[2], 10.0),
    );
    c.run_secs(6.0);
    c.check(&(0..7).collect::<Vec<_>>()).assert_safe();
}

#[test]
fn totality_logs_converge_after_quiescence() {
    // After submission stops and the network drains, every replica's log
    // has the same length (G-Totality for the finished prefix).
    let mut c = Deployment::build(&ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 3.0));
    c.run_secs(10.0);
    let lens: Vec<usize> = (0..4).map(|r| c.node(r).metrics.confirms.len()).collect();
    let min = *lens.iter().min().unwrap();
    let max = *lens.iter().max().unwrap();
    assert!(min > 0);
    // Epoch-boundary blocks may trail by at most one wave.
    assert!(max - min <= c.sys.m, "logs failed to converge: {lens:?}");
}
