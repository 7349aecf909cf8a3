//! Scenario sweeps: one fault shape across a grid of protocols and
//! parameters, each cell judged by the full safety oracle.

use ladon::types::ProtocolKind;
use ladon::workload::{Deployment, ExperimentConfig};

/// Replica 3 is cut off for each window `a..b` (seconds) of a 20 s load
/// over 16-rank epochs, and the run goes on to 30 s. Every cell must be
/// safe — one log, one state root per epoch — and every replica's
/// confirmed frontier must end within 16 blocks of the highest: the
/// partitioned replica rejoins.
///
/// The windows put the partition across one or more epoch boundaries, so
/// replica 3 comes back through log sync or a snapshot install, with its
/// intake holding holes below a `maxRank` block and epoch e + 1 blocks
/// above it. A checkpoint must cover exactly its epoch on every replica
/// anyway: that is what the orderer's epoch boundary is for.
#[test]
fn a_partitioned_replica_rejoins_safely_on_every_window() {
    let windows = [
        (3.0, 8.0),
        (4.0, 9.0),
        (5.0, 11.0),
        (2.0, 6.0),
        (6.0, 12.0),
        (4.0, 14.0),
    ];
    for protocol in [
        ProtocolKind::LadonPbft,
        ProtocolKind::LadonOptPbft,
        ProtocolKind::LadonHotStuff,
    ] {
        for (a, b) in windows {
            let mut c = Deployment::build(
                &ExperimentConfig::scenario(protocol, 4, 20.0)
                    .with_epoch_length(16)
                    .with_partition(3, a, b),
            );
            c.run_secs(30.0);
            let verdict = c.check(&[0, 1, 2, 3]);
            assert!(
                verdict.violations.is_empty(),
                "{protocol:?}, partition {a}..{b}: {:?}",
                verdict.violations
            );
            let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
            let max = *fronts.iter().max().unwrap();
            assert!(
                fronts.iter().all(|&f| f + 16 >= max),
                "{protocol:?}, partition {a}..{b}: frontiers {fronts:?}"
            );
        }
    }
}

/// One block per rank per instance, under the faults that broke it: a
/// view change at an epoch's end used to give the instance a second
/// `maxRank` block, which replicas could order on either side of another
/// instance's block at that rank. Over 16-rank epochs: LadonHotStuff on
/// seeds 0–19 with replica 3 cut off over 2..6 s, then every other seed
/// of the three Ladon protocols that once ended in a violation, under a
/// partition of replica 3 (run to 20 s) or 1 % message loss (run to
/// 25 s). Every cell must be safe, rank ties included.
#[test]
fn no_instance_confirms_two_blocks_of_one_rank() {
    use ProtocolKind::{LadonHotStuff as Hs, LadonOptPbft as Opt, LadonPbft as Pbft};
    let hs_partitioned = (0..20).map(|seed| (Hs, seed, Some((2.0, 6.0))));
    let once_broken = [
        (Pbft, 7, None),
        (Pbft, 8, None),
        (Pbft, 13, Some((3.0, 8.0))),
        (Pbft, 14, Some((4.0, 14.0))),
        (Pbft, 17, Some((6.0, 12.0))),
        (Opt, 3, Some((6.0, 12.0))),
        (Opt, 4, Some((6.0, 12.0))),
        (Opt, 8, None),
        (Hs, 0, None),
        (Hs, 5, None),
        (Hs, 19, None),
    ];
    for (protocol, seed, partition) in hs_partitioned.chain(once_broken) {
        let cfg = ExperimentConfig::scenario(protocol, 4, 20.0)
            .with_epoch_length(16)
            .with_seed(seed);
        let (cfg, secs) = match partition {
            Some((a, b)) => (cfg.with_partition(3, a, b), 20.0),
            None => (cfg.with_loss(0.01), 25.0),
        };
        let mut c = Deployment::build(&cfg);
        c.run_secs(secs);
        let verdict = c.check(&[0, 1, 2, 3]);
        assert!(
            verdict.violations.is_empty(),
            "{protocol:?}, seed {seed}, partition {partition:?}: {:?}",
            verdict.violations
        );
    }
}

/// A lost round is timed out, not waited on. Vanilla PBFT (ISS) pipelines
/// with no in-flight bound, so under 1 % message loss rounds commit above
/// a round some replicas never saw decided. Its deadline must stay on
/// that lowest undecided round while the later ones commit: a deadline
/// that moved up with each commit was never reached, no replica
/// view-changed, and the pre-determined global order stalled on the hole
/// at 3 blocks everywhere (seed 7, 25 s).
#[test]
fn a_hole_under_message_loss_is_timed_out() {
    let cfg = ExperimentConfig::scenario(ProtocolKind::IssPbft, 4, 20.0)
        .with_seed(7)
        .with_loss(0.01);
    let mut c = Deployment::build(&cfg);
    c.run_secs(25.0);
    let verdict = c.check(&[0, 1, 2, 3]);
    assert!(verdict.violations.is_empty(), "{:?}", verdict.violations);
    for r in 0..4 {
        let front = c.confirmed_frontier(r);
        let vcs = c.node(r).metrics.view_changes.len();
        assert!(
            front >= 16 && vcs > 0,
            "replica {r}: frontier {front}, {vcs} view changes"
        );
    }
}

/// A baseline's hole is filled by its instance, never by one replica.
/// Under 1 % message loss a pre-determined log stalls on a round some
/// replicas never saw decided; when the orderer filled such a hole with
/// a ⊥ from a replica-local 30 s quiet timer, one replica confirmed ⊥
/// where its peers later confirmed the instance's block (the oracle,
/// which compares content, read 3, 3 and 5 `Disagreement`s on these
/// cells). Every cell must be safe. A PBFT replica that missed a round's
/// vote phases fetches the round from a peer (state transfer), so the
/// ISS-PBFT and Mir cells also confirm past the hole on every replica:
/// without the fetch they read [18, 0, 158, 176].
#[test]
fn a_baseline_hole_under_message_loss_is_filled_by_its_instance() {
    use ProtocolKind::{IssHotStuff, IssPbft, MirPbft};
    for (protocol, seed) in [(IssPbft, 9), (MirPbft, 9), (IssHotStuff, 0)] {
        let cfg = ExperimentConfig::scenario(protocol, 4, 65.0)
            .with_loss(0.01)
            .with_seed(seed);
        let mut c = Deployment::build(&cfg);
        c.run_secs(70.0);
        let verdict = c.check(&[0, 1, 2, 3]);
        assert!(
            verdict.violations.is_empty(),
            "{protocol:?}, seed {seed}: {:?}",
            verdict.violations
        );
        if protocol != IssHotStuff {
            let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
            assert!(
                fronts.iter().all(|&f| f >= 1_000),
                "{protocol:?}, seed {seed}: {fronts:?}"
            );
        }
    }
}

/// DQBFT is safe under message loss. PBFT commits the ordering
/// instance's rounds out of order when messages are lost, and replicas
/// that sequenced each reference batch as it committed confirmed the same
/// blocks in different orders (seed 0 disagreed at 95 positions); the
/// batches are sequenced in round order now. A leader that cut one
/// instance's references in commit order could sequence its round r + 1
/// before round r (`RankTie` on seeds 8, 9, 11 and 12); a cut now takes
/// each instance's rounds in order. And every replica holds the
/// references it committed, so a new leader of the ordering instance has
/// something to propose. Every cell must be safe, rank ties included,
/// and every replica must confirm a block — except seed 9's replica 1:
/// DQBFT repairs nothing lost (ROADMAP 2(b)), and that replica misses a
/// round it never recovers, so it confirms nothing before and after the
/// round-order cut.
#[test]
fn dqbft_agrees_under_message_loss() {
    for seed in [0, 8, 9, 11, 12] {
        let cfg = ExperimentConfig::scenario(ProtocolKind::DqbftPbft, 4, 20.0)
            .with_epoch_length(16)
            .with_loss(0.01)
            .with_seed(seed);
        let mut c = Deployment::build(&cfg);
        c.run_secs(25.0);
        let verdict = c.check(&[0, 1, 2, 3]);
        assert!(
            verdict.violations.is_empty(),
            "seed {seed}: {:?}",
            verdict.violations
        );
        let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
        let live = |r: usize| fronts[r] > 0 || (seed == 9 && r == 1);
        assert!((0..4).all(live), "seed {seed}: {fronts:?}");
    }
}

/// A checkpoint quorum that arrives before a replica closes the epoch
/// completes it at the close. Replica 0 of this lossy Ladon-HotStuff run
/// receives its peers' epoch-0 votes before it commits the epoch's last
/// block; a pacemaker that only looked for a quorum on the next vote
/// waited for one that never came, and a HotStuff replica reports no
/// other lag, so replica 0 stayed in epoch 0 while its peers ran epoch 1.
#[test]
fn a_quorum_before_the_close_does_not_strand_a_hotstuff_replica() {
    let cfg = ExperimentConfig::scenario(ProtocolKind::LadonHotStuff, 4, 20.0)
        .with_epoch_length(16)
        .with_loss(0.01)
        .with_seed(0);
    let mut c = Deployment::build(&cfg);
    c.run_secs(25.0);
    let verdict = c.check(&[0, 1, 2, 3]);
    assert!(verdict.violations.is_empty(), "{:?}", verdict.violations);
    let epochs: Vec<u64> = (0..4).map(|r| c.node(r).epoch()).collect();
    assert!(epochs[0] >= 1, "replica 0 stranded in epoch 0: {epochs:?}");
}

/// A Ladon-opt backup that misses round r of an instance holds round
/// r + 1's pre-prepare: its rank proof builds on round r's rank, which
/// the backup cannot check yet. State transfer later installs round r,
/// and the held pre-prepare must be checked then; when only an epoch
/// advance retried it, the instance never prepared its later rounds on
/// that backup, the epoch never closed, and seed 9 stopped at frontier
/// 12 on every replica.
#[test]
fn a_held_opt_preprepare_is_retried_once_its_round_installs() {
    let cfg = ExperimentConfig::scenario(ProtocolKind::LadonOptPbft, 4, 20.0)
        .with_epoch_length(16)
        .with_loss(0.01)
        .with_seed(9);
    let mut c = Deployment::build(&cfg);
    c.run_secs(25.0);
    let verdict = c.check(&[0, 1, 2, 3]);
    assert!(verdict.violations.is_empty(), "{:?}", verdict.violations);
    let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
    assert!(fronts.iter().all(|&f| f > 100), "{fronts:?}");
}
