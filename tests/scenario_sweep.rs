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
///
/// LadonHotStuff is not in the grid: on the 2..6 window its healthy
/// replicas order two equal-rank blocks of one instance differently (a
/// view change's new leader re-proposes at `maxRank` instead of flushing
/// the epoch with dummies), and its partitioned replica never rejoins.
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
    for protocol in [ProtocolKind::LadonPbft, ProtocolKind::LadonOptPbft] {
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
