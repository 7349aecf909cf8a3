//! The safety oracle: the one statement of what "the honest replicas are
//! consistent" means, judged from their [`NodeMetrics`] after a run.
//!
//! - **G-Agreement** (§3.3): no two replicas confirmed different blocks
//!   at the same `sn`. Logs are joined on `sn`, not on position: a
//!   replica that installed an execution snapshot legitimately has no
//!   confirm records for the `sn`s the snapshot covers, and an `sn` only
//!   one replica recorded is not a disagreement.
//! - **Equal checkpoints** (§5.2.1): every epoch at least two replicas
//!   checkpointed has one state root. Crashed or lagging replicas simply
//!   report fewer epochs.
//! - **Dense execution**: no pipeline was handed a confirmed block above
//!   its next expected `sn` (`exec_gaps == 0`).
//! - **No foreign quorum**: no replica saw a checkpoint quorum form on a
//!   root it did not execute (`root_conflicts == 0`).
//!
//! These are safety properties only; whether confirmation *resumes*
//! after a fault heals is for each scenario to assert.

use ladon_core::NodeMetrics;
use ladon_types::Digest;
use std::collections::{BTreeMap, HashMap};

/// One replica's id and what it recorded.
pub type Evidence<'a> = (usize, &'a NodeMetrics);

/// One broken safety property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Replica `b` confirmed a different block at `sn` than replica `a`
    /// (whose record was seen first).
    Disagreement { a: usize, b: usize, sn: u64 },
    /// Replicas checkpointed `epoch` with different state roots; `roots`
    /// is every `(replica, root)` reported for it.
    DivergentRoot {
        epoch: u64,
        roots: Vec<(usize, Digest)>,
    },
    /// `replica`'s pipeline refused `count` confirmed blocks that arrived
    /// above its next expected `sn`.
    ExecGaps { replica: usize, count: u64 },
    /// `replica` saw `count` checkpoint quorums form on a root it did not
    /// execute.
    RootConflicts { replica: usize, count: u64 },
}

/// What the oracle found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Every violation, in the order the properties are listed above.
    pub violations: Vec<Violation>,
    /// Epochs at least two of the judged replicas checkpointed — the
    /// population the root comparison ran over. A scenario that means to
    /// exercise checkpoints asserts this is large enough.
    pub shared_epochs: u64,
}

impl Verdict {
    /// Panics with every violation unless there is none.
    pub fn assert_safe(&self) -> &Self {
        assert!(
            self.violations.is_empty(),
            "safety violated: {:#?}",
            self.violations
        );
        self
    }
}

/// Reports every `sn` two replicas recorded differently: each record is
/// compared with the first one seen for its `sn`, which finds a
/// disagreement whenever any pair has one.
pub fn agreement(replicas: &[Evidence<'_>], out: &mut Vec<Violation>) {
    let mut first: HashMap<u64, (usize, (u32, u64, u64))> = HashMap::new();
    for &(b, metrics) in replicas {
        for c in &metrics.confirms {
            let block = (c.instance, c.round, c.rank);
            let &mut (a, seen) = first.entry(c.sn).or_insert((b, block));
            if seen != block {
                out.push(Violation::Disagreement { a, b, sn: c.sn });
            }
        }
    }
}

/// Compares checkpoint roots per epoch; returns how many epochs at least
/// two replicas reported (the comparable population) and reports each
/// one whose roots are not unanimous.
pub fn epoch_roots(replicas: &[Evidence<'_>], out: &mut Vec<Violation>) -> u64 {
    let mut by_epoch: BTreeMap<u64, Vec<(usize, Digest)>> = BTreeMap::new();
    for &(r, metrics) in replicas {
        for &(_, epoch, root) in &metrics.state_roots {
            by_epoch.entry(epoch).or_default().push((r, root));
        }
    }
    let mut shared = 0;
    for (epoch, roots) in by_epoch {
        if roots.len() < 2 {
            continue;
        }
        shared += 1;
        if roots.windows(2).any(|w| w[0].1 != w[1].1) {
            out.push(Violation::DivergentRoot { epoch, roots });
        }
    }
    shared
}

/// Judges the given (honest) replicas against every property.
pub fn check(replicas: &[Evidence<'_>]) -> Verdict {
    let mut violations = Vec::new();
    agreement(replicas, &mut violations);
    let shared_epochs = epoch_roots(replicas, &mut violations);
    for &(replica, metrics) in replicas {
        if metrics.exec_gaps > 0 {
            let count = metrics.exec_gaps;
            violations.push(Violation::ExecGaps { replica, count });
        }
        if metrics.root_conflicts > 0 {
            let count = metrics.root_conflicts;
            violations.push(Violation::RootConflicts { replica, count });
        }
    }
    Verdict {
        violations,
        shared_epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_core::ConfirmRecord;
    use ladon_types::TimeNs;

    /// A log confirming `sn`s `from..to` on instance 0, round = rank = sn + 1.
    fn log(range: std::ops::Range<u64>) -> NodeMetrics {
        let mut m = NodeMetrics::default();
        for sn in range {
            m.confirms.push(ConfirmRecord {
                sn,
                instance: 0,
                round: sn + 1,
                rank: sn + 1,
                tx_count: 1,
                arrival_sum_ns: 0,
                proposed_at: TimeNs::ZERO,
                time: TimeNs::from_millis(sn),
                is_nil: false,
            });
        }
        m
    }

    fn judge(nodes: &[NodeMetrics]) -> Verdict {
        check(&nodes.iter().enumerate().collect::<Vec<_>>())
    }

    #[test]
    fn disagreement_names_both_replicas_and_the_sn() {
        let mut nodes = vec![log(0..6), log(0..6), log(0..6)];
        nodes[2].confirms[4].instance = 3;
        let v = judge(&nodes);
        assert_eq!(
            v.violations,
            vec![Violation::Disagreement { a: 0, b: 2, sn: 4 }]
        );
    }

    #[test]
    fn divergent_epoch_root_is_reported() {
        let (good, bad) = (Digest([1; 32]), Digest([2; 32]));
        let mut nodes = vec![log(0..4), log(0..4), log(0..4)];
        for (r, node) in nodes.iter_mut().enumerate() {
            node.state_roots.push((TimeNs::ZERO, 0, good));
            let root = if r == 1 { bad } else { good };
            node.state_roots.push((TimeNs::ZERO, 1, root));
        }
        // Only replica 0 reached epoch 2: nothing to compare it with.
        nodes[0].state_roots.push((TimeNs::ZERO, 2, bad));
        let v = judge(&nodes);
        assert_eq!(v.shared_epochs, 2);
        assert_eq!(
            v.violations,
            vec![Violation::DivergentRoot {
                epoch: 1,
                roots: vec![(0, good), (1, bad), (2, good)],
            }]
        );
    }

    #[test]
    fn snapshot_skipped_gap_is_not_a_violation() {
        // Replica 1 installed a snapshot covering sns 2..7: it recorded
        // nothing for them and resumed at 7, in agreement from there on.
        let mut lagger = log(0..2);
        lagger.confirms.extend(log(7..10).confirms);
        lagger.skipped_sns = 5;
        let v = judge(&[log(0..10), lagger]);
        v.assert_safe();
        assert_eq!(v.shared_epochs, 0);
    }

    #[test]
    fn pipeline_alarms_are_violations() {
        let mut nodes = vec![log(0..3), log(0..3)];
        nodes[0].root_conflicts = 1;
        nodes[1].exec_gaps = 2;
        assert_eq!(
            judge(&nodes).violations,
            vec![
                Violation::RootConflicts {
                    replica: 0,
                    count: 1
                },
                Violation::ExecGaps {
                    replica: 1,
                    count: 2
                },
            ]
        );
    }
}
