//! The safety oracle: the one statement of what "the honest replicas are
//! consistent" means, judged from their [`NodeMetrics`] after a run.
//!
//! - **G-Agreement** (§3.3): no two replicas confirmed different blocks
//!   at the same `sn`: a block is its `(instance, round, rank)` slot and
//!   its content as recorded (`is_nil`, `tx_count`, `arrival_sum_ns`),
//!   so a ⊥ on one replica and a block on another at one slot disagree.
//!   Logs are joined on `sn`, not on position: a
//!   replica that installed an execution snapshot legitimately has no
//!   confirm records for the `sn`s the snapshot covers, and an `sn` only
//!   one replica recorded is not a disagreement.
//! - **One block per rank per instance** (Lemma 2): along each replica's
//!   confirm log, each instance's ranks strictly increase, nils
//!   included. Algorithm 1's bar `(B*.rank + 1, B*.index)` is sound only
//!   then: an instance's second block at one rank can be confirmed
//!   before another instance's block at that rank on one replica and
//!   after it on another.
//! - **Equal checkpoints** (§5.2.1): every epoch at least two replicas
//!   checkpointed has one state root. Crashed or lagging replicas simply
//!   report fewer epochs.
//! - **Dense execution**: no pipeline was handed a confirmed block above
//!   its next expected `sn` (`exec_gaps == 0`).
//! - **Dense log**: every block a replica's orderer confirmed
//!   ([`ladon_core::MultiBftNode::confirmed_count`]) is in its confirm log
//!   or counted as skipped by a snapshot install (`skipped_sns`), never
//!   both and never neither: records and skips add up to that count,
//!   whether the replica's last event was a confirm or an install.
//! - **No foreign quorum**: no replica saw a checkpoint quorum form on a
//!   root it did not execute (`root_conflicts == 0`).
//!
//! These are safety properties only; whether confirmation *resumes*
//! after a fault heals is for each scenario to assert.

use ladon_core::NodeMetrics;
use ladon_types::Digest;
use std::collections::{BTreeMap, HashMap};

/// One replica's id, what it recorded, and how many blocks its orderer
/// confirmed ([`ladon_core::MultiBftNode::confirmed_count`]).
pub type Evidence<'a> = (usize, &'a NodeMetrics, u64);

/// One broken safety property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Replica `b` confirmed a different block at `sn` than replica `a`
    /// (whose record was seen first): the two records differ in
    /// `(instance, round, rank, is_nil, tx_count, arrival_sum_ns)`.
    Disagreement { a: usize, b: usize, sn: u64 },
    /// `replica` confirmed `instance`'s block at `round` without its rank
    /// rising above the instance's previous confirmed block.
    RankTie {
        replica: usize,
        instance: u32,
        round: u64,
    },
    /// Replicas checkpointed `epoch` with different state roots; `roots`
    /// is every `(replica, root)` reported for it.
    DivergentRoot {
        epoch: u64,
        roots: Vec<(usize, Digest)>,
    },
    /// `replica`'s pipeline refused `count` confirmed blocks that arrived
    /// above its next expected `sn`.
    ExecGaps { replica: usize, count: u64 },
    /// `replica`'s `records` confirm records and `skipped` sns do not
    /// add up to the `confirmed` blocks its orderer confirmed.
    LogGap {
        replica: usize,
        records: u64,
        skipped: u64,
        confirmed: u64,
    },
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

/// What two replicas must agree on at one `sn`: the block's slot and
/// the content its confirm record carries.
type Confirmed = (u32, u64, u64, bool, u32, u128);

/// Reports every `sn` two replicas recorded differently: each record is
/// compared with the first one seen for its `sn`, which finds a
/// disagreement whenever any pair has one.
pub fn agreement(replicas: &[Evidence<'_>], out: &mut Vec<Violation>) {
    let mut first: HashMap<u64, (usize, Confirmed)> = HashMap::new();
    for &(b, metrics, _) in replicas {
        for c in &metrics.confirms {
            let block = (
                c.instance,
                c.round,
                c.rank,
                c.is_nil,
                c.tx_count,
                c.arrival_sum_ns,
            );
            let &mut (a, seen) = first.entry(c.sn).or_insert((b, block));
            if seen != block {
                out.push(Violation::Disagreement { a, b, sn: c.sn });
            }
        }
    }
}

/// Reports every confirmed block whose rank does not rise above the
/// previous block of its instance in the same replica's log.
fn ranks_rise(replicas: &[Evidence<'_>], out: &mut Vec<Violation>) {
    for &(replica, metrics, _) in replicas {
        let mut last: HashMap<u32, u64> = HashMap::new();
        for c in &metrics.confirms {
            if last
                .insert(c.instance, c.rank)
                .is_some_and(|prev| c.rank <= prev)
            {
                out.push(Violation::RankTie {
                    replica,
                    instance: c.instance,
                    round: c.round,
                });
            }
        }
    }
}

/// Compares checkpoint roots per epoch; returns how many epochs at least
/// two replicas reported (the comparable population) and reports each
/// one whose roots are not unanimous.
fn epoch_roots(replicas: &[Evidence<'_>], out: &mut Vec<Violation>) -> u64 {
    let mut by_epoch: BTreeMap<u64, Vec<(usize, Digest)>> = BTreeMap::new();
    for &(r, metrics, _) in replicas {
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
    ranks_rise(replicas, &mut violations);
    let shared_epochs = epoch_roots(replicas, &mut violations);
    for &(replica, metrics, confirmed) in replicas {
        if metrics.exec_gaps > 0 {
            let count = metrics.exec_gaps;
            violations.push(Violation::ExecGaps { replica, count });
        }
        let (records, skipped) = (metrics.confirms.len() as u64, metrics.skipped_sns);
        if records + skipped != confirmed {
            violations.push(Violation::LogGap {
                replica,
                records,
                skipped,
                confirmed,
            });
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

    /// Judges `nodes` as replicas whose orderers confirmed exactly up to
    /// their last record, or their skips when they recorded nothing.
    fn judge(nodes: &[NodeMetrics]) -> Verdict {
        let confirmed = |m: &NodeMetrics| m.confirms.last().map_or(m.skipped_sns, |c| c.sn + 1);
        let evidence: Vec<_> = (nodes.iter().enumerate())
            .map(|(r, m)| (r, m, confirmed(m)))
            .collect();
        check(&evidence)
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

    /// One slot, different content: a replica that confirmed a ⊥, fewer
    /// transactions or other transactions where its peer confirmed the
    /// block disagrees with it. The local confirm time does not count.
    #[test]
    fn one_slot_with_different_content_is_a_disagreement() {
        type Edit = fn(&mut ConfirmRecord);
        let edits: [Edit; 3] = [
            |c| {
                c.is_nil = true;
                c.tx_count = 0;
            },
            |c| c.tx_count = 2,
            |c| c.arrival_sum_ns = 9,
        ];
        for edit in edits {
            let mut nodes = vec![log(0..4), log(0..4)];
            edit(&mut nodes[1].confirms[2]);
            assert_eq!(
                judge(&nodes).violations,
                vec![Violation::Disagreement { a: 0, b: 1, sn: 2 }]
            );
        }
        let mut nodes = vec![log(0..4), log(0..4)];
        nodes[1].confirms[2].time = TimeNs::from_secs(9);
        judge(&nodes).assert_safe();
    }

    #[test]
    fn a_rank_that_does_not_rise_within_an_instance_is_a_tie() {
        // sn 2 moves to instance 1: instance 0 confirms ranks 1, 2, 4 and
        // instance 1 rank 3, so ranks rise within each instance though
        // not across them.
        let mut m = log(0..4);
        m.confirms[2].instance = 1;
        judge(std::slice::from_ref(&m)).assert_safe();
        // Instance 0's round 4 reuses round 2's rank.
        m.confirms[3].rank = 2;
        assert_eq!(
            judge(&[m]).violations,
            vec![Violation::RankTie {
                replica: 0,
                instance: 0,
                round: 4
            }]
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
    fn a_log_sn_neither_recorded_nor_skipped_is_a_gap() {
        // A snapshot-only log: nothing recorded, everything skipped.
        let synced = NodeMetrics {
            skipped_sns: 7,
            ..NodeMetrics::default()
        };
        check(&[(0, &synced, 7)]).assert_safe();
        // A log whose last event is an install: sn 0 recorded, then a
        // snapshot applied through sn 59 skipped the other 59.
        let installed = NodeMetrics {
            skipped_sns: 59,
            ..log(0..1)
        };
        check(&[(0, &installed, 60)]).assert_safe();
        // Sns 2..7 neither recorded nor counted as skipped.
        let mut holed = log(0..2);
        holed.confirms.extend(log(7..10).confirms);
        assert_eq!(
            check(&[(0, &holed, 10)]).violations,
            vec![Violation::LogGap {
                replica: 0,
                records: 5,
                skipped: 0,
                confirmed: 10
            }]
        );
        // Counted twice: skipped and recorded.
        holed.skipped_sns = 6;
        assert!(!check(&[(0, &holed, 10)]).violations.is_empty());
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
