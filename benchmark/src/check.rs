//! The correctness checker run after every repetition. A violation makes
//! the run exit non-zero: a fast wrong system is not measured.
//!
//! Liveness is *not* checked here. A replica that stops confirming (the
//! known Ladon-HotStuff epoch-boundary stall) violates nothing below; it
//! shows in `delivered_share`.

use ladon_core::NodeMetrics;
use ladon_types::Digest;
use ladon_workload::Report;
use std::collections::BTreeMap;

/// Safety over one simulated run: one total order, identical state,
/// nothing acknowledged before it is durable.
///
/// `causal_order` asks for causal strength 1.0. It holds wherever no
/// straggler runs; under the k=10 straggler the baseline orders some
/// blocks against their commit history (≈0.88 at 32-tx blocks), which is
/// the protocol's behaviour there, not a safety violation — that
/// workload reports the figure instead of failing on it.
pub fn check_sim(nodes: &[NodeMetrics], report: &Report, causal_order: bool) -> Vec<String> {
    let mut v = Vec::new();

    // Confirmed `sn → (instance, round, rank)` must agree wherever two
    // replicas both hold the `sn`. Joined on `sn`, not on position: a
    // replica that installed a snapshot holds no records for the prefix.
    let mut order: BTreeMap<u64, (u32, u64, u64, usize)> = BTreeMap::new();
    for (r, node) in nodes.iter().enumerate() {
        for c in &node.confirms {
            let id = (c.instance, c.round, c.rank);
            match order.get(&c.sn) {
                None => {
                    order.insert(c.sn, (id.0, id.1, id.2, r));
                }
                Some(&(i, ro, ra, first)) if (i, ro, ra) != id => v.push(format!(
                    "order: sn {} is {:?} at replica {first} but {id:?} at replica {r}",
                    c.sn,
                    (i, ro, ra)
                )),
                Some(_) => {}
            }
        }
    }

    // Epoch state roots must agree wherever two replicas reached the epoch.
    let mut roots: BTreeMap<u64, (Digest, usize)> = BTreeMap::new();
    for (r, node) in nodes.iter().enumerate() {
        for &(_, epoch, root) in &node.state_roots {
            match roots.get(&epoch) {
                None => {
                    roots.insert(epoch, (root, r));
                }
                Some(&(first_root, first)) if first_root != root => v.push(format!(
                    "state: epoch {epoch} root {} at replica {first} but {} at replica {r}",
                    first_root.short_hex(),
                    root.short_hex()
                )),
                Some(_) => {}
            }
        }
    }

    if causal_order && report.causal_strength != 1.0 {
        v.push(format!("causal_strength = {}", report.causal_strength));
    }
    if report.wal_flush_failures != 0 {
        v.push(format!(
            "wal_flush_failures = {}",
            report.wal_flush_failures
        ));
    }
    let gaps: u64 = nodes.iter().map(|n| n.exec_gaps).sum();
    if gaps != 0 {
        v.push(format!("exec_gaps = {gaps}"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_core::ConfirmRecord;
    use ladon_types::TimeNs;

    fn confirm(sn: u64, instance: u32) -> ConfirmRecord {
        ConfirmRecord {
            sn,
            instance,
            round: sn + 1,
            rank: sn,
            tx_count: 1,
            arrival_sum_ns: 0,
            proposed_at: TimeNs::ZERO,
            time: TimeNs::from_millis(sn),
            is_nil: false,
        }
    }

    fn clean_report() -> Report {
        Report {
            causal_strength: 1.0,
            ..Report::default()
        }
    }

    #[test]
    fn prefixes_and_gaps_in_the_log_are_consistent() {
        let mut a = NodeMetrics::default();
        let mut b = NodeMetrics::default();
        a.confirms = (0..5).map(|sn| confirm(sn, 0)).collect();
        // b is behind and skipped sn 0 (snapshot install).
        b.confirms = (1..3).map(|sn| confirm(sn, 0)).collect();
        a.state_roots.push((TimeNs::ZERO, 0, Digest([1; 32])));
        b.state_roots.push((TimeNs::ZERO, 0, Digest([1; 32])));
        assert!(check_sim(&[a, b], &clean_report(), true).is_empty());
    }

    #[test]
    fn divergence_is_reported() {
        let mut a = NodeMetrics::default();
        let mut b = NodeMetrics::default();
        a.confirms = vec![confirm(0, 0)];
        b.confirms = vec![confirm(0, 1)];
        a.state_roots.push((TimeNs::ZERO, 3, Digest([1; 32])));
        b.state_roots.push((TimeNs::ZERO, 3, Digest([2; 32])));
        b.exec_gaps = 1;
        let report = Report {
            causal_strength: 0.5,
            wal_flush_failures: 2,
            ..Report::default()
        };
        let v = check_sim(&[a.clone(), b.clone()], &report, true);
        assert_eq!(v.len(), 5, "{v:?}");
        assert_eq!(check_sim(&[a, b], &report, false).len(), 4);
        assert!(v[0].starts_with("order: sn 0"));
        assert!(v[1].starts_with("state: epoch 3"));
    }
}
