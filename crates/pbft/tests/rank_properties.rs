//! Property-based tests of the PBFT instance's rank machinery:
//! MR-Monotonicity (Lemma 2) under random delivery interleavings, epoch
//! clamping, opt-mode equivalence, and the opt encoding past its key
//! budget.

use ladon_crypto::{QuorumCert, RankCert};
use ladon_pbft::testkit::{test_batch, Cluster};
use ladon_pbft::{PbftMsg, RankMode};
use ladon_types::{Digest, InstanceId, Rank, ReplicaId, Round, TimeNs, View};
use proptest::prelude::*;

/// Runs `rounds` proposals with the queue drained in an order driven by
/// `perm`, returning the committed rank sequence at replica 1.
fn run_with_interleaving(mode: RankMode, rounds: u64, perm: &[usize]) -> Vec<u64> {
    let mut c = Cluster::new(4, mode, u64::MAX);
    let mut p = 0usize;
    for r in 0..rounds {
        assert!(c.nodes[0].can_propose());
        c.now += ladon_types::TimeNs::from_millis(10);
        let actions = c.nodes[0].propose(test_batch(r * 10, 4), c.now, &mut c.cur_ranks[0]);
        c.absorb(0, actions);
        // Drain with permuted pop order: rotate the queue before each pop.
        while !c.queue.is_empty() {
            let rot = perm.get(p).copied().unwrap_or(0) % c.queue.len();
            p += 1;
            c.queue.rotate_left(rot);
            let (to, from, msg) = c.queue.pop_front().unwrap();
            let who = to.as_usize();
            let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            c.absorb(who, actions);
        }
    }
    let mut blocks = c.committed[1].clone();
    blocks.sort_by_key(|b| b.round());
    blocks.iter().map(|b| b.rank().0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 2: intra-instance ranks strictly increase, for any message
    /// delivery interleaving.
    #[test]
    fn ranks_strictly_increase_under_any_interleaving(
        perm in proptest::collection::vec(any::<usize>(), 0..200),
        rounds in 2u64..6,
    ) {
        let ranks = run_with_interleaving(RankMode::Plain, rounds, &perm);
        prop_assert_eq!(ranks.len() as u64, rounds);
        for w in ranks.windows(2) {
            prop_assert!(w[1] > w[0], "ranks {:?} not strictly increasing", ranks);
        }
    }

    /// Plain and opt modes assign identical ranks for identical histories.
    #[test]
    fn opt_matches_plain_ranks(rounds in 2u64..6) {
        let perm: Vec<usize> = Vec::new();
        let plain = run_with_interleaving(RankMode::Plain, rounds, &perm);
        let opt = run_with_interleaving(RankMode::Opt, rounds, &perm);
        prop_assert_eq!(plain, opt);
    }
}

#[test]
fn ranks_clamp_at_epoch_max_and_stop() {
    // Epoch max 2: rounds get ranks 1, 2 and the leader stops.
    let mut c = Cluster::new(4, RankMode::Plain, 2);
    c.propose_and_run(0, test_batch(0, 4));
    c.propose_and_run(0, test_batch(10, 4));
    assert!(c.nodes[0].stopped_for_epoch());
    let blocks = c.assert_agreement();
    assert_eq!(blocks.last().unwrap().rank(), Rank(2));
    // Backups also committed the maxRank block and would report it.
    for log in &c.committed {
        assert_eq!(log.iter().map(|b| b.rank()).max(), Some(Rank(2)));
    }
}

#[test]
fn opt_mode_epoch_crossing_preserves_ranks() {
    let mut c = Cluster::new(4, RankMode::Opt, 3);
    for i in 0..3 {
        c.propose_and_run(0, test_batch(i * 10, 4));
    }
    assert!(c.nodes[0].stopped_for_epoch());
    for r in 0..4 {
        let acts = {
            let cur = &mut c.cur_ranks[r];
            c.nodes[r].advance_epoch(Rank(4), Rank(7), c.now, cur)
        };
        c.absorb(r, acts);
    }
    c.run_to_quiescence();
    c.propose_and_run(0, test_batch(100, 4));
    let blocks = c.assert_agreement();
    assert_eq!(blocks.last().unwrap().rank(), Rank(4));
    for w in blocks.windows(2) {
        assert!(w[1].rank() > w[0].rank());
    }
}

#[test]
fn opt_report_past_the_key_budget_under_reports_and_is_accepted() {
    // §5.3: a backup whose certified curRank sits K or more above the
    // round's base signs with the last sub-key, so its report claims
    // exactly base + K − 1 — a lower bound of what its certificate proves,
    // which the leader accepts and proposes one above.
    let mut c = Cluster::new(4, RankMode::Opt, 1000);
    let k = u64::from(c.registry.opt_keys());
    c.propose_and_run(0, test_batch(0, 4));
    c.propose_and_run(0, test_batch(10, 4));

    // Backup 2 learned a much higher certified rank on another instance.
    let (view, round, instance, digest) = (View(0), Round(9), InstanceId(1), Digest([9; 32]));
    let high = Rank(40);
    let shares: Vec<_> = (0..3)
        .map(|r| {
            let signer = c.registry.signer(ReplicaId(r));
            QuorumCert::sign_share(&signer, view, round, &digest, instance, high)
        })
        .collect();
    let cert = QuorumCert::from_shares(&shares, 4, view, round, instance, digest, high);
    c.cur_ranks[2] = RankCert::certified(cert.expect("distinct signers"));

    c.now += TimeNs::from_millis(10);
    let actions = c.nodes[0].propose(test_batch(20, 4), c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);
    let (rejected, mut report) = (c.nodes[0].rejected, None);
    while let Some((to, from, msg)) = c.queue.pop_front() {
        if let (2, PbftMsg::Rank(r)) = (from.0, &msg) {
            report = Some(r.clone());
        }
        let who = to.as_usize();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    let report = report.expect("backup 2 reported to the leader");
    let base = report.signed.body.rank;
    assert_eq!(base, Rank(3), "the round's rank");
    assert!(high.diff(base) >= k);
    assert_eq!(u64::from(report.signed.sig.pk.key_idx), k - 1);
    assert_eq!(
        c.nodes[0].rejected, rejected,
        "the under-report is accepted"
    );

    c.propose_and_run(0, test_batch(30, 4));
    let blocks = c.assert_agreement();
    assert_eq!(blocks.last().unwrap().rank(), base.offset(k));
}

#[test]
fn rejected_counter_stays_zero_on_honest_runs() {
    let mut c = Cluster::new(7, RankMode::Plain, u64::MAX);
    for i in 0..4 {
        c.propose_and_run(0, test_batch(i * 10, 4));
    }
    for (r, n) in c.nodes.iter().enumerate() {
        assert_eq!(n.rejected, 0, "replica {r} rejected honest messages");
    }
}

// ---------------------------------------------------------------------
// ViewPlan derivation invariants
// ---------------------------------------------------------------------

mod view_plan_props {
    use ladon_crypto::qc::CertDomain;
    use ladon_crypto::{AggregateSignature, KeyRegistry, QuorumCert, Signature};
    use ladon_pbft::{CertifiedBlock, RankMode, ViewChange, ViewPlan};
    use ladon_types::{
        Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs, View,
    };
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn entry(round: u64, rank: u64) -> CertifiedBlock {
        CertifiedBlock {
            block: Block {
                header: BlockHeader {
                    index: InstanceId(0),
                    round: Round(round),
                    rank: Rank(rank),
                    payload_digest: Digest([round as u8; 32]),
                },
                batch: ladon_pbft::testkit::test_batch(round, 1),
                proposed_at: TimeNs::ZERO,
            },
            qc: std::sync::Arc::new(QuorumCert {
                view: View(0),
                round: Round(round),
                instance: InstanceId(0),
                digest: Digest([round as u8; 32]),
                rank: Rank(rank),
                domain: CertDomain::Prepare,
                agg: AggregateSignature {
                    signers: vec![(ReplicaId(0), 0), (ReplicaId(1), 0), (ReplicaId(2), 0)],
                    combined: [0; 32],
                    n: 4,
                },
            }),
        }
    }

    fn sig() -> Signature {
        let reg = KeyRegistry::generate(4, 1, 5);
        Signature::sign(&reg.signer(ReplicaId(0)), b"p", b"p")
    }

    proptest! {
        /// For any quorum of view-change messages, the derived plan covers
        /// every round in (max_lc, resume_from) exactly once — either as a
        /// re-proposal or as a nil — and never both; resume_from exceeds
        /// everything covered; nil ranks never exceed the next certified
        /// round's rank (Lemma 2 ordering is preserved).
        #[test]
        fn plan_partitions_the_round_space(
            lcs in proptest::collection::vec(0u64..12, 3),
            certified in proptest::collection::btree_set((1u64..24, 1u64..40), 0..8),
        ) {
            let certified: Vec<(u64, u64)> = {
                // One rank per round, ranks strictly increasing with round
                // (Lemma 2 holds for real blocks).
                let mut seen = BTreeSet::new();
                let mut rank_floor = 0;
                let mut out = Vec::new();
                for (round, rank) in certified {
                    if seen.insert(round) {
                        let r = rank.max(rank_floor + 1);
                        out.push((round, r));
                        rank_floor = r;
                    }
                }
                out
            };
            // Distribute certified entries across the three VCs.
            let vcs: Vec<ViewChange> = lcs
                .iter()
                .enumerate()
                .map(|(i, &lc)| ViewChange {
                    new_view: View(1),
                    instance: InstanceId(0),
                    last_committed: Round(lc),
                    prepared: certified
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| j % 3 == i || i == 0)
                        .map(|(_, &(round, rank))| entry(round, rank))
                        .collect(),
                    sig: sig(),
                })
                .collect();
            let plan = ViewPlan::from_vcs(&vcs, RankMode::Plain, Rank(0));

            let max_lc = lcs.iter().copied().max().unwrap();
            prop_assert_eq!(plan.max_lc, Round(max_lc));

            let repro: BTreeSet<u64> = plan.reproposals.iter().map(|e| e.block.round().0).collect();
            let nils: BTreeSet<u64> = plan.nils.iter().map(|(r, _)| r.0).collect();
            // Disjoint.
            prop_assert!(repro.is_disjoint(&nils));
            // Every certified round is re-proposed.
            for &(round, _) in &certified {
                prop_assert!(repro.contains(&round));
            }
            // Full coverage of (max_lc, resume_from).
            for r in max_lc + 1..plan.resume_from.0 {
                prop_assert!(
                    repro.contains(&r) || nils.contains(&r),
                    "round {} uncovered", r
                );
            }
            // resume_from exceeds everything covered.
            for &r in repro.iter().chain(nils.iter()) {
                prop_assert!(r < plan.resume_from.0);
            }
            // Nil ranks stay below the next certified round's rank.
            for &(nil_round, nil_rank) in &plan.nils {
                if let Some(e) = plan.reproposals.iter().find(|e| e.block.round() > nil_round) {
                    prop_assert!(
                        nil_rank <= e.block.rank(),
                        "nil at {} rank {} exceeds next certified rank {}",
                        nil_round.0, nil_rank.0, e.block.rank().0
                    );
                }
            }
        }
    }
}
