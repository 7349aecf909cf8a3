//! Instance-level tests: normal case, rank rules, epochs, view changes,
//! and the Appendix-B leader behaviors.

use crate::instance::{PbftInstance, RankMode, RankStrategy};
use crate::msg::{PbftMsg, RankProof};
use crate::testkit::{test_batch, Cluster};
use ladon_types::{Rank, Round, View};
use std::sync::Arc;

#[test]
fn happy_path_single_round_commits_everywhere() {
    let mut c = Cluster::new(4, RankMode::Plain, 63);
    c.propose_and_run(0, test_batch(0, 10));
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 1);
    assert_eq!(blocks[0].round(), Round(1));
    // First block: rank = curRank(=0) + 1.
    assert_eq!(blocks[0].rank(), Rank(1));
    assert_eq!(blocks[0].batch.count, 10);
}

#[test]
fn ranks_increase_across_rounds() {
    let mut c = Cluster::new(4, RankMode::Plain, 63);
    for i in 0..5 {
        c.propose_and_run(0, test_batch(i * 10, 10));
    }
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 5);
    for w in blocks.windows(2) {
        assert!(
            w[1].rank() > w[0].rank(),
            "intra-instance ranks must strictly increase (Lemma 2)"
        );
    }
    // Single instance: ranks are 1, 2, 3, 4, 5.
    assert_eq!(blocks[4].rank(), Rank(5));
}

#[test]
fn vanilla_mode_commits_without_rank_machinery() {
    let mut c = Cluster::new(4, RankMode::None, u64::MAX);
    for i in 0..3 {
        assert!(c.nodes[0].can_propose());
        c.propose_and_run(0, test_batch(i * 10, 10));
    }
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 3);
    // Vanilla blocks carry round-number ranks.
    assert_eq!(blocks[2].rank(), Rank(3));
}

#[test]
fn opt_mode_commits_and_matches_plain_ranks() {
    let mut plain = Cluster::new(4, RankMode::Plain, 1000);
    let mut opt = Cluster::new(4, RankMode::Opt, 1000);
    for i in 0..4 {
        plain.propose_and_run(0, test_batch(i * 10, 10));
        opt.propose_and_run(0, test_batch(i * 10, 10));
    }
    let pb = plain.assert_agreement();
    let ob = opt.assert_agreement();
    assert_eq!(pb.len(), ob.len());
    for (p, o) in pb.iter().zip(ob.iter()) {
        assert_eq!(p.rank(), o.rank(), "opt must assign the same ranks");
    }
}

#[test]
fn leader_stops_at_epoch_max_and_resumes_after_advance() {
    // Epoch 0 covers ranks [0, 3]: rounds 1..=3 get ranks 1, 2, 3 and the
    // rank-3 proposal is the maxRank block, after which the leader stops.
    let mut c = Cluster::new(4, RankMode::Plain, 3);
    for i in 0..3 {
        c.propose_and_run(0, test_batch(i * 10, 5));
    }
    assert!(c.nodes[0].stopped_for_epoch());
    assert!(!c.nodes[0].can_propose());
    let blocks = c.assert_agreement();
    assert_eq!(blocks.last().unwrap().rank(), Rank(3));

    // Advance every replica to epoch 1 (ranks [4, 7]).
    for r in 0..4 {
        let acts = {
            let cur = &mut c.cur_ranks[r];
            c.nodes[r].advance_epoch(Rank(4), Rank(7), c.now, cur)
        };
        c.absorb(r, acts);
    }
    c.run_to_quiescence();
    assert!(c.nodes[0].can_propose());
    c.propose_and_run(0, test_batch(100, 5));
    let blocks = c.assert_agreement();
    // minRank(1) = maxRank(0) + 1 = 4.
    assert_eq!(blocks.last().unwrap().rank(), Rank(4));
}

#[test]
fn byzantine_rank_minimizer_cannot_go_below_committed_ranks() {
    // Appendix B case 3: the leader discards high ranks and uses the
    // lowest 2f+1. §4.4: the result is still >= the median honest rank,
    // so it never undercuts a committed block's rank.
    let mut c = Cluster::with_strategy(4, RankMode::Plain, 1000, |r| {
        if r == 0 {
            RankStrategy::MinimizeLowest
        } else {
            RankStrategy::Honest
        }
    });
    let mut last_rank = Rank(0);
    for i in 0..5 {
        c.propose_and_run(0, test_batch(i * 10, 5));
        let blocks = c.assert_agreement();
        let new_rank = blocks.last().unwrap().rank();
        assert!(
            new_rank > last_rank,
            "even a minimizing leader must exceed partially committed ranks"
        );
        last_rank = new_rank;
    }
}

#[test]
fn preprepare_with_wrong_digest_is_rejected() {
    let mut c = Cluster::new(4, RankMode::Plain, 63);
    c.now += ladon_types::TimeNs::from_millis(1);
    let actions = c.nodes[0].propose(test_batch(0, 10), c.now, &mut c.cur_ranks[0].clone());
    // Tamper with the batch inside the broadcast pre-prepare.
    for a in actions {
        if let crate::instance::Action::Broadcast(PbftMsg::PrePrepare(pp)) = a {
            let mut pp = Arc::unwrap_or_clone(pp);
            pp.batch.count += 1; // digest no longer matches
            let before = c.nodes[1].rejected;
            let acts = c.nodes[1].on_message(
                ladon_types::ReplicaId(0),
                PbftMsg::PrePrepare(Arc::new(pp)),
                c.now,
                &mut c.cur_ranks[1],
            );
            assert!(acts.is_empty());
            assert_eq!(c.nodes[1].rejected, before + 1);
        }
    }
}

#[test]
fn forged_rank_proof_is_rejected() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    // Round 2: capture the honest pre-prepare, then forge its rank proof
    // to claim an uncertified high rank.
    c.now += ladon_types::TimeNs::from_millis(1);
    let actions = c.nodes[0].propose(test_batch(10, 10), c.now, &mut c.cur_ranks[0]);
    for a in actions {
        if let crate::instance::Action::Broadcast(PbftMsg::PrePrepare(pp)) = a {
            let mut pp = Arc::unwrap_or_clone(pp);
            // Claim rank 100 with a certificate-free "genesis" cert.
            pp.rank = Rank(100);
            pp.rank_proof = RankProof::FirstRound(ladon_crypto::RankCert {
                rank: Rank(99),
                cert: None,
            });
            let before = c.nodes[1].rejected;
            let acts = c.nodes[1].on_message(
                ladon_types::ReplicaId(0),
                PbftMsg::PrePrepare(Arc::new(pp)),
                c.now,
                &mut c.cur_ranks[1],
            );
            assert!(acts.is_empty());
            assert!(c.nodes[1].rejected > before);
        }
    }
}

#[test]
fn view_change_replaces_crashed_leader() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    assert_eq!(c.assert_agreement().len(), 1);

    // Leader (replica 0) crashes; the round-2 timer fires on the others.
    c.crashed[0] = true;
    c.fire_round_timers(Round(2), View(0));

    // Replica 1 is the leader of view 1 and should have installed it.
    assert_eq!(c.nodes[1].view(), View(1));
    assert!(c.nodes[1].is_leader());
    assert_eq!(c.nodes[2].view(), View(1));
    assert_eq!(c.nodes[3].view(), View(1));

    // The new leader proposes and the cluster commits.
    c.propose_and_run(1, test_batch(100, 7));
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 2);
    assert_eq!(blocks[1].batch.count, 7);
    // Monotonicity survives the view change.
    assert!(blocks[1].rank() > blocks[0].rank());
}

#[test]
fn view_change_repropose_preserves_prepared_block() {
    // The leader gets the cluster to prepare a block but crashes before
    // enough commits spread; the new view must re-propose the same block.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.now += ladon_types::TimeNs::from_millis(1);
    let batch = test_batch(0, 9);
    let actions = c.nodes[0].propose(batch, c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);

    // Deliver only pre-prepares + prepares (drop all commit votes), so
    // everyone prepares but nobody commits.
    while let Some((to, from, msg)) = c.queue.pop_front() {
        let drop = matches!(
            &msg,
            PbftMsg::Vote(v) if v.phase == crate::msg::Phase::Commit
        );
        if drop {
            continue;
        }
        let who = to.as_usize();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    assert!(c.committed.iter().all(|l| l.is_empty()));

    // Leader crashes; view change runs.
    c.crashed[0] = true;
    c.fire_round_timers(Round(1), View(0));
    let blocks = c.assert_agreement();
    assert_eq!(
        blocks.len(),
        1,
        "prepared block must survive the view change"
    );
    assert_eq!(blocks[0].batch.count, 9);
    assert_eq!(blocks[0].round(), Round(1));
}

#[test]
fn stale_round_timer_is_ignored() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    // Round 1 already committed: its timer must not trigger a view change.
    c.fire_round_timers(Round(1), View(0));
    assert_eq!(c.nodes[1].view(), View(0));
    // A timer from a stale view is also ignored.
    let acts = c.nodes[1].on_round_timer(Round(2), View(5));
    assert!(acts.is_empty());
}

#[test]
fn rank_reports_accumulate_only_at_leader() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    // After round 1 commits, the leader holds 2f+1 reports for round 2.
    assert!(c.nodes[0].can_propose());
    // A backup does not accumulate reports and cannot propose.
    assert!(!c.nodes[1].can_propose());
}

#[test]
fn commit_latency_two_network_steps_after_prepare() {
    // Sanity: the three-phase structure emits pre-prepare, prepare, commit
    // in order, visible through message kinds in the queue.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.now += ladon_types::TimeNs::from_millis(1);
    let actions = c.nodes[0].propose(test_batch(0, 1), c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);
    let kinds: Vec<&'static str> = c
        .queue
        .iter()
        .map(|(_, _, m)| match m {
            PbftMsg::PrePrepare(_) => "pp",
            PbftMsg::Vote(v) => {
                if v.phase == crate::msg::Phase::Prepare {
                    "prep"
                } else {
                    "com"
                }
            }
            _ => "other",
        })
        .collect();
    // The leader broadcasts the pre-prepare and its own prepare only.
    assert!(kinds.contains(&"pp"));
    assert!(kinds.contains(&"prep"));
    assert!(!kinds.contains(&"com"));
}

#[test]
fn larger_cluster_with_f_silent_replicas_still_commits() {
    // n = 7, f = 2: two replicas never participate (crashed from the
    // start); the remaining 5 = 2f+1 suffice.
    let mut c = Cluster::new(7, RankMode::Plain, 1000);
    c.crashed[5] = true;
    c.crashed[6] = true;
    for i in 0..3 {
        c.propose_and_run(0, test_batch(i * 10, 5));
    }
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 3);
}

#[test]
fn epoch_advance_rejects_backward_ranges() {
    let mut c = Cluster::new(4, RankMode::Plain, 63);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cur = &mut c.cur_ranks[0];
        c.nodes[0].advance_epoch(Rank(10), Rank(20), c.now, cur)
    }));
    assert!(result.is_err(), "min <= current max must panic");
}

// ---------------------------------------------------------------------
// View-plan derivation and gap filling
// ---------------------------------------------------------------------

mod view_plan {
    use crate::instance::ViewPlan;
    use crate::msg::{PreparedEntry, ViewChange};
    use crate::testkit::test_batch;
    use crate::RankMode;
    use ladon_crypto::qc::CertDomain;
    use ladon_crypto::{AggregateSignature, KeyRegistry, QuorumCert, Signature};
    use ladon_types::{Digest, InstanceId, Rank, ReplicaId, Round, View};

    fn dummy_sig() -> Signature {
        let reg = KeyRegistry::generate(4, 1, 9);
        Signature::sign(&reg.signer(ReplicaId(0)), b"t", b"t")
    }

    fn entry(round: u64, rank: u64, qc_view: u64) -> PreparedEntry {
        PreparedEntry {
            round: Round(round),
            digest: Digest([round as u8; 32]),
            rank: Rank(rank),
            batch: test_batch(round * 100, 1),
            proposed_at: ladon_types::TimeNs::ZERO,
            qc: std::sync::Arc::new(QuorumCert {
                view: View(qc_view),
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

    fn vc(last_committed: u64, prepared: Vec<PreparedEntry>) -> ViewChange {
        ViewChange {
            new_view: View(1),
            instance: InstanceId(0),
            last_committed: Round(last_committed),
            prepared,
            sig: dummy_sig(),
        }
    }

    #[test]
    fn no_certificates_resumes_after_max_committed() {
        let plan = ViewPlan::from_vcs(
            &[vc(3, vec![]), vc(1, vec![]), vc(2, vec![])],
            RankMode::Plain,
            Rank(0),
        );
        assert_eq!(plan.max_lc, Round(3));
        assert_eq!(plan.resume_from, Round(4));
        assert!(plan.reproposals.is_empty());
        assert!(plan.nils.is_empty());
    }

    #[test]
    fn gap_between_committed_and_certified_gets_nil() {
        // Committed through 1; round 3 certified; round 2 is a gap.
        let plan = ViewPlan::from_vcs(
            &[vc(1, vec![entry(3, 7, 0)]), vc(1, vec![])],
            RankMode::Plain,
            Rank(0),
        );
        assert_eq!(plan.resume_from, Round(4));
        assert_eq!(plan.reproposals.len(), 1);
        // The nil reuses the rank anchor below it (epoch_min here: no
        // certified round at or below max_lc).
        assert_eq!(plan.nils, vec![(Round(2), Rank(0))]);
    }

    #[test]
    fn nil_rank_anchors_to_nearest_certified_round_below() {
        // Certified rounds 2 (rank 5) and 5 (rank 9); gaps at 3 and 4
        // anchor to round 2's rank.
        let plan = ViewPlan::from_vcs(
            &[vc(1, vec![entry(2, 5, 0), entry(5, 9, 0)])],
            RankMode::Plain,
            Rank(0),
        );
        assert_eq!(plan.resume_from, Round(6));
        assert_eq!(plan.nils, vec![(Round(3), Rank(5)), (Round(4), Rank(5))]);
    }

    #[test]
    fn vanilla_nils_keep_rank_equals_round() {
        let plan = ViewPlan::from_vcs(&[vc(1, vec![entry(4, 4, 0)])], RankMode::None, Rank(0));
        assert_eq!(plan.nils, vec![(Round(2), Rank(2)), (Round(3), Rank(3))]);
    }

    #[test]
    fn newest_view_qc_wins_per_round() {
        let old = entry(2, 5, 0);
        let mut new = entry(2, 6, 1);
        new.digest = Digest([0xcc; 32]);
        std::sync::Arc::make_mut(&mut new.qc).digest = new.digest;
        let plan = ViewPlan::from_vcs(
            &[vc(1, vec![old]), vc(1, vec![new.clone()])],
            RankMode::Plain,
            Rank(0),
        );
        assert_eq!(plan.reproposals.len(), 1);
        assert_eq!(plan.reproposals[0].digest, new.digest);
        assert_eq!(plan.reproposals[0].rank, Rank(6));
    }

    #[test]
    fn certified_rounds_below_max_lc_still_reproposed() {
        // One member committed through 3 and certifies rounds 2 and 3;
        // backups that missed those commits recover via re-proposal, and
        // they are never nil-filled.
        let plan = ViewPlan::from_vcs(
            &[vc(3, vec![entry(2, 4, 0), entry(3, 5, 0)]), vc(1, vec![])],
            RankMode::Plain,
            Rank(0),
        );
        assert_eq!(plan.resume_from, Round(4));
        assert_eq!(plan.reproposals.len(), 2);
        assert!(plan.nils.is_empty());
    }
}

#[test]
fn view_change_nil_fills_unprepared_gap() {
    // The ISS stall scenario in miniature: in vanilla mode a leader
    // pipelines rounds without waiting for commits. Round 2's messages are
    // lost entirely while round 3 commits, then the leader crashes. The
    // new view must fill round 2 with a nil block on every replica —
    // otherwise the pre-determined global order waits on the hole forever.
    let mut c = Cluster::new(4, RankMode::None, u64::MAX);
    c.propose_and_run(0, test_batch(0, 5));

    // Round 2: drop every message (leader keeps only its own state).
    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[0].propose(test_batch(100, 5), c.now, &mut c.cur_ranks[0]);
    drop(actions); // never delivered
    c.queue.clear();

    // Round 3 commits normally.
    c.propose_and_run(0, test_batch(200, 5));
    assert_eq!(c.committed[1].len(), 2, "rounds 1 and 3");

    // Leader crashes; the others view-change on the round-2 timer.
    c.crashed[0] = true;
    c.fire_round_timers(Round(2), View(0));

    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 3, "rounds 1, 2 (nil), 3");
    assert_eq!(blocks[1].round(), Round(2));
    assert!(blocks[1].is_nil(), "gap round must be a nil block");
    assert_eq!(blocks[0].batch.count, 5);
    assert_eq!(blocks[2].batch.count, 5);
}

#[test]
fn new_leader_fresh_proposal_accepted_after_view_change() {
    // A round proposed but unprepared in the old view must not block the
    // new leader's fresh proposal for the same round (the straggler
    // round-skip bug): backups reset un-certified round state on adoption.
    let mut c = Cluster::new(4, RankMode::None, u64::MAX);
    c.propose_and_run(0, test_batch(0, 5));

    // Leader proposes round 2; only the pre-prepare to replica 1 arrives
    // (no prepares circulate, so nothing certifies).
    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[0].propose(test_batch(100, 5), c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);
    while let Some((to, from, msg)) = c.queue.pop_front() {
        let deliver = matches!(&msg, PbftMsg::PrePrepare(_)) && to == ladon_types::ReplicaId(1);
        if deliver {
            let actions = c.nodes[1].on_message(from, msg, c.now, &mut c.cur_ranks[1]);
            // Swallow replica 1's prepare broadcast.
            drop(actions);
        }
    }

    // Leader crashes before anything commits; view change runs.
    c.crashed[0] = true;
    c.fire_round_timers(Round(2), View(0));
    assert!(c.nodes[1].is_leader());

    // Replica 1 (which saw the stale round-2 proposal) now leads and
    // proposes a *different* round-2 batch; everyone must accept it.
    c.propose_and_run(1, test_batch(500, 9));
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 2);
    assert_eq!(blocks[1].round(), Round(2));
    assert_eq!(blocks[1].batch.count, 9, "fresh proposal wins the round");
}

// ---------------------------------------------------------------------
// State transfer (§5.2.1): committed_entries_from / install_committed
// ---------------------------------------------------------------------

#[test]
fn committed_entries_roundtrip_into_lagging_instance() {
    // Cluster commits 4 rounds; replica 3 is "partitioned" (we use a
    // fresh 5th instance state constructed with replica 3's identity) and
    // installs the entries served by replica 0.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    for i in 0..4 {
        c.propose_and_run(0, test_batch(i * 10, 5));
    }
    let entries = c.nodes[0].committed_entries_from(Round(0), 16);
    assert_eq!(entries.len(), 4);
    assert_eq!(entries[0].0.round(), Round(1));
    assert_eq!(entries[3].0.round(), Round(4));

    // A fresh instance (same registry/instance id) installs them.
    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));
    let mut committed = Vec::new();
    for (block, qc) in entries {
        let actions = fresh.install_committed(block, qc, ladon_types::TimeNs::ZERO, &mut cur);
        for a in actions {
            if let crate::Action::Committed(b) = a {
                committed.push(b);
            }
        }
    }
    assert_eq!(committed.len(), 4);
    assert_eq!(fresh.committed_upto(), Round(4));
    // curRank follows the fetched certificates (Algorithm 2 line 25).
    assert_eq!(cur.rank, Rank(4));
    assert!(cur.cert.is_some());
}

#[test]
fn install_committed_rejects_tampered_entries() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let entries = c.nodes[0].committed_entries_from(Round(0), 16);
    let (block, qc) = entries[0].clone();

    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));

    // Forged rank: QC no longer matches the header.
    let mut forged = block.clone();
    forged.header.rank = Rank(99);
    let before = fresh.rejected;
    assert!(fresh
        .install_committed(forged, qc.clone(), ladon_types::TimeNs::ZERO, &mut cur)
        .is_empty());
    assert!(fresh.rejected > before);

    // Batch swapped: digest check fails.
    let mut swapped = block.clone();
    swapped.batch = test_batch(999, 7);
    assert!(fresh
        .install_committed(swapped, qc.clone(), ladon_types::TimeNs::ZERO, &mut cur)
        .is_empty());

    // The genuine entry still installs afterwards.
    let actions = fresh.install_committed(block, qc, ladon_types::TimeNs::ZERO, &mut cur);
    assert_eq!(actions.len(), 1);
    assert_eq!(fresh.committed_upto(), Round(1));
}

#[test]
fn install_committed_is_idempotent() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let (block, qc) = c.nodes[0].committed_entries_from(Round(0), 1)[0].clone();
    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));
    assert_eq!(
        fresh
            .install_committed(
                block.clone(),
                qc.clone(),
                ladon_types::TimeNs::ZERO,
                &mut cur
            )
            .len(),
        1
    );
    assert!(fresh
        .install_committed(block, qc, ladon_types::TimeNs::ZERO, &mut cur)
        .is_empty());
    assert_eq!(fresh.committed_upto(), Round(1));
}

#[test]
fn repeated_certificates_verify_once_via_cache() {
    // The same QuorumCert arriving twice (e.g. a sync entry re-served
    // across probes) must pay the aggregate verification once: the
    // second arrival is a verified-cert cache hit, with zero signature
    // work and a `qc_verify_hits` count to show for it.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let (block, qc) = c.nodes[0].committed_entries_from(Round(0), 1)[0].clone();
    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));
    let before = ladon_crypto::CryptoCounters::snapshot();
    fresh.install_committed(
        block.clone(),
        qc.clone(),
        ladon_types::TimeNs::ZERO,
        &mut cur,
    );
    let mid = ladon_crypto::CryptoCounters::snapshot();
    assert_eq!(
        mid.qc_verify_hits, before.qc_verify_hits,
        "the first arrival verifies in full"
    );
    fresh.install_committed(block, qc, ladon_types::TimeNs::ZERO, &mut cur);
    let after = ladon_crypto::CryptoCounters::snapshot();
    assert_eq!(
        after.qc_verify_hits,
        mid.qc_verify_hits + 1,
        "an identical cert must hit the cache"
    );
    assert_eq!(
        after.verifies, mid.verifies,
        "no signature verification on the cached path"
    );
    assert_eq!(after.agg_verifies, mid.agg_verifies);
}

#[test]
fn shared_cur_rank_certificate_in_rank_reports_verifies_once() {
    // curRank is node-level, so the backups of one instance commonly
    // report the very same certificate (adopted from another instance or
    // from the leader's proposal). The leader pays for it once per round.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    c.propose_and_run(0, test_batch(10, 5));
    let shared = c.cur_ranks[0].clone();
    assert!(shared.cert.is_some());
    c.cur_ranks = vec![shared; 4];

    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[0].propose(test_batch(20, 5), c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);
    let (mut reports, mut agg_verifies, mut hits) = (0, 0, 0);
    while let Some((to, from, msg)) = c.queue.pop_front() {
        let who = to.as_usize();
        let is_report = who == 0 && matches!(msg, PbftMsg::Rank(_));
        let before = ladon_crypto::CryptoCounters::snapshot();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        if is_report {
            let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
            reports += 1;
            agg_verifies += cost.agg_verifies;
            hits += cost.qc_verify_hits;
        }
        c.absorb(who, actions);
    }
    assert_eq!(reports, 3, "one report per backup");
    assert_eq!(c.nodes[0].rejected, 0);
    assert!(agg_verifies <= 1, "{agg_verifies} aggregate verifications");
    assert_eq!(agg_verifies + hits, 3, "every report was checked");
    assert!(c.nodes[0].can_propose(), "the reports still count");
}

#[test]
fn install_committed_abandons_lone_view_change() {
    // Replica 1 times out on round 2 alone (no one else joins), wedging
    // itself in an incompletable view change; installing the committed
    // round resumes the current view.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));

    // Round 2 commits at everyone EXCEPT replica 1 (messages to 1 eaten).
    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[0].propose(test_batch(10, 5), c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);
    while let Some((to, from, msg)) = c.queue.pop_front() {
        if to == ladon_types::ReplicaId(1) {
            continue;
        }
        let who = to.as_usize();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    assert_eq!(c.committed[0].len(), 2);
    assert_eq!(c.committed[1].len(), 1, "replica 1 missed round 2");

    // Replica 1's round-2 timer fires; its lone view change goes nowhere.
    let acts = c.nodes[1].on_round_timer(Round(2), View(0));
    c.absorb(1, acts);
    c.queue.clear(); // its view-change message is never answered
    assert!(c.nodes[1].in_view_change());

    // State transfer repairs it and the view change is abandoned.
    let (block, qc) = c.nodes[0].committed_entries_from(Round(1), 1)[0].clone();
    let actions = c.nodes[1].install_committed(block, qc, c.now, &mut c.cur_ranks[1]);
    assert!(actions
        .iter()
        .any(|a| matches!(a, crate::Action::Committed(_))));
    assert!(!c.nodes[1].in_view_change());
    assert_eq!(c.nodes[1].committed_upto(), Round(2));
}

// ---------------------------------------------------------------------
// State is per round in flight: tallies end at decision, collected
// rounds stay collected, a vote nothing can read costs nothing
// ---------------------------------------------------------------------

/// Has the leader propose and returns the pre-prepare it broadcast, with
/// the proposal's effects queued but nothing delivered yet.
fn propose_capturing(c: &mut Cluster, first_tx: u64) -> Arc<crate::msg::PrePrepare> {
    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[0].propose(test_batch(first_tx, 5), c.now, &mut c.cur_ranks[0]);
    let pp = actions
        .iter()
        .find_map(|a| match a {
            crate::Action::Broadcast(PbftMsg::PrePrepare(pp)) => Some(pp.clone()),
            _ => None,
        })
        .expect("a proposal broadcasts its pre-prepare");
    c.absorb(0, actions);
    pp
}

/// Three rounds committed by replicas 0, 2 and 3 while replica 1 hears
/// nothing of rounds 2 and 3; replica 1 then jumps its frontier to round
/// 3 (a snapshot install), which collects its state for rounds 1..=3.
/// Returns the cluster, round 2's genuine pre-prepare and a genuine
/// prepare vote for round 2 — both from replica 0.
fn replica_one_fast_forwarded() -> (Cluster, Arc<crate::msg::PrePrepare>, crate::msg::PhaseVote) {
    let one = ladon_types::ReplicaId(1);
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let mut replay = None;
    for round in 2..=3u64 {
        let pp = propose_capturing(&mut c, round * 10);
        while let Some((to, from, msg)) = c.queue.pop_front() {
            if to == one {
                if let (2, 0, PbftMsg::Vote(v)) = (round, from.0, &msg) {
                    if v.phase == crate::msg::Phase::Prepare {
                        replay = Some((pp.clone(), *v));
                    }
                }
                continue;
            }
            let who = to.as_usize();
            let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            c.absorb(who, actions);
        }
    }
    assert_eq!(c.committed[0].len(), 3);
    assert_eq!(c.nodes[1].committed_upto(), Round(1));
    c.nodes[1].fast_forward(Round(3));
    assert_eq!(c.nodes[1].committed_upto(), Round(3));
    assert_eq!(c.nodes[1].rounds_held(), 0);
    let (pp, vote) = replay.expect("replica 0 sent replica 1 its round-2 prepare");
    (c, pp, vote)
}

#[test]
fn replayed_preprepare_cannot_reopen_a_collected_round() {
    // Every check but one passes on the replayed message: it is the
    // genuine round-2 proposal, from the view's leader, for a round whose
    // state is gone. It used to re-create the round and draw a prepare
    // broadcast for a block behind the commit frontier.
    let (mut c, pp, _) = replica_one_fast_forwarded();
    let before = c.nodes[1].rejected;
    let actions = c.nodes[1].on_message(
        ladon_types::ReplicaId(0),
        PbftMsg::PrePrepare(pp),
        c.now,
        &mut c.cur_ranks[1],
    );
    assert!(actions.is_empty(), "{actions:?}");
    assert_eq!(c.nodes[1].rejected, before + 1);
    assert_eq!(c.nodes[1].rounds_held(), 0);
}

#[test]
fn late_vote_cannot_resurrect_a_collected_round() {
    let (mut c, _, vote) = replica_one_fast_forwarded();
    let before = ladon_crypto::CryptoCounters::snapshot();
    let actions = c.nodes[1].on_message(
        ladon_types::ReplicaId(0),
        PbftMsg::Vote(vote),
        c.now,
        &mut c.cur_ranks[1],
    );
    assert!(actions.is_empty(), "{actions:?}");
    assert_eq!(
        c.nodes[1].rounds_held(),
        0,
        "no empty round state is left behind"
    );
    assert_eq!(c.nodes[1].live_vote_slots(), 0);
    let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
    assert_eq!(cost.verifies, 0, "nothing can read the vote: not checked");
}

#[test]
fn vote_slots_track_rounds_in_flight_not_rounds_run() {
    // The window: a replica holds vote slots for the rounds whose phases
    // are still open — here at most one round, two phases, n slots each —
    // and none once the cluster is quiet, whether 50 rounds ran or 200.
    let n = 16;
    let mut c = Cluster::new(n, RankMode::Plain, u64::MAX / 2);
    let (mut peak, mut at_50) = (0, None);
    for round in 1..=200u64 {
        propose_capturing(&mut c, round * 10);
        while let Some((to, from, msg)) = c.queue.pop_front() {
            let who = to.as_usize();
            let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            c.absorb(who, actions);
            if who == 5 {
                peak = peak.max(c.nodes[5].live_vote_slots());
            }
        }
        if round == 50 {
            at_50 = Some(
                c.nodes
                    .iter()
                    .map(PbftInstance::live_vote_slots)
                    .sum::<usize>(),
            );
        }
    }
    let at_200: usize = c.nodes.iter().map(PbftInstance::live_vote_slots).sum();
    assert_eq!(c.committed[5].len(), 200);
    assert_eq!(at_50, Some(at_200));
    assert_eq!(at_200, 0, "every phase decided, every tally freed");
    assert!(peak > 0 && peak <= 2 * n * 2, "peak {peak}");
    // The committed log itself is kept (state transfer serves from it).
    assert_eq!(c.nodes[5].rounds_held(), 200);
}

#[test]
fn decided_phase_vote_is_free_and_a_forged_live_vote_is_refused() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    let one = ladon_types::ReplicaId(1);

    // Round 1 runs to the end, keeping the votes replica 1 was sent.
    propose_capturing(&mut c, 0);
    let mut late = Vec::new();
    while let Some((to, from, msg)) = c.queue.pop_front() {
        if let (true, PbftMsg::Vote(v)) = (to == one, &msg) {
            late.push((from, *v));
        }
        let who = to.as_usize();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    assert_eq!(c.committed[1].len(), 1);
    assert_eq!(late.len(), 6, "a prepare and a commit from each peer");

    // Replayed now, both phases decided: no signature work, no effect —
    // not even for a vote whose tag is garbage.
    let rejected = c.nodes[1].rejected;
    let before = ladon_crypto::CryptoCounters::snapshot();
    for (from, mut v) in late {
        for garble in [0, 0xff] {
            v.sig.tag[0] ^= garble;
            let actions = c.nodes[1].on_message(from, PbftMsg::Vote(v), c.now, &mut c.cur_ranks[1]);
            assert!(actions.is_empty());
        }
    }
    let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
    assert_eq!((cost.verifies, cost.agg_verifies, cost.hashes), (0, 0, 0));
    assert_eq!(c.nodes[1].rejected, rejected);
    assert_eq!(c.nodes[1].live_vote_slots(), 0);

    // Round 2: replica 1 adopts the proposal (its own prepare is vote 1
    // of 3) and gets replica 0's genuine prepare (vote 2). A forged
    // prepare "from" replica 2 must not be the third.
    propose_capturing(&mut c, 10);
    let mut to_one = Vec::new();
    c.queue.retain(|(to, from, msg)| {
        if *to == one {
            to_one.push((*from, msg.clone()));
        }
        *to != one
    });
    for (from, msg) in to_one {
        let actions = c.nodes[1].on_message(from, msg, c.now, &mut c.cur_ranks[1]);
        c.absorb(1, actions);
    }
    let own_prepare = c
        .queue
        .iter()
        .find_map(|(_, from, msg)| match msg {
            PbftMsg::Vote(v) if *from == one => Some(*v),
            _ => None,
        })
        .expect("replica 1 voted");
    let mut forged = own_prepare;
    forged.sig = ladon_crypto::QuorumCert::sign_share(
        &c.registry.signer(one), // not replica 2's key
        forged.view,
        forged.round,
        &forged.digest,
        forged.instance,
        forged.rank,
    );
    forged.sig.pk.replica = ladon_types::ReplicaId(2);
    let before = ladon_crypto::CryptoCounters::snapshot();
    let actions = c.nodes[1].on_message(
        ladon_types::ReplicaId(2),
        PbftMsg::Vote(forged),
        c.now,
        &mut c.cur_ranks[1],
    );
    let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
    assert_eq!(cost.verifies, 1, "a live vote is checked");
    assert_eq!(c.nodes[1].rejected, rejected + 1);
    assert!(
        actions.is_empty(),
        "two votes are not a quorum: {actions:?}"
    );

    // The genuine third vote is what moves the round on.
    c.run_to_quiescence();
    assert_eq!(c.committed[1].len(), 2);
}
