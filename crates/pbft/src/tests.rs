//! Instance-level tests: normal case, rank rules, epochs, view changes,
//! and the Appendix-B leader behaviors.

use crate::instance::{PbftInstance, RankMode, RankStrategy};
use crate::msg::{
    CertifiedBlock, NewView, PbftMsg, Phase, PrePrepare, RankBody, RankProof, RankReport,
    SignedRank, ViewChange, DOMAIN_PREPREPARE, DOMAIN_RANK,
};
use crate::testkit::{test_batch, Cluster};
use ladon_crypto::{QuorumCert, RankCert, Signature};
use ladon_types::{
    Batch, Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs, View,
    MAX_PENDING_MSGS,
};
use std::sync::Arc;

/// Instance 0's block of `batch` at `round`, ranked `rank`.
fn block_at(round: u64, rank: u64, batch: Batch, proposed_at: TimeNs) -> Block {
    let header = BlockHeader {
        index: InstanceId(0),
        round: Round(round),
        rank: Rank(rank),
        payload_digest: ladon_crypto::digest_batch(&batch),
    };
    Block {
        header,
        batch,
        proposed_at,
    }
}

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
fn nothing_follows_the_max_rank_block_in_a_new_view() {
    // Epoch 0 ends at rank 3, proposed by view 0's leader, which then
    // crashes. View 1's leader re-adopts the rank-3 block from the
    // view-change quorum: it cannot propose until the epoch advances, and
    // a backup refuses a pre-prepare that follows that block.
    let mut c = Cluster::new(4, RankMode::Plain, 3);
    for i in 0..3 {
        c.propose_and_run(0, test_batch(i * 10, 5));
    }
    c.crashed[0] = true;
    c.fire_timeouts();
    assert!(c.nodes[1].is_leader());
    assert!(!c.nodes[1].can_propose());

    // What view 1's leader would propose at round 4: its first-round
    // claim, curRank 3, clamped to maxRank.
    let cur = c.cur_ranks[1].clone();
    assert_eq!(cur.rank, Rank(3));
    let leader = c.registry.signer(ReplicaId(1));
    let mut pp = PrePrepare {
        view: View(1),
        block: block_at(4, 3, test_batch(100, 5), c.now),
        rank_proof: RankProof::FirstRound(cur),
        sig: Signature::sign(&leader, DOMAIN_PREPREPARE, b""),
    };
    pp.sig = Signature::sign(&leader, DOMAIN_PREPREPARE, &pp.signing_bytes());
    let rejected = c.nodes[2].rejected;
    let actions = c.nodes[2].on_message(
        ReplicaId(1),
        PbftMsg::PrePrepare(Arc::new(pp)),
        c.now,
        &mut c.cur_ranks[2],
    );
    assert!(actions.is_empty(), "{actions:?}");
    assert_eq!(c.nodes[2].rejected, rejected + 1);

    // The next epoch resumes the instance under the new leader.
    for r in 1..4 {
        let acts = {
            let cur = &mut c.cur_ranks[r];
            c.nodes[r].advance_epoch(Rank(4), Rank(7), c.now, cur)
        };
        c.absorb(r, acts);
    }
    c.run_to_quiescence();
    c.propose_and_run(1, test_batch(200, 5));
    let ranks: Vec<Rank> = c.assert_agreement().iter().map(|b| b.rank()).collect();
    assert_eq!(ranks, [Rank(1), Rank(2), Rank(3), Rank(4)]);
}

#[test]
fn a_new_views_first_proposal_ranks_above_what_it_reproposes() {
    // Round 1 prepares at replicas 0, 2 and 3 and commits everywhere, but
    // replica 1, view 1's leader, gets none of its prepares and so never
    // forms its certificate. The view change hands it that certificate
    // with the re-proposal; its first proposal, which claims only its
    // curRank, must rank above round 1.
    let one = ReplicaId(1);
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    propose_capturing(&mut c, 0);
    while let Some((to, from, msg)) = c.queue.pop_front() {
        if to == one && matches!(&msg, PbftMsg::Vote(v) if v.phase == Phase::Prepare) {
            continue;
        }
        let who = to.as_usize();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    assert_eq!(c.committed[1].len(), 1);
    assert_eq!(
        c.cur_ranks[1].rank,
        Rank(0),
        "replica 1 holds no certificate"
    );

    c.crashed[0] = true;
    c.fire_timeouts();
    c.propose_and_run(1, test_batch(100, 5));
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 2);
    assert!(blocks[1].rank() > blocks[0].rank(), "{blocks:?}");
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
            pp.block.batch.count += 1; // digest no longer matches
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
            pp.block.header.rank = Rank(100);
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
fn far_future_opt_preprepares_cannot_grow_the_epoch_buffer() {
    // Under Opt ranks a pre-prepare whose previous round is unseen is
    // held for retry before its rank aggregate is checked, so nothing
    // but the leader's own signature gates it: a Byzantine leader can
    // make a backup hold as many far-future rounds as it cares to sign.
    let mut c = Cluster::new(4, RankMode::Opt, 1_000_000);
    c.propose_and_run(0, test_batch(0, 10));
    let honest = propose_capturing(&mut c, 10);
    let leader = c.registry.signer(ReplicaId(0));
    let rejected = c.nodes[1].rejected;
    let flood = 10_000u64;
    for round in 3..3 + flood {
        let mut pp = (*honest).clone();
        pp.block.header.round = Round(round);
        pp.sig = Signature::sign(&leader, DOMAIN_PREPREPARE, &pp.signing_bytes());
        let actions = c.nodes[1].on_message(
            ReplicaId(0),
            PbftMsg::PrePrepare(Arc::new(pp)),
            c.now,
            &mut c.cur_ranks[1],
        );
        assert!(actions.is_empty());
    }
    assert_eq!(c.nodes[1].epoch_backlog(), MAX_PENDING_MSGS);
    assert_eq!(
        c.nodes[1].rejected - rejected,
        flood - MAX_PENDING_MSGS as u64,
        "every pre-prepare past the bound is counted, not held"
    );
}

#[test]
fn view_change_replaces_crashed_leader() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    assert_eq!(c.assert_agreement().len(), 1);

    // Leader (replica 0) crashes; round 2's deadline expires on the others.
    c.crashed[0] = true;
    c.fire_timeouts();

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

    // Leader crashes before any commit; its backups wait on round 1
    // from now (as after the node's first commit elsewhere), and the
    // view change runs.
    c.crashed[0] = true;
    for r in 1..4 {
        c.nodes[r].wait_from(c.now);
    }
    c.fire_timeouts();
    let blocks = c.assert_agreement();
    assert_eq!(
        blocks.len(),
        1,
        "prepared block must survive the view change"
    );
    assert_eq!(blocks[0].batch.count, 9);
    assert_eq!(blocks[0].round(), Round(1));
}

/// Replica 3 alone forms QC(A) for round 1 in view 0 and misses view 1,
/// where round 1 commits block B on the other three. Adopting view 2,
/// whose plan re-proposes B, it must take B's QC with B: holding B with
/// QC(A), its view change for view 3 binds no certified round, and every
/// backup refuses the new view it then leads.
#[test]
fn a_reproposed_round_adopts_the_plans_certificate_with_its_block() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.now += TimeNs::from_millis(1);
    let actions = c.nodes[0].propose(test_batch(0, 5), c.now, &mut c.cur_ranks[0]);
    c.absorb(0, actions);
    // Pre-prepares reach everyone, prepares only replica 3; nothing else.
    while let Some((to, from, msg)) = c.queue.pop_front() {
        let prepare = matches!(&msg, PbftMsg::Vote(v) if v.phase == Phase::Prepare);
        if matches!(msg, PbftMsg::PrePrepare(_)) || (prepare && to == ReplicaId(3)) {
            let who = to.as_usize();
            let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            c.absorb(who, actions);
        }
    }
    assert!(c.committed.iter().all(Vec::is_empty));

    // View 1 without replica 3: B commits at round 1.
    c.crashed[3] = true;
    for r in 0..3 {
        c.nodes[r].wait_from(c.now);
    }
    c.fire_timeouts();
    c.propose_and_run(1, test_batch(100, 7));
    assert!((0..3).all(|r| c.committed[r].len() == 1 && c.nodes[r].view() == View(1)));

    // View 2: replica 3 hears only its new view, which re-proposes B.
    c.crashed[3] = false;
    for r in 0..3 {
        let actions = c.nodes[r].on_timeout(c.now, &mut c.cur_ranks[r]);
        c.absorb(r, actions);
    }
    c.run_to_quiescence();
    assert!(c.nodes.iter().all(|n| n.view() == View(2)));

    // View 3, led by replica 3: everyone installs it.
    c.fire_timeouts();
    let views: Vec<View> = c.nodes.iter().map(PbftInstance::view).collect();
    assert_eq!(views, [View(3); 4]);
}

/// Two rounds commit under replica 0, which then crashes; replicas 2 and
/// 3 time out on round 3 and replica 1's own view change completes the
/// quorum. Returns the cluster (the new view reached no backup yet) and
/// the new-view message replica 1 broadcast.
fn new_view_completed_by_the_new_leader() -> (Cluster, Arc<crate::msg::NewView>) {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    for i in 0..2 {
        c.propose_and_run(0, test_batch(i * 10, 5));
    }
    c.crashed[0] = true;
    for who in [2, 3] {
        let actions = c.nodes[who].on_timeout(c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    c.run_to_quiescence();
    let actions = c.nodes[1].on_timeout(c.now, &mut c.cur_ranks[1]);
    let nv = actions
        .iter()
        .find_map(|a| match a {
            crate::Action::Broadcast(PbftMsg::NewView(nv)) => Some(nv.clone()),
            _ => None,
        })
        .expect("the leader's own view change completes the quorum");
    (c, nv)
}

/// A signed view change that reports the last representable round as
/// committed leaves no round for the new view to resume from. The new
/// leader refuses it at the door, and a backup refuses a new view that
/// embeds it: neither installs anything.
#[test]
fn a_view_change_committed_through_the_last_round_is_refused() {
    let mut c = Cluster::new(4, RankMode::Plain, 63);
    let vc_by = |c: &Cluster, r: u32| {
        let signer = c.registry.signer(ReplicaId(r));
        Arc::new(ViewChange::sign(
            &signer,
            View(1),
            InstanceId(0),
            Round(u64::MAX),
            Vec::new(),
        ))
    };
    // Replica 1 leads view 1: a quorum of such view changes reaches it.
    let rejected = c.nodes[1].rejected;
    for r in [0, 2, 3] {
        let msg = PbftMsg::ViewChange(vc_by(&c, r));
        let actions = c.nodes[1].on_message(ReplicaId(r), msg, c.now, &mut c.cur_ranks[1]);
        assert!(actions.is_empty(), "{actions:?}");
    }
    assert_eq!(c.nodes[1].rejected, rejected + 3);
    let vcs = [0, 2, 3].map(|r| vc_by(&c, r)).to_vec();
    let leader = c.registry.signer(ReplicaId(1));
    let nv = NewView::sign(&leader, View(1), InstanceId(0), vcs);
    let rejected = c.nodes[2].rejected;
    let msg = PbftMsg::NewView(Arc::new(nv));
    let actions = c.nodes[2].on_message(ReplicaId(1), msg, c.now, &mut c.cur_ranks[2]);
    assert_eq!(c.nodes[2].rejected, rejected + 1);
    assert!(actions.is_empty(), "{actions:?}");
    assert_eq!(c.nodes[2].view(), View(0));
}

/// A member that signs view changes for ever-higher views this replica
/// leads (each one verifies: an empty prepared set costs one check)
/// leaves one entry held, its highest; a quorum naming exactly that view
/// still installs it.
#[test]
fn a_member_signing_ever_higher_view_changes_holds_one_entry() {
    let mut c = Cluster::new(4, RankMode::Plain, 63);
    // Replica 1 leads views 1, 5, 9, … of instance 0.
    let vc_by = |c: &Cluster, r: u32, view: u64| {
        let signer = c.registry.signer(ReplicaId(r));
        let vc = ViewChange::sign(&signer, View(view), InstanceId(0), Round(0), Vec::new());
        PbftMsg::ViewChange(Arc::new(vc))
    };
    let rejected = c.nodes[1].rejected;
    let top = 1 + 4 * 9_999;
    for view in (1..=top).step_by(4) {
        let msg = vc_by(&c, 0, view);
        let actions = c.nodes[1].on_message(ReplicaId(0), msg, c.now, &mut c.cur_ranks[1]);
        assert!(actions.is_empty(), "{actions:?}");
    }
    assert_eq!(c.nodes[1].rejected, rejected, "every one verified");
    assert_eq!(c.nodes[1].view_changes_held(), 1);
    // A lower view from a member already held higher is moot.
    let msg = vc_by(&c, 0, 1);
    c.nodes[1].on_message(ReplicaId(0), msg, c.now, &mut c.cur_ranks[1]);
    assert_eq!(c.nodes[1].view_changes_held(), 1);
    // Two more members naming the held view make the quorum.
    let mut installed = Vec::new();
    for r in [2, 3] {
        let msg = vc_by(&c, r, top);
        installed = c.nodes[1].on_message(ReplicaId(r), msg, c.now, &mut c.cur_ranks[1]);
    }
    assert!(installed
        .iter()
        .any(|a| matches!(a, crate::Action::NewViewInstalled { view } if *view == View(top))));
    assert_eq!(c.nodes[1].view(), View(top));
    assert_eq!(c.nodes[1].view_changes_held(), 0);
}

#[test]
fn new_view_that_rewrites_a_view_change_is_refused() {
    // A view change signs the entries it reports, an entry's batch must
    // match its digest, and its certificate must be this instance's: a
    // Byzantine new leader that rewrites an honest member's entries,
    // swaps the batch one of them carries, or cites another instance's
    // certificate in its own view change is refused and installs nothing.
    fn vc_of(nv: &mut crate::msg::NewView, signer: u32) -> &mut crate::msg::ViewChange {
        let vc = nv
            .vcs
            .iter_mut()
            .find(|vc| vc.sig.signer() == ReplicaId(signer));
        Arc::make_mut(vc.expect("a view change by that replica"))
    }
    type Edit = fn(&Cluster, &mut crate::msg::NewView);
    let edits: [(&str, Edit); 3] = [
        ("an entry replaced by another", |_, nv| {
            let prepared = &mut vc_of(nv, 2).prepared;
            prepared[0] = prepared[1].clone();
        }),
        ("a batch altered", |_, nv| {
            vc_of(nv, 2).prepared[0].block.batch = test_batch(999, 7);
        }),
        ("another instance's certificate", |c, nv| {
            let vc = vc_of(nv, 1);
            vc.prepared[0].qc = qc_of_instance_one(c, &vc.prepared[0]);
            let prepared = std::mem::take(&mut vc.prepared);
            let signer = c.registry.signer(ReplicaId(1));
            *vc = ViewChange::sign(
                &signer,
                vc.new_view,
                vc.instance,
                vc.last_committed,
                prepared,
            );
        }),
    ];
    for (what, edit) in edits {
        let (mut c, nv) = new_view_completed_by_the_new_leader();
        let mut forged = (*nv).clone();
        assert!(forged.vcs.iter().all(|vc| vc.prepared.len() == 2));
        edit(&c, &mut forged);
        let rejected = c.nodes[2].rejected;
        let actions = c.nodes[2].on_message(
            ReplicaId(1),
            PbftMsg::NewView(Arc::new(forged)),
            c.now,
            &mut c.cur_ranks[2],
        );
        assert_eq!(c.nodes[2].rejected, rejected + 1, "{what}");
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, crate::Action::NewViewInstalled { .. })),
            "{what}: {actions:?}"
        );
        assert_eq!(c.nodes[2].view(), View(0), "{what}");

        // The new view as the leader sent it installs.
        c.nodes[2].on_message(
            ReplicaId(1),
            PbftMsg::NewView(nv),
            c.now,
            &mut c.cur_ranks[2],
        );
        assert_eq!(c.nodes[2].view(), View(1), "{what}");
    }
}

#[test]
fn nil_fill_completed_by_the_new_leader_carries_its_timer_clock() {
    // Round 2 is lost while round 3 commits; the leader crashes. The new
    // leader's own view change completes the quorum, from its expired
    // deadline: the nil block it fills round 2 with is stamped with the
    // clock of that expiry, as on every backup, not with time zero.
    let mut c = Cluster::new(4, RankMode::None, u64::MAX);
    c.propose_and_run(0, test_batch(0, 5));
    c.now += ladon_types::TimeNs::from_millis(10);
    drop(c.nodes[0].propose(test_batch(100, 5), c.now, &mut c.cur_ranks[0]));
    c.propose_and_run(0, test_batch(200, 5));
    c.crashed[0] = true;
    for who in [2, 3] {
        let actions = c.nodes[who].on_timeout(c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    c.run_to_quiescence();
    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[1].on_timeout(c.now, &mut c.cur_ranks[1]);
    c.absorb(1, actions);
    c.run_to_quiescence();

    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 3);
    assert!(blocks[1].is_nil());
    assert_eq!(blocks[1].proposed_at, c.now);
}

#[test]
fn a_view_zero_deadline_is_replaced_when_the_new_view_installs() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    let committed_at = c.now;
    for r in 0..4 {
        assert_eq!(c.nodes[r].liveness_since(), Some(committed_at), "{r}");
    }
    // Round 2's deadline expires at replicas 2 and 3: each waits on its
    // view change from then.
    c.crashed[0] = true;
    c.now += ladon_types::TimeNs::from_millis(10);
    let vc_at = c.now;
    for who in [2, 3] {
        let actions = c.nodes[who].on_timeout(c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
        assert_eq!(c.nodes[who].liveness_since(), Some(vc_at));
    }
    c.run_to_quiescence();
    // Replica 1's own expiry completes the quorum: view 1 installs
    // everywhere, and every deadline is the new view's, from then.
    c.now += ladon_types::TimeNs::from_millis(10);
    let actions = c.nodes[1].on_timeout(c.now, &mut c.cur_ranks[1]);
    c.absorb(1, actions);
    c.run_to_quiescence();
    for r in 1..4 {
        assert_eq!(c.nodes[r].view(), View(1), "{r}");
        assert_eq!(c.nodes[r].liveness_since(), Some(c.now), "{r}");
    }
}

#[test]
fn an_expiry_on_a_settled_round_is_quiet() {
    // Replica 3 misses round 2's votes and fetches the block instead: the
    // round its deadline awaits is settled, so the expiry starts no view
    // change and leaves the instance waiting on nothing.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    c.crashed[3] = true;
    c.propose_and_run(0, test_batch(100, 10));
    c.crashed[3] = false;
    assert_eq!(c.nodes[3].committed_upto(), Round(1));
    for entry in c.nodes[0].committed_entries_from(Round(1), 16) {
        let actions = c.nodes[3].install_committed(entry, c.now, &mut c.cur_ranks[3]);
        assert_installed_and_reported(&actions);
    }
    assert_eq!(c.nodes[3].committed_upto(), Round(2));
    assert!(c.nodes[3].liveness_since().is_some());

    let actions = c.nodes[3].on_timeout(c.now, &mut c.cur_ranks[3]);
    assert!(actions.is_empty(), "no view change");
    assert!(!c.nodes[3].in_view_change());
    assert_eq!(c.nodes[3].liveness_since(), None);
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
fn a_leader_ranks_above_its_current_rank_not_the_collected_maximum() {
    // Round 1's reports arrive with its commit votes; the leader's
    // curRank then rises to a rank certified on another instance before
    // it proposes round 2. It refreshes its own report, so round 2 ranks
    // one above that rank rather than one above the stale maximum, and
    // the backups accept the refreshed proof.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    assert!(c.nodes[0].can_propose(), "round 1's reports are collected");
    let collected = c.cur_ranks.iter().map(|cur| cur.rank).max();
    assert_eq!(collected, Some(Rank(1)));

    let (view, round, instance, digest) = (View(0), Round(9), InstanceId(1), Digest([9; 32]));
    let high = Rank(40);
    let shares: Vec<_> = (0..3)
        .map(|r| {
            let signer = c.registry.signer(ReplicaId(r));
            QuorumCert::sign_share(&signer, view, round, &digest, instance, high)
        })
        .collect();
    let cert = QuorumCert::from_shares(&shares, 4, view, round, instance, digest, high);
    c.cur_ranks[0] = RankCert::certified(cert.expect("distinct signers"));

    let pp = propose_capturing(&mut c, 10);
    assert_eq!(pp.block.rank(), Rank(41));
    c.run_to_quiescence();
    let blocks = c.assert_agreement();
    assert_eq!(blocks.last().map(|b| b.rank()), Some(Rank(41)));
}

#[test]
fn rank_reports_for_rounds_not_yet_proposed_are_refused() {
    // A Byzantine member signs reports for rounds the leader has not
    // proposed, each claiming the epoch minimum (no certificate needed):
    // none is held, and each is counted.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 10));
    let byzantine = c.registry.signer(ReplicaId(1));
    let rejected = c.nodes[0].rejected;
    let flood = 10_000u64;
    for round in c.nodes[0].next_round().0..c.nodes[0].next_round().0 + flood {
        let body = RankBody {
            view: View(0),
            round: Round(round),
            instance: InstanceId(0),
            rank: Rank(0),
        };
        let report = RankReport {
            signed: SignedRank {
                body,
                sig: Signature::sign_with_key(&byzantine, 0, DOMAIN_RANK, &body.bytes()),
            },
            qc: None,
        };
        let actions = c.nodes[0].on_message(
            ReplicaId(1),
            PbftMsg::Rank(report),
            c.now,
            &mut c.cur_ranks[0],
        );
        assert!(actions.is_empty());
    }
    assert!(c.nodes[0].rank_report_rounds() <= 3);
    assert_eq!(c.nodes[0].rejected - rejected, flood);
    assert!(c.nodes[0].can_propose(), "the honest reports still count");
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
    use crate::msg::{CertifiedBlock, ViewChange};
    use crate::testkit::test_batch;
    use crate::RankMode;
    use ladon_crypto::qc::CertDomain;
    use ladon_crypto::{AggregateSignature, KeyRegistry, QuorumCert, Signature};
    use ladon_types::{Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round, View};

    fn dummy_sig() -> Signature {
        let reg = KeyRegistry::generate(4, 1, 9);
        Signature::sign(&reg.signer(ReplicaId(0)), b"t", b"t")
    }

    fn entry(round: u64, rank: u64, qc_view: u64) -> CertifiedBlock {
        CertifiedBlock {
            block: Block {
                header: BlockHeader {
                    index: InstanceId(0),
                    round: Round(round),
                    rank: Rank(rank),
                    payload_digest: Digest([round as u8; 32]),
                },
                batch: test_batch(round * 100, 1),
                proposed_at: ladon_types::TimeNs::ZERO,
            },
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

    fn vc(last_committed: u64, prepared: Vec<CertifiedBlock>) -> ViewChange {
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
        let digest = Digest([0xcc; 32]);
        new.block.header.payload_digest = digest;
        std::sync::Arc::make_mut(&mut new.qc).digest = digest;
        let plan = ViewPlan::from_vcs(
            &[vc(1, vec![old]), vc(1, vec![new.clone()])],
            RankMode::Plain,
            Rank(0),
        );
        assert_eq!(plan.reproposals.len(), 1);
        assert_eq!(plan.reproposals[0], new);
        assert_eq!(plan.reproposals[0].block.rank(), Rank(6));
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

    // Leader crashes; the others view-change on round 2's deadline.
    c.crashed[0] = true;
    c.fire_timeouts();

    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 3, "rounds 1, 2 (nil), 3");
    assert_eq!(blocks[1].round(), Round(2));
    assert!(blocks[1].is_nil(), "gap round must be a nil block");
    assert_eq!(blocks[0].batch.count, 5);
    assert_eq!(blocks[2].batch.count, 5);
}

#[test]
fn a_hole_keeps_its_deadline_while_later_rounds_commit() {
    // The leader pipelines on (vanilla mode has no in-flight bound) and
    // stays up: rounds 3..=5 commit above the lost round 2. Their commits
    // must not move the deadline off round 2, or it is never timed out
    // and the global order waits on the hole forever.
    let mut c = Cluster::new(4, RankMode::None, u64::MAX);
    c.propose_and_run(0, test_batch(0, 5));
    let round_1_at = c.now;
    c.now += ladon_types::TimeNs::from_millis(10);
    drop(c.nodes[0].propose(test_batch(100, 5), c.now, &mut c.cur_ranks[0]));
    for k in 0..3 {
        c.propose_and_run(0, test_batch(200 + 100 * k, 5));
    }
    assert_eq!(c.committed[1].len(), 4, "rounds 1 and 3..=5");
    for r in 0..4 {
        assert_eq!(c.nodes[r].liveness_since(), Some(round_1_at), "{r}");
    }

    c.fire_timeouts();
    let blocks = c.assert_agreement();
    assert_eq!(blocks.len(), 5, "rounds 1, 2 (nil), 3..=5");
    let round_2 = blocks.iter().find(|b| b.round() == Round(2)).unwrap();
    assert!(round_2.is_nil(), "the hole is nil-filled");
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
    c.fire_timeouts();
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

/// What installing one fetched round emits at a replica that never voted
/// on it: the commit, then the rank report it never sent with a commit
/// vote, to the leader (replica 0) — or a leader waiting on 2f+1 reports
/// for that round waits out a view change.
fn assert_installed_and_reported(actions: &[crate::Action]) {
    assert!(
        matches!(
            actions,
            [
                crate::Action::Committed(_),
                crate::Action::Send(ReplicaId(0), PbftMsg::Rank(_))
            ]
        ),
        "{actions:?}"
    );
}

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
    assert_eq!(entries[0].block.round(), Round(1));
    assert_eq!(entries[3].block.round(), Round(4));

    // A fresh instance (same registry/instance id) installs them.
    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));
    let mut committed = Vec::new();
    for entry in entries {
        let actions = fresh.install_committed(entry, ladon_types::TimeNs::ZERO, &mut cur);
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

/// A valid prepare QC of instance 1 for `e`'s round, digest and rank.
fn qc_of_instance_one(c: &Cluster, e: &CertifiedBlock) -> Arc<QuorumCert> {
    let (h, view, instance) = (e.block.header, e.qc.view, InstanceId(1));
    let shares: Vec<Signature> = [0, 2, 3]
        .map(|r| {
            let signer = c.registry.signer(ReplicaId(r));
            QuorumCert::sign_share(&signer, view, h.round, &h.payload_digest, instance, h.rank)
        })
        .to_vec();
    let qc = QuorumCert::from_shares(
        &shares,
        4,
        view,
        h.round,
        instance,
        h.payload_digest,
        h.rank,
    );
    Arc::new(qc.expect("distinct signers"))
}

#[test]
fn a_certified_round_is_bound_by_one_rule_at_both_doors() {
    // A fetched entry (`install_committed`) and a view-change entry inside
    // a `NewView` pass one rule, `CertifiedBlock::binds` and then the QC.
    // Starting from a genuine entry of a view change, each row tampers
    // with one part; the sender re-signs its view change, so only the
    // rule stands between the entry and either door.
    type Tamper = fn(&Cluster, &mut CertifiedBlock);
    let rows: [(&str, Tamper); 7] = [
        ("genuine", |_, _| {}),
        ("header.index", |_, e| e.block.header.index = InstanceId(1)),
        ("round", |_, e| e.block.header.round = Round(9)),
        ("rank", |_, e| e.block.header.rank = Rank(99)),
        ("payload_digest", |_, e| {
            e.block.header.payload_digest = Digest([0xee; 32]);
        }),
        ("batch", |_, e| e.block.batch = test_batch(999, 7)),
        ("another instance's QC", |c, e| {
            e.qc = qc_of_instance_one(c, e)
        }),
    ];
    for (what, tamper) in rows {
        let (mut c, nv) = new_view_completed_by_the_new_leader();
        let mut nv = (*nv).clone();
        let vc = nv.vcs.iter_mut().find(|vc| vc.sig.signer() == ReplicaId(2));
        let vc = Arc::make_mut(vc.expect("a view change by replica 2"));
        let mut entry = vc.prepared[0].clone();
        tamper(&c, &mut entry);

        let mut fresh = c.fresh_instance(3);
        let mut cur = RankCert::genesis(Rank(0));
        let actions = fresh.install_committed(entry.clone(), c.now, &mut cur);
        if what == "genuine" {
            assert_installed_and_reported(&actions);
        } else {
            assert!(actions.is_empty(), "{what}: {actions:?}");
            assert_eq!(fresh.rejected, 1, "{what}");
        }

        vc.prepared[0] = entry;
        let prepared = std::mem::take(&mut vc.prepared);
        let signer = c.registry.signer(ReplicaId(2));
        *vc = ViewChange::sign(
            &signer,
            vc.new_view,
            vc.instance,
            vc.last_committed,
            prepared,
        );
        let rejected = c.nodes[2].rejected;
        let actions = c.nodes[2].on_message(
            ReplicaId(1),
            PbftMsg::NewView(Arc::new(nv)),
            c.now,
            &mut c.cur_ranks[2],
        );
        let installed = actions
            .iter()
            .any(|a| matches!(a, crate::Action::NewViewInstalled { .. }));
        if what == "genuine" {
            assert!(installed, "{actions:?}");
        } else {
            assert!(actions.is_empty(), "{what}: {actions:?}");
            assert_eq!(c.nodes[2].rejected, rejected + 1, "{what}");
        }
    }
}

#[test]
fn install_committed_is_idempotent() {
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let entry = c.nodes[0].committed_entries_from(Round(0), 1)[0].clone();
    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));
    assert_installed_and_reported(&fresh.install_committed(
        entry.clone(),
        ladon_types::TimeNs::ZERO,
        &mut cur,
    ));
    assert!(fresh
        .install_committed(entry, ladon_types::TimeNs::ZERO, &mut cur)
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
    let entry = c.nodes[0].committed_entries_from(Round(0), 1)[0].clone();
    let mut fresh = c.fresh_instance(3);
    let mut cur = ladon_crypto::RankCert::genesis(Rank(0));
    let before = ladon_crypto::CryptoCounters::snapshot();
    fresh.install_committed(entry.clone(), ladon_types::TimeNs::ZERO, &mut cur);
    let mid = ladon_crypto::CryptoCounters::snapshot();
    assert_eq!(
        mid.qc_verify_hits, before.qc_verify_hits,
        "the first arrival verifies in full"
    );
    fresh.install_committed(entry, ladon_types::TimeNs::ZERO, &mut cur);
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

    // Replica 1's round-2 deadline expires; its lone view change goes
    // nowhere.
    let acts = c.nodes[1].on_timeout(c.now, &mut c.cur_ranks[1]);
    c.absorb(1, acts);
    c.queue.clear(); // its view-change message is never answered
    assert!(c.nodes[1].in_view_change());

    // State transfer repairs it and the view change is abandoned.
    let entry = c.nodes[0].committed_entries_from(Round(1), 1)[0].clone();
    let actions = c.nodes[1].install_committed(entry, c.now, &mut c.cur_ranks[1]);
    assert!(actions
        .iter()
        .any(|a| matches!(a, crate::Action::Committed(_))));
    assert!(!c.nodes[1].in_view_change());
    assert_eq!(c.nodes[1].committed_upto(), Round(2));
    assert_eq!(c.nodes[1].liveness_since(), None, "it waits on nothing");
}

#[test]
fn an_opt_preprepare_held_for_an_unseen_round_prepares_once_that_round_installs() {
    // Replica 1 misses round 2 entirely, then receives round 3's
    // pre-prepare: under Opt ranks its base is round 2's rank, which
    // replica 1 cannot check yet, so the pre-prepare is held. State
    // transfer then brings round 2, and with it the means to check
    // round 3 — nothing else would before the epoch advances.
    let one = ReplicaId(1);
    let mut c = Cluster::new(4, RankMode::Opt, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    propose_capturing(&mut c, 10);
    while let Some((to, from, msg)) = c.queue.pop_front() {
        if to != one {
            let who = to.as_usize();
            let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            c.absorb(who, actions);
        }
    }
    assert_eq!(c.nodes[0].committed_upto(), Round(2));
    assert_eq!(c.nodes[1].committed_upto(), Round(1));

    let pp = propose_capturing(&mut c, 20);
    c.queue.clear();
    let held = c.nodes[1].on_message(
        ReplicaId(0),
        PbftMsg::PrePrepare(pp),
        c.now,
        &mut c.cur_ranks[1],
    );
    assert!(held.is_empty());
    assert_eq!(c.nodes[1].epoch_backlog(), 1);

    let entry = c.nodes[0].committed_entries_from(Round(1), 1)[0].clone();
    let actions = c.nodes[1].install_committed(entry, c.now, &mut c.cur_ranks[1]);
    let prepares_round_3 = actions.iter().any(|a| {
        matches!(a, crate::Action::Broadcast(PbftMsg::Vote(v))
            if v.phase == Phase::Prepare && v.round == Round(3))
    });
    assert!(prepares_round_3, "the held round-3 pre-prepare is prepared");
    assert_eq!(c.nodes[1].epoch_backlog(), 0);
}

#[test]
fn a_retry_that_releases_no_held_preprepare_costs_no_crypto() {
    // Replica 1 misses round 2, then receives the pre-prepares of rounds
    // 3..=10: under Opt ranks each one's base is the round before it,
    // which replica 1 has not adopted, so all eight are held. Their
    // digests and signatures were checked on the way in; an epoch
    // advance that brings none of the missing rounds retries every one
    // without hashing or verifying anything again.
    let one = ReplicaId(1);
    let mut c = Cluster::new(4, RankMode::Opt, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let mut held = Vec::new();
    for round in 2..=10u64 {
        let pp = propose_capturing(&mut c, round * 10);
        while let Some((to, from, msg)) = c.queue.pop_front() {
            if to != one {
                let who = to.as_usize();
                let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
                c.absorb(who, actions);
            }
        }
        if round > 2 {
            held.push(pp);
        }
    }
    for pp in held {
        let actions = c.nodes[1].on_message(
            ReplicaId(0),
            PbftMsg::PrePrepare(pp),
            c.now,
            &mut c.cur_ranks[1],
        );
        assert!(actions.is_empty(), "{actions:?}");
    }
    assert_eq!(c.nodes[1].epoch_backlog(), 8);

    let before = ladon_crypto::CryptoCounters::snapshot();
    let actions = c.nodes[1].advance_epoch(Rank(1001), Rank(2000), c.now, &mut c.cur_ranks[1]);
    let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
    assert!(actions.is_empty(), "{actions:?}");
    assert_eq!(c.nodes[1].epoch_backlog(), 8, "every one still waits");
    assert_eq!((cost.verifies, cost.agg_verifies, cost.hashes), (0, 0, 0));
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
fn a_new_view_reopens_no_round_behind_the_frontier() {
    // Replica 1 jumped past rounds 1..=3, which its peers committed and
    // report as prepared when they view-change to view 1, led by replica
    // 1. The new view re-proposes those rounds; behind replica 1's
    // frontier they are settled, so it neither re-opens nor re-votes them.
    let (mut c, _, _) = replica_one_fast_forwarded();
    c.fire_timeouts();
    assert_eq!(c.nodes[1].view(), View(1));
    assert!(c.nodes[1].is_leader());
    assert_eq!(c.nodes[1].rounds_held(), 0);
    assert_eq!(c.nodes[1].live_vote_slots(), 0);
}

#[test]
fn a_round_committed_before_its_prepare_quorum_is_certified_late() {
    // Replica 1 hears its peers' commits for round 1 before their
    // prepares: it commits on the commit quorum while its prepare tally
    // is still open. The round is logged without a certificate, so it
    // serves nothing yet; the late prepare quorum still sends its commit
    // vote and rank report, and hands the log entry its certificate.
    let one = ReplicaId(1);
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    propose_capturing(&mut c, 0);
    let mut held = Vec::new();
    while let Some((to, from, msg)) = c.queue.pop_front() {
        if let (true, PbftMsg::Vote(v)) = (to == one && from != one, &msg) {
            if v.phase == Phase::Prepare {
                held.push((from, msg));
                continue;
            }
        }
        let who = to.as_usize();
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        c.absorb(who, actions);
    }
    assert_eq!(c.committed[1].len(), 1, "committed on the commit quorum");
    assert_eq!(c.nodes[1].committed_upto(), Round(1));
    assert!(c.nodes[1].committed_entries_from(Round(0), 16).is_empty());

    let mut late = Vec::new();
    for (from, msg) in held {
        late.extend(c.nodes[1].on_message(from, msg, c.now, &mut c.cur_ranks[1]));
    }
    let commit_vote = late.iter().any(|a| {
        matches!(a, crate::Action::Broadcast(PbftMsg::Vote(v))
            if v.phase == Phase::Commit && v.round == Round(1))
    });
    let report = late
        .iter()
        .any(|a| matches!(a, crate::Action::Send(to, PbftMsg::Rank(_)) if *to == ReplicaId(0)));
    assert!(commit_vote && report, "{late:?}");
    let served = c.nodes[1].committed_entries_from(Round(0), 16);
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].qc.round, Round(1));
    assert_eq!(c.nodes[1].rounds_held(), 1);
    assert_eq!(c.nodes[1].live_vote_slots(), 0);
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
fn far_future_votes_hold_at_most_a_window_of_rounds() {
    // One member signs prepares for the 10 000 rounds above the commit
    // frontier, each genuine: replica 1 opens state for the rounds within
    // VOTE_WINDOW of its frontier, refuses the rest before checking a
    // signature, and the next honest round still commits everywhere.
    let mut c = Cluster::new(4, RankMode::Plain, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let (three, frontier) = (ReplicaId(3), c.nodes[1].committed_upto().0);
    let (held, rejected) = (c.nodes[1].rounds_held(), c.nodes[1].rejected);
    let signer = c.registry.signer(three);
    let before = ladon_crypto::CryptoCounters::snapshot();
    for round in frontier + 2..frontier + 10_002 {
        let v = crate::msg::PhaseVote::sign(
            &signer,
            Phase::Prepare,
            View(0),
            Round(round),
            InstanceId(0),
            ladon_types::Digest([7; 32]),
            Rank(round),
        );
        let actions = c.nodes[1].on_message(three, PbftMsg::Vote(v), c.now, &mut c.cur_ranks[1]);
        assert!(actions.is_empty(), "{actions:?}");
    }
    let inside = crate::VOTE_WINDOW - 1;
    assert_eq!(c.nodes[1].rounds_held(), held + inside as usize);
    assert_eq!(c.nodes[1].rejected, rejected + 10_000 - inside);
    let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
    assert_eq!(cost.verifies, inside, "a refused vote is not checked");
    c.propose_and_run(0, test_batch(5, 5));
    assert!(c.committed.iter().all(|log| log.len() == 2));
}

#[test]
fn a_preprepare_past_the_window_opens_no_round() {
    // The view's leader signs genuine pre-prepares for the last round
    // within replica 1's window and the first past it. Vanilla ranks need
    // no rank proof, so only the window stands between each and a
    // prepare: the one past it is held unchecked — no round opened, no
    // hash, no verify — and the one within it is prepared.
    let mut c = Cluster::new(4, RankMode::None, 1000);
    c.propose_and_run(0, test_batch(0, 5));
    let last = c.nodes[1].committed_upto().0 + crate::VOTE_WINDOW;
    let leader = c.registry.signer(ReplicaId(0));
    let signed = |round: u64| {
        let mut pp = PrePrepare {
            view: View(0),
            block: block_at(round, round, test_batch(round * 10, 5), c.now),
            rank_proof: RankProof::None,
            sig: Signature::sign(&leader, DOMAIN_PREPREPARE, b""),
        };
        pp.sig = Signature::sign(&leader, DOMAIN_PREPREPARE, &pp.signing_bytes());
        PbftMsg::PrePrepare(Arc::new(pp))
    };
    let (past, within) = (signed(last + 1), signed(last));
    let held = c.nodes[1].rounds_held();

    let before = ladon_crypto::CryptoCounters::snapshot();
    let actions = c.nodes[1].on_message(ReplicaId(0), past, c.now, &mut c.cur_ranks[1]);
    let cost = ladon_crypto::CryptoCounters::snapshot().since(&before);
    assert!(actions.is_empty(), "{actions:?}");
    assert_eq!((cost.verifies, cost.hashes), (0, 0));
    assert_eq!(c.nodes[1].rounds_held(), held);

    let actions = c.nodes[1].on_message(ReplicaId(0), within, c.now, &mut c.cur_ranks[1]);
    let prepared = actions.iter().any(|a| {
        matches!(a, crate::Action::Broadcast(PbftMsg::Vote(v))
            if v.phase == Phase::Prepare && v.round == Round(last))
    });
    assert!(prepared, "{actions:?}");
    assert_eq!(c.nodes[1].rounds_held(), held + 1);
}

#[test]
fn a_leader_does_not_propose_past_the_window() {
    // Vanilla ranks: the leader proposes without waiting for rank
    // reports. None of its proposals reaches a peer, so its frontier
    // stays at 0 and it stops at the window's last round.
    let mut c = Cluster::new(4, RankMode::None, 1000);
    let mut proposed = 0;
    while c.nodes[0].can_propose() && proposed <= crate::VOTE_WINDOW {
        c.nodes[0].propose(test_batch(proposed, 1), c.now, &mut c.cur_ranks[0]);
        proposed += 1;
    }
    assert_eq!(proposed, crate::VOTE_WINDOW);
    assert_eq!(c.nodes[0].committed_upto(), Round(0));
    assert_eq!(c.nodes[0].rounds_held(), crate::VOTE_WINDOW as usize);
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

// ---------------------------------------------------------------------
// Committed history is one to two epochs, however long the run
// ---------------------------------------------------------------------

#[test]
fn the_log_keeps_the_previous_epoch_and_nothing_older() {
    // Eight ranks per epoch: epoch 0 commits rounds 1..=7 (ranks 1..=7),
    // each later epoch eight rounds. Every advance trims committed
    // history at the frontier the previous epoch began at; the previous
    // epoch itself is still served in full.
    const RANKS: u64 = 8;
    let mut c = Cluster::new(4, RankMode::Plain, RANKS - 1);
    // The frontier each epoch began at: epoch `e` starts above `starts[e]`.
    let mut starts = vec![0u64];
    let mut held_after = Vec::new();
    for epoch in 1..=9u64 {
        while !c.nodes[0].stopped_for_epoch() {
            let first = c.nodes[0].next_round().0 * 10;
            c.propose_and_run(0, test_batch(first, 5));
        }
        let frontier = c.nodes[1].committed_upto();
        starts.push(frontier.0);
        for r in 0..4 {
            let (min, max) = (Rank(epoch * RANKS), Rank(epoch * RANKS + RANKS - 1));
            let actions = c.nodes[r].advance_epoch(min, max, c.now, &mut c.cur_ranks[r]);
            c.absorb(r, actions);
        }
        c.run_to_quiescence();

        let previous = starts[starts.len() - 2];
        let oldest = c.nodes[1]
            .oldest_round_held()
            .expect("the log is not empty");
        assert_eq!(oldest, Round(previous.max(1)), "epoch {epoch}");
        let served = c.nodes[1].committed_entries_from(Round(previous), usize::MAX);
        let rounds: Vec<u64> = served.iter().map(|e| e.block.round().0).collect();
        assert_eq!(rounds, (previous + 1..=frontier.0).collect::<Vec<_>>());
        if previous >= 2 {
            let older = c.nodes[1].committed_entries_from(Round(previous - 2), usize::MAX);
            assert!(older.is_empty(), "epoch {epoch}: served below the log");
        }
        held_after.push(c.nodes[1].rounds_held());
    }
    assert_eq!(c.nodes[1].committed_upto(), Round(7 + 8 * 8));
    let (at_3, at_9) = (held_after[2], held_after[8]);
    assert!(
        at_9.abs_diff(at_3) <= RANKS as usize,
        "rounds held grew with the run: {held_after:?}"
    );
}

#[test]
fn a_vanilla_instance_past_the_boundary_keeps_the_previous_epoch_in_the_order() {
    // Eight ranks per epoch, and a vanilla block ranks at its round, so
    // epoch 1 is rounds 8..=15 in the order. The instance never stops
    // for an epoch: each advance finds its frontier an epoch past the
    // boundary. The window still keeps where the previous epoch began in
    // the order, not where the frontier stood at the previous advance.
    const RANKS: u64 = 8;
    let mut c = Cluster::new(4, RankMode::None, RANKS - 1);
    for epoch in 1..=2u64 {
        while c.nodes[1].committed_upto() < Round((epoch + 1) * RANKS - 1) {
            let first = c.nodes[0].next_round().0 * 10;
            c.propose_and_run(0, test_batch(first, 5));
        }
        for r in 0..4 {
            let (min, max) = (Rank(epoch * RANKS), Rank(epoch * RANKS + RANKS - 1));
            let actions = c.nodes[r].advance_epoch(min, max, c.now, &mut c.cur_ranks[r]);
            c.absorb(r, actions);
        }
        c.run_to_quiescence();
    }
    assert_eq!(c.nodes[1].committed_upto(), Round(23));
    let served = c.nodes[1].committed_entries_from(Round(RANKS - 1), 1);
    let rounds: Vec<u64> = served.iter().map(|e| e.block.round().0).collect();
    assert_eq!(rounds, [RANKS], "epoch 1's first round is served");
    assert_eq!(c.nodes[1].oldest_round_held(), Some(Round(RANKS - 1)));
}
