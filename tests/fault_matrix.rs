//! Adversarial fault-scenario matrix for the durability degradation
//! state machine and responder-health sync rotation.
//!
//! Scenarios: a replica's disk fills under live load (degrade → space
//! freed → backoff retries → recovery, roots byte-identical to its
//! never-degraded peers), a Byzantine responder replaying stale-but-
//! signed snapshots is quarantined while the cluster still syncs,
//! flapping fsync failures flutter the node between Normal and Degraded
//! without ever acknowledging an undurable range, and a crash while
//! Degraded loses only unacknowledged staged records. Faults are
//! injected through the first-class `ladon::state::faults` plan — no
//! test-local storage wrappers.

use ladon::core::sync::SYNC_QUARANTINE_THRESHOLD;
use ladon::core::{Input, MultiBftNode, NodeMode, NodeMsg, SyncResponse};
use ladon::state::{ExecutionPipeline, FaultBackend, FaultPlan, FileBackend, WalOptions};
use ladon::types::{Digest, ProtocolKind, Round, TimeNs};
use ladon::workload::{Deployment, ExperimentConfig};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ladon-{tag}-{}", std::process::id()))
}

/// The matrix's cluster: Ladon-PBFT, n = 4, 16-rank epochs, clients
/// submitting until `submit_until_s`.
fn cluster(submit_until_s: f64) -> Deployment {
    Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, submit_until_s)
            .with_epoch_length(16),
    )
}

/// Swaps replica 3 for one journaling to `dir` through a fault-injecting
/// WAL backend driven by `plan` (the plan handle stays with the caller:
/// its shared atomics script faults mid-run deterministically).
fn add_faulted_replica(c: &mut Deployment, dir: &std::path::Path, plan: &FaultPlan) {
    let backend = FaultBackend::new(
        FileBackend::open_dir(dir.join("wal")).unwrap(),
        plan.clone(),
    );
    let exec = ExecutionPipeline::recover_backend(
        dir,
        Box::new(backend),
        c.sys.exec_keyspace,
        1,
        WalOptions::from(&c.sys),
    )
    .unwrap();
    c.swap_replica(3, exec);
}

/// Drains replica 3's pipeline (whatever is staged) so its on-disk
/// artifacts and in-memory frontier can be compared exactly, then
/// asserts a fresh process recovering from the directory reproduces the
/// applied frontier and root byte-for-byte.
fn assert_disk_coherent(c: &mut Deployment, dir: &std::path::Path, tag: &str) {
    let n3 = c.engine.actor_as_mut::<MultiBftNode>(3).unwrap();
    n3.exec.submit_staged();
    let applied = n3.exec.applied();
    let root = n3.exec.state_root();
    let recovered =
        ExecutionPipeline::recover_opts(dir, c.sys.exec_keyspace, 1, WalOptions::from(&c.sys))
            .unwrap();
    assert_eq!(
        recovered.applied(),
        applied,
        "{tag}: disk recovery frontier diverges from the live replica"
    );
    assert_eq!(
        recovered.state_root(),
        root,
        "{tag}: disk recovery root diverges — an undurable range was \
         treated as applied"
    );
}

/// Disk-full under live load: replica 3's storage rejects writes with
/// ENOSPC mid-run. The replica must (a) cross the consecutive-failure
/// threshold and enter Degraded, (b) stop checkpointing while degraded,
/// (c) keep retrying on backoff, (d) recover once space frees, and
/// (e) end with checkpoint roots byte-identical to its never-degraded
/// peers and a disk image that reproduces its state exactly.
#[test]
fn disk_full_degrades_then_recovers() {
    let dir = scratch_dir("fault-enospc");
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = cluster(20.0);
    let plan = FaultPlan::unlimited();
    add_faulted_replica(&mut c, &dir, &plan);

    // Healthy warm-up: the replica journals durably.
    c.run_secs(6.0);
    assert_eq!(c.node(3).mode(), NodeMode::Normal);
    assert!(
        c.node(3).exec.applied() > 0,
        "no execution progress before the fault"
    );

    // The disk fills while the workload keeps running.
    let _ = plan.clone().enospc_after(0);
    c.run_secs(14.0);
    {
        let n3 = c.node(3);
        assert_eq!(
            n3.mode(),
            NodeMode::Degraded,
            "ENOSPC under load must degrade the replica"
        );
        assert!(n3.metrics.degraded_entries >= 1);
        assert!(
            n3.metrics.degraded_retries >= 1,
            "the retry timer must have fired against the \
             still-full disk"
        );
        assert!(
            n3.metrics.trace.node_event_count("mode_degraded") >= 1,
            "the transition must reach the trace journal"
        );
        assert_eq!(
            n3.metrics.trace.node_event_count("mode_normal"),
            0,
            "no recovery is possible while the disk is full"
        );
    }

    // Space frees: the next backoff retry rewrites the log from the
    // in-memory mirror and drains the staged backlog.
    plan.free_space();
    c.run_secs(60.0);
    {
        let n3 = c.node(3);
        assert_eq!(
            n3.mode(),
            NodeMode::Normal,
            "the replica must re-enter Normal once space frees"
        );
        assert!(n3.metrics.trace.node_event_count("mode_normal") >= 1);
        assert!(
            n3.metrics.exec.perf.wal_flush_failures > 0,
            "the outage must have been loud, not silent"
        );
        // Execution resumed past the degraded window.
        assert!(n3.exec.applied() > 0, "no execution after recovery");
        // Every injected fault is accounted for: 3 failed barriers (a
        // drain sees its own barrier fail, so the replica degrades at
        // the threshold and no fourth barrier reaches the full disk),
        // the manifest publish of the first one's segment roll (the
        // epoch-3 checkpoint at 5.97 s had compacted the whole log away,
        // so that barrier opened a fresh segment), and 11 failed retries
        // (one denied rewrite each) before the 12th repaired the disk —
        // 15 = 3 + 1 + (12 − 1). A run whose fault window holds no roll
        // reads `failures + retries − 1`.
        assert_eq!(
            (
                plan.injected_faults(),
                n3.metrics.exec.perf.wal_flush_failures,
                n3.metrics.degraded_retries,
                n3.metrics.degraded_entries,
            ),
            (15, 3, 12, 1)
        );
    }
    // Checkpoint roots at every epoch shared with a healthy peer are
    // byte-identical: degradation deferred durability, it never forked
    // the state machine. (The healthy peers are the fault-free same-seed
    // replicas, so equality here *is* the "byte-identical to a
    // never-degraded run" claim.)
    let shared = c.check(&[3, 0]).assert_safe().shared_epochs;
    assert!(
        shared >= 1,
        "the recovered replica must checkpoint again \
         (no comparable epochs found)"
    );
    c.check(&[0, 1, 2, 3]).assert_safe();
    assert_disk_coherent(&mut c, &dir, "enospc");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flapping fsync: two separate bursts of fsync failures flutter the
/// replica Normal → Degraded → Normal twice. Every entry is counted,
/// recovery completes after each burst, an epoch that completed while
/// the replica was Degraded was abstained from (never checkpointed
/// late), and the final disk image is coherent — the flutter never
/// acknowledged an undurable range.
#[test]
fn fsync_flutter_degrades_twice_and_stays_coherent() {
    let dir = scratch_dir("fault-flutter");
    let _ = std::fs::remove_dir_all(&dir);
    // The matrix's cluster with 64-tx blocks: each burst holds the
    // replica Degraded for about a minute (see below), and small blocks
    // keep that much simulated load cheap. A barrier is one fsync
    // whatever the block size.
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 140.0)
            .with_epoch_length(16)
            .with_batch_size(64),
    );
    let plan = FaultPlan::unlimited();
    add_faulted_replica(&mut c, &dir, &plan);

    c.run_secs(5.0);
    // First burst: a flush barrier is one fsync, so the budget is sized
    // in *barriers*. A few failing drains cross the consecutive-failure
    // threshold; while Degraded nothing but a retry touches storage, and
    // a retry spends one failing fsync on a backoff that doubles from
    // 50 ms to its 1 s cap — so 64 failures hold the replica Degraded
    // for ~57 s (60 retries; across several epoch boundaries), and the
    // burst, being finite, exhausts against the retries and the replica
    // repairs.
    let _ = plan.clone().fail_fsyncs(64);
    c.run_secs(70.0);
    assert!(
        c.node(3).metrics.degraded_entries >= 1,
        "first fsync burst must degrade the replica"
    );
    assert!(
        c.node(3).metrics.degraded_retries >= 32,
        "the burst is spent by retries, one failing fsync each"
    );
    assert_eq!(
        c.node(3).mode(),
        NodeMode::Normal,
        "the burst must exhaust against retries and recover"
    );

    // Second burst: the state machine must re-enter cleanly, not latch.
    let _ = plan.clone().fail_fsyncs(64);
    c.run_secs(135.0);
    let n3 = c.node(3);
    assert!(
        n3.metrics.degraded_entries >= 2,
        "the second burst must degrade the replica again \
         (got {} entries)",
        n3.metrics.degraded_entries
    );
    assert_eq!(n3.mode(), NodeMode::Normal);
    assert!(n3.metrics.trace.node_event_count("mode_degraded") >= 2);
    assert!(n3.metrics.trace.node_event_count("mode_normal") >= 2);
    assert_eq!(
        n3.metrics.sync_requests, 0,
        "abstaining keeps the replica in step: nothing to sync"
    );

    // An epoch the peers completed while replica 3 was Degraded has no
    // checkpoint here — not then, and not late over a later state — and
    // the next epoch, completed while Normal, has the quorum's root.
    let roots = |r: usize| -> std::collections::BTreeMap<u64, Digest> {
        let roots = &c.node(r).metrics.state_roots;
        roots
            .iter()
            .map(|&(_, epoch, root)| (epoch, root))
            .collect()
    };
    let (mine, quorum) = (roots(3), roots(0));
    let crossed = n3.metrics.epochs.iter().map(|&(_, entered)| entered - 1);
    let abstained: Vec<u64> = crossed.filter(|e| !mine.contains_key(e)).collect();
    assert!(
        !abstained.is_empty(),
        "a burst must have held the replica Degraded across an epoch boundary"
    );
    for e in abstained {
        assert!(quorum.contains_key(&e), "epoch {e}: the peers checkpointed");
        let Some((next, root)) = mine.range(e + 1..).next() else {
            panic!("epoch {e}: no checkpoint taken after abstaining");
        };
        assert_eq!(root, &quorum[next], "epoch {next} after abstaining");
    }

    // Quiesce, then the durability contract: nothing applied that the
    // disk cannot reproduce.
    c.run_secs(155.0);
    let shared = c.check(&[3, 0]).assert_safe().shared_epochs;
    assert!(shared >= 1, "flutter: no comparable checkpoint epochs");
    c.check(&[0, 1, 2, 3]).assert_safe();
    assert_disk_coherent(&mut c, &dir, "flutter");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash while Degraded: the staged-but-never-flushed backlog is lost
/// with the process — by design, it was never acknowledged — and the
/// restarted replica recovers the durable prefix from disk, re-syncs
/// from peers, and converges.
#[test]
fn crash_while_degraded_loses_only_unacknowledged_records() {
    let dir = scratch_dir("fault-crash-degraded");
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = cluster(30.0);
    let plan = FaultPlan::unlimited();
    add_faulted_replica(&mut c, &dir, &plan);

    c.run_secs(6.0);
    let _ = plan.clone().enospc_after(0);
    c.run_secs(8.0);
    let (pre_applied, pre_staged) = {
        let n3 = c.node(3);
        assert_eq!(n3.mode(), NodeMode::Degraded, "replica must be degraded");
        (n3.exec.applied(), n3.exec.staged_records())
    };
    assert!(
        pre_staged > 0,
        "load must have accumulated an unacknowledged staged backlog"
    );

    // Process dies while degraded. A new process recovers from the disk
    // artifacts with healthy storage: it holds at most the durable
    // prefix — the staged backlog vanished with the process, and that is
    // legal precisely because it was never acknowledged.
    let recovered =
        ExecutionPipeline::recover_opts(&dir, c.sys.exec_keyspace, 1, WalOptions::from(&c.sys))
            .unwrap();
    assert!(
        recovered.applied() <= pre_applied,
        "recovery must not conjure records the live replica never applied"
    );
    c.swap_replica(3, recovered);
    c.run_secs(60.0);

    let n3 = c.node(3);
    assert_eq!(n3.mode(), NodeMode::Normal, "fresh process starts Normal");
    assert!(
        n3.metrics.sync_requests > 0,
        "the restarted replica must detect its lag and sync"
    );
    assert!(
        n3.exec.applied() > pre_applied,
        "execution must move past the pre-crash frontier after rejoin"
    );
    assert_eq!(
        n3.epoch(),
        c.node(0).epoch(),
        "the restarted replica must rejoin the cluster's epoch"
    );
    c.check(&[0, 1, 2, 3]).assert_safe();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Responder health: driven through the real request/response handlers
// with sender attribution, no network in between.
// ---------------------------------------------------------------------

/// Delivers `resp` from replica `from` to `requester` through its one
/// entry point.
fn deliver(requester: &mut MultiBftNode, from: usize, resp: SyncResponse) {
    let msg = NodeMsg::SyncResp(resp.into());
    requester.step(TimeNs::ZERO, Input::Message(from, msg), &mut Vec::new());
}

/// A Byzantine responder that keeps replaying a stale-but-signed
/// snapshot (old head + its genuine checkpoint proof) is quarantined
/// after `SYNC_QUARANTINE_THRESHOLD` consecutive rejections — and the
/// requester still syncs from honest peers afterwards.
#[test]
fn stale_snapshot_responder_quarantined_while_cluster_still_syncs() {
    let mut c = cluster(12.0);
    c.run_secs(15.0);
    let snap = c
        .node(0)
        .exec
        .latest_snapshot()
        .expect("responder must have checkpointed")
        .clone();

    let mut requester = MultiBftNode::new(c.node_config(3));

    // Honest install from peer 0 first: the requester fast-forwards to
    // the snapshot, which also makes any replay of that snapshot stale.
    let req = requester.build_sync_request();
    let honest = c
        .node(0)
        .build_sync_response(&req)
        .expect("a from-zero requester must be served");
    assert!(honest.snapshot.is_some());
    let stale = honest.clone();
    deliver(&mut requester, 0, honest);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(requester.exec.applied(), snap.head.applied);
    let h0 = &requester.responder_health()[0];
    assert_eq!(h0.rejected, 0, "peer 0's response must not score refused");
    assert!(!h0.quarantined);

    // Peer 1 replays the same (now stale) snapshot over and over. Every
    // proof still verifies — only the applied frontier betrays it — and
    // after the threshold the responder is quarantined.
    let threshold = SYNC_QUARANTINE_THRESHOLD;
    for i in 0..threshold {
        assert!(
            !requester.responder_health()[1].quarantined,
            "quarantined after {i} rejections, threshold is {threshold}"
        );
        deliver(&mut requester, 1, stale.clone());
    }
    let h1 = &requester.responder_health()[1];
    assert!(
        h1.quarantined,
        "{threshold} stale replays must quarantine the responder"
    );
    assert_eq!(h1.rejected, threshold as u64);
    assert_eq!(requester.metrics.sync_responses_refused, threshold as u64);
    assert_eq!(requester.metrics.sync_responders_quarantined, 1);
    assert_eq!(
        requester.metrics.snapshot_installs, 1,
        "stale replays must never install"
    );

    // The cluster still syncs: the workload continues, a newer snapshot
    // appears, and an honest peer serves it to the requester despite the
    // quarantined neighbor.
    let mut c2 = cluster(28.0);
    c2.run_secs(32.0);
    let newer = c2
        .node(2)
        .exec
        .latest_snapshot()
        .expect("longer run must checkpoint")
        .clone();
    assert!(
        newer.head.applied > snap.head.applied,
        "the longer run must produce a newer snapshot"
    );
    let req2 = requester.build_sync_request();
    let resp2 = c2
        .node(2)
        .build_sync_response(&req2)
        .expect("an honest peer must serve the lagging requester");
    deliver(&mut requester, 2, resp2);
    assert_eq!(
        requester.metrics.snapshot_installs, 2,
        "quarantining one responder must not stop syncing from others"
    );
    assert!(requester.responder_health()[1].quarantined);
    assert!(!requester.responder_health()[2].quarantined);
}

/// Degraded replicas stop serving snapshots (their own durable path is
/// suspect) but keep serving log entries. The replica is degraded the
/// way production would degrade it: its fault-injected disk fills.
#[test]
fn degraded_replica_stops_serving_snapshots_but_serves_entries() {
    let dir = scratch_dir("fault-serve-gate");
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = cluster(20.0);
    let plan = FaultPlan::unlimited();
    add_faulted_replica(&mut c, &dir, &plan);
    // A requester trailing replica 3 by a couple of rounds per instance
    // with an empty state machine: the gap is inside the retained log
    // window (entries servable) AND far enough behind in applied terms
    // that a healthy responder would ship its snapshot.
    let lagging_behind = |c: &Deployment| {
        let mut req = c.node(3).build_sync_request();
        for r in &mut req.frontier {
            *r = Round(r.0.saturating_sub(2));
        }
        req.applied = 0;
        req
    };

    c.run_secs(8.0);
    assert_eq!(c.node(3).mode(), NodeMode::Normal);
    let healthy_resp = c
        .node(3)
        .build_sync_response(&lagging_behind(&c))
        .expect("healthy replica serves");
    assert!(
        healthy_resp.snapshot.is_some(),
        "a healthy replica serves the snapshot to a lagging requester"
    );
    assert!(
        !healthy_resp.entries.is_empty(),
        "a healthy replica serves the retained log entries"
    );

    // Same replica, disk full: snapshot serving stops, entries remain.
    let _ = plan.clone().enospc_after(0);
    c.run_secs(16.0);
    assert_eq!(c.node(3).mode(), NodeMode::Degraded);
    assert!(
        c.node(3).exec.latest_snapshot().is_some(),
        "the gate, not a missing snapshot, must be what withholds it"
    );
    let degraded_resp = c
        .node(3)
        .build_sync_response(&lagging_behind(&c))
        .expect("entries must still be served");
    assert!(
        degraded_resp.snapshot.is_none(),
        "a degraded replica must not serve snapshots"
    );
    assert!(
        !degraded_resp.entries.is_empty(),
        "log entries carry their own proofs and must still be served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
