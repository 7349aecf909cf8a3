//! Epoch state transfer (§5.2.1): a transiently partitioned replica
//! fetches the log entries it missed, proves them against the stable
//! checkpoint, and rejoins the current epoch.

use ladon::types::ProtocolKind;
use ladon::workload::oracle::Violation;
use ladon::workload::{Deployment, ExperimentConfig};

/// Every `sn` below a replica's confirm frontier is either in its
/// confirm log or counted as skipped by a snapshot install — never both,
/// never neither. (Not an `oracle::check` property: a replica restarted
/// over a recovered pipeline, as in
/// `fault_matrix::crash_while_degraded_loses_only_unacknowledged_records`,
/// starts a fresh log above a prefix no install skipped.)
fn assert_every_sn_accounted_for(c: &Deployment) {
    for r in 0..c.sys.n {
        let m = &c.node(r).metrics;
        let frontier = m.confirms.last().map_or(0, |last| last.sn + 1);
        assert_eq!(
            m.confirms.len() as u64 + m.skipped_sns,
            frontier,
            "replica {r}: {} records + {} skipped != frontier {frontier}",
            m.confirms.len(),
            m.skipped_sns
        );
    }
}

/// The partitioned replica misses a window of commits (including an epoch
/// boundary), then catches up via sync and converges with the others.
#[test]
fn partitioned_replica_catches_up_via_state_transfer() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 25.0).with_partition(3, 2.0, 6.0),
    );
    c.run_secs(30.0);

    let lagger = c.node(3);
    assert!(
        lagger.metrics.sync_requests > 0,
        "the partitioned replica must detect its lag and request sync"
    );
    assert!(
        lagger.metrics.sync_installed > 0,
        "missed blocks must be installed from a peer's response"
    );
    // It rejoined the epoch schedule.
    assert_eq!(
        lagger.epoch(),
        c.node(0).epoch(),
        "the synced replica must reach the cluster's epoch"
    );
    // Its confirmed log converged: agreement at every shared sn, and its
    // frontier is near the healthy peers' (a snapshot install may leave a
    // gap in its records, but never a lagging frontier).
    c.check(&[0, 1, 2, 3]).assert_safe();
    assert_every_sn_accounted_for(&c);
    let f0 = c.confirmed_frontier(0);
    let f3 = c.confirmed_frontier(3);
    assert!(
        f3 + 16 >= f0,
        "synced replica's frontier {f3} lags a healthy peer's {f0}"
    );
}

/// A snapshot that installs while confirmed blocks sit staged or in
/// flight skips only what was never recorded: those blocks already have
/// their `ConfirmRecord`s, so `skipped_sns` is measured from the staging
/// frontier. (Measured from `applied` it over-counted by 3 / 2 / 2 on
/// these three partition windows.)
#[test]
fn skipped_sns_excludes_blocks_in_flight_at_install() {
    for (from, until) in [(4.0, 9.0), (3.0, 8.0), (5.0, 11.0)] {
        let mut c = Deployment::build(
            &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 20.0)
                .with_epoch_length(16)
                .with_partition(3, from, until),
        );
        c.run_secs(30.0);
        assert!(
            c.node(3).metrics.snapshot_installs > 0,
            "partition {from}..{until} must be repaired by snapshot"
        );
        // G-Agreement only: on the 4..9 window replica 3 checkpoints
        // epoch 2 over a shorter confirmed prefix than its peers — the
        // divergent-root defect of ROADMAP 2(c), here without message
        // loss, and the same at the parent commit.
        let verdict = c.check(&[0, 1, 2, 3]);
        assert!(
            !verdict
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Disagreement { .. })),
            "{:?}",
            verdict.violations
        );
        assert_every_sn_accounted_for(&c);
    }
}

/// Healthy clusters never send sync requests: the lag detector must not
/// misfire at ordinary epoch boundaries.
#[test]
fn no_spurious_sync_requests_when_healthy() {
    let mut c = Deployment::build(&ExperimentConfig::scenario(
        ProtocolKind::LadonPbft,
        4,
        15.0,
    ));
    c.run_secs(20.0);
    assert!(
        c.node(0).metrics.epochs.len() > 1,
        "the run must cross at least one epoch boundary to be meaningful"
    );
    let total: u64 = (0..4).map(|r| c.node(r).metrics.sync_requests).sum();
    assert_eq!(total, 0, "healthy replicas must not request state transfer");
    assert_every_sn_accounted_for(&c);
}

/// Sync also repairs a replica that missed traffic *within* one epoch
/// (no boundary crossed): the checkpoint-quorum evidence path.
#[test]
fn intra_epoch_holes_block_confirmation_until_synced() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 20.0).with_partition(1, 1.0, 3.0),
    );
    c.run_secs(25.0);
    // Replica 1's log repaired: agreement holds and it kept confirming.
    c.check(&[0, 1, 2, 3]).assert_safe();
    assert_every_sn_accounted_for(&c);
    let f0 = c.confirmed_frontier(0);
    let f1 = c.confirmed_frontier(1);
    assert!(
        f1 + 16 >= f0,
        "repaired replica's frontier {f1} lags a healthy peer's {f0}"
    );
}

/// Random 1 % message loss (the paper assumes reliable links; this is a
/// robustness check): every lost vote or proposal eventually surfaces as
/// a persistent proposal-vs-commit gap at some replica, and state
/// transfer repairs it — the cluster converges anyway.
#[test]
fn random_message_loss_repaired_by_state_transfer() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 25.0).with_loss(0.01),
    );
    c.run_secs(35.0);
    // G-Agreement only. Outside the paper's reliable-link model the
    // checkpoint roots do diverge: a replica whose intake still has holes
    // from lost messages completes the epoch (every instance reached
    // `maxRank`) and checkpoints a shorter confirmed prefix than its
    // peers. The oracle reports it; making it hold is ROADMAP direction 4.
    let verdict = c.check(&[0, 1, 2, 3]);
    let forks: Vec<_> = verdict
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::Disagreement { .. }))
        .collect();
    assert!(forks.is_empty(), "{forks:?}");
    assert_every_sn_accounted_for(&c);
    let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
    let max = *fronts.iter().max().unwrap();
    let min = *fronts.iter().min().unwrap();
    assert!(
        max > 100,
        "the run must make substantial progress: {fronts:?}"
    );
    assert!(
        min + 32 >= max,
        "all replicas must stay near the confirmed frontier: {fronts:?}"
    );
}

// ---------------------------------------------------------------------
// Delta state sync, one exchange at a time: every chunk of a response is
// verified against the quorum-proved head, and the response installs as
// a whole or leaves nothing behind — a Byzantine responder can serve a
// correct delta or nothing, and a requester crash loses nothing because
// nothing is held between responses. Driven through the real node
// request/response handlers, no network in between.
// ---------------------------------------------------------------------

use ladon::core::{MultiBftNode, NodeMsg, SyncResponse};
use ladon::sim::RecordingCtx;
use ladon::state::{ExecutionPipeline, Snapshot};
use ladon::types::ReplicaId;

/// The responder side of every exchange below: short epochs, 12 s of
/// load, run to 15 s — replica 0 holds a checkpointed snapshot.
fn checkpointed_cluster() -> Deployment {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 12.0).with_epoch_length(16),
    );
    c.run_secs(15.0);
    c
}

/// Replica 0's latest snapshot.
fn responder_snapshot(c: &Deployment) -> Snapshot {
    let snap = c.node(0).exec.latest_snapshot();
    snap.expect("responder must have checkpointed").clone()
}

/// Replica 0's answer to the request `requester` would send now, kept on
/// the snapshot path: log entries would repair the tail and move the root
/// past the snapshot's.
fn snapshot_response(c: &Deployment, requester: &MultiBftNode) -> SyncResponse {
    let mut resp = c
        .node(0)
        .build_sync_response(&requester.build_sync_request())
        .expect("a lagging requester must be served");
    assert!(resp.snapshot.is_some());
    resp.entries.clear();
    resp
}

/// The context the handlers under test run against: replica 3's, seeded.
fn direct_ctx() -> RecordingCtx<NodeMsg> {
    RecordingCtx::new(3, 7)
}

/// The replica whose responses the requester is fed (attributed, so its
/// responder health is scored like any network delivery).
const RESPONDER: ReplicaId = ReplicaId(0);

fn from_zero_node(c: &Deployment) -> MultiBftNode {
    MultiBftNode::new(c.node_config(3))
}

/// A Byzantine responder serves chunks whose payload does not match the
/// lane root it claims. The response installs nothing and nothing of it
/// is kept — the clean chunks beside the tampered ones included — its
/// sender is scored for every tampered chunk, and the next peer's honest
/// response to the *same* request installs byte-identical lane roots.
#[test]
fn tampered_response_installs_nothing_and_the_next_peer_repairs() {
    let c = checkpointed_cluster();
    let snap = responder_snapshot(&c);
    let mut requester = from_zero_node(&c);
    let mut ctx = direct_ctx();
    let req = requester.build_sync_request();
    let honest = snapshot_response(&c, &requester);
    let total = honest.chunks.len();
    assert!(total > 2, "need several chunks to corrupt some of them");

    // Tamper every other chunk's payload; lane label and claimed root
    // stay intact, so only per-chunk content verification can catch it.
    let mut byz = honest.clone();
    let mut tampered = 0;
    for chunk in byz.chunks.iter_mut().skip(1).step_by(2) {
        if let Some(e) = chunk.entries.first_mut() {
            e.1 ^= 1;
            tampered += 1;
        }
    }
    assert!(tampered > 0);
    requester.on_sync_response(RESPONDER, byz, &mut ctx);
    assert_eq!(
        requester.metrics.snapshot_installs, 0,
        "a response with a bad chunk must not install"
    );
    assert_eq!(requester.exec.applied(), 0);
    assert_eq!(requester.metrics.sync_chunks_rejected, tampered);
    assert_eq!(
        requester.metrics.sync_chunks_verified,
        total as u64 - tampered
    );
    assert_eq!(
        requester.responder_health()[RESPONDER.as_usize()].rejected_chunks,
        tampered,
        "the sender is scored for every tampered chunk"
    );
    // (Its quorum-signed checkpoint stands on its own and did move the
    // epoch; the state advertisement is what must not have moved.)
    let again = requester.build_sync_request();
    assert_eq!(
        (again.applied, &again.lane_roots),
        (req.applied, &req.lane_roots),
        "nothing of the refused response is kept: the next request \
         advertises what the first one did"
    );

    // The next peer answers the same request honestly.
    requester.on_sync_response(ReplicaId(1), honest, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(
        requester.exec.lane_roots(),
        snap.head.lane_roots,
        "delta-synced lane roots must be byte-identical to the snapshot's"
    );
    assert_eq!(requester.exec.applied(), snap.head.applied);
    assert_eq!(requester.metrics.skipped_sns, snap.head.applied);
    assert!(
        ctx.sent.is_empty(),
        "a response never triggers a request: probes are the timer's"
    );
}

/// Hostile shapes are refused where responses are handled, without a
/// panic and without touching state: a chunk that is perfectly
/// self-consistent but is not what the quorum-signed head names at its
/// lane (another state's lane, or a lane index past the vector), and a
/// head whose lane-root vector is not 64 long or whose metadata was
/// forged under the genuine checkpoint. The honest response still
/// installs afterwards.
#[test]
fn foreign_chunks_and_misshapen_heads_are_refused_at_the_handler() {
    use ladon::state::KvState;
    use ladon::types::TxOp;
    let c = checkpointed_cluster();
    let mut requester = from_zero_node(&c);
    let mut ctx = direct_ctx();
    let honest = snapshot_response(&c, &requester);
    let head = honest.snapshot.clone().expect("served with its head");

    // Chunks of some other state: each verifies on its own, none is a
    // member of this head.
    let mut other = KvState::new();
    for key in 0..256 {
        other.apply(&TxOp::Put { key, value: 7 });
    }
    let foreign = Snapshot::capture(0, 1, 1, Vec::new(), &other).chunks;
    assert!(foreign.iter().all(|c| c.verify()));
    let mut past_the_vector = honest.chunks[0].clone();
    past_the_vector.lane = 64;
    let mut resp = honest.clone();
    resp.chunks = foreign[..3].to_vec();
    resp.chunks.push(past_the_vector);
    requester.on_sync_response(RESPONDER, resp, &mut ctx);
    assert_eq!(requester.metrics.sync_chunks_rejected, 4);
    assert_eq!(requester.metrics.sync_chunks_verified, 0);

    // Heads: the wrong shape, then forged fields under the real proof.
    let forgeries: [fn(&mut ladon::state::SnapshotHead); 5] = [
        |h| h.lane_roots.truncate(63),
        |h| h.lane_roots.push(ladon::types::Digest([9; 32])),
        |h| h.applied += 1,
        |h| h.frontier[0] += 1,
        |h| h.lane_roots[5] = ladon::types::Digest([9; 32]),
    ];
    for forge in forgeries {
        let mut resp = honest.clone();
        let mut forged = head.clone();
        forge(&mut forged);
        assert!(!forged.verify());
        resp.snapshot = Some(forged);
        requester.on_sync_response(RESPONDER, resp, &mut ctx);
    }
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.exec.applied(), 0);
    assert_eq!(
        requester.responder_health()[RESPONDER.as_usize()].rejected_chunks,
        4 + 5,
        "every refusal is scored against its sender"
    );

    requester.on_sync_response(ReplicaId(1), honest, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(requester.exec.lane_roots(), head.lane_roots);
}

/// State transfer is replica-to-replica: the same genuine, quorum-proved
/// response that installs when a replica delivers it is dropped at the
/// door when it arrives from a non-replica actor (ids >= n are the
/// client fleet), leaving consensus, epoch and execution untouched.
#[test]
fn sync_response_from_a_non_replica_actor_is_dropped() {
    use ladon::sim::Actor;
    let c = checkpointed_cluster();
    let mut requester = from_zero_node(&c);
    let mut ctx = direct_ctx();
    let honest = snapshot_response(&c, &requester);

    let untouched = (requester.commit_frontier(), requester.epoch(), 0);
    requester.on_message(c.sys.n, NodeMsg::SyncResp(honest.clone().into()), &mut ctx);
    assert_eq!(
        (
            requester.commit_frontier(),
            requester.epoch(),
            requester.exec.applied()
        ),
        untouched,
        "a sync response from actor id n must not be installed"
    );
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.metrics.sync_installed, 0);
    assert!(ctx.sent.is_empty() && ctx.timers.is_empty());

    requester.on_message(0, NodeMsg::SyncResp(honest.into()), &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert!(requester.exec.applied() > 0);
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ladon-{tag}-{}", std::process::id()))
}

/// A requester that crashes between its request and the response holds
/// nothing a restart could lose: restarted from its directory it asks
/// again, installs in one handler call, and leaves a directory of
/// `snap-*.bin` and `wal/` only — from which `recover` reproduces the
/// installed position and root.
#[test]
fn requester_crash_between_request_and_response_restarts_and_installs() {
    let c = checkpointed_cluster();
    let snap = responder_snapshot(&c);
    let dir = scratch_dir("sync-crash");
    let _ = std::fs::remove_dir_all(&dir);
    let durable =
        || ExecutionPipeline::recover(&dir, c.sys.exec_keyspace).expect("durable pipeline");
    let requester = MultiBftNode::with_execution(c.node_config(3), durable());
    let req = requester.build_sync_request();
    // The request is out; the process dies before any response arrives.
    drop(requester);

    let mut requester = MultiBftNode::with_execution(c.node_config(3), durable());
    let mut ctx = direct_ctx();
    assert_eq!(
        requester.build_sync_request(),
        req,
        "the restarted requester asks for the same thing"
    );
    let resp = snapshot_response(&c, &requester);
    requester.on_sync_response(RESPONDER, resp, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(requester.exec.lane_roots(), snap.head.lane_roots);
    let installed = (requester.exec.applied(), requester.exec.state_root());
    assert_eq!(installed.0, snap.head.applied);
    drop(requester);

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "snapshot + wal/ only: {names:?}");
    assert!(names[0].starts_with("snap-") && names[0].ends_with(".bin"));
    assert_eq!(names[1], "wal");
    let recovered = durable();
    assert_eq!(recovered.snapshot_decode_failures(), 0);
    assert_eq!((recovered.applied(), recovered.state_root()), installed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The delta path at node level: a requester holding an *older,
/// non-empty* state advertises its lane roots, is served only the lanes
/// an epoch of small blocks dirtied (fewer than 64 chunks), and installs
/// in the same handler call by reusing its own unchanged lanes.
#[test]
fn stale_requester_is_served_a_partial_delta_and_reuses_its_own_lanes() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 12.0)
            .with_epoch_length(16)
            .with_batch_size(1),
    );
    c.run_secs(10.0);
    let older = responder_snapshot(&c);
    c.run_secs(15.0);
    let snap = responder_snapshot(&c);
    assert!(snap.head.applied >= older.head.applied + c.sys.snapshot_min_lag());

    let mut exec = ExecutionPipeline::in_memory(c.sys.exec_keyspace);
    assert!(exec.install_delta(&older.head, &older.chunks).is_some());
    assert!(exec.lane_roots() == older.head.lane_roots && exec.applied() > 0);
    let mut requester = MultiBftNode::with_execution(c.node_config(3), exec);
    let mut ctx = direct_ctx();
    let resp = snapshot_response(&c, &requester);
    assert_eq!(resp.snapshot.as_ref().map(|h| h.root), Some(snap.head.root));
    let shipped = resp.chunks.len() as u64;
    assert!(
        0 < shipped && shipped < 64,
        "only the dirtied lanes travel: {shipped} chunks"
    );
    requester.on_sync_response(RESPONDER, resp, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    let reused = requester.metrics.snapshot_chunks_reused;
    assert!(
        0 < reused && reused <= 64 - shipped,
        "lanes not shipped came from local state: {reused} reused, {shipped} shipped"
    );
    assert_eq!(requester.exec.lane_roots(), snap.head.lane_roots);
    assert_eq!(requester.exec.applied(), snap.head.applied);
    assert_eq!(
        requester.metrics.skipped_sns,
        snap.head.applied - older.head.applied
    );
}
