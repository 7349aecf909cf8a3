//! Epoch state transfer (§5.2.1): a transiently partitioned replica
//! fetches the log entries it missed, proves them against the stable
//! checkpoint, and rejoins the current epoch.

use ladon::types::ProtocolKind;
use ladon::workload::oracle::Violation;
use ladon::workload::{Deployment, ExperimentConfig};

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
    let f0 = c.confirmed_frontier(0);
    let f3 = c.confirmed_frontier(3);
    assert!(
        f3 + 16 >= f0,
        "synced replica's frontier {f3} lags a healthy peer's {f0}"
    );
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
// Chunked delta state sync: per-lane chunks verify independently against
// the quorum-proved head, so a Byzantine responder corrupts at most its
// own chunks, and a crash mid-transfer loses nothing that already
// verified. Both properties are driven through the real node
// request/response handlers, no network in between.
// ---------------------------------------------------------------------

use ladon::core::{MultiBftNode, NodeConfig, NodeMsg};
use ladon::sim::{ActorId, RecordingCtx};
use ladon::state::ExecutionPipeline;
use ladon::types::ReplicaId;

/// The responder side of every exchange below: short epochs, 12 s of
/// load (run it to 15 s and replica 0 holds a checkpointed snapshot).
fn checkpointed_cluster() -> Deployment {
    Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 12.0).with_epoch_length(16),
    )
}

/// The context the handlers under test run against: replica 3's, seeded.
fn direct_ctx() -> RecordingCtx<NodeMsg> {
    RecordingCtx::new(3, 7)
}

/// Targets of the sync requests captured so far.
fn sync_req_targets(ctx: &RecordingCtx<NodeMsg>) -> Vec<ActorId> {
    ctx.sent
        .iter()
        .filter(|(_, m)| matches!(m, NodeMsg::SyncReq(_)))
        .map(|&(to, _)| to)
        .collect()
}

/// The replica whose responses the requester is fed (attributed, so its
/// responder health is scored like any network delivery).
const RESPONDER: ReplicaId = ReplicaId(0);

fn from_zero_node(c: &Deployment, sys: ladon::types::SystemConfig) -> MultiBftNode {
    MultiBftNode::new(NodeConfig {
        sys,
        ..c.node_config(3)
    })
}

/// A Byzantine responder serves chunks whose payload does not match the
/// lane root it claims. Each bad chunk is rejected individually — the
/// clean chunks from the same response stay stashed — and the retry
/// fetches only what is still missing before installing.
#[test]
fn byzantine_chunks_rejected_per_chunk_without_discarding_verified_ones() {
    let mut c = checkpointed_cluster();
    c.run_secs(15.0);
    let responder = c.node(0);
    let snap = responder
        .exec
        .latest_snapshot()
        .expect("responder must have checkpointed")
        .clone();

    let mut requester = from_zero_node(&c, c.sys.clone());
    let mut ctx = direct_ctx();
    let req = requester.build_sync_request();
    let honest = responder
        .build_sync_response(&req)
        .expect("a from-zero requester must be served");
    assert!(honest.snapshot.is_some());
    let total = honest.chunks.len();
    assert!(total > 2, "need several chunks to corrupt some of them");

    // Tamper every other chunk's payload; lane label and claimed root
    // stay intact, so only per-chunk content verification can catch it.
    let mut byz = honest.clone();
    byz.entries.clear();
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
        "an incomplete chunk set must not install"
    );
    assert_eq!(
        requester.exec.stashed_chunks().count(),
        total - tampered,
        "every clean chunk must survive the Byzantine ones' rejection"
    );
    assert_eq!(requester.exec.applied(), 0);

    // Retry with the refreshed advertisement: the responder now serves
    // only the lanes the stash does not already cover.
    let req2 = requester.build_sync_request();
    let mut resp2 = responder
        .build_sync_response(&req2)
        .expect("retry must be served");
    // Keep the exchange on the snapshot path: log entries would repair
    // the tail and move the root past the snapshot's.
    resp2.entries.clear();
    assert!(
        resp2.chunks.len() < total,
        "retry must not re-ship already-verified chunks"
    );
    for chunk in &resp2.chunks {
        assert!(
            requester.exec.stashed_chunk(&chunk.root).is_none(),
            "lane {} was already stashed yet got re-served",
            chunk.lane
        );
    }
    requester.on_sync_response(RESPONDER, resp2, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(
        requester.exec.lane_roots(),
        snap.head.lane_roots,
        "delta-synced lane roots must be byte-identical to the snapshot's"
    );
    assert_eq!(requester.exec.applied(), snap.head.applied);
    assert_eq!(
        requester.exec.stashed_chunks().count(),
        0,
        "the stash must be cleared once the install lands"
    );
    assert_eq!(requester.metrics.skipped_sns, snap.head.applied);
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
    use ladon::state::{KvState, Snapshot};
    use ladon::types::TxOp;
    let mut c = checkpointed_cluster();
    c.run_secs(15.0);
    let mut requester = from_zero_node(&c, c.sys.clone());
    let mut ctx = direct_ctx();
    let mut honest = c
        .node(0)
        .build_sync_response(&requester.build_sync_request())
        .expect("a from-zero requester must be served");
    honest.entries.clear();
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
    resp.chunks_remaining = 0;
    requester.on_sync_response(RESPONDER, resp, &mut ctx);
    assert_eq!(requester.metrics.sync_chunks_rejected, 4);
    assert_eq!(requester.metrics.sync_chunks_verified, 0);
    assert_eq!(requester.exec.stashed_chunks().count(), 0);

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
    assert_eq!(requester.exec.stashed_chunks().count(), 0);
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
    let mut c = checkpointed_cluster();
    c.run_secs(15.0);
    let mut requester = from_zero_node(&c, c.sys.clone());
    let mut ctx = direct_ctx();
    let honest = c
        .node(0)
        .build_sync_response(&requester.build_sync_request())
        .expect("a from-zero requester must be served");
    assert!(honest.snapshot.is_some());

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

/// Capped transfers resume: a response carrying `chunks_remaining > 0`
/// triggers an immediate follow-up request with an advanced cursor, and
/// round-robin targeting rotates the follow-ups across peers — a
/// responder that keeps serving garbage is simply left behind.
#[test]
fn partial_chunk_responses_trigger_cursor_resume_and_peer_rotation() {
    let mut c = checkpointed_cluster();
    c.run_secs(15.0);
    let responder = c.node(0);
    assert!(responder.exec.latest_snapshot().is_some());

    let mut sys = c.sys.clone();
    sys.sync_chunks_per_response = 8;
    let mut requester = from_zero_node(&c, sys);
    let mut ctx = direct_ctx();
    let req = requester.build_sync_request();
    assert_eq!(req.chunk_cursor, 0);
    let full = responder.build_sync_response(&req).expect("served");
    assert!(full.chunks.len() > 2);

    // Simulate a capped responder: ship one chunk, declare the rest
    // outstanding.
    let mut partial = full.clone();
    partial.entries.clear();
    let rest = partial.chunks.split_off(1);
    partial.chunks_remaining = rest.len() as u32;
    requester.on_sync_response(RESPONDER, partial, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.exec.stashed_chunks().count(), 1);
    let targets = sync_req_targets(&ctx);
    assert_eq!(
        targets.len(),
        1,
        "a partial response must trigger an immediate follow-up request"
    );
    let NodeMsg::SyncReq(follow_up) = &ctx.sent[0].1 else {
        panic!("captured message must be the follow-up request");
    };
    assert_eq!(
        follow_up.chunk_cursor, 8,
        "the follow-up must resume past the served window (cursor += cap)"
    );

    // A second partial response: the next follow-up rotates to another
    // peer.
    let mut partial2 = full.clone();
    partial2.entries.clear();
    partial2.chunks = rest[..1].to_vec();
    partial2.chunks_remaining = (rest.len() - 1) as u32;
    requester.on_sync_response(RESPONDER, partial2, &mut ctx);
    assert_eq!(requester.exec.stashed_chunks().count(), 2);
    let targets = sync_req_targets(&ctx);
    assert_eq!(targets.len(), 2);
    assert_ne!(
        targets[0], targets[1],
        "follow-up requests must rotate round-robin across peers"
    );
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ladon-{tag}-{}", std::process::id()))
}

/// Crash in the middle of a chunked install: verified chunks persist in
/// the content-addressed stash, a restarted process reloads and
/// re-verifies them, and the resumed transfer fetches only the missing
/// lanes; the delta-synced lane roots must be byte-identical to the
/// responder's snapshot's.
#[test]
fn interrupted_chunked_install_resumes_from_stash() {
    let mut c = checkpointed_cluster();
    c.run_secs(15.0);
    let responder = c.node(0);
    let snap = responder
        .exec
        .latest_snapshot()
        .expect("responder must have checkpointed")
        .clone();

    let dir = scratch_dir("chunk-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let exec = ExecutionPipeline::recover(&dir, c.sys.exec_keyspace).expect("durable pipeline");
    let mut requester = MultiBftNode::with_execution(c.node_config(3), exec);
    let mut ctx = direct_ctx();

    let req = requester.build_sync_request();
    let full = responder.build_sync_response(&req).expect("served");
    let total = full.chunks.len();
    assert!(total > 2);

    // Half the chunks arrive, then the process dies.
    let keep = total / 2;
    let mut partial = full.clone();
    partial.entries.clear();
    partial.chunks.truncate(keep);
    partial.chunks_remaining = (total - keep) as u32;
    requester.on_sync_response(RESPONDER, partial, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.exec.stashed_chunks().count(), keep);
    drop(requester);

    // Restart from the same directory: the stash is reloaded from its
    // content-addressed files and re-verified, nothing decode-failed.
    let exec =
        ExecutionPipeline::recover(&dir, c.sys.exec_keyspace).expect("recovery must succeed");
    assert_eq!(
        exec.stashed_chunks().count(),
        keep,
        "verified chunks must survive the crash"
    );
    assert_eq!(exec.snapshot_decode_failures(), 0);
    let mut requester = MultiBftNode::with_execution(c.node_config(3), exec);

    // Resume: only the missing chunks travel.
    let req2 = requester.build_sync_request();
    let mut resp2 = responder.build_sync_response(&req2).expect("served");
    // Snapshot path only: log entries would execute the tail and move
    // the root past the snapshot's.
    resp2.entries.clear();
    assert_eq!(
        resp2.chunks.len(),
        total - keep,
        "the resumed transfer must fetch only missing chunks"
    );
    for chunk in &resp2.chunks {
        assert!(requester.exec.stashed_chunk(&chunk.root).is_none());
    }
    requester.on_sync_response(RESPONDER, resp2, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(
        requester.exec.lane_roots(),
        snap.head.lane_roots,
        "resumed delta install must reproduce the \
         snapshot's lane roots byte-identically"
    );
    assert_eq!(requester.exec.stashed_chunks().count(), 0);
    drop(requester);
    let _ = std::fs::remove_dir_all(&dir);
}
