//! Epoch state transfer (§5.2.1): a transiently partitioned replica
//! fetches the log entries it missed, proves them against the stable
//! checkpoint, and rejoins the current epoch.

use ladon::types::ProtocolKind;
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

/// A snapshot that installs while confirmed blocks sit staged or in
/// flight skips only what was never recorded: those blocks already have
/// their `ConfirmRecord`s, so `skipped_sns` is measured from the
/// replica's confirm frontier (the oracle's dense-log rule checks it).
#[test]
fn skipped_sns_excludes_blocks_in_flight_at_install() {
    for (from, until) in [(6.0, 12.0), (3.0, 8.0), (5.0, 11.0)] {
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
        c.check(&[0, 1, 2, 3]).assert_safe();
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
    c.check(&[0, 1, 2, 3]).assert_safe();
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
/// transfer repairs it — the cluster converges anyway, with one state
/// root per epoch.
#[test]
fn random_message_loss_repaired_by_state_transfer() {
    let mut c = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 25.0).with_loss(0.01),
    );
    c.run_secs(35.0);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let fronts: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
    let max = *fronts.iter().max().unwrap();
    assert!(
        max > 100,
        "the run must make substantial progress: {fronts:?}"
    );
    // A replica with a hole in an epoch does not sign over it: it waits
    // at the boundary for sync, so at any instant it may trail by most
    // of an epoch. Once the load has stopped it catches up.
    c.run_secs(40.0);
    c.check(&[0, 1, 2, 3]).assert_safe();
    let later: Vec<u64> = (0..4).map(|r| c.confirmed_frontier(r)).collect();
    assert!(
        later.iter().all(|&f| f >= max),
        "every replica must catch up to the 35 s maximum {max}: {later:?}"
    );
}

// ---------------------------------------------------------------------
// Snapshot transfer, one exchange at a time: a response's snapshot is
// checked against its quorum-proved checkpoint and verified once, whole —
// head, chunk count, every lane — and installs as a whole or leaves
// nothing behind. A Byzantine responder can serve a correct snapshot or
// nothing, and a requester crash loses nothing because nothing is held
// between responses. Driven through the real node request/response
// handlers, no network in between.
// ---------------------------------------------------------------------

use ladon::core::{Input, MultiBftNode, NodeMsg, Output, SyncResponse};
use ladon::state::{ExecutionPipeline, Snapshot};
use ladon::types::{ReplicaId, TimeNs};

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

/// `resp` with its snapshot changed by `f`.
fn with_snapshot(mut resp: SyncResponse, f: impl FnOnce(&mut Snapshot)) -> SyncResponse {
    f(resp.snapshot.as_mut().expect("served with its snapshot"));
    resp
}

/// Delivers `resp` from actor `from` to `requester` through its one
/// entry point and returns what the requester asked for.
fn deliver(requester: &mut MultiBftNode, from: usize, resp: SyncResponse) -> Vec<Output> {
    let mut out = Vec::new();
    let msg = NodeMsg::SyncResp(resp.into());
    requester.step(TimeNs::ZERO, Input::Message(from, msg), &mut out);
    out
}

/// The replica whose responses the requester is fed (attributed, so its
/// responder health is scored like any network delivery).
const RESPONDER: ReplicaId = ReplicaId(0);

fn from_zero_node(c: &Deployment) -> MultiBftNode {
    MultiBftNode::new(c.node_config(3))
}

/// Refused responses scored against `RESPONDER`.
fn rejected(requester: &MultiBftNode) -> u64 {
    requester.responder_health()[RESPONDER.as_usize()].rejected
}

/// A Byzantine responder serves chunks whose payload does not match the
/// lane root it claims. The response installs nothing and nothing of it
/// is kept — the clean chunks beside the tampered ones included — its
/// sender is scored once for the refused response, and the next peer's
/// honest response to the *same* request installs byte-identical lane
/// roots.
#[test]
fn tampered_response_installs_nothing_and_the_next_peer_repairs() {
    let c = checkpointed_cluster();
    let snap = responder_snapshot(&c);
    let mut requester = from_zero_node(&c);
    let req = requester.build_sync_request();
    let honest = snapshot_response(&c, &requester);

    // Tamper every other chunk's payload; lane label and claimed root
    // stay intact, so only the chunks' content verification can catch
    // it.
    let mut tampered = 0;
    let byz = with_snapshot(honest.clone(), |s| {
        for chunk in s.chunks.iter_mut().skip(1).step_by(2) {
            if let Some(e) = chunk.entries.first_mut() {
                e.1 ^= 1;
                tampered += 1;
            }
        }
    });
    assert!(tampered > 1, "need several chunks to corrupt");
    let mut out = deliver(&mut requester, RESPONDER.as_usize(), byz);
    assert_eq!(
        requester.metrics.snapshot_installs, 0,
        "a response with a bad chunk must not install"
    );
    assert_eq!(requester.exec.applied(), 0);
    assert_eq!(requester.metrics.sync_responses_refused, 1);
    assert_eq!(
        rejected(&requester),
        1,
        "the sender is scored once for the refused response"
    );
    // (Its quorum-signed checkpoint stands on its own and did move the
    // epoch; the execution position and commit frontier must not have.)
    let again = requester.build_sync_request();
    assert_eq!(
        (again.applied, &again.frontier),
        (req.applied, &req.frontier),
        "nothing of the refused response is kept: the next request \
         asks for what the first one did"
    );

    // The next peer answers the same request honestly.
    out.extend(deliver(&mut requester, 1, honest));
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(
        requester.exec.lane_roots(),
        snap.head.lane_roots,
        "installed lane roots must be byte-identical to the snapshot's"
    );
    assert_eq!(requester.exec.applied(), snap.head.applied);
    assert_eq!(requester.metrics.skipped_sns, snap.head.applied);
    assert_eq!(requester.metrics.sync_responses_refused, 1);
    assert!(
        !out.iter()
            .any(|o| matches!(o, Output::Send(..) | Output::Broadcast(..))),
        "a response never triggers a request: probes are the timer's"
    );
}

/// Hostile shapes are refused where responses are handled, without a
/// panic and without touching state: chunks that are perfectly
/// self-consistent but are not what the quorum-signed head names at
/// their lanes (another state's lanes, or a lane index past the vector),
/// and a head whose lane-root vector is not 64 long or whose metadata
/// was forged under the genuine checkpoint. Each response is refused
/// and scored once. The honest response still installs afterwards.
#[test]
fn foreign_chunks_and_misshapen_heads_are_refused_at_the_handler() {
    use ladon::state::{KvState, SnapshotHead};
    use ladon::types::{Digest, TxOp};
    let c = checkpointed_cluster();
    let mut requester = from_zero_node(&c);
    let honest = snapshot_response(&c, &requester);
    let lane_roots = honest.snapshot.as_ref().unwrap().head.lane_roots.clone();

    // Chunks of some other state: each verifies on its own, none is a
    // member of this head.
    let mut other = KvState::new();
    for key in 0..256 {
        other.apply(&TxOp::Put { key, value: 7 });
    }
    let foreign = Snapshot::capture(0, 1, 1, Vec::new(), &other).chunks;
    assert!(foreign.iter().all(|c| c.verify()));
    let swap_foreign = with_snapshot(honest.clone(), |s| {
        s.chunks[..3].clone_from_slice(&foreign[..3]);
    });
    let past_the_vector = with_snapshot(honest.clone(), |s| s.chunks[0].lane = 64);
    for resp in [swap_foreign, past_the_vector] {
        deliver(&mut requester, RESPONDER.as_usize(), resp);
    }
    assert_eq!(requester.metrics.sync_responses_refused, 2);

    // Heads: the wrong shape, then forged fields under the real proof.
    let forgeries: [fn(&mut SnapshotHead); 5] = [
        |h| h.lane_roots.truncate(63),
        |h| h.lane_roots.push(Digest([9; 32])),
        |h| h.applied += 1,
        |h| h.frontier[0] += 1,
        |h| h.lane_roots[5] = Digest([9; 32]),
    ];
    for forge in forgeries {
        let resp = with_snapshot(honest.clone(), |s| {
            forge(&mut s.head);
            assert!(!s.head.verify());
        });
        deliver(&mut requester, RESPONDER.as_usize(), resp);
    }
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.exec.applied(), 0);
    assert_eq!(
        rejected(&requester),
        2 + 5,
        "every refusal is scored against its sender"
    );
    assert_eq!(requester.metrics.sync_responses_refused, 2 + 5);

    deliver(&mut requester, 1, honest);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    assert_eq!(requester.exec.lane_roots(), lane_roots);
}

/// A responder serves at most `SYNC_MAX_BLOCKS` entries, so a response
/// past that cap — here an honest one padded with copies of its own
/// valid entries — is refused before anything in it is verified: nothing
/// of it installs, not even its checkpoint. A snapshot of 65 chunks
/// (one lane twice) is refused by its one verification at the chunk
/// count, before any chunk is hashed. Each is scored as one refused
/// response.
#[test]
fn a_response_past_the_responders_caps_installs_nothing() {
    use ladon::core::sync::SYNC_MAX_BLOCKS;
    use ladon::crypto::CryptoCounters;
    use ladon::types::Round;
    let c = checkpointed_cluster();
    let mut requester = from_zero_node(&c);
    let honest = snapshot_response(&c, &requester);
    // Entries come in answer to a request from just behind the
    // responder's commit frontier (the rounds it still holds).
    let mut behind = requester.build_sync_request();
    behind.applied = c.node(0).exec.applied();
    behind.frontier = (c.node(0).commit_frontier().iter())
        .map(|r| Round(r.0.saturating_sub(4)))
        .collect();
    let mut entries = c.node(0).build_sync_response(&behind).expect("served");
    assert!(entries.snapshot.is_none() && !entries.entries.is_empty());
    while entries.entries.len() <= SYNC_MAX_BLOCKS {
        entries.entries.push(entries.entries[0].clone());
    }
    deliver(&mut requester, RESPONDER.as_usize(), entries);
    assert_eq!(requester.metrics.sync_installed, 0);
    assert_eq!((requester.exec.applied(), requester.epoch()), (0, 0));
    assert_eq!(rejected(&requester), 1);

    let chunks = with_snapshot(honest.clone(), |s| s.chunks.push(s.chunks[0].clone()));
    let before = CryptoCounters::snapshot();
    deliver(&mut requester, RESPONDER.as_usize(), chunks);
    let spent = CryptoCounters::snapshot().since(&before);
    assert!(
        spent.hashes < 64,
        "no chunk of a 65-chunk snapshot is hashed ({} hashes)",
        spent.hashes
    );
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.exec.applied(), 0);
    assert_eq!(rejected(&requester), 2);
    assert_eq!(requester.metrics.sync_responses_refused, 2);

    deliver(&mut requester, 1, honest);
    assert_eq!(requester.metrics.snapshot_installs, 1);
}

/// A snapshot that verifies but that the requester's pipeline declines —
/// here it names accounts past the requester's keyspace — is not
/// installed, and is not held against its sender: verification, not
/// installation, is what a responder answers for.
#[test]
fn a_verified_snapshot_the_pipeline_declines_is_not_scored_against_its_sender() {
    let c = checkpointed_cluster();
    let snap = responder_snapshot(&c);
    let keyspace = 64;
    let names_past = |s: &Snapshot| {
        s.chunks
            .iter()
            .any(|c| c.entries.iter().any(|&(k, _)| k >= keyspace))
    };
    assert!(snap.verify() && names_past(&snap));
    let mut requester =
        MultiBftNode::with_execution(c.node_config(3), ExecutionPipeline::in_memory(keyspace));
    let resp = snapshot_response(&c, &requester);
    deliver(&mut requester, RESPONDER.as_usize(), resp);
    assert_eq!(requester.metrics.snapshot_installs, 0);
    assert_eq!(requester.exec.applied(), 0);
    assert_eq!(rejected(&requester), 0);
    assert_eq!(requester.metrics.sync_responses_refused, 0);
}

/// State transfer is replica-to-replica: the same genuine, quorum-proved
/// response that installs when a replica delivers it is dropped at the
/// door when it arrives from a non-replica actor (ids >= n are the
/// client fleet), leaving consensus, epoch and execution untouched.
#[test]
fn sync_response_from_a_non_replica_actor_is_dropped() {
    let c = checkpointed_cluster();
    let mut requester = from_zero_node(&c);
    let honest = snapshot_response(&c, &requester);

    let untouched = (requester.commit_frontier(), requester.epoch(), 0);
    let out = deliver(&mut requester, c.sys.n, honest.clone());
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
    assert!(out.is_empty());

    deliver(&mut requester, 0, honest);
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
    assert_eq!(
        requester.build_sync_request(),
        req,
        "the restarted requester asks for the same thing"
    );
    let resp = snapshot_response(&c, &requester);
    deliver(&mut requester, RESPONDER.as_usize(), resp);
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
