//! The epoch pacemaker (§5.2.1), extended with execution state roots.
//!
//! Ladon proceeds in epochs of `l(e)` ranks. An epoch ends when every
//! instance has partially committed its `maxRank(e)` block; replicas then
//! broadcast a checkpoint message, and a quorum of `2f + 1` checkpoint
//! messages forms a *stable checkpoint* that lets the replica move to
//! epoch `e + 1` (installing the next rank range in every instance and
//! rotating the transaction buckets).
//!
//! On top of the paper's rank-marker checkpoints, every checkpoint message
//! here carries the **execution state root** — the snapshot *manifest
//! root* covering the replica's KV state after applying every block of
//! the completed epoch in confirmed global order, together with the
//! snapshot's execution position and consensus frontier (see
//! `ladon-state`: the signature must cover every snapshot field an
//! installer acts on, or a Byzantine sync responder could splice forged
//! metadata onto genuine state). When an epoch completes, all of its
//! blocks are globally confirmed (every instance's tip sits at
//! `maxRank(e)`, so the confirmation bar has passed the whole epoch), and
//! execution is deterministic, so honest replicas sign identical roots: a
//! stable checkpoint attests to *state*, not just ranks. Votes are
//! therefore grouped by `(epoch, root)`; a quorum forming on a root
//! different from our own is recorded as a root conflict instead of an
//! advance — divergence must never be papered over.

use ladon_crypto::keys::Signer;
use ladon_crypto::{AggregateSignature, KeyRegistry, Signature};
use ladon_types::{sizes, Digest, Epoch, Rank, ReplicaId, SystemConfig, WireSize};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Signing domain for checkpoint messages.
pub const DOMAIN_CHECKPOINT: &[u8] = b"ladon/checkpoint";

/// The signed payload of a checkpoint: epoch number ‖ state root.
fn checkpoint_payload(epoch: Epoch, root: &Digest) -> [u8; 40] {
    let mut b = [0u8; 40];
    b[..8].copy_from_slice(&epoch.0.to_le_bytes());
    b[8..].copy_from_slice(&root.0);
    b
}

/// A checkpoint message: "I have partially committed the `maxRank(e)`
/// block of every instance in epoch `e`, and executing the epoch left my
/// state machine at `state_root`".
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CheckpointMsg {
    /// The completed epoch.
    pub epoch: Epoch,
    /// Execution state root after the epoch's confirmed blocks: the
    /// snapshot manifest root, covering the KV contents *and* the
    /// snapshot's `applied`/`frontier`/`executed_txs` metadata.
    pub state_root: Digest,
    /// Sender signature over `epoch ‖ state_root`.
    pub sig: Signature,
}

impl CheckpointMsg {
    /// Signs a checkpoint for `epoch` at `state_root`.
    pub fn sign(signer: &Signer, epoch: Epoch, state_root: Digest) -> Self {
        Self {
            epoch,
            state_root,
            sig: Signature::sign(
                signer,
                DOMAIN_CHECKPOINT,
                &checkpoint_payload(epoch, &state_root),
            ),
        }
    }

    /// Verifies the signature.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        self.sig.verify(
            registry,
            DOMAIN_CHECKPOINT,
            &checkpoint_payload(self.epoch, &self.state_root),
        )
    }
}

impl WireSize for CheckpointMsg {
    fn wire_size(&self) -> u64 {
        8 + sizes::DIGEST + sizes::SIGNATURE + sizes::IDENTITY
    }
}

/// A *stable checkpoint*: `2f + 1` aggregated checkpoint signatures over
/// the same `(epoch, state_root)` (§5.2.1). Lagging replicas receive it
/// with fetched log entries — or a state snapshot whose root it
/// authenticates — as the proof that the epoch legitimately completed.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StableCheckpoint {
    /// The completed epoch.
    pub epoch: Epoch,
    /// The quorum-agreed execution state root.
    pub state_root: Digest,
    /// Aggregate of at least `2f + 1` checkpoint signatures.
    pub agg: AggregateSignature,
}

impl StableCheckpoint {
    /// Verifies quorum and every constituent signature.
    pub fn verify(&self, registry: &KeyRegistry, quorum: usize) -> bool {
        self.agg.has_quorum(quorum)
            && self.agg.verify(
                registry,
                DOMAIN_CHECKPOINT,
                &checkpoint_payload(self.epoch, &self.state_root),
            )
    }
}

impl WireSize for StableCheckpoint {
    fn wire_size(&self) -> u64 {
        8 + sizes::DIGEST + self.agg.wire_size()
    }
}

/// What the pacemaker asks the node to do.
#[derive(Clone, Debug, PartialEq)]
pub enum EpochEvent {
    /// A stable checkpoint formed: advance to the new epoch with the given
    /// rank range.
    Advance {
        /// The new epoch.
        epoch: Epoch,
        /// `minRank(e)`.
        min: Rank,
        /// `maxRank(e)`.
        max: Rank,
    },
}

/// The per-replica epoch pacemaker.
pub struct EpochPacemaker {
    epoch: Epoch,
    sys: SystemConfig,
    /// Instances that committed their `maxRank(e)` block this epoch.
    reached: BTreeSet<usize>,
    /// Checkpoint votes per epoch: signer → (claimed root, signature).
    /// Retained for one completed epoch so stable checkpoints can be
    /// served to lagging replicas (§5.2.1).
    votes: BTreeMap<Epoch, BTreeMap<ReplicaId, (Digest, Signature)>>,
    /// Stable checkpoints received whole via state transfer, applied once
    /// we finish the epoch locally (peers moved on and will not re-send
    /// their individual checkpoint votes).
    pending_stable: BTreeMap<Epoch, StableCheckpoint>,
    /// The current epoch completed locally and its checkpoint was made
    /// ([`Self::make_checkpoint`]) or abstained from ([`Self::abstain`]).
    sent_checkpoint: bool,
    /// The root we signed for the current epoch (set by
    /// [`Self::make_checkpoint`]; stays `None` after [`Self::abstain`]).
    my_root: Option<Digest>,
    /// Checkpoint quorums observed on a root different from ours —
    /// execution divergence, surfaced instead of advanced past. Counted
    /// once per epoch however many messages re-confirm it.
    pub root_conflicts: u64,
    /// Epochs whose divergent quorum has already been counted.
    conflicted: BTreeSet<Epoch>,
}

impl EpochPacemaker {
    /// Builds the pacemaker from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self {
            epoch: Epoch(0),
            sys: cfg.clone(),
            reached: BTreeSet::new(),
            votes: BTreeMap::new(),
            pending_stable: BTreeMap::new(),
            sent_checkpoint: false,
            my_root: None,
            root_conflicts: 0,
            conflicted: BTreeSet::new(),
        }
    }

    /// The stable checkpoint of `epoch`, if this replica holds a quorum of
    /// matching-root checkpoint signatures (the current and previous
    /// epochs are retained).
    pub fn stable_checkpoint(&self, epoch: Epoch) -> Option<StableCheckpoint> {
        if let Some(votes) = self.votes.get(&epoch) {
            if let Some((root, shares)) = self.quorum_group(votes) {
                if let Some(agg) = AggregateSignature::aggregate(&shares, self.sys.n) {
                    return Some(StableCheckpoint {
                        epoch,
                        state_root: root,
                        agg,
                    });
                }
            }
        }
        // A replica that itself advanced via state transfer serves the
        // checkpoint it received rather than one built from votes.
        self.pending_stable.get(&epoch).cloned()
    }

    /// The root group holding ≥ quorum votes, with `quorum` of its
    /// signatures (votes are honest-majority: at most one group can reach
    /// quorum).
    fn quorum_group(
        &self,
        votes: &BTreeMap<ReplicaId, (Digest, Signature)>,
    ) -> Option<(Digest, Vec<Signature>)> {
        let quorum = self.sys.quorum();
        let mut by_root: BTreeMap<Digest, Vec<Signature>> = BTreeMap::new();
        for (root, sig) in votes.values() {
            by_root.entry(*root).or_default().push(*sig);
        }
        by_root.into_iter().find_map(|(root, sigs)| {
            (sigs.len() >= quorum).then(|| (root, sigs[..quorum].to_vec()))
        })
    }

    /// Whether a checkpoint quorum exists for an epoch we have not
    /// finished ourselves — evidence that the system completed an epoch
    /// without us and we should fetch the missing log entries (§5.2.1).
    pub fn lag_evidence(&self) -> bool {
        self.votes.iter().any(|(e, v)| {
            self.quorum_group(v).is_some()
                && (*e > self.epoch || (*e == self.epoch && !self.sent_checkpoint))
        })
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// `maxRank` of the current epoch.
    pub fn max_rank(&self) -> Rank {
        self.sys.rank_range(self.epoch).1
    }

    /// Notifies the pacemaker that `instance` partially committed a block
    /// with `rank`. Returns `true` once all `m` instances have reached
    /// `maxRank(e)`, and keeps returning it on every later commit until
    /// the epoch is closed: the node must close it in the same handler —
    /// compute its execution state root and call
    /// [`Self::make_checkpoint`], or call [`Self::abstain`] — because a
    /// checkpoint taken any later covers a state past the epoch boundary.
    pub fn on_commit(&mut self, instance: usize, rank: Rank) -> bool {
        if rank == self.max_rank() {
            self.reached.insert(instance);
        }
        !self.sent_checkpoint && self.reached.len() == self.sys.m
    }

    /// Builds (and records) our checkpoint for the completed epoch at the
    /// given execution state root. Call once, after [`Self::on_commit`]
    /// returned `true`.
    pub fn make_checkpoint(&mut self, signer: &Signer, state_root: Digest) -> CheckpointMsg {
        debug_assert!(!self.sent_checkpoint, "checkpoint already sent this epoch");
        self.sent_checkpoint = true;
        self.my_root = Some(state_root);
        let msg = CheckpointMsg::sign(signer, self.epoch, state_root);
        // Our own vote counts.
        self.votes
            .entry(self.epoch)
            .or_default()
            .insert(signer.replica, (state_root, msg.sig));
        msg
    }

    /// Closes the completed epoch **without** a checkpoint of our own:
    /// nothing is signed or sent, and the epoch advances on the peers'
    /// 2f+1 matching-root quorum alone — at once when the votes already
    /// collected (or a stashed stable checkpoint) prove it, otherwise on
    /// a later [`Self::on_checkpoint`] / [`Self::on_stable_checkpoint`].
    /// For a replica that may not checkpoint when the epoch completes
    /// (its durable path is failing); call in place of
    /// [`Self::make_checkpoint`], after [`Self::on_commit`] returned
    /// `true`. With no root of our own there is nothing to compare the
    /// quorum's against, so no conflict can be counted.
    pub fn abstain(&mut self) -> Option<EpochEvent> {
        debug_assert!(!self.sent_checkpoint, "epoch already closed");
        self.sent_checkpoint = true;
        let voted = self.votes.get(&self.epoch);
        if voted.is_some_and(|v| self.quorum_group(v).is_some()) {
            return Some(self.advance_to_next());
        }
        self.try_pending_advance()
    }

    /// Whether a quorum's root is one we can advance on: the root we
    /// signed, or any root when we abstained.
    fn agrees_with(&self, root: Digest) -> bool {
        self.my_root.is_none_or(|mine| mine == root)
    }

    /// Handles a checkpoint message from `from`. Returns the advance event
    /// when the stable checkpoint (2f+1 matching-root votes) forms.
    pub fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        msg: &CheckpointMsg,
        registry: &KeyRegistry,
    ) -> Option<EpochEvent> {
        if msg.epoch < self.epoch || from != msg.sig.signer() || !msg.verify(registry) {
            return None;
        }
        let votes = self.votes.entry(msg.epoch).or_default();
        votes.insert(from, (msg.state_root, msg.sig));
        if msg.epoch == self.epoch && self.sent_checkpoint {
            if let Some((root, _)) = self.quorum_group(&self.votes[&self.epoch]) {
                if self.agrees_with(root) {
                    return Some(self.advance_to_next());
                }
                // A quorum agreed on a root we did not execute: divergence.
                self.note_conflict(msg.epoch);
            }
        }
        None
    }

    /// Accepts a whole stable checkpoint learned via state transfer.
    /// Returns the advance event when it completes the current epoch (we
    /// must still have finished the epoch locally first, with a matching
    /// root).
    pub fn on_stable_checkpoint(
        &mut self,
        sc: &StableCheckpoint,
        registry: &KeyRegistry,
    ) -> Option<EpochEvent> {
        if sc.epoch < self.epoch || !sc.verify(registry, self.sys.quorum()) {
            return None;
        }
        if sc.epoch == self.epoch && self.sent_checkpoint {
            if self.agrees_with(sc.state_root) {
                return Some(self.advance_to_next());
            }
            self.note_conflict(sc.epoch);
            return None;
        }
        self.pending_stable.insert(sc.epoch, sc.clone());
        None
    }

    /// Applies a stashed stable checkpoint once the local epoch completes
    /// (call after [`Self::make_checkpoint`]). A stashed checkpoint whose
    /// root contradicts the one we signed is a conflict, not an advance.
    pub fn try_pending_advance(&mut self) -> Option<EpochEvent> {
        if !self.sent_checkpoint {
            return None;
        }
        if let Some(sc) = self.pending_stable.get(&self.epoch) {
            if self.agrees_with(sc.state_root) {
                return Some(self.advance_to_next());
            }
            let epoch = sc.epoch;
            self.note_conflict(epoch);
        }
        None
    }

    /// Fast-forwards past epochs covered by an installed execution
    /// snapshot: a verified stable checkpoint for `sc.epoch ≥ current`
    /// moves the pacemaker directly into `sc.epoch + 1`. The caller must
    /// only invoke this after installing the snapshot the checkpoint
    /// authenticates — the snapshot supplies the state those epochs would
    /// have produced, so completing them locally is unnecessary (and, for
    /// a restarted replica whose peers pruned the old checkpoints,
    /// impossible).
    pub fn fast_forward(
        &mut self,
        sc: &StableCheckpoint,
        registry: &KeyRegistry,
    ) -> Option<EpochEvent> {
        if sc.epoch < self.epoch || !sc.verify(registry, self.sys.quorum()) {
            return None;
        }
        let next = Epoch(sc.epoch.0 + 1);
        let (min, max) = self.sys.rank_range(next);
        self.epoch = next;
        self.reached.clear();
        self.sent_checkpoint = false;
        self.my_root = None;
        self.votes.retain(|e, _| e.0 + 1 >= next.0);
        self.pending_stable.retain(|e, _| e.0 + 1 >= next.0);
        // Keep the checkpoint: we can serve it onward to other laggers.
        self.pending_stable.insert(sc.epoch, sc.clone());
        Some(EpochEvent::Advance {
            epoch: next,
            min,
            max,
        })
    }

    /// Records a divergent quorum for `epoch`, once.
    fn note_conflict(&mut self, epoch: Epoch) {
        if self.conflicted.insert(epoch) {
            self.root_conflicts += 1;
        }
    }

    fn advance_to_next(&mut self) -> EpochEvent {
        let next = self.epoch.next();
        let (min, max) = self.sys.rank_range(next);
        self.epoch = next;
        self.reached.clear();
        self.sent_checkpoint = false;
        self.my_root = None;
        // Keep the just-completed epoch's signatures: its stable
        // checkpoint is what we serve to lagging replicas.
        self.votes.retain(|e, _| e.0 + 1 >= next.0);
        self.pending_stable.retain(|e, _| e.0 + 1 >= next.0);
        EpochEvent::Advance {
            epoch: next,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::NetEnv;

    /// The deterministic "every honest replica executed the same epoch"
    /// root used throughout these tests.
    fn root() -> Digest {
        Digest([0xe1; 32])
    }

    fn other_root() -> Digest {
        Digest([0x5e; 32])
    }

    fn setup(m: usize) -> (EpochPacemaker, KeyRegistry) {
        let mut cfg = SystemConfig::paper_default(4, NetEnv::Lan);
        cfg.m = m;
        cfg.epoch_length = 8;
        (EpochPacemaker::new(&cfg), KeyRegistry::generate(4, 1, 3))
    }

    /// Commits `maxRank` on every instance: the epoch is complete and
    /// waits to be closed.
    fn reach_max_everywhere(p: &mut EpochPacemaker) {
        let max = p.max_rank();
        for i in 0..p.sys.m {
            p.on_commit(i, max);
        }
        assert!(p.on_commit(0, max), "still open: re-signalled until closed");
    }

    /// Drives `p` through local epoch completion: commits `maxRank` on all
    /// `m` instances and makes the checkpoint at `root()`.
    fn complete_epoch(p: &mut EpochPacemaker, reg: &KeyRegistry, me: u32) -> CheckpointMsg {
        reach_max_everywhere(p);
        p.make_checkpoint(&reg.signer(ReplicaId(me)), root())
    }

    #[test]
    fn checkpoint_after_all_instances_reach_max() {
        let (mut p, reg) = setup(2);
        assert_eq!(p.max_rank(), Rank(7));
        assert!(!p.on_commit(0, Rank(5)));
        assert!(!p.on_commit(0, Rank(7)));
        // Second instance reaches maxRank: epoch ready.
        assert!(p.on_commit(1, Rank(7)));
        let msg = p.make_checkpoint(&reg.signer(ReplicaId(0)), root());
        assert_eq!(msg.epoch, Epoch(0));
        assert_eq!(msg.state_root, root());
        assert!(msg.verify(&reg));
        // Not re-signalled once sent.
        assert!(!p.on_commit(0, Rank(7)));
    }

    #[test]
    fn stable_checkpoint_advances_epoch() {
        let (mut p, reg) = setup(1);
        complete_epoch(&mut p, &reg, 0);
        // Two more matching votes (quorum = 3 for n = 4).
        let m1 = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        assert!(p.on_checkpoint(ReplicaId(1), &m1, &reg).is_none());
        let m2 = CheckpointMsg::sign(&reg.signer(ReplicaId(2)), Epoch(0), root());
        let adv = p.on_checkpoint(ReplicaId(2), &m2, &reg);
        match adv {
            Some(EpochEvent::Advance { epoch, min, max }) => {
                assert_eq!(epoch, Epoch(1));
                assert_eq!(min, Rank(8));
                assert_eq!(max, Rank(15));
            }
            other => panic!("expected advance, got {other:?}"),
        }
        assert_eq!(p.epoch(), Epoch(1));
        assert_eq!(p.root_conflicts, 0);
    }

    #[test]
    fn mismatched_roots_do_not_advance() {
        // Two peers vote a different root than ours: their group reaches
        // quorum only with a third vote; ours never does. The conflict is
        // surfaced, the epoch does not advance on their root.
        let (mut p, reg) = setup(1);
        complete_epoch(&mut p, &reg, 0);
        for r in 1..=2u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), other_root());
            assert!(p.on_checkpoint(ReplicaId(r), &m, &reg).is_none());
        }
        assert_eq!(p.epoch(), Epoch(0));
        assert_eq!(p.root_conflicts, 0, "no quorum on either root yet");
        let m = CheckpointMsg::sign(&reg.signer(ReplicaId(3)), Epoch(0), other_root());
        assert!(p.on_checkpoint(ReplicaId(3), &m, &reg).is_none());
        assert_eq!(p.epoch(), Epoch(0), "divergent quorum must not advance us");
        assert_eq!(p.root_conflicts, 1);
        // Re-confirming messages for the same divergence do not inflate
        // the incident count.
        let again = CheckpointMsg::sign(&reg.signer(ReplicaId(3)), Epoch(0), other_root());
        assert!(p.on_checkpoint(ReplicaId(3), &again, &reg).is_none());
        assert_eq!(p.root_conflicts, 1);
    }

    #[test]
    fn forged_checkpoint_rejected() {
        let (mut p, reg) = setup(1);
        complete_epoch(&mut p, &reg, 0);
        // Signature from replica 1 but claimed from replica 2.
        let forged = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        assert!(p.on_checkpoint(ReplicaId(2), &forged, &reg).is_none());
        // Tampered root after signing.
        let mut tampered = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        tampered.state_root = other_root();
        assert!(!tampered.verify(&reg));
        assert!(p.on_checkpoint(ReplicaId(1), &tampered, &reg).is_none());
    }

    #[test]
    fn early_checkpoints_buffer_until_local_completion() {
        // Peers may finish the epoch before us; their votes accumulate but
        // we only advance once we have also sent our checkpoint.
        let (mut p, reg) = setup(1);
        for r in 1..=3u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            assert!(p.on_checkpoint(ReplicaId(r), &m, &reg).is_none());
        }
        // Now we finish locally; the next checkpoint (any, even a
        // duplicate) completes it.
        complete_epoch(&mut p, &reg, 0);
        let m = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        let adv = p.on_checkpoint(ReplicaId(1), &m, &reg);
        assert!(matches!(adv, Some(EpochEvent::Advance { .. })));
    }

    #[test]
    fn stable_checkpoint_built_and_verifies_after_quorum() {
        let (mut p, reg) = setup(1);
        assert!(p.stable_checkpoint(Epoch(0)).is_none());
        complete_epoch(&mut p, &reg, 0);
        for r in 1..=2u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            p.on_checkpoint(ReplicaId(r), &m, &reg);
        }
        // Advanced to epoch 1; epoch 0's stable checkpoint is retained.
        assert_eq!(p.epoch(), Epoch(1));
        let sc = p.stable_checkpoint(Epoch(0)).expect("retained");
        assert_eq!(sc.state_root, root());
        assert!(sc.verify(&reg, 3));
        assert!(!sc.verify(&reg, 4), "quorum threshold enforced");
    }

    #[test]
    fn lag_evidence_when_quorum_finished_without_us() {
        let (mut p, reg) = setup(1);
        assert!(!p.lag_evidence());
        // Three peers checkpoint epoch 0 while we never committed maxRank.
        for r in 1..=3u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            p.on_checkpoint(ReplicaId(r), &m, &reg);
        }
        assert!(p.lag_evidence(), "quorum completed an epoch we did not");
        // Once we complete it ourselves the evidence clears (we advance).
        complete_epoch(&mut p, &reg, 0);
        let m = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        p.on_checkpoint(ReplicaId(1), &m, &reg);
        assert_eq!(p.epoch(), Epoch(1));
        assert!(!p.lag_evidence());
    }

    #[test]
    fn fetched_stable_checkpoint_advances_once_locally_complete() {
        // A synced replica holds a whole stable checkpoint but has not
        // finished the epoch: the checkpoint is stashed, and applies the
        // moment the local commits reach maxRank with a matching root.
        let (mut p, reg) = setup(1);
        let (mut donor, _) = setup(1);
        complete_epoch(&mut donor, &reg, 1);
        for r in 2..=3u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            donor.on_checkpoint(ReplicaId(r), &m, &reg);
        }
        let sc = donor.stable_checkpoint(Epoch(0)).expect("donor quorum");
        assert_eq!(sc.state_root, root());

        // Receiving it early: stashed, no advance.
        assert!(p.on_stable_checkpoint(&sc, &reg).is_none());
        assert_eq!(p.epoch(), Epoch(0));
        // Local completion with the same root: the stash applies.
        complete_epoch(&mut p, &reg, 0);
        let adv = p.try_pending_advance();
        assert!(matches!(adv, Some(EpochEvent::Advance { .. })));
        assert_eq!(p.epoch(), Epoch(1));
        // The replica that advanced via a fetched checkpoint can serve it
        // onward (it never saw the individual votes).
        let served = p.stable_checkpoint(Epoch(0)).expect("served from stash");
        assert!(served.verify(&reg, 3));
    }

    #[test]
    fn tampered_stable_checkpoint_rejected() {
        let (mut p, reg) = setup(1);
        let (mut donor, _) = setup(1);
        complete_epoch(&mut donor, &reg, 1);
        for r in 2..=3u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            donor.on_checkpoint(ReplicaId(r), &m, &reg);
        }
        let good = donor.stable_checkpoint(Epoch(0)).expect("donor quorum");
        let mut bad_epoch = good.clone();
        bad_epoch.epoch = Epoch(1); // signatures no longer cover the epoch
        assert!(p.on_stable_checkpoint(&bad_epoch, &reg).is_none());
        assert!(
            p.stable_checkpoint(Epoch(1)).is_none(),
            "a forged checkpoint must not be stashed"
        );
        let mut bad_root = good;
        bad_root.state_root = other_root(); // root swap breaks signatures
        assert!(p.on_stable_checkpoint(&bad_root, &reg).is_none());
    }

    #[test]
    fn abstaining_with_the_quorum_already_collected_advances_at_once() {
        let (mut p, reg) = setup(1);
        for r in 1..=3u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            assert!(p.on_checkpoint(ReplicaId(r), &m, &reg).is_none());
        }
        reach_max_everywhere(&mut p);
        let adv = p.abstain();
        assert!(matches!(
            adv,
            Some(EpochEvent::Advance {
                epoch: Epoch(1),
                ..
            })
        ));
        assert_eq!(p.root_conflicts, 0);
        // The peers' quorum is retained and served onward; our own
        // signature is not in it.
        let sc = p
            .stable_checkpoint(Epoch(0))
            .expect("peers' quorum retained");
        assert!(sc.verify(&reg, 3));
        assert_eq!(sc.state_root, root());
        // The next epoch opens like any other.
        assert!(!p.on_commit(0, Rank(9)));
    }

    #[test]
    fn abstaining_before_the_quorum_advances_when_it_arrives() {
        let (mut p, reg) = setup(1);
        reach_max_everywhere(&mut p);
        assert!(p.abstain().is_none(), "no quorum yet");
        assert!(!p.on_commit(0, p.max_rank()), "closed: not re-signalled");
        assert!(!p.lag_evidence());
        for r in 1..=2u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            assert!(p.on_checkpoint(ReplicaId(r), &m, &reg).is_none());
        }
        let m = CheckpointMsg::sign(&reg.signer(ReplicaId(3)), Epoch(0), root());
        let adv = p.on_checkpoint(ReplicaId(3), &m, &reg);
        assert!(matches!(
            adv,
            Some(EpochEvent::Advance {
                epoch: Epoch(1),
                ..
            })
        ));
        assert_eq!(p.root_conflicts, 0);

        // The same through a whole stable checkpoint learned via sync.
        let (mut q, _) = setup(1);
        reach_max_everywhere(&mut q);
        assert!(q.abstain().is_none());
        let sc = p.stable_checkpoint(Epoch(0)).expect("quorum");
        let adv = q.on_stable_checkpoint(&sc, &reg);
        assert!(matches!(
            adv,
            Some(EpochEvent::Advance {
                epoch: Epoch(1),
                ..
            })
        ));

        // And when that checkpoint was stashed before the epoch closed.
        let (mut q, _) = setup(1);
        assert!(q.on_stable_checkpoint(&sc, &reg).is_none());
        reach_max_everywhere(&mut q);
        let adv = q.abstain();
        assert!(matches!(
            adv,
            Some(EpochEvent::Advance {
                epoch: Epoch(1),
                ..
            })
        ));
    }

    #[test]
    fn abstaining_never_advances_or_conflicts_on_split_roots() {
        // Peers disagree among themselves and no root reaches quorum:
        // an abstainer has no root to side with, so it waits — and has
        // nothing of its own a quorum could contradict.
        let (mut p, reg) = setup(1);
        reach_max_everywhere(&mut p);
        assert!(p.abstain().is_none());
        for (r, claimed) in [(1u32, root()), (2, other_root()), (3, root())] {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), claimed);
            assert!(p.on_checkpoint(ReplicaId(r), &m, &reg).is_none());
        }
        assert_eq!(p.epoch(), Epoch(0), "2 + 1 split votes are no quorum of 3");
        assert_eq!(p.root_conflicts, 0);
        assert!(p.stable_checkpoint(Epoch(0)).is_none());
    }

    #[test]
    fn stale_epoch_checkpoints_ignored() {
        let (mut p, reg) = setup(1);
        complete_epoch(&mut p, &reg, 0);
        for r in 1..=2u32 {
            let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(0), root());
            p.on_checkpoint(ReplicaId(r), &m, &reg);
        }
        assert_eq!(p.epoch(), Epoch(1));
        let stale = CheckpointMsg::sign(&reg.signer(ReplicaId(3)), Epoch(0), root());
        assert!(p.on_checkpoint(ReplicaId(3), &stale, &reg).is_none());
    }
}
