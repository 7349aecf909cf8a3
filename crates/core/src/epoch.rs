//! The epoch pacemaker (§5.2.1), extended with execution state roots.
//!
//! Ladon proceeds in epochs of `l(e)` ranks. An epoch ends when every
//! instance has partially committed its `maxRank(e)` block — the global
//! orderer decides that ([`crate::LadonOrderer::epoch_frontier`]), not
//! this module; replicas then broadcast a checkpoint message, and a
//! quorum of `2f + 1` checkpoint messages forms a *stable checkpoint*
//! that lets the replica move to epoch `e + 1` (installing the next rank
//! range in every instance and rotating the transaction buckets).
//!
//! Every replica runs the pacemaker, whatever its protocol. Under ISS,
//! RCC, Mir and ISS-HotStuff a block ranks at its round, so an epoch is a
//! fixed range of rounds per instance, and their epochs close, checkpoint
//! and drain as Ladon's do. DQBFT's sequencer reports no epoch frontier,
//! so a DQBFT replica stays in epoch 0.
//!
//! On top of the paper's rank-marker checkpoints, every checkpoint message
//! here carries the **execution state root** — the snapshot *manifest
//! root* covering the replica's KV state after applying every block of
//! the completed epoch in confirmed global order, together with the
//! snapshot's execution position and consensus frontier (see
//! `ladon-state`: the signature must cover every snapshot field an
//! installer acts on, or a Byzantine sync responder could splice forged
//! metadata onto genuine state). When an epoch completes, all of its
//! blocks are globally confirmed and none after them (every one of the
//! orderer's tips sits at `maxRank(e)`, its ceiling until the next
//! epoch: the confirmation bar has passed the whole epoch and nothing
//! above it may join), and execution is deterministic, so honest
//! replicas sign identical roots: a stable checkpoint attests to
//! *state*, not just ranks. Votes are therefore grouped by
//! `(epoch, root)`; a quorum forming on a root different from our own is
//! recorded as a root conflict instead of an advance — divergence must
//! never be papered over.
//!
//! # The pacemaker's states
//!
//! [`EpochPacemaker::step`] takes three inputs ([`EpochInput`]): the
//! close, a peer's vote and a fetched [`StableCheckpoint`]. After each
//! one, one rule runs: **a closed epoch advances when it holds a vote
//! quorum or a fetched stable checkpoint on a root it agrees with** —
//! the root it signed, or any root if it abstained. A proof on any other
//! root is a conflict, counted once per epoch, and the epoch does not
//! advance. The proofs may arrive in any order: votes and checkpoints
//! held before the close count at the close.
//!
//! | state | entered by | exit |
//! |---|---|---|
//! | open | the previous epoch's advance (or start) | the close: signed at the executed root, or abstained while the replica is degraded; or a fetched checkpoint for this epoch whose snapshot was just installed, or for a later epoch: the pacemaker jumps to that epoch, closed as abstained |
//! | closed, signed at root `r` | the close with a signer | the rule, on a proof for `r` |
//! | closed, abstained | the close without a signer, or a jump | the rule, on any proof |
//!
//! A fetched checkpoint for the current epoch with nothing installed is
//! held until the close. A closed epoch with no proof leaves only
//! through a vote or a fetched checkpoint. A PBFT replica fetches one
//! once its instances report lag. A closed HotStuff replica has no
//! lag evidence until its peers complete a later epoch
//! (`Instance::lag_evidence` is `None` under HotStuff, and
//! [`EpochPacemaker::lag_evidence`] sees a quorum only for an epoch it
//! has not closed), so nothing requests the missing proof yet
//! (ROADMAP 2(a)).
//!
//! Votes are bounded per sender: its votes for the current epoch and the
//! just-completed one (whose stable checkpoint is served to laggers),
//! plus one vote for a later epoch, its newest. Older epochs' votes and
//! fetched checkpoints are dropped at each advance. The stable checkpoint
//! is aggregated only when it is served.

use ladon_crypto::keys::Signer;
use ladon_crypto::{AggregateSignature, KeyRegistry, Signature};
use ladon_types::{sizes, Digest, Epoch, ReplicaId, SystemConfig, WireSize};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Signing domain for checkpoint messages.
pub const DOMAIN_CHECKPOINT: &[u8] = b"ladon/checkpoint";

/// The signed payload of a checkpoint: epoch number ‖ state root.
fn checkpoint_payload(epoch: Epoch, root: &Digest) -> [u8; 40] {
    let mut b = [0u8; 40];
    b[..8].copy_from_slice(&epoch.0.to_le_bytes());
    b[8..].copy_from_slice(&root.0);
    b
}

/// A checkpoint message: "I have globally confirmed every block of epoch
/// `e` — each instance's up to its `maxRank(e)` block — and nothing
/// after them, and executing them left my state machine at
/// `state_root`".
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

/// What the pacemaker is told: the three inputs of the module docs.
pub enum EpochInput<'a> {
    /// The orderer reports the current epoch over. `Some((signer, root))`
    /// signs it at the executed state root; `None` abstains (the replica
    /// is degraded and must not sign over an undurable prefix).
    Close(Option<(&'a Signer, Digest)>),
    /// A peer's checkpoint vote.
    Vote(ReplicaId, &'a CheckpointMsg),
    /// A stable checkpoint fetched by state transfer, and whether the
    /// snapshot it proves was just installed.
    Fetched(&'a StableCheckpoint, bool),
}

/// What the pacemaker did with one input.
#[derive(Debug, Default)]
pub struct EpochStep {
    /// The checkpoint this replica signed at the close: broadcast it.
    pub signed: Option<CheckpointMsg>,
    /// The epoch the pacemaker entered; its rank range is
    /// [`SystemConfig::rank_range`] of it.
    pub entered: Option<Epoch>,
}

/// Where the current epoch stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Close {
    /// Not yet over on this replica.
    Open,
    /// Closed with our checkpoint at this root.
    Signed(Digest),
    /// Closed without a checkpoint of our own.
    Abstained,
}

/// The per-replica epoch pacemaker: [`Self::step`] takes an
/// [`EpochInput`], and one rule decides every advance.
pub struct EpochPacemaker {
    epoch: Epoch,
    sys: SystemConfig,
    /// Checkpoint votes per epoch: signer → (claimed root, signature).
    /// The current epoch's, the just-completed one's (its stable
    /// checkpoint is served to laggers, §5.2.1), and per signer at most
    /// one later epoch's: its newest.
    votes: BTreeMap<Epoch, BTreeMap<ReplicaId, (Digest, Signature)>>,
    /// Stable checkpoints fetched by state transfer, for the current and
    /// the just-completed epoch (peers that moved on will not re-send
    /// their individual votes).
    fetched: BTreeMap<Epoch, StableCheckpoint>,
    close: Close,
    /// Checkpoint quorums observed on a root different from ours —
    /// execution divergence, surfaced instead of advanced past. Counted
    /// once per epoch however many messages re-confirm it.
    pub root_conflicts: u64,
    /// The last epoch whose divergent quorum was counted (epochs only
    /// move forward).
    conflicted: Option<Epoch>,
}

impl EpochPacemaker {
    /// Builds the pacemaker from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self {
            epoch: Epoch(0),
            sys: cfg.clone(),
            votes: BTreeMap::new(),
            fetched: BTreeMap::new(),
            close: Close::Open,
            root_conflicts: 0,
            conflicted: None,
        }
    }

    /// The stable checkpoint of `epoch`, if this replica holds a quorum of
    /// matching-root checkpoint signatures (the current and previous
    /// epochs are retained), or fetched one.
    pub fn stable_checkpoint(&self, epoch: Epoch) -> Option<StableCheckpoint> {
        let built = self.votes.get(&epoch).and_then(|votes| {
            let root = self.quorum_root(votes)?;
            let shares: Vec<Signature> = (votes.values())
                .filter(|(r, _)| *r == root)
                .map(|&(_, sig)| sig)
                .take(self.sys.quorum())
                .collect();
            Some(StableCheckpoint {
                epoch,
                state_root: root,
                agg: AggregateSignature::aggregate(&shares, self.sys.n)?,
            })
        });
        built.or_else(|| self.fetched.get(&epoch).cloned())
    }

    /// The epoch proof to serve a requester in `requested`: its stable
    /// checkpoint, or — when it is more than one epoch behind and its
    /// proof has been pruned here — the newest one held, with which the
    /// requester jumps to the live epoch while log entries repair the
    /// gap.
    pub fn proof_for(&self, requested: Epoch) -> Option<StableCheckpoint> {
        self.stable_checkpoint(requested).or_else(|| {
            let pruned = self.epoch.0.saturating_sub(requested.0) > 1;
            pruned
                .then(|| self.stable_checkpoint(Epoch(self.epoch.0 - 1)))
                .flatten()
        })
    }

    /// The root a quorum of `votes` agrees on (votes are honest-majority:
    /// at most one root can reach quorum).
    fn quorum_root(&self, votes: &BTreeMap<ReplicaId, (Digest, Signature)>) -> Option<Digest> {
        let agreeing = |root: &Digest| votes.values().filter(|(r, _)| r == root).count();
        (votes.values())
            .map(|&(root, _)| root)
            .find(|root| agreeing(root) >= self.sys.quorum())
    }

    /// Whether a checkpoint quorum exists for an epoch we have not
    /// finished ourselves — evidence that the system completed an epoch
    /// without us and we should fetch the missing log entries (§5.2.1).
    pub fn lag_evidence(&self) -> bool {
        self.votes.iter().any(|(e, v)| {
            self.quorum_root(v).is_some()
                && (*e > self.epoch || (*e == self.epoch && !self.closed()))
        })
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Whether the current epoch is closed: signed or abstained from.
    pub fn closed(&self) -> bool {
        self.close != Close::Open
    }

    /// Takes one input, then runs the advance rule.
    pub fn step(&mut self, input: EpochInput<'_>, registry: &KeyRegistry) -> EpochStep {
        let mut signed = None;
        match input {
            EpochInput::Close(sign) => {
                debug_assert!(!self.closed(), "epoch already closed");
                self.close = match sign {
                    Some((signer, root)) => {
                        let msg = CheckpointMsg::sign(signer, self.epoch, root);
                        // Our own vote counts.
                        self.votes
                            .entry(self.epoch)
                            .or_default()
                            .insert(signer.replica, (root, msg.sig));
                        signed = Some(msg);
                        Close::Signed(root)
                    }
                    None => Close::Abstained,
                };
            }
            EpochInput::Vote(from, msg) => {
                if msg.epoch < self.epoch || from != msg.sig.signer() || !msg.verify(registry) {
                    return EpochStep::default();
                }
                self.hold_vote(from, msg);
            }
            EpochInput::Fetched(sc, installed) => {
                if sc.epoch < self.epoch || !sc.verify(registry, self.sys.quorum()) {
                    return EpochStep::default();
                }
                if installed || sc.epoch > self.epoch {
                    // Jump: the installed snapshot supplies the state up to
                    // and including `sc.epoch`, or this is an epoch we
                    // have not even entered, whose predecessors' proofs
                    // may be pruned cluster-wide; execution still follows
                    // confirmed order as entries install. Either way there
                    // is nothing of ours to compare the proof with.
                    self.epoch = sc.epoch;
                    self.close = Close::Abstained;
                }
                self.fetched.insert(sc.epoch, sc.clone());
            }
        }
        EpochStep {
            signed,
            entered: self.advance_if_proven(),
        }
    }

    /// Holds `from`'s vote under the bound: a vote for a later epoch
    /// replaces the sender's older later-epoch vote, and one older than
    /// the vote it already holds there is dropped.
    fn hold_vote(&mut self, from: ReplicaId, msg: &CheckpointMsg) {
        // The epoch is the peer's choice: scan strictly later epochs
        // without arithmetic on it.
        if msg.epoch > self.epoch {
            if self
                .votes
                .range((Excluded(msg.epoch), Unbounded))
                .any(|(_, v)| v.contains_key(&from))
            {
                return;
            }
            for (_, v) in self.votes.range_mut((Excluded(self.epoch), Unbounded)) {
                v.remove(&from);
            }
            self.votes.retain(|_, v| !v.is_empty());
        }
        self.votes
            .entry(msg.epoch)
            .or_default()
            .insert(from, (msg.state_root, msg.sig));
    }

    /// The one advance rule: a closed epoch advances when it holds a vote
    /// quorum or a fetched stable checkpoint on a root it agrees with —
    /// the root it signed, or any root when it abstained. A proof on any
    /// other root is a conflict, counted once per epoch.
    fn advance_if_proven(&mut self) -> Option<Epoch> {
        let mine = match self.close {
            Close::Open => return None,
            Close::Signed(root) => Some(root),
            Close::Abstained => None,
        };
        let votes = self.votes.get(&self.epoch);
        let proofs = [
            votes.and_then(|v| self.quorum_root(v)),
            self.fetched.get(&self.epoch).map(|sc| sc.state_root),
        ];
        if proofs
            .iter()
            .flatten()
            .any(|&root| mine.is_none_or(|m| m == root))
        {
            return Some(self.advance());
        }
        if proofs.iter().any(Option::is_some) && self.conflicted != Some(self.epoch) {
            self.conflicted = Some(self.epoch);
            self.root_conflicts += 1;
        }
        None
    }

    /// Opens the next epoch and returns it.
    fn advance(&mut self) -> Epoch {
        let done = self.epoch;
        self.epoch = done.next();
        self.close = Close::Open;
        // Keep the just-completed epoch's proofs: its stable checkpoint is
        // what we serve to lagging replicas.
        self.votes.retain(|e, _| *e >= done);
        self.fetched.retain(|e, _| *e >= done);
        self.epoch
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

    fn setup() -> (EpochPacemaker, KeyRegistry) {
        let mut cfg = SystemConfig::paper_default(4, NetEnv::Lan);
        cfg.epoch_length = 8;
        (EpochPacemaker::new(&cfg), KeyRegistry::generate(4, 1, 3))
    }

    /// Closes `p`'s epoch, as the node does once the orderer reports it
    /// over, with a checkpoint at `root()`; returns what was signed and
    /// the epoch entered.
    fn complete_epoch(
        p: &mut EpochPacemaker,
        reg: &KeyRegistry,
        me: u32,
    ) -> (CheckpointMsg, Option<Epoch>) {
        assert!(!p.closed());
        let signer = reg.signer(ReplicaId(me));
        let step = p.step(EpochInput::Close(Some((&signer, root()))), reg);
        let msg = step.signed.expect("a signed close returns its checkpoint");
        assert!(msg.verify(reg));
        (msg, step.entered)
    }

    /// Closes `p`'s epoch without a checkpoint; returns the epoch entered.
    fn abstain(p: &mut EpochPacemaker, reg: &KeyRegistry) -> Option<Epoch> {
        let step = p.step(EpochInput::Close(None), reg);
        assert!(step.signed.is_none());
        step.entered
    }

    /// Delivers `msg` as sent by `from`.
    fn deliver(
        p: &mut EpochPacemaker,
        reg: &KeyRegistry,
        from: u32,
        msg: &CheckpointMsg,
    ) -> Option<Epoch> {
        p.step(EpochInput::Vote(ReplicaId(from), msg), reg).entered
    }

    /// Replica `r`'s vote for `epoch` at `claimed`, delivered.
    fn vote(
        p: &mut EpochPacemaker,
        reg: &KeyRegistry,
        r: u32,
        epoch: u64,
        claimed: Digest,
    ) -> Option<Epoch> {
        let m = CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(epoch), claimed);
        deliver(p, reg, r, &m)
    }

    fn fetch(
        p: &mut EpochPacemaker,
        reg: &KeyRegistry,
        sc: &StableCheckpoint,
        installed: bool,
    ) -> Option<Epoch> {
        p.step(EpochInput::Fetched(sc, installed), reg).entered
    }

    /// A stable checkpoint of `epoch` at `root()`, signed by replicas 1–3.
    fn stable(reg: &KeyRegistry, epoch: u64) -> StableCheckpoint {
        let shares: Vec<Signature> = (1..=3u32)
            .map(|r| CheckpointMsg::sign(&reg.signer(ReplicaId(r)), Epoch(epoch), root()).sig)
            .collect();
        let sc = StableCheckpoint {
            epoch: Epoch(epoch),
            state_root: root(),
            agg: AggregateSignature::aggregate(&shares, 4).expect("distinct signers"),
        };
        assert!(sc.verify(reg, 3));
        sc
    }

    /// How many votes `p` holds, over every epoch.
    fn held(p: &EpochPacemaker) -> usize {
        p.votes.values().map(BTreeMap::len).sum()
    }

    #[test]
    fn stable_checkpoint_advances_epoch() {
        let (mut p, reg) = setup();
        complete_epoch(&mut p, &reg, 0);
        // Two more matching votes (quorum = 3 for n = 4).
        assert!(vote(&mut p, &reg, 1, 0, root()).is_none());
        assert_eq!(vote(&mut p, &reg, 2, 0, root()), Some(Epoch(1)));
        assert_eq!(p.epoch(), Epoch(1));
        assert!(!p.closed(), "the new epoch opens");
        assert_eq!(p.root_conflicts, 0);
    }

    #[test]
    fn mismatched_roots_do_not_advance() {
        // Two peers vote a different root than ours: their group reaches
        // quorum only with a third vote; ours never does. The conflict is
        // surfaced, the epoch does not advance on their root.
        let (mut p, reg) = setup();
        complete_epoch(&mut p, &reg, 0);
        for r in 1..=2u32 {
            assert!(vote(&mut p, &reg, r, 0, other_root()).is_none());
        }
        assert_eq!(p.epoch(), Epoch(0));
        assert_eq!(p.root_conflicts, 0, "no quorum on either root yet");
        assert!(vote(&mut p, &reg, 3, 0, other_root()).is_none());
        assert_eq!(p.epoch(), Epoch(0), "divergent quorum must not advance us");
        assert_eq!(p.root_conflicts, 1);
        // Re-confirming messages — a vote again, the same quorum fetched
        // whole — do not inflate the incident count.
        assert!(vote(&mut p, &reg, 3, 0, other_root()).is_none());
        let sc = p.stable_checkpoint(Epoch(0)).expect("their quorum");
        assert!(fetch(&mut p, &reg, &sc, false).is_none());
        assert_eq!(p.root_conflicts, 1);
    }

    #[test]
    fn forged_checkpoint_rejected() {
        let (mut p, reg) = setup();
        complete_epoch(&mut p, &reg, 0);
        // Signature from replica 1 but claimed from replica 2.
        let forged = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        assert!(deliver(&mut p, &reg, 2, &forged).is_none());
        // Tampered root after signing.
        let mut tampered = CheckpointMsg::sign(&reg.signer(ReplicaId(1)), Epoch(0), root());
        tampered.state_root = other_root();
        assert!(!tampered.verify(&reg));
        assert!(deliver(&mut p, &reg, 1, &tampered).is_none());
        assert_eq!(held(&p), 1, "only our own vote");
    }

    #[test]
    fn early_checkpoints_buffer_until_local_completion() {
        // Peers may finish the epoch before us; their votes accumulate,
        // and we advance once we have also sent our checkpoint: at the
        // close itself, since the quorum is already held.
        let (mut p, reg) = setup();
        for r in 1..=3u32 {
            assert!(vote(&mut p, &reg, r, 0, root()).is_none());
        }
        assert_eq!(p.epoch(), Epoch(0), "open epochs never advance");
        let (_, entered) = complete_epoch(&mut p, &reg, 0);
        assert_eq!(entered, Some(Epoch(1)), "advances at the close");
    }

    #[test]
    fn a_quorum_held_before_the_close_advances_at_the_close() {
        // Signed: the close itself completes the epoch; and our own vote
        // is not needed in the quorum.
        let (mut p, reg) = setup();
        for r in 1..=3u32 {
            assert!(vote(&mut p, &reg, r, 0, root()).is_none());
        }
        let (_, entered) = complete_epoch(&mut p, &reg, 0);
        assert_eq!(entered, Some(Epoch(1)));
        assert_eq!(p.root_conflicts, 0);

        // With a quorum of two peers and our own signature.
        let (mut p, reg) = setup();
        for r in 1..=2u32 {
            assert!(vote(&mut p, &reg, r, 0, root()).is_none());
        }
        assert_eq!(complete_epoch(&mut p, &reg, 0).1, Some(Epoch(1)));

        // Abstained: likewise, at the close.
        let (mut q, _) = setup();
        for r in 1..=3u32 {
            assert!(vote(&mut q, &reg, r, 0, root()).is_none());
        }
        assert_eq!(abstain(&mut q, &reg), Some(Epoch(1)));

        // A quorum on another root held before a signed close is a
        // conflict at the close, not an advance.
        let (mut p, _) = setup();
        for r in 1..=3u32 {
            assert!(vote(&mut p, &reg, r, 0, other_root()).is_none());
        }
        assert_eq!(complete_epoch(&mut p, &reg, 0).1, None);
        assert_eq!(p.root_conflicts, 1);
    }

    #[test]
    fn a_sender_holds_one_vote_for_a_later_epoch() {
        let (mut p, reg) = setup();
        for e in 1..=10_000u64 {
            assert!(vote(&mut p, &reg, 1, e, root()).is_none());
        }
        assert_eq!(held(&p), 1, "only the newest later-epoch vote is held");
        assert!(p.votes.contains_key(&Epoch(10_000)));
        // An older later-epoch vote does not displace the newer one.
        assert!(vote(&mut p, &reg, 1, 5, root()).is_none());
        assert_eq!(p.votes.keys().collect::<Vec<_>>(), [&Epoch(10_000)]);
        // Current-epoch votes are held beside it.
        vote(&mut p, &reg, 1, 0, root());
        assert_eq!(held(&p), 2);
        // A vote for the last representable epoch is held like any other
        // and does not stop the pacemaker: the epoch completes and
        // advances past it.
        assert!(vote(&mut p, &reg, 2, u64::MAX, root()).is_none());
        assert!(vote(&mut p, &reg, 2, 7, root()).is_none());
        assert!(p.votes.contains_key(&Epoch(u64::MAX)));
        assert!(!p.votes.contains_key(&Epoch(7)));
        vote(&mut p, &reg, 2, 0, root());
        assert_eq!(complete_epoch(&mut p, &reg, 0).1, Some(Epoch(1)));
        assert!(vote(&mut p, &reg, 3, u64::MAX, root()).is_none());
        assert_eq!(p.epoch(), Epoch(1));
    }

    #[test]
    fn stable_checkpoint_built_and_verifies_after_quorum() {
        let (mut p, reg) = setup();
        assert!(p.stable_checkpoint(Epoch(0)).is_none());
        complete_epoch(&mut p, &reg, 0);
        for r in 1..=2u32 {
            vote(&mut p, &reg, r, 0, root());
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
        let (mut p, reg) = setup();
        assert!(!p.lag_evidence());
        // Three peers checkpoint epoch 0 while we never finished it.
        for r in 1..=3u32 {
            vote(&mut p, &reg, r, 0, root());
        }
        assert!(p.lag_evidence(), "quorum completed an epoch we did not");
        // Once we complete it ourselves the evidence clears (we advance).
        complete_epoch(&mut p, &reg, 0);
        assert_eq!(p.epoch(), Epoch(1));
        assert!(!p.lag_evidence());
    }

    #[test]
    fn fetched_stable_checkpoint_advances_once_locally_complete() {
        // A synced replica holds a whole stable checkpoint but has not
        // finished the epoch: the checkpoint is held, and applies the
        // moment the epoch closes locally with a matching root.
        let (mut p, reg) = setup();
        let sc = stable(&reg, 0);
        // Receiving it early: held, no advance.
        assert!(fetch(&mut p, &reg, &sc, false).is_none());
        assert_eq!(p.epoch(), Epoch(0));
        // Local completion with the same root: the held proof applies.
        assert_eq!(complete_epoch(&mut p, &reg, 0).1, Some(Epoch(1)));
        assert_eq!(p.epoch(), Epoch(1));
        // The replica that advanced via a fetched checkpoint can serve it
        // onward (it never saw the individual votes).
        let served = p.stable_checkpoint(Epoch(0)).expect("served from stash");
        assert!(served.verify(&reg, 3));
    }

    #[test]
    fn a_fetched_checkpoint_jumps_past_an_installed_or_unentered_epoch() {
        let (mut p, reg) = setup();
        let sc = stable(&reg, 0);
        // Its snapshot installed: the pacemaker jumps from an open epoch.
        assert_eq!(fetch(&mut p, &reg, &sc, true), Some(Epoch(1)));
        assert!(!p.closed());
        assert_eq!(p.proof_for(Epoch(0)), Some(sc.clone()));

        // A later epoch than ours: jumps without an install, and past
        // the epoch this replica closed on another root.
        let (mut q, _) = setup();
        let signer = reg.signer(ReplicaId(0));
        q.step(EpochInput::Close(Some((&signer, other_root()))), &reg);
        assert_eq!(fetch(&mut q, &reg, &stable(&reg, 3), false), Some(Epoch(4)));
        assert_eq!(q.root_conflicts, 0);
        // A stale one changes nothing.
        assert!(fetch(&mut q, &reg, &sc, true).is_none());
        assert_eq!(q.epoch(), Epoch(4));
    }

    #[test]
    fn a_pruned_requester_is_served_the_newest_proof() {
        let (mut p, reg) = setup();
        for e in 0..3u64 {
            complete_epoch(&mut p, &reg, 0);
            for r in 1..=2u32 {
                vote(&mut p, &reg, r, e, root());
            }
        }
        assert_eq!(p.epoch(), Epoch(3));
        let newest = p.stable_checkpoint(Epoch(2)).expect("retained");
        assert_eq!(p.proof_for(Epoch(2)), Some(newest.clone()));
        // Epoch 0's proof is pruned: a requester there gets epoch 2's.
        assert_eq!(p.proof_for(Epoch(0)), Some(newest));
        // One epoch behind, in the open epoch: nothing to serve yet.
        assert_eq!(p.proof_for(Epoch(3)), None);
    }

    #[test]
    fn tampered_stable_checkpoint_rejected() {
        let (mut p, reg) = setup();
        let good = stable(&reg, 0);
        let mut bad_epoch = good.clone();
        bad_epoch.epoch = Epoch(1); // signatures no longer cover the epoch
        assert!(fetch(&mut p, &reg, &bad_epoch, false).is_none());
        assert!(
            p.stable_checkpoint(Epoch(1)).is_none(),
            "a forged checkpoint must not be held"
        );
        let mut bad_root = good;
        bad_root.state_root = other_root(); // root swap breaks signatures
        assert!(fetch(&mut p, &reg, &bad_root, true).is_none());
        assert_eq!(p.epoch(), Epoch(0));
    }

    #[test]
    fn abstaining_with_the_quorum_already_collected_advances_at_once() {
        let (mut p, reg) = setup();
        for r in 1..=3u32 {
            assert!(vote(&mut p, &reg, r, 0, root()).is_none());
        }
        assert_eq!(abstain(&mut p, &reg), Some(Epoch(1)));
        assert_eq!(p.root_conflicts, 0);
        // The peers' quorum is retained and served onward; our own
        // signature is not in it.
        let sc = p
            .stable_checkpoint(Epoch(0))
            .expect("peers' quorum retained");
        assert!(sc.verify(&reg, 3));
        assert_eq!(sc.state_root, root());
        // The next epoch opens like any other.
        assert!(!p.closed());
    }

    #[test]
    fn abstaining_before_the_quorum_advances_when_it_arrives() {
        let (mut p, reg) = setup();
        assert!(abstain(&mut p, &reg).is_none(), "no quorum yet");
        assert!(p.closed());
        assert!(!p.lag_evidence());
        for r in 1..=2u32 {
            assert!(vote(&mut p, &reg, r, 0, root()).is_none());
        }
        assert_eq!(vote(&mut p, &reg, 3, 0, root()), Some(Epoch(1)));
        assert_eq!(p.root_conflicts, 0);

        // The same through a whole stable checkpoint learned via sync.
        let (mut q, _) = setup();
        assert!(abstain(&mut q, &reg).is_none());
        let sc = p.stable_checkpoint(Epoch(0)).expect("quorum");
        assert_eq!(fetch(&mut q, &reg, &sc, false), Some(Epoch(1)));

        // And when that checkpoint was held before the epoch closed.
        let (mut q, _) = setup();
        assert!(fetch(&mut q, &reg, &sc, false).is_none());
        assert_eq!(abstain(&mut q, &reg), Some(Epoch(1)));
    }

    #[test]
    fn abstaining_never_advances_or_conflicts_on_split_roots() {
        // Peers disagree among themselves and no root reaches quorum:
        // an abstainer has no root to side with, so it waits — and has
        // nothing of its own a quorum could contradict.
        let (mut p, reg) = setup();
        assert!(abstain(&mut p, &reg).is_none());
        for (r, claimed) in [(1u32, root()), (2, other_root()), (3, root())] {
            assert!(vote(&mut p, &reg, r, 0, claimed).is_none());
        }
        assert_eq!(p.epoch(), Epoch(0), "2 + 1 split votes are no quorum of 3");
        assert_eq!(p.root_conflicts, 0);
        assert!(p.stable_checkpoint(Epoch(0)).is_none());
    }

    #[test]
    fn stale_epoch_checkpoints_ignored() {
        let (mut p, reg) = setup();
        complete_epoch(&mut p, &reg, 0);
        for r in 1..=2u32 {
            vote(&mut p, &reg, r, 0, root());
        }
        assert_eq!(p.epoch(), Epoch(1));
        assert!(vote(&mut p, &reg, 3, 0, root()).is_none());
        assert_eq!(p.votes[&Epoch(0)].len(), 3, "the stale vote is not held");
    }
}
