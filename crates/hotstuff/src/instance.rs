//! The chained HotStuff instance state machine (Appendix D, Algorithm 3).
//!
//! Mirrors [`ladon-pbft`]'s instance structure: a pure state machine with
//! an [`Action`] output vocabulary, hosted by the Multi-BFT node. The
//! chain grows one node per proposal; a node commits when its 3-chain
//! successor is certified (observed through the QC the leader announces,
//! or the justify QC of a later proposal). Ladon rank collection rides
//! the vote path: every vote carries the voter's `curRank` and its
//! certificate.
//!
//! The leader broadcasts each QC the moment it forms it
//! ([`HsMsg::Qc`], basic HotStuff's Decide message). Chained HotStuff
//! leaves that step out because its next proposal follows the QC at
//! once; under a fixed block rate that proposal waits for the next pace
//! tick, and a backup that learned the QC only from it would commit one
//! block interval late. A backup accepts an announcement that names its
//! instance, comes from the leader of the QC's view and verifies (through
//! the cache, so the next proposal's `justify` is a hit), and runs on it
//! the one rule that proposal's `justify` would run: with the QC's node
//! at height `h` held, its ancestors through `h − 2` commit. Nothing else
//! moves on an announcement — `generic_qc`, the lock, `curRank` and the
//! deadline change only on proposals and votes — and every QC still
//! reaches every replica inside a proposal (the epoch flush keeps its
//! three dummies), so a lost announcement costs only what it saves. The
//! leader itself commits through its own next proposal.
//!
//! The chain is one map, nodes by digest, and its shape is the nodes'
//! parent links. A node commits because a certified 3-chain descends
//! from it: the commit follows ancestry from the new proposal's parent
//! down to the committed tip, never "whichever node this replica holds
//! at that height", which a lost or equivocated proposal can make differ
//! between honest replicas. A replica missing an ancestor commits
//! nothing past it.
//!
//! An instance's epoch ends at its `maxRank` node, which three dummy
//! nodes then flush through the 3-chain (footnote 4). Both facts are read
//! from the chain, the same on every replica and in every view: the next
//! proposal is a dummy while the highest certified node sits at
//! `maxRank`, and the instance has stopped once it committed that node.
//! A view change's new leader therefore carries on with the flush
//! instead of proposing a second `maxRank` block. A dummy carries no
//! batch, so the hosting node does not pace it: the leader proposes each
//! as soon as [`HsInstance::can_propose`] holds (it holds the previous
//! node's QC), and the flush takes three quorum round trips rather than
//! three block intervals. Only a straggler paces its dummies like its
//! batches. A backup refuses a real node that does not rank above its
//! parent: Algorithm 1's bar needs an instance's next block to rank
//! strictly above its last. A dummy ranks with its parent, at this
//! epoch's `maxRank` — or it is the last epoch's third dummy, three
//! heights above the `maxRank` node the backup committed: a backup that
//! committed that node on an announced QC (below) may enter the next
//! epoch before a paced leader's third dummy arrives, and the leader
//! needs that dummy's QC to propose again. A vanilla backup refuses a node
//! not ranked at its height, or marked a dummy: the pre-determined order
//! ranks each block at its round.
//!
//! A backup votes under chained HotStuff's lock: it locks the
//! grandparent of each proposal it accepts and refuses one that neither
//! extends the locked node nor justifies a higher one, so no quorum
//! certifies a fork below a commit. A proposal ranked past the current
//! epoch is held until [`HsInstance::advance_epoch`] replays it, as PBFT
//! holds its pre-prepares: a replica one epoch behind still gets the
//! next epoch's first nodes, which every later commit walks through.
//!
//! A snapshot install jumps the instance to the snapshot's frontier
//! ([`HsInstance::fast_forward`]): the epoch's `maxRank` node, found on
//! the certified chain, becomes the committed tip, and the next block is
//! emitted as the round after the snapshot's.
//!
//! State follows the chain's live tail: nodes more than three heights
//! below the commit frontier are dropped as it advances, and vote maps
//! at or below it are collected, so an instance holds a handful of nodes
//! however long it runs. Certificates — every proposal's `justify`, the
//! rank certificates proposals and votes carry — are verified through
//! the replica's [`CertCache`] (installed by the hosting node with
//! [`HsInstance::share_cert_cache`]; an instance built on its own holds
//! a private one), so the `curRank` certificate that rides on all `m`
//! instances is verified once per replica.
//!
//! A quorum is checked once per proposal. The leader's vote set is the
//! votes its `justify` aggregates — votes that arrive after the QC formed
//! are moot: not MAC-checked, not stored, though the rank they report is
//! still learned through its certificate — and a backup that has verified
//! `justify` accepts the set only as that very quorum (see
//! `validate_rank`), so a proposal costs a backup one signature check and
//! at most two aggregate checks however many votes it carries. A vote
//! above the certified height counts only for a node the leader holds at
//! the vote's height and rank, so no peer can grow the leader's vote maps
//! with votes for nodes it never proposed.
//!
//! # What the instance waits on
//!
//! It holds one liveness deadline — [`HsInstance::liveness_since`]; the
//! host arms a timer `view_change_timeout` after it and calls
//! [`HsInstance::on_timeout`] on expiry. A new deadline replaces the old
//! one. A height is *settled* once it is committed or its proposal held.
//!
//! | state | deadline | exit at expiry |
//! |---|---|---|
//! | voted at height `h` | height `h + 1`, from the vote (unless already settled) | a `NewView` to the next view's leader, unless the height settled meanwhile or this leader stopped for the epoch |
//! | nothing committed yet on this replica | none until the host's first commit on any instance ([`HsInstance::wait_from`]) | as after a vote |
//! | a leader that installed a view from 2f+1 `NewView`s (emitting `NewViewInstalled`) | none until it votes for its own proposal | — |
//! | leading, the highest certified node at `maxRank` ([`HsInstance::next_is_dummy`]) | as after a vote | none needed: the host proposes the next flush dummy on the QC that made it ready, without waiting for a pace tick (a straggler waits for one) |
//! | waiting at a missing ancestor | as after a vote: later heights are still voted on | none yet: nothing fetches the node, and a snapshot install an epoch later jumps past it (ROADMAP 2(a)) |
//! | after sending `NewView(v + 1)` | none | none yet: the instance waits for a proposal of a higher view, which it enters emitting `NewViewInstalled` (ROADMAP 2(a)). Meanwhile it still votes in view `v`: sending `NewView` promises nothing, and agreement rests on the lock rule |
//! | a backup given the leader's announced QC of height `h` | unchanged: an announcement starts, replaces and ends none | unchanged: it commits through `h − 2` if it holds the QC's node, and nothing else moves |
//!
//! [`ladon-pbft`]: ../ladon_pbft/index.html

use crate::msg::{
    HsGeneric, HsMsg, HsNewView, HsNode, HsQc, HsVote, DOMAIN_GENERIC, DOMAIN_NEWVIEW, DOMAIN_VOTE,
};
use ladon_crypto::keys::Signer;
use ladon_crypto::qc::prepare_bytes;
use ladon_crypto::{sha256_parts, AggregateSignature, CertCache, KeyRegistry, RankCert, Signature};
use ladon_types::{
    push_bounded, quorum, Batch, Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round,
    TimeNs, View,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Heights kept below the commit frontier: the 3-chain tail.
const CHAIN_TAIL: u64 = 3;

/// The highest view an instance enters. Views are chosen by peers (a
/// proposal or new-view names one), and a view this replica adopts must
/// leave room for the [`View::next`] its timeout asks for: a Byzantine
/// leader naming `View(u64::MAX)` would make that overflow. A message
/// naming a view above this bound is rejected at the door like any other
/// malformed input.
pub const MAX_VIEW: View = View(u16::MAX as u64);

/// Rank participation mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HsRankMode {
    /// Vanilla chained HotStuff (ISS-HotStuff baseline): a node ranks
    /// at its height and none is a dummy.
    None,
    /// Ladon-HotStuff: rank piggybacking per Algorithm 3.
    Ladon,
}

/// Static configuration of one instance on one replica.
#[derive(Clone)]
pub struct HsConfig {
    /// This instance's index.
    pub instance: InstanceId,
    /// The local replica.
    pub me: ReplicaId,
    /// Total replicas.
    pub n: usize,
    /// Verification oracle.
    pub registry: KeyRegistry,
    /// Local signing handle.
    pub signer: Signer,
    /// Rank mode.
    pub mode: HsRankMode,
}

/// Effects requested by the state machine: the shared vocabulary over
/// this instance's wire message. `NewViewInstalled` marks a leader
/// entering a view from 2f+1 `NewView`s and a backup entering one from
/// a valid proposal of a higher view.
pub type Action = ladon_types::Action<HsMsg>;

/// The chained HotStuff instance.
pub struct HsInstance {
    cfg: HsConfig,
    /// Where certificates are verified: the replica's cache when the
    /// hosting node shared one, a private one otherwise.
    certs: CertCache,
    view: View,
    /// Known nodes by digest, from [`CHAIN_TAIL`] heights below the
    /// commit frontier up.
    nodes: HashMap<Digest, HsNode>,
    /// The last committed node (the genesis QC's `Digest::NIL` before
    /// any): the node at `committed_upto`, where every commit's ancestry
    /// walk must end.
    committed_tip: Digest,
    /// Highest certified node (the `genericQC`).
    generic_qc: HsQc,
    /// The locked node, by height and digest (genesis before any): the
    /// highest grandparent of a proposal this replica accepted.
    locked: (Round, Digest),
    /// Votes collected by the leader for its latest proposal.
    votes: HashMap<Digest, BTreeMap<ReplicaId, Arc<HsVote>>>,
    /// Highest height proposed by the local leader.
    proposed_height: Round,
    /// Highest contiguously committed height.
    committed_upto: Round,
    /// Blocks emitted so far: the [`BlockHeader::round`] of the last
    /// `Action::Committed`. Epoch-flush dummies occupy heights and are
    /// never emitted, so this trails `committed_upto` by three per
    /// completed epoch.
    emitted: u64,
    /// Epoch rank range.
    epoch_min: Rank,
    epoch_max: Rank,
    /// New-view messages collected by a prospective leader: the one
    /// held from each sender, its highest view, so a member signing
    /// new views for ever-higher views holds one entry, not one per
    /// view.
    new_views: BTreeMap<ReplicaId, HsNewView>,
    /// Proposals ranked past the current epoch, replayed by
    /// [`Self::advance_epoch`]. Bounded by [`ladon_types::MAX_PENDING_MSGS`].
    pending_epoch: Vec<(ReplicaId, Arc<HsGeneric>)>,
    /// The liveness deadline: the height awaited and since when (see the
    /// module docs).
    deadline: Option<(Round, TimeNs)>,
    /// Count of rejected messages (observability).
    pub rejected: u64,
}

/// Computes a node's digest from its identifying fields.
fn node_digest(
    instance: InstanceId,
    height: Round,
    parent: &Digest,
    batch: &Batch,
    rank: Rank,
    dummy: bool,
) -> Digest {
    Digest(sha256_parts(&[
        b"ladon/hs/node",
        &instance.0.to_le_bytes(),
        &height.0.to_le_bytes(),
        &parent.0,
        &ladon_crypto::digest_batch(batch).0,
        &rank.0.to_le_bytes(),
        &[dummy as u8],
    ]))
}

impl HsInstance {
    /// Creates the instance at view 0 with the epoch-0 rank range.
    pub fn new(cfg: HsConfig, epoch_min: Rank, epoch_max: Rank) -> Self {
        Self {
            generic_qc: HsQc::genesis(cfg.n, cfg.instance),
            locked: (Round(0), Digest::NIL),
            certs: CertCache::new(cfg.registry.clone(), quorum(cfg.n)),
            cfg,
            view: View(0),
            nodes: HashMap::new(),
            committed_tip: Digest::NIL,
            votes: HashMap::new(),
            proposed_height: Round(0),
            committed_upto: Round(0),
            emitted: 0,
            epoch_min,
            epoch_max,
            new_views: BTreeMap::new(),
            pending_epoch: Vec::new(),
            deadline: None,
            rejected: 0,
        }
    }

    /// Verifies certificates through `certs` from now on — the hosting
    /// node's one cache for all the instances of its replica, which must
    /// have been built over this instance's registry and quorum.
    pub fn share_cert_cache(&mut self, certs: CertCache) {
        self.certs = certs;
    }

    /// Leader of `view` (rotates from the instance index).
    pub fn leader_of(&self, view: View) -> ReplicaId {
        self.cfg.instance.leader(view, self.cfg.n)
    }

    /// Whether the local replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.cfg.me
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Highest contiguously committed height — dummies included, so not
    /// the round of the last emitted block.
    pub fn committed_upto(&self) -> Round {
        self.committed_upto
    }

    /// Chain nodes held: the uncommitted ones and a tail below the commit
    /// frontier.
    pub fn nodes_held(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the instance is done with this epoch: it has committed a
    /// node at `maxRank`. A backup commits it on the QC the leader
    /// announces for the second dummy after the `maxRank` node; the third
    /// dummy commits it at the leader, and at a backup that missed the
    /// announcement.
    pub fn stopped_for_epoch(&self) -> bool {
        self.cfg.mode == HsRankMode::Ladon
            && self
                .nodes
                .get(&self.committed_tip)
                .is_some_and(|node| node.rank == self.epoch_max)
    }

    /// The leader may propose when it holds the QC for its previous node
    /// (or is at genesis / resuming a view).
    pub fn can_propose(&self) -> bool {
        if !self.is_leader() || self.stopped_for_epoch() {
            return false;
        }
        self.generic_qc.height() >= self.proposed_height
    }

    /// Whether the next proposal is an epoch-flush dummy: the highest
    /// certified node sits at `maxRank`, and past the `maxRank` node the
    /// chain holds only dummies until the epoch advances.
    pub fn next_is_dummy(&self) -> bool {
        self.cfg.mode == HsRankMode::Ladon
            && !self.generic_qc.is_genesis()
            && self.generic_qc.rank() == self.epoch_max
    }

    /// Installs the next epoch's rank range and replays the proposals
    /// held for it; one of a still later epoch is held again.
    pub fn advance_epoch(
        &mut self,
        min: Rank,
        max: Rank,
        now: TimeNs,
        cur: &mut RankCert,
    ) -> Vec<Action> {
        assert!(min > self.epoch_max, "epochs must advance forward");
        self.epoch_min = min;
        self.epoch_max = max;
        self.certs.advance_epoch(min);
        let mut out = Vec::new();
        for (from, g) in std::mem::take(&mut self.pending_epoch) {
            self.handle_generic(from, &g, now, cur, &mut out);
        }
        out
    }

    /// Jumps the commit frontier to a snapshot's. `round` is the
    /// instance's last round in the snapshotted prefix: the round of its
    /// non-dummy node ranked `rank` (the snapshot epoch's `maxRank`).
    /// That node is found on the certified chain, walking parent links
    /// down from `generic_qc`'s node; it becomes the committed tip, and
    /// the next block is emitted as `round + 1`. If it is not held, or
    /// `round` was already emitted, nothing moves and a later install
    /// tries again.
    pub fn fast_forward(&mut self, round: Round, rank: Rank) {
        if round.0 <= self.emitted {
            return;
        }
        let mut at = self.generic_qc.node();
        let (height, digest) = loop {
            let Some(node) = self.nodes.get(&at) else {
                return;
            };
            if node.height <= self.committed_upto {
                return;
            }
            if node.rank == rank && !node.dummy {
                break (node.height, node.digest);
            }
            at = node.parent;
        };
        self.committed_upto = height;
        self.committed_tip = digest;
        self.emitted = round.0;
        self.prune_below_tail();
    }

    /// Drops the nodes more than [`CHAIN_TAIL`] heights below the commit
    /// frontier: nothing reads them again.
    fn prune_below_tail(&mut self) {
        let keep_from = Round(self.committed_upto.0.saturating_sub(CHAIN_TAIL));
        self.nodes.retain(|_, node| node.height >= keep_from);
    }

    /// Raises `cur` to `qc`'s rank when that is higher (Ladon): a node's
    /// 2f+1 votes also certify its rank, so its QC doubles as a rank
    /// certificate (Appendix D).
    fn adopt_rank(&self, qc: &HsQc, cur: &mut RankCert) {
        if self.cfg.mode == HsRankMode::Ladon && !qc.is_genesis() && qc.rank() > cur.rank {
            *cur = RankCert::certified(qc.to_rank_qc());
        }
    }

    /// Leader entry point: extend the chain with `batch` (or a dummy when
    /// flushing the epoch — the batch is ignored then).
    ///
    /// # Panics
    /// Panics if [`Self::can_propose`] is false.
    pub fn propose(&mut self, batch: Batch, now: TimeNs, cur: &mut RankCert) -> Vec<Action> {
        assert!(self.can_propose(), "propose() called while not ready");
        let mut out = Vec::new();

        let parent_qc = self.generic_qc.clone();
        let height = parent_qc.height().next();
        let dummy = self.next_is_dummy();
        let batch = if dummy { Batch::empty(0) } else { batch };

        // A leader that learned its parent's QC through new-views ranks
        // above the parent too.
        self.adopt_rank(&parent_qc, cur);
        let rank = match self.cfg.mode {
            HsRankMode::None => Rank(height.0),
            HsRankMode::Ladon if dummy => self.epoch_max,
            HsRankMode::Ladon => Rank((cur.rank.0 + 1).min(self.epoch_max.0)),
        };
        let digest = node_digest(
            self.cfg.instance,
            height,
            &parent_qc.node(),
            &batch,
            rank,
            dummy,
        );
        let node = HsNode {
            height,
            digest,
            parent: parent_qc.node(),
            batch,
            rank,
            proposed_at: now,
            dummy,
        };

        // The vote set justifying the rank: the parent's votes, exactly
        // those `justify` aggregates and in its signer order — all of
        // them or, when we did not collect them ourselves (the first
        // proposal of a view), none.
        let vote_set: Vec<Arc<HsVote>> = match self.votes.get(&parent_qc.node()) {
            Some(votes) if self.cfg.mode == HsRankMode::Ladon => {
                let signers = parent_qc.cert().agg.signers.iter();
                let held = signers.map(|(replica, _)| votes.get(replica).cloned());
                held.collect::<Option<_>>().unwrap_or_default()
            }
            _ => Vec::new(),
        };

        let bytes = prepare_bytes(self.view, height, &digest, self.cfg.instance, rank);
        let sig = Signature::sign(&self.cfg.signer, DOMAIN_GENERIC, &bytes);
        let generic = Arc::new(HsGeneric {
            view: self.view,
            instance: self.cfg.instance,
            node,
            justify: parent_qc,
            rank_m: cur.rank,
            rank_qc: cur.cert.clone(),
            vote_set,
            sig,
        });
        self.proposed_height = height;
        out.push(Action::Broadcast(HsMsg::Generic(generic.clone())));
        self.handle_generic(self.cfg.me, &generic, now, cur, &mut out);
        out
    }

    /// Main entry point for network messages. The clock only starts
    /// deadlines (a proposal carries its own `proposed_at`).
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: HsMsg,
        now: TimeNs,
        cur: &mut RankCert,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            HsMsg::Generic(g) => self.handle_generic(from, &g, now, cur, &mut out),
            HsMsg::Vote(v) => self.handle_vote(from, v, cur, &mut out),
            HsMsg::NewView(nv) => self.handle_new_view(from, nv, &mut out),
            HsMsg::Qc(qc) => self.handle_qc(from, &qc, &mut out),
        }
        out
    }

    fn handle_generic(
        &mut self,
        from: ReplicaId,
        g: &Arc<HsGeneric>,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if g.instance != self.cfg.instance || g.view < self.view || g.view > MAX_VIEW {
            self.rejected += 1;
            return;
        }
        if from != self.leader_of(g.view) {
            self.rejected += 1;
            return;
        }
        // At or below the commit frontier the chain is settled (and its
        // nodes may be pruned): a replayed proposal must not be stored
        // and voted on again.
        if g.node.height <= self.committed_upto {
            self.rejected += 1;
            return;
        }
        // What the leader signed and what a vote signs.
        let bytes = prepare_bytes(
            g.view,
            g.node.height,
            &g.node.digest,
            g.instance,
            g.node.rank,
        );
        if from != self.cfg.me {
            if !g.sig.verify(&self.cfg.registry, DOMAIN_GENERIC, &bytes) {
                self.rejected += 1;
                return;
            }
            // Structural checks: digest integrity, parent linkage, QC.
            let expect = node_digest(
                g.instance,
                g.node.height,
                &g.node.parent,
                &g.node.batch,
                g.node.rank,
                g.node.dummy,
            );
            if expect != g.node.digest
                || g.node.parent != g.justify.node()
                || g.node.height != g.justify.height().next()
                || !g.justify.verified(&self.certs)
            {
                self.rejected += 1;
                return;
            }
            // The vote rule: extend the locked node, or justify a higher
            // one. The justified node is the parent, so below the lock's
            // height only the locked node itself is extended.
            let (locked_height, locked) = self.locked;
            if g.justify.node() != locked && g.justify.height() <= locked_height {
                self.rejected += 1;
                return;
            }
            match self.cfg.mode {
                HsRankMode::Ladon => {
                    if g.node.rank > self.epoch_max {
                        let held = (from, Arc::clone(g));
                        push_bounded(&mut self.pending_epoch, held, &mut self.rejected);
                        return;
                    }
                    if !self.validate_rank(g) {
                        self.rejected += 1;
                        return;
                    }
                }
                // A vanilla node ranks at its height, which is its round
                // (no dummies), and is never a dummy: the pre-determined
                // order rests on rank = round.
                HsRankMode::None => {
                    if g.node.dummy || g.node.rank != Rank(g.node.height.0) {
                        self.rejected += 1;
                        return;
                    }
                }
            }
        }

        // Implicit view synchronisation: a valid proposal from the leader
        // of a higher view moves us there.
        if g.view > self.view {
            self.view = g.view;
            out.push(Action::NewViewInstalled { view: g.view });
        }

        // Update curRank from the leader's disclosure (lines 15–17). A
        // backup gets here only after `validate_rank` verified `rank_qc`
        // as a certificate for exactly `rank_m`, so it is not verified
        // again; our own proposal discloses our own curRank.
        if self.cfg.mode == HsRankMode::Ladon
            && from != self.cfg.me
            && g.rank_m > cur.rank
            && g.rank_qc.is_some()
        {
            *cur = RankCert {
                rank: g.rank_m,
                cert: g.rank_qc.clone(),
            };
        }

        // Adopt the certified parent QC. Its 2f+1 votes also certify the
        // parent's rank, so it doubles as a rank certificate (Appendix D);
        // adopting it keeps curRank in step with the pipelined chain even
        // before the parent commits.
        if g.justify.height() > self.generic_qc.height() {
            self.generic_qc = g.justify.clone();
        }
        self.adopt_rank(&g.justify, cur);

        self.nodes
            .entry(g.node.digest)
            .or_insert_with(|| g.node.clone());
        // Lock the grandparent: the parent's own `justify` certified it.
        if let Some(parent) = self.nodes.get(&g.node.parent) {
            let grandparent = (Round(parent.height.0 - 1), parent.parent);
            if grandparent.0 > self.locked.0 {
                self.locked = grandparent;
            }
        }

        // Commit rule: the proposal's justify certifies its parent at
        // height h − 1; the parent's ancestors up to height h − 3 commit.
        if g.node.height.0 >= 3 {
            self.commit_through(Round(g.node.height.0 - 3), g.node.parent, out);
        }

        // Vote for the proposal (Algorithm 3 lines 24–26), updating the
        // leader with our curRank.
        let vote_sig = Signature::sign(&self.cfg.signer, DOMAIN_VOTE, &bytes);
        let vote = Arc::new(HsVote {
            view: g.view,
            height: g.node.height,
            instance: self.cfg.instance,
            node: g.node.digest,
            rank: g.node.rank,
            rank_m: cur.rank,
            rank_qc: cur.cert.clone(),
            sig: vote_sig,
        });
        let leader = self.leader_of(self.view);
        if leader == self.cfg.me {
            self.handle_vote(self.cfg.me, vote, cur, out);
        } else {
            out.push(Action::Send(leader, HsMsg::Vote(vote)));
        }
        let next = g.node.height.next();
        if !self.settled(next) {
            self.deadline = Some((next, now));
        }
    }

    /// Validates a Ladon proposal's rank: `rank = min(rank_m + 1, maxRank)`
    /// where `rank_m` is certified by `rank_qc` and consistent with the
    /// carried vote set. The caller has verified `g.justify`.
    ///
    /// An instance has one block per rank (Lemma 2, which Algorithm 1's
    /// bar rests on): a real node ranks above its parent, and only a
    /// dummy, at `maxRank`, follows a node at `maxRank`. The parent's rank
    /// is what `justify` certifies, so a Byzantine leader cannot make a
    /// tie either.
    ///
    /// No vote in the set is MAC-checked. A vote's tag covers `(view,
    /// height, node, instance, rank)` — not `rank_m` — so checking it
    /// proves only "this replica voted for the parent", and the verified
    /// `justify` proves exactly that for each of its signers. The set is
    /// therefore held to *be* `justify`'s quorum: same signers in the same
    /// order, same five signed fields; the XOR of the carried tags against
    /// `justify`'s combined tag then refuses a set whose tags are not the
    /// ones that were aggregated.
    fn validate_rank(&self, g: &HsGeneric) -> bool {
        // Certificate for the leader's claimed rank_m.
        if !RankCert::validate_claim(g.rank_m, g.rank_qc.as_ref(), self.epoch_min, |qc| {
            self.certs.verified(qc)
        }) {
            return false;
        }
        // Genesis has no rank to rise above: epoch 0 may end at rank 0.
        let parent = (!g.justify.is_genesis()).then(|| g.justify.rank());
        let in_order = if g.node.dummy {
            // A dummy ranks with its parent, at this epoch's `maxRank` —
            // or it is the last epoch's third dummy, three heights above
            // the `maxRank` node this replica committed: a backup commits
            // that node on the second dummy's announced QC, so its epoch
            // may advance before the third dummy arrives from a paced
            // leader, which needs the dummy's QC to propose again.
            let third = |tip: &HsNode| {
                !tip.dummy
                    && tip.rank == g.node.rank
                    && g.node.height.0 == tip.height.0 + 3
                    && g.node.rank.0.checked_add(1) == Some(self.epoch_min.0)
            };
            parent == Some(g.node.rank)
                && (g.node.rank == self.epoch_max
                    || self.nodes.get(&self.committed_tip).is_some_and(third))
        } else {
            g.node.rank == Rank((g.rank_m.0 + 1).min(self.epoch_max.0))
                && parent.is_none_or(|rank| g.node.rank > rank)
        };
        if !in_order {
            return false;
        }
        // Vote-set consistency: after the first proposal of a view, the
        // 2f+1 votes behind `justify` must show that no higher certified
        // rank was hidden (each vote's rank_m <= claimed rank_m).
        if g.vote_set.is_empty() {
            return true;
        }
        let qc = g.justify.cert();
        if g.vote_set.len() != qc.agg.signers.len() {
            return false;
        }
        let aligned = g.vote_set.iter().zip(&qc.agg.signers).all(|(v, &signer)| {
            (v.sig.pk.replica, v.sig.pk.key_idx) == signer
                && (v.view, v.height, v.instance, v.node, v.rank)
                    == (qc.view, qc.round, qc.instance, qc.digest, qc.rank)
                && v.rank_m <= g.rank_m
        });
        aligned
            && AggregateSignature::combine(g.vote_set.iter().map(|v| v.sig.tag)) == qc.agg.combined
    }

    /// Commits the ancestors of `tip` up to `height`, lowest first, and
    /// emits the non-dummy ones, numbered by what is emitted: a block's
    /// `round` is its ordinal among the instance's real blocks, which is
    /// what the ordering layer's per-instance intake counts; heights stay
    /// private to the chain.
    ///
    /// The walk follows parent links from `tip` down to `committed_tip`.
    /// A missing ancestor, or an ancestry that reaches the frontier
    /// anywhere but at `committed_tip`, commits nothing: the replica
    /// waits at the hole, since nothing fetches a node, until a snapshot
    /// install moves `committed_tip` past it ([`Self::fast_forward`]).
    fn commit_through(&mut self, height: Round, tip: Digest, out: &mut Vec<Action>) {
        if height <= self.committed_upto {
            return;
        }
        let mut chain = Vec::new();
        let mut at = tip;
        while at != self.committed_tip {
            match self.nodes.get(&at) {
                Some(node) if node.height > self.committed_upto => {
                    chain.push(node);
                    at = node.parent;
                }
                _ => return,
            }
        }
        for node in chain.into_iter().rev().take_while(|n| n.height <= height) {
            self.committed_upto = node.height;
            self.committed_tip = node.digest;
            if !node.dummy {
                self.emitted += 1;
                out.push(Action::Committed(Block {
                    header: BlockHeader {
                        index: self.cfg.instance,
                        round: Round(self.emitted),
                        rank: node.rank,
                        payload_digest: node.digest,
                    },
                    batch: node.batch.clone(),
                    proposed_at: node.proposed_at,
                }));
            }
        }
        self.prune_below_tail();
    }

    fn handle_vote(
        &mut self,
        from: ReplicaId,
        v: Arc<HsVote>,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if v.instance != self.cfg.instance
            || self.leader_of(self.view) != self.cfg.me
            || from != v.sig.signer()
        {
            self.rejected += 1;
            return;
        }
        // A vote at or below the highest certified height can change
        // nothing: its node's QC exists (or a QC that displaced it does),
        // so it is neither MAC-checked nor stored — the vote set of the
        // next proposal is the QC's own signers. Its rank claim still
        // counts: `rank_qc` certifies that, the vote's tag never did.
        let moot = v.height <= self.generic_qc.height();
        // A vote above it counts only for a node this leader holds at the
        // height and rank the vote names: one for a node it never
        // proposed can form no QC it could extend, and holding it would
        // let one signer grow `votes` without bound.
        let held = |n: &HsNode| n.height == v.height && n.rank == v.rank;
        if !moot && !self.nodes.get(&v.node).is_some_and(held) {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me
            && !moot
            && !v
                .sig
                .verify(&self.cfg.registry, DOMAIN_VOTE, &v.signing_bytes())
        {
            self.rejected += 1;
            return;
        }
        // Leader-side curRank update (Algorithm 3 lines 38–42); the claim
        // need only be a certified lower bound.
        if self.cfg.mode == HsRankMode::Ladon
            && v.rank_m > cur.rank
            && RankCert::validate_lower_bound(v.rank_m, v.rank_qc.as_ref(), self.epoch_min, |qc| {
                self.certs.verified(qc)
            })
        {
            *cur = RankCert {
                rank: v.rank_m,
                cert: v.rank_qc.clone(),
            };
        }
        if moot {
            return;
        }
        let (view, height, node, rank) = (v.view, v.height, v.node, v.rank);
        let votes = self.votes.entry(node).or_default();
        votes.insert(from, v);
        if votes.len() >= quorum(self.cfg.n) {
            // Form the QC for this node (generateQC, Algorithm 3 line 3)
            // from every vote held: the quorum's, since later ones are
            // moot.
            let shares: Vec<Signature> = votes.values().map(|x| x.sig).collect();
            let (n, instance) = (self.cfg.n, self.cfg.instance);
            if let Some(qc) = HsQc::from_votes(&shares, n, view, height, instance, node, rank) {
                // Forming the QC certifies the node's rank (the HotStuff
                // analog of Algorithm 2 line 25): without this the pipelined
                // leader would reuse a stale curRank and assign its next node
                // the same rank, breaking Lemma 2's intra-instance
                // monotonicity — and with it global-order agreement, since
                // ordering keys are (rank, instance).
                self.adopt_rank(&qc, cur);
                // Announced at once, so backups commit on it now rather
                // than when the next proposal carries it.
                out.push(Action::Broadcast(HsMsg::Qc(qc.clone())));
                // Not moot, so above every height certified so far.
                self.generic_qc = qc;
            }
        }
        // Garbage-collect vote maps at or below the commit frontier, by
        // the height the (verified) votes themselves name.
        if self.votes.len() > 64 {
            let horizon = self.committed_upto;
            self.votes
                .retain(|_, m| m.values().next().is_some_and(|v| v.height > horizon));
        }
    }

    /// A QC the leader of its view announced: the commit rule the next
    /// proposal's `justify` would run, `commit_through(h − 2, node)`, run
    /// now. It commits nothing unless this replica holds the certified
    /// node (the walk starts from it). Nothing else moves: `generic_qc`,
    /// the lock, `curRank` and the deadline change only on the proposal
    /// and vote paths. The certificate is verified through the cache, so
    /// the next proposal's `justify` is a hit.
    fn handle_qc(&mut self, from: ReplicaId, qc: &HsQc, out: &mut Vec<Action>) {
        let cert = qc.cert();
        if cert.instance != self.cfg.instance
            || from != self.leader_of(cert.view)
            || !qc.verified(&self.certs)
        {
            self.rejected += 1;
            return;
        }
        let below = Round(qc.height().0.saturating_sub(2));
        self.commit_through(below, qc.node(), out);
    }

    /// When the liveness deadline started, if the instance waits on one.
    pub fn liveness_since(&self) -> Option<TimeNs> {
        self.deadline.map(|(_, since)| since)
    }

    /// Starts waiting on the height above the commit frontier from `now`,
    /// unless a deadline is already running.
    pub fn wait_from(&mut self, now: TimeNs) {
        self.deadline
            .get_or_insert((self.committed_upto.next(), now));
    }

    /// Whether `height` is settled: its proposal is held, or it is at or
    /// below the commit frontier (certified long ago, whether or not its
    /// node is still held).
    fn settled(&self, height: Round) -> bool {
        height <= self.committed_upto || self.nodes.values().any(|node| node.height == height)
    }

    /// Host callback: the liveness deadline expired; request a view
    /// change if the awaited height did not settle. A leader whose
    /// instance is done with the epoch waits for nothing. A backup keeps
    /// its deadline: it is the way out if the next epoch's leader is gone.
    pub fn on_timeout(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        let Some((height, _)) = self.deadline.take() else {
            return out;
        };
        if (self.is_leader() && self.stopped_for_epoch()) || self.settled(height) {
            return out;
        }
        let new_view = self.view.next();
        let nv_sig = Signature::sign(&self.cfg.signer, DOMAIN_NEWVIEW, &new_view.0.to_le_bytes());
        let nv = HsNewView {
            view: new_view,
            instance: self.cfg.instance,
            justify: self.generic_qc.clone(),
            sig: nv_sig,
        };
        out.push(Action::ViewChangeStarted { view: new_view });
        let leader = self.leader_of(new_view);
        if leader == self.cfg.me {
            self.handle_new_view(self.cfg.me, nv, &mut out);
        } else {
            out.push(Action::Send(leader, HsMsg::NewView(nv)));
        }
        out
    }

    fn handle_new_view(&mut self, from: ReplicaId, nv: HsNewView, out: &mut Vec<Action>) {
        if nv.instance != self.cfg.instance
            || nv.view <= self.view
            || nv.view > MAX_VIEW
            || self.leader_of(nv.view) != self.cfg.me
        {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me
            && (from != nv.sig.signer()
                || !nv
                    .sig
                    .verify(&self.cfg.registry, DOMAIN_NEWVIEW, &nv.view.0.to_le_bytes())
                || !nv.justify.verified(&self.certs))
        {
            self.rejected += 1;
            return;
        }
        if nv.justify.height() > self.generic_qc.height() {
            self.generic_qc = nv.justify.clone();
        }
        let view = nv.view;
        if self
            .new_views
            .get(&from)
            .is_some_and(|held| held.view >= view)
        {
            return;
        }
        self.new_views.insert(from, nv);
        let naming = self.new_views.values().filter(|nv| nv.view == view);
        if naming.count() >= quorum(self.cfg.n) {
            // Install the new view; the next propose() extends generic_qc,
            // and this leader's vote for it starts the next deadline.
            self.view = view;
            self.deadline = None;
            self.proposed_height = self.generic_qc.height();
            self.new_views.retain(|_, nv| nv.view > view);
            out.push(Action::NewViewInstalled { view });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::MAX_PENDING_MSGS;

    fn batch(first: u64, count: u32) -> Batch {
        Batch {
            first_tx: ladon_types::TxId(first),
            count,
            payload_bytes: count as u64 * 500,
            arrival_sum_ns: 0,
            bucket: 0,
            refs: Vec::new(),
        }
    }

    /// Mini-cluster driving `n` HS instances over an in-memory queue.
    struct HsCluster {
        nodes: Vec<HsInstance>,
        curs: Vec<RankCert>,
        committed: Vec<Vec<Block>>,
        /// Views each replica reported installed.
        installed: Vec<Vec<View>>,
        queue: std::collections::VecDeque<(usize, ReplicaId, HsMsg)>,
        /// Clock handed to every handler.
        now: TimeNs,
        n: usize,
        /// While set, the leader's QC announcements are kept here, one
        /// per recipient, instead of being delivered.
        held_qcs: Option<Vec<(usize, ReplicaId, HsMsg)>>,
    }

    impl HsCluster {
        fn new(n: usize, mode: HsRankMode, epoch_max: u64) -> Self {
            let registry = KeyRegistry::generate(n, 1, 77);
            let nodes = (0..n)
                .map(|r| {
                    HsInstance::new(
                        HsConfig {
                            instance: InstanceId(0),
                            me: ReplicaId(r as u32),
                            n,
                            registry: registry.clone(),
                            signer: registry.signer(ReplicaId(r as u32)),
                            mode,
                        },
                        Rank(0),
                        Rank(epoch_max),
                    )
                })
                .collect();
            Self {
                nodes,
                curs: vec![RankCert::genesis(Rank(0)); n],
                committed: vec![Vec::new(); n],
                installed: vec![Vec::new(); n],
                queue: Default::default(),
                now: TimeNs::ZERO,
                n,
                held_qcs: None,
            }
        }

        fn absorb(&mut self, who: usize, actions: Vec<Action>) {
            for a in actions {
                match a {
                    Action::Broadcast(m) => {
                        for to in 0..self.n {
                            let sent = (to, ReplicaId(who as u32), m.clone());
                            match (&mut self.held_qcs, &m) {
                                _ if to == who => {}
                                (Some(held), HsMsg::Qc(_)) => held.push(sent),
                                _ => self.queue.push_back(sent),
                            }
                        }
                    }
                    Action::Send(to, m) => {
                        self.queue
                            .push_back((to.as_usize(), ReplicaId(who as u32), m))
                    }
                    Action::Committed(b) => self.committed[who].push(b),
                    Action::NewViewInstalled { view } => self.installed[who].push(view),
                    _ => {}
                }
            }
        }

        fn run(&mut self) {
            while let Some((to, from, m)) = self.queue.pop_front() {
                let acts = self.nodes[to].on_message(from, m, self.now, &mut self.curs[to]);
                self.absorb(to, acts);
            }
        }

        fn propose(&mut self, leader: usize, b: Batch) {
            self.propose_missing(leader, b, &[]);
        }

        /// [`Self::propose`], with the proposal lost on its way to the
        /// replicas in `miss`.
        fn propose_missing(&mut self, leader: usize, b: Batch, miss: &[usize]) {
            assert!(self.nodes[leader].can_propose());
            let acts = self.nodes[leader].propose(b, self.now, &mut self.curs[leader]);
            self.absorb(leader, acts);
            self.queue
                .retain(|(to, _, m)| !(miss.contains(to) && matches!(m, HsMsg::Generic(_))));
            self.run();
        }

        /// [`Self::propose`], with the QC announced for the proposal kept
        /// from the replicas and returned, one message per recipient.
        fn propose_holding_qc(
            &mut self,
            leader: usize,
            b: Batch,
        ) -> Vec<(usize, ReplicaId, HsMsg)> {
            self.held_qcs = Some(Vec::new());
            self.propose(leader, b);
            self.held_qcs.take().expect("set above")
        }

        /// Delivers `msg` from `from` to replica `to` and reports its
        /// actions after absorbing them.
        fn deliver(&mut self, to: usize, from: ReplicaId, msg: HsMsg) -> Vec<Action> {
            let acts = self.nodes[to].on_message(from, msg, self.now, &mut self.curs[to]);
            self.absorb(to, acts.clone());
            acts
        }

        /// Moves `replicas` to the epoch ranked `min..=max`, delivering
        /// what their held proposals produce.
        fn advance_epoch(&mut self, replicas: &[usize], min: Rank, max: Rank) {
            for &r in replicas {
                let acts = self.nodes[r].advance_epoch(min, max, self.now, &mut self.curs[r]);
                self.absorb(r, acts);
            }
            self.run();
        }

        /// Has leader 0 run epoch 0 of a cluster whose `maxRank` is 3:
        /// the three real nodes, each lost to the replicas in `miss[i]`,
        /// then the dummies that flush them, delivered to everyone.
        fn run_first_epoch(&mut self, miss: [&[usize]; 3]) {
            for (i, miss) in miss.into_iter().enumerate() {
                self.propose_missing(0, batch(i as u64 * 10, 5), miss);
            }
            while !self.nodes[0].stopped_for_epoch() {
                self.propose(0, Batch::empty(0));
            }
        }

        /// Asserts that the committed logs of `replicas` agree: each is a
        /// prefix of every longer one.
        fn assert_logs_agree(&self, replicas: &[usize]) {
            for &a in replicas {
                for &b in replicas {
                    let (a, b) = (&self.committed[a], &self.committed[b]);
                    let common = a.len().min(b.len());
                    assert_eq!(a[..common], b[..common]);
                }
            }
        }

        /// The `first_tx` of each block `replica` committed.
        fn first_txs(&self, replica: usize) -> Vec<u64> {
            self.committed[replica]
                .iter()
                .map(|b| b.batch.first_tx.0)
                .collect()
        }
    }

    #[test]
    fn three_chain_commit_rule() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        // Heights 1 and 2 certified: nothing commits yet (3-chain not full).
        for i in 0..2u64 {
            c.propose(0, batch(i * 10, 5));
        }
        assert!(c.committed.iter().all(|l| l.is_empty()));
        // Height 3's QC completes the 3-chain over height 1: the backups
        // commit it on the leader's announcement, the leader on height 4.
        c.propose(0, batch(20, 5));
        assert!(c.committed[0].is_empty());
        for l in &c.committed[1..] {
            assert_eq!(l.len(), 1);
            assert_eq!(l[0].round(), Round(1));
        }
        // Height 4 commits height 1 on the leader, and its QC height 2 on
        // the backups; height 5 commits height 2 on the leader.
        c.propose(0, batch(30, 5));
        assert_eq!(c.committed[0].len(), 1);
        assert_eq!(c.committed[0][0].round(), Round(1));
        c.propose(0, batch(40, 5));
        for l in &c.committed {
            assert_eq!(l[1].round(), Round(2));
        }
        assert_eq!(c.committed[0].len(), 2);
    }

    /// What an announcement must leave as it is: `generic_qc`, the lock,
    /// `curRank` and the deadline.
    type ChainState = (HsQc, (Round, Digest), RankCert, Option<(Round, TimeNs)>);

    fn chain_state(c: &HsCluster, r: usize) -> ChainState {
        let node = &c.nodes[r];
        (
            node.generic_qc.clone(),
            node.locked,
            c.curs[r].clone(),
            node.deadline,
        )
    }

    #[test]
    fn a_backup_commits_on_the_announced_qc_and_moves_nothing_else() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..2u64 {
            c.propose(0, batch(i * 10, 5));
        }
        let held = c.propose_holding_qc(0, batch(20, 5));
        assert!(c.committed.iter().all(|l| l.is_empty()));
        let (to, from, qc) = held
            .into_iter()
            .find(|(to, ..)| *to == 1)
            .expect("one per backup");
        let HsMsg::Qc(cert) = &qc else {
            panic!("the leader announces its QC: {qc:?}");
        };
        assert_eq!(cert.height(), Round(3));
        c.now = TimeNs::from_millis(50);
        let before = chain_state(&c, 1);
        // QC(3) commits height 1 before proposal 4 exists, and nothing
        // else: the backup's genericQC is still height 2's QC.
        c.deliver(to, from, qc);
        assert_eq!(c.first_txs(1), [0]);
        assert_eq!(c.nodes[1].committed_upto(), Round(1));
        assert_eq!(chain_state(&c, 1), before);
        assert_eq!(before.0.height(), Round(2));
        assert_eq!(c.nodes[1].rejected, 0);
        // Proposal 4 carries the same QC and commits nothing more.
        let held = c.propose_holding_qc(0, batch(30, 5));
        assert_eq!(c.first_txs(1), [0]);
        assert_eq!(c.first_txs(0), [0]);
        assert_eq!(held.len(), 3);
    }

    #[test]
    fn a_backup_whose_announcement_is_lost_commits_on_the_next_proposal() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..2u64 {
            c.propose(0, batch(i * 10, 5));
        }
        drop(c.propose_holding_qc(0, batch(20, 5)));
        assert!(c.committed.iter().all(|l| l.is_empty()));
        // Proposal 4's `justify` is QC(3): height 1 commits on it, on the
        // leader and the backups alike, as without announcements.
        let held = c.propose_holding_qc(0, batch(30, 5));
        for (r, l) in c.committed.iter().enumerate() {
            assert_eq!(
                l.iter().map(Block::round).collect::<Vec<_>>(),
                [Round(1)],
                "replica {r}"
            );
        }
        // QC(4), delivered late, still commits height 2 on its backup.
        let (to, from, qc) = held
            .into_iter()
            .find(|(to, ..)| *to == 2)
            .expect("one per backup");
        c.deliver(to, from, qc);
        assert_eq!(c.first_txs(2), [0, 10]);
        assert_eq!(c.first_txs(1), [0]);
        assert!(c.nodes.iter().all(|n| n.rejected == 0));
    }

    #[test]
    fn a_forged_foreign_or_misrouted_qc_is_refused() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..2u64 {
            c.propose(0, batch(i * 10, 5));
        }
        let held = c.propose_holding_qc(0, batch(20, 5));
        let (_, _, genuine) = held
            .into_iter()
            .find(|(to, ..)| *to == 1)
            .expect("one per backup");
        let HsMsg::Qc(cert) = &genuine else {
            panic!("the leader announces its QC: {genuine:?}");
        };
        let q = cert.cert().clone();
        let registry = c.nodes[0].cfg.registry.clone();
        // QCs naming the certified node, signed by `signers` over
        // `instance` and `rank`.
        let qc_by = |signers: &[u32], instance: InstanceId, rank: Rank| {
            let shares: Vec<Signature> = signers
                .iter()
                .map(|&r| {
                    let bytes = prepare_bytes(q.view, q.round, &q.digest, instance, rank);
                    Signature::sign(&registry.signer(ReplicaId(r)), DOMAIN_VOTE, &bytes)
                })
                .collect();
            let qc = HsQc::from_votes(&shares, 4, q.view, q.round, instance, q.digest, q.rank);
            HsMsg::Qc(qc.expect("distinct signers"))
        };
        let cases = [
            (
                "short of a quorum",
                ReplicaId(0),
                qc_by(&[0, 1], q.instance, q.rank),
            ),
            (
                "a share over another rank",
                ReplicaId(0),
                qc_by(&[0, 1, 2], q.instance, Rank(9)),
            ),
            // A valid QC, of instance 1, over this instance's node.
            (
                "another instance",
                ReplicaId(0),
                qc_by(&[0, 1, 2], InstanceId(1), q.rank),
            ),
            ("not from the leader", ReplicaId(2), genuine.clone()),
        ];
        for (what, from, msg) in cases {
            let before = c.nodes[1].rejected;
            let acts = c.deliver(1, from, msg);
            assert!(acts.is_empty(), "{what}: {acts:?}");
            assert_eq!(c.nodes[1].rejected, before + 1, "{what}");
            assert!(c.committed[1].is_empty(), "{what}");
        }
        // The genuine announcement from the leader commits height 1.
        c.deliver(1, ReplicaId(0), genuine);
        assert_eq!(c.first_txs(1), [0]);
        assert_eq!(c.nodes[1].rejected, 4);
    }

    #[test]
    fn a_qc_for_a_node_the_backup_does_not_hold_commits_nothing() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..2u64 {
            c.propose(0, batch(i * 10, 5));
        }
        // Proposal 3 is lost to replica 3, whose chain stops at height 2;
        // QC(3), from replicas 0–2, still reaches it.
        c.propose_missing(0, batch(20, 5), &[3]);
        assert_eq!(c.first_txs(1), [0]);
        assert!(c.committed[3].is_empty(), "{:?}", c.first_txs(3));
        assert_eq!(c.nodes[3].committed_upto(), Round(0));
        assert_eq!(c.nodes[3].rejected, 0);
    }

    #[test]
    fn the_leader_commits_only_through_its_own_next_proposal() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..3u64 {
            c.propose(0, batch(i * 10, 5));
        }
        // Leader 0 formed and announced QC(3), on which every backup
        // committed height 1; it commits height 1 itself on proposal 4.
        assert_eq!(c.nodes[0].generic_qc.height(), Round(3));
        assert!(c.committed[0].is_empty(), "{:?}", c.first_txs(0));
        assert_eq!(c.nodes[0].committed_upto(), Round(0));
        for r in 1..4 {
            assert_eq!(c.first_txs(r), [0], "replica {r}");
        }
        let acts = c.nodes[0].propose(batch(30, 5), c.now, &mut c.curs[0]);
        let commits = acts
            .iter()
            .filter(|a| matches!(a, Action::Committed(_)))
            .count();
        assert_eq!(commits, 1, "{acts:?}");
    }

    #[test]
    fn ranks_monotone_and_vanilla_uses_heights() {
        let mut lad = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let mut iss = HsCluster::new(4, HsRankMode::None, 1000);
        for i in 0..6u64 {
            lad.propose(0, batch(i * 10, 5));
            iss.propose(0, batch(i * 10, 5));
        }
        let lblocks = &lad.committed[1];
        assert!(lblocks.len() >= 3);
        for w in lblocks.windows(2) {
            assert!(w[1].rank() > w[0].rank());
        }
        let iblocks = &iss.committed[1];
        for b in iblocks {
            assert_eq!(b.rank().0, b.round().0, "vanilla rank = height");
        }
    }

    #[test]
    fn epoch_flush_with_dummies_commits_max_rank_block() {
        // Epoch max rank 3: heights 1..=3 get ranks 1..=3; the rank-3 node
        // triggers 3 dummy proposals that flush it through the 3-chain.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        for i in 0..3u64 {
            c.propose(0, batch(i * 10, 5));
        }
        // Flush dummies.
        while !c.nodes[0].stopped_for_epoch() {
            assert!(c.nodes[0].can_propose());
            c.propose(0, Batch::empty(0));
        }
        // All three real blocks committed everywhere; dummies excluded.
        for l in &c.committed {
            assert_eq!(l.len(), 3);
            assert_eq!(l.last().unwrap().rank(), Rank(3));
            assert!(l.iter().all(|b| !b.is_nil()));
        }
        // Epoch advance re-enables proposing.
        c.advance_epoch(&[0, 1, 2, 3], Rank(4), Rank(7));
        assert!(c.nodes[0].can_propose());
        // The three dummies took heights 4..=6 and were never emitted:
        // epoch 1's first block sits at height 7 and is emitted as the
        // round after the last emitted one, on every replica. Height 10
        // commits height 7 on the leader; its QC commits height 8 on the
        // backups.
        for i in 3..7u64 {
            c.propose(0, batch(i * 10, 5));
        }
        for (r, l) in c.committed.iter().enumerate() {
            let upto = if r == 0 { 7 } else { 8 };
            let rounds: Vec<Round> = l.iter().map(Block::round).collect();
            assert_eq!(rounds, (1..=upto - 3).map(Round).collect::<Vec<_>>(), "{r}");
            assert_eq!(l[3].rank(), Rank(4), "replica {r}");
            assert_eq!(c.nodes[r].committed_upto(), Round(upto), "replica {r}");
        }
    }

    #[test]
    fn a_backup_in_the_next_epoch_still_votes_for_the_last_dummy() {
        // Epoch max rank 3. The second dummy's announced QC commits the
        // rank-3 node on the backups, which enter epoch 1 before leader
        // 0, paced, sends the third dummy.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        for i in 0..5u64 {
            c.propose(0, batch(i * 10, 5));
        }
        for r in 1..4 {
            assert!(c.nodes[r].stopped_for_epoch(), "replica {r}");
        }
        assert!(!c.nodes[0].stopped_for_epoch());
        c.advance_epoch(&[1, 2, 3], Rank(4), Rank(7));
        // Its QC lets the leader, once it committed the rank-3 node and
        // advanced too, propose epoch 1's first block.
        assert!(c.nodes[0].next_is_dummy());
        c.propose(0, Batch::empty(0));
        assert!(c.nodes.iter().all(|n| n.rejected == 0));
        assert!(c.nodes[0].stopped_for_epoch());
        // A fourth dummy, on the third's QC, is one no flush needs: a
        // backup in epoch 1 refuses it, so a leader that cannot commit
        // the rank-3 node does not keep its backups voting on dummies.
        let justify = c.nodes[0].generic_qc.clone();
        assert_eq!(justify.height(), Round(6));
        let mut fourth = HsGeneric {
            view: View(0),
            instance: InstanceId(0),
            node: HsNode {
                height: Round(7),
                digest: Digest::NIL,
                parent: justify.node(),
                batch: Batch::empty(0),
                rank: Rank(3),
                proposed_at: c.now,
                dummy: true,
            },
            justify,
            rank_m: c.curs[0].rank,
            rank_qc: c.curs[0].cert.clone(),
            vote_set: Vec::new(),
            sig: Signature::sign(&c.nodes[0].cfg.signer, DOMAIN_GENERIC, b""),
        };
        reseal(&c, &mut fourth);
        let (rejected, acts, _) = deliver_to_backup(&mut c, fourth);
        assert_eq!(rejected, 1);
        assert!(acts.is_empty(), "{acts:?}");
        c.advance_epoch(&[0], Rank(4), Rank(7));
        assert!(c.nodes[0].can_propose() && !c.nodes[0].next_is_dummy());
        for i in 5..9u64 {
            c.propose(0, batch(i * 10, 5));
        }
        c.assert_logs_agree(&[0, 1, 2, 3]);
        assert_eq!(c.first_txs(0), [0, 10, 20, 50]);
        let rejected: Vec<u64> = c.nodes.iter().map(|n| n.rejected).collect();
        assert_eq!(rejected, [0, 1, 0, 0]);
    }

    #[test]
    fn a_view_change_after_the_max_rank_node_carries_on_with_the_flush() {
        // Epoch max rank 3: leader 0 proposes the rank-3 node and one
        // dummy, then goes quiet. View 1's leader holds a certified node
        // at maxRank, so it proposes dummies until the rank-3 node
        // commits, never a second rank-3 block.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        for i in 0..4u64 {
            c.propose(0, batch(i * 10, 5));
        }
        for r in 1..4 {
            let acts = c.nodes[r].on_timeout();
            c.absorb(r, acts);
        }
        c.run();
        assert!(c.nodes[1].is_leader());
        while !c.nodes[1].stopped_for_epoch() {
            assert!(c.nodes[1].next_is_dummy());
            c.propose(1, batch(100, 5));
        }
        c.assert_logs_agree(&[0, 1, 2, 3]);
        for (r, log) in c.committed.iter().enumerate() {
            let ranks: Vec<Rank> = log.iter().map(Block::rank).collect();
            assert_eq!(ranks, [Rank(1), Rank(2), Rank(3)], "replica {r}");
            assert_eq!(c.nodes[r].rejected, 0, "replica {r}");
        }
    }

    #[test]
    fn a_backup_refuses_a_node_that_does_not_rank_above_its_parent() {
        // Epoch max rank 3: after the rank-3 node, leader 0's proposal is
        // a dummy; as a real node it would be a second rank-3 block.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        for i in 0..3u64 {
            c.propose(0, batch(i * 10, 5));
        }
        let mut real = capture(&mut c, batch(30, 5));
        assert!(real.node.dummy);
        real.node.dummy = false;
        reseal(&c, &mut real);
        let (rejected, acts, _) = deliver_to_backup(&mut c, real);
        assert_eq!(rejected, 1);
        assert!(acts.is_empty(), "{acts:?}");

        // Rank 1 over a rank-3 parent, on a genesis rank claim with no
        // vote set: `min(rank_m + 1, maxRank)` holds, the order does not.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let mut low = fourth_proposal(&mut c);
        assert_eq!(low.justify.rank(), Rank(3));
        (low.rank_m, low.rank_qc, low.vote_set) = (Rank(0), None, Vec::new());
        low.node.rank = Rank(1);
        reseal(&c, &mut low);
        let (rejected, acts, _) = deliver_to_backup(&mut c, low);
        assert_eq!(rejected, 1);
        assert!(acts.is_empty(), "{acts:?}");
    }

    #[test]
    fn a_backup_one_epoch_behind_holds_the_next_epochs_proposal_until_it_advances() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        c.run_first_epoch([&[], &[], &[]]);
        // Replica 3 has not advanced: epoch 1's first node, ranked 4, is
        // past its epoch. It holds the node instead of refusing it.
        c.advance_epoch(&[0, 1, 2], Rank(4), Rank(7));
        c.propose(0, batch(30, 5));
        assert_eq!(c.nodes[3].pending_epoch.len(), 1);
        assert_eq!(c.nodes[3].rejected, 0);
        // Its advance replays the node, which it now votes for.
        let acts = c.nodes[3].advance_epoch(Rank(4), Rank(7), c.now, &mut c.curs[3]);
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Send(_, HsMsg::Vote(_)))),
            "{acts:?}"
        );
        c.absorb(3, acts);
        c.run();
        assert!(c.nodes[3].pending_epoch.is_empty());
        for i in 4..7u64 {
            c.propose(0, batch(i * 10, 5));
        }
        c.assert_logs_agree(&[0, 1, 2, 3]);
        // Height 10 commits height 7 on the leader, its QC height 8 on
        // every backup, the one that was behind included.
        assert_eq!(c.first_txs(0), [0, 10, 20, 30]);
        assert_eq!(c.first_txs(3), [0, 10, 20, 30, 40]);
        assert_eq!(c.nodes[3].rejected, 0);

        // The hold is bounded: a leader may sign any number of nodes
        // ranked past a lagging backup's epoch.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        c.run_first_epoch([&[], &[], &[]]);
        c.advance_epoch(&[0, 2, 3], Rank(4), Rank(7));
        let ahead = Arc::new(capture(&mut c, batch(30, 5)));
        let flood = MAX_PENDING_MSGS as u64 + 10;
        for _ in 0..flood {
            let msg = HsMsg::Generic(ahead.clone());
            let acts = c.nodes[1].on_message(ReplicaId(0), msg, TimeNs::ZERO, &mut c.curs[1]);
            assert!(acts.is_empty(), "{acts:?}");
        }
        assert_eq!(c.nodes[1].pending_epoch.len(), MAX_PENDING_MSGS);
        assert_eq!(c.nodes[1].rejected, 10);
    }

    #[test]
    fn fast_forward_jumps_to_the_held_max_rank_node() {
        // Replica 3 misses epoch 0's first two nodes, so its commit walk
        // stops at the hole; it holds the rank-3 node and the dummies.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        c.run_first_epoch([&[3], &[3], &[]]);
        assert!(c.committed[3].is_empty());
        assert_eq!(c.first_txs(0), [0, 10, 20]);
        // The snapshot of epoch 0 ends each instance at round 3, rank 3.
        c.nodes[3].fast_forward(Round(3), Rank(3));
        assert_eq!(c.nodes[3].committed_upto(), Round(3));
        assert!(c.nodes[3].stopped_for_epoch());
        // Epoch 1's blocks commit through the dummies on the jumped tip
        // and are numbered from the snapshot's round on, as on the other
        // backups.
        c.advance_epoch(&[0, 1, 2, 3], Rank(4), Rank(7));
        for i in 3..7u64 {
            c.propose(0, batch(i * 10, 5));
        }
        let rounds: Vec<Round> = c.committed[3].iter().map(Block::round).collect();
        assert_eq!(rounds, [Round(4), Round(5)]);
        assert_eq!(c.committed[3][..], c.committed[1][3..]);
        assert_eq!(c.nodes[3].rejected, 0);
    }

    #[test]
    fn fast_forward_to_a_node_not_held_moves_nothing() {
        // Replica 3 misses every real node of epoch 0, the rank-3 node
        // included: it holds only the dummies above it.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 3);
        c.run_first_epoch([&[3], &[3], &[3]]);
        c.nodes[3].fast_forward(Round(3), Rank(3));
        assert_eq!(c.nodes[3].committed_upto(), Round(0));
        assert!(!c.nodes[3].stopped_for_epoch());
        c.advance_epoch(&[0, 1, 2, 3], Rank(4), Rank(7));
        for i in 3..7u64 {
            c.propose(0, batch(i * 10, 5));
        }
        assert_eq!(c.first_txs(0), [0, 10, 20, 30]);
        assert!(c.committed[3].is_empty(), "{:?}", c.first_txs(3));
    }

    #[test]
    fn a_byzantine_leader_cannot_fork_below_a_commit() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        // Leader 0's A1–A3 reach everyone, A3's QC no one; its A4 reaches
        // no one, but leader 0 commits A1 on it.
        for i in 0..2u64 {
            c.propose(0, batch(i * 10, 5));
        }
        c.propose_holding_qc(0, batch(20, 5));
        let acts = c.nodes[0].propose(batch(30, 5), TimeNs::ZERO, &mut c.curs[0]);
        c.absorb(0, acts);
        c.queue.clear();
        assert_eq!(c.first_txs(0), [0]);
        // View 1's leader, Byzantine replica 1, forgets the chain and
        // builds C1 on the genesis QC.
        let mut forgetful = HsInstance::new(c.nodes[1].cfg.clone(), Rank(0), Rank(1000));
        forgetful.view = View(1);
        c.nodes[1] = forgetful;
        c.curs[1] = RankCert::genesis(Rank(0));
        for i in 0..4u64 {
            if !c.nodes[1].can_propose() {
                break;
            }
            c.propose_missing(1, batch(500 + i * 10, 5), &[0]);
        }
        // Replicas 2 and 3 are locked on A1: C1 neither extends it nor
        // justifies a higher node, so they refuse it.
        for r in [2, 3] {
            assert_eq!(c.nodes[r].rejected, 1, "replica {r}");
        }
        c.assert_logs_agree(&[0, 2, 3]);
        assert!(c.committed[2].is_empty(), "{:?}", c.first_txs(2));
    }

    #[test]
    fn view_change_rotates_leader() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        c.propose(0, batch(0, 5));
        // Leader 0 goes quiet; the backups' height-2 deadlines expire.
        for r in 1..4 {
            let acts = c.nodes[r].on_timeout();
            c.absorb(r, acts);
        }
        c.run();
        assert_eq!(c.nodes[1].view(), View(1));
        assert!(c.nodes[1].is_leader());
        assert!(c.nodes[1].can_propose());
        // The new leader restarts from the genesis QC (the quiet leader
        // never shared the height-1 QC), so five proposals re-build heights
        // 1..=5 in view 1 and the 3-chain commits heights 1 and 2.
        for i in 0..5u64 {
            c.propose(1, batch(100 + i * 10, 3));
        }
        assert!(c.committed[2].len() >= 2);
        // No backup rejected the new leader's chain.
        for node in &c.nodes {
            assert_eq!(node.rejected, 0);
        }
    }

    #[test]
    fn a_view_change_installs_on_the_new_leader_and_on_each_backup() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        c.propose(0, batch(0, 5));
        // Leader 0 crashes; the backups' height-2 deadlines expire.
        for r in 1..4 {
            let acts = c.nodes[r].on_timeout();
            c.absorb(r, acts);
        }
        c.run();
        // Leader 1 installs view 1 from the three `NewView`s …
        assert_eq!(c.installed, [vec![], vec![View(1)], vec![], vec![]]);
        // … and each live backup enters it with the first proposal.
        c.propose_missing(1, batch(100, 3), &[0]);
        let v1 = || vec![View(1)];
        assert_eq!(c.installed, [vec![], v1(), v1(), v1()]);
    }

    #[test]
    fn a_proposal_lost_across_a_view_change_commits_no_other_node() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        // Leader 0's A1 reaches everyone and is certified; its A2 reaches
        // replica 3 only (and stays with leader 0).
        c.propose(0, batch(0, 5));
        c.propose_missing(0, batch(10, 5), &[1, 2]);
        // Replica 2 times out on height 2; replicas 0 and 3, which hold
        // A2, on height 3. Their new-views carry A1's QC to leader 1.
        for (r, height) in [(0, 3), (3, 3), (2, 2)] {
            assert_eq!(c.nodes[r].deadline, Some((Round(height), c.now)));
            let acts = c.nodes[r].on_timeout();
            c.absorb(r, acts);
        }
        c.run();
        assert!(c.nodes[1].can_propose());
        // View 1 builds B2 on A1, lost to replica 0, then B3–B5.
        c.propose_missing(1, batch(100, 5), &[0]);
        for i in 1..4u64 {
            c.propose(1, batch(100 + i * 10, 5));
        }
        c.assert_logs_agree(&[0, 1, 2, 3]);
        // B5 commits B2 on leader 1; its QC commits B3 on replicas 2, 3.
        assert_eq!(c.first_txs(1), [0, 100]);
        for r in 2..4 {
            assert_eq!(c.first_txs(r), [0, 100, 110], "replica {r}");
        }
        // Replica 0 holds A2 at height 2, but B3 descends from B2: it
        // waits at the missing ancestor instead of committing A2.
        assert!(c.committed[0].is_empty(), "{:?}", c.first_txs(0));
        assert_eq!(c.nodes[0].committed_upto(), Round(0));
    }

    #[test]
    fn an_equivocating_leader_splits_no_honest_replicas() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        c.propose(0, batch(0, 5));
        // Byzantine leader 0 proposes A2 at height 2 and sends it to
        // replica 3 only; replicas 0–2 get a re-signed A2′ with another
        // batch at the same height, which leader 0 certifies and extends.
        let a2 = capture(&mut c, batch(10, 5));
        let mut forked = a2.clone();
        forked.node.batch = batch(20, 5);
        reseal(&c, &mut forked);
        let forked = HsMsg::Generic(Arc::new(forked));
        c.queue
            .push_back((3, ReplicaId(0), HsMsg::Generic(Arc::new(a2))));
        for to in 0..3 {
            c.queue.push_back((to, ReplicaId(0), forked.clone()));
        }
        c.run();
        for i in 3..6u64 {
            c.propose(0, batch(i * 10, 5));
        }
        c.assert_logs_agree(&[1, 2, 3]);
        // Height 5's QC commits height 3 on the backups.
        assert_eq!(c.first_txs(1), [0, 20, 30]);
        assert_eq!(c.first_txs(2), [0, 20, 30]);
        // Replica 3 holds A2 at height 2, but A3 descends from A2′.
        assert!(c.committed[3].is_empty(), "{:?}", c.first_txs(3));
    }

    #[test]
    fn tampered_generic_is_rejected() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let acts = c.nodes[0].propose(batch(0, 5), TimeNs::ZERO, &mut c.curs[0].clone());
        for a in acts {
            if let Action::Broadcast(HsMsg::Generic(g)) = a {
                let mut g = Arc::unwrap_or_clone(g);
                g.node.rank = Rank(50); // forge the rank
                let before = c.nodes[1].rejected;
                c.nodes[1].on_message(
                    ReplicaId(0),
                    HsMsg::Generic(Arc::new(g)),
                    TimeNs::ZERO,
                    &mut c.curs[1],
                );
                assert!(c.nodes[1].rejected > before);
            }
        }
    }

    #[test]
    fn generic_above_cur_rank_verifies_each_certificate_once() {
        use ladon_crypto::CryptoCounters;
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let generic = Arc::new(fourth_proposal(&mut c));
        // A backup that has not heard of any certified rank yet.
        let mut cur = RankCert::genesis(Rank(0));
        assert!(generic.rank_m > cur.rank && generic.rank_qc.is_some());

        let before = CryptoCounters::snapshot();
        c.nodes[1].on_message(
            ReplicaId(0),
            HsMsg::Generic(generic.clone()),
            TimeNs::ZERO,
            &mut cur,
        );
        let cost = CryptoCounters::snapshot().since(&before);
        assert_eq!(c.nodes[1].rejected, 0);
        assert!(cur.rank >= generic.rank_m, "the disclosure was adopted");
        // `justify` and `rank_qc` are the same certificate (the QC the
        // leader just formed is its curRank), which replica 1 verified
        // once already, on the leader's announcement of it: both checks
        // here are cache hits. The only plain verification is the
        // leader's signature: the quorum behind the vote set was checked
        // once, as that certificate.
        assert_eq!(generic.rank_qc, Some(generic.justify.to_rank_qc()));
        assert_eq!(generic.vote_set.len(), 3);
        assert_eq!(
            (cost.verifies, cost.agg_verifies, cost.qc_verify_hits),
            (1, 0, 2)
        );
    }

    /// The fourth proposal of a fresh n = 4 cluster: its `justify` is the
    /// height-3 QC of replicas {0, 1, 2} and its vote set their votes.
    fn fourth_proposal(c: &mut HsCluster) -> HsGeneric {
        for i in 0..3u64 {
            c.propose(0, batch(i * 10, 5));
        }
        capture(c, batch(30, 5))
    }

    /// Has leader 0 propose `b` and returns its `Generic`, delivered to
    /// no one.
    fn capture(c: &mut HsCluster, b: Batch) -> HsGeneric {
        let acts = c.nodes[0].propose(b, TimeNs::ZERO, &mut c.curs[0]);
        let generic = acts
            .into_iter()
            .find_map(|a| match a {
                Action::Broadcast(HsMsg::Generic(g)) => Some(g),
                _ => None,
            })
            .expect("a proposal broadcasts its Generic");
        Arc::unwrap_or_clone(generic)
    }

    /// Recomputes the digest of `g`'s edited node and re-signs `g` as
    /// leader 0.
    fn reseal(c: &HsCluster, g: &mut HsGeneric) {
        let node = &mut g.node;
        node.digest = node_digest(
            g.instance,
            node.height,
            &node.parent,
            &node.batch,
            node.rank,
            node.dummy,
        );
        let bytes = prepare_bytes(g.view, node.height, &node.digest, g.instance, node.rank);
        let leader = c.nodes[0].cfg.registry.signer(ReplicaId(0));
        g.sig = Signature::sign(&leader, DOMAIN_GENERIC, &bytes);
    }

    /// Delivers `g` to backup 1 of a cluster that accepted three heights
    /// and reports `(rejected delta, actions, curRank afterwards)`.
    fn deliver_to_backup(c: &mut HsCluster, g: HsGeneric) -> (u64, Vec<Action>, RankCert) {
        let mut cur = RankCert::genesis(Rank(0));
        let before = c.nodes[1].rejected;
        let acts = c.nodes[1].on_message(
            ReplicaId(0),
            HsMsg::Generic(Arc::new(g)),
            TimeNs::ZERO,
            &mut cur,
        );
        (c.nodes[1].rejected - before, acts, cur)
    }

    #[test]
    fn vote_set_must_be_the_justify_quorum_itself() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let good = fourth_proposal(&mut c);
        let signers: Vec<ReplicaId> = good.vote_set.iter().map(|v| v.sig.signer()).collect();
        assert_eq!(signers, [ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
        assert_eq!(signers.len(), good.justify.cert().agg.signers.len());

        // Replica 3 did vote for the parent (too late to be in the QC):
        // a genuine, correctly signed vote that `justify` does not cover.
        let registry = c.nodes[0].cfg.registry.clone();
        let mut outsider = (*good.vote_set[0]).clone();
        outsider.sig = Signature::sign(
            &registry.signer(ReplicaId(3)),
            DOMAIN_VOTE,
            &outsider.signing_bytes(),
        );
        assert!(outsider
            .sig
            .verify(&registry, DOMAIN_VOTE, &outsider.signing_bytes()));

        let edit = |f: &dyn Fn(&mut Vec<Arc<HsVote>>)| {
            let mut g = good.clone();
            f(&mut g.vote_set);
            g
        };
        let edit_vote = |f: &dyn Fn(&mut HsVote)| edit(&|set| f(Arc::make_mut(&mut set[1])));
        let cases: Vec<(&str, HsGeneric)> = vec![
            ("signer dropped", edit(&|set| drop(set.pop()))),
            (
                "signer added",
                edit(&|set| set.push(Arc::new(outsider.clone()))),
            ),
            (
                "signer replaced",
                edit(&|set| set[2] = Arc::new(outsider.clone())),
            ),
            ("signers reordered", edit(&|set| set.swap(0, 1))),
            ("signer repeated", edit(&|set| set[1] = set[0].clone())),
            ("another view", edit_vote(&|v| v.view = View(1))),
            ("another height", edit_vote(&|v| v.height = Round(2))),
            ("another rank", edit_vote(&|v| v.rank = Rank(9))),
            ("another node", edit_vote(&|v| v.node = Digest([9; 32]))),
            (
                "another instance",
                edit_vote(&|v| v.instance = InstanceId(1)),
            ),
            ("another sub-key", edit_vote(&|v| v.sig.pk.key_idx = 1)),
            ("tag bit flipped", edit_vote(&|v| v.sig.tag[31] ^= 0x80)),
            (
                "a voter knew a higher rank",
                edit_vote(&|v| v.rank_m = Rank(500)),
            ),
        ];
        for (what, forged) in cases {
            let (rejected, acts, cur) = deliver_to_backup(&mut c, forged);
            assert_eq!(rejected, 1, "{what}");
            assert!(acts.is_empty(), "{what}: {acts:?}");
            assert_eq!(cur, RankCert::genesis(Rank(0)), "{what}");
        }
        // The set as the leader sent it is accepted by the same backup.
        let rank_m = good.rank_m;
        let (rejected, acts, cur) = deliver_to_backup(&mut c, good);
        assert_eq!(rejected, 0);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send(_, HsMsg::Vote(_)))));
        assert!(cur.rank >= rank_m);
    }

    #[test]
    fn a_vanilla_backup_refuses_a_node_not_ranked_at_its_height() {
        let mut c = HsCluster::new(4, HsRankMode::None, 1000);
        let good = fourth_proposal(&mut c);
        assert_eq!((good.node.rank, good.node.dummy), (Rank(4), false));
        let edit = |f: &dyn Fn(&mut HsNode)| {
            let mut g = good.clone();
            f(&mut g.node);
            reseal(&c, &mut g);
            g
        };
        let cases: Vec<(&str, HsGeneric)> = vec![
            ("a higher rank", edit(&|n| n.rank = Rank(9))),
            ("a lower rank", edit(&|n| n.rank = Rank(3))),
            ("marked a dummy", edit(&|n| n.dummy = true)),
        ];
        for (what, forged) in cases {
            let (rejected, acts, _) = deliver_to_backup(&mut c, forged);
            assert_eq!(rejected, 1, "{what}");
            assert!(acts.is_empty(), "{what}: {acts:?}");
        }
        // The node as the leader sent it gets the backup's vote.
        let (rejected, acts, _) = deliver_to_backup(&mut c, good);
        assert_eq!(rejected, 0);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send(_, HsMsg::Vote(_)))));
    }

    #[test]
    fn height_zero_certificate_is_not_genesis() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let registry = c.nodes[0].cfg.registry.clone();
        // "Height 0" with a digest of the forger's choosing, signed by the
        // forger alone: nothing a quorum ever voted for.
        let fake_parent = Digest([0xbd; 32]);
        let share = Signature::sign(
            &registry.signer(ReplicaId(0)),
            DOMAIN_VOTE,
            &prepare_bytes(View(0), Round(0), &fake_parent, InstanceId(0), Rank(0)),
        );
        let forged = HsQc::from_votes(
            &[share],
            4,
            View(0),
            Round(0),
            InstanceId(0),
            fake_parent,
            Rank(0),
        )
        .expect("one share aggregates");
        assert!(!forged.is_genesis());
        assert!(!forged.verify(&registry, 3));

        // As the `justify` of a height-1 proposal, otherwise well formed.
        let (height, rank, payload) = (Round(1), Rank(1), batch(0, 5));
        let digest = node_digest(InstanceId(0), height, &fake_parent, &payload, rank, false);
        let generic = HsGeneric {
            view: View(0),
            instance: InstanceId(0),
            node: HsNode {
                height,
                digest,
                parent: fake_parent,
                batch: payload,
                rank,
                proposed_at: TimeNs::ZERO,
                dummy: false,
            },
            justify: forged.clone(),
            rank_m: Rank(0),
            rank_qc: None,
            vote_set: Vec::new(),
            sig: Signature::sign(
                &registry.signer(ReplicaId(0)),
                DOMAIN_GENERIC,
                &prepare_bytes(View(0), height, &digest, InstanceId(0), rank),
            ),
        };
        let (rejected, acts, _) = deliver_to_backup(&mut c, generic);
        assert_eq!(rejected, 1);
        assert!(acts.is_empty(), "{acts:?}");

        // And as the `justify` of a new-view sent to view 1's leader.
        let nv = HsNewView {
            view: View(1),
            instance: InstanceId(0),
            justify: forged,
            sig: Signature::sign(
                &registry.signer(ReplicaId(0)),
                DOMAIN_NEWVIEW,
                &View(1).0.to_le_bytes(),
            ),
        };
        let before = c.nodes[1].rejected;
        c.nodes[1].on_message(
            ReplicaId(0),
            HsMsg::NewView(nv),
            TimeNs::ZERO,
            &mut c.curs[1],
        );
        assert_eq!(c.nodes[1].rejected, before + 1);
        assert!(c.nodes[1].new_views.is_empty());
        assert!(c.nodes[1].generic_qc.is_genesis());
    }

    #[test]
    fn votes_after_the_quorum_are_moot_but_their_rank_claim_counts() {
        use ladon_crypto::CryptoCounters;
        // n = 7: a quorum of 5 (the leader's own vote and four others),
        // two votes left over.
        let mut c = HsCluster::new(7, HsRankMode::Ladon, 1000);
        let acts = c.nodes[0].propose(batch(0, 5), TimeNs::ZERO, &mut c.curs[0]);
        c.absorb(0, acts);
        let mut votes = Vec::new();
        while let Some((to, from, m)) = c.queue.pop_front() {
            for a in c.nodes[to].on_message(from, m, TimeNs::ZERO, &mut c.curs[to]) {
                if let Action::Send(_, HsMsg::Vote(v)) = a {
                    votes.push((ReplicaId(to as u32), v));
                }
            }
        }
        assert_eq!(votes.len(), 6);
        let node = votes[0].1.node;
        let deliver = |c: &mut HsCluster, (from, v): (ReplicaId, Arc<HsVote>)| {
            let before = CryptoCounters::snapshot();
            c.nodes[0].on_message(from, HsMsg::Vote(v), TimeNs::ZERO, &mut c.curs[0]);
            CryptoCounters::snapshot().since(&before)
        };
        let late = votes.split_off(4);
        for vote in votes {
            assert_eq!(deliver(&mut c, vote).verifies, 1);
        }
        assert_eq!(c.nodes[0].generic_qc.node(), node);
        assert_eq!(c.nodes[0].votes[&node].len(), 5);

        // A plain late vote: not checked, not stored, nothing rejected.
        let [plain, (from, claimant)]: [_; 2] = late.try_into().expect("two left");
        let cost = deliver(&mut c, plain);
        assert_eq!((cost.verifies, cost.agg_verifies), (0, 0));
        assert_eq!(c.nodes[0].votes[&node].len(), 5);

        // A late vote whose voter knows a higher certified rank: the
        // certificate is what proves the claim, and it is still checked.
        let registry = c.nodes[0].cfg.registry.clone();
        let (elsewhere, high) = (Digest([5; 32]), Rank(50));
        let shares: Vec<Signature> = (0..5)
            .map(|r| {
                Signature::sign(
                    &registry.signer(ReplicaId(r)),
                    DOMAIN_VOTE,
                    &prepare_bytes(View(0), Round(9), &elsewhere, InstanceId(1), high),
                )
            })
            .collect();
        let cert = HsQc::from_votes(
            &shares,
            7,
            View(0),
            Round(9),
            InstanceId(1),
            elsewhere,
            high,
        )
        .expect("distinct signers")
        .to_rank_qc();
        let mut claimant = Arc::unwrap_or_clone(claimant);
        claimant.rank_m = high;
        claimant.rank_qc = Some(cert);
        assert!(c.curs[0].rank < high);
        let cost = deliver(&mut c, (from, Arc::new(claimant)));
        assert_eq!((cost.verifies, cost.agg_verifies), (0, 1));
        assert_eq!(c.curs[0].rank, high);
        assert_eq!(c.nodes[0].votes[&node].len(), 5);
        assert_eq!(c.nodes[0].rejected, 0);
    }

    #[test]
    fn votes_for_nodes_the_leader_does_not_hold_are_not_held() {
        // One signer votes for 10 000 invented nodes far above the
        // certified height: none is held, none is MAC-checked.
        use ladon_crypto::CryptoCounters;
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let signer = c.nodes[0].cfg.registry.signer(ReplicaId(1));
        let before = CryptoCounters::snapshot();
        for k in 0..10_000u64 {
            let mut node = Digest([0; 32]);
            node.0[..8].copy_from_slice(&k.to_le_bytes());
            let (height, rank) = (Round(1 << 40 | k), Rank(k));
            let bytes = prepare_bytes(View(0), height, &node, InstanceId(0), rank);
            let vote = HsVote {
                view: View(0),
                height,
                instance: InstanceId(0),
                node,
                rank,
                rank_m: Rank(0),
                rank_qc: None,
                sig: Signature::sign(&signer, DOMAIN_VOTE, &bytes),
            };
            let acts = c.nodes[0].on_message(
                ReplicaId(1),
                HsMsg::Vote(Arc::new(vote)),
                TimeNs::ZERO,
                &mut c.curs[0],
            );
            assert!(acts.is_empty());
        }
        assert!(c.nodes[0].votes.is_empty());
        assert_eq!(c.nodes[0].rejected, 10_000);
        assert_eq!(CryptoCounters::snapshot().since(&before).verifies, 0);
        // A vote for the node the leader did propose still counts.
        c.propose(0, batch(0, 3));
        assert_eq!(c.nodes[0].rejected, 10_000);
        assert!(!c.nodes[0].generic_qc.is_genesis());
    }

    #[test]
    fn chain_state_follows_the_live_tail() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, u64::MAX / 2);
        for i in 0..500u64 {
            c.propose(0, batch(i * 10, 3));
        }
        // Height 500 commits height 497 on the leader; its QC commits
        // height 498 on the backups.
        for (r, node) in c.nodes.iter().enumerate() {
            let upto = if r == 0 { 497 } else { 498 };
            assert_eq!(node.committed_upto(), Round(upto), "replica {r}");
            assert_eq!(c.committed[r].len(), upto as usize, "replica {r}");
            assert!(node.nodes.len() <= 8, "replica {r}: {}", node.nodes.len());
            let heights: std::collections::BTreeSet<Round> =
                node.nodes.values().map(|n| n.height).collect();
            assert_eq!(heights.len(), node.nodes.len(), "one node per height");
            assert!(node.votes.len() <= 65, "replica {r}: {}", node.votes.len());
            assert_eq!(node.rejected, 0);
        }
    }

    #[test]
    fn a_vote_replaces_the_deadline_and_a_settled_height_expires_quietly() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        assert_eq!(c.nodes[1].liveness_since(), None);
        for i in 0..20u64 {
            c.now = TimeNs::from_millis(10 * (i + 1));
            c.propose(0, batch(i * 10, 3));
            // The vote at height i + 1 waits on the next height, from now.
            assert_eq!(c.nodes[1].deadline, Some((Round(i + 2), c.now)));
        }
        // Height 5 was certified and committed long ago and its node is
        // gone: a deadline on it must not read "never proposed".
        assert!(c.nodes[1].nodes.values().all(|n| n.height != Round(5)));
        c.nodes[1].deadline = Some((Round(5), TimeNs::ZERO));
        assert!(c.nodes[1].on_timeout().is_empty());
        assert_eq!(c.nodes[1].view(), View(0));
        // A height nobody proposed times out, once: the expiry consumes
        // the deadline.
        c.nodes[1].deadline = Some((Round(21), c.now));
        assert!(!c.nodes[1].on_timeout().is_empty());
        assert_eq!(c.nodes[1].liveness_since(), None);
        assert!(c.nodes[1].on_timeout().is_empty());
    }

    #[test]
    fn replayed_proposal_below_the_frontier_is_dropped() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        c.propose(0, batch(0, 3));
        let acts = c.nodes[0].propose(batch(10, 3), TimeNs::ZERO, &mut c.curs[0]);
        let replay = acts
            .iter()
            .find_map(|a| match a {
                Action::Broadcast(m @ HsMsg::Generic(_)) => Some(m.clone()),
                _ => None,
            })
            .expect("a proposal broadcasts its Generic");
        c.absorb(0, acts);
        c.run();
        for i in 2..20u64 {
            c.propose(0, batch(i * 10, 3));
        }
        // The genuine height-2 proposal again: it must not be stored and
        // voted on a second time.
        let held = c.nodes[1].nodes.len();
        let acts = c.nodes[1].on_message(ReplicaId(0), replay, TimeNs::ZERO, &mut c.curs[1]);
        assert!(acts.is_empty(), "{acts:?}");
        assert_eq!(c.nodes[1].rejected, 1);
        assert_eq!(c.nodes[1].nodes.len(), held);
    }

    #[test]
    fn certificate_met_on_one_instance_is_a_hit_on_another() {
        use ladon_crypto::CryptoCounters;
        // Replica 3 hosts instances 0 and 1 behind one cache, as the node
        // wires them. Instance 0 is the cluster below; instance 1 is led
        // by replica 1.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let registry = c.nodes[0].cfg.registry.clone();
        let instance_one = |me: u32| {
            HsInstance::new(
                HsConfig {
                    instance: InstanceId(1),
                    me: ReplicaId(me),
                    n: 4,
                    registry: registry.clone(),
                    signer: registry.signer(ReplicaId(me)),
                    mode: HsRankMode::Ladon,
                },
                Rank(0),
                Rank(1000),
            )
        };
        let certs = CertCache::new(registry.clone(), 3);
        c.nodes[3].share_cert_cache(certs.clone());
        let mut on_one = instance_one(3);
        on_one.share_cert_cache(certs);

        // Instance 0 runs four heights: replica 3 verified height 3's QC
        // as the fourth proposal's `justify` and adopted it as curRank.
        for i in 0..4u64 {
            c.propose(0, batch(i * 10, 5));
        }
        let cert = c.curs[3].cert.clone().expect("adopted from a justify");

        // Instance 1's leader cites that certificate for its rank.
        let proposal = instance_one(1)
            .propose(batch(0, 5), TimeNs::ZERO, &mut RankCert::certified(cert))
            .into_iter()
            .find_map(|a| match a {
                Action::Broadcast(m) => Some(m),
                _ => None,
            })
            .expect("a proposal broadcasts its Generic");
        let deliver = |to: &mut HsInstance| {
            let before = CryptoCounters::snapshot();
            let mut cur = RankCert::genesis(Rank(0));
            to.on_message(ReplicaId(1), proposal.clone(), TimeNs::ZERO, &mut cur);
            let cost = CryptoCounters::snapshot().since(&before);
            assert_eq!(to.rejected, 0);
            (cost.agg_verifies, cost.qc_verify_hits)
        };
        assert_eq!(deliver(&mut on_one), (0, 1));
        // A replica that never met it pays for it: caches are per replica.
        assert_eq!(deliver(&mut instance_one(2)), (1, 0));
    }

    #[test]
    fn pipelined_ranks_strictly_increase_within_instance() {
        // The regression behind the Ladon-HotStuff agreement failure: a
        // leader whose curRank never advanced would assign the same rank
        // to consecutive pipelined nodes, colliding their (rank, index)
        // ordering keys. Forming a node QC must certify its rank.
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..8u64 {
            c.propose(0, batch(i * 10, 3));
        }
        // Leader-side curRank tracked the chain (its own QCs certify it).
        assert!(
            c.curs[0].rank >= Rank(7),
            "leader curRank = {:?}",
            c.curs[0].rank
        );
        assert!(c.curs[0].cert.is_some());
        // Backups adopt certified ranks from the justify QC they verify.
        for r in 1..4 {
            assert!(
                c.curs[r].rank >= Rank(6),
                "backup {r} curRank = {:?}",
                c.curs[r].rank
            );
        }
        // And the vote QC re-verifies as a rank certificate.
        let qc = c.curs[0].cert.clone().expect("certified");
        assert!(qc.verify(&c.nodes[0].cfg.registry, 3));
    }

    #[test]
    fn rank_certificate_rejects_wrong_quorum_or_tamper() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..4u64 {
            c.propose(0, batch(i * 10, 3));
        }
        let mut qc = Arc::unwrap_or_clone(c.curs[0].cert.clone().expect("certified"));
        let reg = c.nodes[0].cfg.registry.clone();
        assert!(qc.verify(&reg, 3));
        assert!(!qc.verify(&reg, 4), "quorum threshold enforced");
        qc.rank = Rank(qc.rank.0 + 1);
        assert!(!qc.verify(&reg, 3), "rank is bound by the signatures");
    }

    /// A member that signs new views for ever-higher views this replica
    /// leads leaves one entry held, its highest; a quorum naming exactly
    /// that view still installs it.
    #[test]
    fn a_member_signing_ever_higher_new_views_holds_one_entry() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let registry = c.nodes[0].cfg.registry.clone();
        let nv_by = |r: u32, view: u64| {
            HsMsg::NewView(HsNewView {
                view: View(view),
                instance: InstanceId(0),
                justify: c.nodes[1].generic_qc.clone(),
                sig: Signature::sign(
                    &registry.signer(ReplicaId(r)),
                    DOMAIN_NEWVIEW,
                    &View(view).0.to_le_bytes(),
                ),
            })
        };
        // Replica 1 leads views 1, 5, 9, … of instance 0.
        let top = 1 + 4 * 9_999;
        let msgs: Vec<HsMsg> = (1..=top).step_by(4).map(|v| nv_by(0, v)).collect();
        let late = nv_by(0, 1);
        let quorum: Vec<(u32, HsMsg)> = [2, 3].map(|r| (r, nv_by(r, top))).to_vec();
        let node = &mut c.nodes[1];
        for msg in msgs {
            node.on_message(ReplicaId(0), msg, TimeNs::ZERO, &mut c.curs[1]);
        }
        assert_eq!(node.rejected, 0, "every one verified");
        assert_eq!(node.new_views.len(), 1);
        node.on_message(ReplicaId(0), late, TimeNs::ZERO, &mut c.curs[1]);
        assert_eq!(node.new_views.len(), 1, "a lower view is moot");
        for (r, msg) in quorum {
            node.on_message(ReplicaId(r), msg, TimeNs::ZERO, &mut c.curs[1]);
        }
        assert_eq!(node.view, View(top));
        assert!(node.new_views.is_empty());
    }
}
