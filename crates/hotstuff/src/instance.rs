//! The chained HotStuff instance state machine (Appendix D, Algorithm 3).
//!
//! Mirrors [`ladon-pbft`]'s instance structure: a pure state machine with
//! an [`Action`] output vocabulary, hosted by the Multi-BFT node. The
//! chain grows one node per proposal; a node commits when its 3-chain
//! successor is certified (observed through the justify QC of a later
//! proposal). Ladon rank collection rides the vote path: every vote
//! carries the voter's `curRank` and its certificate.
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
//! at most two aggregate checks however many votes it carries.
//!
//! [`ladon-pbft`]: ../ladon_pbft/index.html

use crate::msg::{
    node_bytes, HsGeneric, HsMsg, HsNewView, HsNode, HsQc, HsVote, DOMAIN_GENERIC, DOMAIN_NEWVIEW,
    DOMAIN_VOTE,
};
use ladon_crypto::keys::Signer;
use ladon_crypto::{sha256_parts, AggregateSignature, CertCache, KeyRegistry, RankCert, Signature};
use ladon_types::{
    Batch, Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs, View,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Heights kept below the commit frontier: the 3-chain tail.
const CHAIN_TAIL: u64 = 3;

/// The highest view an instance enters. Views are chosen by peers (a
/// proposal or new-view names one) and the hosting node multiplexes them
/// into 16 bits of its timer ids, so a message naming a higher view is
/// rejected at the door like any other malformed input.
pub const MAX_VIEW: View = View(u16::MAX as u64);

/// Rank participation mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HsRankMode {
    /// Vanilla chained HotStuff (ISS-HotStuff baseline).
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

impl HsConfig {
    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * ((self.n - 1) / 3) + 1
    }
}

/// Effects requested by the state machine: the shared vocabulary over
/// this instance's wire message. HotStuff emits `StartRoundTimer` with
/// the *height* that must be certified before the timer fires, and never
/// `StartViewChangeTimer` or `NewViewInstalled`.
pub type Action = ladon_types::Action<HsMsg>;

struct NodeEntry {
    node: HsNode,
    committed: bool,
}

/// The chained HotStuff instance.
pub struct HsInstance {
    cfg: HsConfig,
    /// Where certificates are verified: the replica's cache when the
    /// hosting node shared one, a private one otherwise.
    certs: CertCache,
    view: View,
    /// Known nodes by digest, from [`CHAIN_TAIL`] heights below the
    /// commit frontier up.
    nodes: HashMap<Digest, NodeEntry>,
    /// Nodes by height (happy path: exactly one per height), over the
    /// same span as `nodes`.
    by_height: BTreeMap<Round, Digest>,
    /// Highest certified node (the `genericQC`).
    generic_qc: HsQc,
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
    /// Dummy nodes still to propose to flush the epoch (footnote 4).
    dummies_left: u32,
    stopped_for_epoch: bool,
    /// New-view messages collected by a prospective leader.
    new_views: BTreeMap<View, BTreeMap<ReplicaId, HsNewView>>,
    /// Count of rejected messages (observability).
    pub rejected: u64,
    /// Count of view changes completed.
    pub view_changes_completed: u64,
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
            certs: CertCache::new(cfg.registry.clone(), cfg.quorum()),
            cfg,
            view: View(0),
            nodes: HashMap::new(),
            by_height: BTreeMap::new(),
            votes: HashMap::new(),
            proposed_height: Round(0),
            committed_upto: Round(0),
            emitted: 0,
            epoch_min,
            epoch_max,
            dummies_left: 0,
            stopped_for_epoch: false,
            new_views: BTreeMap::new(),
            rejected: 0,
            view_changes_completed: 0,
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
        ReplicaId(((self.cfg.instance.0 as u64 + view.0) % self.cfg.n as u64) as u32)
    }

    /// Whether the local replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.cfg.me
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The key registry this instance verifies against.
    pub fn cfg_registry(&self) -> ladon_crypto::KeyRegistry {
        self.cfg.registry.clone()
    }

    /// Highest contiguously committed height — dummies included, so not
    /// the round of the last emitted block.
    pub fn committed_upto(&self) -> Round {
        self.committed_upto
    }

    /// Whether the leader has flushed and stopped for this epoch.
    pub fn stopped_for_epoch(&self) -> bool {
        self.stopped_for_epoch
    }

    /// The leader may propose when it holds the QC for its previous node
    /// (or is at genesis / resuming a view).
    pub fn can_propose(&self) -> bool {
        if !self.is_leader() || self.stopped_for_epoch {
            return false;
        }
        self.generic_qc.height() >= self.proposed_height
    }

    /// Whether the next proposal would be an epoch-flush dummy.
    pub fn next_is_dummy(&self) -> bool {
        self.dummies_left > 0
    }

    /// Installs the next epoch's rank range.
    pub fn advance_epoch(&mut self, min: Rank, max: Rank) {
        assert!(min > self.epoch_max, "epochs must advance forward");
        self.epoch_min = min;
        self.epoch_max = max;
        self.stopped_for_epoch = false;
        self.dummies_left = 0;
        self.certs.advance_epoch(min);
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
        let dummy = self.dummies_left > 0;
        let batch = if dummy { Batch::empty(0) } else { batch };

        let rank = match self.cfg.mode {
            HsRankMode::None => Rank(height.0),
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

        // Ladon epoch flush: after the maxRank node, schedule 3 dummies.
        if self.cfg.mode == HsRankMode::Ladon && !dummy && rank == self.epoch_max {
            self.dummies_left = 3;
        }
        if dummy {
            self.dummies_left -= 1;
            if self.dummies_left == 0 {
                self.stopped_for_epoch = true;
            }
        }

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

        let bytes = node_bytes(self.view, height, &digest, self.cfg.instance, rank);
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

    /// Main entry point for network messages.
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
            HsMsg::NewView(nv) => self.handle_new_view(from, nv, now, cur, &mut out),
        }
        out
    }

    fn handle_generic(
        &mut self,
        from: ReplicaId,
        g: &HsGeneric,
        _now: TimeNs,
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
        if from != self.cfg.me {
            let bytes = node_bytes(
                g.view,
                g.node.height,
                &g.node.digest,
                g.instance,
                g.node.rank,
            );
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
            if self.cfg.mode == HsRankMode::Ladon && !self.validate_rank(g) {
                self.rejected += 1;
                return;
            }
        }

        // Implicit view synchronisation: a valid proposal from the leader
        // of a higher view moves us there.
        if g.view > self.view {
            self.view = g.view;
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
        if self.cfg.mode == HsRankMode::Ladon
            && !g.justify.is_genesis()
            && g.justify.rank() > cur.rank
        {
            *cur = RankCert::certified(g.justify.to_rank_qc());
        }

        // Store the node.
        self.by_height.insert(g.node.height, g.node.digest);
        self.nodes.entry(g.node.digest).or_insert(NodeEntry {
            node: g.node.clone(),
            committed: false,
        });

        // Commit rule: the proposal's justify certifies height h − 1; the
        // 3-chain predecessor (height h − 3) and everything below commit.
        if g.node.height.0 >= 3 {
            self.commit_through(Round(g.node.height.0 - 3), out);
        }

        // Vote for the proposal (Algorithm 3 lines 24–26), updating the
        // leader with our curRank.
        let vote_sig = Signature::sign(
            &self.cfg.signer,
            DOMAIN_VOTE,
            &node_bytes(
                g.view,
                g.node.height,
                &g.node.digest,
                g.instance,
                g.node.rank,
            ),
        );
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
        out.push(Action::StartRoundTimer {
            round: g.node.height.next(),
            view: self.view,
        });
    }

    /// Validates a Ladon proposal's rank: `rank = min(rank_m + 1, maxRank)`
    /// where `rank_m` is certified by `rank_qc` and consistent with the
    /// carried vote set. The caller has verified `g.justify`.
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
        if !RankCert::validate_claim(g.rank_m, g.rank_qc.as_deref(), self.epoch_min, |qc| {
            self.certs.verified(qc)
        }) {
            return false;
        }
        // Dummies reuse maxRank.
        let expect = if g.node.dummy {
            self.epoch_max
        } else {
            Rank((g.rank_m.0 + 1).min(self.epoch_max.0))
        };
        if g.node.rank != expect {
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

    /// Commits all uncommitted nodes up to `height` (in order) and emits
    /// the non-dummy ones, numbered by what is emitted: a block's `round`
    /// is its ordinal among the instance's real blocks, which is what the
    /// ordering layer's per-instance intake counts; heights stay private
    /// to the chain. The ordinal is counted from genesis, so a replica
    /// that cannot commit the chain from its first node (a hole no peer
    /// refills, a state-only snapshot install) has no way to rejoin the
    /// numbering and stays wedged: there is no HotStuff `fast_forward`.
    fn commit_through(&mut self, height: Round, out: &mut Vec<Action>) {
        while self.committed_upto < height {
            let next = self.committed_upto.next();
            let Some(digest) = self.by_height.get(&next) else {
                return; // Hole (possible right after a view change).
            };
            let entry = self.nodes.get_mut(digest).expect("indexed node exists");
            if entry.committed {
                self.committed_upto = next;
                continue;
            }
            entry.committed = true;
            self.committed_upto = next;
            if !entry.node.dummy {
                self.emitted += 1;
                out.push(Action::Committed(Block {
                    header: BlockHeader {
                        index: self.cfg.instance,
                        round: Round(self.emitted),
                        rank: entry.node.rank,
                        payload_digest: entry.node.digest,
                    },
                    batch: entry.node.batch.clone(),
                    proposed_at: entry.node.proposed_at,
                }));
            }
        }
        // Nothing reads a node below the frontier's 3-chain tail again.
        let keep_from = Round(self.committed_upto.0.saturating_sub(CHAIN_TAIL));
        if self
            .by_height
            .first_key_value()
            .is_some_and(|(h, _)| *h < keep_from)
        {
            self.by_height = self.by_height.split_off(&keep_from);
            self.nodes.retain(|_, e| e.node.height >= keep_from);
        }
    }

    fn handle_vote(
        &mut self,
        from: ReplicaId,
        v: Arc<HsVote>,
        cur: &mut RankCert,
        _out: &mut [Action],
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
        if from != self.cfg.me
            && !moot
            && !v
                .sig
                .verify(&self.cfg.registry, DOMAIN_VOTE, &v.signing_bytes())
        {
            self.rejected += 1;
            return;
        }
        // Leader-side curRank update (Algorithm 3 lines 38–42).
        if self.cfg.mode == HsRankMode::Ladon && v.rank_m > cur.rank {
            let ok = match &v.rank_qc {
                Some(qc) => qc.rank >= v.rank_m && self.certs.verified(qc),
                None => v.rank_m == self.epoch_min,
            };
            if ok {
                *cur = RankCert {
                    rank: v.rank_m,
                    cert: v.rank_qc.clone(),
                };
            }
        }
        if moot {
            return;
        }
        let (view, height, node, rank) = (v.view, v.height, v.node, v.rank);
        let votes = self.votes.entry(node).or_default();
        votes.insert(from, v);
        if votes.len() >= self.cfg.quorum() {
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
                if self.cfg.mode == HsRankMode::Ladon && qc.rank() > cur.rank {
                    *cur = RankCert::certified(qc.to_rank_qc());
                }
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

    /// Node callback: the height timer fired; request a view change if the
    /// chain did not advance.
    pub fn on_height_timer(&mut self, height: Round, view: View) -> Vec<Action> {
        let mut out = Vec::new();
        if view != self.view || self.stopped_for_epoch {
            return out;
        }
        // A height at or below the commit frontier was certified long
        // ago, whether or not its node is still held.
        if height <= self.committed_upto || self.by_height.contains_key(&height) {
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
            let mut cur = RankCert::genesis(self.epoch_min);
            self.handle_new_view(self.cfg.me, nv, TimeNs::ZERO, &mut cur, &mut out);
        } else {
            out.push(Action::Send(leader, HsMsg::NewView(nv)));
        }
        out
    }

    fn handle_new_view(
        &mut self,
        from: ReplicaId,
        nv: HsNewView,
        _now: TimeNs,
        _cur: &mut RankCert,
        _out: &mut Vec<Action>,
    ) {
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
        let entry = self.new_views.entry(view).or_default();
        entry.insert(from, nv);
        if entry.len() >= self.cfg.quorum() {
            // Install the new view; the next propose() extends generic_qc.
            self.view = view;
            self.proposed_height = self.generic_qc.height();
            self.new_views.retain(|v, _| *v > view);
            self.view_changes_completed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(first: u64, count: u32) -> Batch {
        Batch {
            first_tx: ladon_types::TxId(first),
            count,
            payload_bytes: count as u64 * 500,
            arrival_sum_ns: 0,
            earliest_arrival: TimeNs::ZERO,
            bucket: 0,
            refs: Vec::new(),
        }
    }

    /// Mini-cluster driving `n` HS instances over an in-memory queue.
    struct HsCluster {
        nodes: Vec<HsInstance>,
        curs: Vec<RankCert>,
        committed: Vec<Vec<Block>>,
        queue: std::collections::VecDeque<(usize, ReplicaId, HsMsg)>,
        n: usize,
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
                queue: Default::default(),
                n,
            }
        }

        fn absorb(&mut self, who: usize, actions: Vec<Action>) {
            for a in actions {
                match a {
                    Action::Broadcast(m) => {
                        for to in 0..self.n {
                            if to != who {
                                self.queue.push_back((to, ReplicaId(who as u32), m.clone()));
                            }
                        }
                    }
                    Action::Send(to, m) => {
                        self.queue
                            .push_back((to.as_usize(), ReplicaId(who as u32), m))
                    }
                    Action::Committed(b) => self.committed[who].push(b),
                    _ => {}
                }
            }
        }

        fn run(&mut self) {
            while let Some((to, from, m)) = self.queue.pop_front() {
                let acts = self.nodes[to].on_message(from, m, TimeNs::ZERO, &mut self.curs[to]);
                self.absorb(to, acts);
            }
        }

        fn propose(&mut self, leader: usize, b: Batch) {
            assert!(self.nodes[leader].can_propose());
            let acts = self.nodes[leader].propose(b, TimeNs::ZERO, &mut self.curs[leader]);
            self.absorb(leader, acts);
            self.run();
        }
    }

    #[test]
    fn three_chain_commit_rule() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        // Heights 1..=3 proposed: nothing commits yet (3-chain not full).
        for i in 0..3u64 {
            c.propose(0, batch(i * 10, 5));
        }
        assert!(c.committed.iter().all(|l| l.is_empty()));
        // Height 4 commits height 1.
        c.propose(0, batch(30, 5));
        for l in &c.committed {
            assert_eq!(l.len(), 1);
            assert_eq!(l[0].round(), Round(1));
        }
        // Height 5 commits height 2.
        c.propose(0, batch(40, 5));
        for l in &c.committed {
            assert_eq!(l.len(), 2);
        }
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
        for r in 0..4 {
            c.nodes[r].advance_epoch(Rank(4), Rank(7));
        }
        assert!(c.nodes[0].can_propose());
        // The three dummies took heights 4..=6 and were never emitted:
        // epoch 1's first block sits at height 7 and is emitted as the
        // round after the last emitted one, on every replica.
        for i in 3..7u64 {
            c.propose(0, batch(i * 10, 5));
        }
        for (r, l) in c.committed.iter().enumerate() {
            let rounds: Vec<Round> = l.iter().map(Block::round).collect();
            assert_eq!(rounds, (1..=4).map(Round).collect::<Vec<_>>(), "{r}");
            assert_eq!(l[3].rank(), Rank(4), "replica {r}");
            assert_eq!(c.nodes[r].committed_upto(), Round(7), "replica {r}");
        }
    }

    #[test]
    fn view_change_rotates_leader() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        c.propose(0, batch(0, 5));
        // Leader 0 goes quiet; height-2 timers fire on the backups.
        for r in 1..4 {
            let acts = c.nodes[r].on_height_timer(Round(2), View(0));
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
        // `justify` and `rank_qc` are each checked once — and here they
        // are the same certificate (the QC the leader just formed is its
        // curRank), so the second check is a cache hit. The only plain
        // verification is the leader's signature: the quorum behind the
        // vote set was checked once, as `justify`.
        assert_eq!(generic.rank_qc, Some(generic.justify.to_rank_qc()));
        assert_eq!(generic.vote_set.len(), 3);
        assert_eq!(
            (cost.verifies, cost.agg_verifies, cost.qc_verify_hits),
            (1, 1, 1)
        );
    }

    /// The fourth proposal of a fresh n = 4 cluster: its `justify` is the
    /// height-3 QC of replicas {0, 1, 2} and its vote set their votes.
    fn fourth_proposal(c: &mut HsCluster) -> HsGeneric {
        for i in 0..3u64 {
            c.propose(0, batch(i * 10, 5));
        }
        let acts = c.nodes[0].propose(batch(30, 5), TimeNs::ZERO, &mut c.curs[0]);
        let generic = acts
            .into_iter()
            .find_map(|a| match a {
                Action::Broadcast(HsMsg::Generic(g)) => Some(g),
                _ => None,
            })
            .expect("a proposal broadcasts its Generic");
        Arc::unwrap_or_clone(generic)
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
        let registry = c.nodes[0].cfg_registry();
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
    fn height_zero_certificate_is_not_genesis() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        let registry = c.nodes[0].cfg_registry();
        // "Height 0" with a digest of the forger's choosing, signed by the
        // forger alone: nothing a quorum ever voted for.
        let fake_parent = Digest([0xbd; 32]);
        let share = Signature::sign(
            &registry.signer(ReplicaId(0)),
            DOMAIN_VOTE,
            &node_bytes(View(0), Round(0), &fake_parent, InstanceId(0), Rank(0)),
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
                &node_bytes(View(0), height, &digest, InstanceId(0), rank),
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
        let registry = c.nodes[0].cfg_registry();
        let (elsewhere, high) = (Digest([5; 32]), Rank(50));
        let shares: Vec<Signature> = (0..5)
            .map(|r| {
                Signature::sign(
                    &registry.signer(ReplicaId(r)),
                    DOMAIN_VOTE,
                    &node_bytes(View(0), Round(9), &elsewhere, InstanceId(1), high),
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
    fn chain_state_follows_the_live_tail() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, u64::MAX / 2);
        for i in 0..500u64 {
            c.propose(0, batch(i * 10, 3));
        }
        for (r, node) in c.nodes.iter().enumerate() {
            assert_eq!(node.committed_upto(), Round(497), "replica {r}");
            assert_eq!(c.committed[r].len(), 497, "replica {r}");
            assert!(node.nodes.len() <= 8, "replica {r}: {}", node.nodes.len());
            assert_eq!(node.by_height.len(), node.nodes.len());
            assert!(node.votes.len() <= 65, "replica {r}: {}", node.votes.len());
            assert_eq!(node.rejected, 0);
        }
    }

    #[test]
    fn stale_timer_for_a_pruned_height_emits_nothing() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..20u64 {
            c.propose(0, batch(i * 10, 3));
        }
        // Height 5 was certified and committed long ago and its node is
        // gone; its 10-second timer must not read "never proposed".
        assert!(!c.nodes[1].by_height.contains_key(&Round(5)));
        assert!(c.nodes[1].on_height_timer(Round(5), View(0)).is_empty());
        assert_eq!(c.nodes[1].view(), View(0));
        // A height nobody proposed still times out.
        assert!(!c.nodes[1].on_height_timer(Round(21), View(0)).is_empty());
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
        let registry = c.nodes[0].cfg_registry();
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
        assert!(qc.verify(&c.nodes[0].cfg_registry(), 3));
    }

    #[test]
    fn rank_certificate_rejects_wrong_quorum_or_tamper() {
        let mut c = HsCluster::new(4, HsRankMode::Ladon, 1000);
        for i in 0..4u64 {
            c.propose(0, batch(i * 10, 3));
        }
        let mut qc = Arc::unwrap_or_clone(c.curs[0].cert.clone().expect("certified"));
        let reg = c.nodes[0].cfg_registry();
        assert!(qc.verify(&reg, 3));
        assert!(!qc.verify(&reg, 4), "quorum threshold enforced");
        qc.rank = Rank(qc.rank.0 + 1);
        assert!(!qc.verify(&reg, 3), "rank is bound by the signatures");
    }
}
