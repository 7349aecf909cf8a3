//! The PBFT consensus instance state machine (Algorithm 2).
//!
//! One [`PbftInstance`] runs per `(replica, instance-index)` pair. The
//! Multi-BFT node (`ladon-core`) owns `m` of these plus the shared
//! `curRank` state, routes network messages to them, paces leader
//! proposals, and feeds committed blocks to the global ordering layer.
//!
//! The instance is a pure state machine: every entry point returns a list
//! of [`Action`]s (sends, commits, timer requests) and performs no I/O, so
//! it runs identically under the discrete-event engine, the live threaded
//! runtime, and direct unit-test drivers.
//!
//! # What a round keeps, and for how long
//!
//! State is proportional to the rounds *in flight*. A `RoundState`
//! moves through three stages and sheds what the next one cannot read:
//!
//! | stage | entered when | holds |
//! |---|---|---|
//! | **open** | first vote or the pre-prepare arrives | the proposal (`digest`, `rank`, `batch`, `proposed_at`) once adopted; a prepare `Tally` and a commit `Tally`, each allocated on its phase's first vote |
//! | **prepared** | 2f+1 matching prepares (`sent_commit`) | the proposal, `prepare_qc`; the prepare tally is **freed** — its shares now live in the QC; the commit tally |
//! | **committed** | 2f+1 matching commits, or [`PbftInstance::install_committed`] | the proposal and `prepare_qc` (state transfer and view changes serve from them) until the epoch horizon collects the round; the commit tally is **freed** |
//!
//! (The two phases decide independently: a replica that sees the commit
//! quorum first commits while its prepare tally is still open.) A tally
//! is read only while its phase is undecided, so a vote for a decided
//! phase — a `Prepare` after `sent_commit`, a `Commit` after `committed` —
//! can change nothing and is dropped at the door, *before* its signature
//! is checked. Behind the commit frontier nothing re-opens: a pre-prepare
//! for a round at or below it is refused, and a vote for one whose state
//! has been collected is dropped, so a replayed or late message cannot
//! resurrect a round. A view change re-opens every uncommitted round
//! (both tallies dropped, flags cleared).
//!
//! Certificates are verified through the replica's
//! [`ladon_crypto::CertCache`]: the hosting node installs one handle in
//! all its instances ([`PbftInstance::share_cert_cache`]); an instance
//! built on its own holds a private cache of the same type.

use crate::msg::{
    NewView, PbftMsg, Phase, PhaseVote, PrePrepare, PreparedEntry, RankBody, RankProof, RankReport,
    SignedRank, ViewChange, DOMAIN_COMMIT, DOMAIN_NEWVIEW, DOMAIN_PREPREPARE, DOMAIN_RANK,
    DOMAIN_VIEWCHANGE,
};
use ladon_crypto::keys::Signer;
use ladon_crypto::{
    digest_batch, AggregateSignature, CertCache, KeyRegistry, QuorumCert, RankCert, Signature,
};
use ladon_types::{
    Batch, Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs, View,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the instance participates in rank coordination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RankMode {
    /// Vanilla PBFT (baseline protocols): no rank machinery; block rank is
    /// set to the round number so downstream code has a total order key.
    None,
    /// Ladon-PBFT (§5.2.2): full rank sets with per-message signatures.
    Plain,
    /// Ladon-opt (§5.3): aggregate-signature rank encoding.
    Opt,
}

/// Leader rank-selection strategy (§4.4, Appendix B).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RankStrategy {
    /// Honest: choose the maximum of the collected ranks, refreshing the
    /// leader's own report at proposal time (see the refresh comment in
    /// [`PbftInstance::propose`]).
    Honest,
    /// Honest but without the proposal-time refresh — Algorithm 2 taken
    /// literally, where the collected reports can be one pacing interval
    /// stale. Exists for the ablation bench: stale maxima let slow
    /// leaders' ranks tie with blocks committed since collection, which
    /// is measurable as causal-strength loss.
    HonestStale,
    /// Byzantine rank minimization: collect more than 2f+1 reports,
    /// discard the highest, and use the lowest 2f+1 (Appendix B case 3).
    MinimizeLowest,
}

/// Static configuration of one instance on one replica.
#[derive(Clone)]
pub struct InstanceConfig {
    /// This instance's index.
    pub instance: InstanceId,
    /// The local replica.
    pub me: ReplicaId,
    /// Total replicas `n`.
    pub n: usize,
    /// Verification oracle.
    pub registry: KeyRegistry,
    /// The local replica's signing handle.
    pub signer: Signer,
    /// Rank mode.
    pub mode: RankMode,
    /// Leader rank-selection strategy.
    pub strategy: RankStrategy,
}

impl InstanceConfig {
    /// Quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * ((self.n - 1) / 3) + 1
    }
}

/// Effects requested by the state machine: the shared vocabulary over
/// this instance's wire message.
pub type Action = ladon_types::Action<PbftMsg>;

/// What a tally keeps of one vote: the pair the quorum rule compares and
/// the share a QC aggregates.
#[derive(Clone, Copy)]
struct VoteSlot {
    digest: Digest,
    rank: Rank,
    sig: Signature,
}

/// The votes of one phase of one round: one slot per replica, indexed by
/// sender, so a sender's later vote replaces its earlier one and the
/// slots read back in replica order (the order QC shares aggregate in).
struct Tally {
    slots: Box<[Option<VoteSlot>]>,
    filled: usize,
}

impl Tally {
    fn new(n: usize) -> Self {
        Self {
            slots: vec![None; n].into_boxed_slice(),
            filled: 0,
        }
    }

    /// Records `from`'s vote; `false` if `from` is not a replica.
    fn record(&mut self, from: ReplicaId, vote: VoteSlot) -> bool {
        let Some(slot) = self.slots.get_mut(from.as_usize()) else {
            return false;
        };
        self.filled += usize::from(slot.is_none());
        *slot = Some(vote);
        true
    }

    /// The votes for `(d, rank)`, in replica order.
    fn matching<'a>(&'a self, d: &'a Digest, rank: Rank) -> impl Iterator<Item = &'a VoteSlot> {
        self.slots
            .iter()
            .flatten()
            .filter(move |v| v.digest == *d && v.rank == rank)
    }

    /// Whether `q` votes match `(d, rank)`. The recount runs only once
    /// `q` slots are filled, and a phase that reaches its quorum drops
    /// its tally, so the fault-free path recounts once per phase.
    fn has_quorum(&self, d: &Digest, rank: Rank, q: usize) -> bool {
        self.filled >= q && self.matching(d, rank).count() >= q
    }
}

/// Per-round bookkeeping (see the module docs for what each stage keeps).
#[derive(Default)]
struct RoundState {
    /// Set once a valid pre-prepare (or certified re-proposal) is adopted.
    digest: Option<Digest>,
    rank: Rank,
    batch: Option<Batch>,
    proposed_at: TimeNs,
    /// Prepare votes; `None` before the first one and once `sent_commit`.
    prepares: Option<Tally>,
    /// Commit votes; `None` before the first one and once `committed`.
    commits: Option<Tally>,
    sent_prepare: bool,
    sent_commit: bool,
    committed: bool,
    prepare_qc: Option<Arc<QuorumCert>>,
}

impl RoundState {
    /// Whether `phase` is decided for this round, i.e. nothing reads its
    /// votes any more.
    fn decided(&self, phase: Phase) -> bool {
        match phase {
            Phase::Prepare => self.sent_commit,
            Phase::Commit => self.committed,
        }
    }

    /// Re-opens the round for a new view: votes of the old one cannot
    /// count toward it.
    fn reopen(&mut self) {
        self.prepares = None;
        self.commits = None;
        self.sent_prepare = false;
        self.sent_commit = false;
    }
}

/// The deterministic summary of a view-change quorum: what the new view
/// re-proposes, what it fills with nils, and where fresh proposals resume.
///
/// Both the new leader (building the new-view message) and every backup
/// (validating it) derive the plan from the same 2f+1 view-change messages,
/// so no field of it needs to be trusted from the leader.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewPlan {
    /// Highest contiguously-committed round any quorum member reported.
    pub max_lc: Round,
    /// Certified proposals to re-run, one per round, sorted by round.
    pub reproposals: Vec<PreparedEntry>,
    /// Gap rounds to fill with nil blocks, with their assigned ranks.
    pub nils: Vec<(Round, Rank)>,
    /// First round the new leader proposes fresh batches for.
    pub resume_from: Round,
}

impl ViewPlan {
    /// Derives the plan from a view-change quorum.
    ///
    /// - Certified entries are unioned across messages; the newest-view QC
    ///   wins when two messages certify the same round.
    /// - Any round in `(max_lc, highest_certified)` without a certificate
    ///   is a *gap*: quorum intersection proves it never committed anywhere
    ///   (committing needs 2f+1 prepared replicas, and any two quorums
    ///   share an honest replica that would have reported the QC), so it is
    ///   filled with a nil block.
    /// - A nil reuses the rank of the nearest certified round below it
    ///   (falling back to `epoch_min`): a fresh rank would break Lemma 2's
    ///   intra-instance monotonicity, and a reused rank stays unambiguous
    ///   in the global order thanks to the `round` tie-break in
    ///   [`ladon_types::OrderKey`]. Vanilla mode keeps its `rank = round`
    ///   invariant instead.
    pub fn from_vcs<'a>(
        vcs: impl IntoIterator<Item = &'a ViewChange>,
        mode: RankMode,
        epoch_min: Rank,
    ) -> Self {
        let mut by_round: BTreeMap<Round, PreparedEntry> = BTreeMap::new();
        let mut max_lc = Round(0);
        for vc in vcs {
            max_lc = max_lc.max(vc.last_committed);
            for e in &vc.prepared {
                by_round
                    .entry(e.round)
                    .and_modify(|old| {
                        if e.qc.view > old.qc.view {
                            *old = e.clone();
                        }
                    })
                    .or_insert_with(|| e.clone());
            }
        }
        let highest = by_round.keys().next_back().copied().unwrap_or(Round(0));
        let resume_from = Round(max_lc.0.max(highest.0) + 1);

        let mut nils = Vec::new();
        // Rank anchor: the highest certified round at or below max_lc.
        let mut last_rank = by_round
            .range(..=max_lc)
            .next_back()
            .map(|(_, e)| e.rank)
            .unwrap_or(epoch_min);
        for r in max_lc.0 + 1..resume_from.0 {
            let round = Round(r);
            match by_round.get(&round) {
                Some(e) => last_rank = e.rank,
                None => {
                    let rank = match mode {
                        RankMode::None => Rank(r),
                        RankMode::Plain | RankMode::Opt => last_rank,
                    };
                    nils.push((round, rank));
                }
            }
        }
        Self {
            max_lc,
            reproposals: by_round.into_values().collect(),
            nils,
            resume_from,
        }
    }
}

/// The PBFT instance state machine.
pub struct PbftInstance {
    cfg: InstanceConfig,
    view: View,
    /// First round of the current view (its proposal carries a
    /// `FirstRound` rank proof because no same-view reports exist yet).
    view_start_round: Round,
    /// Next round the leader will propose.
    next_round: Round,
    /// Highest round `r` such that all rounds `1..=r` are committed.
    committed_upto: Round,
    rounds: BTreeMap<Round, RoundState>,
    /// Leader-side rank reports, keyed by the round whose commit phase
    /// produced them (used to propose `round + 1`).
    rank_reports: BTreeMap<Round, BTreeMap<ReplicaId, (RankReport, Rank)>>,
    /// Current epoch's rank range `[min, max]`.
    epoch_min: Rank,
    epoch_max: Rank,
    /// Set after proposing the `maxRank(e)` block (Algorithm 2 line 9).
    stopped_for_epoch: bool,
    /// Pre-prepares that failed only because our epoch lags; retried on
    /// [`PbftInstance::advance_epoch`].
    pending_epoch: Vec<(ReplicaId, Arc<PrePrepare>)>,
    /// Pre-prepares and votes from a view we have not installed yet
    /// (or from the pending view while a view change is in flight),
    /// replayed after [`PbftInstance::adopt_new_view`]. Without this
    /// buffer, the new leader's first proposals race the (slower)
    /// new-view dissemination and are silently lost, which re-triggers
    /// the round timer and livelocks the view change.
    pending_view_msgs: Vec<(ReplicaId, PbftMsg)>,
    /// View-change state.
    in_view_change: bool,
    pending_view: View,
    view_changes: BTreeMap<View, BTreeMap<ReplicaId, Arc<ViewChange>>>,
    /// First round of the current epoch (GC horizon for view changes).
    epoch_start_round: Round,
    /// Where certificates are verified: the replica's cache when the
    /// hosting node shared one, a private one otherwise. The same
    /// `QuorumCert` is carried by many messages — rank reports on every
    /// instance, every pre-prepare's rank proof in Plain mode,
    /// view-change bundles re-embedded in new-views, sync entries
    /// re-served across probes — and pays one aggregate verification.
    certs: CertCache,
    /// Count of messages rejected by validation (observability).
    pub rejected: u64,
    /// Count of view changes completed on this replica.
    pub view_changes_completed: u64,
}

impl PbftInstance {
    /// Creates the instance at view 0, round 1, with the given epoch-0
    /// rank range.
    pub fn new(cfg: InstanceConfig, epoch_min: Rank, epoch_max: Rank) -> Self {
        Self {
            certs: CertCache::new(cfg.registry.clone(), cfg.quorum()),
            cfg,
            view: View(0),
            view_start_round: Round(1),
            next_round: Round(1),
            committed_upto: Round(0),
            rounds: BTreeMap::new(),
            rank_reports: BTreeMap::new(),
            epoch_min,
            epoch_max,
            stopped_for_epoch: false,
            pending_epoch: Vec::new(),
            pending_view_msgs: Vec::new(),
            in_view_change: false,
            pending_view: View(0),
            view_changes: BTreeMap::new(),
            epoch_start_round: Round(0),
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

    /// [`RankCert::validate`] through the cert cache, over a claim's
    /// borrowed parts — the structural rules live in
    /// [`RankCert::validate_claim`], so the cached and uncached paths
    /// can never diverge.
    fn rank_claim_verified(&self, rank: Rank, cert: Option<&QuorumCert>) -> bool {
        RankCert::validate_claim(rank, cert, self.epoch_min, |qc| self.certs.verified(qc))
    }

    /// Vote slots currently allocated across all rounds (`n` per open
    /// tally): what the instance holds per round *in flight*. Zero at
    /// quiescence on the fault-free path, however long the run.
    pub fn live_vote_slots(&self) -> usize {
        self.rounds
            .values()
            .flat_map(|st| [&st.prepares, &st.commits])
            .flatten()
            .map(|t| t.slots.len())
            .sum()
    }

    /// Rounds with any state held (open, prepared or committed and not
    /// yet collected).
    pub fn rounds_held(&self) -> usize {
        self.rounds.len()
    }

    /// The leader of `view` for this instance: instances start led by the
    /// replica with the same index and rotate on view changes.
    pub fn leader_of(&self, view: View) -> ReplicaId {
        ReplicaId(((self.cfg.instance.0 as u64 + view.0) % self.cfg.n as u64) as u32)
    }

    /// Whether the local replica currently leads this instance.
    pub fn is_leader(&self) -> bool {
        !self.in_view_change && self.leader_of(self.view) == self.cfg.me
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Next round the leader would propose.
    pub fn next_round(&self) -> Round {
        self.next_round
    }

    /// Highest contiguously committed round.
    pub fn committed_upto(&self) -> Round {
        self.committed_upto
    }

    /// Whether the leader has stopped proposing for the current epoch.
    pub fn stopped_for_epoch(&self) -> bool {
        self.stopped_for_epoch
    }

    /// The current epoch rank range.
    pub fn epoch_range(&self) -> (Rank, Rank) {
        (self.epoch_min, self.epoch_max)
    }

    /// The rank mode this instance runs in.
    pub fn mode(&self) -> RankMode {
        self.cfg.mode
    }

    /// True when the leader may propose: it leads the current view and
    /// either this is the view's first round or 2f+1 rank reports for the
    /// previous round have been collected (Algorithm 2 line 1).
    pub fn can_propose(&self) -> bool {
        if !self.is_leader() || self.stopped_for_epoch {
            return false;
        }
        if self.cfg.mode == RankMode::None || self.next_round == self.view_start_round {
            return true;
        }
        let prev = match self.next_round.prev() {
            Some(p) => p,
            None => return true,
        };
        self.rank_reports
            .get(&prev)
            .is_some_and(|m| m.len() >= self.cfg.quorum())
    }

    /// Installs the next epoch's rank range, resuming proposals and
    /// retrying buffered next-epoch pre-prepares.
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
        self.stopped_for_epoch = false;
        self.epoch_start_round = self.committed_upto;
        // Old-epoch certificates will not legitimately re-arrive; keep
        // the cert cache bounded by the live epoch.
        self.certs.advance_epoch(min);
        // Garbage-collect state from two epochs ago; the previous epoch is
        // kept for late votes and view changes.
        let keep_from = Round(self.epoch_start_round.0.saturating_sub(64));
        self.rounds = self.rounds.split_off(&keep_from);
        let keep_reports = Round(self.next_round.0.saturating_sub(2));
        self.rank_reports = self.rank_reports.split_off(&keep_reports);

        let mut out = Vec::new();
        let pending = std::mem::take(&mut self.pending_epoch);
        for (from, pp) in pending {
            self.handle_preprepare(from, &pp, now, cur, &mut out);
        }
        out
    }

    // ------------------------------------------------------------------
    // Proposing
    // ------------------------------------------------------------------

    /// Leader entry point: propose `next_round` with `batch`.
    ///
    /// # Panics
    /// Panics if [`Self::can_propose`] is false (callers must check).
    pub fn propose(&mut self, batch: Batch, now: TimeNs, cur: &mut RankCert) -> Vec<Action> {
        assert!(self.can_propose(), "propose() called while not ready");
        let mut out = Vec::new();
        let round = self.next_round;
        let digest = digest_batch(&batch);

        // Refresh the leader's own rank report at proposal time: reports
        // collected during the previous commit phase may be stale by up to
        // one pacing interval, and a stale maximum would let this block's
        // rank tie with (and be ordered before) blocks that committed in
        // the meantime — exactly the causality leak monotonic ranks exist
        // to prevent. The leader's current `curRank` is always a valid,
        // certified report. Byzantine minimizers skip this (they want
        // stale, low ranks; §4.4 bounds the damage).
        if self.cfg.mode != RankMode::None
            && round != self.view_start_round
            && self.cfg.strategy == RankStrategy::Honest
        {
            if let Some(prev) = round.prev() {
                let fresh = self.build_rank_report(prev, cur);
                let claimed = match self.cfg.mode {
                    RankMode::Plain => fresh.signed.body.rank,
                    RankMode::Opt => fresh
                        .signed
                        .body
                        .rank
                        .offset(fresh.signed.sig.pk.key_idx as u64),
                    RankMode::None => unreachable!(),
                };
                self.rank_reports
                    .entry(prev)
                    .or_default()
                    .insert(self.cfg.me, (fresh, claimed));
            }
        }

        let (rank, proof) = self.choose_rank(round, cur);
        if self.cfg.mode != RankMode::None && rank == self.epoch_max {
            self.stopped_for_epoch = true;
        }

        let body =
            ladon_crypto::qc::prepare_bytes(self.view, round, &digest, self.cfg.instance, rank);
        let sig = Signature::sign(&self.cfg.signer, DOMAIN_PREPREPARE, &body);
        let pp = Arc::new(PrePrepare {
            view: self.view,
            round,
            instance: self.cfg.instance,
            rank,
            digest,
            batch,
            proposed_at: now,
            rank_proof: proof,
            sig,
        });
        self.next_round = self.next_round.next();
        out.push(Action::Broadcast(PbftMsg::PrePrepare(pp.clone())));
        // Process our own copy (leader acts as a backup of its instance).
        self.handle_preprepare(self.cfg.me, &pp, now, cur, &mut out);
        out
    }

    /// Computes the rank and proof for the proposal of `round`
    /// (Algorithm 2 lines 1–6 plus the §5.3 optimization).
    fn choose_rank(&mut self, round: Round, cur: &RankCert) -> (Rank, RankProof) {
        match self.cfg.mode {
            RankMode::None => (Rank(round.0), RankProof::None),
            _ if round == self.view_start_round => {
                let rank = Rank((cur.rank.0 + 1).min(self.epoch_max.0));
                (rank, RankProof::FirstRound(cur.clone()))
            }
            RankMode::Plain => {
                let prev = round.prev().expect("non-first round has a predecessor");
                let reports = self.rank_reports.get(&prev).expect("can_propose checked");
                // Sort reports by claimed rank.
                let mut claims: Vec<(&RankReport, Rank)> =
                    reports.values().map(|(r, claimed)| (r, *claimed)).collect();
                claims.sort_by_key(|&(_, c)| c);
                let q = self.cfg.quorum();
                let chosen: Vec<(&RankReport, Rank)> = match self.cfg.strategy {
                    // Honest: any 2f+1 including the maximum claim.
                    RankStrategy::Honest | RankStrategy::HonestStale => {
                        claims.iter().rev().take(q).cloned().collect()
                    }
                    // Byzantine: the lowest 2f+1 claims (Appendix B case 3).
                    RankStrategy::MinimizeLowest => claims.iter().take(q).cloned().collect(),
                };
                let (max_report, rank_m) = chosen
                    .iter()
                    .max_by_key(|&&(_, c)| c)
                    .copied()
                    .expect("quorum is non-empty");
                let rank = Rank((rank_m.0 + 1).min(self.epoch_max.0));
                let rank_set: Vec<SignedRank> = chosen.iter().map(|(r, _)| r.signed).collect();
                let max_cert = RankCert {
                    rank: rank_m,
                    cert: max_report.qc.clone(),
                };
                (rank, RankProof::Plain { rank_set, max_cert })
            }
            RankMode::Opt => {
                let prev = round.prev().expect("non-first round has a predecessor");
                let reports = self.rank_reports.get(&prev).expect("can_propose checked");
                let base = reports
                    .values()
                    .next()
                    .map(|(r, _)| r.signed.body.rank)
                    .expect("quorum is non-empty");
                let mut entries: Vec<&RankReport> = reports.values().map(|(r, _)| r).collect();
                // Sort by encoded offset k (the sub-key index).
                entries.sort_by_key(|r| r.signed.sig.pk.key_idx);
                let q = self.cfg.quorum();
                let chosen: Vec<&RankReport> = match self.cfg.strategy {
                    RankStrategy::Honest | RankStrategy::HonestStale => {
                        entries.iter().rev().take(q).cloned().collect()
                    }
                    RankStrategy::MinimizeLowest => entries.iter().take(q).cloned().collect(),
                };
                let sigs: Vec<Signature> = chosen.iter().map(|r| r.signed.sig).collect();
                let agg = AggregateSignature::aggregate(&sigs, self.cfg.n)
                    .expect("distinct signers by construction");
                let k_m = agg.max_key_idx() as u64;
                let rank = Rank((base.0 + k_m + 1).min(self.epoch_max.0));
                (rank, RankProof::Opt { agg, base })
            }
        }
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    /// Main entry point for network messages addressed to this instance.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: PbftMsg,
        now: TimeNs,
        cur: &mut RankCert,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        self.dispatch(from, msg, now, cur, &mut out);
        out
    }

    fn dispatch(
        &mut self,
        from: ReplicaId,
        msg: PbftMsg,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        match msg {
            PbftMsg::PrePrepare(pp) => self.handle_preprepare(from, &pp, now, cur, out),
            PbftMsg::Vote(v) => self.handle_vote(from, v, now, cur, out),
            PbftMsg::Rank(r) => self.handle_rank_report(from, r, out),
            PbftMsg::ViewChange(vc) => self.handle_view_change(from, vc, now, cur, out),
            PbftMsg::NewView(nv) => self.handle_new_view(from, &nv, now, cur, out),
        }
    }

    // ------------------------------------------------------------------
    // Pre-prepare (backup side)
    // ------------------------------------------------------------------

    fn handle_preprepare(
        &mut self,
        from: ReplicaId,
        pp: &Arc<PrePrepare>,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if pp.instance != self.cfg.instance {
            self.rejected += 1;
            return;
        }
        if pp.view > self.view || (pp.view == self.view && self.in_view_change) {
            self.buffer_view_msg(from, PbftMsg::PrePrepare(pp.clone()));
            return;
        }
        if pp.view < self.view || from != self.leader_of(pp.view) {
            self.rejected += 1;
            return;
        }
        if self
            .rounds
            .get(&pp.round)
            .is_some_and(|r| r.digest.is_some())
        {
            self.rejected += 1; // Already have a proposal for this round.
            return;
        }
        // At or below the commit frontier there is nothing left to
        // propose — whether the round's state is still held or was
        // collected (epoch horizon, snapshot fast-forward): a replayed
        // genuine pre-prepare must not re-open it.
        if pp.round <= self.committed_upto {
            self.rejected += 1;
            return;
        }
        if digest_batch(&pp.batch) != pp.digest {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me {
            let body = pp.signing_bytes();
            if !pp.sig.verify(&self.cfg.registry, DOMAIN_PREPREPARE, &body) {
                self.rejected += 1;
                return;
            }
            match self.validate_rank_proof(pp) {
                RankCheck::Ok => {}
                RankCheck::EpochAhead => {
                    // The leader is in a future epoch; retry after advance.
                    self.pending_epoch.push((from, pp.clone()));
                    return;
                }
                RankCheck::Invalid => {
                    self.rejected += 1;
                    return;
                }
            }
        }

        let st = self.rounds.entry(pp.round).or_default();
        st.digest = Some(pp.digest);
        st.rank = pp.rank;
        st.batch = Some(pp.batch.clone());
        st.proposed_at = pp.proposed_at;

        // Enter the prepare phase (Algorithm 2 lines 13–17).
        if !st.sent_prepare {
            st.sent_prepare = true;
            let share = QuorumCert::sign_share(
                &self.cfg.signer,
                pp.view,
                pp.round,
                &pp.digest,
                self.cfg.instance,
                pp.rank,
            );
            let vote = PhaseVote {
                phase: Phase::Prepare,
                view: pp.view,
                round: pp.round,
                instance: self.cfg.instance,
                digest: pp.digest,
                rank: pp.rank,
                sig: share,
            };
            out.push(Action::Broadcast(PbftMsg::Vote(vote)));
            self.handle_vote(self.cfg.me, vote, now, cur, out);
        } else {
            self.try_advance(pp.round, now, cur, out);
        }
    }

    /// Validates the pre-prepare's rank and proof (prepare-phase checks of
    /// §5.2.2 / §5.3). Certificate verifications go through the cert
    /// cache, so a `max_cert` this replica has met on any instance
    /// verifies once.
    fn validate_rank_proof(&self, pp: &PrePrepare) -> RankCheck {
        let q = self.cfg.quorum();
        match (&self.cfg.mode, &pp.rank_proof) {
            (RankMode::None, RankProof::None) => {
                if pp.rank == Rank(pp.round.0) {
                    RankCheck::Ok
                } else {
                    RankCheck::Invalid
                }
            }
            (RankMode::Plain | RankMode::Opt, RankProof::FirstRound(rc)) => {
                if pp.round != self.view_start_round {
                    return RankCheck::Invalid;
                }
                if !self.rank_claim_verified(rc.rank, rc.cert.as_deref()) {
                    return RankCheck::Invalid;
                }
                self.check_expected_rank(pp.rank, rc.rank)
            }
            (RankMode::Plain, RankProof::Plain { rank_set, max_cert }) => {
                if pp.round == self.view_start_round {
                    return RankCheck::Invalid;
                }
                let prev = match pp.round.prev() {
                    Some(p) => p,
                    None => return RankCheck::Invalid,
                };
                // 2f+1 distinct signers, correct view/round/instance.
                let mut signers = BTreeSet::new();
                for sr in rank_set {
                    if sr.body.view != pp.view
                        || sr.body.round != prev
                        || sr.body.instance != self.cfg.instance
                        || !sr
                            .sig
                            .verify(&self.cfg.registry, DOMAIN_RANK, &sr.body.bytes())
                    {
                        return RankCheck::Invalid;
                    }
                    signers.insert(sr.sig.signer());
                }
                if signers.len() < q {
                    return RankCheck::Invalid;
                }
                let rank_m = rank_set
                    .iter()
                    .map(|sr| sr.body.rank)
                    .max()
                    .expect("non-empty set");
                if max_cert.rank != rank_m
                    || !self.rank_claim_verified(max_cert.rank, max_cert.cert.as_deref())
                {
                    return RankCheck::Invalid;
                }
                self.check_expected_rank(pp.rank, rank_m)
            }
            (RankMode::Opt, RankProof::Opt { agg, base }) => {
                if pp.round == self.view_start_round {
                    return RankCheck::Invalid;
                }
                let prev = match pp.round.prev() {
                    Some(p) => p,
                    None => return RankCheck::Invalid,
                };
                if !agg.has_quorum(q) {
                    return RankCheck::Invalid;
                }
                // The base must be the rank of our previous round.
                match self.rounds.get(&prev) {
                    Some(st) if st.digest.is_some() => {
                        if st.rank != *base {
                            return RankCheck::Invalid;
                        }
                    }
                    // We have not seen the previous round yet; treat as an
                    // ordering race and buffer via the epoch-retry path.
                    _ => return RankCheck::EpochAhead,
                }
                let body = RankBody {
                    view: pp.view,
                    round: prev,
                    instance: self.cfg.instance,
                    rank: *base,
                };
                if !agg.verify(&self.cfg.registry, DOMAIN_RANK, &body.bytes()) {
                    return RankCheck::Invalid;
                }
                let k_m = agg.max_key_idx() as u64;
                self.check_expected_rank(pp.rank, Rank(base.0 + k_m))
            }
            _ => RankCheck::Invalid,
        }
    }

    /// Checks `pp.rank == min(rank_m + 1, maxRank(e))`, flagging ranks
    /// beyond our epoch for retry after the epoch advances.
    fn check_expected_rank(&self, got: Rank, rank_m: Rank) -> RankCheck {
        if rank_m.0 + 1 > self.epoch_max.0 {
            if got == self.epoch_max {
                return RankCheck::Ok;
            }
            // The leader may already be in the next epoch.
            return RankCheck::EpochAhead;
        }
        if got == rank_m.next() {
            RankCheck::Ok
        } else if got > self.epoch_max {
            RankCheck::EpochAhead
        } else {
            RankCheck::Invalid
        }
    }

    // ------------------------------------------------------------------
    // Votes (prepare / commit)
    // ------------------------------------------------------------------

    fn handle_vote(
        &mut self,
        from: ReplicaId,
        v: PhaseVote,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if v.instance != self.cfg.instance || from != v.sig.signer() {
            self.rejected += 1;
            return;
        }
        if v.view > self.view || (v.view == self.view && self.in_view_change) {
            self.buffer_view_msg(from, PbftMsg::Vote(v));
            return;
        }
        if v.view < self.view {
            self.rejected += 1;
            return;
        }
        // A vote nothing can read is dropped before its signature is
        // checked: its phase is already decided for the round, or the
        // round is behind the commit frontier and its state collected (a
        // late vote must not resurrect it).
        let moot = match self.rounds.get(&v.round) {
            Some(st) => st.decided(v.phase),
            None => v.round <= self.committed_upto,
        };
        if moot {
            return;
        }
        if from != self.cfg.me {
            let body = v.signing_bytes();
            if !v.sig.verify(&self.cfg.registry, v.phase.domain(), &body) {
                self.rejected += 1;
                return;
            }
        }
        let n = self.cfg.n;
        let st = self.rounds.entry(v.round).or_default();
        let tally = match v.phase {
            Phase::Prepare => &mut st.prepares,
            Phase::Commit => &mut st.commits,
        };
        let vote = VoteSlot {
            digest: v.digest,
            rank: v.rank,
            sig: v.sig,
        };
        if !tally
            .get_or_insert_with(|| Tally::new(n))
            .record(from, vote)
        {
            self.rejected += 1;
            return;
        }
        self.try_advance(v.round, now, cur, out);
    }

    /// Advances a round through commit-phase entry and final commitment
    /// (Algorithm 2 lines 19–35).
    fn try_advance(
        &mut self,
        round: Round,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        let q = self.cfg.quorum();
        let Some(st) = self.rounds.get_mut(&round) else {
            return;
        };
        let Some(digest) = st.digest else {
            return;
        };
        let rank = st.rank;

        // A tally exists only while its phase is undecided (`handle_vote`
        // is the one place that opens one, and it turns decided phases
        // away), so reaching the quorum is what decides the phase — and
        // ends the tally.
        let quorum = |t: &mut Tally| t.has_quorum(&digest, rank, q);

        // Enter the commit phase on 2f+1 matching prepares.
        if let Some(prepares) = st.prepares.take_if(quorum) {
            st.sent_commit = true;
            // Aggregate the prepare shares into the QC (line 25).
            let shares: Vec<Signature> = prepares
                .matching(&digest, rank)
                .take(q)
                .map(|v| v.sig)
                .collect();
            let qc = QuorumCert::from_shares(
                &shares,
                self.cfg.n,
                self.view,
                round,
                self.cfg.instance,
                digest,
                rank,
            )
            .expect("distinct signers: one slot per replica");
            let qc = Arc::new(qc);
            st.prepare_qc = Some(qc.clone());

            let commit_share = Signature::sign(
                &self.cfg.signer,
                DOMAIN_COMMIT,
                &crate::msg::phase_bytes(self.view, round, &digest, self.cfg.instance, rank),
            );
            let vote = PhaseVote {
                phase: Phase::Commit,
                view: self.view,
                round,
                instance: self.cfg.instance,
                digest,
                rank,
                sig: commit_share,
            };
            out.push(Action::Broadcast(PbftMsg::Vote(vote)));

            // Update curRank (lines 23–26) and report it (lines 27–28).
            if self.cfg.mode != RankMode::None {
                if rank > cur.rank {
                    *cur = RankCert::certified(qc);
                }
                let report = self.build_rank_report(round, cur);
                let leader = self.leader_of(self.view);
                if leader == self.cfg.me {
                    self.handle_rank_report(self.cfg.me, report, out);
                } else {
                    out.push(Action::Send(leader, PbftMsg::Rank(report)));
                }
            }

            // Our own commit vote.
            self.handle_vote(self.cfg.me, vote, now, cur, out);
            return; // try_advance re-entered via handle_vote.
        }

        // Final commit on 2f+1 matching commits (lines 31–35).
        if st.commits.take_if(quorum).is_some() {
            st.committed = true;
            let batch = st.batch.clone().expect("digest implies batch");
            let block = Block {
                header: BlockHeader {
                    index: self.cfg.instance,
                    round,
                    rank,
                    payload_digest: digest,
                },
                batch,
                proposed_at: st.proposed_at,
            };
            while self
                .rounds
                .get(&self.committed_upto.next())
                .is_some_and(|r| r.committed)
            {
                self.committed_upto = self.committed_upto.next();
            }
            out.push(Action::Committed(block));
            out.push(Action::StartRoundTimer {
                round: round.next(),
                view: self.view,
            });
        }
    }

    /// Builds this replica's rank report for the commit phase of `round`.
    fn build_rank_report(&self, round: Round, cur: &RankCert) -> RankReport {
        match self.cfg.mode {
            RankMode::Plain => {
                let body = RankBody {
                    view: self.view,
                    round,
                    instance: self.cfg.instance,
                    rank: cur.rank,
                };
                let sig = Signature::sign(&self.cfg.signer, DOMAIN_RANK, &body.bytes());
                RankReport {
                    signed: SignedRank { body, sig },
                    qc: cur.cert.clone(),
                }
            }
            RankMode::Opt => {
                // §5.3: sign the *common* body (base = this round's rank)
                // with sub-key k = curRank − base.
                let base = self
                    .rounds
                    .get(&round)
                    .map(|st| st.rank)
                    .unwrap_or(self.epoch_min);
                let body = RankBody {
                    view: self.view,
                    round,
                    instance: self.cfg.instance,
                    rank: base,
                };
                let k = u32::try_from(cur.rank.diff(base)).unwrap_or(u32::MAX);
                let sig = Signature::sign_with_key(&self.cfg.signer, k, DOMAIN_RANK, &body.bytes());
                RankReport {
                    signed: SignedRank { body, sig },
                    qc: cur.cert.clone(),
                }
            }
            RankMode::None => unreachable!("rank reports are disabled in vanilla mode"),
        }
    }

    /// Leader-side rank report intake (Algorithm 2 lines 37–41 are the
    /// replica-side `curRank` update; here the leader also accumulates the
    /// 2f+1 reports it needs to propose the next round).
    fn handle_rank_report(&mut self, from: ReplicaId, r: RankReport, _out: &mut [Action]) {
        if self.cfg.mode == RankMode::None {
            self.rejected += 1;
            return;
        }
        if r.signed.body.instance != self.cfg.instance
            || r.signed.body.view != self.view
            || self.leader_of(self.view) != self.cfg.me
            || from != r.signed.sig.signer()
        {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me
            && !r
                .signed
                .sig
                .verify(&self.cfg.registry, DOMAIN_RANK, &r.signed.body.bytes())
        {
            self.rejected += 1;
            return;
        }
        // Determine and certify the claimed rank.
        let claimed = match self.cfg.mode {
            RankMode::Plain => {
                if !self.rank_claim_verified(r.signed.body.rank, r.qc.as_deref()) {
                    self.rejected += 1;
                    return;
                }
                r.signed.body.rank
            }
            RankMode::Opt => {
                let k = r.signed.sig.pk.key_idx as u64;
                let claimed = r.signed.body.rank.offset(k);
                let valid = match &r.qc {
                    // Clamped sub-keys under-report, so `>=` suffices.
                    Some(qc) => qc.rank >= claimed && self.certs.verified(qc),
                    None => claimed == self.epoch_min,
                };
                if !valid {
                    self.rejected += 1;
                    return;
                }
                claimed
            }
            RankMode::None => unreachable!(),
        };
        self.rank_reports
            .entry(r.signed.body.round)
            .or_default()
            .insert(from, (r, claimed));
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    /// Node callback: the round timer fired. Starts a view change if the
    /// round has not committed and the view is unchanged.
    pub fn on_round_timer(&mut self, round: Round, view: View) -> Vec<Action> {
        let mut out = Vec::new();
        if view != self.view || self.in_view_change {
            return out;
        }
        if self.rounds.get(&round).is_some_and(|r| r.committed) || round <= self.committed_upto {
            return out;
        }
        // Nothing to wait for if the leader legitimately stopped: the next
        // proposal belongs to the next epoch.
        if self.stopped_for_epoch {
            return out;
        }
        self.start_view_change(&mut out);
        out
    }

    /// Node callback: the view-change completion timer fired.
    pub fn on_view_change_timer(&mut self, view: View) -> Vec<Action> {
        let mut out = Vec::new();
        if self.in_view_change && self.pending_view == view {
            // Escalate to the next view.
            self.start_view_change(&mut out);
        }
        out
    }

    fn start_view_change(&mut self, out: &mut Vec<Action>) {
        let new_view = if self.in_view_change {
            self.pending_view.next()
        } else {
            self.view.next()
        };
        self.in_view_change = true;
        self.pending_view = new_view;

        // Collect prepared (and committed) rounds of the current epoch so
        // the new leader can re-propose anything that may have committed
        // somewhere (see DESIGN.md §4 on view-change scope).
        let prepared: Vec<PreparedEntry> = self
            .rounds
            .iter()
            .filter(|(r, st)| **r > self.epoch_start_round && st.prepare_qc.is_some())
            .map(|(r, st)| PreparedEntry {
                round: *r,
                digest: st.digest.expect("qc implies digest"),
                rank: st.rank,
                batch: st.batch.clone().expect("qc implies batch"),
                proposed_at: st.proposed_at,
                qc: st.prepare_qc.clone().expect("filtered on qc"),
            })
            .collect();

        let mut vc = ViewChange {
            new_view,
            instance: self.cfg.instance,
            last_committed: self.committed_upto,
            prepared,
            sig: Signature::sign(&self.cfg.signer, DOMAIN_VIEWCHANGE, &[0u8; 28]),
        };
        vc.sig = Signature::sign(&self.cfg.signer, DOMAIN_VIEWCHANGE, &vc.signing_bytes());

        out.push(Action::ViewChangeStarted { view: new_view });
        out.push(Action::StartViewChangeTimer { view: new_view });
        let new_leader = self.leader_of(new_view);
        if new_leader == self.cfg.me {
            let mut sub = Vec::new();
            self.handle_view_change(
                self.cfg.me,
                Arc::new(vc),
                TimeNs::ZERO,
                &mut RankCert::genesis(self.epoch_min),
                &mut sub,
            );
            out.append(&mut sub);
        } else {
            out.push(Action::Send(new_leader, PbftMsg::ViewChange(Arc::new(vc))));
        }
    }

    fn handle_view_change(
        &mut self,
        from: ReplicaId,
        vc: Arc<ViewChange>,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if vc.instance != self.cfg.instance
            || vc.new_view <= self.view
            || self.leader_of(vc.new_view) != self.cfg.me
        {
            self.rejected += 1;
            return;
        }
        if from != vc.sig.signer() {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me {
            if !vc
                .sig
                .verify(&self.cfg.registry, DOMAIN_VIEWCHANGE, &vc.signing_bytes())
            {
                self.rejected += 1;
                return;
            }
            for entry in &vc.prepared {
                if entry.qc.digest != entry.digest
                    || entry.qc.rank != entry.rank
                    || entry.qc.round != entry.round
                    || !self.certs.verified(&entry.qc)
                {
                    self.rejected += 1;
                    return;
                }
            }
        }
        let new_view = vc.new_view;
        let entry = self.view_changes.entry(new_view).or_default();
        entry.insert(from, vc);
        if entry.len() >= self.cfg.quorum() {
            self.install_new_view(new_view, now, cur, out);
        }
    }

    /// New leader: install `view` and broadcast the new-view message
    /// carrying the justifying view-change quorum.
    fn install_new_view(
        &mut self,
        view: View,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        let vcs = self.view_changes.remove(&view).expect("quorum present");
        let mut nv = NewView {
            view,
            instance: self.cfg.instance,
            vcs: vcs.into_values().collect(),
            sig: Signature::sign(&self.cfg.signer, DOMAIN_NEWVIEW, &[0u8; 28]),
        };
        nv.sig = Signature::sign(&self.cfg.signer, DOMAIN_NEWVIEW, &nv.signing_bytes());
        let nv = Arc::new(nv);
        out.push(Action::Broadcast(PbftMsg::NewView(nv.clone())));
        self.adopt_new_view(&nv, now, cur, out);
    }

    fn handle_new_view(
        &mut self,
        from: ReplicaId,
        nv: &NewView,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if nv.instance != self.cfg.instance || nv.view <= self.view {
            self.rejected += 1;
            return;
        }
        if from != self.leader_of(nv.view) || from != nv.sig.signer() {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me {
            if !nv
                .sig
                .verify(&self.cfg.registry, DOMAIN_NEWVIEW, &nv.signing_bytes())
            {
                self.rejected += 1;
                return;
            }
            // The embedded view-change quorum must be individually valid:
            // 2f+1 distinct signers, each message for this view/instance,
            // every prepared entry certified by its QC.
            let q = self.cfg.quorum();
            let mut signers = BTreeSet::new();
            for vc in &nv.vcs {
                if vc.new_view != nv.view
                    || vc.instance != nv.instance
                    || !vc
                        .sig
                        .verify(&self.cfg.registry, DOMAIN_VIEWCHANGE, &vc.signing_bytes())
                {
                    self.rejected += 1;
                    return;
                }
                for e in &vc.prepared {
                    if e.qc.digest != e.digest
                        || e.qc.rank != e.rank
                        || e.qc.round != e.round
                        || !self.certs.verified(&e.qc)
                    {
                        self.rejected += 1;
                        return;
                    }
                }
                signers.insert(vc.sig.signer());
            }
            if signers.len() < q {
                self.rejected += 1;
                return;
            }
        }
        self.adopt_new_view(nv, now, cur, out);
    }

    /// Installs a new view from the plan derived off the embedded
    /// view-change quorum: re-runs the prepare phase for every certified
    /// re-proposal, fills uncertified gap rounds with nil (`⊥`) blocks so
    /// the per-instance log stays contiguous, and resumes normal operation.
    fn adopt_new_view(
        &mut self,
        nv: &NewView,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        let vcs = nv.vcs.iter().map(|vc| &**vc);
        let plan = ViewPlan::from_vcs(vcs, self.cfg.mode, self.epoch_min);
        self.view = nv.view;
        self.in_view_change = false;
        self.view_start_round = plan.resume_from;
        self.next_round = plan.resume_from;
        self.view_changes.retain(|v, _| *v > nv.view);
        self.view_changes_completed += 1;
        out.push(Action::NewViewInstalled { view: nv.view });

        // Clear stale uncommitted per-round voting state: votes from the
        // old view cannot count toward the new one. Rounds without a
        // certified re-proposal additionally forget their proposal: it can
        // never quorum again, and a lingering digest would make us reject
        // the round's nil fill or the new leader's fresh pre-prepare.
        let planned: BTreeSet<Round> = plan.reproposals.iter().map(|e| e.round).collect();
        for (r, st) in self.rounds.iter_mut() {
            if st.committed {
                continue;
            }
            st.reopen();
            if !planned.contains(r) {
                st.digest = None;
                st.batch = None;
                st.rank = Rank(0);
                st.prepare_qc = None;
            }
        }

        // Nil-fill the gap rounds (classical PBFT's null requests): rounds
        // below the resume point that no quorum member saw certified cannot
        // have committed anywhere (quorum intersection), so every replica
        // prepares the same ⊥ block for them.
        for &(round, rank) in &plan.nils {
            let st = self.rounds.entry(round).or_default();
            if st.committed {
                continue;
            }
            st.digest = Some(Digest::NIL);
            st.rank = rank;
            st.batch = Some(Batch::empty(0));
            st.proposed_at = now;
            st.sent_prepare = true;
            let share = QuorumCert::sign_share(
                &self.cfg.signer,
                self.view,
                round,
                &Digest::NIL,
                self.cfg.instance,
                rank,
            );
            let vote = PhaseVote {
                phase: Phase::Prepare,
                view: self.view,
                round,
                instance: self.cfg.instance,
                digest: Digest::NIL,
                rank,
                sig: share,
            };
            out.push(Action::Broadcast(PbftMsg::Vote(vote)));
            self.handle_vote(self.cfg.me, vote, now, cur, out);
        }

        for e in plan.reproposals {
            let st = self.rounds.entry(e.round).or_default();
            if st.committed {
                continue;
            }
            st.digest = Some(e.digest);
            st.rank = e.rank;
            st.batch = Some(e.batch);
            st.proposed_at = e.proposed_at;
            if !st.sent_prepare {
                st.sent_prepare = true;
                let share = QuorumCert::sign_share(
                    &self.cfg.signer,
                    self.view,
                    e.round,
                    &e.digest,
                    self.cfg.instance,
                    e.rank,
                );
                let vote = PhaseVote {
                    phase: Phase::Prepare,
                    view: self.view,
                    round: e.round,
                    instance: self.cfg.instance,
                    digest: e.digest,
                    rank: e.rank,
                    sig: share,
                };
                out.push(Action::Broadcast(PbftMsg::Vote(vote)));
                self.handle_vote(self.cfg.me, vote, now, cur, out);
            }
        }
        // Restart the liveness timer for the first uncommitted round.
        out.push(Action::StartRoundTimer {
            round: self.committed_upto.next(),
            view: self.view,
        });

        // Replay traffic that arrived for this view before we installed it
        // (still-future messages re-buffer themselves).
        let buffered = std::mem::take(&mut self.pending_view_msgs);
        for (from, msg) in buffered {
            match msg {
                PbftMsg::PrePrepare(pp) => self.handle_preprepare(from, &pp, now, cur, out),
                PbftMsg::Vote(v) => self.handle_vote(from, v, now, cur, out),
                _ => {}
            }
        }
    }

    /// Buffers a message from a view newer than the installed one. The
    /// buffer is bounded; a Byzantine flood of far-future messages costs
    /// honest replicas only this much memory.
    fn buffer_view_msg(&mut self, from: ReplicaId, msg: PbftMsg) {
        const MAX_PENDING_VIEW_MSGS: usize = 8192;
        if self.pending_view_msgs.len() < MAX_PENDING_VIEW_MSGS {
            self.pending_view_msgs.push((from, msg));
        } else {
            self.rejected += 1;
        }
    }

    /// Committed blocks with rounds in `(from, from + limit]`, each with
    /// the prepare QC that certifies it — the "missing log entries" a
    /// lagging replica fetches (§5.2.1). Stops at the first hole or at a
    /// round whose state was garbage-collected.
    pub fn committed_entries_from(
        &self,
        from: Round,
        limit: usize,
    ) -> Vec<(Block, Arc<QuorumCert>)> {
        let mut out = Vec::new();
        let mut round = from.next();
        while out.len() < limit {
            let Some(st) = self.rounds.get(&round) else {
                break;
            };
            if !st.committed {
                break;
            }
            let (Some(digest), Some(batch), Some(qc)) =
                (st.digest, st.batch.clone(), st.prepare_qc.clone())
            else {
                break;
            };
            out.push((
                Block {
                    header: BlockHeader {
                        index: self.cfg.instance,
                        round,
                        rank: st.rank,
                        payload_digest: digest,
                    },
                    batch,
                    proposed_at: st.proposed_at,
                },
                qc,
            ));
            round = round.next();
        }
        out
    }

    /// Installs a block fetched from a peer as committed, after verifying
    /// its certificate. Returns the commit actions (empty if the round was
    /// already committed or the certificate is invalid).
    ///
    /// The certificate is a prepare QC: 2f+1 replicas bound this exact
    /// `(digest, rank)` to `(instance, round)`, and quorum intersection
    /// forbids a conflicting commit, so installing it preserves agreement
    /// even though this replica skipped the vote phases.
    pub fn install_committed(
        &mut self,
        block: Block,
        qc: Arc<QuorumCert>,
        now: TimeNs,
        cur: &mut RankCert,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let h = &block.header;
        if h.index != self.cfg.instance
            || qc.instance != h.index
            || qc.round != h.round
            || qc.digest != h.payload_digest
            || qc.rank != h.rank
            || digest_batch(&block.batch) != h.payload_digest
            || !self.certs.verified(&qc)
        {
            self.rejected += 1;
            return out;
        }
        if h.round <= self.committed_upto {
            // Already committed here — or covered by a snapshot install
            // that fast-forwarded the frontier past it.
            return out;
        }
        let st = self.rounds.entry(h.round).or_default();
        if st.committed {
            return out;
        }
        st.digest = Some(h.payload_digest);
        st.rank = h.rank;
        st.batch = Some(block.batch.clone());
        st.proposed_at = block.proposed_at;
        st.prepare_qc = Some(qc.clone());
        st.committed = true;
        st.commits = None;
        while self
            .rounds
            .get(&self.committed_upto.next())
            .is_some_and(|s| s.committed)
        {
            self.committed_upto = self.committed_upto.next();
        }
        // A fetched certificate is also a rank certificate (Algorithm 2
        // line 25): catching up must advance curRank, or our next rank
        // reports would undercut blocks we just learned about.
        if self.cfg.mode != RankMode::None && qc.rank > cur.rank {
            *cur = RankCert::certified(qc);
        }
        out.push(Action::Committed(block));

        // A view change this replica started alone (its round timer fired
        // on rounds everyone else committed fine) can never gather a
        // quorum; the synced commit resolves its cause, so resume the
        // current view and replay the traffic buffered behind it. If
        // peers really did move to a higher view, their new-view message
        // brings us along as usual.
        if self.in_view_change {
            self.in_view_change = false;
            let buffered = std::mem::take(&mut self.pending_view_msgs);
            for (from, msg) in buffered {
                match msg {
                    PbftMsg::PrePrepare(pp) => {
                        self.handle_preprepare(from, &pp, now, cur, &mut out)
                    }
                    PbftMsg::Vote(v) => self.handle_vote(from, v, now, cur, &mut out),
                    _ => {}
                }
            }
        }
        out
    }

    /// Fast-forwards the commit frontier to `round` after an execution
    /// snapshot install: every round up to and including `round` is
    /// declared covered by the snapshot. Per-round state at or below the
    /// new frontier is dropped — those blocks can no longer be served to
    /// other laggers from here (the snapshot is served instead) — and any
    /// already-committed rounds contiguously past the jump re-extend the
    /// frontier.
    pub fn fast_forward(&mut self, round: Round) {
        if round <= self.committed_upto {
            return;
        }
        self.committed_upto = round;
        self.rounds = self.rounds.split_off(&round.next());
        while self
            .rounds
            .get(&self.committed_upto.next())
            .is_some_and(|s| s.committed)
        {
            self.committed_upto = self.committed_upto.next();
        }
    }

    /// Number of pre-prepares buffered because they belong to a future
    /// epoch — the §5.2.1 trigger for fetching missing log entries.
    pub fn epoch_backlog(&self) -> usize {
        self.pending_epoch.len()
    }

    /// Whether a view change is in flight on this instance.
    pub fn in_view_change(&self) -> bool {
        self.in_view_change
    }

    /// Highest round with a known proposal. A large gap to
    /// [`Self::committed_upto`] that persists means this replica missed
    /// the vote phases of those rounds (peers will not re-vote), so only
    /// state transfer can commit them here.
    pub fn highest_seen_round(&self) -> Round {
        self.rounds
            .iter()
            .rev()
            .find(|(_, st)| st.digest.is_some())
            .map(|(r, _)| *r)
            .unwrap_or(Round(0))
    }

    /// The highest rank among this instance's committed blocks (used by
    /// the epoch pacemaker to detect `maxRank(e)` commitment).
    pub fn max_committed_rank(&self) -> Option<Rank> {
        self.rounds
            .values()
            .filter(|st| st.committed)
            .map(|st| st.rank)
            .max()
    }
}

enum RankCheck {
    Ok,
    Invalid,
    /// The message references a future epoch; buffer and retry.
    EpochAhead,
}
