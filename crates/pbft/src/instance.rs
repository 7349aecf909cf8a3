//! The PBFT consensus instance state machine (Algorithm 2).
//!
//! One [`PbftInstance`] runs per `(replica, instance-index)` pair. The
//! Multi-BFT node (`ladon-core`) owns `m` of these plus the shared
//! `curRank` state, routes network messages to them, paces leader
//! proposals, and feeds committed blocks to the global ordering layer.
//!
//! The instance is a pure state machine: every entry point returns a list
//! of [`Action`]s (sends, commits, view-change hooks) and performs no I/O,
//! so it runs identically under the discrete-event engine, the live
//! threaded runtime, and direct unit-test drivers.
//!
//! # What the instance waits on
//!
//! It holds one liveness deadline — [`PbftInstance::liveness_since`];
//! the host arms a timer `view_change_timeout` after it and calls
//! [`PbftInstance::on_timeout`] on expiry. A new deadline replaces the
//! old one, and each waiting state has exactly one:
//!
//! | state | deadline | exit at expiry |
//! |---|---|---|
//! | the awaited round committed | round `committed_upto + 1`, from when `committed_upto` committed (or the view installed, if later) | a view change, unless the round committed meanwhile or this leader stopped for the epoch |
//! | a round above an undecided one committed | unchanged: the lowest undecided round keeps its older deadline | as for a commit |
//! | view change to `v` in flight | from its start | escalate to `v + 1` |
//! | new view installed | round `committed_upto + 1`, from the install | as for a commit |
//! | nothing committed yet on this replica | none until the host's first commit on any instance ([`PbftInstance::wait_from`]) | as for a commit |
//! | a lone view change abandoned by a fetched commit | none until the next commit | — |
//!
//! # What a round keeps, and for how long
//!
//! One dense window of `RoundState`s holds every round from the oldest
//! one kept up to the highest one opened, at `round − base`; a round
//! between two opened ones holds an empty slot. A round moves through
//! three stages in its slot and sheds what the next one cannot read:
//!
//! | stage | entered when | holds |
//! |---|---|---|
//! | **open** | a vote, the pre-prepare, a new view's nil fill or re-proposal, or a fetched block names it | the proposal, the adopted `Block` whichever way it came; a prepare `Tally` and a commit `Tally`, each allocated on its phase's first vote |
//! | **prepared** | 2f+1 matching prepares (`sent_commit`) | the proposal, `prepare_qc`; the prepare tally is **freed** — its shares now live in the QC; the commit tally |
//! | **committed** | 2f+1 matching commits, or [`PbftInstance::install_committed`] | the proposal and `prepare_qc`, which together are the round's `CertifiedBlock` when served or reported; the commit tally is **freed**. A round above a hole waits here for the frontier; one at or below the frontier is what state transfer, view changes and the rank checks read |
//!
//! Nothing moves when the contiguous commit frontier (`committed_upto`)
//! passes a round. [`PbftInstance::advance_epoch`] drains the rounds
//! below the round the previous epoch began at in the order, and
//! [`PbftInstance::fast_forward`] those at or below its new frontier. So
//! a replica keeps one to two epochs of committed history, however long
//! it runs — a peer further behind is repaired from a stable checkpoint
//! (§5.2.1) — plus at most [`VOTE_WINDOW`] rounds above its frontier.
//!
//! The two phases decide independently: a replica that sees the commit
//! quorum first commits while its prepare tally is still open, with no
//! certificate to serve yet. The late quorum finds the round in its slot,
//! still sends the commit vote and rank report, and gives the round its
//! certificate. A tally is read only while its phase is undecided, so a
//! vote for a decided phase — a `Prepare` after `sent_commit`, a `Commit`
//! after `committed` — can change nothing and is dropped at the door,
//! *before* its signature is checked. Behind the commit frontier nothing
//! re-opens: a pre-prepare for a round at or below it is refused, a vote
//! for one drained from the window is dropped, and a new view re-proposes
//! none of them, so a replayed or late message cannot resurrect a round.
//! A view change re-opens every uncommitted round (both tallies dropped,
//! flags cleared).
//!
//! Certificates are verified through the replica's
//! [`ladon_crypto::CertCache`]: the hosting node installs one handle in
//! all its instances ([`PbftInstance::share_cert_cache`]); an instance
//! built on its own holds a private cache of the same type.

use crate::msg::{
    CertifiedBlock, NewView, PbftMsg, Phase, PhaseVote, PrePrepare, RankBody, RankProof,
    RankReport, SignedRank, ViewChange, DOMAIN_NEWVIEW, DOMAIN_PREPREPARE, DOMAIN_RANK,
    DOMAIN_VIEWCHANGE,
};
use ladon_crypto::keys::Signer;
use ladon_crypto::qc::prepare_bytes;
use ladon_crypto::{
    digest_batch, AggregateSignature, CertCache, KeyRegistry, QuorumCert, RankCert, Signature,
};
use ladon_types::{
    push_bounded, quorum, Batch, Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round,
    TimeNs, View,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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
    /// leader's own report at proposal time, where Algorithm 2 ranks from
    /// the collected reports alone; the comment in
    /// [`PbftInstance::propose`] says what the literal rule costs.
    Honest,
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

/// One slot of the round window (see the module docs for what each stage
/// keeps).
#[derive(Default)]
struct RoundState {
    /// The adopted proposal: a pre-prepare's block, a certified
    /// re-proposal, a nil fill or a fetched committed block. A view
    /// change that does not re-propose it drops it.
    proposal: Option<Block>,
    /// Prepare votes; `None` before the first one and once `sent_commit`.
    prepares: Option<Tally>,
    /// Commit votes; `None` before the first one and once committed.
    commits: Option<Tally>,
    sent_prepare: bool,
    sent_commit: bool,
    /// When the round committed here; `None` while it is open.
    committed_at: Option<TimeNs>,
    /// The round's prepare QC: the one this replica formed, or a fetched
    /// one. `None` while a round that committed before its prepare quorum
    /// waits for it.
    prepare_qc: Option<Arc<QuorumCert>>,
}

impl RoundState {
    /// Whether the slot holds anything: an empty one only fills the
    /// window below a round opened above it.
    fn held(&self) -> bool {
        self.proposal.is_some() || self.prepares.is_some() || self.commits.is_some()
    }

    /// Whether `phase` is decided for this round, i.e. nothing reads its
    /// votes any more.
    fn decided(&self, phase: Phase) -> bool {
        match phase {
            Phase::Prepare => self.sent_commit,
            Phase::Commit => self.committed_at.is_some(),
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
    pub reproposals: Vec<CertifiedBlock>,
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
        let mut by_round: BTreeMap<Round, CertifiedBlock> = BTreeMap::new();
        let mut max_lc = Round(0);
        for vc in vcs {
            max_lc = max_lc.max(vc.last_committed);
            for e in &vc.prepared {
                by_round
                    .entry(e.block.round())
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
            .map(|(_, e)| e.block.rank())
            .unwrap_or(epoch_min);
        for r in max_lc.0 + 1..resume_from.0 {
            let round = Round(r);
            match by_round.get(&round) {
                Some(e) => last_rank = e.block.rank(),
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

/// Rounds above the commit frontier (`committed_upto`) for which round
/// state may be opened. The round window is dense, so opening a round
/// allocates every round below it: each way to open one obeys this bound,
/// checked before any signature — a vote, a new view's nil fill or
/// re-proposal and a fetched block past it are refused, the leader does
/// not propose past it ([`PbftInstance::can_propose`]), and a pre-prepare
/// past it is held unchecked, within the bound on held pre-prepares, until
/// a retry finds its round within the window. A vote can legitimately
/// arrive before its round's pre-prepare — the leader's broadcast and a
/// backup's prepare race — so the bound is a window of rounds, not "a
/// round whose proposal this replica holds". A replica further behind
/// its peers than this catches up by state transfer; and one signer
/// naming ever-higher rounds holds at most this many rounds here instead
/// of growing the window without bound.
pub const VOTE_WINDOW: u64 = 1024;

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
    /// The round window: every round from `base` up to the highest one
    /// opened, at `round − base` (see the module docs). The rounds from
    /// `base` to `committed_upto` are committed.
    window: VecDeque<RoundState>,
    /// The round at the window's front: at most `committed_upto + 1`.
    base: Round,
    /// Leader-side rank reports, keyed by the round whose commit phase
    /// produced them (used to propose `round + 1`).
    rank_reports: BTreeMap<Round, BTreeMap<ReplicaId, (RankReport, Rank)>>,
    /// Current epoch's rank range `[min, max]`.
    epoch_min: Rank,
    epoch_max: Rank,
    /// Pre-prepares held for a retry, each with whether its batch digest
    /// and signature passed: one that did, held only because our epoch
    /// lags (or, in Opt mode, because its previous round is unseen), and
    /// one for a round past [`VOTE_WINDOW`], held unchecked. Retried on
    /// [`PbftInstance::advance_epoch`], which may bring their epoch, and
    /// after [`PbftInstance::install_committed`] adopts a round, which may
    /// be the previous round an Opt one waits on and moves the frontier
    /// toward a far one. A retried one that still waits goes back in.
    /// Bounded by [`ladon_types::MAX_PENDING_MSGS`].
    pending_epoch: Vec<(ReplicaId, Arc<PrePrepare>, bool)>,
    /// Pre-prepares and votes from a view we have not installed yet
    /// (or from the pending view while a view change is in flight),
    /// replayed after [`PbftInstance::adopt_new_view`]. Without this
    /// buffer, the new leader's first proposals race the (slower)
    /// new-view dissemination and are silently lost, which expires the
    /// new view's deadline and livelocks the view change.
    pending_view_msgs: Vec<(ReplicaId, PbftMsg)>,
    /// View-change state.
    in_view_change: bool,
    pending_view: View,
    /// The verified view change held from each sender: its highest
    /// view among those this replica leads, so a member signing view
    /// changes for ever-higher views holds one entry, not one per view.
    view_changes: BTreeMap<ReplicaId, Arc<ViewChange>>,
    /// The liveness deadline: the round awaited and since when (see the
    /// module docs). While a view change is in flight it bounds that.
    deadline: Option<(Round, TimeNs)>,
    /// The round after which the current epoch began in the order (the
    /// last round ranked within the previous epoch): a view change
    /// reports the rounds above it, and the next epoch's advance drains
    /// the window below it.
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
}

impl PbftInstance {
    /// Creates the instance at view 0, round 1, with the given epoch-0
    /// rank range.
    pub fn new(cfg: InstanceConfig, epoch_min: Rank, epoch_max: Rank) -> Self {
        Self {
            certs: CertCache::new(cfg.registry.clone(), quorum(cfg.n)),
            cfg,
            view: View(0),
            view_start_round: Round(1),
            next_round: Round(1),
            committed_upto: Round(0),
            window: VecDeque::new(),
            base: Round(1),
            rank_reports: BTreeMap::new(),
            epoch_min,
            epoch_max,
            pending_epoch: Vec::new(),
            pending_view_msgs: Vec::new(),
            in_view_change: false,
            pending_view: View(0),
            view_changes: BTreeMap::new(),
            deadline: None,
            epoch_start_round: Round(0),
            rejected: 0,
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
    fn rank_claim_verified(&self, rank: Rank, cert: Option<&Arc<QuorumCert>>) -> bool {
        RankCert::validate_claim(rank, cert, self.epoch_min, |qc| self.certs.verified(qc))
    }

    /// Vote slots currently allocated across all rounds (`n` per open
    /// tally): what the instance holds per round *in flight*. Zero at
    /// quiescence on the fault-free path, however long the run.
    pub fn live_vote_slots(&self) -> usize {
        self.window
            .iter()
            .flat_map(|st| [&st.prepares, &st.commits])
            .flatten()
            .map(|t| t.slots.len())
            .sum()
    }

    /// Rounds with any state held, committed or in flight; the window's
    /// empty slots are not counted.
    pub fn rounds_held(&self) -> usize {
        self.window.iter().filter(|st| st.held()).count()
    }

    /// `round`'s offset from the window's front; `None` below the front.
    fn index(&self, round: Round) -> Option<usize> {
        usize::try_from(round.0.checked_sub(self.base.0)?).ok()
    }

    /// The slot of `round`, if the window holds it.
    fn slot(&self, round: Round) -> Option<&RoundState> {
        self.window.get(self.index(round)?)
    }

    /// The window's slots from `round` on.
    fn slots_from(&self, round: Round) -> impl Iterator<Item = &RoundState> {
        self.window.iter().skip(self.index(round).unwrap_or(0))
    }

    /// Whether opening `round` would take the window more than
    /// [`VOTE_WINDOW`] rounds past the commit frontier.
    fn past_window(&self, round: Round) -> bool {
        round.0.saturating_sub(self.committed_upto.0) > VOTE_WINDOW
    }

    /// The slot of `round`, growing the window up to it. The caller has
    /// checked that `round` is not below the window nor past
    /// [`VOTE_WINDOW`].
    fn open(&mut self, round: Round) -> &mut RoundState {
        let i = self
            .index(round)
            .expect("a round below the window is not opened");
        if i >= self.window.len() {
            self.window.resize_with(i + 1, RoundState::default);
        }
        &mut self.window[i]
    }

    /// Drains the window's rounds below `round`.
    fn drain_below(&mut self, round: Round) {
        let below = self.index(round).unwrap_or(0).min(self.window.len());
        self.window.drain(..below);
        self.base = self.base.max(round);
    }

    /// The proposal held for `round`.
    fn proposal(&self, round: Round) -> Option<&Block> {
        self.slot(round)?.proposal.as_ref()
    }

    /// When `round` committed here, if the window holds it committed.
    fn committed_at(&self, round: Round) -> Option<TimeNs> {
        self.slot(round)?.committed_at
    }

    /// The leader of `view` for this instance: instances start led by the
    /// replica with the same index and rotate on view changes.
    pub fn leader_of(&self, view: View) -> ReplicaId {
        self.cfg.instance.leader(view, self.cfg.n)
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

    /// Whether the round the leader would propose next follows this
    /// epoch's `maxRank(e)` block, so the instance proposes nothing more
    /// in the epoch.
    pub fn stopped_for_epoch(&self) -> bool {
        self.follows_max_rank(self.next_round)
    }

    /// Whether the proposal held at `round − 1` is this epoch's
    /// `maxRank(e)` block (Ladon modes), after which the instance stops
    /// until the epoch advances (Algorithm 2 line 9). It is read from the
    /// round's slot, so every replica holding that round agrees, in every
    /// view:
    /// `adopt_new_view` re-adopts each certified round of the epoch, so a
    /// new leader holds its predecessor's `maxRank(e)` block.
    fn follows_max_rank(&self, round: Round) -> bool {
        let held = round.prev().and_then(|p| self.proposal(p));
        self.cfg.mode != RankMode::None && held.is_some_and(|p| p.rank() == self.epoch_max)
    }

    /// The current epoch rank range.
    pub fn epoch_range(&self) -> (Rank, Rank) {
        (self.epoch_min, self.epoch_max)
    }

    /// The rank mode this instance runs in.
    pub fn mode(&self) -> RankMode {
        self.cfg.mode
    }

    /// True when the leader may propose: it leads the current view, its
    /// next round is within [`VOTE_WINDOW`], and either this is the view's
    /// first round or 2f+1 rank reports for the previous round have been
    /// collected (Algorithm 2 line 1).
    pub fn can_propose(&self) -> bool {
        if !self.is_leader() || self.stopped_for_epoch() || self.past_window(self.next_round) {
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
            .is_some_and(|m| m.len() >= quorum(self.cfg.n))
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
        let old_max = std::mem::replace(&mut self.epoch_max, max);
        self.epoch_min = min;
        // The new epoch begins in the order after the last committed round
        // ranked within the old one: the frontier itself when the instance
        // stopped at `maxRank`, an earlier round when it ran past the
        // boundary (a vanilla one ranks each block at its round).
        let mut begins = self.committed_upto;
        while self.proposal(begins).is_some_and(|p| p.rank() > old_max) {
            begins = Round(begins.0 - 1);
        }
        // Old-epoch certificates will not legitimately re-arrive; keep
        // the cert cache bounded by the live epoch.
        self.certs.advance_epoch(min);
        // Committed history goes back to where the previous epoch began
        // in the order, what the checkpoint before last covers: one to two
        // epochs, whatever their length in rounds. A view change reports
        // only the rounds past where the current epoch began, and a peer
        // further behind is repaired from a stable checkpoint (§5.2.1);
        // drained any higher, the window would leave a peer a few rounds
        // behind it, or behind the last checkpoint, nothing to fetch.
        let keep_from = std::mem::replace(&mut self.epoch_start_round, begins);
        self.drain_below(keep_from);
        let keep_reports = Round(self.next_round.0.saturating_sub(2));
        self.rank_reports = self.rank_reports.split_off(&keep_reports);

        let mut out = Vec::new();
        self.retry_held(now, cur, &mut out);
        out
    }

    /// Re-checks every held pre-prepare (see `pending_epoch`).
    fn retry_held(&mut self, now: TimeNs, cur: &mut RankCert, out: &mut Vec<Action>) {
        for (from, pp, checked) in std::mem::take(&mut self.pending_epoch) {
            self.handle_preprepare(from, &pp, checked, now, cur, out);
        }
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
        // stale, low ranks; §4.4 bounds the damage). Algorithm 2 taken
        // literally (no refresh) read causal strength 0.706 and 3.28 ktps
        // at n = 8, WAN, one k = 10 straggler, against 1.000 and 37.06
        // with it; at n = 16 with the same straggler, 0.400 at 15.7 s
        // mean latency against 0.976 at 6.9 s.
        if self.cfg.mode != RankMode::None
            && round != self.view_start_round
            && self.cfg.strategy == RankStrategy::Honest
        {
            if let Some(prev) = round.prev() {
                let fresh = self.build_rank_report(prev, cur);
                let claimed = self.claimed_rank(&fresh);
                self.rank_reports
                    .entry(prev)
                    .or_default()
                    .insert(self.cfg.me, (fresh, claimed));
            }
        }

        let (rank, proof) = self.choose_rank(round, cur);

        let body = prepare_bytes(self.view, round, &digest, self.cfg.instance, rank);
        let sig = Signature::sign(&self.cfg.signer, DOMAIN_PREPREPARE, &body);
        let header = BlockHeader {
            index: self.cfg.instance,
            round,
            rank,
            payload_digest: digest,
        };
        let pp = Arc::new(PrePrepare {
            view: self.view,
            block: Block {
                header,
                batch,
                proposed_at: now,
            },
            rank_proof: proof,
            sig,
        });
        self.next_round = self.next_round.next();
        out.push(Action::Broadcast(PbftMsg::PrePrepare(pp.clone())));
        // Process our own copy (leader acts as a backup of its instance).
        self.handle_preprepare(self.cfg.me, &pp, false, now, cur, &mut out);
        out
    }

    /// Computes the rank and proof for the proposal of `round`
    /// (Algorithm 2 lines 1–6 plus the §5.3 optimization).
    fn choose_rank(&self, round: Round, cur: &RankCert) -> (Rank, RankProof) {
        if self.cfg.mode == RankMode::None {
            return (Rank(round.0), RankProof::None);
        }
        let next = |rank_m: Rank| Rank((rank_m.0 + 1).min(self.epoch_max.0));
        if round == self.view_start_round {
            return (next(cur.rank), RankProof::FirstRound(cur.clone()));
        }
        let prev = round.prev().expect("non-first round has a predecessor");
        let reports = self.rank_reports.get(&prev).expect("can_propose checked");
        // The quorum: the 2f+1 highest claims, so the maximum is among
        // them — or, for a minimizer, the 2f+1 lowest (Appendix B case 3).
        let mut picked: Vec<&(RankReport, Rank)> = reports.values().collect();
        picked.sort_by_key(|(_, claimed)| *claimed);
        if self.cfg.strategy != RankStrategy::MinimizeLowest {
            picked.reverse();
        }
        picked.truncate(quorum(self.cfg.n));
        if self.cfg.mode == RankMode::Plain {
            let (max_report, rank_m) = picked
                .iter()
                .max_by_key(|(_, claimed)| *claimed)
                .copied()
                .expect("quorum is non-empty");
            let max_cert = RankCert {
                rank: *rank_m,
                cert: max_report.qc.clone(),
            };
            let rank_set = picked.iter().map(|(r, _)| r.signed).collect();
            (next(*rank_m), RankProof::Plain { rank_set, max_cert })
        } else {
            let base = reports
                .values()
                .next()
                .map(|(r, _)| r.signed.body.rank)
                .expect("quorum is non-empty");
            let sigs: Vec<Signature> = picked.iter().map(|(r, _)| r.signed.sig).collect();
            let agg = AggregateSignature::aggregate(&sigs, self.cfg.n)
                .expect("distinct signers by construction");
            let rank_m = base.offset(agg.max_key_idx().into());
            (next(rank_m), RankProof::Opt { agg, base })
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
            PbftMsg::PrePrepare(pp) => self.handle_preprepare(from, &pp, false, now, cur, out),
            PbftMsg::Vote(v) => self.handle_vote(from, v, now, cur, out),
            PbftMsg::Rank(r) => self.handle_rank_report(from, r),
            PbftMsg::ViewChange(vc) => self.handle_view_change(from, vc, now, cur, out),
            PbftMsg::NewView(nv) => self.handle_new_view(from, &nv, now, cur, out),
        }
    }

    // ------------------------------------------------------------------
    // Pre-prepare (backup side)
    // ------------------------------------------------------------------

    /// Takes in `pp`. A held one whose batch digest and signature passed
    /// (`checked`) is not checked for them again: only what may have
    /// changed since is — view, leader, frontier, window and rank proof.
    fn handle_preprepare(
        &mut self,
        from: ReplicaId,
        pp: &Arc<PrePrepare>,
        checked: bool,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if !self.preprepare_open(from, pp) {
            return;
        }
        // Past the window its round cannot open yet: held for a retry
        // before its batch is hashed or its signature checked.
        if self.past_window(pp.block.round()) {
            self.hold(from, pp, false);
            return;
        }
        if !checked
            && (digest_batch(&pp.block.batch) != pp.block.header.payload_digest
                || (from != self.cfg.me
                    && !pp
                        .sig
                        .verify(&self.cfg.registry, DOMAIN_PREPREPARE, &pp.signing_bytes())))
        {
            self.rejected += 1;
            return;
        }
        self.admit_preprepare(from, pp, now, cur, out);
    }

    /// Holds `pp` for a retry (see `pending_epoch`). Only the view's
    /// leader gets this far, and the buffer is bounded: a leader may sign
    /// any number of them.
    fn hold(&mut self, from: ReplicaId, pp: &Arc<PrePrepare>, checked: bool) {
        let held = (from, pp.clone(), checked);
        push_bounded(&mut self.pending_epoch, held, &mut self.rejected);
    }

    /// Whether `pp` may open its round, now or (past [`VOTE_WINDOW`])
    /// once the frontier nears it: it is for this instance, from the
    /// leader of the installed view, for a round above the commit frontier
    /// without a proposal yet. One from a view not installed yet is
    /// buffered; any other failure counts as rejected.
    fn preprepare_open(&mut self, from: ReplicaId, pp: &Arc<PrePrepare>) -> bool {
        let round = pp.block.round();
        if pp.block.index() != self.cfg.instance {
            self.rejected += 1;
            return false;
        }
        if pp.view > self.view || (pp.view == self.view && self.in_view_change) {
            self.buffer_view_msg(from, PbftMsg::PrePrepare(pp.clone()));
            return false;
        }
        // At or below the commit frontier there is nothing left to
        // propose — whether the round is in the window or was drained
        // from it (epoch trim, snapshot fast-forward): a replayed genuine
        // pre-prepare must not re-open it.
        if pp.view < self.view
            || from != self.leader_of(pp.view)
            || self.proposal(round).is_some()
            || round <= self.committed_upto
        {
            self.rejected += 1;
            return false;
        }
        true
    }

    /// Adopts `pp`, whose batch digest and signature have passed, and
    /// prepares it, once its rank proof holds. One that waits on a later
    /// epoch or (Opt) an unseen round is held for a retry.
    fn admit_preprepare(
        &mut self,
        from: ReplicaId,
        pp: &Arc<PrePrepare>,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        if from != self.cfg.me {
            match self.validate_rank_proof(pp) {
                RankCheck::Ok => {}
                RankCheck::EpochAhead => {
                    // The leader is in a future epoch, or (Opt) the
                    // previous round is unseen: held for a retry, before
                    // the rank aggregate is checked.
                    self.hold(from, pp, true);
                    return;
                }
                RankCheck::Invalid => {
                    self.rejected += 1;
                    return;
                }
            }
            // One block per rank: whoever leads, nothing follows the
            // epoch's maxRank block until the epoch advances.
            if self.follows_max_rank(pp.block.round()) {
                self.rejected += 1;
                return;
            }
        }

        let round = pp.block.round();
        self.open(round).proposal = Some(pp.block.clone());
        self.cast_prepare(round, now, cur, out);
    }

    /// Enters the prepare phase of `round`, whose proposal was just
    /// adopted (Algorithm 2 lines 13–17): broadcasts this replica's
    /// prepare vote, then counts it. A round is voted on once per view.
    fn cast_prepare(
        &mut self,
        round: Round,
        now: TimeNs,
        cur: &mut RankCert,
        out: &mut Vec<Action>,
    ) {
        let Some(st) = self.index(round).and_then(|i| self.window.get_mut(i)) else {
            return;
        };
        let (Some(p), false) = (&st.proposal, st.sent_prepare) else {
            return;
        };
        let vote = PhaseVote::sign(
            &self.cfg.signer,
            Phase::Prepare,
            self.view,
            round,
            self.cfg.instance,
            p.header.payload_digest,
            p.rank(),
        );
        st.sent_prepare = true;
        out.push(Action::Broadcast(PbftMsg::Vote(vote)));
        self.handle_vote(self.cfg.me, vote, now, cur, out);
    }

    /// Validates the pre-prepare's rank and proof (prepare-phase checks of
    /// §5.2.2 / §5.3). Certificate verifications go through the cert
    /// cache, so a `max_cert` this replica has met on any instance
    /// verifies once.
    fn validate_rank_proof(&self, pp: &PrePrepare) -> RankCheck {
        let q = quorum(self.cfg.n);
        let (round, rank) = (pp.block.round(), pp.block.rank());
        // A rank set or aggregate answers the reports of the previous
        // round of the same view; a view's first round has none.
        let prev = round.prev().filter(|_| round != self.view_start_round);
        match (self.cfg.mode, &pp.rank_proof, prev) {
            (RankMode::None, RankProof::None, _) if rank == Rank(round.0) => RankCheck::Ok,
            (RankMode::Plain | RankMode::Opt, RankProof::FirstRound(rc), _) => {
                if round != self.view_start_round
                    || !self.rank_claim_verified(rc.rank, rc.cert.as_ref())
                {
                    return RankCheck::Invalid;
                }
                self.check_expected_rank(rank, rc.rank)
            }
            (RankMode::Plain, RankProof::Plain { rank_set, max_cert }, Some(prev)) => {
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
                    || !self.rank_claim_verified(max_cert.rank, max_cert.cert.as_ref())
                {
                    return RankCheck::Invalid;
                }
                self.check_expected_rank(rank, rank_m)
            }
            (RankMode::Opt, RankProof::Opt { agg, base }, Some(prev)) => {
                if !agg.has_quorum(q) {
                    return RankCheck::Invalid;
                }
                // The base must be the rank of our previous round.
                match self.proposal(prev) {
                    Some(p) => {
                        if p.rank() != *base {
                            return RankCheck::Invalid;
                        }
                    }
                    // We have not seen the previous round yet; treat as an
                    // ordering race: held, and retried once that round is
                    // installed or the epoch advances.
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
                self.check_expected_rank(rank, base.offset(agg.max_key_idx().into()))
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
        // round is behind the commit frontier and drained from the window
        // (a late vote must not resurrect it).
        match self.slot(v.round) {
            Some(st) if st.decided(v.phase) => return,
            None if v.round <= self.committed_upto => return,
            // A vote that would open a round past the window is refused
            // before its signature is checked.
            None if self.past_window(v.round) => {
                self.rejected += 1;
                return;
            }
            _ => {}
        }
        if from != self.cfg.me {
            let body = v.signing_bytes();
            if !v.sig.verify(&self.cfg.registry, v.phase.domain(), &body) {
                self.rejected += 1;
                return;
            }
        }
        let n = self.cfg.n;
        let st = self.open(v.round);
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
        let q = quorum(self.cfg.n);
        let Some(st) = self.index(round).and_then(|i| self.window.get_mut(i)) else {
            return;
        };
        let Some(p) = &st.proposal else {
            return;
        };
        let (digest, rank) = (p.header.payload_digest, p.rank());

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

            let vote = PhaseVote::sign(
                &self.cfg.signer,
                Phase::Commit,
                self.view,
                round,
                self.cfg.instance,
                digest,
                rank,
            );
            out.push(Action::Broadcast(PbftMsg::Vote(vote)));

            // Update curRank (lines 23–26) and report it (lines 27–28).
            if self.cfg.mode != RankMode::None {
                if rank > cur.rank {
                    *cur = RankCert::certified(qc);
                }
                self.report_rank(round, cur, out);
            }

            // Our own commit vote.
            self.handle_vote(self.cfg.me, vote, now, cur, out);
            return; // try_advance re-entered via handle_vote.
        }

        // Final commit on 2f+1 matching commits (lines 31–35).
        if st.commits.take_if(quorum).is_some() {
            st.committed_at = Some(now);
            let block = p.clone();
            self.extend_frontier();
            out.push(Action::Committed(block));
            self.await_frontier(round, now);
        }
    }

    /// Builds this replica's rank report for the commit phase of `round`
    /// (Algorithm 2 lines 27–28). Plain reports `curRank` itself, signed
    /// with the base key. Opt (§5.3) signs the round's *common* body —
    /// `base`, the round's rank — with sub-key `k = curRank − base`, so
    /// the reports aggregate; a `k` past the key budget clamps to the last
    /// key and under-reports.
    fn build_rank_report(&self, round: Round, cur: &RankCert) -> RankReport {
        let (rank, k) = match self.cfg.mode {
            RankMode::Opt => {
                // A round held without a proposal reports from rank 0, one
                // not held from the epoch's first rank.
                let base = match self.slot(round) {
                    Some(st) => st.proposal.as_ref().map_or(Rank(0), Block::rank),
                    None => self.epoch_min,
                };
                (base, u32::try_from(cur.rank.diff(base)).unwrap_or(u32::MAX))
            }
            RankMode::Plain | RankMode::None => (cur.rank, 0),
        };
        let body = RankBody {
            view: self.view,
            round,
            instance: self.cfg.instance,
            rank,
        };
        let sig = Signature::sign_with_key(&self.cfg.signer, k, DOMAIN_RANK, &body.bytes());
        RankReport {
            signed: SignedRank { body, sig },
            qc: cur.cert.clone(),
        }
    }

    /// Delivers this replica's rank report for `round` to the current
    /// view's leader: sent, or taken in directly when we lead.
    fn report_rank(&mut self, round: Round, cur: &RankCert, out: &mut Vec<Action>) {
        let report = self.build_rank_report(round, cur);
        let leader = self.leader_of(self.view);
        if leader == self.cfg.me {
            self.handle_rank_report(self.cfg.me, report);
        } else {
            out.push(Action::Send(leader, PbftMsg::Rank(report)));
        }
    }

    /// The rank a report claims: its body's, plus (Opt, §5.3) the sub-key
    /// offset it was signed with.
    fn claimed_rank(&self, r: &RankReport) -> Rank {
        match self.cfg.mode {
            RankMode::Opt => r.signed.body.rank.offset(r.signed.sig.pk.key_idx.into()),
            RankMode::Plain | RankMode::None => r.signed.body.rank,
        }
    }

    /// Leader-side rank report intake (Algorithm 2 lines 37–41 are the
    /// replica-side `curRank` update; here the leader also accumulates the
    /// 2f+1 reports it needs to propose the next round).
    fn handle_rank_report(&mut self, from: ReplicaId, r: RankReport) {
        if self.cfg.mode == RankMode::None {
            self.rejected += 1;
            return;
        }
        // No honest replica reaches the commit phase of a round this
        // leader has not proposed, so a report for one is refused: it
        // would be held until the epoch ends.
        if r.signed.body.instance != self.cfg.instance
            || r.signed.body.view != self.view
            || r.signed.body.round >= self.next_round
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
        // Certify the claim: exactly in Plain, as a lower bound in Opt,
        // whose clamped sub-keys under-report.
        let claimed = self.claimed_rank(&r);
        let certified = if self.cfg.mode == RankMode::Plain {
            self.rank_claim_verified(claimed, r.qc.as_ref())
        } else {
            RankCert::validate_lower_bound(claimed, r.qc.as_ref(), self.epoch_min, |qc| {
                self.certs.verified(qc)
            })
        };
        if !certified {
            self.rejected += 1;
            return;
        }
        self.rank_reports
            .entry(r.signed.body.round)
            .or_default()
            .insert(from, (r, claimed));
    }

    // ------------------------------------------------------------------
    // View changes
    // ------------------------------------------------------------------

    /// When the liveness deadline started, if the instance waits on one.
    pub fn liveness_since(&self) -> Option<TimeNs> {
        self.deadline.map(|(_, since)| since)
    }

    /// Starts waiting on the lowest undecided round from `now`, unless a
    /// deadline is already running.
    pub fn wait_from(&mut self, now: TimeNs) {
        self.deadline
            .get_or_insert((self.committed_upto.next(), now));
    }

    /// After `round` commits at `now`: once the awaited round is behind
    /// the frontier, the deadline moves to the lowest undecided round,
    /// from when the round below it committed (never earlier than the old
    /// deadline). A hole keeps its older deadline, and a view change its
    /// own. The awaited round is thus never above `committed_upto + 1`.
    fn await_frontier(&mut self, round: Round, now: TimeNs) {
        let cu = self.committed_upto;
        if self.in_view_change || self.deadline.is_some_and(|(r, _)| r > cu) {
            return;
        }
        let since = self.committed_at(cu).filter(|_| cu >= round).unwrap_or(now);
        let old = self.deadline.map_or(since, |(_, old)| old);
        self.deadline = Some((cu.next(), since.max(old)));
    }

    /// Host callback: the liveness deadline expired at `now`. Escalates a
    /// view change in flight, or starts one if the awaited round is still
    /// undecided. Nothing is awaited once this leader legitimately
    /// stopped: its next proposal belongs to the next epoch. A backup
    /// keeps its deadline: it is the way out if that epoch's leader is
    /// gone.
    pub fn on_timeout(&mut self, now: TimeNs, cur: &mut RankCert) -> Vec<Action> {
        let mut out = Vec::new();
        let Some((round, _)) = self.deadline.take() else {
            return out;
        };
        let stopped = self.is_leader() && self.stopped_for_epoch();
        if self.in_view_change || !(round <= self.committed_upto || stopped) {
            self.start_view_change(now, cur, &mut out);
        }
        out
    }

    /// Sends this replica's view change to the next view's leader. When
    /// that is this replica, its own message may complete the quorum and
    /// install the view here and now: the nil fills are stamped `now`,
    /// and replayed votes update `cur`.
    fn start_view_change(&mut self, now: TimeNs, cur: &mut RankCert, out: &mut Vec<Action>) {
        let new_view = if self.in_view_change {
            self.pending_view.next()
        } else {
            self.view.next()
        };
        self.in_view_change = true;
        self.pending_view = new_view;

        // Collect the certified rounds of the current epoch, committed and
        // in flight, so the new leader can re-propose anything that may
        // have committed somewhere.
        let prepared: Vec<CertifiedBlock> = self
            .slots_from(self.epoch_start_round.next())
            .filter_map(|st| {
                Some(CertifiedBlock {
                    qc: st.prepare_qc.clone()?,
                    block: st.proposal.clone()?,
                })
            })
            .collect();
        let vc = Arc::new(ViewChange::sign(
            &self.cfg.signer,
            new_view,
            self.cfg.instance,
            self.committed_upto,
            prepared,
        ));

        out.push(Action::ViewChangeStarted { view: new_view });
        self.deadline = Some((self.committed_upto.next(), now));
        let new_leader = self.leader_of(new_view);
        if new_leader == self.cfg.me {
            self.handle_view_change(self.cfg.me, vc, now, cur, out);
        } else {
            out.push(Action::Send(new_leader, PbftMsg::ViewChange(vc)));
        }
    }

    /// Whether a view change delivered by `from` is valid: it leaves a
    /// round after its last committed one and — unless it is our own —
    /// its signature verifies and every entry is a certified round of
    /// this instance ([`CertifiedBlock::binds`], then its QC verifies
    /// through the cert cache).
    fn view_change_valid(&self, from: ReplicaId, vc: &ViewChange) -> bool {
        vc.leaves_a_next_round()
            && (from == self.cfg.me
                || vc
                    .sig
                    .verify(&self.cfg.registry, DOMAIN_VIEWCHANGE, &vc.signing_bytes())
                    && vc
                        .prepared
                        .iter()
                        .all(|e| e.binds(self.cfg.instance) && self.certs.verified(&e.qc)))
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
            || from != vc.sig.signer()
            || !self.view_change_valid(from, &vc)
        {
            self.rejected += 1;
            return;
        }
        let new_view = vc.new_view;
        if self
            .view_changes
            .get(&from)
            .is_some_and(|held| held.new_view >= new_view)
        {
            return;
        }
        self.view_changes.insert(from, vc);
        let naming = self.view_changes.values();
        if naming.filter(|vc| vc.new_view == new_view).count() >= quorum(self.cfg.n) {
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
        let vcs = self.view_changes.values().filter(|vc| vc.new_view == view);
        let nv = NewView::sign(
            &self.cfg.signer,
            view,
            self.cfg.instance,
            vcs.cloned().collect(),
        );
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
        if nv.instance != self.cfg.instance
            || nv.view <= self.view
            || from != self.leader_of(nv.view)
            || from != nv.sig.signer()
        {
            self.rejected += 1;
            return;
        }
        if from != self.cfg.me {
            // The embedded view-change quorum must be individually valid:
            // 2f+1 distinct signers, each message for this view/instance
            // and valid as a view change delivered by the new leader.
            let vc_valid = |vc: &Arc<ViewChange>| {
                vc.new_view == nv.view
                    && vc.instance == nv.instance
                    && self.view_change_valid(from, vc)
            };
            let signers: BTreeSet<ReplicaId> = nv.vcs.iter().map(|vc| vc.sig.signer()).collect();
            if !nv
                .sig
                .verify(&self.cfg.registry, DOMAIN_NEWVIEW, &nv.signing_bytes())
                || !nv.vcs.iter().all(vc_valid)
                || signers.len() < quorum(self.cfg.n)
            {
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
        self.view_changes.retain(|_, vc| vc.new_view > nv.view);
        out.push(Action::NewViewInstalled { view: nv.view });

        // A re-proposal's certificate is a rank certificate, as a fetched
        // one is in `install_committed`: the view's first proposal, which
        // carries only `curRank`, then ranks above everything the view
        // re-proposes, even on a leader that never formed those QCs.
        let top = plan.reproposals.iter().max_by_key(|e| e.block.rank());
        let ladon = self.cfg.mode != RankMode::None;
        if let Some(e) = top.filter(|e| ladon && e.block.rank() > cur.rank) {
            *cur = RankCert::certified(e.qc.clone());
        }

        // Clear stale uncommitted per-round voting state: votes from the
        // old view cannot count toward the new one. Rounds without a
        // certified re-proposal additionally forget their proposal: it can
        // never quorum again, and a lingering digest would make us reject
        // the round's nil fill or the new leader's fresh pre-prepare.
        let planned: BTreeSet<Round> = plan.reproposals.iter().map(|e| e.block.round()).collect();
        let rounds = (self.base.0..).map(Round);
        for (r, st) in rounds.zip(self.window.iter_mut()) {
            if st.committed_at.is_some() {
                continue;
            }
            st.reopen();
            if !planned.contains(&r) {
                st.proposal = None;
                st.prepare_qc = None;
            }
        }

        // Nil-fill the gap rounds (classical PBFT's null requests): rounds
        // below the resume point that no quorum member saw certified cannot
        // have committed anywhere (quorum intersection), so every replica
        // prepares the same ⊥ block for them. Then re-run the prepare
        // phase of every certified re-proposal. Neither opens a round
        // past the window: one that far ahead is repaired by state
        // transfer.
        let index = self.cfg.instance;
        let nils = plan.nils.iter().map(|&(round, rank)| Block {
            header: BlockHeader {
                index,
                round,
                rank,
                payload_digest: Digest::NIL,
            },
            batch: Batch::empty(0),
            proposed_at: now,
        });
        let reproposals = plan.reproposals.into_iter().map(|e| (e.block, Some(e.qc)));
        for (block, qc) in nils.map(|b| (b, None)).chain(reproposals) {
            let round = block.round();
            if round <= self.committed_upto || self.past_window(round) {
                continue;
            }
            let st = self.open(round);
            if st.committed_at.is_some() {
                continue;
            }
            // A QC this replica alone formed for another block of the
            // round (in a view it then missed) gives way to the plan's:
            // the round's block and its QC stay one certified round.
            let named = (block.header.payload_digest, block.rank());
            if st
                .prepare_qc
                .as_ref()
                .is_some_and(|q| (q.digest, q.rank) != named)
            {
                st.prepare_qc = qc;
            }
            st.proposal = Some(block);
            self.cast_prepare(round, now, cur, out);
        }
        // Wait on the first uncommitted round of the new view.
        self.deadline = Some((self.committed_upto.next(), now));
        self.replay_view_msgs(now, cur, out);
    }

    /// Replays the traffic held behind a view change (a message still
    /// ahead of the installed view buffers itself again).
    fn replay_view_msgs(&mut self, now: TimeNs, cur: &mut RankCert, out: &mut Vec<Action>) {
        for (from, msg) in std::mem::take(&mut self.pending_view_msgs) {
            self.dispatch(from, msg, now, cur, out);
        }
    }

    /// Buffers a message from a view newer than the installed one.
    fn buffer_view_msg(&mut self, from: ReplicaId, msg: PbftMsg) {
        push_bounded(&mut self.pending_view_msgs, (from, msg), &mut self.rejected);
    }

    /// Committed blocks with rounds in `(from, from + limit]`, each with
    /// the prepare QC that certifies it — the "missing log entries" a
    /// lagging replica fetches (§5.2.1): those up to the commit frontier,
    /// then any committed above a hole in it. Stops at the first round it
    /// cannot serve, so none when round `from + 1` is below the window
    /// (that peer is repaired from a snapshot).
    pub fn committed_entries_from(&self, from: Round, limit: usize) -> Vec<CertifiedBlock> {
        // A peer may name any round, the last representable one too.
        let Some(first) = from.0.checked_add(1).map(Round) else {
            return Vec::new();
        };
        if first < self.base {
            return Vec::new();
        }
        self.slots_from(first)
            .map_while(|st| {
                st.committed_at?;
                Some(CertifiedBlock {
                    qc: st.prepare_qc.clone()?,
                    block: st.proposal.clone()?,
                })
            })
            .take(limit)
            .collect()
    }

    /// Installs a round fetched from a peer as committed, after verifying
    /// its certificate. Returns the commit actions (empty if the round was
    /// already committed or the certificate is invalid).
    ///
    /// The certificate is a prepare QC: 2f+1 replicas bound this exact
    /// `(digest, rank)` to `(instance, round)`, and quorum intersection
    /// forbids a conflicting commit, so installing it preserves agreement
    /// even though this replica skipped the vote phases. A block past
    /// [`VOTE_WINDOW`] is refused before its certificate is checked.
    pub fn install_committed(
        &mut self,
        entry: CertifiedBlock,
        now: TimeNs,
        cur: &mut RankCert,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let round = entry.block.round();
        if self.past_window(round)
            || !entry.binds(self.cfg.instance)
            || !self.certs.verified(&entry.qc)
        {
            self.rejected += 1;
            return out;
        }
        if round <= self.committed_upto {
            // Already committed here — or covered by a snapshot install
            // that fast-forwarded the frontier past it.
            return out;
        }
        let st = self.open(round);
        if st.committed_at.is_some() {
            return out;
        }
        let CertifiedBlock { block, qc } = entry;
        let reported = st.sent_commit;
        st.proposal = Some(block.clone());
        st.prepare_qc = Some(qc.clone());
        st.committed_at = Some(now);
        st.commits = None;
        self.extend_frontier();
        // A fetched certificate is also a rank certificate (Algorithm 2
        // line 25): catching up must advance curRank, or our next rank
        // reports would undercut blocks we just learned about.
        if self.cfg.mode != RankMode::None && qc.rank > cur.rank {
            *cur = RankCert::certified(qc);
        }
        out.push(Action::Committed(block));

        // A view change this replica started alone (its deadline expired
        // on rounds everyone else committed fine) can never gather a
        // quorum; the synced commit resolves its cause, so resume the
        // current view, waiting on nothing until the next commit, and
        // replay the traffic buffered behind it. If peers really did
        // move to a higher view, their new-view message brings us along
        // as usual.
        if self.in_view_change {
            self.in_view_change = false;
            self.deadline = None;
            self.replay_view_msgs(now, cur, &mut out);
        }
        // A replica reports its rank for a round with its commit vote
        // (Algorithm 2 lines 27–28); one that missed the vote phases and
        // fetched the round reports now, or a leader short of 2f+1
        // reports for it waits out a view change.
        if self.cfg.mode != RankMode::None && !reported {
            self.report_rank(round, cur, &mut out);
        }
        // The adopted round may be the previous round a held Opt
        // pre-prepare could not be checked without; nothing else would
        // retry it before the epoch advances, and the epoch cannot close
        // while this instance never prepares its later rounds.
        self.retry_held(now, cur, &mut out);
        out
    }

    /// Fast-forwards the commit frontier to `round` after an execution
    /// snapshot install: every round up to and including `round` is
    /// declared covered by the snapshot. The window's rounds at or below
    /// the new frontier are drained — those blocks can no longer be
    /// served to other laggers from here (the snapshot is served instead)
    /// — and any already-committed rounds contiguously past the jump
    /// re-extend the frontier.
    pub fn fast_forward(&mut self, round: Round) {
        if round <= self.committed_upto {
            return;
        }
        self.committed_upto = round;
        self.drain_below(round.next());
        self.extend_frontier();
    }

    /// Moves the commit frontier over the committed rounds right above
    /// it. They stay in their slots: one whose prepare phase is still
    /// undecided still sends this replica's commit vote and rank report
    /// on its late prepare quorum.
    fn extend_frontier(&mut self) {
        while self.committed_at(self.committed_upto.next()).is_some() {
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
        let seen = self.window.iter().rposition(|st| st.proposal.is_some());
        seen.map_or(Round(0), |i| Round(self.base.0 + i as u64))
    }
}

enum RankCheck {
    Ok,
    Invalid,
    /// The message references a future epoch; buffer and retry.
    EpochAhead,
}

#[cfg(test)]
impl PbftInstance {
    /// Rounds the leader holds rank reports for.
    pub(crate) fn rank_report_rounds(&self) -> usize {
        self.rank_reports.len()
    }

    /// View changes held toward views this replica leads.
    pub(crate) fn view_changes_held(&self) -> usize {
        self.view_changes.len()
    }

    /// The lowest round any state is held for, committed or in flight.
    pub(crate) fn oldest_round_held(&self) -> Option<Round> {
        let i = self.window.iter().position(RoundState::held)?;
        Some(Round(self.base.0 + i as u64))
    }
}
