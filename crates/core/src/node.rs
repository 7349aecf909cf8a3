//! The Multi-BFT replica node (Fig. 4).
//!
//! One [`MultiBftNode`] per replica hosts:
//!
//! - `m` consensus instances (PBFT or chained HotStuff), each a pure
//!   state machine from `ladon-pbft` / `ladon-hotstuff` behind the
//!   [`crate::instance`] seam — this module never learns which;
//! - the shared `curRank` state (Algorithm 2's `curRank`);
//! - a global orderer (Ladon's Algorithm 1 or a baseline);
//! - the epoch pacemaker and rotating buckets (Ladon protocols);
//! - the synthetic mempool fed by relayed client transaction groups;
//! - per-instance proposal pacing (the paper's fixed total block rate),
//!   straggler / Byzantine / crash behavior injection;
//! - metrics used by every figure and table.
//!
//! Handlers here perform I/O (`ctx.send`, timers, `exec` calls) and
//! nothing else is decided in them that has a module of its own: the
//! state-transfer rotation is [`crate::sync::StateTransfer`], the
//! durability mode is [`crate::durability::Durability`], timer ids are
//! [`crate::timer::Timer`], and every instance effect goes through the
//! one action handler.
//!
//! The node implements `ladon-sim`'s [`Actor`] trait, so it runs under the
//! deterministic engine and the live threaded runtime unchanged.

use crate::bucket::{Mempool, RotatingBuckets, TxGroup};
use crate::dqbft::DqbftOrderer;
use crate::durability::{Durability, DurabilityEvent, DurabilityStep, NodeMode};
use crate::epoch::{EpochEvent, EpochPacemaker, StableCheckpoint};
use crate::instance::{Input, Instance};
use crate::metrics::{CommitRecord, NodeMetrics};
use crate::msg::{ClientTxs, NodeMsg};
use crate::ordering::{ConfirmedBlock, GlobalOrderer, LadonOrderer};
use crate::predetermined::{BaselineKind, PredeterminedOrderer};
use crate::sync::{
    delta_chunks, snapshot_worthwhile, ResponderHealth, ResponseOutcome, StateTransfer, SyncEntry,
    SyncRequest, SyncResponse, SYNC_MAX_BLOCKS, SYNC_PER_INSTANCE,
};
use crate::timer::Timer;
use ladon_crypto::{CertCache, KeyRegistry, RankCert};
use ladon_obs::Stage;
use ladon_sim::{Actor, ActorId, Context};
use ladon_state::{ExecOutcome, ExecutionPipeline, SnapshotHead};
use ladon_types::{
    Action, Batch, Block, Epoch, InstanceId, ProtocolKind, Rank, ReplicaId, Round, SystemConfig,
    TimeNs, WireSize,
};
use std::sync::Arc;

/// Fault/behavior injection for one replica (§6.1 straggler settings).
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    /// Honest straggler factor `k`: the replica's leader proposals run at
    /// `1/k` of the normal rate and carry empty batches (§6.1).
    pub straggler_k: Option<f64>,
    /// Byzantine straggler: additionally manipulate rank selection by
    /// using the lowest 2f+1 collected ranks (§6.3.1).
    pub rank_minimize: bool,
    /// Ablation: skip the leader's proposal-time refresh of its own rank
    /// report (Algorithm 2 taken literally; see
    /// [`ladon_pbft::RankStrategy::HonestStale`]).
    pub stale_rank_reports: bool,
    /// Crash at this instant (Fig. 8).
    pub crash_at: Option<TimeNs>,
}

/// Node configuration.
#[derive(Clone)]
pub struct NodeConfig {
    /// System-wide parameters.
    pub sys: SystemConfig,
    /// Which Multi-BFT protocol composition to run.
    pub protocol: ProtocolKind,
    /// This replica.
    pub me: ReplicaId,
    /// The PKI oracle.
    pub registry: KeyRegistry,
    /// Behavior injection.
    pub behavior: Behavior,
    /// Sample cumulative confirmed transactions at this interval
    /// (Fig. 8 timeline); `None` disables sampling.
    pub sample_interval: Option<TimeNs>,
}

enum Orderer {
    Ladon(LadonOrderer),
    Pre(PredeterminedOrderer),
    Dqbft(DqbftOrderer),
}

impl GlobalOrderer for Orderer {
    fn on_partial_commit(&mut self, block: Block, now: TimeNs) -> Vec<ConfirmedBlock> {
        match self {
            Orderer::Ladon(o) => o.on_partial_commit(block, now),
            Orderer::Pre(o) => o.on_partial_commit(block, now),
            Orderer::Dqbft(o) => o.on_partial_commit(block, now),
        }
    }

    fn confirmed_count(&self) -> u64 {
        match self {
            Orderer::Ladon(o) => o.confirmed_count(),
            Orderer::Pre(o) => o.confirmed_count(),
            Orderer::Dqbft(o) => o.confirmed_count(),
        }
    }

    fn waiting_count(&self) -> usize {
        match self {
            Orderer::Ladon(o) => o.waiting_count(),
            Orderer::Pre(o) => o.waiting_count(),
            Orderer::Dqbft(o) => o.waiting_count(),
        }
    }
}

/// State-transfer probe period.
const SYNC_PERIOD: TimeNs = TimeNs::from_millis(1000);

/// Which barrier [`MultiBftNode::drain`] runs.
#[derive(Clone, Copy)]
enum Drain {
    /// Submit what is staged; apply the previous batch
    /// ([`ExecutionPipeline::submit_staged`]).
    Pipelined,
    /// Resolve, submit and complete everything
    /// ([`ExecutionPipeline::flush_staged`]).
    Full,
}

/// Arms `timer` on the calling node. Views and rounds originate in peer
/// messages, so a timer whose fields do not fit an id is not armed rather
/// than trusted to fit: the instance doors reject such a view before it
/// gets here, and a lost liveness timer is the worst a miss can cost.
fn arm(ctx: &mut dyn Context<NodeMsg>, delay: TimeNs, timer: Timer) {
    if let Ok(id) = timer.encode() {
        ctx.set_timer(delay, id);
    }
}

/// The Multi-BFT replica.
pub struct MultiBftNode {
    cfg: NodeConfig,
    /// All replica actor ids except ours (actor id == replica id) — the
    /// broadcast recipient list, a pure function of `cfg`.
    peers: Vec<ActorId>,
    slots: Vec<Instance>,
    cur_rank: RankCert,
    orderer: Orderer,
    pacemaker: Option<EpochPacemaker>,
    buckets: RotatingBuckets,
    mempool: Mempool,
    /// Pace timer fired but the instance was not ready to propose.
    want_propose: Vec<bool>,
    /// Per-instance partial-commit counts, for the quiet-leader detector
    /// (the SB failure detector `D`): a quiet timer that fires with an
    /// unchanged count means the instance delivered nothing in a full
    /// timeout window.
    inst_commits: Vec<u64>,
    /// The execution pipeline: KV state machine + commit WAL + snapshots.
    pub exec: ExecutionPipeline,
    /// State-transfer requester rotation and transfer cursor.
    sync: StateTransfer,
    /// The epoch the buckets are rotated to (tracks pacemaker advances,
    /// including multi-epoch fast-forwards after a snapshot install).
    bucket_epoch: u64,
    /// `sn` frontier below which `Checkpointed` trace events have been
    /// recorded (checkpoints sweep `ckpt_traced_upto..applied`; snapshot
    /// installs jump it without recording — the fast-forwarded prefix
    /// was never traced here).
    ckpt_traced_upto: u64,
    /// The durability degradation state machine.
    durability: Durability,
    /// Metrics sink.
    pub metrics: NodeMetrics,
    crashed: bool,
}

impl MultiBftNode {
    /// Builds the node for `cfg.me` with a fresh in-memory execution
    /// pipeline (the simulation default), sized by the system config's
    /// `exec_keyspace`.
    pub fn new(cfg: NodeConfig) -> Self {
        let exec = ExecutionPipeline::in_memory_opts(
            cfg.sys.exec_keyspace,
            cfg.sys.exec_lanes,
            ladon_state::WalOptions::from(&cfg.sys),
        );
        Self::with_execution(cfg, exec)
    }

    /// Builds the node over an existing execution pipeline — a recovered
    /// one for restart-from-snapshot scenarios, or a disk-backed one for
    /// durable deployments. Blocks the pipeline has already applied are
    /// skipped on re-confirmation, so a restarted replica re-syncs
    /// consensus state without re-executing its durable prefix.
    pub fn with_execution(cfg: NodeConfig, exec: ExecutionPipeline) -> Self {
        let sys = &cfg.sys;
        let m = sys.m;
        let signer = cfg.registry.signer(cfg.me);
        // DQBFT gets one extra vanilla instance (index m) for sequencing.
        let extra = usize::from(cfg.protocol == ProtocolKind::DqbftPbft);
        // One verified-certificate cache for the replica: every instance
        // holds a handle, so a certificate met on one is a hit on all.
        let certs = CertCache::new(cfg.registry.clone(), sys.quorum());
        let slots: Vec<Instance> = (0..m + extra)
            .map(|i| Instance::new(&cfg, &signer, i, &certs))
            .collect();

        let orderer = match cfg.protocol {
            ProtocolKind::LadonPbft | ProtocolKind::LadonOptPbft | ProtocolKind::LadonHotStuff => {
                Orderer::Ladon(LadonOrderer::new(m))
            }
            ProtocolKind::IssPbft | ProtocolKind::IssHotStuff => {
                Orderer::Pre(PredeterminedOrderer::new(BaselineKind::Iss, m))
            }
            ProtocolKind::MirPbft => Orderer::Pre(PredeterminedOrderer::new(BaselineKind::Mir, m)),
            ProtocolKind::RccPbft => {
                let mut p = PredeterminedOrderer::new(BaselineKind::Rcc, m);
                p.rcc_lag_threshold = sys.rcc_lag_threshold;
                Orderer::Pre(p)
            }
            ProtocolKind::DqbftPbft => {
                // The ordering instance (index m) is led by replica m % n.
                Orderer::Dqbft(DqbftOrderer::new(cfg.me.as_usize() == m % sys.n))
            }
        };

        // Epochs (and their checkpoints) exist only under Ladon ordering.
        let pacemaker = matches!(orderer, Orderer::Ladon(_)).then(|| EpochPacemaker::new(sys));

        let applied_at_start = exec.applied();
        Self {
            peers: (0..sys.n).filter(|&r| r != cfg.me.as_usize()).collect(),
            buckets: RotatingBuckets::new(m),
            mempool: Mempool::new(m, sys.tx_bytes),
            want_propose: vec![false; m + extra],
            inst_commits: vec![0; m + extra],
            slots,
            cur_rank: RankCert::genesis(sys.rank_range(Epoch(0)).0),
            orderer,
            pacemaker,
            exec,
            sync: StateTransfer::new(cfg.me.as_usize(), sys.n, m),
            bucket_epoch: 0,
            ckpt_traced_upto: applied_at_start,
            durability: Durability::default(),
            metrics: NodeMetrics::default(),
            crashed: false,
            cfg,
        }
    }

    /// Current durability mode (the degradation state machine's state).
    pub fn mode(&self) -> NodeMode {
        self.durability.mode()
    }

    /// Per-peer state-transfer responder health (indexed by replica id).
    pub fn responder_health(&self) -> &[ResponderHealth] {
        self.sync.responders()
    }

    /// Mirrors pacemaker-side counters into the metrics sink (call after
    /// any pacemaker interaction that can record a root conflict).
    fn sync_pacemaker_metrics(&mut self) {
        if let Some(pm) = &self.pacemaker {
            self.metrics.root_conflicts = pm.root_conflicts;
        }
    }

    /// Read access to the orderer's confirmed count.
    pub fn confirmed_count(&self) -> u64 {
        self.orderer.confirmed_count()
    }

    /// Blocks partially committed but awaiting global confirmation.
    pub fn waiting_count(&self) -> usize {
        self.orderer.waiting_count()
    }

    /// The replica's current certified rank.
    pub fn cur_rank(&self) -> Rank {
        self.cur_rank.rank
    }

    /// Current epoch (Ladon protocols; 0 otherwise).
    pub fn epoch(&self) -> u64 {
        self.pacemaker.as_ref().map(|p| p.epoch().0).unwrap_or(0)
    }

    fn pace_interval(&self) -> TimeNs {
        let base = self.cfg.sys.proposal_interval();
        match self.cfg.behavior.straggler_k {
            Some(k) => base.mul_f64(k),
            None => base,
        }
    }

    fn is_straggler(&self) -> bool {
        self.cfg.behavior.straggler_k.is_some()
    }

    // ------------------------------------------------------------------
    // Action plumbing
    // ------------------------------------------------------------------

    /// Feeds `input` to instance `i` and performs what comes back.
    fn step(&mut self, i: usize, input: Input, ctx: &mut dyn Context<NodeMsg>) {
        let actions = self.slots[i].step(input, ctx.now(), &mut self.cur_rank);
        self.handle_actions(i, actions, ctx);
    }

    /// Performs an instance's effects — the one place consensus output
    /// meets the network, the timers and the commit pipeline, whichever
    /// protocol instance `i` runs.
    fn handle_actions(
        &mut self,
        i: usize,
        actions: impl Iterator<Item = Action<NodeMsg>>,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        let timeout = self.cfg.sys.view_change_timeout;
        for a in actions {
            match a {
                Action::Broadcast(msg) => ctx.multicast(&self.peers, msg),
                Action::Send(r, msg) if r == self.cfg.me => self.on_node_msg(r, msg, ctx),
                Action::Send(r, msg) => ctx.send(r.as_usize(), msg),
                Action::Committed(block) => self.on_committed(i, block, ctx),
                Action::StartRoundTimer { round, view } => {
                    arm(ctx, timeout, Timer::Round(i, view, round));
                }
                Action::StartViewChangeTimer { view } => {
                    arm(ctx, timeout, Timer::ViewChange(i, view));
                }
                Action::ViewChangeStarted { view } => {
                    self.metrics
                        .view_changes
                        .push((ctx.now(), i as u32, view.0));
                }
                Action::NewViewInstalled { view } => {
                    self.metrics.new_views.push((ctx.now(), i as u32, view.0));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit / confirm pipeline
    // ------------------------------------------------------------------

    fn on_committed(&mut self, i: usize, block: Block, ctx: &mut dyn Context<NodeMsg>) {
        let now = ctx.now();
        let rank = block.rank();
        self.inst_commits[i] += 1;
        self.metrics.commits.push(CommitRecord {
            instance: block.index().0,
            round: block.round().0,
            rank: rank.0,
            time: now,
        });

        // Ordering layer + execution first: when this commit completes the
        // epoch, every block of the epoch is below the confirmation bar
        // and must be executed *before* the checkpoint's state root is
        // computed, so the root covers the whole epoch deterministically.
        let confirmed: Vec<ConfirmedBlock> = match &mut self.orderer {
            // The ordering instance sequenced a reference batch.
            Orderer::Dqbft(o) if i == self.cfg.sys.m => o.on_sequenced(&block.batch.refs, now),
            o => o.on_partial_commit(block, now),
        };
        self.record_confirms(confirmed, now);

        // Epoch pacemaker (Ladon protocols, real instances only).
        if i < self.cfg.sys.m {
            let epoch_done = self
                .pacemaker
                .as_mut()
                .is_some_and(|pm| pm.on_commit(i, rank));
            if epoch_done && self.durability.is_normal() {
                self.checkpoint_epoch(ctx);
            } else if epoch_done {
                // While degraded, abstain from the epoch's checkpoint:
                // checkpointing flushes and compacts through the failing
                // backend, and a root signed over an undurable prefix
                // must never be broadcast. Nor may it be taken later —
                // by then the state is past the epoch boundary and the
                // root would diverge from the quorum's. The peers'
                // quorum completes the epoch without our vote.
                let ev = self.pacemaker.as_mut().and_then(EpochPacemaker::abstain);
                self.on_epoch_event(ev, ctx);
            }
            self.sync_pacemaker_metrics();
        }

        // Both the confirm drain and the checkpoint above can resolve a
        // flush barrier: evaluate the degradation trigger while a timer
        // context is in hand.
        self.check_durability(ctx);

        // A commit can unblock proposals (rank sets complete, HS QCs form,
        // DQBFT refs accumulate).
        self.try_propose_all(ctx);
    }

    /// Epoch complete: checkpoint the executed state (this snapshots the
    /// KV contents and compacts the WAL), sign its root into the
    /// checkpoint message and broadcast it.
    fn checkpoint_epoch(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        let now = ctx.now();
        let epoch = self.epoch();
        // The snapshot also records each instance's commit-round
        // frontier so installers can fast-forward consensus intake, not
        // just the state machine. It goes under the quorum-signed
        // manifest root, so only replica-deterministic frontiers are
        // recorded: under HotStuff there are none and the snapshot is
        // state-only (empty frontier, installers skip the consensus jump).
        let frontier: Vec<u64> = self.slots[..self.cfg.sys.m]
            .iter()
            .filter_map(Instance::checkpoint_frontier)
            .collect();
        // Drain the pipeline here (the checkpoint would anyway) so the
        // flushed `sn` range is visible for lifecycle tracing.
        self.drain(Drain::Full, now);
        let root = self.exec.checkpoint(epoch, frontier);
        // Every block below the new snapshot frontier is now covered by
        // a checkpoint: stamp the terminal lifecycle stage for the swept
        // range.
        for sn in self.ckpt_traced_upto..self.exec.applied() {
            let lane = self.metrics.lane_of(sn);
            self.metrics
                .trace
                .record(sn, lane, Stage::Checkpointed, now);
        }
        self.ckpt_traced_upto = self.exec.applied();
        // The checkpoint compacted the WAL (segment rotation): surface
        // any failed rotation step, and the I/O it cost, immediately.
        self.refresh_exec_stats();
        self.metrics.state_roots.push((now, epoch, root));
        let signer = self.cfg.registry.signer(self.cfg.me);
        let pm = self
            .pacemaker
            .as_mut()
            .expect("an epoch completed, so a pacemaker exists");
        let msg = NodeMsg::Checkpoint(pm.make_checkpoint(&signer, root));
        // A stable checkpoint fetched earlier via state transfer may
        // already prove this epoch complete.
        let pending_advance = pm.try_pending_advance();
        ctx.multicast(&self.peers, msg);
        self.on_epoch_event(pending_advance, ctx);
    }

    fn record_confirms(&mut self, confirmed: Vec<ConfirmedBlock>, now: TimeNs) {
        if confirmed.is_empty() {
            return;
        }
        // The whole confirmed drain stages through the pipeline: each
        // block's WAL record is buffered, and that record is all the
        // pipeline keeps of it. A drain that staged something submits
        // ONE durability barrier (one write and one fsync, however many
        // blocks the drain held), and the records that barrier
        // acknowledges apply as ONE batch-wide dependency DAG, so ops
        // from independent blocks overlap in the same waves —
        // WAL-before-apply, preserved at batch granularity. Staged
        // records stay unacknowledged until their barrier completes: a
        // crash loses exactly them, never an acknowledged block.
        let mut batch: Vec<(u64, Block)> = Vec::with_capacity(confirmed.len());
        for c in confirmed {
            self.metrics.note_confirmed(c.sn, &c.block, now);
            batch.push((c.sn, c.block));
        }
        // Per-block outcomes keep the old discipline: blocks at or below
        // the staged/applied frontier (snapshot install, restart) are
        // skipped idempotently; blocks above the next expected sn are
        // refused (the pipeline never misapplies) and counted — loud in
        // debug runs, a metric alarm in release.
        for (i, out) in self.exec.stage_blocks(&batch).into_iter().enumerate() {
            match out {
                ExecOutcome::Applied { .. } => {
                    // Staged into the WAL buffer — durability pending the
                    // next flush barrier.
                    let (sn, block) = &batch[i];
                    self.metrics
                        .trace
                        .record(*sn, block.index().0, Stage::WalStaged, now);
                }
                ExecOutcome::Skipped => {}
                ExecOutcome::Gap { expected } => {
                    debug_assert!(
                        false,
                        "confirmed sn {} above expected {expected}",
                        batch[i].0
                    );
                    self.metrics.exec_gaps += 1;
                }
            }
        }
        if self.durability.is_normal() && self.exec.staged_records() > 0 {
            // Pipelined drain: submit this drain's barrier and apply the
            // *previous* batch whose barrier token just resolved — in
            // File mode batch N's write+fsync now runs on the writer
            // thread while the next drain stages batch N+1. While
            // degraded the drain is skipped: records keep *staging*
            // (unacknowledged, memory only) but no new barrier touches
            // the failing backend until a retry heals it.
            self.drain(Drain::Pipelined, now);
        }
    }

    /// Runs one flush barrier and accounts for it, in the order every
    /// caller needs: the pipeline's counters are copied out (raising
    /// `wal_flush_failures` on a failed barrier) **before** the resolved
    /// range is stamped `Flushed` + `Applied` — a failed barrier must
    /// alarm before any range is treated as durable. Both stamps carry
    /// the same timestamp (the flush and the DAG apply complete in the
    /// same call; the wall-clock split lives in
    /// [`ladon_state::PipelinePerf`]), while the sim-time
    /// `staged → flushed` latency — how long a block waited on its
    /// barrier — is real and per-block. Handlers follow up
    /// with [`Self::check_durability`] once, on their way out.
    fn drain(&mut self, how: Drain, now: TimeNs) {
        let flushed = match how {
            Drain::Pipelined => self.exec.submit_staged(),
            Drain::Full => self.exec.flush_staged(),
        };
        self.refresh_exec_stats();
        for sn in flushed {
            let lane = self.metrics.lane_of(sn);
            self.metrics.trace.record(sn, lane, Stage::Flushed, now);
            self.metrics.trace.record(sn, lane, Stage::Applied, now);
        }
    }

    /// Copies the pipeline's counters into the metrics sink. Called
    /// after everything that moves them: a drain, a checkpoint, a
    /// snapshot install, a durability retry.
    fn refresh_exec_stats(&mut self) {
        self.metrics.set_exec(self.exec.stats());
    }

    /// Degradation trigger: call with `ctx` after any path that can
    /// resolve a flush barrier. Feeds the consecutive-failure count to
    /// the [`Durability`] machine; on `Normal → Degraded` records the
    /// entry and arms the first retry.
    fn check_durability(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        let failures = self.exec.perf().consecutive_flush_failures;
        let step = self
            .durability
            .on(DurabilityEvent::BarrierResolved(failures));
        if let DurabilityStep::Degraded(retry_in) = step {
            self.metrics.degraded = true;
            self.metrics.degraded_entries += 1;
            self.metrics.trace.note_event("mode_degraded", ctx.now());
            arm(ctx, retry_in, Timer::Retry);
        }
    }

    /// One retry-timer expiry: if the machine asks for a repair,
    /// re-attempt the durable path (resolve the failed in-flight barrier,
    /// rewrite every segment from the in-memory mirror) and, when that
    /// succeeds, drain the staged backlog through a real barrier — it was
    /// confirmed in dense order all along, so the resulting roots are
    /// byte-identical to a never-degraded run. The machine then either
    /// recovers or re-arms the timer with doubled (capped) backoff.
    fn retry_degraded(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        if self.durability.on(DurabilityEvent::RetryTimer) != DurabilityStep::AttemptRepair {
            return;
        }
        let now = ctx.now();
        self.metrics.degraded_retries += 1;
        let repaired = self.exec.retry_durability();
        if repaired {
            self.drain(Drain::Full, now);
        } else {
            self.refresh_exec_stats();
        }
        let failures = self.metrics.exec.perf.consecutive_flush_failures;
        match self
            .durability
            .on(DurabilityEvent::RepairAttempted { repaired, failures })
        {
            DurabilityStep::Recovered => {
                self.metrics.degraded = false;
                self.metrics.trace.note_event("mode_normal", now);
            }
            DurabilityStep::RetryIn(delay) => arm(ctx, delay, Timer::Retry),
            step => unreachable!("a repair attempt while degraded cannot yield {step:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Proposing
    // ------------------------------------------------------------------

    fn try_propose_all(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        for i in 0..self.slots.len() {
            self.try_propose(i, ctx);
        }
    }

    fn try_propose(&mut self, i: usize, ctx: &mut dyn Context<NodeMsg>) {
        if !self.want_propose[i] {
            return;
        }
        let m = self.cfg.sys.m;
        let batch_size = self.cfg.sys.batch_size;

        // Phase 1 (immutable): readiness and batch characteristics.
        if !self.slots[i].can_propose() {
            return;
        }
        let is_dummy = self.slots[i].next_is_dummy();

        // Phase 2: cut the batch from the appropriate source.
        let batch = if i == m {
            // DQBFT ordering instance: propose pending refs.
            let Orderer::Dqbft(o) = &mut self.orderer else {
                unreachable!("instance m exists only under DQBFT");
            };
            if !o.has_pending_refs() {
                return;
            }
            Batch::of_refs(o.cut_refs(256))
        } else if self.is_straggler() || is_dummy {
            // Honest stragglers propose empty batches (§6.1); HotStuff
            // epoch-flush dummies are empty by definition.
            Batch::empty(0)
        } else {
            let buckets = self.buckets.buckets_of(InstanceId(i as u32));
            self.mempool.cut_batch(&buckets, batch_size)
        };

        // Phase 3 (mutable): propose and plumb the actions.
        self.want_propose[i] = false;
        self.step(i, Input::Propose(batch), ctx);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn on_node_msg(&mut self, from: ReplicaId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        match msg {
            NodeMsg::Pbft { instance, .. } | NodeMsg::Hs { instance, .. } => {
                // Consensus traffic: the instance decides whether the
                // message is of its protocol's kind.
                let i = instance.as_usize();
                if i < self.slots.len() {
                    self.step(i, Input::Message(from, msg), ctx);
                    self.try_propose(i, ctx);
                }
            }
            NodeMsg::Checkpoint(cp) => {
                let Some(pm) = &mut self.pacemaker else {
                    return;
                };
                let ev = pm.on_checkpoint(from, &cp, &self.cfg.registry);
                self.on_epoch_event(ev, ctx);
                self.sync_pacemaker_metrics();
            }
            NodeMsg::SyncReq(req) => self.on_sync_request(from, req, ctx),
            // Sent to us alone: the unwrap moves, it does not copy.
            NodeMsg::SyncResp(resp) => self.on_sync_response(from, Arc::unwrap_or_clone(resp), ctx),
            NodeMsg::ClientTxs(group) => self.on_client_txs(group, ctx),
        }
    }

    /// Acts on what the pacemaker reported: on an advance, installs the
    /// next epoch in every instance and rotates the buckets.
    fn on_epoch_event(&mut self, ev: Option<EpochEvent>, ctx: &mut dyn Context<NodeMsg>) {
        let Some(EpochEvent::Advance { epoch, min, max }) = ev else {
            return;
        };
        let now = ctx.now();
        self.metrics.epochs.push((now, epoch.0));
        // One rotation per epoch crossed keeps bucket→instance assignment
        // aligned with peers even across a multi-epoch fast-forward.
        while self.bucket_epoch < epoch.0 {
            self.buckets.rotate();
            self.bucket_epoch += 1;
        }
        for i in 0..self.cfg.sys.m {
            self.step(i, Input::AdvanceEpoch(min, max), ctx);
        }
        self.try_propose_all(ctx);
    }

    // ------------------------------------------------------------------
    // Epoch state transfer (§5.2.1)
    // ------------------------------------------------------------------

    /// Evidence of having fallen behind: buffered future-epoch proposals,
    /// a checkpoint quorum for an epoch we have not completed, or an
    /// instance whose commit frontier stays far behind its highest seen
    /// proposal across two probe periods. The last covers every
    /// missed-message case — a round whose vote phases we missed can
    /// never commit here on its own, because peers do not re-send votes —
    /// and keeps a recovering replica syncing until it reaches the live
    /// edge and its own votes start counting again. Call once per probe:
    /// refreshes the hysteresis state.
    fn sync_lagging(&mut self) -> bool {
        let mut lagging = self.pacemaker.as_ref().is_some_and(|p| p.lag_evidence());
        for (i, inst) in self.slots[..self.cfg.sys.m].iter().enumerate() {
            if let Some(lag) = inst.lag_evidence() {
                lagging |= lag.future_epoch_backlog;
                lagging |= self.sync.gap_persists(i, lag.commit_gap);
            }
        }
        lagging
    }

    /// Per-instance committed-round frontier (`frontier[i]` is instance
    /// `i`'s highest contiguously committed round).
    pub fn commit_frontier(&self) -> Vec<Round> {
        self.slots[..self.cfg.sys.m]
            .iter()
            .map(Instance::committed_upto)
            .collect()
    }

    /// Builds the state-transfer request this replica would send right
    /// now. Pure with respect to the network (the sync fault tests drive
    /// the request/response exchange directly).
    pub fn build_sync_request(&self) -> SyncRequest {
        SyncRequest {
            epoch: Epoch(self.epoch()),
            applied: self.exec.applied(),
            frontier: self.commit_frontier(),
            lane_roots: self.exec.lane_roots(),
        }
    }

    /// Sends one state-transfer request to the next *healthy* peer in
    /// round-robin order (see [`StateTransfer`] for how silence and bad
    /// payloads move a peer out of the rotation, and why that never
    /// costs liveness). Called once per probe window.
    fn send_sync_request(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        if self.sync.note_timeout() {
            self.metrics.sync_responder_timeouts += 1;
        }
        let req = self.build_sync_request();
        let target = self.sync.pick_target();
        self.metrics.sync_requests += 1;
        ctx.send(target, NodeMsg::SyncReq(req));
    }

    /// Serves a peer's state-transfer request from our committed log.
    fn on_sync_request(
        &mut self,
        from: ReplicaId,
        req: SyncRequest,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        if let Some(resp) = self.build_sync_response(&req) {
            if resp.snapshot.is_some() {
                self.metrics.snapshots_served += 1;
                self.metrics.snapshot_chunks_served += resp.chunks.len() as u64;
                self.metrics.snapshot_bytes_served +=
                    resp.chunks.iter().map(|c| c.wire_size()).sum::<u64>();
            }
            ctx.send(from.as_usize(), NodeMsg::SyncResp(Arc::new(resp)));
        }
    }

    /// Builds the response this replica would serve for `req`, or `None`
    /// when it has nothing useful. Pure with respect to the network (the
    /// sync tests drive it directly). Three parts: the snapshot with its
    /// proving checkpoint (`serve_snapshot`), otherwise an epoch proof
    /// alone (`serve_checkpoint`), and log entries (`serve_entries`)
    /// either way.
    pub fn build_sync_response(&self, req: &SyncRequest) -> Option<SyncResponse> {
        if req.frontier.len() != self.cfg.sys.m {
            return None;
        }
        // A served snapshot's checkpoint doubles as the epoch proof.
        let mut resp = self.serve_snapshot(req).unwrap_or_else(|| SyncResponse {
            checkpoint: self.serve_checkpoint(req),
            ..SyncResponse::default()
        });
        resp.entries = self.serve_entries(req);
        (!resp.entries.is_empty() || resp.checkpoint.is_some()).then_some(resp)
    }

    /// Log entries past the requester's frontier, each with its QC.
    fn serve_entries(&self, req: &SyncRequest) -> Vec<SyncEntry> {
        let mut entries = Vec::new();
        for (i, inst) in self.slots[..self.cfg.sys.m].iter().enumerate() {
            for (block, qc) in inst.committed_entries_from(req.frontier[i], SYNC_PER_INSTANCE) {
                entries.push(SyncEntry {
                    instance: InstanceId(i as u32),
                    block,
                    qc,
                });
                if entries.len() >= SYNC_MAX_BLOCKS {
                    return entries;
                }
            }
        }
        entries
    }

    /// Execution fast-forward: when our latest snapshot is at least
    /// `sys.snapshot_min_lag()` blocks ahead of the requester's applied
    /// frontier ([`snapshot_worthwhile`] — a barely-behind
    /// replica gets log sync alone) AND we can prove its root with the
    /// matching stable checkpoint, that checkpoint, the snapshot *head*,
    /// and the chunk of every lane whose root differs from the
    /// requester's advertisement (delta sync): bytes shipped scale with
    /// changed lanes, not state size. The snapshot is held as its head
    /// plus lane chunks, so serving copies what is asked for and encodes
    /// nothing.
    fn serve_snapshot(&self, req: &SyncRequest) -> Option<SyncResponse> {
        // A degraded replica stops serving snapshots: its own durable
        // path is failing, so it must not become the source other
        // replicas fast-forward their state from. Log entries are
        // still served — they carry their own QCs.
        if !self.durability.is_normal() {
            return None;
        }
        let min_lag = self.cfg.sys.snapshot_min_lag();
        let snap = self
            .exec
            .latest_snapshot()
            .filter(|snap| snapshot_worthwhile(snap.head.applied, req.applied, min_lag))?;
        let cp = self
            .pacemaker
            .as_ref()?
            .stable_checkpoint(Epoch(snap.head.epoch))
            .filter(|cp| cp.state_root == snap.head.root)?;
        Some(SyncResponse {
            checkpoint: Some(cp),
            snapshot: Some(snap.head.clone()),
            chunks: delta_chunks(snap, req),
            entries: Vec::new(),
        })
    }

    /// The epoch proof served without a snapshot: the requested epoch's
    /// stable checkpoint, or the newest one we hold when the requester's
    /// has been pruned.
    fn serve_checkpoint(&self, req: &SyncRequest) -> Option<StableCheckpoint> {
        let pm = self.pacemaker.as_ref()?;
        pm.stable_checkpoint(req.epoch).or_else(|| {
            // The requester is so far behind that its epoch's stable
            // checkpoint has been pruned (we retain two). Serve the
            // newest one we hold: a verified future-epoch checkpoint
            // lets the requester fast-forward its pacemaker and rejoin
            // the live epoch schedule while log entries repair the gap.
            if pm.epoch() > req.epoch.next() {
                pm.stable_checkpoint(Epoch(pm.epoch().0 - 1))
            } else {
                None
            }
        })
    }

    /// Verifies and installs a peer's sync response — snapshot, then
    /// checkpoint, then entries — and scores `from`'s responder health
    /// from the three steps' combined outcome
    /// ([`StateTransfer::score_response`]).
    pub fn on_sync_response(
        &mut self,
        from: ReplicaId,
        resp: SyncResponse,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        let mut outcome = self.install_snapshot(&resp);
        if let Some(cp) = &resp.checkpoint {
            // `useful` so far means exactly "the snapshot installed".
            self.apply_checkpoint(cp, outcome.useful, ctx);
            outcome.useful = true;
        }
        self.sync_pacemaker_metrics();
        outcome.useful |= self.install_entries(resp.entries, ctx);
        let now = ctx.now();
        if let Some(newly_quarantined) = self.sync.score_response(from.as_usize(), outcome) {
            self.metrics.sync_chunks_verified += outcome.ok_chunks;
            self.metrics.sync_chunks_rejected += outcome.bad_chunks;
            if newly_quarantined {
                self.metrics.sync_responders_quarantined += 1;
                self.metrics.trace.note_event("responder_quarantined", now);
            }
        }
    }

    /// Snapshot fast-forward: only with a verified stable checkpoint
    /// whose quorum-signed root matches the snapshot head's manifest
    /// root. The head alone proves the lane-root vector; each chunk then
    /// verifies against it — membership (its root is the one the head
    /// names for that lane) plus content (entries recompute to the root,
    /// stay in-lane, stay canonical). The response installs as a whole or
    /// not at all: one bad chunk, or one lane neither shipped nor held
    /// locally under the head's root, and nothing of it is kept.
    /// `useful` in the returned outcome means the snapshot installed;
    /// the pacemaker's jump past it is the checkpoint step's.
    fn install_snapshot(&mut self, resp: &SyncResponse) -> ResponseOutcome {
        let mut outcome = ResponseOutcome::default();
        let Some(head) = &resp.snapshot else {
            return outcome;
        };
        outcome.head_rejected = !resp.checkpoint.as_ref().is_some_and(|cp| {
            cp.epoch.0 == head.epoch
                && cp.state_root == head.root
                && head.verify()
                && head.applied > self.exec.applied()
                && cp.verify(&self.cfg.registry, self.cfg.sys.quorum())
        });
        if outcome.head_rejected {
            return outcome;
        }
        for chunk in &resp.chunks {
            if head.lane_roots.get(chunk.lane as usize) == Some(&chunk.root) && chunk.verify() {
                outcome.ok_chunks += 1;
            } else {
                outcome.bad_chunks += 1;
            }
        }
        if outcome.bad_chunks > 0 {
            return outcome;
        }
        // Blocks staged or in flight already have their ConfirmRecords
        // and the install flushes them first: the prefix this replica
        // never recorded starts at the staging frontier, not at `applied`.
        let recorded_upto = self.exec.next_sn();
        if let Some(reused) = self.exec.install_delta(head, &resp.chunks) {
            outcome.useful = true;
            self.metrics.snapshot_chunks_reused += reused;
            self.after_snapshot_install(head, recorded_upto);
        }
        outcome
    }

    /// Hands a response's checkpoint to the pacemaker, which verifies
    /// it. `installed`: the snapshot it proves was just installed.
    fn apply_checkpoint(
        &mut self,
        cp: &StableCheckpoint,
        installed: bool,
        ctx: &mut dyn Context<NodeMsg>,
    ) {
        let ev = self.pacemaker.as_mut().and_then(|p| {
            if installed || cp.epoch > p.epoch() {
                // Jump the pacemaker. Either the installed snapshot
                // supplies everything up to and including cp.epoch, so
                // there is no old epoch left to complete locally (and
                // peers may have pruned its stable checkpoint); or this
                // is a whole completed epoch we have not even entered:
                // our own epoch's proof may be pruned cluster-wide, so
                // waiting for local completion could strand us, and
                // execution still proceeds strictly in confirmed order
                // as entries install.
                p.fast_forward(cp, &self.cfg.registry)
            } else {
                p.on_stable_checkpoint(cp, &self.cfg.registry)
            }
        });
        self.on_epoch_event(ev, ctx);
    }

    /// Feeds fetched log entries through their instances (which verify
    /// each QC). Returns whether any of them installed.
    fn install_entries(&mut self, entries: Vec<SyncEntry>, ctx: &mut dyn Context<NodeMsg>) -> bool {
        let now = ctx.now();
        let mut installed = false;
        for e in entries {
            let i = e.instance.as_usize();
            if i >= self.cfg.sys.m {
                continue;
            }
            let input = Input::Install(e.block, e.qc);
            let mut actions = self.slots[i]
                .step(input, now, &mut self.cur_rank)
                .peekable();
            if actions.peek().is_some() {
                self.metrics.sync_installed += 1;
                installed = true;
            }
            self.handle_actions(i, actions, ctx);
        }
        installed
    }

    /// Bookkeeping once a peer snapshot is installed, and the consensus
    /// layers' jump past the snapshotted prefix.
    fn after_snapshot_install(&mut self, snap: &SnapshotHead, recorded_upto: u64) {
        self.metrics.snapshot_installs += 1;
        // Installing drained staged blocks and compacted the WAL behind
        // the snapshot.
        self.refresh_exec_stats();
        // The fast-forwarded prefix never gets ConfirmRecords here:
        // surface the gap instead of leaving it implicit in a shorter log.
        self.metrics.skipped_sns += snap.applied - recorded_upto;
        // The prefix was never traced here either — jump the
        // checkpoint-trace frontier so the next epoch sweep does not
        // stamp blocks this replica never processed.
        self.ckpt_traced_upto = self.ckpt_traced_upto.max(self.exec.applied());
        // Each instance's commit frontier jumps to the snapshot's
        // recorded rounds (peers then serve only the tail), and the
        // orderer's intake tips jump with it so confirmation resumes at
        // the snapshot's sn. The frontier is covered by the
        // quorum-signed manifest root, so the rounds are as trustworthy
        // as the state itself. A state-only snapshot (empty frontier —
        // see `Instance::checkpoint_frontier`) skips this: the state
        // machine fast-forwards, consensus intake re-confirms history
        // and execution skips it idempotently.
        if snap.frontier.len() != self.cfg.sys.m {
            return;
        }
        for (inst, &round) in self.slots.iter_mut().zip(&snap.frontier) {
            inst.fast_forward(Round(round));
        }
        if let Orderer::Ladon(o) = &mut self.orderer {
            let max_rank = self.cfg.sys.rank_range(Epoch(snap.epoch)).1;
            let tips: Vec<(Round, Rank)> = snap
                .frontier
                .iter()
                .map(|&r| (Round(r), max_rank))
                .collect();
            o.fast_forward(&tips, snap.applied);
        }
    }

    /// Step ① relay semantics: deposit if we lead the bucket's instance,
    /// otherwise forward once toward the leader we believe is current.
    fn on_client_txs(&mut self, group: ClientTxs, ctx: &mut dyn Context<NodeMsg>) {
        let instance = self.buckets.instance_of(group.bucket);
        let i = instance.as_usize();
        let leader = self.slots[i].leader();
        if leader == self.cfg.me || group.forwarded {
            self.metrics.deposited_txs += group.count as u64;
            self.mempool.deposit(
                group.bucket,
                TxGroup {
                    first_tx: group.first_tx,
                    count: group.count,
                    arrival_sum_ns: group.arrival_sum_ns,
                    earliest: group.earliest,
                },
            );
        } else {
            let mut fwd = group;
            fwd.forwarded = true;
            ctx.send(leader.as_usize(), NodeMsg::ClientTxs(fwd));
        }
    }
}

impl Actor<NodeMsg> for MultiBftNode {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        // Stagger per-instance pace timers so leaders do not fire in
        // lockstep; the per-leader interval is m / total_block_rate.
        let interval = self.pace_interval();
        let m = self.cfg.sys.m;
        for i in 0..self.slots.len() {
            let phase = interval.mul(i as u64 % m as u64).0 / m as u64;
            arm(ctx, TimeNs(phase) + TimeNs::from_millis(1), Timer::Pace(i));
        }
        if let Some(at) = self.cfg.behavior.crash_at {
            arm(ctx, at, Timer::Crash);
        }
        // SB failure detector D (pre-determined orderers only): watch each
        // instance for quiet leaders.
        if matches!(self.orderer, Orderer::Pre(_)) {
            for i in 0..m {
                arm(ctx, self.cfg.sys.quiet_leader_timeout, Timer::Quiet(i, 0));
            }
        }
        // State-transfer probe (epoch-running protocols only, §5.2.1).
        if self.pacemaker.is_some() {
            arm(ctx, SYNC_PERIOD, Timer::Sync);
        }
        if let Some(every) = self.cfg.sample_interval {
            arm(ctx, every, Timer::Sample);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        if self.crashed {
            return;
        }
        // Actor id == replica id for replicas. Anything else (the client
        // fleet's actors have ids >= n) is not a replica and may only
        // submit transactions: consensus, checkpoint and state-transfer
        // messages are replica-to-replica and are dropped at this door,
        // so no handler ever sees a sender it cannot attribute.
        if from < self.cfg.sys.n {
            self.on_node_msg(ReplicaId(from as u32), msg, ctx);
        } else if let NodeMsg::ClientTxs(group) = msg {
            self.on_client_txs(group, ctx);
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<NodeMsg>) {
        if self.crashed {
            return;
        }
        let Some(timer) = Timer::decode(timer) else {
            return;
        };
        match timer {
            Timer::Pace(i) => {
                // Re-arm and mark the instance as wanting a proposal.
                arm(ctx, self.pace_interval(), timer);
                if self.slots.get(i).is_some_and(Instance::is_leader) {
                    self.want_propose[i] = true;
                    self.try_propose(i, ctx);
                }
            }
            Timer::Round(i, view, round) if i < self.slots.len() => {
                self.step(i, Input::RoundTimer(round, view), ctx);
            }
            Timer::ViewChange(i, view) if i < self.slots.len() => {
                self.step(i, Input::ViewChangeTimer(view), ctx);
            }
            Timer::Crash => {
                self.crashed = true;
                ctx.crash(ctx.self_id());
            }
            Timer::Sample => {
                self.metrics
                    .samples
                    .push((ctx.now(), self.metrics.confirmed_txs));
                if let Some(every) = self.cfg.sample_interval {
                    arm(ctx, every, Timer::Sample);
                }
            }
            Timer::Sync => {
                // Each probe window advances the health clock responder
                // backoff is expressed in (timeout detection happens in
                // `send_sync_request`, where the previous outstanding
                // probe is inspected — this is its only caller, so a
                // probe still outstanding there has had a full window).
                self.sync.open_probe_window();
                if self.sync_lagging() {
                    self.send_sync_request(ctx);
                }
                arm(ctx, SYNC_PERIOD, Timer::Sync);
            }
            Timer::Retry => self.retry_degraded(ctx),
            // The stamp is the commit count captured at arming time:
            // unchanged means a full quiet window elapsed.
            Timer::Quiet(i, armed_at) if i < self.cfg.sys.m => {
                let now = ctx.now();
                let stamp = Timer::commit_stamp(self.inst_commits[i]);
                if stamp == armed_at {
                    if let Orderer::Pre(o) = &mut self.orderer {
                        let confirmed = o.on_quiet_leader(InstanceId(i as u32), now);
                        self.record_confirms(confirmed, now);
                        self.check_durability(ctx);
                    }
                }
                arm(
                    ctx,
                    self.cfg.sys.quiet_leader_timeout,
                    Timer::Quiet(i, stamp),
                );
            }
            // A timer for an instance this node does not host.
            Timer::Round(..) | Timer::ViewChange(..) | Timer::Quiet(..) => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::CheckpointMsg;
    use ladon_sim::RecordingCtx;

    #[test]
    fn node_construction_per_protocol() {
        let sys = SystemConfig::paper_default(4, ladon_types::NetEnv::Lan);
        let registry = KeyRegistry::generate(4, sys.opt_keys, 1);
        for proto in [
            ProtocolKind::LadonPbft,
            ProtocolKind::LadonOptPbft,
            ProtocolKind::IssPbft,
            ProtocolKind::RccPbft,
            ProtocolKind::MirPbft,
            ProtocolKind::DqbftPbft,
            ProtocolKind::LadonHotStuff,
            ProtocolKind::IssHotStuff,
        ] {
            let node = MultiBftNode::new(NodeConfig {
                sys: sys.clone(),
                protocol: proto,
                me: ReplicaId(0),
                registry: registry.clone(),
                behavior: Behavior::default(),
                sample_interval: None,
            });
            let expect_slots = sys.m + usize::from(proto == ProtocolKind::DqbftPbft);
            assert_eq!(node.slots.len(), expect_slots, "{proto:?}");
            assert_eq!(node.confirmed_count(), 0);
        }
    }

    #[test]
    fn straggler_pace_is_k_times_slower() {
        let sys = SystemConfig::paper_default(4, ladon_types::NetEnv::Lan);
        let registry = KeyRegistry::generate(4, sys.opt_keys, 1);
        let normal = MultiBftNode::new(NodeConfig {
            sys: sys.clone(),
            protocol: ProtocolKind::LadonPbft,
            me: ReplicaId(0),
            registry: registry.clone(),
            behavior: Behavior::default(),
            sample_interval: None,
        });
        let slow = MultiBftNode::new(NodeConfig {
            sys,
            protocol: ProtocolKind::LadonPbft,
            me: ReplicaId(1),
            registry,
            behavior: Behavior {
                straggler_k: Some(10.0),
                ..Default::default()
            },
            sample_interval: None,
        });
        assert_eq!(slow.pace_interval().0, normal.pace_interval().0 * 10);
        assert!(slow.is_straggler());
    }

    const N: usize = 4;

    fn node(protocol: ProtocolKind, me: u32) -> MultiBftNode {
        let sys = SystemConfig::paper_default(N, ladon_types::NetEnv::Lan);
        MultiBftNode::new(NodeConfig {
            registry: KeyRegistry::generate(N, sys.opt_keys, 1),
            sys,
            protocol,
            me: ReplicaId(me),
            behavior: Behavior::default(),
            sample_interval: None,
        })
    }

    /// Replica 0's first proposal on instance 0 (which it leads in view
    /// 0), exactly as it would go on the wire.
    fn first_proposal(protocol: ProtocolKind) -> NodeMsg {
        let mut leader = node(protocol, 0);
        let mut ctx = RecordingCtx::new(0, 1);
        leader.on_timer(Timer::Pace(0).encode().unwrap(), &mut ctx);
        let (_, msg) = ctx
            .sent
            .into_iter()
            .find(|(_, m)| matches!(m, NodeMsg::Pbft { .. } | NodeMsg::Hs { .. }))
            .expect("the paced leader proposes");
        msg
    }

    /// Delivers `msg` from actor `from` to a fresh replica 1 running
    /// `host` and reports whether anything observable happened: the
    /// commit frontier, epoch or applied frontier moved, or a message or
    /// timer went out.
    fn delivery_has_effect(host: ProtocolKind, from: ActorId, msg: NodeMsg) -> bool {
        let mut n = node(host, 1);
        let mut ctx = RecordingCtx::new(1, 1);
        let state = |n: &MultiBftNode| (n.commit_frontier(), n.epoch(), n.exec.applied());
        let before = state(&n);
        n.on_message(from, msg, &mut ctx);
        state(&n) != before || !ctx.sent.is_empty() || !ctx.timers.is_empty()
    }

    #[test]
    fn seam_ignores_foreign_and_out_of_range_consensus_traffic() {
        use ProtocolKind::{LadonHotStuff, LadonPbft};
        let pbft = first_proposal(LadonPbft);
        let hs = first_proposal(LadonHotStuff);
        let retarget = |msg: &NodeMsg, to: u32| match msg.clone() {
            NodeMsg::Pbft { msg, .. } => NodeMsg::Pbft {
                instance: InstanceId(to),
                msg,
            },
            NodeMsg::Hs { msg, .. } => NodeMsg::Hs {
                instance: InstanceId(to),
                msg,
            },
            other => other,
        };
        // (host protocol, message from replica 0, handled?)
        let table = [
            (LadonPbft, pbft.clone(), true),
            (LadonHotStuff, hs.clone(), true),
            (LadonHotStuff, pbft.clone(), false),
            (LadonPbft, hs.clone(), false),
            (LadonPbft, retarget(&pbft, N as u32), false),
            (LadonHotStuff, retarget(&hs, u32::MAX), false),
        ];
        for (host, msg, handled) in table {
            let got = delivery_has_effect(host, 0, msg.clone());
            assert_eq!(got, handled, "{host:?} <- {msg:?}");
        }
    }

    /// One proposal from one Byzantine replica, valid in everything but a
    /// view no timer id can carry: the instance door counts a rejection
    /// and nothing else happens — no view adopted, no vote, no timer (the
    /// vote's round timer used to panic `arm` on every honest node).
    #[test]
    fn hotstuff_proposal_in_an_unrepresentable_view_is_rejected() {
        use ladon_hotstuff::msg::{node_bytes, DOMAIN_GENERIC};
        use ladon_hotstuff::HsMsg;
        let byz = ReplicaId(2);
        // Instance 0's leader in view `v` is replica `v % n`.
        let view = ladon_types::View((1 << 16) + byz.0 as u64);
        let NodeMsg::Hs {
            instance,
            msg: HsMsg::Generic(g),
        } = first_proposal(ProtocolKind::LadonHotStuff)
        else {
            panic!("a HotStuff leader's first message is its proposal");
        };
        let mut g = Arc::unwrap_or_clone(g);
        g.view = view;
        g.sig = ladon_crypto::Signature::sign(
            &node(ProtocolKind::LadonHotStuff, byz.0)
                .cfg
                .registry
                .signer(byz),
            DOMAIN_GENERIC,
            &node_bytes(view, g.node.height, &g.node.digest, instance, g.node.rank),
        );
        let msg = NodeMsg::Hs {
            instance,
            msg: HsMsg::Generic(Arc::new(g)),
        };

        let mut n = node(ProtocolKind::LadonHotStuff, 1);
        let mut ctx = RecordingCtx::new(1, 1);
        n.on_message(byz.as_usize(), msg, &mut ctx);
        assert_eq!(n.slots[0].rejected(), 1);
        assert_eq!(n.slots[0].leader(), ReplicaId(0), "the view must not move");
        assert!(ctx.sent.is_empty() && ctx.timers.is_empty());
    }

    /// A first-round pre-prepare on `instance` from its view-0 leader,
    /// citing `cert` as the leader's rank certificate.
    fn preprepare_citing(instance: u32, cert: &Arc<ladon_crypto::QuorumCert>) -> NodeMsg {
        use ladon_pbft::msg::{phase_bytes, PrePrepare, RankProof, DOMAIN_PREPREPARE};
        let leader = node(ProtocolKind::LadonPbft, instance)
            .cfg
            .registry
            .signer(ReplicaId(instance));
        let (view, round, instance) = (ladon_types::View(0), Round(1), InstanceId(instance));
        let (batch, rank) = (Batch::empty(0), cert.rank.next());
        let digest = ladon_crypto::digest_batch(&batch);
        let body = phase_bytes(view, round, &digest, instance, rank);
        let pp = PrePrepare {
            view,
            round,
            instance,
            rank,
            digest,
            batch,
            proposed_at: TimeNs::ZERO,
            rank_proof: RankProof::FirstRound(RankCert::certified(cert.clone())),
            sig: ladon_crypto::Signature::sign(&leader, DOMAIN_PREPREPARE, &body),
        };
        let msg = ladon_pbft::PbftMsg::PrePrepare(Arc::new(pp));
        NodeMsg::Pbft { instance, msg }
    }

    #[test]
    fn one_cert_cache_per_replica_shared_by_its_instances() {
        use ladon_crypto::{CryptoCounters, QuorumCert};
        let registry = node(ProtocolKind::LadonPbft, 0).cfg.registry;
        // A certificate for instance 0's round 1 at rank 5.
        let (view, round, rank) = (ladon_types::View(0), Round(1), Rank(5));
        let digest = ladon_types::Digest([7; 32]);
        let shares: Vec<_> = (0..3)
            .map(|r| {
                let signer = registry.signer(ReplicaId(r));
                QuorumCert::sign_share(&signer, view, round, &digest, InstanceId(0), rank)
            })
            .collect();
        let cert = QuorumCert::from_shares(&shares, N, view, round, InstanceId(0), digest, rank)
            .map(Arc::new)
            .expect("distinct signers");

        // Delivers instance `i`'s citation of `cert` to `n` and reports
        // (refused, agg_verifies, qc_verify_hits).
        let deliver = |n: &mut MultiBftNode, i: u32, cert: &Arc<QuorumCert>| {
            let mut ctx = RecordingCtx::new(3, 1);
            let refused_before = n.slots[i as usize].rejected();
            let before = CryptoCounters::snapshot();
            n.on_message(i as usize, preprepare_citing(i, cert), &mut ctx);
            let cost = CryptoCounters::snapshot().since(&before);
            let refused = n.slots[i as usize].rejected() - refused_before;
            (refused, cost.agg_verifies, cost.qc_verify_hits)
        };
        let mut three = node(ProtocolKind::LadonPbft, 3);
        assert_eq!(deliver(&mut three, 0, &cert), (0, 1, 0));
        assert_eq!(deliver(&mut three, 1, &cert), (0, 0, 1));

        // A twin with one flipped signature byte is a different key: it
        // misses the cache, fails verification, and is refused.
        let mut twin = QuorumCert::clone(&cert);
        twin.agg.combined[0] ^= 1;
        assert_eq!(deliver(&mut three, 2, &Arc::new(twin)), (1, 1, 0));

        // Another replica has verified nothing yet: no store is shared.
        let mut two = node(ProtocolKind::LadonPbft, 2);
        assert_eq!(deliver(&mut two, 0, &cert), (0, 1, 0));

        // Entering the next epoch forgets the old epoch's certificates.
        let (min, max) = three.cfg.sys.rank_range(Epoch(1));
        let advance = EpochEvent::Advance {
            epoch: Epoch(1),
            min,
            max,
        };
        three.on_epoch_event(Some(advance), &mut RecordingCtx::new(3, 1));
        assert_eq!(deliver(&mut three, 2, &cert), (0, 1, 0));
    }

    #[test]
    fn only_client_transactions_pass_the_door_from_a_non_replica() {
        use ProtocolKind::{LadonHotStuff, LadonPbft};
        let signer = node(LadonPbft, 0).cfg.registry.signer(ReplicaId(0));
        let checkpoint = CheckpointMsg::sign(&signer, Epoch(0), ladon_types::Digest::NIL);
        let table = [
            (LadonPbft, first_proposal(LadonPbft)),
            (LadonHotStuff, first_proposal(LadonHotStuff)),
            (LadonPbft, NodeMsg::Checkpoint(checkpoint)),
            (
                LadonPbft,
                NodeMsg::SyncReq(node(LadonPbft, 2).build_sync_request()),
            ),
        ];
        // Actor id n is the client fleet's first actor.
        for (host, msg) in table {
            assert!(!delivery_has_effect(host, N, msg.clone()), "{msg:?}");
        }
        // Client transactions are what the door is for.
        let mut n = node(LadonPbft, 0);
        let mut ctx = RecordingCtx::new(0, 1);
        let group = ClientTxs {
            bucket: 0,
            first_tx: ladon_types::TxId(0),
            count: 5,
            payload_bytes: 2500,
            arrival_sum_ns: 0,
            earliest: TimeNs::ZERO,
            forwarded: true,
        };
        n.on_message(N, NodeMsg::ClientTxs(group), &mut ctx);
        assert_eq!(n.metrics.deposited_txs, 5);
    }
}
