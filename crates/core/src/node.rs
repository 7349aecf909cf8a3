//! The Multi-BFT replica node (Fig. 4).
//!
//! One [`MultiBftNode`] per replica hosts:
//!
//! - `m` consensus instances (PBFT or chained HotStuff), each a pure
//!   state machine from `ladon-pbft` / `ladon-hotstuff` behind the
//!   [`crate::instance`] seam — this module never learns which;
//! - the shared `curRank` state (Algorithm 2's `curRank`);
//! - a global orderer: Algorithm 1 (Ladon's, or with ranks fixed to
//!   rounds for ISS and Mir, Mir holding it after each new view) or
//!   DQBFT's sequencer;
//! - the epoch pacemaker and rotating buckets (every protocol; DQBFT's
//!   sequencer reports no epoch frontier, so a DQBFT replica stays in
//!   epoch 0);
//! - the synthetic mempool fed by relayed client transaction groups;
//! - per-instance proposal pacing (the paper's fixed total block rate;
//!   HotStuff's epoch-flush dummies go out unpaced), straggler /
//!   Byzantine / crash behavior injection;
//! - metrics used by every figure and table.
//!
//! A replica is one state machine with one entry point,
//! [`MultiBftNode::step`]: an [`Input`] (start, a message, a timer) and
//! the time go in, and the [`Output`]s it asks for (send, broadcast to
//! peers, arm a timer, crash) come out, in order, in a buffer the caller
//! owns. No handler touches a network, a clock or a timer queue; the
//! replica's execution pipeline is the one thing it drives directly.
//! Nothing else is decided in the handlers that has a module of its own:
//! the state-transfer rotation is [`crate::sync::StateTransfer`], the
//! durability mode is [`crate::durability::Durability`], timer ids are
//! [`crate::timer::Timer`], and every instance effect goes through the
//! one action handler. `start` arms the state-transfer probe under every
//! protocol, and the probe covers every hosted instance: DQBFT's ordering
//! instance is probed, served and fetched like the data instances, and
//! [`MultiBftNode::commit_frontier`] has one round per hosted instance.
//!
//! The node's `ladon-sim` [`Actor`] impl is the one driver: it reads the
//! context's clock once per event, calls `step`, and performs the
//! outputs in the order they were produced, so the node runs under the
//! deterministic engine and the live threaded runtime unchanged.

use crate::bucket::{Mempool, RotatingBuckets, TxGroup};
use crate::dqbft::DqbftOrderer;
use crate::durability::{Durability, DurabilityEvent, DurabilityStep, NodeMode};
use crate::epoch::{EpochInput, EpochPacemaker, StableCheckpoint};
use crate::instance::{self, Instance};
use crate::metrics::{CommitRecord, NodeMetrics};
use crate::msg::{ClientTxs, NodeMsg};
use crate::ordering::{ConfirmedBlock, GlobalOrderer, LadonOrderer};
use crate::sync::{
    snapshot_worthwhile, ResponderHealth, ResponseOutcome, StateTransfer, SyncRequest,
    SyncResponse, SYNC_MAX_BLOCKS,
};
use crate::timer::Timer;
use ladon_crypto::{CertCache, KeyRegistry, RankCert};
use ladon_obs::Stage;
use ladon_pbft::CertifiedBlock;
use ladon_sim::{Actor, ActorId, Context};
use ladon_state::{ExecOutcome, ExecutionPipeline, InstallOutcome, Snapshot};
use ladon_types::{
    Action, Batch, Block, Epoch, InstanceId, ProtocolKind, Rank, ReplicaId, Round, SystemConfig,
    TimeNs,
};
use std::sync::Arc;

/// Fault/behavior injection for one replica (§6.1 straggler settings).
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    /// Honest straggler factor `k`: the replica's leader proposals run at
    /// `1/k` of the normal rate and carry empty batches (§6.1).
    pub straggler_k: Option<f64>,
    /// Byzantine straggler: additionally manipulate rank selection by
    /// using the lowest 2f+1 collected ranks and skipping the
    /// proposal-time refresh of its own report that every honest leader
    /// makes (§6.3.1; [`ladon_pbft::RankStrategy`]).
    pub rank_minimize: bool,
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

/// Algorithm 1 (every protocol but DQBFT) or DQBFT's sequencer.
enum Orderer {
    Ladon(LadonOrderer),
    Dqbft(DqbftOrderer),
}

impl GlobalOrderer for Orderer {
    fn on_partial_commit(&mut self, block: Block, now: TimeNs) -> Vec<ConfirmedBlock> {
        match self {
            Orderer::Ladon(o) => o.on_partial_commit(block, now),
            Orderer::Dqbft(o) => o.on_partial_commit(block, now),
        }
    }

    fn confirmed_count(&self) -> u64 {
        match self {
            Orderer::Ladon(o) => o.confirmed_count(),
            Orderer::Dqbft(o) => o.confirmed_count(),
        }
    }

    fn waiting_count(&self) -> usize {
        match self {
            Orderer::Ladon(o) => o.waiting_count(),
            Orderer::Dqbft(o) => o.waiting_count(),
        }
    }
}

/// State-transfer probe period.
const SYNC_PERIOD: TimeNs = TimeNs::from_millis(1000);

/// How long Mir holds confirmation after a new view installs: the epoch
/// change the paper attributes to Mir-BFT.
const EPOCH_CHANGE_PENALTY: TimeNs = TimeNs::from_secs(5);

/// One event a replica handles.
#[derive(Debug)]
pub enum Input {
    /// The replica starts: it arms its first timers.
    Start,
    /// A message from an actor. A replica's actor id is its replica id;
    /// any other sender (the client fleet's ids are `n` and up) may only
    /// submit transactions.
    Message(ActorId, NodeMsg),
    /// A timer this replica armed fired.
    Timer(Timer),
}

/// One effect a replica asks of its driver; a step's outputs are
/// performed in the order it produced them.
#[derive(Debug)]
pub enum Output {
    /// Send a message to one actor.
    Send(ActorId, NodeMsg),
    /// Send a message to every other replica, in replica order.
    Broadcast(NodeMsg),
    /// Feed [`Input::Timer`] back after a delay.
    Arm(TimeNs, Timer),
    /// Stop the replica: it takes no further input.
    Crash,
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
    pacemaker: EpochPacemaker,
    buckets: RotatingBuckets,
    mempool: Mempool,
    /// Pace timer fired but the instance was not ready to propose.
    want_propose: Vec<bool>,
    /// A [`Timer::Pace`] is pending for the instance (only while this
    /// replica leads it).
    pacing: Vec<bool>,
    /// A [`Timer::Liveness`] is pending for the instance: at most one,
    /// due no later than the instance's deadline.
    liveness_armed: Vec<bool>,
    /// This replica has committed a block, so every instance keeps a
    /// deadline (see `on_committed`).
    liveness_started: bool,
    /// The execution pipeline: KV state machine + commit WAL + snapshots.
    pub exec: ExecutionPipeline,
    /// State-transfer requester rotation and responder health.
    sync: StateTransfer,
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
    /// The time of the input being stepped.
    now: TimeNs,
    /// The [`Actor`] driver's output buffer, reused across events.
    outputs: Vec<Output>,
}

impl MultiBftNode {
    /// Builds the node for `cfg.me` with a fresh in-memory execution
    /// pipeline (the simulation default), sized by the system config's
    /// `exec_keyspace`.
    pub fn new(cfg: NodeConfig) -> Self {
        let exec = ExecutionPipeline::in_memory_opts(
            cfg.sys.exec_keyspace,
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

        // Vanilla instances rank blocks at their rounds: Algorithm 1
        // confirms the pre-determined order.
        let mut ladon = match cfg.protocol {
            ProtocolKind::LadonPbft | ProtocolKind::LadonOptPbft | ProtocolKind::LadonHotStuff => {
                LadonOrderer::new(m)
            }
            _ => LadonOrderer::pre_determined(m),
        };
        // Epoch 0's boundary: the pacemaker starts there.
        ladon.set_ceiling(sys.rank_range(Epoch(0)).1);
        let orderer = match cfg.protocol {
            ProtocolKind::DqbftPbft => Orderer::Dqbft(DqbftOrderer::new(m)),
            _ => Orderer::Ladon(ladon),
        };

        let applied_at_start = exec.applied();
        Self {
            peers: (0..sys.n).filter(|&r| r != cfg.me.as_usize()).collect(),
            buckets: RotatingBuckets::new(m),
            mempool: Mempool::new(m, sys.tx_bytes),
            want_propose: vec![false; m + extra],
            pacing: vec![false; m + extra],
            liveness_armed: vec![false; m + extra],
            liveness_started: false,
            slots,
            cur_rank: RankCert::genesis(sys.rank_range(Epoch(0)).0),
            orderer,
            pacemaker: EpochPacemaker::new(sys),
            exec,
            sync: StateTransfer::new(cfg.me.as_usize(), sys.n, m + extra),
            ckpt_traced_upto: applied_at_start,
            durability: Durability::default(),
            metrics: NodeMetrics::default(),
            crashed: false,
            now: TimeNs::ZERO,
            outputs: Vec::new(),
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

    /// Read access to the orderer's confirmed count.
    pub fn confirmed_count(&self) -> u64 {
        self.orderer.confirmed_count()
    }

    /// Blocks partially committed but awaiting global confirmation.
    pub fn waiting_count(&self) -> usize {
        self.orderer.waiting_count()
    }

    /// Rounds of consensus state held, summed over the instances (see
    /// [`Instance::rounds_held`]).
    pub fn rounds_held(&self) -> usize {
        self.slots.iter().map(Instance::rounds_held).sum()
    }

    /// The replica's current certified rank.
    pub fn cur_rank(&self) -> Rank {
        self.cur_rank.rank
    }

    /// Current epoch (always 0 under DQBFT).
    pub fn epoch(&self) -> u64 {
        self.pacemaker.epoch().0
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

    /// Delay from `now` to instance `i`'s next pace tick. Ticks sit on a
    /// fixed grid, `phase_i + 1 ms + k · interval`, staggered so leaders
    /// do not fire in lockstep; the per-leader interval is
    /// m / total_block_rate.
    fn pace_delay(&self, i: usize, now: TimeNs) -> TimeNs {
        let interval = self.pace_interval();
        let m = self.cfg.sys.m as u64;
        let first = TimeNs(interval.mul(i as u64 % m).0 / m) + TimeNs::from_millis(1);
        match now.0.checked_sub(first.0) {
            None => first - now,
            Some(past) => TimeNs(interval.0 - past % interval.0),
        }
    }

    // ------------------------------------------------------------------
    // Action plumbing
    // ------------------------------------------------------------------

    /// Feeds `input` to instance `i` and performs what comes back.
    fn feed(&mut self, i: usize, input: instance::Input, out: &mut Vec<Output>) {
        let actions = self.slots[i].step(input, self.now, &mut self.cur_rank);
        self.handle_actions(i, actions, out);
        self.watch(i, out);
    }

    /// Arms what instance `i` now waits on, and nothing else: its pace
    /// tick while this replica leads it (back on the instance's grid when
    /// leadership returns), and one liveness timer while it has a
    /// deadline. A deadline only moves later, so a pending liveness timer
    /// is never late; one that fires early re-arms for the rest.
    fn watch(&mut self, i: usize, out: &mut Vec<Output>) {
        if !self.pacing[i] && self.slots[i].is_leader() {
            self.pacing[i] = true;
            out.push(Output::Arm(self.pace_delay(i, self.now), Timer::Pace(i)));
        }
        if let Some(since) = self.slots[i].liveness_since() {
            if !self.liveness_armed[i] {
                self.liveness_armed[i] = true;
                let due = since + self.cfg.sys.view_change_timeout;
                let delay = due.saturating_sub(self.now);
                out.push(Output::Arm(delay, Timer::Liveness(i)));
            }
        }
    }

    /// Performs an instance's effects — the one place consensus output
    /// meets the network, the timers and the commit pipeline, whichever
    /// protocol instance `i` runs.
    fn handle_actions(
        &mut self,
        i: usize,
        actions: impl Iterator<Item = Action<NodeMsg>>,
        out: &mut Vec<Output>,
    ) {
        for a in actions {
            match a {
                Action::Broadcast(msg) => out.push(Output::Broadcast(msg)),
                Action::Send(r, msg) if r == self.cfg.me => self.on_node_msg(r, msg, out),
                Action::Send(r, msg) => out.push(Output::Send(r.as_usize(), msg)),
                Action::Committed(block) => self.on_committed(i, block, out),
                Action::ViewChangeStarted { view } => {
                    self.metrics.view_changes.push((self.now, i as u32, view.0));
                }
                Action::NewViewInstalled { view } => {
                    self.metrics.new_views.push((self.now, i as u32, view.0));
                    // Mir's epoch change: confirmation stalls.
                    if let (ProtocolKind::MirPbft, Orderer::Ladon(o)) =
                        (self.cfg.protocol, &mut self.orderer)
                    {
                        o.hold_until(self.now + EPOCH_CHANGE_PENALTY);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit / confirm pipeline
    // ------------------------------------------------------------------

    fn on_committed(&mut self, i: usize, block: Block, out: &mut Vec<Output>) {
        if !self.liveness_started {
            self.liveness_started = true;
            // This replica's first commit: an instance that waits on
            // nothing yet starts waiting now, so a leader that died
            // before its instance's first commit is replaced. (Not at
            // start: a restarted replica would time out instances it has
            // not caught up on yet.)
            for j in 0..self.slots.len() {
                self.slots[j].wait_from(self.now);
                self.watch(j, out);
            }
        }
        self.metrics.commits.push(CommitRecord {
            instance: block.index().0,
            round: block.round().0,
            rank: block.rank().0,
            time: self.now,
        });

        // Ordering layer + execution first. The orderer confirms nothing
        // past the epoch's `maxRank`, so when this commit completes the
        // epoch, exactly the epoch's blocks are confirmed and staged
        // before the checkpoint's state root is computed: the root covers
        // the same prefix on every replica.
        let confirmed: Vec<ConfirmedBlock> = match &mut self.orderer {
            // The ordering instance sequenced a reference batch.
            Orderer::Dqbft(o) if i == self.cfg.sys.m => {
                o.on_sequenced(block.round().0, &block.batch.refs, self.now)
            }
            o => o.on_partial_commit(block, self.now),
        };
        self.record_confirms(confirmed, self.now);
        self.close_epoch_if_ordered(out);

        // Both the confirm drain and the checkpoint above can resolve a
        // flush barrier: evaluate the degradation trigger.
        self.check_durability(out);

        // A commit can unblock proposals (rank sets complete, HS QCs form,
        // DQBFT refs accumulate).
        self.try_propose_all(out);
    }

    /// Closes the current epoch once the orderer reports it over (every
    /// instance's tip at `maxRank`). The orderer's ceiling holds the
    /// confirmed state at the boundary until the pacemaker advances, so
    /// whichever handler gets here first signs the same root. The
    /// checkpoint snapshots the KV contents and compacts the WAL; the
    /// snapshot records `frontier`, each instance's last round of the
    /// epoch, so installers can fast-forward consensus intake, not just
    /// the state machine.
    fn close_epoch_if_ordered(&mut self, out: &mut Vec<Output>) {
        if self.pacemaker.closed() {
            return;
        }
        let Orderer::Ladon(o) = &self.orderer else {
            return;
        };
        let Some(frontier) = o.epoch_frontier() else {
            return;
        };
        // While degraded, abstain from the epoch's checkpoint:
        // checkpointing flushes and compacts through the failing backend,
        // and a root signed over an undurable prefix must never be
        // broadcast. The peers' quorum completes the epoch without our
        // vote.
        let signer = self.cfg.registry.signer(self.cfg.me);
        let signed = self.durability.is_normal().then(|| {
            let (now, epoch) = (self.now, self.epoch());
            let root = self.exec.checkpoint(epoch, frontier);
            // Every block below the new snapshot frontier is now covered
            // by a checkpoint: stamp the terminal lifecycle stage for the
            // swept range.
            for sn in self.ckpt_traced_upto..self.exec.applied() {
                self.metrics.trace.record(sn, 0, Stage::Checkpointed, now);
            }
            self.ckpt_traced_upto = self.exec.applied();
            // The checkpoint compacted the WAL (segment rotation):
            // surface any failed rotation step, and the I/O it cost,
            // immediately.
            self.refresh_exec_stats();
            self.metrics.state_roots.push((now, epoch, root));
            (&signer, root)
        });
        self.pace(EpochInput::Close(signed), out);
    }

    /// Feeds one input to the pacemaker, broadcasts the checkpoint it
    /// signed, mirrors its conflict count and enters the epoch it
    /// reports.
    fn pace(&mut self, input: EpochInput<'_>, out: &mut Vec<Output>) {
        let step = self.pacemaker.step(input, &self.cfg.registry);
        self.metrics.root_conflicts = self.pacemaker.root_conflicts;
        if let Some(cp) = step.signed {
            out.push(Output::Broadcast(NodeMsg::Checkpoint(cp)));
        }
        self.enter_epoch(step.entered, out);
    }

    fn record_confirms(&mut self, confirmed: Vec<ConfirmedBlock>, now: TimeNs) {
        if confirmed.is_empty() {
            return;
        }
        // The whole confirmed drain stages through the pipeline: each
        // block's WAL record is buffered, and that record is all the
        // pipeline keeps of it. A drain that staged something runs ONE
        // durability barrier (one write and one fsync, however many
        // blocks the drain held), and the records that barrier
        // acknowledges apply as ONE batch, in block order —
        // WAL-before-apply, preserved at batch granularity. Staged
        // records stay unacknowledged until their barrier returns: a
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
            if let ExecOutcome::Gap { expected } = out {
                debug_assert!(
                    false,
                    "confirmed sn {} above expected {expected}",
                    batch[i].0
                );
                self.metrics.exec_gaps += 1;
            }
        }
        if self.durability.is_normal() && self.exec.staged_records() > 0 {
            // While degraded the drain is skipped: records keep
            // *staging* (unacknowledged, memory only) but no new barrier
            // touches the failing backend until a retry heals it. The
            // counters are copied out at once, raising
            // `wal_flush_failures` on a failed barrier; handlers follow up
            // with `check_durability` on their way out.
            self.exec.submit_staged();
            self.refresh_exec_stats();
        }
    }

    /// Copies the pipeline's counters into the metrics sink. Called
    /// after everything that moves them: a drain, a checkpoint, a
    /// snapshot install, a durability retry.
    fn refresh_exec_stats(&mut self) {
        self.metrics.set_exec(self.exec.stats());
    }

    /// Degradation trigger: call after any path that can resolve a flush
    /// barrier. Feeds the consecutive-failure count to the
    /// [`Durability`] machine; on `Normal → Degraded` records the entry
    /// and arms the first retry.
    fn check_durability(&mut self, out: &mut Vec<Output>) {
        let failures = self.exec.perf().consecutive_flush_failures;
        let step = self
            .durability
            .on(DurabilityEvent::BarrierResolved(failures));
        if let DurabilityStep::Degraded(retry_in) = step {
            self.metrics.degraded = true;
            self.metrics.degraded_entries += 1;
            self.metrics.trace.note_event("mode_degraded");
            out.push(Output::Arm(retry_in, Timer::Retry));
        }
    }

    /// One retry-timer expiry: if the machine asks for a repair,
    /// re-attempt the durable path (rewrite every segment from the
    /// in-memory mirror) and, when that succeeds, drain the staged
    /// backlog through a real barrier — it was
    /// confirmed in dense order all along, so the resulting roots are
    /// byte-identical to a never-degraded run. The machine then either
    /// recovers or re-arms the timer with doubled (capped) backoff.
    fn retry_degraded(&mut self, out: &mut Vec<Output>) {
        if self.durability.on(DurabilityEvent::RetryTimer) != DurabilityStep::AttemptRepair {
            return;
        }
        self.metrics.degraded_retries += 1;
        let repaired = self.exec.retry_durability();
        if repaired {
            self.exec.submit_staged();
        }
        self.refresh_exec_stats();
        let failures = self.metrics.exec.perf.consecutive_flush_failures;
        match self
            .durability
            .on(DurabilityEvent::RepairAttempted { repaired, failures })
        {
            DurabilityStep::Recovered => {
                self.metrics.degraded = false;
                self.metrics.trace.note_event("mode_normal");
            }
            DurabilityStep::RetryIn(delay) => out.push(Output::Arm(delay, Timer::Retry)),
            step => unreachable!("a repair attempt while degraded cannot yield {step:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Proposing
    // ------------------------------------------------------------------

    fn try_propose_all(&mut self, out: &mut Vec<Output>) {
        for i in 0..self.slots.len() {
            self.try_propose(i, out);
        }
    }

    /// Proposes on instance `i` when this replica leads it and may. A
    /// real batch waits for a [`Timer::Pace`] tick (`want_propose` holds
    /// a tick that found the instance not ready), so batches stay on the
    /// instance's grid. An epoch-flush dummy (HotStuff's three after
    /// `maxRank`) carries nothing to pace: it goes out as soon as the
    /// leader holds its parent's QC, so the flush takes three quorum
    /// round trips, not three intervals. A straggler paces every
    /// proposal, dummies included: its slowness is the straggler model.
    fn try_propose(&mut self, i: usize, out: &mut Vec<Output>) {
        // Phase 1 (immutable): readiness and batch characteristics.
        let is_dummy = self.slots[i].next_is_dummy();
        let eager = is_dummy && !self.is_straggler();
        if !(self.want_propose[i] || eager) || !self.slots[i].can_propose() {
            return;
        }
        let m = self.cfg.sys.m;
        let batch_size = self.cfg.sys.batch_size;

        // Phase 2: cut the batch from the appropriate source.
        let batch = if i == m {
            // DQBFT ordering instance, led by this replica in its
            // current view (`can_propose`): propose the refs it holds.
            let Orderer::Dqbft(o) = &mut self.orderer else {
                unreachable!("instance m exists only under DQBFT");
            };
            let refs = o.cut_refs(256);
            if refs.is_empty() {
                return;
            }
            Batch::of_refs(refs)
        } else if self.is_straggler() || is_dummy {
            // Honest stragglers propose empty batches (§6.1); HotStuff
            // epoch-flush dummies are empty by definition.
            Batch::empty(0)
        } else {
            let epoch = self.epoch();
            let bucket = self.buckets.bucket_served_by(InstanceId(i as u32), epoch);
            self.mempool.cut_batch(bucket, batch_size)
        };

        // Phase 3 (mutable): propose and plumb the actions.
        self.want_propose[i] = false;
        self.feed(i, instance::Input::Propose(batch), out);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn on_node_msg(&mut self, from: ReplicaId, msg: NodeMsg, out: &mut Vec<Output>) {
        match msg {
            NodeMsg::Pbft { instance, .. } | NodeMsg::Hs { instance, .. } => {
                // Consensus traffic: the instance decides whether the
                // message is of its protocol's kind.
                let i = instance.as_usize();
                if i < self.slots.len() {
                    self.feed(i, instance::Input::Message(from, msg), out);
                    self.try_propose(i, out);
                }
            }
            NodeMsg::Checkpoint(cp) => self.pace(EpochInput::Vote(from, &cp), out),
            NodeMsg::SyncReq(req) => self.on_sync_request(from, req, out),
            // Sent to us alone: the unwrap moves, it does not copy.
            NodeMsg::SyncResp(resp) => self.on_sync_response(from, Arc::unwrap_or_clone(resp), out),
            NodeMsg::ClientTxs(group) => self.on_client_txs(group, out),
        }
    }

    /// Acts on what the pacemaker reported: on an advance to `next`,
    /// raises the orderer's ceiling to its `maxRank` and confirms what
    /// that releases, then installs the epoch in every instance (the
    /// buckets rotate with the epoch). The released blocks may already
    /// complete the new epoch (after a fast-forward, say), so the close
    /// test runs again.
    fn enter_epoch(&mut self, next: Option<Epoch>, out: &mut Vec<Output>) {
        let Some(epoch) = next else {
            return;
        };
        let (min, max) = self.cfg.sys.rank_range(epoch);
        self.metrics.epochs.push((self.now, epoch.0));
        // Before the instances step: a block they commit now belongs to
        // the new epoch and must not wait behind the old boundary.
        if let Orderer::Ladon(o) = &mut self.orderer {
            let released = o.set_ceiling(max);
            self.record_confirms(released, self.now);
        }
        for i in 0..self.cfg.sys.m {
            self.feed(i, instance::Input::AdvanceEpoch(min, max), out);
        }
        self.close_epoch_if_ordered(out);
        self.check_durability(out);
        self.try_propose_all(out);
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
        let mut lagging = self.pacemaker.lag_evidence();
        for (i, inst) in self.slots.iter().enumerate() {
            if let Some(lag) = inst.lag_evidence() {
                lagging |= lag.future_epoch_backlog;
                lagging |= self.sync.gap_persists(i, lag.commit_gap);
            }
        }
        lagging
    }

    /// Per-instance committed-round frontier (`frontier[i]` is instance
    /// `i`'s highest contiguously committed round), one per hosted
    /// instance: DQBFT's ordering instance is the last.
    pub fn commit_frontier(&self) -> Vec<Round> {
        self.slots.iter().map(Instance::committed_upto).collect()
    }

    /// Builds the state-transfer request this replica would send right
    /// now. Pure with respect to the network (the sync fault tests drive
    /// the request/response exchange directly).
    pub fn build_sync_request(&self) -> SyncRequest {
        SyncRequest {
            epoch: Epoch(self.epoch()),
            applied: self.exec.applied(),
            frontier: self.commit_frontier(),
        }
    }

    /// Sends one state-transfer request to the next peer in round-robin
    /// order that is not quarantined (see [`StateTransfer`] for how
    /// refused responses move a peer out of the rotation, and why that
    /// never costs liveness). Called once per sync timer period.
    fn send_sync_request(&mut self, out: &mut Vec<Output>) {
        let req = self.build_sync_request();
        let target = self.sync.pick_target();
        self.metrics.sync_requests += 1;
        out.push(Output::Send(target, NodeMsg::SyncReq(req)));
    }

    /// Serves a peer's state-transfer request from our committed log.
    fn on_sync_request(&mut self, from: ReplicaId, req: SyncRequest, out: &mut Vec<Output>) {
        if let Some(resp) = self.build_sync_response(&req) {
            if let Some(snap) = &resp.snapshot {
                self.metrics.snapshots_served += 1;
                self.metrics.snapshot_bytes_served += snap.run_size();
            }
            let msg = NodeMsg::SyncResp(Arc::new(resp));
            out.push(Output::Send(from.as_usize(), msg));
        }
    }

    /// Builds the response this replica would serve for `req`, or `None`
    /// when it has nothing useful. Pure with respect to the network (the
    /// sync tests drive it directly). Three parts: the snapshot with its
    /// proving checkpoint (`serve_snapshot`), otherwise an epoch proof
    /// alone ([`EpochPacemaker::proof_for`]), and log entries
    /// (`serve_entries`) either way.
    pub fn build_sync_response(&self, req: &SyncRequest) -> Option<SyncResponse> {
        if req.frontier.len() != self.slots.len() {
            return None;
        }
        // A served snapshot's checkpoint doubles as the epoch proof.
        let mut resp = self.serve_snapshot(req).unwrap_or_else(|| SyncResponse {
            checkpoint: self.pacemaker.proof_for(req.epoch),
            ..SyncResponse::default()
        });
        resp.entries = self.serve_entries(req);
        (!resp.entries.is_empty() || resp.checkpoint.is_some()).then_some(resp)
    }

    /// Log entries past the requester's frontier, each with its QC: an
    /// equal share of [`SYNC_MAX_BLOCKS`] per hosted instance (at least
    /// one, and never more than the cap in all), so no instance's backlog
    /// crowds out another's — DQBFT's ordering instance, which comes last,
    /// included.
    fn serve_entries(&self, req: &SyncRequest) -> Vec<CertifiedBlock> {
        let share = (SYNC_MAX_BLOCKS / self.slots.len()).max(1);
        let frontiers = self.slots.iter().zip(&req.frontier);
        frontiers
            .flat_map(|(inst, &from)| inst.committed_entries_from(from, share))
            .take(SYNC_MAX_BLOCKS)
            .collect()
    }

    /// Execution fast-forward: when our latest snapshot is at least
    /// `sys.snapshot_min_lag()` blocks ahead of the requester's applied
    /// frontier ([`snapshot_worthwhile`] — a barely-behind
    /// replica gets log sync alone) AND we can prove its root with the
    /// matching stable checkpoint, that checkpoint and the snapshot. The
    /// snapshot is held in its shipped form, so serving clones it and
    /// encodes nothing.
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
            .stable_checkpoint(Epoch(snap.head.epoch))
            .filter(|cp| cp.state_root == snap.head.root)?;
        Some(SyncResponse {
            checkpoint: Some(cp),
            snapshot: Some(snap.clone()),
            entries: Vec::new(),
        })
    }

    /// Verifies and installs a peer's sync response — snapshot, then
    /// checkpoint, then entries — and scores `from`'s responder health
    /// from the three steps' combined outcome
    /// ([`StateTransfer::score_response`]). A responder serves at most
    /// [`SYNC_MAX_BLOCKS`] entries, so a response past that cap is
    /// refused before anything in it is verified.
    fn on_sync_response(&mut self, from: ReplicaId, resp: SyncResponse, out: &mut Vec<Output>) {
        let outcome = if resp.entries.len() > SYNC_MAX_BLOCKS {
            ResponseOutcome {
                refused: true,
                ..ResponseOutcome::default()
            }
        } else {
            self.install_response(resp, out)
        };
        if let Some(newly_quarantined) = self.sync.score_response(from.as_usize(), outcome) {
            self.metrics.sync_responses_refused += u64::from(outcome.refused);
            if newly_quarantined {
                self.metrics.sync_responders_quarantined += 1;
                self.metrics.trace.note_event("responder_quarantined");
            }
        }
    }

    /// Installs what `resp` proves, in order, and reports the outcome.
    fn install_response(&mut self, resp: SyncResponse, out: &mut Vec<Output>) -> ResponseOutcome {
        let mut outcome = self.install_snapshot(resp.snapshot, resp.checkpoint.as_ref());
        if let Some(sc) = &resp.checkpoint {
            // `useful` so far means exactly "the snapshot installed".
            self.pace(EpochInput::Fetched(sc, outcome.useful), out);
            outcome.useful = true;
        }
        outcome.useful |= self.install_entries(resp.entries, out);
        outcome
    }

    /// Snapshot fast-forward: only with a verified stable checkpoint
    /// whose quorum-signed root matches the snapshot head's manifest
    /// root, and a head that records one round per instance and is ahead
    /// of `applied`. [`ladon_state::ExecutionPipeline::install`] then
    /// verifies the snapshot once — the manifest root over the head, then
    /// the run's canonical form and its root — and installs it
    /// whole or keeps nothing of it. A snapshot that fails any of these
    /// is refused; one that verifies but is not installed is not.
    /// `useful` in the returned outcome means the snapshot installed;
    /// the pacemaker's jump past it is [`EpochInput::Fetched`]'s.
    fn install_snapshot(
        &mut self,
        snap: Option<Snapshot>,
        cp: Option<&StableCheckpoint>,
    ) -> ResponseOutcome {
        let Some(snap) = snap else {
            return ResponseOutcome::default();
        };
        let head = &snap.head;
        let proven = cp.is_some_and(|cp| {
            cp.epoch.0 == head.epoch
                && cp.state_root == head.root
                && head.frontier.len() == self.cfg.sys.m
                && head.applied > self.exec.applied()
                && cp.verify(&self.cfg.registry, self.cfg.sys.quorum())
        });
        if !proven {
            return ResponseOutcome {
                refused: true,
                ..ResponseOutcome::default()
            };
        }
        // Every block the orderer confirmed already has its
        // ConfirmRecord (the install flushes the staged ones first): the
        // prefix this replica never recorded starts at its own confirm
        // frontier, not at `applied` — nor at the pipeline's staging
        // frontier, which a pipeline recovered from disk starts above an
        // empty log.
        let recorded_upto = self.orderer.confirmed_count();
        let installed = self.exec.install(snap);
        if installed == InstallOutcome::Installed {
            self.after_snapshot_install(recorded_upto);
        }
        ResponseOutcome {
            refused: installed == InstallOutcome::Unverified,
            useful: installed == InstallOutcome::Installed,
        }
    }

    /// Feeds fetched log entries through their instances (which verify
    /// each QC). Returns whether any of them installed.
    fn install_entries(&mut self, entries: Vec<CertifiedBlock>, out: &mut Vec<Output>) -> bool {
        let mut installed = false;
        for e in entries {
            let i = e.block.index().as_usize();
            if i >= self.slots.len() {
                continue;
            }
            let input = instance::Input::Install(e);
            let mut actions = self.slots[i]
                .step(input, self.now, &mut self.cur_rank)
                .peekable();
            if actions.peek().is_some() {
                self.metrics.sync_installed += 1;
                installed = true;
            }
            self.handle_actions(i, actions, out);
            self.watch(i, out);
        }
        installed
    }

    /// Bookkeeping once a peer snapshot is installed (the pipeline's
    /// latest snapshot now), and the consensus layers' jump past the
    /// snapshotted prefix.
    fn after_snapshot_install(&mut self, recorded_upto: u64) {
        self.metrics.snapshot_installs += 1;
        // Installing drained staged blocks and compacted the WAL behind
        // the snapshot.
        self.refresh_exec_stats();
        let snap = &(self.exec.latest_snapshot())
            .expect("an installed snapshot is the pipeline's latest")
            .head;
        // The fast-forwarded prefix never gets ConfirmRecords here:
        // surface the gap instead of leaving it implicit in a shorter log.
        self.metrics.skipped_sns += snap.applied.saturating_sub(recorded_upto);
        // The prefix was never traced here either — jump the
        // checkpoint-trace frontier so the next epoch sweep does not
        // stamp blocks this replica never processed.
        self.ckpt_traced_upto = self.ckpt_traced_upto.max(self.exec.applied());
        // Each instance's commit frontier jumps to the snapshot's
        // recorded rounds (peers then serve only the tail), and the
        // orderer's intake tips jump with it so confirmation resumes at
        // the snapshot's sn. The frontier is covered by the
        // quorum-signed manifest root, so the rounds are as trustworthy
        // as the state itself.
        let max_rank = self.cfg.sys.rank_range(Epoch(snap.epoch)).1;
        for (inst, &round) in self.slots.iter_mut().zip(&snap.frontier) {
            inst.fast_forward(Round(round), max_rank);
        }
        if let Orderer::Ladon(o) = &mut self.orderer {
            o.fast_forward(&snap.frontier, max_rank, snap.applied);
        }
    }

    /// Step ① relay semantics: deposit if we lead the bucket's instance,
    /// otherwise forward once toward the leader we believe is current. A
    /// group for a bucket that does not exist is refused and counted.
    fn on_client_txs(&mut self, group: ClientTxs, out: &mut Vec<Output>) {
        if group.bucket as usize >= self.cfg.sys.m {
            self.metrics.refused_client_groups += 1;
            return;
        }
        let instance = self.buckets.instance_of(group.bucket, self.epoch());
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
                },
            );
        } else {
            let mut fwd = group;
            fwd.forwarded = true;
            out.push(Output::Send(leader.as_usize(), NodeMsg::ClientTxs(fwd)));
        }
    }

    // ------------------------------------------------------------------
    // The entry point
    // ------------------------------------------------------------------

    /// The replica's one entry point: handles `input` at `now` and
    /// appends what it asks of its driver to `out`, in order. A crashed
    /// replica takes no further input.
    pub fn step(&mut self, now: TimeNs, input: Input, out: &mut Vec<Output>) {
        self.now = now;
        match input {
            _ if self.crashed => {}
            Input::Start => self.start(out),
            // Actor id == replica id for replicas. Anything else (the
            // client fleet's actors have ids >= n) is not a replica and
            // may only submit transactions: consensus, checkpoint and
            // state-transfer messages are replica-to-replica and are
            // dropped at this door, so no handler ever sees a sender it
            // cannot attribute.
            Input::Message(from, msg) if from < self.cfg.sys.n => {
                self.on_node_msg(ReplicaId(from as u32), msg, out)
            }
            // Only a replica relays: a client's group claims no hop, so
            // it cannot be deposited where its bucket is not served.
            Input::Message(_, NodeMsg::ClientTxs(mut group)) => {
                group.forwarded = false;
                self.on_client_txs(group, out)
            }
            Input::Message(..) => {}
            Input::Timer(timer) => self.fire(timer, out),
        }
    }

    fn start(&mut self, out: &mut Vec<Output>) {
        // Pace the instances this replica leads. No liveness deadline
        // yet: the first commit starts them.
        for i in 0..self.slots.len() {
            self.watch(i, out);
        }
        if let Some(at) = self.cfg.behavior.crash_at {
            out.push(Output::Arm(at, Timer::Crash));
        }
        // State-transfer probe (§5.2.1): it repairs a round whose vote
        // phases this replica missed, on every hosted instance.
        out.push(Output::Arm(SYNC_PERIOD, Timer::Sync));
        if let Some(every) = self.cfg.sample_interval {
            out.push(Output::Arm(every, Timer::Sample));
        }
    }

    fn fire(&mut self, timer: Timer, out: &mut Vec<Output>) {
        match timer {
            // A tick on an instance this replica no longer leads lapses;
            // `watch` re-arms it when leadership returns.
            Timer::Pace(i) if i < self.slots.len() => {
                self.pacing[i] = false;
                if self.slots[i].is_leader() {
                    self.watch(i, out);
                    self.want_propose[i] = true;
                    self.try_propose(i, out);
                }
            }
            Timer::Liveness(i) if i < self.slots.len() => {
                self.liveness_armed[i] = false;
                let timeout = self.cfg.sys.view_change_timeout;
                match self.slots[i].liveness_since() {
                    Some(since) if since + timeout > self.now => self.watch(i, out),
                    Some(_) => self.feed(i, instance::Input::Timeout, out),
                    None => {}
                }
            }
            Timer::Crash => {
                self.crashed = true;
                out.push(Output::Crash);
            }
            Timer::Sample => {
                self.metrics
                    .samples
                    .push((self.now, self.metrics.confirmed_txs));
                if let Some(every) = self.cfg.sample_interval {
                    out.push(Output::Arm(every, Timer::Sample));
                }
            }
            Timer::Sync => {
                if self.sync_lagging() {
                    self.send_sync_request(out);
                }
                out.push(Output::Arm(SYNC_PERIOD, Timer::Sync));
            }
            Timer::Retry => self.retry_degraded(out),
            // A timer for an instance this node does not host.
            Timer::Pace(_) | Timer::Liveness(_) => {}
        }
    }
}

/// The one driver of a replica under `ladon-sim`'s engine and live
/// runtime: each event is one [`MultiBftNode::step`] at the context's
/// clock, its outputs performed in order.
impl Actor<NodeMsg> for MultiBftNode {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        self.drive(Input::Start, ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        self.drive(Input::Message(from, msg), ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<NodeMsg>) {
        // An id no `Timer::encode` produced is not this node's.
        if let Some(timer) = Timer::decode(timer) {
            self.drive(Input::Timer(timer), ctx);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl MultiBftNode {
    /// The [`Actor`] impl's one step: one clock read, then the outputs
    /// performed through `ctx` in the order they were produced, through
    /// a buffer kept across events.
    fn drive(&mut self, input: Input, ctx: &mut dyn Context<NodeMsg>) {
        let mut outputs = std::mem::take(&mut self.outputs);
        self.step(ctx.now(), input, &mut outputs);
        for output in outputs.drain(..) {
            match output {
                Output::Send(to, msg) => ctx.send(to, msg),
                Output::Broadcast(msg) => ctx.multicast(&self.peers, msg),
                Output::Arm(delay, timer) => ctx.set_timer(delay, timer.encode()),
                Output::Crash => ctx.crash(ctx.self_id()),
            }
        }
        self.outputs = outputs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::CheckpointMsg;

    #[test]
    fn node_construction_per_protocol() {
        let sys = SystemConfig::paper_default(4, ladon_types::NetEnv::Lan);
        let registry = KeyRegistry::generate(4, sys.opt_keys, 1);
        for proto in [
            ProtocolKind::LadonPbft,
            ProtocolKind::LadonOptPbft,
            ProtocolKind::IssPbft,
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

    /// Steps `n` once at time zero and returns what it asked for.
    fn step(n: &mut MultiBftNode, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        n.step(TimeNs::ZERO, input, &mut out);
        out
    }

    /// Replica 0's first proposal on instance 0 (which it leads in view
    /// 0), exactly as it would go on the wire.
    fn first_proposal(protocol: ProtocolKind) -> NodeMsg {
        let mut leader = node(protocol, 0);
        step(&mut leader, Input::Timer(Timer::Pace(0)))
            .into_iter()
            .find_map(|o| match o {
                Output::Broadcast(m @ (NodeMsg::Pbft { .. } | NodeMsg::Hs { .. })) => Some(m),
                _ => None,
            })
            .expect("the paced leader proposes")
    }

    /// Delivers `msg` from actor `from` to a fresh replica 1 running
    /// `host` and reports whether anything observable happened: the
    /// commit frontier, epoch or applied frontier moved, or the replica
    /// asked for anything.
    fn delivery_has_effect(host: ProtocolKind, from: ActorId, msg: NodeMsg) -> bool {
        let mut n = node(host, 1);
        let state = |n: &MultiBftNode| (n.commit_frontier(), n.epoch(), n.exec.applied());
        let before = state(&n);
        let out = step(&mut n, Input::Message(from, msg));
        state(&n) != before || !out.is_empty()
    }

    /// Replicas stepped by hand at one shared clock: every message they
    /// send is delivered, in the order sent, and every timer they arm is
    /// kept (none fires on its own).
    struct Cluster {
        nodes: Vec<MultiBftNode>,
        now: TimeNs,
        armed: Vec<Vec<Timer>>,
    }

    impl Cluster {
        fn new(protocol: ProtocolKind) -> Self {
            Self {
                nodes: (0..N as u32).map(|r| node(protocol, r)).collect(),
                now: TimeNs::ZERO,
                armed: vec![Vec::new(); N],
            }
        }

        /// Steps replica `r` with `input`, then delivers until nothing
        /// is in flight.
        fn run(&mut self, r: usize, input: Input) {
            let mut inbox = std::collections::VecDeque::from([(r, input)]);
            while let Some((to, input)) = inbox.pop_front() {
                let mut out = Vec::new();
                self.nodes[to].step(self.now, input, &mut out);
                for o in out {
                    match o {
                        Output::Send(dst, msg) => inbox.push_back((dst, Input::Message(to, msg))),
                        Output::Broadcast(msg) => inbox.extend(
                            (0..N)
                                .filter(|&dst| dst != to)
                                .map(|dst| (dst, Input::Message(to, msg.clone()))),
                        ),
                        Output::Arm(_, timer) => self.armed[to].push(timer),
                        Output::Crash => unreachable!("nothing here crashes"),
                    }
                }
            }
        }
    }

    #[test]
    fn a_replica_paces_where_it_leads_and_keeps_one_liveness_timer_per_instance() {
        let mut c = Cluster::new(ProtocolKind::LadonPbft);
        let instance_timers = |t: &&Timer| matches!(t, Timer::Pace(_) | Timer::Liveness(_));
        for r in 0..N {
            c.run(r, Input::Start);
            // Replica r leads instance r alone in view 0, and waits on
            // nothing before its first commit.
            let armed: Vec<_> = c.armed[r].iter().filter(instance_timers).collect();
            assert_eq!(armed, [&Timer::Pace(r)]);
        }
        // Instance 0's leader proposes three rounds; each commits everywhere.
        let interval = c.nodes[0].pace_interval();
        for round in 1..=3 {
            c.now += interval;
            c.run(0, Input::Timer(Timer::Pace(0)));
            for n in &c.nodes {
                assert_eq!(n.commit_frontier()[0], Round(round));
            }
        }
        // Three commits moved instance 0's deadline three times; one
        // liveness timer serves them all.
        for (r, armed) in c.armed.iter().enumerate() {
            let pending = armed.iter().filter(|t| **t == Timer::Liveness(0));
            assert_eq!(pending.count(), 1, "replica {r}");
        }
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
    /// view past `ladon_hotstuff::MAX_VIEW`, which would leave its
    /// timeout no room for the next view: the instance door counts a
    /// rejection and nothing else happens — no view adopted, no vote, no
    /// deadline, no timer.
    #[test]
    fn hotstuff_proposal_in_an_unrepresentable_view_is_rejected() {
        use ladon_crypto::qc::prepare_bytes;
        use ladon_hotstuff::msg::DOMAIN_GENERIC;
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
            &prepare_bytes(view, g.node.height, &g.node.digest, instance, g.node.rank),
        );
        let msg = NodeMsg::Hs {
            instance,
            msg: HsMsg::Generic(Arc::new(g)),
        };

        let mut n = node(ProtocolKind::LadonHotStuff, 1);
        let out = step(&mut n, Input::Message(byz.as_usize(), msg));
        assert_eq!(n.slots[0].rejected(), 1);
        assert_eq!(n.slots[0].leader(), ReplicaId(0), "the view must not move");
        assert!(out.is_empty());
    }

    /// A first-round pre-prepare on `instance` from its view-0 leader,
    /// citing `cert` as the leader's rank certificate.
    fn preprepare_citing(instance: u32, cert: &Arc<ladon_crypto::QuorumCert>) -> NodeMsg {
        use ladon_pbft::msg::{PrePrepare, RankProof, DOMAIN_PREPREPARE};
        let leader = node(ProtocolKind::LadonPbft, instance)
            .cfg
            .registry
            .signer(ReplicaId(instance));
        let instance = InstanceId(instance);
        let batch = Batch::empty(0);
        let header = ladon_types::BlockHeader {
            index: instance,
            round: Round(1),
            rank: cert.rank.next(),
            payload_digest: ladon_crypto::digest_batch(&batch),
        };
        let mut pp = PrePrepare {
            view: ladon_types::View(0),
            block: Block {
                header,
                batch,
                proposed_at: TimeNs::ZERO,
            },
            rank_proof: RankProof::FirstRound(RankCert::certified(cert.clone())),
            sig: ladon_crypto::Signature::sign(&leader, DOMAIN_PREPREPARE, b""),
        };
        pp.sig = ladon_crypto::Signature::sign(&leader, DOMAIN_PREPREPARE, &pp.signing_bytes());
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
            let refused_before = n.slots[i as usize].rejected();
            let before = CryptoCounters::snapshot();
            step(n, Input::Message(i as usize, preprepare_citing(i, cert)));
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
        three.enter_epoch(Some(Epoch(1)), &mut Vec::new());
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
        let group = ClientTxs {
            bucket: 0,
            first_tx: ladon_types::TxId(0),
            count: 5,
            payload_bytes: 2500,
            arrival_sum_ns: 0,
            forwarded: true,
        };
        step(&mut n, Input::Message(N, NodeMsg::ClientTxs(group)));
        assert_eq!(n.metrics.deposited_txs, 5);
    }

    /// A client's group marked as relayed, sent to a replica that does not
    /// lead its bucket's instance, is relayed to the leader, not deposited
    /// where no proposal would take it.
    #[test]
    fn a_client_cannot_mark_its_group_as_relayed() {
        let mut n = node(ProtocolKind::LadonPbft, 1);
        let group = ClientTxs {
            bucket: 0,
            first_tx: ladon_types::TxId(0),
            count: 5,
            payload_bytes: 2500,
            arrival_sum_ns: 0,
            forwarded: true,
        };
        let out = step(&mut n, Input::Message(N, NodeMsg::ClientTxs(group)));
        assert_eq!(n.metrics.deposited_txs, 0);
        assert!(
            matches!(&out[..], [Output::Send(0, NodeMsg::ClientTxs(g))] if *g == group),
            "{out:?}"
        );
    }

    /// A group naming bucket `m` or beyond — from the client fleet or
    /// from a replica, relayed or not — is refused at the door and
    /// counted: nothing indexes the mempool with it.
    #[test]
    fn a_client_group_for_a_bucket_that_does_not_exist_is_refused() {
        let mut n = node(ProtocolKind::LadonPbft, 0);
        let mut refused = 0;
        for bucket in [N as u32, u32::MAX] {
            for forwarded in [true, false] {
                for from in [N, 1] {
                    let group = ClientTxs {
                        bucket,
                        first_tx: ladon_types::TxId(0),
                        count: 5,
                        payload_bytes: 2500,
                        arrival_sum_ns: 0,
                        forwarded,
                    };
                    let out = step(&mut n, Input::Message(from, NodeMsg::ClientTxs(group)));
                    assert!(out.is_empty());
                    refused += 1;
                }
            }
        }
        assert_eq!(n.metrics.refused_client_groups, refused);
        assert_eq!(n.metrics.deposited_txs, 0);
    }

    /// A sync request from a requester in `epoch` whose frontier is
    /// `round` on every instance.
    fn sync_request(epoch: u64, round: u64) -> SyncRequest {
        SyncRequest {
            epoch: Epoch(epoch),
            applied: 0,
            frontier: vec![Round(round); N],
        }
    }

    /// A requester claiming the last representable epoch gets no epoch
    /// proof, and the responder does not step past that epoch to decide.
    #[test]
    fn a_sync_request_in_the_last_epoch_is_answered_without_overflow() {
        let n = node(ProtocolKind::LadonPbft, 0);
        assert!(n.build_sync_response(&sync_request(u64::MAX, 0)).is_none());
    }

    /// A frontier at the last representable round has no entries after
    /// it; serving them does not step past it.
    #[test]
    fn a_sync_frontier_at_the_last_round_is_served_without_overflow() {
        let n = node(ProtocolKind::LadonPbft, 0);
        assert!(n.build_sync_response(&sync_request(0, u64::MAX)).is_none());
    }

    /// A lagging requester asks every peer that is not quarantined in
    /// turn, whether or not it answered the last time: peers 1 and 2
    /// never answer (a responder with nothing newer sends nothing), and
    /// peer 3 answers every request with a response that helps nothing.
    #[test]
    fn a_lagging_requester_asks_every_peer_in_turn_whether_or_not_it_answers() {
        let mut n = node(ProtocolKind::LadonPbft, 0);
        // A checkpoint quorum for an epoch this replica has not closed is
        // lag evidence at every probe.
        for r in 1..N as u32 {
            let signer = n.cfg.registry.signer(ReplicaId(r));
            let cp = CheckpointMsg::sign(&signer, Epoch(0), ladon_types::Digest::NIL);
            step(&mut n, Input::Message(r as usize, NodeMsg::Checkpoint(cp)));
        }
        let mut targets = Vec::new();
        for _ in 0..9 {
            let out = step(&mut n, Input::Timer(Timer::Sync));
            let mut sent = out.into_iter().filter_map(|o| match o {
                Output::Send(to, NodeMsg::SyncReq(_)) => Some(to),
                _ => None,
            });
            let to = sent.next().expect("a lagging replica probes every period");
            assert_eq!(sent.next(), None, "one probe per period");
            if to == 3 {
                let resp = Arc::new(SyncResponse::default());
                step(&mut n, Input::Message(3, NodeMsg::SyncResp(resp)));
            }
            targets.push(to);
        }
        assert_eq!(targets, [1, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert_eq!(n.metrics.sync_requests, 9);
        assert!(n.responder_health().iter().all(|h| !h.quarantined));
    }

    /// DQBFT's ordering instance (index `m`) is synced like the data
    /// instances: requests carry its frontier, a peer serves its
    /// committed rounds, and a replica that missed them confirms the
    /// blocks they sequence once it installs them. The ordering instance
    /// comes last, so it gets its share of a response even when every
    /// data instance lags by more than a whole response could carry.
    #[test]
    fn state_transfer_repairs_the_dqbft_ordering_instance() {
        let mut c = Cluster::new(ProtocolKind::DqbftPbft);
        for r in 0..N {
            c.run(r, Input::Start);
        }
        // Instance 0 commits round 1; replica 0, which leads the
        // ordering instance in view 0, sequences it in ordering round 1.
        c.run(0, Input::Timer(Timer::Pace(0)));
        c.run(0, Input::Timer(Timer::Pace(N)));
        assert_eq!(c.nodes[1].commit_frontier()[N], Round(1));
        assert_eq!(c.nodes[1].confirmed_count(), 1);
        // Then each data instance commits more rounds than a response
        // serves spread over the data instances alone.
        let deep = (SYNC_MAX_BLOCKS / N + 1) as u64;
        for i in 0..N {
            for _ in 0..deep {
                c.run(i, Input::Timer(Timer::Pace(i)));
            }
        }
        let frontier = c.nodes[1].commit_frontier();
        assert!(frontier[..N].iter().all(|r| r.0 >= deep), "{frontier:?}");
        assert_eq!(frontier[N], Round(1));

        let mut behind = node(ProtocolKind::DqbftPbft, 3);
        let req = behind.build_sync_request();
        assert_eq!(req.frontier.len(), N + 1);
        let resp = c.nodes[1].build_sync_response(&req).expect("entries");
        assert!(resp.entries.len() <= SYNC_MAX_BLOCKS);
        let ordering = resp
            .entries
            .iter()
            .filter(|e| e.block.index().as_usize() == N);
        assert_eq!(ordering.count(), 1);
        step(
            &mut behind,
            Input::Message(1, NodeMsg::SyncResp(Arc::new(resp))),
        );
        assert_eq!(behind.commit_frontier()[N], Round(1));
        assert_eq!(behind.confirmed_count(), 1);

        // A request that leaves the ordering instance out is refused.
        assert!(c.nodes[1]
            .build_sync_response(&sync_request(0, 0))
            .is_none());
    }
}
