//! In-process cluster driver for instance-level tests.
//!
//! Runs one logical consensus instance across `n` replica state machines
//! with an in-memory message queue — no engine, no network model, no
//! timers. Used by this crate's unit tests and by `ladon-core`'s
//! integration tests to exercise rank rules and view changes directly.

use crate::instance::{Action, InstanceConfig, PbftInstance, RankMode, RankStrategy};
use crate::msg::PbftMsg;
use ladon_crypto::{KeyRegistry, RankCert};
use ladon_types::{Batch, Block, InstanceId, Rank, ReplicaId, Round, TimeNs, TxId, View};
use std::collections::VecDeque;

/// A synthetic batch with `count` transactions starting at `first`.
pub fn test_batch(first: u64, count: u32) -> Batch {
    Batch {
        first_tx: TxId(first),
        count,
        payload_bytes: count as u64 * 500,
        arrival_sum_ns: 0,
        earliest_arrival: TimeNs::ZERO,
        bucket: 0,
        refs: Vec::new(),
    }
}

/// One consensus instance replicated over `n` state machines.
pub struct Cluster {
    /// The shared verification oracle.
    pub registry: KeyRegistry,
    /// Per-replica state machines for the same instance index.
    pub nodes: Vec<PbftInstance>,
    /// Per-replica `curRank` state (normally owned by the Multi-BFT node).
    pub cur_ranks: Vec<RankCert>,
    /// Blocks committed per replica, in commit order.
    pub committed: Vec<Vec<Block>>,
    /// Timer requests emitted per replica (round timers only).
    pub round_timers: Vec<Vec<(Round, View)>>,
    /// Pending deliveries: `(to, from, msg)`.
    pub queue: VecDeque<(ReplicaId, ReplicaId, PbftMsg)>,
    /// Replicas whose outbound messages are discarded (crashed).
    pub crashed: Vec<bool>,
    /// Logical clock handed to handlers.
    pub now: TimeNs,
    n: usize,
}

impl Cluster {
    /// Builds a cluster of `n` replicas running instance 0 in `mode`, with
    /// the epoch-0 rank range `[0, epoch_max]`.
    pub fn new(n: usize, mode: RankMode, epoch_max: u64) -> Self {
        Self::with_strategy(n, mode, epoch_max, |_| RankStrategy::Honest)
    }

    /// Like [`Cluster::new`] but with a per-replica rank strategy
    /// (Byzantine rank minimizers for Appendix B tests).
    pub fn with_strategy(
        n: usize,
        mode: RankMode,
        epoch_max: u64,
        strategy: impl Fn(usize) -> RankStrategy,
    ) -> Self {
        let registry = KeyRegistry::generate(n, 16, 0xabcd);
        let nodes = (0..n)
            .map(|r| {
                PbftInstance::new(
                    InstanceConfig {
                        instance: InstanceId(0),
                        me: ReplicaId(r as u32),
                        n,
                        registry: registry.clone(),
                        signer: registry.signer(ReplicaId(r as u32)),
                        mode,
                        strategy: strategy(r),
                    },
                    Rank(0),
                    Rank(epoch_max),
                )
            })
            .collect();
        Self {
            registry,
            nodes,
            cur_ranks: vec![RankCert::genesis(Rank(0)); n],
            committed: vec![Vec::new(); n],
            round_timers: vec![Vec::new(); n],
            queue: VecDeque::new(),
            crashed: vec![false; n],
            now: TimeNs::ZERO,
            n,
        }
    }

    /// A brand-new instance state for replica `r` (same registry, mode
    /// and epoch range as node 0) — models a replica that lost its state
    /// and recovers via state transfer.
    pub fn fresh_instance(&self, r: usize) -> PbftInstance {
        let (emin, emax) = self.nodes[0].epoch_range();
        PbftInstance::new(
            InstanceConfig {
                instance: InstanceId(0),
                me: ReplicaId(r as u32),
                n: self.n,
                registry: self.registry.clone(),
                signer: self.registry.signer(ReplicaId(r as u32)),
                mode: self.nodes[0].mode(),
                strategy: RankStrategy::Honest,
            },
            emin,
            emax,
        )
    }

    /// Queues the side effects of `actions` produced by replica `who`.
    pub fn absorb(&mut self, who: usize, actions: Vec<Action>) {
        if self.crashed[who] {
            return;
        }
        for a in actions {
            match a {
                Action::Broadcast(msg) => {
                    for to in 0..self.n {
                        if to != who {
                            self.queue.push_back((
                                ReplicaId(to as u32),
                                ReplicaId(who as u32),
                                msg.clone(),
                            ));
                        }
                    }
                }
                Action::Send(to, msg) => {
                    self.queue.push_back((to, ReplicaId(who as u32), msg));
                }
                Action::Committed(b) => self.committed[who].push(b),
                Action::StartRoundTimer { round, view } => {
                    self.round_timers[who].push((round, view));
                }
                Action::StartViewChangeTimer { .. }
                | Action::ViewChangeStarted { .. }
                | Action::NewViewInstalled { .. } => {}
            }
        }
    }

    /// Delivers queued messages until quiescence.
    pub fn run_to_quiescence(&mut self) {
        while let Some((to, from, msg)) = self.queue.pop_front() {
            let who = to.as_usize();
            if self.crashed[who] {
                continue;
            }
            let actions = self.nodes[who].on_message(from, msg, self.now, &mut self.cur_ranks[who]);
            self.absorb(who, actions);
        }
    }

    /// Has replica `leader` propose `batch` and runs to quiescence.
    pub fn propose_and_run(&mut self, leader: usize, batch: Batch) {
        assert!(
            self.nodes[leader].can_propose(),
            "replica {leader} cannot propose"
        );
        self.now += TimeNs::from_millis(10);
        let actions = self.nodes[leader].propose(batch, self.now, &mut self.cur_ranks[leader]);
        self.absorb(leader, actions);
        self.run_to_quiescence();
    }

    /// Fires the round timer on every live replica and runs to quiescence.
    pub fn fire_round_timers(&mut self, round: Round, view: View) {
        for who in 0..self.n {
            if self.crashed[who] {
                continue;
            }
            let actions = self.nodes[who].on_round_timer(round, view);
            self.absorb(who, actions);
        }
        self.run_to_quiescence();
    }

    /// Asserts every live replica committed the same block sequence and
    /// returns that sequence.
    pub fn assert_agreement(&self) -> Vec<Block> {
        let mut reference: Option<&Vec<Block>> = None;
        for (r, log) in self.committed.iter().enumerate() {
            if self.crashed[r] {
                continue;
            }
            match reference {
                None => reference = Some(log),
                Some(head) => {
                    assert_eq!(
                        head.len(),
                        log.len(),
                        "replica {r} committed a different number of blocks"
                    );
                    // Commit *order* may differ under reordering; compare as sets
                    // keyed by round.
                    let mut a: Vec<_> = head.iter().collect();
                    let mut b: Vec<_> = log.iter().collect();
                    a.sort_by_key(|x| x.round());
                    b.sort_by_key(|x| x.round());
                    assert_eq!(a, b, "replica {r} diverged");
                }
            }
        }
        let mut out = reference.cloned().unwrap_or_default();
        out.sort_by_key(|b| b.round());
        out
    }
}
