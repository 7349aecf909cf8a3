//! The consensus-instance seam: the one module that knows PBFT from
//! chained HotStuff.
//!
//! Ladon's ordering layer sits on top of *any* leader-based instance
//! (§5, Appendix D). The node therefore talks to an [`Instance`]: every
//! [`Input`] — a proposal, a message, a timer, an epoch advance, a
//! fetched block — goes through [`Instance::step`] and comes back as
//! [`Actions`] already lifted into [`NodeMsg`] envelopes, so one handler
//! performs them whichever protocol produced them.
//!
//! # Rounds
//!
//! Under both protocols a committed [`Block`]'s `round` is the ordinal
//! of the block among those its instance has emitted — 1, 2, 3, … with
//! no holes — which is what the ordering layer's per-instance intake
//! counts. PBFT commits one block per round, so the two coincide.
//! HotStuff's chain also holds three epoch-flush dummies per epoch that
//! take heights and are never emitted: there [`Instance::committed_upto`]
//! and the round of an [`Input::RoundTimer`] are chain *heights*, private
//! to the instance, and run ahead of the emitted rounds.
//!
//! # What HotStuff does not have
//!
//! This is the single statement of the "state-only snapshot / no log
//! sync" gap.
//!
//! `HsInstance` lacks five capabilities `PbftInstance` has. Each is
//! answered here with a fixed default instead of a branch at the call
//! site:
//!
//! | capability | PBFT | HotStuff default | consequence |
//! |---|---|---|---|
//! | replica-deterministic commit frontier at epoch end ([`Instance::checkpoint_frontier`]) | its epoch's last round | `None` | commit height at epoch end depends on local dummy-commit timing, so it cannot go under the quorum-signed manifest root: HotStuff snapshots are **state-only** (empty frontier) |
//! | jump the commit frontier ([`Instance::fast_forward`]) | yes | no-op | an installer fast-forwards its state machine only; consensus intake re-confirms history and execution skips it idempotently |
//! | serve / install committed log entries ([`Instance::committed_entries_from`], [`Input::Install`]) | block + prepare QC | nothing to serve, nothing installed | a lagging HotStuff replica is repaired by snapshot or by replaying the chain, never by **log sync** |
//! | lag evidence ([`Instance::lag_evidence`]) | future-epoch backlog, proposal-vs-commit gap | `None` | only the pacemaker's checkpoint-quorum evidence triggers state transfer |
//! | view-change completion timer ([`Input::ViewChangeTimer`]) | yes | no actions | HotStuff's pacemaker is the per-height timer alone |
//!
//! Also: PBFT never proposes epoch-flush dummies
//! ([`Instance::next_is_dummy`] is `false`), and HotStuff emits nothing
//! on [`Input::AdvanceEpoch`] (PBFT re-evaluates buffered
//! pre-prepares). Closing the gap — a deterministic frontier in the
//! manifest plus an `HsInstance` jump — changes the HotStuff arms below
//! and nothing else.
//!
//! A message of the other protocol's kind (a [`NodeMsg::Pbft`] reaching a
//! HotStuff instance or vice versa) is ignored: honest peers run one
//! protocol, so it can only be noise.
//!
//! # One cert cache per replica
//!
//! The same certificate reaches a replica on many instances — `curRank`
//! is node-level state, so its certificate rides in rank reports, votes
//! and proposals of all `m` of them. [`Instance::new`] therefore installs
//! the node's one [`CertCache`] in whichever state machine it builds, and
//! a certificate verified through one instance is a hit through every
//! other.

use crate::msg::NodeMsg;
use crate::node::NodeConfig;
use ladon_crypto::keys::Signer;
use ladon_crypto::{CertCache, QuorumCert, RankCert};
use ladon_hotstuff::{HsConfig, HsInstance, HsRankMode};
use ladon_pbft::{InstanceConfig, PbftInstance, RankMode, RankStrategy};
use ladon_types::{
    Action, Batch, Block, Epoch, InstanceId, ProtocolKind, Rank, ReplicaId, Round, TimeNs, View,
};
use std::sync::Arc;
use std::vec::IntoIter;

/// One hosted consensus instance, PBFT or chained HotStuff.
pub struct Instance {
    id: InstanceId,
    proto: Proto,
}

enum Proto {
    Pbft(PbftInstance),
    Hs(HsInstance),
}

/// What a PBFT instance knows about having fallen behind.
#[derive(Clone, Copy, Debug)]
pub struct LagEvidence {
    /// It buffers pre-prepares whose ranks belong to a future epoch.
    pub future_epoch_backlog: bool,
    /// Highest proposed round seen minus highest contiguously committed
    /// round; `u64::MAX` while a view change is in flight (either we
    /// started it alone because we missed commits — state transfer both
    /// repairs the log and abandons it — or it is a real one, and a
    /// spurious sync request then costs one round-trip).
    pub commit_gap: u64,
}

/// Everything that can happen to an instance.
pub enum Input {
    /// The local leader proposes this batch (the caller checked
    /// [`Instance::can_propose`]).
    Propose(Batch),
    /// Consensus traffic from a replica.
    Message(ReplicaId, NodeMsg),
    /// The liveness timer of a round (PBFT) or height (HotStuff), armed
    /// in the given view, fired.
    RoundTimer(Round, View),
    /// The view-change completion timer fired (PBFT).
    ViewChangeTimer(View),
    /// The next epoch's `(minRank, maxRank)`: PBFT may release buffered
    /// pre-prepares, HotStuff resumes silently.
    AdvanceEpoch(Rank, Rank),
    /// A committed block fetched from a peer, with its prepare QC (PBFT);
    /// yields no effects when it was not useful (already held, bad
    /// certificate).
    Install(Block, Arc<QuorumCert>),
}

/// An instance's pending effects, lifted into the node's envelope as
/// they are consumed (no intermediate collection).
pub enum Actions {
    /// No effects (a capability the protocol lacks, or an ignored input).
    None,
    /// Effects of a PBFT instance.
    Pbft(InstanceId, IntoIter<ladon_pbft::Action>),
    /// Effects of a HotStuff instance.
    Hs(InstanceId, IntoIter<ladon_hotstuff::Action>),
}

impl Iterator for Actions {
    type Item = Action<NodeMsg>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Actions::None => None,
            Actions::Pbft(instance, it) => {
                let instance = *instance;
                let wrap = |msg| NodeMsg::Pbft { instance, msg };
                it.next().map(|a| a.map_msg(wrap))
            }
            Actions::Hs(instance, it) => {
                let instance = *instance;
                let wrap = |msg| NodeMsg::Hs { instance, msg };
                it.next().map(|a| a.map_msg(wrap))
            }
        }
    }
}

impl Instance {
    /// Builds instance `i` of the replica described by `cfg`: HotStuff or
    /// PBFT by protocol family, ranked (Ladon) or vanilla, confined to
    /// epoch 0's rank range when ranked. Index `m` exists only under
    /// DQBFT — its dedicated vanilla ordering instance. The instance
    /// verifies certificates through `certs`, the replica's one cache.
    pub fn new(cfg: &NodeConfig, signer: &Signer, i: usize, certs: &CertCache) -> Self {
        let sys = &cfg.sys;
        let id = InstanceId(i as u32);
        let (emin, emax) = sys.rank_range(Epoch(0));
        let proto = if cfg.protocol.is_hotstuff() {
            let mode = if cfg.protocol == ProtocolKind::LadonHotStuff {
                HsRankMode::Ladon
            } else {
                HsRankMode::None
            };
            let hs = HsConfig {
                instance: id,
                me: cfg.me,
                n: sys.n,
                registry: cfg.registry.clone(),
                signer: signer.clone(),
                mode,
            };
            let mut inst = HsInstance::new(hs, emin, emax);
            inst.share_cert_cache(certs.clone());
            Proto::Hs(inst)
        } else {
            // (DQBFT's ordering instance is vanilla like its siblings.)
            let mode = match cfg.protocol {
                ProtocolKind::LadonPbft => RankMode::Plain,
                ProtocolKind::LadonOptPbft => RankMode::Opt,
                _ => RankMode::None,
            };
            let strategy = if cfg.behavior.rank_minimize {
                RankStrategy::MinimizeLowest
            } else if cfg.behavior.stale_rank_reports {
                RankStrategy::HonestStale
            } else {
                RankStrategy::Honest
            };
            // Ladon instances use the epoch range; vanilla instances
            // never stop for epochs.
            let (lo, hi) = if mode == RankMode::None {
                (Rank(0), Rank(u64::MAX))
            } else {
                (emin, emax)
            };
            let pbft = InstanceConfig {
                instance: id,
                me: cfg.me,
                n: sys.n,
                registry: cfg.registry.clone(),
                signer: signer.clone(),
                mode,
                strategy,
            };
            let mut inst = PbftInstance::new(pbft, lo, hi);
            inst.share_cert_cache(certs.clone());
            Proto::Pbft(inst)
        };
        Self { id, proto }
    }

    /// Does the local replica lead the current view (and, under PBFT, is
    /// no view change in flight)?
    pub fn is_leader(&self) -> bool {
        match &self.proto {
            Proto::Pbft(inst) => inst.is_leader(),
            Proto::Hs(inst) => inst.is_leader(),
        }
    }

    /// Leader of the instance's current view.
    pub fn leader(&self) -> ReplicaId {
        match &self.proto {
            Proto::Pbft(inst) => inst.leader_of(inst.view()),
            Proto::Hs(inst) => inst.leader_of(inst.view()),
        }
    }

    /// Messages the instance refused at its door.
    #[cfg(test)]
    pub(crate) fn rejected(&self) -> u64 {
        match &self.proto {
            Proto::Pbft(inst) => inst.rejected,
            Proto::Hs(inst) => inst.rejected,
        }
    }

    /// Highest contiguously committed round (PBFT) or chain height
    /// (HotStuff — dummies included, so not a block's `round`; see the
    /// module docs).
    pub fn committed_upto(&self) -> Round {
        match &self.proto {
            Proto::Pbft(inst) => inst.committed_upto(),
            Proto::Hs(inst) => inst.committed_upto(),
        }
    }

    /// Ready to accept a proposal from the local leader?
    pub fn can_propose(&self) -> bool {
        match &self.proto {
            Proto::Pbft(inst) => inst.can_propose(),
            Proto::Hs(inst) => inst.can_propose(),
        }
    }

    /// The next proposal is an epoch-flush dummy and must be empty.
    /// PBFT has none.
    pub fn next_is_dummy(&self) -> bool {
        match &self.proto {
            Proto::Pbft(_) => false,
            Proto::Hs(inst) => inst.next_is_dummy(),
        }
    }

    /// Feeds one input to the state machine and returns its effects. An
    /// input the protocol has no use for (see the module table) — and a
    /// [`Input::Message`] of the other protocol's kind — yields
    /// [`Actions::None`].
    pub fn step(&mut self, input: Input, now: TimeNs, cur: &mut RankCert) -> Actions {
        match &mut self.proto {
            Proto::Pbft(inst) => {
                let actions = match input {
                    Input::Propose(batch) => inst.propose(batch, now, cur),
                    Input::Message(from, NodeMsg::Pbft { msg, .. }) => {
                        inst.on_message(from, msg, now, cur)
                    }
                    Input::RoundTimer(round, view) => inst.on_round_timer(round, view),
                    Input::ViewChangeTimer(view) => inst.on_view_change_timer(view),
                    Input::AdvanceEpoch(min, max) => inst.advance_epoch(min, max, now, cur),
                    Input::Install(block, qc) => inst.install_committed(block, qc, now, cur),
                    Input::Message(..) => return Actions::None,
                };
                Actions::Pbft(self.id, actions.into_iter())
            }
            Proto::Hs(inst) => {
                let actions = match input {
                    Input::Propose(batch) => inst.propose(batch, now, cur),
                    Input::Message(from, NodeMsg::Hs { msg, .. }) => {
                        inst.on_message(from, msg, now, cur)
                    }
                    Input::RoundTimer(height, view) => inst.on_height_timer(height, view),
                    Input::AdvanceEpoch(min, max) => {
                        inst.advance_epoch(min, max);
                        return Actions::None;
                    }
                    Input::ViewChangeTimer(_) | Input::Install(..) | Input::Message(..) => {
                        return Actions::None
                    }
                };
                Actions::Hs(self.id, actions.into_iter())
            }
        }
    }

    /// The commit frontier to record under a checkpoint's quorum-signed
    /// manifest root, if it is replica-deterministic. PBFT instances
    /// freeze at their epoch's last round by checkpoint time; HotStuff
    /// heights are not deterministic at that instant (`None`).
    pub fn checkpoint_frontier(&self) -> Option<u64> {
        match &self.proto {
            Proto::Pbft(inst) => Some(inst.committed_upto().0),
            Proto::Hs(_) => None,
        }
    }

    /// Jumps the commit frontier to `round` after a snapshot install.
    /// HotStuff cannot (no-op).
    pub fn fast_forward(&mut self, round: Round) {
        match &mut self.proto {
            Proto::Pbft(inst) => inst.fast_forward(round),
            Proto::Hs(_) => {}
        }
    }

    /// Committed blocks past `from`, each with its prepare QC, for a
    /// lagging peer. HotStuff serves none.
    pub fn committed_entries_from(
        &self,
        from: Round,
        limit: usize,
    ) -> Vec<(Block, Arc<QuorumCert>)> {
        match &self.proto {
            Proto::Pbft(inst) => inst.committed_entries_from(from, limit),
            Proto::Hs(_) => Vec::new(),
        }
    }

    /// What the instance knows about having fallen behind. HotStuff
    /// offers no evidence.
    pub fn lag_evidence(&self) -> Option<LagEvidence> {
        match &self.proto {
            Proto::Pbft(inst) => Some(LagEvidence {
                future_epoch_backlog: inst.epoch_backlog() > 0,
                commit_gap: if inst.in_view_change() {
                    u64::MAX
                } else {
                    let seen = inst.highest_seen_round().0;
                    seen.saturating_sub(inst.committed_upto().0)
                },
            }),
            Proto::Hs(_) => None,
        }
    }
}
