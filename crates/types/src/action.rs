//! The effect vocabulary every consensus instance speaks.
//!
//! A consensus instance (PBFT, chained HotStuff) is an I/O-free state
//! machine: each input returns a list of [`Action`]s and the hosting node
//! performs them. The vocabulary is one type, generic only in the
//! instance's own wire message `M`, so the node needs one handler and a
//! protocol that lacks a capability simply never emits the variant
//! (HotStuff has no view-change completion timer and installs no
//! explicit new view).

use crate::{Block, ReplicaId, Round, View};

/// An effect requested by a consensus instance.
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Send to every *other* replica (the instance has already processed
    /// its own copy internally).
    Broadcast(M),
    /// Send to one replica.
    Send(ReplicaId, M),
    /// A block became partially committed (HotStuff never emits this for
    /// epoch-flush dummies).
    Committed(Block),
    /// Start the liveness timer for a round (PBFT) or height (HotStuff —
    /// heights are [`Round`]s): it must commit, respectively be
    /// certified, before the timer fires.
    StartRoundTimer {
        /// Round or height the timer guards.
        round: Round,
        /// View the timer belongs to (stale timers are ignored).
        view: View,
    },
    /// Start a timer bounding view-change completion (PBFT only).
    StartViewChangeTimer {
        /// The pending view.
        view: View,
    },
    /// A view change was initiated (metrics hook).
    ViewChangeStarted {
        /// The view being moved to.
        view: View,
    },
    /// A new view was installed (metrics hook; PBFT only).
    NewViewInstalled {
        /// The installed view.
        view: View,
    },
}

impl<M> Action<M> {
    /// Re-wraps the carried message, leaving every other variant as is —
    /// how a host lifts an instance's actions into its own envelope.
    pub fn map_msg<N>(self, f: impl FnOnce(M) -> N) -> Action<N> {
        match self {
            Action::Broadcast(m) => Action::Broadcast(f(m)),
            Action::Send(to, m) => Action::Send(to, f(m)),
            Action::Committed(b) => Action::Committed(b),
            Action::StartRoundTimer { round, view } => Action::StartRoundTimer { round, view },
            Action::StartViewChangeTimer { view } => Action::StartViewChangeTimer { view },
            Action::ViewChangeStarted { view } => Action::ViewChangeStarted { view },
            Action::NewViewInstalled { view } => Action::NewViewInstalled { view },
        }
    }
}
