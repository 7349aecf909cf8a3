//! The effect vocabulary every consensus instance speaks.
//!
//! A consensus instance (PBFT, chained HotStuff) is an I/O-free state
//! machine: each input returns a list of [`Action`]s and the hosting node
//! performs them. The vocabulary is one type, generic only in the
//! instance's own wire message `M`, so the node needs one handler and a
//! protocol that lacks a capability simply never emits the variant
//! (HotStuff installs no explicit new view). Timers are not effects: an
//! instance holds its own liveness deadline and the host reads it.

use crate::{Block, ReplicaId, View};

/// Capacity of each buffer in which an instance holds messages for later
/// (a future view's, a future epoch's). A message that arrives at a full
/// buffer is rejected, so a Byzantine flood of far-future messages costs
/// an honest replica only this much memory.
pub const MAX_PENDING_MSGS: usize = 8192;

/// Holds `item` in `buf` for later unless the buffer is at
/// [`MAX_PENDING_MSGS`]; an overflow counts in `rejected`.
pub fn push_bounded<T>(buf: &mut Vec<T>, item: T, rejected: &mut u64) {
    if buf.len() < MAX_PENDING_MSGS {
        buf.push(item);
    } else {
        *rejected += 1;
    }
}

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
    /// A view change was initiated (metrics hook).
    ViewChangeStarted {
        /// The view being moved to.
        view: View,
    },
    /// A new view was installed (metrics hook).
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
            Action::ViewChangeStarted { view } => Action::ViewChangeStarted { view },
            Action::NewViewInstalled { view } => Action::NewViewInstalled { view },
        }
    }
}
