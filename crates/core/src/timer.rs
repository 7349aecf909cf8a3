//! The node's timers as a type.
//!
//! `ladon-sim` timers are opaque `u64` ids; the node multiplexes six
//! kinds of timer over them. A timer names its kind and, for the
//! instance-scoped kinds, the instance — nothing else:
//!
//! ```text
//! bits  0..4   kind
//! bits  4..64  instance
//! ```
//!
//! What a timer guards is read from the instance when it fires (its
//! liveness deadline, its leadership), so no id carries a view, round or
//! commit count, and no firing can be stale: the node keeps at most one
//! [`Timer::Liveness`] pending per instance, and [`Timer::Pace`] only
//! while the replica leads it. [`Timer::decode`] returns `None` for an id
//! no [`Timer::encode`] produced.

const KIND_BITS: u32 = 4;

/// A timer the node arms for itself. Instance-scoped kinds carry the
/// instance index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timer {
    /// Proposal pacing tick for an instance this replica leads.
    Pace(usize),
    /// An instance's liveness deadline (see `Instance::liveness_since`).
    Liveness(usize),
    /// Injected crash instant (Fig. 8).
    Crash,
    /// Confirmed-transaction timeline sample.
    Sample,
    /// State-transfer probe period.
    Sync,
    /// Durability retry while degraded (see [`crate::durability`]).
    Retry,
}

impl Timer {
    /// The timer's id.
    pub fn encode(self) -> u64 {
        let (kind, instance) = match self {
            Timer::Pace(i) => (1, i),
            Timer::Liveness(i) => (2, i),
            Timer::Crash => (3, 0),
            Timer::Sample => (4, 0),
            Timer::Sync => (5, 0),
            Timer::Retry => (6, 0),
        };
        kind | (instance as u64) << KIND_BITS
    }

    /// The timer behind an id; `None` for an unknown kind.
    pub fn decode(id: u64) -> Option<Self> {
        let i = (id >> KIND_BITS) as usize;
        Some(match id & ((1 << KIND_BITS) - 1) {
            1 => Timer::Pace(i),
            2 => Timer::Liveness(i),
            3 => Timer::Crash,
            4 => Timer::Sample,
            5 => Timer::Sync,
            6 => Timer::Retry,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_instance_roundtrip() {
        let wide = usize::MAX >> KIND_BITS;
        for i in [0, 1, 130, wide] {
            for t in [Timer::Pace(i), Timer::Liveness(i)] {
                assert_eq!(Timer::decode(t.encode()), Some(t), "{t:?}");
            }
        }
        for t in [Timer::Crash, Timer::Sample, Timer::Sync, Timer::Retry] {
            assert_eq!(Timer::decode(t.encode()), Some(t), "{t:?}");
        }
        assert_eq!(Timer::Liveness(3).encode(), 2 | 3 << 4);
    }

    #[test]
    fn an_unknown_kind_decodes_to_none() {
        for kind in [0, 7, 15] {
            assert_eq!(Timer::decode(kind | 5 << KIND_BITS), None, "kind {kind}");
        }
    }
}
