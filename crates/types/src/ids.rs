//! Newtype identifiers for replicas, instances, clients, views, rounds,
//! epochs and monotonic ranks.
//!
//! The paper (§3) indexes `n = 3f + 1` replicas, `m` consensus instances
//! (instance `i` has index `i`), protocol views `v`, per-view rounds `n`
//! (we call them [`Round`] to avoid clashing with the replica count),
//! epochs `e` and monotonic ranks. Using distinct newtypes prevents an
//! entire class of "passed the round where the rank was expected" bugs.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_u32 {
    ($(#[$doc:meta])* $name:ident, $short:expr) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index as a `usize`, for table lookups.
            #[inline]
            pub fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                Self(v as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }
    };
}

macro_rules! id_u64 {
    ($(#[$doc:meta])* $name:ident, $short:expr) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// The zero value (protocol start).
            pub const ZERO: Self = Self(0);

            /// Returns the successor (`self + 1`).
            #[inline]
            #[must_use]
            pub fn next(self) -> Self {
                Self(self.0 + 1)
            }

            /// Returns the predecessor, or `None` at zero.
            #[inline]
            #[must_use]
            pub fn prev(self) -> Option<Self> {
                self.0.checked_sub(1).map(Self)
            }

            /// Returns the raw value as `usize` (for indexing).
            #[inline]
            pub fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }
    };
}

id_u32! {
    /// A replica identifier in `0..n`.
    ReplicaId, "r"
}
id_u32! {
    /// A consensus-instance index in `0..m` (paper: `B.index`).
    InstanceId, "i"
}
id_u32! {
    /// A client identifier.
    ClientId, "c"
}

id_u64! {
    /// A view number within one consensus instance (paper: `v`).
    View, "v"
}
id_u64! {
    /// A round / sequence number within one instance (paper: `n`).
    ///
    /// Rounds start at 1 in the paper's Algorithm 2; round 0 is reserved as
    /// the "before the first proposal" sentinel.
    Round, "n"
}
id_u64! {
    /// An epoch number (paper: `e`).
    Epoch, "e"
}

impl InstanceId {
    /// The leader of this instance in `view` among `n` replicas: instance
    /// `i` starts led by replica `i`, and the lead rotates on view changes.
    pub fn leader(self, view: View, n: usize) -> ReplicaId {
        ReplicaId(((self.0 as u64 + view.0) % n as u64) as u32)
    }
}

/// A monotonic rank (paper §4.1).
///
/// Ranks are assigned to blocks at proposal time and drive the dynamic
/// global ordering: blocks are globally ordered by increasing rank with
/// instance index as the tie-breaker (see [`crate::OrderKey`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Rank(pub u64);

impl Rank {
    /// The initial rank (epoch 0 starts at `minRank(0) = 0`).
    pub const ZERO: Self = Self(0);

    /// Returns `self + 1`, the rank a leader assigns after collecting
    /// `rank_m = self` as the highest certified rank.
    #[inline]
    #[must_use]
    pub fn next(self) -> Self {
        Self(self.0 + 1)
    }

    /// Saturating difference `self - other`, used by the Ladon-opt
    /// multi-key encoding (§5.3) where `k = curRank - commitRank`.
    #[inline]
    #[must_use]
    pub fn diff(self, other: Self) -> u64 {
        self.0.saturating_sub(other.0)
    }

    /// Adds a raw offset (Ladon-opt rank recovery: `rank + k`).
    #[inline]
    #[must_use]
    pub fn offset(self, k: u64) -> Self {
        Self(self.0 + k)
    }
}

impl From<u64> for Rank {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_next_prev_roundtrip() {
        let r = Round(41);
        assert_eq!(r.next(), Round(42));
        assert_eq!(r.next().prev(), Some(r));
        assert_eq!(Round::ZERO.prev(), None);
    }

    #[test]
    fn rank_ordering_is_numeric() {
        assert!(Rank(3) < Rank(10));
        assert_eq!(Rank(3).next(), Rank(4));
    }

    #[test]
    fn rank_diff_saturates() {
        assert_eq!(Rank(5).diff(Rank(2)), 3);
        assert_eq!(Rank(2).diff(Rank(5)), 0);
        assert_eq!(Rank(2).offset(3), Rank(5));
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(format!("{}", ReplicaId(7)), "r7");
        assert_eq!(format!("{}", InstanceId(2)), "i2");
        assert_eq!(format!("{:?}", View(1)), "v1");
        assert_eq!(format!("{:?}", Epoch(0)), "e0");
    }

    #[test]
    fn usize_conversions() {
        assert_eq!(ReplicaId::from(9usize).as_usize(), 9);
        assert_eq!(Round(12).as_usize(), 12);
    }
}
