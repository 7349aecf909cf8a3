//! The node's timers as a type.
//!
//! `ladon-sim` timers are opaque `u64` ids; the node multiplexes eight
//! kinds of timer over them. [`Timer`] is the only code that knows the
//! bit layout:
//!
//! ```text
//! bits  0..4   kind
//! bits  4..20  instance        (16 bits)
//! bits 20..36  view            (16 bits)
//! bits 36..64  round / height / commit-count stamp   (28 bits)
//! ```
//!
//! [`Timer::encode`] rejects a field wider than its slot instead of
//! letting it bleed into its neighbour (a view ≥ 2¹⁶ would otherwise
//! silently become a different round), and [`Timer::decode`] returns
//! `None` for an id no `encode` produced.

use ladon_types::{Round, View};

const KIND_BITS: u32 = 4;
const INSTANCE_BITS: u32 = 16;
const VIEW_BITS: u32 = 16;
const ROUND_BITS: u32 = 28;
const INSTANCE_SHIFT: u32 = KIND_BITS;
const VIEW_SHIFT: u32 = INSTANCE_SHIFT + INSTANCE_BITS;
const ROUND_SHIFT: u32 = VIEW_SHIFT + VIEW_BITS;
const _: () = assert!(ROUND_SHIFT + ROUND_BITS == u64::BITS);
// The HotStuff instance door admits exactly the views that fit the slot.
const _: () = assert!(ladon_hotstuff::MAX_VIEW.0 == (1 << VIEW_BITS) - 1);

/// A timer the node arms for itself. Instance-scoped kinds carry the
/// instance index first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timer {
    /// Proposal pacing tick for an instance.
    Pace(usize),
    /// Liveness timer of an instance's round (PBFT) or height (HotStuff),
    /// armed in the given view (the instance ignores stale ones).
    Round(usize, View, Round),
    /// Bound on an instance's view-change completion (PBFT).
    ViewChange(usize, View),
    /// Injected crash instant (Fig. 8).
    Crash,
    /// Confirmed-transaction timeline sample.
    Sample,
    /// Quiet-leader detector window for an instance, with the
    /// [`Timer::commit_stamp`] of its commit count when the window
    /// opened: unchanged at expiry means nothing committed.
    Quiet(usize, u64),
    /// State-transfer probe period.
    Sync,
    /// Durability retry while degraded (see [`crate::durability`]).
    Retry,
}

/// A [`Timer`] field (named here) does not fit its slot in the id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldOverflow(pub &'static str);

fn pack(field: &'static str, value: u64, bits: u32, shift: u32) -> Result<u64, FieldOverflow> {
    if value >> bits != 0 {
        return Err(FieldOverflow(field));
    }
    Ok(value << shift)
}

impl Timer {
    /// A commit count folded into the round slot's width. The quiet
    /// detector only compares two stamps for equality, so wrapping every
    /// 2²⁸ commits is harmless.
    pub fn commit_stamp(commits: u64) -> u64 {
        commits & ((1 << ROUND_BITS) - 1)
    }

    /// The timer's id, or the field that is too wide for its slot.
    pub fn encode(self) -> Result<u64, FieldOverflow> {
        let (kind, instance, view, round) = match self {
            Timer::Pace(i) => (1, i, 0, 0),
            Timer::Round(i, view, round) => (2, i, view.0, round.0),
            Timer::ViewChange(i, view) => (3, i, view.0, 0),
            Timer::Crash => (4, 0, 0, 0),
            Timer::Sample => (5, 0, 0, 0),
            Timer::Quiet(i, stamp) => (6, i, 0, stamp),
            Timer::Sync => (7, 0, 0, 0),
            Timer::Retry => (9, 0, 0, 0),
        };
        Ok(kind
            | pack("instance", instance as u64, INSTANCE_BITS, INSTANCE_SHIFT)?
            | pack("view", view, VIEW_BITS, VIEW_SHIFT)?
            | pack("round", round, ROUND_BITS, ROUND_SHIFT)?)
    }

    /// The timer behind an id; `None` for an unknown kind.
    pub fn decode(id: u64) -> Option<Self> {
        let slot = |bits: u32, shift: u32| (id >> shift) & ((1 << bits) - 1);
        let i = slot(INSTANCE_BITS, INSTANCE_SHIFT) as usize;
        let view = View(slot(VIEW_BITS, VIEW_SHIFT));
        let round = slot(ROUND_BITS, ROUND_SHIFT);
        Some(match slot(KIND_BITS, 0) {
            1 => Timer::Pace(i),
            2 => Timer::Round(i, view, Round(round)),
            3 => Timer::ViewChange(i, view),
            4 => Timer::Crash,
            5 => Timer::Sample,
            6 => Timer::Quiet(i, round),
            7 => Timer::Sync,
            9 => Timer::Retry,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_INSTANCE: usize = (1 << INSTANCE_BITS) - 1;
    const MAX_VIEW: u64 = (1 << VIEW_BITS) - 1;
    const MAX_ROUND: u64 = (1 << ROUND_BITS) - 1;

    #[test]
    fn every_timer_roundtrips_at_field_maxima() {
        let all = [
            Timer::Pace(0),
            Timer::Pace(MAX_INSTANCE),
            Timer::Round(130, View(17), Round(99_999)),
            Timer::Round(MAX_INSTANCE, View(MAX_VIEW), Round(MAX_ROUND)),
            Timer::ViewChange(MAX_INSTANCE, View(MAX_VIEW)),
            Timer::Crash,
            Timer::Sample,
            Timer::Quiet(MAX_INSTANCE, MAX_ROUND),
            Timer::Sync,
            Timer::Retry,
        ];
        for t in all {
            let id = t.encode().expect("in-range fields encode");
            assert_eq!(Timer::decode(id), Some(t), "{t:?} via {id:#x}");
        }
    }

    #[test]
    fn too_wide_field_is_rejected_not_bled_into_its_neighbour() {
        let wide_view = Timer::Round(1, View(MAX_VIEW + 1), Round(0));
        assert_eq!(wide_view.encode(), Err(FieldOverflow("view")));
        let wide_round = Timer::Round(1, View(0), Round(MAX_ROUND + 1));
        assert_eq!(wide_round.encode(), Err(FieldOverflow("round")));
        let wide_instance = Timer::Pace(MAX_INSTANCE + 1);
        assert_eq!(wide_instance.encode(), Err(FieldOverflow("instance")));
        let unstamped = Timer::Quiet(0, MAX_ROUND + 6);
        assert_eq!(unstamped.encode(), Err(FieldOverflow("round")));
        // The one field that is *meant* to wrap does so explicitly.
        let stamped = Timer::Quiet(0, Timer::commit_stamp(MAX_ROUND + 6));
        assert_eq!(
            Timer::decode(stamped.encode().unwrap()),
            Some(Timer::Quiet(0, 5))
        );
    }

    #[test]
    fn ids_keep_the_documented_layout() {
        let id = Timer::Round(3, View(2), Round(7)).encode().unwrap();
        assert_eq!(id, 2 | (3 << 4) | (2 << 20) | (7 << 36));
        assert_eq!(Timer::decode(8), None);
        assert_eq!(Timer::decode(0), None);
    }
}
