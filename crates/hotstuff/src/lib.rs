//! Chained HotStuff consensus instances for Ladon (Appendix D).
//!
//! [`HsInstance`] implements the two-phase chained protocol of Algorithm 3:
//! proposal (`generic`) and voting, with the 3-chain commit rule. In
//! [`HsRankMode::Ladon`] every vote carries the voter's `curRank` plus its
//! certificate, and proposals justify their rank with the parent's vote
//! set — the HotStuff realization of Ladon's pipelined rank coordination.
//! [`HsRankMode::None`] is the vanilla instance used by ISS-HotStuff.

#![forbid(unsafe_code)]

pub mod instance;
pub mod msg;

pub use instance::{Action, HsConfig, HsInstance, HsRankMode, MAX_VIEW};
pub use msg::{HsGeneric, HsMsg, HsNewView, HsNode, HsQc, HsVote};
