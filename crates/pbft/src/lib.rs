//! PBFT consensus instances with Ladon monotonic-rank piggybacking.
//!
//! Implements Algorithm 2 of the paper in three modes:
//!
//! - [`RankMode::None`] — vanilla PBFT, used by the baseline Multi-BFT
//!   protocols (ISS, RCC, Mir, DQBFT) whose global ordering is
//!   pre-determined and needs no ranks.
//! - [`RankMode::Plain`] — Ladon-PBFT: rank collection piggybacked on the
//!   commit phase, rank sets + QCs in pre-prepares (§5.2.2).
//! - [`RankMode::Opt`] — Ladon-opt: the aggregate-signature rank encoding
//!   that restores O(n) pre-prepare complexity (§5.3).
//!
//! The state machine ([`PbftInstance`]) is I/O-free; the Multi-BFT node in
//! `ladon-core` hosts `m` instances per replica and wires their [`Action`]s
//! to the network, the epoch pacemaker and the global ordering layer.

#![forbid(unsafe_code)]

pub mod instance;
pub mod msg;
pub mod testkit;

pub use instance::{Action, InstanceConfig, PbftInstance, RankMode, RankStrategy, ViewPlan};
pub use msg::{
    NewView, PbftMsg, Phase, PhaseVote, PrePrepare, PreparedEntry, RankBody, RankProof, RankReport,
    SignedRank, ViewChange,
};

#[cfg(test)]
mod tests;
