//! PBFT consensus instances with Ladon monotonic-rank piggybacking.
//!
//! Implements Algorithm 2 of the paper in three modes:
//!
//! - [`RankMode::None`] — vanilla PBFT, used by the baseline Multi-BFT
//!   protocols (ISS, Mir, DQBFT) whose global ordering is
//!   pre-determined and needs no ranks.
//! - [`RankMode::Plain`] — Ladon-PBFT: rank collection piggybacked on the
//!   commit phase, rank sets + QCs in pre-prepares (§5.2.2).
//! - [`RankMode::Opt`] — Ladon-opt: the aggregate-signature rank encoding
//!   that restores O(n) pre-prepare complexity (§5.3).
//!
//! The state machine ([`PbftInstance`]) is I/O-free; the Multi-BFT node in
//! `ladon-core` hosts `m` instances per replica and wires their [`Action`]s
//! to the network, the epoch pacemaker and the global ordering layer.
//!
//! # Where each rule of Algorithm 2 lives
//!
//! Each rule is written once, for all three modes; the modes differ only
//! in the values they feed it.
//!
//! | rule | home |
//! |---|---|
//! | propose `min(rank_m + 1, maxRank)` from 2f+1 reports (lines 1–9) | `choose_rank`: one quorum pick, the 2f+1 highest claims (the 2f+1 lowest for a minimizer); Plain proves it with the signed set, Opt with one aggregate |
//! | check a proposal's rank (lines 10–12) | `validate_rank_proof` → `check_expected_rank` |
//! | prepare an adopted proposal (lines 13–17) | `cast_prepare`, for a pre-prepare, a nil fill and a re-proposal alike; every vote is a [`PhaseVote::sign`] |
//! | commit on 2f+1 prepares, update and report `curRank` (lines 19–28) | `try_advance`; the report is `build_rank_report`: `(curRank, 0)` in Plain, `(base, curRank − base)` as `(body rank, sub-key)` in Opt |
//! | commit on 2f+1 commits (lines 31–35) | `try_advance`; the frontier moves in `extend_frontier` (also after a synced commit or a snapshot jump) |
//! | the leader collects reports (lines 37–41) | `handle_rank_report`: `claimed_rank`, then [`ladon_crypto::RankCert::validate_claim`] (Plain, exact) or [`ladon_crypto::RankCert::validate_lower_bound`] (Opt, whose clamped sub-keys under-report) |
//! | view change | [`ViewChange::sign`] binds the prepared entries it reports; `entry_certified` checks each (its QC and its batch); [`ViewPlan::from_vcs`] plans the new view; `adopt_new_view` installs it and `replay_view_msgs` replays what waited for it |

#![forbid(unsafe_code)]

pub mod instance;
pub mod msg;
pub mod testkit;

pub use instance::{
    Action, InstanceConfig, PbftInstance, RankMode, RankStrategy, ViewPlan, VOTE_WINDOW,
};
pub use msg::{
    NewView, PbftMsg, Phase, PhaseVote, PrePrepare, PreparedEntry, RankBody, RankProof, RankReport,
    SignedRank, ViewChange,
};

#[cfg(test)]
mod tests;
