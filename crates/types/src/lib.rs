//! Core types shared by every crate in the Ladon workspace.
//!
//! This crate is dependency-light on purpose: it defines the identifiers,
//! block/transaction structures, ordering keys, time units, configuration
//! and error types that the consensus instances ([`ladon-pbft`],
//! [`ladon-hotstuff`]), the ordering layer (`ladon-core`) and the simulation
//! substrate (`ladon-sim`) all build upon.
//!
//! [`ladon-pbft`]: https://docs.rs/ladon-pbft
//! [`ladon-hotstuff`]: https://docs.rs/ladon-hotstuff

#![forbid(unsafe_code)]

pub mod action;
pub mod block;
pub mod config;
pub mod error;
pub mod ids;
pub mod time;
pub mod tx;
pub mod wire;

pub use action::Action;
pub use block::{Block, BlockHeader, Digest, OrderKey};
pub use config::{NetEnv, ProtocolKind, SystemConfig, MERKLE_LANES};
pub use error::LadonError;
pub use ids::{ClientId, Epoch, InstanceId, Rank, ReplicaId, Round, View};
pub use time::{TimeNs, NS_PER_MS, NS_PER_SEC, NS_PER_US};
pub use tx::{splitmix64, Batch, Tx, TxId, TxOp};
pub use wire::{agg_sig_bytes, rank_set_bytes, sizes, WireSize};
