//! Ladon Multi-BFT: the paper's core contribution.
//!
//! - [`ordering`]: the dynamic global ordering layer (Algorithm 1) and the
//!   [`ordering::GlobalOrderer`] trait.
//! - [`predetermined`]: ISS / Mir / RCC pre-determined-ordering baselines.
//! - [`dqbft`]: the DQBFT dedicated-ordering-instance baseline.
//! - [`epoch`]: the epoch pacemaker with checkpoints (§5.2.1).
//! - [`bucket`]: rotating transaction buckets and the synthetic mempool.
//! - [`node`]: the Multi-BFT replica composing `m` consensus instances,
//!   the shared `curRank`, an orderer, the pacemaker, the execution
//!   pipeline and fault injection — runnable under both the simulation
//!   engine and the live runtime. Its handlers do I/O; the decisions
//!   they act on live in the modules below.
//! - [`instance`]: the consensus-instance seam — the only module that
//!   knows PBFT from HotStuff.
//! - [`msg`]: the replica's network message envelope.
//! - [`sync`]: epoch state transfer for lagging replicas (§5.2.1),
//!   extended with execution-snapshot fast-forward, and the requester's
//!   rotation / responder-health state machine.
//! - [`durability`]: the `Normal ⇄ Degraded` durability state machine.
//! - [`timer`]: the node's timers as a type.
//! - [`metrics`]: what one node records.
//!
//! # Execution and durable state
//!
//! Beyond the paper's ordering pipeline, every node drives a
//! [`ladon_state::ExecutionPipeline`]: confirmed blocks are appended to a
//! commit WAL and applied to a deterministic KV state machine in global
//! order. Epoch checkpoints ([`epoch`]) carry the resulting **state
//! root**, so a stable checkpoint is a quorum attestation of *state*, not
//! just ranks; votes on conflicting roots are surfaced as
//! `root_conflicts` instead of advanced past. State transfer ([`sync`])
//! can ship the latest snapshot (authenticated by the matching stable
//! checkpoint) so a lagging or restarted replica fast-forwards its state
//! machine instead of re-executing history, then replays only the WAL
//! tail.

#![forbid(unsafe_code)]

pub mod bucket;
pub mod dqbft;
pub mod durability;
pub mod epoch;
pub mod instance;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod ordering;
pub mod predetermined;
pub mod sync;
pub mod timer;

pub use bucket::{Mempool, RotatingBuckets, TxGroup};
pub use dqbft::DqbftOrderer;
pub use durability::NodeMode;
pub use epoch::{CheckpointMsg, EpochEvent, EpochPacemaker, StableCheckpoint};
pub use metrics::{CommitRecord, ConfirmRecord, NodeMetrics};
pub use msg::{ClientTxs, NodeMsg};
pub use node::{Behavior, MultiBftNode, NodeConfig};
pub use ordering::{ConfirmedBlock, GlobalOrderer, LadonOrderer};
pub use predetermined::{BaselineKind, PredeterminedOrderer};
pub use sync::{snapshot_worthwhile, ResponderHealth, SyncEntry, SyncRequest, SyncResponse};
