//! # Ladon: High-Performance Multi-BFT Consensus via Dynamic Global Ordering
//!
//! A full Rust reproduction of the EuroSys'25 paper. This facade crate
//! re-exports the workspace's public API:
//!
//! - [`types`]: identifiers, blocks, ordering keys, configuration.
//! - [`crypto`]: SHA-256, simulated PKI / aggregate signatures, QCs.
//! - [`sim`]: deterministic discrete-event engine + network models.
//! - [`pbft`]: PBFT consensus instances with Ladon rank piggybacking.
//! - [`hotstuff`]: chained HotStuff instances (Appendix D).
//! - [`core`]: monotonic ranks, global ordering (Algorithm 1), epochs,
//!   rotating buckets, the Multi-BFT node, and baseline orderers
//!   (ISS / Mir / RCC / DQBFT). A baseline confirms only blocks its
//!   instances committed: a slow instance's ⊥ is the one its view
//!   change agrees on, Mir stalls confirmation after each new view, and
//!   RCC runs ISS's orderer (its lag-based removal is not modelled).
//! - [`state`]: the execution layer — deterministic KV state machine,
//!   commit write-ahead log, and epoch-aligned snapshots with
//!   content-addressed state roots (checkpoints attest to state, and
//!   replicas recover from snapshot + WAL replay).
//! - [`workload`]: the client fleet, the one `Deployment` every cluster
//!   is built by, the one safety `oracle` every run is judged by, metric
//!   aggregation and the experiment runner used by the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use ladon::workload::{ExperimentConfig, run_experiment};
//! use ladon::types::{NetEnv, ProtocolKind};
//!
//! let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
//!     .duration_secs(2.0);
//! let report = run_experiment(&cfg);
//! assert!(report.committed_txs > 0);
//! ```

pub use ladon_core as core;
pub use ladon_crypto as crypto;
pub use ladon_hotstuff as hotstuff;
pub use ladon_obs as obs;
pub use ladon_pbft as pbft;
pub use ladon_sim as sim;
pub use ladon_state as state;
pub use ladon_types as types;
pub use ladon_workload as workload;
