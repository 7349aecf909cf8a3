//! Workloads, fault injection, metrics and the experiment runner.
//!
//! This crate turns the protocol stack into runnable experiments:
//!
//! - [`client`]: the open-loop client fleet (offered load, relays).
//! - [`runner`]: [`ExperimentConfig`] → full simulated deployment →
//!   [`Report`] (the entry point every bench target uses).
//! - [`metrics`]: cross-replica aggregation — f+1-confirmed throughput,
//!   end-to-end latency, causal strength (§6.4), timelines.
//! - [`analytical`]: the closed-form straggler model of §2.1 (Fig. 2a).
//! - [`report`]: ASCII table rendering and benchmark scale presets.

#![forbid(unsafe_code)]

pub mod analytical;
pub mod client;
pub mod metrics;
pub mod report;
pub mod runner;

pub use client::ClientFleet;
pub use metrics::{aggregate, Report, RunData, StageLatency};
pub use report::{cs_fmt, f2, f3, scale, Scale, Table};
pub use runner::{run_experiment, ExperimentConfig};
