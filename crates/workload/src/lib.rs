//! Workloads, fault injection, metrics and the experiment runner.
//!
//! This crate turns the protocol stack into runnable experiments:
//!
//! - [`client`]: the open-loop client fleet (offered load, relays).
//! - [`deployment`]: [`ExperimentConfig`] → [`Deployment`], the one place
//!   a cluster is assembled (tests, figures, examples and the runner all
//!   build theirs here, then script faults against its engine).
//! - [`oracle`]: the one safety judge — agreement joined on `sn`, equal
//!   checkpoint roots per epoch, no execution gaps, no root conflicts.
//! - [`runner`]: [`run_experiment`] = build → warm up → measure →
//!   [`aggregate`] into a [`Report`] (what every run of a paper figure
//!   in `ladon_bench::FIGURES` goes through).
//! - [`metrics`]: cross-replica aggregation — f+1-confirmed throughput,
//!   end-to-end latency, causal strength (§6.4), timelines.
//! - [`analytical`]: the closed-form straggler model of §2.1 (Fig. 2a).
//! - [`report`]: ASCII table rendering and benchmark scale presets.

#![forbid(unsafe_code)]

pub mod analytical;
pub mod client;
pub mod deployment;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod runner;

pub use client::ClientFleet;
pub use deployment::Deployment;
pub use metrics::{aggregate, Report, RunData};
pub use report::{cs_fmt, f2, f3, scale, Scale, Table};
pub use runner::{run_experiment, ExperimentConfig};
