//! # ladon-obs — the observability layer
//!
//! One substrate for everything the stack measures:
//!
//! - [`registry`] — a unified metrics registry (counters, gauges,
//!   log-bucketed histograms, per-actor series) with a deterministic,
//!   order- and partition-invariant merge and a single
//!   [`MetricsSnapshot::to_json`] exposition path. Each counter struct
//!   implements [`SnapshotInto`] in its home crate — the one place its
//!   registry names are written — and [`MetricsSnapshot::counter`] reads
//!   a merged counter back by name.
//! - [`trace`] — per-block lifecycle tracing: one latency histogram per
//!   adjacent pair of stages (submitted → proposed → confirmed →
//!   checkpointed), fed as blocks move through them.
//! - [`json`] — the deterministic JSON value type the registry renders
//!   into (and the wall-clock `benchmark/` writes its reports with).
//!
//! ## The `wall_` convention
//!
//! Metric names whose final segment starts with `wall_` are wall-clock
//! measurements: real, useful, and non-deterministic.
//! [`MetricsSnapshot::deterministic_json`] excludes them; everything else
//! must be byte-identical across same-seed simulation runs, and tests
//! gate on exactly that.

#![forbid(unsafe_code)]

pub mod json;
pub mod registry;
pub mod trace;

pub use json::Json;
pub use registry::{
    is_wall_metric, Histogram, MetricsRegistry, MetricsSnapshot, SnapshotInto, HISTOGRAM_BUCKETS,
};
pub use trace::{Stage, TraceJournal, DEFAULT_JOURNAL_CAPACITY};
