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
//! - [`trace`] — per-block lifecycle tracing: a bounded ring-buffer
//!   journal of timestamped stage transitions (submitted → proposed →
//!   confirmed → WAL-staged → flushed → applied → checkpointed) with
//!   incrementally maintained stage-latency histograms.
//! - [`mod@bench`] — the machine-readable `BENCH_*.json` format (emitter,
//!   parser, schema validator) that gives the repo a committed perf
//!   trajectory.
//! - [`json`] — the deterministic JSON value type underneath both.
//!
//! ## The `wall_` convention
//!
//! Metric and field names whose final segment starts with `wall_` are
//! wall-clock measurements: real, useful, and non-deterministic. The
//! `deterministic_json()` renderings exclude them; everything else must
//! be byte-identical across same-seed simulation runs, and tests gate
//! on exactly that.

#![forbid(unsafe_code)]

pub mod bench;
pub mod json;
pub mod registry;
pub mod trace;

pub use bench::{emit_figure, fields, BenchReport, BenchSchema, BENCH_JSON_ENV};
pub use json::Json;
pub use registry::{
    is_wall_metric, Histogram, MetricsRegistry, MetricsSnapshot, SnapshotInto, HISTOGRAM_BUCKETS,
};
pub use trace::{Stage, TraceEvent, TraceJournal, DEFAULT_JOURNAL_CAPACITY};
