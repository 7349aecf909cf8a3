//! The benchmark harness.
//!
//! [`FIGURES`] is the paper's figures and tables as data, one entry
//! each; the `repro` bin runs them (`repro --figure <name>` for one).
//!
//! The bench targets are wall-clock microbenchmarks — no paper figure
//! and no assertion on a count (a count is pinned by a test). They are
//! plain `harness = false` binaries; [`microbench`] provides their
//! measurement loop (the build environment has no crates.io access, so
//! there is no criterion).

#![forbid(unsafe_code)]

mod figures;

pub use figures::{Built, Case, Figure, Rows, FIGURES};

use std::path::PathBuf;
use std::time::Instant;

/// One measured micro-benchmark result.
#[derive(Clone, Copy, Debug)]
pub struct MicroResult {
    /// Mean nanoseconds per iteration over the measurement phase.
    pub ns_per_iter: f64,
    /// Iterations measured.
    pub iters: u64,
}

impl MicroResult {
    /// Iterations per second implied by the mean.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter.max(1e-9)
    }
}

/// Runs `f` in a timed loop and prints a `name: mean ns/iter (rate)` line.
///
/// The loop warms up for ~10% of `iters`, then measures. The closure's
/// return value is consumed with a volatile read so the optimizer cannot
/// delete the work.
pub fn microbench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) -> MicroResult {
    for _ in 0..(iters / 10).max(1) {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = start.elapsed();
    let res = MicroResult {
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        iters,
    };
    let (scaled, unit) = if res.ns_per_iter >= 1e6 {
        (res.ns_per_iter / 1e6, "ms")
    } else if res.ns_per_iter >= 1e3 {
        (res.ns_per_iter / 1e3, "us")
    } else {
        (res.ns_per_iter, "ns")
    };
    println!(
        "{name:<44} {scaled:>10.2} {unit}/iter  ({:>12.0} iter/s)",
        res.per_sec()
    );
    res
}

/// A scratch directory under the system temp dir, unique per process
/// and `tag`, emptied. The caller removes it when done.
pub fn scratch_dir(what: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ladon-{what}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
