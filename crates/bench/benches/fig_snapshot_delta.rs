//! Content-addressed delta state sync benchmark (no paper analog): a
//! lagging replica that already holds an older snapshot fetches only
//! the chunks of the Merkle lanes that actually changed, so bytes
//! transferred are proportional to *changed lanes*, not state size.
//!
//! Every acceptance gate is stated in deterministic **counts** (chunk
//! counts, wire bytes, lanes reused) — shared CI runners jitter,
//! content addressing does not. The scenario and its gates live in
//! [`ladon_bench::snapshot_delta_figure`], shared with `repro --smoke`.

use ladon_bench::snapshot_delta_figure;

fn main() {
    println!("fig_snapshot_delta: bytes transferred \u{221d} changed lanes, not state size\n");
    snapshot_delta_figure();
    println!("fig_snapshot_delta: all gates passed");
}
