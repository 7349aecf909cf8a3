//! Deterministic discrete-event simulation substrate for Ladon.
//!
//! This crate replaces the paper's AWS testbed (§6.1):
//!
//! - [`engine`]: the event loop — actors, timers, deterministic ordering.
//! - [`net`]: network models charging per-NIC bandwidth and propagation
//!   latency, so leader bottlenecks and WAN RTTs emerge naturally.
//! - [`topology`]: the paper's LAN and 4-region WAN presets.
//! - [`rng`]: seeded xoshiro256** randomness — runs are bit-reproducible.
//! - [`trace`]: message/byte counters (Table 1, Appendix A).
//! - [`live`]: a threaded wall-clock runtime driving the *same* actors,
//!   proving the protocol crates are runtime-agnostic.

#![forbid(unsafe_code)]

pub mod engine;
pub mod live;
pub mod net;
pub mod rng;
pub mod topology;
pub mod trace;

pub use engine::{Actor, ActorId, Context, Engine};
pub use live::LiveRuntime;
pub use net::{IdealNetwork, Network, NicNetwork};
pub use rng::SimRng;
pub use topology::{Region, Topology};
pub use trace::NetStats;
