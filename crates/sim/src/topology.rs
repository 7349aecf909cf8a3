//! Region topologies and latency presets (paper §6.1 deployment settings).
//!
//! The WAN preset models the paper's four AWS regions — France
//! (eu-west-3), Virginia (us-east-1), Sydney (ap-southeast-2) and Tokyo
//! (ap-northeast-1) — with one-way latencies derived from published
//! inter-region RTT measurements. Replicas are distributed evenly across
//! regions (round-robin), as the paper does.

use ladon_types::{NetEnv, TimeNs};
use serde::{Deserialize, Serialize};

/// A data-center region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Region {
    /// eu-west-3 (Paris).
    France,
    /// us-east-1 (N. Virginia).
    Virginia,
    /// ap-southeast-2 (Sydney).
    Sydney,
    /// ap-northeast-1 (Tokyo).
    Tokyo,
}

impl Region {
    /// The four WAN regions in the paper's deployment.
    pub const ALL: [Region; 4] = [
        Region::France,
        Region::Virginia,
        Region::Sydney,
        Region::Tokyo,
    ];

    fn idx(self) -> usize {
        match self {
            Region::France => 0,
            Region::Virginia => 1,
            Region::Sydney => 2,
            Region::Tokyo => 3,
        }
    }
}

/// One-way inter-region latency in milliseconds (≈ half measured RTT).
const WAN_ONE_WAY_MS: [[f64; 4]; 4] = [
    //            FR     VA     SY     TK
    /* FR */ [0.5, 40.0, 140.0, 110.0],
    /* VA */ [40.0, 0.5, 100.0, 75.0],
    /* SY */ [140.0, 100.0, 0.5, 55.0],
    /* TK */ [110.0, 75.0, 55.0, 0.5],
];

/// Intra-LAN one-way latency in milliseconds.
const LAN_ONE_WAY_MS: f64 = 0.1;

/// A topology: where each actor sits and how far apart sites are.
#[derive(Clone, Debug)]
pub struct Topology {
    env: NetEnv,
    /// Region of each actor (replicas first, then clients).
    regions: Vec<Region>,
    /// One-way base latency between each pair of regions, converted
    /// once here rather than on every send.
    base: [[TimeNs; 4]; 4],
    /// Per-NIC bandwidth in bytes/second (paper: 1 Gbps).
    pub bandwidth_bps: f64,
    /// Relative jitter bound: delivery latency is scaled by a uniform
    /// factor in `[1, 1 + jitter]`.
    pub jitter: f64,
}

impl Topology {
    /// Paper-default bandwidth: 1 Gbps.
    pub const GBPS: f64 = 125_000_000.0;

    /// Builds the paper's topology for `actors` actors in `env`,
    /// distributing them round-robin over the four regions (WAN) or a
    /// single site (LAN).
    pub fn paper(env: NetEnv, actors: usize) -> Self {
        let regions = match env {
            NetEnv::Lan => vec![Region::France; actors],
            NetEnv::Wan => (0..actors)
                .map(|i| Region::ALL[i % Region::ALL.len()])
                .collect(),
        };
        let base = std::array::from_fn(|from| {
            std::array::from_fn(|to| {
                let ms = match env {
                    NetEnv::Lan => LAN_ONE_WAY_MS,
                    NetEnv::Wan => WAN_ONE_WAY_MS[from][to],
                };
                TimeNs::from_secs_f64(ms / 1e3)
            })
        });
        Self {
            env,
            regions,
            base,
            bandwidth_bps: Self::GBPS,
            jitter: 0.1,
        }
    }

    /// The environment preset this topology was built from.
    pub fn env(&self) -> NetEnv {
        self.env
    }

    /// Number of actors placed.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no actors are placed.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Base one-way propagation latency between two actors.
    pub fn base_latency(&self, from: usize, to: usize) -> TimeNs {
        self.base[self.regions[from].idx()][self.regions[to].idx()]
    }

    /// Transmission (serialization) delay for `bytes` at the NIC rate.
    pub fn tx_delay(&self, bytes: u64) -> TimeNs {
        TimeNs::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_round_robin_regions() {
        let t = Topology::paper(NetEnv::Wan, 8);
        assert_eq!(t.len(), 8);
        // Actors 0 and 4 share France, 1 and 5 Virginia.
        assert_eq!(t.base_latency(0, 4), t.base_latency(0, 0));
        assert_eq!(t.base_latency(1, 5), t.base_latency(1, 1));
        assert_ne!(t.base_latency(0, 1), t.base_latency(0, 0));
    }

    #[test]
    fn latency_matrix_is_symmetric() {
        let t = Topology::paper(NetEnv::Wan, 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.base_latency(a, b), t.base_latency(b, a));
            }
        }
    }

    #[test]
    fn wan_slower_than_lan() {
        let wan = Topology::paper(NetEnv::Wan, 8);
        let lan = Topology::paper(NetEnv::Lan, 8);
        // Cross-region pair in WAN vs any LAN pair.
        assert!(wan.base_latency(0, 2) > lan.base_latency(0, 2).mul(100));
        // Same-region WAN pair is fast.
        assert!(wan.base_latency(0, 4) < TimeNs::from_millis(1));
    }

    #[test]
    fn tx_delay_proportional_to_bytes() {
        let t = Topology::paper(NetEnv::Lan, 4);
        // 2 MB at 1 Gbps = 16 ms.
        let d = t.tx_delay(2_000_000);
        assert_eq!(d, TimeNs::from_secs_f64(0.016));
        assert_eq!(t.tx_delay(0), TimeNs::ZERO);
    }
}
