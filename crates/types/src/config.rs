//! System configuration mirroring the paper's evaluation settings (§6.1).

use crate::ids::{Epoch, Rank};
use crate::time::TimeNs;
use serde::{Deserialize, Serialize};

/// Number of fixed Merkle lanes the execution keyspace is partitioned
/// into. This is a *protocol constant*, not a tuning knob: every key maps
/// to one of these lanes by hash, each lane has a content root, and the
/// checkpoint state root is a digest over the ordered lane-root vector.
/// Keeping the partition fixed is what makes the state root bit-identical
/// across replicas.
pub const MERKLE_LANES: u32 = 64;

/// Blocks of applied-frontier lag below which state transfer ships log
/// entries only (see [`SystemConfig::snapshot_min_lag`]).
const SNAPSHOT_MIN_LAG: u64 = 16;

/// Network environment preset (§6.1 deployment settings).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NetEnv {
    /// Single data center, 1 Gbps NICs, sub-millisecond RTT.
    Lan,
    /// Four AWS regions (France, Virginia, Sydney, Tokyo), 1 Gbps NICs.
    Wan,
}

impl NetEnv {
    /// The paper's total block rate for this environment (blocks/s summed
    /// over all leaders): 16 in WAN, 32 in LAN.
    pub fn default_total_block_rate(self) -> f64 {
        match self {
            NetEnv::Wan => 16.0,
            NetEnv::Lan => 32.0,
        }
    }
}

/// Which Multi-BFT protocol composition to run.
///
/// The first five use PBFT instances (§6); the last two use chained
/// HotStuff instances (Appendix D).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Ladon with PBFT instances (dynamic global ordering, Algorithm 1+2).
    LadonPbft,
    /// Ladon-opt: Ladon-PBFT with the aggregate-signature rank refinement
    /// (§5.3), reducing pre-prepare complexity from O(n²) to O(n).
    LadonOptPbft,
    /// ISS: pre-determined ordering, ⊥-delivery on leader timeout.
    IssPbft,
    /// RCC: pre-determined ordering, wait-free lag-based leader removal.
    RccPbft,
    /// Mir-BFT: pre-determined ordering, epoch change on leader suspicion.
    MirPbft,
    /// DQBFT: a dedicated ordering instance sequences other instances'
    /// partially committed blocks.
    DqbftPbft,
    /// Ladon with chained HotStuff instances (Appendix D).
    LadonHotStuff,
    /// ISS with chained HotStuff instances (Appendix D baseline).
    IssHotStuff,
}

impl ProtocolKind {
    /// Short display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::LadonPbft => "Ladon",
            ProtocolKind::LadonOptPbft => "Ladon-opt",
            ProtocolKind::IssPbft => "ISS",
            ProtocolKind::RccPbft => "RCC",
            ProtocolKind::MirPbft => "Mir",
            ProtocolKind::DqbftPbft => "DQBFT",
            ProtocolKind::LadonHotStuff => "Ladon-HotStuff",
            ProtocolKind::IssHotStuff => "ISS-HotStuff",
        }
    }

    /// True for the protocols whose global ordering is dynamic (rank-based
    /// or sequenced at confirmation time) rather than pre-determined.
    pub fn is_dynamic_ordering(self) -> bool {
        matches!(
            self,
            ProtocolKind::LadonPbft
                | ProtocolKind::LadonOptPbft
                | ProtocolKind::DqbftPbft
                | ProtocolKind::LadonHotStuff
        )
    }

    /// True for HotStuff-instance compositions.
    pub fn is_hotstuff(self) -> bool {
        matches!(
            self,
            ProtocolKind::LadonHotStuff | ProtocolKind::IssHotStuff
        )
    }

    /// The five PBFT-based protocols compared in Fig. 5/6 and Table 2.
    pub const PBFT_FAMILY: [ProtocolKind; 5] = [
        ProtocolKind::LadonPbft,
        ProtocolKind::IssPbft,
        ProtocolKind::RccPbft,
        ProtocolKind::MirPbft,
        ProtocolKind::DqbftPbft,
    ];
}

/// Full system configuration.
///
/// Defaults follow §6.1: `m = n` (every replica leads one instance),
/// 500-byte transactions, 4096-transaction batches, epoch length
/// `l(e) = 64`, and the per-environment total block rate.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Total number of replicas `n = 3f + 1`.
    pub n: usize,
    /// Number of consensus instances `m` (paper evaluation: `m = n`).
    pub m: usize,
    /// Network environment.
    pub env: NetEnv,
    /// Transaction payload size in bytes (paper: 500).
    pub tx_bytes: u64,
    /// Maximum transactions per batch (paper: 4096).
    pub batch_size: u32,
    /// Total block rate across all leaders, blocks/s (paper: 16 WAN, 32 LAN).
    pub total_block_rate: f64,
    /// Epoch length in ranks, `l(e)` (paper: 64).
    pub epoch_length: u64,
    /// PBFT/HotStuff view-change timeout (paper Fig. 8 uses 10 s).
    pub view_change_timeout: TimeNs,
    /// Number of Ladon-opt sub-keys `K` per replica (§5.3).
    pub opt_keys: u32,
    /// RCC: remove a leader once its instance lags by this many blocks.
    ///
    /// Note: §6.1's honest stragglers stay under every detection
    /// mechanism (the paper measures RCC losing ≈ 90 % throughput to one
    /// straggler, so its removal never fires there); the experiment runner
    /// raises this threshold for straggler runs accordingly.
    pub rcc_lag_threshold: u64,
    /// ISS/Mir: deliver ⊥ (ISS) or suspect the leader (Mir) if an instance
    /// produces nothing for this long. The paper's honest stragglers stay
    /// under this bound so the mechanisms do not fire.
    pub quiet_leader_timeout: TimeNs,
    /// Accepted (and validated to `1..=MERKLE_LANES`) for source
    /// compatibility with `benchmark/`; no effect — execution applies
    /// ops in block order on one thread.
    pub exec_lanes: u32,
    /// Accounts in the execution key space (the synthetic workload derives
    /// every op over `0..exec_keyspace`).
    pub exec_keyspace: u32,
    /// Kept for source compatibility with frozen `benchmark/`; no effect.
    pub wal_lane_groups: u32,
    /// Records a WAL segment holds before it is sealed (immutable) and
    /// the log rolls to a fresh active segment (≥ 1). Smaller
    /// segments = finer-grained compaction deletes and recovery skips,
    /// more manifest churn.
    pub wal_segment_records: u32,
}

impl SystemConfig {
    /// Builds the paper's default configuration for `n` replicas in `env`.
    pub fn paper_default(n: usize, env: NetEnv) -> Self {
        Self {
            n,
            m: n,
            env,
            tx_bytes: 500,
            batch_size: 4096,
            total_block_rate: env.default_total_block_rate(),
            epoch_length: 64,
            view_change_timeout: TimeNs::from_secs(10),
            opt_keys: 16,
            rcc_lag_threshold: 16,
            quiet_leader_timeout: TimeNs::from_secs(30),
            exec_lanes: 4,
            exec_keyspace: 4096,
            wal_lane_groups: 1,
            wal_segment_records: 1024,
        }
    }

    /// Fault threshold `f = ⌊(n − 1) / 3⌋`.
    #[inline]
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Quorum size `2f + 1`.
    #[inline]
    pub fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// Per-leader proposal interval implied by the total block rate:
    /// each of the `m` leaders proposes every `m / total_rate` seconds.
    pub fn proposal_interval(&self) -> TimeNs {
        TimeNs::from_secs_f64(self.m as f64 / self.total_block_rate)
    }

    /// The rank range `[minRank(e), maxRank(e)]` of epoch `e` (§5.2.1):
    /// `minRank(0) = 0`, `maxRank(e) = minRank(e) + l(e) − 1`,
    /// `minRank(e) = maxRank(e−1) + 1`.
    pub fn rank_range(&self, epoch: Epoch) -> (Rank, Rank) {
        let min = epoch.0 * self.epoch_length;
        (Rank(min), Rank(min + self.epoch_length - 1))
    }

    /// Snapshot serving minimum gap: a sync responder ships its latest
    /// execution snapshot only when the requester's applied frontier lags
    /// it by at least this many blocks. Smaller gaps are repaired by log
    /// entries alone — shipping a full-keyspace snapshot to a replica one
    /// block behind wastes ~50 KiB per probe. Capped at one epoch:
    /// snapshots are captured once per epoch and consensus instances only
    /// retain roughly an epoch of committed rounds, so a larger threshold
    /// would leave a deep lagger a dead zone where neither log entries
    /// (pruned) nor a snapshot (gap "too small") repair it.
    pub fn snapshot_min_lag(&self) -> u64 {
        SNAPSHOT_MIN_LAG.min(self.epoch_length)
    }

    /// The epoch that owns a given rank.
    pub fn epoch_of_rank(&self, rank: Rank) -> Epoch {
        Epoch(rank.0 / self.epoch_length)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), crate::error::LadonError> {
        use crate::error::LadonError;
        if self.n < 4 {
            return Err(LadonError::Config(format!(
                "n = {} but BFT requires n >= 4",
                self.n
            )));
        }
        if self.m == 0 || self.m > self.n {
            return Err(LadonError::Config(format!(
                "m = {} must be in 1..={}",
                self.m, self.n
            )));
        }
        if self.epoch_length == 0 {
            return Err(LadonError::Config("epoch_length must be > 0".into()));
        }
        if self.total_block_rate <= 0.0 || self.total_block_rate.is_nan() {
            return Err(LadonError::Config(format!(
                "total_block_rate = {} must be positive",
                self.total_block_rate
            )));
        }
        if self.opt_keys == 0 {
            return Err(LadonError::Config("opt_keys must be > 0".into()));
        }
        if self.exec_lanes == 0 || self.exec_lanes > MERKLE_LANES {
            return Err(LadonError::Config(format!(
                "exec_lanes = {} must be in 1..={MERKLE_LANES}",
                self.exec_lanes
            )));
        }
        if self.exec_keyspace == 0 {
            return Err(LadonError::Config("exec_keyspace must be > 0".into()));
        }
        if self.wal_segment_records == 0 {
            return Err(LadonError::Config("wal_segment_records must be > 0".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SystemConfig::paper_default(16, NetEnv::Wan);
        assert_eq!(c.f(), 5);
        assert_eq!(c.quorum(), 11);
        assert_eq!(c.m, 16);
        assert_eq!(c.tx_bytes, 500);
        assert_eq!(c.batch_size, 4096);
        assert_eq!(c.epoch_length, 64);
        assert!((c.total_block_rate - 16.0).abs() < 1e-9);
        c.validate().unwrap();
    }

    #[test]
    fn lan_block_rate_doubles() {
        let c = SystemConfig::paper_default(16, NetEnv::Lan);
        assert!((c.total_block_rate - 32.0).abs() < 1e-9);
    }

    #[test]
    fn proposal_interval_scales_with_m() {
        let c = SystemConfig::paper_default(16, NetEnv::Wan);
        // 16 instances at 16 blocks/s total => 1 block/s per leader.
        assert_eq!(c.proposal_interval(), TimeNs::from_secs(1));
        let mut c2 = c.clone();
        c2.m = 8;
        assert_eq!(c2.proposal_interval(), TimeNs::from_millis(500));
    }

    #[test]
    fn rank_ranges_tile_the_integers() {
        let c = SystemConfig::paper_default(16, NetEnv::Wan);
        let (min0, max0) = c.rank_range(Epoch(0));
        let (min1, max1) = c.rank_range(Epoch(1));
        assert_eq!(min0, Rank(0));
        assert_eq!(max0, Rank(63));
        assert_eq!(min1, Rank(64));
        assert_eq!(max1, Rank(127));
        assert_eq!(c.epoch_of_rank(Rank(63)), Epoch(0));
        assert_eq!(c.epoch_of_rank(Rank(64)), Epoch(1));
    }

    #[test]
    fn exec_knobs_validated() {
        let c = SystemConfig::paper_default(16, NetEnv::Wan);
        assert_eq!(c.exec_lanes, 4);
        assert_eq!(c.exec_keyspace, 4096);
        assert_eq!(c.snapshot_min_lag(), 16);

        let mut bad = c.clone();
        bad.exec_lanes = 0;
        assert!(bad.validate().is_err());

        let mut bad = c.clone();
        bad.exec_lanes = MERKLE_LANES + 1;
        assert!(bad.validate().is_err());

        let mut bad = c.clone();
        bad.exec_keyspace = 0;
        assert!(bad.validate().is_err());

        // A min-lag beyond the log retention window would strand deep
        // laggers (neither entries nor snapshot served), so a shrunken
        // epoch pulls it down with it.
        let mut short = c.clone();
        short.epoch_length = 8;
        assert_eq!(short.snapshot_min_lag(), 8);

        let mut ok = c;
        ok.exec_lanes = MERKLE_LANES;
        ok.validate().unwrap();
    }

    #[test]
    fn wal_knobs_validated() {
        let c = SystemConfig::paper_default(16, NetEnv::Wan);
        assert_eq!(c.wal_segment_records, 1024);

        let mut bad = c.clone();
        bad.wal_segment_records = 0;
        assert!(bad.validate().is_err());

        let mut ok = c;
        ok.wal_segment_records = 1;
        ok.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SystemConfig::paper_default(16, NetEnv::Wan);
        c.n = 3;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default(16, NetEnv::Wan);
        c.m = 17;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default(16, NetEnv::Wan);
        c.epoch_length = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default(16, NetEnv::Wan);
        c.total_block_rate = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn protocol_kind_properties() {
        assert!(ProtocolKind::LadonPbft.is_dynamic_ordering());
        assert!(ProtocolKind::DqbftPbft.is_dynamic_ordering());
        assert!(!ProtocolKind::IssPbft.is_dynamic_ordering());
        assert!(ProtocolKind::LadonHotStuff.is_hotstuff());
        assert!(!ProtocolKind::LadonPbft.is_hotstuff());
        assert_eq!(ProtocolKind::LadonPbft.label(), "Ladon");
        assert_eq!(ProtocolKind::PBFT_FAMILY.len(), 5);
    }
}
