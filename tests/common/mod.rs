//! Shared harness for integration tests: builds a full simulated
//! deployment and exposes per-replica state for safety assertions.

use ladon::core::{Behavior, MultiBftNode, NodeConfig, NodeMsg};
use ladon::crypto::KeyRegistry;
use ladon::sim::{Engine, NicNetwork, Topology};
use ladon::types::{NetEnv, ProtocolKind, ReplicaId, SystemConfig, TimeNs};
use ladon::workload::ClientFleet;

/// A deterministic execution-layer block: `count` derived txs starting
/// at `first_tx`, at global position `sn` (direct pipeline tests, no
/// consensus involved). Delegates to the canonical constructor so test
/// roots stay comparable with bench/example roots.
#[allow(dead_code)]
pub fn exec_block(sn: u64, first_tx: u64, count: u32) -> ladon::types::Block {
    ladon::types::Block::synthetic(sn, first_tx, count)
}

/// A running test deployment.
pub struct TestCluster {
    /// The engine; replicas are actors `0..n`, the client fleet is `n`.
    pub engine: Engine<NodeMsg>,
    /// Replica count (not every test target reads every field).
    #[allow(dead_code)]
    pub n: usize,
    /// System configuration used.
    #[allow(dead_code)]
    pub sys: SystemConfig,
    /// The PKI oracle (restart scenarios rebuild nodes with it).
    #[allow(dead_code)]
    pub registry: KeyRegistry,
    /// Protocol under test.
    #[allow(dead_code)]
    pub protocol: ProtocolKind,
}

/// Options for building a test cluster.
pub struct ClusterOpts {
    pub protocol: ProtocolKind,
    pub n: usize,
    pub env: NetEnv,
    pub stragglers: Vec<usize>,
    pub straggler_k: f64,
    pub byzantine: bool,
    pub crash: Option<(usize, f64)>,
    pub seed: u64,
    pub load_factor: f64,
    pub submit_until_s: f64,
    pub epoch_length: Option<u64>,
    /// Override the PBFT view-change timeout (seconds).
    pub view_timeout_s: Option<f64>,
    /// Partition windows `(replica, from_s, until_s)`: the replica is
    /// disconnected from everyone inside the window.
    pub partitions: Vec<(usize, f64, f64)>,
    /// Probability each message is silently dropped (robustness tests;
    /// the paper assumes reliable links).
    pub loss_probability: f64,
    /// Override the execution keyspace size.
    pub exec_keyspace: Option<u32>,
    /// Override the cross-drain group-commit threshold (staged WAL
    /// records accumulated across confirmed-queue drains before the
    /// flush + apply barrier runs).
    pub wal_flush_max_records: Option<u32>,
}

impl Default for ClusterOpts {
    fn default() -> Self {
        Self {
            protocol: ProtocolKind::LadonPbft,
            n: 4,
            env: NetEnv::Lan,
            stragglers: Vec::new(),
            straggler_k: 10.0,
            byzantine: false,
            crash: None,
            seed: 7,
            load_factor: 1.0,
            submit_until_s: 5.0,
            epoch_length: None,
            view_timeout_s: None,
            partitions: Vec::new(),
            loss_probability: 0.0,
            exec_keyspace: None,
            wal_flush_max_records: None,
        }
    }
}

/// Builds a deployment ready to run.
pub fn cluster(opts: ClusterOpts) -> TestCluster {
    let mut sys = SystemConfig::paper_default(opts.n, opts.env);
    if let Some(l) = opts.epoch_length {
        sys.epoch_length = l;
        // Keep the snapshot-serving policy inside the (possibly
        // shrunken) log retention window.
        sys.snapshot_min_lag = sys.snapshot_min_lag.min(l);
    }
    if let Some(t) = opts.view_timeout_s {
        sys.view_change_timeout = TimeNs::from_secs_f64(t);
    }
    if let Some(k) = opts.exec_keyspace {
        sys.exec_keyspace = k;
    }
    if let Some(t) = opts.wal_flush_max_records {
        sys.wal_flush_max_records = t;
    }
    sys.validate()
        .expect("cluster options produced a bad config");
    let registry = KeyRegistry::generate(opts.n, sys.opt_keys, opts.seed ^ 0x5eed);
    let topo = Topology::paper(opts.env, opts.n + 1);
    let mut net = NicNetwork::new(topo);
    net.drop_probability = opts.loss_probability;
    for &(r, from, until) in &opts.partitions {
        net.partition(r, TimeNs::from_secs_f64(from), TimeNs::from_secs_f64(until));
    }
    let mut engine: Engine<NodeMsg> = Engine::new(net, opts.seed);
    for r in 0..opts.n {
        let behavior = Behavior {
            straggler_k: opts.stragglers.contains(&r).then_some(opts.straggler_k),
            rank_minimize: opts.byzantine && opts.stragglers.contains(&r),
            stale_rank_reports: false,
            crash_at: opts
                .crash
                .and_then(|(cr, at)| (cr == r).then(|| TimeNs::from_secs_f64(at))),
        };
        engine.add_actor(Box::new(MultiBftNode::new(NodeConfig {
            sys: sys.clone(),
            protocol: opts.protocol,
            me: ReplicaId(r as u32),
            registry: registry.clone(),
            behavior,
            sample_interval: None,
        })));
    }
    let tx_rate = sys.total_block_rate * sys.batch_size as f64 * opts.load_factor;
    engine.add_actor(Box::new(ClientFleet::new(
        opts.n,
        sys.m,
        tx_rate,
        sys.tx_bytes,
        TimeNs::from_secs_f64(opts.submit_until_s),
    )));
    TestCluster {
        engine,
        n: opts.n,
        sys,
        registry,
        protocol: opts.protocol,
    }
}

impl TestCluster {
    /// Runs until `t` seconds of simulated time.
    pub fn run_secs(&mut self, t: f64) {
        self.engine.run_until(TimeNs::from_secs_f64(t));
    }

    /// The node actor for replica `r`.
    pub fn node(&self, r: usize) -> &MultiBftNode {
        self.engine.actor_as::<MultiBftNode>(r).expect("replica")
    }

    /// The confirmed global log of replica `r` as
    /// `(sn, instance, round, rank, digest-ish)` tuples, sorted by `sn`.
    pub fn confirmed_log(&self, r: usize) -> Vec<(u64, u32, u64, u64)> {
        let mut log: Vec<(u64, u32, u64, u64)> = self
            .node(r)
            .metrics
            .confirms
            .iter()
            .map(|c| (c.sn, c.instance, c.round, c.rank))
            .collect();
        log.sort_unstable();
        log
    }

    /// The highest `sn` replica `r` has confirmed (its log frontier), or 0
    /// for an empty log. A replica that fast-forwarded over a snapshot has
    /// a *gap* in its confirm records but the same frontier as its peers,
    /// so progress comparisons should use this, not log length.
    #[allow(dead_code)]
    pub fn confirmed_frontier(&self, r: usize) -> u64 {
        self.node(r)
            .metrics
            .confirms
            .iter()
            .map(|c| c.sn)
            .max()
            .unwrap_or(0)
    }

    /// Asserts G-Agreement: every pair of honest replicas' confirmed logs
    /// agree at every `sn` both have recorded. Joined on `sn` rather than
    /// log position because a replica that installed an execution snapshot
    /// legitimately skips the confirm records the snapshot covers.
    pub fn assert_agreement(&self, honest: &[usize]) {
        let logs: Vec<_> = honest.iter().map(|&r| self.confirmed_log(r)).collect();
        for (ai, a) in logs.iter().enumerate() {
            for (bi, b) in logs.iter().enumerate().skip(ai + 1) {
                let bmap: std::collections::HashMap<u64, &(u64, u32, u64, u64)> =
                    b.iter().map(|e| (e.0, e)).collect();
                for ea in a {
                    if let Some(eb) = bmap.get(&ea.0) {
                        assert_eq!(
                            &ea, eb,
                            "replicas {} and {} disagree at sn {}",
                            honest[ai], honest[bi], ea.0
                        );
                    }
                }
            }
        }
    }
}
