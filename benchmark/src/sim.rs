//! The three simulator workloads: a full Multi-BFT deployment under the
//! discrete-event engine, timed from outside.
//!
//! One repetition builds the deployment from the seed, runs the warm-up
//! (set-up), the measurement window and the drain, and hands back both
//! what a user sees (confirmed transactions, latencies, wall and CPU
//! time of the window) and the raw counters the per-layer ledger is
//! computed from. `SystemConfig::paper_default` is used unmodified
//! except for the dimensions a workload names.

use crate::alloc::{self, AllocStats};
use crate::check;
use crate::procstat::ProcUsage;
use crate::trace::{self, Traced};
use ladon_core::{Behavior, MultiBftNode, NodeConfig, NodeMetrics, NodeMsg};
use ladon_crypto::{CryptoCounters, KeyRegistry};
use ladon_sim::{Engine, NetStats, NicNetwork, Topology};
use ladon_state::ExecSchedStats;
use ladon_types::{NetEnv, ProtocolKind, ReplicaId, SystemConfig, TimeNs};
use ladon_workload::{aggregate, ClientFleet, ExperimentConfig, Report, RunData};
use std::time::Instant;

/// A simulator workload: the dimensions it fixes on top of the paper
/// defaults, and its simulated-clock schedule.
pub struct SimWorkload {
    pub name: &'static str,
    pub protocol: ProtocolKind,
    pub n: usize,
    pub env: NetEnv,
    /// Batch-size override; `None` keeps the paper's 4096.
    pub batch_size: Option<u32>,
    /// Replica 1 is an honest straggler with this slowdown factor.
    pub straggler_k: Option<f64>,
    /// Offered load as a share of nominal capacity
    /// (`total_block_rate × batch_size`).
    pub load: f64,
    pub warmup_s: f64,
    pub window_s: f64,
    pub drain_s: f64,
}

pub const SIM_WORKLOADS: [SimWorkload; 3] = [
    SimWorkload {
        name: "exec_heavy_n4",
        protocol: ProtocolKind::LadonPbft,
        n: 4,
        env: NetEnv::Lan,
        batch_size: None,
        straggler_k: None,
        // At exactly nominal capacity every leader's bucket queue is a
        // random walk (arrivals equal the 4096-tx service per proposal),
        // and p50/p95 vary 8 %/18 % from seed to seed; at 0.9 they vary
        // under 3 %, so a regression can be told from the seed.
        load: 0.9,
        warmup_s: 2.0,
        window_s: 8.0,
        drain_s: 2.0,
    },
    SimWorkload {
        name: "straggler_n16",
        protocol: ProtocolKind::LadonPbft,
        n: 16,
        env: NetEnv::Wan,
        batch_size: Some(32),
        straggler_k: Some(10.0),
        load: 1.0,
        warmup_s: 20.0,
        window_s: 160.0,
        drain_s: 20.0,
    },
    SimWorkload {
        name: "hotstuff_n16",
        protocol: ProtocolKind::LadonHotStuff,
        n: 16,
        env: NetEnv::Lan,
        batch_size: Some(32),
        straggler_k: None,
        load: 1.0,
        warmup_s: 10.0,
        window_s: 140.0,
        drain_s: 10.0,
    },
];

/// The replica whose confirmed log is the user's view (replica 1 is the
/// straggler where there is one).
pub const REFERENCE: usize = 0;

impl SimWorkload {
    fn experiment(&self, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(self.protocol, self.n, self.env).with_seed(seed);
        if let Some(k) = self.straggler_k {
            cfg = cfg.with_stragglers(1, k);
        }
        if let Some(b) = self.batch_size {
            cfg = cfg.with_batch_size(b);
        }
        cfg
    }

    /// The system configuration the workload runs.
    pub fn system(&self, seed: u64) -> SystemConfig {
        self.experiment(seed).system()
    }

    /// Min / median / max one-way propagation delay between replicas, in
    /// milliseconds: the injected delay the simulated latencies reflect.
    pub fn one_way_delay_ms(&self) -> (f64, f64, f64) {
        let topo = Topology::paper(self.env, self.n + 1);
        let mut d: Vec<f64> = (0..self.n)
            .flat_map(|a| (0..self.n).filter(move |&b| b != a).map(move |b| (a, b)))
            .map(|(a, b)| topo.base_latency(a, b).as_millis_f64())
            .collect();
        d.sort_by(f64::total_cmp);
        (d[0], d[d.len() / 2], d[d.len() - 1])
    }
}

/// What one repetition measured.
pub struct SimRep {
    /// Rep start → window start: key generation, actor construction and
    /// the warm-up phase.
    pub setup_s: f64,
    /// Wall seconds the engine spent on the window.
    pub window_wall_s: f64,
    /// CPU the process used during the window.
    pub window_cpu: ProcUsage,
    /// CPU and faults over the whole repetition.
    pub rep_usage: ProcUsage,
    /// Allocations during the window (zero unless counting is on).
    pub window_allocs: AllocStats,
    /// Transactions / blocks confirmed at the reference replica inside
    /// the window.
    pub window_txs: u64,
    pub window_blocks: u64,
    /// `(latency_ms, tx_count)` per block confirmed in the window: mean
    /// client arrival → global confirmation at the reference replica.
    pub latency: Vec<(f64, u64)>,
    /// Transactions the fleet submitted, and how many of them the
    /// reference replica had confirmed when the drain ended.
    pub submitted: u64,
    pub confirmed_at_end: u64,
    /// `aggregate(&RunData)` over the window, and what it cost.
    pub report: Report,
    pub aggregate_ms: f64,
    pub events_window: u64,
    pub events_total: u64,
    pub net: NetStats,
    pub crypto: CryptoCounters,
    /// Σ over replicas of `wall_exec_ns` / WAL counters in the window.
    pub exec_ns_window: u64,
    pub fsyncs_window: u64,
    pub wal_bytes_window: u64,
    pub barriers_window: u64,
    pub wal_flush_ns_window: u64,
    pub flush_failures: u64,
    pub exec_gaps: u64,
    pub waiting_peak: usize,
    pub sched: ExecSchedStats,
    pub snapshot_bytes: u64,
    pub commits_at_end: u64,
    pub confirms_at_end: u64,
    pub view_changes: u64,
    pub epochs: u64,
    pub violations: Vec<String>,
}

impl SimRep {
    pub fn wall_ktps(&self) -> f64 {
        self.window_txs as f64 / self.window_wall_s / 1e3
    }

    pub fn delivered_share(&self) -> f64 {
        self.confirmed_at_end as f64 / self.submitted as f64
    }

    pub fn cpu_ms_per_ktx(&self) -> f64 {
        self.window_cpu.cpu_s() * 1e3 / (self.window_txs as f64 / 1e3)
    }

    /// Everything that must repeat exactly across repetitions of one
    /// seed: simulated-clock results and exact counts.
    pub fn fingerprint(&self) -> String {
        let lat_sum: f64 = self.latency.iter().map(|&(l, w)| l * w as f64).sum();
        format!(
            "events={} window_txs={} window_blocks={} submitted={} confirmed={} \
             clock_ktps={:?} mean_latency_s={:?} latency_sum={lat_sum:?} fsyncs={} \
             wal_bytes={} msgs={} bytes={} crypto={:?} waves={} waiting_peak={}",
            self.events_total,
            self.window_txs,
            self.window_blocks,
            self.submitted,
            self.confirmed_at_end,
            self.report.throughput_ktps,
            self.report.mean_latency_s,
            self.fsyncs_window,
            self.wal_bytes_window,
            self.net.total_msgs(),
            self.net.total_bytes(),
            self.crypto,
            self.sched.waves,
            self.waiting_peak,
        )
    }
}

/// Σ over replicas of the cumulative pipeline counters the ledger takes
/// window deltas of: `(wall_exec_ns, wal_fsyncs, wal_bytes, barriers,
/// wall_wal_flush_ns)`.
fn pipeline_totals(engine: &Engine<NodeMsg>, n: usize) -> [u64; 5] {
    let mut t = [0u64; 5];
    for r in 0..n {
        let m = &node(engine, r).metrics;
        t[0] += m.wall_exec_ns;
        t[1] += m.wal_fsyncs;
        t[2] += m.wal_bytes_written;
        t[3] += m.flush_barriers;
        t[4] += m.wall_wal_flush_ns;
    }
    t
}

fn node(engine: &Engine<NodeMsg>, r: usize) -> &MultiBftNode {
    engine
        .actor_as::<MultiBftNode>(r)
        .expect("actors 0..n are replicas")
}

/// Runs the engine to `until` in one-simulated-second slices, each a
/// parent span, sampling the reference replica's waiting queue between
/// slices.
fn run_sliced(
    engine: &mut Engine<NodeMsg>,
    until: TimeNs,
    span: &'static str,
    waiting_peak: &mut usize,
) {
    while engine.now() < until {
        let next = (engine.now() + TimeNs::from_secs(1)).min(until);
        trace::parent(span, || engine.run_until(next));
        *waiting_peak = (*waiting_peak).max(node(engine, REFERENCE).waiting_count());
    }
}

/// Runs one repetition. With `traced`, every actor is wrapped in
/// [`Traced`] (the caller has started the recorder).
pub fn run_rep(w: &SimWorkload, seed: u64, traced: bool) -> SimRep {
    let rep_t0 = Instant::now();
    let usage0 = ProcUsage::now();
    let cfg = w.experiment(seed);
    let sys = cfg.system();
    sys.validate().expect("workload configuration is valid");
    let n = sys.n;

    let registry = KeyRegistry::generate(n, sys.opt_keys, seed ^ 0x5eed);
    let net = NicNetwork::new(Topology::paper(w.env, n + 1)); // +1: the client fleet
    let mut engine: Engine<NodeMsg> = Engine::new(net, seed);

    let warmup = TimeNs::from_secs_f64(w.warmup_s);
    let end = warmup + TimeNs::from_secs_f64(w.window_s);
    let drained = end + TimeNs::from_secs_f64(w.drain_s);

    for r in 0..n {
        let node = MultiBftNode::new(NodeConfig {
            sys: sys.clone(),
            protocol: w.protocol,
            me: ReplicaId(r as u32),
            registry: registry.clone(),
            behavior: Behavior {
                straggler_k: w.straggler_k.filter(|_| r == 1),
                ..Behavior::default()
            },
            sample_interval: None,
        });
        if traced {
            engine.add_actor(Box::new(Traced::new(node, r as u32, &trace::NODE)));
        } else {
            engine.add_actor(Box::new(node));
        }
    }
    // Open loop on the simulated clock, a share of nominal capacity.
    let tx_rate = sys.total_block_rate * sys.batch_size as f64 * w.load;
    let fleet = ClientFleet::new(n, sys.m, tx_rate, sys.tx_bytes, end);
    if traced {
        engine.add_actor(Box::new(Traced::new(fleet, n as u32, &trace::CLIENT)));
    } else {
        engine.add_actor(Box::new(fleet));
    }

    CryptoCounters::reset();
    let mut waiting_peak = 0;
    run_sliced(&mut engine, warmup, "warmup", &mut waiting_peak);
    let setup_s = rep_t0.elapsed().as_secs_f64();

    // The measurement window.
    waiting_peak = 0;
    let stats0 = engine.stats().clone();
    let crypto0 = CryptoCounters::snapshot();
    let events0 = engine.events_processed();
    let pipe0 = pipeline_totals(&engine, n);
    let allocs0 = alloc::now();
    let cpu0 = ProcUsage::now();
    let t0 = Instant::now();
    run_sliced(&mut engine, end, "slice", &mut waiting_peak);
    let window_wall_s = t0.elapsed().as_secs_f64();
    let window_cpu = ProcUsage::now().since(&cpu0);
    let window_allocs = alloc::now().since(&allocs0);
    let pipe1 = pipeline_totals(&engine, n);
    let events_window = engine.events_processed() - events0;
    let crypto = CryptoCounters::snapshot().since(&crypto0);
    let net = engine.stats().since(&stats0);

    // Drain: the fleet stopped at `end`; the tail confirms.
    let mut drain_peak = 0;
    run_sliced(&mut engine, drained, "drain", &mut drain_peak);

    let nodes: Vec<NodeMetrics> = (0..n).map(|r| node(&engine, r).metrics.clone()).collect();
    let reference = node(&engine, REFERENCE);
    let submitted = engine
        .actor_as::<ClientFleet>(n)
        .expect("actor n is the client fleet")
        .submitted;

    let mut window_txs = 0u64;
    let mut window_blocks = 0u64;
    let mut latency = Vec::new();
    for c in &reference.metrics.confirms {
        if c.is_nil || c.tx_count == 0 || c.time < warmup || c.time >= end {
            continue;
        }
        window_txs += c.tx_count as u64;
        window_blocks += 1;
        let mean_arrival = TimeNs((c.arrival_sum_ns / c.tx_count as u128) as u64);
        latency.push((
            c.time.saturating_sub(mean_arrival).as_millis_f64(),
            c.tx_count as u64,
        ));
    }

    let data = RunData {
        nodes,
        f: sys.f(),
        window_start: warmup,
        window_end: end,
        reference: REFERENCE,
        waiting_blocks: reference.waiting_count(),
    };
    let agg_t0 = Instant::now();
    let report = aggregate(&data);
    let aggregate_ms = agg_t0.elapsed().as_secs_f64() * 1e3;
    let nodes = data.nodes;

    let violations = check::check_sim(&nodes, &report, w.straggler_k.is_none());
    SimRep {
        setup_s,
        window_wall_s,
        window_cpu,
        window_allocs,
        window_txs,
        window_blocks,
        latency,
        submitted,
        confirmed_at_end: reference.metrics.confirmed_txs,
        aggregate_ms,
        events_window,
        events_total: engine.events_processed(),
        net,
        crypto,
        exec_ns_window: pipe1[0] - pipe0[0],
        fsyncs_window: pipe1[1] - pipe0[1],
        wal_bytes_window: pipe1[2] - pipe0[2],
        barriers_window: pipe1[3] - pipe0[3],
        wal_flush_ns_window: pipe1[4] - pipe0[4],
        flush_failures: report.wal_flush_failures,
        exec_gaps: nodes.iter().map(|m| m.exec_gaps).sum(),
        waiting_peak,
        sched: reference.exec.sched_stats(),
        snapshot_bytes: reference
            .exec
            .latest_snapshot()
            .map_or(0, |s| s.encode().len() as u64),
        commits_at_end: reference.metrics.commits.len() as u64,
        confirms_at_end: reference.metrics.confirms.len() as u64,
        view_changes: nodes.iter().map(|m| m.view_changes.len() as u64).sum(),
        epochs: reference.metrics.epochs.len() as u64,
        report,
        violations,
        rep_usage: ProcUsage::now().since(&usage0),
    }
}
