//! The one place a run is assembled.
//!
//! Every cluster in the repository — experiments, integration tests,
//! figures, examples — is the paper's §6.1 setup with a few parameters
//! turned: `n` replicas leading `m = n` instances, stragglers and a crash
//! scripted per replica, the LAN/WAN NIC model, and one open-loop client
//! fleet offering a share of nominal capacity. [`Deployment::build`] is
//! the only code that knows how those pieces are derived from an
//! [`ExperimentConfig`] and in which order they become actors (replicas
//! `0..n`, then the fleet), so two runs of one configuration are the same
//! run whoever asked for them.

use crate::client::ClientFleet;
use crate::oracle::{self, Verdict};
use crate::runner::ExperimentConfig;
use ladon_core::{Behavior, MultiBftNode, NodeConfig, NodeMsg};
use ladon_crypto::KeyRegistry;
use ladon_sim::{Actor, Engine, Network, NicNetwork, Topology};
use ladon_state::ExecutionPipeline;
use ladon_types::{ReplicaId, SystemConfig, TimeNs};

/// Actors as the threaded `LiveRuntime` takes them.
pub type LiveActors = Vec<Box<dyn Actor<NodeMsg> + Send>>;

/// A deployment under the deterministic engine, not yet run.
pub struct Deployment {
    /// The engine; replicas are actors `0..n`, the client fleet is `n`.
    pub engine: Engine<NodeMsg>,
    /// The system configuration every replica runs.
    pub sys: SystemConfig,
    /// The PKI oracle shared by all replicas.
    pub registry: KeyRegistry,
    cfg: ExperimentConfig,
}

/// The system configuration and keys `cfg` implies.
fn derive(cfg: &ExperimentConfig) -> (SystemConfig, KeyRegistry) {
    let sys = cfg.system();
    sys.validate().expect("invalid experiment configuration");
    let registry = KeyRegistry::generate(sys.n, sys.opt_keys, cfg.seed ^ 0x5eed);
    (sys, registry)
}

/// The network model: the paper topology over the replicas plus one
/// client actor, with the scripted partitions and loss.
fn network(cfg: &ExperimentConfig) -> NicNetwork {
    let mut net = NicNetwork::new(Topology::paper(cfg.env, cfg.n + 1));
    net.drop_probability = cfg.loss_probability;
    for &(r, from, until) in &cfg.partitions {
        net.partition(r, TimeNs::from_secs_f64(from), TimeNs::from_secs_f64(until));
    }
    net
}

fn node_config(
    cfg: &ExperimentConfig,
    sys: &SystemConfig,
    registry: &KeyRegistry,
    r: usize,
) -> NodeConfig {
    let straggler = cfg.is_straggler(r);
    NodeConfig {
        sys: sys.clone(),
        protocol: cfg.protocol,
        me: ReplicaId(r as u32),
        registry: registry.clone(),
        behavior: Behavior {
            straggler_k: straggler.then_some(cfg.straggler_k),
            rank_minimize: cfg.byzantine_stragglers && straggler,
            crash_at: cfg
                .crash
                .and_then(|(cr, at)| (cr == r).then(|| TimeNs::from_secs_f64(at))),
        },
        sample_interval: cfg.sample_interval_s.map(TimeNs::from_secs_f64),
    }
}

/// The actors of a run, in the order every driver registers them:
/// replicas `0..n` — over `exec(r)`, or the default in-memory pipeline —
/// then the client fleet offering `load_factor` of nominal capacity
/// (`total_block_rate × batch_size`) until the measurement window ends.
fn actors(
    cfg: &ExperimentConfig,
    sys: &SystemConfig,
    registry: &KeyRegistry,
    mut exec: impl FnMut(usize) -> Option<ExecutionPipeline>,
) -> LiveActors {
    let mut out: LiveActors = Vec::with_capacity(sys.n + 1);
    for r in 0..sys.n {
        let node_cfg = node_config(cfg, sys, registry, r);
        out.push(Box::new(match exec(r) {
            Some(exec) => MultiBftNode::with_execution(node_cfg, exec),
            None => MultiBftNode::new(node_cfg),
        }));
    }
    let tx_rate = sys.total_block_rate * sys.batch_size as f64 * cfg.load_factor;
    let (_, submit_until) = cfg.window();
    out.push(Box::new(ClientFleet::new(
        sys.n,
        sys.m,
        tx_rate,
        sys.tx_bytes,
        submit_until,
    )));
    out
}

impl Deployment {
    /// Assembles the deployment `cfg` describes.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        let (sys, registry) = derive(cfg);
        let mut engine: Engine<NodeMsg> = Engine::new(network(cfg), cfg.seed);
        for actor in actors(cfg, &sys, &registry, |_| None) {
            engine.add_actor(actor);
        }
        Self {
            engine,
            sys,
            registry,
            cfg: cfg.clone(),
        }
    }

    /// The same deployment for the threaded, wall-clock `LiveRuntime`
    /// (whose actors must be `Send`, which the engine's are not required
    /// to be): its actors, replica `r` running over `exec(sys, r)`, and
    /// its network.
    pub fn live_parts(
        cfg: &ExperimentConfig,
        mut exec: impl FnMut(&SystemConfig, usize) -> ExecutionPipeline,
    ) -> (LiveActors, Box<dyn Network + Send>) {
        let (sys, registry) = derive(cfg);
        let actors = actors(cfg, &sys, &registry, |r| Some(exec(&sys, r)));
        (actors, Box::new(network(cfg)))
    }

    /// Runs until `t` seconds of simulated time.
    pub fn run_secs(&mut self, t: f64) {
        self.engine.run_until(TimeNs::from_secs_f64(t));
    }

    /// The node actor for replica `r`.
    pub fn node(&self, r: usize) -> &MultiBftNode {
        self.engine
            .actor_as::<MultiBftNode>(r)
            .expect("actors 0..n are the replicas")
    }

    /// Replica `r`'s node configuration: identity, keys and its scripted
    /// behavior (for building a detached or replacement node).
    pub fn node_config(&self, r: usize) -> NodeConfig {
        node_config(&self.cfg, &self.sys, &self.registry, r)
    }

    /// Replaces replica `r`'s process with a fresh one over `exec`: a
    /// disk-backed pipeline before the run starts, a recovered (or empty)
    /// one for a restart. A scripted crash that already happened died
    /// with the old process.
    pub fn swap_replica(&mut self, r: usize, exec: ExecutionPipeline) {
        let mut cfg = self.node_config(r);
        let now = self.engine.now();
        cfg.behavior.crash_at = cfg.behavior.crash_at.filter(|&at| at > now);
        let node = MultiBftNode::with_execution(cfg, exec);
        self.engine.restart_actor(r, Box::new(node));
    }

    /// The highest `sn` replica `r`'s orderer has confirmed, or 0 before
    /// any. A replica that fast-forwarded over a snapshot has a *gap* in
    /// its confirm records but the same frontier as its peers, even when
    /// the install came last, so progress comparisons should use this,
    /// not log length.
    pub fn confirmed_frontier(&self, r: usize) -> u64 {
        self.node(r).confirmed_count().saturating_sub(1)
    }

    /// Judges `replicas` (the honest ones) with the safety oracle.
    pub fn check(&self, replicas: &[usize]) -> Verdict {
        let evidence: Vec<_> = replicas
            .iter()
            .map(|&r| (r, &self.node(r).metrics, self.node(r).confirmed_count()))
            .collect();
        oracle::check(&evidence)
    }
}
