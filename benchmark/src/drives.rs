//! Layer drives: each calls one layer's public functions directly, with
//! inputs shaped like the workload (replica count, batch size, straggler
//! pattern), so a ledger row can be reproduced without the rest of the
//! system. They run in the traced pass, each for a slice of its budget.

use crate::durable::ScratchDir;
use crate::stats::{median, Samples};
use ladon_core::{GlobalOrderer, LadonOrderer};
use ladon_crypto::{sha256, AggregateSignature, KeyRegistry, RankCert, Signature};
use ladon_hotstuff::{Action as HsAction, HsConfig, HsInstance, HsMsg, HsRankMode};
use ladon_obs::{Stage, TraceJournal};
use ladon_pbft::testkit::{test_batch, Cluster};
use ladon_pbft::RankMode;
use ladon_sim::{Actor, ActorId, Context, Engine, NicNetwork, Topology};
use ladon_state::{ExecutionPipeline, FileBackend, WalBackend, ENCODED_RECORD_LEN, TRAILER_LEN};
use ladon_types::{Block, InstanceId, NetEnv, Rank, ReplicaId, Round, TimeNs, WireSize};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The workload dimensions the drives are shaped by.
pub struct Shape {
    pub n: usize,
    pub env: NetEnv,
    pub batch_size: u32,
    /// Instance 1 commits one block for every `k` of the others.
    pub straggler_k: Option<u64>,
    pub exec_lanes: u32,
    pub keyspace: u32,
    pub seed: u64,
}

impl Shape {
    fn quorum(&self) -> usize {
        2 * ((self.n - 1) / 3) + 1
    }
}

/// Calls `step` (which reports how many units of work it did) until
/// `budget` has passed; returns nanoseconds per unit.
fn ns_per_unit(budget: Duration, mut step: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut units = 0u64;
    loop {
        units += step();
        let elapsed = t0.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / units.max(1) as f64;
        }
    }
}

/// Runs every drive; `budget_s` is shared out evenly.
pub fn run_all(shape: &Shape, budget_s: f64) -> std::io::Result<Vec<(&'static str, f64)>> {
    let slot = Duration::from_secs_f64(budget_s / 12.0);
    let mut out = Vec::new();
    out.push(("sim.drive.ns_per_event", sim_dispatch(shape, slot)));
    out.push(("core.ordering.drive.ns_per_block", ordering(shape, slot)));
    let (ns, msgs) = pbft(shape, slot);
    out.push(("pbft.drive.ns_per_block_replica", ns));
    out.push(("pbft.drive.msgs_per_block", msgs));
    let (ns, msgs) = hotstuff(shape, slot);
    out.push(("hotstuff.drive.ns_per_block_replica", ns));
    out.push(("hotstuff.drive.msgs_per_block", msgs));
    out.extend(crypto(shape, slot));
    out.push(("state.kv.drive.ns_per_tx.lanes1", kv(shape, 1, slot)));
    out.push((
        "state.kv.drive.ns_per_tx.lanes_default",
        kv(shape, shape.exec_lanes, slot),
    ));
    out.push(("state.wal.drive.fsync_us_p50", fsync(slot)?));
    out.extend(snapshot(shape));
    out.push(("obs.drive.trace_record_ns", trace_record(slot)));
    Ok(out)
}

/// A message that costs nothing to handle.
#[derive(Clone)]
struct Token;

impl WireSize for Token {
    fn wire_size(&self) -> u64 {
        64
    }
}

/// An actor that passes every token on to its neighbour.
struct PassOn {
    peers: usize,
}

impl Actor<Token> for PassOn {
    fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
        let next = (ctx.self_id() + 1) % self.peers;
        for _ in 0..16 {
            ctx.send(next, Token);
        }
    }
    fn on_message(&mut self, _from: ActorId, msg: Token, ctx: &mut dyn Context<Token>) {
        let next = (ctx.self_id() + 1) % self.peers;
        ctx.send(next, msg);
    }
    fn on_timer(&mut self, _timer: u64, _ctx: &mut dyn Context<Token>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// `Engine` + `NicNetwork` dispatch cost with null actors.
fn sim_dispatch(shape: &Shape, budget: Duration) -> f64 {
    let peers = shape.n + 1;
    let net = NicNetwork::new(Topology::paper(shape.env, peers));
    let mut engine: Engine<Token> = Engine::new(net, shape.seed);
    for _ in 0..peers {
        engine.add_actor(Box::new(PassOn { peers }));
    }
    let mut done = 0;
    ns_per_unit(budget, || {
        engine.run_for(TimeNs::from_millis(50));
        let events = engine.events_processed() - done;
        done += events;
        events
    })
}

/// `LadonOrderer::on_partial_commit` under the workload's instance count
/// and straggler pattern: every tick each instance commits its next
/// round at the tick's rank; the straggler only every `k`-th tick.
fn ordering(shape: &Shape, budget: Duration) -> f64 {
    let m = shape.n;
    let mut orderer = LadonOrderer::new(m);
    let mut rounds = vec![0u64; m];
    let mut tick = 0u64;
    ns_per_unit(budget, || {
        tick += 1;
        let mut calls = 0;
        for (i, round) in rounds.iter_mut().enumerate() {
            if i == 1 && shape.straggler_k.is_some_and(|k| !tick.is_multiple_of(k)) {
                continue;
            }
            *round += 1;
            let mut block = Block::synthetic(tick, 0, shape.batch_size);
            block.header.index = InstanceId(i as u32);
            block.header.round = Round(*round);
            block.header.rank = Rank(tick);
            black_box(orderer.on_partial_commit(block, TimeNs::ZERO));
            calls += 1;
        }
        calls
    })
}

/// One PBFT instance over `n` replicas through the testkit cluster:
/// `(ns per block per replica, messages per block)`.
fn pbft(shape: &Shape, budget: Duration) -> (f64, f64) {
    let mut cluster = Cluster::new(shape.n, RankMode::Plain, u64::MAX / 2);
    let mut blocks = 0u64;
    let mut msgs = 0u64;
    let ns = ns_per_unit(budget, || {
        let batch = test_batch(blocks * shape.batch_size as u64, shape.batch_size);
        cluster.now += TimeNs::from_millis(10);
        let actions = cluster.nodes[0].propose(batch, cluster.now, &mut cluster.cur_ranks[0]);
        cluster.absorb(0, actions);
        // `run_to_quiescence`, with the deliveries counted.
        while let Some((to, from, msg)) = cluster.queue.pop_front() {
            msgs += 1;
            let who = to.as_usize();
            let actions =
                cluster.nodes[who].on_message(from, msg, cluster.now, &mut cluster.cur_ranks[who]);
            cluster.absorb(who, actions);
        }
        blocks += 1;
        shape.n as u64
    });
    assert_eq!(
        cluster.committed[0].len() as u64,
        blocks,
        "every driven PBFT block commits"
    );
    (ns, msgs as f64 / blocks as f64)
}

/// One chained-HotStuff instance over `n` replicas, driven through
/// `HsInstance::propose` / `on_message`.
fn hotstuff(shape: &Shape, budget: Duration) -> (f64, f64) {
    let n = shape.n;
    let registry = KeyRegistry::generate(n, 1, shape.seed);
    let mut nodes: Vec<HsInstance> = (0..n)
        .map(|r| {
            HsInstance::new(
                HsConfig {
                    instance: InstanceId(0),
                    me: ReplicaId(r as u32),
                    n,
                    registry: registry.clone(),
                    signer: registry.signer(ReplicaId(r as u32)),
                    mode: HsRankMode::Ladon,
                },
                Rank(0),
                Rank(u64::MAX / 2),
            )
        })
        .collect();
    let mut curs = vec![RankCert::genesis(Rank(0)); n];
    let mut queue: VecDeque<(usize, ReplicaId, HsMsg)> = VecDeque::new();
    let mut committed = 0u64;
    let mut blocks = 0u64;
    let mut msgs = 0u64;
    let ns = ns_per_unit(budget, || {
        let mut absorb = |who: usize, actions: Vec<HsAction>, queue: &mut VecDeque<_>| {
            for a in actions {
                match a {
                    HsAction::Broadcast(m) => {
                        for to in (0..n).filter(|&to| to != who) {
                            queue.push_back((to, ReplicaId(who as u32), m.clone()));
                        }
                    }
                    HsAction::Send(to, m) => {
                        queue.push_back((to.as_usize(), ReplicaId(who as u32), m))
                    }
                    HsAction::Committed(_) if who == 0 => committed += 1,
                    _ => {}
                }
            }
        };
        let batch = test_batch(blocks * shape.batch_size as u64, shape.batch_size);
        let actions = nodes[0].propose(batch, TimeNs::ZERO, &mut curs[0]);
        absorb(0, actions, &mut queue);
        while let Some((to, from, m)) = queue.pop_front() {
            msgs += 1;
            let actions = nodes[to].on_message(from, m, TimeNs::ZERO, &mut curs[to]);
            absorb(to, actions, &mut queue);
        }
        blocks += 1;
        n as u64
    });
    assert!(
        blocks < 4 || committed + 3 == blocks,
        "3-chain rule: {committed} of {blocks} driven HotStuff blocks committed"
    );
    (ns, msgs as f64 / blocks as f64)
}

/// SHA-256 per KiB and per 64-byte input, sign, verify, and
/// aggregate-verify at the quorum.
fn crypto(shape: &Shape, budget: Duration) -> Vec<(&'static str, f64)> {
    let registry = KeyRegistry::generate(shape.n, 1, shape.seed);
    let signer = registry.signer(ReplicaId(0));
    let (domain, msg) = (b"bench/drive".as_slice(), [7u8; 72]);
    let kib = [0x5au8; 1024];
    let sig = Signature::sign(&signer, domain, &msg);
    let shares: Vec<Signature> = (0..shape.quorum())
        .map(|r| Signature::sign(&registry.signer(ReplicaId(r as u32)), domain, &msg))
        .collect();
    let agg = AggregateSignature::aggregate(&shares, shape.n).expect("distinct signers");
    assert!(sig.verify(&registry, domain, &msg) && agg.verify(&registry, domain, &msg));
    let slot = budget / 5;
    vec![
        (
            "crypto.drive.sha256_ns_per_kib",
            ns_per_unit(slot, || {
                black_box(sha256(black_box(&kib)));
                1
            }),
        ),
        (
            "crypto.drive.hash64_ns",
            ns_per_unit(slot, || {
                black_box(sha256(black_box(&kib[..64])));
                1
            }),
        ),
        (
            "crypto.drive.sign_ns",
            ns_per_unit(slot, || {
                black_box(Signature::sign(&signer, domain, black_box(&msg)));
                1
            }),
        ),
        (
            "crypto.drive.verify_ns",
            ns_per_unit(slot, || {
                black_box(sig.verify(&registry, domain, black_box(&msg)));
                1
            }),
        ),
        (
            "crypto.drive.agg_verify_ns",
            ns_per_unit(slot, || {
                black_box(agg.verify(&registry, domain, black_box(&msg)));
                1
            }),
        ),
    ]
}

/// `execute_batch` of one workload-sized block at a time on an in-memory
/// pipeline with `lanes` workers: nanoseconds per transaction.
fn kv(shape: &Shape, lanes: u32, budget: Duration) -> f64 {
    let mut pipe = ExecutionPipeline::in_memory_with(shape.keyspace, lanes);
    let mut sn = 0u64;
    let txs = shape.batch_size as u64;
    ns_per_unit(budget, || {
        let block = Block::synthetic(sn, shape.seed.wrapping_add(sn * txs), shape.batch_size);
        black_box(pipe.execute_batch(&[(sn, block)]));
        sn += 1;
        txs
    })
}

/// Median microseconds of one record-sized append + `sync_group` on a
/// `FileBackend` in a scratch directory: the sandbox's fsync floor.
fn fsync(budget: Duration) -> std::io::Result<f64> {
    let scratch = ScratchDir::create("fsync-drive")?;
    let mut backend = FileBackend::open_dir(scratch.path().join("wal"))?;
    let record = [0u8; ENCODED_RECORD_LEN];
    let trailer = [0u8; TRAILER_LEN];
    let mut us = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || us.len() < 32 {
        let t = Instant::now();
        let ok = backend.append_segment_batch(0, 0, &record, &trailer) && backend.sync_group(0);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok {
            return Err(std::io::Error::other("fsync drive: backend write failed"));
        }
    }
    Samples::new(us)
        .percentile(50.0)
        .map_err(std::io::Error::other)
}

/// Snapshot split into lane chunks, and one chunk's verification, over a
/// state the size the keyspace allows.
fn snapshot(shape: &Shape) -> Vec<(&'static str, f64)> {
    let mut pipe = ExecutionPipeline::in_memory_with(shape.keyspace, shape.exec_lanes);
    let blocks: Vec<(u64, Block)> = (0..64)
        .map(|sn| {
            (
                sn,
                Block::synthetic(sn, shape.seed.wrapping_add(sn * 512), 512),
            )
        })
        .collect();
    pipe.execute_batch(&blocks);
    pipe.checkpoint(1, Vec::new());
    let snap = pipe
        .latest_snapshot()
        .expect("checkpoint stored a snapshot");
    let mut split_ms = Vec::new();
    let mut verify_us = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let (_, chunks) = black_box(snap.split());
        split_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        assert!(chunks.iter().all(|c| black_box(c).verify()));
        verify_us.push(t.elapsed().as_secs_f64() * 1e6 / chunks.len() as f64);
    }
    vec![
        ("state.snapshot.drive.split_ms", median(&split_ms)),
        ("state.snapshot.drive.chunk_verify_us", median(&verify_us)),
    ]
}

/// `TraceJournal::record` over whole block lifecycles.
fn trace_record(budget: Duration) -> f64 {
    let mut journal = TraceJournal::new();
    let mut sn = 0u64;
    ns_per_unit(budget, || {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            journal.record(sn, (sn % 64) as u32, stage, TimeNs(sn * 1000 + i as u64));
        }
        sn += 1;
        Stage::ALL.len() as u64
    })
}
