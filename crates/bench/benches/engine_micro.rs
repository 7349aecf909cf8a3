//! Microbenchmarks of the hot paths: SHA-256, simulated signatures,
//! aggregate verification, a cert-cache hit, a block's lifecycle trace,
//! the global ordering algorithm, raw engine event throughput (bare, with
//! a deep queue of real envelopes, and with the timers and deliveries a
//! WAN run keeps pending), one PBFT round at n = 16, KV state
//! execution, and execution across four pipelines sharing the executor
//! (with the inline-vs-pooled hand-off cost its threshold weighs). Plain
//! timing loops (see `ladon_bench::microbench`);
//! printed, not gated.

use ladon_bench::microbench;
use ladon_core::{ClientTxs, GlobalOrderer, LadonOrderer, NodeMsg};
use ladon_crypto::sha256::backend_name;
use ladon_crypto::{
    sha256, sha256_parts, sha256_portable, AggregateSignature, CertCache, KeyRegistry, QuorumCert,
    Signature,
};
use ladon_obs::{Stage, TraceJournal};
use ladon_pbft::testkit::{test_batch, Cluster};
use ladon_pbft::RankMode;
use ladon_sim::{Actor, ActorId, Context, Engine, IdealNetwork, NicNetwork, Topology};
use ladon_state::{exec, ExecutionPipeline, KvState, Snapshot, DEFAULT_KEYSPACE};
use ladon_types::{
    Batch, Block, BlockHeader, Digest, InstanceId, NetEnv, Rank, ReplicaId, Round, TimeNs, TxId,
    TxOp, View, WireSize,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_crypto() {
    let data = vec![0xa5u8; 1024];
    println!("sha256 backend: {}", backend_name());
    microbench("sha256_1kib", 20_000, || sha256(black_box(&data)));
    // The reference rounds, whatever the CPU offers: what a host without
    // SHA-NI gets from the row above.
    microbench("sha256_1kib_portable", 20_000, || {
        sha256_portable(black_box(&data))
    });

    // One Merkle leaf: domain, key, value — 31 bytes in three parts.
    let (key, value) = (7u32.to_le_bytes(), 9u64.to_le_bytes());
    microbench("sha256_leaf_31B", 50_000, || {
        sha256_parts(&[b"ladon/state-leaf/v1", black_box(&key), &value])
    });

    let reg = KeyRegistry::generate(32, 4, 1);
    let signer = reg.signer(ReplicaId(0));
    // One prepare share: a 74-byte tag body (13 B domain, separator, 60 B
    // of `prepare_bytes`), the commonest tag on the wire.
    let digest = Digest([7; 32]);
    microbench("hmac_tag_74B", 50_000, || {
        QuorumCert::sign_share(
            &signer,
            View(1),
            Round(2),
            black_box(&digest),
            InstanceId(3),
            Rank(4),
        )
    });
    microbench("sign_64b", 50_000, || {
        Signature::sign(
            &signer,
            b"bench",
            black_box(b"0123456789abcdef0123456789abcdef"),
        )
    });

    let sig = Signature::sign(&signer, b"bench", b"msg");
    microbench("verify_64b", 50_000, || sig.verify(&reg, b"bench", b"msg"));

    let sigs: Vec<Signature> = (0..22)
        .map(|r| Signature::sign(&reg.signer(ReplicaId(r)), b"agg", b"common"))
        .collect();
    let agg = AggregateSignature::aggregate(&sigs, 32).unwrap();
    microbench("agg_verify_22_of_32", 5_000, || {
        agg.verify(&reg, b"agg", b"common")
    });
    // A quorum certificate at n = 16: eleven signers of one 74-byte body.
    let shares: Vec<Signature> = (0..11)
        .map(|r| {
            let signer = reg.signer(ReplicaId(r));
            QuorumCert::sign_share(&signer, View(1), Round(2), &digest, InstanceId(3), Rank(4))
        })
        .collect();
    let qc = QuorumCert::from_shares(
        &shares,
        16,
        View(1),
        Round(2),
        InstanceId(3),
        digest,
        Rank(4),
    )
    .unwrap();
    microbench("agg_verify_q11", 10_000, || black_box(&qc).verify(&reg, 11));

    // The same certificate met again, as a replica meets its peers'
    // `curRank` certificate on every instance: through the allocation the
    // cache holds, and through an equal one.
    let certs = CertCache::new(reg.clone(), 11);
    let qc = Arc::new(qc);
    assert!(certs.verified(&qc));
    microbench("cert_cache_hit_q11 (same Arc)", 200_000, || {
        certs.verified(black_box(&qc))
    });
    let equal = Arc::new((*qc).clone());
    microbench("cert_cache_hit_q11 (equal)", 200_000, || {
        certs.verified(black_box(&equal))
    });
}

/// One block's lifecycle through a node's trace journal: every stage up
/// to and including `Flushed` as it is confirmed and flushed, and
/// `Checkpointed` when a checkpoint sweeps the last 64 blocks.
fn bench_trace() {
    let mut journal = TraceJournal::new();
    let mut sn = 0u64;
    microbench("trace_record_lifecycle", 200_000, || {
        let before_checkpoint = &Stage::ALL[..Stage::ALL.len() - 1];
        for (k, &stage) in before_checkpoint.iter().enumerate() {
            journal.record(sn, 0, stage, TimeNs(sn * 1_000 + k as u64));
        }
        sn += 1;
        if sn.is_multiple_of(64) {
            for swept in sn - 64..sn {
                journal.record(swept, 0, Stage::Checkpointed, TimeNs(sn * 1_000));
            }
        }
        journal.recorded()
    });
}

fn bench_ordering() {
    microbench("ladon_orderer_1k_blocks_16_instances", 500, || {
        let mut o = LadonOrderer::new(16);
        let mut total = 0usize;
        for round in 1..=64u64 {
            for i in 0..16u32 {
                let blk = Block {
                    header: BlockHeader {
                        index: InstanceId(i),
                        round: Round(round),
                        rank: Rank(round * 2 + i as u64 % 2),
                        payload_digest: Digest::NIL,
                    },
                    batch: Batch::empty(0),
                    proposed_at: TimeNs::ZERO,
                };
                total += o.on_partial_commit(blk, TimeNs::ZERO).len();
            }
        }
        total
    });
}

#[derive(Clone)]
struct Tick;
impl WireSize for Tick {
    fn wire_size(&self) -> u64 {
        8
    }
}
struct Bouncer {
    left: u64,
}
impl Actor<Tick> for Bouncer {
    fn on_message(&mut self, from: ActorId, _m: Tick, ctx: &mut dyn Context<Tick>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, Tick);
        }
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut dyn Context<Tick>) {
        ctx.send(1, Tick);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_engine() {
    microbench("engine_100k_events", 20, || {
        let mut e = Engine::new(
            IdealNetwork {
                latency: TimeNs::from_micros(10),
            },
            1,
        );
        e.add_actor(Box::new(Bouncer { left: 50_000 }));
        e.add_actor(Box::new(Bouncer { left: 50_000 }));
        e.schedule_timer(0, TimeNs::ZERO, 0);
        e.run_until(TimeNs::from_secs(100));
        e.events_processed()
    });
}

/// A one-transaction client group, the envelope both queue benches pass.
fn client_group(i: u64) -> NodeMsg {
    NodeMsg::ClientTxs(ClientTxs {
        bucket: 0,
        first_tx: TxId(i),
        count: 1,
        payload_bytes: 500,
        arrival_sum_ns: 0,
        forwarded: false,
    })
}

/// Starts 256 client-group envelopes and passes every envelope it gets
/// on to the next actor.
struct PassOn;
impl Actor<NodeMsg> for PassOn {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        for i in 0..256 {
            self.on_message(0, client_group(i), ctx);
        }
    }
    fn on_message(&mut self, _from: ActorId, m: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        ctx.send((ctx.self_id() + 1) % 16, m);
    }
    fn on_timer(&mut self, _t: u64, _ctx: &mut dyn Context<NodeMsg>) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What one queued event costs when the queue is as deep as a 16-replica
/// run keeps it (4096 deliveries in flight) and the payload is the real
/// envelope: one pop and one push per event, handlers doing nothing.
fn bench_event_queue() {
    let latency = TimeNs::from_micros(10);
    let mut e: Engine<NodeMsg> = Engine::new(IdealNetwork { latency }, 1);
    for _ in 0..16 {
        e.add_actor(Box::new(PassOn));
    }
    println!("(envelope: {} bytes)", std::mem::size_of::<NodeMsg>());
    microbench("event_queue_push_pop", 2_000_000, || e.step());
}

/// One of 16 WAN replicas as the engine sees `straggler_n16`'s: 18
/// ten-second timers pending that fire and re-arm doing nothing, and 64
/// envelopes each passed on to a random other replica on arrival.
struct TimerHeavy;
const ROUND_TIMEOUT: TimeNs = TimeNs::from_secs(10);
impl Actor<NodeMsg> for TimerHeavy {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        for k in 0..18 {
            ctx.set_timer(TimeNs(ROUND_TIMEOUT.0 * (k + 1) / 18), 0);
        }
        for i in 0..64 {
            self.on_message(0, client_group(i), ctx);
        }
    }
    fn on_message(&mut self, _from: ActorId, m: NodeMsg, ctx: &mut dyn Context<NodeMsg>) {
        let hop = 1 + ctx.rng().next_below(15) as usize;
        ctx.send((ctx.self_id() + hop) % 16, m);
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut dyn Context<NodeMsg>) {
        ctx.set_timer(ROUND_TIMEOUT, 0);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What one event costs in the queue mix measured on `straggler_n16`,
/// averaged over its pops: about 290 pending timers and 1 000 NIC
/// deliveries over 16 receivers. The first 11 simulated seconds, in which
/// every start-up timer fires once, run before timing.
fn bench_event_queue_timer_heavy() {
    let net = NicNetwork::new(Topology::paper(NetEnv::Wan, 16));
    let mut e: Engine<NodeMsg> = Engine::new(net, 1);
    for _ in 0..16 {
        e.add_actor(Box::new(TimerHeavy));
    }
    e.run_for(TimeNs::from_secs(11));
    microbench("event_queue_timer_heavy", 2_000_000, || e.step());
}

/// One PBFT round through the testkit at n = 16 (Plain ranks): a
/// proposal, 510 deliveries, 16 commits.
fn bench_pbft_round() {
    let mut c = Cluster::new(16, RankMode::Plain, u64::MAX / 2);
    let mut round = 0u64;
    microbench("pbft_round_n16", 300, || {
        round += 1;
        c.propose_and_run(0, test_batch(round * 32, 32));
        c.committed[0].len()
    });
}

/// The `state.kv` ledger rows in isolation, at the paper's block size:
/// executing one 4096-tx block the way a replica does (WAL record, op
/// derivation and apply), applying 4096 pre-derived ops (page writes,
/// no hashing), applying 4096 transactions' ops drawn straight into the
/// apply loop (the pipeline's entry, `KvState::apply_txs`), folding the
/// accounts they changed, reading the root of a folded state, and
/// capturing a snapshot of one.
fn bench_state() {
    let mut pipe = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
    let mut sn = 0u64;
    microbench("kv_execute_4096_tx_block", 2_000, || {
        let block = Block::synthetic(sn, sn * 4096, 4096);
        let out = pipe.execute_batch(&[(sn, block)]);
        sn += 1;
        out
    });

    let blocks: Vec<Vec<TxOp>> = (0..8u64)
        .map(|b| {
            (0..4096u64)
                .map(|i| TxOp::for_id(TxId(b * 4096 + i), DEFAULT_KEYSPACE))
                .collect()
        })
        .collect();
    let mut state = KvState::new();
    let mut next = 0usize;
    microbench("kv_apply_4096_ops", 2_000, || {
        next = (next + 1) % blocks.len();
        state.apply_batch(&blocks[next])
    });
    let mut first = 0u64;
    microbench("kv_apply_4096_derived_ops", 2_000, || {
        first = (first + 4096) % (8 * 4096);
        state.apply_txs(TxId(first), 4096, DEFAULT_KEYSPACE)
    });
    microbench("kv_fold_after_4096_ops", 500, || {
        next = (next + 1) % blocks.len();
        state.apply_batch(&blocks[next]);
        state.fold();
    });
    state.fold();
    microbench("kv_root_folded", 5_000, || state.root());

    let full = KvState::from_entries((0..DEFAULT_KEYSPACE).map(|k| (k, k as u64 + 1)));
    microbench("kv_capture_4096_keys", 2_000, || {
        Snapshot::capture(1, 0, 0, Vec::new(), &full)
    });
}

/// Execution as `exec_heavy_n4` drives it: four in-memory pipelines fed
/// one 4 096-tx block each per iteration, round-robin, through
/// `stage_blocks` + `submit_staged` (each drain applies the batch its
/// own barrier acknowledged, on the executor when a worker exists).
fn bench_exec_pipelines() {
    let mut pipes: Vec<ExecutionPipeline> = (0..4)
        .map(|_| ExecutionPipeline::in_memory(DEFAULT_KEYSPACE))
        .collect();
    let mut sn = 0u64;
    microbench("exec_4_pipelines_4096_tx", 1_000, || {
        let block = [(sn, Block::synthetic(sn, sn * 4096, 4096))];
        for p in &mut pipes {
            p.stage_blocks(&block);
            p.submit_staged();
        }
        sn += 1;
    });
}

/// What the executor's hand-off threshold weighs: four states fed one
/// `n`-op batch each per iteration, round-robin, each batch applied
/// inline or handed to the executor as a job (at most one outstanding
/// per state, settled before that state's next batch), at n = 32,
/// 1 024 and 4 096. Ops are drawn in the apply, through the pipeline's
/// entry (`KvState::apply_txs`).
/// The worker is never idle here, so these rows leave out the wake-up
/// a burst of hand-offs pays (see `POOLED_MIN_OPS`).
fn bench_exec_handoff() {
    fn apply(kv: &mut KvState, first: u64, n: u64) -> ladon_state::ExecEffects {
        kv.apply_txs(TxId(first), n as u32, DEFAULT_KEYSPACE)
    }
    println!("(executor workers: {})", exec::workers());
    for n in [32u64, 1024, 4096] {
        let iters = 4_000_000 / n / 4;
        let mut states: Vec<KvState> = (0..4).map(|_| KvState::new()).collect();
        let mut first = 0u64;
        microbench(&format!("exec_handoff_{n}_ops_inline"), iters, || {
            for kv in &mut states {
                apply(kv, first, n);
                first += n;
            }
        });
        let mut slots: Vec<(KvState, Option<exec::Job<KvState>>)> =
            (0..4).map(|_| (KvState::new(), None)).collect();
        microbench(&format!("exec_handoff_{n}_ops_pooled"), iters, || {
            for (kv, job) in &mut slots {
                if let Some(j) = job.take() {
                    *kv = j.wait().expect("the apply does not panic");
                }
                let mut mine = std::mem::take(kv);
                let at = first;
                *job = Some(exec::spawn(move || {
                    apply(&mut mine, at, n);
                    mine
                }));
                first += n;
            }
        });
        for (_, job) in &mut slots {
            if let Some(j) = job.take() {
                j.wait().expect("the apply does not panic");
            }
        }
    }
}

fn main() {
    println!("engine_micro: hot-path microbenchmarks\n");
    bench_crypto();
    bench_trace();
    bench_ordering();
    bench_engine();
    bench_event_queue();
    bench_event_queue_timer_heavy();
    bench_pbft_round();
    bench_state();
    bench_exec_pipelines();
    bench_exec_handoff();
}
