//! Property-based tests (proptest) on the core invariants:
//! ordering determinism, rank monotonicity, crypto roundtrips, and
//! execution recovery (WAL replay from any snapshot prefix; torn-write
//! tolerance of the segmented WAL — both over real scratch directories).

use ladon::core::{GlobalOrderer, LadonOrderer};
use ladon::crypto::{sha256, sha256_portable, AggregateSignature, KeyRegistry, Sha256, Signature};
use ladon::state::{
    lane_of, ExecOutcome, ExecutionPipeline, InstallOutcome, KvState, Snapshot, WalOptions,
    DEFAULT_KEYSPACE, MERKLE_LANES,
};
use ladon::types::{Batch, Block, BlockHeader, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs};
use ladon::types::{TxId, TxOp};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A per-case unique scratch directory (proptest cases run in sequence
/// but must never share on-disk WAL state).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "ladon-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Applies `op` to a plain map model of the state (absent = 0, a zero
/// write deletes), counting what it did into `fx`.
fn model_apply(model: &mut BTreeMap<u32, u64>, op: &TxOp, fx: &mut ladon::state::ExecEffects) {
    fn set(model: &mut BTreeMap<u32, u64>, k: u32, v: u64) {
        if v == 0 {
            model.remove(&k);
        } else {
            model.insert(k, v);
        }
    }
    match *op {
        TxOp::Put { key, value } => {
            set(model, key, value);
            fx.puts += 1;
        }
        TxOp::Get { .. } => fx.gets += 1,
        TxOp::Transfer { from, to, amount } => {
            let have = model.get(&from).copied().unwrap_or(0);
            let moved = have.min(amount);
            if moved == 0 || from == to {
                fx.empty_transfers += 1;
            } else {
                set(model, from, have - moved);
                let dest = model.get(&to).copied().unwrap_or(0);
                set(model, to, dest.saturating_add(moved));
                fx.transfers += 1;
            }
        }
    }
}

fn blk(instance: u32, round: u64, rank: u64) -> Block {
    Block {
        header: BlockHeader {
            index: InstanceId(instance),
            round: Round(round),
            rank: Rank(rank),
            payload_digest: Digest([instance as u8; 32]),
        },
        batch: Batch::empty(0),
        proposed_at: TimeNs::ZERO,
    }
}

/// A per-instance schedule of strictly increasing ranks, as MR-Monotonicity
/// guarantees (Lemma 2), plus a delivery permutation.
fn rank_schedules() -> impl Strategy<Value = (Vec<Vec<u64>>, Vec<usize>)> {
    // 2..4 instances, 1..8 blocks each, rank increments 1..4.
    (2usize..4, proptest::collection::vec(1u64..4, 1..20)).prop_flat_map(|(m, incs)| {
        let mut schedules: Vec<Vec<u64>> = vec![Vec::new(); m];
        let mut rank = 0u64;
        for (i, inc) in incs.iter().enumerate() {
            rank += inc;
            schedules[i % m].push(rank);
        }
        let total: usize = schedules.iter().map(Vec::len).sum();
        (
            Just(schedules),
            Just(()),
            proptest::collection::vec(any::<usize>(), total),
        )
            .prop_map(|(s, (), perm)| (s, perm))
    })
}

/// Expands schedules into blocks and delivers them in a permutation-driven
/// interleaving (respecting per-instance commit order, as SB guarantees).
fn deliver_interleaved(schedules: &[Vec<u64>], perm: &[usize]) -> Vec<(u64, u32, u64)> {
    let m = schedules.len();
    let mut orderer = LadonOrderer::new(m);
    let mut next: Vec<usize> = vec![0; m];
    let mut out = Vec::new();
    let mut p = 0usize;
    loop {
        // Instances that still have blocks to deliver.
        let avail: Vec<usize> = (0..m).filter(|&i| next[i] < schedules[i].len()).collect();
        if avail.is_empty() {
            break;
        }
        let pick = avail[perm.get(p).copied().unwrap_or(0) % avail.len()];
        p += 1;
        let round = next[pick] as u64 + 1;
        let rank = schedules[pick][next[pick]];
        next[pick] += 1;
        for c in orderer.on_partial_commit(blk(pick as u32, round, rank), TimeNs::ZERO) {
            out.push((c.sn, c.block.index().0, c.block.round().0));
        }
    }
    out
}

proptest! {
    /// G-Agreement determinism: any two delivery interleavings of the same
    /// per-instance logs confirm the same global prefix in the same order.
    #[test]
    fn ordering_agreement_across_interleavings(
        (schedules, perm1) in rank_schedules(),
        perm2 in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let a = deliver_interleaved(&schedules, &perm1);
        let b = deliver_interleaved(&schedules, &perm2);
        let shared = a.len().min(b.len());
        prop_assert_eq!(&a[..shared], &b[..shared]);
    }

    /// The confirmed log is sorted by the ≺ relation and sns are dense.
    #[test]
    fn ordering_log_sorted_by_precedence((schedules, perm) in rank_schedules()) {
        let m = schedules.len();
        let mut orderer = LadonOrderer::new(m);
        let mut next = vec![0usize; m];
        let mut keys = Vec::new();
        let mut p = 0usize;
        loop {
            let avail: Vec<usize> = (0..m).filter(|&i| next[i] < schedules[i].len()).collect();
            if avail.is_empty() { break; }
            let pick = avail[perm.get(p).copied().unwrap_or(0) % avail.len()];
            p += 1;
            let round = next[pick] as u64 + 1;
            let rank = schedules[pick][next[pick]];
            next[pick] += 1;
            for c in orderer.on_partial_commit(blk(pick as u32, round, rank), TimeNs::ZERO) {
                prop_assert_eq!(c.sn, keys.len() as u64);
                keys.push(c.block.key());
            }
        }
        for w in keys.windows(2) {
            prop_assert!(w[0] < w[1], "log out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    /// Pre-determined ordering is Algorithm 1 with ranks fixed to rounds.
    /// Over any commit order, an instance's rounds out of order too, block
    /// `(i, r)` confirms as `sn = (r − 1)·m + i`, and at the first commit
    /// after which every smaller `sn` has committed: the ISS rule, written
    /// out below as the reference.
    #[test]
    fn predetermined_confirms_in_sn_order(
        m in 1usize..5,
        rounds in 1u64..7,
        swaps in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let sn_of = |i: u32, r: u64| (r - 1) * m as u64 + u64::from(i);
        let mut order: Vec<(u32, u64)> = (1..=rounds)
            .flat_map(|r| (0..m as u32).map(move |i| (i, r)))
            .collect();
        for (k, s) in swaps.iter().enumerate() {
            let len = order.len();
            order.swap(k % len, s % len);
        }
        let mut orderer = LadonOrderer::pre_determined(m);
        // The reference: committed sns not yet confirmed, and the next.
        let mut committed = BTreeSet::new();
        let mut next_sn = 0u64;
        for (i, r) in order {
            committed.insert(sn_of(i, r));
            let mut want = Vec::new();
            while committed.remove(&next_sn) {
                want.push(next_sn);
                next_sn += 1;
            }
            let mut got = Vec::new();
            for c in orderer.on_partial_commit(blk(i, r, r), TimeNs::ZERO) {
                prop_assert_eq!(c.sn, sn_of(c.block.index().0, c.block.round().0));
                got.push(c.sn);
            }
            prop_assert_eq!(got, want, "commit of ({}, {})", i, r);
        }
        prop_assert_eq!(orderer.confirmed_count(), rounds * m as u64);
        prop_assert_eq!(orderer.waiting_count(), 0);
    }

    /// SHA-256 incremental hashing equals one-shot for arbitrary chunkings,
    /// through whichever backend this CPU dispatches to, and both equal
    /// the portable reference. Inputs span many blocks so that chunks hit
    /// the buffered path, the straight-from-the-slice path and both at
    /// once. The shim does not shrink: a failure names its length and cuts.
    #[test]
    fn sha256_chunking_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let oneshot = sha256(&data);
        prop_assert_eq!(oneshot, sha256_portable(&data), "len {}", data.len());
        let mut h = Sha256::new();
        let mut idx = 0usize;
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        for &p in &points {
            if p > idx {
                h.update(&data[idx..p]);
                idx = p;
            }
        }
        h.update(&data[idx..]);
        prop_assert_eq!(h.finalize(), oneshot, "len {}, cuts {:?}", data.len(), points);
    }

    /// Aggregate signatures verify for any distinct signer subset and fail
    /// under message tampering.
    #[test]
    fn aggregate_roundtrip_any_subset(
        subset in proptest::collection::btree_set(0u32..16, 1..16),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let reg = KeyRegistry::generate(16, 2, 99);
        let sigs: Vec<Signature> = subset
            .iter()
            .map(|&r| Signature::sign(&reg.signer(ReplicaId(r)), b"prop", &msg))
            .collect();
        let agg = AggregateSignature::aggregate(&sigs, 16).expect("distinct signers");
        prop_assert!(agg.verify(&reg, b"prop", &msg));
        let mut tampered = msg.clone();
        tampered[0] ^= 0xff;
        prop_assert!(!agg.verify(&reg, b"prop", &tampered));
    }

    /// WAL replay from *any* snapshot prefix reproduces the same state
    /// root: execute a random block sequence over a durable pipeline,
    /// checkpoint at a random cut, keep executing, then recover a new
    /// pipeline from the directory's snapshot + WAL tail and compare
    /// roots, applied frontiers and tx counts. File I/O, but at the
    /// default case count: recovery is the property that matters most.
    #[test]
    fn wal_replay_from_any_snapshot_prefix_reproduces_root(
        counts in proptest::collection::vec(0u32..96, 1..40),
        cut in any::<usize>(),
    ) {
        let dir = scratch_dir("replay");
        let _ = std::fs::remove_dir_all(&dir);
        let mut p = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).unwrap();
        let cut = cut % counts.len();
        let mut first_tx = 0u64;
        for (sn, &count) in counts.iter().enumerate() {
            let block = Block::synthetic(sn as u64, first_tx, count);
            first_tx += count as u64;
            let out = p.execute(sn as u64, &block);
            prop_assert_eq!(out, ExecOutcome::Applied { txs: count as u64 });
            if sn == cut {
                // Snapshot here; everything after lands in the WAL tail.
                p.checkpoint(0, vec![0; 4]);
            }
        }
        let recovered = ExecutionPipeline::recover(&dir, DEFAULT_KEYSPACE).unwrap();
        prop_assert_eq!(recovered.recovery_stats().records_replayed, (counts.len() - cut - 1) as u64);
        prop_assert_eq!(recovered.applied(), p.applied());
        prop_assert_eq!(recovered.executed_txs(), p.executed_txs());
        prop_assert_eq!(recovered.state_root(), p.state_root());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// For arbitrary op sequences (random block sizes over a random
    /// keyspace) the checkpoint's fold changes no root, and a snapshot
    /// taken at the end round-trips the lane-root vector byte-identically
    /// through encode/decode.
    #[test]
    fn sharded_root_round_trips_through_a_snapshot(
        counts in proptest::collection::vec(0u32..96, 1..24),
        keyspace in 64u32..1024,
    ) {
        let mut p = ExecutionPipeline::in_memory(keyspace);
        let mut first_tx = 0u64;
        for (sn, &count) in counts.iter().enumerate() {
            let block = Block::synthetic(sn as u64, first_tx, count);
            first_tx += count as u64;
            let out = p.execute(sn as u64, &block);
            prop_assert_eq!(out, ExecOutcome::Applied { txs: count as u64 });
        }
        let unfolded = (p.state_root(), p.lane_roots());
        p.checkpoint(0, vec![0; 4]);
        prop_assert_eq!((p.state_root(), p.lane_roots()), unfolded);
        let snap = p.latest_snapshot().unwrap();
        prop_assert_eq!(&snap.head.lane_roots, &p.lane_roots());
        let decoded = ladon::state::Snapshot::decode(&snap.encode()).expect("decode");
        prop_assert_eq!(&decoded.head.lane_roots, &snap.head.lane_roots);
        prop_assert!(decoded.verify());
        let mut restored = ExecutionPipeline::in_memory(keyspace);
        prop_assert_eq!(restored.install(snap.clone()), InstallOutcome::Installed);
        prop_assert_eq!(restored.lane_roots(), p.lane_roots());
        prop_assert_eq!(restored.state_root(), p.state_root());
    }

    /// Chunked wire form ≡ stored form: for arbitrary executed states the
    /// snapshot splits into one chunk per Merkle lane, every chunk
    /// verifies against its lane root, and the head with the chunk set
    /// reproduces the donor's snapshot byte for byte, installs to the
    /// donor's lane roots, and leaves an installer whose *next* checkpoint
    /// root equals the donor's (nothing descriptive is left under the
    /// signed root to disagree on).
    #[test]
    fn chunked_snapshot_roundtrips_byte_identically(
        counts in proptest::collection::vec(0u32..96, 2..24),
        keyspace in 64u32..1024,
        cut in any::<usize>(),
    ) {
        let cut = cut % counts.len();
        let mut full = ExecutionPipeline::in_memory_with(keyspace, 4);
        let mut older = ExecutionPipeline::in_memory_with(keyspace, 4);
        let mut first_tx = 0u64;
        for (sn, &count) in counts.iter().enumerate() {
            let block = Block::synthetic(sn as u64, first_tx, count);
            first_tx += count as u64;
            full.execute(sn as u64, &block);
            if sn <= cut {
                older.execute(sn as u64, &block);
            }
        }
        full.checkpoint(0, vec![0; 4]);
        let snap = full.latest_snapshot().unwrap().clone();
        let (head, chunks) = snap.split();
        prop_assert_eq!(chunks.len(), MERKLE_LANES as usize);
        prop_assert!(head.verify());
        for chunk in &chunks {
            prop_assert!(chunk.verify(), "lane {} chunk failed verify", chunk.lane);
        }
        let rebuilt = Snapshot { head, chunks };
        prop_assert_eq!(rebuilt.encode(), snap.encode());

        // Install (declined, though it verifies, only when the older
        // state is not behind), then one more block and a checkpoint on
        // both sides.
        let expect = if cut + 1 < counts.len() {
            InstallOutcome::Installed
        } else {
            InstallOutcome::Declined
        };
        prop_assert_eq!(older.install(rebuilt), expect);
        prop_assert_eq!(older.lane_roots(), full.lane_roots());
        let sn = counts.len() as u64;
        let next = Block::synthetic(sn, first_tx, 40);
        full.execute(sn, &next);
        older.execute(sn, &next);
        prop_assert_eq!(older.checkpoint(1, vec![1; 4]), full.checkpoint(1, vec![1; 4]));
    }

    /// `apply_batch` is folding `apply` over the ops in order: for random
    /// transfer/cross-lane workloads (derived ops over a random keyspace,
    /// plus a crafted chain where an op must read a same-block cross-lane
    /// credit), the entries, ALL 64 lane roots, the state root and the
    /// effects are identical.
    #[test]
    fn batch_apply_matches_sequential_reference(
        ids in proptest::collection::vec(any::<u64>(), 1..1400),
        keyspace in 8u32..256,
        seeds in proptest::collection::vec((any::<u32>(), 1u64..10_000), 0..12),
    ) {
        let mut ops: Vec<TxOp> = Vec::new();
        for &(k, v) in &seeds {
            ops.push(TxOp::Put { key: k % keyspace, value: v });
        }
        for &id in &ids {
            ops.push(TxOp::for_id(TxId(id), keyspace));
        }
        // Read-your-writes chain: a → b → c across three distinct lanes,
        // where b starts from whatever the random prefix left it — the
        // b → c transfer can only move the a → b credit if it observes
        // the earlier op of the same batch.
        let a = 0u32;
        let b = (1..keyspace).find(|&k| lane_of(k) != lane_of(a));
        let c = b.and_then(|b| {
            (1..keyspace).find(|&k| lane_of(k) != lane_of(a) && lane_of(k) != lane_of(b))
        });
        if let (Some(b), Some(c)) = (b, c) {
            ops.push(TxOp::Put { key: a, value: 77 });
            ops.push(TxOp::Transfer { from: a, to: b, amount: 77 });
            ops.push(TxOp::Transfer { from: b, to: c, amount: u64::MAX });
        }

        let mut reference = KvState::new();
        let mut ref_fx = ladon::state::ExecEffects::default();
        for op in &ops {
            ref_fx.absorb(reference.apply(op));
        }

        let mut s = KvState::new();
        prop_assert_eq!(s.apply_batch(&ops), ref_fx);
        prop_assert_eq!(
            s.lane_roots(), reference.lane_roots(),
            "all 64 lane roots must match the sequential reference"
        );
        prop_assert_eq!(s.root(), reference.root());
        prop_assert!(s.entries().eq(reference.entries()));
    }

    /// The lazily folded accumulator is history independent: arbitrary
    /// `Put`/`Get`/`Transfer` sequences over a tiny keyspace (so keys
    /// are deleted and re-inserted, written back to the value they had
    /// at the last fold, and rewritten many times) with `fold` at
    /// arbitrary cut points end at the lane roots and state root of
    /// `KvState::from_entries(entries)` — and a clone that never folded
    /// reads the same roots through `&self`.
    #[test]
    fn fold_points_never_change_a_root(
        raw in proptest::collection::vec(
            (0u8..5, 0u32..12, 0u32..12, 0u64..4, any::<bool>()),
            1..200,
        ),
    ) {
        let mut folded = KvState::new();
        let mut unfolded = KvState::new();
        for &(kind, k1, k2, v, fold_here) in &raw {
            let op = match kind {
                // Values 0..4: zero deletes, repeats write back.
                0 | 1 => TxOp::Put { key: k1, value: v },
                2 => TxOp::Get { key: k1 },
                _ => TxOp::Transfer { from: k1, to: k2, amount: v },
            };
            prop_assert_eq!(folded.apply(&op), unfolded.apply(&op));
            if fold_here {
                folded.fold();
            }
        }
        let rebuilt = KvState::from_entries(folded.entries());
        prop_assert_eq!(folded.lane_roots(), rebuilt.lane_roots());
        prop_assert_eq!(folded.root(), rebuilt.root());
        prop_assert_eq!(unfolded.lane_roots(), rebuilt.lane_roots());
        prop_assert_eq!(unfolded.root(), rebuilt.root());
        folded.fold();
        prop_assert_eq!(folded.lane_roots(), rebuilt.lane_roots());
    }

    /// The page-indexed `KvState` against a plain `BTreeMap<u32, u64>`
    /// model: random `Put` (incl. value 0 and values that saturate a
    /// credit) / `Transfer` (incl. `from == to` and an empty source) /
    /// `Get` over keyspaces {1, 64, 4096, 1 << 20}, keys at `u32::MAX`
    /// (the last page), and a pool of keys confined to ONE lane. Every
    /// case opens by putting 40 pool keys unfolded — their pages, up to
    /// four where the keyspace spreads the lane over them, are allocated
    /// while every account written is dirty — and then cuts the ops into
    /// batches at arbitrary points, folding at some of the cuts. After
    /// every batch the table and the model agree on entries, length and
    /// every touched key; the root is the root of the state rebuilt
    /// from the model; `apply_batch` equals folding `apply` (a twin that
    /// never folds) and applied to a copy of the twin ends equal; and a
    /// snapshot captured from the table rebuilds an equal state with
    /// equal lane roots.
    #[test]
    fn kv_table_matches_btreemap_model(
        shape in 0usize..4,
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), 0u64..6, any::<u8>()),
            1..300,
        ),
    ) {
        let keyspace = [1u32, 64, 4096, 1 << 20][shape];
        let pool: Vec<u32> = (0..keyspace.min(1 << 14))
            .filter(|&k| lane_of(k) == lane_of(0))
            .take(160)
            .collect();
        let key = |mode: u8, r: u32| match mode >> 3 {
            0 => u32::MAX - r % 3,
            1..=12 => pool[r as usize % pool.len()],
            _ => r % keyspace,
        };
        let mut ops: Vec<TxOp> = pool.iter().take(40).map(|&k| TxOp::Put { key: k, value: 9 }).collect();
        let mut cuts = vec![(ops.len(), false)];
        for &(kind, r1, r2, v, flags) in &raw {
            let value = [0, 1, 2, 3, u64::MAX - 1, u64::MAX][v as usize];
            let (k1, k2) = (key(kind, r1), key(kind.rotate_left(3), r2));
            ops.push(match kind & 7 {
                0..=2 => TxOp::Put { key: k1, value },
                3 => TxOp::Get { key: k1 },
                4 => TxOp::Transfer { from: k1, to: k1, amount: value },
                _ => TxOp::Transfer { from: k1, to: k2, amount: value },
            });
            if flags & 7 == 0 {
                cuts.push((ops.len(), flags & 8 != 0));
            }
        }
        cuts.push((ops.len(), true));

        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut kv = KvState::new();
        let mut twin = KvState::new();
        let mut done = 0usize;
        for &(upto, fold_here) in &cuts {
            let batch = &ops[done..upto];
            done = upto;
            let mut model_fx = ladon::state::ExecEffects::default();
            for op in batch {
                model_apply(&mut model, op, &mut model_fx);
            }
            let mut replay = twin.clone();
            let mut twin_fx = ladon::state::ExecEffects::default();
            for op in batch {
                twin_fx.absorb(twin.apply(op));
            }
            let fx = kv.apply_batch(batch);
            prop_assert_eq!(fx, model_fx);
            prop_assert_eq!(twin_fx, model_fx);
            prop_assert_eq!(replay.apply_batch(batch), fx);
            if fold_here {
                kv.fold();
            }

            prop_assert!(kv.entries().eq(model.iter().map(|(&k, &v)| (k, v))));
            prop_assert_eq!(kv.len(), model.len());
            prop_assert_eq!(kv.is_empty(), model.is_empty());
            for op in batch {
                let touched = match *op {
                    TxOp::Put { key, .. } | TxOp::Get { key } => [key, key],
                    TxOp::Transfer { from, to, .. } => [from, to],
                };
                for k in touched {
                    prop_assert_eq!(kv.get(k), model.get(&k).copied().unwrap_or(0), "key {}", k);
                }
            }
            let rebuilt = KvState::from_entries(model.iter().map(|(&k, &v)| (k, v)));
            prop_assert_eq!(kv.root(), rebuilt.root());
            prop_assert_eq!(twin.root(), rebuilt.root());
            prop_assert!(kv == twin && kv == rebuilt && replay == kv);
            let snap = Snapshot::capture(0, 0, 0, Vec::new(), &kv);
            prop_assert!(snap.verify());
            let installed = KvState::from_lanes(snap.chunks.iter().map(|c| c.entries.as_slice()));
            prop_assert!(installed == kv);
            prop_assert_eq!(installed.lane_roots(), kv.lane_roots());
        }
    }

    /// The pipeline's apply entry (`KvState::apply_txs`: each
    /// transaction's op drawn straight into the apply loop) against
    /// `apply_batch` over `TxOp::for_id` of the same ids and against a
    /// plain `BTreeMap` model, over keyspaces {1, 3, 1 000, 4 096, 2²⁰}:
    /// random `(first_tx, count)` records — some starting just below
    /// `u64::MAX`, so their ids wrap — cut into batches at random
    /// records, each side folding at its own random cuts. After every
    /// batch the three agree on effects, entries and length, and both
    /// states hold all 64 lane roots and the root of the state rebuilt
    /// from the model.
    #[test]
    fn derived_ops_match_the_lowered_ops_and_the_model(
        shape in 0usize..5,
        records in proptest::collection::vec((any::<u64>(), 0u32..300, any::<u8>()), 1..24),
    ) {
        let keyspace = [1u32, 3, 1000, 4096, 1 << 20][shape];
        let mut model = BTreeMap::new();
        let (mut derived, mut lowered) = (KvState::new(), KvState::new());
        let mut fx = [ladon::state::ExecEffects::default(); 3];
        for (n, &(first, count, flags)) in records.iter().enumerate() {
            let first = if flags & 8 != 0 { u64::MAX - first % 300 } else { first };
            fx[0].absorb(derived.apply_txs(TxId(first), count, keyspace));
            let ids = (0..count as u64).map(|i| TxId(first.wrapping_add(i)));
            let ops: Vec<TxOp> = ids.map(|id| TxOp::for_id(id, keyspace)).collect();
            fx[1].absorb(lowered.apply_batch(&ops));
            for op in &ops {
                model_apply(&mut model, op, &mut fx[2]);
            }
            if flags & 3 != 0 && n + 1 < records.len() {
                continue;
            }
            if flags & 16 != 0 {
                derived.fold();
            }
            if flags & 32 != 0 {
                lowered.fold();
            }
            prop_assert_eq!(fx[0], fx[2]);
            prop_assert_eq!(fx[1], fx[2]);
            let entries = || model.iter().map(|(&k, &v)| (k, v));
            prop_assert!(derived.entries().eq(entries()));
            prop_assert!(lowered.entries().eq(entries()));
            prop_assert_eq!((derived.len(), lowered.len()), (model.len(), model.len()));
            let rebuilt = KvState::from_entries(entries());
            let roots = rebuilt.lane_roots();
            prop_assert_eq!(derived.lane_roots(), roots.clone(), "keyspace {}", keyspace);
            prop_assert_eq!(lowered.lane_roots(), roots);
            prop_assert_eq!(derived.root(), rebuilt.root());
            prop_assert_eq!(lowered.root(), rebuilt.root());
        }
    }

    /// In every epoch the bucket assignment is a permutation of the
    /// instances, and each instance serves the bucket that maps to it.
    #[test]
    fn bucket_rotation_is_permutation(m in 1usize..32, epoch in any::<u64>()) {
        let rb = ladon::core::RotatingBuckets::new(m);
        let mut targets: Vec<u32> = (0..m as u32).map(|b| rb.instance_of(b, epoch).0).collect();
        for (b, &i) in targets.iter().enumerate() {
            prop_assert_eq!(rb.bucket_served_by(InstanceId(i), epoch), b as u32);
        }
        targets.sort_unstable();
        prop_assert_eq!(targets, (0..m as u32).collect::<Vec<_>>());
    }
}

proptest! {
    // Each case does real file I/O in its own scratch dir; fewer, fatter
    // cases than the in-memory properties.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn-write tolerance of the segmented WAL: truncate *or* corrupt
    /// one on-disk segment file at an arbitrary byte offset, and recovery
    /// must (a) never panic, (b) stop at the longest valid replayable
    /// prefix — never below the snapshot, never above the pre-corruption
    /// head — (c) be idempotent: recovering again from what the first
    /// recovery left behind yields the same frontier and roots,
    /// (d) match a clean in-memory re-execution of exactly the recovered
    /// prefix, and (e) resume: blocks executed behind clean barriers
    /// *after* the recovery are all there at the next one — nothing is
    /// ever appended behind the damage.
    #[test]
    fn torn_segment_write_recovers_longest_valid_prefix(
        counts in proptest::collection::vec(0u32..48, 4..20),
        cut in any::<usize>(),
        victim in any::<usize>(),
        offset in any::<usize>(),
        truncate in any::<bool>(),
        extra in 1u64..6,
    ) {
        let wal_opts = WalOptions { segment_records: 3, ..WalOptions::default() };
        let dir = scratch_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let cut = cut % counts.len();
        let mut first_txs = Vec::with_capacity(counts.len());
        {
            let mut p =
                ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
            let mut first_tx = 0u64;
            for (sn, &count) in counts.iter().enumerate() {
                first_txs.push(first_tx);
                let out = p.execute(sn as u64, &Block::synthetic(sn as u64, first_tx, count));
                prop_assert_eq!(out, ExecOutcome::Applied { txs: count as u64 });
                first_tx += count as u64;
                if sn == cut {
                    p.checkpoint(0, vec![0; 4]);
                }
            }
            prop_assert_eq!(p.wal_write_failures(), 0);
        }
        let snap_applied = cut as u64 + 1;

        // Damage one segment file at an arbitrary offset: truncation
        // models a torn append mid-crash, a bit flip models media rot.
        let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("wal"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        // A checkpoint on the last block compacts every segment away;
        // there is nothing to damage then and recovery is pure snapshot.
        if !segs.is_empty() {
            let victim_path = &segs[victim % segs.len()];
            let mut bytes = std::fs::read(victim_path).unwrap();
            if !bytes.is_empty() {
                let at = offset % bytes.len();
                if truncate {
                    bytes.truncate(at);
                } else {
                    bytes[at] ^= 0xff;
                }
                std::fs::write(victim_path, &bytes).unwrap();
            }
        }

        let mut r1 = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
        let again = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
        let applied = r1.applied();
        prop_assert!(
            (snap_applied..=counts.len() as u64).contains(&applied),
            "recovered applied {} outside [{}, {}]",
            applied, snap_applied, counts.len()
        );
        prop_assert_eq!(again.applied(), applied);
        prop_assert_eq!(again.state_root(), r1.state_root());
        prop_assert_eq!(again.lane_roots(), r1.lane_roots());

        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        for sn in 0..applied {
            reference.execute(
                sn,
                &Block::synthetic(sn, first_txs[sn as usize], counts[sn as usize]),
            );
        }
        prop_assert_eq!(r1.state_root(), reference.state_root());
        prop_assert_eq!(r1.executed_txs(), reference.executed_txs());

        // Resume on the recovered log, then crash-free restart.
        drop(again);
        for sn in applied..applied + extra {
            let block = Block::synthetic(sn, 1_000_000 + sn * 48, 32);
            prop_assert_eq!(r1.execute(sn, &block), ExecOutcome::Applied { txs: 32 });
            reference.execute(sn, &block);
        }
        let stats = r1.stats();
        prop_assert_eq!((stats.wal_write_failures, stats.perf.wal_flush_failures), (0, 0));
        drop(r1);
        let r2 = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
        prop_assert_eq!(r2.applied(), applied + extra);
        prop_assert_eq!(r2.state_root(), reference.state_root());
        prop_assert_eq!(r2.executed_txs(), reference.executed_txs());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Group-commit equivalence: for ANY record sequence and ANY batch
    /// partition of it, executing through the batched path
    /// (`execute_batch`: stage → one flush barrier per batch → apply)
    /// and then recovering from the durable artifacts is byte-identical
    /// to per-record execution — roots, frontiers, and tx counts. The
    /// durable log a batched writer leaves
    /// behind must be indistinguishable from an unbatched one.
    #[test]
    fn batched_wal_recovers_identical_to_per_record(
        counts in proptest::collection::vec(0u32..48, 1..20),
        splits in proptest::collection::vec(1usize..6, 1..12),
        mid_checkpoint in any::<bool>(),
    ) {
        let wal_opts = WalOptions { segment_records: 3, ..WalOptions::default() };
        // Per-record reference, in memory.
        let mut reference = ExecutionPipeline::in_memory(DEFAULT_KEYSPACE);
        let mut first_txs = Vec::with_capacity(counts.len());
        let mut first_tx = 0u64;
        for (sn, &count) in counts.iter().enumerate() {
            first_txs.push(first_tx);
            reference.execute(sn as u64, &Block::synthetic(sn as u64, first_tx, count));
            first_tx += count as u64;
        }
        // Batched run over a real segmented on-disk WAL, the partition
        // drawn from `splits` (cyclic chunk sizes).
        let dir = scratch_dir("group-commit-eq");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut p =
                ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
            let mut at = 0usize;
            let mut si = 0usize;
            while at < counts.len() {
                let take = splits[si % splits.len()].min(counts.len() - at);
                si += 1;
                let batch: Vec<(u64, ladon::types::Block)> = (at..at + take)
                    .map(|sn| {
                        (
                            sn as u64,
                            Block::synthetic(sn as u64, first_txs[sn], counts[sn]),
                        )
                    })
                    .collect();
                for out in p.execute_batch(&batch) {
                    prop_assert!(matches!(out, ExecOutcome::Applied { .. }));
                }
                // Optionally checkpoint mid-stream: compaction must
                // compose with batched appends exactly as with singles.
                if mid_checkpoint && at == 0 {
                    p.checkpoint(0, vec![0; 4]);
                }
                at += take;
            }
            prop_assert_eq!(p.wal_write_failures(), 0);
            prop_assert_eq!(p.state_root(), reference.state_root());
        }
        // Recovery from the batched artifacts.
        let r = ExecutionPipeline::recover_opts(&dir, DEFAULT_KEYSPACE, 1, wal_opts).unwrap();
        prop_assert_eq!(r.applied(), reference.applied());
        prop_assert_eq!(r.executed_txs(), reference.executed_txs());
        prop_assert_eq!(r.state_root(), reference.state_root());
        prop_assert_eq!(r.lane_roots(), reference.lane_roots());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Observability determinism: the run-level metrics snapshot is part of
// the deterministic surface. Two experiments with the same seed must
// render byte-identical deterministic JSON (only `wall_*` metrics — the
// host-timing split — may differ between runs).
// ---------------------------------------------------------------------

#[test]
fn same_seed_runs_render_byte_identical_metrics_snapshots() {
    use ladon::types::{NetEnv, ProtocolKind};
    use ladon::workload::{run_experiment, ExperimentConfig};

    let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
        .duration_secs(1.5)
        .warmup_secs(1.0)
        .with_seed(42);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);

    let (da, db) = (
        a.metrics.deterministic_json(),
        b.metrics.deterministic_json(),
    );
    assert!(
        da.contains("node.confirmed_blocks"),
        "snapshot must carry node counters: {da}"
    );
    assert!(
        da.contains("trace."),
        "snapshot must carry lifecycle trace metrics: {da}"
    );
    assert_eq!(da, db, "same-seed runs must render identical snapshots");

    // A different seed must actually change the deterministic surface
    // (the gate is not vacuously comparing empty documents).
    let c = run_experiment(&cfg.clone().with_seed(43));
    assert_ne!(
        da,
        c.metrics.deterministic_json(),
        "a different seed should perturb the metrics snapshot"
    );
}
