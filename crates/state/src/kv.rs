//! The deterministic key-value state machine, sharded into Merkle lanes.
//!
//! State is a map `account (u32) → balance/value (u64)`. Ops are the tiny
//! payloads carried (by derivation) in every transaction
//! ([`ladon_types::TxOp`]): `Put` overwrites, `Get` reads, `Transfer`
//! moves a clamped amount between accounts. All three are deterministic,
//! so any two replicas applying the same confirmed sequence hold
//! bit-identical state.
//!
//! # Lanes
//!
//! The keyspace is partitioned into [`MERKLE_LANES`] fixed **lanes** by
//! key hash ([`lane_of`]). Each lane has a content root: a **MuHash**
//! multiset accumulator — the *product*, modulo the 256-bit prime
//! `p = 2^256 − 189`, of the SHA-256 leaf hashes of its live entries —
//! finalized with the entry count. The **state root** is a SHA-256 over
//! the ordered lane-root vector, so computing it costs O(lanes),
//! independent of the keyspace size. (Multiplication mod p is
//! order-independent by construction — the property a content address
//! needs — and finding a colliding multiset means solving a
//! multiplicative-knapsack/discrete-log-style problem in `Z_p^*` rather
//! than a Wagner generalized-birthday subset *sum*.)
//!
//! **The fold rule.** A lane root is a pure function of the lane's
//! *live contents* and is read once per epoch, so no hashing happens on
//! the write path: a write updates the map and, for a key first touched
//! since the last fold, records the value it had then (the lane's dirty
//! set, bounded by the keys touched since the last checkpoint).
//! [`KvState::fold`] then multiplies, per dirty key *whose value
//! actually changed*, the old leaf into a removal product and the new
//! leaf into an insert product — a key rewritten ten times, or written
//! back to its folded value, costs two hashes or none — and sets
//! `folded ← folded · inserted · removed⁻¹`: one Fermat inverse per
//! dirty lane per fold, none on a root read. The folded value is the
//! canonical residue of the product over the live leaves, whatever the
//! write history and wherever the folds fell — which is what makes the
//! root a content address (history independence). [`KvState::root`] and
//! [`KvState::lane_roots`] take `&self` and fold pending dirty keys
//! into a local copy, so a read nobody folded for is still correct;
//! folding first only makes it cheap.
//!
//! # Execution
//!
//! [`KvState::apply_batch`] applies a batch's ops **in block order on
//! the calling thread** — full read-your-writes semantics, the same as
//! folding [`KvState::apply`] over the ops. With hashing off the write
//! path an op is a couple of `BTreeMap` operations, too small for any
//! cross-thread hand-off to pay for itself.
//!
//! # Wave plan (the batch's dependency structure)
//!
//! Alongside, every batch is *described* by a deterministic dependency
//! DAG. Each op's lane access set is statically known: a `Put`/`Get`
//! touches its key's lane, a `Transfer` touches the debit lane and
//! (when different) the credit lane. Op B *depends on* op A iff A
//! precedes B in block order and their lane sets intersect. One linear
//! pass partitions the batch into **topological waves**: an op's wave is
//! one past the deepest wave among the ops it depends on (per-lane tails
//! carry that maximum). Within a wave no two ops share a lane, so a
//! wave's ops commute. Conflict-free batches collapse to one wave; a
//! fully serial transfer chain degrades to one wave per op.
//!
//! The plan is a pure function of the ops' static access sets and
//! nothing executes by it: its counters in [`BatchOutcome`] (`waves`,
//! `max_wave_ops`, `cross_lane_edges`) report how much lane-level
//! parallelism a batch *has*. On the paper's 4096-tx blocks that is
//! ~214 waves of ~21 ops — a few microseconds of map work per wave,
//! less than one cross-thread barrier round costs, which is why block
//! order on one thread is the executor.

use ladon_crypto::Sha256;
use ladon_types::{splitmix64, Digest, TxOp};
use std::collections::BTreeMap;

pub use ladon_types::MERKLE_LANES;

/// Default number of accounts the synthetic workload spreads ops over
/// (see [`ladon_types::SystemConfig::exec_keyspace`] for the knob).
pub const DEFAULT_KEYSPACE: u32 = 4096;

/// The fixed lane a key lives in: a splitmix64 hash of the key, reduced
/// modulo [`MERKLE_LANES`]. Hashing (rather than `key % lanes`) keeps the
/// synthetic workload's low dense keys spread across every lane.
#[inline]
pub fn lane_of(key: u32) -> usize {
    let mut state = key as u64 ^ 0x1ad0_0000_0000_00a1;
    (splitmix64(&mut state) % MERKLE_LANES as u64) as usize
}

/// Counters of applied operations (per block or cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecEffects {
    /// `Put` ops applied.
    pub puts: u64,
    /// `Get` ops served.
    pub gets: u64,
    /// `Transfer` ops that moved a nonzero amount.
    pub transfers: u64,
    /// `Transfer` ops that were no-ops (empty source account).
    pub empty_transfers: u64,
}

impl ExecEffects {
    /// Total operations applied.
    pub fn total(&self) -> u64 {
        self.puts + self.gets + self.transfers + self.empty_transfers
    }

    /// Accumulates another effect set.
    pub fn absorb(&mut self, other: ExecEffects) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.transfers += other.transfers;
        self.empty_transfers += other.empty_transfers;
    }
}

/// What [`KvState::apply_batch`] did: summed effects and the wave-plan
/// counters describing the batch's dependency DAG — a pure function of
/// the ops' static lane access sets (pinned by this module's
/// `wave_plan_shapes` and `batch_apply_is_apply_in_order_…` tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Summed operation effects.
    pub effects: ExecEffects,
    /// Topological waves the batch's dependency DAG partitioned into
    /// (0 for an empty batch; 1 when no two ops share a lane).
    pub waves: u32,
    /// Ops in the fullest wave — the batch's peak lane-level
    /// parallelism.
    pub max_wave_ops: u32,
    /// Immediate dependency edges whose shared lane is a *secondary*
    /// (cross-lane credit) lane of either endpoint — the dependencies
    /// the old per-lane two-phase scheme could not order within a block,
    /// and exactly what the DAG buys read-your-writes semantics for.
    pub cross_lane_edges: u64,
}

/// SHA-256 leaf hash of one live entry.
#[inline]
fn leaf_hash(key: u32, value: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ladon/state-leaf/v1");
    h.update(&key.to_le_bytes());
    h.update(&value.to_le_bytes());
    h.finalize()
}

// ---------------------------------------------------------------------
// MuHash multiset accumulator: 256-bit multiplication mod p.
// ---------------------------------------------------------------------

/// The accumulator modulus `p = 2^256 − 189`, the largest 256-bit prime,
/// as little-endian 64-bit limbs.
const MUHASH_P: [u64; 4] = [u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX];

/// A 256-bit residue mod [`MUHASH_P`], little-endian limbs.
type Acc = [u64; 4];

/// The multiplicative identity — the empty multiset's accumulator.
const ACC_ONE: Acc = [1, 0, 0, 0];

/// Interprets a leaf hash as a *nonzero* residue mod p: reduced (the
/// reduction fires with probability ~2⁻²⁴⁸, but determinism requires
/// it), and a residue of exactly 0 — probability 2⁻²⁵⁵ — is mapped to 1
/// so it cannot absorb the product (the entry still counts through the
/// lane root's length field).
#[inline]
fn acc_of_leaf(leaf: &[u8; 32]) -> Acc {
    let mut limbs = [0u64; 4];
    for (i, limb) in limbs.iter_mut().enumerate() {
        *limb = u64::from_le_bytes(leaf[i * 8..(i + 1) * 8].try_into().unwrap());
    }
    if acc_geq(&limbs, &MUHASH_P) {
        limbs = raw_sub(&limbs, &MUHASH_P).0;
    }
    if limbs == [0u64; 4] {
        limbs = ACC_ONE;
    }
    limbs
}

/// `a >= b` on 256-bit little-endian limbs.
#[inline]
fn acc_geq(a: &Acc, b: &Acc) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// Wrapping 256-bit subtract; returns (diff mod 2^256, borrow).
#[inline]
fn raw_sub(a: &Acc, b: &Acc) -> (Acc, bool) {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        out[i] = d2;
        borrow = b1 | b2;
    }
    (out, borrow)
}

/// `(a · b) mod p`: schoolbook 256×256 → 512-bit multiply, then fold the
/// high half down via `2^256 ≡ 189 (mod p)`.
fn mul_mod(a: &Acc, b: &Acc) -> Acc {
    // 512-bit product in 8 limbs.
    let mut w = [0u64; 8];
    for i in 0..4 {
        let mut carry: u128 = 0;
        for j in 0..4 {
            let cur = w[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
            w[i + j] = cur as u64;
            carry = cur >> 64;
        }
        w[i + 4] = carry as u64;
    }
    // First fold: t = lo + 189·hi (hi < 2^256 → t < 2^256 + 189·2^256,
    // five limbs with t[4] ≤ 189).
    let mut t = [0u64; 5];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let cur = w[i] as u128 + w[i + 4] as u128 * 189 + carry;
        t[i] = cur as u64;
        carry = cur >> 64;
    }
    t[4] = carry as u64;
    // Second fold: r = t[0..4] + 189·t[4]; a wrap past 2^256 folds once
    // more (the wrapped value is tiny, so one extra add of 189 settles
    // it).
    let mut r = [t[0], t[1], t[2], t[3]];
    let mut add: u128 = t[4] as u128 * 189;
    for limb in r.iter_mut() {
        let cur = *limb as u128 + add;
        *limb = cur as u64;
        add = cur >> 64;
    }
    if add > 0 {
        let mut extra: u128 = add * 189;
        for limb in r.iter_mut() {
            let cur = *limb as u128 + extra;
            *limb = cur as u64;
            extra = cur >> 64;
            if extra == 0 {
                break;
            }
        }
    }
    if acc_geq(&r, &MUHASH_P) {
        r = raw_sub(&r, &MUHASH_P).0;
    }
    r
}

/// `a⁻¹ mod p` by Fermat (`a^(p−2)`), for `a ≠ 0`. ~510 modular
/// multiplies — paid once per dirty lane per fold (and only when the
/// fold removes a leaf), never on the write path.
fn inv_mod(a: &Acc) -> Acc {
    // p − 2 = 2^256 − 191.
    const EXP: Acc = [u64::MAX - 190, u64::MAX, u64::MAX, u64::MAX];
    let mut result = ACC_ONE;
    let mut base = *a;
    for limb in EXP {
        let mut bits = limb;
        for _ in 0..64 {
            if bits & 1 == 1 {
                result = mul_mod(&result, &base);
            }
            base = mul_mod(&base, &base);
            bits >>= 1;
        }
    }
    result
}

/// Serializes a residue to the 32 little-endian bytes the lane root
/// digests.
#[inline]
fn acc_bytes(a: &Acc) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, limb) in a.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// The accumulator of a lane holding exactly `entries`: the product of
/// their leaf residues.
fn acc_of_entries(entries: &[(u32, u64)]) -> Acc {
    entries.iter().fold(ACC_ONE, |acc, &(k, v)| {
        mul_mod(&acc, &acc_of_leaf(&leaf_hash(k, v)))
    })
}

/// A lane's content root: a digest over its live entry count and the
/// accumulator of those entries.
fn lane_root(len: usize, acc: &Acc) -> Digest {
    let mut h = Sha256::new();
    h.update(b"ladon/lane-root/v3");
    h.update(&(len as u64).to_le_bytes());
    h.update(&acc_bytes(acc));
    Digest(h.finalize())
}

/// The content root of a lane holding exactly `entries` — what a
/// snapshot chunk is verified against, one lane at a time and without
/// building a map. Canonical form (distinct keys, no zero values) is the
/// caller's to check.
pub fn lane_root_of(entries: &[(u32, u64)]) -> Digest {
    lane_root(entries.len(), &acc_of_entries(entries))
}

// ---------------------------------------------------------------------
// Wave plan: the deterministic dependency DAG over lane access sets
// (see the module docs).
// ---------------------------------------------------------------------

/// The static lane access set of one op: its primary lane (the key's /
/// debit lane) plus, for a cross-lane transfer, the distinct credit
/// lane.
#[inline]
fn access_lanes(op: &TxOp) -> (usize, Option<usize>) {
    match *op {
        TxOp::Put { key, .. } | TxOp::Get { key } => (lane_of(key), None),
        TxOp::Transfer { from, to, .. } => {
            let a = lane_of(from);
            let b = lane_of(to);
            (a, (b != a).then_some(b))
        }
    }
}

/// Per-lane tail while building a wave plan: the latest op that touched
/// the lane.
#[derive(Clone, Copy)]
struct LaneTail {
    /// Wave that op landed in.
    wave: u32,
    /// The op's index within the batch.
    op: u32,
    /// True when the lane was that op's *secondary* (credit) lane.
    secondary: bool,
}

/// The counters a wave plan produces.
#[derive(Clone, Copy, Debug, Default)]
struct WaveStats {
    waves: u32,
    max_wave_ops: u32,
    cross_lane_edges: u64,
}

/// Builds the batch's wave plan in one pass: each op's topological wave
/// is one past the deepest wave among the preceding ops whose lane sets
/// intersect its own. `wave_ops` is scratch for the wave populations.
/// Purely a function of the ops' static access sets — never of state.
fn plan_waves<'a>(ops: impl Iterator<Item = &'a TxOp>, wave_ops: &mut Vec<u32>) -> WaveStats {
    wave_ops.clear();
    let mut tails: [Option<LaneTail>; MERKLE_LANES as usize] = [None; MERKLE_LANES as usize];
    let mut stats = WaveStats::default();
    for (idx, op) in ops.enumerate() {
        let (a, b) = access_lanes(op);
        let ta = tails[a];
        let tb = b.and_then(|l| tails[l]);
        let mut wave = 0u32;
        if let Some(t) = ta {
            wave = wave.max(t.wave + 1);
        }
        if let Some(t) = tb {
            wave = wave.max(t.wave + 1);
        }
        // Immediate dependency edges (per-lane transitive reduction). An
        // edge is *cross-lane* when its shared lane is a secondary
        // (credit) lane of either endpoint: a same-primary-lane edge
        // would be ordered by per-lane sequencing alone.
        match (ta, tb) {
            (Some(x), Some(y)) if x.op == y.op => stats.cross_lane_edges += 1,
            (xa, yb) => {
                if xa.is_some_and(|x| x.secondary) {
                    stats.cross_lane_edges += 1;
                }
                if yb.is_some() {
                    stats.cross_lane_edges += 1;
                }
            }
        }
        // A wave is at most one past the deepest so far.
        if wave as usize == wave_ops.len() {
            wave_ops.push(0);
        }
        wave_ops[wave as usize] += 1;
        stats.max_wave_ops = stats.max_wave_ops.max(wave_ops[wave as usize]);
        let tail = LaneTail {
            wave,
            op: idx as u32,
            secondary: false,
        };
        tails[a] = Some(tail);
        if let Some(bl) = b {
            tails[bl] = Some(LaneTail {
                secondary: true,
                ..tail
            });
        }
    }
    stats.waves = wave_ops.len() as u32;
    stats
}

/// Applies one op with sequential (read-your-writes) semantics.
#[inline]
fn apply_op(lanes: &mut [Lane], op: &TxOp, fx: &mut ExecEffects) {
    match *op {
        TxOp::Put { key, value } => {
            lanes[lane_of(key)].set(key, value);
            fx.puts += 1;
        }
        TxOp::Get { key } => {
            let _ = lanes[lane_of(key)].get(key);
            fx.gets += 1;
        }
        TxOp::Transfer { from, to, amount } => {
            let lf = lane_of(from);
            let have = lanes[lf].get(from);
            let moved = have.min(amount);
            if moved == 0 || from == to {
                fx.empty_transfers += 1;
            } else {
                lanes[lf].set(from, have - moved);
                let lt = lane_of(to);
                let dest = lanes[lt].get(to);
                lanes[lt].set(to, dest.saturating_add(moved));
                fx.transfers += 1;
            }
        }
    }
}

/// One Merkle lane: a shard of the key space with a lazily folded
/// content root (the fold rule is in the module docs).
#[derive(Clone, Debug)]
struct Lane {
    /// Canonical contents: no zero-valued entries are ever stored.
    entries: BTreeMap<u32, u64>,
    /// MuHash accumulator of the contents as of the last fold: the
    /// product (mod `2^256 − 189`) of the live entries' leaf residues.
    folded: Acc,
    /// Keys written since the last fold, each with the value it had at
    /// that fold (0 = absent). Empty exactly when `folded` describes
    /// `entries`.
    dirty: BTreeMap<u32, u64>,
}

impl Default for Lane {
    fn default() -> Self {
        Self {
            entries: BTreeMap::new(),
            folded: ACC_ONE,
            dirty: BTreeMap::new(),
        }
    }
}

impl Lane {
    /// Reads `key` (0 when absent).
    #[inline]
    fn get(&self, key: u32) -> u64 {
        self.entries.get(&key).copied().unwrap_or(0)
    }

    /// Writes `key` (zero values delete — canonical form) and, on the
    /// key's first write since the last fold, remembers the value it
    /// replaced. No hashing.
    #[inline]
    fn set(&mut self, key: u32, value: u64) {
        let old = if value == 0 {
            self.entries.remove(&key)
        } else {
            self.entries.insert(key, value)
        };
        self.dirty.entry(key).or_insert(old.unwrap_or(0));
    }

    /// The accumulator of the *current* contents: `folded` with every
    /// dirty key whose value changed since the last fold divided out at
    /// its old value and multiplied in at its new one.
    fn current_acc(&self) -> Acc {
        if self.dirty.is_empty() {
            return self.folded;
        }
        let mut inserted = ACC_ONE;
        let mut removed = ACC_ONE;
        for (&key, &old) in &self.dirty {
            let new = self.get(key);
            if new == old {
                continue;
            }
            if old != 0 {
                removed = mul_mod(&removed, &acc_of_leaf(&leaf_hash(key, old)));
            }
            if new != 0 {
                inserted = mul_mod(&inserted, &acc_of_leaf(&leaf_hash(key, new)));
            }
        }
        let acc = mul_mod(&self.folded, &inserted);
        if removed == ACC_ONE {
            acc
        } else {
            mul_mod(&acc, &inv_mod(&removed))
        }
    }

    /// Brings `folded` up to date with `entries` and empties the dirty
    /// set.
    fn fold(&mut self) {
        self.folded = self.current_acc();
        self.dirty.clear();
    }

    /// The lane's content root: a digest over the entry count and the
    /// accumulator of the current contents. One hash when the lane is
    /// folded.
    fn root(&self) -> Digest {
        lane_root(self.entries.len(), &self.current_acc())
    }
}

/// The replicated key-value state, sharded into [`MERKLE_LANES`] lanes.
#[derive(Clone, Debug)]
pub struct KvState {
    lanes: Vec<Lane>,
    /// Reusable wave-population scratch for [`Self::apply_batch`]'s plan
    /// (cleared between batches, capacity retained).
    wave_scratch: Vec<u32>,
}

impl Default for KvState {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for KvState {
    /// Content equality (whether a fold is pending is not content).
    fn eq(&self, other: &Self) -> bool {
        self.lanes
            .iter()
            .zip(&other.lanes)
            .all(|(a, b)| a.entries == b.entries)
    }
}

impl Eq for KvState {}

impl KvState {
    /// Empty state.
    pub fn new() -> Self {
        Self {
            lanes: vec![Lane::default(); MERKLE_LANES as usize],
            wave_scratch: Vec::new(),
        }
    }

    /// Builds state from `(key, value)` entries in any order, folded
    /// (tests and figures; the bucket-by-lane loop). Zero values are
    /// dropped to restore canonical form.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut s = Self::new();
        for (k, v) in entries {
            s.lanes[lane_of(k)].set(k, v);
        }
        s.fold();
        s
    }

    /// Rebuilds state from one canonical entry run per lane, in lane
    /// order (snapshot install and recovery), folded. Each lane map is
    /// built from its run as is: the caller has verified the runs
    /// (canonical, confined to their lane).
    pub fn from_lanes<'a>(runs: impl IntoIterator<Item = &'a [(u32, u64)]>) -> Self {
        let mut lanes: Vec<Lane> = runs
            .into_iter()
            .map(|run| Lane {
                entries: run.iter().copied().collect(),
                folded: acc_of_entries(run),
                dirty: BTreeMap::new(),
            })
            .collect();
        lanes.resize_with(MERKLE_LANES as usize, Lane::default);
        Self {
            lanes,
            wave_scratch: Vec::new(),
        }
    }

    /// Number of live (nonzero) entries.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.entries.len()).sum()
    }

    /// True when no entry is set.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.entries.is_empty())
    }

    /// Reads `key` (0 when absent).
    pub fn get(&self, key: u32) -> u64 {
        self.lanes[lane_of(key)].get(key)
    }

    /// One lane's live entries in ascending key order (snapshot capture
    /// reads the 64 lane maps as they are — no merge, no sort).
    pub fn lane_entries(&self, lane: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.lanes[lane].entries.iter().map(|(&k, &v)| (k, v))
    }

    /// Canonical `(key, value)` entries in ascending key order, merged
    /// across lanes (assertions and figures).
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> {
        let mut out: Vec<(u32, u64)> = self
            .lanes
            .iter()
            .flat_map(|l| l.entries.iter().map(|(&k, &v)| (k, v)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out.into_iter()
    }

    /// Applies one operation with sequential (read-your-writes)
    /// semantics, returning what it did — [`Self::apply_batch`] for a
    /// batch of one, without the plan.
    pub fn apply(&mut self, op: &TxOp) -> ExecEffects {
        let mut fx = ExecEffects::default();
        apply_op(&mut self.lanes, op, &mut fx);
        fx
    }

    /// Applies a batch of ops in block order on the calling thread —
    /// exactly folding [`Self::apply`] over them — and plans the batch's
    /// dependency DAG from the static lane access sets for the outcome's
    /// wave counters (see the module docs; nothing executes by the
    /// plan). The ops are walked twice, hence the `Clone` bound.
    pub fn apply_batch<'a, I>(&mut self, ops: I) -> BatchOutcome
    where
        I: IntoIterator<Item = &'a TxOp>,
        I::IntoIter: Clone,
    {
        let ops = ops.into_iter();
        let stats = plan_waves(ops.clone(), &mut self.wave_scratch);
        let mut effects = ExecEffects::default();
        for op in ops {
            apply_op(&mut self.lanes, op, &mut effects);
        }
        BatchOutcome {
            effects,
            waves: stats.waves,
            max_wave_ops: stats.max_wave_ops,
            cross_lane_edges: stats.cross_lane_edges,
        }
    }

    /// Folds every lane's pending writes into its accumulator (the fold
    /// rule is in the module docs): at most two leaf hashes per key
    /// written since the last fold, after which [`Self::root`] costs
    /// `MERKLE_LANES + 1` hashes. Never changes a root — only what the
    /// next read of one costs.
    pub fn fold(&mut self) {
        for lane in &mut self.lanes {
            lane.fold();
        }
    }

    /// The ordered lane-root vector (length [`MERKLE_LANES`]) — the
    /// Merkle leaves the state root digests, recorded verbatim in every
    /// snapshot head.
    pub fn lane_roots(&self) -> Vec<Digest> {
        self.lanes.iter().map(Lane::root).collect()
    }

    /// The two-level state root: SHA-256 over the ordered lane roots.
    /// O(lanes) on a folded state, independent of the keyspace size; on
    /// an unfolded one it also pays the pending fold, into a local copy.
    pub fn root(&self) -> Digest {
        let roots = self.lane_roots();
        Self::root_of_lane_roots(&roots)
    }

    /// Folds an ordered lane-root vector into the state root (the same
    /// digest [`Self::root`] returns; snapshot verification uses this to
    /// bind the manifest's lane-root vector to the contents).
    pub fn root_of_lane_roots(roots: &[Digest]) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ladon/state-root/v2");
        h.update(&(roots.len() as u64).to_le_bytes());
        for r in roots {
            h.update(&r.0);
        }
        Digest(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::hex32;
    use ladon_crypto::CryptoCounters;
    use ladon_types::TxId;

    /// SHA-256 finalizations `f` performs on this thread.
    fn hashes_in(f: impl FnOnce()) -> u64 {
        let before = CryptoCounters::snapshot();
        f();
        CryptoCounters::snapshot().since(&before).hashes
    }

    #[test]
    fn root_is_content_addressed() {
        let mut a = KvState::new();
        a.apply(&TxOp::Put { key: 1, value: 10 });
        a.apply(&TxOp::Put { key: 2, value: 20 });
        // Same content via a different history.
        let mut b = KvState::new();
        b.apply(&TxOp::Put { key: 2, value: 99 });
        b.apply(&TxOp::Put { key: 2, value: 20 });
        b.apply(&TxOp::Put { key: 1, value: 10 });
        assert_eq!(a.root(), b.root());
        // And via snapshot entries.
        let c = KvState::from_entries(a.entries());
        assert_eq!(c.root(), a.root());
        assert_ne!(KvState::new().root(), a.root());
    }

    #[test]
    fn zero_values_are_canonicalized_away() {
        let mut a = KvState::new();
        a.apply(&TxOp::Put { key: 7, value: 5 });
        a.apply(&TxOp::Put { key: 7, value: 0 });
        assert_eq!(a.len(), 0);
        assert_eq!(a.root(), KvState::new().root());
        let b = KvState::from_entries([(1, 0), (2, 3)]);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn transfer_clamps_to_balance() {
        let mut s = KvState::new();
        s.apply(&TxOp::Put { key: 1, value: 10 });
        let fx = s.apply(&TxOp::Transfer {
            from: 1,
            to: 2,
            amount: 25,
        });
        assert_eq!(fx.transfers, 1);
        assert_eq!(s.get(1), 0);
        assert_eq!(s.get(2), 10);
        // Empty source: no-op.
        let fx = s.apply(&TxOp::Transfer {
            from: 1,
            to: 2,
            amount: 1,
        });
        assert_eq!(fx.empty_transfers, 1);
        assert_eq!(s.get(2), 10);
    }

    #[test]
    fn self_transfer_is_a_noop() {
        let mut s = KvState::new();
        s.apply(&TxOp::Put { key: 3, value: 8 });
        let before = s.root();
        let fx = s.apply(&TxOp::Transfer {
            from: 3,
            to: 3,
            amount: 5,
        });
        assert_eq!(fx.empty_transfers, 1);
        assert_eq!(s.root(), before);
    }

    #[test]
    fn muhash_accumulator_algebra() {
        // Multiplication commutes, Fermat inversion is exact, and the
        // modulus wraps correctly at the 2^256 boundary.
        let x = acc_of_leaf(&leaf_hash(1, 10));
        let y = acc_of_leaf(&leaf_hash(2, 20));
        assert_eq!(mul_mod(&x, &y), mul_mod(&y, &x));
        assert_eq!(mul_mod(&x, &ACC_ONE), x);
        assert_eq!(mul_mod(&x, &inv_mod(&x)), ACC_ONE);
        // Insert-then-remove round-trips through the inverse: xy · x⁻¹ = y.
        assert_eq!(mul_mod(&mul_mod(&x, &y), &inv_mod(&x)), y);
        // Unlike XOR — and unlike any characteristic-2 accumulator — a
        // duplicated leaf does not cancel: {x, x} ≠ {}.
        assert_ne!(mul_mod(&x, &x), ACC_ONE);
        // Wrap-around: (p − 1)² ≡ 1 (the only element of order 2), and
        // (p − 1) · 2 ≡ p − 2.
        let one = ACC_ONE;
        let two = [2u64, 0, 0, 0];
        let p_minus_1 = raw_sub(&MUHASH_P, &one).0;
        let p_minus_2 = raw_sub(&MUHASH_P, &two).0;
        assert_eq!(mul_mod(&p_minus_1, &p_minus_1), ACC_ONE);
        assert_eq!(mul_mod(&p_minus_1, &two), p_minus_2);
        assert_eq!(mul_mod(&p_minus_2, &inv_mod(&p_minus_2)), ACC_ONE);
    }

    #[test]
    fn lane_insert_remove_round_trips_and_duplicates_dont_cancel() {
        // Round-trip: inserting then removing an entry restores the
        // empty lane's root exactly (numerator/denominator finalize to
        // the identity), across interleaved histories.
        let empty_root = Lane::default().root();
        let mut lane = Lane::default();
        lane.set(7, 5);
        let one_entry = lane.root();
        assert_ne!(one_entry, empty_root);
        lane.set(7, 0);
        assert_eq!(lane.root(), empty_root, "insert/remove must round-trip");
        lane.set(7, 5);
        assert_eq!(lane.root(), one_entry, "re-insert must reproduce the root");
        // Overwrite round-trip: set → overwrite → set back.
        lane.set(7, 9);
        let lane9 = lane.root();
        lane.set(7, 5);
        assert_eq!(lane.root(), one_entry);
        // The same round trips with a fold after every write.
        for (v, expect) in [(0, empty_root), (5, one_entry), (9, lane9), (5, one_entry)] {
            lane.set(7, v);
            lane.fold();
            assert!(lane.dirty.is_empty());
            assert_eq!(lane.root(), expect, "value {v}");
        }
        // Two lanes holding {a} and {a, b} must differ even after the
        // second removes b (histories differ, contents decide).
        let mut other = Lane::default();
        other.set(7, 5);
        other.set(9, 3);
        other.set(9, 0);
        assert_eq!(other.root(), one_entry);
        // Duplicated leaves must not cancel to the empty multiset the
        // way the old XOR accumulator's did: two entries with identical
        // leaf residues square the accumulator instead of erasing it.
        let x = acc_of_leaf(&leaf_hash(7, 5));
        assert_ne!(mul_mod(&x, &x), ACC_ONE);
        assert_ne!(mul_mod(&x, &x), x);
    }

    #[test]
    fn lane_roots_update_incrementally() {
        let mut s = KvState::new();
        s.apply(&TxOp::Put { key: 5, value: 9 });
        let before = s.lane_roots();
        // Touch exactly one key: exactly one lane root may change.
        s.apply(&TxOp::Put { key: 5, value: 10 });
        let after = s.lane_roots();
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
        assert_eq!(before.len(), MERKLE_LANES as usize);
        // Deleting restores the untouched-lane root exactly.
        s.apply(&TxOp::Put { key: 5, value: 0 });
        let cleared = s.lane_roots();
        assert_eq!(cleared, KvState::new().lane_roots());
    }

    #[test]
    fn root_matches_lane_root_fold() {
        let mut s = KvState::new();
        for k in 0..200u32 {
            s.apply(&TxOp::Put {
                key: k,
                value: k as u64 + 1,
            });
        }
        let roots = s.lane_roots();
        assert_eq!(s.root(), KvState::root_of_lane_roots(&roots));
    }

    #[test]
    fn batch_apply_is_apply_in_order_with_pinned_plan_counters() {
        // `apply_batch` is folding `apply` over the ops — entries, roots
        // and effects — and the plan counters of these two fixed batches
        // are the ones every earlier revision of the planner printed.
        for (n, keyspace, plan) in [
            (4096u64, 512u32, (213u32, 36u32, 2125u64)),
            (2048, 96, (185, 27, 1057)),
        ] {
            let ops: Vec<TxOp> = (0..n).map(|i| TxOp::for_id(TxId(i), keyspace)).collect();
            let mut reference = KvState::new();
            let mut ref_fx = ExecEffects::default();
            for op in &ops {
                ref_fx.absorb(reference.apply(op));
            }
            let mut s = KvState::new();
            let out = s.apply_batch(&ops);
            assert_eq!(out.effects, ref_fx);
            assert_eq!(out.effects.total(), n);
            assert!(s.entries().eq(reference.entries()));
            assert_eq!(s.lane_roots(), reference.lane_roots());
            assert_eq!(s.root(), reference.root());
            assert_eq!(
                (out.waves, out.max_wave_ops, out.cross_lane_edges),
                plan,
                "n={n}"
            );
        }
    }

    #[test]
    fn roots_are_pinned() {
        // No root byte may move: these are the values the eager
        // (hash-on-write) accumulator produced for the same sequence.
        let ops: Vec<TxOp> = (0..4096u64).map(|i| TxOp::for_id(TxId(i), 512)).collect();
        let mut s = KvState::new();
        s.apply_batch(&ops);
        for k in 0..32u32 {
            s.apply(&TxOp::Put { key: k, value: 0 });
        }
        for k in 16..48u32 {
            s.apply(&TxOp::Put {
                key: k,
                value: k as u64 * 7 + 1,
            });
        }
        assert_eq!(s.len(), 494);
        let check = |s: &KvState| {
            let lanes = s.lane_roots();
            assert_eq!(
                hex32(&s.root()),
                "568461a2f1dfcfedea680a8766a072d234a3ae1f2a0c41388b0465386e56e995"
            );
            assert_eq!(
                hex32(&lanes[0]),
                "187fc3ce1f85d0f30835b0dd6dfa1f21c2688c21438bb792fe4f802485ae8fda"
            );
            assert_eq!(
                hex32(&lanes[17]),
                "e52e1ed0731aaa4222f8f3931b2c9f9cc41288e4d9c8ffd5fcd990828ce77478"
            );
        };
        check(&s);
        s.fold();
        check(&s);
    }

    #[test]
    fn hashing_happens_at_fold_not_on_write() {
        let ops: Vec<TxOp> = (0..4096u64).map(|i| TxOp::for_id(TxId(i), 512)).collect();
        let written: std::collections::BTreeSet<u32> = ops
            .iter()
            .flat_map(|op| match *op {
                TxOp::Put { key, .. } => vec![key],
                TxOp::Transfer { from, to, .. } => vec![from, to],
                TxOp::Get { .. } => vec![],
            })
            .collect();
        let mut s = KvState::new();
        assert_eq!(
            hashes_in(|| {
                s.apply_batch(&ops);
            }),
            0
        );
        let fold = hashes_in(|| s.fold());
        assert!(fold > 0 && fold <= 2 * written.len() as u64, "{fold}");
        assert_eq!(hashes_in(|| s.fold()), 0, "nothing is dirty after a fold");
        assert_eq!(
            hashes_in(|| {
                s.root();
            }),
            MERKLE_LANES as u64 + 1
        );
        // A key rewritten many times costs what one rewrite costs, and a
        // key written back to its folded value costs nothing.
        let was = s.get(1);
        for v in 1..=10u64 {
            s.apply(&TxOp::Put {
                key: 1,
                value: was + v,
            });
        }
        assert_eq!(hashes_in(|| s.fold()), 2);
        s.apply(&TxOp::Put { key: 1, value: 3 });
        s.apply(&TxOp::Put {
            key: 1,
            value: was + 10,
        });
        assert_eq!(hashes_in(|| s.fold()), 0);
    }

    #[test]
    fn unfolded_reads_equal_folded_reads() {
        let ops: Vec<TxOp> = (0..600u64).map(|i| TxOp::for_id(TxId(i), 64)).collect();
        let mut s = KvState::new();
        s.apply_batch(&ops[..300]);
        s.fold();
        s.apply_batch(&ops[300..]);
        let unfolded = (s.root(), s.lane_roots());
        let mut folded = s.clone();
        folded.fold();
        assert_eq!((folded.root(), folded.lane_roots()), unfolded);
        let rebuilt = KvState::from_entries(s.entries());
        assert_eq!((rebuilt.root(), rebuilt.lane_roots()), unfolded);
    }

    #[test]
    fn same_block_cross_lane_credit_is_readable() {
        // Read-your-writes across lanes: a → b → c in ONE batch, where b
        // starts empty — the b → c transfer must see the same-block
        // credit, and the plan puts it in a later wave.
        let a = 0u32;
        let b = (1..DEFAULT_KEYSPACE)
            .find(|&k| lane_of(k) != lane_of(a))
            .unwrap();
        let c = (1..DEFAULT_KEYSPACE)
            .find(|&k| lane_of(k) != lane_of(a) && lane_of(k) != lane_of(b))
            .unwrap();
        let ops = [
            TxOp::Put { key: a, value: 10 },
            TxOp::Transfer {
                from: a,
                to: b,
                amount: 6,
            },
            TxOp::Transfer {
                from: b,
                to: c,
                amount: 6,
            },
        ];
        let mut s = KvState::new();
        let out = s.apply_batch(&ops);
        assert_eq!(s.get(a), 4);
        assert_eq!(s.get(b), 0);
        assert_eq!(s.get(c), 6, "credit must be readable");
        assert_eq!(out.effects.transfers, 2);
        // Three ops in a strict chain: three waves. The put→debit edge
        // shares lane(a) as both ops' primary lane (same-lane); the
        // debit→credit edge shares lane(b), the first transfer's
        // *credit* lane — the one cross-lane edge.
        assert_eq!(out.waves, 3);
        assert_eq!(out.max_wave_ops, 1);
        assert_eq!(out.cross_lane_edges, 1);
    }

    #[test]
    fn wave_plan_shapes() {
        // Conflict-free: puts to keys in distinct lanes collapse to one
        // wave with zero cross-lane edges.
        let mut seen = std::collections::BTreeSet::new();
        let mut free = Vec::new();
        for k in 0..DEFAULT_KEYSPACE {
            if seen.insert(lane_of(k)) {
                free.push(TxOp::Put { key: k, value: 1 });
                if free.len() == 32 {
                    break;
                }
            }
        }
        assert_eq!(free.len(), 32);
        let mut s = KvState::new();
        let out = s.apply_batch(&free);
        assert_eq!(out.waves, 1);
        assert_eq!(out.max_wave_ops, 32);
        assert_eq!(out.cross_lane_edges, 0);

        // Serial chain: each transfer reads the previous one's credit,
        // so the DAG degrades to one wave per op.
        let keys: Vec<u32> = (0..DEFAULT_KEYSPACE).take(17).collect();
        let mut chain = vec![TxOp::Put {
            key: keys[0],
            value: 1000,
        }];
        for w in keys.windows(2) {
            chain.push(TxOp::Transfer {
                from: w[0],
                to: w[1],
                amount: 10,
            });
        }
        let mut s = KvState::new();
        let out = s.apply_batch(&chain);
        assert_eq!(out.waves, chain.len() as u32, "a chain is fully serial");
        assert_eq!(out.max_wave_ops, 1);
    }

    #[test]
    fn credit_only_lanes_change_their_root() {
        // Two keys in different lanes: the credited lane sees no op of
        // its own, only the credit — and its root must still move.
        let a = 0u32;
        let b = (1..DEFAULT_KEYSPACE)
            .find(|&k| lane_of(k) != lane_of(a))
            .expect("some key lands in another lane");
        let mut s = KvState::new();
        s.apply(&TxOp::Put { key: a, value: 10 });
        let before = s.lane_roots();
        let out = s.apply_batch(&[TxOp::Transfer {
            from: a,
            to: b,
            amount: 4,
        }]);
        assert_eq!(out.effects.transfers, 1);
        assert_eq!(s.get(b), 4);
        let changed: Vec<usize> = (0..MERKLE_LANES as usize)
            .filter(|&l| before[l] != s.lane_roots()[l])
            .collect();
        let mut expect = vec![lane_of(a), lane_of(b)];
        expect.sort_unstable();
        assert_eq!(changed, expect);
    }

    #[test]
    fn batch_apply_single_op_matches_apply() {
        for i in 0..256u64 {
            let op = TxOp::for_id(TxId(i), 64);
            let mut a = KvState::new();
            a.apply(&TxOp::Put { key: 1, value: 50 });
            let mut b = a.clone();
            a.apply(&op);
            b.apply_batch(std::slice::from_ref(&op));
            assert_eq!(a.root(), b.root(), "op {i}: {op:?}");
        }
    }

    #[test]
    fn derived_ops_are_deterministic_and_mixed() {
        let mut kinds = [0u32; 3];
        for i in 0..1000u64 {
            let op = TxOp::for_id(TxId(i), DEFAULT_KEYSPACE);
            assert_eq!(op, TxOp::for_id(TxId(i), DEFAULT_KEYSPACE));
            match op {
                TxOp::Put { key, .. } => {
                    assert!(key < DEFAULT_KEYSPACE);
                    kinds[0] += 1;
                }
                TxOp::Transfer { from, to, .. } => {
                    assert!(from < DEFAULT_KEYSPACE && to < DEFAULT_KEYSPACE);
                    kinds[1] += 1;
                }
                TxOp::Get { key } => {
                    assert!(key < DEFAULT_KEYSPACE);
                    kinds[2] += 1;
                }
            }
        }
        assert!(kinds.iter().all(|&k| k > 100), "skewed op mix: {kinds:?}");
    }

    #[test]
    fn lanes_are_reasonably_balanced() {
        let mut counts = vec![0u32; MERKLE_LANES as usize];
        for k in 0..DEFAULT_KEYSPACE {
            counts[lane_of(k)] += 1;
        }
        let expect = DEFAULT_KEYSPACE / MERKLE_LANES;
        assert!(
            counts.iter().all(|&c| c > expect / 4 && c < expect * 4),
            "lane skew: {counts:?}"
        );
    }
}
