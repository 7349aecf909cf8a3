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
//! A lane *is* a flat, linear-probed, power-of-two table of 16-byte
//! slots `{ key, state, value }` — no tree, no per-entry allocation. One
//! 64-bit mix of the key places it: the low bits name the lane, the high
//! half the slot where its probe starts (bits the lane index does not
//! use, since every key of a lane shares the low ones). A value of 0
//! means *absent* (canonical form), so a deleted key stays behind as a
//! zero placeholder — keys probed past it must stay findable — and the
//! next rebuild drops it. A table is rebuilt when an insert would pass
//! load ⅞, at the size that holds what is kept at load ≤ ½: larger,
//! smaller, or the same size minus its placeholders, so churn cannot
//! grow it. The table has no key order. The one consumer of key order,
//! a snapshot chunk ([`KvState::lane_entries`]), sorts a lane's live
//! entries when it is captured — **sorted only at capture**, once per
//! epoch, never per op.
//!
//! **The fold rule.** A lane root is a pure function of the lane's
//! *live contents* and is read once per epoch, so no hashing happens on
//! the write path. The slot carries the fold state: a write to a `Clean`
//! slot (or a new key) marks it `Dirty` and pushes `(slot, value at the
//! last fold)` onto the lane's **dirty list** — one push per key touched
//! since the last checkpoint, however often it is rewritten, and no
//! second lookup to find out. [`KvState::fold`] then multiplies, per
//! dirty key *whose value actually changed*, the old leaf into a removal
//! product and the new leaf into an insert product — a key rewritten ten
//! times, or written back to its folded value, costs two hashes or none
//! — and sets `folded ← folded · inserted · removed⁻¹`. MuHash does not
//! care in which order the dirty list is walked. The inverses of all
//! dirty lanes' removal products come from **one** Fermat inverse per
//! fold (Montgomery's trick: prefix products, invert the total,
//! back-substitute — three multiplies per lane); a root read of an
//! unfolded state pays a lane's own inverse instead. The folded value is
//! the canonical residue of the product over the live leaves, whatever
//! the write history and wherever the folds fell — which is what makes
//! the root a content address (history independence). [`KvState::root`]
//! and [`KvState::lane_roots`] take `&self` and fold pending dirty keys
//! into a local copy, so a read nobody folded for is still correct;
//! folding first only makes it cheap.
//!
//! # Execution
//!
//! [`KvState::apply_batch`] applies a batch's ops **in block order on
//! the calling thread** — full read-your-writes semantics — in a
//! **single pass**: each key is hashed once, the hash names the lane for
//! the wave plan below and the slot for the probe, and a
//! read-modify-write reuses its probe. A `Put` or `Get` is one probe, a
//! `Transfer` two. [`KvState::apply`] is the batch of one through the
//! same code. At a few tens of nanoseconds an op is too small for any
//! cross-thread hand-off to pay for itself.
//!
//! # Wave plan (the batch's dependency structure)
//!
//! In the same pass, every batch is *described* by a deterministic
//! dependency DAG. Each op's lane access set is statically known: a `Put`/`Get`
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
//! ~214 waves of ~21 ops — half a microsecond of table work per wave,
//! far less than one cross-thread barrier round costs, which is why
//! block order on one thread is the executor.

use ladon_crypto::{sha256_parts, Sha256};
use ladon_types::{splitmix64, Digest, TxOp};
use std::borrow::Borrow;

pub use ladon_types::MERKLE_LANES;

/// Default number of accounts the synthetic workload spreads ops over
/// (see [`ladon_types::SystemConfig::exec_keyspace`] for the knob).
pub const DEFAULT_KEYSPACE: u32 = 4096;

/// The one 64-bit mix of a key that places it: reduced modulo
/// [`MERKLE_LANES`] it names the lane ([`lane_of`]), and its high half
/// names the slot within the lane's table. Every key of a lane agrees on
/// the low bits, so the slot index has to come from bits the lane index
/// does not use — or a lane's keys would all probe from a few slots.
#[inline]
fn key_hash(key: u32) -> u64 {
    let mut state = key as u64 ^ 0x1ad0_0000_0000_00a1;
    splitmix64(&mut state)
}

/// A key's hash and the lane it names.
#[inline]
fn locate(key: u32) -> (u64, usize) {
    let hash = key_hash(key);
    (hash, (hash % MERKLE_LANES as u64) as usize)
}

/// The fixed lane a key lives in: a splitmix64 hash of the key, reduced
/// modulo [`MERKLE_LANES`]. Hashing (rather than `key % lanes`) keeps the
/// synthetic workload's low dense keys spread across every lane.
#[inline]
pub fn lane_of(key: u32) -> usize {
    locate(key).1
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
    sha256_parts(&[
        b"ladon/state-leaf/v1",
        &key.to_le_bytes(),
        &value.to_le_bytes(),
    ])
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
/// multiplies — paid once per fold ([`invert_all`]; and only when the
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
    Digest(sha256_parts(&[
        b"ladon/lane-root/v3",
        &(len as u64).to_le_bytes(),
        &acc_bytes(acc),
    ]))
}

/// The content root of a lane holding exactly `entries` — what a
/// snapshot chunk is verified against, one lane at a time and without
/// building a map. Canonical form (distinct keys, no zero values) is the
/// caller's to check.
pub fn lane_root_of(entries: &[(u32, u64)]) -> Digest {
    lane_root(entries.len(), &acc_of_entries(entries))
}

/// Replaces every residue with its inverse mod p by Montgomery's trick:
/// prefix products, ONE [`inv_mod`] of the total, back-substitution —
/// three multiplies per residue instead of a Fermat inverse each. The
/// residues are nonzero ([`acc_of_leaf`] never yields 0 and p is
/// prime); a product of 1 (nothing to divide out) skips the inverse.
fn invert_all(values: &mut [Acc]) {
    let mut total = ACC_ONE;
    let mut prefix = Vec::with_capacity(values.len());
    for v in values.iter() {
        prefix.push(total);
        total = mul_mod(&total, v);
    }
    let mut inv = if total == ACC_ONE {
        ACC_ONE
    } else {
        inv_mod(&total)
    };
    for (v, before) in values.iter_mut().zip(prefix).rev() {
        let own = mul_mod(&inv, &before);
        inv = mul_mod(&inv, v);
        *v = own;
    }
}

// ---------------------------------------------------------------------
// Wave plan: the deterministic dependency DAG over lane access sets
// (see the module docs).
// ---------------------------------------------------------------------

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

/// A batch's wave plan, built one op at a time while the batch applies:
/// each op's topological wave is one past the deepest wave among the
/// preceding ops whose lane sets intersect its own. Purely a function
/// of the ops' static access sets — never of state.
struct WavePlan<'a> {
    tails: [Option<LaneTail>; MERKLE_LANES as usize],
    /// Ops per wave so far (the state's scratch, capacity retained).
    wave_ops: &'a mut Vec<u32>,
    ops: u32,
    max_wave_ops: u32,
    cross_lane_edges: u64,
}

impl<'a> WavePlan<'a> {
    fn new(wave_ops: &'a mut Vec<u32>) -> Self {
        wave_ops.clear();
        Self {
            tails: [None; MERKLE_LANES as usize],
            wave_ops,
            ops: 0,
            max_wave_ops: 0,
            cross_lane_edges: 0,
        }
    }

    /// Places the next op, given its static lane access set: its primary
    /// lane `a` (the key's / debit lane) plus, for a cross-lane
    /// transfer, the distinct credit lane `b`.
    #[inline]
    fn place(&mut self, a: usize, b: Option<usize>) {
        let ta = self.tails[a];
        let tb = b.and_then(|l| self.tails[l]);
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
            (Some(x), Some(y)) if x.op == y.op => self.cross_lane_edges += 1,
            (xa, yb) => {
                if xa.is_some_and(|x| x.secondary) {
                    self.cross_lane_edges += 1;
                }
                if yb.is_some() {
                    self.cross_lane_edges += 1;
                }
            }
        }
        // A wave is at most one past the deepest so far.
        if wave as usize == self.wave_ops.len() {
            self.wave_ops.push(0);
        }
        self.wave_ops[wave as usize] += 1;
        self.max_wave_ops = self.max_wave_ops.max(self.wave_ops[wave as usize]);
        let tail = LaneTail {
            wave,
            op: self.ops,
            secondary: false,
        };
        self.tails[a] = Some(tail);
        if let Some(bl) = b {
            self.tails[bl] = Some(LaneTail {
                secondary: true,
                ..tail
            });
        }
        self.ops += 1;
    }
}

// ---------------------------------------------------------------------
// Lane: a flat open-addressed table that carries its own fold state.
// ---------------------------------------------------------------------

/// What a slot holds, relative to the lane's last fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum SlotState {
    /// No key: a probe stops here.
    #[default]
    Empty,
    /// A key whose value is the one the last fold saw.
    Clean,
    /// A key written since the last fold; the lane's dirty list holds
    /// the value it had then.
    Dirty,
}

/// One 16-byte table slot; the default one is empty. A value of 0 means
/// the key is absent (canonical form) — an empty slot holds 0 too, so a
/// probe for an absent key ends at its value — and a deleted key stays
/// behind as a zero placeholder (linear probing must not lose the keys
/// probed past it) until the next rehash drops it.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    key: u32,
    state: SlotState,
    value: u64,
}

/// Smallest table a lane holds.
const MIN_SLOTS: usize = 8;

/// Table size that holds `n` keys at load ≤ ½. A table is rebuilt when
/// an insert would push it past load ⅞, so at least ⅜ of the new table
/// is inserts away from the next rebuild.
fn slots_for(n: usize) -> usize {
    (2 * n).next_power_of_two().max(MIN_SLOTS)
}

/// One Merkle lane: a shard of the key space as a linear-probed,
/// power-of-two table, with a lazily folded content root (the fold rule
/// is in the module docs).
#[derive(Clone, Debug)]
struct Lane {
    slots: Vec<Slot>,
    /// Non-empty slots, zero placeholders included (the load).
    used: usize,
    /// Slots with a nonzero value: the lane's entry count.
    live: usize,
    /// MuHash accumulator of the contents as of the last fold: the
    /// product (mod `2^256 − 189`) of the live entries' leaf residues.
    folded: Acc,
    /// One `(slot index, value at the last fold)` per `Dirty` slot
    /// (0 = absent then), in first-write order. Empty exactly when
    /// `folded` describes the contents.
    dirty: Vec<(u32, u64)>,
}

impl Lane {
    fn with_slots(slots: usize) -> Self {
        Self {
            slots: vec![Slot::default(); slots],
            used: 0,
            live: 0,
            folded: ACC_ONE,
            dirty: Vec::new(),
        }
    }

    /// A folded lane holding exactly the canonical `run`, its table
    /// built at its final size.
    fn from_run(run: &[(u32, u64)]) -> Self {
        debug_assert!(
            run.windows(2).all(|w| w[0].0 < w[1].0) && run.iter().all(|&(_, v)| v != 0),
            "a lane run is canonical: strictly ascending keys, no zero values"
        );
        let mut lane = Self::with_slots(slots_for(run.len()));
        for &(key, value) in run {
            lane.place(Slot {
                key,
                state: SlotState::Clean,
                value,
            });
        }
        lane.used = run.len();
        lane.live = run.len();
        lane.folded = acc_of_entries(run);
        lane
    }

    /// Where `hash`'s probe sequence starts. The lane index took the
    /// hash's low bits ([`lane_of`]), which every key of this lane
    /// shares; the slot index comes from the high half.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.slots.len() - 1)
    }

    /// The one probe: the slot holding `key` and `true`, or the empty
    /// slot a new `key` would take and `false`. Terminates because the
    /// load never exceeds ⅞.
    #[inline]
    fn probe(&self, hash: u64, key: u32) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = &self.slots[i];
            if slot.state == SlotState::Empty {
                return (i, false);
            }
            if slot.key == key {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Reads `key` (0 when absent).
    #[inline]
    fn get(&self, hash: u64, key: u32) -> u64 {
        self.slots[self.probe(hash, key).0].value
    }

    /// Overwrites the occupied slot `i` and, on its first write since
    /// the last fold, remembers the value it replaced. No hashing.
    #[inline]
    fn write(&mut self, i: usize, value: u64) {
        let slot = &mut self.slots[i];
        if slot.state == SlotState::Clean {
            slot.state = SlotState::Dirty;
            self.dirty.push((i as u32, slot.value));
        }
        self.live = self.live + (value != 0) as usize - (slot.value != 0) as usize;
        slot.value = value;
    }

    /// Takes the empty slot `i` that [`Self::probe`] found for an absent
    /// `key`, rebuilding the table first if that would pass load ⅞.
    fn insert(&mut self, mut i: usize, hash: u64, key: u32, value: u64) {
        debug_assert!(value != 0, "absent keys are not stored");
        if self.used == self.slots.len() / 8 * 7 {
            self.rehash();
            i = self.probe(hash, key).0;
        }
        self.slots[i] = Slot {
            key,
            state: SlotState::Dirty,
            value,
        };
        self.dirty.push((i as u32, 0));
        self.used += 1;
        self.live += 1;
    }

    /// `key ← f(key)` in one probe. Zero is absent: writing 0 deletes,
    /// and writing 0 to an absent key does nothing.
    #[inline]
    fn update(&mut self, hash: u64, key: u32, f: impl FnOnce(u64) -> u64) {
        let (i, found) = self.probe(hash, key);
        let value = f(self.slots[i].value);
        if found {
            self.write(i, value);
        } else if value != 0 {
            self.insert(i, hash, key, value);
        }
    }

    /// Moves `slot` into the table (rebuilds only: its key is not in it).
    fn place(&mut self, slot: Slot) -> usize {
        let i = self.probe(key_hash(slot.key), slot.key).0;
        self.slots[i] = slot;
        i
    }

    /// Rebuilds the table at the size its contents need — larger,
    /// smaller or the same — dropping the zero placeholders and
    /// re-indexing the dirty list. What stays: live entries, and deleted
    /// ones the pending fold still has to divide out.
    fn rehash(&mut self) {
        let gone = |&&(i, was): &&(u32, u64)| was != 0 && self.slots[i as usize].value == 0;
        let kept = self.live + self.dirty.iter().filter(gone).count();
        let mut old =
            std::mem::replace(&mut self.slots, vec![Slot::default(); slots_for(kept + 1)]);
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.retain_mut(|(i, was)| {
            let slot = std::mem::take(&mut old[*i as usize]);
            let keep = slot.value != 0 || *was != 0;
            if keep {
                *i = self.place(slot) as u32;
            }
            keep
        });
        self.dirty = dirty;
        for slot in old {
            if slot.value != 0 {
                self.place(slot);
            }
        }
        self.used = kept;
    }

    /// The lane's live entries, in table order.
    fn live_entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let live = self.slots.iter().filter(|s| s.value != 0);
        live.map(|s| (s.key, s.value))
    }

    /// The fold's two products: `folded` times the new leaf of every
    /// dirty key whose value changed since the last fold, and the
    /// product of their old leaves, still to be divided out. MuHash is
    /// order-independent, so the dirty list is walked as it lies.
    fn fold_parts(&self) -> (Acc, Acc) {
        let (mut acc, mut removed) = (self.folded, ACC_ONE);
        for &(i, old) in &self.dirty {
            let slot = &self.slots[i as usize];
            if slot.value == old {
                continue;
            }
            if old != 0 {
                removed = mul_mod(&removed, &acc_of_leaf(&leaf_hash(slot.key, old)));
            }
            if slot.value != 0 {
                acc = mul_mod(&acc, &acc_of_leaf(&leaf_hash(slot.key, slot.value)));
            }
        }
        (acc, removed)
    }

    /// The accumulator of the *current* contents, paying this lane's own
    /// inverse ([`KvState::fold`] shares one across lanes).
    fn current_acc(&self) -> Acc {
        match self.fold_parts() {
            (acc, ACC_ONE) => acc,
            (acc, removed) => mul_mod(&acc, &inv_mod(&removed)),
        }
    }

    /// Ends a fold: `acc` describes the contents, nothing is dirty.
    fn settle(&mut self, acc: Acc) {
        self.folded = acc;
        for (i, _) in self.dirty.drain(..) {
            self.slots[i as usize].state = SlotState::Clean;
        }
    }

    /// The lane's content root: a digest over the entry count and the
    /// accumulator of the current contents. One hash when the lane is
    /// folded.
    fn root(&self) -> Digest {
        lane_root(self.live, &self.current_acc())
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
    /// Content equality: the same live entries. Table size, probe order,
    /// zero placeholders and whether a fold is pending are not content.
    fn eq(&self, other: &Self) -> bool {
        self.lanes.iter().zip(&other.lanes).all(|(a, b)| {
            a.live == b.live && a.live_entries().all(|(k, v)| b.get(key_hash(k), k) == v)
        })
    }
}

impl Eq for KvState {}

impl KvState {
    /// Empty state.
    pub fn new() -> Self {
        Self::from_lanes([])
    }

    /// Builds state from `(key, value)` entries in any order, folded
    /// (tests and figures). Zero values are dropped to restore canonical
    /// form.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let mut s = Self::new();
        for (k, v) in entries {
            let (hash, lane) = locate(k);
            s.lanes[lane].update(hash, k, |_| v);
        }
        s.fold();
        s
    }

    /// Rebuilds state from one canonical entry run per lane, in lane
    /// order (snapshot install and recovery), folded. Each lane table is
    /// built from its run as is, at its final size: the caller has
    /// verified the runs (canonical, confined to their lane).
    pub fn from_lanes<'a>(runs: impl IntoIterator<Item = &'a [(u32, u64)]>) -> Self {
        let mut lanes: Vec<Lane> = runs.into_iter().map(Lane::from_run).collect();
        lanes.resize_with(MERKLE_LANES as usize, || Lane::with_slots(MIN_SLOTS));
        Self {
            lanes,
            wave_scratch: Vec::new(),
        }
    }

    /// Number of live (nonzero) entries.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.live).sum()
    }

    /// True when no entry is set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `key` (0 when absent).
    pub fn get(&self, key: u32) -> u64 {
        let (hash, lane) = locate(key);
        self.lanes[lane].get(hash, key)
    }

    /// One lane's live entries in ascending key order: collected from
    /// the table and sorted here, straight into the `Vec` a snapshot
    /// chunk keeps — once per capture, never per op.
    pub fn lane_entries(&self, lane: usize) -> Vec<(u32, u64)> {
        let mut out = Vec::with_capacity(self.lanes[lane].live);
        out.extend(self.lanes[lane].live_entries());
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Canonical `(key, value)` entries in ascending key order, merged
    /// across lanes (assertions and figures).
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> {
        let mut out: Vec<(u32, u64)> = self.lanes.iter().flat_map(Lane::live_entries).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out.into_iter()
    }

    /// Applies one operation with sequential (read-your-writes)
    /// semantics, returning what it did: [`Self::apply_batch`] of one.
    pub fn apply(&mut self, op: &TxOp) -> ExecEffects {
        self.apply_batch(std::iter::once(op)).effects
    }

    /// Applies a batch of ops in block order on the calling thread, with
    /// sequential (read-your-writes) semantics, and in the same pass
    /// plans the batch's dependency DAG for the outcome's wave counters
    /// (see the module docs; nothing executes by the plan). Each key is
    /// hashed once: the hash names the lane for the plan and the slot
    /// for the probe, and a read-modify-write reuses its probe. Ops come
    /// by reference or by value, so a caller can stream derived ops
    /// without collecting them first.
    pub fn apply_batch<O: Borrow<TxOp>>(
        &mut self,
        ops: impl IntoIterator<Item = O>,
    ) -> BatchOutcome {
        let mut plan = WavePlan::new(&mut self.wave_scratch);
        let mut effects = ExecEffects::default();
        for op in ops {
            match *op.borrow() {
                TxOp::Put { key, value } => {
                    let (hash, lane) = locate(key);
                    plan.place(lane, None);
                    self.lanes[lane].update(hash, key, |_| value);
                    effects.puts += 1;
                }
                TxOp::Get { key } => {
                    let (hash, lane) = locate(key);
                    plan.place(lane, None);
                    let _ = self.lanes[lane].get(hash, key);
                    effects.gets += 1;
                }
                TxOp::Transfer { from, to, amount } => {
                    let ((debit, a), (credit, b)) = (locate(from), locate(to));
                    plan.place(a, (b != a).then_some(b));
                    // An absent source reads 0, so a nonzero `moved`
                    // means `i` is `from`'s slot.
                    let i = self.lanes[a].probe(debit, from).0;
                    let have = self.lanes[a].slots[i].value;
                    let moved = have.min(amount);
                    if moved == 0 || from == to {
                        effects.empty_transfers += 1;
                    } else {
                        self.lanes[a].write(i, have - moved);
                        self.lanes[b].update(credit, to, |dest| dest.saturating_add(moved));
                        effects.transfers += 1;
                    }
                }
            }
        }
        BatchOutcome {
            effects,
            waves: plan.wave_ops.len() as u32,
            max_wave_ops: plan.max_wave_ops,
            cross_lane_edges: plan.cross_lane_edges,
        }
    }

    /// Folds every lane's pending writes into its accumulator (the fold
    /// rule is in the module docs): at most two leaf hashes per key
    /// written since the last fold and one modular inverse shared by all
    /// lanes (Montgomery's trick), after which [`Self::root`] costs
    /// `MERKLE_LANES + 1` hashes. Never changes a root — only what the
    /// next read of one costs.
    pub fn fold(&mut self) {
        let dirty = self.lanes.iter_mut().filter(|l| !l.dirty.is_empty());
        let mut lanes: Vec<&mut Lane> = dirty.collect();
        let (accs, mut removed): (Vec<Acc>, Vec<Acc>) =
            lanes.iter().map(|l| l.fold_parts()).unzip();
        invert_all(&mut removed);
        for ((lane, acc), inv) in lanes.iter_mut().zip(accs).zip(removed) {
            lane.settle(mul_mod(&acc, &inv));
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
        let empty_root = Lane::with_slots(MIN_SLOTS).root();
        let set = |lane: &mut Lane, key: u32, value: u64| {
            lane.update(key_hash(key), key, |_| value);
        };
        let mut lane = Lane::with_slots(MIN_SLOTS);
        set(&mut lane, 7, 5);
        let one_entry = lane.root();
        assert_ne!(one_entry, empty_root);
        set(&mut lane, 7, 0);
        assert_eq!(lane.root(), empty_root, "insert/remove must round-trip");
        set(&mut lane, 7, 5);
        assert_eq!(lane.root(), one_entry, "re-insert must reproduce the root");
        // Overwrite round-trip: set → overwrite → set back.
        set(&mut lane, 7, 9);
        let lane9 = lane.root();
        set(&mut lane, 7, 5);
        assert_eq!(lane.root(), one_entry);
        // The same round trips with a fold after every write.
        for (v, expect) in [(0, empty_root), (5, one_entry), (9, lane9), (5, one_entry)] {
            set(&mut lane, 7, v);
            let acc = lane.current_acc();
            lane.settle(acc);
            assert!(lane.dirty.is_empty());
            assert_eq!(lane.root(), expect, "value {v}");
        }
        // Two lanes holding {a} and {a, b} must differ even after the
        // second removes b (histories differ, contents decide).
        let mut other = Lane::with_slots(MIN_SLOTS);
        set(&mut other, 7, 5);
        set(&mut other, 9, 3);
        set(&mut other, 9, 0);
        assert_eq!(other.root(), one_entry);
        // Duplicated leaves must not cancel to the empty multiset the
        // way the old XOR accumulator's did: two entries with identical
        // leaf residues square the accumulator instead of erasing it.
        let x = acc_of_leaf(&leaf_hash(7, 5));
        assert_ne!(mul_mod(&x, &x), ACC_ONE);
        assert_ne!(mul_mod(&x, &x), x);
    }

    /// The table's size, for the tests that watch it grow and shrink.
    fn slots(s: &KvState) -> usize {
        s.lanes.iter().map(|l| l.slots.len()).sum()
    }

    #[test]
    fn content_is_not_layout() {
        // The same 300 entries by three histories: built in order and
        // folded; written in reverse through bigger values, plus 300
        // keys the others never saw, put and then deleted, nothing
        // folded; and installed from a snapshot's runs.
        let content = |k: u32| (k, k as u64 * 3 + 1);
        let a = KvState::from_entries((0..300).map(content));
        let mut b = KvState::new();
        for k in (0..600u32).rev() {
            b.apply(&TxOp::Put { key: k, value: 99 });
        }
        for k in 0..600u32 {
            let value = if k < 300 { content(k).1 } else { 0 };
            b.apply(&TxOp::Put { key: k, value });
        }
        let runs: Vec<Vec<(u32, u64)>> = (0..MERKLE_LANES as usize)
            .map(|l| a.lane_entries(l))
            .collect();
        let c = KvState::from_lanes(runs.iter().map(Vec::as_slice));
        assert!(slots(&b) > slots(&a), "b's tables grew for 600 keys");
        assert!(b
            .lanes
            .iter()
            .any(|l| l.used > l.live && !l.dirty.is_empty()));
        for other in [&b, &c] {
            assert!(a == *other);
            assert!(*other == a);
            assert_eq!((other.len(), other.is_empty()), (300, false));
            assert!(other.entries().eq(a.entries()));
            assert_eq!(other.lane_roots(), a.lane_roots());
        }
        b.apply(&TxOp::Put { key: 7, value: 5 });
        assert!(a != b);
        assert!(b != a);
        // Emptied again, a state equals the one that never held a key.
        let mut d = a.clone();
        for k in 0..300u32 {
            d.apply(&TxOp::Put { key: k, value: 0 });
        }
        assert!(d == KvState::new() && d.is_empty() && d.entries().next().is_none());
        assert_eq!(d.root(), KvState::new().root());
    }

    #[test]
    fn writing_zero_to_an_absent_key_is_a_noop() {
        let mut s = KvState::new();
        s.apply(&TxOp::Put { key: 9, value: 0 });
        let fx = s.apply(&TxOp::Transfer {
            from: 9,
            to: 10,
            amount: 4,
        });
        assert_eq!(fx.empty_transfers, 1);
        assert!(s.lanes.iter().all(|l| l.used == 0 && l.dirty.is_empty()));
        assert_eq!(hashes_in(|| s.fold()), 0);
    }

    #[test]
    fn churn_reclaims_placeholders() {
        // Put-then-delete of distinct keys, twenty times what the tables
        // ever hold together, around a resident set of 100: a deleted
        // key's placeholder is dropped at the next rebuild, whether a
        // fold came in between (every 64 keys here) or never.
        for fold_every in [64u32, u32::MAX] {
            let mut s = KvState::from_entries((0..100).map(|k| (k, 1)));
            let resident = slots(&s);
            let mut peak = 0;
            for k in 0..40 * resident as u32 {
                let key = 1_000 + k;
                s.apply(&TxOp::Put { key, value: 7 });
                s.apply(&TxOp::Put { key, value: 0 });
                if k % fold_every == fold_every - 1 {
                    s.fold();
                }
                peak = peak.max(slots(&s));
            }
            assert!(peak <= 2 * resident, "{peak} slots for {resident}");
            assert_eq!(s.len(), 100);
            assert_eq!(
                s.root(),
                KvState::from_entries((0..100).map(|k| (k, 1))).root()
            );
        }
    }

    #[test]
    fn rehash_while_dirty_keeps_the_fold_exact() {
        // 29 keys of one lane, none folded: the table doubles three
        // times (8 → 64) under a dirty list that has to follow its
        // slots — among them a folded key deleted since (kept: the fold
        // must still divide it out) and a key put and deleted since
        // (dropped with its dirty entry: the fold owes it nothing).
        let lane0: Vec<u32> = (0..).filter(|&k| lane_of(k) == 0).take(40).collect();
        let mut s = KvState::from_entries([(lane0[0], 5), (lane0[1], 6)]);
        s.apply(&TxOp::Put {
            key: lane0[0],
            value: 0,
        });
        s.apply(&TxOp::Put {
            key: lane0[2],
            value: 9,
        });
        s.apply(&TxOp::Put {
            key: lane0[2],
            value: 0,
        });
        assert_eq!((s.lanes[0].slots.len(), s.lanes[0].dirty.len()), (8, 2));
        for &key in &lane0[3..32] {
            s.apply(&TxOp::Put { key, value: 1 });
        }
        let lane = &s.lanes[0];
        assert_eq!((lane.slots.len(), lane.live, lane.used), (64, 30, 31));
        assert_eq!(lane.dirty.len(), 30, "the put-then-deleted key is gone");
        for &(i, _) in &lane.dirty {
            assert_eq!(lane.slots[i as usize].state, SlotState::Dirty);
        }
        let expect = KvState::from_entries(
            std::iter::once((lane0[1], 6)).chain(lane0[3..32].iter().map(|&k| (k, 1))),
        );
        assert_eq!(s.lane_roots(), expect.lane_roots());
        s.fold();
        assert_eq!(s.lane_roots(), expect.lane_roots());
        assert!(s == expect);
    }

    #[test]
    fn one_inverse_per_fold_equals_one_per_lane() {
        // Four kinds of lane in one fold: only inserts, only removals,
        // both, and none. The shared inverse must leave every lane at
        // the accumulator its own Fermat inverse computes.
        let keys_of = |lane: usize| (0u32..).filter(move |&k| lane_of(k) == lane);
        let mut s = KvState::from_entries((1..=3).flat_map(|l| keys_of(l).take(6)).map(|k| (k, 4)));
        for key in keys_of(0).take(5) {
            s.apply(&TxOp::Put { key, value: 8 });
        }
        for key in keys_of(1).take(3) {
            s.apply(&TxOp::Put { key, value: 0 });
        }
        for (n, key) in keys_of(2).take(9).enumerate() {
            let value = n as u64 % 3;
            s.apply(&TxOp::Put { key, value });
        }
        let expect: Vec<Acc> = s.lanes.iter().map(Lane::current_acc).collect();
        let removes = |l: &Lane| l.fold_parts().1 != ACC_ONE;
        let shape = |l: &Lane| (l.dirty.is_empty(), removes(l));
        assert_eq!(shape(&s.lanes[0]), (false, false));
        assert_eq!(shape(&s.lanes[1]), (false, true));
        assert_eq!(shape(&s.lanes[2]), (false, true));
        assert_eq!(shape(&s.lanes[3]), (true, false));
        s.fold();
        let folded: Vec<Acc> = s.lanes.iter().map(|l| l.folded).collect();
        assert_eq!(folded, expect);
        assert!(s.lanes.iter().all(|l| l.dirty.is_empty()));
        assert_eq!(s.lanes[3].folded, acc_of_entries(&s.lane_entries(3)));
        // The trick itself: every residue inverted, an empty slice and
        // an all-ones slice (no inverse to pay) included.
        let mut values: Vec<Acc> = (1..=5u64).map(|v| acc_of_leaf(&leaf_hash(1, v))).collect();
        values.push(ACC_ONE);
        let orig = values.clone();
        invert_all(&mut values);
        for (v, inv) in orig.iter().zip(&values) {
            assert_eq!(mul_mod(v, inv), ACC_ONE);
        }
        invert_all(&mut []);
        let mut ones = [ACC_ONE; 3];
        invert_all(&mut ones);
        assert_eq!(ones, [ACC_ONE; 3]);
    }

    #[test]
    fn probes_per_find_stay_short() {
        // Under `TxOp::for_id`'s uniform keys a find is a couple of
        // probes. A linear probe's length is the distance from the
        // key's home slot to the slot `probe` returns, so the count
        // needs no hook on the hot path. What it relies on: a table is
        // rebuilt before an insert passes load 7/8 and rebuilt to load
        // <= 1/2, so a lane sits between 1/4 and 7/8 full (asserted
        // below, and that the tables together sit near 1/2) — and the
        // slot index is independent of `lane_of`: were it taken from
        // the bits all keys of a lane share, every key of a lane would
        // start its probe in the same 1/64th of the table and the mean
        // would be in the tens.
        for keyspace in [4096u32, 1 << 20] {
            let mut s = KvState::new();
            let warm = 4 * keyspace as u64;
            for i in 0..warm {
                s.apply(&TxOp::for_id(TxId(i), keyspace));
            }
            let (used, size) = s.lanes.iter().fold((0, 0), |(u, c), l| {
                assert!(l.used * 8 <= l.slots.len() * 7 && l.used * 4 >= l.slots.len());
                (u + l.used, c + l.slots.len())
            });
            let load = used as f64 / size as f64;
            assert!(
                (0.4..=0.7).contains(&load),
                "keyspace {keyspace}: load {load}"
            );
            let (mut finds, mut probes, mut max) = (0u64, 0u64, 0u64);
            for i in warm..warm + keyspace as u64 {
                let op = TxOp::for_id(TxId(i), keyspace);
                let keys = match op {
                    TxOp::Put { key, .. } | TxOp::Get { key } => [Some(key), None],
                    TxOp::Transfer { from, to, .. } => [Some(from), Some(to)],
                };
                for key in keys.into_iter().flatten() {
                    let (hash, lane) = locate(key);
                    let lane = &s.lanes[lane];
                    let (i, _) = lane.probe(hash, key);
                    let steps = (i.wrapping_sub(lane.home(hash)) & (lane.slots.len() - 1)) + 1;
                    finds += 1;
                    probes += steps as u64;
                    max = max.max(steps as u64);
                }
                s.apply(&op);
            }
            let mean = probes as f64 / finds as f64;
            assert!(
                mean <= 2.5 && max <= 48,
                "keyspace {keyspace}: mean {mean}, max {max}"
            );
        }
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
        let out = s.apply_batch(ops);
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
        let out = s.apply_batch([TxOp::Transfer {
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
