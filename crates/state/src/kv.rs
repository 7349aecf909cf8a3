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
//! # Storage
//!
//! A lane is a hash class of keys, not a container. Balances live in
//! **pages** indexed by account id: page `key >> 12` holds accounts
//! `4096·id .. 4096·id + 4095`. Three flat arrays hold every allocated
//! page, one page-sized run each, in allocation order: the balances
//! (0 = absent, the canonical form), the same balances **as of the last
//! fold**, and one **mark** byte per account. A page is allocated on its
//! first nonzero write and never moves, so a read or write is a
//! directory lookup and an array index — no key hash, no probe, no
//! placeholder. The directory is the allocated pages' `(id, slot)`
//! sorted by id: its size tracks the pages in use, not the highest key
//! (a key near `u32::MAX` costs one page, not a million directory
//! slots), and a keyspace `0..n` keeps every page at the index equal to
//! its id, so one comparison finds it. [`KvState::entries`] is the pages
//! read in directory order, so key order, and a snapshot's chunks
//! ([`KvState::lane_runs`]) are one ascending pass bucketed by
//! [`lane_of`], sorted without a sort.
//!
//! **The fold rule.** A lane root is a pure function of the lane's
//! *live contents* and is read once per epoch, so no hashing happens on
//! the write path: a write stores the value and sets the account's mark,
//! two stores and no read. [`KvState::fold`] walks the marks, eight at a
//! time, and [`lane_of`] runs there: per marked account *whose value
//! differs from its folded copy*, the old leaf goes into its lane's
//! removal product and the new leaf into its insert product — an
//! account rewritten ten times, or written back to its folded value,
//! costs two hashes or none — and each lane sets
//! `folded ← folded · inserted · removed⁻¹`. MuHash does not care in
//! which order the accounts are walked. The inverses of all lanes'
//! removal products come from **one** Fermat inverse per fold
//! (Montgomery's trick: prefix products, invert the total,
//! back-substitute — three multiplies per lane). The fold then copies
//! each marked group's values into the folded copy and clears its
//! marks. The folded value is the canonical residue of the product over
//! the live leaves, whatever the write history and wherever the folds
//! fell — which is what makes the root a content address (history
//! independence). [`KvState::root`] and [`KvState::lane_roots`] take
//! `&self` and fold the marked accounts into a local copy, so a read
//! nobody folded for is still correct; folding first only makes it
//! cheap.
//!
//! # Execution
//!
//! Every op goes through **one loop** and takes one shape: read the
//! source and the destination, compute both new values by select, write
//! both, mark both, and count the effects from the same selects — no
//! branch on the op kind (a put's source and destination are its key; a
//! get writes back what it read). The pipeline's entry,
//! [`KvState::apply_txs`], draws each transaction's op from its id
//! ([`ladon_types::OpDraw`]) straight into that shape;
//! [`KvState::apply_batch`] lowers [`TxOp`]s into it and
//! [`KvState::apply`] is the batch of one. The loop applies **in block
//! order on one thread** — full read-your-writes semantics. A step with
//! an account on a page away from its own directory index, or on a page
//! not allocated, is the one branch: it takes the same outcome through
//! the directory search, and a nonzero write allocates its page. At a
//! few nanoseconds an op is too small to hand to another thread by
//! itself; a whole acknowledged batch is not, and the pipeline hands
//! large ones to the shared executor ([`crate::exec`]), which applies
//! each on one thread all the same.

use ladon_crypto::{sha256_parts, Sha256};
use ladon_types::{splitmix64, Digest, OpDraw, TxId, TxOp};
use std::borrow::Borrow;
use std::hint::select_unpredictable;

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

    /// A step's two new values from the two it read — every op's
    /// arithmetic, by mask — counted into these effects from the same
    /// masks.
    #[inline(always)]
    fn outcome(&mut self, (src, dst, arg, put, transfer): Step, s: u64, d: u64) -> (u64, u64) {
        // The amount a transfer asks for (0 for any other op or a
        // self-transfer), clamped to the balance. Every choice is a
        // select the compiler must not turn into a branch: which way it
        // goes depends on the op kind or on the data.
        let want = select_unpredictable(transfer & (src != dst), arg, 0);
        let moved = select_unpredictable(s < want, s, want);
        let new_s = select_unpredictable(put, arg, s - moved);
        let new_d = select_unpredictable(put, arg, d.saturating_add(moved));
        let moves = (moved != 0) as u64;
        self.puts += put as u64;
        self.gets += !(put | transfer) as u64;
        self.transfers += moves;
        self.empty_transfers += transfer as u64 - moves;
        (new_s, new_d)
    }

    /// Accumulates another effect set.
    pub fn absorb(&mut self, other: ExecEffects) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.transfers += other.transfers;
        self.empty_transfers += other.empty_transfers;
    }
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
// Storage: account-id pages, and the folded state of each lane.
// ---------------------------------------------------------------------

/// log₂ of the accounts one page holds.
const PAGE_BITS: u32 = 12;

/// Accounts per page: account `key` lives at offset `key % PAGE_KEYS` of
/// page `key >> PAGE_BITS`.
const PAGE_KEYS: usize = 1 << PAGE_BITS;

/// Accounts whose marks the fold reads as one word.
const MARK_GROUP: usize = 8;

/// One Merkle lane as of the last fold (the fold rule is in the module
/// docs).
#[derive(Clone, Copy, Debug)]
struct Lane {
    /// MuHash accumulator of the lane's live entries: the product (mod
    /// `2^256 − 189`) of their leaf residues.
    folded: Acc,
    /// The lane's live entry count.
    live: usize,
}

impl Lane {
    const EMPTY: Lane = Lane {
        folded: ACC_ONE,
        live: 0,
    };

    /// The lane's content root: a digest over the entry count and the
    /// accumulator.
    fn root(&self) -> Digest {
        lane_root(self.live, &self.folded)
    }
}

/// One op in the shape the apply loop gives every op,
/// `(src, dst, arg, put, transfer)`: read `src` and `dst`, write both. A
/// put writes `arg` to its key (`src == dst`), a transfer moves up to
/// `arg` from `src` to `dst`, and a get writes back what it read. `put`
/// and `transfer` name the kind; the loop reads them through selects,
/// never a branch.
type Step = (u32, u32, u64, bool, bool);

/// A [`TxOp`], lowered into a [`Step`].
#[inline]
fn lower(op: &TxOp) -> Step {
    match *op {
        TxOp::Put { key, value } => (key, key, value, true, false),
        TxOp::Get { key } => (key, key, 0, false, false),
        TxOp::Transfer { from, to, amount } => (from, to, amount, false, true),
    }
}

/// A drawn op read as it is, into a [`Step`]: its kind picks the fields
/// by select, so nothing branches on it.
#[inline]
fn step_of(d: OpDraw) -> Step {
    let (put, transfer) = (d.is_put(), d.is_transfer());
    let to = select_unpredictable(transfer, d.to, d.key);
    (
        d.key,
        to,
        select_unpredictable(put, d.value, d.amount),
        put,
        transfer,
    )
}

/// Account `key`'s index in the flat arrays if its page sits at the
/// directory index equal to its id — as every page of a keyspace `0..n`
/// does, so one comparison finds it.
#[inline(always)]
fn in_place(dir: &[(u32, u32)], key: u32) -> Option<usize> {
    let (id, slot) = *dir.get((key >> PAGE_BITS) as usize)?;
    (id == key >> PAGE_BITS).then(|| flat(slot, key))
}

/// Account `key`'s index in the flat arrays, on the page at `slot`.
#[inline(always)]
fn flat(slot: u32, key: u32) -> usize {
    ((slot as usize) << PAGE_BITS) | (key as usize % PAGE_KEYS)
}

/// The replicated key-value state, sharded into [`MERKLE_LANES`] lanes.
#[derive(Clone, Debug)]
pub struct KvState {
    /// `(page id, slot)` of every page holding an account written
    /// nonzero, ascending by id. Page `slot` is
    /// `slot · PAGE_KEYS .. (slot + 1) · PAGE_KEYS` of each flat array
    /// below; slots go in allocation order and never move.
    dir: Vec<(u32, u32)>,
    /// Every allocated account's balance (0 = absent).
    values: Vec<u64>,
    /// Every allocated account's balance as of the last fold.
    folded: Vec<u64>,
    /// One mark per allocated account: nonzero when it was written since
    /// the last fold. An unmarked account holds its folded value.
    marks: Vec<u8>,
    /// Every lane as of the last fold, in lane order.
    lanes: Vec<Lane>,
}

impl Default for KvState {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for KvState {
    /// Content equality: the same live entries. Which pages are
    /// allocated and whether a fold is pending are not content.
    fn eq(&self, other: &Self) -> bool {
        self.entries().eq(other.entries())
    }
}

impl Eq for KvState {}

impl KvState {
    /// Empty state.
    pub fn new() -> Self {
        Self {
            dir: Vec::new(),
            values: Vec::new(),
            folded: Vec::new(),
            marks: Vec::new(),
            lanes: vec![Lane::EMPTY; MERKLE_LANES as usize],
        }
    }

    /// Builds state from `(key, value)` entries in any order, folded
    /// (tests). Zero values are dropped to restore canonical
    /// form.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let (mut s, entries) = (Self::new(), entries.into_iter());
        s.apply_batch(entries.map(|(key, value)| TxOp::Put { key, value }));
        s.fold();
        s
    }

    /// Rebuilds state from one canonical entry run per lane, in lane
    /// order (snapshot install and recovery), folded: the caller has
    /// verified the runs (canonical, confined to their lane).
    pub fn from_lanes<'a>(runs: impl IntoIterator<Item = &'a [(u32, u64)]>) -> Self {
        Self::from_entries(runs.into_iter().flatten().copied())
    }

    /// Number of live (nonzero) entries: one pass over the allocated
    /// pages.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// True when no entry is set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where page `id` sits in the directory, or where it would be
    /// inserted.
    fn search(&self, id: u32) -> Result<usize, usize> {
        self.dir.binary_search_by_key(&id, |&(at, _)| at)
    }

    /// Account `key`'s index in the flat arrays, if its page is
    /// allocated: in place, or binary-searched.
    #[inline]
    fn slot(&self, key: u32) -> Option<usize> {
        let searched = || Some(flat(self.dir[self.search(key >> PAGE_BITS).ok()?].1, key));
        in_place(&self.dir, key).or_else(searched)
    }

    /// Reads `key` (0 when absent).
    #[inline]
    pub fn get(&self, key: u32) -> u64 {
        self.slot(key).map_or(0, |i| self.values[i])
    }

    /// Canonical `(key, value)` entries in ascending key order: the pages
    /// read in directory order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.dir.iter().flat_map(|&(id, slot)| {
            let page = &self.values[(slot as usize) << PAGE_BITS..][..PAGE_KEYS];
            let live = page.iter().enumerate().filter(|&(_, &v)| v != 0);
            live.map(move |(at, &v)| (id << PAGE_BITS | at as u32, v))
        })
    }

    /// Every lane's live entries in ascending key order, in lane order:
    /// one ascending pass over the pages, bucketed by [`lane_of`] —
    /// what a snapshot's chunks hold.
    pub fn lane_runs(&self) -> Vec<Vec<(u32, u64)>> {
        let mut runs: Vec<Vec<(u32, u64)>> = self
            .lanes
            .iter()
            .map(|l| Vec::with_capacity(l.live))
            .collect();
        for (k, v) in self.entries() {
            runs[lane_of(k)].push((k, v));
        }
        runs
    }

    /// One lane's live entries in ascending key order.
    pub fn lane_entries(&self, lane: usize) -> Vec<(u32, u64)> {
        self.entries()
            .filter(|&(k, _)| lane_of(k) == lane)
            .collect()
    }

    /// Applies one operation with sequential (read-your-writes)
    /// semantics, returning what it did: [`Self::apply_batch`] of one.
    pub fn apply(&mut self, op: &TxOp) -> ExecEffects {
        self.apply_batch(std::iter::once(op))
    }

    /// Applies a batch of ops in block order on the calling thread, with
    /// sequential (read-your-writes) semantics, and returns their summed
    /// effects: each op lowered into the apply loop's shape. Ops come by
    /// reference or by value.
    pub fn apply_batch<O: Borrow<TxOp>>(
        &mut self,
        ops: impl IntoIterator<Item = O>,
    ) -> ExecEffects {
        self.run(ops.into_iter().map(|op| lower(op.borrow())))
    }

    /// Applies the ops of the `count` transactions from `first` on (ids
    /// past `u64::MAX` wrap to 0), over a `keyspace`-account state, in
    /// id order: each drawn ([`OpDraw`]) straight into the apply loop's
    /// shape. What the pipeline applies a confirmed block with; equal
    /// to [`Self::apply_batch`] over [`TxOp::for_id`] of the same ids.
    pub fn apply_txs(&mut self, first: TxId, count: u32, keyspace: u32) -> ExecEffects {
        let ids = (0..count as u64).map(|i| TxId(first.0.wrapping_add(i)));
        self.run(ids.map(|id| step_of(OpDraw::of(id, keyspace))))
    }

    /// The apply loop (its shape is in the module docs): passes over the
    /// pages in place, each ending at a step with an account elsewhere —
    /// on a page away from its own directory index, or on none — which
    /// takes the same outcome through the directory search, a nonzero
    /// write allocating its page, before the next pass.
    fn run(&mut self, steps: impl IntoIterator<Item = Step>) -> ExecEffects {
        let (mut steps, mut fx) = (steps.into_iter(), ExecEffects::default());
        loop {
            // A pass: both loads, the outcome by mask, both stores, both
            // marks, until a step has an account elsewhere.
            let (dir, values, marks) = (&self.dir[..], &mut self.values[..], &mut self.marks[..]);
            let elsewhere = steps.by_ref().find(|&step| {
                let (Some(i), Some(j)) = (in_place(dir, step.0), in_place(dir, step.1)) else {
                    return true;
                };
                let (new_s, new_d) = fx.outcome(step, values[i], values[j]);
                values[j] = new_d;
                values[i] = new_s;
                (marks[j], marks[i]) = (1, 1);
                false
            });
            let Some(step) = elsewhere else {
                return fx;
            };
            let (new_s, new_d) = fx.outcome(step, self.get(step.0), self.get(step.1));
            self.store_allocating(step.1, new_d);
            self.store_allocating(step.0, new_s);
        }
    }

    /// The apply loop's write for an account whose page may be absent:
    /// a nonzero value allocates the page, and 0 to an absent page
    /// stores nothing.
    #[cold]
    fn store_allocating(&mut self, key: u32, value: u64) {
        let id = key >> PAGE_BITS;
        if let (Err(at), true) = (self.search(id), value != 0) {
            self.dir
                .insert(at, (id, (self.values.len() / PAGE_KEYS) as u32));
            self.values.resize(self.values.len() + PAGE_KEYS, 0);
            self.folded.resize(self.values.len(), 0);
            self.marks.resize(self.values.len(), 0);
        }
        if let Some(i) = self.slot(key) {
            (self.values[i], self.marks[i]) = (value, 1);
        }
    }

    /// The fold's two parts, per lane: the lane with the new leaf of
    /// every account whose value changed since the last fold multiplied
    /// in and its entry count updated, and the product of those
    /// accounts' old leaves, still to be divided out. One walk of the
    /// marked accounts, bucketed by [`lane_of`]; MuHash is
    /// order-independent, so the pages are walked as they lie.
    fn fold_parts(&self) -> (Vec<Lane>, Vec<Acc>) {
        let mut lanes = self.lanes.clone();
        let mut removed = vec![ACC_ONE; lanes.len()];
        for &(id, slot) in &self.dir {
            let base = (slot as usize) << PAGE_BITS;
            let marks = &self.marks[base..base + PAGE_KEYS];
            let groups = marks.chunks_exact(MARK_GROUP).enumerate();
            let marked = groups.filter(|(_, group)| *group != [0; MARK_GROUP]);
            for at in marked.flat_map(|(g, _)| g * MARK_GROUP..(g + 1) * MARK_GROUP) {
                let (old, new) = (self.folded[base + at], self.values[base + at]);
                if new == old {
                    continue;
                }
                let key = id << PAGE_BITS | at as u32;
                let lane = lane_of(key);
                if old != 0 {
                    removed[lane] = mul_mod(&removed[lane], &acc_of_leaf(&leaf_hash(key, old)));
                    lanes[lane].live -= 1;
                }
                if new != 0 {
                    let l = &mut lanes[lane];
                    l.folded = mul_mod(&l.folded, &acc_of_leaf(&leaf_hash(key, new)));
                    l.live += 1;
                }
            }
        }
        (lanes, removed)
    }

    /// Every lane as a fold would leave it: at most two leaf hashes per
    /// changed account and one modular inverse shared by the lanes with
    /// a leaf to divide out (Montgomery's trick); a lane with none keeps
    /// its accumulator, so a folded state's roots pay no multiply.
    fn folded_lanes(&self) -> Vec<Lane> {
        let (mut lanes, removed) = self.fold_parts();
        let owing = removed.iter().enumerate().filter(|&(_, r)| *r != ACC_ONE);
        let (at, mut inverses): (Vec<usize>, Vec<Acc>) = owing.map(|(l, r)| (l, *r)).unzip();
        invert_all(&mut inverses);
        for (l, inv) in at.into_iter().zip(&inverses) {
            lanes[l].folded = mul_mod(&lanes[l].folded, inv);
        }
        lanes
    }

    /// Folds the pending writes into the lanes' accumulators (the fold
    /// rule is in the module docs), after which [`Self::root`] costs
    /// `MERKLE_LANES + 1` hashes. Never changes a root — only what the
    /// next read of one costs.
    pub fn fold(&mut self) {
        self.lanes = self.folded_lanes();
        for g in (0..self.marks.len()).step_by(MARK_GROUP) {
            let group = g..g + MARK_GROUP;
            if self.marks[group.clone()] != [0; MARK_GROUP] {
                self.folded[group.clone()].copy_from_slice(&self.values[group.clone()]);
                self.marks[group].fill(0);
            }
        }
    }

    /// The ordered lane-root vector (length [`MERKLE_LANES`]) — the
    /// Merkle leaves the state root digests, recorded verbatim in every
    /// snapshot head.
    pub fn lane_roots(&self) -> Vec<Digest> {
        self.folded_lanes().iter().map(Lane::root).collect()
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

    /// SHA-256 finalizations `f` performs on this thread.
    fn hashes_in(f: impl FnOnce()) -> u64 {
        let before = CryptoCounters::snapshot();
        f();
        CryptoCounters::snapshot().since(&before).hashes
    }

    /// Every allocated account as `(key, flat index)`, ascending.
    fn accounts(s: &KvState) -> impl Iterator<Item = (u32, usize)> + '_ {
        s.dir.iter().flat_map(|&(id, slot)| {
            let base = (slot as usize) << PAGE_BITS;
            (0..PAGE_KEYS).map(move |at| (id << PAGE_BITS | at as u32, base + at))
        })
    }

    /// Every account marked since the last fold, ascending.
    fn marked(s: &KvState) -> Vec<u32> {
        let marked = accounts(s).filter(|&(_, i)| s.marks[i] != 0);
        marked.map(|(key, _)| key).collect()
    }

    /// What the next fold hashes: every account whose value differs
    /// from its folded copy, as `(key, folded, value)`, ascending. Each
    /// one is marked.
    fn changed(s: &KvState) -> Vec<(u32, u64, u64)> {
        let changed = accounts(s).filter(|&(_, i)| s.values[i] != s.folded[i]);
        let out: Vec<_> = changed
            .map(|(k, i)| (k, s.folded[i], s.values[i]))
            .collect();
        let marks = marked(s);
        assert!(out.iter().all(|(k, ..)| marks.binary_search(k).is_ok()));
        out
    }

    /// The allocated pages' ids, in directory order.
    fn page_ids(s: &KvState) -> Vec<u32> {
        s.dir.iter().map(|&(id, _)| id).collect()
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
    fn insert_remove_round_trips_and_duplicates_dont_cancel() {
        // Round-trip: inserting then removing an entry restores the
        // empty state's lane roots exactly (numerator/denominator
        // finalize to the identity), across interleaved histories.
        let empty_roots = KvState::new().lane_roots();
        let set = |s: &mut KvState, key: u32, value: u64| {
            s.apply(&TxOp::Put { key, value });
        };
        let mut s = KvState::new();
        set(&mut s, 7, 5);
        let one_entry = s.lane_roots();
        assert_ne!(one_entry, empty_roots);
        set(&mut s, 7, 0);
        assert_eq!(s.lane_roots(), empty_roots, "insert/remove must round-trip");
        set(&mut s, 7, 5);
        assert_eq!(
            s.lane_roots(),
            one_entry,
            "re-insert must reproduce the root"
        );
        // Overwrite round-trip: set → overwrite → set back.
        set(&mut s, 7, 9);
        let nine = s.lane_roots();
        set(&mut s, 7, 5);
        assert_eq!(s.lane_roots(), one_entry);
        // The same round trips with a fold after every write; a fold
        // clears every mark and leaves every folded copy equal to its
        // value.
        for (v, expect) in [
            (0, &empty_roots),
            (5, &one_entry),
            (9, &nine),
            (5, &one_entry),
        ] {
            set(&mut s, 7, v);
            s.fold();
            assert!(marked(&s).is_empty() && changed(&s).is_empty());
            assert_eq!(s.lane_roots(), *expect, "value {v}");
        }
        // A state holding {a} and one that held {a, b} and removed b
        // must agree (histories differ, contents decide) — b in the
        // same lane as a, and b on another page.
        let same_lane = (8..).find(|&k| lane_of(k) == lane_of(7)).unwrap();
        for b in [same_lane, u32::MAX] {
            let mut other = KvState::new();
            set(&mut other, 7, 5);
            set(&mut other, b, 3);
            set(&mut other, b, 0);
            assert_eq!(other.lane_roots(), one_entry);
        }
        // Duplicated leaves must not cancel to the empty multiset the
        // way the old XOR accumulator's did: two entries with identical
        // leaf residues square the accumulator instead of erasing it.
        let x = acc_of_leaf(&leaf_hash(7, 5));
        assert_ne!(mul_mod(&x, &x), ACC_ONE);
        assert_ne!(mul_mod(&x, &x), x);
    }

    #[test]
    fn content_is_not_layout() {
        // The same 300 entries by three histories: built in order and
        // folded; written in reverse through bigger values, plus keys
        // the others never saw — 300 more on page 0 and one on each of
        // three other pages — put and then deleted, nothing folded; and
        // installed from a snapshot's runs.
        let content = |k: u32| (k, k as u64 * 3 + 1);
        let a = KvState::from_entries((0..300).map(content));
        let mut b = KvState::new();
        let extra = [4_096, 1 << 20, u32::MAX];
        for k in (0..600u32).rev().chain(extra) {
            b.apply(&TxOp::Put { key: k, value: 99 });
        }
        for k in (0..600u32).chain(extra) {
            let value = if k < 300 { content(k).1 } else { 0 };
            b.apply(&TxOp::Put { key: k, value });
        }
        let runs = a.lane_runs();
        let c = KvState::from_lanes(runs.iter().map(Vec::as_slice));
        assert_eq!((a.dir.len(), b.dir.len()), (1, 4));
        assert_eq!((marked(&b).len(), changed(&b).len()), (603, 300));
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
        // No page, and on an allocated page: nothing is allocated, no
        // account's value differs from its folded copy, and the fold has
        // nothing to hash.
        for held in [None, Some(4_095u32)] {
            let mut s = KvState::from_entries(held.map(|k| (k, 1)));
            for key in [0u32, 4_094, 4_096, u32::MAX] {
                s.apply(&TxOp::Put { key, value: 0 });
                let fx = s.apply(&TxOp::Transfer {
                    from: key,
                    to: 10,
                    amount: 4,
                });
                assert_eq!(fx.empty_transfers, 1);
            }
            assert_eq!(s.dir.len(), held.iter().count());
            assert!(changed(&s).is_empty());
            assert_eq!(hashes_in(|| s.fold()), 0);
        }
    }

    #[test]
    fn pages_track_the_pages_in_use() {
        // Keys at page edges: each lands on its own page's first or last
        // account, and the directory holds the pages written, in id
        // order, however high the key.
        let edges = [0u32, 4_095, 4_096, 8_191, u32::MAX - 4_095, u32::MAX];
        let mut s = KvState::new();
        for (n, &key) in edges.iter().enumerate().rev() {
            s.apply(&TxOp::Put {
                key,
                value: n as u64 + 1,
            });
        }
        assert_eq!(page_ids(&s), [0, 1, (1 << 20) - 1]);
        for (n, &key) in edges.iter().enumerate() {
            assert_eq!(s.get(key), n as u64 + 1, "key {key}");
        }
        for key in [1u32, 4_094, 4_097, 8_192, u32::MAX - 1, 1 << 20] {
            assert_eq!(s.get(key), 0, "key {key}");
        }
        let expect: Vec<(u32, u64)> = edges.iter().zip(1..).map(|(&k, v)| (k, v)).collect();
        assert!(s.entries().eq(expect.iter().copied()));
        // Churn over the pages in use allocates nothing more: put and
        // delete every account of pages 0 and 1, folding or not.
        for fold_every in [64u32, u32::MAX] {
            for k in 0..2 * PAGE_KEYS as u32 {
                s.apply(&TxOp::Put { key: k, value: 7 });
                s.apply(&TxOp::Put { key: k, value: 0 });
                if k % fold_every == fold_every - 1 {
                    s.fold();
                }
            }
            assert_eq!(s.dir.len(), 3);
            assert_eq!(s.len(), 2);
        }
        let left = [(u32::MAX - 4_095, 5), (u32::MAX, 6)];
        assert_eq!(s.root(), KvState::from_entries(left).root());
        // A keyspace 0..n sits in pages 0.. at their own index: the
        // lookup's first comparison finds every page.
        let mut dense = KvState::new();
        for i in 0..1u64 << 20 {
            dense.apply(&TxOp::for_id(TxId(i), 1 << 20));
        }
        assert_eq!(dense.dir.len(), 256);
        assert!(page_ids(&dense).into_iter().eq(0..256));
    }

    #[test]
    fn a_page_allocated_while_dirty_keeps_the_fold_exact() {
        // A page holding a folded key deleted since (the fold must still
        // divide it out) and a key put and deleted since (marked, but the
        // fold owes it nothing) sees pages allocated below, between and
        // above it, none folded: each new page's folded copy is all
        // absent.
        let lane0: Vec<u32> = (4_096..).filter(|&k| lane_of(k) == 0).take(3).collect();
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
        assert_eq!(s.dir.len(), 1);
        assert_eq!(marked(&s), [lane0[0], lane0[2]]);
        assert_eq!(changed(&s), [(lane0[0], 5, 0)]);
        let later = [3u32, 3 << 12, 5 << 12, u32::MAX];
        for &key in &later {
            s.apply(&TxOp::Put { key, value: 1 });
        }
        assert_eq!(page_ids(&s), [0, 1, 3, 5, (1 << 20) - 1]);
        assert_eq!(marked(&s).len(), 6);
        let owed: Vec<u32> = changed(&s).iter().map(|&(k, ..)| k).collect();
        let mut expect_owed = vec![lane0[0]];
        expect_owed.extend(later);
        expect_owed.sort_unstable();
        assert_eq!(owed, expect_owed);
        let expect =
            KvState::from_entries(std::iter::once((lane0[1], 6)).chain(later.map(|k| (k, 1))));
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
        let (lanes, removed) = s.fold_parts();
        let expect: Vec<Acc> = lanes
            .iter()
            .zip(&removed)
            .map(|(lane, removed)| mul_mod(&lane.folded, &inv_mod(removed)))
            .collect();
        let shape = |l: usize| (lanes[l].folded != s.lanes[l].folded, removed[l] != ACC_ONE);
        assert_eq!(shape(0), (true, false));
        assert_eq!(shape(1), (false, true));
        assert_eq!(shape(2), (true, true));
        assert_eq!(shape(3), (false, false));
        s.fold();
        let folded: Vec<Acc> = s.lanes.iter().map(|l| l.folded).collect();
        assert_eq!(folded, expect);
        assert!(marked(&s).is_empty() && changed(&s).is_empty());
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
    fn lane_runs_are_the_lane_entries() {
        // One ascending pass bucketed by lane equals each lane's entries
        // read on their own: ascending, confined, and all of them.
        let s = KvState::from_entries(
            (0..5_000u32)
                .map(|k| (k * 7 % 9_000, k as u64))
                .chain([(u32::MAX, 1)]),
        );
        let runs = s.lane_runs();
        assert_eq!(runs.len(), MERKLE_LANES as usize);
        for (lane, run) in runs.iter().enumerate() {
            assert_eq!(*run, s.lane_entries(lane));
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(runs.iter().map(Vec::len).sum::<usize>(), s.len());
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
    fn batch_apply_is_apply_in_order() {
        // `apply_batch` is folding `apply` over the ops — entries, roots
        // and effects.
        for (n, keyspace) in [(4096u64, 512u32), (2048, 96)] {
            let ops: Vec<TxOp> = (0..n).map(|i| TxOp::for_id(TxId(i), keyspace)).collect();
            let mut reference = KvState::new();
            let mut ref_fx = ExecEffects::default();
            for op in &ops {
                ref_fx.absorb(reference.apply(op));
            }
            let mut s = KvState::new();
            let fx = s.apply_batch(&ops);
            assert_eq!(fx, ref_fx);
            assert_eq!(fx.total(), n);
            assert!(s.entries().eq(reference.entries()));
            assert_eq!(s.lane_roots(), reference.lane_roots());
            assert_eq!(s.root(), reference.root());
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

        // Neither cost grows with the keyspace, nor with how often a
        // dirty key was written in between: a fold is 2 hashes per dirty
        // key, a folded root MERKLE_LANES + 1.
        const DIRTY: u32 = 128;
        for keyspace in [1 << 12, 1 << 15, 1 << 17] {
            let mut s = KvState::from_entries((0..keyspace).map(|k| (k, k as u64 + 1)));
            for writes_per_key in [1u64, 10] {
                for w in 0..writes_per_key {
                    for k in 0..DIRTY {
                        s.apply(&TxOp::Put {
                            key: k * 31 % keyspace,
                            value: 7 + writes_per_key * 100 + w,
                        });
                    }
                }
                let at = format!("keyspace {keyspace}, {writes_per_key} writes per key");
                assert_eq!(hashes_in(|| s.fold()), 2 * DIRTY as u64, "{at}");
                assert_eq!(
                    hashes_in(|| {
                        s.root();
                    }),
                    MERKLE_LANES as u64 + 1,
                    "{at}"
                );
            }
        }
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
        // credit.
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
        let fx = s.apply_batch(ops);
        assert_eq!(s.get(a), 4);
        assert_eq!(s.get(b), 0);
        assert_eq!(s.get(c), 6, "credit must be readable");
        assert_eq!(fx.transfers, 2);
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
        let fx = s.apply_batch([TxOp::Transfer {
            from: a,
            to: b,
            amount: 4,
        }]);
        assert_eq!(fx.transfers, 1);
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
