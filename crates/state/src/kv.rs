//! The deterministic key-value state machine and its state root.
//!
//! State is a map `account (u32) → balance/value (u64)`. Ops are the tiny
//! payloads carried (by derivation) in every transaction
//! ([`ladon_types::TxOp`]): `Put` overwrites, `Get` reads, `Transfer`
//! moves a clamped amount between accounts. All three are deterministic,
//! so any two replicas applying the same confirmed sequence hold
//! bit-identical state.
//!
//! # The state root
//!
//! The state root is a content address of the live entries: a **MuHash**
//! multiset accumulator (Bellare and Micciancio, EUROCRYPT 1997) — the
//! *product*, modulo the 256-bit prime `p = 2^256 − 189`, of the SHA-256
//! leaf hashes of every live entry — finalized with the entry count.
//! Multiplication mod p is order-independent by construction, the
//! property a content address needs, and finding a colliding multiset
//! means solving a multiplicative-knapsack/discrete-log-style problem in
//! `Z_p^*` rather than a Wagner generalized-birthday subset *sum*.
//!
//! # Storage
//!
//! Balances live in **pages** indexed by account id: page `key >> 12`
//! holds accounts `4096·id .. 4096·id + 4095`. Three flat arrays hold
//! every allocated page, one page-sized run each, in allocation order:
//! the balances (0 = absent, the canonical form), the same balances **as
//! of the last fold**, and one **mark** byte per account. A page is
//! allocated on its first nonzero write and never moves, so a read or
//! write is a directory lookup and an array index — no key hash, no
//! probe, no placeholder. The directory is the allocated pages' `(id,
//! slot)` sorted by id: its size tracks the pages in use, not the highest
//! key (a key near `u32::MAX` costs one page, not a million directory
//! slots), and a keyspace `0..n` keeps every page at the index equal to
//! its id, so one comparison finds it. [`KvState::entries`] is the pages
//! read in directory order, so key order: a snapshot's one entry run,
//! sorted without a sort.
//!
//! **The fold rule.** The root is a pure function of the *live
//! contents* and is read once per epoch, so no hashing happens on the
//! write path: a write stores the value and sets the account's mark, two
//! stores and no read. [`KvState::fold`] walks the marks, eight at a
//! time: per marked account *whose value differs from its folded copy*,
//! the old leaf goes into a removal product and the new leaf into the
//! accumulator — an account rewritten ten times, or written back to its
//! folded value, costs two hashes or none — and the fold sets
//! `folded ← folded · inserted · removed⁻¹`, with one Fermat inverse, and
//! none when nothing was removed. MuHash does not care in which order the
//! accounts are walked. The fold then copies each marked group's values
//! into the folded copy and clears its marks. The folded value is the
//! canonical residue of the product over the live leaves, whatever the
//! write history and wherever the folds fell — which is what makes the
//! root a content address (history independence). [`KvState::root`]
//! takes `&self` and folds the marked accounts into a local copy, so a
//! read nobody folded for is still correct; folding first only makes it
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

use ladon_crypto::sha256_parts;
use ladon_types::{Digest, OpDraw, TxId, TxOp};
use std::borrow::Borrow;
use std::hint::select_unpredictable;

/// Default number of accounts the synthetic workload spreads ops over
/// (see [`ladon_types::SystemConfig::exec_keyspace`] for the knob).
pub const DEFAULT_KEYSPACE: u32 = 4096;

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
/// root's length field).
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
/// multiplies — paid once per fold, and only when the fold removes a
/// leaf; never on the write path.
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

/// Serializes a residue to the 32 little-endian bytes the state root
/// digests.
#[inline]
fn acc_bytes(a: &Acc) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, limb) in a.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// The accumulator of exactly `entries`: the product of their leaf
/// residues.
fn acc_of_entries(entries: &[(u32, u64)]) -> Acc {
    entries.iter().fold(ACC_ONE, |acc, &(k, v)| {
        mul_mod(&acc, &acc_of_leaf(&leaf_hash(k, v)))
    })
}

/// The state root: a digest over the live entry count and the
/// accumulator of those entries.
fn state_root(live: usize, acc: &Acc) -> Digest {
    Digest(sha256_parts(&[
        b"ladon/state-root/v3",
        &(live as u64).to_le_bytes(),
        &acc_bytes(acc),
    ]))
}

/// The state root of a state holding exactly `entries` — what a
/// snapshot's run is verified against, without building a map.
/// Canonical form (distinct keys, no zero values) is the caller's to
/// check.
pub(crate) fn root_of(entries: &[(u32, u64)]) -> Digest {
    state_root(entries.len(), &acc_of_entries(entries))
}

// ---------------------------------------------------------------------
// Storage: account-id pages, and the folded accumulator.
// ---------------------------------------------------------------------

/// log₂ of the accounts one page holds.
const PAGE_BITS: u32 = 12;

/// Accounts per page: account `key` lives at offset `key % PAGE_KEYS` of
/// page `key >> PAGE_BITS`.
const PAGE_KEYS: usize = 1 << PAGE_BITS;

/// Accounts whose marks the fold reads as one word.
const MARK_GROUP: usize = 8;

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

/// The replicated key-value state.
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
    /// MuHash accumulator of the live entries as of the last fold: the
    /// product (mod `2^256 − 189`) of their leaf residues.
    acc: Acc,
    /// Live entries as of the last fold.
    live: usize,
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
            acc: ACC_ONE,
            live: 0,
        }
    }

    /// Builds state from `(key, value)` entries in any order, folded:
    /// a snapshot's run on install and recovery. Zero values are dropped
    /// to restore canonical form.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let (mut s, entries) = (Self::new(), entries.into_iter());
        s.apply_batch(entries.map(|(key, value)| TxOp::Put { key, value }));
        s.fold();
        s
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
    /// read in directory order — what a snapshot's run holds.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.dir.iter().flat_map(|&(id, slot)| {
            let page = &self.values[(slot as usize) << PAGE_BITS..][..PAGE_KEYS];
            let live = page.iter().enumerate().filter(|&(_, &v)| v != 0);
            live.map(move |(at, &v)| (id << PAGE_BITS | at as u32, v))
        })
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

    /// The accumulator and live count as a fold would leave them: one
    /// walk of the marked accounts, multiplying in the new leaf of every
    /// account whose value changed since the last fold and collecting
    /// the old leaves into a product that one modular inverse divides
    /// out (none when nothing was removed). At most two leaf hashes per
    /// changed account; MuHash is order-independent, so the pages are
    /// walked as they lie.
    fn folded(&self) -> (Acc, usize) {
        let (mut acc, mut live, mut removed) = (self.acc, self.live, ACC_ONE);
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
                if old != 0 {
                    removed = mul_mod(&removed, &acc_of_leaf(&leaf_hash(key, old)));
                    live -= 1;
                }
                if new != 0 {
                    acc = mul_mod(&acc, &acc_of_leaf(&leaf_hash(key, new)));
                    live += 1;
                }
            }
        }
        if removed != ACC_ONE {
            acc = mul_mod(&acc, &inv_mod(&removed));
        }
        (acc, live)
    }

    /// Folds the pending writes into the accumulator (the fold rule is
    /// in the module docs), after which [`Self::root`] costs one hash.
    /// Never changes the root — only what the next read of it costs.
    pub fn fold(&mut self) {
        (self.acc, self.live) = self.folded();
        for g in (0..self.marks.len()).step_by(MARK_GROUP) {
            let group = g..g + MARK_GROUP;
            if self.marks[group.clone()] != [0; MARK_GROUP] {
                self.folded[group.clone()].copy_from_slice(&self.values[group.clone()]);
                self.marks[group].fill(0);
            }
        }
    }

    /// The state root: a digest over the live count and the accumulator.
    /// One hash on a folded state, at any keyspace size, after a scan of
    /// the marks that finds nothing to fold; on an unfolded one it also
    /// pays the pending fold, into a local copy.
    pub fn root(&self) -> Digest {
        let (acc, live) = self.folded();
        state_root(live, &acc)
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
        // empty state's root exactly (numerator/denominator finalize to
        // the identity), across interleaved histories.
        let empty_root = KvState::new().root();
        let set = |s: &mut KvState, key: u32, value: u64| {
            s.apply(&TxOp::Put { key, value });
        };
        let mut s = KvState::new();
        set(&mut s, 7, 5);
        let one_entry = s.root();
        assert_ne!(one_entry, empty_root);
        set(&mut s, 7, 0);
        assert_eq!(s.root(), empty_root, "insert/remove must round-trip");
        set(&mut s, 7, 5);
        assert_eq!(s.root(), one_entry, "re-insert must reproduce the root");
        // Overwrite round-trip: set → overwrite → set back.
        set(&mut s, 7, 9);
        let nine = s.root();
        set(&mut s, 7, 5);
        assert_eq!(s.root(), one_entry);
        // The same round trips with a fold after every write; a fold
        // clears every mark and leaves every folded copy equal to its
        // value.
        for (v, expect) in [
            (0, &empty_root),
            (5, &one_entry),
            (9, &nine),
            (5, &one_entry),
        ] {
            set(&mut s, 7, v);
            s.fold();
            assert!(marked(&s).is_empty() && changed(&s).is_empty());
            assert_eq!(s.root(), *expect, "value {v}");
        }
        // A state holding {a} and one that held {a, b} and removed b
        // must agree (histories differ, contents decide) — b on a's
        // page, and b on another page.
        for b in [8, u32::MAX] {
            let mut other = KvState::new();
            set(&mut other, 7, 5);
            set(&mut other, b, 3);
            set(&mut other, b, 0);
            assert_eq!(other.root(), one_entry);
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
        // installed from a snapshot's run.
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
        let c = KvState::from_entries(a.entries());
        assert_eq!((a.dir.len(), b.dir.len()), (1, 4));
        assert_eq!((marked(&b).len(), changed(&b).len()), (603, 300));
        for other in [&b, &c] {
            assert!(a == *other);
            assert!(*other == a);
            assert_eq!((other.len(), other.is_empty()), (300, false));
            assert!(other.entries().eq(a.entries()));
            assert_eq!(other.root(), a.root());
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
        let page1 = [4_101u32, 4_202, 4_303];
        let mut s = KvState::from_entries([(page1[0], 5), (page1[1], 6)]);
        s.apply(&TxOp::Put {
            key: page1[0],
            value: 0,
        });
        s.apply(&TxOp::Put {
            key: page1[2],
            value: 9,
        });
        s.apply(&TxOp::Put {
            key: page1[2],
            value: 0,
        });
        assert_eq!(s.dir.len(), 1);
        assert_eq!(marked(&s), [page1[0], page1[2]]);
        assert_eq!(changed(&s), [(page1[0], 5, 0)]);
        let later = [3u32, 3 << 12, 5 << 12, u32::MAX];
        for &key in &later {
            s.apply(&TxOp::Put { key, value: 1 });
        }
        assert_eq!(page_ids(&s), [0, 1, 3, 5, (1 << 20) - 1]);
        assert_eq!(marked(&s).len(), 6);
        let owed: Vec<u32> = changed(&s).iter().map(|&(k, ..)| k).collect();
        let mut expect_owed = vec![page1[0]];
        expect_owed.extend(later);
        expect_owed.sort_unstable();
        assert_eq!(owed, expect_owed);
        let expect =
            KvState::from_entries(std::iter::once((page1[1], 6)).chain(later.map(|k| (k, 1))));
        assert_eq!(s.root(), expect.root());
        s.fold();
        assert_eq!(s.root(), expect.root());
        assert!(s == expect);
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
            assert_eq!(s.root(), reference.root());
        }
    }

    #[test]
    fn roots_are_pinned() {
        // No root byte may move: the one accumulator's root over this
        // sequence, whatever the fold schedule.
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
            assert_eq!(
                hex32(&s.root()),
                "de0ef26940da52f9c153c4740fdff302463d53ea4fc52082a5d4455095eaa32f"
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
            1
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
        // key, a folded root 1.
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
                    1,
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
        let unfolded = s.root();
        let mut folded = s.clone();
        folded.fold();
        assert_eq!(folded.root(), unfolded);
        let rebuilt = KvState::from_entries(s.entries());
        assert_eq!(rebuilt.root(), unfolded);
        assert_eq!(root_of(&s.entries().collect::<Vec<_>>()), unfolded);
    }

    #[test]
    fn same_block_cross_account_credit_is_readable() {
        // Read-your-writes across accounts: a → b → c in ONE batch, where
        // b starts empty — the b → c transfer must see the same-block
        // credit.
        let (a, b, c) = (0u32, 1, 2);
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
}
