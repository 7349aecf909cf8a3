//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Supports incremental hashing via [`Sha256::update`] and one-shot hashing
//! via [`sha256()`] / [`sha256_parts`]. Verified against the NIST test
//! vectors in the unit tests and against an incremental-equals-oneshot
//! property test.
//!
//! # Short inputs take one backend call
//!
//! An input of at most 119 bytes (`SHORT_MAX`) pads into one or two
//! blocks. A one-shot hash of such an input (`with_padded`) gathers its
//! parts and the padding on the stack and hands the backend all of it at
//! once; anything longer streams through [`Sha256`]. The input's length
//! selects, the bytes are the same either way, and every tag body, Merkle
//! leaf, lane root and node digest in the workspace is on the short side.
//!
//! # Backends
//!
//! All block processing goes through one seam with two entries —
//! `Backend::compress(state, blocks)`, and `Backend::hmac_lanes`, the
//! whole short-body HMAC tail (inner blocks, then the inner digest as the
//! outer block) for `N` keys over one body — which has two
//! implementations producing identical bytes:
//!
//! - **portable** — the plain FIPS 180-4 rounds below; its `hmac_lanes`
//!   is `compress` twice per key. It is the reference the other backend
//!   is tested against ([`sha256_portable`]) and the fallback on every
//!   CPU.
//! - **sha-ni** — the x86-64 SHA extensions (`sha256rnds2`/`msg1`/`msg2`),
//!   in the private `shani` module, the only `unsafe` code in the crate.
//!   Its `hmac_lanes` keeps the inner digest in registers and interleaves
//!   two keys: one block's rounds are one long dependency chain, and a
//!   second independent chain fills its stalls.
//!
//! The backend is chosen once per process from what the CPU reports
//! (`is_x86_feature_detected!`); there is nothing to configure.

use crate::counters::{record, OpKind};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod shani;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which implementation of the compression function runs.
#[derive(Clone, Copy)]
enum Backend {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::Detected),
}

impl Backend {
    /// The backend this process uses: SHA-NI when the CPU has it,
    /// otherwise portable. Detected on first use, then fixed.
    fn active() -> Self {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if let Some(detected) = shani::Detected::new() {
                return Backend::ShaNi(detected);
            }
            Backend::Portable
        })
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
    #[inline]
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Backend::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi(detected) => detected.compress(state, blocks),
        }
    }

    /// `N` short HMACs of one body in one call, lane `l` under the key
    /// schedule `keys[l]` = (inner, outer) chaining values. Each lane
    /// resumes its inner hash, absorbs `body` (the padded tail: a whole
    /// number of blocks), then resumes its outer hash and absorbs that
    /// 32-byte digest as the padded end of a 96-byte message. Returns the
    /// lanes' final chaining values.
    #[inline]
    fn hmac_lanes<const N: usize>(self, keys: [KeySchedule<'_>; N], body: &[u8]) -> [[u32; 8]; N] {
        debug_assert_eq!(body.len() % 64, 0);
        match self {
            Backend::Portable => keys.map(|(inner, outer)| {
                let (mut inner, mut outer) = (*inner, *outer);
                compress_portable(&mut inner, body);
                let digest = digest_bytes(&inner);
                with_padded(64, &[&digest], |tail| compress_portable(&mut outer, tail.0))
                    .expect("32 bytes are short");
                outer
            }),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi(detected) => detected.hmac_lanes(keys, body),
        }
    }
}

/// An HMAC key schedule, borrowed where it lives: the chaining values
/// after the key's ipad block and after its opad block.
pub(crate) type KeySchedule<'a> = (&'a [u32; 8], &'a [u32; 8]);

/// Name of the SHA-256 backend this process runs: `"sha-ni"` or
/// `"portable"`. For benchmark output; nothing selects on it.
pub fn backend_name() -> &'static str {
    match Backend::active() {
        Backend::Portable => "portable",
        #[cfg(target_arch = "x86_64")]
        Backend::ShaNi(_) => "sha-ni",
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use ladon_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, ladon_crypto::sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    backend: Backend,
    state: [u32; 8],
    /// Unprocessed tail of the input (always < 64 bytes).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// A hasher that has already absorbed `absorbed` bytes (a whole number
    /// of blocks) and reached `state` — see [`Self::midstate`].
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0);
        Self {
            backend: Backend::active(),
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// The chaining value after the blocks absorbed so far.
    ///
    /// # Panics
    /// Panics if the input so far is not a whole number of blocks.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        assert_eq!(self.buf_len, 0, "midstate only exists at a block boundary");
        self.state
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially full buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            self.backend.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        // Whole blocks go straight from the caller's slice.
        let (blocks, tail) = input.split_at(input.len() & !63);
        if !blocks.is_empty() {
            self.backend.compress(&mut self.state, blocks);
        }

        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        record(OpKind::Hash);
        digest_bytes(&self.finish())
    }

    /// Pads, compresses the tail and returns the final chaining value.
    fn finish(mut self) -> [u32; 8] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: 0x80, zeros, 64-bit big-endian length, in place in the
        // tail buffer; a tail of 56+ bytes spills the length into one more
        // block.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.backend.compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, &self.buf);
        self.state
    }
}

/// A final chaining value as the digest's bytes.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The longest input whose padding (`0x80`, zeros, the 64-bit length)
/// still fits a second block.
const SHORT_MAX: usize = 119;

/// The tail of a message, padded: the one or two whole blocks the
/// compression function still has to read. Only [`with_padded`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct Padded<'a>(&'a [u8]);

/// Calls `f` with `parts` concatenated and padded as the end of a message
/// that has already absorbed `absorbed` bytes (a whole number of blocks).
/// `None`, without calling `f`, when the parts are longer than
/// [`SHORT_MAX`] together. The padded blocks live in this frame: `f`
/// borrows them, nothing is moved.
#[inline]
pub(crate) fn with_padded<R>(
    absorbed: u64,
    parts: &[&[u8]],
    f: impl FnOnce(Padded<'_>) -> R,
) -> Option<R> {
    debug_assert_eq!(absorbed % 64, 0);
    let body: usize = parts.iter().map(|p| p.len()).sum();
    if body > SHORT_MAX {
        return None;
    }
    let mut buf = [0u8; 128];
    let mut at = 0;
    for part in parts {
        buf[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    buf[body] = 0x80;
    let len = if body < 56 { 64 } else { 128 };
    let bit_len = (absorbed + body as u64).wrapping_mul(8);
    buf[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
    Some(f(Padded(&buf[..len])))
}

/// SHA-256 of the message that reached `state` after `absorbed` bytes and
/// ends with `parts`: one backend call when they pad into two blocks,
/// streamed otherwise. Counts one hash.
#[inline]
pub(crate) fn digest_after(state: [u32; 8], absorbed: u64, parts: &[&[u8]]) -> [u8; 32] {
    record(OpKind::Hash);
    let backend = Backend::active();
    let short = with_padded(absorbed, parts, |tail| {
        let mut state = state;
        backend.compress(&mut state, tail.0);
        state
    });
    let state = short.unwrap_or_else(|| {
        let mut h = Sha256::resume(state, absorbed);
        for part in parts {
            h.update(part);
        }
        h.finish()
    });
    digest_bytes(&state)
}

/// `HMAC` tags of one short `body` — padded behind the one key block —
/// under `N` key schedules at once, in one backend call. Counts the `2 N`
/// hashes it finishes.
pub(crate) fn hmac_short<const N: usize>(
    keys: [KeySchedule<'_>; N],
    body: Padded<'_>,
) -> [[u8; 32]; N] {
    for _ in 0..2 * N {
        record(OpKind::Hash);
    }
    let states = Backend::active().hmac_lanes(keys, body.0);
    states.map(|state| digest_bytes(&state))
}

/// The portable backend: FIPS 180-4 §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_parts(&[data])
}

/// One-shot SHA-256 of `parts[0] ‖ parts[1] ‖ …` without materializing
/// the concatenation.
pub fn sha256_parts(parts: &[&[u8]]) -> [u8; 32] {
    digest_after(H0, 0, parts)
}

/// One-shot SHA-256 on the portable backend whatever the CPU offers: the
/// reference the dispatched [`sha256()`] is tested and benchmarked against.
pub fn sha256_portable(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.backend = Backend::Portable;
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_split_points_agree() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in [0, 1, 31, 63, 64, 65, 127, 200, 256, 257] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // 55, 56, 63, 64 byte messages exercise both padding branches.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    /// xorshift64: seeded bytes and split points without a dev-dependency.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// The dispatched backend against the portable reference. On a host
    /// without SHA-NI both sides are the portable rounds and the test only
    /// checks chunking; on a SHA-NI host it is the differential test.
    #[test]
    fn backends_agree_on_every_length_to_300() {
        let mut next = rng(0x5eed);
        let data: Vec<u8> = (0..300).map(|_| next() as u8).collect();
        for len in 0..=300 {
            assert_eq!(
                sha256(&data[..len]),
                sha256_portable(&data[..len]),
                "backend {} differs from portable at len {len}",
                backend_name()
            );
        }
    }

    #[test]
    fn backends_agree_on_multi_kib_inputs_at_random_splits() {
        let mut next = rng(0xfeed_f00d);
        for case in 0..64 {
            let len = 1024 + (next() % 8192) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let expect = sha256_portable(&data);
            let mut cuts: Vec<usize> = (0..(next() % 6))
                .map(|_| (next() as usize) % (len + 1))
                .collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for &cut in &cuts {
                h.update(&data[at..cut]);
                at = cut;
            }
            h.update(&data[at..]);
            assert_eq!(
                h.finalize(),
                expect,
                "case {case}: len {len}, cuts {cuts:?}"
            );
        }
    }

    /// Every short length, cut into parts everywhere: the one-shot path
    /// (whatever the backend) against the streamed portable rounds, on
    /// both sides of the one- and two-block paddings and of the bound
    /// where one-shot hands over to streaming.
    #[test]
    fn one_shot_equals_streaming_portable_at_every_short_length_and_cut() {
        let mut next = rng(0x0a11_5e75);
        let data: Vec<u8> = (0..=SHORT_MAX + 9).map(|_| next() as u8).collect();
        for len in 0..data.len() {
            let body = &data[..len];
            assert_eq!(with_padded(0, &[body], |_| ()).is_some(), len <= SHORT_MAX);
            let expect = sha256_portable(body);
            for cut in 0..=len {
                let (a, b) = body.split_at(cut);
                assert_eq!(sha256_parts(&[a, b]), expect, "len {len}, cut {cut}");
            }
            let (a, rest) = body.split_at(next() as usize % (len + 1));
            let (b, c) = rest.split_at(next() as usize % (rest.len() + 1));
            assert_eq!(sha256_parts(&[a, &[], b, c]), expect, "len {len}");
        }
    }

    /// The HMAC tail on each backend's seam against the two streamed
    /// portable hashes it stands for — and two lanes against two single
    /// calls.
    #[test]
    fn hmac_lanes_equal_streamed_digests_on_both_backends() {
        let mut next = rng(0x1a2e5);
        let mut state = || -> [u32; 8] { std::array::from_fn(|_| next() as u32) };
        let keys: Vec<([u32; 8], [u32; 8])> = (0..16).map(|_| (state(), state())).collect();
        let data: Vec<u8> = (0..SHORT_MAX).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 44, 55, 56, 74, 82, SHORT_MAX] {
            // The reference: both hashes streamed through the portable rounds.
            let portable_after = |state: [u32; 8], tail: &[u8]| {
                let mut h = Sha256::resume(state, 64);
                h.backend = Backend::Portable;
                h.update(tail);
                digest_bytes(&h.finish())
            };
            let streamed = |&(inner, outer): &([u32; 8], [u32; 8])| {
                portable_after(outer, &portable_after(inner, &data[..len]))
            };
            with_padded(64, &[&data[..len]], |body| {
                for backend in [Backend::Portable, Backend::active()] {
                    for pair in keys.chunks_exact(2) {
                        let [a, b] = [&pair[0], &pair[1]].map(|k| (&k.0, &k.1));
                        let two = backend.hmac_lanes([a, b], body.0);
                        let [one_a] = backend.hmac_lanes([a], body.0);
                        let [one_b] = backend.hmac_lanes([b], body.0);
                        assert_eq!(two, [one_a, one_b], "len {len}");
                        let two = two.map(|state| digest_bytes(&state));
                        let expect = [streamed(&pair[0]), streamed(&pair[1])];
                        assert_eq!(two, expect, "len {len}");
                    }
                }
            })
            .expect("short");
        }
    }

    #[test]
    fn every_finished_digest_counts_one_hash() {
        use crate::counters::CryptoCounters;
        use std::hint::black_box;
        let hashes = |f: &dyn Fn()| {
            let before = CryptoCounters::snapshot();
            f();
            CryptoCounters::snapshot().since(&before).hashes
        };
        assert_eq!(hashes(&|| _ = black_box(sha256(&[1; 31]))), 1);
        assert_eq!(hashes(&|| _ = black_box(sha256(&[1; 500]))), 1);
        let long = [&[1u8; 60][..], &[2; 60]];
        assert_eq!(hashes(&|| _ = black_box(sha256_parts(&long))), 1);
        with_padded(64, &[&[7; 74]], |body| {
            let one = || _ = black_box(hmac_short([(&H0, &H0)], body));
            let two = || _ = black_box(hmac_short([(&H0, &H0); 2], body));
            assert_eq!((hashes(&one), hashes(&two)), (2, 4));
        })
        .expect("short");
    }

    #[test]
    fn midstate_resumes_where_it_left_off() {
        let data = [0x42u8; 200];
        let mut h = Sha256::new();
        h.update(&data[..128]);
        let mut resumed = Sha256::resume(h.midstate(), 128);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), sha256(&data));
    }
}
