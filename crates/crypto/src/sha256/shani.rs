//! The x86-64 SHA-NI backend — the only `unsafe` code in `ladon-crypto`.
//!
//! Soundness rests on one fact: the instructions below may only execute on
//! a CPU that has them. A [`Detected`] value is the proof. Its field is
//! private and its only constructor, [`Detected::new`], returns one only
//! when `is_x86_feature_detected!` reports every feature the two kernels
//! (`compress_blocks`, `hmac_lanes`) are compiled with, so safe code
//! outside this module cannot reach the instructions any other way.
//!
//! # Lanes
//!
//! One block's 64 rounds are a single dependency chain: each
//! `sha256rnds2` waits for the one before it. `block_rounds` therefore
//! takes `N` independent chaining states ("lanes") through the rounds
//! side by side, fed from one shared message schedule or from one each.
//! `compress_blocks` is the one-lane case; `hmac_lanes` uses both shapes —
//! `N` keys' inner hashes read one body, their outer hashes one digest
//! each — and keeps everything between the two in registers.

use super::{KeySchedule, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};

/// Proof that this CPU has the SHA extensions (and the SSE levels the
/// state shuffles need).
#[derive(Clone, Copy)]
pub(super) struct Detected(());

impl Detected {
    /// `Some` exactly when every feature the kernels enable is present on
    /// the running CPU.
    pub(super) fn new() -> Option<Self> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(Detected(()))
    }

    /// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
    #[inline]
    pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `self` can only have come from `Detected::new`, which
        // checked sha, sse2, ssse3 and sse4.1 on this CPU — exactly the
        // target features `compress_blocks` is compiled with. It has no
        // other precondition: it reads and writes through safe references.
        unsafe { compress_blocks(state, blocks) }
    }

    /// `N` short HMACs of one padded `body`: see `Backend::hmac_lanes`.
    #[inline]
    pub(super) fn hmac_lanes<const N: usize>(
        self,
        keys: [KeySchedule<'_>; N],
        body: &[u8],
    ) -> [[u32; 8]; N] {
        // SAFETY: as in `compress` — `self` proves the CPU has every
        // feature `hmac_lanes` is compiled with, and the function touches
        // memory only through the safe references it is given.
        unsafe { hmac_lanes(keys, body) }
    }
}

/// Four consecutive words as one vector, first word in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn words(w: &[u32]) -> __m128i {
    _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
}

/// One 64-byte block as its sixteen big-endian message words, four to a
/// vector.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_block(block: &[u8]) -> [__m128i; 4] {
    // Byte shuffle turning four big-endian words into native lanes.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let load = |bytes: &[u8]| {
        let lo = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        _mm_shuffle_epi8(_mm_set_epi64x(hi, lo), be_words)
    };
    [
        load(&block[0..16]),
        load(&block[16..32]),
        load(&block[32..48]),
        load(&block[48..64]),
    ]
}

/// The next four message-schedule words from the previous sixteen
/// (`w4` oldest … `w1` newest, four words each).
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn schedule(w4: __m128i, w3: __m128i, w2: __m128i, w1: __m128i) -> __m128i {
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
    _mm_sha256msg2_epu32(partial, w1)
}

/// One chaining state, packed the way `sha256rnds2` wants it: (A,B,E,F)
/// and (C,D,G,H). Lane names read high → low, as in Intel's
/// documentation: loading `state[0..4]` gives DCBA.
#[derive(Clone, Copy)]
struct Lane {
    abef: __m128i,
    cdgh: __m128i,
}

impl Lane {
    #[inline]
    #[target_feature(enable = "sse2,ssse3,sse4.1")]
    fn pack(state: &[u32; 8]) -> Self {
        let cdab = _mm_shuffle_epi32(words(&state[0..4]), 0xB1);
        let efgh = _mm_shuffle_epi32(words(&state[4..8]), 0x1B);
        Lane {
            abef: _mm_alignr_epi8(cdab, efgh, 8),
            cdgh: _mm_blend_epi16(efgh, cdab, 0xF0),
        }
    }

    /// The state as two vectors of words in order — (DCBA, HGFE), which
    /// is also how a digest reads as the first eight words of a message.
    #[inline]
    #[target_feature(enable = "sse2,ssse3,sse4.1")]
    fn unpack(self) -> [__m128i; 2] {
        let feba = _mm_shuffle_epi32(self.abef, 0x1B);
        let dchg = _mm_shuffle_epi32(self.cdgh, 0xB1);
        [
            _mm_blend_epi16(feba, dchg, 0xF0),
            _mm_alignr_epi8(dchg, feba, 8),
        ]
    }

    #[inline]
    #[target_feature(enable = "sse2,ssse3,sse4.1")]
    fn store(self, state: &mut [u32; 8]) {
        for (half, v) in state.chunks_exact_mut(4).zip(self.unpack()) {
            half[0] = _mm_extract_epi32(v, 0) as u32;
            half[1] = _mm_extract_epi32(v, 1) as u32;
            half[2] = _mm_extract_epi32(v, 2) as u32;
            half[3] = _mm_extract_epi32(v, 3) as u32;
        }
    }
}

/// Four rounds on every lane: `sha256rnds2` does two per issue, taking
/// its two `W+K` words from the low half of its third operand. Lane `l`
/// takes its words from `w[l % M]`; the lanes' chains are independent, so
/// the CPU overlaps them.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4<const N: usize, const M: usize>(lanes: &mut [Lane; N], w: &[__m128i; M], k: &[u32]) {
    let k = words(k);
    let mut wk = *w;
    for wk in &mut wk {
        *wk = _mm_add_epi32(*wk, k);
    }
    for (l, lane) in lanes.iter_mut().enumerate() {
        lane.cdgh = _mm_sha256rnds2_epu32(lane.cdgh, lane.abef, wk[l % M]);
    }
    for (l, lane) in lanes.iter_mut().enumerate() {
        let wk_high = _mm_shuffle_epi32(wk[l % M], 0x0E);
        lane.abef = _mm_sha256rnds2_epu32(lane.abef, lane.cdgh, wk_high);
    }
}

/// Intel's SHA-NI block function, one block into `N` lanes: lane `l`
/// reads message `l % M` (`M == 1`: all lanes share one message and its
/// schedule; `M == N`: one each). `w[i][m]` holds words `4i..4i + 4` of
/// message `m`; the four vectors are named, not indexed, so they stay in
/// registers.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn block_rounds<const N: usize, const M: usize>(lanes: &mut [Lane; N], w: [[__m128i; M]; 4]) {
    let lanes_in = *lanes;
    let [mut w0, mut w1, mut w2, mut w3] = w;
    // Rounds 0–15 take the block's own words; every later group of
    // four is scheduled from the sixteen words before it.
    let (k_first, k_rest) = K.split_at(16);
    rounds4(lanes, &w0, &k_first[0..4]);
    rounds4(lanes, &w1, &k_first[4..8]);
    rounds4(lanes, &w2, &k_first[8..12]);
    rounds4(lanes, &w3, &k_first[12..16]);
    for k in k_rest.chunks_exact(16) {
        for m in 0..M {
            w0[m] = schedule(w0[m], w1[m], w2[m], w3[m]);
        }
        rounds4(lanes, &w0, &k[0..4]);
        for m in 0..M {
            w1[m] = schedule(w1[m], w2[m], w3[m], w0[m]);
        }
        rounds4(lanes, &w1, &k[4..8]);
        for m in 0..M {
            w2[m] = schedule(w2[m], w3[m], w0[m], w1[m]);
        }
        rounds4(lanes, &w2, &k[8..12]);
        for m in 0..M {
            w3[m] = schedule(w3[m], w0[m], w1[m], w2[m]);
        }
        rounds4(lanes, &w3, &k[12..16]);
    }
    for (lane, lane_in) in lanes.iter_mut().zip(lanes_in) {
        lane.abef = _mm_add_epi32(lane.abef, lane_in.abef);
        lane.cdgh = _mm_add_epi32(lane.cdgh, lane_in.cdgh);
    }
}

/// Folds `blocks` into `state`, one lane.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    let mut lane = [Lane::pack(state)];
    for block in blocks.chunks_exact(64) {
        let [w0, w1, w2, w3] = load_block(block);
        block_rounds(&mut lane, [[w0], [w1], [w2], [w3]]);
    }
    lane[0].store(state);
}

/// `N` short HMACs of one body: every lane resumes from its key's inner
/// chaining value and absorbs `body` (whole padded blocks) through one
/// shared schedule, then resumes from the key's outer value and absorbs
/// its own inner digest, padded as the 32-byte tail of a 96-byte message
/// — the digest's words go from the inner rounds to the outer ones
/// without leaving registers.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn hmac_lanes<const N: usize>(keys: [KeySchedule<'_>; N], body: &[u8]) -> [[u32; 8]; N] {
    // Plain loops, not `array::map`: a closure handed to `map` is called
    // from code compiled without these target features and would keep
    // the helpers it calls out of line.
    let mut lanes = [Lane::pack(keys[0].0); N];
    for (lane, (inner, _)) in lanes.iter_mut().zip(keys) {
        *lane = Lane::pack(inner);
    }
    for block in body.chunks_exact(64) {
        let [w0, w1, w2, w3] = load_block(block);
        block_rounds(&mut lanes, [[w0], [w1], [w2], [w3]]);
    }

    // The outer message: eight digest words, the 0x80 pad bit, zeros,
    // and the length (64 key-pad bytes + 32 digest bytes) in bits.
    let pad = _mm_set_epi32(0, 0, 0, i32::MIN);
    let bit_len = _mm_set_epi32((64 + 32) * 8, 0, 0, 0);
    let mut w = [[pad; N]; 4];
    w[3] = [bit_len; N];
    for (l, (lane, (_, outer))) in lanes.iter_mut().zip(keys).enumerate() {
        [w[0][l], w[1][l]] = lane.unpack();
        *lane = Lane::pack(outer);
    }
    block_rounds(&mut lanes, w);
    let mut states = [[0u32; 8]; N];
    for (lane, state) in lanes.iter().zip(states.iter_mut()) {
        lane.store(state);
    }
    states
}
