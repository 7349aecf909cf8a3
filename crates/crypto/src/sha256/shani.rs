//! The x86-64 SHA-NI backend — the only `unsafe` code in `ladon-crypto`.
//!
//! Soundness rests on one fact: the instructions below may only execute on
//! a CPU that has them. A [`Detected`] value is the proof. Its field is
//! private and its only constructor, [`Detected::new`], returns one only
//! when `is_x86_feature_detected!` reports every feature `compress_blocks`
//! is compiled with, so safe code outside this module cannot reach the
//! instructions any other way.

use super::K;
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
    /// `Some` exactly when every feature `compress_blocks` enables is
    /// present on the running CPU.
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
}

/// Four consecutive words as one vector, first word in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn words(w: &[u32]) -> __m128i {
    _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
}

/// The next four message-schedule words from the previous sixteen
/// (`w4` oldest … `w1` newest, four words each).
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn schedule(w4: __m128i, w3: __m128i, w2: __m128i, w1: __m128i) -> __m128i {
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
    _mm_sha256msg2_epu32(partial, w1)
}

/// Four rounds: `sha256rnds2` does two per issue, taking its two `W+K`
/// words from the low half of its third operand.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32]) {
    let wk = _mm_add_epi32(w, words(k));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Intel's SHA-NI block function: the state travels packed as (A,B,E,F)
/// and (C,D,G,H), and the schedule as four vectors of four words that are
/// named, not indexed, so they stay in registers.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Lane names read high → low, as in Intel's documentation: loading
    // `state[0..4]` gives DCBA.
    let cdab = _mm_shuffle_epi32(words(&state[0..4]), 0xB1);
    let efgh = _mm_shuffle_epi32(words(&state[4..8]), 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    // Byte shuffle turning four big-endian words into native lanes.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let load = |bytes: &[u8]| {
        let lo = i64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let hi = i64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        _mm_shuffle_epi8(_mm_set_epi64x(hi, lo), be_words)
    };

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (mut w0, mut w1) = (load(&block[0..16]), load(&block[16..32]));
        let (mut w2, mut w3) = (load(&block[32..48]), load(&block[48..64]));
        // Rounds 0–15 take the block's own words; every later group of
        // four is scheduled from the sixteen words before it.
        let (k_first, k_rest) = K.split_at(16);
        rounds4(&mut abef, &mut cdgh, w0, &k_first[0..4]);
        rounds4(&mut abef, &mut cdgh, w1, &k_first[4..8]);
        rounds4(&mut abef, &mut cdgh, w2, &k_first[8..12]);
        rounds4(&mut abef, &mut cdgh, w3, &k_first[12..16]);
        for k in k_rest.chunks_exact(16) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, &k[0..4]);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, &k[4..8]);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, &k[8..12]);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, &k[12..16]);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    for (half, v) in state.chunks_exact_mut(4).zip([dcba, hgfe]) {
        half[0] = _mm_extract_epi32(v, 0) as u32;
        half[1] = _mm_extract_epi32(v, 1) as u32;
        half[2] = _mm_extract_epi32(v, 2) as u32;
        half[3] = _mm_extract_epi32(v, 3) as u32;
    }
}
