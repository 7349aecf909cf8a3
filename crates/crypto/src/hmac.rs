//! HMAC-SHA-256 (RFC 2104).
//!
//! Used as the MAC underlying the simulated signature scheme: a replica's
//! signature over `msg` is `HMAC(sk, domain ‖ msg)` (see [`crate::sig`]).
//!
//! # Key schedule
//!
//! `HMAC(k, m) = H((k ⊕ opad) ‖ H((k ⊕ ipad) ‖ m))`, and both padded keys
//! are exactly one SHA-256 block, so everything that depends on the key
//! alone is two compressions. [`HmacKey`] does them once and keeps the two
//! chaining values; each tag then resumes from them.
//!
//! # A tag is three compressions and one backend call
//!
//! A body of up to 119 bytes — every tag the protocols make: votes, shares
//! and proposals are 74–82 bytes with their domain, a rank report 44 — is
//! gathered and padded on the stack (one or two blocks) and handed to the
//! backend together with the two midstates: it compresses the body from
//! the inner one and the resulting digest, as the one padded block it
//! always is, from the outer one. On SHA-NI the digest never leaves
//! registers in between. A longer body streams; the body's length
//! selects, and the bytes are RFC 2104's either way.
//!
//! Tags of *one* body under *many* keys — an aggregate's signers — take
//! the same call two keys at a time (`HmacKey::mac_lanes`): the body is
//! padded once, both inner states read its one message schedule, and the
//! two dependency chains overlap.

use crate::sha256::{digest_after, hmac_short, sha256, with_padded, Padded, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A key with its HMAC-SHA-256 key schedule precomputed: the SHA-256
/// chaining values after absorbing `key ⊕ ipad` and `key ⊕ opad` (64 bytes
/// in all). They are as secret as the key itself.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "HmacKey(<redacted>)")
    }
}

impl HmacKey {
    /// Derives the key schedule for `key`.
    pub fn new(key: &[u8]) -> Self {
        // Keys longer than the block size are hashed first (RFC 2104 §2).
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate_after = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.midstate()
        };
        Self {
            inner: midstate_after(IPAD),
            outer: midstate_after(OPAD),
        }
    }

    /// `HMAC-SHA256(key, parts[0] ‖ parts[1] ‖ …)` without materializing
    /// the concatenation.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let short = Self::with_short_body(parts, |body| {
            let [tag] = Self::mac_lanes([self], body);
            tag
        });
        short.unwrap_or_else(|| {
            let inner = digest_after(self.inner, BLOCK as u64, parts);
            digest_after(self.outer, BLOCK as u64, &[&inner])
        })
    }

    /// Calls `f` with the tag body `parts[0] ‖ parts[1] ‖ …` padded
    /// behind the key block, for [`Self::mac_lanes`]; `None`, without
    /// calling it, when the body is longer than 119 bytes and has to
    /// stream through [`Self::mac`].
    #[inline]
    pub(crate) fn with_short_body<R>(
        parts: &[&[u8]],
        f: impl FnOnce(Padded<'_>) -> R,
    ) -> Option<R> {
        with_padded(BLOCK as u64, parts, f)
    }

    /// `keys[l].mac(body)` for every `l`, all in one backend call.
    pub(crate) fn mac_lanes<const N: usize>(
        keys: [&HmacKey; N],
        body: Padded<'_>,
    ) -> [[u8; 32]; N] {
        hmac_short(keys.map(|k| (&k.inner, &k.outer)), body)
    }
}

/// Computes `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(&[data])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256. `hmac_sha256` is
    // `HmacKey::new(key).mac(&[data])`, so these pin the key schedule too.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    /// RFC 2104's definition, two full passes, on the portable reference.
    fn two_pass(key: &[u8], data: &[u8]) -> [u8; 32] {
        use crate::sha256::sha256_portable;
        let mut block = [0u8; BLOCK];
        if key.len() > BLOCK {
            block[..32].copy_from_slice(&sha256_portable(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner: Vec<u8> = block.iter().map(|b| b ^ IPAD).collect();
        inner.extend_from_slice(data);
        let mut outer: Vec<u8> = block.iter().map(|b| b ^ OPAD).collect();
        outer.extend_from_slice(&sha256_portable(&inner));
        sha256_portable(&outer)
    }

    #[test]
    fn key_schedule_matches_two_pass_definition() {
        let material: Vec<u8> = (0..=255u8).collect();
        for key_len in [0, 20, 32, 64, 65, 131] {
            let key = &material[..key_len];
            let schedule = HmacKey::new(key);
            // Bodies on both sides of the one- and two-block paddings.
            for data_len in [0, 1, 55, 56, 74, 119, 120, 200] {
                let data = &material[7..7 + data_len];
                let expect = two_pass(key, data);
                assert_eq!(
                    schedule.mac(&[data]),
                    expect,
                    "key {key_len} B, data {data_len} B"
                );
                // Parts are a pure concatenation, wherever they are cut.
                let (a, b) = data.split_at(data_len / 3);
                assert_eq!(
                    schedule.mac(&[a, &[], b]),
                    expect,
                    "key {key_len} B, data {data_len} B"
                );
            }
        }
    }

    /// Every body length to 200 — the one-shot path up to 119 bytes, both
    /// of its padding edges (55/56, 119/120) and the streamed path beyond
    /// — cut into two parts at every point and into more at random ones.
    #[test]
    fn mac_matches_two_pass_at_every_length_and_cut() {
        let material: Vec<u8> = (0..=255u8).cycle().skip(3).take(200).collect();
        let mut x = 0x5eed_cafe_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize
        };
        for key in [&b"k"[..], &[0xaa; 32], &[0x55; 131]] {
            let schedule = HmacKey::new(key);
            for len in 0..=200 {
                let body = &material[..len];
                let expect = two_pass(key, body);
                for cut in 0..=len {
                    let (a, b) = body.split_at(cut);
                    assert_eq!(schedule.mac(&[a, b]), expect, "len {len}, cut {cut}");
                }
                let mut cuts: Vec<usize> = (0..next() % 5).map(|_| next() % (len + 1)).collect();
                cuts.extend([0, len]);
                cuts.sort_unstable();
                let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &body[w[0]..w[1]]).collect();
                assert_eq!(schedule.mac(&parts), expect, "len {len}, cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn two_lanes_are_two_macs() {
        let keys = [HmacKey::new(b"left"), HmacKey::new(&[7; 64])];
        for len in [0, 44, 55, 56, 74, 119] {
            let data = vec![0x3c; len];
            let two = HmacKey::with_short_body(&[&data], |body| {
                HmacKey::mac_lanes([&keys[0], &keys[1]], body)
            });
            let singles = [keys[0].mac(&[&data]), keys[1].mac(&[&data])];
            assert_eq!(two, Some(singles), "len {len}");
        }
        assert!(HmacKey::with_short_body(&[&[0; 120]], |_| ()).is_none());
    }

    #[test]
    fn key_schedule_debug_redacts() {
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey(<redacted>)");
    }
}
