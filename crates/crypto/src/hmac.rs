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
//! chaining values; each tag then resumes from them, which for a message of
//! up to 119 bytes is 3 compressions instead of 5.

use crate::sha256::{sha256, Sha256};

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
        let mut inner = Sha256::resume(self.inner, BLOCK as u64);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(&inner.finalize());
        outer.finalize()
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

    #[test]
    fn key_schedule_debug_redacts() {
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey(<redacted>)");
    }
}
