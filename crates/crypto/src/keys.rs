//! Simulated PKI: deterministic key generation and the trusted registry.
//!
//! Every replica holds `K` secret sub-keys (`K = 1` suffices for everything
//! except Ladon-opt, whose multi-key rank encoding of §5.3 signs with key
//! `k = curRank − commitRank`). A [`KeyRegistry`] derives all keys from a
//! run seed and acts as the verification oracle: `verify` recomputes the
//! HMAC tag under the claimed signer's secret key.
//!
//! Key generation also derives each sub-key's [`HmacKey`] schedule, once;
//! the registry and every [`Signer`] share those rows by `Arc`, and a tag
//! hands `domain`, the separator and `msg` to the MAC as parts, so
//! signing and verifying allocate nothing. An aggregate's signers all
//! tag one body: the registry pads it once and takes them through the
//! MAC two at a time.
//!
//! # Security model of the simulation
//!
//! Honest actors are handed a [`Signer`] that wraps *only their own* secret
//! keys. Byzantine actors modeled in the experiments (stragglers, rank
//! minimizers, crash faults) likewise only hold their own [`Signer`], so
//! within the simulation no adversary can produce a tag for another
//! replica's key except by breaking HMAC-SHA-256.

use crate::hmac::HmacKey;
use crate::sha256::Sha256;
use ladon_types::ReplicaId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A public-key reference: `(replica, sub-key index)`.
///
/// The simulated scheme does not materialize group elements; a public key
/// is the registry coordinate the verifier looks up.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct PublicKey {
    /// Owning replica.
    pub replica: ReplicaId,
    /// Sub-key index in `0..K` (Ladon-opt; 0 otherwise).
    pub key_idx: u32,
}

/// A replica's signing handle: its own sub-keys only.
#[derive(Clone)]
pub struct Signer {
    /// The owning replica.
    pub replica: ReplicaId,
    keys: Arc<[HmacKey]>,
}

/// The body of every tag: `domain ‖ 0x1f ‖ msg`.
fn tag_parts<'a>(domain: &'a [u8], msg: &'a [u8]) -> [&'a [u8]; 3] {
    [domain, &[0x1f], msg]
}

/// The tag every signature carries: `HMAC(key, domain ‖ 0x1f ‖ msg)`.
fn tag_under(key: &HmacKey, domain: &[u8], msg: &[u8]) -> [u8; 32] {
    key.mac(&tag_parts(domain, msg))
}

impl Signer {
    /// Produces the raw HMAC tag for `(domain, msg)` under sub-key
    /// `key_idx`, clamped to the last key (`K − 1`) as §5.3 prescribes for
    /// rank differences beyond the key budget.
    pub(crate) fn tag(&self, key_idx: u32, domain: &[u8], msg: &[u8]) -> [u8; 32] {
        let idx = (key_idx as usize).min(self.keys.len() - 1);
        tag_under(&self.keys[idx], domain, msg)
    }

    /// The effective sub-key index after clamping.
    pub(crate) fn clamp_idx(&self, key_idx: u32) -> u32 {
        key_idx.min(self.keys.len() as u32 - 1)
    }
}

/// The trusted PKI oracle: derives and verifies all replicas' keys.
///
/// Cloning is cheap (`Arc` inside); the registry is shared by every actor
/// in a run for verification, while signing goes through per-replica
/// [`Signer`] handles.
#[derive(Clone)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

struct RegistryInner {
    n: usize,
    opt_keys: u32,
    /// `keys[replica][key_idx]`.
    keys: Vec<Arc<[HmacKey]>>,
}

impl KeyRegistry {
    /// Derives keys for `n` replicas with `opt_keys` sub-keys each, from a
    /// run seed. Deterministic: the same seed yields the same keys.
    pub fn generate(n: usize, opt_keys: u32, seed: u64) -> Self {
        assert!(n > 0, "registry requires at least one replica");
        assert!(opt_keys > 0, "each replica needs at least one key");
        let keys = (0..n)
            .map(|r| {
                (0..opt_keys)
                    .map(|k| {
                        let mut h = Sha256::new();
                        h.update(b"ladon/keygen");
                        h.update(&seed.to_le_bytes());
                        h.update(&(r as u32).to_le_bytes());
                        h.update(&k.to_le_bytes());
                        HmacKey::new(&h.finalize())
                    })
                    .collect()
            })
            .collect();
        Self {
            inner: Arc::new(RegistryInner { n, opt_keys, keys }),
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// Sub-keys per replica (`K`).
    pub fn opt_keys(&self) -> u32 {
        self.inner.opt_keys
    }

    /// Hands out replica `r`'s signing handle.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn signer(&self, r: ReplicaId) -> Signer {
        assert!(
            r.as_usize() < self.inner.n,
            "replica {r} out of range 0..{}",
            self.inner.n
        );
        Signer {
            replica: r,
            keys: Arc::clone(&self.inner.keys[r.as_usize()]),
        }
    }

    fn key(&self, replica: ReplicaId, key_idx: u32) -> Option<&HmacKey> {
        self.inner
            .keys
            .get(replica.as_usize())?
            .get(key_idx as usize)
    }

    /// Oracle tag recomputation for verification.
    pub(crate) fn tag_for(&self, pk: PublicKey, domain: &[u8], msg: &[u8]) -> Option<[u8; 32]> {
        Some(tag_under(self.key(pk.replica, pk.key_idx)?, domain, msg))
    }

    /// XOR of the tags of `(domain, msg)` under every key in `signers` —
    /// what an aggregate of their signatures combines to — or `None` if a
    /// key does not exist. The signers share one body, so it is padded
    /// once and they go through the MAC two at a time.
    pub(crate) fn combined_tag_for(
        &self,
        signers: &[(ReplicaId, u32)],
        domain: &[u8],
        msg: &[u8],
    ) -> Option<[u8; 32]> {
        let mut combined = [0u8; 32];
        let mut fold = |tag: [u8; 32]| combined.iter_mut().zip(tag).for_each(|(c, t)| *c ^= t);
        let key = |&(replica, key_idx): &(ReplicaId, u32)| self.key(replica, key_idx);
        let parts = tag_parts(domain, msg);
        let paired = HmacKey::with_short_body(&parts, |body| {
            let mut pairs = signers.chunks_exact(2);
            for pair in pairs.by_ref() {
                let keys = [key(&pair[0])?, key(&pair[1])?];
                HmacKey::mac_lanes(keys, body)
                    .into_iter()
                    .for_each(&mut fold);
            }
            if let [odd] = pairs.remainder() {
                HmacKey::mac_lanes([key(odd)?], body)
                    .into_iter()
                    .for_each(&mut fold);
            }
            Some(())
        });
        match paired {
            Some(every_key_exists) => every_key_exists?,
            // Too long to pad on the stack: streamed, one signer at a time.
            None => {
                for signer in signers {
                    fold(key(signer)?.mac(&parts));
                }
            }
        }
        Some(combined)
    }
}

impl std::fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyRegistry")
            .field("n", &self.inner.n)
            .field("opt_keys", &self.inner.opt_keys)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = KeyRegistry::generate(4, 2, 42);
        let b = KeyRegistry::generate(4, 2, 42);
        let c = KeyRegistry::generate(4, 2, 43);
        let pk = PublicKey {
            replica: ReplicaId(1),
            key_idx: 1,
        };
        assert_eq!(a.tag_for(pk, b"d", b"m"), b.tag_for(pk, b"d", b"m"));
        assert_ne!(a.tag_for(pk, b"d", b"m"), c.tag_for(pk, b"d", b"m"));
    }

    #[test]
    fn distinct_replicas_and_subkeys() {
        let reg = KeyRegistry::generate(4, 3, 1);
        let t = |r: u32, k: u32| {
            reg.tag_for(
                PublicKey {
                    replica: ReplicaId(r),
                    key_idx: k,
                },
                b"d",
                b"m",
            )
            .unwrap()
        };
        assert_ne!(t(0, 0), t(1, 0));
        assert_ne!(t(0, 0), t(0, 1));
        assert_ne!(t(0, 1), t(0, 2));
    }

    #[test]
    fn signer_clamps_key_index() {
        let reg = KeyRegistry::generate(4, 2, 1);
        let s = reg.signer(ReplicaId(0));
        assert_eq!(s.clamp_idx(0), 0);
        assert_eq!(s.clamp_idx(1), 1);
        assert_eq!(s.clamp_idx(99), 1);
        // Clamped tag equals the last key's tag.
        assert_eq!(s.tag(99, b"d", b"m"), s.tag(1, b"d", b"m"));
    }

    #[test]
    fn out_of_range_pk_yields_none() {
        let reg = KeyRegistry::generate(4, 1, 1);
        assert!(reg
            .tag_for(
                PublicKey {
                    replica: ReplicaId(9),
                    key_idx: 0
                },
                b"d",
                b"m"
            )
            .is_none());
        assert!(reg
            .tag_for(
                PublicKey {
                    replica: ReplicaId(0),
                    key_idx: 5
                },
                b"d",
                b"m"
            )
            .is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn signer_out_of_range_panics() {
        let reg = KeyRegistry::generate(4, 1, 1);
        let _ = reg.signer(ReplicaId(4));
    }
}
