//! FNV-1a 64-bit hashing for non-adversarial hot paths.
//!
//! The discrete-event engine and the metrics pipeline hash millions of
//! small keys; using SHA-256 there would dominate runtime without adding
//! fidelity. FNV-1a is used *only* where no adversary controls the input.

const OFFSET: u64 = 0xcbf29ce484222325;
const PRIME: u64 = 0x100000001b3;

/// One-shot FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Incremental FNV-1a hasher for composite keys.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Fresh hasher.
    #[inline]
    pub fn new() -> Self {
        Self(OFFSET)
    }

    /// Absorbs bytes.
    #[inline]
    #[must_use]
    pub fn write(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Final hash value.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let h = Fnv64::new().write(b"foo").write(b"bar").finish();
        assert_eq!(h, fnv1a(b"foobar"));
    }
}
