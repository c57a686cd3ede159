//! A fast non-cryptographic hasher for `u64`-keyed tables on hot paths.
//!
//! The engine's live-instance map (locked once per slot), and the store's
//! session table and KV map (on the apply path's critical section) are
//! keyed by ids the engine, the store or its own clients assign —
//! SipHash's hash-flooding resistance buys nothing there, while
//! its per-operation cost is measurable at millions of operations per
//! second, and growth rehashes the whole table.
//! This hasher finalizes each `u64` with the splitmix64 mixing function,
//! which scrambles sequential client ids into well-distributed buckets in
//! a handful of arithmetic instructions.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// splitmix64-finalizing [`Hasher`] for fixed-width integer keys.
#[derive(Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte-stream fallback (FNV-1a) so non-integer keys still hash
    /// correctly; the integer-keyed tables never take this path.
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = self.0 ^ n;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_spread_across_low_bits() {
        // Table indices come from the low bits of the hash; sequential
        // client ids must not collide there the way identity hashing would.
        let mask = 0xFFF;
        let mut buckets = std::collections::HashSet::new();
        for id in 0u64..4096 {
            let mut h = FastHasher::default();
            h.write_u64(id);
            buckets.insert(h.finish() & mask);
        }
        // A uniform random spray of 4096 balls into 4096 bins hits ~63%
        // of them; anything above half rules out degenerate clustering.
        assert!(
            buckets.len() > 2048,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn byte_fallback_distinguishes_inputs() {
        let hash = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"alpha"), hash(b"beta"));
        assert_ne!(hash(b""), hash(b"\0"));
    }
}
