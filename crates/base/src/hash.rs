//! Deterministic, fast hashing for the kernel hot paths.
//!
//! The kernels keep the bookkeeping that no small integer names
//! (sibling links keyed by a possibly remote child, pending operations,
//! revoke waiters, endpoint bindings) in hash maps so that every
//! per-capability step of the protocol is O(1); mapping-database records
//! and capability tables' reverse indices are stored at their DDL key's
//! (VPE, object id) address instead. Two properties matter and both rule
//! out `std::collections::HashMap`'s default state:
//!
//! 1. **Determinism.** `RandomState` seeds per process, so map iteration
//!    order — and therefore anything accidentally derived from it —
//!    would differ between two runs of the same experiment. [`DetState`]
//!    is a fixed-key hasher: the same operation sequence always produces
//!    the same map state.
//! 2. **Speed.** The hot keys are small integers (packed 64-bit DDL
//!    keys, op ids, VPE ids); SipHash is an order of magnitude slower
//!    than the SplitMix64-style finalizer used here, which is enough to
//!    decorrelate the structured bit patterns of packed keys (creator PE
//!    in the high bits, sequential object ids in the low bits).
//!
//! # Determinism contract
//!
//! Iteration order of a [`DetHashMap`] is deterministic for a fixed
//! binary and operation sequence, but it is **not** stable across
//! rustc/std versions and it is **not** sorted. Protocol-visible
//! ordering (message emission, sweep order, wakeup order) must therefore
//! never be taken from map iteration — it always comes from explicitly
//! ordered structures: the `EventQueue`'s FIFO tie-break, `Vec`s in
//! insertion order (e.g. capability child lists in creation order), or
//! explicit sorts. The only map iterations in the kernel are
//! diagnostics (`check_invariants`) and VPE teardown, which sorts the
//! collected operations before acting on them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` with the deterministic fixed-key hasher.
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with the deterministic fixed-key hasher.
pub type DetHashSet<K> = HashSet<K, DetState>;

/// Fixed-key `BuildHasher`; every instance produces identical hashers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher { state: SEED }
    }
}

/// Word-at-a-time multiply-xor hasher with a SplitMix64 finalizer.
#[derive(Debug, Clone)]
pub struct DetHasher {
    state: u64,
}

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const MULT: u64 = 0xFF51_AFD7_ED55_8CCD;

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(29) ^ word).wrapping_mul(MULT);
    }
}

/// The SplitMix64 finalizer: a full-avalanche mix of a 64-bit value.
/// Shared by the hasher below and by deterministic spreading logic
/// elsewhere (e.g. service-instance selection).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one(v: u64) -> u64 {
        let mut h = DetState.build_hasher();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_one(42), hash_one(42));
        assert_ne!(hash_one(42), hash_one(43));
    }

    #[test]
    fn sequential_keys_spread() {
        // Packed DDL keys have sequential low bits; buckets use the low
        // bits of the hash, so sequential inputs must not collide there.
        let mask = 0xFFF;
        let mut buckets = std::collections::BTreeSet::new();
        for i in 0..1024u64 {
            buckets.insert(hash_one(i) & mask);
        }
        assert!(buckets.len() > 900, "low bits too clustered: {}", buckets.len());
    }

    #[test]
    fn byte_stream_matches_itself_only() {
        let mut a = DetState.build_hasher();
        a.write(b"hello world, this is a hash test");
        let mut b = DetState.build_hasher();
        b.write(b"hello world, this is a hash test");
        assert_eq!(a.finish(), b.finish());
        let mut c = DetState.build_hasher();
        c.write(b"hello world, this is a hash tesu");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn map_is_usable_and_deterministic() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000 {
                m.insert(i * 7, i);
            }
            m.remove(&21);
            m.iter().map(|(k, v)| k.wrapping_mul(31).wrapping_add(*v)).collect::<Vec<_>>()
        };
        // Same sequence, same binary -> identical iteration order.
        assert_eq!(build(), build());
    }
}
