//! A stable, inlineable multiply-xor hash for shard routing and for maps
//! keyed by ids this process picks.
//!
//! The service router (`lease_svc::shard_of`) and every embedder that
//! pre-partitions per-resource state must agree on one hash function —
//! forever. `std::collections::hash_map::DefaultHasher` fails both of the
//! requirements that puts on it:
//!
//! * **Stability.** `DefaultHasher` is documented to be allowed to change
//!   between Rust releases. Anything that persists shard-partitioned state
//!   (per-shard MaxTerm slots, pre-partitioned installed-file sets, an
//!   on-disk layout keyed by shard) would silently re-partition on a
//!   toolchain upgrade — a latent corruption bug.
//! * **Speed.** SipHash runs the full 2×4-round permutation per 8-byte
//!   block; for routing one `u64` file id, that is most of the message's
//!   submission cost.
//!
//! [`FxHasher`] is an FxHash-style multiply-xor hash (the rustc hash):
//! per 8-byte word it costs one rotate, one xor, and one multiply, and its
//! output is a pure function of the byte/word stream fed to it — **stable
//! across releases, platforms, and architectures by construction**, and
//! pinned by golden-vector tests so it can never drift silently. It is not
//! collision-resistant against adversarial keys.
//!
//! That fixes which maps may use it ([`FxMap`], [`FxSet`]): **who picks
//! the keys decides the hasher.** A map keyed by ids this process minted
//! (request, op, write and timer ids), by the local application's own
//! reads, or by a simulated trace uses Fx. A map keyed by values a remote
//! peer sends — a resource id a client writes, a client's own `ReqId` —
//! keeps std's `RandomState`: Fx of one word is `w·K`, so keys that agree
//! in their low bits hash to buckets that agree in their low bits, and a
//! peer could pick keys that all collide.
//!
//! The rule follows the keys, not the type that holds them. One type can
//! serve both sides through a hasher parameter: [`crate::MemStorage`]'s
//! `new` is the `RandomState` store every real server builds, and the
//! simulator, which picks every resource id itself, names its store
//! under [`FxHasher`] (`lease_vsys::Store`).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`]; only for keys this process picks.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`]; only for keys this process picks.
pub type FxSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier (2^64 / golden ratio, as used by rustc's FxHash).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A stable FxHash-style streaming hasher.
///
/// Every `write_*` method reduces its input to one or two u64 words and
/// folds each with `hash = (hash.rotate_left(5) ^ word) * K`. Width-
/// dependent inputs (`usize`/`isize`) are widened to u64 first so 32- and
/// 64-bit platforms agree. Byte slices are folded as little-endian 8-byte
/// words, the tail zero-padded, followed by the length (so `"ab", "c"`
/// and `"a", "bc"` differ when hashed as separate slices).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A fresh hasher (state zero).
    #[inline]
    pub fn new() -> FxHasher {
        FxHasher::default()
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        // Widened so 32- and 64-bit platforms hash identically.
        self.add(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.add(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i128(&mut self, n: i128) {
        self.write_u128(n as u128);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as i64 as u64);
    }
}

/// Hashes one value with [`FxHasher`].
#[inline]
pub fn fx_hash<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors: these exact outputs are the routing contract.
    ///
    /// If this test ever fails, the hash changed — which silently
    /// re-partitions every shard-keyed layout in existence. Do not update
    /// the constants; fix the hash.
    #[test]
    fn golden_u64_vectors() {
        let expect: [(u64, u64); 6] = [
            (0x0, 0x0000000000000000),
            (0x1, 0x517cc1b727220a95),
            (0x7, 0x3a694c0211ee4a13),
            (0x2a, 0x5e77c80c6b95bc72),
            (0xdead_beef, 0x67f3c0372953771b),
            (u64::MAX, 0xae833e48d8ddf56b),
        ];
        for (input, hash) in expect {
            assert_eq!(
                fx_hash(&input),
                hash,
                "fx_hash({input:#x}) drifted from its pinned value"
            );
        }
    }

    #[test]
    fn golden_composite_vectors() {
        // Tuples are part of the contract too: embedders shard composite
        // keys like (dir, entry) pairs.
        assert_eq!(fx_hash(&(1u32, 2u32)), 0x6a4b_e67f_f98f_abc8);
        // Raw byte streams through `Hasher::write` (padded word + length).
        let mut h = FxHasher::new();
        h.write(b"lease");
        assert_eq!(h.finish(), 0x6bc5_c266_bdbf_2a8f);
    }

    #[test]
    fn distinct_streams_differ() {
        // Slice hashing folds the length, so different chunkings of the
        // same bytes differ.
        let mut a = FxHasher::new();
        a.write(b"ab");
        a.write(b"c");
        let mut b = FxHasher::new();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    /// Why a map keyed by what a peer sends keeps `RandomState`: keys that
    /// agree in their low n bits get Fx hashes that agree in their low n
    /// bits, and the table picks a bucket from those bits.
    #[test]
    fn fx_collides_on_keys_equal_in_their_low_bits() {
        let low = |h: u64| h & ((1 << 20) - 1);
        let first = low(fx_hash(&0u64));
        for k in 0..1024u64 {
            assert_eq!(low(fx_hash(&(k << 20))), first, "key {k} << 20");
        }
    }

    #[test]
    fn usize_matches_u64() {
        let mut a = FxHasher::new();
        a.write_usize(12345);
        let mut b = FxHasher::new();
        b.write_u64(12345);
        assert_eq!(a.finish(), b.finish());
    }
}
