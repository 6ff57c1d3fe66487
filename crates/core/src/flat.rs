//! A flat, open-addressed hash map for the server's peer-keyed indexes.
//!
//! The lease table's `heads` (resource → first holder slot) and
//! [`crate::MemStorage`]'s map (resource → contents) are probed on every
//! fetch and write, and on a deep table — millions of leases, far past
//! the last-level cache — every probe is a DRAM miss. A std `HashMap`
//! pays two dependent misses per lookup: one for the control-byte group,
//! then one for the bucket it points at. [`FlatMap`] keeps key, value and
//! occupancy inline in one bucket, so a lookup is one miss, and its home
//! bucket is a pure function of the key, so [`FlatMap::prefetch`] can
//! start that miss long before the lookup needs it.
//!
//! The layout: a power-of-two `Vec` of buckets, linear probing, a maximum
//! load of 7/8, and backward-shift deletion (a removal pulls the rest of
//! its probe chain back instead of leaving a tombstone, so chains never
//! lengthen with churn). The occupancy flag sits in the bucket's padding:
//! a `FlatMap<u64, u32>` bucket is 16 B, against hashbrown's 16 B plus a
//! control byte.
//!
//! The hasher stays `RandomState`: a client picks these keys, and a
//! linear-probing table is exactly where keys that collide in their low
//! bits turn into one long chain (`hash.rs`,
//! `fx_collides_on_keys_equal_in_their_low_bits`).

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::mem;

/// Buckets at or above which [`FlatMap::prefetch`] issues its hint: about
/// an L2's worth of 16 B buckets. A smaller map stays cached, and the
/// hint would only cost its hash.
pub const PREFETCH_MIN_BUCKETS: usize = 1 << 14;

/// Buckets allocated by the first insert.
const MIN_BUCKETS: usize = 8;

#[derive(Debug, Clone, Default)]
struct Bucket<K, V> {
    key: K,
    val: V,
    /// Occupied. Empty buckets hold `K::default()` / `V::default()`.
    full: bool,
}

/// A linear-probing hash map with inline buckets and a prefetch hint
/// (see the module docs). Empty buckets hold default keys and values, so
/// both must implement [`Default`].
#[derive(Clone)]
pub struct FlatMap<K, V, S = RandomState> {
    /// Empty, or a power of two long.
    buckets: Vec<Bucket<K, V>>,
    len: usize,
    hasher: S,
}

impl<K, V> FlatMap<K, V, RandomState> {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> FlatMap<K, V, RandomState> {
        FlatMap::with_hasher(RandomState::new())
    }
}

impl<K, V, S: Default> Default for FlatMap<K, V, S> {
    fn default() -> FlatMap<K, V, S> {
        FlatMap::with_hasher(S::default())
    }
}

impl<K, V, S> FlatMap<K, V, S> {
    fn with_hasher(hasher: S) -> FlatMap<K, V, S> {
        FlatMap {
            buckets: Vec::new(),
            len: 0,
            hasher,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets (a power of two, or 0 before the first insert).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the map is big enough for [`FlatMap::prefetch`] to act:
    /// at least [`PREFETCH_MIN_BUCKETS`] buckets.
    pub(crate) fn is_deep(&self) -> bool {
        self.buckets.len() >= PREFETCH_MIN_BUCKETS
    }

    /// Every entry, in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.buckets
            .iter()
            .filter(|b| b.full)
            .map(|b| (&b.key, &b.val))
    }
}

impl<K, V, S> FlatMap<K, V, S>
where
    K: Eq + Hash + Default,
    V: Default,
    S: BuildHasher,
{
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket `key`'s probe chain starts at. The map must have buckets.
    fn home(&self, key: &K) -> usize {
        self.hasher.hash_one(key) as usize & self.mask()
    }

    /// The bucket holding `key`, if any.
    fn find(&self, key: &K) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        // Terminates: the load cap keeps at least one bucket empty.
        loop {
            let b = &self.buckets[i];
            if !b.full {
                return None;
            }
            if b.key == *key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|i| &self.buckets[i].val)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.buckets[i].val)
    }

    /// Sets `key`'s value; returns the value it replaced.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        if let Some(i) = self.find(&key) {
            return Some(mem::replace(&mut self.buckets[i].val, val));
        }
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            self.grow();
        }
        self.place(key, val);
        self.len += 1;
        None
    }

    /// Removes `key`'s entry and returns its value. The entries behind it
    /// in its probe chain shift back into the hole, so no tombstone is
    /// left and no chain grows with churn.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut hole = self.find(key)?;
        let val = mem::take(&mut self.buckets[hole]).val;
        self.len -= 1;
        let mask = self.mask();
        let mut i = (hole + 1) & mask;
        while self.buckets[i].full {
            // The entry at `i` may fill the hole unless its home lies
            // (cyclically) after the hole: a lookup starting there would
            // never reach it.
            let home = self.home(&self.buckets[i].key);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets.swap(hole, i);
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(val)
    }

    /// Removes every entry, keeping the buckets.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for b in self.buckets.iter_mut().filter(|b| b.full) {
            *b = Bucket::default();
        }
        self.len = 0;
    }

    /// Starts loading the bucket `key`'s lookup will probe first into the
    /// cache, so a lookup issued a few hundred nanoseconds later hits. A
    /// pure hint: it changes nothing and may be called with any key.
    /// Below [`PREFETCH_MIN_BUCKETS`] it returns before hashing.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        if self.is_deep() {
            prefetch(&self.buckets[self.home(key)]);
        }
    }

    /// Puts an absent `key` into the first empty bucket of its chain.
    /// The caller has made room.
    fn place(&mut self, key: K, val: V) {
        let mask = self.mask();
        let mut i = self.home(&key);
        while self.buckets[i].full {
            i = (i + 1) & mask;
        }
        self.buckets[i] = Bucket {
            key,
            val,
            full: true,
        };
    }

    /// Doubles the buckets and re-places every entry.
    fn grow(&mut self) {
        let n = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let fresh = (0..n).map(|_| Bucket::default()).collect();
        let old = mem::replace(&mut self.buckets, fresh);
        for b in old.into_iter().filter(|b| b.full) {
            self.place(b.key, b.val);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug, S> fmt::Debug for FlatMap<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Asks the CPU to start loading the cache line(s) `value` occupies. A
/// hint: it reads nothing the program observes, and on targets other
/// than x86_64 it compiles to nothing.
#[inline(always)]
pub(crate) fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = value as *const T as *const i8;
        // A value that straddles two lines needs both.
        let last = first.wrapping_add(mem::size_of::<T>().saturating_sub(1));
        // SAFETY: `_mm_prefetch` needs SSE, which every x86_64 CPU has,
        // and it never faults or changes memory; both addresses lie
        // inside `value`.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(first);
            _mm_prefetch::<_MM_HINT_T0>(last);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K: Eq + Hash + Default, V: Default, S: BuildHasher> FlatMap<K, V, S> {
        /// The longest distance any entry sits from its home bucket.
        fn longest_probe(&self) -> usize {
            let mask = self.mask();
            (0..self.buckets.len())
                .filter(|&i| self.buckets[i].full)
                .map(|i| i.wrapping_sub(self.home(&self.buckets[i].key)) & mask)
                .max()
                .unwrap_or(0)
        }
    }

    #[test]
    fn a_u64_to_u32_bucket_is_16_bytes() {
        assert_eq!(mem::size_of::<Bucket<u64, u32>>(), 16);
    }

    #[test]
    fn empty_map_allocates_nothing_and_finds_nothing() {
        let mut m: FlatMap<u64, u32> = FlatMap::new();
        assert_eq!((m.len(), m.buckets()), (0, 0));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.remove(&1), None);
        m.prefetch(&1);
        m.clear();
        assert_eq!(m.buckets(), 0);
    }

    #[test]
    fn load_stays_at_or_under_seven_eighths() {
        let mut m: FlatMap<u64, u32> = FlatMap::new();
        for k in 0..10_000u64 {
            m.insert(k, k as u32);
            assert!(m.len() * 8 <= m.buckets() * 7);
            assert!(m.buckets().is_power_of_two());
        }
        assert!(m.is_deep());
        for k in 0..10_000u64 {
            assert_eq!(m.get(&k), Some(&(k as u32)));
        }
    }

    /// Why the map keeps `RandomState`: these keys all agree in their low
    /// 20 bits, and under a multiply hash (`hash.rs`,
    /// `fx_collides_on_keys_equal_in_their_low_bits`) they would share a
    /// home bucket and form one 4 096-long chain.
    #[test]
    fn keys_equal_in_their_low_bits_keep_probes_short() {
        let mut m: FlatMap<u64, u32> = FlatMap::new();
        for k in 0..4096u64 {
            m.insert(k << 20, k as u32);
        }
        assert!(m.longest_probe() <= 32, "probe {}", m.longest_probe());
        for k in 0..4096u64 {
            assert_eq!(m.get(&(k << 20)), Some(&(k as u32)));
        }
    }

    /// Hashes a `u64` key to itself, so tests can place chains.
    #[derive(Default, Clone)]
    struct Ident(u64);
    impl std::hash::Hasher for Ident {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, _: &[u8]) {
            unreachable!("u64 keys only")
        }
        fn write_u64(&mut self, n: u64) {
            self.0 = n;
        }
    }
    type Placed = FlatMap<u64, u32, std::hash::BuildHasherDefault<Ident>>;

    #[test]
    fn a_chain_wraps_past_the_last_bucket_and_shifts_back_on_remove() {
        let mut m = Placed::default();
        // Eight buckets; keys 7, 15 and 23 all start at bucket 7, so the
        // chain runs 7, 0, 1, and key 0 (home 0) lands behind it at 2.
        for k in [7u64, 15, 23, 0] {
            m.insert(k, k as u32);
        }
        assert_eq!(m.buckets(), 8);
        let at = |m: &Placed, k: u64| m.buckets.iter().position(|b| b.full && b.key == k);
        assert_eq!(
            [7, 15, 23, 0].map(|k| at(&m, k)),
            [Some(7), Some(0), Some(1), Some(2)]
        );
        // Removing 15 (mid-chain, past the wrap) pulls 23 back into its
        // bucket and 0 back to 1, one step from its home (now 23's).
        assert_eq!(m.remove(&15), Some(15));
        assert_eq!([7, 23, 0].map(|k| at(&m, k)), [Some(7), Some(0), Some(1)]);
        assert_eq!(m.longest_probe(), 1);
        // Removing the chain's head shifts the whole chain back across
        // the wrap.
        assert_eq!(m.remove(&7), Some(7));
        assert_eq!([23, 0].map(|k| at(&m, k)), [Some(7), Some(0)]);
        for k in [23u64, 0] {
            assert_eq!(m.get(&k), Some(&(k as u32)));
        }
        assert_eq!(m.get(&7), None);
        assert_eq!(m.get(&15), None);
    }

    #[test]
    fn insert_replaces_and_clear_keeps_buckets() {
        let mut m: FlatMap<u64, u32> = FlatMap::new();
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        *m.get_mut(&1).unwrap() += 1;
        assert_eq!(m.get(&1), Some(&12));
        assert_eq!(m.len(), 1);
        let buckets = m.buckets();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.buckets(), buckets);
        assert_eq!(m.get(&1), None);
        assert_eq!(format!("{m:?}"), "{}");
    }
}
