//! The primary-copy storage interface the server state machine writes
//! through.
//!
//! [`MemStorage`]'s hasher follows the rule in `hash.rs`: who picks the
//! keys decides. A store a peer writes into — every real server's — keys
//! its map by resource ids a client sends, so [`MemStorage::new`] gives
//! it std's `RandomState`. The simulator picks every key itself (the
//! trace's file ids), so its store takes lease-core's Fx hasher through
//! the hasher parameter (`lease_vsys::Store`), and a renewal there costs
//! a multiply instead of a SipHash.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::flat::FlatMap;
use crate::types::{Resource, Version};

/// Primary storage for leased data.
///
/// The lease server is sans-IO; the harness hands it a `Storage` on every
/// call. Writes through this interface are the paper's write-through
/// commits: once [`Storage::write`] returns, the write is durable and must
/// survive a server crash.
pub trait Storage<R, D> {
    /// Current contents and version, or `None` if the resource is unknown.
    fn read(&self, resource: &R) -> Option<(D, Version)>;

    /// Current version without the data.
    fn version(&self, resource: &R) -> Option<Version>;

    /// Commits new contents; returns the new version.
    fn write(&mut self, resource: &R, data: D) -> Version;

    /// Starts loading what a lookup of `resource` will touch into the
    /// cache. A pure hint: it changes nothing, and the default does
    /// nothing.
    fn prefetch(&self, resource: &R) {
        let _ = resource;
    }
}

/// An in-memory storage for tests, the real-time runtime and the
/// simulator, on a [`FlatMap`] so a deep store costs one cache miss per
/// lookup and can be prefetched. `S` hashes its keys (see the module
/// docs); `Default` builds a store under any `S: Default`.
#[derive(Debug, Clone, Default)]
pub struct MemStorage<R, D, S = RandomState> {
    map: FlatMap<R, (D, Version), S>,
}

impl<R: Resource, D: Clone + Default> MemStorage<R, D, RandomState> {
    /// An empty storage under `RandomState`, for a store a peer writes
    /// into: `write` inserts any resource id a client writes.
    pub fn new() -> MemStorage<R, D, RandomState> {
        MemStorage {
            map: FlatMap::new(),
        }
    }
}

impl<R: Resource, D: Clone + Default, S: BuildHasher> MemStorage<R, D, S> {
    /// Creates a resource with initial contents at version 1.
    pub fn insert(&mut self, resource: R, data: D) {
        self.map.insert(resource, (data, Version(1)));
    }

    /// Writes contents at an explicit version (used by the write-back
    /// extension, whose clients pre-allocate version ranges).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `version` does not advance the resource.
    pub fn set(&mut self, resource: R, data: D, version: Version) {
        if let Some((_, v)) = self.map.get(&resource) {
            debug_assert!(version > *v, "set must advance the version");
        }
        self.map.insert(resource, (data, version));
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the storage is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<R: Resource, D: Clone + Default, S: BuildHasher> Storage<R, D> for MemStorage<R, D, S> {
    fn read(&self, resource: &R) -> Option<(D, Version)> {
        self.map.get(resource).cloned()
    }

    fn version(&self, resource: &R) -> Option<Version> {
        self.map.get(resource).map(|(_, v)| *v)
    }

    fn write(&mut self, resource: &R, data: D) -> Version {
        if let Some(entry) = self.map.get_mut(resource) {
            entry.0 = data;
            entry.1 = entry.1.next();
            return entry.1;
        }
        self.map.insert(*resource, (data, Version(1)));
        Version(1)
    }

    fn prefetch(&self, resource: &R) {
        self.map.prefetch(resource);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut s: MemStorage<u64, String> = MemStorage::new();
        assert!(s.read(&1).is_none());
        assert!(s.version(&1).is_none());
        s.insert(1, "a".into());
        assert_eq!(s.read(&1), Some(("a".into(), Version(1))));
        let v = s.write(&1, "b".into());
        assert_eq!(v, Version(2));
        assert_eq!(s.version(&1), Some(Version(2)));
    }

    #[test]
    fn set_places_explicit_versions() {
        let mut s: MemStorage<u64, u8> = MemStorage::new();
        s.insert(1, 10);
        s.set(1, 20, Version(9));
        assert_eq!(s.read(&1), Some((20, Version(9))));
        // The next auto write continues from there.
        assert_eq!(s.write(&1, 30), Version(10));
    }

    #[test]
    fn write_creates_unknown_resource() {
        let mut s: MemStorage<u64, u8> = MemStorage::new();
        let v = s.write(&9, 42);
        assert_eq!(v, Version(1));
        assert_eq!(s.read(&9), Some((42, Version(1))));
    }
}
