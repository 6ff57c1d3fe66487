//! The primary-copy storage interface the server state machine writes
//! through.

use std::collections::HashMap;

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
}

/// A `HashMap`-backed storage for tests and the real-time runtime.
#[derive(Debug, Clone, Default)]
pub struct MemStorage<R, D> {
    // RandomState: `write` inserts any resource id a client writes.
    map: HashMap<R, (D, Version)>,
}

impl<R: Resource, D: Clone> MemStorage<R, D> {
    /// An empty storage.
    pub fn new() -> MemStorage<R, D> {
        MemStorage {
            map: HashMap::new(),
        }
    }

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

impl<R: Resource, D: Clone> Storage<R, D> for MemStorage<R, D> {
    fn read(&self, resource: &R) -> Option<(D, Version)> {
        self.map.get(resource).cloned()
    }

    fn version(&self, resource: &R) -> Option<Version> {
        self.map.get(resource).map(|(_, v)| *v)
    }

    fn write(&mut self, resource: &R, data: D) -> Version {
        let entry = self
            .map
            .entry(*resource)
            .or_insert_with(|| (data.clone(), Version(0)));
        entry.0 = data;
        entry.1 = entry.1.next();
        entry.1
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
