//! The reference lease table: the executable specification.
//!
//! This is the original map-based table — a `HashMap` of holders under
//! each resource plus a `BTreeSet` expiry index. Every grant pays two
//! hash probes and a B-tree remove+insert, and every `holders_at`
//! allocates; the slab table (`lease_core::table::slab`) exists to shed
//! exactly those costs. The reference survives because it is obviously
//! correct: the equivalence property test (`table_equiv.rs`, beside this
//! file) holds the slab to this implementation's answers.
//!
//! It is test code, not `lease-core` API: `table_equiv.rs` includes it as
//! a module, and `lease-core`'s own unit tests include it too (under
//! `cfg(test)`), so the spec's tests run with the crate it specifies.
//!
//! All queries take `now` and ignore expired entries, so callers never see
//! stale holders; physically removing them happens on access or via
//! [`ReferenceTable::prune`].

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use lease_clock::Time;
use lease_core::{ClientId, LeaseHandle, Resource};

/// The map-plus-index lease table (the spec; see the module docs).
#[derive(Debug, Clone)]
pub struct ReferenceTable<R> {
    /// resource -> holder -> expiry (server clock).
    holders: HashMap<R, HashMap<ClientId, Time>>,
    /// Expiry index for cheap pruning: ordered (expiry, resource, client).
    index: BTreeSet<(Time, R, ClientId)>,
    /// Leases ever granted (for reporting): records created plus actual
    /// extensions. A re-grant that would shorten (or merely equal) the
    /// existing expiry changes nothing and is not counted.
    granted_total: u64,
}

impl<R: Resource> ReferenceTable<R> {
    /// An empty table.
    pub fn new() -> ReferenceTable<R> {
        ReferenceTable {
            holders: HashMap::new(),
            index: BTreeSet::new(),
            granted_total: 0,
        }
    }

    /// Records (or extends) `client`'s lease on `resource` until `expiry`.
    ///
    /// An extension never shortens an existing lease: granting a later
    /// expiry replaces the record, an earlier (or equal) one is ignored.
    ///
    /// The returned handle is always [`LeaseHandle::NULL`]: the reference
    /// table has no slab to index into, so its "fast path" is the keyed
    /// path — which is exactly what a null handle means.
    pub fn grant(&mut self, resource: R, client: ClientId, expiry: Time) -> LeaseHandle {
        match self.holders.entry(resource).or_default().entry(client) {
            Entry::Occupied(mut e) => {
                let old = *e.get();
                if expiry > old {
                    self.index.remove(&(old, resource, client));
                    self.index.insert((expiry, resource, client));
                    e.insert(expiry);
                    self.granted_total += 1;
                }
            }
            Entry::Vacant(e) => {
                e.insert(expiry);
                self.index.insert((expiry, resource, client));
                self.granted_total += 1;
            }
        }
        LeaseHandle::NULL
    }

    /// Handle-keyed extension. The reference table has no handles, so
    /// this is [`ReferenceTable::grant`] — the behaviour a stale or null
    /// handle degrades to in the slab table, which is what makes the two
    /// observationally equivalent under any script.
    pub fn extend(
        &mut self,
        _handle: LeaseHandle,
        resource: R,
        client: ClientId,
        expiry: Time,
    ) -> LeaseHandle {
        self.grant(resource, client, expiry)
    }

    /// Removes `client`'s lease on `resource` (approval or relinquish).
    pub fn release(&mut self, resource: R, client: ClientId) {
        if let Some(m) = self.holders.get_mut(&resource) {
            if let Some(expiry) = m.remove(&client) {
                self.index.remove(&(expiry, resource, client));
            }
            if m.is_empty() {
                self.holders.remove(&resource);
            }
        }
    }

    /// Unexpired holders of `resource` at `now`, sorted.
    pub fn holders_at(&self, resource: R, now: Time) -> Vec<ClientId> {
        let mut v: Vec<ClientId> = match self.holders.get(&resource) {
            Some(m) => m
                .iter()
                .filter(|(_, exp)| **exp > now)
                .map(|(c, _)| *c)
                .collect(),
            None => Vec::new(),
        };
        v.sort_unstable();
        v
    }

    /// How many unexpired holders `resource` has at `now`.
    pub fn holder_count_at(&self, resource: R, now: Time) -> usize {
        self.holders
            .get(&resource)
            .map_or(0, |m| m.values().filter(|e| **e > now).count())
    }

    /// The expiry of `client`'s lease on `resource`, if unexpired at `now`.
    pub fn expiry_of(&self, resource: R, client: ClientId, now: Time) -> Option<Time> {
        self.holders
            .get(&resource)?
            .get(&client)
            .copied()
            .filter(|e| *e > now)
    }

    /// The latest expiry among unexpired holders of `resource`, if any.
    pub fn max_expiry(&self, resource: R, now: Time) -> Option<Time> {
        self.holders
            .get(&resource)?
            .values()
            .copied()
            .filter(|e| *e > now)
            .max()
    }

    /// Physically removes every lease expired at `now`; returns how many.
    pub fn prune(&mut self, now: Time) -> usize {
        let mut removed = 0;
        while let Some(&(expiry, resource, client)) = self.index.iter().next() {
            if expiry > now {
                break;
            }
            self.index.remove(&(expiry, resource, client));
            if let Some(m) = self.holders.get_mut(&resource) {
                m.remove(&client);
                if m.is_empty() {
                    self.holders.remove(&resource);
                }
            }
            removed += 1;
        }
        removed
    }

    /// The earliest expiry of any live record, pruned or not — the next
    /// instant at which [`ReferenceTable::prune`] could remove something.
    /// Lets a driver arm one timer instead of scanning the table.
    pub fn next_expiry(&self) -> Option<Time> {
        self.index.iter().next().map(|&(expiry, _, _)| expiry)
    }

    /// Drops everything (server crash: the table is volatile soft state).
    pub fn clear(&mut self) {
        self.holders.clear();
        self.index.clear();
    }

    /// Live lease records, including expired-but-unpruned ones.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total leases ever granted (an actual extension counts as a grant;
    /// an ignored shorter-or-equal re-grant does not).
    pub fn granted_total(&self) -> u64 {
        self.granted_total
    }

    /// Iterates all live records as `(resource, client, expiry)`, ordered
    /// by `(expiry, resource, client)`.
    pub fn iter(&self) -> impl Iterator<Item = (R, ClientId, Time)> + '_ {
        self.index.iter().map(|(e, r, c)| (*r, *c, *e))
    }
}

impl<R: Resource> Default for ReferenceTable<R> {
    fn default() -> ReferenceTable<R> {
        ReferenceTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn grant_and_query() {
        let mut tab = ReferenceTable::new();
        tab.grant(7u64, C1, t(10));
        tab.grant(7, C2, t(12));
        assert_eq!(tab.holders_at(7, t(5)), vec![C1, C2]);
        assert_eq!(tab.holders_at(7, t(11)), vec![C2]);
        assert_eq!(tab.holders_at(7, t(12)), Vec::<ClientId>::new());
        assert_eq!(tab.max_expiry(7, t(5)), Some(t(12)));
        assert_eq!(tab.expiry_of(7, C1, t(5)), Some(t(10)));
        assert_eq!(tab.expiry_of(7, C1, t(10)), None);
        assert_eq!(tab.holder_count_at(7, t(5)), 2);
        assert_eq!(tab.holder_count_at(7, t(11)), 1);
    }

    #[test]
    fn extension_never_shortens() {
        let mut tab = ReferenceTable::new();
        tab.grant(1u64, C1, t(10));
        tab.grant(1, C1, t(8)); // ignored
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(10)));
        tab.grant(1, C1, t(20)); // extends
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(20)));
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn granted_total_counts_creations_and_real_extensions_only() {
        let mut tab = ReferenceTable::new();
        tab.grant(1u64, C1, t(10)); // created: counts
        assert_eq!(tab.granted_total(), 1);
        tab.grant(1, C1, t(8)); // shorter: ignored, must not count
        tab.grant(1, C1, t(10)); // equal: ignored, must not count
        assert_eq!(tab.granted_total(), 1);
        tab.grant(1, C1, t(20)); // actually extended: counts
        assert_eq!(tab.granted_total(), 2);
        tab.grant(2, C2, t(5)); // new record: counts
        assert_eq!(tab.granted_total(), 3);
    }

    #[test]
    fn release_removes() {
        let mut tab = ReferenceTable::new();
        tab.grant(1u64, C1, t(10));
        tab.release(1, C1);
        assert!(tab.holders_at(1, t(0)).is_empty());
        assert!(tab.is_empty());
        // Releasing again is a no-op.
        tab.release(1, C1);
    }

    #[test]
    fn prune_removes_only_expired() {
        let mut tab = ReferenceTable::new();
        tab.grant(1u64, C1, t(5));
        tab.grant(1, C2, t(15));
        tab.grant(2, C1, t(10));
        assert_eq!(tab.prune(t(10)), 2); // C1@5 and 2/C1@10 (expiry <= now)
        assert_eq!(tab.len(), 1);
        assert_eq!(tab.holders_at(1, t(0)), vec![C2]);
    }

    #[test]
    fn next_expiry_tracks_index_head() {
        let mut tab = ReferenceTable::new();
        assert_eq!(tab.next_expiry(), None);
        tab.grant(1u64, C1, t(10));
        tab.grant(2, C2, t(5));
        assert_eq!(tab.next_expiry(), Some(t(5)));
        tab.prune(t(5));
        assert_eq!(tab.next_expiry(), Some(t(10)));
    }

    #[test]
    fn clear_wipes_everything() {
        let mut tab = ReferenceTable::new();
        tab.grant(1u64, C1, t(5));
        tab.grant(2, C2, t(5));
        tab.clear();
        assert!(tab.is_empty());
        assert_eq!(tab.granted_total(), 2); // counter survives for reporting
    }

    #[test]
    fn iter_yields_ordered_records() {
        let mut tab = ReferenceTable::new();
        tab.grant(2u64, C2, t(20));
        tab.grant(1, C1, t(10));
        let recs: Vec<_> = tab.iter().collect();
        assert_eq!(recs, vec![(1, C1, t(10)), (2, C2, t(20))]);
    }
}
