//! The slab lease table: §2's "couple of pointers", taken literally.
//!
//! Every lease record is one fixed-size slot in a generational slab
//! (`Vec<Slot>` plus an intrusive free list). A resource's holders form a
//! doubly-linked list threaded *through* the slab via `prev`/`next` slot
//! indices, so the per-resource state in the `heads` map is a single
//! `u32`. Expiry ordering is delegated to the hierarchical
//! [`TimerWheel`] under the lazy-timer rule: creating a record schedules
//! its one wheel entry, keyed `(slot, generation)`; extension — the
//! paper's steady state — overwrites `Slot::expiry` and never touches the
//! wheel; and when the entry fires, [`SlabTable::prune`] frees the record
//! if it has lapsed, else puts the entry back at the record's current
//! expiry. Wheel entries follow live leases, not grants: a continuously
//! renewed lease costs one re-arm per *term*.
//!
//! Costs, compared to the reference table (the map-plus-`BTreeSet`
//! specification in `tests/reference/`):
//!
//! * grant/extend/release: one hash probe plus a short holder-list walk
//!   (the sharing set of one resource), versus two hash probes plus a
//!   B-tree remove+insert. With a valid [`LeaseHandle`] the extend path
//!   is a single slab load — no hashing at all.
//! * Steady state allocates nothing: freed slots recycle through the free
//!   list, the wheel recycles its redistribution buffers, the holder list
//!   is intrusive, and an extension writes one field — no per-grant
//!   boxes, tree nodes or wheel entries exist.
//!
//! Handles are hints, never authority (see [`LeaseHandle`]): the table
//! checks generation parity, generation equality, resource, and holder
//! before trusting one, and otherwise falls back to the keyed path.
//!
//! One semantic difference from the reference, by design: the wheel
//! quantizes expiries to its tick, so [`SlabTable::prune`] may leave a
//! record in place for up to one tick past its expiry (it is removed by
//! the next prune at or after the tick boundary). Queries are unaffected
//! — they all filter by `expiry > now` — only `len`/`iter` can
//! transiently see the lagged record. [`SlabTable::with_tick`] with
//! `Dur(1)` (one nanosecond) makes prune exact; the equivalence property
//! test runs in that mode to compare against the reference verbatim.

use std::collections::HashMap;

use lease_clock::{Dur, Time};

use crate::types::{ClientId, LeaseHandle, Resource};
use crate::wheel::TimerWheel;

/// Null slot index, used as the list/free-list terminator.
const NIL: u32 = u32::MAX;

/// Default wheel tick: 1 ms. Lease terms in the paper are tens of seconds
/// (§3.2 settles on 10 s), so a millisecond of prune quantization is
/// noise, and it keeps the wheel's tick arithmetic far from overflow.
const DEFAULT_TICK: Dur = Dur::from_millis(1);

/// One lease record: §2's "couple of pointers worth of storage".
#[derive(Debug, Clone)]
struct Slot<R> {
    /// Odd while occupied, even while free; bumped on every transition,
    /// so a handle minted for one tenancy never validates for another.
    gen: u32,
    /// Previous holder of the same resource (`NIL` = list head).
    prev: u32,
    /// Next holder of the same resource; doubles as the free-list link
    /// while the slot is free.
    next: u32,
    /// The holder.
    client: ClientId,
    /// Server-clock expiry of the lease.
    expiry: Time,
    /// The leased resource (stale while the slot is free).
    resource: R,
}

/// The slab-backed lease table (see the module docs).
#[derive(Debug, Clone)]
pub struct SlabTable<R> {
    slots: Vec<Slot<R>>,
    /// Head of the free list threaded through `Slot::next` (`NIL` = none).
    free_head: u32,
    /// resource -> slot index of the first holder in its intrusive list.
    heads: HashMap<R, u32>,
    /// Expiry ordering: exactly one `(slot, generation)` entry per live
    /// record, scheduled at or before its expiry. Never cancelled — a
    /// release leaves its tenancy's entry behind, and prune drops it by
    /// generation when it fires; extension leaves the wheel alone.
    wheel: TimerWheel<(u32, u32)>,
    /// Fired-entry scratch reused across prunes.
    scratch: Vec<(Time, (u32, u32))>,
    /// Occupied slots.
    live: usize,
    /// Leases ever granted: records created plus actual extensions
    /// (ignored shorter-or-equal re-grants do not count).
    granted_total: u64,
}

impl<R: Resource> SlabTable<R> {
    /// An empty table with the default (1 ms) prune quantum.
    pub fn new() -> SlabTable<R> {
        SlabTable::with_tick(DEFAULT_TICK)
    }

    /// An empty table whose prune lag is bounded by `tick`. `Dur(1)` (one
    /// nanosecond) makes [`SlabTable::prune`] exactly match the reference
    /// table; coarser ticks make the wheel cheaper to advance across long
    /// idle stretches.
    ///
    /// Panics if `tick` is zero.
    pub fn with_tick(tick: Dur) -> SlabTable<R> {
        SlabTable {
            slots: Vec::new(),
            free_head: NIL,
            heads: HashMap::new(),
            wheel: TimerWheel::new(tick, Time::ZERO),
            scratch: Vec::new(),
            live: 0,
            granted_total: 0,
        }
    }

    /// Records (or extends) `client`'s lease on `resource` until `expiry`
    /// and returns the record's handle. An extension never shortens: a
    /// later expiry replaces the record's, an earlier or equal one is
    /// ignored (the handle returned is still valid).
    pub fn grant(&mut self, resource: R, client: ClientId, expiry: Time) -> LeaseHandle {
        if let Some(idx) = self.find(resource, client) {
            self.extend_slot(idx, expiry);
            return self.handle_at(idx);
        }
        let idx = self.alloc(resource, client, expiry);
        self.link_front(resource, idx);
        let handle = self.handle_at(idx);
        self.wheel.schedule(expiry, (idx, handle.gen));
        self.live += 1;
        self.granted_total += 1;
        handle
    }

    /// Handle-keyed extension: the renewal fast path. A handle that still
    /// names `client`'s lease on `resource` is honoured with one slab
    /// load; a null, stale, or mismatched handle falls back to
    /// [`SlabTable::grant`] (a clean miss — never a different record).
    /// Either way the returned handle names the live record.
    pub fn extend(
        &mut self,
        handle: LeaseHandle,
        resource: R,
        client: ClientId,
        expiry: Time,
    ) -> LeaseHandle {
        let idx = handle.idx as usize;
        if idx < self.slots.len() {
            let s = &self.slots[idx];
            // Odd generation = occupied; the parity check keeps a forged
            // even generation from ever matching a free slot.
            if s.gen == handle.gen && s.gen & 1 == 1 && s.resource == resource && s.client == client
            {
                self.extend_slot(handle.idx, expiry);
                return handle;
            }
        }
        self.grant(resource, client, expiry)
    }

    /// Removes `client`'s lease on `resource` (approval or relinquish).
    /// Any handle to the record is invalidated.
    pub fn release(&mut self, resource: R, client: ClientId) {
        if let Some(idx) = self.find(resource, client) {
            self.unlink(idx);
            self.free(idx);
        }
    }

    /// Unexpired holders of `resource` at `now`, sorted. Allocates;
    /// steady-state paths should prefer
    /// [`SlabTable::for_each_holder_at`] / [`SlabTable::holder_count_at`].
    pub fn holders_at(&self, resource: R, now: Time) -> Vec<ClientId> {
        let mut v = Vec::new();
        self.for_each_holder_at(resource, now, |c| v.push(c));
        v.sort_unstable();
        v
    }

    /// Calls `f` once per unexpired holder of `resource` at `now`, in no
    /// particular order. Zero allocation: one hash probe plus the walk.
    pub fn for_each_holder_at(&self, resource: R, now: Time, mut f: impl FnMut(ClientId)) {
        let mut idx = self.heads.get(&resource).copied().unwrap_or(NIL);
        while idx != NIL {
            let s = &self.slots[idx as usize];
            if s.expiry > now {
                f(s.client);
            }
            idx = s.next;
        }
    }

    /// How many unexpired holders `resource` has at `now`.
    pub fn holder_count_at(&self, resource: R, now: Time) -> usize {
        let mut n = 0;
        self.for_each_holder_at(resource, now, |_| n += 1);
        n
    }

    /// The expiry of `client`'s lease on `resource`, if unexpired at `now`.
    pub fn expiry_of(&self, resource: R, client: ClientId, now: Time) -> Option<Time> {
        self.find(resource, client)
            .map(|idx| self.slots[idx as usize].expiry)
            .filter(|e| *e > now)
    }

    /// The latest expiry among unexpired holders of `resource`, if any.
    pub fn max_expiry(&self, resource: R, now: Time) -> Option<Time> {
        let mut max = None;
        let mut idx = self.heads.get(&resource).copied().unwrap_or(NIL);
        while idx != NIL {
            let s = &self.slots[idx as usize];
            if s.expiry > now && max.is_none_or(|m| s.expiry > m) {
                max = Some(s.expiry);
            }
            idx = s.next;
        }
        max
    }

    /// The handle currently naming `client`'s lease on `resource`, if the
    /// record exists (expired-but-unpruned included).
    pub fn handle_of(&self, resource: R, client: ClientId) -> Option<LeaseHandle> {
        self.find(resource, client).map(|idx| self.handle_at(idx))
    }

    /// Physically frees records whose expiry has passed; returns how many.
    ///
    /// Advances the wheel to `now` and applies the lazy-timer rule to
    /// every fired entry: generation mismatch — the tenancy it was
    /// scheduled for is over (released, slot possibly reused), drop it;
    /// `expiry <= now` — lapsed, free the record; otherwise the record
    /// was extended (or `now` ran backwards) and this is still its only
    /// entry, so it goes back on the wheel at the record's current expiry.
    ///
    /// May lag a true expiry by up to one wheel tick (see the module docs).
    pub fn prune(&mut self, now: Time) -> usize {
        let mut fired = std::mem::take(&mut self.scratch);
        fired.clear();
        self.wheel.advance_into(now, &mut fired);
        let mut removed = 0;
        for &(_, (idx, gen)) in &fired {
            let s = &self.slots[idx as usize];
            if s.gen != gen {
                continue;
            }
            if s.expiry <= now {
                self.unlink(idx);
                self.free(idx);
                removed += 1;
            } else {
                self.wheel.schedule(s.expiry, (idx, gen));
            }
        }
        self.scratch = fired;
        removed
    }

    /// A lower bound on the earliest instant at which
    /// [`SlabTable::prune`] could free a record — suitable for arming a
    /// wake-up timer (wake, prune, ask again). Unlike the reference
    /// table's exact answer this may be early (an extended record's entry
    /// sits at the expiry it was last armed for, a released tenancy's
    /// lingers, wheel cascade boundaries), never late; each prune re-arms
    /// strictly past its `now`, so the loop converges. `None` when no
    /// records are live.
    pub fn next_expiry(&self) -> Option<Time> {
        if self.live == 0 {
            return None;
        }
        self.wheel.next_deadline()
    }

    /// Drops every record (server crash: the table is volatile soft
    /// state), keeping allocated capacity and the grant counter.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
        self.heads.clear();
        self.wheel.clear();
        self.live = 0;
    }

    /// Live lease records, including expired-but-unpruned ones.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Entries on the expiry wheel: one per live record, plus one per
    /// released tenancy whose entry has not fired yet. Never grows with
    /// extensions.
    pub fn timer_entries(&self) -> usize {
        self.wheel.len()
    }

    /// Total leases ever granted (an actual extension counts as a grant;
    /// an ignored shorter-or-equal re-grant does not).
    pub fn granted_total(&self) -> u64 {
        self.granted_total
    }

    /// Iterates all live records as `(resource, client, expiry)`, ordered
    /// by `(expiry, resource, client)`. Allocates; reporting path only.
    pub fn iter(&self) -> impl Iterator<Item = (R, ClientId, Time)> + '_ {
        let mut v: Vec<(R, ClientId, Time)> = self
            .slots
            .iter()
            .filter(|s| s.gen & 1 == 1)
            .map(|s| (s.resource, s.client, s.expiry))
            .collect();
        v.sort_unstable_by_key(|&(r, c, e)| (e, r, c));
        v.into_iter()
    }

    /// The slot index of `client`'s record on `resource`, walking the
    /// resource's holder list.
    fn find(&self, resource: R, client: ClientId) -> Option<u32> {
        let mut idx = self.heads.get(&resource).copied().unwrap_or(NIL);
        while idx != NIL {
            let s = &self.slots[idx as usize];
            if s.client == client {
                return Some(idx);
            }
            idx = s.next;
        }
        None
    }

    /// Extends the record in occupied slot `idx` if `expiry` is later. The
    /// record's wheel entry stays where it is; `prune` re-arms it.
    fn extend_slot(&mut self, idx: u32, expiry: Time) {
        let s = &mut self.slots[idx as usize];
        if expiry > s.expiry {
            s.expiry = expiry;
            self.granted_total += 1;
        }
    }

    /// Takes a slot from the free list (bumping its generation to odd) or
    /// grows the slab.
    fn alloc(&mut self, resource: R, client: ClientId, expiry: Time) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let s = &mut self.slots[idx as usize];
            self.free_head = s.next;
            s.gen = s.gen.wrapping_add(1); // even -> odd: occupied
            s.resource = resource;
            s.client = client;
            s.expiry = expiry;
            idx
        } else {
            let idx = self.slots.len();
            assert!(idx < NIL as usize, "slab table full");
            self.slots.push(Slot {
                gen: 1,
                prev: NIL,
                next: NIL,
                client,
                expiry,
                resource,
            });
            idx as u32
        }
    }

    /// Pushes occupied slot `idx` onto the front of its resource's list.
    fn link_front(&mut self, resource: R, idx: u32) {
        let old = self.heads.insert(resource, idx).unwrap_or(NIL);
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = old;
        if old != NIL {
            self.slots[old as usize].prev = idx;
        }
    }

    /// Removes occupied slot `idx` from its resource's holder list.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, resource) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next, s.resource)
        };
        if prev == NIL {
            if next == NIL {
                self.heads.remove(&resource);
            } else {
                self.heads.insert(resource, next);
            }
        } else {
            self.slots[prev as usize].next = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Returns unlinked slot `idx` to the free list (generation to even).
    fn free(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        s.gen = s.gen.wrapping_add(1); // odd -> even: free
        s.next = self.free_head;
        self.free_head = idx;
        self.live -= 1;
    }

    /// The handle naming the record currently in occupied slot `idx`.
    fn handle_at(&self, idx: u32) -> LeaseHandle {
        LeaseHandle {
            idx,
            gen: self.slots[idx as usize].gen,
        }
    }
}

impl<R: Resource> Default for SlabTable<R> {
    fn default() -> SlabTable<R> {
        SlabTable::new()
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

    /// Exact-prune table, so tests can reason like the reference.
    fn exact() -> SlabTable<u64> {
        SlabTable::with_tick(Dur(1))
    }

    #[test]
    fn grant_and_query() {
        let mut tab = exact();
        tab.grant(7, C1, t(10));
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
        let mut tab = exact();
        tab.grant(1, C1, t(10));
        tab.grant(1, C1, t(8)); // ignored
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(10)));
        tab.grant(1, C1, t(20)); // extends
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(20)));
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn granted_total_counts_creations_and_real_extensions_only() {
        let mut tab = exact();
        tab.grant(1, C1, t(10));
        assert_eq!(tab.granted_total(), 1);
        tab.grant(1, C1, t(8)); // shorter: not counted
        tab.grant(1, C1, t(10)); // equal: not counted
        assert_eq!(tab.granted_total(), 1);
        tab.grant(1, C1, t(20)); // extended: counted
        assert_eq!(tab.granted_total(), 2);
        tab.grant(2, C2, t(5)); // created: counted
        assert_eq!(tab.granted_total(), 3);
    }

    #[test]
    fn release_removes_and_recycles_slot() {
        let mut tab = exact();
        let h1 = tab.grant(1, C1, t(10));
        tab.release(1, C1);
        assert!(tab.holders_at(1, t(0)).is_empty());
        assert!(tab.is_empty());
        tab.release(1, C1); // no-op
        let h2 = tab.grant(2, C2, t(20));
        // Slot recycled, generation advanced: the handles must differ.
        assert_eq!(h1.idx, h2.idx);
        assert_ne!(h1.gen, h2.gen);
    }

    #[test]
    fn handle_fast_path_extends() {
        let mut tab = exact();
        let h = tab.grant(1, C1, t(10));
        assert!(!h.is_null());
        let h2 = tab.extend(h, 1, C1, t(20));
        assert_eq!(h2, h); // same record, same tenancy
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(20)));
        assert_eq!(tab.len(), 1);
        // Shorter via handle is ignored, like grant.
        tab.extend(h, 1, C1, t(15));
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(20)));
        assert_eq!(tab.granted_total(), 2);
    }

    #[test]
    fn stale_handle_is_a_clean_miss_never_a_wrong_record() {
        let mut tab = exact();
        let h_old = tab.grant(1, C1, t(10));
        tab.release(1, C1);
        // Slot recycled by an unrelated record.
        let h_new = tab.grant(2, C2, t(30));
        assert_eq!(h_old.idx, h_new.idx);
        // The stale handle must not touch (2, C2): it falls back to the
        // keyed path and re-creates (1, C1).
        let h = tab.extend(h_old, 1, C1, t(40));
        assert_eq!(tab.expiry_of(2, C2, t(0)), Some(t(30))); // untouched
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(40)));
        assert!(!h.is_null());
        assert_ne!(h, h_old);
    }

    #[test]
    fn mismatched_resource_or_client_falls_back() {
        let mut tab = exact();
        let h = tab.grant(1, C1, t(10));
        // Valid generation, wrong key: must not extend (1, C1).
        tab.extend(h, 1, C2, t(50));
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(10)));
        assert_eq!(tab.expiry_of(1, C2, t(0)), Some(t(50)));
        tab.extend(h, 9, C1, t(60));
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(10)));
        assert_eq!(tab.expiry_of(9, C1, t(0)), Some(t(60)));
        // Null handle is always the keyed path.
        tab.extend(LeaseHandle::NULL, 1, C1, t(70));
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(70)));
    }

    #[test]
    fn prune_removes_only_expired() {
        let mut tab = exact();
        tab.grant(1, C1, t(5));
        tab.grant(1, C2, t(15));
        tab.grant(2, C1, t(10));
        assert_eq!(tab.prune(t(10)), 2); // expiry <= now
        assert_eq!(tab.len(), 1);
        assert_eq!(tab.holders_at(1, t(0)), vec![C2]);
    }

    #[test]
    fn prune_drops_entries_of_released_tenancies_only() {
        let mut tab = exact();
        tab.grant(1, C1, t(5));
        tab.grant(1, C1, t(50)); // extension: the entry stays at t(5)...
        assert_eq!(tab.prune(t(10)), 0); // ...fires, and is re-armed at t(50)
        assert_eq!(tab.expiry_of(1, C1, t(10)), Some(t(50)));
        assert_eq!(tab.timer_entries(), 1);
        tab.grant(2, C2, t(8));
        tab.release(2, C2); // the one stale kind: a released tenancy's entry
        assert_eq!(tab.timer_entries(), 2);
        assert_eq!(tab.prune(t(20)), 0);
        assert_eq!(tab.timer_entries(), 1); // dropped, not re-armed
        assert_eq!(tab.prune(t(50)), 1);
        assert!(tab.is_empty());
        assert_eq!(tab.timer_entries(), 0);
    }

    #[test]
    fn extensions_never_add_wheel_entries() {
        let mut tab = exact();
        let h = tab.grant(1, C1, t(10));
        tab.grant(2, C2, t(10));
        for i in 0..1000 {
            tab.extend(h, 1, C1, t(11 + i)); // handle-keyed
            tab.grant(2, C2, t(11 + i)); // keyed
            assert_eq!(tab.timer_entries(), tab.len());
        }
        assert_eq!(tab.granted_total(), 2002);
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(1010)));
    }

    #[test]
    fn slot_reuse_never_leaves_two_entries_answering_for_one_record() {
        let mut tab = exact();
        let old = tab.grant(1, C1, t(5));
        tab.release(1, C1);
        let new = tab.grant(2, C2, t(50)); // same slot, next tenancy
        assert_eq!(old.idx, new.idx);
        // len() + one unfired release, whose entry then fires over an
        // occupied, unexpired slot: it must be dropped by generation, not
        // re-armed for (2, C2).
        assert_eq!(tab.timer_entries(), 2);
        assert_eq!(tab.prune(t(10)), 0);
        assert_eq!(tab.timer_entries(), 1);
        assert_eq!(tab.expiry_of(2, C2, t(10)), Some(t(50)));
        // Churn the slot through many tenancies: entries stay bounded by
        // live + unfired releases, and one prune past them all leaves one.
        for i in 0..100 {
            tab.release(2, C2);
            tab.grant(2, C2, t(60 + i));
            assert_eq!(tab.timer_entries(), 2 + i as usize);
        }
        assert_eq!(tab.prune(t(64)), 0);
        assert_eq!((tab.len(), tab.timer_entries()), (1, 95));
        assert_eq!(tab.prune(t(159)), 1);
        assert_eq!((tab.len(), tab.timer_entries()), (0, 0));
    }

    #[test]
    fn continuous_renewal_keeps_one_entry_and_lapses_within_a_tick() {
        let mut tab: SlabTable<u64> = SlabTable::new(); // 1 ms tick
        let term = Dur::from_secs(10);
        let off = Dur::from_micros(500); // keep expiries off the tick grid
        let mut now = Time::ZERO + off;
        let mut h = tab.grant(1, C1, now + term);
        // Ten terms of synthetic time, renewed every second, pruned every
        // 100 ms: the record's entry fires about once a term and goes back.
        for step in 1..=1000u64 {
            now = Time::ZERO + off + Dur::from_millis(100 * step);
            if step % 10 == 0 {
                h = tab.extend(h, 1, C1, now + term);
            }
            assert_eq!(tab.prune(now), 0);
            assert_eq!((tab.len(), tab.timer_entries()), (1, 1));
        }
        assert_eq!(tab.granted_total(), 101);
        // Renewals stop: the record outlives every instant before its
        // expiry and is gone within one tick after it.
        let expiry = now + term;
        assert_eq!(tab.prune(Time(expiry.0 - 1)), 0);
        assert_eq!((tab.len(), tab.timer_entries()), (1, 1));
        assert_eq!(tab.prune(expiry + Dur::from_millis(1)), 1);
        assert_eq!((tab.len(), tab.timer_entries()), (0, 0));
    }

    #[test]
    fn next_expiry_is_never_late_and_the_wake_loop_terminates() {
        // Default tick; every time below is a whole second, so on the
        // tick grid, and prune is exact at the instants the loop visits.
        let mut tab: SlabTable<u64> = SlabTable::new();
        for r in 0..40u64 {
            tab.grant(r, C1, t(10 + r));
            tab.grant(r, C2, t(500 + 7 * r));
        }
        for r in 0..40u64 {
            tab.grant(r, C1, t(100 + 3 * r)); // extended past their entries
        }
        for r in 0..10u64 {
            tab.release(r, C2); // stale entries that only ever fire early
        }
        let mut now = Time::ZERO;
        let mut wakes = 0;
        while let Some(bound) = tab.next_expiry() {
            let earliest = tab.iter().map(|(_, _, e)| e).min().expect("live");
            assert!(bound <= earliest, "late bound {bound:?} > {earliest:?}");
            assert!(bound > now, "wake loop stalled at {now:?}");
            now = bound;
            tab.prune(now);
            assert!(tab.iter().all(|(_, _, e)| e > now));
            assert!(tab.timer_entries() <= tab.len() + 10);
            wakes += 1;
            assert!(wakes < 1000, "wake/prune/re-ask did not converge");
        }
        assert!(tab.is_empty());
        assert!(now <= t(500 + 7 * 39));
    }

    #[test]
    fn backward_prune_keeps_live_records_schedulable() {
        let mut tab = exact();
        tab.prune(t(100)); // wheel position moves to t(100)
        tab.grant(1, C1, t(50)); // grant behind the wheel's position
        assert_eq!(tab.prune(t(10)), 0); // older now: must not free it
        assert_eq!(tab.expiry_of(1, C1, t(10)), Some(t(50)));
        // ...and the record must still be prunable later.
        assert_eq!(tab.prune(t(60)), 1);
        assert!(tab.is_empty());
    }

    #[test]
    fn default_tick_prune_lags_at_most_one_tick() {
        let mut tab: SlabTable<u64> = SlabTable::new(); // 1 ms tick
        tab.grant(1, C1, Time::from_micros(500));
        // Queries are exact regardless of tick.
        assert_eq!(tab.holders_at(1, Time::from_micros(600)), vec![]);
        // Prune at 600 us cannot free it yet (entry sits on the 1 ms tick)...
        assert_eq!(tab.prune(Time::from_micros(600)), 0);
        assert_eq!(tab.len(), 1);
        // ...but the next tick boundary can.
        assert_eq!(tab.prune(Time::from_millis(1)), 1);
        assert!(tab.is_empty());
    }

    #[test]
    fn next_expiry_is_a_usable_lower_bound() {
        let mut tab = exact();
        assert_eq!(tab.next_expiry(), None);
        tab.grant(1, C1, t(10));
        tab.grant(2, C2, t(5));
        let d = tab.next_expiry().expect("live records");
        assert!(d <= t(5));
        tab.prune(t(5));
        let d = tab.next_expiry().expect("one live record");
        assert!(d <= t(10));
        tab.prune(t(10));
        assert_eq!(tab.next_expiry(), None);
    }

    #[test]
    fn clear_wipes_records_and_invalidates_handles() {
        let mut tab = exact();
        let h = tab.grant(1, C1, t(5));
        tab.grant(2, C2, t(5));
        tab.clear();
        assert!(tab.is_empty());
        assert_eq!(tab.granted_total(), 2); // counter survives for reporting
        assert_eq!(tab.next_expiry(), None);
        // A pre-crash handle must not resurrect state: keyed fallback.
        tab.extend(h, 1, C1, t(9));
        assert_eq!(tab.len(), 1);
        assert_eq!(tab.expiry_of(1, C1, t(0)), Some(t(9)));
    }

    #[test]
    fn iter_yields_ordered_records() {
        let mut tab = exact();
        tab.grant(2, C2, t(20));
        tab.grant(1, C1, t(10));
        let recs: Vec<_> = tab.iter().collect();
        assert_eq!(recs, vec![(1, C1, t(10)), (2, C2, t(20))]);
    }

    #[test]
    fn intrusive_list_survives_middle_removals() {
        let mut tab = exact();
        for c in 1..=5u32 {
            tab.grant(7, ClientId(c), t(u64::from(c) * 10));
        }
        tab.release(7, ClientId(3)); // middle
        tab.release(7, ClientId(5)); // head (last granted is front)
        tab.release(7, ClientId(1)); // tail
        assert_eq!(tab.holders_at(7, t(0)), vec![ClientId(2), ClientId(4)]);
        assert_eq!(tab.len(), 2);
        // Freed slots recycle without disturbing the survivors.
        tab.grant(8, C1, t(99));
        assert_eq!(tab.holders_at(7, t(0)), vec![ClientId(2), ClientId(4)]);
    }
}
